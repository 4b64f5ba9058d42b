"""One cold repetition of a benchmark workload, in an interpreter of its own.

Started by run.py; prints one JSON object as its last line of stdout.
setup_s covers ``import lod2d`` and the workload's input construction;
wall_s and cpu_s cover the timed phase only.  With ``--trace 1`` the
outside-in recorder of spans.py is installed right after the import.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def cpu_seconds():
    """User + system CPU seconds of this process and its waited-for children."""
    return sum(
        u.ru_utime + u.ru_stime
        for u in (resource.getrusage(resource.RUSAGE_SELF),
                  resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def versions():
    import numpy
    import scipy

    def blas(show_config):
        try:
            return show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (TypeError, KeyError):
            return None

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas(numpy.show_config),
        "openblas_scipy": blas(scipy.show_config),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--tmp-root", required=True)
    args = ap.parse_args()

    t_start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import lod2d

    if Path(lod2d.__file__).resolve().parent != SRC / "lod2d":
        sys.exit(f"imported lod2d from {lod2d.__file__}, not from {SRC}")
    import spans
    import workloads

    rec = None
    if args.trace:
        rec = spans.Recorder()
        _, missing = spans.install(rec)
        for site in missing:
            print(f"warning: trace site {site} not found", file=sys.stderr)

    outdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.tmp_root)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, outdir)
        state = workload.setup()
        setup_s = time.perf_counter() - t_start
        result = {"setup_s": setup_s, "versions": versions(), "seeded": workload.seeded}
        if not args.setup_only:
            c0, w0 = cpu_seconds(), time.perf_counter()
            outcome = workload.run(state)
            w1, c1 = time.perf_counter(), cpu_seconds()
            misses = workload.check(state, outcome)
            result.update(
                wall_s=w1 - w0,
                cpu_s=c1 - c0,
                attempted=len(misses),
                failed=sum(1 for m in misses if m),
                misses=[m for m in misses if m],
            )
            if rec is not None:
                result["layers"] = spans.analyse(rec.spans, w0, w1)
                result["gauges"] = rec.gauges
                result["spans"] = [list(s) for s in rec.spans]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
