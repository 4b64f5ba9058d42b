"""Run one lod2d benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload field-solve --seed 3 --seconds 15 --trace 0

Run from a checkout holding ``src/lod2d``; nothing needs installing.
Every repetition is a fresh interpreter (rep.py) with no reference
cache and a fresh output directory, so each one pays what a user's
first ``lod2d run`` pays and no in-process cache can carry work from
one repetition into the next.  Repetitions repeat until their timed
phases add up to ``--seconds``; medians are reported.  Compute threads
are pinned: ``LOD_THREADS`` = min(2, nproc), BLAS/OpenMP threads = 1.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``
with the end-to-end metrics of BENCHMARK.json (``--trace 0``) or its
per-layer metrics (``--trace 1``).  The line before it holds the
environment record and every repetition; the same record, with the
spans of a traced run, is written to ``.perfbench_runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_metric

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
MIN_SETUPS = 3  # setup_s is the median of at least this many cold setups
TIME_LIMIT_S = 170.0  # a whole run must end well within 180 s


def pinned_threads():
    return {
        "LOD_THREADS": str(min(2, os.cpu_count() or 1)),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }


def git_commit(root):
    """Commit of a git checkout, read from .git without running git; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def repetition(args, env, deadline, setup_only=False):
    cmd = [
        sys.executable, str(HERE / "rep.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(args.trace), "--tmp-root", str(RUNS / "tmp"),
    ]
    if setup_only:
        cmd.append("--setup-only")
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        sys.exit(f"{args.workload}: a repetition ran past the {TIME_LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        sys.exit(f"{args.workload}: a repetition exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "lod2d" / "__init__.py").is_file():
        sys.exit(f"no lod2d sources under {ROOT / 'src'}; run from a lod2d checkout")

    threads = pinned_threads()
    env = dict(os.environ, **threads)
    (RUNS / "tmp").mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    deadline = started + TIME_LIMIT_S

    reps = []
    while True:
        reps.append(repetition(args, env, deadline))
        measured = sum(r["wall_s"] for r in reps)
        elapsed = time.perf_counter() - started
        if measured >= args.seconds or elapsed * (1 + 1 / len(reps)) > TIME_LIMIT_S:
            break
    setups = [r["setup_s"] for r in reps]
    while not args.trace and len(setups) < MIN_SETUPS:
        setups.append(repetition(args, env, deadline, setup_only=True)["setup_s"])

    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for r in reps:
        for miss in r["misses"]:
            print(f"{args.workload}: gate miss: {miss}", file=sys.stderr)

    if args.trace:
        metrics = {
            m["name"]: {
                "value": statistics.median(
                    layer_metric(m["name"], r["layers"], r["gauges"], r["wall_s"], len(r["spans"]))
                    for r in reps
                ),
                "unit": m["unit"],
            }
            for m in bench["per_layer"]
        }
    else:
        usage = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                 + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in reps),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(r["cpu_s"] for r in reps),
            "peak_rss_mb": usage / 1024.0,
        }
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in bench["end_to_end"]}

    record = {
        "env": {
            "workload": args.workload,
            "seed": args.seed,
            "seed_used": reps[0]["seeded"],
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "threads": threads,
            "git_commit": git_commit(ROOT),
            **reps[0]["versions"],
        },
        "setup_s": setups,
        "reps": [{k: r[k] for k in ("wall_s", "cpu_s", "setup_s", "attempted", "failed", "misses")}
                 for r in reps],
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    saved = dict(record, result=result)
    if args.trace:
        saved["spans"] = [r["spans"] for r in reps]
    out = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(saved))
    print(json.dumps(record))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
