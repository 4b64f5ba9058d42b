"""Bit-identity check of lod2d's results: SHA-256 digests, and a diff against a revision.

    python3 tools/bitcheck.py --out digests.json           # this checkout's digests
    python3 tools/bitcheck.py --against HEAD~1             # this checkout against a revision
    python3 tools/bitcheck.py --against HEAD --only 'cases/L2-lf6-stripes-all-IH-k1-*' \\
        --plant cases/L2-lf6-stripes-all-IH-k1-rect        # must fail and name that case

Each output array is recorded as its dtype, shape and the SHA-256 of its bytes,
per case, next to an environment record (Python, numpy, scipy, their OpenBLAS
builds, the usable CPU count).  Three sets of cases:

- ``cases``: 864 solves, L = 2 and 3 at l_f = 6 with k = 1, 2 and saturated and
  L = 4 at l_f = 6 with k = 1 and 2; stripes, balls and field (alpha 1e-3); all
  edges and left+bottom Dirichlet; IH, SZ and AprojQM; no load (no right-hand-side
  correction), const, rect and hats at (0.5, 0.5), (0.25, 0.75) and (0, 0).  Each
  records Q, u_f, u_total, the coarse coefficients and the three counters; each
  operator records its matrix and one ``element_corrector`` vector per k, each
  mesh its prolongation matrix.
- ``threads``: the same outputs with ``LOD_THREADS`` = 1, 2 and 3 (the usable CPU
  count is stubbed to 3, so three helpers really run) on stripes, balls and field
  at L = 3, l_f = 6 with all six operators and k = 1, 2 and saturated, plus the
  random-field IH k = 2 solve at L = 4, l_f = 7.  The three helper counts must give
  equal digests.
- ``shipped``: the CSV and SVGs of ``lod2d run configs/stripes_desk.cfg``, with
  ``LOD_THREADS`` = 1 and 2 (byte equality of the files, as ``cmp`` checks it).

``--against REV`` extracts REV with ``git archive`` into a temporary directory,
runs this same script on REV's ``src`` there, and diffs the two records: it
names every case and array whose digest differs, and exits 1 if any does.  The
script uses only lod2d's public functions, so it runs unchanged on older
revisions.  Bit patterns belong to a numpy/scipy build, so the digests are
compared between two revisions in one environment, never kept as a golden file.
"""

from __future__ import annotations

import argparse
import fnmatch
import hashlib
import io
import itertools
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from unittest import mock

import numpy as np

REPO = Path(__file__).resolve().parent.parent
LOADS = {
    "none": ("constant", (1.0,)),
    "const": ("constant", (1.0,)),
    "rect": ("rectangle", (0.25, 0.75, 0.25, 0.75)),
    "hat0.5,0.5": ("hat", (0.5, 0.5)),
    "hat0.25,0.75": ("hat", (0.25, 0.75)),
    "hat0,0": ("hat", (0.0, 0.0)),
}
BOUNDARIES = {"all": ("left", "right", "bottom", "top"), "lb": ("left", "bottom")}


def digest(a):
    """``dtype shape sha256`` of an array's bytes."""
    a = np.ascontiguousarray(a)
    return f"{a.dtype.str} {list(a.shape)} {hashlib.sha256(memoryview(a).cast('B')).hexdigest()}"


def sparse_arrays(name, M):
    return {f"{name}.{attr}": getattr(M, attr) for attr in ("data", "indices", "indptr")}


def environment():
    import scipy

    def blas(module):
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except Exception:  # older builds have no dict form
            return None

    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_openblas": blas(np),
        "scipy": scipy.__version__,
        "scipy_openblas": blas(scipy),
        "nproc": usable,
        "LOD_THREADS": os.environ.get("LOD_THREADS"),
    }


class Recorder:
    """Digests of every selected case; ``plant`` bumps the first stored Q entry of
    one case by one ulp before it is hashed."""

    def __init__(self, only, plant):
        self.only, self.plant, self.digests = only, plant, {}

    def wants(self, name):
        return any(fnmatch.fnmatchcase(name, pattern) for pattern in self.only)

    def record(self, name, arrays):
        if name == self.plant:
            arrays["Q.data"] = arrays["Q.data"].copy()
            arrays["Q.data"][0] = np.nextafter(arrays["Q.data"][0], np.inf)
        self.digests[name] = {key: digest(a) for key, a in arrays.items()}


def solve_arrays(lod, ctx, op, k, load_name):
    """Q, u_f, u_total, the coarse coefficients and the counters of one solve.  Q
    comes from the compute_correctors call that solve_multiscale makes itself."""
    from lod2d import LoadSpec

    made = []
    compute = lod.compute_correctors

    def recording(*args, **kwargs):
        made.append(compute(*args, **kwargs))
        return made[-1]

    ctor, args = LOADS[load_name]
    with mock.patch.object(lod, "compute_correctors", recording):
        sol = lod.solve_multiscale(ctx, op, k, getattr(LoadSpec, ctor)(*args),
                                   rhs_correction=load_name != "none")
    (correctors, u_f), = made
    meta = sol.metadata
    counters = np.array([meta["factorizations"], meta["element_solves"], meta["dropped_rows"]])
    return {**sparse_arrays("Q", correctors.matrix), "u_f": u_f, "u_total": sol.u_total,
            "coarse": sol.coarse, "counters": counters}


def coefficient(mesh, kind):
    from lod2d import gen_random_balls, gen_random_field, gen_stripes

    if kind == "stripes":
        return gen_stripes(mesh, 1e-3)
    if kind == "balls":
        return gen_random_balls(mesh, 1e-3, 2)
    return gen_random_field(mesh, 1e-3, 1)


def run_family(rec, prefix, levels, coef_kind, boundary, kinds, ks, loads):
    """Every (operator, k, load) case of one mesh and coefficient; the mesh, context
    and operators are built only when a case of theirs is selected."""
    import lod2d.lod as lod
    from lod2d import BilinearFormContext, BoundarySpec, build_hierarchy, build_operator

    def name(kind, k, load=None):
        return f"{prefix}-{kind}-k{'sat' if k is None else k}" + (f"-{load}" if load else "")

    if not any(rec.wants(name(*c)) for c in itertools.product(kinds, ks, loads)):
        return
    mesh = build_hierarchy(*levels, BoundarySpec.edges(*BOUNDARIES[boundary]))
    ctx = BilinearFormContext(mesh, coefficient(mesh, coef_kind))
    rec.record(f"{prefix}-mesh", sparse_arrays("P", mesh.prolongation_matrix))
    for kind in kinds:
        selected = [(k, load) for k, load in itertools.product(ks, loads) if rec.wants(name(kind, k, load))]
        if not selected:
            continue
        op = build_operator(kind, mesh, ctx.coef)
        rec.record(f"{prefix}-{kind}", sparse_arrays("R", op.matrix))
        free = {int(z) for z in op.free_nodes}
        T = next(T for T in range(mesh.coarse.num_elements) if free & set(mesh.coarse.elements[T].tolist()))
        i = min(free & set(mesh.coarse.elements[T].tolist()))
        for k in dict.fromkeys(k for k, _ in selected):
            rec.record(name(kind, k), {"element_corrector": lod.element_corrector(ctx, op, i, T, k)})
        for k, load in selected:
            rec.record(name(kind, k, load), solve_arrays(lod, ctx, op, k, load))


def run_cases(rec):
    for (L, lf, ks), coef_kind, boundary in itertools.product(
        [(2, 6, (1, 2, None)), (3, 6, (1, 2, None)), (4, 6, (1, 2))],
        ("stripes", "balls", "field"), BOUNDARIES,
    ):
        run_family(rec, f"cases/L{L}-lf{lf}-{coef_kind}-{boundary}", (L, lf), coef_kind, boundary,
                   ("IH", "SZ", "AprojQM"), ks, LOADS)


def run_threads(rec):
    from lod2d import interp

    # three helpers on any host, as the helper-count test stubs it
    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(3)), create=True), \
            mock.patch.dict(os.environ):
        for threads in ("1", "2", "3"):
            os.environ["LOD_THREADS"] = threads
            for coef_kind in ("stripes", "balls", "field"):
                run_family(rec, f"threads{threads}/L3-lf6-{coef_kind}-all", (3, 6), coef_kind, "all",
                           interp.OPERATOR_KINDS, (1, 2, None), ("rect",))
            run_family(rec, f"threads{threads}/L4-lf7-field-all", (4, 7), "field", "all",
                       ("IH",), (2,), ("rect",))
    # the helper count must not change a bit
    errors = []
    for name in rec.digests:
        if name.startswith("threads1/"):
            for other in ("threads2/", "threads3/"):
                twin = other + name.removeprefix("threads1/")
                if twin in rec.digests and rec.digests[twin] != rec.digests[name]:
                    errors.append(f"{twin} differs from {name}")
    return errors


def run_shipped(rec, src):
    config = src.parent / "configs" / "stripes_desk.cfg"
    for threads in ("1", "2"):
        if not rec.wants(f"shipped-threads{threads}/stripes_desk.csv"):
            continue
        with tempfile.TemporaryDirectory() as out:
            env = {**os.environ, "LOD_THREADS": threads, "PYTHONPATH": str(src)}
            subprocess.run([sys.executable, "-m", "lod2d", "run", str(config)], cwd=out, env=env,
                           check=True, stdout=subprocess.DEVNULL)
            for path in sorted(Path(out, "out").glob("*.*")):
                rec.record(f"shipped-threads{threads}/{path.name}",
                           {"bytes": np.frombuffer(path.read_bytes(), dtype=np.uint8)})


def collect(args):
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    rec = Recorder(args.only, args.plant)
    start = time.perf_counter()
    run_cases(rec)
    errors = run_threads(rec)
    run_shipped(rec, src)
    if args.plant and args.plant not in rec.digests:
        errors.append(f"--plant {args.plant} names no case that ran")
    return {"environment": environment(), "src": str(src), "wall_s": round(time.perf_counter() - start, 1),
            "errors": errors, "digests": rec.digests}


def diff(ours, theirs):
    """Lines naming every case and array whose digest differs, or that one side lacks."""
    lines = []
    for name in sorted(ours["digests"].keys() | theirs["digests"].keys()):
        a, b = ours["digests"].get(name), theirs["digests"].get(name)
        if a is None or b is None:
            lines.append(f"{name}: only in {'the revision' if a is None else 'this checkout'}")
            continue
        for key in sorted(a.keys() | b.keys()):
            if a.get(key) != b.get(key):
                lines.append(f"{name}: {key} differs ({a.get(key)} vs {b.get(key)})")
    return lines


def against(args):
    with tempfile.TemporaryDirectory(prefix="bitcheck-") as tmp:
        tree = Path(tmp, "tree")
        archive = subprocess.run(["git", "-C", str(REPO), "archive", args.against, "src", "configs"],
                                 check=True, capture_output=True).stdout
        tree.mkdir()
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tree, filter="data")
        theirs_path = Path(tmp, "theirs.json")
        cmd = [sys.executable, __file__, "--src", str(tree / "src"), "--out", str(theirs_path)]
        for pattern in args.only:
            cmd += ["--only", pattern]
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
        theirs = json.loads(theirs_path.read_text())
    ours = collect(args)
    return ours, theirs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=str(REPO / "src"), help="the src directory holding lod2d")
    parser.add_argument("--out", help="write this checkout's record (JSON) here")
    parser.add_argument("--against", metavar="REV", help="diff against a git revision of this repository")
    parser.add_argument("--only", action="append", help="case-name glob (repeatable); default all")
    parser.add_argument("--plant", metavar="CASE", help="bump one Q entry of CASE by one ulp (a self-test)")
    args = parser.parse_args(argv)
    args.only = args.only or ["*"]
    if args.against:
        ours, theirs = against(args)
    else:
        ours, theirs = collect(args), None
    if args.out:
        Path(args.out).write_text(json.dumps(ours, indent=1, sort_keys=True) + "\n")
    problems = list(ours["errors"])
    if theirs is not None:
        problems += [f"revision {args.against}: {e}" for e in theirs["errors"]]
        problems += diff(ours, theirs)
        if ours["environment"] != theirs["environment"]:
            problems.append(f"environments differ: {ours['environment']} vs {theirs['environment']}")
    print(json.dumps(ours["environment"], sort_keys=True))
    print(f"{len(ours['digests'])} cases and outputs, {ours['wall_s']} s"
          + (f"; against {args.against}: {len(theirs['digests'])}" if theirs else ""))
    for line in problems:
        print(f"MISMATCH {line}")
    print("FAIL" if problems else "OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
