"""Self-test of the benchmark's own code (takes a few seconds).

    python3 perfbench/selftest.py

Checks the self-time arithmetic on hand-made spans, that the recorder
wraps and restores every trace site on a tiny real solve, that
perturbed results trip the correctness gates, and that BENCHMARK.json,
predictions.json and the metric rules agree.  Exits 0 when all pass.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", LOD_THREADS="2")
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402

CHECKS = []


def check(fn):
    CHECKS.append(fn)
    return fn


@check
def self_time_arithmetic():
    S = spans.Span
    trace = [
        S(1, None, "root", 0.0, 10.0),
        S(2, 1, "a", 1.0, 3.0),
        S(3, 1, "a", 2.0, 5.0),  # overlaps sibling 2, as pool workers do
        S(4, 1, "b", 9.0, 12.0),  # runs past its parent: clipped at 10
        S(5, 2, "c", 1.5, 2.5),  # grandchild: covered by 2, not by root
        S(6, None, "late", 11.0, 13.0),
    ]
    got = spans.analyse(trace, 0.0, 20.0)
    assert got["calls"] == {"root": 1, "a": 2, "b": 1, "c": 1, "late": 1}, got["calls"]
    assert math.isclose(got["s"]["a"], 5.0) and math.isclose(got["s"]["b"], 3.0)
    assert math.isclose(got["self_s"]["root"], 10.0 - 5.0), got["self_s"]  # [1,5] + [9,10]
    assert math.isclose(got["self_s"]["a"], (2.0 - 1.0) + 3.0), got["self_s"]
    assert math.isclose(got["coverage"], (10.0 + 2.0) / 20.0), got["coverage"]
    assert spans.covered([], 0.0, 1.0) == 0.0
    assert math.isclose(spans.covered([(-1.0, 0.5), (0.25, 0.75)], 0.0, 1.0), 0.75)


@check
def recorder_threads_and_parents():
    ticks = iter(range(1000))
    rec = spans.Recorder(clock=lambda: float(next(ticks)))

    def worker(parent):
        rec.call("cell", rec.call, ("leaf", lambda: None), parent=parent)

    def outer():
        t = threading.Thread(target=worker, args=(rec.current(),))
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()

    rec.call("outer", outer)
    by_name = {s.name: s for s in rec.spans}
    assert by_name["outer"].parent is None
    assert by_name["cell"].parent == by_name["outer"].sid
    assert by_name["leaf"].parent == by_name["cell"].sid


@check
def install_wraps_and_restores():
    import lod2d

    originals = {
        (modname, attr): getattr(sys.modules[modname], attr)
        for _, attr, modules in spans.SITES
        for modname in modules
    }
    rec = spans.Recorder()
    restore, missing = spans.install(rec)
    try:
        assert missing == [], missing
        mesh = lod2d.build_hierarchy(2, 6, lod2d.BoundarySpec.all_edges())
        coef = lod2d.gen_stripes(mesh, 1e-2)
        ctx = lod2d.BilinearFormContext(mesh, coef)
        f = lod2d.LoadSpec.constant(1.0)
        op = lod2d.build_operator("IH", mesh, coef)
        sol = lod2d.solve_multiscale(ctx, op, 1, f)
        lod2d.relative_energy_error(ctx, lod2d.reference_solution(ctx, f), sol.u_total)
    finally:
        restore()
    for (modname, attr), fn in originals.items():
        assert getattr(sys.modules[modname], attr) is fn, f"{modname}.{attr} not restored"
    got = spans.analyse(rec.spans, 0.0, 1.0)
    n_elements = mesh.coarse.num_elements
    assert 0 < got["calls"]["assembly.independent_constraint_rows"] <= n_elements, got["calls"]
    assert got["calls"]["lod.compute_correctors"] == 1
    assert got["calls"]["interp.build_operator.IH"] == 1
    assert rec.gauges["size.fine_nodes"] == mesh.fine.num_nodes
    assert rec.gauges["interp.op_nnz.IH"] == op.matrix.nnz
    for name, total in got["s"].items():
        assert -1e-9 <= got["self_s"][name] <= total + 1e-9, name


@check
def perturbed_results_trip_gates():
    import numpy as np

    import lod2d
    import workloads as W

    golden = W.GOLDEN["stripes-sweep"]["IH,0.001,1"]
    assert W.error_misses(golden, golden) == []
    assert W.error_misses(golden * (1 + 1e-9), golden) == []
    assert W.error_misses(golden * (1 + 1e-4), golden)
    for bad in (float("nan"), float("inf"), 0.0, 1.0, 1.5, -0.1):
        assert W.error_misses(bad), bad

    mesh = lod2d.build_hierarchy(2, 6, lod2d.BoundarySpec.all_edges())
    op = lod2d.build_operator("SZ", mesh, lod2d.gen_stripes(mesh, 1e-2))
    assert W.identity_misses(op, mesh) == []
    row = op.matrix.getrow(0)
    op.matrix = op.matrix.tolil()
    op.matrix[0, row.indices[np.argmax(np.abs(row.data))]] *= 1 + 1e-6
    op.matrix = op.matrix.tocsr()
    assert W.identity_misses(op, mesh)

    u_f = np.zeros(mesh.fine.num_nodes)
    u_f[mesh.coarse_node_to_fine(op.free_nodes[0])] = 1.0
    assert W.kernel_misses(op, u_f)
    assert W.coverage_misses(None, {})
    assert W.value_misses("x", 1.0, 1.0 + 1e-3)


@check
def stripes_check_counts_missing_outputs():
    import workloads as W
    from lod2d.harness import ResultRow

    config = W.StripesSweep(0, HERE / "no-such-dir").setup()
    rows = []
    for key, err in W.GOLDEN["stripes-sweep"].items():
        op, alpha, k = key.split(",")
        rows.append(ResultRow(op, float(alpha), int(k), 1 / 16, 1 / 128, err, 0.0, 0, "ok"))
    misses = W.StripesSweep(0, HERE / "no-such-dir").check(config, rows[1:])
    assert len(misses) == len(rows), misses  # every cell is attempted, present or not
    assert all(misses), misses  # no CSV or SVG on disk, and one cell missing


@check
def benchmark_description_is_consistent():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    predictions = json.loads((HERE / "predictions.json").read_text())
    per_layer = {m["name"] for m in bench["per_layer"]}
    workloads = {w["name"] for w in bench["workloads"]}
    import workloads as W

    assert workloads == set(W.WORKLOADS), workloads
    assert {m["name"] for m in bench["end_to_end"]} == {"wall_s", "setup_s", "cpu_s", "peak_rss_mb"}
    layers = {"calls": {}, "s": {}, "self_s": {}, "coverage": 1.0}
    for name in per_layer:
        spans.layer_metric(name, layers, {}, 1.0, 0)  # raises for a name with no rule
    end_to_end = {m["name"] for m in bench["end_to_end"]}
    for entry in predictions["predictions"]:
        assert set(entry["metrics"]) <= per_layer, set(entry["metrics"]) - per_layer
        assert set(entry["moves"]) <= workloads, entry["moves"]
        assert all(set(ms) <= end_to_end for ms in entry["moves"].values()), entry["moves"]
    listed = {m for e in predictions["predictions"] for m in e["metrics"]}
    listed |= set(predictions["constant"]) | set(predictions["tracer"])
    assert listed == per_layer, listed ^ per_layer


def main():
    failed = 0
    for fn in CHECKS:
        try:
            fn()
            print(f"ok    {fn.__name__}")
        except Exception as exc:  # report every check, then fail
            failed += 1
            print(f"FAIL  {fn.__name__}: {exc!r}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
