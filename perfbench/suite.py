"""Run every workload, print every metric by name and unit, apply the gates.

    python3 perfbench/suite.py                        # each workload at seed 1, plus a traced run
    python3 perfbench/suite.py --seeds 1-10 --no-trace --workloads field-solve

Each (workload, seed) is one fresh ``run.py`` process.  For each
end-to-end metric the suite prints the median over seeds, the quartiles
and the spread (q3 - q1) / median next to the metric's bound; fail_frac
is failed / attempted operations.  The traced run gives the per-layer
metrics, each with the end-to-end metrics predictions.json says it
should move, the tracing overhead (traced wall_s - untraced wall_s) and
the share of the traced wall time that top-level spans cover.  Exits 1
if any run is incorrect.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(trace)]
    if seconds is not None:
        cmd += ["--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        sys.exit(f"{' '.join(cmd[1:])}: exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    if len(values) < 2:
        return None, None, None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def predictions_for(predictions, workload):
    out = {}
    for entry in predictions["predictions"]:
        for metric in entry["metrics"]:
            out[metric] = ",".join(entry["moves"].get(workload, [])) or "-"
    for metric in predictions["constant"]:
        out[metric] = "constant"
    return out


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    predictions = json.loads((HERE / "predictions.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seeds", type=seed_list, default=[1])
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--no-trace", action="store_true")
    args = ap.parse_args()

    summary, all_correct = {}, True
    for workload in args.workloads.split(","):
        results = [run(workload, seed, args.seconds, 0) for seed in args.seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        all_correct &= all(r["correct"] for r in results)
        print(f"\n== {workload}  seeds {args.seeds}  "
              f"fail_frac {failed}/{attempted} = {failed / attempted:.3g}")
        row = {}
        for m in bench["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, q3, rel = spread(values)
            med = statistics.median(values)
            row[m["name"]] = {"values": values, "median": med, "spread": rel}
            text = f"  {m['name']:<12} {med:12.4f} {m['unit']:<5}"
            if rel is not None:
                flag = "" if rel < m["bound"] / 3 else "  (spread >= bound/3)"
                text += f" q1 {q1:.4f} q3 {q3:.4f} spread {rel:.4f} bound {m['bound']}{flag}"
            print(text)
        summary[workload] = {"end_to_end": row, "attempted": attempted, "failed": failed}
        if args.no_trace:
            continue

        traced = run(workload, args.seeds[0], args.seconds, 1)
        all_correct &= traced["correct"]
        layers = {k: v["value"] for k, v in traced["metrics"].items()}
        untraced = results[0]["metrics"]["wall_s"]["value"]
        overhead = layers["trace.wall_s"] - untraced
        print(f"  traced wall_s {layers['trace.wall_s']:.4f} s, overhead {overhead:+.4f} s "
              f"({overhead / untraced:+.2%}) against seed {args.seeds[0]} untraced; "
              f"top-level spans cover {layers['trace.coverage']:.2%} of it")
        moves = predictions_for(predictions, workload)
        for m in bench["per_layer"]:
            value = layers[m["name"]]
            print(f"    {m['name']:<44} {value:14.6g} {m['unit']:<6} moves: {moves.get(m['name'], '-')}")
        summary[workload]["per_layer"] = layers
        summary[workload]["trace_overhead_s"] = overhead

    out = ROOT / ".perfbench_runs" / "suite.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(summary, indent=1))
    print(f"\n{'all runs correct' if all_correct else 'SOME RUNS INCORRECT'}; summary in {out}")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
