"""The benchmark's workloads and their correctness gates.

Each workload has ``setup()``, which builds the inputs (counted in
setup_s), ``run(state)``, the timed phase, and ``check(state, outcome)``,
which returns one list of gate misses per attempted operation.  An
operation is a sweep cell, a solve or an operator build; it fails if it
raises, comes back ``failed``, or misses a gate.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

import lod2d
from lod2d.harness import ExperimentConfig, read_csv

GOLDEN = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())

GOLDEN_RTOL = 1e-6  # golden values are pinned to 1e-6 relative, far above roundoff
KERNEL_TOL = 1e-10  # ||I_H u_f|| / ||u_f||, measured near 1e-16
IDENTITY_TOL = 1e-10  # max |(R P_free - I)_ij|, measured at most 7.5e-15

COARSE_LEVEL = 4
ALPHA = 1e-3
LOAD = lod2d.LoadSpec.rectangle(0.25, 0.75, 0.25, 0.75)


def value_misses(what, value, golden):
    if not math.isclose(value, golden, rel_tol=GOLDEN_RTOL):
        return [f"{what} {value!r} differs from golden {golden!r}"]
    return []


def error_misses(err, golden=None):
    """Gate misses for one relative energy error."""
    if not (math.isfinite(err) and 0.0 < err < 1.0):
        return [f"rel_energy_error {err!r} outside (0, 1)"]
    return [] if golden is None else value_misses("rel_energy_error", err, golden)


def identity_misses(op, mesh):
    """Gate misses for the projection property R P[:, free] = I."""
    RP = (op.matrix @ mesh.prolongation_matrix[:, op.free_nodes]).toarray()
    dev = float(np.abs(RP - np.eye(len(op.free_nodes))).max()) if RP.size else 0.0
    if not dev <= IDENTITY_TOL:
        return [f"{op.kind}: max |R P - I| = {dev:.3e} exceeds {IDENTITY_TOL:.0e}"]
    return []


def kernel_misses(op, u_f):
    """Gate misses for the RHS correction lying in the operator's kernel."""
    norm = float(np.linalg.norm(u_f))
    ratio = float(np.linalg.norm(op.matrix @ u_f)) / norm if norm else 0.0
    if not ratio <= KERNEL_TOL:
        return [f"kernel residual ||I_H u_f||/||u_f|| = {ratio:.3e} exceeds {KERNEL_TOL:.0e}"]
    return []


def coverage_misses(report, golden):
    if report is None:
        return ["coverage report missing"]
    frac, uncovered = report.covered_area_fraction, report.uncovered_components
    if not (0.0 <= frac <= 1.0 and uncovered >= 0):
        return [f"coverage report out of range: {report}"]
    misses = []
    if "covered_area_fraction" in golden:
        misses += value_misses("covered_area_fraction", frac, golden["covered_area_fraction"])
    if "uncovered_components" in golden and uncovered != golden["uncovered_components"]:
        misses.append(f"uncovered_components {uncovered} != golden {golden['uncovered_components']}")
    return misses


def _field_inputs(fine_level, seed):
    mesh = lod2d.build_hierarchy(COARSE_LEVEL, fine_level, lod2d.BoundarySpec.all_edges())
    coef = lod2d.gen_random_field(mesh, ALPHA, seed)
    ctx = lod2d.BilinearFormContext(mesh, coef)
    return mesh, coef, ctx, lod2d.reference_solution(ctx, LOAD)


class StripesSweep:
    """The shipped desk sweep at k = 1, 2: CSV and SVG into a fresh directory."""

    seeded = False  # stripes have no randomness; the seed is recorded but unused
    golden = GOLDEN["stripes-sweep"]

    def __init__(self, seed, outdir):
        self.outdir = Path(outdir)

    def setup(self):
        return ExperimentConfig(
            coarse_level=COARSE_LEVEL,
            fine_level=7,
            coefficient="stripes",
            alphas=(1e-1, 1e-3),
            operators=("IH", "SZ"),
            ks=(1, 2),
            f=LOAD,
            csv=str(self.outdir / "stripes_desk.csv"),
            svg_prefix=str(self.outdir / "plot_"),
            cache_dir=None,
        )

    def run(self, config):
        return lod2d.run_experiment(config)

    def check(self, config, rows):
        written = set()
        try:
            written = {r.csv_line() for r in read_csv(config.csv)}
        except (OSError, lod2d.ParameterError):
            pass
        found = {}
        for row in rows:
            key = f"{row.operator},{row.alpha!r},{row.k}"
            misses = [] if row.status == "ok" else [f"status {row.status}"]
            misses += error_misses(row.rel_energy_error, self.golden.get(key))
            if row.csv_line() not in written:
                misses.append("row missing from the CSV")
            if not Path(f"{config.svg_prefix}{row.operator}.svg").is_file():
                misses.append("SVG panel missing")
            found[key] = misses
        for key in self.golden:
            found.setdefault(key, ["cell missing from the results"])
        return list(found.values())


class FieldSolve:
    """One IH multiscale solve at k = 2 on a random field."""

    seeded = True

    def __init__(self, seed, outdir):
        self.seed = seed

    def setup(self):
        mesh, coef, ctx, u_ref = _field_inputs(7, self.seed)
        op = lod2d.build_operator("IH", mesh, coef, delta=Fraction(1, 4))
        return mesh, ctx, u_ref, op

    def run(self, state):
        mesh, ctx, u_ref, op = state
        try:
            sol = lod2d.solve_multiscale(ctx, op, 2, LOAD, rhs_correction=True)
            return sol, lod2d.relative_energy_error(ctx, u_ref, sol.u_total)
        except Exception as exc:  # a raising solve is a failed operation
            return exc, None

    def check(self, state, outcome):
        mesh, ctx, u_ref, op = state
        sol, err = outcome
        if err is None:
            return [[f"raised {sol!r}"]]
        golden = GOLDEN["field-solve"].get(str(self.seed), {}).get("rel_energy_error")
        return [
            error_misses(err, golden) + kernel_misses(op, sol.u_f_k) + identity_misses(op, mesh)
        ]


class FieldOperators:
    """All six operators and the coverage report on a finer random field."""

    seeded = True

    def __init__(self, seed, outdir):
        self.seed = seed

    def setup(self):
        return _field_inputs(8, self.seed)

    def run(self, state):
        mesh, coef, ctx, u_ref = state
        ops = {}
        for kind in lod2d.interp.OPERATOR_KINDS:
            try:
                ops[kind] = lod2d.build_operator(kind, mesh, coef)
            except Exception as exc:  # a raising build is a failed operation
                ops[kind] = exc
        report = None
        if not isinstance(ops.get("IH"), Exception):
            report = lod2d.coverage_report(mesh, coef, ops["IH"].node_variables)
        return ops, report

    def check(self, state, outcome):
        mesh, coef, ctx, u_ref = state
        ops, report = outcome
        golden = GOLDEN["field-operators"].get(str(self.seed), {})
        out = []
        for kind in lod2d.interp.OPERATOR_KINDS:
            op = ops.get(kind)
            if op is None or isinstance(op, Exception):
                out.append([f"{kind}: raised {op!r}"])
                continue
            misses = identity_misses(op, mesh)
            norm = float(np.linalg.norm(op.apply(u_ref)))
            if not math.isfinite(norm):
                misses.append(f"{kind}: interpolant of the reference is not finite")
            elif f"apply_norm.{kind}" in golden:
                misses += value_misses(f"{kind} ||R u_ref||", norm, golden[f"apply_norm.{kind}"])
            if kind == "IH":
                misses += coverage_misses(report, golden)
            out.append(misses)
        return out


WORKLOADS = {
    "stripes-sweep": StripesSweep,
    "field-solve": FieldSolve,
    "field-operators": FieldOperators,
}
