"""Acceptance suite: ten end-to-end criteria with pinned tolerances.

Each test prints a CRITERION line with the measured quantities so the
suite doubles as a report (`pytest tests/test_acceptance.py -v -s`).
Criterion 6 is asserted exactly as stated; see the repository notes for
the measured behavior of the stripes geometry on the L=3 coarse mesh,
where half the stripes contain no coarse node.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sparse

from lod2d.assembly import BilinearFormContext, LoadSpec, assemble_mass
from lod2d.coefficient import gen_random_balls, gen_random_field, gen_stripes
from lod2d.harness import ExperimentConfig, run_experiment
from lod2d.interp import (
    OPERATOR_KINDS,
    build_operator,
    kappa,
)
from lod2d.lod import (
    reference_solution,
    relative_energy_error,
    solve_multiscale,
)
from lod2d.mesh import (
    BoundarySpec,
    ElementSet,
    build_hierarchy,
    element_patch,
    node_patch,
)
from test_assembly import solve_saddle
from test_interp import is_quasi_monotone
from test_lod import fit_log10_slope, patch_free_dofs

RECT_LOAD = LoadSpec.rectangle(0.25, 0.75, 0.25, 0.75)


def _corner_triangle(mesh, frac):
    """Fine elements of coarse element 0 inside the frac-scaled corner triangle."""
    r = mesh.ratio
    m = int(frac * r)
    chosen = []
    for e in mesh.fine_elements_of_coarse([0]):
        t = e & 1
        cell = e >> 1
        a, b = cell % mesh.fine.n, cell // mesh.fine.n
        if a + b <= m - 2 or (a + b == m - 1 and t == 0):
            chosen.append(e)
    return ElementSet(mesh.fine_level, np.array(chosen))


def test_criterion_1_kappa_closed_forms():
    start = time.perf_counter()
    mesh = build_hierarchy(1, 7, BoundarySpec.all_edges())
    own = mesh.coarse.node_index(0, 0)

    full = ElementSet(7, mesh.fine_elements_of_coarse([0]))
    k2_full = kappa(mesh, full, own) ** 2
    assert k2_full == pytest.approx(18.0, rel=1e-8)

    corner = {}
    for frac in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
        k2 = kappa(mesh, _corner_triangle(mesh, frac), own) ** 2
        corner[frac] = k2 * float(frac) ** 2
        assert corner[frac] == pytest.approx(18.0, rel=1e-6)

    strip = ElementSet(
        7,
        np.array(
            [e for e in mesh.fine_elements_of_coarse([0]) if (e >> 1) // mesh.fine.n == 0]
        ),
    )
    k2_strip = kappa(mesh, strip, own) ** 2
    scaled = k2_strip / 64.0
    assert 6.65 <= scaled <= 7.35

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(
        f"\nCRITERION 1 PASS: kappa^2(full) = {k2_full:.12f}, "
        f"kappa^2*eps^2 = {[f'{v:.9f}' for v in corner.values()]}, "
        f"kappa^2*eps(strip) = {scaled:.6f}  [{elapsed:.2f}s]"
    )


def test_criterion_2_extension_monotonicity():
    start = time.perf_counter()
    mesh = build_hierarchy(3, 6, BoundarySpec.all_edges())
    rng = np.random.default_rng(1234)
    worst = -np.inf
    for trial in range(100):
        z = int(rng.choice(mesh.free_coarse_nodes))
        patch = mesh.fine_set(node_patch(mesh, z)).indices
        incident = mesh.fine.elements_of_node(mesh.coarse_node_to_fine(z))
        small = np.union1d(
            incident, rng.choice(patch, size=rng.integers(1, 60), replace=False)
        )
        big = np.union1d(
            small, rng.choice(patch, size=rng.integers(1, len(patch)), replace=False)
        )
        k_small = kappa(mesh, ElementSet(6, small), z)
        k_big = kappa(mesh, ElementSet(6, big), z)
        worst = max(worst, k_big - k_small)
        assert k_big <= k_small + 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nCRITERION 2 PASS: 100 nested pairs, max kappa growth {worst:.3e}  [{elapsed:.1f}s]")


def test_criterion_3_projection_property():
    start = time.perf_counter()
    mesh = build_hierarchy(3, 6, BoundarySpec.all_edges())
    families = {
        "stripes": gen_stripes(mesh, 0.01),
        "balls": gen_random_balls(mesh, 0.01, 0),
        "field": gen_random_field(mesh, 0.01, 0),
    }
    P = mesh.prolongation_matrix
    free = mesh.free_coarse_nodes
    eye = np.eye(len(free))
    worst = 0.0
    for coef in families.values():
        for kind in OPERATOR_KINDS:
            op = build_operator(kind, mesh, coef)
            err = np.abs((op.matrix @ P[:, free]).toarray() - eye).max()
            worst = max(worst, err)
            assert err < 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"\nCRITERION 3 PASS: 6 operators x 3 coefficient families, "
        f"max |R P - I| = {worst:.3e}  [{elapsed:.1f}s]"
    )


def test_criterion_4_dual_basis_duality():
    start = time.perf_counter()
    mesh = build_hierarchy(4, 7, BoundarySpec.all_edges())
    coef = gen_stripes(mesh, 0.01)
    from test_interp import _coarse_gram

    worst = 0.0
    count = 0
    for kind in ("IH", "IH1", "SZ"):
        op = build_operator(kind, mesh, coef)
        for nv in op.node_variables:
            nodes, mass = assemble_mass(mesh, region=nv.sigma.indices)
            support, M = _coarse_gram(mesh.prolongation_matrix[nodes], mass, nv.node)
            assert np.array_equal(support, nv.support_nodes)
            e1 = np.zeros(len(support))
            e1[0] = 1.0
            resid = np.abs(M @ nv.xi - e1).max()
            worst = max(worst, resid)
            count += 1
            assert resid <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(
        f"\nCRITERION 4 PASS: duality residual max {worst:.3e} over "
        f"{count} node variables  [{elapsed:.1f}s]"
    )


def test_criterion_5_exact_decomposition_at_saturation():
    start = time.perf_counter()
    mesh = build_hierarchy(3, 6, BoundarySpec.all_edges())
    report = []
    for alpha in (1e-1, 1e-3, 1e-5):
        coef = gen_stripes(mesh, alpha)
        ctx = BilinearFormContext(mesh, coef)
        u_ref = reference_solution(ctx, RECT_LOAD)
        for kind in OPERATOR_KINDS:
            op = build_operator(kind, mesh, coef)
            sol = solve_multiscale(ctx, op, None, RECT_LOAD, rhs_correction=True)
            err = relative_energy_error(ctx, u_ref, sol.u_total)
            report.append((kind, alpha, err))
            assert err <= 1e-7, f"{kind} at alpha={alpha}: {err:.3e}"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    worst = max(r[2] for r in report)
    print(
        f"\nCRITERION 5 PASS: 6 operators x 3 contrasts, max saturated error "
        f"{worst:.3e}  [{elapsed:.0f}s]"
    )


def _decay_curve(mesh, alpha, kind, ks, f=RECT_LOAD):
    coef = gen_stripes(mesh, alpha)
    ctx = BilinearFormContext(mesh, coef)
    op = build_operator(kind, mesh, coef)
    u_ref = reference_solution(ctx, f)
    return [
        relative_energy_error(
            ctx, u_ref, solve_multiscale(ctx, op, k, f, rhs_correction=True).u_total
        )
        for k in ks
    ]


def test_criterion_6_localization_decay():
    start = time.perf_counter()
    mesh = build_hierarchy(3, 6, BoundarySpec.all_edges())
    ks = (1, 2, 3, 4, 5)
    curves = {alpha: _decay_curve(mesh, alpha, "IH", ks) for alpha in (1e-1, 1e-3, 1e-5)}
    elapsed = time.perf_counter() - start
    for alpha, errs in curves.items():
        ratio = errs[4] / errs[1]
        print(
            f"\nCRITERION 6 measurement alpha={alpha:g}: errors "
            f"{[f'{e:.3e}' for e in errs]} ratio(k=5 / k=2) = {ratio:.4f}"
        )
    assert elapsed < 600.0
    for alpha, errs in curves.items():
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-8, f"error increased in k at alpha={alpha:g}"
        assert errs[4] / errs[1] < 0.2, f"ratio {errs[4] / errs[1]:.3f} at alpha={alpha:g}"
    print(f"CRITERION 6 PASS  [{elapsed:.0f}s]")


def test_criterion_6b_localization_decay_with_node_coverage():
    """Companion check on the mesh whose node rows cover every stripe
    (H = 1/16): the decay ratio bound then holds at every contrast."""
    start = time.perf_counter()
    mesh = build_hierarchy(4, 7, BoundarySpec.all_edges())
    ks = (1, 2, 3, 4, 5)
    for alpha in (1e-1, 1e-3, 1e-5):
        errs = _decay_curve(mesh, alpha, "IH", ks)
        ratio = errs[4] / errs[1]
        print(
            f"\nCRITERION 6b alpha={alpha:g}: errors {[f'{e:.3e}' for e in errs]} "
            f"ratio = {ratio:.2e}"
        )
        for a, b in zip(errs, errs[1:]):
            assert b <= a + 1e-8
        assert ratio < 0.2
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"CRITERION 6b PASS  [{elapsed:.0f}s]")


def test_criterion_7_contrast_robustness_vs_sensitivity():
    start = time.perf_counter()
    mesh = build_hierarchy(4, 7, BoundarySpec.all_edges())
    ks = (1, 2, 3, 4, 5, 6)
    slopes = {}
    for alpha in (1e-1, 1e-5):
        errs = _decay_curve(mesh, alpha, "IH", ks)
        slopes[alpha] = fit_log10_slope(ks, errs, floor=1e-12 * max(errs))
        print(f"\nCRITERION 7 IH alpha={alpha:g}: {[f'{e:.3e}' for e in errs]} "
              f"slope {slopes[alpha]:.3f}")
    sz_at_3 = {}
    for alpha in (1e-1, 1e-5):
        sz_at_3[alpha] = _decay_curve(mesh, alpha, "SZ", (3,))[0]
        print(f"CRITERION 7 SZ alpha={alpha:g}: error(k=3) = {sz_at_3[alpha]:.3e}")
    slope_diff = abs(slopes[1e-1] - slopes[1e-5])
    sz_ratio = sz_at_3[1e-5] / sz_at_3[1e-1]
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0
    assert slope_diff < 0.15, f"IH slope difference {slope_diff:.3f}"
    assert sz_ratio > 5.0, f"SZ contrast ratio {sz_ratio:.2f}"
    print(
        f"CRITERION 7 PASS: IH slope difference {slope_diff:.4f} (< 0.15), "
        f"SZ error ratio at k=3: {sz_ratio:.1f} (> 5)  [{elapsed:.0f}s]"
    )


def test_criterion_8_saddle_point_oracle_equivalence():
    start = time.perf_counter()
    mesh = build_hierarchy(2, 4, BoundarySpec.all_edges())
    rng = np.random.default_rng(99)
    coef = gen_random_balls(mesh, 0.01, 2)
    ctx = BilinearFormContext(mesh, coef)
    ops = {kind: build_operator(kind, mesh, coef) for kind in OPERATOR_KINDS}
    def well_posed_rows(dense):
        """Unit-norm independent rows: the solver's precondition, well scaled."""
        normed = dense / np.linalg.norm(dense, axis=1, keepdims=True)
        rows = []
        for i in range(dense.shape[0]):
            smin = np.linalg.svd(normed[rows + [i]], compute_uv=False)[-1]
            if smin > 1e-4:
                rows.append(i)
        return normed[rows]

    worst = 0.0
    for trial in range(20):
        kind = list(OPERATOR_KINDS)[trial % len(OPERATOR_KINDS)]
        T = int(rng.integers(mesh.coarse.num_elements))
        patch = element_patch(mesh, ElementSet(2, [T]), 1)
        dofs, _ = patch_free_dofs(ctx, patch)
        assert len(dofs) <= 300
        K = ctx.stiffness[dofs][:, dofs]
        C = ops[kind].matrix[:, dofs].tocsr()
        C = C[np.flatnonzero(np.diff(C.indptr) > 0)]
        C = sparse.csr_matrix(well_posed_rows(C.toarray()))
        b = rng.standard_normal(len(dofs))
        u, lam = solve_saddle(K, C, b)
        m = C.shape[0]
        kkt = np.block(
            [[K.toarray(), C.toarray().T], [C.toarray(), np.zeros((m, m))]]
        )
        oracle = np.linalg.solve(kkt, np.concatenate([b, np.zeros(m)]))
        err = np.abs(np.concatenate([u, lam]) - oracle).max()
        worst = max(worst, err)
        assert err <= 1e-9
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nCRITERION 8 PASS: 20 patch systems, max deviation {worst:.3e}  [{elapsed:.1f}s]")


def test_criterion_9_quasi_monotone_regions():
    start = time.perf_counter()
    mesh = build_hierarchy(3, 6, BoundarySpec.all_edges())
    checked = 0
    for seed in range(10):
        coef = gen_random_balls(mesh, 0.01, seed)
        op = build_operator("AprojQM", mesh, coef)
        for nv in op.node_variables:
            assert is_quasi_monotone(mesh, coef, nv.sigma, nv.node), (
                f"seed {seed}, node {nv.node}"
            )
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nCRITERION 9 PASS: {checked} regions quasi-monotone  [{elapsed:.1f}s]")


def test_criterion_10_deterministic_runs(tmp_path):
    from dataclasses import replace
    from pathlib import Path

    start = time.perf_counter()
    shipped = Path(__file__).resolve().parent.parent / "configs" / "stripes_desk.cfg"
    base = ExperimentConfig.from_file(shipped)
    outputs = []
    for run in ("first", "second"):
        config = replace(
            base,
            csv=str(tmp_path / f"{run}.csv"),
            svg_prefix=None,
            cache_dir=str(tmp_path / "cache"),
        )
        rows = run_experiment(config)
        assert len(rows) == len(config.sweep_cells())
        assert all(r.status == "ok" for r in rows)
        outputs.append((tmp_path / f"{run}.csv").read_bytes())
    elapsed = time.perf_counter() - start
    assert outputs[0] == outputs[1]
    print(
        f"\nCRITERION 10 PASS: two runs of the shipped config byte-identical "
        f"({len(outputs[0])} bytes)  [{elapsed:.0f}s]"
    )
