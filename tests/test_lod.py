import numpy as np
import pytest

from lod2d.assembly import BilinearFormContext, LoadSpec, SaddleSystem, assemble_load
from lod2d.coefficient import Coefficient, gen_random_balls, gen_stripes
from lod2d.interp import build_operator
from lod2d.lod import (
    compute_correctors,
    decay_profile,
    element_corrector,
    fit_log10_slope,
    reference_solution,
    relative_energy_error,
    rhs_corrector,
    saturation_k,
    solve_multiscale,
)
from lod2d.mesh import BoundarySpec, ElementSet, build_hierarchy, element_patch

POISSON_SQUARE_PEAK = 0.0736713512666705  # -lap u = 1, zero boundary, u(1/2,1/2)


@pytest.fixture(scope="module")
def small():
    mesh = build_hierarchy(2, 5, BoundarySpec.all_edges())
    coef = gen_random_balls(mesh, 0.05, 4)
    ctx = BilinearFormContext(mesh, coef)
    op = build_operator("IH", mesh, coef)
    return mesh, coef, ctx, op


def kernel_project(R, v, constrained_mask):
    free = np.flatnonzero(~constrained_mask)
    Rf = R[:, free].toarray()
    vf = v[free]
    lam = np.linalg.lstsq(Rf @ Rf.T, Rf @ vf, rcond=None)[0]
    w = np.zeros_like(v)
    w[free] = vf - Rf.T @ lam
    return w


def test_ideal_corrector_identity(small):
    mesh, coef, ctx, op = small
    rng = np.random.default_rng(0)
    i = int(op.free_nodes[3])
    q = np.zeros(mesh.fine.num_nodes)
    for T in range(mesh.coarse.num_elements):
        if i in mesh.coarse.elements[T]:
            q += element_corrector(ctx, op, i, T, k=None)
    phi = mesh.prolongation_matrix[:, i].toarray().ravel()
    K = ctx.stiffness
    scale = np.linalg.norm(K @ phi)
    for _ in range(20):
        w = kernel_project(op.matrix, rng.standard_normal(mesh.fine.num_nodes),
                           mesh.constrained_fine_mask)
        resid = abs((q - phi) @ (K @ w)) / (scale * np.linalg.norm(w) + 1e-300)
        assert resid <= 1e-9


def test_corrector_of_constant_vanishes(small):
    mesh, coef, ctx, op = small
    # the three vertex hats of an interior element sum to 1 on it
    T = 2 * (1 * mesh.coarse.n + 1)
    acc = np.zeros(mesh.fine.num_nodes)
    for v in mesh.coarse.elements[T]:
        acc += element_corrector(ctx, op, int(v), T, k=2)
    assert np.abs(acc).max() < 1e-12


def test_corrector_support_and_kernel_membership(small):
    mesh, coef, ctx, op = small
    i = int(op.free_nodes[0])
    k = 1
    for T in range(mesh.coarse.num_elements):
        if i not in mesh.coarse.elements[T]:
            continue
        q = element_corrector(ctx, op, i, T, k=k)
        patch = element_patch(mesh, ElementSet(mesh.coarse_level, [T]), k)
        outside = np.setdiff1d(np.arange(mesh.coarse.num_elements), patch.indices)
        if len(outside):
            nodes_outside_only = np.setdiff1d(
                np.unique(mesh.fine.elements[mesh.fine_elements_of_coarse(outside)]),
                np.unique(mesh.fine.elements[mesh.fine_elements_of_coarse(patch.indices)]),
            )
            assert np.abs(q[nodes_outside_only]).max() == 0.0
        assert np.abs(op.matrix @ q).max() <= 1e-9 * (np.linalg.norm(q) + 1e-300)


def test_element_corrector_validation(small):
    mesh, coef, ctx, op = small
    from lod2d.errors import ParameterError

    with pytest.raises(ParameterError):
        element_corrector(ctx, op, 0, mesh.coarse.num_elements + 5, k=1)
    with pytest.raises(ParameterError):
        element_corrector(ctx, op, int(op.free_nodes[0]), 0, k=0)


def test_rhs_corrector_skips_zero_load(small, monkeypatch):
    mesh, coef, ctx, op = small
    calls = []
    orig = SaddleSystem.solve

    def counting(self, B):
        calls.append(1)
        return orig(self, B)

    monkeypatch.setattr(SaddleSystem, "solve", counting)
    f = LoadSpec.rectangle(0.25, 0.5, 0.25, 0.5)
    T_far = mesh.coarse.num_elements - 1  # upper-right corner, away from support
    out = rhs_corrector(ctx, op, T_far, 2, f)
    assert np.abs(out).max() == 0.0
    assert len(calls) == 0
    T_near = 2 * (1 * mesh.coarse.n + 1)
    out = rhs_corrector(ctx, op, T_near, 2, f)
    assert np.abs(out).max() > 0.0
    assert len(calls) == 1


def test_rhs_support_element_count():
    mesh = build_hierarchy(3, 5, BoundarySpec.all_edges())
    f = LoadSpec.rectangle(0.25, 0.75, 0.25, 0.75)
    touched = [
        T
        for T in range(mesh.coarse.num_elements)
        if assemble_load(mesh, f, region=mesh.fine_elements_of_coarse([T])).any()
    ]
    assert len(touched) == 32  # 4x4 coarse cells under the box, 2 triangles each


def test_ideal_rhs_correction_identity(small):
    mesh, coef, ctx, op = small
    f = LoadSpec.constant(1.0)
    _, u_f = compute_correctors(ctx, op, None, f_spec=f, rhs_correction=True)
    load = assemble_load(mesh, f)
    rng = np.random.default_rng(1)
    K = ctx.stiffness
    for _ in range(10):
        w = kernel_project(op.matrix, rng.standard_normal(mesh.fine.num_nodes),
                           mesh.constrained_fine_mask)
        resid = abs(u_f @ (K @ w) - load @ w) / (np.linalg.norm(w) + 1e-300)
        assert resid <= 1e-9


def test_exact_decomposition_at_saturation(small):
    mesh, coef, ctx, op = small
    f = LoadSpec.rectangle(0.25, 0.75, 0.25, 0.75)
    sol = solve_multiscale(ctx, op, None, f, rhs_correction=True)
    u_ref = reference_solution(ctx, f)
    assert relative_energy_error(ctx, u_ref, sol.u_total) <= 1e-8
    assert sol.metadata["k"] == saturation_k(mesh)


def test_solution_fields_consistent(small):
    mesh, coef, ctx, op = small
    f = LoadSpec.constant(1.0)
    sol = solve_multiscale(ctx, op, 2, f, rhs_correction=False)
    assert np.abs(sol.u_f_k).max() == 0.0
    assert np.array_equal(sol.u_total, sol.u_ms + sol.u_f_k)
    assert len(sol.coarse) == len(op.free_nodes)


def test_error_without_correction_equals_kernel_part(small):
    mesh, coef, ctx, op = small
    f = LoadSpec.constant(1.0)
    sol = solve_multiscale(ctx, op, None, f, rhs_correction=False)
    _, u_f = compute_correctors(ctx, op, None, f_spec=f, rhs_correction=True)
    u_ref = reference_solution(ctx, f)
    lhs = ctx.energy_norm(u_ref - sol.u_ms)
    rhs = ctx.energy_norm(u_f)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_galerkin_orthogonality(small):
    mesh, coef, ctx, op = small
    f = LoadSpec.constant(1.0)
    k = 2
    correctors, _ = compute_correctors(ctx, op, k)
    sol = solve_multiscale(ctx, op, k, f, rhs_correction=True)
    u_ref = reference_solution(ctx, f)
    diff = u_ref - sol.u_total
    K = ctx.stiffness
    P_free = mesh.prolongation_matrix[:, op.free_nodes]
    B = (P_free - correctors.matrix.T).toarray()
    for col in range(0, B.shape[1], 3):
        g = B[:, col]
        resid = abs(diff @ (K @ g))
        assert resid <= 1e-9 * (ctx.energy_norm(u_ref) * ctx.energy_norm(g) + 1e-300)


def test_coarse_refinement_improves_ideal_method():
    f = LoadSpec.constant(1.0)
    errs = []
    for L in (1, 2):
        mesh = build_hierarchy(L, 5, BoundarySpec.all_edges())
        coef = Coefficient(1.0, np.ones(mesh.fine.num_elements, bool))
        ctx = BilinearFormContext(mesh, coef)
        op = build_operator("SZ", mesh, coef)
        sol = solve_multiscale(ctx, op, None, f, rhs_correction=False)
        u_ref = reference_solution(ctx, f)
        errs.append(relative_energy_error(ctx, u_ref, sol.u_ms))
    assert errs[1] < errs[0]


def test_error_monotone_in_patch_size():
    # moderate contrast so every high-value component decay guarantee applies
    mesh = build_hierarchy(3, 6, BoundarySpec.all_edges())
    coef = gen_stripes(mesh, 1e-1)
    ctx = BilinearFormContext(mesh, coef)
    op = build_operator("IH", mesh, coef)
    f = LoadSpec.rectangle(0.25, 0.75, 0.25, 0.75)
    u_ref = reference_solution(ctx, f)
    errs = [
        relative_energy_error(
            ctx, u_ref, solve_multiscale(ctx, op, k, f).u_total
        )
        for k in (1, 2, 3, 4)
    ]
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-8


def test_localized_matches_ideal_at_saturation(small):
    mesh, coef, ctx, op = small
    # smallest k whose patches already cover the mesh from every seed
    k_sat = next(
        k
        for k in range(1, 3 * 2**mesh.coarse_level)
        if all(
            len(element_patch(mesh, ElementSet(mesh.coarse_level, [T]), k))
            == mesh.coarse.num_elements
            for T in range(mesh.coarse.num_elements)
        )
    )
    assert k_sat < saturation_k(mesh)
    c1, _ = compute_correctors(ctx, op, k_sat)
    c2, _ = compute_correctors(ctx, op, saturation_k(mesh))
    assert np.abs(c1.matrix - c2.matrix).max() <= 1e-9


def test_multiscale_dimension(small):
    mesh, coef, ctx, op = small
    correctors, _ = compute_correctors(ctx, op, 1)
    assert correctors.matrix.shape[0] == len(mesh.free_coarse_nodes)


def test_reference_solution_poisson_peak():
    mesh = build_hierarchy(1, 5, BoundarySpec.all_edges())
    coef = Coefficient(1.0, np.ones(mesh.fine.num_elements, bool))
    ctx = BilinearFormContext(mesh, coef)
    u = reference_solution(ctx, LoadSpec.constant(1.0))
    assert abs(u.max() - POISSON_SQUARE_PEAK) <= 0.02 * POISSON_SQUARE_PEAK
    # second-order oracle on a finer grid
    fine = build_hierarchy(1, 8, BoundarySpec.all_edges())
    coef8 = Coefficient(1.0, np.ones(fine.fine.num_elements, bool))
    u8 = reference_solution(BilinearFormContext(fine, coef8), LoadSpec.constant(1.0))
    assert abs(u.max() - u8.max()) <= 0.02 * u8.max()


def test_reference_zero_load(small):
    mesh, coef, ctx, op = small
    u = reference_solution(ctx, LoadSpec.constant(0.0))
    assert np.abs(u).max() == 0.0


def test_reference_alpha_one_matches_unit_coefficient():
    mesh = build_hierarchy(3, 6, BoundarySpec.all_edges())
    stripes = gen_stripes(mesh, 1.0)
    ones = Coefficient(1.0, np.ones(mesh.fine.num_elements, bool))
    f = LoadSpec.constant(1.0)
    u1 = reference_solution(BilinearFormContext(mesh, stripes), f)
    u2 = reference_solution(BilinearFormContext(mesh, ones), f)
    assert np.array_equal(u1, u2)


def test_relative_energy_error_cases(small):
    mesh, coef, ctx, op = small
    u_ref = reference_solution(ctx, LoadSpec.constant(1.0))
    assert relative_energy_error(ctx, u_ref, u_ref) == 0.0
    assert relative_energy_error(ctx, u_ref, np.zeros_like(u_ref)) == pytest.approx(1.0)
    rng = np.random.default_rng(6)
    w = rng.standard_normal(mesh.fine.num_nodes)
    w[mesh.constrained_fine_mask] = 0.0
    e = ctx.energy_norm(w)
    got = relative_energy_error(ctx, u_ref, u_ref + w)
    assert got == pytest.approx(e / ctx.energy_norm(u_ref), rel=1e-12)


def test_decay_profile_monotone_and_saturating(small):
    mesh, coef, ctx, op = small
    T = 2 * (1 * mesh.coarse.n + 1)
    i = int(mesh.coarse.elements[T][0])
    q = element_corrector(ctx, op, i, T, k=None)
    profile = decay_profile(ctx, q, T, saturation_k(mesh))
    energies = [e for _, e in profile]
    assert energies[0] <= ctx.energy_norm(q) + 1e-12
    for a, b in zip(energies, energies[1:]):
        assert b <= a + 1e-12
    assert energies[-1] == 0.0


def test_decay_slopes_contrast_robustness():
    """With a node row in every stripe (H = 1/16), the geometry-induced
    operator decays at a contrast-independent rate while the full-patch
    variant stalls at high contrast."""
    mesh = build_hierarchy(4, 7, BoundarySpec.all_edges())
    nc = mesh.coarse.n
    T = 2 * ((nc // 2) * nc + nc // 2)
    slopes = {}
    for kind in ("IH", "SZ"):
        for alpha in (1e-1, 1e-5):
            coef = gen_stripes(mesh, alpha)
            ctx = BilinearFormContext(mesh, coef)
            op = build_operator(kind, mesh, coef)
            i = int(mesh.coarse.elements[T][0])
            q = element_corrector(ctx, op, i, T, k=None)
            profile = decay_profile(ctx, q, T, 7)
            ks = [k for k, _ in profile]
            es = [e for _, e in profile]
            slopes[(kind, alpha)] = fit_log10_slope(ks, es, floor=1e-12 * es[0])
    assert abs(slopes[("IH", 1e-1)] - slopes[("IH", 1e-5)]) < 0.15
    assert abs(slopes[("SZ", 1e-1)] - slopes[("SZ", 1e-5)]) > 0.3


def test_fit_log10_slope():
    ks = [0, 1, 2, 3]
    vals = [1.0, 0.1, 0.01, 0.001]
    assert fit_log10_slope(ks, vals) == pytest.approx(-1.0, abs=1e-12)
    assert np.isnan(fit_log10_slope([1], [0.5]))
    # entries at or below the floor are ignored
    assert fit_log10_slope([0, 1, 2], [1.0, 0.1, 0.0], floor=0.0) == pytest.approx(-1.0)


# 17-digit regression values for a small sweep (L=2, l_f=6, alpha=1e-3, rect
# load, rhs correction): a change to the patch solver, the corrector loop or
# the operator builds must reproduce them to roundoff.
PINNED_ERRORS = {
    ("balls", "SZ", 1): 0.44631668501439115,
    ("balls", "SZ", 2): 0.07683931327107667,
    ("balls", "nodal", 1): 0.22751324410867532,
    ("balls", "nodal", 2): 0.008295766915795727,
    ("balls", "IH", 1): 0.23281804721028873,
    ("balls", "IH", 2): 0.006159864741681796,
    ("balls", "IH1", 1): 0.29157901846707385,
    ("balls", "IH1", 2): 0.009507576348542306,
    ("balls", "Aproj", 1): 0.4621330967169142,
    ("balls", "Aproj", 2): 0.14269831673001257,
    ("balls", "AprojQM", 1): 0.3003002053392483,
    ("balls", "AprojQM", 2): 0.022090132450147255,
    ("stripes", "SZ", 1): 0.22752402437447383,
    ("stripes", "SZ", 2): 0.10796274685088104,
    ("stripes", "nodal", 1): 0.25675084549173005,
    ("stripes", "nodal", 2): 0.16062513316312316,
    ("stripes", "IH", 1): 0.2612490975954278,
    ("stripes", "IH", 2): 0.16745925346263407,
    ("stripes", "IH1", 1): 0.2612490975954278,
    ("stripes", "IH1", 2): 0.16745925346263407,
    ("stripes", "Aproj", 1): 0.19009121228984388,
    ("stripes", "Aproj", 2): 0.10923532540413519,
    ("stripes", "AprojQM", 1): 0.2611838840866854,
    ("stripes", "AprojQM", 2): 0.1670462078467614,
}


@pytest.mark.parametrize("coefficient", ["balls", "stripes"])
def test_errors_pinned_for_all_operators(coefficient):
    mesh = build_hierarchy(2, 6, BoundarySpec.all_edges())
    if coefficient == "balls":
        coef = gen_random_balls(mesh, 1e-3, 3)
    else:
        coef = gen_stripes(mesh, 1e-3)
    ctx = BilinearFormContext(mesh, coef)
    f = LoadSpec.rectangle(0.25, 0.75, 0.25, 0.75)
    u_ref = reference_solution(ctx, f)
    for (name, kind, k), pinned in PINNED_ERRORS.items():
        if name != coefficient:
            continue
        op = build_operator(kind, mesh, coef)
        sol = solve_multiscale(ctx, op, k, f)
        err = relative_energy_error(ctx, u_ref, sol.u_total)
        assert err == pytest.approx(pinned, rel=1e-12), (kind, k)
