import numpy as np
import pytest
import scipy.sparse as sparse

from lod2d.assembly import (
    BilinearFormContext,
    LoadSpec,
    assemble_load,
    assemble_mass,
    assemble_mixed_mass,
    assemble_stiffness,
    energy_norm,
    solve_saddle,
    solve_spd,
)
from lod2d.coefficient import Coefficient, gen_random_field
from lod2d.errors import ConstraintDegeneracyError, ParameterError
from lod2d.mesh import BoundarySpec, build_hierarchy


@pytest.fixture(scope="module")
def mesh():
    return build_hierarchy(2, 5, BoundarySpec.all_edges())


def hand_element_stiffness():
    # right triangle with legs h, vertex order (right angle, leg end, leg end):
    # gradients (-1/h,-1/h), (1/h,0), (0,1/h) integrated over area h^2/2
    return 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])


def test_single_element_stiffness(mesh):
    K = assemble_stiffness(mesh, region=np.array([0]))
    verts = mesh.fine.elements[0]
    local = K[np.ix_(verts, verts)].toarray()
    assert np.array_equal(local, hand_element_stiffness())


def test_stiffness_kernel_and_symmetry(mesh):
    K = assemble_stiffness(mesh)
    assert np.abs(K @ np.ones(mesh.fine.num_nodes)).max() == 0.0
    assert abs(K - K.T).nnz == 0


def test_stiffness_alpha_scaling(mesh):
    alpha = 0.37
    coef = Coefficient(alpha, np.zeros(mesh.fine.num_elements, bool))
    K1 = assemble_stiffness(mesh)
    Ka = assemble_stiffness(mesh, coef)
    assert abs(Ka - alpha * K1).nnz == 0


def test_unit_reference_mass():
    # one fine element scaled to the unit triangle: mass = (1/24)[[2,1,1],...]
    m = build_hierarchy(1, 2, BoundarySpec.all_edges())
    M = assemble_mass(m, region=np.array([0]))
    verts = m.fine.elements[0]
    local = M[np.ix_(verts, verts)].toarray()
    unit = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0
    area_ratio = (m.h**2 / 2) / 0.5
    assert np.allclose(local, unit * area_ratio, rtol=0, atol=1e-18)


def test_mass_partition_of_unity(mesh):
    M = assemble_mass(mesh)
    assert M.sum() == pytest.approx(1.0, abs=1e-14)
    region = mesh.fine_elements_of_coarse([0, 1])
    M2 = assemble_mass(mesh, region=region)
    assert M2.sum() == pytest.approx(mesh.H**2, abs=1e-15)


def test_weighted_mass_scaling(mesh):
    alpha = 0.125
    coef = Coefficient(alpha, np.zeros(mesh.fine.num_elements, bool))
    M = assemble_mass(mesh)
    Mw = assemble_mass(mesh, weight=coef)
    assert abs(Mw - alpha * M).nnz == 0


def test_mixed_mass_fine_partition_of_unity(mesh):
    region = mesh.fine_elements_of_coarse([5])
    mixed = assemble_mixed_mass(mesh, region)
    got = mixed @ np.ones(mesh.fine.num_nodes)
    # per coarse node: integral of its hat over the region
    P = mesh.prolongation_matrix
    M = assemble_mass(mesh, region=region)
    expected = P.T @ (M @ np.ones(mesh.fine.num_nodes))
    assert np.abs(got - expected).max() < 1e-15
    assert got.sum() == pytest.approx(mesh.H**2 / 2, abs=1e-15)


def test_mixed_mass_two_integration_paths(mesh):
    """Coarse-quadrature oracle: integrate phi_k times a coarse function directly."""
    rng = np.random.default_rng(3)
    c = rng.standard_normal(mesh.coarse.num_nodes)
    P = mesh.prolongation_matrix
    mixed = assemble_mixed_mass(mesh, None)
    lhs = mixed @ (P @ c)
    # direct coarse P1 mass: exact elementwise formula on the coarse level
    area = mesh.H**2 / 2
    local = np.array([[2.0, 1, 1], [1, 2, 1], [1, 1, 2]]) / 12.0 * area
    rhs = np.zeros(mesh.coarse.num_nodes)
    for T in range(mesh.coarse.num_elements):
        verts = mesh.coarse.elements[T]
        rhs[verts] += local @ c[verts]
    assert np.abs(lhs - rhs).max() < 1e-13


def test_load_constant_and_rectangle(mesh):
    assert assemble_load(mesh, LoadSpec.constant(1.0)).sum() == pytest.approx(1.0, abs=1e-14)
    load = assemble_load(mesh, LoadSpec.rectangle(0.25, 0.75, 0.25, 0.75))
    assert load.sum() == pytest.approx(0.25, abs=1e-14)
    with pytest.raises(ParameterError):
        assemble_load(mesh, LoadSpec.rectangle(0.25, 0.7501, 0.25, 0.75))


def test_load_hat_is_mass_column(mesh):
    load = assemble_load(mesh, LoadSpec.hat(0.5, 0.125))
    node = mesh.fine.node_index(16, 4)
    M = assemble_mass(mesh)
    assert np.abs(load - M[:, node].toarray().ravel()).max() == 0.0


def test_solve_spd_identity_and_tridiagonal():
    eye = sparse.identity(5, format="csr")
    b = np.arange(5.0)
    assert np.array_equal(solve_spd(eye, b), b)
    tri = sparse.csr_matrix(np.array([[2.0, -1, 0], [-1, 2, -1], [0, -1, 2]]))
    x = solve_spd(tri, np.ones(3))
    assert np.abs(x - np.array([1.5, 2.0, 1.5])).max() < 1e-14


def test_solve_spd_against_dense_oracle(mesh):
    rng = np.random.default_rng(5)
    A = rng.standard_normal((10, 10))
    K = sparse.csr_matrix(A @ A.T + 10 * np.eye(10))
    b = rng.standard_normal(10)
    x = solve_spd(K, b)
    oracle = np.linalg.solve(K.toarray(), b)
    assert np.abs(x - oracle).max() < 1e-10


def test_solve_spd_constrained(mesh):
    K = assemble_stiffness(mesh)
    b = assemble_load(mesh, LoadSpec.constant(1.0))
    constrained = np.flatnonzero(mesh.constrained_fine_mask)
    u = solve_spd(K, b, constrained)
    assert np.abs(u[constrained]).max() == 0.0
    free = mesh.free_fine_nodes
    resid = np.linalg.norm((K @ u - b)[free])
    assert resid <= 1e-10 * np.linalg.norm(b[free])


def test_galerkin_consistency(mesh):
    coef = gen_random_field(mesh, 1e-3, 2)
    ctx = BilinearFormContext(mesh, coef)
    b = assemble_load(mesh, LoadSpec.constant(1.0))
    u = solve_spd(ctx.stiffness, b, ctx.constrained_fine)
    rng = np.random.default_rng(0)
    free = mesh.free_fine_nodes
    for _ in range(50):
        w = np.zeros(mesh.fine.num_nodes)
        w[free] = rng.standard_normal(len(free))
        lhs = u @ (ctx.stiffness @ w)
        rhs = b @ w
        assert abs(lhs - rhs) <= 1e-9 * (abs(rhs) + np.linalg.norm(w))


def test_saddle_mean_zero_projection():
    n = 7
    K = sparse.identity(n, format="csr")
    C = sparse.csr_matrix(np.ones((1, n)))
    b = np.zeros(n)
    b[0] = 1.0
    u, lam = solve_saddle(K, C, b)
    assert np.abs(u - (b - 1.0 / n)).max() < 1e-12
    assert lam[0] == pytest.approx(1.0 / n, abs=1e-12)


def test_saddle_empty_constraints():
    K = sparse.identity(4, format="csr")
    b = np.ones(4)
    u, lam = solve_saddle(K, sparse.csr_matrix((0, 4)), b)
    assert np.array_equal(u, b)
    assert lam.shape == (0,)


def test_saddle_zero_rows_pruned():
    n = 6
    K = sparse.identity(n, format="csr")
    C = sparse.csr_matrix(np.vstack([np.zeros(n), np.ones(n), np.zeros(n)]))
    b = np.zeros(n)
    b[0] = 1.0
    u, lam = solve_saddle(K, C, b)
    assert lam.shape == (3,)
    assert lam[0] == 0.0 and lam[2] == 0.0
    assert abs(lam[1] - 1.0 / n) < 1e-12


def test_saddle_against_dense_kkt_oracle():
    rng = np.random.default_rng(11)
    for _ in range(5):
        n, m = 20, 4
        A = rng.standard_normal((n, n))
        K = sparse.csr_matrix(A @ A.T + n * np.eye(n))
        C = sparse.csr_matrix(rng.standard_normal((m, n)))
        b = rng.standard_normal(n)
        u, lam = solve_saddle(K, C, b)
        kkt = np.block([[K.toarray(), C.toarray().T], [C.toarray(), np.zeros((m, m))]])
        oracle = np.linalg.solve(kkt, np.concatenate([b, np.zeros(m)]))
        assert np.abs(np.concatenate([u, lam]) - oracle).max() < 1e-9


def test_saddle_rank_deficiency_named():
    n = 6
    K = sparse.identity(n, format="csr")
    rows = np.zeros((3, n))
    rows[0, 0] = 1.0
    rows[1, 0] = 2.0  # dependent on row 0
    rows[2, 1] = 1.0
    with pytest.raises(ConstraintDegeneracyError) as exc:
        solve_saddle(K, sparse.csr_matrix(rows), np.ones(n))
    assert exc.value.offending_rows


def test_saddle_delivers_minimizer():
    rng = np.random.default_rng(2)
    n, m = 15, 3
    A = rng.standard_normal((n, n))
    K = sparse.csr_matrix(A @ A.T + n * np.eye(n))
    C = sparse.csr_matrix(rng.standard_normal((m, n)))
    b = rng.standard_normal(n)
    u, _ = solve_saddle(K, C, b)
    base = 0.5 * u @ (K @ u) - b @ u
    Cd = C.toarray()
    for _ in range(50):
        w = rng.standard_normal(n)
        w -= Cd.T @ np.linalg.solve(Cd @ Cd.T, Cd @ w)  # project onto ker C
        w *= 0.1 / (np.linalg.norm(w) + 1e-30)
        v = u + w
        perturbed = 0.5 * v @ (K @ v) - b @ v
        assert perturbed >= base - 1e-12


def test_energy_norm_cases(mesh):
    K = assemble_stiffness(mesh)
    assert energy_norm(K, np.zeros(mesh.fine.num_nodes)) == 0.0
    assert energy_norm(K, np.ones(mesh.fine.num_nodes)) == 0.0
    x1 = mesh.fine.points[:, 0].copy()
    assert energy_norm(K, x1) == pytest.approx(1.0, rel=1e-14)


def test_energy_norm_coefficient_scaling(mesh):
    c = 0.0625
    coef = Coefficient(c, np.zeros(mesh.fine.num_elements, bool))
    K1 = assemble_stiffness(mesh)
    Kc = assemble_stiffness(mesh, coef)
    rng = np.random.default_rng(8)
    v = rng.standard_normal(mesh.fine.num_nodes)
    assert energy_norm(Kc, v) == pytest.approx(np.sqrt(c) * energy_norm(K1, v), rel=1e-12)
