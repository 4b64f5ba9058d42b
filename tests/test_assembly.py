import itertools

import numpy as np
import pytest
import scipy.sparse as sparse

from lod2d.assembly import (
    MASS_LOCAL_UNIT_AREA,
    STIFFNESS_LOCAL,
    BilinearFormContext,
    LoadSpec,
    SaddleSystem,
    assemble_load,
    assemble_mass,
    assemble_stiffness,
    _kkt_matrix,
    _row_normalized,
    energy_norm,
    solve_spd,
)
from lod2d.coefficient import Coefficient, gen_random_field
from lod2d.errors import ParameterError, SolverError
from lod2d.mesh import BoundarySpec, build_hierarchy


class ConstraintDegeneracyError(SolverError):
    """Constraint matrix is rank deficient after zero-row pruning."""

    def __init__(self, message, offending_rows=()):
        super().__init__(message)
        self.offending_rows = tuple(offending_rows)


def solve_saddle(K, C, b):
    """Solve the KKT system K u + C^T lam = b, C u = 0 for one right-hand side.

    Linearly dependent rows, zero rows among them, raise
    ConstraintDegeneracyError naming the rows a maximal independent
    subset leaves out.
    """
    system = SaddleSystem(K, C)
    if len(system.dropped_rows):
        dropped = [int(r) for r in system.dropped_rows]
        raise ConstraintDegeneracyError(
            f"constraint matrix rank deficient; dependent rows {dropped}",
            offending_rows=dropped,
        )
    u, lam = system.solve(np.asarray(b, dtype=float)[:, None])
    return u[:, 0], lam[:, 0]


def _full_size_scatter(verts, n, local, scale):
    """Sum scale[e] * local over elements with vertex rows ``verts`` into an n x n CSR."""
    rows = np.repeat(verts, 3, axis=1).ravel()
    cols = np.tile(verts, (1, 3)).ravel()
    vals = (scale[:, None, None] * local[None, :, :]).ravel()
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def full_size_stiffness(mesh, coef=None, region=None):
    """Reference: the region's stiffness as an n_fine x n_fine matrix."""
    elems = np.arange(mesh.fine.num_elements) if region is None else np.asarray(region)
    a = np.ones(len(elems)) if coef is None else coef.values()[elems]
    return _full_size_scatter(mesh.fine.elements[elems], mesh.fine.num_nodes, STIFFNESS_LOCAL, a)


def full_size_mass(mesh, region=None, weight=None):
    """Reference: the region's (weighted) mass as an n_fine x n_fine matrix."""
    elems = np.arange(mesh.fine.num_elements) if region is None else np.asarray(region)
    area = mesh.h**2 / 2.0
    w = np.full(len(elems), area) if weight is None else weight.values()[elems] * area
    return _full_size_scatter(
        mesh.fine.elements[elems], mesh.fine.num_nodes, MASS_LOCAL_UNIT_AREA, w
    )


def full_size_load(mesh, f_spec, region=None):
    """Reference: the region's load as an n_fine vector, scattered element by
    element with ``np.add.at``."""
    n, area = mesh.fine.n, mesh.h**2 / 2.0
    elems = np.arange(mesh.fine.num_elements) if region is None else np.asarray(region)
    load = np.zeros(mesh.fine.num_nodes)
    if f_spec.kind == "const":
        np.add.at(load, mesh.fine.elements[elems].ravel(), f_spec.value * area / 3.0)
    elif f_spec.kind == "rect":
        i0, i1, j0, j1 = (round(v * n) for v in f_spec.rect)
        ci, cj = (elems >> 1) % n, (elems >> 1) // n
        inside = elems[(ci >= i0) & (ci < i1) & (cj >= j0) & (cj < j1)]
        np.add.at(load, mesh.fine.elements[inside].ravel(), area / 3.0)
    else:
        node = mesh.fine.node_index(*(round(v * n) for v in f_spec.point))
        for e in np.intersect1d(mesh.fine.elements_of_node(node), elems):
            verts = mesh.fine.elements[e]
            np.add.at(load, verts, np.where(verts == node, 2.0, 1.0) * (area / 12.0))
    return load


@pytest.fixture(scope="module")
def mesh():
    return build_hierarchy(2, 5, BoundarySpec.all_edges())


def hand_element_stiffness():
    # right triangle with legs h, vertex order (right angle, leg end, leg end):
    # gradients (-1/h,-1/h), (1/h,0), (0,1/h) integrated over area h^2/2
    return 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])


def test_single_element_stiffness(mesh):
    nodes, K = assemble_stiffness(mesh, region=np.array([0]))
    verts = np.searchsorted(nodes, mesh.fine.elements[0])
    local = K[np.ix_(verts, verts)].toarray()
    assert np.array_equal(local, hand_element_stiffness())


def test_region_matrices_are_the_full_size_blocks(mesh):
    """Each region matrix is, array for array, the block of the full-size
    scatter at the region's nodes, explicit zeros included."""
    coef = gen_random_field(mesh, 1e-2, 3)
    rng = np.random.default_rng(7)
    regions = [None, np.arange(40, 72)]
    for _ in range(8):
        size = rng.integers(1, mesh.fine.num_elements)
        regions.append(np.sort(rng.choice(mesh.fine.num_elements, size=size, replace=False)))
    for region in regions:
        elems = np.arange(mesh.fine.num_elements) if region is None else region
        want_nodes = np.unique(mesh.fine.elements[elems])
        cases = [
            (assemble_stiffness(mesh, region=region), full_size_stiffness(mesh, region=region)),
            (assemble_stiffness(mesh, coef, region), full_size_stiffness(mesh, coef, region)),
            (assemble_mass(mesh, region), full_size_mass(mesh, region)),
            (assemble_mass(mesh, region, coef), full_size_mass(mesh, region, coef)),
        ]
        for (nodes, local), full in cases:
            assert np.array_equal(nodes, want_nodes)
            block = full[nodes][:, nodes]
            for attr in ("data", "indices", "indptr"):
                got, want = getattr(local, attr), getattr(block, attr)
                assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(assemble_stiffness(mesh)[0], np.arange(mesh.fine.num_nodes))


def test_stiffness_kernel_and_symmetry(mesh):
    _, K = assemble_stiffness(mesh)
    assert np.abs(K @ np.ones(mesh.fine.num_nodes)).max() == 0.0
    assert abs(K - K.T).nnz == 0


def test_stiffness_alpha_scaling(mesh):
    alpha = 0.37
    coef = Coefficient(alpha, np.zeros(mesh.fine.num_elements, bool))
    _, K1 = assemble_stiffness(mesh)
    _, Ka = assemble_stiffness(mesh, coef)
    assert abs(Ka - alpha * K1).nnz == 0


def test_unit_reference_mass():
    # one fine element scaled to the unit triangle: mass = (1/24)[[2,1,1],...]
    m = build_hierarchy(1, 2, BoundarySpec.all_edges())
    nodes, M = assemble_mass(m, region=np.array([0]))
    verts = np.searchsorted(nodes, m.fine.elements[0])
    local = M[np.ix_(verts, verts)].toarray()
    unit = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 24.0
    area_ratio = (m.h**2 / 2) / 0.5
    assert np.allclose(local, unit * area_ratio, rtol=0, atol=1e-18)


def test_mass_partition_of_unity(mesh):
    _, M = assemble_mass(mesh)
    assert M.sum() == pytest.approx(1.0, abs=1e-14)
    region = mesh.fine_elements_of_coarse([0, 1])
    _, M2 = assemble_mass(mesh, region=region)
    assert M2.sum() == pytest.approx(mesh.H**2, abs=1e-15)


def test_weighted_mass_scaling(mesh):
    alpha = 0.125
    coef = Coefficient(alpha, np.zeros(mesh.fine.num_elements, bool))
    _, M = assemble_mass(mesh)
    _, Mw = assemble_mass(mesh, weight=coef)
    assert abs(Mw - alpha * M).nnz == 0


def test_mixed_mass_fine_partition_of_unity(mesh):
    region = mesh.fine_elements_of_coarse([5])
    nodes, M = assemble_mass(mesh, region=region)
    P = mesh.prolongation_matrix[nodes]
    mixed = P.T @ M
    got = mixed @ np.ones(len(nodes))
    # per coarse node: integral of its hat over the region
    expected = P.T @ (M @ np.ones(len(nodes)))
    assert np.abs(got - expected).max() < 1e-15
    assert got.sum() == pytest.approx(mesh.H**2 / 2, abs=1e-15)


def test_mixed_mass_two_integration_paths(mesh):
    """Coarse-quadrature oracle: integrate phi_k times a coarse function directly."""
    rng = np.random.default_rng(3)
    c = rng.standard_normal(mesh.coarse.num_nodes)
    P = mesh.prolongation_matrix
    mixed = P.T @ assemble_mass(mesh)[1]
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
    nodes, load = assemble_load(mesh, LoadSpec.constant(1.0))
    assert np.array_equal(nodes, np.arange(mesh.fine.num_nodes))
    assert load.sum() == pytest.approx(1.0, abs=1e-14)
    load = assemble_load(mesh, LoadSpec.rectangle(0.25, 0.75, 0.25, 0.75))[1]
    assert load.sum() == pytest.approx(0.25, abs=1e-14)
    with pytest.raises(ParameterError):
        assemble_load(mesh, LoadSpec.rectangle(0.25, 0.7501, 0.25, 0.75))


@pytest.mark.parametrize("levels", [(2, 5), (3, 6)])
def test_region_loads_are_the_full_size_entries(levels):
    """Every coarse element's load, and the whole mesh's, equals the full-size
    reference at the region's nodes, which is zero everywhere else."""
    mesh = build_hierarchy(*levels, BoundarySpec.edges("left", "top"))
    loads = [
        LoadSpec.constant(1.0), LoadSpec.constant(-2.5),
        LoadSpec.rectangle(0.25, 0.75, 0.25, 0.75), LoadSpec.rectangle(-1.0, 0.5, 0.75, 2.0),
        LoadSpec.hat(0.5, 0.125), LoadSpec.hat(0.0, 0.0), LoadSpec.hat(1.0, 0.5),
    ]
    regions = [None] + [mesh.fine_elements_of_coarse([T]) for T in range(mesh.coarse.num_elements)]
    for f, region in itertools.product(loads, regions):
        nodes, load = assemble_load(mesh, f, region)
        full = full_size_load(mesh, f, region)
        elems = np.arange(mesh.fine.num_elements) if region is None else region
        assert np.array_equal(nodes, np.unique(mesh.fine.elements[elems]))
        assert load.dtype == full.dtype and np.array_equal(load, full[nodes])
        outside = np.ones(mesh.fine.num_nodes, dtype=bool)
        outside[nodes] = False
        assert not full[outside].any()


def test_stacked_region_is_its_blocks_side_by_side(mesh):
    """A list of regions assembles as one block-diagonal region: block b's node n is
    keyed b * n_fine + n, and each block's matrix and load are, array for array,
    the ones the block assembles alone, overlapping blocks included."""
    coef = gen_random_field(mesh, 1e-2, 3)
    rng = np.random.default_rng(11)
    blocks = [np.sort(rng.choice(mesh.fine.num_elements, size=rng.integers(1, 60), replace=False))
              for _ in range(5)]
    n = mesh.fine.num_nodes
    for assemble in (lambda r: assemble_mass(mesh, r, coef), lambda r: assemble_stiffness(mesh, coef, r),
                     lambda r: assemble_load(mesh, LoadSpec.rectangle(0.25, 0.75, 0.0, 0.5), r)):
        keys, stacked = assemble(blocks)
        alone = [assemble(b) for b in blocks]
        assert np.array_equal(keys, np.concatenate([b * n + nodes for b, (nodes, _) in enumerate(alone)]))
        want = [m for _, m in alone]
        want = sparse.block_diag(want, format="csr") if sparse.issparse(want[0]) else np.concatenate(want)
        for attr in ("data", "indices", "indptr") if sparse.issparse(want) else ("real",):
            got, exp = getattr(stacked, attr), getattr(want, attr)
            assert got.dtype == exp.dtype and np.array_equal(got, exp), attr
    # a list of element indices is one region, not a stack
    for one, want in ((assemble_mass(mesh, [3, 1, 2]), assemble_mass(mesh, np.array([3, 1, 2]))),
                      (assemble_mass(mesh, []), assemble_mass(mesh, np.arange(0)))):
        assert np.array_equal(one[0], want[0]) and (one[1] != want[1]).nnz == 0


def test_load_hat_is_mass_column(mesh):
    load = assemble_load(mesh, LoadSpec.hat(0.5, 0.125))[1]
    node = mesh.fine.node_index(16, 4)
    _, M = assemble_mass(mesh)
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
    _, K = assemble_stiffness(mesh)
    b = assemble_load(mesh, LoadSpec.constant(1.0))[1]
    constrained = np.flatnonzero(mesh.constrained_fine_mask)
    u = solve_spd(K, b, constrained)
    assert np.abs(u[constrained]).max() == 0.0
    free = np.flatnonzero(~mesh.constrained_fine_mask)
    resid = np.linalg.norm((K @ u - b)[free])
    assert resid <= 1e-10 * np.linalg.norm(b[free])


def test_galerkin_consistency(mesh):
    coef = gen_random_field(mesh, 1e-3, 2)
    ctx = BilinearFormContext(mesh, coef)
    b = assemble_load(mesh, LoadSpec.constant(1.0))[1]
    u = solve_spd(ctx.stiffness, b, ctx.constrained_fine)
    rng = np.random.default_rng(0)
    free = np.flatnonzero(~mesh.constrained_fine_mask)
    for _ in range(50):
        w = np.zeros(mesh.fine.num_nodes)
        w[free] = rng.standard_normal(len(free))
        lhs = u @ (ctx.stiffness @ w)
        rhs = b @ w
        assert abs(lhs - rhs) <= 1e-9 * (abs(rhs) + np.linalg.norm(w))


def test_kkt_pieces_match_scipy_products(mesh):
    """The row scaling and the KKT block matrix are built directly, entry
    for entry as diag(1 / norms) @ C and sparse.bmat build them."""
    coef = gen_random_field(mesh, 1e-3, 4)
    _, K = assemble_stiffness(mesh, coef)  # stores explicit zeros on hypotenuses
    dofs = np.flatnonzero(~mesh.constrained_fine_mask)[:200]
    K = K[dofs][:, dofs]
    rng = np.random.default_rng(5)
    C = sparse.random(12, len(dofs), density=0.05, format="csr", random_state=rng)
    C = C[np.flatnonzero(np.diff(C.indptr) > 0)]
    assert (K.data == 0.0).any()

    Cn, norms = _row_normalized(C)
    reference = sparse.diags(1.0 / norms) @ C
    reference.sort_indices()
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(Cn, attr), getattr(reference, attr))

    kkt = _kkt_matrix(K, Cn)
    reference = sparse.bmat([[K, Cn.T], [Cn, None]], format="csc")
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(kkt, attr), getattr(reference, attr))


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


def test_saddle_zero_rows_dropped():
    """A zero row is a dependent row: dropped with multiplier 0, and the
    solution is the one of the system without it, bit for bit."""
    n = 6
    K = sparse.identity(n, format="csr")
    C = sparse.csr_matrix(np.vstack([np.zeros(n), np.ones(n), np.zeros(n)]))
    b = np.zeros((n, 1))
    b[0] = 1.0
    system = SaddleSystem(K, C)
    assert np.array_equal(system.rows, [1]) and np.array_equal(system.dropped_rows, [0, 2])
    u, lam = system.solve(b)
    u_ref, lam_ref = SaddleSystem(K, C[[1]]).solve(b)
    assert np.array_equal(u, u_ref)
    assert lam.shape == (3, 1)
    assert lam[0, 0] == 0.0 and lam[2, 0] == 0.0 and lam[1, 0] == lam_ref[0, 0]
    assert abs(lam[1, 0] - 1.0 / n) < 1e-12


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


def test_singular_kkt_fails_at_construction():
    with pytest.raises(SolverError, match="KKT factorization failed"):
        SaddleSystem(sparse.csr_matrix((4, 4)), sparse.csr_matrix((0, 4)))


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
    _, K = assemble_stiffness(mesh)
    assert energy_norm(K, np.zeros(mesh.fine.num_nodes)) == 0.0
    assert energy_norm(K, np.ones(mesh.fine.num_nodes)) == 0.0
    x1 = mesh.fine.points[:, 0].copy()
    assert energy_norm(K, x1) == pytest.approx(1.0, rel=1e-14)


def test_energy_norm_coefficient_scaling(mesh):
    c = 0.0625
    coef = Coefficient(c, np.zeros(mesh.fine.num_elements, bool))
    _, K1 = assemble_stiffness(mesh)
    _, Kc = assemble_stiffness(mesh, coef)
    rng = np.random.default_rng(8)
    v = rng.standard_normal(mesh.fine.num_nodes)
    assert energy_norm(Kc, v) == pytest.approx(np.sqrt(c) * energy_norm(K1, v), rel=1e-12)
