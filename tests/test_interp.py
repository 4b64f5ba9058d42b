import numpy as np
import pytest
from fractions import Fraction

from lod2d.assembly import assemble_mass
from lod2d.coefficient import Coefficient, gen_random_balls, gen_stripes
from lod2d.errors import DegenerateSigmaError, ParameterError
from lod2d.interp import (
    OPERATOR_KINDS,
    _coarse_gram,
    build_operator,
    classify_nodes_ih,
    coverage_report,
    dual_basis,
    is_quasi_monotone,
    kappa,
    quasi_monotone_region,
)
from lod2d.mesh import BoundarySpec, ElementSet, build_hierarchy, node_patch

# frozen from exact symbolic integration of the dual-basis Gram systems
KAPPA2_STRIP_1_64 = 453.56430164147303


@pytest.fixture(scope="module")
def mesh17():
    """H = 1/2, h = 1/128: resolves the kappa benchmark geometries exactly."""
    return build_hierarchy(1, 7, BoundarySpec.all_edges())


@pytest.fixture(scope="module")
def mesh36():
    return build_hierarchy(3, 6, BoundarySpec.all_edges())


def corner_triangle_sigma(mesh, T, frac):
    """Fine elements of coarse element T within the frac-scaled corner triangle."""
    r = mesh.ratio
    m = int(frac * r)
    assert frac * r == m
    chosen = []
    for e in mesh.fine_elements_of_coarse([T]):
        t = e & 1
        cell = e >> 1
        a, b = cell % mesh.fine.n, cell // mesh.fine.n
        s = a + b
        if s <= m - 2 or (s == m - 1 and t == 0):
            chosen.append(e)
    return ElementSet(mesh.fine_level, np.array(chosen))


def bottom_strip_sigma(mesh, T, rows):
    chosen = []
    for e in mesh.fine_elements_of_coarse([T]):
        cell = e >> 1
        if cell // mesh.fine.n < rows:
            chosen.append(e)
    return ElementSet(mesh.fine_level, np.array(chosen))


def test_kappa_full_element(mesh17):
    T = 0
    sigma = ElementSet(7, mesh17.fine_elements_of_coarse([T]))
    own = mesh17.coarse.node_index(0, 0)
    assert kappa(mesh17, sigma, own) ** 2 == pytest.approx(18.0, rel=1e-12)


def test_dual_weight_scaling_full_element(mesh17):
    # H^2 * xi_1 = 18 independent of H
    sigma = ElementSet(7, mesh17.fine_elements_of_coarse([0]))
    own = mesh17.coarse.node_index(0, 0)
    _, xi = dual_basis(mesh17, sigma, own)
    assert mesh17.H**2 * xi[0] == pytest.approx(18.0, rel=1e-12)


@pytest.mark.parametrize("frac", [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)])
def test_kappa_scaled_corner_triangle(mesh17, frac):
    sigma = corner_triangle_sigma(mesh17, 0, frac)
    own = mesh17.coarse.node_index(0, 0)
    k2 = kappa(mesh17, sigma, own) ** 2
    assert k2 * float(frac) ** 2 == pytest.approx(18.0, rel=1e-10)


def test_kappa_corner_quarter_dual_weight(mesh17):
    sigma = corner_triangle_sigma(mesh17, 0, Fraction(1, 4))
    own = mesh17.coarse.node_index(0, 0)
    _, xi = dual_basis(mesh17, sigma, own)
    assert mesh17.H**2 * xi[0] == pytest.approx(288.0, rel=1e-10)


def test_kappa_edge_strip(mesh17):
    # one fine row along the bottom edge: strip of relative height 1/64
    sigma = bottom_strip_sigma(mesh17, 0, 1)
    own = mesh17.coarse.node_index(0, 0)
    k2 = kappa(mesh17, sigma, own) ** 2
    assert k2 == pytest.approx(KAPPA2_STRIP_1_64, rel=1e-10)
    assert 6.65 <= k2 / 64.0 <= 7.35


def kappa_from_determinants(mesh, sigma, own_node):
    """kappa from the Gram determinant ratio, an evaluation path independent of the solve."""
    idx = sigma.indices if isinstance(sigma, ElementSet) else np.asarray(sigma)
    _, M = _coarse_gram(mesh, idx, own_node)
    sign, logdet = np.linalg.slogdet(M)
    sign11, logdet11 = np.linalg.slogdet(M[1:, 1:]) if M.shape[0] > 1 else (1.0, 0.0)
    assert sign > 0 and sign11 > 0, "Gram determinant not positive"
    return float(np.sqrt(mesh.H**2 * np.exp(logdet11 - logdet)))


def test_kappa_determinant_consistency(mesh36):
    rng = np.random.default_rng(4)
    z = mesh36.coarse.node_index(4, 4)
    patch = mesh36.fine_set(node_patch(mesh36, z)).indices
    incident = mesh36.fine.elements_of_node(mesh36.coarse_node_to_fine(z))
    for _ in range(20):
        extra = rng.choice(patch, size=rng.integers(5, len(patch)), replace=False)
        sigma = ElementSet(6, np.union1d(incident, extra))
        k1 = kappa(mesh36, sigma, z)
        k2 = kappa_from_determinants(mesh36, sigma, z)
        assert k1 == pytest.approx(k2, rel=1e-8)


def test_kappa_extension_monotonicity(mesh36):
    rng = np.random.default_rng(9)
    z = mesh36.coarse.node_index(3, 5)
    patch = mesh36.fine_set(node_patch(mesh36, z)).indices
    incident = mesh36.fine.elements_of_node(mesh36.coarse_node_to_fine(z))
    for _ in range(100):
        small = np.union1d(
            incident, rng.choice(patch, size=rng.integers(1, 40), replace=False)
        )
        grow = rng.choice(patch, size=rng.integers(1, len(patch)), replace=False)
        big = np.union1d(small, grow)
        k_small = kappa(mesh36, ElementSet(6, small), z)
        k_big = kappa(mesh36, ElementSet(6, big), z)
        assert k_big <= k_small + 1e-10


def test_dual_basis_duality_on_node_patch(mesh36):
    z = mesh36.coarse.node_index(4, 3)
    sigma = mesh36.fine_set(node_patch(mesh36, z))
    support, xi = dual_basis(mesh36, sigma, z)
    # N(phi_own) = 1, N(phi_neighbor) = 0: integrate psi against each hat
    P = mesh36.prolongation_matrix
    M = assemble_mass(mesh36, region=sigma.indices)
    psi = P[:, support] @ xi
    for pos, j in enumerate(support):
        integral = psi @ (M @ P[:, j].toarray().ravel())
        assert integral == pytest.approx(1.0 if pos == 0 else 0.0, abs=1e-12)


def test_dual_basis_empty_sigma(mesh36):
    with pytest.raises(DegenerateSigmaError):
        dual_basis(mesh36, ElementSet(6, []), 0)


def test_dual_basis_disjoint_sigma(mesh36):
    # sigma with no own-node hat mass
    z = mesh36.coarse.node_index(1, 1)
    far = mesh36.fine_elements_of_coarse([mesh36.coarse.num_elements - 1])
    with pytest.raises(DegenerateSigmaError):
        dual_basis(mesh36, ElementSet(6, far), z)


def independent_flood(mesh, allowed, seeds):
    """Oracle flood fill over edge adjacency built from shared vertex pairs."""
    edges = {}
    adj = {}
    for e in np.flatnonzero(allowed):
        v = sorted(mesh.fine.elements[e])
        for pair in [(v[0], v[1]), (v[0], v[2]), (v[1], v[2])]:
            if pair in edges:
                other = edges[pair]
                adj.setdefault(e, set()).add(other)
                adj.setdefault(other, set()).add(e)
            else:
                edges[pair] = e
    seen, stack = set(), [s for s in seeds if allowed[s]]
    while stack:
        e = stack.pop()
        if e in seen:
            continue
        seen.add(e)
        stack.extend(adj.get(e, ()))
    return np.array(sorted(seen))


def test_classify_all_alpha_is_class_two(mesh36):
    coef = Coefficient(0.01, np.zeros(mesh36.fine.num_elements, bool))
    nodevars = classify_nodes_ih(mesh36, coef, Fraction(1, 4))
    assert all(nv.cls == "II" for nv in nodevars)
    from lod2d.mesh import scaled_node_patch

    for nv in nodevars[:5]:
        expected = scaled_node_patch(mesh36, nv.node, Fraction(1, 4))
        assert np.array_equal(nv.sigma.indices, expected.indices)


def test_classify_stripe_node(mesh36):
    coef = gen_stripes(mesh36, 0.01)
    nodevars = {nv.node: nv for nv in classify_nodes_ih(mesh36, coef, Fraction(1, 4))}
    z = mesh36.coarse.node_index(4, 4)  # on the stripe row y = 1/2
    nv = nodevars[z]
    assert nv.cls == "I"
    patch = mesh36.fine_set(node_patch(mesh36, z))
    allowed = patch.mask(mesh36.fine.num_elements) & coef.is_one
    incident = mesh36.fine.elements_of_node(mesh36.coarse_node_to_fine(z))
    seeds = [int(incident[coef.is_one[incident]].min())]
    oracle = independent_flood(mesh36, allowed, seeds)
    assert np.array_equal(nv.sigma.indices, oracle)
    # the own band is flagged but the neighboring stripes in the patch are not in sigma
    assert coef.is_one[nv.sigma.indices].all()
    assert len(nv.sigma) < allowed.sum()


def test_classify_ball_node(mesh36):
    keep = np.zeros(289, bool)
    keep[8 * 17 + 8] = True
    from lod2d.coefficient import _balls_from_draws

    coef = _balls_from_draws(mesh36, 0.01, keep, np.full(289, 6.0 / 128.0))
    z = mesh36.coarse.node_index(4, 4)  # ball center
    nodevars = {nv.node: nv for nv in classify_nodes_ih(mesh36, coef, Fraction(1, 4))}
    nv = nodevars[z]
    assert nv.cls == "I"
    patch = mesh36.fine_set(node_patch(mesh36, z))
    allowed = patch.mask(mesh36.fine.num_elements) & coef.is_one
    incident = mesh36.fine.elements_of_node(mesh36.coarse_node_to_fine(z))
    seeds = [int(incident[coef.is_one[incident]].min())]
    assert np.array_equal(nv.sigma.indices, independent_flood(mesh36, allowed, seeds))


def test_class_one_sigma_invariants(mesh36):
    coef = gen_random_balls(mesh36, 0.01, 12)
    for nv in classify_nodes_ih(mesh36, coef, Fraction(1, 4)):
        assert len(nv.sigma) > 0
        if nv.cls == "I":
            assert coef.is_one[nv.sigma.indices].all()
            allowed = np.zeros(mesh36.fine.num_elements, bool)
            allowed[nv.sigma.indices] = True
            comp = independent_flood(mesh36, allowed, [int(nv.sigma.indices[0])])
            assert np.array_equal(comp, nv.sigma.indices)  # edge-connected


def test_operator_projection_property(mesh36):
    coef = gen_random_balls(mesh36, 0.2, 5)
    P = mesh36.prolongation_matrix
    free = mesh36.free_coarse_nodes
    rng = np.random.default_rng(1)
    for kind in OPERATOR_KINDS:
        op = build_operator(kind, mesh36, coef)
        RP = (op.matrix @ P[:, free]).toarray()
        assert np.abs(RP - np.eye(len(free))).max() < 1e-10
        c = rng.standard_normal(len(free))
        assert np.abs(op.apply(P[:, free] @ c) - c).max() < 1e-10


def test_unknown_operator_kind(mesh36):
    coef = gen_stripes(mesh36, 0.1)
    with pytest.raises(ParameterError):
        build_operator("clement", mesh36, coef)


def test_nodal_point_evaluation(mesh36):
    coef = gen_stripes(mesh36, 0.1)
    op = build_operator("nodal", mesh36, coef)
    rng = np.random.default_rng(2)
    v = rng.standard_normal(mesh36.fine.num_nodes)
    vals = op.apply(v)
    for row, z in enumerate(op.free_nodes):
        assert vals[row] == v[mesh36.coarse_node_to_fine(z)]


def test_ih_equals_sz_on_constant_coefficient(mesh36):
    coef = Coefficient(1.0, np.ones(mesh36.fine.num_elements, bool))
    ih = build_operator("IH", mesh36, coef)
    sz = build_operator("SZ", mesh36, coef)
    assert all(nv.cls == "I" for nv in ih.node_variables)
    diff = abs(ih.matrix - sz.matrix)
    assert (diff.max() if diff.nnz else 0.0) < 1e-12


def test_ih1_uses_full_patch_for_class_two(mesh36):
    coef = Coefficient(0.3, np.zeros(mesh36.fine.num_elements, bool))
    op = build_operator("IH1", mesh36, coef)
    for nv in op.node_variables[:5]:
        assert nv.cls == "II"
        full = mesh36.fine_set(node_patch(mesh36, nv.node))
        assert np.array_equal(nv.sigma.indices, full.indices)


def test_row_locality(mesh36):
    coef = gen_random_balls(mesh36, 0.01, 6)
    for kind in OPERATOR_KINDS:
        op = build_operator(kind, mesh36, coef)
        for row_idx in range(0, len(op.free_nodes), 9):
            z = op.free_nodes[row_idx]
            patch = mesh36.fine_set(node_patch(mesh36, z))
            patch_nodes = np.unique(mesh36.fine.elements[patch.indices].ravel())
            row = op.matrix.getrow(row_idx)
            assert np.isin(row.indices, patch_nodes).all()


def test_kernel_vectors_annihilate_all_node_variables(mesh36):
    coef = gen_stripes(mesh36, 1e-3)
    for kind in ("IH", "IH1"):
        op = build_operator(kind, mesh36, coef)
        R = op.matrix.toarray()
        rng = np.random.default_rng(13)
        for _ in range(5):
            v = rng.standard_normal(mesh36.fine.num_nodes)
            lam = np.linalg.lstsq(R @ R.T, R @ v, rcond=None)[0]
            v_ker = v - R.T @ lam
            assert np.abs(R @ v_ker).max() <= 1e-10 * np.linalg.norm(v_ker)


def test_quasi_monotone_region_constant_coefficient(mesh36):
    coef = Coefficient(1.0, np.ones(mesh36.fine.num_elements, bool))
    z = mesh36.coarse.node_index(2, 6)
    region = quasi_monotone_region(mesh36, coef, z)
    full = mesh36.fine_set(node_patch(mesh36, z))
    assert np.array_equal(region.indices, full.indices)
    assert is_quasi_monotone(mesh36, coef, region, z)


def test_quasi_monotone_region_includes_enclosed_pocket(mesh36):
    # node surrounded by value-1 elements with a small alpha pocket inside
    # the patch: descending steps are allowed, so the pocket joins
    z = mesh36.coarse.node_index(4, 4)
    patch = mesh36.fine_set(node_patch(mesh36, z))
    flags = np.ones(mesh36.fine.num_elements, bool)
    pocket = patch.indices[10:14]
    flags[pocket] = False
    coef = Coefficient(0.01, flags)
    region = quasi_monotone_region(mesh36, coef, z)
    assert np.isin(pocket, region.indices).all()
    assert np.array_equal(region.indices, patch.indices)
    assert is_quasi_monotone(mesh36, coef, region, z)


def test_quasi_monotone_region_excludes_island(mesh36):
    # all z-incident elements small-valued; a value-1 island elsewhere in
    # the patch is unreachable (ascending step forbidden)
    z = mesh36.coarse.node_index(4, 4)
    patch = mesh36.fine_set(node_patch(mesh36, z))
    incident = mesh36.fine.elements_of_node(mesh36.coarse_node_to_fine(z))
    flags = np.zeros(mesh36.fine.num_elements, bool)
    island = np.setdiff1d(patch.indices, incident)[-6:]
    flags[island] = True
    coef = Coefficient(0.01, flags)
    region = quasi_monotone_region(mesh36, coef, z)
    assert not np.isin(island, region.indices).any()
    assert is_quasi_monotone(mesh36, coef, region, z)
    # the full patch, by contrast, is not quasi-monotone
    assert not is_quasi_monotone(mesh36, coef, patch, z)


def exhaustive_quasi_monotone(mesh, coef, region_indices, z):
    """Oracle: enumerate all simple paths on a tiny region."""
    values = coef.values()
    region = set(int(e) for e in region_indices)
    incident = set(
        int(e)
        for e in mesh.fine.elements_of_node(mesh.coarse_node_to_fine(z))
        if int(e) in region
    )
    nb = mesh.fine.edge_neighbors

    def reaches(start):
        stack = [(start, {start})]
        while stack:
            e, seen = stack.pop()
            if e in incident:
                return True
            for n in nb[e]:
                n = int(n)
                if n in region and n not in seen and values[n] >= values[e]:
                    stack.append((n, seen | {n}))
        return False

    return all(reaches(e) for e in region)


def test_is_quasi_monotone_matches_exhaustive_oracle(mesh36):
    z = mesh36.coarse.node_index(4, 4)
    incident = mesh36.fine.elements_of_node(mesh36.coarse_node_to_fine(z))
    toy = np.sort(incident)  # 6-element toy patch around z
    rng = np.random.default_rng(21)
    for _ in range(40):
        flags = np.zeros(mesh36.fine.num_elements, bool)
        flags[toy[rng.random(len(toy)) < 0.5]] = True
        coef = Coefficient(0.01, flags)
        sub = toy[rng.random(len(toy)) < 0.8]
        if len(sub) == 0:
            continue
        got = is_quasi_monotone(mesh36, coef, ElementSet(6, sub), z)
        want = exhaustive_quasi_monotone(mesh36, coef, sub, z)
        assert got == want


def test_aprojqm_regions_pass_quasi_monotonicity(mesh36):
    coef = gen_random_balls(mesh36, 0.01, 17)
    op = build_operator("AprojQM", mesh36, coef)
    for nv in op.node_variables:
        assert is_quasi_monotone(mesh36, coef, nv.sigma, nv.node)


def test_coverage_report_stripes(mesh36):
    # L=3: only the even-index stripes hold node rows -> 8 uncovered
    coef = gen_stripes(mesh36, 0.01)
    nodevars = classify_nodes_ih(mesh36, coef, Fraction(1, 4))
    report = coverage_report(mesh36, coef, nodevars)
    assert report.uncovered_components == 8
    m4 = build_hierarchy(4, 7, BoundarySpec.all_edges())
    coef4 = gen_stripes(m4, 0.01)
    nodevars4 = classify_nodes_ih(m4, coef4, Fraction(1, 4))
    report4 = coverage_report(m4, coef4, nodevars4)
    assert report4.uncovered_components == 0
    assert report4.covered_area_fraction > 0.9
    assert "I" in report4.max_kappa_by_class


def test_coverage_report_coarse_mesh_misses_stripes():
    m = build_hierarchy(2, 6, BoundarySpec.all_edges())
    coef = gen_stripes(m, 0.01)
    nodevars = classify_nodes_ih(m, coef, Fraction(1, 4))
    report = coverage_report(m, coef, nodevars)
    assert report.uncovered_components > 0


def test_coverage_report_vacuous(mesh36):
    coef = Coefficient(0.01, np.zeros(mesh36.fine.num_elements, bool))
    nodevars = classify_nodes_ih(mesh36, coef, Fraction(1, 4))
    report = coverage_report(mesh36, coef, nodevars)
    assert report.omega1_area == 0.0
    assert report.uncovered_components == 0
    assert report.covered_area_fraction == 1.0
