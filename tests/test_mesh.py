import numpy as np
import pytest
import scipy.sparse as sparse
from fractions import Fraction

from lod2d.errors import ParameterError
from lod2d.mesh import (
    EDGE_NAMES,
    BoundarySpec,
    ElementSet,
    _refine_once,
    build_hierarchy,
    element_patch,
    node_patch,
    scaled_node_patch,
)


@pytest.fixture(scope="module")
def mesh12():
    return build_hierarchy(1, 2, BoundarySpec.all_edges())


@pytest.fixture(scope="module")
def mesh46():
    return build_hierarchy(4, 6, BoundarySpec.all_edges())


@pytest.fixture(scope="module")
def mesh35():
    return build_hierarchy(3, 5, BoundarySpec.all_edges())


def _check_level(a, b):
    if a.level != b.level:
        raise ParameterError(f"element sets live on different levels ({a.level} vs {b.level})")


def union(a, b):
    _check_level(a, b)
    return ElementSet(a.level, np.union1d(a.indices, b.indices))


def intersection(a, b):
    _check_level(a, b)
    return ElementSet(a.level, np.intersect1d(a.indices, b.indices))


def contains(a, b):
    _check_level(a, b)
    return np.isin(b.indices, a.indices).all()


def brute_force_touching(mesh, elems):
    """Oracle: coarse elements whose closure meets the closure of the given set,
    via vertex-coordinate set intersection."""
    pts = mesh.coarse.points
    vertex_keys = [
        {tuple(pts[v]) for v in mesh.coarse.elements[T]}
        for T in range(mesh.coarse.num_elements)
    ]
    seed_keys = set().union(*(vertex_keys[T] for T in elems))
    return sorted(
        T for T in range(mesh.coarse.num_elements) if vertex_keys[T] & seed_keys
    )


def test_level_counts(mesh12):
    assert mesh12.coarse.num_elements == 8
    assert mesh12.coarse.num_nodes == 9
    assert mesh12.fine.num_elements == 32
    assert mesh12.fine.num_nodes == 25


def test_paper_geometry_counts():
    m = build_hierarchy(4, 10, BoundarySpec.all_edges())
    assert m.coarse.num_elements == 512
    assert m.fine.num_elements == 2_097_152
    assert m.H == 2.0**-4 and m.h == 2.0**-10


@pytest.mark.parametrize("levels", [(3, 2), (0, 3), (2, 2), (5, 13)])
def test_level_validation(levels):
    with pytest.raises(ParameterError):
        build_hierarchy(*levels, BoundarySpec.all_edges())


def test_interior_one_layer_patch_is_13_elements(mesh46):
    T = 2 * (8 * 16 + 8)
    patch = element_patch(mesh46, ElementSet(4, [T]), 1)
    assert len(patch) == 13
    assert sorted(patch.indices) == brute_force_touching(mesh46, [T])


def test_patch_matches_brute_force_everywhere():
    m = build_hierarchy(3, 4, BoundarySpec.all_edges())
    for T in range(m.coarse.num_elements):
        patch = element_patch(m, ElementSet(3, [T]), 1)
        assert sorted(patch.indices) == brute_force_touching(m, [T])


def test_patch_k0_is_seed(mesh46):
    seed = ElementSet(4, [3, 77, 100])
    assert np.array_equal(element_patch(mesh46, seed, 0).indices, seed.indices)


def test_patch_saturation(mesh46):
    # growth across the cell diagonals is half-speed, so a corner seed
    # needs up to 2*2^L layers; a centered seed saturates at 2^L
    patch = element_patch(mesh46, ElementSet(4, [0]), 2 * 2**4)
    assert len(patch) == mesh46.coarse.num_elements
    center = 2 * (8 * 16 + 8)
    assert len(element_patch(mesh46, ElementSet(4, [center]), 2**4)) == 512
    again = element_patch(mesh46, patch, 1)
    assert len(again) == len(patch)


def test_patch_monotone_in_k(mesh35):
    rng = np.random.default_rng(0)
    for _ in range(10):
        seed = ElementSet(3, rng.choice(mesh35.coarse.num_elements, size=2, replace=False))
        prev = element_patch(mesh35, seed, 0)
        for k in range(1, 5):
            cur = element_patch(mesh35, seed, k)
            assert contains(cur, prev)
            prev = cur


def test_patch_seed_validation(mesh46):
    with pytest.raises(ParameterError):
        element_patch(mesh46, ElementSet(4, []), 1)
    with pytest.raises(ParameterError):
        element_patch(mesh46, ElementSet(6, [0]), 1)
    with pytest.raises(ParameterError):
        element_patch(mesh46, ElementSet(4, [0]), -1)


def brute_force_node_patch(mesh, z):
    return sorted(
        T
        for T in range(mesh.coarse.num_elements)
        if z in mesh.coarse.elements[T]
    )


def test_node_patch_counts(mesh46):
    n = mesh46.coarse.n
    interior = mesh46.coarse.node_index(8, 8)
    assert len(node_patch(mesh46, interior)) == 6
    assert len(node_patch(mesh46, mesh46.coarse.node_index(0, 0))) == 1
    assert len(node_patch(mesh46, mesh46.coarse.node_index(n, n))) == 1
    assert len(node_patch(mesh46, mesh46.coarse.node_index(n, 0))) == 2
    assert len(node_patch(mesh46, mesh46.coarse.node_index(0, n))) == 2
    assert len(node_patch(mesh46, mesh46.coarse.node_index(8, 0))) == 3
    for z in [interior, mesh46.coarse.node_index(0, 0), mesh46.coarse.node_index(8, 0)]:
        assert sorted(node_patch(mesh46, z).indices) == brute_force_node_patch(mesh46, z)


def test_scaled_node_patch_identity(mesh46):
    z = mesh46.coarse.node_index(7, 9)
    full = scaled_node_patch(mesh46, z, 1)
    children = mesh46.fine_set(node_patch(mesh46, z))
    assert np.array_equal(full.indices, children.indices)


def test_scaled_node_patch_quarter_area(mesh46):
    z = mesh46.coarse.node_index(8, 8)
    sigma = scaled_node_patch(mesh46, z, Fraction(1, 4))
    area = len(sigma) * mesh46.h**2 / 2
    patch_area = len(mesh46.fine_set(node_patch(mesh46, z))) * mesh46.h**2 / 2
    assert area == pytest.approx(patch_area / 16, rel=0, abs=0)


def test_scaled_node_patch_boundary_nodes(mesh46):
    # truncated patches scale exactly too
    for z in [mesh46.coarse.node_index(0, 0), mesh46.coarse.node_index(8, 0)]:
        full = len(mesh46.fine_set(node_patch(mesh46, z)))
        quarter = len(scaled_node_patch(mesh46, z, Fraction(1, 4)))
        assert quarter * 16 == full


def test_scaled_node_patch_rejects_unrepresentable(mesh46):
    z = mesh46.coarse.node_index(8, 8)
    with pytest.raises(ParameterError):
        scaled_node_patch(mesh46, z, Fraction(1, 3))
    with pytest.raises(ParameterError):
        scaled_node_patch(mesh46, z, 2.0)


def test_prolongation_center_hat(mesh12):
    P = mesh12.prolongation_matrix
    center = mesh12.coarse.node_index(1, 1)
    vec = P[:, center].toarray().ravel()
    expected = np.zeros(25)
    expected[mesh12.fine.node_index(2, 2)] = 1.0
    # six edge midpoints incident to the center: 4 axis + 2 diagonal
    for i, j in [(1, 2), (3, 2), (2, 1), (2, 3), (1, 3), (3, 1)]:
        expected[mesh12.fine.node_index(i, j)] = 0.5
    assert np.array_equal(vec, expected)


def test_prolongation_partition_of_unity(mesh46):
    P = mesh46.prolongation_matrix
    ones = P @ np.ones(mesh46.coarse.num_nodes)
    assert np.abs(ones - 1.0).max() == 0.0


def test_prolongation_reproduces_coarse_functions(mesh35):
    """Oracle: evaluate the coarse piecewise-linear function directly at fine nodes."""
    rng = np.random.default_rng(7)
    c = rng.standard_normal(mesh35.coarse.num_nodes)
    P = mesh35.prolongation_matrix
    vals = P @ c
    r = mesh35.ratio
    nc = mesh35.coarse.n
    for node in rng.choice(mesh35.fine.num_nodes, size=200, replace=False):
        fi, fj = mesh35.fine.node_ij(node)
        ci, cj = min(fi // r, nc - 1), min(fj // r, nc - 1)
        u, v = fi / r - ci, fj / r - cj
        sw = c[mesh35.coarse.node_index(ci, cj)]
        se = c[mesh35.coarse.node_index(ci + 1, cj)]
        nw = c[mesh35.coarse.node_index(ci, cj + 1)]
        ne = c[mesh35.coarse.node_index(ci + 1, cj + 1)]
        if u + v <= 1.0:
            direct = sw * (1 - u - v) + se * u + nw * v
        else:
            direct = ne * (u + v - 1) + nw * (1 - u) + se * (1 - v)
        assert vals[node] == pytest.approx(direct, abs=1e-14)


@pytest.mark.parametrize("level", range(1, 8))
def test_refine_once_is_the_canonical_hat_matrix(level):
    """The one-level prolongation is canonical CSR with int32 indices, float64
    values and no stored zeros, holding every coarse hat's exact value at every
    fine node: together these fix its arrays uniquely."""
    P = _refine_once(level)
    nc = 2**level
    assert P.shape == ((2 * nc + 1) ** 2, (nc + 1) ** 2)
    assert P.has_canonical_format
    assert P.indices.dtype == P.indptr.dtype == np.int32 and P.data.dtype == np.float64
    assert (P.data != 0).all()
    # only the four corners of the coarse cell around a fine node can be nonzero
    # there; a hat is 1 - max(|dx|, |dy|, |dx + dy|) in coarse units, clipped at 0
    fine = np.arange(P.shape[0])
    x, y = fine % (2 * nc + 1) / 2, fine // (2 * nc + 1) / 2
    a0, b0 = np.minimum(x // 1, nc - 1), np.minimum(y // 1, nc - 1)
    rows, cols, vals = [], [], []
    for a, b in [(a0, b0), (a0 + 1, b0), (a0, b0 + 1), (a0 + 1, b0 + 1)]:
        dx, dy = x - a, y - b
        hat = np.maximum(1 - np.maximum.reduce([abs(dx), abs(dy), abs(dx + dy)]), 0)
        rows.append(fine)
        cols.append((b * (nc + 1) + a).astype(int))
        vals.append(hat)
    exact = sparse.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))), shape=P.shape)
    assert (P != exact).nnz == 0


def test_nestedness(mesh35):
    for T in [0, 17, mesh35.coarse.num_elements - 1]:
        children = mesh35.fine_elements_of_coarse([T])
        assert len(children) == mesh35.ratio**2
        area = len(children) * mesh35.h**2 / 2
        assert area == pytest.approx(mesh35.H**2 / 2, rel=0, abs=0)
    # every coarse node coincides with a fine node
    for z in range(mesh35.coarse.num_nodes):
        f = mesh35.coarse_node_to_fine(z)
        assert np.array_equal(mesh35.fine.points[f], mesh35.coarse.points[z])


def test_element_set_operations():
    a = ElementSet(3, [1, 2, 3])
    b = ElementSet(3, [3, 4])
    assert np.array_equal(union(a, b).indices, [1, 2, 3, 4])
    assert np.array_equal(intersection(a, b).indices, [3])
    assert contains(a, ElementSet(3, [2]))
    assert not contains(a, b)
    with pytest.raises(ParameterError):
        union(a, ElementSet(4, [1]))


def test_element_set_is_sorted_unique_int64_copy():
    for given, want in (([5, 1, 3, 1], [1, 3, 5]), ([1, 3, 5], [1, 3, 5]), ([2, 2], [2]), ([], [])):
        s = ElementSet(3, np.array(given, dtype=np.int32))
        assert s.indices.dtype == np.int64 and np.array_equal(s.indices, want)
    ascending = np.arange(4, dtype=np.int64)
    s = ElementSet(3, ascending)
    ascending[0] = 9  # the set keeps its own copy
    assert np.array_equal(s.indices, [0, 1, 2, 3])


def test_boundary_spec_masks():
    m = build_hierarchy(2, 3, BoundarySpec.edges("top"))
    mask = m.constrained_coarse_mask
    pts = m.coarse.points
    assert (pts[mask][:, 1] == 1.0).all()
    assert mask.sum() == m.coarse.n + 1
    with pytest.raises(ParameterError):
        BoundarySpec.edges("north")


# -- the general-purpose constructions the lattice closed forms replaced ------


def layer_growth_masks(mesh, seed):
    """Oracle: element masks of U_0, U_1, ... grown layer by layer through the
    node-element incidence, up to and including the first repeated layer."""
    lvl = mesh.coarse
    mask = seed.mask(lvl.num_elements)
    indptr, elem_of_node = lvl.node_to_elements
    layers = [mask]
    while True:
        nodes = np.unique(lvl.elements[mask].ravel())
        touching = np.unique(
            np.concatenate([elem_of_node[indptr[v] : indptr[v + 1]] for v in nodes])
        )
        new = mask.copy()
        new[touching] = True
        layers.append(new)
        if (new == mask).all():
            return layers
        mask = new


def scaled_triangles_patch(mesh, z, m):
    """Oracle: fine elements whose vertices all lie in the union of the coarse
    triangles around z scaled by m/ratio about z (orientation tests)."""
    r = mesh.ratio
    zf = np.array(mesh.coarse.node_ij(z), dtype=np.int64) * r
    tris = []
    for T in node_patch(mesh, z).indices:
        vi = np.array([mesh.coarse.node_ij(v) for v in mesh.coarse.elements[T]]) * r
        tris.append(zf + (m * (vi - zf)) // r)
    lo = np.min([t.min(axis=0) for t in tris], axis=0)
    hi = np.max([t.max(axis=0) for t in tris], axis=0)
    nf = mesh.fine.n
    gi, gj = np.meshgrid(np.arange(max(lo[0], 0), min(hi[0], nf)),
                         np.arange(max(lo[1], 0), min(hi[1], nf)), indexing="xy")
    gi, gj = gi.ravel(), gj.ravel()

    def covered(px, py):
        inside = np.zeros(px.shape, dtype=bool)
        for a, b, c in tris:
            d1 = (b[0] - a[0]) * (py - a[1]) - (b[1] - a[1]) * (px - a[0])
            d2 = (c[0] - b[0]) * (py - b[1]) - (c[1] - b[1]) * (px - b[0])
            d3 = (a[0] - c[0]) * (py - c[1]) - (a[1] - c[1]) * (px - c[0])
            s = np.sign((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
            inside |= (s * d1 >= 0) & (s * d2 >= 0) & (s * d3 >= 0)
        return inside

    low_ok = covered(gi, gj) & covered(gi + 1, gj) & covered(gi, gj + 1)
    up_ok = covered(gi + 1, gj + 1) & covered(gi, gj + 1) & covered(gi + 1, gj)
    cell = gj * nf + gi
    return np.unique(np.concatenate([2 * cell[low_ok], 2 * cell[up_ok] + 1]))


def two_branch_neighbors(lvl):
    """Oracle: edge neighbours with lower and upper triangles handled apart."""
    n = lvl.n
    e = np.arange(lvl.num_elements, dtype=np.int64)
    ci, cj = (e >> 1) % n, (e >> 1) // n
    nb = np.full((lvl.num_elements, 3), -1, dtype=np.int64)
    nb[:, 0] = e ^ 1
    low = (e & 1) == 0
    # lower: left edge -> upper of cell (ci-1, cj); bottom -> upper of (ci, cj-1)
    li, lj = ci[low] - 1, cj[low]
    ok = li >= 0
    nb[np.flatnonzero(low)[ok], 1] = 2 * (lj[ok] * n + li[ok]) + 1
    bi, bj = ci[low], cj[low] - 1
    ok = bj >= 0
    nb[np.flatnonzero(low)[ok], 2] = 2 * (bj[ok] * n + bi[ok]) + 1
    up = ~low
    # upper: right edge -> lower of (ci+1, cj); top -> lower of (ci, cj+1)
    ri, rj = ci[up] + 1, cj[up]
    ok = ri < n
    nb[np.flatnonzero(up)[ok], 1] = 2 * (rj[ok] * n + ri[ok])
    ti, tj = ci[up], cj[up] + 1
    ok = tj < n
    nb[np.flatnonzero(up)[ok], 2] = 2 * (tj[ok] * n + ti[ok])
    return nb


@pytest.mark.parametrize("L", [1, 2, 3, 4])
def test_element_patch_equals_layer_growth(L):
    mesh = build_hierarchy(L, L + 1, BoundarySpec.all_edges())
    ne = mesh.coarse.num_elements
    rng = np.random.default_rng(L)
    seeds = [[T] for T in range(ne)]
    seeds += [rng.choice(ne, size=rng.integers(2, ne + 1), replace=False) for _ in range(20)]
    for idx in seeds:
        seed = ElementSet(L, idx)
        layers = layer_growth_masks(mesh, seed)
        # k runs to one past saturation; the last oracle layer repeats the one before
        for k, mask in enumerate(layers):
            got = element_patch(mesh, seed, k).indices
            assert np.array_equal(got, np.flatnonzero(mask)), (idx, k)


@pytest.mark.parametrize("levels", [(2, 5), (3, 6), (4, 7)])
@pytest.mark.parametrize("edges", [EDGE_NAMES, ("left", "top")])
def test_scaled_node_patch_equals_scaled_triangles(levels, edges):
    mesh = build_hierarchy(*levels, BoundarySpec.edges(*edges))
    r = mesh.ratio
    for z in range(mesh.coarse.num_nodes):
        for m in range(1, r + 1):
            got = scaled_node_patch(mesh, z, Fraction(m, r)).indices
            assert np.array_equal(got, scaled_triangles_patch(mesh, z, m)), (z, m)


def test_edge_neighbors_equal_two_branch_table():
    for lev in range(1, 9):
        lvl = build_hierarchy(lev, lev + 1, BoundarySpec.all_edges()).coarse
        assert np.array_equal(lvl.edge_neighbors, two_branch_neighbors(lvl)), lev


def shared_edge_pairs(lvl):
    """Oracle: ordered pairs of elements that share two vertices."""
    owner, pairs = {}, set()
    for e, tri in enumerate(lvl.elements.tolist()):
        v = sorted(tri)
        for key in ((v[0], v[1]), (v[0], v[2]), (v[1], v[2])):
            if key in owner:
                pairs |= {(owner[key], e), (e, owner[key])}
            else:
                owner[key] = e
    return pairs


@pytest.mark.parametrize("directed", [False, True])
def test_element_graph_matches_shared_edges(directed):
    lvl = build_hierarchy(2, 4, BoundarySpec.all_edges()).fine
    pairs = shared_edge_pairs(lvl)
    rng = np.random.default_rng(7)
    for _ in range(10):
        sel = rng.random(lvl.num_elements) < 0.6
        values = rng.integers(0, 3, lvl.num_elements).astype(float) if directed else None
        idx, graph = lvl.element_graph(sel, values)
        assert np.array_equal(idx, np.flatnonzero(sel))
        a, b = graph.nonzero()
        got = set(zip(idx[a].tolist(), idx[b].tolist()))
        want = {
            (e, n) for e, n in pairs
            if sel[e] and sel[n] and (values is None or values[n] <= values[e])
        }
        assert got == want
    idx, graph = lvl.element_graph(np.zeros(lvl.num_elements, bool))
    assert len(idx) == 0 and graph.shape == (0, 0)
