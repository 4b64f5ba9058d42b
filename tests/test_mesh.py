import numpy as np
import pytest
from fractions import Fraction

from lod2d.errors import ParameterError
from lod2d.mesh import (
    BoundarySpec,
    ElementSet,
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
            assert cur.contains(prev)
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
    assert np.array_equal(a.union(b).indices, [1, 2, 3, 4])
    assert np.array_equal(a.intersection(b).indices, [3])
    assert a.contains(ElementSet(3, [2]))
    assert not a.contains(b)
    with pytest.raises(ParameterError):
        a.union(ElementSet(4, [1]))


def test_boundary_spec_masks():
    m = build_hierarchy(2, 3, BoundarySpec.edges("top"))
    mask = m.constrained_coarse_mask
    pts = m.coarse.points
    assert (pts[mask][:, 1] == 1.0).all()
    assert mask.sum() == m.coarse.n + 1
    with pytest.raises(ParameterError):
        BoundarySpec.edges("north")
