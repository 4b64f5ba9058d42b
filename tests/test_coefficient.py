import math

import numpy as np
import pytest

from lod2d.coefficient import (
    Coefficient,
    _balls_from_draws,
    connected_components,
    gen_random_balls,
    gen_random_field,
    gen_stripes,
    load_pgm,
    save_pgm,
)
from lod2d.errors import ParameterError
from lod2d.mesh import BoundarySpec, build_hierarchy


@pytest.fixture(scope="module")
def mesh47():
    return build_hierarchy(4, 7, BoundarySpec.all_edges())


@pytest.fixture(scope="module")
def mesh36():
    return build_hierarchy(3, 6, BoundarySpec.all_edges())


def independent_edge_adjacency(mesh):
    """Oracle adjacency from shared sorted vertex pairs, not mesh.edge_neighbors."""
    edge_owner = {}
    pairs = []
    for e in range(mesh.fine.num_elements):
        v = sorted(mesh.fine.elements[e])
        for a, b in [(v[0], v[1]), (v[0], v[2]), (v[1], v[2])]:
            key = (a, b)
            if key in edge_owner:
                pairs.append((edge_owner[key], e))
            else:
                edge_owner[key] = e
    return pairs


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def test_stripes_nominal_area_and_components():
    m = build_hierarchy(4, 8, BoundarySpec.all_edges())
    coef = gen_stripes(m, 0.01)
    area = coef.is_one.sum() * m.h**2 / 2
    assert area == pytest.approx(15.0 / 128.0, rel=0, abs=0)
    assert connected_components(m, coef, True).count == 15


def test_stripes_desk_scale_width(mesh47):
    # below the nominal resolution each stripe degrades to the two
    # fine-element rows around its center line
    coef = gen_stripes(mesh47, 0.01)
    area = coef.is_one.sum() * mesh47.h**2 / 2
    assert area == pytest.approx(15 * 2 * mesh47.h, rel=0, abs=0)
    assert connected_components(mesh47, coef, True).count == 15


def test_stripes_rejects_too_coarse():
    m = build_hierarchy(3, 5, BoundarySpec.all_edges())
    with pytest.raises(ParameterError):
        gen_stripes(m, 0.01)


def test_stripes_node_rows_fully_flagged(mesh47):
    coef = gen_stripes(mesh47, 0.01)
    r = mesh47.ratio
    for j in range(1, 16):
        for i in range(0, 17):
            z = mesh47.coarse.node_index(i, j)
            fz = mesh47.coarse_node_to_fine(z)
            incident = mesh47.fine.elements_of_node(fz)
            assert coef.is_one[incident].all()


def test_alpha_one_collapses_values(mesh36):
    coef = gen_stripes(mesh36, 1.0)
    assert (coef.values() == 1.0).all()
    assert coef.is_one.sum() > 0  # geometry still recorded


def test_values_is_one_read_only_array(mesh36):
    coef = gen_random_balls(mesh36, 0.01, 7)
    first = coef.values()
    assert coef.values() is first
    assert not first.flags.writeable
    assert np.array_equal(first, np.where(coef.is_one, 1.0, coef.alpha))
    with pytest.raises(ValueError):
        first[0] = 2.0


def test_alpha_validation(mesh36):
    with pytest.raises(ParameterError):
        Coefficient(0.0, np.zeros(mesh36.fine.num_elements, bool))
    with pytest.raises(ParameterError):
        Coefficient(1.5, np.zeros(mesh36.fine.num_elements, bool))


def test_balls_determinism(mesh36):
    a = gen_random_balls(mesh36, 0.01, 42)
    b = gen_random_balls(mesh36, 0.01, 42)
    assert np.array_equal(a.is_one, b.is_one)
    c = gen_random_balls(mesh36, 0.01, 43)
    assert not np.array_equal(a.is_one, c.is_one)


def test_balls_all_skipped(mesh36):
    coef = _balls_from_draws(
        mesh36, 0.01, np.zeros(289, bool), np.full(289, 4.0 / 128.0)
    )
    assert coef.is_one.sum() == 0
    assert connected_components(mesh36, coef, True).count == 0


def test_single_ball_area_and_connectivity(mesh47):
    keep = np.zeros(289, bool)
    keep[8 * 17 + 8] = True  # node (1/2, 1/2)
    radius = np.full(289, 8.0 / 128.0)
    coef = _balls_from_draws(mesh47, 0.01, keep, radius)
    area = coef.is_one.sum() * mesh47.h**2 / 2
    disc = math.pi * (8.0 / 128.0) ** 2
    assert abs(area - disc) <= 2 * mesh47.h * 2 * math.pi * (8.0 / 128.0)
    assert connected_components(mesh47, coef, True).count == 1


def test_field_fraction_and_determinism(mesh36):
    for frac in (0.3, 0.5):
        coef = gen_random_field(mesh36, 0.01, 7, smoothing_passes=0, one_fraction=frac)
        n_cells = mesh36.fine.n ** 2
        flagged_cells = coef.is_one[0::2].sum()
        assert abs(flagged_cells - frac * n_cells) <= 1
        # both triangles share the cell flag
        assert np.array_equal(coef.is_one[0::2], coef.is_one[1::2])
    again = gen_random_field(mesh36, 0.01, 7, smoothing_passes=0, one_fraction=0.5)
    assert np.array_equal(
        again.is_one,
        gen_random_field(mesh36, 0.01, 7, smoothing_passes=0, one_fraction=0.5).is_one,
    )


@pytest.mark.parametrize(
    "generate",
    [gen_stripes, lambda mesh, alpha: gen_random_balls(mesh, alpha, 4),
     lambda mesh, alpha: gen_random_field(mesh, alpha, 1)],
    ids=["stripes", "balls", "field"],
)
def test_is_one_independent_of_alpha(mesh36, generate):
    """Every generator fixes its geometry before alpha: the sweep builds the
    operators that read only is_one once for all contrasts."""
    base = generate(mesh36, 1.0).is_one
    for alpha in (1e-1, 1e-3, 1e-5):
        assert np.array_equal(generate(mesh36, alpha).is_one, base)


def test_field_degenerate_fraction(mesh36):
    assert gen_random_field(mesh36, 0.01, 3, one_fraction=0.0).is_one.sum() == 0


def test_field_smoothing_increases_agreement(mesh36):
    def agreement(coef):
        nb = mesh36.fine.edge_neighbors
        ok = nb >= 0
        f = coef.is_one
        mine = np.repeat(f, 3).reshape(-1, 3)
        return (mine[ok] == f[np.maximum(nb, 0)][ok]).mean()

    rough = gen_random_field(mesh36, 0.01, 11, smoothing_passes=0)
    smooth = gen_random_field(mesh36, 0.01, 11, smoothing_passes=8)
    assert agreement(smooth) > agreement(rough)


def test_components_against_union_find(mesh36):
    for seed in (0, 1):
        coef = gen_random_balls(mesh36, 0.01, seed)
        for flag in (True, False):
            labeling = connected_components(mesh36, coef, flag)
            sel = coef.is_one == flag
            uf = UnionFind(mesh36.fine.num_elements)
            for a, b in independent_edge_adjacency(mesh36):
                if sel[a] and sel[b]:
                    uf.union(a, b)
            roots = {uf.find(e) for e in np.flatnonzero(sel)}
            assert labeling.count == len(roots)
            # label partition matches union-find partition
            idx = np.flatnonzero(sel)
            for e in idx[:: max(1, len(idx) // 50)]:
                same = labeling.labels == labeling.labels[e]
                root = uf.find(e)
                members = np.array([uf.find(x) == root for x in idx])
                assert np.array_equal(np.flatnonzero(same), idx[members])


def test_pgm_round_trip(tmp_path, mesh36):
    for coef in (
        gen_stripes(mesh36, 0.01),
        gen_random_field(mesh36, 0.25, 5),
    ):
        path = tmp_path / "coef.pgm"
        save_pgm(mesh36, coef, path)
        back = load_pgm(mesh36, path, coef.alpha)
        assert np.array_equal(back.is_one, coef.is_one)
        assert back.alpha == coef.alpha


def test_pgm_all_black(tmp_path, mesh36):
    coef = Coefficient(0.5, np.ones(mesh36.fine.num_elements, bool))
    path = tmp_path / "black.pgm"
    save_pgm(mesh36, coef, path)
    raster = path.read_bytes().split(b"255\n", 1)[1]
    assert set(raster) == {0}
    back = load_pgm(mesh36, path, 0.5)
    assert back.is_one.all()


def test_pgm_dimension_mismatch(tmp_path, mesh36):
    other = build_hierarchy(3, 5, BoundarySpec.all_edges())
    coef = gen_random_field(other, 0.5, 1)
    path = tmp_path / "small.pgm"
    save_pgm(other, coef, path)
    with pytest.raises(ParameterError):
        load_pgm(mesh36, path, 0.5)


@pytest.mark.parametrize(
    "data",
    [b"P5\n64", b"P5\n64 sixty-four\n255\n" + b"\x00" * 4096, b"", None],
    ids=["truncated-header", "non-numeric-header", "empty", "missing-file"],
)
def test_pgm_malformed_header(tmp_path, mesh36, data):
    path = tmp_path / "bad.pgm"
    if data is not None:
        path.write_bytes(data)
    with pytest.raises(ParameterError):
        load_pgm(mesh36, path, 0.5)


def test_pgm_malformed(tmp_path, mesh36):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n4 4\n255\n" + b"\x00" * 16)
    with pytest.raises(ParameterError):
        load_pgm(mesh36, path, 0.5)
    path.write_bytes(b"P5\n64 64\n255\n" + b"\x00" * 10)  # truncated
    with pytest.raises(ParameterError):
        load_pgm(mesh36, path, 0.5)
