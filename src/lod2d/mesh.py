"""Nested structured triangulations of the unit square.

Every level ``lev`` splits [0,1]^2 into a 2^lev x 2^lev grid of square
cells, each cut along its NW-SE diagonal into two right triangles.  Nodes
are indexed row-major from the bottom-left corner, elements by
(row, column, triangle-within-cell) with triangle 0 the lower-left one.
Refining a cell by bisecting its edges reproduces the same pattern, so
levels are perfectly nested and every coarse node coincides with a fine
node.

Patch geometry uses the lattice distance of this one triangulation
family: node steps (di, dj) are max(|di|, |dj|, |di + dj|) apart
(``_hex_norm``), since the NW-SE diagonals join (i, j) to (i + 1, j - 1).
The node patch of z is the unit hexagon of this distance around z,
clipped to the square; k-layer element patches and delta-scaled node
patches are its balls.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np
import scipy.sparse as sparse

from .errors import ParameterError

EDGE_NAMES = ("left", "right", "bottom", "top")


@dataclass(frozen=True)
class BoundarySpec:
    """Dirichlet part of the boundary as a subset of the four square edges."""

    dirichlet_edges: frozenset

    def __post_init__(self):
        bad = set(self.dirichlet_edges) - set(EDGE_NAMES)
        if bad:
            raise ParameterError(f"unknown boundary edges: {sorted(bad)}")

    @classmethod
    def all_edges(cls):
        return cls(frozenset(EDGE_NAMES))

    @classmethod
    def edges(cls, *names):
        return cls(frozenset(names))

    def node_mask(self, level_points):
        """Boolean mask of constrained nodes for an (N,2) coordinate array."""
        x, y = level_points[:, 0], level_points[:, 1]
        mask = np.zeros(len(level_points), dtype=bool)
        if "left" in self.dirichlet_edges:
            mask |= x == 0.0
        if "right" in self.dirichlet_edges:
            mask |= x == 1.0
        if "bottom" in self.dirichlet_edges:
            mask |= y == 0.0
        if "top" in self.dirichlet_edges:
            mask |= y == 1.0
        return mask


@dataclass(frozen=True)
class ElementSet:
    """Sorted set of element indices tagged with the mesh level they live on."""

    level: int
    indices: np.ndarray

    def __post_init__(self):
        # a fresh copy, which callers passing ascending indices need not sort
        idx = np.array(self.indices, dtype=np.int64).reshape(-1)
        if (idx[1:] <= idx[:-1]).any():
            idx = np.unique(idx)
        object.__setattr__(self, "indices", idx)

    def __len__(self):
        return len(self.indices)

    def mask(self, num_elements):
        m = np.zeros(num_elements, dtype=bool)
        m[self.indices] = True
        return m


class _Level:
    """Node/element arrays and adjacency for one structured level."""

    def __init__(self, level):
        self.level = level
        self.n = 2**level
        self.h = 2.0**-level
        n = self.n
        i, j = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="xy")
        self.points = np.column_stack([i.ravel() * self.h, j.ravel() * self.h])
        self.num_nodes = (n + 1) ** 2
        self.num_elements = 2 * n * n

        ci, cj = np.meshgrid(np.arange(n), np.arange(n), indexing="xy")
        ci, cj = ci.ravel(), cj.ravel()
        sw = cj * (n + 1) + ci
        se = sw + 1
        nw = sw + (n + 1)
        ne = nw + 1
        # vertex order (right-angle corner, x-leg end, y-leg end)
        lower = np.column_stack([sw, se, nw])
        upper = np.column_stack([ne, nw, se])
        elems = np.empty((2 * n * n, 3), dtype=np.int64)
        elems[0::2] = lower
        elems[1::2] = upper
        self.elements = elems

    def node_index(self, i, j):
        return j * (self.n + 1) + i

    def node_ij(self, idx):
        return idx % (self.n + 1), idx // (self.n + 1)

    @cached_property
    def node_to_elements(self):
        """CSR-style (indptr, flat element indices) incidence, built lazily."""
        flat_nodes = self.elements.ravel()
        flat_elems = np.repeat(np.arange(self.num_elements, dtype=np.int64), 3)
        order = np.argsort(flat_nodes, kind="stable")
        counts = np.bincount(flat_nodes, minlength=self.num_nodes)
        indptr = np.concatenate([[0], np.cumsum(counts)])
        return indptr, flat_elems[order]

    def elements_of_node(self, node):
        indptr, data = self.node_to_elements
        return data[indptr[node] : indptr[node + 1]]

    @cached_property
    def edge_neighbors(self):
        """(num_elements, 3) edge-adjacent element indices, -1 where none."""
        n = self.n
        e = np.arange(self.num_elements, dtype=np.int64)
        lower = 1 - (e & 1)
        ci, cj = (e >> 1) % n, (e >> 1) // n
        # a lower triangle meets the upper ones left and below, an upper
        # triangle the lower ones right and above: neighbour 0 shares
        # the diagonal, 1 the vertical leg, 2 the horizontal leg
        step = 1 - 2 * lower
        ni, nj = ci + step, cj + step
        return np.column_stack([
            e ^ 1,
            np.where((ni >= 0) & (ni < n), 2 * (cj * n + ni) + lower, -1),
            np.where((nj >= 0) & (nj < n), 2 * (nj * n + ci) + lower, -1),
        ])

    def element_graph(self, sel, values=None):
        """Edge-adjacency graph of the elements in ``sel``, as ``(idx, graph)``.

        ``idx = np.flatnonzero(sel)``; vertex a of the CSR ``graph`` is element
        ``idx[a]``, with an edge a -> b for each edge neighbour ``idx[b]``.  With
        ``values``, the edge E -> N exists only if values[N] <= values[E].
        """
        idx = np.flatnonzero(sel)
        pos = np.full(self.num_elements + 1, -1, dtype=np.int64)  # pos[-1]: no neighbour
        pos[idx] = np.arange(len(idx))
        nb = self.edge_neighbors[idx]
        dst = pos[nb]
        keep = dst >= 0
        if values is not None:
            keep &= values[nb] <= values[idx, None]
        indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
        graph = sparse.csr_matrix((np.ones(indptr[-1]), dst[keep], indptr), shape=(len(idx),) * 2)
        return idx, graph

    def barycenters(self):
        e = np.arange(self.num_elements, dtype=np.int64)
        t = e & 1
        cell = e >> 1
        ci, cj = cell % self.n, cell // self.n
        off = np.where(t == 0, 1.0 / 3.0, 2.0 / 3.0)
        return np.column_stack([(ci + off) * self.h, (cj + off) * self.h])


def level_ratio(coarse_level, fine_level):
    """H/h of a level pair; requires 1 <= coarse_level < fine_level <= 12."""
    if not (1 <= coarse_level < fine_level <= 12):
        raise ParameterError(
            f"need 1 <= coarse_level < fine_level <= 12, got ({coarse_level}, {fine_level})"
        )
    return 2 ** (fine_level - coarse_level)


def delta_steps(delta, ratio):
    """The integer m with delta = m*h/H; requires 1 <= m <= H/h = ``ratio``."""
    m = Fraction(delta) * ratio
    if m.denominator != 1 or not (1 <= m <= ratio):
        raise ParameterError(
            f"delta={delta} is not representable as m*h/H with 1 <= m <= {ratio}"
        )
    return int(m)


class MeshHierarchy:
    """Coarse/fine pair of nested structured triangulations with patch machinery."""

    def __init__(self, coarse_level, fine_level, boundary):
        self.ratio = level_ratio(coarse_level, fine_level)
        self.coarse_level = coarse_level
        self.fine_level = fine_level
        self.boundary = boundary
        self.coarse = _Level(coarse_level)
        self.fine = _Level(fine_level)
        self.H = self.coarse.h
        self.h = self.fine.h
        # lod's patch DOFs by (T, k); the lock also guards lod's caches on
        # the contexts and operators of this mesh
        self.patch_dofs, self.patch_lock = {}, threading.Lock()

    # -- boundary bookkeeping ------------------------------------------------

    @property
    def constrained_coarse_mask(self):
        return self.boundary.node_mask(self.coarse.points)

    @property
    def constrained_fine_mask(self):
        return self.boundary.node_mask(self.fine.points)

    @property
    def free_coarse_nodes(self):
        return np.flatnonzero(~self.constrained_coarse_mask)

    def coarse_node_to_fine(self, node):
        """Fine index of the coincident fine node."""
        i, j = self.coarse.node_ij(node)
        return self.fine.node_index(i * self.ratio, j * self.ratio)

    # -- coarse <-> fine element maps -----------------------------------------

    @cached_property
    def coarse_parent_of_fine(self):
        """Coarse element index containing each fine element (exact nesting)."""
        r, nc = self.ratio, self.coarse.n
        e = np.arange(self.fine.num_elements, dtype=np.int64)
        t = e & 1
        cell = e >> 1
        fi, fj = cell % self.fine.n, cell // self.fine.n
        ci, cj = fi // r, fj // r
        s = fi % r + fj % r
        pt = np.where(s <= r - 2, 0, np.where(s >= r, 1, t))
        return 2 * (cj * nc + ci) + pt

    @cached_property
    def _children(self):
        """CSR-style (indptr, fine element indices) of each coarse element's children."""
        parent = self.coarse_parent_of_fine
        order = np.argsort(parent, kind="stable")
        counts = np.bincount(parent, minlength=self.coarse.num_elements)
        return np.concatenate([[0], np.cumsum(counts)]), order

    def fine_elements_of_coarse(self, coarse_elements):
        """Fine element indices whose parent is among the given coarse indices."""
        indptr, order = self._children
        parts = [order[indptr[T] : indptr[T + 1]] for T in np.atleast_1d(coarse_elements)]
        return np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)

    def fine_set(self, coarse_set: ElementSet) -> ElementSet:
        if coarse_set.level != self.coarse_level:
            raise ParameterError("expected a coarse-level element set")
        return ElementSet(self.fine_level, self.fine_elements_of_coarse(coarse_set.indices))

    # -- prolongation ----------------------------------------------------------

    @cached_property
    def prolongation_matrix(self):
        """Sparse (fine nodes x coarse nodes) nodal interpolation of coarse hats."""
        P = sparse.identity(self.coarse.num_nodes, format="csr")
        for lev in range(self.coarse_level, self.fine_level):
            P = _refine_once(lev) @ P
        return P.tocsr()


def _refine_once(level):
    """One-level P1 prolongation: every fine node takes 0.5 from each end of the
    coarse edge it halves.  A cell centre halves the NW-SE diagonal, and both ends
    of a coincident node are its own coarse node, so its two halves sum to 1."""
    nc = 2**level
    fi, fj = np.meshgrid(np.arange(2 * nc + 1), np.arange(2 * nc + 1), indexing="xy")
    (ci, pi), (cj, pj) = np.divmod(fi.ravel(), 2), np.divmod(fj.ravel(), 2)
    diag = pi & pj
    ends = np.concatenate([(cj + diag) * (nc + 1) + ci, (cj + pj - diag) * (nc + 1) + ci + pi])
    rows = np.tile(np.arange(len(ci)), 2)
    return sparse.csr_matrix((np.full(len(ends), 0.5), (rows, ends)), shape=(len(ci), (nc + 1) ** 2))


def build_hierarchy(coarse_level, fine_level, boundary) -> MeshHierarchy:
    """Build nested coarse/fine triangulations of the unit square.

    Requires 1 <= coarse_level < fine_level <= 12.  Deterministic.
    """
    return MeshHierarchy(coarse_level, fine_level, boundary)


def _hex_norm(di, dj):
    """Lattice distance of a node step (di, dj): the number of mesh edges walked."""
    return np.maximum(np.maximum(np.abs(di), np.abs(dj)), np.abs(di + dj))


def element_patch(mesh: MeshHierarchy, seed: ElementSet, k) -> ElementSet:
    """k-layer coarse element patch grown by vertex connectivity.

    Each layer adds every coarse element whose closure touches the
    current set.  The elements around a node reach exactly its lattice
    neighbours and the square is convex in the lattice distance, so for
    k >= 1 the patch is every element with a vertex within k - 1 steps
    of a seed vertex (the whole mesh once k is large enough).
    """
    if seed.level != mesh.coarse_level:
        raise ParameterError("patch seed must be a coarse-level element set")
    if len(seed) == 0:
        raise ParameterError("patch seed must be nonempty")
    if k < 0:
        raise ParameterError("patch layers k must be >= 0")
    if k == 0:
        return seed
    lvl = mesh.coarse
    i, j = lvl.node_ij(np.arange(lvl.num_nodes))
    near = np.zeros(lvl.num_nodes, dtype=bool)
    for v in np.unique(lvl.elements[seed.indices]):
        vi, vj = lvl.node_ij(v)
        near |= _hex_norm(i - vi, j - vj) <= k - 1
    return ElementSet(mesh.coarse_level, np.flatnonzero(near[lvl.elements].any(axis=1)))


def node_patch(mesh: MeshHierarchy, z) -> ElementSet:
    """All coarse elements whose closure contains the coarse node z."""
    if not (0 <= z < mesh.coarse.num_nodes):
        raise ParameterError(f"coarse node {z} out of range")
    return ElementSet(mesh.coarse_level, mesh.coarse.elements_of_node(z))


def scaled_node_patch(mesh: MeshHierarchy, z, delta) -> ElementSet:
    """Fine elements filling the delta-scaled node patch centered at z.

    delta must equal m*h/H for an integer 1 <= m <= H/h, so the scaled
    patch is the hexagon of lattice radius m fine steps around z,
    clipped to the square.  It is convex, so a fine element lies inside
    iff its three vertices do; membership is exact integer arithmetic.
    """
    r = mesh.ratio
    m = delta_steps(delta, r)
    if not (0 <= z < mesh.coarse.num_nodes):
        raise ParameterError(f"coarse node {z} out of range")
    zi, zj = (r * c for c in mesh.coarse.node_ij(z))
    nf = mesh.fine.n
    gi, gj = np.meshgrid(np.arange(max(zi - m, 0), min(zi + m, nf)),
                         np.arange(max(zj - m, 0), min(zj + m, nf)), indexing="xy")
    di, dj = gi.ravel() - zi, gj.ravel() - zj

    def inside(*corners):
        return np.logical_and.reduce([_hex_norm(di + a, dj + b) <= m for a, b in corners])

    # lower triangle vertices (i,j),(i+1,j),(i,j+1); upper (i+1,j+1),(i,j+1),(i+1,j)
    cell = (dj + zj) * nf + di + zi
    low = 2 * cell[inside((0, 0), (1, 0), (0, 1))]
    up = 2 * cell[inside((1, 1), (0, 1), (1, 0))] + 1
    return ElementSet(mesh.fine_level, np.concatenate([low, up]))
