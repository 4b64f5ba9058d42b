"""Nested structured triangulations of the unit square.

Every level ``lev`` splits [0,1]^2 into a 2^lev x 2^lev grid of square
cells, each cut along its NW-SE diagonal into two right triangles.  Nodes
are indexed row-major from the bottom-left corner, elements by
(row, column, triangle-within-cell) with triangle 0 the lower-left one.
Refining a cell by bisecting its edges reproduces the same pattern, so a
levels are perfectly nested and every coarse node coincides with a fine
node.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
        idx = np.unique(np.asarray(self.indices, dtype=np.int64))
        object.__setattr__(self, "indices", idx)

    def __len__(self):
        return len(self.indices)

    def _check_level(self, other):
        if self.level != other.level:
            raise ParameterError(
                f"element sets live on different levels ({self.level} vs {other.level})"
            )

    def union(self, other):
        self._check_level(other)
        return ElementSet(self.level, np.union1d(self.indices, other.indices))

    def intersection(self, other):
        self._check_level(other)
        return ElementSet(self.level, np.intersect1d(self.indices, other.indices))

    def contains(self, other):
        self._check_level(other)
        return np.isin(other.indices, self.indices).all()

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

        self._node_to_elem = None
        self._edge_neighbors = None

    def node_index(self, i, j):
        return j * (self.n + 1) + i

    def node_ij(self, idx):
        return idx % (self.n + 1), idx // (self.n + 1)

    @property
    def node_to_elements(self):
        """CSR-style (indptr, flat element indices) incidence, built lazily."""
        if self._node_to_elem is None:
            flat_nodes = self.elements.ravel()
            flat_elems = np.repeat(np.arange(self.num_elements, dtype=np.int64), 3)
            order = np.argsort(flat_nodes, kind="stable")
            counts = np.bincount(flat_nodes, minlength=self.num_nodes)
            indptr = np.concatenate([[0], np.cumsum(counts)])
            self._node_to_elem = (indptr, flat_elems[order])
        return self._node_to_elem

    def elements_of_node(self, node):
        indptr, data = self.node_to_elements
        return data[indptr[node] : indptr[node + 1]]

    @property
    def edge_neighbors(self):
        """(num_elements, 3) edge-adjacent element indices, -1 where none."""
        if self._edge_neighbors is None:
            n = self.n
            e = np.arange(self.num_elements, dtype=np.int64)
            t = e & 1
            cell = e >> 1
            ci, cj = cell % n, cell // n
            nb = np.full((self.num_elements, 3), -1, dtype=np.int64)
            # diagonal: the other triangle of the same cell
            nb[:, 0] = e ^ 1
            low = t == 0
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
            self._edge_neighbors = nb
        return self._edge_neighbors

    def barycenters(self):
        e = np.arange(self.num_elements, dtype=np.int64)
        t = e & 1
        cell = e >> 1
        ci, cj = cell % self.n, cell // self.n
        off = np.where(t == 0, 1.0 / 3.0, 2.0 / 3.0)
        return np.column_stack([(ci + off) * self.h, (cj + off) * self.h])


class MeshHierarchy:
    """Coarse/fine pair of nested structured triangulations with patch machinery."""

    def __init__(self, coarse_level, fine_level, boundary):
        if not (1 <= coarse_level < fine_level <= 12):
            raise ParameterError(
                f"need 1 <= coarse_level < fine_level <= 12, "
                f"got ({coarse_level}, {fine_level})"
            )
        self.coarse_level = coarse_level
        self.fine_level = fine_level
        self.boundary = boundary
        self.coarse = _Level(coarse_level)
        self.fine = _Level(fine_level)
        self.ratio = 2 ** (fine_level - coarse_level)
        self.H = self.coarse.h
        self.h = self.fine.h
        self._prolongation = None
        self._coarse_parent = None
        self._children = None

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

    @property
    def free_fine_nodes(self):
        return np.flatnonzero(~self.constrained_fine_mask)

    def coarse_node_to_fine(self, node):
        """Fine index of the coincident fine node."""
        i, j = self.coarse.node_ij(node)
        return self.fine.node_index(i * self.ratio, j * self.ratio)

    # -- coarse <-> fine element maps -----------------------------------------

    @property
    def coarse_parent_of_fine(self):
        """Coarse element index containing each fine element (exact nesting)."""
        if self._coarse_parent is None:
            r, nc = self.ratio, self.coarse.n
            e = np.arange(self.fine.num_elements, dtype=np.int64)
            t = e & 1
            cell = e >> 1
            fi, fj = cell % self.fine.n, cell // self.fine.n
            ci, cj = fi // r, fj // r
            s = fi % r + fj % r
            pt = np.where(s <= r - 2, 0, np.where(s >= r, 1, t))
            self._coarse_parent = 2 * (cj * nc + ci) + pt
        return self._coarse_parent

    def fine_elements_of_coarse(self, coarse_elements):
        """Fine element indices whose parent is among the given coarse indices."""
        if self._children is None:
            parent = self.coarse_parent_of_fine
            order = np.argsort(parent, kind="stable")
            counts = np.bincount(parent, minlength=self.coarse.num_elements)
            indptr = np.concatenate([[0], np.cumsum(counts)])
            self._children = (indptr, order)
        indptr, order = self._children
        parts = [order[indptr[T] : indptr[T + 1]] for T in np.atleast_1d(coarse_elements)]
        return np.sort(np.concatenate(parts)) if parts else np.empty(0, dtype=np.int64)

    def fine_set(self, coarse_set: ElementSet) -> ElementSet:
        if coarse_set.level != self.coarse_level:
            raise ParameterError("expected a coarse-level element set")
        return ElementSet(self.fine_level, self.fine_elements_of_coarse(coarse_set.indices))

    # -- prolongation ----------------------------------------------------------

    @property
    def prolongation_matrix(self):
        """Sparse (fine nodes x coarse nodes) nodal interpolation of coarse hats."""
        if self._prolongation is None:
            P = sparse.identity(self.coarse.num_nodes, format="csr")
            for lev in range(self.coarse_level, self.fine_level):
                P = _refine_once(lev) @ P
            self._prolongation = P.tocsr()
        return self._prolongation


def _refine_once(level):
    """One-level P1 prolongation: copy at coincident nodes, average at edge midpoints."""
    nc = 2**level
    nf = 2 * nc
    rows, cols, vals = [], [], []

    def cnode(i, j):
        return j * (nc + 1) + i

    fi, fj = np.meshgrid(np.arange(nf + 1), np.arange(nf + 1), indexing="xy")
    fi, fj = fi.ravel(), fj.ravel()
    fidx = fj * (nf + 1) + fi
    even = (fi % 2 == 0) & (fj % 2 == 0)
    rows.append(fidx[even])
    cols.append(cnode(fi[even] // 2, fj[even] // 2))
    vals.append(np.ones(even.sum()))

    hmid = (fi % 2 == 1) & (fj % 2 == 0)  # horizontal coarse edge
    for di in (0, 1):
        rows.append(fidx[hmid])
        cols.append(cnode((fi[hmid] - 1) // 2 + di, fj[hmid] // 2))
        vals.append(np.full(hmid.sum(), 0.5))

    vmid = (fi % 2 == 0) & (fj % 2 == 1)  # vertical coarse edge
    for dj in (0, 1):
        rows.append(fidx[vmid])
        cols.append(cnode(fi[vmid] // 2, (fj[vmid] - 1) // 2 + dj))
        vals.append(np.full(vmid.sum(), 0.5))

    cmid = (fi % 2 == 1) & (fj % 2 == 1)  # cell center = NW-SE diagonal midpoint
    ci, cj = (fi[cmid] - 1) // 2, (fj[cmid] - 1) // 2
    for di, dj in ((0, 1), (1, 0)):
        rows.append(fidx[cmid])
        cols.append(cnode(ci + di, cj + dj))
        vals.append(np.full(cmid.sum(), 0.5))

    data = np.concatenate(vals)
    rc = (np.concatenate(rows), np.concatenate(cols))
    return sparse.csr_matrix((data, rc), shape=((nf + 1) ** 2, (nc + 1) ** 2))


def build_hierarchy(coarse_level, fine_level, boundary) -> MeshHierarchy:
    """Build nested coarse/fine triangulations of the unit square.

    Requires 1 <= coarse_level < fine_level <= 12.  Deterministic.
    """
    return MeshHierarchy(coarse_level, fine_level, boundary)


def element_patch(mesh: MeshHierarchy, seed: ElementSet, k) -> ElementSet:
    """k-layer coarse element patch grown by vertex connectivity.

    Layer by layer, adds every coarse element whose closure touches the
    current set; saturates once the whole mesh is covered.
    """
    if seed.level != mesh.coarse_level:
        raise ParameterError("patch seed must be a coarse-level element set")
    if len(seed) == 0:
        raise ParameterError("patch seed must be nonempty")
    if k < 0:
        raise ParameterError("patch layers k must be >= 0")
    lvl = mesh.coarse
    mask = seed.mask(lvl.num_elements)
    indptr, elem_of_node = lvl.node_to_elements
    for _ in range(k):
        if mask.all():
            break
        nodes = np.unique(lvl.elements[mask].ravel())
        touching = np.unique(
            np.concatenate([elem_of_node[indptr[v] : indptr[v + 1]] for v in nodes])
        )
        new = mask.copy()
        new[touching] = True
        if (new == mask).all():
            break
        mask = new
    return ElementSet(mesh.coarse_level, np.flatnonzero(mask))


def node_patch(mesh: MeshHierarchy, z) -> ElementSet:
    """All coarse elements whose closure contains the coarse node z."""
    if not (0 <= z < mesh.coarse.num_nodes):
        raise ParameterError(f"coarse node {z} out of range")
    return ElementSet(mesh.coarse_level, mesh.coarse.elements_of_node(z))


def scaled_node_patch(mesh: MeshHierarchy, z, delta) -> ElementSet:
    """Fine elements filling the delta-scaled node patch centered at z.

    delta must equal m*h/H for an integer 1 <= m <= H/h so the scaled
    polygon has vertices on the fine lattice; membership is then decided
    exactly in integer arithmetic (a fine element lies inside iff all
    three of its vertices do, the patch being convex).
    """
    r = mesh.ratio
    m = Fraction(delta) * r
    if m.denominator != 1 or not (1 <= m <= r):
        raise ParameterError(
            f"delta={delta} is not representable as m*h/H with 1 <= m <= {r}"
        )
    m = int(m)
    patch = node_patch(mesh, z)
    zi, zj = mesh.coarse.node_ij(z)
    zf = np.array([zi * r, zj * r], dtype=np.int64)

    # scaled coarse triangles, vertices on the fine integer lattice
    tris = []
    for T in patch.indices:
        verts = mesh.coarse.elements[T]
        vi = np.array([mesh.coarse.node_ij(v) for v in verts], dtype=np.int64) * r
        tris.append(zf + (m * (vi - zf)) // r)

    lo = np.min([t.min(axis=0) for t in tris], axis=0)
    hi = np.max([t.max(axis=0) for t in tris], axis=0)
    nf = mesh.fine.n
    ci = np.arange(max(lo[0], 0), min(hi[0], nf))
    cj = np.arange(max(lo[1], 0), min(hi[1], nf))
    if len(ci) == 0 or len(cj) == 0:
        return ElementSet(mesh.fine_level, np.empty(0, dtype=np.int64))
    gi, gj = np.meshgrid(ci, cj, indexing="xy")
    gi, gj = gi.ravel(), gj.ravel()

    def covered(px, py):
        inside = np.zeros(px.shape, dtype=bool)
        for t in tris:
            a, b, c = t
            d1 = (b[0] - a[0]) * (py - a[1]) - (b[1] - a[1]) * (px - a[0])
            d2 = (c[0] - b[0]) * (py - b[1]) - (c[1] - b[1]) * (px - b[0])
            d3 = (a[0] - c[0]) * (py - c[1]) - (a[1] - c[1]) * (px - c[0])
            s = np.sign(
                (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            )
            inside |= (s * d1 >= 0) & (s * d2 >= 0) & (s * d3 >= 0)
        return inside

    elems = []
    # lower triangle vertices (i,j),(i+1,j),(i,j+1); upper (i+1,j+1),(i,j+1),(i+1,j)
    low_ok = (
        covered(gi, gj) & covered(gi + 1, gj) & covered(gi, gj + 1)
    )
    up_ok = (
        covered(gi + 1, gj + 1) & covered(gi, gj + 1) & covered(gi + 1, gj)
    )
    cell = gj * nf + gi
    elems.append(2 * cell[low_ok])
    elems.append(2 * cell[up_ok] + 1)
    return ElementSet(mesh.fine_level, np.concatenate(elems))


def prolongation(mesh: MeshHierarchy):
    """Sparse map from coarse nodal values to fine nodal values (exact on S_H)."""
    return mesh.prolongation_matrix
