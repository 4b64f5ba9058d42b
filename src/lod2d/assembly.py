"""P1 finite element assembly on the fine mesh and the linear solvers.

All element integrals use the closed-form P1 formulas for right
triangles with axis-aligned legs, so there is no quadrature error
anywhere: products of linears are integrated exactly.  Every assembler,
loads included, returns the ascending fine nodes a region touches and the
matrix or vector in that local numbering, so no patch, integration domain
or element costs an array the size of the fine mesh.  The numbering is
monotone, so the values are a whole-mesh numbering's, entry for entry.
A list of regions is assembled as one stacked region, its blocks uncoupled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .errors import ParameterError, SolverError
from .mesh import BoundarySpec, MeshHierarchy, _hex_norm

# local matrices for vertex order (right-angle corner, leg end, leg end)
STIFFNESS_LOCAL = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
MASS_LOCAL_UNIT_AREA = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0

SPD_RTOL = 1e-10
SADDLE_RTOL = 1e-9


def _region(mesh: MeshHierarchy, region):
    """(elems, nodes, verts): the region's fine elements (all by default), the
    ascending fine nodes they touch, and the elements' vertices in that numbering.
    A list of element arrays is a stacked region, block b's node n keyed b * n_fine + n."""
    if region is None:
        nodes = np.arange(mesh.fine.num_nodes, dtype=np.int64)
        return np.arange(mesh.fine.num_elements, dtype=np.int64), nodes, mesh.fine.elements
    stacked = isinstance(region, list) and len(region) > 0 and np.ndim(region[0]) == 1
    blocks = region if stacked else [region]
    elems = np.concatenate(blocks).astype(np.int64)
    block = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
    keys = block[:, None] * mesh.fine.num_nodes + mesh.fine.elements[elems]
    nodes, verts = np.unique(keys, return_inverse=True)
    return elems, nodes, verts.reshape(-1, 3)


def _assemble(mesh: MeshHierarchy, region, weight, local, factor):
    """Sum weight(e) * factor * local over the region's fine elements.

    Returns (nodes, matrix): the region's nodes and the CSR matrix in
    their local numbering.
    """
    elems, nodes, verts = _region(mesh, region)
    scale = (np.ones(len(elems)) if weight is None else weight.values()[elems]) * factor
    rows = np.repeat(verts, 3, axis=1).ravel()
    cols = np.tile(verts, (1, 3)).ravel()
    vals = (scale[:, None, None] * local[None, :, :]).ravel()
    return nodes, sparse.csr_matrix((vals, (rows, cols)), shape=(len(nodes), len(nodes)))


def assemble_stiffness(mesh: MeshHierarchy, coef=None, region=None):
    """A-weighted stiffness over the region (whole mesh by default): (nodes, K)."""
    return _assemble(mesh, region, coef, STIFFNESS_LOCAL, 1.0)


def assemble_mass(mesh: MeshHierarchy, region=None, weight=None):
    """(Optionally coefficient-weighted) mass matrix over the region: (nodes, M)."""
    return _assemble(mesh, region, weight, MASS_LOCAL_UNIT_AREA, mesh.h**2 / 2.0)


@dataclass(frozen=True)
class LoadSpec:
    """Right-hand side: a constant, a lattice-aligned box indicator, or a fine hat."""

    kind: str
    value: float = 1.0
    rect: tuple = ()
    point: tuple = ()

    @classmethod
    def constant(cls, value=1.0):
        return cls("const", value=_finite("constant load", value)[0])

    @classmethod
    def rectangle(cls, x0, x1, y0, y1):
        rect = _finite("rectangle coordinates", x0, x1, y0, y1)
        if not (x0 < x1 and y0 < y1):
            raise ParameterError("rectangle must have positive extent")
        return cls("rect", rect=rect)

    @classmethod
    def hat(cls, x, y):
        return cls("hat", point=_finite("hat point coordinates", x, y))

    def lattice(self, n):
        """The rectangle's corners (i0, i1, j0, j1) or the hat's point (i, j) in
        steps of h = 1/n; off that lattice, or a hat outside the unit square,
        is a ParameterError."""
        scaled = np.array(self.rect + self.point) * n
        snapped = np.round(scaled)
        if not (np.abs(scaled - snapped) <= 1e-9).all():
            raise ParameterError(f"load {self.describe()} is not on the fine lattice (h = 1/{n})")
        coords = tuple(int(c) for c in snapped)
        if self.kind == "hat" and not all(0 <= c <= n for c in coords):
            raise ParameterError(f"hat point {self.point} outside the unit square")
        return coords

    def validate(self, n, dirichlet=()):
        """A ParameterError when the load vanishes on the unit square, is off the
        fine lattice h = 1/n, or is a hat whose support nodes (its point and the
        point's hexagon neighbours in the square) all lie on the Dirichlet edges
        named in ``dirichlet``, where it would vanish on every free node."""
        x0, x1, y0, y1 = self.rect or (0.0, 1.0, 0.0, 1.0)
        if self.value == 0.0 or not (max(x0, 0.0) < min(x1, 1.0) and max(y0, 0.0) < min(y1, 1.0)):
            raise ParameterError(f"load {self.describe()} vanishes on the unit square")
        if self.kind == "rect":
            self.lattice(n)
        elif self.kind == "hat":
            i, j = self.lattice(n)
            support = np.array([(i + di, j + dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)
                                if _hex_norm(di, dj) <= 1 and 0 <= i + di <= n and 0 <= j + dj <= n])
            if BoundarySpec.edges(*dirichlet).node_mask(support / n).all():
                raise ParameterError(f"load {self.describe()} lies on Dirichlet nodes only")

    def describe(self):
        if self.kind == "const":
            return f"const:{self.value:g}"
        if self.kind == "rect":
            return "rect:" + ",".join(f"{v:g}" for v in self.rect)
        return "hat:" + ",".join(f"{v:g}" for v in self.point)


def _finite(what, *values):
    values = tuple(float(v) for v in values)
    if not np.isfinite(values).all():
        raise ParameterError(f"{what} must be finite, got {values}")
    return values


def assemble_load(mesh: MeshHierarchy, f_spec: LoadSpec, region=None):
    """Exact load over the region (whole mesh by default): (nodes, load).

    Each kind fills a table of its integrals against every element's
    three vertex hats; one bincount sums the table onto the nodes.
    """
    n = mesh.fine.n
    area = mesh.h**2 / 2.0
    elems, nodes, verts = _region(mesh, region)
    if f_spec.kind == "const":
        table = np.full(verts.shape, f_spec.value * area / 3.0)
    elif f_spec.kind == "rect":
        i0, i1, j0, j1 = f_spec.lattice(n)
        ci, cj = (elems >> 1) % n, (elems >> 1) // n
        table = np.zeros(verts.shape)
        table[(ci >= i0) & (ci < i1) & (cj >= j0) & (cj < j1)] = area / 3.0
    elif f_spec.kind == "hat":
        i, j = f_spec.lattice(n)
        at_node = mesh.fine.elements[elems] == mesh.fine.node_index(i, j)
        table = np.where(at_node, 2.0, 1.0) * (area / 12.0)
        table[~at_node.any(axis=1)] = 0.0
    else:
        raise ParameterError(f"unknown load kind {f_spec.kind!r}")
    return nodes, np.bincount(verts.ravel(), weights=table.ravel(), minlength=len(nodes))


def energy_norm(K, v):
    """sqrt(v^T K v), clamped at zero against roundoff."""
    return float(np.sqrt(max(v @ (K @ v), 0.0)))


def solve_spd(K, b, constrained_dofs=()):
    """Direct solve of K x = b with the constrained DOFs eliminated (set to 0)."""
    n = K.shape[0]
    constrained = np.asarray(constrained_dofs, dtype=np.int64)
    free = np.setdiff1d(np.arange(n), constrained)
    Kf = K.tocsr()[free][:, free].tocsc()
    bf = np.asarray(b)[free]
    x = np.zeros(n)
    if len(free) == 0:
        return x
    try:
        xf = spla.splu(Kf).solve(bf)
    except RuntimeError as exc:
        raise SolverError(f"sparse factorization failed: {exc}") from exc
    resid = np.linalg.norm(Kf @ xf - bf)
    scale = np.linalg.norm(bf)
    if scale > 0 and resid > SPD_RTOL * scale:
        raise SolverError(
            f"SPD solve residual {resid:.3e} exceeds {SPD_RTOL:.1e} * ||b|| = "
            f"{SPD_RTOL * scale:.3e} (n = {len(free)})"
        )
    x[free] = xf
    return x


def _row_normalized(C):
    """CSR C with unit-norm rows, and the row norms (zero rows keep norm 1).

    Each entry is scaled by one multiplication with the reciprocal norm,
    as the product diag(1 / norms) @ C computes it, and entries that
    come out zero are dropped, as that product drops them.
    """
    norms = np.sqrt(np.asarray(C.multiply(C).sum(axis=1)).ravel())
    norms[norms == 0.0] = 1.0
    scale = np.repeat(1.0 / norms, np.diff(C.indptr))
    Cn = sparse.csr_matrix((C.data * scale, C.indices, C.indptr), shape=C.shape)
    Cn.eliminate_zeros()
    return Cn, norms


def _kkt_matrix(K, C):
    """CSC of the block matrix [[K, C^T], [C, 0]], as ``sparse.bmat`` stores it.

    Column j < n holds K's column j over C's column j (row indices
    shifted by n); column n + i holds row i of C.  Explicit zeros stay
    stored, so for K and C in canonical form SuperLU sees the matrix
    bmat would build, entry for entry.
    """
    n, m = K.shape[0], C.shape[0]
    Kc, Cc, Cr = K.tocsc(), C.tocsc(), C.tocsr()
    nk, nc = Kc.nnz, Cc.nnz
    # each K entry moves down by the C entries of the columns before its own,
    # each C entry by the K entries up to and including its own column
    kpos = np.arange(nk) + np.repeat(Cc.indptr[:-1], np.diff(Kc.indptr))
    cpos = np.arange(nc) + np.repeat(Kc.indptr[1:], np.diff(Cc.indptr))
    indices = np.empty(nk + 2 * nc, dtype=np.int32)
    data = np.empty(nk + 2 * nc)
    indices[kpos], data[kpos] = Kc.indices, Kc.data
    indices[cpos], data[cpos] = Cc.indices + n, Cc.data
    indices[nk + nc :], data[nk + nc :] = Cr.indices, Cr.data
    indptr = np.concatenate([Kc.indptr + Cc.indptr, nk + nc + Cr.indptr[1:]])
    return sparse.csc_matrix((data, indices, indptr), shape=(n + m, n + m))


def independent_constraint_rows(C):
    """Indices of a maximal independent row subset of C, whose rows have unit norm.

    The rank comes from the eigenvalues of the Gram matrix of the rows;
    only a rank-deficient C pays for the pivoted QR that picks the rows.
    """
    m = C.shape[0]
    if m == 0:
        return np.arange(0)
    S = (C @ C.T).toarray()
    eig = np.linalg.eigvalsh(S)
    rank = int((eig > m * np.finfo(float).eps * max(eig[-1], 1.0)).sum())
    if rank == m:
        return np.arange(m)
    from scipy.linalg import qr as dense_qr

    _, _, piv = dense_qr(C.toarray().T, mode="economic", pivoting=True)
    return np.sort(piv[:rank])


class SaddleSystem:
    """Factorized KKT system K u + C^T lam = b, C u = 0, solved for many b.

    A maximal independent subset of the rows of C is kept
    (``dropped_rows`` names the others, zero rows among them); redundant
    rows leave the constrained minimizer unchanged.  The kept rows are
    equilibrated to unit norm, and the symmetric indefinite KKT block
    matrix ``kkt`` is built and factorized with a sparse LU.  scipy frees
    an LU's memory only on the thread that built it, so the thread that
    constructs a system must also ``release`` it.
    """

    def __init__(self, K, C):
        self.n, self.num_rows = K.shape[0], C.shape[0]
        # normalizing a row does not depend on the other rows, so the kept
        # rows of the normalized C are the normalized kept rows
        C, self.norms = _row_normalized(C.tocsr())
        self.rows = independent_constraint_rows(C)
        self.dropped_rows = np.setdiff1d(np.arange(self.num_rows), self.rows)
        if len(self.rows) < self.num_rows:
            C, self.norms = C[self.rows], self.norms[self.rows]
        self.m = len(self.rows)
        self.kkt = _kkt_matrix(K, C)
        try:
            self.lu = spla.splu(self.kkt)
        except RuntimeError as exc:
            raise SolverError(f"KKT factorization failed: {exc}") from exc

    def release(self):
        """Drop the LU; call it on the thread that constructed the system."""
        self.lu = None

    def solve(self, B, labels=None):
        """Solutions U and multipliers for a block B of right-hand sides (n, nrhs).

        Each column must meet K u + C^T lam = b and C u = 0 to within
        SADDLE_RTOL * (||b|| + 1); the error for a miss gives the first
        failing column's residuals, named by ``labels[j]`` when given.
        Multipliers come back for every row of C in its original scaling,
        zero for dropped rows.
        """
        sol = np.vstack([B, np.zeros((self.m, B.shape[1]))])
        # SuperLU rounds a block of four or more columns differently from
        # its one-column path.  A block of at most three gives every column
        # the bits of a one-column solve, at one call per block: a measured
        # property of the SuperLU and OpenBLAS builds in use, which
        # test_block_solves_equal_column_solves guards.
        for j in range(0, sol.shape[1], 3):
            sol[:, j : j + 3] = self.lu.solve(sol[:, j : j + 3])  # solve copies its input
        R = self.kkt @ sol
        R[: self.n] -= B
        r1 = np.linalg.norm(R[: self.n], axis=0)
        r2 = np.linalg.norm(R[self.n :], axis=0)
        scale = np.linalg.norm(B, axis=0) + 1.0
        bad = np.flatnonzero(np.maximum(r1, r2) > SADDLE_RTOL * scale)
        if len(bad):
            j = bad[0]
            where = f"{labels[j]}: " if labels else ""
            raise SolverError(
                f"{where}saddle solve residuals ({r1[j]:.3e}, {r2[j]:.3e}) exceed "
                f"{SADDLE_RTOL:.1e} * (||b|| + 1) = {SADDLE_RTOL * scale[j]:.3e}"
            )
        lam_full = np.zeros((self.num_rows, B.shape[1]))
        lam_full[self.rows] = sol[self.n :] / self.norms[:, None]
        return sol[: self.n], lam_full


class BilinearFormContext:
    """Mesh + coefficient bundle with the cached fine stiffness."""

    def __init__(self, mesh: MeshHierarchy, coef):
        self.mesh = mesh
        self.coef = coef
        self.stiffness = assemble_stiffness(mesh, coef)[1]
        self.constrained_fine = np.flatnonzero(mesh.constrained_fine_mask)
        self.stiffness_digests = {}  # lod's patch stiffness digests by (T, k), under mesh.patch_lock

    def energy_norm(self, v):
        return energy_norm(self.stiffness, v)
