"""P1 finite element assembly on the fine mesh and the linear solvers.

All element integrals use the closed-form P1 formulas for right
triangles with axis-aligned legs, so there is no quadrature error
anywhere: products of linears are integrated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as spla

from .errors import ConstraintDegeneracyError, ParameterError, SolverError
from .mesh import ElementSet, MeshHierarchy

# local matrices for vertex order (right-angle corner, leg end, leg end)
STIFFNESS_LOCAL = 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]])
MASS_LOCAL_UNIT_AREA = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0

SPD_RTOL = 1e-10
SADDLE_RTOL = 1e-9


def _region_indices(mesh: MeshHierarchy, region):
    if region is None:
        return np.arange(mesh.fine.num_elements, dtype=np.int64)
    if isinstance(region, ElementSet):
        if region.level != mesh.fine_level:
            raise ParameterError("assembly region must be a fine-level element set")
        return region.indices
    return np.asarray(region, dtype=np.int64)


def _scatter(mesh, elems, local, scale):
    """Sum scale[e] * local over the given elements into a sparse matrix."""
    verts = mesh.fine.elements[elems]
    n = mesh.fine.num_nodes
    rows = np.repeat(verts, 3, axis=1).ravel()
    cols = np.tile(verts, (1, 3)).ravel()
    vals = (scale[:, None, None] * local[None, :, :]).ravel()
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def assemble_stiffness(mesh: MeshHierarchy, coef=None, region=None):
    """A-weighted stiffness over the region (whole mesh by default)."""
    elems = _region_indices(mesh, region)
    a = np.ones(len(elems)) if coef is None else coef.values()[elems]
    return _scatter(mesh, elems, STIFFNESS_LOCAL, a)


def assemble_mass(mesh: MeshHierarchy, region=None, weight=None):
    """(Optionally coefficient-weighted) mass matrix over the region."""
    elems = _region_indices(mesh, region)
    area = mesh.h**2 / 2.0
    w = np.full(len(elems), area) if weight is None else weight.values()[elems] * area
    return _scatter(mesh, elems, MASS_LOCAL_UNIT_AREA, w)


def assemble_mixed_mass(mesh: MeshHierarchy, region, coarse_support=None, weight=None):
    """Coarse-hat x fine-hat mass over a fine element set.

    Exact because coarse hats lie in the fine space: the returned matrix
    is P^T M_h restricted to the requested coarse rows.
    """
    M = assemble_mass(mesh, region=region, weight=weight)
    rows = mesh.prolongation_matrix.T @ M
    if coarse_support is not None:
        rows = rows[np.asarray(coarse_support, dtype=np.int64)]
    return rows.tocsr()


@dataclass(frozen=True)
class LoadSpec:
    """Right-hand side: a constant, a lattice-aligned box indicator, or a fine hat."""

    kind: str
    value: float = 1.0
    rect: tuple = ()
    point: tuple = ()

    @classmethod
    def constant(cls, value=1.0):
        return cls("const", value=float(value))

    @classmethod
    def rectangle(cls, x0, x1, y0, y1):
        if not (x0 < x1 and y0 < y1):
            raise ParameterError("rectangle must have positive extent")
        return cls("rect", rect=(float(x0), float(x1), float(y0), float(y1)))

    @classmethod
    def hat(cls, x, y):
        return cls("hat", point=(float(x), float(y)))

    def describe(self):
        if self.kind == "const":
            return f"const:{self.value:g}"
        if self.kind == "rect":
            return "rect:" + ",".join(f"{v:g}" for v in self.rect)
        return "hat:" + ",".join(f"{v:g}" for v in self.point)


def _lattice_coord(value, n, what):
    scaled = value * n
    snapped = round(scaled)
    if abs(scaled - snapped) > 1e-9:
        raise ParameterError(f"{what} = {value} is not on the fine lattice (h = 1/{n})")
    return int(snapped)


def assemble_load(mesh: MeshHierarchy, f_spec: LoadSpec, region=None):
    """Exact load vector for the supported right-hand sides.

    With ``region`` given, integrates only over those fine elements
    (used for element-restricted correction problems).
    """
    n = mesh.fine.n
    area = mesh.h**2 / 2.0
    elems = _region_indices(mesh, region)
    load = np.zeros(mesh.fine.num_nodes)

    if f_spec.kind == "const":
        np.add.at(load, mesh.fine.elements[elems].ravel(),
                  np.full(3 * len(elems), f_spec.value * area / 3.0))
        return load

    if f_spec.kind == "rect":
        x0, x1, y0, y1 = f_spec.rect
        i0 = _lattice_coord(x0, n, "rectangle x0")
        i1 = _lattice_coord(x1, n, "rectangle x1")
        j0 = _lattice_coord(y0, n, "rectangle y0")
        j1 = _lattice_coord(y1, n, "rectangle y1")
        cell = elems >> 1
        ci, cj = cell % n, cell // n
        inside = (ci >= i0) & (ci < i1) & (cj >= j0) & (cj < j1)
        sel = elems[inside]
        np.add.at(load, mesh.fine.elements[sel].ravel(),
                  np.full(3 * len(sel), area / 3.0))
        return load

    if f_spec.kind == "hat":
        x, y = f_spec.point
        i = _lattice_coord(x, n, "hat point x")
        j = _lattice_coord(y, n, "hat point y")
        if not (0 <= i <= n and 0 <= j <= n):
            raise ParameterError(f"hat point {f_spec.point} outside the unit square")
        node = mesh.fine.node_index(i, j)
        incident = np.intersect1d(mesh.fine.elements_of_node(node), elems)
        for e in incident:
            verts = mesh.fine.elements[e]
            local = np.where(verts == node, 2.0, 1.0) * (area / 12.0)
            np.add.at(load, verts, local)
        return load

    raise ParameterError(f"unknown load kind {f_spec.kind!r}")


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
    """C with unit-norm rows, and the row norms (zero rows keep norm 1)."""
    norms = np.sqrt(np.asarray(C.multiply(C).sum(axis=1)).ravel())
    norms[norms == 0.0] = 1.0
    return sparse.diags(1.0 / norms) @ C, norms


def independent_constraint_rows(C):
    """Indices of a maximal independent row subset of C.

    The rank comes from the eigenvalues of the Gram matrix of the
    normalized rows; only a rank-deficient C pays for the pivoted QR
    that picks the rows.
    """
    m = C.shape[0]
    if m == 0:
        return np.arange(0)
    Cn, _ = _row_normalized(C.tocsr())
    S = (Cn @ Cn.T).toarray()
    eig = np.linalg.eigvalsh(S)
    rank = int((eig > m * np.finfo(float).eps * max(eig[-1], 1.0)).sum())
    if rank == m:
        return np.arange(m)
    from scipy.linalg import qr as dense_qr

    _, _, piv = dense_qr(Cn.toarray().T, mode="economic", pivoting=True)
    return np.sort(piv[:rank])


class SaddleSystem:
    """Factorized KKT system K u + C^T lam = b, C u = 0, solved for many b.

    Zero rows of C are pruned and a maximal independent subset of the
    rest is kept (``dropped_rows`` names the others); redundant rows
    leave the constrained minimizer unchanged.  The kept rows are
    equilibrated to unit norm and the symmetric indefinite KKT block
    matrix is factorized once with a sparse LU.
    """

    def __init__(self, K, C):
        self.K = K.tocsr()
        self.n = self.K.shape[0]
        C = sparse.csr_matrix((0, self.n)) if C is None else C.tocsr()
        self.num_rows = C.shape[0]
        nonzero = np.flatnonzero(np.diff(C.indptr) > 0)
        kept = independent_constraint_rows(C[nonzero])
        self.rows = nonzero[kept]
        self.dropped_rows = np.setdiff1d(nonzero, self.rows)
        self.C, self.norms = _row_normalized(C[self.rows])
        self.m = len(self.rows)
        kkt = sparse.bmat([[self.K, self.C.T], [self.C, None]], format="csc")
        try:
            self.lu = spla.splu(kkt)
        except RuntimeError as exc:
            raise SolverError(f"KKT factorization failed: {exc}") from exc

    def solve(self, B):
        """Solutions U and multipliers for a block B of right-hand sides (n, nrhs).

        Each column must meet K u + C^T lam = b and C u = 0 to within
        SADDLE_RTOL * (||b|| + 1).  Multipliers come back for every row
        of C in its original scaling, zero for pruned and dropped rows.
        """
        rhs = np.vstack([B, np.zeros((self.m, B.shape[1]))])
        # SuperLU solves a block of four or more columns through BLAS-3
        # kernels that round differently from its one-column path; going
        # column by column keeps every result equal to a single solve's.
        sol = np.column_stack([self.lu.solve(col) for col in rhs.T])
        U, lam = sol[: self.n], sol[self.n :]
        r1 = np.linalg.norm(self.K @ U + self.C.T @ lam - B, axis=0)
        r2 = np.linalg.norm(self.C @ U, axis=0)
        scale = np.linalg.norm(B, axis=0) + 1.0
        bad = np.flatnonzero(np.maximum(r1, r2) > SADDLE_RTOL * scale)
        if len(bad):
            j = bad[0]
            raise SolverError(
                f"saddle solve residuals ({r1[j]:.3e}, {r2[j]:.3e}) exceed "
                f"{SADDLE_RTOL:.1e} * (||b|| + 1) = {SADDLE_RTOL * scale[j]:.3e}"
            )
        lam_full = np.zeros((self.num_rows, B.shape[1]))
        lam_full[self.rows] = lam / self.norms[:, None]
        return U, lam_full


def solve_saddle(K, C, b):
    """Solve the KKT system K u + C^T lam = b, C u = 0 for one right-hand side.

    Zero constraint rows are pruned and their multipliers come back as
    zero.  Linearly dependent rows raise ConstraintDegeneracyError
    naming the rows a maximal independent subset leaves out.
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


class BilinearFormContext:
    """Mesh + coefficient bundle with the cached fine stiffness."""

    def __init__(self, mesh: MeshHierarchy, coef):
        self.mesh = mesh
        self.coef = coef
        self.stiffness = assemble_stiffness(mesh, coef)
        self.constrained_fine = np.flatnonzero(mesh.constrained_fine_mask)

    def energy_norm(self, v):
        return energy_norm(self.stiffness, v)
