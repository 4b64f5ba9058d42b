"""The multiscale pipeline: correctors, right-hand-side correction, solves.

Element correctors live on k-layer patches and are constrained to the
kernel of the chosen quasi-interpolation operator via saddle-point
solves.  Summed per free coarse node they turn the coarse hats into the
multiscale basis; the right-hand-side correction reconstructs the
kernel component of the solution from the same patch problems, so at
saturating patch size the decomposition reproduces the fine reference
solution exactly (up to solver tolerance).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .assembly import (
    BilinearFormContext,
    SaddleSystem,
    assemble_load,
    assemble_stiffness,
    energy_norm,
    solve_spd,
)
from .errors import ParameterError, SolverError
from .interp import InterpOperator
from .mesh import ElementSet, element_patch

INFINITE_K = None  # alias accepted anywhere a patch size is expected


def saturation_k(mesh):
    """Patch size guaranteed to cover the whole coarse mesh from any seed."""
    return 2 * 2**mesh.coarse_level


def _resolve_k(mesh, k):
    if k is INFINITE_K or (isinstance(k, float) and np.isinf(k)):
        return saturation_k(mesh)
    k = int(k)
    if k < 1:
        raise ParameterError(f"patch size k must be >= 1, got {k}")
    return min(k, saturation_k(mesh))


def _patch_free_dofs(ctx: BilinearFormContext, patch: ElementSet):
    """Fine DOFs free on the patch: hats supported inside it, minus Dirichlet.

    A node qualifies iff every fine element incident to it belongs to
    the patch; nodes on the patch boundary that coincide with the
    Neumann part of the domain boundary qualify automatically because
    they have no incident elements outside.
    """
    mesh = ctx.mesh
    fine_els = mesh.fine_elements_of_coarse(patch.indices)
    verts = mesh.fine.elements[fine_els].ravel()
    inside_count = np.bincount(verts, minlength=mesh.fine.num_nodes)
    indptr, _ = mesh.fine.node_to_elements
    total_count = np.diff(indptr)
    free = (inside_count == total_count) & (inside_count > 0)
    free &= ~mesh.constrained_fine_mask
    return np.flatnonzero(free), fine_els


def _element_solve(ctx, op, T, k, verts, load=None, reuse=(None, None)):
    """The patch work of coarse element T in one batched saddle-point solve.

    Builds the saddle system of T's k-layer patch, or takes ``reuse`` =
    (dofs, system) of the previous element when its free DOF set is the
    same.  The corrector right-hand sides of the coarse hats ``verts``
    come from one product with T's element stiffness; the
    element-restricted ``load``, when given, is the last column.
    Returns (dofs, system, U) with one column of U per right-hand side
    (U is None when there are none).
    """
    mesh = ctx.mesh
    patch = element_patch(mesh, ElementSet(mesh.coarse_level, [T]), k)
    dofs, _ = _patch_free_dofs(ctx, patch)
    prev_dofs, system = reuse
    if not np.array_equal(prev_dofs, dofs):
        system = SaddleSystem(ctx.stiffness[dofs][:, dofs], op.matrix[:, dofs])
    columns = []
    if verts:
        K_T = assemble_stiffness(mesh, ctx.coef, region=mesh.fine_elements_of_coarse([T]))
        columns.append((K_T @ mesh.prolongation_matrix[:, verts])[dofs].toarray())
    if load is not None:
        columns.append(load[dofs, None])
    U = system.solve(np.hstack(columns))[0] if columns else None
    return dofs, system, U


def element_corrector(ctx, op, i, T, k=INFINITE_K):
    """Corrector of the coarse hat at node i restricted to element T.

    Solves the patch-local constrained projection: find a kernel
    function on U_k(T) whose weighted-gradient pairing against every
    kernel test function matches the element-restricted pairing of the
    hat.  ``k=None`` saturates the patch (the non-local corrector).
    """
    mesh = ctx.mesh
    if not (0 <= T < mesh.coarse.num_elements):
        raise ParameterError(f"coarse element {T} out of range")
    if i not in mesh.coarse.elements[T]:
        raise ParameterError(f"node {i} is not a vertex of coarse element {T}")
    dofs, _, U = _element_solve(ctx, op, T, _resolve_k(mesh, k), [int(i)])
    out = np.zeros(mesh.fine.num_nodes)
    out[dofs] = U[:, 0]
    return out


def rhs_corrector(ctx, op, T, k, f_spec):
    """Kernel correction of the load restricted to element T (zero without a solve
    when the load vanishes there)."""
    mesh = ctx.mesh
    k = _resolve_k(mesh, k)
    load = assemble_load(mesh, f_spec, region=mesh.fine_elements_of_coarse([T]))
    out = np.zeros(mesh.fine.num_nodes)
    if load.any():
        dofs, _, U = _element_solve(ctx, op, T, k, [], load)
        out[dofs] = U[:, 0]
    return out


@dataclass
class CorrectorSet:
    """Per free coarse node corrector vectors, summed over owning elements."""

    k: int
    kind: str
    free_nodes: np.ndarray
    matrix: sparse.csr_matrix  # (n_free, n_fine); row i holds Q_k phi_i


def compute_correctors(ctx, op, k, f_spec=None, rhs_correction=False):
    """All node correctors (and optionally the summed RHS correction).

    Visits the coarse elements in order.  Each element's patch system
    is factorized once, or reused from the previous element when the
    free DOF set is the same, and one batched solve covers the
    correctors of its (up to three) free vertices and, with
    ``rhs_correction``, its element-restricted load.
    """
    mesh = ctx.mesh
    k = _resolve_k(mesh, k)
    free = op.free_nodes
    row_of = {int(z): idx for idx, z in enumerate(free)}
    n_fine = mesh.fine.num_nodes
    acc_rows, acc_cols, acc_vals = [], [], []
    u_f = np.zeros(n_fine) if rhs_correction else None
    dofs = system = None

    for T in range(mesh.coarse.num_elements):
        verts = [int(v) for v in mesh.coarse.elements[T] if int(v) in row_of]
        if not verts and not rhs_correction:
            continue
        load = None
        if rhs_correction:
            load = assemble_load(mesh, f_spec, region=mesh.fine_elements_of_coarse([T]))
            if not load.any():
                load = None
        dofs, system, U = _element_solve(ctx, op, T, k, verts, load, reuse=(dofs, system))
        for j, v in enumerate(verts):
            acc_rows.append(np.full(len(dofs), row_of[v]))
            acc_cols.append(dofs)
            acc_vals.append(U[:, j].copy())  # a view would keep all of U alive
        if load is not None:
            u_f[dofs] += U[:, -1]

    if acc_rows:
        Q = sparse.csr_matrix(
            (np.concatenate(acc_vals), (np.concatenate(acc_rows), np.concatenate(acc_cols))),
            shape=(len(free), n_fine),
        )
    else:
        Q = sparse.csr_matrix((len(free), n_fine))
    return CorrectorSet(k, op.kind, free, Q), u_f


@dataclass
class LodSolution:
    """Multiscale solution with its coarse coefficients and correction parts."""

    coarse: np.ndarray
    u_ms: np.ndarray
    u_f_k: np.ndarray
    u_total: np.ndarray
    metadata: dict = field(default_factory=dict)


def solve_multiscale(ctx, op, k, f_spec, rhs_correction=True) -> LodSolution:
    """Galerkin solve in the corrected coarse space, plus optional RHS correction."""
    mesh = ctx.mesh
    correctors, u_f = compute_correctors(
        ctx, op, k, f_spec=f_spec, rhs_correction=rhs_correction
    )
    if u_f is None:
        u_f = np.zeros(mesh.fine.num_nodes)
    P_free = mesh.prolongation_matrix[:, op.free_nodes]
    B = (P_free - correctors.matrix.T).tocsr()
    K = ctx.stiffness
    G = (B.T @ (K @ B)).toarray()
    load = assemble_load(mesh, f_spec)
    rhs = B.T @ load - B.T @ (K @ u_f)
    try:
        c = np.linalg.solve(G, rhs)
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular coarse multiscale system: {exc}") from exc
    u_ms = B @ c
    return LodSolution(
        coarse=c,
        u_ms=u_ms,
        u_f_k=u_f,
        u_total=u_ms + u_f,
        metadata={
            "k": correctors.k,
            "operator": op.kind,
            "alpha": ctx.coef.alpha,
            "rhs_correction": bool(rhs_correction),
            "f": f_spec.describe(),
        },
    )


def reference_solution(ctx, f_spec):
    """Fine P1 Galerkin solution with the problem's boundary conditions."""
    load = assemble_load(ctx.mesh, f_spec)
    return solve_spd(ctx.stiffness, load, ctx.constrained_fine)


def relative_energy_error(ctx, u_ref, u):
    """|||u_ref - u||| / |||u_ref|||."""
    denom = ctx.energy_norm(u_ref)
    if denom == 0.0:
        raise ParameterError("reference solution has zero energy")
    return ctx.energy_norm(u_ref - u) / denom


def decay_profile(ctx, corrector, T, k_max):
    """Energy of a corrector outside U_k(T) for k = 0..k_max (non-increasing)."""
    mesh = ctx.mesh
    out = []
    for k in range(k_max + 1):
        patch = element_patch(mesh, ElementSet(mesh.coarse_level, [T]), k)
        outside = np.setdiff1d(
            np.arange(mesh.coarse.num_elements), patch.indices
        )
        if len(outside) == 0:
            out.append((k, 0.0))
            continue
        region = mesh.fine_elements_of_coarse(outside)
        K_out = assemble_stiffness(mesh, ctx.coef, region=region)
        out.append((k, energy_norm(K_out, corrector)))
    return out


def fit_log10_slope(ks, values, floor=0.0):
    """Least-squares slope of log10(values) against k, ignoring entries <= floor."""
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=float)
    keep = values > floor
    if keep.sum() < 2:
        return float("nan")
    k_fit, v_fit = ks[keep], np.log10(values[keep])
    A = np.column_stack([k_fit, np.ones_like(k_fit)])
    slope, _ = np.linalg.lstsq(A, v_fit, rcond=None)[0]
    return float(slope)
