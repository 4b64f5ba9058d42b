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

import hashlib
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .assembly import (
    BilinearFormContext,
    SaddleSystem,
    assemble_load,
    assemble_stiffness,
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
    free[ctx.constrained_fine] = False
    return np.flatnonzero(free), fine_els


def _element_dofs(ctx, T, k):
    """Free fine DOFs of the k-layer patch of coarse element T."""
    patch = element_patch(ctx.mesh, ElementSet(ctx.mesh.coarse_level, [T]), k)
    return _patch_free_dofs(ctx, patch)[0]


def _patch_system(ctx, op, dofs):
    """The local inputs of a patch's SaddleSystem on the free DOFs ``dofs``:
    the patch stiffness and the operator rows with a stored entry there."""
    C = op.matrix[:, dofs]
    return ctx.stiffness[dofs][:, dofs], C[np.flatnonzero(np.diff(C.indptr) > 0)]


def _system_digest(K, C):
    """128-bit content key of a patch system's local inputs (K, C).

    Two patches with equal keys have equal local stiffness and
    constraint rows, array for array, and so the same factorization.
    """
    h = hashlib.blake2b(digest_size=16)
    for M in (K, C):
        h.update(f"{M.shape}{M.indptr.dtype}{M.indices.dtype}{M.data.dtype};".encode())
        for a in (M.indptr, M.indices, M.data):
            h.update(memoryview(a))  # contiguous arrays, hashed without a copy
    return h.digest()


def _element_solve(ctx, system, T, dofs, verts, load=None):
    """Solve coarse element T's right-hand sides with its patch system.

    The corrector right-hand sides of the coarse hats ``verts`` come
    from T's element stiffness, assembled on T's own fine nodes and
    scattered into the rows of the patch DOFs ``dofs``; ``load``, the
    element-restricted load on ``dofs``, when given, is the last
    column.  Returns one solution column per right-hand side.
    """
    mesh = ctx.mesh
    columns = []
    if verts:
        nodes, K_T = assemble_stiffness(mesh, ctx.coef, mesh.fine_elements_of_coarse([T]))
        KP = (K_T @ mesh.prolongation_matrix[nodes]).toarray()[:, verts]
        pos = np.minimum(np.searchsorted(dofs, nodes), len(dofs) - 1)
        inside = dofs[pos] == nodes
        block = np.zeros((len(dofs), len(verts)))
        block[pos[inside]] = KP[inside]
        columns.append(block)
    if load is not None:
        columns.append(load[:, None])
    return system.solve(np.hstack(columns))[0]


def _single_element_solve(ctx, op, T, k, verts, load=None):
    """Factorize T's patch system and solve its right-hand sides: (dofs, U)."""
    dofs = _element_dofs(ctx, T, _resolve_k(ctx.mesh, k))
    system = SaddleSystem(*_patch_system(ctx, op, dofs))
    return dofs, _element_solve(ctx, system, T, dofs, verts, None if load is None else load[dofs])


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
    dofs, U = _single_element_solve(ctx, op, T, k, [int(i)])
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
        dofs, U = _single_element_solve(ctx, op, T, k, [], load)
        out[dofs] = U[:, 0]
    return out


@dataclass
class CorrectorSet:
    """Per free coarse node corrector vectors, summed over owning elements.

    ``factorizations`` counts the patch systems factorized and
    ``element_solves`` the coarse elements solved with one of them.
    """

    k: int
    kind: str
    free_nodes: np.ndarray
    matrix: sparse.csr_matrix  # (n_free, n_fine); row i holds Q_k phi_i
    factorizations: int
    element_solves: int


def compute_correctors(ctx, op, k, f_spec=None, rhs_correction=False):
    """All node correctors (and optionally the summed RHS correction).

    Pass 1 visits the coarse elements with work (a free vertex, or a
    nonzero element load with ``rhs_correction``) and keys each by a
    digest of its patch system's local inputs.  Pass 2 visits them
    sorted by (digest, element), factorizes one system per run of equal
    digests and solves each element's right-hand sides with it.  The
    solutions are summed in ascending element order, as a one-by-one
    traversal sums them, so the results do not depend on the grouping.
    """
    mesh = ctx.mesh
    k = _resolve_k(mesh, k)
    free = op.free_nodes
    row_of = {int(z): idx for idx, z in enumerate(free)}
    n_fine = mesh.fine.num_nodes

    work = []  # (digest, T, dofs, free vertices, load on dofs or None)
    for T in range(mesh.coarse.num_elements):
        verts = [int(v) for v in mesh.coarse.elements[T] if int(v) in row_of]
        load = None
        if rhs_correction:
            load = assemble_load(mesh, f_spec, region=mesh.fine_elements_of_coarse([T]))
            load = load if load.any() else None
        if not verts and load is None:
            continue
        dofs = _element_dofs(ctx, T, k)
        digest = _system_digest(*_patch_system(ctx, op, dofs))
        work.append((digest, T, dofs, verts, None if load is None else load[dofs]))

    # Q's entries go in element order, vertex by vertex, into one block
    sizes = [len(verts) * len(dofs) for _, _, dofs, verts, _ in work]
    offsets = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
    q_rows = np.empty(offsets[-1], dtype=np.int32)
    q_cols = np.empty(offsets[-1], dtype=np.int32)
    q_vals = np.empty(offsets[-1])

    factorizations = 0
    system = digest_of_system = None
    for idx in sorted(range(len(work)), key=lambda i: work[i][:2]):
        digest, T, dofs, verts, load = work[idx]
        if digest != digest_of_system:
            system = None  # free the previous factorization before the next one
            system = SaddleSystem(*_patch_system(ctx, op, dofs))
            digest_of_system = digest
            factorizations += 1
        U = _element_solve(ctx, system, T, dofs, verts, load)
        a, b = offsets[idx], offsets[idx + 1]
        q_rows[a:b] = np.repeat([row_of[v] for v in verts], len(dofs))
        q_cols[a:b] = np.tile(dofs, len(verts))
        q_vals[a:b] = U[:, : len(verts)].T.ravel()
        if load is not None:
            load[:] = U[:, -1]  # the load column now holds its solution
    system = None  # free the last factorization before Q is assembled

    Q = sparse.csr_matrix((q_vals, (q_rows, q_cols)), shape=(len(free), n_fine))
    u_f = np.zeros(n_fine) if rhs_correction else None
    for _, _, dofs, _, u in work:
        if u is not None:
            u_f[dofs] += u
    return CorrectorSet(k, op.kind, free, Q, factorizations, len(work)), u_f


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
            "factorizations": correctors.factorizations,
            "element_solves": correctors.element_solves,
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
        nodes, K_out = assemble_stiffness(mesh, ctx.coef, region=region)
        # widened to full length, the dot product sums as over the whole mesh
        Kq = np.zeros(mesh.fine.num_nodes)
        Kq[nodes] = K_out @ corrector[nodes]
        out.append((k, float(np.sqrt(max(corrector @ Kq, 0.0)))))
    return out
