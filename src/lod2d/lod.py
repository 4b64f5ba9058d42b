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

import collections
import functools
import hashlib
import itertools
import os
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sparse

from .assembly import (
    SaddleSystem,
    assemble_load,
    assemble_stiffness,
    solve_spd,
)
from .errors import ParameterError, SolverError
from .interp import InterpOperator
from .mesh import ElementSet, element_patch

# elements per right-hand-side block: one block per whole run of equal systems
# raised the desk sweep's peak RSS by about 15%; blocks of 8 keep it in its spread
_CHUNK = 8


def _worker_count():
    """Workers from LOD_THREADS, for the sweep's cells and for the factorization
    helpers, at most the usable CPU count; unset or 0 means min(4, that count)."""
    raw = os.environ.get("LOD_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = -1
    if n < 0:
        raise ParameterError(f"LOD_THREADS must be a non-negative integer, got {raw!r}")
    usable = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return min(n or 4, usable)


@functools.cache
def _helper_pool(workers):
    """The process-wide pool of ``workers`` factorization helpers, made on first use
    and shared by every ``compute_correctors`` call, so concurrent sweep cells add
    no threads of their own."""
    return ThreadPoolExecutor(workers, thread_name_prefix="lod-helper")


if hasattr(os, "register_at_fork"):  # a forked child has none of its parent's threads
    os.register_at_fork(after_in_child=_helper_pool.cache_clear)


def saturation_k(mesh):
    """Patch size guaranteed to cover the whole coarse mesh from any seed."""
    return 2 * 2**mesh.coarse_level


def _resolve_k(mesh, k):
    if k is None or k == np.inf:
        return saturation_k(mesh)
    if not float(k).is_integer() or k < 1:
        raise ParameterError(f"patch size k must be an integer >= 1, got {k}")
    return min(int(k), saturation_k(mesh))


def _patch_dofs(ctx, T, k):
    """Free fine DOFs (int32, read-only) of the k-layer patch of coarse element T,
    cached on the mesh per (T, k): the non-Dirichlet nodes whose incident fine
    elements all lie in the patch (so Neumann boundary nodes qualify)."""
    mesh = ctx.mesh
    with mesh.patch_lock:
        if (T, k) not in mesh.patch_dofs:
            patch = element_patch(mesh, ElementSet(mesh.coarse_level, [T]), k)
            verts = mesh.fine.elements[mesh.fine_elements_of_coarse(patch.indices)]
            inside = np.bincount(verts.ravel(), minlength=mesh.fine.num_nodes)
            free = (inside == np.diff(mesh.fine.node_to_elements[0])) & (inside > 0)
            free[ctx.constrained_fine] = False
            dofs = mesh.patch_dofs[(T, k)] = np.flatnonzero(free).astype(np.int32)
            dofs.flags.writeable = False
        return mesh.patch_dofs[(T, k)]


def _element_blocks(ctx, elements, f_spec=None):
    """Per coarse element T of ``elements``: T's free fine nodes, their rows of
    K_T @ P for T's three vertices, with K_T T's stiffness on its own nodes, and
    T's load on them (None without ``f_spec``), all from one stacked region with
    T's fine children as a block, so stiffness and load share one numbering."""
    mesh = ctx.mesh
    n_fine = mesh.fine.num_nodes
    regions = [mesh.fine_elements_of_coarse([T]) for T in elements]
    keys, K = assemble_stiffness(mesh, ctx.coef, regions)
    block, nodes = np.divmod(keys, n_fine)
    corners = mesh.coarse.elements[np.asarray(elements)[block]]
    KP = (K @ mesh.prolongation_matrix[nodes[:, None], corners]).toarray()
    free = ~np.isin(nodes, ctx.constrained_fine, kind="table")
    cuts = np.searchsorted(keys[free], np.arange(1, len(regions)) * n_fine)
    nodes, KP = (np.split(a[free], cuts) for a in (nodes, KP))
    loads = [None] * len(regions)
    if f_spec is not None:
        loads = np.split(assemble_load(mesh, f_spec, regions)[1][free], cuts)
    return list(zip(nodes, KP, loads))


def _gather(indptr, dofs):
    """Positions of the stored entries of the compressed slots ``dofs``, and their counts."""
    counts = indptr[dofs + 1] - indptr[dofs]
    starts = np.repeat(indptr[dofs] - np.cumsum(counts) + counts, counts)
    return np.arange(counts.sum()) + starts, counts


def _stiffness_cut(K, dofs):
    """Raw CSR arrays ``(data, indices, indptr, shape)`` of ``K[dofs][:, dofs]``, equal
    dtype for dtype to scipy's slicing: the patch's rows of K, their columns mapped
    through a position map."""
    n = len(dofs)
    pos = np.full(K.shape[1], -1, dtype=np.int32)
    pos[dofs] = np.arange(n, dtype=np.int32)
    take, counts = _gather(K.indptr, dofs)
    cols = pos[K.indices[take]]
    keep = cols >= 0
    indptr = np.concatenate([[0], np.cumsum(keep)])[np.concatenate([[0], np.cumsum(counts)])]
    return K.data[take[keep]], cols[keep], indptr.astype(np.int32), (n, n)


def _constraint_cut(R, dofs):
    """Raw CSR arrays of the rows of ``R[:, dofs]`` with a stored entry, equal dtype for
    dtype to scipy's slicing, from the patch's columns of R in CSC form sorted stably
    back into rows, without scanning all of R."""
    take, counts = _gather(R.indptr, dofs)
    order = np.argsort(R.indices[take], kind="stable")
    take, cols = take[order], np.repeat(np.arange(len(dofs), dtype=np.int32), counts)[order]
    starts = np.flatnonzero(np.diff(R.indices[take], prepend=-1))
    return R.data[take], cols, np.append(starts, len(take)).astype(np.int32), (len(starts), len(dofs))


def _digest(cut):
    """SHA-256 content key of one raw CSR cut: equal keys, equal arrays."""
    data, indices, indptr, shape = cut
    h = hashlib.sha256(f"{shape}{indptr.dtype}{indices.dtype}{data.dtype};".encode())
    for a in (indptr, indices, data):
        h.update(memoryview(a))  # contiguous arrays, hashed without a copy
    return h.digest()


def _system_key(ctx, op, T, k, dofs):
    """Content key of the patch system of (T, k): the digests of its stiffness half,
    cached per (T, k) on the context, and of its constraint half, cached per (T, k)
    on the operator.  The stiffness half depends only on (alpha, T, k) and the
    constraint half only on (operator, T, k), so each is cut and hashed once for
    every operator, or every contrast, that shares it.  Two patches with equal keys
    have equal local stiffness and constraint rows, array for array, and so the
    same factorization."""
    with ctx.mesh.patch_lock:
        K_digest = ctx.stiffness_digests.get((T, k))
        if K_digest is None:
            K_digest = ctx.stiffness_digests[(T, k)] = _digest(_stiffness_cut(ctx.stiffness, dofs))
        C_digest = op.constraint_digests.get((T, k))
        if C_digest is None:
            C_digest = op.constraint_digests[(T, k)] = _digest(_constraint_cut(op.matrix_csc, dofs))
    return K_digest, C_digest


def _saddle_system(ctx, op, dofs):
    """The factorized patch system on ``dofs``, cut from K and R."""
    K, C = _stiffness_cut(ctx.stiffness, dofs), _constraint_cut(op.matrix_csc, dofs)
    return SaddleSystem(*(sparse.csr_matrix(M[:3], shape=M[3]) for M in (K, C)))


def _block_solve(ctx, system, items):
    """Solve the elements ``items`` (rows of the work table) that share ``system``
    as one block B of right-hand sides, and return each element's columns of the
    solution.  Element by element, in order, B holds the columns of T's rows
    ``KP`` of K_T @ P for its hats ``verts``, then its ``load`` column when there
    is one, each in the rows of T's own patch DOFs ``dofs`` that hold T's free
    nodes ``nodes`` (all of them, for k >= 1)."""
    widths = [len(verts) + (load is not None) for _, _, _, verts, _, _, load in items]
    B = np.zeros((system.n, sum(widths)))
    labels = []
    for (_, T, dofs, verts, nodes, KP, load), start in zip(items, np.cumsum(widths) - widths):
        rows = np.searchsorted(dofs, nodes)
        cols = [c for c, v in enumerate(ctx.mesh.coarse.elements[T]) if v in verts]
        B[rows, start : start + len(verts)] = KP[:, cols]
        labels += [f"coarse element {T}, hat {v}" for v in verts]
        if load is not None:
            B[rows, start + len(verts)] = load
            labels.append(f"coarse element {T}, load")
    return np.split(system.solve(B, labels)[0], np.cumsum(widths)[:-1], axis=1)


def element_corrector(ctx, op, i, T, k=None):
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
    dofs = _patch_dofs(ctx, T, _resolve_k(mesh, k))
    system = _saddle_system(ctx, op, dofs)
    nodes, KP, _ = _element_blocks(ctx, [T])[0]
    out = np.zeros(mesh.fine.num_nodes)
    out[dofs] = _block_solve(ctx, system, [(None, T, dofs, [int(i)], nodes, KP, None)])[0][:, 0]
    return out


@dataclass
class CorrectorSet:
    """Per free coarse node corrector vectors, summed over owning elements.

    ``factorizations`` counts the patch systems factorized, ``element_solves``
    the coarse elements solved with them, ``dropped_rows`` the rows they dropped.
    """

    k: int
    matrix: sparse.csr_matrix  # (n_free, n_fine); row i holds Q_k phi_i
    factorizations: int
    element_solves: int
    dropped_rows: int


def compute_correctors(ctx, op, k, f_spec=None):
    """All node correctors, and the summed RHS correction of ``f_spec`` (zero without).

    Pass 1 visits the coarse elements with work (a free vertex, or an
    element load nonzero on a free node), pre-keys each by the digest of
    the stiffness diagonal on its patch DOFs, and keys those whose pre-key
    another shares by the pair of digests of its patch system's stiffness
    and constraint halves (``_system_key``); it does every cache access.
    Pass 2 groups the keyed elements by key, in (key, element) order, then
    takes each other element as a group of its own, in element order, and
    one helper of the ``LOD_THREADS`` helper pool runs each group,
    whatever the worker count: it cuts and factorizes the group's
    ``SaddleSystem``, solves the elements' right-hand sides in blocks of
    ``_CHUNK`` elements (``_block_solve``) into their own slots of Q and
    drops the LU.  The solutions are summed in ascending element order,
    as a one-by-one traversal sums them, so the results depend neither
    on the grouping nor on the helpers.  The call waits on the runs'
    futures until all are done or one has failed; then, and also when
    the caller is interrupted, it cancels every future not yet started,
    waits for the running ones to drop their LUs, and raises the first
    error in submission order.
    """
    pool = _helper_pool(_worker_count())
    mesh = ctx.mesh
    k = _resolve_k(mesh, k)
    free = op.free_nodes
    row_of = {int(z): idx for idx, z in enumerate(free)}
    n_fine = mesh.fine.num_nodes

    diag = ctx.stiffness.diagonal()
    work = []  # (pre-key, T, dofs, free vertices, T's free nodes, K_T @ P rows, load or None)
    for T, (nodes, KP, load) in enumerate(_element_blocks(ctx, range(mesh.coarse.num_elements), f_spec)):
        verts = [int(v) for v in mesh.coarse.elements[T] if int(v) in row_of]
        # a load on Dirichlet nodes only would give an all-zero right-hand side
        if load is not None and not load.any():
            load = None
        if not verts and load is None:
            continue
        dofs = _patch_dofs(ctx, T, k)
        work.append((hashlib.sha256(diag[dofs]).digest(), T, dofs, verts, nodes, KP, load))

    # diag(K)[dofs] is the diagonal of the cut K[dofs][:, dofs], so equal systems have
    # equal pre-keys: an element whose pre-key no other shares has a system of its own
    # and needs no cut here; its group goes after the keyed ones, an order that kept the
    # stripes sweep's peak RSS nearer the parent's than singletons first (README)
    shared = collections.Counter(pre for pre, *_ in work)
    keyed = sorted((_system_key(ctx, op, T, k, dofs), T, idx)
                   for idx, (pre, T, dofs, *_) in enumerate(work) if shared[pre] > 1)
    groups = [[idx for *_, idx in g] for _, g in itertools.groupby(keyed, key=lambda x: x[0])]
    groups += [[idx] for idx, (pre, *_) in enumerate(work) if shared[pre] == 1]

    # Q's entries go in element order, vertex by vertex, into one block
    sizes = [len(verts) * len(dofs) for _, _, dofs, verts, *_ in work]
    offsets = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
    q_rows = np.empty(offsets[-1], dtype=np.int32)
    q_cols = np.empty(offsets[-1], dtype=np.int32)
    q_vals = np.empty(offsets[-1])
    u_parts = {}  # work index -> solution of its load on its dofs

    def run(group):
        """Cut, factorize and solve the system of ``group`` (work indices), write its
        elements' own slots and drop the LU, all on this thread; return the count of
        dropped rows."""
        system = _saddle_system(ctx, op, work[group[0]][2])  # no LU if this raises
        try:
            for start in range(0, len(group), _CHUNK):
                chunk = group[start : start + _CHUNK]
                for idx, U in zip(chunk, _block_solve(ctx, system, [work[i] for i in chunk])):
                    _, _, dofs, verts, _, _, load = work[idx]
                    a, b = offsets[idx], offsets[idx + 1]
                    q_rows[a:b] = np.repeat([row_of[v] for v in verts], len(dofs))
                    q_cols[a:b] = np.tile(dofs, len(verts))
                    q_vals[a:b] = U[:, : len(verts)].T.ravel()
                    if load is not None:
                        u_parts[idx] = U[:, -1].copy()  # a view would keep the whole block alive
            return len(system.dropped_rows)
        finally:
            system.release()  # scipy frees an LU only on the thread that built it

    futures = [pool.submit(run, group) for group in groups]
    try:
        wait(futures, return_when=FIRST_EXCEPTION)  # one wake-up for the whole pass
    finally:
        for f in futures:  # also when the caller is interrupted
            f.cancel()
        wait(futures)  # the running ones drop their own LUs
    # the queue is FIFO, so the runs before a failed one have started, unless a helper
    # had only just taken one off it: skip the cancelled and raise the first error
    dropped_rows = sum(f.result() for f in futures if not f.cancelled())

    Q = sparse.csr_matrix((q_vals, (q_rows, q_cols)), shape=(len(free), n_fine))
    u_f = np.zeros(n_fine)
    for idx in sorted(u_parts):
        u_f[work[idx][2]] += u_parts[idx]
    return CorrectorSet(k, Q, len(groups), len(work), dropped_rows), u_f


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
    correctors, u_f = compute_correctors(ctx, op, k, f_spec if rhs_correction else None)
    P_free = mesh.prolongation_matrix[:, op.free_nodes]
    B = (P_free - correctors.matrix.T).tocsr()
    K = ctx.stiffness
    G = (B.T @ (K @ B)).toarray()
    load = assemble_load(mesh, f_spec)[1]
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
            "dropped_rows": correctors.dropped_rows,
        },
    )


def reference_solution(ctx, f_spec):
    """Fine P1 Galerkin solution with the problem's boundary conditions."""
    load = assemble_load(ctx.mesh, f_spec)[1]
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
