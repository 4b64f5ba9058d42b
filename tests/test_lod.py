import dataclasses
import itertools
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import lod2d.assembly as assembly
import lod2d.lod as lod
from lod2d.assembly import BilinearFormContext, LoadSpec, SaddleSystem, assemble_load, assemble_stiffness
from lod2d.coefficient import Coefficient, gen_random_balls, gen_random_field, gen_stripes
from lod2d.errors import ParameterError, SolverError
from lod2d.interp import OPERATOR_KINDS, build_operator, coverage_report
from lod2d.lod import (
    compute_correctors,
    decay_profile,
    element_corrector,
    reference_solution,
    relative_energy_error,
    saturation_k,
    solve_multiscale,
)
from lod2d.mesh import BoundarySpec, ElementSet, build_hierarchy, element_patch


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


def patch_free_dofs(ctx, patch):
    """Fine DOFs free on the patch, and the patch's fine elements: the
    reference for the DOFs that lod caches on the mesh.

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


def element_rhs(ctx, T):
    """T's free fine nodes, the mask picking them from T's own nodes, and the rows
    K_T @ P of them for T's three vertices, with K_T T's stiffness on its own
    nodes: the one-element-at-a-time reference for ``lod._element_blocks``."""
    mesh = ctx.mesh
    nodes, K_T = assemble_stiffness(mesh, ctx.coef, mesh.fine_elements_of_coarse([T]))
    KP = (K_T @ mesh.prolongation_matrix[nodes]).toarray()[:, mesh.coarse.elements[T]]
    free = ~np.isin(nodes, ctx.constrained_fine, kind="table")
    return nodes[free], free, KP[free]


POISSON_SQUARE_PEAK = 0.0736713512666705  # -lap u = 1, zero boundary, u(1/2,1/2)


@pytest.fixture(scope="module")
def small():
    mesh = build_hierarchy(2, 5, BoundarySpec.all_edges())
    coef = gen_random_balls(mesh, 0.05, 4)
    ctx = BilinearFormContext(mesh, coef)
    op = build_operator("IH", mesh, coef)
    return mesh, coef, ctx, op


def kernel_project(R, v, constrained_mask):
    free = np.flatnonzero(~constrained_mask)
    Rf = R[:, free].toarray()
    vf = v[free]
    lam = np.linalg.lstsq(Rf @ Rf.T, Rf @ vf, rcond=None)[0]
    w = np.zeros_like(v)
    w[free] = vf - Rf.T @ lam
    return w


def test_ideal_corrector_identity(small):
    mesh, coef, ctx, op = small
    rng = np.random.default_rng(0)
    i = int(op.free_nodes[3])
    q = np.zeros(mesh.fine.num_nodes)
    for T in range(mesh.coarse.num_elements):
        if i in mesh.coarse.elements[T]:
            q += element_corrector(ctx, op, i, T, k=None)
    phi = mesh.prolongation_matrix[:, i].toarray().ravel()
    K = ctx.stiffness
    scale = np.linalg.norm(K @ phi)
    for _ in range(20):
        w = kernel_project(op.matrix, rng.standard_normal(mesh.fine.num_nodes),
                           mesh.constrained_fine_mask)
        resid = abs((q - phi) @ (K @ w)) / (scale * np.linalg.norm(w) + 1e-300)
        assert resid <= 1e-9


def test_corrector_of_constant_vanishes(small):
    mesh, coef, ctx, op = small
    # the three vertex hats of an interior element sum to 1 on it
    T = 2 * (1 * mesh.coarse.n + 1)
    acc = np.zeros(mesh.fine.num_nodes)
    for v in mesh.coarse.elements[T]:
        acc += element_corrector(ctx, op, int(v), T, k=2)
    assert np.abs(acc).max() < 1e-12


def test_corrector_support_and_kernel_membership(small):
    mesh, coef, ctx, op = small
    i = int(op.free_nodes[0])
    k = 1
    for T in range(mesh.coarse.num_elements):
        if i not in mesh.coarse.elements[T]:
            continue
        q = element_corrector(ctx, op, i, T, k=k)
        patch = element_patch(mesh, ElementSet(mesh.coarse_level, [T]), k)
        outside = np.setdiff1d(np.arange(mesh.coarse.num_elements), patch.indices)
        if len(outside):
            nodes_outside_only = np.setdiff1d(
                np.unique(mesh.fine.elements[mesh.fine_elements_of_coarse(outside)]),
                np.unique(mesh.fine.elements[mesh.fine_elements_of_coarse(patch.indices)]),
            )
            assert np.abs(q[nodes_outside_only]).max() == 0.0
        assert np.abs(op.matrix @ q).max() <= 1e-9 * (np.linalg.norm(q) + 1e-300)


def test_element_corrector_validation(small):
    mesh, coef, ctx, op = small
    with pytest.raises(ParameterError):
        element_corrector(ctx, op, 0, mesh.coarse.num_elements + 5, k=1)
    with pytest.raises(ParameterError):
        element_corrector(ctx, op, int(op.free_nodes[0]), 0, k=0)


class CountingLU:
    """A SuperLU factorization that appends the column count of every solve
    call to ``columns``."""

    def __init__(self, lu, columns):
        self.lu, self.columns = lu, columns

    def solve(self, rhs):
        self.columns.append(rhs.shape[1] if rhs.ndim == 2 else 1)
        return self.lu.solve(rhs)


def test_element_load_solves_only_where_there_is_work(small, monkeypatch):
    """With a small rect load, an element with free vertices but no load solves
    one column per free vertex, one with load gets one more, and an element
    with neither is never solved; element_solves counts the solved ones.  The
    elements of a system go in blocks of at most lod._CHUNK, and a block of g
    columns costs ceil(g / 3) SuperLU calls of at most three columns each."""
    mesh, coef, ctx, op = small
    monkeypatch.setenv("LOD_THREADS", "1")  # the spies count the calls of one thread
    solved, blocks, lu_columns = [], [], []
    splu, block_solve = assembly.spla.splu, lod._block_solve

    def recording(ctx, system, items):
        before = len(lu_columns)
        Us = block_solve(ctx, system, items)
        blocks.append((len(items), sum(U.shape[1] for U in Us), lu_columns[before:]))
        solved.extend((item[1], len(item[3]), U.shape[1]) for item, U in zip(items, Us))
        return Us

    monkeypatch.setattr(assembly.spla, "splu", lambda *a, **kw: CountingLU(splu(*a, **kw), lu_columns))
    monkeypatch.setattr(lod, "_block_solve", recording)
    f = LoadSpec.rectangle(0.25, 0.5, 0.25, 0.5)
    correctors, u_f = compute_correctors(ctx, op, 2, f)
    elements = set(range(mesh.coarse.num_elements))
    loaded = {T for T in elements
              if assemble_load(mesh, f, mesh.fine_elements_of_coarse([T]))[1].any()}
    has_verts = {T for T in elements if np.isin(mesh.coarse.elements[T], op.free_nodes).any()}
    assert loaded and has_verts - loaded and elements - loaded - has_verts
    assert sorted(T for T, _, _ in solved) == sorted(loaded | has_verts)
    for T, n_verts, n_cols in solved:
        assert n_cols == n_verts + (T in loaded)
    assert correctors.element_solves == len(solved)
    assert np.abs(u_f).max() > 0.0
    assert max(n for n, _, _ in blocks) > 1
    for n_elements, g, calls in blocks:
        assert 1 <= n_elements <= lod._CHUNK
        assert len(calls) == -(-g // 3) and max(calls) <= 3 and sum(calls) == g
    solved.clear()
    correctors, u_f = compute_correctors(ctx, op, 2)
    assert sorted(T for T, _, _ in solved) == sorted(has_verts)
    assert all(n_cols == n_verts for _, n_verts, n_cols in solved)
    assert correctors.element_solves == len(has_verts) and not u_f.any()


@pytest.mark.parametrize("coefficient", ["stripes", "balls", "field"])
def test_block_solves_equal_column_solves(monkeypatch, coefficient):
    """On real patch systems and right-hand sides (IH, SZ and AprojQM at k = 1-3,
    with a load), every SaddleSystem.solve of a multi-column block gives U and
    the multipliers bit for bit as its columns solved one by one as 1-D
    right-hand sides.  SuperLU's blocks of at most three columns do so with the
    SuperLU and BLAS builds in use, not by any promise of theirs; a build that
    breaks it must fail here, since the corrector pass's results rest on it."""
    levels = (3, 6) if coefficient == "stripes" else (2, 5)
    mesh = build_hierarchy(*levels, BoundarySpec.all_edges())
    coef = {"stripes": lambda: gen_stripes(mesh, 1e-3),
            "balls": lambda: gen_random_balls(mesh, 1e-3, 2),
            "field": lambda: gen_random_field(mesh, 1e-3, 1)}[coefficient]()
    ctx = BilinearFormContext(mesh, coef)
    f = LoadSpec.rectangle(0.25, 0.75, 0.25, 0.5)
    monkeypatch.setenv("LOD_THREADS", "1")
    widths, solve = [], SaddleSystem.solve

    def checked(self, B, labels=None):
        U, lam = solve(self, B, labels)
        rhs = np.vstack([B, np.zeros((self.m, B.shape[1]))])
        columns = np.column_stack([self.lu.solve(col) for col in rhs.T])
        lam_ref = np.zeros_like(lam)
        lam_ref[self.rows] = columns[self.n :] / self.norms[:, None]
        assert np.array_equal(U, columns[: self.n]) and np.array_equal(lam, lam_ref)
        widths.append(B.shape[1])
        return U, lam

    monkeypatch.setattr(SaddleSystem, "solve", checked)
    for kind in ("IH", "SZ", "AprojQM"):
        op = build_operator(kind, mesh, coef)
        for k in (1, 2, 3):
            compute_correctors(ctx, op, k, f_spec=f)
    assert max(widths) > 3 * 3  # blocks of several elements, each in several calls


@pytest.fixture(scope="module")
def stripes_l3():
    mesh = build_hierarchy(3, 6, BoundarySpec.all_edges())
    coef = gen_stripes(mesh, 1e-3)
    return mesh, coef, BilinearFormContext(mesh, coef)


def test_point_reflection_and_load_scaling(stripes_l3):
    """Metamorphic checks on stripes, which the point reflection
    (x, y) -> (1 - x, 1 - y) maps onto themselves along with the mesh and
    its NW-SE diagonals.  Reflecting the load reflects every solution; node
    (i, j) goes to (n - i, n - j), which reverses the node numbering.  The
    solution is also linear in the load."""
    mesh, coef, ctx = stripes_l3
    left = LoadSpec.rectangle(0.0, 0.5, 0.25, 0.75)
    right = LoadSpec.rectangle(0.5, 1.0, 0.25, 0.75)
    one, three = LoadSpec.constant(1.0), LoadSpec.constant(3.0)

    def close(a, b):
        return np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(b)

    assert close(reference_solution(ctx, right)[::-1], reference_solution(ctx, left))
    assert close(reference_solution(ctx, three), 3 * reference_solution(ctx, one))
    for kind in OPERATOR_KINDS:
        op = build_operator(kind, mesh, coef)
        for k in (1, 2):
            mirrored = solve_multiscale(ctx, op, k, right).u_total[::-1]
            assert close(mirrored, solve_multiscale(ctx, op, k, left).u_total), (kind, k)
        tripled = solve_multiscale(ctx, op, 1, three).u_total
        assert close(tripled, 3 * solve_multiscale(ctx, op, 1, one).u_total), kind


def one_group_per_element(monkeypatch):
    """Key every patch system by its own element, as a pair of bytes like a real
    key, so that no two elements share a factorization."""
    monkeypatch.setattr(lod, "_system_key", lambda ctx, op, T, k, dofs: (T.to_bytes(4, "big"), b""))


@pytest.mark.parametrize("kind,k", [("IH", 1), ("IH", 2), ("SZ", 1), ("SZ", 2)])
def test_grouped_factorizations_bit_identical(stripes_l3, monkeypatch, kind, k):
    """Sharing one factorization among patches with equal local systems
    changes no bit of the correctors or of the RHS correction."""
    mesh, coef, ctx = stripes_l3
    op = build_operator(kind, mesh, coef)
    f = LoadSpec.rectangle(0.25, 0.75, 0.25, 0.75)
    grouped, u_grouped = compute_correctors(ctx, op, k, f_spec=f)
    assert grouped.factorizations < grouped.element_solves

    one_group_per_element(monkeypatch)
    single, u_single = compute_correctors(ctx, op, k, f_spec=f)
    assert single.factorizations == single.element_solves == grouped.element_solves
    for attr in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(grouped.matrix, attr), getattr(single.matrix, attr))
    assert np.array_equal(u_grouped, u_single)


def test_factorization_counters(small, stripes_l3):
    mesh, coef, ctx = stripes_l3
    op = build_operator("IH", mesh, coef)
    f = LoadSpec.constant(1.0)
    correctors, _ = compute_correctors(ctx, op, 1, f_spec=f)
    # the constant load puts work on every element
    assert correctors.element_solves == mesh.coarse.num_elements
    keys = {lod._system_key(ctx, op, T, 1, lod._patch_dofs(ctx, T, 1)) for T in range(mesh.coarse.num_elements)}
    assert correctors.factorizations == len(keys) < mesh.coarse.num_elements

    _, _, ctx_balls, op_balls = small
    sol = solve_multiscale(ctx_balls, op_balls, 1, f)
    assert sol.metadata["factorizations"] == sol.metadata["element_solves"] > 0


def scipy_patch_cut(ctx, op, dofs):
    """The patch system inputs as scipy's slicing cuts them: the reference for
    the raw cuts."""
    C = op.matrix[:, dofs]
    return ctx.stiffness[dofs][:, dofs], C[np.flatnonzero(np.diff(C.indptr) > 0)]


@pytest.mark.parametrize("coefficient", ["stripes", "field"])
def test_raw_patch_cuts_equal_scipy_slicing(coefficient):
    mesh = build_hierarchy(3, 6, BoundarySpec.all_edges())
    coef = gen_stripes(mesh, 1e-3) if coefficient == "stripes" else gen_random_field(mesh, 1e-3, 1)
    ctx = BilinearFormContext(mesh, coef)
    elements = range(0, mesh.coarse.num_elements, 5)
    for kind in OPERATOR_KINDS:
        op = build_operator(kind, mesh, coef)
        # SaddleSystem gets no zero row: R stores no zero, and a cut keeps only
        # the rows that hold a stored entry
        assert (op.matrix.data != 0.0).all(), kind
        for k, T in itertools.product((1, 2, 3, saturation_k(mesh)), elements):
            patch = element_patch(mesh, ElementSet(mesh.coarse_level, [T]), k)
            dofs = patch_free_dofs(ctx, patch)[0]
            cached = lod._patch_dofs(ctx, T, k)
            assert np.array_equal(cached, dofs)
            cuts = lod._stiffness_cut(ctx.stiffness, cached), lod._constraint_cut(op.matrix_csc, cached)
            assert (np.diff(cuts[1][2]) > 0).all(), (kind, k, T)
            for raw, ref in zip(cuts, scipy_patch_cut(ctx, op, dofs)):
                assert raw[3] == ref.shape, (kind, k, T)
                for a, b in zip(raw[:3], (ref.data, ref.indices, ref.indptr)):
                    assert a.dtype == b.dtype and np.array_equal(a, b), (kind, k, T)


def test_shared_caches_match_fresh_objects():
    """Correctors on one mesh, its contexts and operators, shared by two
    alphas and two operators, equal those of fresh objects bit for bit."""
    f = LoadSpec.rectangle(0.25, 0.75, 0.25, 0.75)

    def fresh(alpha, kind):
        mesh = build_hierarchy(3, 6, BoundarySpec.all_edges())
        coef = gen_stripes(mesh, alpha)
        return BilinearFormContext(mesh, coef), build_operator(kind, mesh, coef)

    shared = build_hierarchy(3, 6, BoundarySpec.all_edges())
    contexts = {a: BilinearFormContext(shared, gen_stripes(shared, a)) for a in (1e-1, 1e-3)}
    for alpha, kind in itertools.product((1e-1, 1e-3), ("IH", "SZ")):
        ctx = contexts[alpha]
        op = build_operator(kind, shared, ctx.coef)
        for k in (1, 2):
            got, u_f = compute_correctors(ctx, op, k, f_spec=f)
            ref, u_ref = compute_correctors(*fresh(alpha, kind), k, f_spec=f)
            for attr in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got.matrix, attr), getattr(ref.matrix, attr))
            assert np.array_equal(u_f, u_ref)
    cached = list(shared.patch_dofs.values())
    cached += [getattr(op.matrix_csc, attr) for attr in ("data", "indices", "indptr")]
    assert cached and not any(a.flags.writeable for a in cached)


def test_patch_bookkeeping_built_once_per_mesh_and_context(stripes_l3, monkeypatch):
    mesh, coef, ctx = stripes_l3
    calls = {"element_patch": 0, "assemble_stiffness": 0}
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(lod, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(lod, name, counting)
    k = saturation_k(mesh)
    for kind in ("IH", "SZ"):
        compute_correctors(ctx, build_operator(kind, mesh, coef), k)
    assert calls["element_patch"] <= mesh.coarse.num_elements
    assert calls["assemble_stiffness"] <= mesh.coarse.num_elements


def test_patch_caches_build_each_entry_once_under_threads(monkeypatch):
    """More threads than cores, switching every microsecond, share the mesh,
    context and operator caches: each entry is built once and every thread
    gets it."""
    mesh = build_hierarchy(2, 5, BoundarySpec.all_edges())
    ctx = BilinearFormContext(mesh, gen_random_balls(mesh, 0.05, 4))
    ops = [build_operator(kind, mesh, ctx.coef) for kind in ("IH", "SZ")]
    calls = {"element_patch": [], "_stiffness_cut": [], "_constraint_cut": []}
    for name in calls:
        def counting(*args, _name=name, _fn=getattr(lod, name), **kwargs):
            calls[_name].append(1)  # list.append is atomic
            return _fn(*args, **kwargs)
        monkeypatch.setattr(lod, name, counting)
    elements, ks = range(mesh.coarse.num_elements), (1, 2, saturation_k(mesh))

    def work():
        out = []
        for T, k in itertools.product(elements, ks):
            dofs = lod._patch_dofs(ctx, T, k)
            keys = [half for op in ops for half in lod._system_key(ctx, op, T, k, dofs)]
            out.append((dofs, *keys))
        return out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = 2 * (os.cpu_count() or 1) + 2
        with ThreadPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(work) for _ in range(workers)]
            results = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert len(calls["element_patch"]) == len(elements) * len(ks)
    assert len(calls["_stiffness_cut"]) == len(elements) * len(ks)
    assert len(calls["_constraint_cut"]) == len(ops) * len(elements) * len(ks)
    for result in results[1:]:
        assert all(x is y for a, b in zip(result, results[0]) for x, y in zip(a, b))


def counting_cuts(monkeypatch):
    """Count ``_stiffness_cut`` and ``_constraint_cut`` calls by pass: pass 1 on the
    calling thread, pass 2 on the helpers."""
    caller = threading.get_ident()
    calls = {(name, p): 0 for name in ("_stiffness_cut", "_constraint_cut") for p in (1, 2)}
    lock = threading.Lock()
    for name in ("_stiffness_cut", "_constraint_cut"):
        def counting(*args, _name=name, _fn=getattr(lod, name)):
            with lock:
                calls[(_name, 1 if threading.get_ident() == caller else 2)] += 1
            return _fn(*args)
        monkeypatch.setattr(lod, name, counting)
    return calls


def test_pass_one_cuts_each_half_once_per_owner(monkeypatch):
    """Over a sweep of two alphas and two operators, each shared by both
    alphas as run_experiment shares them, pass 1 cuts a patch's stiffness half
    at most once per (alpha, T, k) and its constraint half at most once per
    (operator, T, k), each for a digest it keeps; pass 2 cuts both exactly once
    per factorization."""
    mesh = build_hierarchy(3, 6, BoundarySpec.all_edges())
    contexts = [BilinearFormContext(mesh, gen_stripes(mesh, alpha)) for alpha in (1e-1, 1e-3)]
    ops = [build_operator(kind, mesh, contexts[0].coef) for kind in ("IH", "SZ")]
    calls = counting_cuts(monkeypatch)
    f = LoadSpec.rectangle(0.25, 0.75, 0.25, 0.75)
    factorizations, solves = 0, {}
    for ctx, op, k in itertools.product(contexts, ops, (1, 2)):
        correctors = compute_correctors(ctx, op, k, f_spec=f)[0]
        factorizations += correctors.factorizations
        solves[k] = correctors.element_solves  # the same elements in every cell
    per_owner = 2 * (solves[1] + solves[2])  # two alphas, or two operators, times (T, k)
    assert calls[("_stiffness_cut", 2)] == calls[("_constraint_cut", 2)] == factorizations
    assert 0 < calls[("_stiffness_cut", 1)] == sum(len(ctx.stiffness_digests) for ctx in contexts) <= per_owner
    assert 0 < calls[("_constraint_cut", 1)] == sum(len(op.constraint_digests) for op in ops) <= per_owner


@pytest.mark.parametrize("kind,k", [("IH", 1), ("IH", 2), ("SZ", 1), ("SZ", 2)])
@pytest.mark.parametrize("coefficient", ["stripes", "balls", "field"])
def test_grouping_matches_full_keys(monkeypatch, coefficient, kind, k):
    """The oracle for pass 1's grouping: one factorization per distinct full key
    over the work elements, and results equal to one group per element.  Equal
    systems have equal stiffness diagonals on their DOFs, so the pre-key misses no
    group; stripes repeat those diagonals in systems that differ, so a shared
    pre-key still needs the full key; and on a random field, where every
    diagonal differs, pass 1 cuts nothing."""
    mesh = build_hierarchy(3, 6, BoundarySpec.all_edges())
    coef = {"stripes": lambda: gen_stripes(mesh, 1e-3),
            "balls": lambda: gen_random_balls(mesh, 1e-3, 2),
            "field": lambda: gen_random_field(mesh, 1e-3, 1)}[coefficient]()
    ctx = BilinearFormContext(mesh, coef)
    op = build_operator(kind, mesh, coef)
    f = LoadSpec.constant(1.0)
    with monkeypatch.context() as m:
        calls = counting_cuts(m)
        grouped = corrector_arrays(*compute_correctors(ctx, op, k, f_spec=f))
    factorizations, element_solves = grouped[4][:2]
    assert element_solves == mesh.coarse.num_elements  # the constant load puts work on every element
    diag = ctx.stiffness.diagonal()
    full, pre = set(), set()
    for T in range(mesh.coarse.num_elements):
        dofs = lod._patch_dofs(ctx, T, k)
        full.add(lod._system_key(ctx, op, T, k, dofs))
        pre.add(diag[dofs].tobytes())
    assert factorizations == len(full)
    if coefficient == "stripes":
        assert len(pre) < len(full) < mesh.coarse.num_elements
        if k == 1:
            assert (len(pre), len(full)) == (23, 46)
    if coefficient == "field":
        assert len(pre) == len(full) == mesh.coarse.num_elements
        assert calls[("_stiffness_cut", 1)] == calls[("_constraint_cut", 1)] == 0
        assert calls[("_stiffness_cut", 2)] == calls[("_constraint_cut", 2)] == factorizations

    one_group_per_element(monkeypatch)
    single = corrector_arrays(*compute_correctors(ctx, op, k, f_spec=f))
    assert single[4][0] == element_solves
    assert_arrays_equal(single[:4], grouped[:4])


def test_load_on_dirichlet_nodes_only_is_not_solved():
    """A hat at a corner between two Dirichlet edges loads only Dirichlet
    nodes of the corner element, whose vertices are all constrained: that
    element has no work, and the right-hand-side correction is zero."""
    mesh = build_hierarchy(2, 6, BoundarySpec.all_edges())
    coef = gen_stripes(mesh, 1e-3)
    ctx = BilinearFormContext(mesh, coef)
    correctors, u_f = compute_correctors(ctx, build_operator("SZ", mesh, coef), 1, LoadSpec.hat(0.0, 0.0))
    assert correctors.element_solves == correctors.factorizations == 30
    assert not u_f.any()


@pytest.mark.parametrize("dirichlet", [("left", "right", "bottom", "top"), ("left", "bottom")])
def test_element_blocks_match_element_by_element_assembly(dirichlet):
    """Every entry of the stacked element table equals the one-element
    assembly of its stiffness rows and of its load on T's free nodes, for
    every load kind, with all and with partial Dirichlet edges."""
    mesh = build_hierarchy(2, 5, BoundarySpec.edges(*dirichlet))
    ctx = BilinearFormContext(mesh, gen_random_balls(mesh, 0.05, 4))
    elements = range(mesh.coarse.num_elements)
    loads = [None, LoadSpec.constant(2.0), LoadSpec.rectangle(0.25, 0.5, 0.25, 0.75),
             LoadSpec.hat(0.5, 0.25), LoadSpec.hat(0.0, 0.0)]
    for f in loads:
        blocks = lod._element_blocks(ctx, elements, f)
        assert len(blocks) == len(elements)
        for T, (nodes, KP, load) in zip(elements, blocks):
            ref_nodes, free, ref_KP = element_rhs(ctx, T)
            assert np.array_equal(nodes, ref_nodes) and np.array_equal(KP, ref_KP)
            if f is None:
                assert load is None
            else:
                ref_load = assemble_load(mesh, f, mesh.fine_elements_of_coarse([T]))[1][free]
                assert np.array_equal(load, ref_load)
            alone = lod._element_blocks(ctx, [T], f)[0]
            assert all(x is y is None or np.array_equal(x, y) for x, y in zip(alone, (nodes, KP, load)))
    # the corner hat loads element 0, but only on the Dirichlet nodes of its two edges
    hat = LoadSpec.hat(0.0, 0.0)
    assert assemble_load(mesh, hat, mesh.fine_elements_of_coarse([0]))[1].any()
    assert not lod._element_blocks(ctx, [0], hat)[0][2].any()
    op = build_operator("IH", mesh, ctx.coef)
    correctors, u_f = compute_correctors(ctx, op, 1, hat)
    assert correctors.element_solves == compute_correctors(ctx, op, 1)[0].element_solves
    assert not u_f.any()


@pytest.mark.parametrize("k", [2.5, np.float64(1.9), float("nan"), np.float64("nan"), 0, -1, -np.inf])
def test_patch_size_must_be_a_positive_integer(small, k):
    mesh, coef, ctx, op = small
    with pytest.raises(ParameterError, match="patch size k"):
        compute_correctors(ctx, op, k)


@pytest.mark.parametrize("k", [2.0, np.int64(2), np.float64(2.0)])
def test_integral_patch_size_of_any_type_is_accepted(small, k):
    mesh, coef, ctx, op = small
    got, ref = compute_correctors(ctx, op, k)[0], compute_correctors(ctx, op, 2)[0]
    assert got.k == ref.k == 2
    assert all(np.array_equal(getattr(got.matrix, a), getattr(ref.matrix, a)) for a in ("data", "indices", "indptr"))
    assert compute_correctors(ctx, op, np.inf)[0].k == saturation_k(mesh)


def test_dropped_rows_counted(small, monkeypatch):
    """A constraint row copied onto another is dropped wherever both reach the
    patch; the count equals the spied factorizations' dropped rows."""
    mesh, coef, ctx, op = small
    R = op.matrix.tolil()
    R[1] = R[0]
    redundant = dataclasses.replace(op, matrix=R.tocsr())
    systems = []

    class Spy(SaddleSystem):
        def __init__(self, K, C):
            super().__init__(K, C)
            systems.append(self)

    monkeypatch.setattr(lod, "SaddleSystem", Spy)
    correctors, _ = compute_correctors(ctx, redundant, 1)
    assert correctors.factorizations == len(systems)
    assert correctors.dropped_rows == sum(len(s.dropped_rows) for s in systems) > 0
    systems.clear()
    sol = solve_multiscale(ctx, redundant, 1, LoadSpec.constant(1.0))
    assert sol.metadata["dropped_rows"] == sum(len(s.dropped_rows) for s in systems) > 0
    assert solve_multiscale(ctx, op, 1, LoadSpec.constant(1.0)).metadata["dropped_rows"] == 0


def corrector_arrays(correctors, u_f):
    """Q's arrays, u_f and the three counters of one compute_correctors call."""
    counters = [correctors.factorizations, correctors.element_solves, correctors.dropped_rows]
    return [correctors.matrix.data, correctors.matrix.indices, correctors.matrix.indptr, u_f,
            np.array(counters)]


def assert_arrays_equal(got, ref):
    assert len(got) == len(ref)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def failing_call(monkeypatch, owner, name, nth, error):
    """Make ``owner.name`` raise ``error`` on its nth call from any thread; returns
    the list of the calling threads, one per call made."""
    fn, calls, lock = getattr(owner, name), [], threading.Lock()

    def fake(*args, **kwargs):
        with lock:
            calls.append(threading.get_ident())
            n = len(calls)
        if n == nth:
            raise error
        return fn(*args, **kwargs)

    monkeypatch.setattr(owner, name, fake)
    return calls


def failing_splu(monkeypatch, nth):
    """Make scipy's splu, as lod2d.assembly calls it, raise on its nth call."""
    return failing_call(monkeypatch, assembly.spla, "splu", nth, RuntimeError("Factor is exactly singular"))


def usable_cpus(monkeypatch, n):
    """Let ``LOD_THREADS`` ask for up to ``n`` workers, whatever the host has."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


@pytest.mark.parametrize("dirichlet", [("left", "right", "bottom", "top"), ("left", "bottom")])
@pytest.mark.parametrize("coefficient", ["stripes", "balls", "field"])
def test_results_do_not_depend_on_helper_count(monkeypatch, coefficient, dirichlet):
    """Q, u_f and the counters are bit for bit the same with 1, 2 and 3
    factorization helpers: every element writes its own slots of Q, and u_f
    is summed in element order, whatever order the helpers finish in."""
    levels = (3, 6) if coefficient == "stripes" else (2, 5)  # stripes need h <= 1/64
    mesh = build_hierarchy(*levels, BoundarySpec.edges(*dirichlet))
    coef = {"stripes": lambda: gen_stripes(mesh, 1e-3),
            "balls": lambda: gen_random_balls(mesh, 1e-3, 2),
            "field": lambda: gen_random_field(mesh, 1e-3, 1)}[coefficient]()
    ctx = BilinearFormContext(mesh, coef)
    f = LoadSpec.rectangle(0.25, 0.75, 0.25, 0.5)
    usable_cpus(monkeypatch, 3)
    for kind in ("IH", "SZ", "AprojQM"):
        op = build_operator(kind, mesh, coef)
        for k in (1, 2, None):
            results = []
            for helpers in ("1", "2", "3"):
                monkeypatch.setenv("LOD_THREADS", helpers)
                assert lod._worker_count() == int(helpers)
                results.append(corrector_arrays(*compute_correctors(ctx, op, k, f_spec=f)))
            assert results[0][3].any()
            for got in results[1:]:
                assert_arrays_equal(got, results[0])


def test_helper_failure_reaches_the_caller(monkeypatch):
    """An error on a factorization helper, from cutting its system (the row
    check), a failed KKT factorization, an interrupt in a block solve or a
    residual miss, is raised by compute_correctors in the calling thread.  The
    runs not yet started do nothing, every LU is dropped on the thread that
    built it before the call returns, and a clean call on the same context and
    operator then gives the one-worker results array for array.  A residual
    miss in one column of a block of several elements names that column's
    element and hat in the error, with that column's residuals."""
    mesh = build_hierarchy(3, 6, BoundarySpec.all_edges())
    coef = gen_random_field(mesh, 1e-3, 1)
    ctx, op = BilinearFormContext(mesh, coef), build_operator("IH", mesh, coef)
    f = LoadSpec.rectangle(0.25, 0.75, 0.25, 0.75)
    # (method, system, thread): a factorization once the constructor has built
    # the LU, a release before it runs, so a failed construction records neither
    events = []
    construct, release = SaddleSystem.__init__, SaddleSystem.release

    def constructing(self, K, C):
        construct(self, K, C)
        events.append(("factorize", self, threading.get_ident()))

    def releasing(self):
        events.append(("release", self, threading.get_ident()))
        release(self)

    monkeypatch.setattr(SaddleSystem, "__init__", constructing)
    monkeypatch.setattr(SaddleSystem, "release", releasing)

    def lu_threads(name):
        return {id(system): thread for method, system, thread in events if method == name}

    monkeypatch.setenv("LOD_THREADS", "1")
    ref = corrector_arrays(*compute_correctors(ctx, op, 1, f_spec=f))
    assert ref[4][0] > 100  # factorizations, far more than two helpers run at once
    # one worker is a helper too: no LU is built on the calling thread
    assert len(lu_threads("factorize")) == ref[4][0]
    assert lu_threads("factorize") == lu_threads("release")
    assert threading.get_ident() not in lu_threads("factorize").values()

    def holding_first_solve(m, calls):
        """Hold the first block solve until ``calls`` reaches the bound or a
        second has passed: the caller, woken by the failed run while this one
        is held, must cancel the runs not yet started."""
        block_solve, held, lock = lod._block_solve, [], threading.Lock()

        def holding(*args):
            with lock:
                first = not held
                held.append(1)
            deadline = time.monotonic() + 1.0
            while first and len(calls) < 3 + 4 * 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            return block_solve(*args)

        m.setattr(lod, "_block_solve", holding)
        return calls

    usable_cpus(monkeypatch, 2)
    monkeypatch.setenv("LOD_THREADS", "2")
    faults = [
        (SolverError, "KKT factorization failed", lambda m: failing_splu(m, 3)),
        (SolverError, "KKT factorization failed", lambda m: holding_first_solve(m, failing_splu(m, 3))),
        (SolverError, "row check", lambda m: failing_call(
            m, assembly, "independent_constraint_rows", 3, SolverError("row check failed"))),
        (KeyboardInterrupt, None, lambda m: failing_call(m, lod, "_block_solve", 3, KeyboardInterrupt())),
    ]
    for error, match, inject in faults:
        events.clear()
        with monkeypatch.context() as m:
            calls = inject(m)
            with pytest.raises(error, match=match):
                compute_correctors(ctx, op, 1, f_spec=f)
        assert 3 <= len(calls) < 3 + 4 * 2
        assert threading.get_ident() not in calls
        assert lu_threads("factorize") == lu_threads("release")
        assert threading.get_ident() not in lu_threads("factorize").values()
        assert_arrays_equal(corrector_arrays(*compute_correctors(ctx, op, 1, f_spec=f)), ref)

    events.clear()
    with monkeypatch.context() as m:
        m.setattr(assembly, "SADDLE_RTOL", 0.0)
        with pytest.raises(SolverError, match="saddle solve residuals"):
            compute_correctors(ctx, op, 1, f_spec=f)
    assert lu_threads("factorize") == lu_threads("release")
    assert_arrays_equal(corrector_arrays(*compute_correctors(ctx, op, 1, f_spec=f)), ref)

    # a residual miss in one column inside a block of several elements, on the
    # stripes, whose patch systems repeat: its own residuals are reported
    coef = gen_stripes(mesh, 1e-3)
    ctx, op = BilinearFormContext(mesh, coef), build_operator("IH", mesh, coef)
    ref = corrector_arrays(*compute_correctors(ctx, op, 1, f_spec=f))
    splu, block_solve = assembly.spla.splu, lod._block_solve
    target, lock, local = [], threading.Lock(), threading.local()

    class SkewedLU:
        """Adds a vector to the solution of the block's column ``local.column``."""

        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            x = self.lu.solve(rhs)
            j = getattr(local, "column", -1) - local.offset
            if 0 <= j < x.shape[1]:
                x[:, j] += 1.0 + np.arange(x.shape[0])
            local.offset += x.shape[1]
            return x

    def skewing(ctx, system, items):
        local.offset = 0
        with lock:
            if len(items) > 1 and not target:  # the second element's first column
                _, T, _, verts, *_ = items[1]
                target.append(f"coarse element {T}, " + (f"hat {verts[0]}" if verts else "load"))
                local.column = len(items[0][3]) + (items[0][6] is not None)
        try:
            return block_solve(ctx, system, items)
        finally:
            local.column = -1

    monkeypatch.setattr(assembly.spla, "splu", lambda *a, **kw: SkewedLU(splu(*a, **kw)))
    monkeypatch.setattr(lod, "_block_solve", skewing)
    events.clear()
    with pytest.raises(SolverError, match="saddle solve residuals") as info:
        compute_correctors(ctx, op, 1, f_spec=f)
    assert str(info.value).startswith(f"{target[0]}: ")
    assert lu_threads("factorize") == lu_threads("release")
    assert threading.get_ident() not in lu_threads("factorize").values()
    monkeypatch.undo()
    assert_arrays_equal(corrector_arrays(*compute_correctors(ctx, op, 1, f_spec=f)), ref)


def test_caller_interrupt_cancels_the_pass(monkeypatch):
    """An interrupt of the calling thread while it waits on the helpers reaches
    the caller.  The runs not yet started never run, so with two runs done at
    the interrupt at most two more per helper are factorized; each helper
    releases every LU it built, and a clean call then gives the reference."""
    mesh = build_hierarchy(3, 6, BoundarySpec.all_edges())
    coef = gen_random_field(mesh, 1e-3, 1)
    ctx, op = BilinearFormContext(mesh, coef), build_operator("IH", mesh, coef)
    f = LoadSpec.rectangle(0.25, 0.75, 0.25, 0.75)
    helpers = 2
    usable_cpus(monkeypatch, helpers)
    monkeypatch.setenv("LOD_THREADS", str(helpers))
    ref = corrector_arrays(*compute_correctors(ctx, op, 1, f_spec=f))
    # (thread, method) per event: ids are reused once a system is freed
    events, waits = [], []
    construct, release, wait = SaddleSystem.__init__, SaddleSystem.release, lod.wait

    def constructing(self, K, C):
        construct(self, K, C)
        events.append((threading.get_ident(), "factorize"))

    def releasing(self):
        events.append((threading.get_ident(), "release"))
        release(self)

    def interrupted(futures, **kwargs):
        """Wait for the first two runs, then interrupt; a later call waits as usual."""
        waits.append(1)
        if len(waits) > 1:
            return wait(futures, **kwargs)
        wait(futures[:2])
        raise KeyboardInterrupt

    with monkeypatch.context() as m:
        m.setattr(SaddleSystem, "__init__", constructing)
        m.setattr(SaddleSystem, "release", releasing)
        m.setattr(lod, "wait", interrupted)
        with pytest.raises(KeyboardInterrupt):
            compute_correctors(ctx, op, 1, f_spec=f)
    factorized = sum(method == "factorize" for _, method in events)
    assert 2 <= factorized <= 2 + 2 * helpers < ref[4][0]
    # a helper runs one system at a time from construction to release
    for thread in {t for t, _ in events}:
        assert thread != threading.get_ident()
        methods = [method for t, method in events if t == thread]
        assert methods == ["factorize", "release"] * (len(methods) // 2)
    assert_arrays_equal(corrector_arrays(*compute_correctors(ctx, op, 1, f_spec=f)), ref)


LEAK_SCRIPT = """
import resource
import lod2d
from lod2d.lod import compute_correctors
mesh = lod2d.build_hierarchy(3, 6, lod2d.BoundarySpec.all_edges())
coef = lod2d.gen_random_field(mesh, 1e-3, 1)
ctx = lod2d.BilinearFormContext(mesh, coef)
op = lod2d.build_operator("IH", mesh, coef)
for _ in range(4):
    compute_correctors(ctx, op, 1, lod2d.LoadSpec.rectangle(0.25, 0.75, 0.25, 0.75))
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def test_repeated_corrector_passes_hold_no_lu():
    """Four corrector passes with two helpers in a fresh interpreter: after the
    first, peak RSS grows by a few MB at most.  scipy frees an LU's memory only
    on the thread that built it, so an LU dropped on another thread would stay,
    one per system per pass (about 35 MB per pass here)."""
    src = str(Path(lod.__file__).resolve().parents[1])
    env = dict(os.environ, LOD_THREADS="2", PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", LEAK_SCRIPT], env=env, capture_output=True,
                         text=True, check=True, timeout=300).stdout
    peaks_kb = [int(line) for line in out.split()]
    assert len(peaks_kb) == 4
    assert peaks_kb[-1] - peaks_kb[0] <= 8 * 1024, peaks_kb


_FORKED = {}  # what a forked child reads from its copy of the parent's memory


def _factorizations_in_child(k):
    return compute_correctors(*_FORKED["ctx_op"], k)[0].factorizations


def test_forked_child_starts_its_own_helpers(small, monkeypatch):
    """A child forked after the parent's helpers started has none of their
    threads; it makes its own pool instead of waiting on threads that are gone."""
    mesh, coef, ctx, op = small
    monkeypatch.setenv("LOD_THREADS", "2")
    expected = compute_correctors(ctx, op, 1)[0].factorizations
    monkeypatch.setitem(_FORKED, "ctx_op", (ctx, op))
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply_async(_factorizations_in_child, (1,)).get(timeout=60) == expected


def test_bad_lod_threads_fails_before_any_factorization(small, monkeypatch):
    mesh, coef, ctx, op = small
    calls = failing_splu(monkeypatch, 0)
    monkeypatch.setenv("LOD_THREADS", "abc")
    with pytest.raises(ParameterError, match="LOD_THREADS"):
        solve_multiscale(ctx, op, 1, LoadSpec.constant(1.0))
    assert calls == []


def test_uncovered_stripes_cause_criterion_6():
    """Criterion 6 fails on the L=3 stripes because of the stripes that no
    coarse node row meets (the node-placement hypothesis).  Split the stripes
    by their centre row y = j/16: IH's class I domains reach each of the 7
    with j even, which lie on coarse node rows, and on those alone IH decays
    at every contrast as criterion 6 asks; they reach none of the 8 with j odd."""
    mesh = build_hierarchy(3, 6, BoundarySpec.all_edges())
    row = np.rint(16 * mesh.fine.barycenters()[:, 1]) % 2  # every stripe lies within h of its row
    stripes = gen_stripes(mesh, 1.0).is_one
    masks = {"even": stripes & (row == 0), "odd": stripes & (row == 1)}
    f = LoadSpec.rectangle(0.25, 0.75, 0.25, 0.75)
    coefs = {name: Coefficient(1.0, is_one) for name, is_one in masks.items()}
    ops = {name: build_operator("IH", mesh, coef) for name, coef in coefs.items()}  # alpha-free
    uncovered = {name: coverage_report(mesh, coefs[name], op.node_variables).uncovered_components
                 for name, op in ops.items()}
    assert uncovered == {"even": 0, "odd": 8}
    op = ops["even"]
    for alpha in (1e-1, 1e-3, 1e-5):
        ctx = BilinearFormContext(mesh, Coefficient(alpha, masks["even"]))
        u_ref = reference_solution(ctx, f)
        errs = [relative_energy_error(ctx, u_ref, solve_multiscale(ctx, op, k, f).u_total)
                for k in (1, 2, 3, 4, 5)]
        assert all(b <= a + 1e-8 for a, b in zip(errs, errs[1:])), (alpha, errs)
        assert errs[4] / errs[1] < 0.2, (alpha, errs)


def test_rhs_support_element_count():
    mesh = build_hierarchy(3, 5, BoundarySpec.all_edges())
    f = LoadSpec.rectangle(0.25, 0.75, 0.25, 0.75)
    touched = [
        T
        for T in range(mesh.coarse.num_elements)
        if assemble_load(mesh, f, region=mesh.fine_elements_of_coarse([T]))[1].any()
    ]
    assert len(touched) == 32  # 4x4 coarse cells under the box, 2 triangles each


def test_ideal_rhs_correction_identity(small):
    mesh, coef, ctx, op = small
    f = LoadSpec.constant(1.0)
    _, u_f = compute_correctors(ctx, op, None, f_spec=f)
    load = assemble_load(mesh, f)[1]
    rng = np.random.default_rng(1)
    K = ctx.stiffness
    for _ in range(10):
        w = kernel_project(op.matrix, rng.standard_normal(mesh.fine.num_nodes),
                           mesh.constrained_fine_mask)
        resid = abs(u_f @ (K @ w) - load @ w) / (np.linalg.norm(w) + 1e-300)
        assert resid <= 1e-9


def test_exact_decomposition_at_saturation(small):
    mesh, coef, ctx, op = small
    f = LoadSpec.rectangle(0.25, 0.75, 0.25, 0.75)
    sol = solve_multiscale(ctx, op, None, f, rhs_correction=True)
    u_ref = reference_solution(ctx, f)
    assert relative_energy_error(ctx, u_ref, sol.u_total) <= 1e-8
    assert sol.metadata["k"] == saturation_k(mesh)


def test_solution_fields_consistent(small):
    mesh, coef, ctx, op = small
    f = LoadSpec.constant(1.0)
    sol = solve_multiscale(ctx, op, 2, f, rhs_correction=False)
    assert np.abs(sol.u_f_k).max() == 0.0
    assert np.array_equal(sol.u_total, sol.u_ms + sol.u_f_k)
    assert len(sol.coarse) == len(op.free_nodes)


def test_error_without_correction_equals_kernel_part(small):
    mesh, coef, ctx, op = small
    f = LoadSpec.constant(1.0)
    sol = solve_multiscale(ctx, op, None, f, rhs_correction=False)
    _, u_f = compute_correctors(ctx, op, None, f_spec=f)
    u_ref = reference_solution(ctx, f)
    lhs = ctx.energy_norm(u_ref - sol.u_ms)
    rhs = ctx.energy_norm(u_f)
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_galerkin_orthogonality(small):
    mesh, coef, ctx, op = small
    f = LoadSpec.constant(1.0)
    k = 2
    correctors, _ = compute_correctors(ctx, op, k)
    sol = solve_multiscale(ctx, op, k, f, rhs_correction=True)
    u_ref = reference_solution(ctx, f)
    diff = u_ref - sol.u_total
    K = ctx.stiffness
    P_free = mesh.prolongation_matrix[:, op.free_nodes]
    B = (P_free - correctors.matrix.T).toarray()
    for col in range(0, B.shape[1], 3):
        g = B[:, col]
        resid = abs(diff @ (K @ g))
        assert resid <= 1e-9 * (ctx.energy_norm(u_ref) * ctx.energy_norm(g) + 1e-300)


def test_coarse_refinement_improves_ideal_method():
    f = LoadSpec.constant(1.0)
    errs = []
    for L in (1, 2):
        mesh = build_hierarchy(L, 5, BoundarySpec.all_edges())
        coef = Coefficient(1.0, np.ones(mesh.fine.num_elements, bool))
        ctx = BilinearFormContext(mesh, coef)
        op = build_operator("SZ", mesh, coef)
        sol = solve_multiscale(ctx, op, None, f, rhs_correction=False)
        u_ref = reference_solution(ctx, f)
        errs.append(relative_energy_error(ctx, u_ref, sol.u_ms))
    assert errs[1] < errs[0]


def test_error_monotone_in_patch_size():
    # moderate contrast so every high-value component decay guarantee applies
    mesh = build_hierarchy(3, 6, BoundarySpec.all_edges())
    coef = gen_stripes(mesh, 1e-1)
    ctx = BilinearFormContext(mesh, coef)
    op = build_operator("IH", mesh, coef)
    f = LoadSpec.rectangle(0.25, 0.75, 0.25, 0.75)
    u_ref = reference_solution(ctx, f)
    errs = [
        relative_energy_error(
            ctx, u_ref, solve_multiscale(ctx, op, k, f).u_total
        )
        for k in (1, 2, 3, 4)
    ]
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-8


def test_localized_matches_ideal_at_saturation(small):
    mesh, coef, ctx, op = small
    # smallest k whose patches already cover the mesh from every seed
    k_sat = next(
        k
        for k in range(1, 3 * 2**mesh.coarse_level)
        if all(
            len(element_patch(mesh, ElementSet(mesh.coarse_level, [T]), k))
            == mesh.coarse.num_elements
            for T in range(mesh.coarse.num_elements)
        )
    )
    assert k_sat < saturation_k(mesh)
    c1, _ = compute_correctors(ctx, op, k_sat)
    c2, _ = compute_correctors(ctx, op, saturation_k(mesh))
    assert np.abs(c1.matrix - c2.matrix).max() <= 1e-9


def test_multiscale_dimension(small):
    mesh, coef, ctx, op = small
    correctors, _ = compute_correctors(ctx, op, 1)
    assert correctors.matrix.shape[0] == len(mesh.free_coarse_nodes)


def test_reference_solution_poisson_peak():
    mesh = build_hierarchy(1, 5, BoundarySpec.all_edges())
    coef = Coefficient(1.0, np.ones(mesh.fine.num_elements, bool))
    ctx = BilinearFormContext(mesh, coef)
    u = reference_solution(ctx, LoadSpec.constant(1.0))
    assert abs(u.max() - POISSON_SQUARE_PEAK) <= 0.02 * POISSON_SQUARE_PEAK
    # second-order oracle on a finer grid
    fine = build_hierarchy(1, 8, BoundarySpec.all_edges())
    coef8 = Coefficient(1.0, np.ones(fine.fine.num_elements, bool))
    u8 = reference_solution(BilinearFormContext(fine, coef8), LoadSpec.constant(1.0))
    assert abs(u.max() - u8.max()) <= 0.02 * u8.max()


def test_reference_zero_load(small):
    mesh, coef, ctx, op = small
    u = reference_solution(ctx, LoadSpec.constant(0.0))
    assert np.abs(u).max() == 0.0


def test_reference_alpha_one_matches_unit_coefficient():
    mesh = build_hierarchy(3, 6, BoundarySpec.all_edges())
    stripes = gen_stripes(mesh, 1.0)
    ones = Coefficient(1.0, np.ones(mesh.fine.num_elements, bool))
    f = LoadSpec.constant(1.0)
    u1 = reference_solution(BilinearFormContext(mesh, stripes), f)
    u2 = reference_solution(BilinearFormContext(mesh, ones), f)
    assert np.array_equal(u1, u2)


def test_relative_energy_error_cases(small):
    mesh, coef, ctx, op = small
    u_ref = reference_solution(ctx, LoadSpec.constant(1.0))
    assert relative_energy_error(ctx, u_ref, u_ref) == 0.0
    assert relative_energy_error(ctx, u_ref, np.zeros_like(u_ref)) == pytest.approx(1.0)
    rng = np.random.default_rng(6)
    w = rng.standard_normal(mesh.fine.num_nodes)
    w[mesh.constrained_fine_mask] = 0.0
    e = ctx.energy_norm(w)
    got = relative_energy_error(ctx, u_ref, u_ref + w)
    assert got == pytest.approx(e / ctx.energy_norm(u_ref), rel=1e-12)


def test_decay_profile_monotone_and_saturating(small):
    mesh, coef, ctx, op = small
    T = 2 * (1 * mesh.coarse.n + 1)
    i = int(mesh.coarse.elements[T][0])
    q = element_corrector(ctx, op, i, T, k=None)
    profile = decay_profile(ctx, q, T, saturation_k(mesh))
    energies = [e for _, e in profile]
    assert energies[0] <= ctx.energy_norm(q) + 1e-12
    for a, b in zip(energies, energies[1:]):
        assert b <= a + 1e-12
    assert energies[-1] == 0.0


# energies outside U_k(T), k = 0..saturation, of the IH corrector below
PINNED_DECAY_STRIPES_IH = [
    0.18216654445578648,
    0.09287152295881569,
    0.00020729148550534702,
    1.209794363114928e-10,
    0.0, 0.0, 0.0, 0.0, 0.0,
]


def test_decay_profile_pinned():
    """The outside stiffness is assembled on its own nodes; the energies
    stay the full-size assembly's to the last bit."""
    mesh = build_hierarchy(2, 6, BoundarySpec.all_edges())
    coef = gen_stripes(mesh, 1e-3)
    ctx = BilinearFormContext(mesh, coef)
    op = build_operator("IH", mesh, coef)
    nc = mesh.coarse.n
    T = 2 * ((nc // 2) * nc + nc // 2)
    i = next(int(v) for v in mesh.coarse.elements[T] if v in op.free_nodes)
    q = element_corrector(ctx, op, i, T, k=None)
    profile = decay_profile(ctx, q, T, saturation_k(mesh))
    assert [k for k, _ in profile] == list(range(saturation_k(mesh) + 1))
    np.testing.assert_allclose(
        [e for _, e in profile], PINNED_DECAY_STRIPES_IH, rtol=0, atol=0
    )


def test_decay_slopes_contrast_robustness():
    """With a node row in every stripe (H = 1/16), the geometry-induced
    operator decays at a contrast-independent rate while the full-patch
    variant stalls at high contrast."""
    mesh = build_hierarchy(4, 7, BoundarySpec.all_edges())
    nc = mesh.coarse.n
    T = 2 * ((nc // 2) * nc + nc // 2)
    slopes = {}
    for kind in ("IH", "SZ"):
        for alpha in (1e-1, 1e-5):
            coef = gen_stripes(mesh, alpha)
            ctx = BilinearFormContext(mesh, coef)
            op = build_operator(kind, mesh, coef)
            i = int(mesh.coarse.elements[T][0])
            q = element_corrector(ctx, op, i, T, k=None)
            profile = decay_profile(ctx, q, T, 7)
            ks = [k for k, _ in profile]
            es = [e for _, e in profile]
            slopes[(kind, alpha)] = fit_log10_slope(ks, es, floor=1e-12 * es[0])
    assert abs(slopes[("IH", 1e-1)] - slopes[("IH", 1e-5)]) < 0.15
    assert abs(slopes[("SZ", 1e-1)] - slopes[("SZ", 1e-5)]) > 0.3


def test_fit_log10_slope():
    ks = [0, 1, 2, 3]
    vals = [1.0, 0.1, 0.01, 0.001]
    assert fit_log10_slope(ks, vals) == pytest.approx(-1.0, abs=1e-12)
    assert np.isnan(fit_log10_slope([1], [0.5]))
    # entries at or below the floor are ignored
    assert fit_log10_slope([0, 1, 2], [1.0, 0.1, 0.0], floor=0.0) == pytest.approx(-1.0)


# 17-digit regression values for a small sweep (L=2, l_f=6, alpha=1e-3, rect
# load, rhs correction): a change to the patch solver, the corrector loop or
# the operator builds must reproduce them to roundoff.
PINNED_ERRORS = {
    ("balls", "SZ", 1): 0.44631668501439115,
    ("balls", "SZ", 2): 0.07683931327107667,
    ("balls", "nodal", 1): 0.22751324410867532,
    ("balls", "nodal", 2): 0.008295766915795727,
    ("balls", "IH", 1): 0.23281804721028873,
    ("balls", "IH", 2): 0.006159864741681796,
    ("balls", "IH1", 1): 0.29157901846707385,
    ("balls", "IH1", 2): 0.009507576348542306,
    ("balls", "Aproj", 1): 0.4621330967169142,
    ("balls", "Aproj", 2): 0.14269831673001257,
    ("balls", "AprojQM", 1): 0.3003002053392483,
    ("balls", "AprojQM", 2): 0.022090132450147255,
    ("stripes", "SZ", 1): 0.22752402437447383,
    ("stripes", "SZ", 2): 0.10796274685088104,
    ("stripes", "nodal", 1): 0.25675084549173005,
    ("stripes", "nodal", 2): 0.16062513316312316,
    ("stripes", "IH", 1): 0.2612490975954278,
    ("stripes", "IH", 2): 0.16745925346263407,
    ("stripes", "IH1", 1): 0.2612490975954278,
    ("stripes", "IH1", 2): 0.16745925346263407,
    ("stripes", "Aproj", 1): 0.19009121228984388,
    ("stripes", "Aproj", 2): 0.10923532540413519,
    ("stripes", "AprojQM", 1): 0.2611838840866854,
    ("stripes", "AprojQM", 2): 0.1670462078467614,
}


@pytest.mark.parametrize("coefficient", ["balls", "stripes"])
def test_errors_pinned_for_all_operators(coefficient):
    mesh = build_hierarchy(2, 6, BoundarySpec.all_edges())
    if coefficient == "balls":
        coef = gen_random_balls(mesh, 1e-3, 3)
    else:
        coef = gen_stripes(mesh, 1e-3)
    ctx = BilinearFormContext(mesh, coef)
    f = LoadSpec.rectangle(0.25, 0.75, 0.25, 0.75)
    u_ref = reference_solution(ctx, f)
    for (name, kind, k), pinned in PINNED_ERRORS.items():
        if name != coefficient:
            continue
        op = build_operator(kind, mesh, coef)
        sol = solve_multiscale(ctx, op, k, f)
        err = relative_energy_error(ctx, u_ref, sol.u_total)
        assert err == pytest.approx(pinned, rel=1e-12), (kind, k)
