"""Quasi-interpolation operators as sparse fine-to-coarse maps.

Six operator kinds are available.  Five are one dual-basis
construction: the node variable of z integrates against the
(weighted) L2(sigma)-dual of z's coarse hat, and the kinds differ only
in the pair (sigma, weight).  ``SZ`` takes the full node patch and no
weight; ``IH`` and ``IH1`` pick sigma from the coefficient geometry (a
connected subset of the value-1 region for class I nodes, a
delta-scaled node patch for class II nodes, with delta = 1/4 and 1
respectively) and no weight; ``Aproj`` takes the full node patch
weighted by the coefficient, which evaluates the coefficient-weighted
local L2 projection at the node, and ``AprojQM`` a quasi-monotone
subregion of the patch with the same weight.  ``nodal`` is point
evaluation.  The stability constant kappa is defined only for the
unweighted dual; weighted node variables carry NaN.  The sigma searches
and the coverage count run on one fine-element graph
(``_Level.element_graph``) with scipy's csgraph.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np
import scipy.sparse as sparse
from scipy.sparse import csgraph

from .assembly import assemble_mass
from .coefficient import Coefficient, connected_components
from .errors import DegenerateSigmaError, ParameterError
from .mesh import ElementSet, MeshHierarchy, node_patch, scaled_node_patch

OPERATOR_KINDS = ("SZ", "nodal", "IH", "IH1", "Aproj", "AprojQM")
DUAL_BASIS_KINDS = ("SZ", "IH", "IH1")  # the unweighted duals: kappa is defined
# read the coefficient only through is_one, so one build serves every alpha
ALPHA_FREE_KINDS = ("SZ", "nodal", "IH", "IH1")
CONDITION_LIMIT = 1e14
DUAL_CHUNK = 16  # node variables per dual_basis call; a larger chunk costs peak memory


@dataclass
class NodeVariable:
    """One coarse node's integration domain, dual weights and stability constant."""

    node: int
    cls: str  # "I", "II" or "plain"
    sigma: ElementSet
    support_nodes: np.ndarray  # coarse nodes whose hats meet sigma, own node first
    xi: np.ndarray
    kappa: float  # NaN for the coefficient-weighted duals


@dataclass
class InterpOperator:
    """Sparse linear map from fine nodal values to free-coarse nodal values."""

    kind: str
    matrix: sparse.csr_matrix  # (free coarse nodes) x (fine nodes)
    free_nodes: np.ndarray
    node_variables: list | None = None
    delta: Fraction | None = None
    # lod's patch constraint digests by (T, k), under the mesh's patch_lock
    constraint_digests: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def apply(self, v):
        return self.matrix @ v

    @cached_property
    def matrix_csc(self):
        """Read-only CSC copy of ``matrix``, from which patches cut their columns."""
        R = self.matrix.tocsc()
        for a in (R.data, R.indices, R.indptr):
            a.flags.writeable = False
        return R


def dual_basis(mesh: MeshHierarchy, sigmas, own, weight=None):
    """(Weighted) L2(sigma)-duals of own nodes' hats, one per ElementSet of ``sigmas``.

    For sigma and its node z of the array ``own``, solves M xi = e_1 with M
    the Gram matrix of the coarse hats on sigma, z ordered first; then
    psi = sum_k xi_k phi_k satisfies int_sigma w psi phi_j = delta_1j.
    Returns lists of supports and xis, and one CSR of the rows
    M_sigma (P psi), the node variables as fine-node functionals
    (row @ v = int_sigma w psi v).

    The sigmas are the blocks of one stacked region, each with its own copy
    of its nodes and their coarse columns, so every block sums the same terms
    in the same order as alone; the first failing node raises.
    """
    blocks = [s.indices for s in sigmas]
    n_fine, n_coarse = mesh.fine.num_nodes, mesh.coarse.num_nodes
    keys, mass = assemble_mass(mesh, region=blocks, weight=weight)
    P = mesh.prolongation_matrix[keys % n_fine]
    # block b's copy of coarse node c is column b * n_coarse + c, renumbered ascending
    cols, inv = np.unique(np.repeat(keys // n_fine, np.diff(P.indptr)) * n_coarse + P.indices,
                          return_inverse=True)
    P = sparse.csr_matrix((P.data, inv, P.indptr), shape=(len(keys), len(cols)))
    gram = (P.T @ (mass @ P)).toarray()
    block, node = cols // n_coarse, cols % n_coarse
    hats = np.flatnonzero(np.diagonal(gram) > 0.0)  # grouped by block, own node first
    hats = hats[np.lexsort((hats, node[hats] != own[block[hats]], block[hats]))]
    hats = np.split(hats, np.cumsum(np.bincount(block[hats], minlength=len(own)))[:-1])
    supports, xis = [], []
    w = np.zeros(len(cols))
    for z, idx, h in zip(own, blocks, hats):
        if len(idx) == 0:
            raise DegenerateSigmaError("integration domain is empty")
        if len(h) == 0 or node[h[0]] != z:
            raise DegenerateSigmaError(f"own node {z} has no hat mass on the integration domain")
        M = gram[np.ix_(h, h)]
        cond = np.linalg.cond(M)
        if not np.isfinite(cond) or cond > CONDITION_LIMIT:
            raise DegenerateSigmaError(
                f"node {z}: dual system condition {cond:.3e} exceeds {CONDITION_LIMIT:.1e}"
            )
        xis.append(np.linalg.solve(M, np.eye(len(h))[0]))
        supports.append(node[h])
        w[h] = xis[-1]
    vals = mass @ (P @ w)
    nz = np.flatnonzero(vals)
    indptr = np.append(0, np.cumsum(np.bincount(keys[nz] // n_fine, minlength=len(own))))
    rows = sparse.csr_matrix((vals[nz], keys[nz] % n_fine, indptr), shape=(len(own), n_fine))
    return supports, xis, rows


def kappa(mesh: MeshHierarchy, sigma, own_node):
    """Dual-basis stability constant kappa = H^{d/2} ||psi||_{L2(sigma)} (d = 2)."""
    return float(np.sqrt(mesh.H**2 * dual_basis(mesh, [sigma], np.array([own_node]))[1][0][0]))


def _node_variables(mesh, classes, sigmas, weight=None):
    """The free nodes' variables on their sigmas, kappa only without weight, and the
    operator matrix of their rows, built DUAL_CHUNK nodes to one ``dual_basis`` call."""
    free = mesh.free_coarse_nodes
    nodevars, rows = [], []
    for a in range(0, len(free), DUAL_CHUNK):
        part = slice(a, a + DUAL_CHUNK)
        supports, xis, R = dual_basis(mesh, sigmas[part], free[part], weight)
        rows.append(R)
        for z, cls, sigma, support, xi in zip(free[part], classes[part], sigmas[part], supports, xis):
            k = float(np.sqrt(mesh.H**2 * xi[0])) if weight is None else float("nan")
            nodevars.append(NodeVariable(int(z), cls, sigma, support, xi, k))
    return nodevars, sparse.vstack(rows, format="csr")


def _incident_fine_elements(mesh, z):
    return mesh.fine.elements_of_node(mesh.coarse_node_to_fine(z))


def _reachable(mesh, allowed, seeds, values=None):
    """Ascending indices of the fine elements reachable from the allowed seeds by edge steps.

    Every step stays inside the ``allowed`` mask; with ``values`` given,
    a step from E to its neighbor N is taken only when
    values[N] <= values[E].
    """
    idx, graph = mesh.fine.element_graph(allowed, values)
    seeds = np.atleast_1d(seeds)
    reached = np.zeros(len(idx), dtype=bool)
    for s in np.searchsorted(idx, seeds[allowed[seeds]]):
        if not reached[s]:
            reached[csgraph.breadth_first_order(graph, s, return_predecessors=False)] = True
    return idx[reached]


def classify_nodes_ih(mesh: MeshHierarchy, coef: Coefficient, delta):
    """Class I/II node variables for the geometry-induced family, and their rows of R.

    A free node all of whose incident fine elements carry the small value
    is class II with sigma the delta-scaled node patch.  Otherwise it is
    class I: starting from the lexicographically first incident value-1
    element, sigma collects every fine element of the node patch
    reachable through edge-incident value-1 elements.
    """
    classes, sigmas = [], []
    for z in mesh.free_coarse_nodes:
        incident = _incident_fine_elements(mesh, z)
        flagged = incident[coef.is_one[incident]]
        if len(flagged) == 0:
            sigma = scaled_node_patch(mesh, z, delta)
            cls = "II"
        else:
            allowed = mesh.fine_set(node_patch(mesh, z)).mask(mesh.fine.num_elements) & coef.is_one
            sigma = ElementSet(mesh.fine_level, _reachable(mesh, allowed, flagged.min()))
            cls = "I"
        classes.append(cls)
        sigmas.append(sigma)
    return _node_variables(mesh, classes, sigmas)


def quasi_monotone_region(mesh: MeshHierarchy, coef: Coefficient, z) -> ElementSet:
    """Largest BFS-reachable subregion of U(z) with quasi-monotone coefficient.

    Traversal starts from every fine element incident to z and steps
    from E to an edge neighbor N only when A(N) <= A(E), so each reached
    element has a coefficient-nondecreasing path back to the node.
    """
    allowed = mesh.fine_set(node_patch(mesh, z)).mask(mesh.fine.num_elements)
    reached = _reachable(mesh, allowed, _incident_fine_elements(mesh, z), coef.values())
    return ElementSet(mesh.fine_level, reached)


def build_operator(kind, mesh: MeshHierarchy, coef: Coefficient, delta=None) -> InterpOperator:
    """Construct one of the six operators as a sparse fine-to-coarse map.

    ``delta`` scales the class II integration domains of ``IH`` (default
    1/4); ``IH1`` always uses the full node patch (delta = 1), and the
    other kinds have no class II nodes, so both ignore it.
    """
    if kind not in OPERATOR_KINDS:
        raise ParameterError(f"unknown operator kind {kind!r}; choose from {OPERATOR_KINDS}")
    free = mesh.free_coarse_nodes

    if kind == "nodal":
        rows = np.arange(len(free))
        cols = np.array([mesh.coarse_node_to_fine(z) for z in free])
        R = sparse.csr_matrix(
            (np.ones(len(free)), (rows, cols)), shape=(len(free), mesh.fine.num_nodes)
        )
        return InterpOperator(kind, R, free)

    if kind == "IH1":
        delta = Fraction(1)
    elif kind == "IH" and delta is None:
        delta = Fraction(1, 4)
    elif kind != "IH":
        delta = None
    try:
        if kind in ("IH", "IH1"):
            nodevars, R = classify_nodes_ih(mesh, coef, delta)
        else:
            sigmas = [quasi_monotone_region(mesh, coef, z) if kind == "AprojQM"
                      else mesh.fine_set(node_patch(mesh, z)) for z in free]
            weight = None if kind == "SZ" else coef
            nodevars, R = _node_variables(mesh, ["plain"] * len(free), sigmas, weight)
    except DegenerateSigmaError as exc:
        raise DegenerateSigmaError(f"{kind}: {exc}") from exc
    return InterpOperator(kind, R, free, node_variables=nodevars, delta=delta)


@dataclass
class CoverageReport:
    """Practical check that class-I domains reach every value-1 component."""

    omega1_area: float
    covered_area_fraction: float
    uncovered_components: int
    max_kappa_by_class: dict


def coverage_report(mesh: MeshHierarchy, coef: Coefficient, nodevars) -> CoverageReport:
    area = mesh.h**2 / 2.0
    omega1_area = float(coef.is_one.sum()) * area
    class_i = [nv for nv in nodevars if nv.cls == "I"]
    covered = np.zeros(mesh.fine.num_elements, dtype=bool)
    for nv in class_i:
        covered[nv.sigma.indices] = True
    if omega1_area == 0.0:
        frac, uncovered = 1.0, 0
    else:
        frac = float((covered & coef.is_one).sum()) / float(coef.is_one.sum())
        labeling = connected_components(mesh, coef, True)
        uncovered = labeling.count - len(np.unique(labeling.labels[covered & coef.is_one]))
    max_kappa = {}
    for nv in nodevars:
        if np.isfinite(nv.kappa):
            max_kappa[nv.cls] = max(max_kappa.get(nv.cls, 0.0), nv.kappa)
    return CoverageReport(omega1_area, frac, uncovered, max_kappa)


def node_variable_table(nodevars):
    """Rows (node, class, sigma element count, kappa) for the diagnostics CSV."""
    return [(nv.node, nv.cls, len(nv.sigma), nv.kappa) for nv in nodevars]
