"""Quasi-interpolation operators as sparse fine-to-coarse maps.

Six operator kinds are available.  Four are dual-basis constructions
that differ only in the integration domain sigma of each node variable:
``SZ`` uses the full node patch, ``IH`` and ``IH1`` pick sigma from the
coefficient geometry (a connected subset of the value-1 region for
class I nodes, a delta-scaled node patch for class II nodes, with
delta = 1/4 and 1 respectively), and ``nodal`` degenerates to point
evaluation.  ``Aproj`` evaluates the coefficient-weighted local L2
projection onto the coarse space at the node, and ``AprojQM`` restricts
that projection to a quasi-monotone subregion of the patch.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.sparse as sparse

from .assembly import assemble_mass
from .coefficient import Coefficient, connected_components
from .errors import DegenerateSigmaError, ParameterError
from .mesh import ElementSet, MeshHierarchy, node_patch, scaled_node_patch

OPERATOR_KINDS = ("SZ", "nodal", "IH", "IH1", "Aproj", "AprojQM")
DUAL_BASIS_KINDS = ("SZ", "IH", "IH1")
CONDITION_LIMIT = 1e14


@dataclass
class NodeVariable:
    """One coarse node's integration domain, dual weights and stability constant."""

    node: int
    cls: str  # "I", "II" or "plain"
    sigma: ElementSet
    support_nodes: np.ndarray  # coarse nodes whose hats meet sigma, own node first
    xi: np.ndarray
    kappa: float


@dataclass
class InterpOperator:
    """Sparse linear map from fine nodal values to free-coarse nodal values."""

    kind: str
    matrix: sparse.csr_matrix  # (free coarse nodes) x (fine nodes)
    free_nodes: np.ndarray
    node_variables: list | None = None
    delta: Fraction | None = None

    def apply(self, v):
        return self.matrix @ v


def _coarse_gram(mesh, sigma_indices, own_node, weight=None):
    """Gram matrix of the coarse hats with positive (weighted) mass on sigma."""
    M_fine = assemble_mass(mesh, region=sigma_indices, weight=weight)
    P = mesh.prolongation_matrix
    Mc = (P.T @ (M_fine @ P)).tocsr()
    diag = Mc.diagonal()
    support = np.flatnonzero(diag > 0.0)
    if own_node not in support:
        raise DegenerateSigmaError(
            f"own node {own_node} has no hat mass on the integration domain"
        )
    order = np.concatenate([[own_node], support[support != own_node]])
    M = Mc[np.ix_(order, order)].toarray()
    return order.astype(np.int64), M


def _solve_dual(M, what):
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise DegenerateSigmaError(
            f"{what}: dual system condition {cond:.3e} exceeds {CONDITION_LIMIT:.1e}"
        )
    e1 = np.zeros(M.shape[0])
    e1[0] = 1.0
    return np.linalg.solve(M, e1)


def dual_basis(mesh: MeshHierarchy, sigma, own_node):
    """L2(sigma)-dual weights of the own node's hat against all hats meeting sigma.

    Solves M xi = e_1 with M the Gram matrix of the coarse hats on
    sigma, own node ordered first; then psi = sum_k xi_k phi_k satisfies
    int_sigma psi phi_j = delta_1j.
    """
    idx = sigma.indices if isinstance(sigma, ElementSet) else np.asarray(sigma)
    if len(idx) == 0:
        raise DegenerateSigmaError("integration domain is empty")
    support, M = _coarse_gram(mesh, idx, own_node)
    xi = _solve_dual(M, f"node {own_node}")
    return support, xi


def kappa(mesh: MeshHierarchy, sigma, own_node):
    """Dual-basis stability constant kappa = H^{d/2} ||psi||_{L2(sigma)} (d = 2)."""
    return _dual_node_variable(mesh, own_node, "plain", sigma).kappa


def _dual_node_variable(mesh, z, cls, sigma):
    support, xi = dual_basis(mesh, sigma, z)
    return NodeVariable(int(z), cls, sigma, support, xi, float(np.sqrt(mesh.H**2 * xi[0])))


def _incident_fine_elements(mesh, z):
    return mesh.fine.elements_of_node(mesh.coarse_node_to_fine(z))


def _reachable(mesh, allowed, seeds, values=None):
    """Mask of the fine elements reachable from the allowed seeds by edge steps.

    Every step stays inside the ``allowed`` mask; with ``values`` given,
    a step from E to its neighbor N is taken only when
    values[N] <= values[E].
    """
    neighbors = mesh.fine.edge_neighbors
    visited = np.zeros(mesh.fine.num_elements, dtype=bool)
    queue = deque()
    for s in np.atleast_1d(seeds):
        if allowed[s] and not visited[s]:
            visited[s] = True
            queue.append(int(s))
    while queue:
        e = queue.popleft()
        for nb in neighbors[e]:
            if (nb >= 0 and allowed[nb] and not visited[nb]
                    and (values is None or values[nb] <= values[e])):
                visited[nb] = True
                queue.append(int(nb))
    return visited


def classify_nodes_ih(mesh: MeshHierarchy, coef: Coefficient, delta) -> list:
    """Class I/II node variables for the geometry-induced operator family.

    A free node all of whose incident fine elements carry the small value
    is class II with sigma the delta-scaled node patch.  Otherwise it is
    class I: starting from the lexicographically first incident value-1
    element, sigma collects every fine element of the node patch
    reachable through edge-incident value-1 elements.
    """
    nodevars = []
    for z in mesh.free_coarse_nodes:
        incident = _incident_fine_elements(mesh, z)
        flagged = incident[coef.is_one[incident]]
        if len(flagged) == 0:
            sigma = scaled_node_patch(mesh, z, delta)
            cls = "II"
        else:
            patch_fine = mesh.fine_set(node_patch(mesh, z))
            allowed = patch_fine.mask(mesh.fine.num_elements) & coef.is_one
            reached = _reachable(mesh, allowed, flagged.min())
            sigma = ElementSet(mesh.fine_level, np.flatnonzero(reached))
            cls = "I"
        nodevars.append(_dual_node_variable(mesh, z, cls, sigma))
    return nodevars


def quasi_monotone_region(mesh: MeshHierarchy, coef: Coefficient, z) -> ElementSet:
    """Largest BFS-reachable subregion of U(z) with quasi-monotone coefficient.

    Traversal starts from every fine element incident to z and steps
    from E to an edge neighbor N only when A(N) <= A(E), so each reached
    element has a coefficient-nondecreasing path back to the node.
    """
    allowed = mesh.fine_set(node_patch(mesh, z)).mask(mesh.fine.num_elements)
    reached = _reachable(mesh, allowed, _incident_fine_elements(mesh, z), coef.values())
    return ElementSet(mesh.fine_level, np.flatnonzero(reached))


def is_quasi_monotone(mesh: MeshHierarchy, coef: Coefficient, region, z) -> bool:
    """True iff every region element reaches a z-incident one along a path
    (inside the region) with nondecreasing coefficient."""
    idx = region.indices if isinstance(region, ElementSet) else np.asarray(region)
    if len(idx) == 0:
        return True
    in_region = np.zeros(mesh.fine.num_elements, dtype=bool)
    in_region[idx] = True
    # reverse traversal of a nondecreasing path toward z
    reached = _reachable(mesh, in_region, _incident_fine_elements(mesh, z), coef.values())
    return bool(reached[idx].all())


def _dual_basis_rows(mesh, nodevars, weight=None):
    rows, cols, vals = [], [], []
    P = mesh.prolongation_matrix
    for row_idx, nv in enumerate(nodevars):
        M_fine = assemble_mass(mesh, region=nv.sigma.indices, weight=weight)
        w = np.zeros(mesh.coarse.num_nodes)
        w[nv.support_nodes] = nv.xi
        row = M_fine @ (P @ w)
        nz = np.flatnonzero(row)
        rows.append(np.full(len(nz), row_idx))
        cols.append(nz)
        vals.append(row[nz])
    return rows, cols, vals


def build_operator(kind, mesh: MeshHierarchy, coef: Coefficient, delta=None) -> InterpOperator:
    """Construct one of the six operators as a sparse fine-to-coarse map.

    ``delta`` scales the class II integration domains of ``IH`` (default
    1/4); ``IH1`` always uses the full node patch (delta = 1), and the
    other kinds have no class II nodes, so both ignore it.
    """
    if kind not in OPERATOR_KINDS:
        raise ParameterError(f"unknown operator kind {kind!r}; choose from {OPERATOR_KINDS}")
    free = mesh.free_coarse_nodes
    n_fine = mesh.fine.num_nodes

    if kind == "nodal":
        rows = np.arange(len(free))
        cols = np.array([mesh.coarse_node_to_fine(z) for z in free])
        R = sparse.csr_matrix(
            (np.ones(len(free)), (rows, cols)), shape=(len(free), n_fine)
        )
        return InterpOperator(kind, R, free)

    if kind == "IH1":
        delta = Fraction(1)
    elif kind == "IH" and delta is None:
        delta = Fraction(1, 4)
    elif kind != "IH":
        delta = None
    weight = None
    if kind == "SZ":
        nodevars = [
            _dual_node_variable(mesh, z, "plain", mesh.fine_set(node_patch(mesh, z)))
            for z in free
        ]
    elif kind in ("IH", "IH1"):
        nodevars = classify_nodes_ih(mesh, coef, delta)
    else:  # Aproj / AprojQM: coefficient-weighted local projections
        weight = coef
        nodevars = []
        for z in free:
            if kind == "Aproj":
                region = mesh.fine_set(node_patch(mesh, z))
            else:
                region = quasi_monotone_region(mesh, coef, z)
            support, G = _coarse_gram(mesh, region.indices, z, weight=coef)
            xi = _solve_dual(G, f"node {z} ({kind})")
            nodevars.append(
                NodeVariable(int(z), "plain", region, support, xi, float("nan"))
            )
    rows, cols, vals = _dual_basis_rows(mesh, nodevars, weight)

    R = sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(free), n_fine),
    )
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
        uncovered = 0
        for label in range(labeling.count):
            members = labeling.component_elements(label)
            if not covered[members].any():
                uncovered += 1
    max_kappa = {}
    for nv in nodevars:
        if np.isfinite(nv.kappa):
            max_kappa[nv.cls] = max(max_kappa.get(nv.cls, 0.0), nv.kappa)
    return CoverageReport(omega1_area, frac, uncovered, max_kappa)


def node_variable_table(nodevars):
    """Rows (node, class, sigma element count, kappa) for the diagnostics CSV."""
    return [(nv.node, nv.cls, len(nv.sigma), nv.kappa) for nv in nodevars]
