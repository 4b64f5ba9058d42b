"""Two-valued coefficients on the fine mesh and the experiment geometries.

A coefficient takes the value 1 on a subdomain (the ``is_one`` elements)
and alpha in (0,1] elsewhere.  Three generators ship with the package:
horizontal stripes centered on the 1/16-spaced node rows, random balls
on the 17x17 lattice, and a smoothed thresholded random field.  Random
draws come from the Philox 4x64 counter-based generator keyed by the
seed, so equal (kind, seed, parameters) always reproduce bit-identical
flag vectors; draw order is documented per generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csgraph

from .errors import ParameterError
from .mesh import MeshHierarchy

STRIPE_SPACING = 1.0 / 16.0
STRIPE_HALF_WIDTH = 1.0 / 256.0
BALL_LATTICE = 16  # ball centers sit on the H = 2^-4 node lattice


@dataclass(frozen=True)
class Coefficient:
    """Per-fine-element coefficient value in {1, alpha}."""

    alpha: float
    is_one: np.ndarray
    _values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (0.0 < self.alpha <= 1.0):
            raise ParameterError(f"alpha must be in (0, 1], got {self.alpha}")
        object.__setattr__(self, "is_one", np.asarray(self.is_one, dtype=bool))
        values = np.where(self.is_one, 1.0, self.alpha)
        values.flags.writeable = False
        object.__setattr__(self, "_values", values)

    def values(self):
        """Per-fine-element values, one read-only array shared by all calls."""
        return self._values


@dataclass(frozen=True)
class ComponentLabeling:
    """Edge-connected components of the flagged (or unflagged) fine elements."""

    labels: np.ndarray  # -1 for elements outside the queried flag set
    count: int


def check_parameters(seed=0, smoothing_passes=6, one_fraction=0.5):
    """Raise ``ParameterError`` unless the random generators accept these values."""
    if not 0 <= seed < 2**64:
        raise ParameterError(f"seed must be in [0, 2^64), got {seed}")
    if smoothing_passes < 0:
        raise ParameterError(f"smoothing_passes must be >= 0, got {smoothing_passes}")
    if not (0.0 <= one_fraction <= 1.0):
        raise ParameterError(f"one_fraction must be in [0, 1], got {one_fraction}")


def check_stripes_resolution(h):
    """Raise ``ParameterError`` unless stripes on fine mesh width h stay disjoint (h <= 1/64)."""
    if h > 1.0 / 64.0 + 1e-15:
        raise ParameterError(f"stripes need h <= 1/64 to stay disjoint, got h = {h}")


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=np.uint64(seed)))


def gen_stripes(mesh: MeshHierarchy, alpha) -> Coefficient:
    """Horizontal stripes of nominal width 1/128 centered on the rows y = j/16.

    On meshes with h > 1/256 the nominal width is not resolvable; the
    stripe then degrades gracefully to the two fine-element rows
    adjacent to each center line (half-width max(1/256, h)), which keeps
    every center-line node's incident elements flagged and the fifteen
    stripes disjoint.  Requires h <= 1/64.
    """
    check_stripes_resolution(mesh.h)
    half = max(STRIPE_HALF_WIDTH, mesh.h)
    bary_y = mesh.fine.barycenters()[:, 1]
    flags = np.zeros(mesh.fine.num_elements, dtype=bool)
    for j in range(1, 16):
        flags |= np.abs(bary_y - j * STRIPE_SPACING) <= half
    return Coefficient(alpha, flags)


def _balls_from_draws(mesh: MeshHierarchy, alpha, keep, radius) -> Coefficient:
    bary = mesh.fine.barycenters()
    flags = np.zeros(mesh.fine.num_elements, dtype=bool)
    nodes = [
        (i / BALL_LATTICE, j / BALL_LATTICE)
        for j in range(BALL_LATTICE + 1)
        for i in range(BALL_LATTICE + 1)
    ]
    for (cx, cy), kept, r in zip(nodes, keep, radius):
        if not kept:
            continue
        d2 = (bary[:, 0] - cx) ** 2 + (bary[:, 1] - cy) ** 2
        flags |= d2 <= r * r
    return Coefficient(alpha, flags)


def gen_random_balls(mesh: MeshHierarchy, alpha, seed) -> Coefficient:
    """Random balls centered on the 17x17 node lattice of the H=1/16 grid.

    Nodes are visited in row-major order from the bottom-left corner;
    each consumes two uniform draws (keep with probability 1/2, then a
    radius in [1/128, 8/128]), whether or not the ball is kept.
    """
    check_parameters(seed)
    n_nodes = (BALL_LATTICE + 1) ** 2
    u = _rng(seed).random(2 * n_nodes)
    keep = u[0::2] < 0.5
    radius = 1.0 / 128.0 + u[1::2] * (7.0 / 128.0)
    return _balls_from_draws(mesh, alpha, keep, radius)


def gen_random_field(
    mesh: MeshHierarchy, alpha, seed, smoothing_passes=6, one_fraction=0.5
) -> Coefficient:
    """Spatially correlated random field, thresholded to a target area share.

    Per-square-cell i.i.d. uniform noise (row-major draw order) is
    smoothed ``smoothing_passes`` times with the 5-point stencil
    (neighbors past the boundary reflect onto the edge cell), then the
    ``round(one_fraction * ncells)`` cells with the smallest values are
    flagged; both triangles of a cell share its flag.
    """
    check_parameters(seed, smoothing_passes, one_fraction)
    n = mesh.fine.n
    cells = _rng(seed).random(n * n).reshape(n, n)  # [row j, column i]
    for _ in range(smoothing_passes):
        p = np.pad(cells, 1, mode="edge")
        cells = (p[1:-1, 1:-1] + p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:]) / 5.0
    m = int(round(one_fraction * n * n))
    cell_flags = np.zeros(n * n, dtype=bool)
    if m > 0:
        cell_flags[np.argpartition(cells.ravel(), m - 1)[:m]] = True
    flags = np.repeat(cell_flags, 2)
    return Coefficient(alpha, flags)


def connected_components(mesh: MeshHierarchy, coef: Coefficient, flag=True) -> ComponentLabeling:
    """Label edge-connected components of the fine elements with the given flag."""
    idx, graph = mesh.fine.element_graph(coef.is_one == flag)
    count, sub_labels = csgraph.connected_components(graph, directed=False)
    labels = np.full(mesh.fine.num_elements, -1, dtype=np.int64)
    labels[idx] = sub_labels
    return ComponentLabeling(labels, count)


def save_pgm(mesh: MeshHierarchy, coef: Coefficient, path):
    """Write a binary PGM image, one pixel per fine square cell.

    Pixel 0 (black) marks cells whose two triangles are both flagged,
    255 (white) everything else; rows run from the top of the domain
    downward.  Round-trips exactly for cell-constant coefficients.
    """
    n = mesh.fine.n
    both = coef.is_one[0::2] & coef.is_one[1::2]
    img = np.where(both.reshape(n, n), 0, 255).astype(np.uint8)
    img = img[::-1]  # top row first
    with open(path, "wb") as fh:
        fh.write(f"P5\n{n} {n}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def load_pgm(mesh: MeshHierarchy, path, alpha) -> Coefficient:
    """Read a PGM written by save_pgm back into a Coefficient."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ParameterError(f"cannot read PGM {path}: {exc}") from exc
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    if fields[0] != b"P5":
        raise ParameterError(f"{path}: not a binary PGM (P5) file")
    try:
        width, height, maxval = (int(f) for f in fields[1:4])
    except ValueError as exc:
        raise ParameterError(f"{path}: truncated or non-numeric PGM header") from exc
    pos += 1  # single whitespace after maxval
    n = mesh.fine.n
    if (width, height) != (n, n):
        raise ParameterError(
            f"{path}: image is {width}x{height}, mesh expects {n}x{n}"
        )
    if maxval != 255:
        raise ParameterError(f"{path}: expected maxval 255, got {maxval}")
    raster = np.frombuffer(data[pos : pos + width * height], dtype=np.uint8)
    if raster.size != width * height:
        raise ParameterError(f"{path}: truncated raster data")
    img = raster.reshape(height, width)[::-1]
    cell_flags = img.ravel() < 128
    return Coefficient(alpha, np.repeat(cell_flags, 2))
