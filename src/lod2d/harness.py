"""Experiment driver: config files, error sweeps, CSV tables and SVG plots.

Configs are flat UTF-8 ``key = value`` files.  ``CONFIG_KEYS`` is the
whole schema: it maps each key to the parser of its raw text, and a
value that parser rejects ends in a ``ParameterError`` naming the key;
unknown, duplicate and empty keys are rejected too.
``ExperimentConfig`` validates the parsed values and builds the mesh
and the coefficient that every CLI subcommand works on.

A sweep runs every (operator, alpha, k) cell against one cached fine
reference solution per alpha and writes a CSV sorted by (operator,
alpha, k).  The operators that read the coefficient only through its
``is_one`` mask are built once per distinct mask and shared by every
alpha with that mask; the coefficient-weighted ones are built per
alpha.  Cells that fail numerically become ``failed`` rows rather than
aborting the run.  Timings are recorded only when
``record_timings`` is enabled, so default runs are byte-reproducible.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import coefficient as coefmod
from .assembly import BilinearFormContext, LoadSpec
from .errors import ParameterError, SolverError
from .interp import ALPHA_FREE_KINDS, OPERATOR_KINDS, build_operator
from .lod import _worker_count, relative_energy_error, reference_solution, solve_multiscale
from .mesh import BoundarySpec, EDGE_NAMES, build_hierarchy, delta_steps, level_ratio

CSV_HEADER = "operator,alpha,k,H,h,rel_energy_error,wall_time_s,seed,status"
# part of every reference-cache key: bump it when the stored array's meaning changes
REFERENCE_FORMAT = 1

COEFFICIENT_KINDS = ("stripes", "balls", "field")


def _tuple(item):
    return lambda raw: tuple(item(v.strip()) for v in raw.split(","))


def _bool(raw):
    if raw.lower() in ("true", "1", "yes", "on"):
        return True
    if raw.lower() in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw}")


def _edges(raw):
    return tuple(EDGE_NAMES) if raw == "all" else _tuple(str)(raw)


def _load(raw):
    tag, _, rest = raw.partition(":")
    if tag == "const":
        return LoadSpec.constant(float(rest or "1"))
    if tag == "rect":
        vals = [float(v) for v in rest.split(",")]
        if len(vals) != 4:
            raise ValueError("rect needs x0,x1,y0,y1")
        return LoadSpec.rectangle(*vals)
    if tag == "hat":
        vals = [float(v) for v in rest.split(",")]
        if len(vals) != 2:
            raise ValueError("hat needs x,y")
        return LoadSpec.hat(*vals)
    raise ValueError(f"unknown load kind {tag!r}")


# key -> parser of its raw text; a ValueError or ZeroDivisionError names the key
CONFIG_KEYS = {
    "coarse_level": int,
    "fine_level": int,
    "coefficient": str,
    "alpha": _tuple(float),
    "seed": int,
    "smoothing_passes": int,
    "one_fraction": float,
    "dirichlet": _edges,
    "f": _load,
    "operators": _tuple(str),
    "k": _tuple(int),
    "rhs_correction": _bool,
    "delta": Fraction,
    "csv": str,
    "svg_prefix": str,
    "cache_dir": str,
    "record_timings": _bool,
}


def parse_config_text(text) -> dict:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ParameterError(f"config line {lineno}: expected key = value")
        key, _, raw = stripped.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in CONFIG_KEYS:
            raise ParameterError(f"unknown config key {key!r} (line {lineno})")
        if key in values:
            raise ParameterError(f"duplicate config key {key!r} (line {lineno})")
        if not raw:
            raise ParameterError(f"config key {key!r} has an empty value (line {lineno})")
        try:
            values[key] = CONFIG_KEYS[key](raw)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParameterError(f"config key {key!r}: {exc}") from exc
    return values


def parse_config(path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated sweep description."""

    coarse_level: int
    fine_level: int
    coefficient: str
    alphas: tuple
    operators: tuple
    ks: tuple
    f: LoadSpec
    dirichlet: tuple = tuple(EDGE_NAMES)
    seed: int = 0
    smoothing_passes: int = 6
    one_fraction: float = 0.5
    rhs_correction: bool = True
    delta: Fraction | None = None  # None: the operator's own default
    csv: str | None = None
    svg_prefix: str | None = None
    cache_dir: str | None = None
    record_timings: bool = False

    def __post_init__(self):
        if self.coefficient not in COEFFICIENT_KINDS:
            raise ParameterError(
                f"coefficient must be one of {COEFFICIENT_KINDS}, got {self.coefficient!r}"
            )
        for name, seq in (("operators", self.operators), ("alpha", self.alphas), ("k", self.ks)):
            if not seq:
                raise ParameterError(f"config list {name!r} must be nonempty")
            if len(set(seq)) != len(seq):
                raise ParameterError(f"config list {name!r} contains duplicates")
        for op in self.operators:
            if op not in OPERATOR_KINDS:
                raise ParameterError(f"unknown operator {op!r}")
        for a in self.alphas:
            if not (0.0 < a <= 1.0):
                raise ParameterError(f"alpha values must be in (0, 1], got {a}")
        for k in self.ks:
            if k < 1:
                raise ParameterError(f"k values must be >= 1, got {k}")
        for key in ("csv", "svg_prefix", "cache_dir"):
            if "\0" in (getattr(self, key) or ""):
                raise ParameterError(f"config key {key!r} contains a NUL byte")
        if not self.dirichlet:
            raise ParameterError("dirichlet boundary must be nonempty")
        BoundarySpec.edges(*self.dirichlet)  # validates edge names
        coefmod.check_parameters(self.seed, self.smoothing_passes, self.one_fraction)
        ratio = level_ratio(self.coarse_level, self.fine_level)
        if self.coefficient == "stripes":
            coefmod.check_stripes_resolution(2.0**-self.fine_level)
        if self.delta is not None:
            delta_steps(self.delta, ratio)
        self.f.validate(2**self.fine_level, self.dirichlet)

    @classmethod
    def from_mapping(cls, values: dict) -> "ExperimentConfig":
        """Config from parsed ``key = value`` pairs; absent optional keys take the field defaults."""
        required = ("coarse_level", "fine_level", "coefficient", "alpha", "operators", "k", "f")
        missing = [key for key in required if key not in values]
        if missing:
            raise ParameterError(f"config is missing required keys: {missing}")
        fields = {"alpha": "alphas", "k": "ks"}
        return cls(**{fields.get(key, key): value for key, value in values.items()})

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        return cls.from_mapping(parse_config(path))

    def mesh(self):
        return build_hierarchy(
            self.coarse_level, self.fine_level, BoundarySpec.edges(*self.dirichlet)
        )

    def coefficient_at(self, mesh, alpha):
        """The configured coefficient on mesh at contrast alpha."""
        if self.coefficient == "stripes":
            return coefmod.gen_stripes(mesh, alpha)
        if self.coefficient == "balls":
            return coefmod.gen_random_balls(mesh, alpha, self.seed)
        return coefmod.gen_random_field(
            mesh, alpha, self.seed,
            smoothing_passes=self.smoothing_passes, one_fraction=self.one_fraction,
        )

    def sweep_cells(self):
        return [
            (op, alpha, k)
            for op in self.operators
            for alpha in self.alphas
            for k in self.ks
        ]


@dataclass
class ResultRow:
    operator: str
    alpha: float
    k: int
    H: float
    h: float
    rel_energy_error: float
    wall_time_s: float
    seed: int
    status: str

    def csv_line(self):
        return ",".join(
            [
                self.operator,
                _fmt(self.alpha),
                str(self.k),
                _fmt(self.H),
                _fmt(self.h),
                _fmt(self.rel_energy_error),
                _fmt(self.wall_time_s),
                str(self.seed),
                self.status,
            ]
        )


def _fmt(x):
    return f"{float(x):.17g}"


def _reference_cache_key(config: ExperimentConfig, alpha):
    payload = {
        "format": REFERENCE_FORMAT,
        "coarse_level": config.coarse_level,
        "fine_level": config.fine_level,
        "coefficient": config.coefficient,
        "seed": config.seed,
        "smoothing_passes": config.smoothing_passes,
        "one_fraction": config.one_fraction,
        "dirichlet": sorted(config.dirichlet),
        "f": config.f.describe(),
        "alpha": repr(alpha),
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _cached_reference(config, ctx, alpha):
    """Reference solution from the cache, rebuilt when missing or unreadable, or
    when the entry is not a .npy file of a finite float64 array of the fine
    mesh's size (an .npz archive or a pickle is rebuilt too).

    Entries are written to a temporary file and renamed into place, so
    a reader never sees a partly written one.
    """
    if not config.cache_dir:
        return reference_solution(ctx, config.f)
    cache = Path(config.cache_dir)
    path = cache / f"ref_{_reference_cache_key(config, alpha)}.npy"
    try:
        with open(path, "rb") as fh:
            u = np.lib.format.read_array(fh)
        if u.dtype == np.float64 and u.shape == (ctx.mesh.fine.num_nodes,) and np.isfinite(u).all():
            return u
    except (OSError, ValueError, EOFError):
        pass
    u = reference_solution(ctx, config.f)
    with tempfile.NamedTemporaryFile(dir=cache, suffix=".tmp", delete=False) as fh:
        np.save(fh, u)
    os.replace(fh.name, path)
    return u


def _prepare_outputs(config: ExperimentConfig):
    """Create the output directories; a csv path that is a directory, or a cache_dir
    that is, or lies under, a file, is an error."""
    if config.csv and Path(config.csv).is_dir():
        raise ParameterError(f"csv path {config.csv} is a directory")
    if config.cache_dir:
        try:
            Path(config.cache_dir).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ParameterError(f"cache_dir {config.cache_dir} is not a usable directory: {exc}") from exc
    for path in (config.csv, config.svg_prefix and f"{config.svg_prefix}.svg"):
        if path:
            Path(path).parent.mkdir(parents=True, exist_ok=True)


def run_experiment(config: ExperimentConfig):
    """Run the full sweep; returns the sorted result rows and writes the CSV.

    The outputs are prepared first, so an unwritable path costs no solve.
    """
    workers = _worker_count()
    _prepare_outputs(config)
    mesh = config.mesh()

    contexts, references = {}, {}
    operators = {}  # (kind, alpha) -> the operator, or the error its build raised
    alpha_free = {}  # is_one mask bytes -> {kind: operator or error}
    for alpha in config.alphas:
        coef = config.coefficient_at(mesh, alpha)
        ctx = BilinearFormContext(mesh, coef)
        contexts[alpha] = ctx
        references[alpha] = _cached_reference(config, ctx, alpha)
        shared = alpha_free.setdefault(coef.is_one.tobytes(), {})
        for kind in config.operators:
            built = shared if kind in ALPHA_FREE_KINDS else {}
            if kind not in built:
                try:
                    built[kind] = build_operator(kind, mesh, coef, delta=config.delta)
                except (ParameterError, SolverError, np.linalg.LinAlgError) as exc:
                    built[kind] = exc
            operators[(kind, alpha)] = built[kind]

    def run_cell(cell):
        kind, alpha, k = cell
        start = time.perf_counter()
        try:
            op = operators[(kind, alpha)]
            if isinstance(op, Exception):
                raise op
            ctx = contexts[alpha]
            sol = solve_multiscale(ctx, op, k, config.f, rhs_correction=config.rhs_correction)
            err = relative_energy_error(ctx, references[alpha], sol.u_total)
            status = "ok"
        except (ParameterError, SolverError, np.linalg.LinAlgError):
            err, status = float("nan"), "failed"
        elapsed = time.perf_counter() - start if config.record_timings else 0.0
        return ResultRow(
            kind, alpha, k, mesh.H, mesh.h, err, elapsed, config.seed, status
        )

    cells = config.sweep_cells()
    if workers > 1 and len(cells) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(run_cell, cells))
    else:
        rows = [run_cell(cell) for cell in cells]

    rows.sort(key=lambda r: (r.operator, r.alpha, r.k))
    if config.csv:
        write_csv(config.csv, rows)
    if config.svg_prefix:
        emit_svg(rows, config.svg_prefix)
    return rows


def write_csv(path, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [CSV_HEADER] + [row.csv_line() for row in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_csv(path):
    try:
        lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read results CSV {path}: {exc}") from exc
    if not lines or lines[0] != CSV_HEADER:
        raise ParameterError(f"{path}: not a results CSV (bad header)")
    width = CSV_HEADER.count(",") + 1
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        try:
            if len(parts) != width:
                raise ValueError(f"expected {width} fields, got {len(parts)}")
            # the operator names an SVG file and is written into it
            if parts[0] not in OPERATOR_KINDS:
                raise ValueError(f"unknown operator {parts[0]!r}")
            if parts[8] not in ("ok", "failed"):
                raise ValueError(f"status must be ok or failed, got {parts[8]!r}")
            rows.append(
                ResultRow(
                    parts[0], float(parts[1]), int(parts[2]), float(parts[3]),
                    float(parts[4]), float(parts[5]), float(parts[6]),
                    int(parts[7]), parts[8],
                )
            )
        except ValueError as exc:
            raise ParameterError(f"{path} line {lineno}: {exc}") from exc
    return rows


# -- SVG output ----------------------------------------------------------------

_PALETTE = ("#1b6ca8", "#c0392b", "#27ae60", "#8e44ad", "#d68910", "#16a085",
            "#7f8c8d", "#2c3e50")
_WIDTH, _HEIGHT = 640, 480
_ML, _MR, _MT, _MB = 70, 30, 40, 55


def _svg_coords(k, log_err, k_range, y_range):
    kx0, kx1 = k_range
    y0, y1 = y_range
    fx = 0.5 if kx1 == kx0 else (k - kx0) / (kx1 - kx0)
    fy = 0.5 if y1 == y0 else (log_err - y0) / (y1 - y0)
    x = _ML + fx * (_WIDTH - _ML - _MR)
    y = _HEIGHT - _MB - fy * (_HEIGHT - _MT - _MB)
    return x, y


def _k_label(k):
    """A k tick label: k itself up to 6 digits, else two significant digits and an
    exponent ("1.3e399"), rounded from k's exact decimal string, never a float."""
    digits = str(k)
    return digits if len(digits) <= 6 else f"{Decimal(digits):.1e}".replace("e+", "e")


def _render_panel(operator, rows):
    """One self-contained SVG: log10 relative error against patch size."""
    pts = [
        (r.alpha, r.k, r.rel_energy_error)
        for r in rows
        if r.status == "ok" and np.isfinite(r.rel_energy_error) and r.rel_energy_error > 0
    ]
    alphas = sorted({p[0] for p in pts}, reverse=True)
    if pts:
        k_lo = min(p[1] for p in pts)
        k_hi = max(p[1] for p in pts)
        y_lo = float(np.floor(min(np.log10(p[2]) for p in pts)))
        y_hi = float(np.ceil(max(np.log10(p[2]) for p in pts)))
        if y_hi == y_lo:
            y_hi = y_lo + 1.0
    else:
        k_lo, k_hi, y_lo, y_hi = 1, 2, -8.0, 0.0

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{operator}: relative energy error vs k</text>',
    ]
    # axes
    x0, y0 = _svg_coords(k_lo, y_lo, (k_lo, k_hi), (y_lo, y_hi))
    x1, y1 = _svg_coords(k_hi, y_hi, (k_lo, k_hi), (y_lo, y_hi))
    out.append(
        f'<line x1="{x0:.1f}" y1="{y0:.1f}" x2="{x1:.1f}" y2="{y0:.1f}" stroke="black"/>'
    )
    out.append(
        f'<line x1="{x0:.1f}" y1="{y0:.1f}" x2="{x0:.1f}" y2="{y1:.1f}" stroke="black"/>'
    )
    # Fraction steps any integer k range; float division overflows past 1e308
    for k in range(int(k_lo), int(k_hi) + 1, max(1, round(Fraction(k_hi - k_lo, 8)))):
        x, _ = _svg_coords(k, y_lo, (k_lo, k_hi), (y_lo, y_hi))
        out.append(f'<line x1="{x:.1f}" y1="{y0:.1f}" x2="{x:.1f}" y2="{y0 + 5:.1f}" stroke="black"/>')
        out.append(
            f'<text x="{x:.1f}" y="{y0 + 20:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_k_label(k)}</text>'
        )
    dec = max(1, int(round((y_hi - y_lo) / 8)))
    lvl = y_lo
    while lvl <= y_hi + 1e-9:
        _, y = _svg_coords(k_lo, lvl, (k_lo, k_hi), (y_lo, y_hi))
        out.append(f'<line x1="{x0 - 5:.1f}" y1="{y:.1f}" x2="{x0:.1f}" y2="{y:.1f}" stroke="black"/>')
        out.append(
            f'<text x="{x0 - 8:.1f}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">1e{int(lvl)}</text>'
        )
        lvl += dec
    out.append(
        f'<text x="{(_ML + _WIDTH - _MR) / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">patch size k</text>'
    )
    # one polyline per alpha
    for idx, alpha in enumerate(alphas):
        color = _PALETTE[idx % len(_PALETTE)]
        series = sorted((p[1], p[2]) for p in pts if p[0] == alpha)
        coords = [
            _svg_coords(k, np.log10(e), (k_lo, k_hi), (y_lo, y_hi)) for k, e in series
        ]
        if len(coords) > 1:
            path = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
            out.append(f'<polyline points="{path}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        for x, y in coords:
            out.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3" fill="{color}"/>')
        ly = _MT + 14 * idx + 10
        out.append(f'<rect x="{_WIDTH - _MR - 130}" y="{ly - 8}" width="10" height="10" fill="{color}"/>')
        out.append(
            f'<text x="{_WIDTH - _MR - 115}" y="{ly + 1}" font-family="sans-serif" '
            f'font-size="12">alpha = {alpha:g}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def emit_svg(rows, prefix):
    """Write one SVG per operator (axes-only placeholder when there are no rows)."""
    # a prefix that ends in a path separator ("out/") names the panels' directory
    Path(f"{prefix}.svg").parent.mkdir(parents=True, exist_ok=True)
    paths = []
    operators = sorted({r.operator for r in rows})
    if not operators:
        path = Path(f"{prefix}empty.svg")
        path.write_text(_render_panel("no data", []), encoding="utf-8")
        return [path]
    for operator in operators:
        panel = _render_panel(operator, [r for r in rows if r.operator == operator])
        path = Path(f"{prefix}{operator}.svg")
        path.write_text(panel, encoding="utf-8")
        paths.append(path)
    return paths
