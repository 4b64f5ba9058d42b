"""Command line interface.

Subcommands: ``coef`` (generate a coefficient and save its PGM image),
``kappa`` (per-node stability table), ``run`` (full experiment sweep),
``plot`` (CSV to SVG), ``decay`` (corrector decay profile).  Every
subcommand that takes a config reads it as one validated
``ExperimentConfig``.  Exit codes: 0 success, 1 validation error or an
unreadable or unwritable file, 2 numerical failure.  Runs as the
``lod2d`` script, ``python -m lod2d`` or ``python -m lod2d.cli``.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from .assembly import BilinearFormContext
from .coefficient import save_pgm
from .errors import ParameterError, SolverError
from .harness import ExperimentConfig, emit_svg, read_csv, run_experiment
from .interp import DUAL_BASIS_KINDS, build_operator, node_variable_table
from .lod import decay_profile, element_corrector

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERICAL = 2


def _configured(args):
    """The validated config, its mesh and its coefficient at the first alpha."""
    config = ExperimentConfig.from_file(args.config)
    mesh = config.mesh()
    return config, mesh, config.coefficient_at(mesh, config.alphas[0])


def _write_lines(path, lines):
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")


def cmd_coef(args):
    _, mesh, coef = _configured(args)
    out = Path(args.output)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_pgm(mesh, coef, out)
    print(f"wrote {args.output}")
    return EXIT_OK


def cmd_kappa(args):
    config, mesh, coef = _configured(args)
    if args.operator not in DUAL_BASIS_KINDS:
        raise ParameterError(
            f"kappa table needs a dual-basis operator {DUAL_BASIS_KINDS}, got {args.operator!r}"
        )
    op = build_operator(args.operator, mesh, coef, delta=config.delta)
    lines = ["node,class,sigma_elements,kappa"]
    for node, cls, count, kap in node_variable_table(op.node_variables):
        lines.append(f"{node},{cls},{count},{kap:.17g}")
    _write_lines(args.output, lines)
    print(f"wrote {args.output} ({len(lines) - 1} nodes)")
    return EXIT_OK


def cmd_run(args):
    config = ExperimentConfig.from_file(args.config)
    if config.csv is None:
        raise ParameterError("run requires the 'csv' output path in the config")
    rows = run_experiment(config)
    failed = sum(1 for r in rows if r.status != "ok")
    print(f"wrote {config.csv} ({len(rows)} rows, {failed} failed)")
    if config.svg_prefix:
        print(f"wrote SVG panels with prefix {config.svg_prefix}")
    return EXIT_OK


def cmd_plot(args):
    rows = read_csv(args.csv)
    paths = emit_svg(rows, args.prefix)
    for p in paths:
        print(f"wrote {p}")
    return EXIT_OK


def cmd_decay(args):
    if args.k_max < 0:
        raise ParameterError(f"--k-max must be >= 0, got {args.k_max}")
    config, mesh, coef = _configured(args)
    T = args.element
    if T is None:
        nc = mesh.coarse.n
        T = 2 * ((nc // 2) * nc + nc // 2)  # central cell, lower triangle
    elif not 0 <= T < mesh.coarse.num_elements:
        raise ParameterError(f"--element {T} out of range [0, {mesh.coarse.num_elements})")
    ctx = BilinearFormContext(mesh, coef)
    kind = args.operator
    op = build_operator(kind, mesh, coef, delta=config.delta)
    verts = [int(v) for v in mesh.coarse.elements[T]]
    free = set(int(z) for z in op.free_nodes)
    nodes = [v for v in verts if v in free]
    if not nodes:
        raise ParameterError(f"element {T} has no free vertex")
    i = nodes[0]
    q = element_corrector(ctx, op, i, T, k=None)
    profile = decay_profile(ctx, q, T, args.k_max)
    _write_lines(args.output, ["k,annulus_energy"] + [f"{k},{e:.17g}" for k, e in profile])
    print(f"wrote {args.output} (element {T}, node {i}, operator {kind})")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lod2d",
        description="Multiscale LOD solver for 2D high-contrast elliptic problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coef", help="generate a coefficient and save it as PGM")
    p.add_argument("config")
    p.add_argument("output")
    p.set_defaults(func=cmd_coef)

    p = sub.add_parser("kappa", help="per-node stability constant table (CSV)")
    p.add_argument("config")
    p.add_argument("output")
    p.add_argument("--operator", default="IH", help="SZ, IH or IH1")
    p.set_defaults(func=cmd_kappa)

    p = sub.add_parser("run", help="run an experiment sweep from a config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("plot", help="render SVG panels from a results CSV")
    p.add_argument("csv")
    p.add_argument("prefix")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("decay", help="corrector decay profile CSV")
    p.add_argument("config")
    p.add_argument("output")
    p.add_argument("--operator", default="IH")
    p.add_argument("--element", type=int, default=None)
    p.add_argument("--k-max", type=int, default=6)
    p.set_defaults(func=cmd_decay)
    return parser


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_VALIDATION if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SolverError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def main():
    sys.exit(cli())


if __name__ == "__main__":
    main()
