import os
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import lod2d.harness as harness
from lod2d.assembly import BilinearFormContext, LoadSpec
from lod2d.coefficient import Coefficient
from lod2d.errors import DegenerateSigmaError, ParameterError
from lod2d.harness import (
    CSV_HEADER,
    ExperimentConfig,
    ResultRow,
    _worker_count,
    emit_svg,
    parse_config,
    parse_config_text,
    read_csv,
    run_experiment,
    write_csv,
)
from lod2d.interp import ALPHA_FREE_KINDS, OPERATOR_KINDS, build_operator
from lod2d.lod import reference_solution


def tiny_config(tmp_path, **overrides):
    base = dict(
        coarse_level=2,
        fine_level=4,
        coefficient="field",
        alphas=(1.0, 0.1),
        operators=("SZ", "nodal"),
        ks=(1, 8),
        f=LoadSpec.constant(1.0),
        seed=3,
        csv=str(tmp_path / "out.csv"),
        cache_dir=str(tmp_path / "cache"),
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_parse_config_round_trip():
    text = """
    # comment
    coarse_level = 3
    fine_level = 6
    coefficient = stripes
    alpha = 1e-1,1e-3
    operators = IH, SZ
    k = 1,2
    f = rect:0.25,0.75,0.25,0.75
    dirichlet = all
    rhs_correction = true
    delta = 1/4
    """
    values = parse_config_text(text)
    config = ExperimentConfig.from_mapping(values)
    assert config.coarse_level == 3
    assert config.operators == ("IH", "SZ")
    assert config.delta == Fraction(1, 4)
    assert config.f.kind == "rect"


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ParameterError, match="patch_radius"):
        parse_config_text("patch_radius = 3")


def test_parse_config_rejects_duplicates_and_bad_values():
    with pytest.raises(ParameterError, match="duplicate"):
        parse_config_text("coarse_level = 2\ncoarse_level = 3")
    with pytest.raises(ParameterError, match="alpha"):
        parse_config_text("alpha = fast")
    with pytest.raises(ParameterError, match="expected key"):
        parse_config_text("just some words")


def test_config_validation():
    good = dict(
        coarse_level=2, fine_level=4, coefficient="field",
        alphas=(0.5,), operators=("SZ",), ks=(1,), f=LoadSpec.constant(),
    )
    ExperimentConfig(**good)
    with pytest.raises(ParameterError, match="duplicates"):
        ExperimentConfig(**{**good, "ks": (1, 1)})
    with pytest.raises(ParameterError, match="k values"):
        ExperimentConfig(**{**good, "ks": (0,)})
    with pytest.raises(ParameterError, match="alpha"):
        ExperimentConfig(**{**good, "alphas": (1.5,)})
    with pytest.raises(ParameterError, match="operator"):
        ExperimentConfig(**{**good, "operators": ("SZ", "quasi")})
    with pytest.raises(ParameterError, match="dirichlet"):
        ExperimentConfig(**{**good, "dirichlet": ()})
    with pytest.raises(ParameterError, match="coefficient"):
        ExperimentConfig(**{**good, "coefficient": "checkers"})
    with pytest.raises(ParameterError, match="missing"):
        ExperimentConfig.from_mapping({"coarse_level": 2})
    with pytest.raises(ParameterError, match="coarse_level < fine_level"):
        ExperimentConfig(**{**good, "fine_level": 2})
    # delta must be m*h/H with 1 <= m <= H/h = 4
    for delta in (Fraction(1, 4), Fraction(3, 4), Fraction(1)):
        ExperimentConfig(**{**good, "delta": delta})
    for delta in (Fraction(1, 3), Fraction(3, 8), Fraction(2), Fraction(0), Fraction(-1, 4)):
        with pytest.raises(ParameterError, match=f"delta={delta} is not representable"):
            ExperimentConfig(**{**good, "delta": delta})


def test_hat_on_dirichlet_nodes_only_rejected():
    """A hat whose point and hexagon neighbours all lie on Dirichlet edges
    loads no free node: the config rejects it, the library still solves it."""
    good = dict(
        coarse_level=2, fine_level=4, coefficient="field",
        alphas=(0.5,), operators=("SZ",), ks=(1,), f=LoadSpec.constant(),
    )
    for x, y in ((0.0, 0.0), (1.0, 1.0)):
        with pytest.raises(ParameterError, match="Dirichlet nodes only"):
            ExperimentConfig(**{**good, "f": LoadSpec.hat(x, y)})
        ExperimentConfig(**{**good, "f": LoadSpec.hat(x, y), "dirichlet": ("left", "top")})
    # the NW-SE diagonal joins these corners to an interior node
    for x, y in ((1.0, 0.0), (0.0, 1.0)):
        ExperimentConfig(**{**good, "f": LoadSpec.hat(x, y)})
    mesh = ExperimentConfig(**good).mesh()
    ctx = BilinearFormContext(mesh, Coefficient(0.5, np.ones(mesh.fine.num_elements, bool)))
    assert not reference_solution(ctx, LoadSpec.hat(0.0, 0.0)).any()


def test_paper_shaped_sweep_has_216_cells():
    config = ExperimentConfig(
        coarse_level=4,
        fine_level=7,
        coefficient="stripes",
        alphas=tuple(10.0**-e for e in range(1, 7)),
        operators=("SZ", "nodal", "IH", "IH1", "Aproj", "AprojQM"),
        ks=(1, 2, 3, 4, 5, 6),
        f=LoadSpec.rectangle(0.25, 0.75, 0.25, 0.75),
    )
    assert len(config.sweep_cells()) == 216


def test_run_experiment_writes_sorted_csv(tmp_path):
    config = tiny_config(tmp_path)
    rows = run_experiment(config)
    assert len(rows) == len(config.sweep_cells())
    keys = [(r.operator, r.alpha, r.k) for r in rows]
    assert keys == sorted(keys)
    text = (tmp_path / "out.csv").read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert len(text.splitlines()) == len(rows) + 1
    # contrast 1 with saturating k and correction reproduces the reference
    exact = [r for r in rows if r.alpha == 1.0 and r.k == 8]
    assert exact and all(r.rel_energy_error <= 1e-8 for r in exact)
    assert all(r.status == "ok" for r in rows)
    assert all(r.wall_time_s == 0.0 for r in rows)


def test_record_timings_fills_the_wall_time_column(tmp_path):
    config = tiny_config(tmp_path, operators=("SZ",), record_timings=True)
    rows = run_experiment(config)
    assert rows and all(r.status == "ok" and r.wall_time_s > 0.0 for r in rows)
    assert read_csv(config.csv) == rows


def test_run_experiment_records_failures_without_dropping_rows(tmp_path, monkeypatch):
    # the IH build fails (a degenerate dual system): IH cells fail, the rest run;
    # IH and SZ read only is_one, so each is built once for both alphas
    calls = []

    def failing_ih(kind, *args, **kwargs):
        calls.append(kind)
        if kind == "IH":
            raise DegenerateSigmaError("IH: node 0: forced")
        return build_operator(kind, *args, **kwargs)

    monkeypatch.setattr(harness, "build_operator", failing_ih)
    config = tiny_config(tmp_path, operators=("IH", "SZ"))
    rows = run_experiment(config)
    assert calls == ["IH", "SZ"]
    assert len(rows) == len(config.sweep_cells())
    ih_rows = [r for r in rows if r.operator == "IH"]
    assert ih_rows and all(r.status == "failed" for r in ih_rows)
    assert all(np.isnan(r.rel_energy_error) for r in ih_rows)
    sz_rows = [r for r in rows if r.operator == "SZ"]
    assert sz_rows and all(r.status == "ok" for r in sz_rows)


def test_alpha_free_operators_built_once_per_sweep(tmp_path, monkeypatch):
    """The operators that read only is_one are built once and shared by both
    alphas; the coefficient-weighted ones are built once per alpha."""
    built = []

    def counting(kind, *args, **kwargs):
        built.append(kind)
        return build_operator(kind, *args, **kwargs)

    monkeypatch.setattr(harness, "build_operator", counting)
    rows = run_experiment(tiny_config(tmp_path, operators=OPERATOR_KINDS, ks=(1,)))
    assert all(r.status == "ok" for r in rows)
    assert {kind: built.count(kind) for kind in OPERATOR_KINDS} == {
        kind: 1 if kind in ALPHA_FREE_KINDS else 2 for kind in OPERATOR_KINDS
    }


def test_run_experiment_deterministic_bytes(tmp_path):
    config_a = tiny_config(tmp_path, csv=str(tmp_path / "a.csv"))
    config_b = tiny_config(tmp_path, csv=str(tmp_path / "b.csv"))
    run_experiment(config_a)
    run_experiment(config_b)  # second run re-uses the cached reference
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_csv_round_trip(tmp_path):
    rows = [
        ResultRow("IH", 0.1, 1, 0.0625, 0.0078125, 1.25e-3, 0.0, 7, "ok"),
        ResultRow("SZ", 0.001, 2, 0.0625, 0.0078125, float("nan"), 0.0, 7, "failed"),
    ]
    path = tmp_path / "rows.csv"
    write_csv(path, rows)
    back = read_csv(path)
    assert [(r.operator, r.alpha, r.k, r.status) for r in back] == [
        ("IH", 0.1, 1, "ok"),
        ("SZ", 0.001, 2, "failed"),
    ]
    assert back[0].rel_energy_error == 1.25e-3
    assert np.isnan(back[1].rel_energy_error)


def test_emit_svg_empty(tmp_path):
    paths = emit_svg([], str(tmp_path / "plot_"))
    assert len(paths) == 1
    text = paths[0].read_text()
    assert "<svg" in text and "polyline" not in text and "circle" not in text


def test_emit_svg_single_row(tmp_path):
    rows = [ResultRow("IH", 0.1, 2, 0.0625, 0.0078125, 1e-2, 0.0, 0, "ok")]
    (path,) = emit_svg(rows, str(tmp_path / "plot_"))
    text = path.read_text()
    assert text.count("<circle") == 1
    assert "<polyline" not in text


def test_emit_svg_full_panel(tmp_path):
    rows = [
        ResultRow("IH", 10.0**-a, k, 0.0625, 0.0078125, 10.0 ** -(a + k), 0.0, 0, "ok")
        for a in range(1, 7)
        for k in range(1, 7)
    ]
    (path,) = emit_svg(rows, str(tmp_path / "plot_"))
    text = path.read_text()
    assert text.count("<polyline") == 6
    assert text.count("<circle") == 36
    # deterministic bytes
    (path2,) = emit_svg(rows, str(tmp_path / "again_"))
    assert path.read_bytes() == path2.read_bytes()


def test_emit_svg_skips_failed_rows(tmp_path):
    rows = [
        ResultRow("SZ", 0.1, 1, 0.0625, 0.0078125, 1e-2, 0.0, 0, "ok"),
        ResultRow("SZ", 0.1, 2, 0.0625, 0.0078125, float("nan"), 0.0, 0, "failed"),
    ]
    (path,) = emit_svg(rows, str(tmp_path / "plot_"))
    assert path.read_text().count("<circle") == 1


def test_emit_svg_prefix_ending_in_separator_names_a_directory(tmp_path):
    rows = [ResultRow("IH", 0.1, 1, 0.0625, 0.0078125, 1e-2, 0.0, 0, "ok")]
    assert emit_svg(rows, f"{tmp_path}/out/") == [tmp_path / "out" / "IH.svg"]
    assert emit_svg(rows, f"{tmp_path}/out/plot_") == [tmp_path / "out" / "plot_IH.svg"]
    assert emit_svg([], f"{tmp_path}/empty/") == [tmp_path / "empty" / "empty.svg"]
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == ["IH.svg", "plot_IH.svg"]
    assert not (tmp_path / "outIH.svg").exists()


def test_run_experiment_creates_the_svg_directory(tmp_path):
    config = tiny_config(tmp_path, ks=(1,), svg_prefix=f"{tmp_path}/panels/")
    run_experiment(config)
    assert sorted(p.name for p in (tmp_path / "panels").iterdir()) == ["SZ.svg", "nodal.svg"]


@pytest.mark.parametrize(
    "content",
    [b"coarse_level = 2\ndelta = 1/0\n", b"coarse_level = \xff\xfe\n", None],
    ids=["zero-denominator", "not-utf8", "missing-file"],
)
def test_parse_config_malformed_file(tmp_path, content):
    path = tmp_path / "c.cfg"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ParameterError):
        parse_config(path)


@pytest.mark.parametrize(
    "row",
    [
        "IH,0.1,1",
        "IH,0.1,one,0.0625,0.0078125,1e-3,0,7,ok",
        "IH,0.1,1,0.0625,0.0078125,1e-3,0,7,ok,extra",
    ],
    ids=["short-row", "non-numeric-field", "long-row"],
)
def test_read_csv_malformed_row(tmp_path, row):
    path = tmp_path / "rows.csv"
    path.write_text(f"{CSV_HEADER}\n{row}\n", encoding="utf-8")
    with pytest.raises(ParameterError, match="line 2"):
        read_csv(path)


@pytest.mark.parametrize("raw", ["abc", "-1", "1.5"])
def test_lod_threads_rejects_bad_values(tmp_path, monkeypatch, raw):
    monkeypatch.setenv("LOD_THREADS", raw)
    with pytest.raises(ParameterError, match="LOD_THREADS"):
        run_experiment(tiny_config(tmp_path))
    assert not (tmp_path / "out.csv").exists()


def test_lod_threads_zero_means_auto(monkeypatch):
    """Unset or 0 means min(4, usable CPUs); any value is capped at that count."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    for raw, workers in (("0", 4), ("3", 3), ("9", 4)):
        monkeypatch.setenv("LOD_THREADS", raw)
        assert _worker_count() == workers
    monkeypatch.delenv("LOD_THREADS")
    assert _worker_count() == 4
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert _worker_count() == 2


def test_helper_failure_fails_only_its_cell(tmp_path, monkeypatch):
    """With two factorization helpers, a KKT factorization that fails on a
    helper turns its sweep cell into a failed row; every other cell runs and
    matches a clean run."""
    from test_lod import failing_splu, usable_cpus

    usable_cpus(monkeypatch, 2)
    monkeypatch.setenv("LOD_THREADS", "2")
    config = tiny_config(tmp_path)
    clean = run_experiment(config)  # fills the reference cache, so only cells factorize
    assert all(r.status == "ok" for r in clean)
    calls = failing_splu(monkeypatch, 3)
    rows = run_experiment(config)
    assert len(calls) > 3
    failed = [(r.operator, r.alpha, r.k) for r in rows if r.status == "failed"]
    assert len(failed) == 1
    assert [r for r in rows if r.status == "ok"] == [
        r for r in clean if (r.operator, r.alpha, r.k) not in failed]


def _as_npz(path):
    """Overwrite the entry at ``path`` with an .npz archive of its array."""
    u = np.load(path)
    with path.open("wb") as fh:
        np.savez(fh, u)


CORRUPTIONS = {
    "truncated": lambda path: path.write_bytes(path.read_bytes()[:100]),
    "npz": _as_npz,
    "nan": lambda path: np.save(path, np.full_like(np.load(path), np.nan)),
    "float32": lambda path: np.save(path, np.load(path).astype(np.float32)),
    "complex": lambda path: np.save(path, np.load(path).astype(np.complex128)),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_truncated_reference_cache_is_rebuilt(tmp_path, corruption):
    config = tiny_config(tmp_path, csv=str(tmp_path / "a.csv"))
    run_experiment(config)
    cache = tmp_path / "cache"
    entries = sorted(cache.glob("ref_*.npy"))
    assert len(entries) == len(config.alphas)
    for path in entries:
        CORRUPTIONS[corruption](path)
    run_experiment(replace(config, csv=str(tmp_path / "b.csv")))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    for path in entries:
        u = np.load(path)
        assert u.ndim == 1 and u.dtype == np.float64 and np.isfinite(u).all()
    assert sorted(p.name for p in cache.iterdir()) == sorted(p.name for p in entries)


def test_reference_format_salts_the_cache_key(tmp_path, monkeypatch):
    config = tiny_config(tmp_path, alphas=(0.1,), csv=str(tmp_path / "a.csv"))
    run_experiment(config)
    cache = tmp_path / "cache"
    first = {p.name for p in cache.glob("ref_*.npy")}
    assert len(first) == 1
    monkeypatch.setattr(harness, "REFERENCE_FORMAT", harness.REFERENCE_FORMAT + 1)
    run_experiment(replace(config, csv=str(tmp_path / "b.csv")))
    second = {p.name for p in cache.glob("ref_*.npy")}
    assert len(second) == 2 and first < second
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
