import os
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from lod2d.assembly import LoadSpec
from lod2d.errors import ParameterError
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


def test_run_experiment_records_failures_without_dropping_rows(tmp_path):
    # delta = 3/8 is not representable at H/h = 4: IH cells fail, the rest run
    config = tiny_config(tmp_path, operators=("IH", "SZ"), delta=Fraction(3, 8))
    rows = run_experiment(config)
    assert len(rows) == len(config.sweep_cells())
    ih_rows = [r for r in rows if r.operator == "IH"]
    assert ih_rows and all(r.status == "failed" for r in ih_rows)
    assert all(np.isnan(r.rel_energy_error) for r in ih_rows)
    sz_rows = [r for r in rows if r.operator == "SZ"]
    assert sz_rows and all(r.status == "ok" for r in sz_rows)


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
    monkeypatch.setenv("LOD_THREADS", "0")
    assert _worker_count() == min(4, os.cpu_count() or 1)
    monkeypatch.setenv("LOD_THREADS", "3")
    assert _worker_count() == 3


def test_truncated_reference_cache_is_rebuilt(tmp_path):
    config = tiny_config(tmp_path, csv=str(tmp_path / "a.csv"))
    run_experiment(config)
    cache = tmp_path / "cache"
    entries = sorted(cache.glob("ref_*.npy"))
    assert len(entries) == len(config.alphas)
    for path in entries:
        path.write_bytes(path.read_bytes()[:100])
    run_experiment(replace(config, csv=str(tmp_path / "b.csv")))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert all(np.load(path).ndim == 1 for path in entries)
    assert sorted(p.name for p in cache.iterdir()) == sorted(p.name for p in entries)
