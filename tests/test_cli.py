import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lod2d
from lod2d.cli import cli
from lod2d.coefficient import load_pgm
from lod2d import harness
from lod2d.harness import read_csv
from lod2d.lod import solve_multiscale
from lod2d.mesh import BoundarySpec, build_hierarchy

TINY = """
coarse_level = 2
fine_level = 4
coefficient = field
alpha = 1.0,0.25
seed = 5
operators = SZ,nodal
k = 1,8
f = const:1
dirichlet = all
"""


def write_config(tmp_path, extra="", base=TINY):
    path = tmp_path / "exp.cfg"
    path.write_text(base + extra, encoding="utf-8")
    return path


def test_run_subcommand(tmp_path, capsys):
    cfg = write_config(
        tmp_path,
        f"csv = {tmp_path}/res.csv\nsvg_prefix = {tmp_path}/plot_\ncache_dir = {tmp_path}/cache\n",
    )
    assert cli(["run", str(cfg)]) == 0
    rows = read_csv(tmp_path / "res.csv")
    assert len(rows) == 8
    assert (tmp_path / "plot_SZ.svg").exists()
    assert (tmp_path / "plot_nodal.svg").exists()
    out = capsys.readouterr().out
    assert "res.csv" in out


def test_run_requires_csv(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli(["run", str(cfg)]) == 1
    assert "csv" in capsys.readouterr().err


def test_unknown_config_key_names_it(tmp_path, capsys):
    cfg = write_config(tmp_path, "mystery_knob = 3\n")
    assert cli(["run", str(cfg)]) == 1
    assert "mystery_knob" in capsys.readouterr().err


def test_coef_subcommand(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "coef.pgm"
    assert cli(["coef", str(cfg), str(out)]) == 0
    mesh = build_hierarchy(2, 4, BoundarySpec.all_edges())
    coef = load_pgm(mesh, out, 0.25)
    assert coef.is_one.sum() > 0


def test_kappa_subcommand_symmetry(tmp_path):
    # a unit coefficient: every interior node has the same patch shape
    base = """
coarse_level = 2
fine_level = 4
coefficient = field
alpha = 1.0
one_fraction = 1.0
seed = 1
operators = SZ
k = 1
f = const:1
dirichlet = all
"""
    cfg = write_config(tmp_path, base=base)
    out = tmp_path / "kappa.csv"
    assert cli(["kappa", str(cfg), str(out), "--operator", "IH"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "node,class,sigma_elements,kappa"
    kappas = [float(l.split(",")[3]) for l in lines[1:]]
    assert len(kappas) == 9  # free nodes of the L=2 all-Dirichlet mesh
    assert np.ptp(kappas) < 1e-10


def test_kappa_rejects_non_dual_operator(tmp_path, capsys):
    cfg = write_config(tmp_path)
    assert cli(["kappa", str(cfg), str(tmp_path / "k.csv"), "--operator", "Aproj"]) == 1
    assert "dual-basis" in capsys.readouterr().err


def test_decay_subcommand(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "decay.csv"
    assert cli(["decay", str(cfg), str(out), "--operator", "SZ", "--k-max", "4"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "k,annulus_energy"
    assert len(lines) == 6
    energies = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))


def test_plot_subcommand(tmp_path):
    cfg = write_config(
        tmp_path, f"csv = {tmp_path}/res.csv\ncache_dir = {tmp_path}/cache\n"
    )
    assert cli(["run", str(cfg)]) == 0
    assert cli(["plot", str(tmp_path / "res.csv"), str(tmp_path / "p_")]) == 0
    assert (tmp_path / "p_SZ.svg").exists()


def test_svg_prefix_ending_in_separator_names_a_directory(tmp_path):
    cfg = write_config(
        tmp_path,
        f"csv = {tmp_path}/res.csv\nsvg_prefix = {tmp_path}/run/\ncache_dir = {tmp_path}/cache\n",
    )
    assert cli(["run", str(cfg)]) == 0
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["SZ.svg", "nodal.svg"]
    assert cli(["plot", str(tmp_path / "res.csv"), f"{tmp_path}/plot/"]) == 0
    assert sorted(p.name for p in (tmp_path / "plot").iterdir()) == ["SZ.svg", "nodal.svg"]
    assert cli(["plot", str(tmp_path / "res.csv"), f"{tmp_path}/plot/p_"]) == 0
    assert (tmp_path / "plot" / "p_SZ.svg").exists()


def test_plot_rejects_bad_csv(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    assert cli(["plot", str(bad), str(tmp_path / "p_")]) == 1


def test_bad_subcommand():
    assert cli(["frobnicate"]) == 1


def test_missing_level_key(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("coefficient = field\n")
    assert cli(["coef", str(cfg), str(tmp_path / "x.pgm")]) == 1
    assert "coarse_level" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["coef", "kappa", "decay", "run"])
def test_every_subcommand_needs_the_required_keys(tmp_path, capsys, command):
    cfg = write_config(tmp_path, base=TINY.replace("operators = SZ,nodal\n", ""))
    argv = [command, str(cfg)] + ([] if command == "run" else [str(tmp_path / "out")])
    assert cli(argv) == 1
    assert "missing required keys: ['operators']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def run_module(*args):
    src = str(Path(lod2d.__file__).parents[1])
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, "-m", *args], env=env, capture_output=True, text=True)


def test_python_dash_m_entry_points(tmp_path):
    out = tmp_path / "coef.pgm"
    done = run_module("lod2d", "coef", str(write_config(tmp_path)), str(out))
    assert done.returncode == 0, done.stderr
    assert out.is_file()
    done = run_module("lod2d.cli", "frobnicate")
    assert done.returncode == 1
    assert "frobnicate" in done.stderr


@pytest.mark.parametrize(
    "case",
    [
        "delta-zero-denominator",
        "missing-config",
        "non-utf8-config",
        "short-csv-row",
        "non-numeric-csv-field",
        "element-out-of-range",
        "negative-k-max",
        "negative-field-seed",
        "infinite-rect-load",
        "infinite-hat-load",
        "infinite-const-load",
        "nan-const-load",
        "zero-const-load",
        "outside-rect-load",
        "edge-touching-rect-load",
        "off-lattice-rect-load",
        "off-lattice-hat-load",
        "outside-hat-load",
        "dirichlet-corner-hat-load",
        "far-dirichlet-corner-hat-load",
        "empty-csv-value",
        "csv-path-is-directory",
        "output-under-a-file",
        "bad-delta-third-stripes",
        "bad-delta-two-stripes",
        "bad-delta-third-field",
        "bad-delta-two-field",
        "bad-lod-threads",
        "nul-byte-csv",
        "nul-byte-svg_prefix",
        "nul-byte-cache_dir",
        "stripes-seed--1",
        "stripes-seed-18446744073709551616",
        "stripes-smoothing_passes--3",
        "stripes-one_fraction-7",
        "stripes-unresolved",
        "cache_dir-is-a-file",
        "cache_dir-under-a-file",
    ],
)
def test_malformed_input_exits_one(tmp_path, capsys, monkeypatch, case):
    cells = []

    def counting_solve(*args, **kwargs):
        cells.append(1)
        return solve_multiscale(*args, **kwargs)

    monkeypatch.setattr(harness, "solve_multiscale", counting_solve)
    meshes = []

    def counting_mesh(*args):
        meshes.append(args)
        return build_hierarchy(*args)

    monkeypatch.setattr(harness, "build_hierarchy", counting_mesh)
    cfg = write_config(tmp_path)
    decay = ["decay", str(cfg), str(tmp_path / "d.csv")]
    csv = tmp_path / "res.csv"
    header = "operator,alpha,k,H,h,rel_energy_error,wall_time_s,seed,status\n"
    if case == "delta-zero-denominator":
        argv = ["kappa", str(write_config(tmp_path, "delta = 1/0\n")), str(tmp_path / "k.csv")]
    elif case == "missing-config":
        argv = ["coef", str(tmp_path / "nope.cfg"), str(tmp_path / "x.pgm")]
    elif case == "non-utf8-config":
        cfg.write_bytes(b"coarse_level = \xff\n")
        argv = ["coef", str(cfg), str(tmp_path / "x.pgm")]
    elif case == "short-csv-row":
        csv.write_text(header + "IH,0.1\n")
        argv = ["plot", str(csv), str(tmp_path / "p_")]
    elif case == "non-numeric-csv-field":
        csv.write_text(header + "IH,0.1,1,0.25,0.0625,x,0,5,ok\n")
        argv = ["plot", str(csv), str(tmp_path / "p_")]
    elif case == "negative-field-seed":
        cfg = write_config(tmp_path, "seed = -1\n", base=TINY.replace("seed = 5\n", ""))
        argv = ["coef", str(cfg), str(tmp_path / "x.pgm")]
    elif case.endswith("-load"):
        load = {
            "infinite-rect-load": "rect:0,1,0,inf",
            "infinite-hat-load": "hat:inf,0.5",
            "infinite-const-load": "const:inf",
            "nan-const-load": "const:nan",
            "zero-const-load": "const:0",
            "outside-rect-load": "rect:2,3,2,3",
            "edge-touching-rect-load": "rect:0,1,1,2",
            "off-lattice-rect-load": "rect:0,0.3,0,1",
            "off-lattice-hat-load": "hat:0.5,0.01",
            "outside-hat-load": "hat:1.5,0.5",
            "dirichlet-corner-hat-load": "hat:0,0",
            "far-dirichlet-corner-hat-load": "hat:1,1",
        }[case]
        base = TINY.replace("f = const:1\n", "")
        cfg = write_config(tmp_path, f"f = {load}\ncsv = {tmp_path}/d.csv\n", base=base)
        argv = ["run", str(cfg)]
    elif case == "empty-csv-value":
        argv = ["run", str(write_config(tmp_path, "csv =\n"))]
    elif case == "csv-path-is-directory":
        argv = ["run", str(write_config(tmp_path, f"csv = {tmp_path}\n"))]
    elif case.startswith("bad-delta-"):
        # rejected with the config, before kappa, decay or run do any work
        delta = {"third": "1/3", "two": "2"}[case.split("-")[2]]
        base = TINY.replace("field", case.split("-")[3]).replace("SZ,nodal", "IH,SZ")
        base = base.replace("fine_level = 4", "fine_level = 6")  # stripes need h <= 1/64
        cfg = write_config(tmp_path, f"delta = {delta}\ncsv = {tmp_path}/d.csv\n", base=base)
        assert cli(["kappa", str(cfg), str(tmp_path / "k.csv")]) == 1
        assert cli(["decay", str(cfg), str(tmp_path / "d.csv")]) == 1
        argv = ["run", str(cfg)]
    elif case == "bad-lod-threads":
        monkeypatch.setenv("LOD_THREADS", "abc")
        argv = ["run", str(write_config(tmp_path, f"csv = {tmp_path}/d.csv\n"))]
    elif case.startswith("nul-byte-"):
        key = case.removeprefix("nul-byte-")
        paths = {"csv": f"{tmp_path}/d.csv", "svg_prefix": f"{tmp_path}/p_", "cache_dir": f"{tmp_path}/c"}
        paths[key] += "\0x"
        argv = ["run", str(write_config(tmp_path, "".join(f"{k} = {v}\n" for k, v in paths.items())))]
    elif case == "stripes-unresolved":
        base = TINY.replace("field", "stripes").replace("fine_level = 4", "fine_level = 5")
        argv = ["run", str(write_config(tmp_path, f"csv = {tmp_path}/out/d.csv\n", base=base))]
    elif case.startswith("stripes-"):
        # every kind's config checks the generators' parameters, used or not
        _, key, value = case.split("-", 2)
        base = TINY.replace("field", "stripes").replace("seed = 5\n", "")
        base = base.replace("fine_level = 4", "fine_level = 6")  # stripes need h <= 1/64
        cfg = write_config(tmp_path, f"{key} = {value}\ncsv = {tmp_path}/out/d.csv\n", base=base)
        argv = ["run", str(cfg)]
    elif case.startswith("cache_dir-"):
        (tmp_path / "notadir").write_text("")
        cache = tmp_path / "notadir" / ("sub" if case.endswith("under-a-file") else "")
        argv = ["run", str(write_config(tmp_path, f"csv = {tmp_path}/out/d.csv\ncache_dir = {cache}\n"))]
    elif case == "output-under-a-file":
        (tmp_path / "file").write_text("")
        argv = ["kappa", str(cfg), str(tmp_path / "file" / "k.csv")]
    elif case == "element-out-of-range":
        argv = decay + ["--element", "99999"]
    else:
        argv = decay + ["--k-max", "-1"]
    assert cli(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    if case.startswith("nul-byte-"):
        assert f"config key {key!r} contains a NUL byte" in err
    if case == "stripes-unresolved":
        assert "stripes need h <= 1/64" in err
    if case.startswith("bad-delta-"):
        assert err.count(f"delta={delta} is not representable as m*h/H") == 3
    assert not (tmp_path / "d.csv").exists()
    assert cells == []  # no sweep cell ran
    if case.startswith("cache_dir-"):
        assert f"cache_dir {cache} is not a usable directory" in err
    if case.endswith("-load") or case.startswith(("stripes-", "cache_dir-")):
        assert meshes == []  # rejected with the config, before the mesh is built
        assert not (tmp_path / "out").exists()


def test_decay_honours_config_delta(tmp_path, capsys):
    # delta = 3/8 is not representable at H/h = 4, so the config is rejected
    args = ["--operator", "IH", "--k-max", "1"]
    assert cli(["decay", str(write_config(tmp_path)), str(tmp_path / "d.csv"), *args]) == 0
    cfg = write_config(tmp_path, "delta = 3/8\n")
    assert cli(["decay", str(cfg), str(tmp_path / "e.csv"), *args]) == 1
    assert "delta" in capsys.readouterr().err
