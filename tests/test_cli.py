import numpy as np
import pytest

from lod2d.cli import cli
from lod2d.coefficient import load_pgm
from lod2d.harness import read_csv
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
    ],
)
def test_malformed_input_exits_one(tmp_path, capsys, case):
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
    elif case == "element-out-of-range":
        argv = decay + ["--element", "99999"]
    else:
        argv = decay + ["--k-max", "-1"]
    assert cli(argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "d.csv").exists()


def test_decay_honours_config_delta(tmp_path, capsys):
    # delta = 3/8 is not representable at H/h = 4, so IH fails once delta is read
    args = ["--operator", "IH", "--k-max", "1"]
    assert cli(["decay", str(write_config(tmp_path)), str(tmp_path / "d.csv"), *args]) == 0
    cfg = write_config(tmp_path, "delta = 3/8\n")
    assert cli(["decay", str(cfg), str(tmp_path / "e.csv"), *args]) == 1
    assert "delta" in capsys.readouterr().err
