import numpy as np
import pytest

from lacuna import cli
from lacuna import gradcheck
from lacuna.pgm import read_pgm, write_pgm
from lacuna.textures import generate_texture
from lacuna.train import DivergenceError

TOY_INI = """\
[experiment]
methods = avg
dataset = toy
classes = 3
samples_per_class = 10
image_size = 56
seeds = 0
backbone_channels = 4
output = {out}

[train]
max_epochs = 2
early_stop_patience = 1
"""


@pytest.fixture
def texture_pgm(tmp_path):
    path = str(tmp_path / "tex.pgm")
    write_pgm(generate_texture("medium", size=56, seed=0).image, path)
    return path


# -------------------------------------------------------------------- lacmap

def test_lacmap_writes_heatmap_and_prints_value(tmp_path, texture_pgm, capsys):
    out = str(tmp_path / "heat.pgm")
    code = cli.main(["lacmap", "--method", "base", "--window", "8",
                     texture_pgm, out])
    assert code == 0
    printed = capsys.readouterr().out.strip()
    float(printed)
    assert len(printed.split(".")[1]) == 6  # %.6f
    heat = read_pgm(out)
    assert heat.shape[0] == 1 and heat.shape[1] == 1


def test_lacmap_constant_image_gives_zero(tmp_path, capsys):
    src = str(tmp_path / "flat.pgm")
    write_pgm(np.full((20, 20), 9.0), src)
    out = str(tmp_path / "heat.pgm")
    assert cli.main(["lacmap", "--method", "base", src, out]) == 0
    assert capsys.readouterr().out.strip() == "0.000000"
    assert np.all(read_pgm(out) == 0.0)


def test_lacmap_orders_grades(tmp_path, capsys):
    values = {}
    for grade in ("low", "high"):
        src = str(tmp_path / f"{grade}.pgm")
        write_pgm(generate_texture(grade, size=56, seed=1).image, src)
        assert cli.main(["lacmap", src, str(tmp_path / "h.pgm")]) == 0
        values[grade] = float(capsys.readouterr().out)
    assert values["high"] > values["low"]


def test_lacmap_dbc_and_ms_methods(tmp_path, texture_pgm, capsys):
    assert cli.main(["lacmap", "--method", "dbc", "--dilations", "1,2",
                     texture_pgm, str(tmp_path / "d.pgm")]) == 0
    assert cli.main(["lacmap", "--method", "ms", "--scales", "2", "--window",
                     "8", texture_pgm, str(tmp_path / "m.pgm")]) == 0
    capsys.readouterr()


def test_lacmap_missing_input_exits_2(tmp_path, capsys):
    code = cli.main(["lacmap", str(tmp_path / "absent.pgm"),
                     str(tmp_path / "o.pgm")])
    assert code == 2
    capsys.readouterr()


def test_lacmap_corrupt_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.pgm"
    bad.write_bytes(b"P5\n4 4\n255\n" + bytes(3))  # truncated payload
    assert cli.main(["lacmap", str(bad), str(tmp_path / "o.pgm")]) == 2
    capsys.readouterr()


def test_lacmap_unwritable_output_exits_2(tmp_path, texture_pgm, capsys):
    out = str(tmp_path / "no" / "such" / "dir" / "o.pgm")
    assert cli.main(["lacmap", texture_pgm, out]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["lacmap", "--method", "median", "in.pgm", "out.pgm"],
        ["lacmap", "--no-such-flag", "in.pgm", "out.pgm"],
        ["lacmap"],
        ["no-such-command"],
        [],
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    assert cli.main(argv) == 1
    capsys.readouterr()


def test_lacmap_stride_without_window_exits_1(tmp_path, texture_pgm, capsys):
    # a stride only means something for a gliding window
    out = tmp_path / "o.pgm"
    assert cli.main(["lacmap", "--stride", "4", texture_pgm, str(out)]) == 1
    assert not out.exists()
    assert "--stride" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--scales", "5"],
    ["--dilations", "1,9"],
    ["--method", "dbc", "--scales", "2"],
    ["--method", "ms", "--dilations", "1,2"],
])
def test_lacmap_flag_for_another_method_exits_1(tmp_path, texture_pgm,
                                                capsys, flags):
    # --scales only shapes the pyramid, --dilations only the box sizes
    out = tmp_path / "o.pgm"
    assert cli.main(["lacmap", *flags, texture_pgm, str(out)]) == 1
    assert not out.exists()
    assert flags[-2] in capsys.readouterr().err


@pytest.mark.parametrize("flags", [
    ["--method", "ms", "--window", "8", "--scales", "2"],
    ["--method", "dbc", "--window", "7", "--dilations", "1,2,3"],
])
def test_lacmap_omitted_method_flags_keep_their_defaults(
        tmp_path, texture_pgm, capsys, flags):
    plain, given = tmp_path / "plain.pgm", tmp_path / "given.pgm"
    assert cli.main(["lacmap", *flags[:-2], texture_pgm, str(plain)]) == 0
    assert cli.main(["lacmap", *flags, texture_pgm, str(given)]) == 0
    assert plain.read_bytes() == given.read_bytes()
    capsys.readouterr()


def test_lacmap_bad_flag_combination_exits_1(tmp_path, texture_pgm, capsys):
    # even box-counting window and over-deep pyramid are usage errors
    out = str(tmp_path / "o.pgm")
    assert cli.main(["lacmap", "--method", "dbc", "--window", "4",
                     texture_pgm, out]) == 1
    assert cli.main(["lacmap", "--method", "ms", "--scales", "9",
                     texture_pgm, out]) == 1
    capsys.readouterr()


# ---------------------------------------------------------------- experiment

def test_experiment_runs_and_writes_results(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("LACUNA_SEED", raising=False)
    out = str(tmp_path / "results.txt")
    ini = tmp_path / "exp.ini"
    ini.write_text(TOY_INI.format(out=out))
    assert cli.main(["experiment", str(ini)]) == 0
    stdout = capsys.readouterr().out
    assert "avg: accuracy" in stdout
    with open(out) as fh:
        assert "[method avg]" in fh.read()


def test_experiment_reruns_are_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("LACUNA_SEED", raising=False)
    out = tmp_path / "results.txt"
    ini = tmp_path / "exp.ini"
    ini.write_text(TOY_INI.format(out=str(out)))
    assert cli.main(["experiment", str(ini)]) == 0
    first = out.read_bytes()
    assert cli.main(["experiment", str(ini)]) == 0
    assert out.read_bytes() == first
    capsys.readouterr()


def test_experiment_bad_config_exits_1(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[experiment]\nmethods = \n")
    assert cli.main(["experiment", str(ini)]) == 1
    assert cli.main(["experiment", str(tmp_path / "absent.ini")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("rate", ["nan", "inf"])
def test_experiment_non_finite_learning_rate_exits_1(tmp_path, capsys, rate):
    ini = tmp_path / "exp.ini"
    ini.write_text(TOY_INI.format(out=str(tmp_path / "results.txt"))
                   + f"learning_rate = {rate}\n")
    assert cli.main(["experiment", str(ini)]) == 1
    assert "learning_rate" in capsys.readouterr().err
    assert not (tmp_path / "results.txt").exists()


def test_experiment_divergence_exits_3(tmp_path, capsys, monkeypatch):
    out = str(tmp_path / "results.txt")
    ini = tmp_path / "exp.ini"
    ini.write_text(TOY_INI.format(out=out))

    def blow_up(cfg):
        raise DivergenceError("train loss inf at epoch 1")

    monkeypatch.setattr(cli, "run_experiment", blow_up)
    assert cli.main(["experiment", str(ini)]) == 3
    capsys.readouterr()


def test_experiment_unwritable_output_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("LACUNA_SEED", raising=False)
    out = str(tmp_path / "no" / "dir" / "results.txt")
    ini = tmp_path / "exp.ini"
    ini.write_text(TOY_INI.format(out=out))
    assert cli.main(["experiment", str(ini)]) == 1
    capsys.readouterr()


# ----------------------------------------------------------------- gradcheck

def test_gradcheck_passes_and_prints_table(capsys):
    assert cli.main(["gradcheck", "--seeds", "2"]) == 0
    out = capsys.readouterr().out
    for op_id in gradcheck.CHECKED_OPS:
        assert op_id in out
    assert "FAIL" not in out
    header, *rows = out.splitlines()
    assert header.split() == ["operation", "status", "max_rel", "runs",
                              "resampled"]
    assert len(rows) == len(gradcheck.CHECKED_OPS)
    for row in rows:
        fields = row.split()
        assert fields[1] == "pass" and fields[3] == "2"
        assert int(fields[4]) >= 0


def test_gradcheck_resampled_column_sums_reports(monkeypatch, capsys):
    def fake_suite(seeds, tol, probes):
        return [gradcheck.GradCheckReport("pool_max", 1e-9, 1e-9, probes, tol,
                                          True, resampled=r) for r in (3, 4)]

    monkeypatch.setattr(cli, "run_gradient_suite", fake_suite)
    assert cli.main(["gradcheck", "--seeds", "2"]) == 0
    (row,) = capsys.readouterr().out.splitlines()[1:]
    assert row.split() == ["pool_max", "pass", "1.000e-09", "2", "7"]


@pytest.mark.parametrize("flags", [
    ["--seeds", "0"], ["--seeds", "-3"], ["--probes", "0"], ["--tol", "0"],
    ["--tol", "-1e-4"], ["--tol", "nan"], ["--tol", "inf"],
])
def test_gradcheck_empty_or_vacuous_runs_exit_1(flags, capsys):
    # a run that checks nothing, or cannot fail, is a usage error, not a pass
    assert cli.main(["gradcheck", *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err


def test_gradcheck_detects_sabotaged_backward(monkeypatch, capsys):
    true_rule = gradcheck.BACKWARD["pool_avg"]

    def flipped(upstream, *inputs):
        return tuple(-g for g in true_rule(upstream, *inputs))

    monkeypatch.setitem(gradcheck.BACKWARD, "pool_avg", flipped)
    assert cli.main(["gradcheck", "--seeds", "2"]) == 4
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_fails_nan_gradients(monkeypatch, capsys):
    monkeypatch.setitem(gradcheck.BACKWARD, "pool_avg",
                        lambda upstream, x, spec: (np.full(x.shape, np.nan),))
    assert cli.main(["gradcheck", "--seeds", "2"]) == 4
    (row,) = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("pool_avg")]
    assert row.split()[:3] == ["pool_avg", "FAIL", "inf"]
