from pathlib import Path

import numpy as np
import pytest

from lacuna import cli
from lacuna import gradcheck
from lacuna import train as train_mod
from lacuna.model import FrozenBackbone
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


# the lacmap settings the benchmark runs; tests/data/lacmap64 holds their
# heatmaps and printed values on its 64x64 texture
LACMAP_SETTINGS = (
    ("--method", "base"),
    ("--method", "base", "--window", "8"),
    ("--method", "dbc"),
    ("--method", "ms"),
    ("--method", "ms", "--window", "16", "--stride", "4"),
)
LACMAP_DATA = Path(__file__).parent / "data" / "lacmap64"


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


@pytest.mark.parametrize("setting", range(len(LACMAP_SETTINGS)))
def test_lacmap_outputs_are_pinned_byte_for_byte(tmp_path, capsys, setting):
    out = tmp_path / "heat.pgm"
    assert cli.main(["lacmap", *LACMAP_SETTINGS[setting],
                     str(LACMAP_DATA / "texture.pgm"), str(out)]) == 0
    assert out.read_bytes() == (LACMAP_DATA / f"heat_{setting}.pgm").read_bytes()
    printed = (LACMAP_DATA / "printed.txt").read_text().splitlines(keepends=True)
    assert capsys.readouterr().out == printed[setting]


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


@pytest.mark.parametrize("stride", ["0", "-1"])
def test_lacmap_stride_below_one_exits_1(tmp_path, texture_pgm, capsys, stride):
    # PoolSpec reads stride 0 as "use the kernel"; on the command line a
    # stride is a step of at least one cell
    out = tmp_path / "o.pgm"
    assert cli.main(["lacmap", "--window", "4", "--stride", stride,
                     texture_pgm, str(out)]) == 1
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


@pytest.mark.parametrize("eps", ["inf", "nan", "0"])
def test_lacmap_epsilon_not_finite_and_positive_exits_1(tmp_path, texture_pgm,
                                                        capsys, eps):
    out = tmp_path / "o.pgm"
    assert cli.main(["lacmap", "--epsilon", eps, texture_pgm, str(out)]) == 1
    assert "epsilon" in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------- experiment

def test_experiment_runs_and_writes_results(tmp_path, capsys):
    out = str(tmp_path / "results.txt")
    ini = tmp_path / "exp.ini"
    ini.write_text(TOY_INI.format(out=out))
    assert cli.main(["experiment", str(ini)]) == 0
    stdout = capsys.readouterr().out
    assert "avg: accuracy" in stdout
    with open(out) as fh:
        assert "[method avg]" in fh.read()


def test_experiment_reruns_are_byte_identical(tmp_path, capsys):
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


@pytest.mark.parametrize("edit, named", [
    (("backbone_channels = 4", "backbone_chanels = 4"),
     "'backbone_chanels' in [experiment]"),
    (("max_epochs = 2", "max_epoch = 2"), "'max_epoch' in [train]"),
    (("[train]", "[trian]"), "section [trian]"),
    (("[experiment]", "[DEFAULT]\nbatch = 4\n[experiment]"), "'batch' in [DEFAULT]"),
], ids=["experiment-key", "train-key", "section", "default-key"])
def test_experiment_config_unknown_key_or_section_exits_1(tmp_path, capsys, edit,
                                                           named):
    text = TOY_INI.format(out=tmp_path / "results.txt")
    assert edit[0] in text
    ini = tmp_path / "exp.ini"
    ini.write_text(text.replace(*edit))
    assert cli.main(["experiment", str(ini)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown ") and err.count("\n") == 1, err
    assert named in err
    assert not (tmp_path / "results.txt").exists()


@pytest.mark.parametrize("methods, setting", [
    ("avg", "backbone_channels = 0"),
    ("multiscale", "scales = 0"),
    ("multiscale", "scales = 4"),  # 7x7 features hold three levels
    ("multiscale", "scales = 9"),
    ("dbc", "dilations = 0"),
    ("dbc", "dilations = 2, 1"),
    ("dbc", "image_size = 16"),  # 2x2 features
    ("avg", "seeds = 0, -1"),  # the backbone and the split take no negative seed
])
def test_experiment_config_its_pooling_cannot_run_exits_1(
        tmp_path, capsys, monkeypatch, methods, setting):
    def unreachable(self, images):
        raise AssertionError("the backbone ran on a rejected config")

    monkeypatch.setattr(FrozenBackbone, "features", unreachable)
    key = setting.split(" = ")[0]
    lines = [line for line in TOY_INI.format(out=tmp_path / "results.txt")
             .splitlines() if not line.startswith(("methods", key))]
    lines[1:1] = [f"methods = {methods}", setting]
    ini = tmp_path / "exp.ini"
    ini.write_text("\n".join(lines) + "\n")
    assert cli.main(["experiment", str(ini)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "results.txt").exists()


def test_experiment_config_unused_scales_and_dilations_exit_1(tmp_path, capsys):
    # no listed method reads them, yet they are checked
    ini = tmp_path / "exp.ini"
    ini.write_text(TOY_INI.format(out=tmp_path / "results.txt").replace(
        "methods = avg\n", "methods = avg\nscales = 0\ndilations = 3, 2, 0\n"))
    assert cli.main(["experiment", str(ini)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not (tmp_path / "results.txt").exists()


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


def test_experiment_unwritable_output_exits_1(tmp_path, capsys):
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


def test_default_gradcheck_table_is_pinned(capsys):
    # the status and max_rel columns at the defaults, recorded byte for byte
    recorded = Path(__file__).parent / "data" / "gradcheck_default.txt"
    assert cli.main(["gradcheck"]) == 0
    assert capsys.readouterr().out == recorded.read_text()


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


def test_gradcheck_fails_a_sabotaged_training_gradient(monkeypatch, capsys):
    # the fusion_head row runs the head gradient that every training step runs
    assert train_mod._head_grad is gradcheck._head_grad
    true_grad = gradcheck._head_grad

    def scaled(*args):
        return tuple(g * (1 + 1e-3) for g in true_grad(*args))

    monkeypatch.setattr(gradcheck, "_head_grad", scaled)
    assert cli.main(["gradcheck", "--seeds", "2"]) == 4
    (row,) = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("fusion_head")]
    assert row.split()[:2] == ["fusion_head", "FAIL"]


def test_gradcheck_fails_nan_gradients(monkeypatch, capsys):
    monkeypatch.setitem(gradcheck.BACKWARD, "pool_avg",
                        lambda upstream, x, spec: (np.full(x.shape, np.nan),))
    assert cli.main(["gradcheck", "--seeds", "2"]) == 4
    (row,) = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("pool_avg")]
    assert row.split()[:3] == ["pool_avg", "FAIL", "inf"]
