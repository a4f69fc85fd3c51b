"""End-to-end acceptance checks for the lacunarity pooling stack.

Each test covers one headline guarantee, prints one PASS line when it
holds, and pins the tolerance it was accepted at.  Slow paths also assert
their wall-clock budget.
"""

import ast
import re
import time
from pathlib import Path

import numpy as np
import pytest

from _reference import ref_dbc_heights, ref_pool, ref_scatter_ratio
from lacuna import cli, gradcheck
from lacuna.lacunarity import LacunarityConfig, base_lacunarity, dbc_column_heights
from lacuna.lacunarity import multiscale_lacunarity, tanh_scale
from lacuna.metrics import fisher_discriminant_ratio
from lacuna.model import FrozenBackbone, FusionModel
from lacuna.tensor import (
    GroupedMixWeights,
    PoolSpec,
    pool_avg,
    pool_l2,
    pool_max,
    pool_min,
    pool_sum,
)
from lacuna.textures import GRADES, generate_texture, global_lacunarity, heterogeneity_dataset
from lacuna.train import TrainConfig, evaluate, train


def report(name: str) -> None:
    print(f"[acceptance] {name}: PASS")


def test_mixing_layer_param_counts_are_exact():
    for channels, scales, expected in ((512, 2, 1536), (768, 2, 2304),
                                       (2208, 2, 6624)):
        mix = GroupedMixWeights.uniform(channels, scales)
        assert mix.param_count() == expected
        assert mix.weights.size + mix.bias.size == expected
    report("grouped mixing parameter counts exact for published widths")


def test_base_lacunarity_matches_moment_ratio_oracle():
    # variance-over-squared-mean must equal the sum-form computation;
    # a vanishing epsilon isolates the two algebraic forms
    rng = np.random.default_rng(0)
    checked = 0
    for kernel in (2, 3, 5, 7):
        x = rng.uniform(1.0, 255.0, size=(250, 1, kernel, kernel))
        cfg = LacunarityConfig(method="base", window=PoolSpec.square(kernel),
                               epsilon=1e-300, normalize_input=False)
        impl = base_lacunarity(x, cfg)[:, :, 0, 0]
        oracle = np.var(x, axis=(2, 3)) / np.mean(x, axis=(2, 3)) ** 2
        rel = np.abs(impl - oracle) / np.maximum(np.abs(oracle), 1e-300)
        assert rel.max() <= 1e-9
        checked += x.shape[0]
    assert checked == 1000
    report("moment-ratio identity holds on 1000 positive windows (<= 1e-9)")


def _random_pool_case(rng):
    n, c = int(rng.integers(1, 4)), int(rng.integers(1, 4))
    h, w = int(rng.integers(3, 13)), int(rng.integers(3, 13))
    for _ in range(100):
        kh, kw = int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1))
        dilation = int(rng.integers(1, 3))
        eff_h = (kh - 1) * dilation + 1
        eff_w = (kw - 1) * dilation + 1
        pad = int(rng.integers(0, min(eff_h, eff_w) // 2 + 1))
        sh, sw = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        if h + 2 * pad >= eff_h and w + 2 * pad >= eff_w:
            spec = PoolSpec(kh, kw, sh, sw, dilation=dilation, padding=pad)
            return rng.standard_normal((n, c, h, w)), spec
    raise AssertionError("no valid pooling geometry drawn")


def test_pooling_and_box_heights_match_bruteforce():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    ops = {"sum": pool_sum, "avg": pool_avg, "max": pool_max,
           "min": pool_min, "l2": pool_l2}
    for _ in range(160):
        x, spec = _random_pool_case(rng)
        mode = list(ops)[int(rng.integers(0, len(ops)))]
        got = ops[mode](x, spec)
        want = ref_pool(x, mode, spec.kernel_h, spec.kernel_w, spec.stride_h,
                        spec.stride_w, spec.dilation, spec.padding)
        if mode in ("max", "min"):
            assert np.array_equal(got, want)
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    for _ in range(40):
        kernel = int(rng.choice([1, 3, 5]))
        stride = int(rng.integers(1, 3))
        # the second-stage window must fit the first stage's output map
        floor_dim = (kernel - 1) * stride + 1
        h = int(rng.integers(floor_dim, 17))
        w = int(rng.integers(floor_dim, 17))
        r = int(rng.integers(1, 5))
        x = rng.uniform(0.0, 255.0, size=(2, 2, h, w))
        window = PoolSpec.square(kernel, stride=stride,
                                 padding=r * (kernel - 1) // 2,
                                 dilation=r)
        got = dbc_column_heights(x, r, window)
        want = ref_dbc_heights(x, r, kernel, stride)
        assert np.array_equal(got, want)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(f"200 pooling/box-height sweeps match brute force ({elapsed:.1f}s)")


def test_gradient_suite_and_cli_pass_twenty_seeds(capsys):
    start = time.perf_counter()
    reports = gradcheck.run_gradient_suite(seeds=range(20))
    assert all(r.passed for r in reports)
    assert {r.op_id for r in reports} == set(gradcheck.CHECKED_OPS)
    assert cli.main(["gradcheck"]) == 0
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert elapsed < 120.0
    report(f"gradient checks pass for every op over 20 seeds ({elapsed:.1f}s)")


def test_single_scale_pyramid_collapses_to_base():
    rng = np.random.default_rng(2)
    windows = (None, PoolSpec.square(2), PoolSpec.square(3, stride=1))
    for trial in range(50):
        n, c = int(rng.integers(1, 3)), int(rng.integers(1, 4))
        h, w = int(rng.integers(6, 14)), int(rng.integers(6, 14))
        x = rng.uniform(0.0, 255.0, size=(n, c, h, w))
        window = windows[trial % len(windows)]
        ms_cfg = LacunarityConfig(method="multiscale", scales=1, window=window)
        base_cfg = LacunarityConfig(method="base", window=window)
        got = multiscale_lacunarity(x, ms_cfg, GroupedMixWeights.uniform(c, 1))
        want = base_lacunarity(x, base_cfg)
        assert np.max(np.abs(got - want)) <= 1e-12
    report("one-level pyramid with identity mixing equals the base operator")


def test_grade_ordering_strict_over_hundred_seeds():
    start = time.perf_counter()
    for seed in range(100):
        low, mid, high = (global_lacunarity(generate_texture(g, seed=seed).image)
                          for g in GRADES)
        assert low < mid < high
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(f"grade lacunarity strictly ordered across 100 seeds ({elapsed:.1f}s)")


def test_training_smoke_multiscale_beats_averaging():
    start = time.perf_counter()
    accs = {"multiscale": [], "avg": []}
    for seed in range(5):
        images, labels = heterogeneity_dataset(100, size=56, seed=seed)
        feats = FrozenBackbone.make(seed=seed, channels=16).features(images)
        for method, pooling in (
            ("multiscale", LacunarityConfig(method="multiscale", scales=2)),
            ("avg", LacunarityConfig(method="avg")),
        ):
            model = FusionModel.build(16, pooling, 3, seed=seed)
            cfg = TrainConfig(max_epochs=100, early_stop_patience=10,
                              learning_rate=0.01, seed=seed)
            result = train(model, feats, labels, cfg)
            assert result.history.epochs() <= 100
            accs[method].append(
                evaluate(model, feats, labels, result.test_idx).accuracy)
    hits = sum(acc >= 0.90 for acc in accs["multiscale"])
    assert hits >= 4, f"multiscale per-seed accuracies: {accs['multiscale']}"
    ms_mean = float(np.mean(accs["multiscale"]))
    avg_mean = float(np.mean(accs["avg"]))
    assert ms_mean >= avg_mean, f"{ms_mean=} < {avg_mean=}"
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(
        "training smoke: multiscale "
        f"{ms_mean:.3f} >= averaging {avg_mean:.3f}, {hits}/5 seeds >= 0.90 "
        f"({elapsed:.0f}s)"
    )


def test_experiment_results_are_byte_identical(tmp_path, capsys):
    out = tmp_path / "results.txt"
    ini = tmp_path / "exp.ini"
    ini.write_text(
        "[experiment]\n"
        "methods = avg, multiscale\n"
        "dataset = toy\n"
        "samples_per_class = 10\n"
        "seeds = 0, 1\n"
        "backbone_channels = 4\n"
        f"output = {out}\n"
        "[train]\n"
        "max_epochs = 3\n"
        "early_stop_patience = 2\n"
    )
    assert cli.main(["experiment", str(ini)]) == 0
    first = out.read_bytes()
    assert cli.main(["experiment", str(ini)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == first
    # recorded by the pipeline that still ran the backbone once per train,
    # evaluate and FDR call; sharing one feature tensor must not move a byte
    recorded = Path(__file__).parent / "data" / "toy_experiment_results.txt"
    assert first == recorded.read_bytes()
    report("identical experiment configs write byte-identical results files, "
           "equal to the recorded ones")


def test_fdr_matches_oracle_and_is_rotation_invariant():
    rng = np.random.default_rng(3)
    for trial in range(20):
        dims = int(rng.integers(2, 8))
        feats, labels = [], []
        for k in range(int(rng.integers(2, 5))):
            center = rng.uniform(-2.0, 2.0, size=dims)
            rows = int(rng.integers(3, 8))
            feats.append(center + rng.standard_normal((rows, dims)))
            labels += [k] * rows
        feats = np.concatenate(feats)
        labels = np.array(labels)
        got = fisher_discriminant_ratio(feats, labels)
        between, within = ref_scatter_ratio(feats, labels)
        assert got.between == pytest.approx(between, rel=1e-9)
        assert got.within == pytest.approx(within, rel=1e-9)
        q, _ = np.linalg.qr(rng.standard_normal((dims, dims)))
        spun = fisher_discriminant_ratio(feats @ q, labels)
        assert spun.log_fdr == pytest.approx(got.log_fdr, rel=1e-9, abs=1e-9)
    report("FDR matches the scatter oracle and ignores feature rotations")


def test_star_import_gives_every_name_the_readme_imports():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    wanted = {"scale_planes"}
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module == "lacuna":
                wanted.update(alias.name for alias in node.names)
    namespace = {}
    exec("from lacuna import *", namespace)
    assert len(wanted) > 10  # both README blocks were found
    assert wanted <= namespace.keys()
    report("README imports")
