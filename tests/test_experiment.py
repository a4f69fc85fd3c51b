from pathlib import Path

import numpy as np
import pytest
from _memory import PEAK_SLACK, traced_peak

from lacuna import cli
from lacuna.experiment import (
    DATASETS,
    METHODS,
    ExperimentConfig,
    ExperimentConfigError,
    _features,
    format_results,
    load_config,
    pooling_for,
    run_experiment,
    write_results,
)
from lacuna.lacunarity import LacunarityConfig
from lacuna.model import FrozenBackbone, FusionModel
from lacuna.textures import toy_dataset
from lacuna.train import TrainConfig

TOY_INI = """\
[experiment]
methods = avg, multiscale
dataset = toy
classes = 3
samples_per_class = 10
image_size = 56
seeds = 0
backbone_channels = 4
scales = 2
output = {out}

[train]
batch_size = 8
learning_rate = 0.05
max_epochs = 3
early_stop_patience = 2
"""


def write_ini(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text)
    return str(path)


def toy_config(tmp_path, **overrides):
    out = str(tmp_path / "results.txt")
    base = dict(methods=("avg",), dataset="toy", classes=3,
                samples_per_class=10, image_size=56, seeds=(0,),
                backbone_channels=4, output=out,
                train=TrainConfig(max_epochs=3, early_stop_patience=2,
                                  learning_rate=0.05))
    base.update(overrides)
    return ExperimentConfig(**base)


# ------------------------------------------------------------------- parsing

def test_load_config_reads_all_fields(tmp_path):
    out = str(tmp_path / "r.txt")
    cfg = load_config(write_ini(tmp_path, TOY_INI.format(out=out)))
    assert cfg.methods == ("avg", "multiscale")
    assert cfg.dataset == "toy"
    assert cfg.classes == 3
    assert cfg.samples_per_class == 10
    assert cfg.image_size == 56
    assert cfg.seeds == (0,)
    assert cfg.backbone_channels == 4
    assert cfg.output == out
    assert cfg.train.batch_size == 8
    assert cfg.train.learning_rate == 0.05
    assert cfg.train.max_epochs == 3
    assert cfg.train.early_stop_patience == 2


def test_load_config_defaults(tmp_path):
    cfg = load_config(write_ini(tmp_path, "[experiment]\nmethods = avg\n"))
    assert cfg.dataset == "heterogeneity"
    assert cfg.seeds == (0, 1, 2, 3, 4)
    assert cfg.train == TrainConfig()


@pytest.mark.parametrize(
    "text",
    [
        "methods = avg\n",                                   # no section
        "[experiment]\nmethods = \n",                        # empty methods
        "[experiment]\nmethods = median\n",                  # unknown method
        "[experiment]\nmethods = avg\ndataset = cifar\n",    # unknown dataset
        "[experiment]\nmethods = avg\nsamples_per_class = 9\n",
        "[experiment]\nmethods = avg\nclasses = 1\n",
        "[experiment]\nmethods = avg\nseeds = x\n",
        "[experiment]\nmethods = avg\ndataset = heterogeneity\nclasses = 4\n",
        "[experiment]\nmethods = avg\n[train]\nlearning_rate = -1\n",
        "not an ini at all {{{",
    ],
)
def test_load_config_rejects_bad_configs(tmp_path, text):
    with pytest.raises(ExperimentConfigError):
        load_config(write_ini(tmp_path, text))


@pytest.mark.parametrize("overrides, message", [
    (dict(classes=1), "need at least two classes"),
    (dict(image_size=15), "image_size must be >= 16"),
])
def test_config_rejects_too_few_classes_and_too_small_images(overrides, message):
    with pytest.raises(ExperimentConfigError, match=message):
        ExperimentConfig(methods=("avg",), dataset="toy", **overrides)


def test_load_config_without_an_experiment_section(tmp_path):
    with pytest.raises(ExperimentConfigError, match=r"needs an \[experiment\] section"):
        load_config(write_ini(tmp_path, "[train]\nmax_epochs = 3\n"))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ExperimentConfigError):
        load_config(str(tmp_path / "absent.ini"))


def test_pooling_for_mapping(tmp_path):
    cfg = toy_config(tmp_path, dilations=(1, 2), scales=3)
    for method in METHODS:  # every method carries, and checks, both
        assert pooling_for(cfg, method) == LacunarityConfig(
            method=method, dilation_set=(1, 2), scales=3)
    assert set(METHODS) >= {"base", "dbc", "multiscale", "avg", "max", "l2"}
    assert DATASETS == ("heterogeneity", "toy")


# -------------------------------------------------------------------- runner

def test_run_experiment_summaries(tmp_path):
    cfg = toy_config(tmp_path, methods=("avg", "multiscale"), seeds=(0, 1))
    result = run_experiment(cfg)
    assert "\nseeds = 0, 1\n" in format_results(result)
    assert [s.method for s in result.summaries] == ["avg", "multiscale"]
    for s in result.summaries:
        assert len(s.accuracies) == 2
        assert 0.0 <= s.mean_accuracy <= 1.0
        # toy split: 10 per class -> 2 test samples per class, 2 seeds summed
        assert s.confusion.sum() == 2 * 3 * 2
        assert all(np.isfinite(v) for v in s.log_fdrs)
    avg, ms = result.summaries
    assert avg.mix_params == 0
    assert ms.mix_params == 4 * 2 + 4
    assert ms.trainable_params == avg.trainable_params + ms.mix_params


def test_run_experiment_runs_backbone_once_per_seed(tmp_path, monkeypatch):
    batches = []
    conv = FrozenBackbone.features

    def counted(self, images):
        batches.append(images.copy())
        return conv(self, images)

    monkeypatch.setattr(FrozenBackbone, "features", counted)
    run_experiment(toy_config(tmp_path, methods=("avg", "multiscale"),
                              seeds=(0, 1)))
    # one pass over each seed's images, one backbone block (16 images of
    # 56 px) at a time, shared by all methods
    assert [len(b) for b in batches] == [16, 14, 16, 14]
    for seed, blocks in ((0, batches[:2]), (1, batches[2:])):
        images, _ = toy_dataset(3, 10, 56, seed)
        assert np.array_equal(np.concatenate(blocks), images)


def test_run_experiment_pools_each_row_once_per_head(tmp_path, monkeypatch):
    rows = []
    planes = FusionModel.scale_planes

    def counted(self, feats):
        rows.append(len(feats))
        return planes(self, feats)

    monkeypatch.setattr(FusionModel, "scale_planes", counted)
    run_experiment(toy_config(tmp_path, methods=("avg", "dbc", "multiscale"),
                              seeds=(0, 1)))
    # 30 rows per seed, pooled once per head: the test rows are scored from
    # the vectors training pooled, not pooled again
    assert sum(rows) == 30 * 3 * 2


@pytest.mark.parametrize("overrides", [
    dict(methods=("multiscale",), scales=3),
    dict(methods=("dbc",), image_size=17),  # 3x3 features fit the 3x3 glide
])
def test_config_accepts_pooling_that_fits_the_features(tmp_path, overrides):
    toy_config(tmp_path, **overrides)


@pytest.mark.parametrize("dataset", ["heterogeneity", "toy"])
def test_features_peak_grows_only_with_the_feature_tensor(dataset):
    def peak_and_kept(samples_per_class):
        cfg = ExperimentConfig(methods=("avg",), dataset=dataset,
                               samples_per_class=samples_per_class)
        peak, (feats, labels) = traced_peak(lambda: _features(cfg, 0))
        return peak, feats.nbytes + labels.nbytes

    peak_and_kept(10)  # first-call caches
    small, small_kept = peak_and_kept(10)
    large, large_kept = peak_and_kept(40)
    # the images and the backbone's temporaries stay one block
    assert large - small <= large_kept - small_kept + PEAK_SLACK, (small, large)


# the benchmark's experiment-six workload at seed pair 0, whose results file
# perfbench/golden/experiment/pair_00.txt records
HETEROGENEITY_PAIR_0 = """\
[experiment]
methods = base, dbc, multiscale, avg, max, l2
dataset = heterogeneity
classes = 3
samples_per_class = 100
image_size = 56
seeds = 0, 1
backbone_channels = 16
scales = 2
output = {out}

[train]
batch_size = 16
learning_rate = 0.01
max_epochs = 100
early_stop_patience = 10
"""


def test_heterogeneity_experiment_matches_its_golden(tmp_path, capsys):
    out = tmp_path / "results.txt"
    ini = write_ini(tmp_path, HETEROGENEITY_PAIR_0.format(out=out))
    assert cli.main(["experiment", ini]) == 0
    capsys.readouterr()
    golden = (Path(__file__).parent.parent / "perfbench" / "golden"
              / "experiment" / "pair_00.txt")
    assert out.read_bytes() == golden.read_bytes()


def test_run_experiment_ignores_the_seed_environment(tmp_path, monkeypatch):
    # the config's seed list is the one seed source: a results file does not
    # depend on the shell that wrote it
    cfg = toy_config(tmp_path, seeds=(0, 1))
    monkeypatch.setenv("LACUNA_SEED", "5")
    result = run_experiment(cfg)
    assert len(result.summaries[0].accuracies) == 2
    written = Path(write_results(result)).read_text().splitlines()
    assert "seeds = 0, 1" in written
    assert [line.split(":")[0] for line in written
            if line.startswith("seed ")] == ["seed 0", "seed 1"]


# ------------------------------------------------------------------- results

def test_format_results_is_deterministic(tmp_path):
    cfg = toy_config(tmp_path)
    a = format_results(run_experiment(cfg))
    b = format_results(run_experiment(cfg))
    assert a == b
    assert "[method avg]" in a
    assert "accuracy = " in a and "+/-" in a
    assert "log_fdr = " in a
    assert "confusion (rows true, columns predicted, all seeds):" in a


def test_write_results_uses_config_output(tmp_path):
    cfg = toy_config(tmp_path)
    result = run_experiment(cfg)
    path = write_results(result)
    assert path == cfg.output
    with open(path) as fh:
        assert fh.read() == format_results(result)
