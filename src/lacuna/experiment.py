"""Experiment configuration, runner, and deterministic results files.

An experiment compares pooling methods on a synthetic texture dataset.  Per
seed it draws the dataset and runs the frozen backbone over it once, one
backbone block of images at a time, into one feature tensor; that tensor is
then shared by every method, so the comparison is paired, and dropped
before the next seed's is built.
Per seed it builds one fusion head per method over those features and
trains them in lockstep (`train_heads`), which pools every row once and
scores the test rows from those vectors: the test logits give the accuracy
and the fused test features a class-separability (FDR) report.  Results
serialize to a fixed-format text file: rerunning the same config writes
byte-identical bytes.

Configs are INI files (configparser) with an [experiment] section and an
optional [train] section; see configs/heterogeneity.ini.  An unknown
section or key is an error, the dilations and scales are checked whatever
the methods, and each method's `lacunarity.scale_planes` runs once on a
zero map of the features' size before any image is drawn.
A run reads its seeds from the config alone, never from the environment.
"""

from __future__ import annotations

import configparser
import re
from dataclasses import dataclass, field, replace

import numpy as np

from .lacunarity import METHODS, LacunarityConfig, scale_planes
from .metrics import fisher_discriminant_ratio, summarize_log_fdr
from .model import FrozenBackbone, FusionModel, _backbone_block
from .textures import heterogeneity_dataset, toy_dataset
from .train import EvalReport, TrainConfig, TrainResult, confusion_report, train_heads

DATASETS = ("heterogeneity", "toy")


class ExperimentConfigError(ValueError):
    """Unreadable, unparsable, or out-of-contract experiment config."""


@dataclass(frozen=True)
class ExperimentConfig:
    methods: tuple[str, ...]
    dataset: str = "heterogeneity"
    classes: int = 3
    samples_per_class: int = 100
    image_size: int = 56
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    backbone_channels: int = 16
    scales: int = 2
    dilations: tuple[int, ...] = (1, 2, 3)
    output: str = "results.txt"
    train: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        if not self.methods:
            raise ExperimentConfigError("need at least one pooling method")
        for m in self.methods:
            if m not in METHODS:
                raise ExperimentConfigError(
                    f"unknown method {m!r}; choose from {METHODS}")
        if self.dataset not in DATASETS:
            raise ExperimentConfigError(
                f"unknown dataset {self.dataset!r}; choose from {DATASETS}")
        if self.dataset == "heterogeneity" and self.classes != 3:
            raise ExperimentConfigError(
                "the heterogeneity dataset has exactly its three arrangements")
        if self.classes < 2:
            raise ExperimentConfigError("need at least two classes")
        if self.samples_per_class < 10:
            raise ExperimentConfigError("need at least ten samples per class")
        if self.image_size < 16:
            raise ExperimentConfigError("image_size must be >= 16")
        if not self.seeds:
            raise ExperimentConfigError("need at least one seed")
        if self.backbone_channels < 1:
            raise ExperimentConfigError("backbone_channels must be >= 1")
        # the backbone's geometry does not depend on its width
        shape = FrozenBackbone.make(channels=1).feature_shape(
            1, self.image_size, self.image_size)
        for m in self.methods:
            try:
                scale_planes(np.zeros(shape), pooling_for(self, m))
            except ValueError as exc:
                raise ExperimentConfigError(
                    f"method {m} on {shape[2]}x{shape[3]} features: {exc}") from exc


def _words(raw: str) -> tuple[str, ...]:
    return tuple(tok for tok in re.split(r"[,\s]+", raw) if tok)


def _int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in _words(raw))


# every key each section takes, and how its value is read
_KEYS = {
    "experiment": {"methods": _words, "dataset": str, "classes": int,
                   "samples_per_class": int, "image_size": int,
                   "seeds": _int_tuple, "backbone_channels": int, "scales": int,
                   "dilations": _int_tuple, "output": str},
    "train": {"batch_size": int, "learning_rate": float, "max_epochs": int,
              "early_stop_patience": int},
}


def _read_section(parser: configparser.ConfigParser, section: str) -> dict:
    """A section's values, [DEFAULT]'s included, each read by its key's cast."""
    casts = _KEYS[section]
    values = {}
    for key, raw in parser[section].items():
        if key not in casts:
            where = parser.default_section if key in parser.defaults() else section
            raise ExperimentConfigError(f"unknown key {key!r} in [{where}]")
        values[key] = casts[key](raw)
    return values


def load_config(path: str) -> ExperimentConfig:
    """Parse an INI experiment config; all failures raise ExperimentConfigError,
    an unknown section or key among them."""
    parser = configparser.ConfigParser()
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ExperimentConfigError(f"cannot read config: {exc}") from exc
    except configparser.Error as exc:
        raise ExperimentConfigError(f"cannot parse config: {exc}") from exc
    if not parser.has_section("experiment"):
        raise ExperimentConfigError("config needs an [experiment] section")
    for section in parser.sections():
        if section not in _KEYS:
            raise ExperimentConfigError(f"unknown section [{section}]")
    try:
        kwargs = {"methods": (), **_read_section(parser, "experiment")}
        if parser.has_section("train"):
            kwargs["train"] = TrainConfig(**_read_section(parser, "train"))
        return ExperimentConfig(**kwargs)
    except (ValueError, TypeError) as exc:
        if isinstance(exc, ExperimentConfigError):
            raise
        raise ExperimentConfigError(f"bad config value: {exc}") from exc


# --------------------------------------------------------------------- runner

@dataclass(frozen=True)
class MethodSummary:
    method: str
    accuracies: tuple[float, ...]
    mean_accuracy: float
    std_accuracy: float
    log_fdrs: tuple[float, ...]
    mean_log_fdr: float
    std_log_fdr: float
    epochs: tuple[int, ...]
    confusion: np.ndarray  # rows true, columns predicted, summed over seeds
    trainable_params: int
    mix_params: int


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    summaries: tuple[MethodSummary, ...]


def pooling_for(cfg: ExperimentConfig, method: str) -> LacunarityConfig:
    """`method` with the config's dilations and scales, which it checks
    whether or not the method reads them."""
    return LacunarityConfig(method=method, dilation_set=cfg.dilations,
                            scales=cfg.scales)


def _dataset(cfg: ExperimentConfig, seed: int, start: int, stop: int
             ) -> tuple[np.ndarray, np.ndarray]:
    """Images and labels of the rows [start, stop) of a seed's dataset."""
    if cfg.dataset == "toy":
        return toy_dataset(cfg.classes, cfg.samples_per_class,
                           cfg.image_size, seed, start, stop)
    return heterogeneity_dataset(cfg.samples_per_class, cfg.image_size, seed,
                                 start, stop)


def _features(cfg: ExperimentConfig, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """A seed's feature tensor and labels, one backbone block at a time.

    Each block of images is drawn, run through the backbone into its rows of
    the one feature tensor, and dropped, so the images never all exist at
    once; rows depend only on (seed, row), so the tensor is the same as from
    the whole image set.
    """
    backbone = FrozenBackbone.make(seed=seed, channels=cfg.backbone_channels)
    n, size = cfg.classes * cfg.samples_per_class, cfg.image_size
    feats = np.empty(backbone.feature_shape(n, size, size))
    labels = np.empty(n, dtype=np.int64)
    step = _backbone_block(size, size)
    for start in range(0, n, step):
        stop = min(start + step, n)
        images, labels[start:stop] = _dataset(cfg, seed, start, stop)
        feats[start:stop] = backbone.features(images)
    return feats, labels


def _score(result: TrainResult, labels: np.ndarray,
           classes: int) -> tuple[EvalReport, float]:
    """Test scores and log-FDR from the test rows training scored."""
    true = labels[result.test_idx]
    return (confusion_report(true, result.test_logits.argmax(axis=1), classes),
            fisher_discriminant_ratio(result.test_fused, true).log_fdr)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    n = len(cfg.methods)
    accs, fdrs, epochs = ([[] for _ in range(n)] for _ in range(3))
    confusions = [np.zeros((cfg.classes, cfg.classes), dtype=np.int64)
                  for _ in range(n)]
    for seed in cfg.seeds:
        feats, labels = _features(cfg, seed)
        models = [FusionModel.build(cfg.backbone_channels,
                                    pooling_for(cfg, method), cfg.classes,
                                    seed=seed)
                  for method in cfg.methods]
        results = train_heads(models, feats, labels,
                              replace(cfg.train, seed=seed))
        for i, result in enumerate(results):
            report, log_fdr = _score(result, labels, cfg.classes)
            accs[i].append(report.accuracy)
            fdrs[i].append(log_fdr)
            epochs[i].append(result.history.epochs())
            confusions[i] += report.confusion
        del feats  # hold one seed's features at a time
    summaries = []
    for i, (method, model) in enumerate(zip(cfg.methods, models)):
        acc_arr = np.array(accs[i])
        mean_acc, std_acc = float(acc_arr.mean()), float(acc_arr.std())
        mean_fdr, std_fdr = summarize_log_fdr(fdrs[i])
        summaries.append(MethodSummary(
            method=method, accuracies=tuple(accs[i]), mean_accuracy=mean_acc,
            std_accuracy=std_acc, log_fdrs=tuple(fdrs[i]),
            mean_log_fdr=mean_fdr, std_log_fdr=std_fdr,
            epochs=tuple(epochs[i]), confusion=confusions[i],
            trainable_params=model.trainable_param_count(),
            mix_params=model.mix.param_count() if model.mix is not None else 0,
        ))
    return ExperimentResult(config=cfg, summaries=tuple(summaries))


# -------------------------------------------------------------- results files

def format_results(result: ExperimentResult) -> str:
    """Fixed-format report text; identical runs produce identical bytes."""
    cfg = result.config
    lines = ["pooling method comparison", "", "[setup]"]
    lines.append(f"dataset = {cfg.dataset}")
    lines.append(f"classes = {cfg.classes}")
    lines.append(f"samples_per_class = {cfg.samples_per_class}")
    lines.append(f"image_size = {cfg.image_size}")
    lines.append(f"backbone_channels = {cfg.backbone_channels}")
    lines.append(f"seeds = {', '.join(str(s) for s in cfg.seeds)}")
    lines.append(f"batch_size = {cfg.train.batch_size}")
    lines.append(f"learning_rate = {cfg.train.learning_rate:g}")
    lines.append(f"max_epochs = {cfg.train.max_epochs}")
    lines.append(f"early_stop_patience = {cfg.train.early_stop_patience}")
    for s in result.summaries:
        lines.append("")
        lines.append(f"[method {s.method}]")
        lines.append(f"accuracy = {s.mean_accuracy:.6f} +/- {s.std_accuracy:.6f}")
        lines.append(f"log_fdr = {s.mean_log_fdr:.6f} +/- {s.std_log_fdr:.6f}")
        lines.append(f"trainable_params = {s.trainable_params}")
        lines.append(f"mix_params = {s.mix_params}")
        for seed, acc, fdr, ep in zip(cfg.seeds, s.accuracies, s.log_fdrs,
                                      s.epochs):
            lines.append(f"seed {seed}: accuracy = {acc:.6f}, "
                         f"log_fdr = {fdr:.6f}, epochs = {ep}")
        lines.append("confusion (rows true, columns predicted, all seeds):")
        for row in s.confusion:
            lines.append("  " + " ".join(f"{int(v):5d}" for v in row))
    return "\n".join(lines) + "\n"


def write_results(result: ExperimentResult) -> str:
    """Write the report to the config's output path and return that path."""
    path = result.config.output
    with open(path, "w", newline="\n") as fh:
        fh.write(format_results(result))
    return path
