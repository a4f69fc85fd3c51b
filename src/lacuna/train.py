"""Deterministic training loop for the fusion model's trainable head.

`train` and `evaluate` take the frozen backbone's feature tensor (or features
read from a file), never images.  Training precomputes the GAP branch and the
mix-independent scale planes once; each step then only re-runs the mix, the
fusion product, and the classifier.  Optimization is adaptive moment
estimation over a name-sorted parameter dict, batches follow a seeded
permutation, and early stopping watches validation loss with the
best-validation weights restored at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gradcheck import backward
from .model import FusionModel, linear_classifier, softmax_cross_entropy
from .tensor import as_feature_map, elementwise_mul, gap, mix_scales


class EmptySplitError(ValueError):
    """A train/val/test split (or an evaluation set) came out empty."""


class DivergenceError(RuntimeError):
    """Training or validation loss stopped being finite."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimization knobs; desk-scale batch default, larger runs use 128."""

    batch_size: int = 16
    learning_rate: float = 0.001
    max_epochs: int = 100
    early_stop_patience: int = 10
    seed: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps_opt: float = 1e-8

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if not 0 <= self.early_stop_patience < self.max_epochs:
            raise ValueError("early_stop_patience must sit below max_epochs")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("moment decays must lie in [0, 1)")
        if self.eps_opt <= 0:
            raise ValueError("eps_opt must be > 0")


def split_indices(labels: np.ndarray, seed: int,
                  fractions: tuple[float, float, float] = (0.7, 0.1, 0.2)
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stratified train/val/test index split, deterministic in the seed.

    Per class the shuffled indices give test and val their rounded shares
    (at least one sample each) and train the rest; raises when any class
    cannot give train at least one sample.
    """
    labels = np.asarray(labels)
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    rng = np.random.default_rng(seed)
    train, val, test = [], [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        n_test = max(1, round(fractions[2] * len(idx)))
        n_val = max(1, round(fractions[1] * len(idx)))
        if n_test + n_val >= len(idx):
            raise EmptySplitError(
                f"class {cls} has {len(idx)} samples; not enough for a "
                f"{fractions} split"
            )
        test.append(idx[:n_test])
        val.append(idx[n_test:n_test + n_val])
        train.append(idx[n_test + n_val:])
    return (np.sort(np.concatenate(train)),
            np.sort(np.concatenate(val)),
            np.sort(np.concatenate(test)))


class Adam:
    """Adaptive moment estimation over a name-keyed parameter dict."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray],
             grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        for name in sorted(params):
            p, g = params[name], grads[name]
            if name not in self._m:
                self._m[name] = np.zeros_like(p)
                self._v[name] = np.zeros_like(p)
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            m_hat = m / (1.0 - self.beta1 ** self.t)
            v_hat = v / (1.0 - self.beta2 ** self.t)
            p -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class History:
    train_loss: list[float] = field(default_factory=list)
    train_acc: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_acc: list[float] = field(default_factory=list)
    best_epoch: int = 0  # 1-based epoch whose weights were kept

    def epochs(self) -> int:
        return len(self.train_loss)


@dataclass
class TrainResult:
    history: History
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray
    stopped_early: bool


@dataclass
class EvalReport:
    accuracy: float
    confusion: np.ndarray  # rows: true class, columns: predicted


class _HeadState:
    """Precomputed frozen tensors + trainable views for the model head."""

    def __init__(self, model: FusionModel, feats: np.ndarray,
                 labels: np.ndarray):
        self.model = model
        feats = as_feature_map(feats, "features")
        if feats.shape[0] != len(labels):
            raise ValueError(
                f"{feats.shape[0]} feature rows for {len(labels)} labels")
        self.labels = np.asarray(labels, dtype=np.int64)
        self.gapped = gap(feats)
        self.planes = model.scale_planes(feats)
        self.static_lac = (model.pooling_branch(feats)
                           if self.planes is None else None)

    def params(self) -> dict[str, np.ndarray]:
        out = {"classifier_w": self.model.classifier_w,
               "classifier_b": self.model.classifier_b}
        if self.model.mix is not None:
            out["mix_weights"] = self.model.mix.weights
            out["mix_bias"] = self.model.mix.bias
        return out

    def forward(self, idx: np.ndarray):
        """Logits plus the intermediates the backward pass reuses."""
        m = self.model
        cache = {"gapped": self.gapped[idx]}
        if self.planes is None:
            lac = self.static_lac[idx]
        else:
            planes = self.planes[idx]
            mixed = mix_scales(planes, m.mix)
            cache["planes"] = planes
            cache["mixed"] = mixed
            lac = gap(mixed) if mixed.shape[2:] != (1, 1) else mixed
        cache["lac"] = lac
        fused = elementwise_mul(lac, cache["gapped"])
        cache["fused2d"] = fused[:, :, 0, 0]
        logits = linear_classifier(cache["fused2d"], m.classifier_w,
                                   m.classifier_b)
        return logits, cache

    def gradients(self, idx: np.ndarray, logits: np.ndarray,
                  cache: dict) -> dict[str, np.ndarray]:
        m = self.model
        (d_logits,) = backward("softmax_cross_entropy",
                               (logits, self.labels[idx]), 1.0)
        d_fused2d, d_w, d_b = backward(
            "linear_classifier",
            (cache["fused2d"], m.classifier_w, m.classifier_b), d_logits)
        grads = {"classifier_w": d_w, "classifier_b": d_b}
        if self.planes is not None:
            d_fused = d_fused2d[:, :, None, None]
            d_lac, _ = backward("elementwise_mul",
                                (cache["lac"], cache["gapped"]), d_fused)
            if cache["mixed"].shape[2:] != (1, 1):
                (d_mixed,) = backward("gap", (cache["mixed"],), d_lac)
            else:
                d_mixed = d_lac
            _, d_mw, d_mb = backward("mix_scales",
                                     (cache["planes"], m.mix), d_mixed)
            grads["mix_weights"] = d_mw
            grads["mix_bias"] = d_mb
        return grads

    def loss_acc(self, idx: np.ndarray) -> tuple[float, float]:
        logits, _ = self.forward(idx)
        loss = softmax_cross_entropy(logits, self.labels[idx])
        acc = float(np.mean(np.argmax(logits, axis=1) == self.labels[idx]))
        return loss, acc


def train(model: FusionModel, feats: np.ndarray, labels: np.ndarray,
          cfg: TrainConfig,
          fractions: tuple[float, float, float] = (0.7, 0.1, 0.2)
          ) -> TrainResult:
    """Fit the trainable head on (N, C, H, W) features; pooling stays frozen.

    Deterministic given cfg.seed: the split, every shuffle, and all update
    arithmetic follow fixed orders.  Raises DivergenceError on non-finite
    loss and EmptySplitError when the data cannot cover the split.
    """
    labels = np.asarray(labels, dtype=np.int64)
    train_idx, val_idx, test_idx = split_indices(labels, cfg.seed, fractions)
    state = _HeadState(model, feats, labels)
    params = state.params()
    opt = Adam(cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps_opt)
    rng = np.random.default_rng(cfg.seed)

    history = History()
    best_val = np.inf
    best_snapshot = {k: v.copy() for k, v in params.items()}
    bad_epochs = 0
    stopped_early = False

    for epoch in range(1, cfg.max_epochs + 1):
        order = train_idx[rng.permutation(len(train_idx))]
        seen = 0
        loss_sum = 0.0
        hit_sum = 0
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            logits, cache = state.forward(idx)
            loss = softmax_cross_entropy(logits, labels[idx])
            if not np.isfinite(loss):
                raise DivergenceError(f"train loss {loss} at epoch {epoch}")
            grads = state.gradients(idx, logits, cache)
            opt.step(params, grads)
            loss_sum += loss * len(idx)
            hit_sum += int(np.sum(np.argmax(logits, axis=1) == labels[idx]))
            seen += len(idx)
        val_loss, val_acc = state.loss_acc(val_idx)
        if not np.isfinite(val_loss):
            raise DivergenceError(f"validation loss {val_loss} at epoch {epoch}")
        history.train_loss.append(loss_sum / seen)
        history.train_acc.append(hit_sum / seen)
        history.val_loss.append(val_loss)
        history.val_acc.append(val_acc)

        if val_loss < best_val:
            best_val = val_loss
            history.best_epoch = epoch
            best_snapshot = {k: v.copy() for k, v in params.items()}
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.early_stop_patience:
                stopped_early = True
                break

    for k, v in params.items():
        v[...] = best_snapshot[k]
    return TrainResult(history=history, train_idx=train_idx, val_idx=val_idx,
                       test_idx=test_idx, stopped_early=stopped_early)


def evaluate(model: FusionModel, feats: np.ndarray, labels: np.ndarray,
             indices: np.ndarray | None = None) -> EvalReport:
    """Accuracy and confusion matrix (rows true, columns predicted)."""
    labels = np.asarray(labels, dtype=np.int64)
    idx = np.arange(len(labels)) if indices is None else np.asarray(indices)
    if idx.size == 0:
        raise EmptySplitError("evaluation set is empty")
    feats = as_feature_map(feats, "features")
    if feats.shape[0] != len(labels):
        raise ValueError(f"{feats.shape[0]} feature rows for {len(labels)} labels")
    preds = model.predict(feats[idx])
    true = labels[idx]
    k = model.classifier_b.size
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (true, preds), 1)
    accuracy = float(np.trace(confusion) / confusion.sum())
    return EvalReport(accuracy=accuracy, confusion=confusion)
