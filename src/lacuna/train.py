"""Deterministic training loop for the fusion model's trainable head.

`train` and `evaluate` take the frozen backbone's feature tensor (or features
read from a file), never images.  Training validates the features and
reduces them once, to the (N, C) GAP branch plus either the (N, C) frozen
pooling branch or the (N, C, S) spatially averaged scale planes.  A step then
runs on those per-sample vectors: the mix, the fusion product, the
classifier, one softmax shared by loss and gradient, and hand-written
gradients, with no 4-D tensor ops; adaptive moment estimation then updates
the model's classifier and mix arrays in place.  Batches follow a seeded
permutation, and early stopping watches validation loss with the
best-validation weights restored at the end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import FusionModel
from .tensor import as_feature_map, gap


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


def _cross_entropy(logits: np.ndarray, labels: np.ndarray
                   ) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy and the softmax it came from."""
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=1, keepdims=True)
    nll = np.log(total[:, 0]) - z[np.arange(len(labels)), labels]
    # the arithmetic of np.mean, without its per-call overhead
    return float(nll.sum() / len(labels)), e / total


def _checked_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Labels as int64, raising unless each one names one of the classes."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of range for the logit width")
    return labels


class _HeadState:
    """The head's inputs reduced to per-sample vectors, plus its gradients.

    Features are validated and pooled once: `gapped` is the (N, C) GAP
    branch and `pooled` either the frozen (N, C) pooling branch or, when the
    branch mixes scales, the (N, C, S) scale planes averaged over space.
    GAP commutes with the mix (a per-channel linear map over scales whose
    bias is constant over space), so averaging before mixing changes the
    values only by rounding.

    `params` names the model's own classifier and mix arrays, which the
    optimizer updates in place; `grads` holds one same-shaped array each.
    """

    def __init__(self, model: FusionModel, feats: np.ndarray,
                 labels: np.ndarray):
        feats = as_feature_map(feats, "features")
        if feats.shape[0] != len(labels):
            raise ValueError(
                f"{feats.shape[0]} feature rows for {len(labels)} labels")
        self.labels = _checked_labels(labels, model.classifier_b.size)
        self.gapped = gap(feats)[:, :, 0, 0]
        planes = model.scale_planes(feats)
        self.mixing = planes is not None
        if self.mixing:
            self.pooled = gap(planes).reshape(*self.gapped.shape, -1)
        else:
            self.pooled = model.pooling_branch(feats)[:, :, 0, 0]
        self.params = {"classifier_b": model.classifier_b,
                       "classifier_w": model.classifier_w}
        if self.mixing:
            self.params["mix_bias"] = model.mix.bias
            self.params["mix_weights"] = model.mix.weights
        self.grads = {k: np.zeros_like(v) for k, v in self.params.items()}

    def _forward(self, idx: np.ndarray):
        """Logits and classifier input for a batch, plus its GAP rows."""
        p = self.params
        gapped = self.gapped[idx]
        lac = self.pooled[idx]
        if self.mixing:
            lac = np.einsum("ncs,cs->nc", lac, p["mix_weights"]) + p["mix_bias"]
        fused = lac * gapped
        return fused @ p["classifier_w"].T + p["classifier_b"], fused, gapped

    def loss_grad(self, idx: np.ndarray) -> tuple[float, int]:
        """Batch loss and hit count; fills `grads` when the loss is finite."""
        labels = self.labels[idx]
        logits, fused, gapped = self._forward(idx)
        loss, d_logits = _cross_entropy(logits, labels)
        hits = int(np.count_nonzero(logits.argmax(axis=1) == labels))
        if not np.isfinite(loss):
            return loss, hits
        d_logits[np.arange(len(idx)), labels] -= 1.0
        d_logits /= len(idx)
        g = self.grads
        np.matmul(d_logits.T, fused, out=g["classifier_w"])
        np.add.reduce(d_logits, axis=0, out=g["classifier_b"])
        if self.mixing:
            d_lac = (d_logits @ self.params["classifier_w"]) * gapped
            np.einsum("nc,ncs->cs", d_lac, self.pooled[idx],
                      out=g["mix_weights"])
            np.add.reduce(d_lac, axis=0, out=g["mix_bias"])
        return loss, hits

    def loss_acc(self, idx: np.ndarray) -> tuple[float, float]:
        logits, _, _ = self._forward(idx)
        loss, _ = _cross_entropy(logits, self.labels[idx])
        acc = float(np.mean(logits.argmax(axis=1) == self.labels[idx]))
        return loss, acc


def train(model: FusionModel, feats: np.ndarray, labels: np.ndarray,
          cfg: TrainConfig,
          fractions: tuple[float, float, float] = (0.7, 0.1, 0.2)
          ) -> TrainResult:
    """Fit the trainable head on (N, C, H, W) features; pooling stays frozen.

    Deterministic given cfg.seed: the split, every shuffle, and all update
    arithmetic follow fixed orders.  Raises DivergenceError on non-finite
    loss, EmptySplitError when the data cannot cover the split and
    ValueError when a label names no class of the head.
    """
    state = _HeadState(model, feats, labels)
    train_idx, val_idx, test_idx = split_indices(state.labels, cfg.seed,
                                                 fractions)
    opt = Adam(cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps_opt)
    rng = np.random.default_rng(cfg.seed)

    history = History()
    best_val = np.inf
    best_snapshot = {k: v.copy() for k, v in state.params.items()}
    bad_epochs = 0
    stopped_early = False

    for epoch in range(1, cfg.max_epochs + 1):
        order = train_idx[rng.permutation(len(train_idx))]
        seen = 0
        loss_sum = 0.0
        hit_sum = 0
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            loss, hits = state.loss_grad(idx)
            if not np.isfinite(loss):
                raise DivergenceError(f"train loss {loss} at epoch {epoch}")
            opt.step(state.params, state.grads)
            loss_sum += loss * len(idx)
            hit_sum += hits
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
            best_snapshot = {k: v.copy() for k, v in state.params.items()}
            bad_epochs = 0
        else:
            bad_epochs += 1
            if bad_epochs >= cfg.early_stop_patience:
                stopped_early = True
                break

    for k, v in state.params.items():
        v[...] = best_snapshot[k]
    return TrainResult(history=history, train_idx=train_idx, val_idx=val_idx,
                       test_idx=test_idx, stopped_early=stopped_early)


def evaluate(model: FusionModel, feats: np.ndarray, labels: np.ndarray,
             indices: np.ndarray | None = None) -> EvalReport:
    """Accuracy and confusion matrix (rows true, columns predicted)."""
    labels = _checked_labels(labels, model.classifier_b.size)
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
