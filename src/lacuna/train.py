"""Deterministic training loop for the fusion model's trainable heads.

`train` and `evaluate` take the frozen backbone's feature tensor (or features
read from a file), never images.  Training validates the features and
reduces them once, to the (N, C) GAP branch plus each head's (N, C, S)
`FusionModel.pooled` vectors.  A step then runs on those per-sample vectors:
the model's head function (mix, fusion product and classifier, the one
`FusionModel.forward` and so `evaluate` use), one softmax shared by loss and
gradient, and hand-written gradients, with no 4-D tensor ops; adaptive
moment estimation then updates the trainable arrays.  Batches follow a
seeded permutation, and early stopping watches validation loss with the
best-validation weights restored at the end and written into the model's
own arrays.

Heads that share features, labels and seed also share the split and the
batch order, so `train_heads` trains them in lockstep on one stacked state
with a leading head axis: one step per batch updates every head, and each
head ends with the same bits as when trained alone.  `train` is a stack of
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import FusionModel, _cross_entropy, _head
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
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and >= 0")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if not 0 <= self.early_stop_patience < self.max_epochs:
            raise ValueError("early_stop_patience must sit below max_epochs")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("moment decays must lie in [0, 1)")
        if not 0 < self.eps_opt < np.inf:
            raise ValueError("eps_opt must be finite and > 0")


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


def _checked_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Labels as int64, raising unless each one names one of the classes."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError("labels out of range for the logit width")
    return labels


class _HeadState:
    """M heads over one feature tensor, reduced to stacked per-sample vectors.

    Features are validated and pooled once: `gapped` is the (N, C) GAP
    branch every head shares, and `pooled` is (M, N, C, S_max), each head's
    `FusionModel.pooled` vectors (S = 1 for a head that does not mix
    scales).  Logits come from the model module's head function, the one
    `FusionModel.forward` calls, so a trained head scores its rows with the
    same bits it was trained on.

    `params` holds the stacked trainable arrays, each with a leading head
    axis; `grads` holds one same-shaped array each.  When any head mixes,
    every head gets `mix_weights` (M, C, S_max) and `mix_bias` (M, C): a
    non-mixing head's slot 0 has a frozen weight of 1 and bias of 0, a
    narrower mix is zero-padded, and `trainable` masks the gradients of
    those slots to zero, so Adam leaves them bit-exact.  Every op acts on
    each head's slice alone.
    """

    def __init__(self, models: list[FusionModel], feats: np.ndarray,
                 labels: np.ndarray):
        if not models:
            raise ValueError("need at least one head to train")
        shape = models[0].classifier_w.shape
        if any(model.classifier_w.shape != shape for model in models):
            raise ValueError(
                "heads differ in class or channel count: "
                f"{[model.classifier_w.shape for model in models]}")
        feats = as_feature_map(feats, "features")
        if feats.shape[0] != len(labels):
            raise ValueError(
                f"{feats.shape[0]} feature rows for {len(labels)} labels")
        self.labels = _checked_labels(labels, shape[0])
        self.onehot = np.eye(shape[0])[self.labels]
        self.gapped = gap(feats)[:, :, 0, 0]
        pooled = [model.pooled(feats) for model in models]
        m, (n, c) = len(models), self.gapped.shape
        s_max = max(p.shape[2] for p in pooled)
        self.pooled = np.zeros((m, n, c, s_max))
        weights, bias = np.zeros((m, c, s_max)), np.zeros((m, c))
        self.trainable = {"mix_bias": np.zeros_like(bias),
                          "mix_weights": np.zeros_like(weights)}
        for i, model in enumerate(models):
            s = pooled[i].shape[2]
            self.pooled[i, :, :, :s] = pooled[i]
            if model.mix is None:
                weights[i, :, 0] = 1.0
                continue
            weights[i, :, :s] = model.mix.weights
            bias[i] = model.mix.bias
            self.trainable["mix_weights"][i, :, :s] = 1.0
            self.trainable["mix_bias"][i] = 1.0
        arrays = {
            "classifier_b": np.stack([model.classifier_b for model in models]),
            "classifier_w": np.stack([model.classifier_w for model in models]),
        }
        self.mixing = any(model.mix is not None for model in models)
        if self.mixing:
            arrays["mix_bias"] = bias
            arrays["mix_weights"] = weights
        # views into one buffer each, so Adam makes one pass per step
        self.flat = np.concatenate([v.ravel() for v in arrays.values()])
        self.flat_grad = np.zeros_like(self.flat)
        self.params, self.grads = {}, {}
        start = 0
        for name, value in arrays.items():
            end = start + value.size
            self.params[name] = self.flat[start:end].reshape(value.shape)
            self.grads[name] = self.flat_grad[start:end].reshape(value.shape)
            start = end

    def _forward(self, idx: np.ndarray):
        """(M, B, K) logits and classifier input, plus the batch's inputs."""
        p = self.params
        gapped = self.gapped[idx]
        pooled = self.pooled.take(idx, axis=1)
        mix = (p["mix_weights"], p["mix_bias"]) if self.mixing else ()
        logits, fused = _head(pooled, gapped, p["classifier_w"],
                              p["classifier_b"], *mix)
        return logits, fused, gapped, pooled

    def loss_grad(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-head batch loss and hit count; fills `grads` for every head.

        A head whose loss is not finite gets non-finite gradients; the
        caller decides whether that head still counts.
        """
        labels = self.labels[idx]
        logits, fused, gapped, pooled = self._forward(idx)
        losses, d_logits = _cross_entropy(logits, labels)
        hits = (logits.argmax(axis=-1) == labels).sum(axis=-1)
        d_logits -= self.onehot[idx]
        d_logits /= len(idx)
        g = self.grads
        np.matmul(d_logits.transpose(0, 2, 1), fused, out=g["classifier_w"])
        np.add.reduce(d_logits, axis=1, out=g["classifier_b"])
        if self.mixing:
            d_lac = np.matmul(d_logits, self.params["classifier_w"]) * gapped
            np.add.reduce(d_lac[..., None] * pooled, axis=1,
                          out=g["mix_weights"])
            np.add.reduce(d_lac, axis=1, out=g["mix_bias"])
            for name, mask in self.trainable.items():
                g[name] *= mask
        return losses, hits

    def loss_acc(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-head loss and accuracy on the rows `idx`."""
        labels = self.labels[idx]
        logits, _, _, _ = self._forward(idx)
        losses, _ = _cross_entropy(logits, labels)
        hits = (logits.argmax(axis=-1) == labels).sum(axis=-1)
        return losses, hits / len(idx)

    def write_back(self, params: dict[str, np.ndarray],
                   models: list[FusionModel]) -> None:
        """Copy each head's slice of `params` into its model's own arrays."""
        for i, model in enumerate(models):
            model.classifier_b[...] = params["classifier_b"][i]
            model.classifier_w[...] = params["classifier_w"][i]
            if model.mix is not None:
                model.mix.bias[...] = params["mix_bias"][i]
                model.mix.weights[...] = \
                    params["mix_weights"][i, :, :model.mix.scales]


def train_heads(models: list[FusionModel], feats: np.ndarray,
                labels: np.ndarray, cfg: TrainConfig,
                fractions: tuple[float, float, float] = (0.7, 0.1, 0.2)
                ) -> list[TrainResult]:
    """Fit several heads over one (N, C, H, W) feature tensor in lockstep.

    Every head sees the same split and batch order, and one optimizer step
    per batch updates them all; each keeps its own early stopping, history
    and best-validation weights, and a head that has stopped is no longer
    checked or recorded.  The loop ends when every head has stopped or at
    `cfg.max_epochs`; the kept weights are then written into each model's
    own arrays, in place.  A head trained alone or in a stack ends with the
    same bits.

    Deterministic given cfg.seed: the split, every shuffle, and all update
    arithmetic follow fixed orders.  Raises DivergenceError on a non-finite
    loss of a head still training, EmptySplitError when the data cannot
    cover the split and ValueError when a label names no class of the heads
    or the heads differ in class or channel count.
    """
    state = _HeadState(models, feats, labels)
    train_idx, val_idx, test_idx = split_indices(state.labels, cfg.seed,
                                                 fractions)
    opt = Adam(cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.eps_opt)
    rng = np.random.default_rng(cfg.seed)

    m = len(models)
    histories = [History() for _ in range(m)]
    best_val = np.full(m, np.inf)
    best_snapshot = {k: v.copy() for k, v in state.params.items()}
    bad_epochs = np.zeros(m, dtype=np.int64)
    active = np.ones(m, dtype=bool)

    for epoch in range(1, cfg.max_epochs + 1):
        order = train_idx[rng.permutation(len(train_idx))]
        seen = 0
        loss_sum = np.zeros(m)
        hit_sum = np.zeros(m, dtype=np.int64)
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            losses, hits = state.loss_grad(idx)
            diverged = active & ~np.isfinite(losses)
            if diverged.any():
                raise DivergenceError(
                    f"train loss {losses[diverged][0]} at epoch {epoch}")
            opt.step({"heads": state.flat}, {"heads": state.flat_grad})
            loss_sum += losses * len(idx)
            hit_sum += hits
            seen += len(idx)
        val_loss, val_acc = state.loss_acc(val_idx)
        diverged = active & ~np.isfinite(val_loss)
        if diverged.any():
            raise DivergenceError(
                f"validation loss {val_loss[diverged][0]} at epoch {epoch}")
        for i in np.flatnonzero(active):
            history = histories[i]
            history.train_loss.append(float(loss_sum[i] / seen))
            history.train_acc.append(int(hit_sum[i]) / seen)
            history.val_loss.append(float(val_loss[i]))
            history.val_acc.append(float(val_acc[i]))
            if val_loss[i] < best_val[i]:
                best_val[i] = val_loss[i]
                history.best_epoch = epoch
                for k, v in state.params.items():
                    best_snapshot[k][i] = v[i]
                bad_epochs[i] = 0
            else:
                bad_epochs[i] += 1
                if bad_epochs[i] >= cfg.early_stop_patience:
                    active[i] = False
        if not active.any():
            break

    state.write_back(best_snapshot, models)
    return [TrainResult(history=history, train_idx=train_idx, val_idx=val_idx,
                        test_idx=test_idx, stopped_early=not running)
            for history, running in zip(histories, active)]


def train(model: FusionModel, feats: np.ndarray, labels: np.ndarray,
          cfg: TrainConfig,
          fractions: tuple[float, float, float] = (0.7, 0.1, 0.2)
          ) -> TrainResult:
    """Fit the trainable head on (N, C, H, W) features; pooling stays frozen.

    A stack of one for `train_heads`, whose contract it shares.
    """
    return train_heads([model], feats, labels, cfg, fractions)[0]


def confusion_report(true: np.ndarray, preds: np.ndarray,
                     num_classes: int) -> EvalReport:
    """Accuracy and confusion matrix (rows true, columns predicted)."""
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(confusion, (true, preds), 1)
    accuracy = float(np.trace(confusion) / confusion.sum())
    return EvalReport(accuracy=accuracy, confusion=confusion)


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
    return confusion_report(labels[idx], model.predict(feats[idx]),
                            model.classifier_b.size)
