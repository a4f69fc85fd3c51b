"""Deterministic training loop for the fusion model's trainable heads.

`train` and `evaluate` take the frozen backbone's feature tensor (or features
read from a file), never images.  Training validates the features and
reduces them once, to the (N, C) GAP branch plus each head's (N, C, S)
`FusionModel.pooled` vectors, written straight into one stacked array;
`pooled` builds the scale planes a block of samples at a time, so training
holds the planes of one block, never of all N samples.  A step then runs on
those per-sample vectors: the model's head function (mix, fusion product
and classifier, the one `FusionModel.head` runs), the stacked loss and the
head gradient that `lacuna gradcheck` checks as its `cross_entropy` and
`fusion_head` ops, with no 4-D tensor ops; adaptive
moment estimation, at Kingma & Ba's published constants, then updates the
one flat array that holds every trainable value.  The train/val/test split
is a fixed 70/10/20 per class, batches follow a seeded permutation, and
early stopping watches validation loss; the best-validation weights are
written into the model's own arrays and score the test rows.

Heads that share features, labels and seed also share the split and the
batch order, so `train_heads` trains them in lockstep on one stacked state
with a leading head axis: one step per batch updates every head, and each
head ends with the same bits as when trained alone.  `train` is a stack of
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import FusionModel, _checked_labels, _cross_entropy, _head, _head_grad
from .tensor import as_feature_map, gap


SPLIT = (0.7, 0.1, 0.2)  # train/val/test shares of each class
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's, as Kingma & Ba (2015) publish


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

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError("learning_rate must be finite and >= 0")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if not 0 <= self.early_stop_patience < self.max_epochs:
            raise ValueError("early_stop_patience must sit below max_epochs")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def split_indices(labels: np.ndarray, seed: int
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stratified train/val/test index split, deterministic in the seed.

    Per class the shuffled indices give test and val their rounded
    `SPLIT` shares (at least one sample each) and train the rest; raises
    when any class cannot give train at least one sample.
    """
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    train, val, test = [], [], []
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        idx = idx[rng.permutation(len(idx))]
        n_test = max(1, round(SPLIT[2] * len(idx)))
        n_val = max(1, round(SPLIT[1] * len(idx)))
        if n_test + n_val >= len(idx):
            raise EmptySplitError(
                f"class {cls} has {len(idx)} samples; not enough for a "
                f"{SPLIT} split"
            )
        test.append(idx[:n_test])
        val.append(idx[n_test:n_test + n_val])
        train.append(idx[n_test + n_val:])
    return (np.sort(np.concatenate(train)),
            np.sort(np.concatenate(val)),
            np.sort(np.concatenate(test)))


class Adam:
    """Adaptive moment estimation over one flat parameter array, in place."""

    def __init__(self, params: np.ndarray, lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self._m = np.zeros_like(params)
        self._v = np.zeros_like(params)

    def step(self, grad: np.ndarray) -> None:
        self.t += 1
        m, v = self._m, self._v
        m *= BETA1
        m += (1.0 - BETA1) * grad
        v *= BETA2
        v += (1.0 - BETA2) * (grad * grad)
        m_hat = m / (1.0 - BETA1 ** self.t)
        v_hat = v / (1.0 - BETA2 ** self.t)
        self.params -= self.lr * m_hat / (np.sqrt(v_hat) + EPS)


@dataclass
class History:
    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
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
    test_logits: np.ndarray  # (T, K) for the test rows, kept weights
    test_fused: np.ndarray  # (T, C) classifier input of the same rows


@dataclass
class EvalReport:
    accuracy: float
    confusion: np.ndarray  # rows: true class, columns: predicted


class _HeadState:
    """M heads over one feature tensor, reduced to stacked per-sample vectors.

    Features are validated and pooled once: `gapped` is the (N, C) GAP
    branch every head shares, and `pooled` is (M, N, C, S_max), each head's
    `FusionModel.pooled` vectors.  Logits come from the model's head
    function, the one `FusionModel.head` calls, so a trained head scores its
    rows with the same bits it was trained on.

    `params` holds the stacked trainable arrays, each with a leading head
    axis; `grads` holds one same-shaped array each.  `mix_weights` (M, C,
    S_max) and `mix_bias` (M, C) hold each head's `FusionModel.head_mix`,
    zero-padded, and `trainable` masks the gradients of the frozen identity
    and padded slots to zero, so Adam leaves them bit-exact.  Every op acts
    on each head's slice alone.
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
        self.gapped = gap(feats)[:, :, 0, 0]
        m, (n, c) = len(models), self.gapped.shape
        s_max = max(model.scale_count for model in models)
        self.pooled = np.zeros((m, n, c, s_max))
        weights, bias = np.zeros((m, c, s_max)), np.zeros((m, c))
        self.trainable = {"mix_bias": np.zeros_like(bias),
                          "mix_weights": np.zeros_like(weights)}
        for i, model in enumerate(models):
            s = model.scale_count
            self.pooled[i, :, :, :s] = model.pooled(feats)
            weights[i, :, :s] = model.head_mix.weights
            bias[i] = model.head_mix.bias
            if model.mix is not None:
                self.trainable["mix_weights"][i, :, :s] = 1.0
                self.trainable["mix_bias"][i] = 1.0
        # in the order `_head_grad` gives their gradients
        arrays = {"classifier_w": np.stack([head.classifier_w for head in models]),
                  "classifier_b": np.stack([head.classifier_b for head in models]),
                  "mix_weights": weights, "mix_bias": bias}
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
        logits, fused = _head(pooled, gapped, p["classifier_w"],
                              p["classifier_b"], p["mix_weights"],
                              p["mix_bias"])
        return logits, fused, gapped, pooled

    def loss_grad(self, idx: np.ndarray) -> np.ndarray:
        """Per-head batch loss; fills `grads` for every head.

        A head whose loss is not finite gets non-finite gradients; the
        caller decides whether that head still counts.
        """
        logits, fused, gapped, pooled = self._forward(idx)
        losses, d_logits = _cross_entropy(logits, self.labels[idx])
        grads = _head_grad(d_logits, pooled, gapped, fused,
                           self.params["classifier_w"])
        for (name, out), grad in zip(self.grads.items(), grads):
            np.multiply(grad, self.trainable.get(name, 1.0), out=out)
        return losses

    def loss(self, idx: np.ndarray) -> np.ndarray:
        """Per-head loss on the rows `idx`."""
        return _cross_entropy(self._forward(idx)[0], self.labels[idx])[0]

    def restore(self, snapshot, models: list[FusionModel]) -> None:
        """Load `snapshot` into `params` and each head's slice into its model."""
        p = self.params
        for name, value in snapshot.items():
            p[name][...] = value
        for i, model in enumerate(models):
            model.classifier_b[...] = p["classifier_b"][i]
            model.classifier_w[...] = p["classifier_w"][i]
            if model.mix is not None:
                model.mix.bias[...] = p["mix_bias"][i]
                model.mix.weights[...] = p["mix_weights"][i, :, :model.mix.scales]


def train_heads(models: list[FusionModel], feats: np.ndarray,
                labels: np.ndarray, cfg: TrainConfig) -> list[TrainResult]:
    """Fit several heads over one (N, C, H, W) feature tensor in lockstep.

    Every head sees the same split and batch order, and one optimizer step
    per batch updates them all; each keeps its own early stopping, history
    and best-validation weights, and a head that has stopped is no longer
    checked or recorded.  The loop ends when every head has stopped or at
    `cfg.max_epochs`; the kept weights are then written into each model's
    own arrays, in place, and score the test rows from the vectors training
    pooled (`TrainResult.test_logits`, `test_fused`).  A head trained alone
    or in a stack ends with the same bits.

    Deterministic given cfg.seed: the split, every shuffle, and all update
    arithmetic follow fixed orders.  Raises DivergenceError on a non-finite
    loss of a head still training, EmptySplitError when the data cannot
    cover the split and ValueError when a label is not a whole number naming
    a class of the heads or the heads differ in class or channel count.
    """
    state = _HeadState(models, feats, labels)
    train_idx, val_idx, test_idx = split_indices(state.labels, cfg.seed)
    opt = Adam(state.flat, cfg.learning_rate)
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
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            losses = state.loss_grad(idx)
            diverged = active & ~np.isfinite(losses)
            if diverged.any():
                raise DivergenceError(
                    f"train loss {losses[diverged][0]} at epoch {epoch}")
            opt.step(state.flat_grad)
            loss_sum += losses * len(idx)
            seen += len(idx)
        val_loss = state.loss(val_idx)
        diverged = active & ~np.isfinite(val_loss)
        if diverged.any():
            raise DivergenceError(
                f"validation loss {val_loss[diverged][0]} at epoch {epoch}")
        for i in np.flatnonzero(active):
            history = histories[i]
            history.train_loss.append(float(loss_sum[i] / seen))
            history.val_loss.append(float(val_loss[i]))
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

    state.restore(best_snapshot, models)
    logits, fused, _, _ = state._forward(test_idx)
    return [TrainResult(history=history, train_idx=train_idx, val_idx=val_idx,
                        test_idx=test_idx, stopped_early=not running,
                        test_logits=logits[i], test_fused=fused[i])
            for i, (history, running) in enumerate(zip(histories, active))]


def train(model: FusionModel, feats: np.ndarray, labels: np.ndarray,
          cfg: TrainConfig) -> TrainResult:
    """Fit the trainable head on (N, C, H, W) features; pooling stays frozen.

    A stack of one for `train_heads`, whose contract it shares.
    """
    return train_heads([model], feats, labels, cfg)[0]


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
    return confusion_report(labels[idx], model.head(feats[idx])[0].argmax(axis=1),
                            model.classifier_b.size)
