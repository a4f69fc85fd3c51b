import numpy as np
import pytest

from lacuna.lacunarity import LacunarityConfig
from lacuna.model import FrozenBackbone, FusionModel
from lacuna.textures import toy_dataset
from lacuna.train import (
    Adam,
    DivergenceError,
    EmptySplitError,
    TrainConfig,
    evaluate,
    split_indices,
    train,
)


def toy_setup(pooling="avg", classes=3, n_per_class=10, seed=0, channels=6):
    images, labels = toy_dataset(classes, n_per_class, size=56, seed=seed)
    feats = FrozenBackbone.make(seed=seed, channels=channels).features(images)
    model = FusionModel.build(channels, pooling, classes, seed=seed)
    return model, feats, labels


# ------------------------------------------------------------------ configs

def test_config_validation():
    TrainConfig(learning_rate=0.0)  # zero rate is a legal freeze run
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(max_epochs=5, early_stop_patience=5)
    with pytest.raises(ValueError):
        TrainConfig(beta1=1.0)


# ------------------------------------------------------------------- splits

def test_split_is_stratified_and_disjoint():
    labels = np.repeat([0, 1, 2], 10)
    tr, va, te = split_indices(labels, seed=0)
    assert len(te) == 6 and len(va) == 3 and len(tr) == 21
    joined = np.concatenate([tr, va, te])
    assert len(np.unique(joined)) == 30
    for part in (tr, va, te):
        counts = np.bincount(labels[part], minlength=3)
        assert len(set(counts.tolist())) == 1  # per-class shares equal


def test_split_minimum_shares_are_one():
    labels = np.repeat([0, 1], 4)  # 10%/20% of 4 round to 0/1 -> floor at 1
    tr, va, te = split_indices(labels, seed=1)
    assert len(te) == 2 and len(va) == 2 and len(tr) == 4


def test_split_determinism_and_failure():
    labels = np.repeat([0, 1, 2], 10)
    a = split_indices(labels, seed=3)
    b = split_indices(labels, seed=3)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    c = split_indices(labels, seed=4)
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))
    with pytest.raises(EmptySplitError):
        split_indices(np.array([0, 0, 1, 1]), seed=0)  # 2 per class too few


# -------------------------------------------------------------------- adam

def test_adam_first_step_size_is_lr():
    # bias correction makes the first update lr * g/(|g| + eps)
    params = {"w": np.array([1.0, 1.0])}
    opt = Adam(lr=0.1)
    opt.step(params, {"w": np.array([3.0, -3.0])})
    assert np.allclose(params["w"], [0.9, 1.1], atol=1e-7)


# ----------------------------------------------------------------- training

def test_training_is_deterministic():
    cfg = TrainConfig(max_epochs=3, early_stop_patience=2, seed=5)
    model_a, feats, labels = toy_setup()
    train(model_a, feats, labels, cfg)
    model_b, _, _ = toy_setup()
    train(model_b, feats, labels, cfg)
    assert np.array_equal(model_a.classifier_w, model_b.classifier_w)
    assert np.array_equal(model_a.classifier_b, model_b.classifier_b)


def test_zero_learning_rate_keeps_weights():
    model, feats, labels = toy_setup()
    before = model.classifier_w.copy()
    cfg = TrainConfig(learning_rate=0.0, max_epochs=3, early_stop_patience=2)
    result = train(model, feats, labels, cfg)
    assert np.array_equal(model.classifier_w, before)
    # constant validation loss: first epoch wins, patience runs out after it
    assert result.stopped_early
    assert result.history.epochs() == 1 + cfg.early_stop_patience
    assert result.history.best_epoch == 1


def test_toy_problem_reaches_full_accuracy():
    # small fused magnitudes make the head converge slowly; give it room
    model, feats, labels = toy_setup(n_per_class=12)
    cfg = TrainConfig(max_epochs=300, early_stop_patience=60,
                      learning_rate=0.1, seed=0)
    result = train(model, feats, labels, cfg)
    report = evaluate(model, feats, labels, result.test_idx)
    assert report.accuracy == 1.0
    assert report.confusion.sum() == len(result.test_idx)


def test_best_validation_weights_are_restored():
    model, feats, labels = toy_setup(n_per_class=8)
    cfg = TrainConfig(max_epochs=25, early_stop_patience=24,
                      learning_rate=0.2, seed=1)
    result = train(model, feats, labels, cfg)
    from lacuna.train import _HeadState
    state = _HeadState(model, feats, labels)
    val_loss, _ = state.loss_acc(result.val_idx)
    best = result.history.best_epoch
    assert val_loss == pytest.approx(result.history.val_loss[best - 1])
    assert result.history.val_loss[best - 1] == pytest.approx(
        min(result.history.val_loss))


def test_backbone_stays_frozen_through_training():
    images, labels = toy_dataset(3, 10, size=56, seed=0)
    backbone = FrozenBackbone.make(seed=0, channels=6)
    fingerprint = backbone.checksum()
    model = FusionModel.build(backbone.out_channels, "avg", 3, seed=0)
    train(model, backbone.features(images), labels,
          TrainConfig(max_epochs=2, early_stop_patience=1))
    assert backbone.checksum() == fingerprint


def test_mix_weights_receive_gradient():
    cfg_pool = LacunarityConfig(method="multiscale", scales=2)
    model, feats, labels = toy_setup(pooling=cfg_pool)
    w0 = model.mix.weights.copy()
    b0 = model.mix.bias.copy()
    train(model, feats, labels,
          TrainConfig(max_epochs=2, early_stop_patience=1, learning_rate=0.05))
    assert not np.array_equal(model.mix.weights, w0)
    assert not np.array_equal(model.mix.bias, b0)


def test_divergent_loss_raises():
    model, feats, labels = toy_setup()
    model.classifier_w[0, 0] = np.nan
    with pytest.raises(DivergenceError):
        train(model, feats, labels,
              TrainConfig(max_epochs=2, early_stop_patience=1))


def test_history_tracks_every_epoch():
    model, feats, labels = toy_setup()
    cfg = TrainConfig(max_epochs=4, early_stop_patience=3, batch_size=7,
                      learning_rate=0.01, seed=2)
    result = train(model, feats, labels, cfg)
    h = result.history
    n = h.epochs()
    assert n >= 1
    assert len(h.train_acc) == len(h.val_loss) == len(h.val_acc) == n
    assert all(np.isfinite(v) for v in h.train_loss + h.val_loss)


# --------------------------------------------------------------- evaluation

def test_evaluate_confusion_orientation():
    model, feats, labels = toy_setup(classes=2, n_per_class=5)
    model.classifier_w[...] = 0.0
    model.classifier_b[...] = [0.0, 1.0]  # always predicts class 1
    report = evaluate(model, feats, labels)
    assert report.confusion.tolist() == [[0, 5], [0, 5]]
    assert report.accuracy == 0.5


def test_evaluate_rejects_empty_sets():
    model, feats, labels = toy_setup(classes=2, n_per_class=5)
    with pytest.raises(EmptySplitError):
        evaluate(model, feats, labels, np.array([], dtype=int))
