import importlib
import math

import numpy as np
import pytest

from lacuna import gradcheck, lacunarity, model as model_mod, tensor
from lacuna.lacunarity import LacunarityConfig
from lacuna.model import FrozenBackbone, FusionModel, softmax_cross_entropy
from lacuna.tensor import gap, mix_scales
from lacuna.textures import toy_dataset
from lacuna.train import (
    Adam,
    DivergenceError,
    EmptySplitError,
    TrainConfig,
    _HeadState,
    confusion_report,
    evaluate,
    split_indices,
    train,
    train_heads,
)


def toy_setup(pooling=LacunarityConfig(method="avg"), classes=3, n_per_class=10,
              seed=0, channels=6):
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
    for rate in (math.nan, math.inf):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=rate)


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
    params = np.array([1.0, 1.0])
    opt = Adam(params, lr=0.1)
    opt.step(np.array([3.0, -3.0]))
    assert np.allclose(params, [0.9, 1.1], atol=1e-7)


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
    state = _HeadState([model], feats, labels)
    (val_loss,) = state.loss(result.val_idx)
    best = result.history.best_epoch
    assert val_loss == pytest.approx(result.history.val_loss[best - 1])
    assert result.history.val_loss[best - 1] == pytest.approx(
        min(result.history.val_loss))


def test_backbone_stays_frozen_through_training():
    images, labels = toy_dataset(3, 10, size=56, seed=0)
    backbone = FrozenBackbone.make(seed=0, channels=6)
    fingerprint = backbone.checksum()
    model = FusionModel.build(backbone.out_channels, LacunarityConfig(method="avg"),
                              3, seed=0)
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
    assert len(h.val_loss) == n
    assert all(np.isfinite(v) for v in h.train_loss + h.val_loss)


# ------------------------------------------------------- head gradient oracle

METHOD_POOLS = {
    "base": LacunarityConfig(method="base"),
    "dbc": LacunarityConfig(method="dbc"),
    "multiscale": LacunarityConfig(method="multiscale", scales=2),
    "avg": LacunarityConfig(method="avg"),
    "max": LacunarityConfig(method="max"),
    "l2": LacunarityConfig(method="l2"),
}
HEADS = {name: METHOD_POOLS[name]
         for name in ("base", "avg", "dbc", "multiscale")}


def oracle_head(name):
    """A toy head with every trainable array moved off its initial values."""
    model, feats, labels = toy_setup(pooling=HEADS[name], channels=4,
                                     n_per_class=6)
    rng = np.random.default_rng(11)
    model.classifier_w[...] = rng.normal(size=model.classifier_w.shape) * 5.0
    model.classifier_b[...] = rng.normal(size=model.classifier_b.shape)
    if model.mix is not None:
        model.mix.weights[...] = rng.normal(size=model.mix.weights.shape)
        model.mix.bias[...] = rng.normal(size=model.mix.bias.shape)
    idx = np.random.default_rng(3).permutation(len(labels))[:7]
    return model, feats, labels, idx


def registry_gradients(model, feats, labels, idx):
    """Loss and head gradients through the 4-D ops and the vjp registry's
    loss, `gap` and `mix_scales`, with the fusion product and classifier
    differentiated by hand."""
    back = gradcheck.backward
    gapped = gap(feats[idx])[:, :, 0, 0]
    planes = model.scale_planes(feats)[idx]
    if model.mix is None:
        lac = gap(planes)  # the single plane is the pooling branch
    else:
        mixed = mix_scales(planes, model.mix)
        lac = gap(mixed)
    fused = lac[:, :, 0, 0] * gapped
    w, b = model.classifier_w, model.classifier_b
    logits = fused @ w.T + b
    (d_logits,) = back("softmax_cross_entropy", (logits, labels[idx]), 1.0)
    # the classifier's adjoint, then the product rule: d fused / d lac = gapped
    grads = {"classifier_w": d_logits.T @ fused, "classifier_b": d_logits.sum(axis=0)}
    if model.mix is not None:
        d_lac = (d_logits @ w) * gapped
        (d_mixed,) = back("gap", (mixed,), d_lac[:, :, None, None])
        _, grads["mix_weights"], grads["mix_bias"] = back(
            "mix_scales", (planes, model.mix), d_mixed)
    return softmax_cross_entropy(logits, labels[idx]), grads


@pytest.mark.parametrize("name", sorted(HEADS))
def test_flat_step_gradient_matches_registry_chain(name):
    model, feats, labels, idx = oracle_head(name)
    want_loss, want = registry_gradients(model, feats, labels, idx)
    state = _HeadState([model], feats, labels)
    (loss,) = state.loss_grad(idx)
    assert loss == pytest.approx(want_loss, rel=1e-12)
    # every head carries mix arrays; a head that does not mix trains none
    assert sorted(state.grads) == ["classifier_b", "classifier_w",
                                   "mix_bias", "mix_weights"]
    assert ("mix_weights" in want) == (name in ("dbc", "multiscale"))
    if "mix_weights" not in want:
        assert not np.any(state.grads["mix_weights"])
        assert not np.any(state.grads["mix_bias"])
    for key, grad in want.items():
        assert np.abs(grad).max() > 0
        np.testing.assert_allclose(state.grads[key][0], grad, rtol=1e-10,
                                   atol=1e-12 * np.abs(grad).max())


@pytest.mark.parametrize("name", sorted(HEADS))
def test_flat_step_gradient_matches_central_differences(name):
    model, feats, labels, idx = oracle_head(name)
    state = _HeadState([model], feats, labels)
    state.loss_grad(idx)
    h = 1e-5
    for key, param in state.params.items():
        analytic = state.grads[key]
        trainable = state.trainable.get(key, np.ones_like(param))
        assert not np.any(analytic[trainable == 0])
        numeric = np.zeros_like(analytic)
        for j in np.ndindex(param.shape):
            if not trainable[j]:
                continue
            old = param[j]
            param[j] = old + h
            (up,) = state.loss(idx)
            param[j] = old - h
            (down,) = state.loss(idx)
            param[j] = old
            numeric[j] = (up - down) / (2.0 * h)
        np.testing.assert_allclose(numeric, analytic, rtol=1e-6,
                                   atol=1e-6 * np.abs(analytic).max())


def test_training_updates_the_models_own_arrays():
    model, feats, labels, _ = oracle_head("dbc")
    held = (model.classifier_b, model.classifier_w, model.mix.bias,
            model.mix.weights)
    before = [arr.copy() for arr in held]
    train(model, feats, labels,
          TrainConfig(max_epochs=3, early_stop_patience=2, learning_rate=0.05))
    after = (model.classifier_b, model.classifier_w, model.mix.bias,
             model.mix.weights)
    for kept, now, old in zip(held, after, before):
        assert kept is now
        assert not np.array_equal(kept, old)


@pytest.mark.parametrize("bad", [-1, 3])
def test_out_of_range_labels_raise(bad):
    model, feats, labels = toy_setup()
    labels = labels.copy()
    labels[0] = bad
    with pytest.raises(ValueError, match="labels out of range"):
        train(model, feats, labels,
              TrainConfig(max_epochs=2, early_stop_patience=1))
    with pytest.raises(ValueError, match="labels out of range"):
        evaluate(model, feats, labels)


@pytest.mark.parametrize("shift", [0.6, math.nan])
def test_labels_that_are_not_whole_numbers_raise(shift):
    # an int64 cast would train a label 0.6 above a class as that class
    model, feats, labels = toy_setup()
    labels = labels + np.where(np.arange(len(labels)) == 0, shift, 0.0)
    cfg = TrainConfig(max_epochs=2, early_stop_patience=1)
    with pytest.raises(ValueError, match="whole numbers"):
        train(model, feats, labels, cfg)
    with pytest.raises(ValueError, match="whole numbers"):
        evaluate(model, feats, labels)


def test_integral_float_labels_train_as_their_integers():
    model, feats, labels = toy_setup()
    twin = FusionModel.build(6, model.pooling, 3, seed=0)
    cfg = TrainConfig(max_epochs=2, early_stop_patience=1)
    got = train(model, feats, labels.astype(np.float64), cfg)
    want = train(twin, feats, labels, cfg)
    assert got.test_logits.tobytes() == want.test_logits.tobytes()
    assert (evaluate(model, feats, labels.astype(np.float64)).accuracy
            == evaluate(twin, feats, labels).accuracy)


@pytest.mark.parametrize("name", ["avg", "dbc"])
def test_training_validates_features_only_at_entry(name, monkeypatch):
    calls = [0]
    real = tensor.as_feature_map

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    # the package re-exports the function `train` under the module's name
    train_mod = importlib.import_module("lacuna.train")
    for module in (tensor, lacunarity, model_mod, train_mod):
        monkeypatch.setattr(module, "as_feature_map", counting)
    model, feats, labels = toy_setup(pooling=HEADS[name])
    calls[0] = 0
    _HeadState([model], feats, labels)
    at_entry = calls[0]
    assert at_entry > 0
    model, _, _ = toy_setup(pooling=HEADS[name])
    calls[0] = 0
    train(model, feats, labels,
          TrainConfig(max_epochs=3, early_stop_patience=2, batch_size=4))
    assert calls[0] == at_entry


# --------------------------------------------------------- lockstep training

def head_arrays(model):
    mix = () if model.mix is None else (model.mix.weights, model.mix.bias)
    return (model.classifier_w, model.classifier_b, *mix)


def test_lockstep_heads_match_solo_training_bit_for_bit():
    cfg = TrainConfig(max_epochs=20, early_stop_patience=2, learning_rate=1.0,
                      seed=1)
    stack = [toy_setup(pooling=pool)[0] for pool in METHOD_POOLS.values()]
    _, feats, labels = toy_setup()
    results = train_heads(stack, feats, labels, cfg)
    epochs = [r.history.epochs() for r in results]
    # the heads stop at different epochs, and one runs to the end
    assert len(set(epochs)) >= 4 and max(epochs) == cfg.max_epochs
    assert any(r.stopped_early for r in results)
    assert not all(r.stopped_early for r in results)
    for pool, model, result in zip(METHOD_POOLS.values(), stack, results):
        solo_model = toy_setup(pooling=pool)[0]
        solo = train(solo_model, feats, labels, cfg)
        for got, want in zip(head_arrays(model), head_arrays(solo_model),
                             strict=True):
            assert np.array_equal(got, want)
        assert result.history == solo.history
        assert result.stopped_early == solo.stopped_early
        for part in ("train_idx", "val_idx", "test_idx"):
            assert np.array_equal(getattr(result, part), getattr(solo, part))


def test_trained_heads_score_with_the_logits_training_saw():
    # one head path: the head on a feature subset gives the training state's
    # logits for those rows bit for bit, for every pooling method
    stack = [toy_setup(pooling=pool)[0] for pool in METHOD_POOLS.values()]
    _, feats, labels = toy_setup()
    results = train_heads(stack, feats, labels,
                          TrainConfig(max_epochs=4, early_stop_patience=3,
                                      learning_rate=0.5))
    state = _HeadState(stack, feats, labels)
    for rows in (results[0].test_idx, np.arange(len(labels))[::-1]):
        logits, fused, _, _ = state._forward(rows)
        for i, (name, model) in enumerate(zip(METHOD_POOLS, stack)):
            got_logits, got_fused = model.head(feats[rows])
            assert np.array_equal(got_logits, logits[i]), name
            assert np.array_equal(got_fused, fused[i]), name
            report = evaluate(model, feats, labels, rows)
            want = confusion_report(labels[rows], logits[i].argmax(axis=1), 3)
            assert np.array_equal(report.confusion, want.confusion), name


def test_trained_heads_return_their_test_scores():
    # the test rows are scored in the training state, with the kept weights,
    # as the trained model's own head scores them
    stack = [toy_setup(pooling=pool)[0] for pool in METHOD_POOLS.values()]
    _, feats, labels = toy_setup()
    results = train_heads(stack, feats, labels,
                          TrainConfig(max_epochs=6, early_stop_patience=2,
                                      learning_rate=0.5))
    assert len({r.history.best_epoch for r in results}) > 1
    for name, model, result in zip(METHOD_POOLS, stack, results):
        logits, fused = model.head(feats[result.test_idx])
        assert result.test_logits.shape == (len(result.test_idx), 3)
        assert result.test_logits.tobytes() == logits.tobytes(), name
        assert result.test_fused.tobytes() == fused.tobytes(), name


def test_nan_in_one_head_of_a_stack_raises():
    stack = [toy_setup(pooling=pool)[0] for pool in METHOD_POOLS.values()]
    _, feats, labels = toy_setup()
    stack[2].classifier_w[1, 0] = np.nan
    with pytest.raises(DivergenceError, match="train loss nan at epoch 1"):
        train_heads(stack, feats, labels,
                    TrainConfig(max_epochs=2, early_stop_patience=1))


def test_heads_with_mismatched_shapes_raise():
    model, feats, labels = toy_setup(channels=6)
    narrow = toy_setup(channels=4)[0]
    wide = toy_setup(classes=4)[0]
    for other in (narrow, wide):
        with pytest.raises(ValueError, match="differ in class or channel"):
            train_heads([model, other], feats, labels,
                        TrainConfig(max_epochs=2, early_stop_patience=1))
    with pytest.raises(ValueError):
        train_heads([], feats, labels,
                    TrainConfig(max_epochs=2, early_stop_patience=1))


MIXED = ("avg", "dbc", "base", "multiscale")


def mixed_stack():
    """Oracle heads of every kind, stacked over the same toy features."""
    heads = [oracle_head(name) for name in MIXED]
    _, feats, labels, idx = heads[0]
    models = [model for model, _, _, _ in heads]
    return models, feats, labels, idx, _HeadState(models, feats, labels)


def test_stacked_step_gradient_matches_registry_chain_per_head():
    models, feats, labels, idx, state = mixed_stack()
    losses = state.loss_grad(idx)
    assert sorted(state.grads) == ["classifier_b", "classifier_w",
                                   "mix_bias", "mix_weights"]
    for i, model in enumerate(models):
        want_loss, want = registry_gradients(model, feats, labels, idx)
        assert losses[i] == pytest.approx(want_loss, rel=1e-12)
        got = {key: state.grads[key][i] for key in ("classifier_w",
                                                   "classifier_b")}
        if model.mix is None:
            assert not np.any(state.grads["mix_weights"][i])
            assert not np.any(state.grads["mix_bias"][i])
        else:
            s = model.mix.scales
            got["mix_weights"] = state.grads["mix_weights"][i, :, :s]
            got["mix_bias"] = state.grads["mix_bias"][i]
            assert not np.any(state.grads["mix_weights"][i, :, s:])
        assert sorted(got) == sorted(want)
        for key, grad in want.items():
            assert np.abs(grad).max() > 0
            np.testing.assert_allclose(got[key], grad, rtol=1e-10,
                                       atol=1e-12 * np.abs(grad).max())


def test_step_gradient_is_the_checked_fusion_head_backward():
    # `lacuna gradcheck`'s fusion_head row checks the gradient training steps
    # with: each head's masked gradients are its registry chain's, bit for bit
    models, feats, labels, idx, state = mixed_stack()
    state.loss_grad(idx)
    logits, _, gapped, pooled = state._forward(idx)
    p = state.params
    for i in range(len(models)):
        (d_logits,) = gradcheck.backward("softmax_cross_entropy",
                                         (logits[i], labels[idx]), 1.0)
        head = [a[i:i + 1] for a in (p["classifier_w"], p["classifier_b"],
                                     p["mix_weights"], p["mix_bias"])]
        grads = gradcheck.backward("fusion_head", (pooled[i:i + 1], gapped, *head),
                                   d_logits[None])
        for name, grad in zip(("classifier_w", "classifier_b", "mix_weights",
                               "mix_bias"), grads, strict=True):
            mask = state.trainable[name][i] if name in state.trainable else 1.0
            assert np.array_equal(state.grads[name][i], grad[0] * mask), (i, name)


def test_stacked_step_gradient_matches_central_differences_per_head():
    models, feats, labels, idx, state = mixed_stack()
    state.loss_grad(idx)
    # the dbc head mixes three scales, so the two-scale mix has one pad slot
    assert state.params["mix_weights"].shape[2] == 3
    h = 1e-5
    for key, param in state.params.items():
        analytic = state.grads[key]
        trainable = state.trainable.get(key, np.ones_like(param))
        assert not np.any(analytic[trainable == 0])
        for i in range(len(models)):
            numeric = np.zeros_like(analytic[i])
            for j in np.ndindex(param.shape[1:]):
                if not trainable[i][j]:
                    continue
                old = param[i][j]
                param[i][j] = old + h
                up = state.loss(idx)
                param[i][j] = old - h
                down = state.loss(idx)
                param[i][j] = old
                numeric[j] = (up[i] - down[i]) / (2.0 * h)
            scale = np.abs(analytic[i]).max()
            np.testing.assert_allclose(numeric, analytic[i], rtol=1e-6,
                                       atol=1e-6 * scale)


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
