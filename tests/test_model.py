import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest
from _fuzz import corrupt
from _memory import PEAK_SLACK, traced_peak
from _reference import ref_backbone_features

import lacuna
from lacuna.lacunarity import (
    BASELINE_POOLS,
    DBC_DEFAULT_WINDOW,
    LacunarityConfig,
    base_lacunarity,
)
from lacuna.model import (
    FeatureFileError,
    FrozenBackbone,
    FusionModel,
    _checked_labels,
    _cross_entropy,
    _head,
    read_feature_file,
    read_label_sidecar,
    write_feature_file,
)
from lacuna.tensor import PoolSpec, ShapeMismatchError, gap


# ------------------------------------------------------------- feature files

def test_feature_file_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    feats = rng.standard_normal((5, 3, 4, 4))
    labels = np.array([0, 1, 2, 1, 0])
    path = str(tmp_path / "feats.bin")
    write_feature_file(path, feats, labels)
    assert np.array_equal(read_feature_file(path), feats)
    assert np.array_equal(read_label_sidecar(path), labels)


def test_feature_file_layout(tmp_path):
    path = str(tmp_path / "feats.bin")
    write_feature_file(path, np.arange(4.0).reshape(1, 1, 2, 2))
    blob = (tmp_path / "feats.bin").read_bytes()
    assert blob[:4] == b"LACF"
    assert blob[4:20] == (1).to_bytes(4, "little") * 2 \
        + (2).to_bytes(4, "little") * 2
    assert np.frombuffer(blob[20:], dtype="<f8").tolist() == [0.0, 1.0, 2.0, 3.0]


def test_feature_file_errors(tmp_path):
    bad_magic = tmp_path / "a.bin"
    bad_magic.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(FeatureFileError):
        read_feature_file(str(bad_magic))
    truncated = tmp_path / "b.bin"
    truncated.write_bytes(b"LACF" + (1).to_bytes(4, "little") * 4 + bytes(4))
    with pytest.raises(FeatureFileError):
        read_feature_file(str(truncated))
    with pytest.raises(ShapeMismatchError):
        write_feature_file(str(tmp_path / "c.bin"), np.zeros((2, 1, 2, 2)),
                           labels=np.zeros(3))


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads RSS from /proc/self/status")
def test_feature_file_read_peaks_near_its_payload(tmp_path):
    # a whole-file read, its payload slice and a dtype copy would hold ~3x it,
    # and a payload-sized finiteness mask another eighth of it
    dims = (5, 1, 1000, 1000)
    payload = 8 * math.prod(dims)
    path = tmp_path / "big.bin"
    with open(path, "wb") as fh:
        fh.write(_lacf(dims))
        fh.truncate(20 + payload)  # an all-zero payload
    # the rise runs from the current RSS, not the peak: start-up can leave a
    # high-water mark above it that would hide part of the read's peak
    script = ("import sys\n"
              "from lacuna.model import read_feature_file\n"
              "def kib(key):\n"
              "    with open('/proc/self/status') as fh:\n"
              "        return next(int(line.split()[1]) for line in fh if line.startswith(key))\n"
              "before = kib('VmRSS:')\n"
              "read_feature_file(sys.argv[1])\n"
              "print(kib('VmHWM:') - before)\n")
    src = os.path.dirname(os.path.dirname(lacuna.__file__))
    run = subprocess.run([sys.executable, "-c", script, str(path)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert int(run.stdout) * 1024 < 1.1 * payload


def _lacf(dims, payload=b""):
    return b"LACF" + struct.pack("<4I", *dims) + payload


@pytest.mark.parametrize(
    "blob",
    [
        # element counts that wrap to 0 mod 2^64 must not pass as empty
        pytest.param(_lacf((65536,) * 4), id="dims-product-2^64"),
        pytest.param(_lacf((4, 2**30, 2**30, 16)), id="dims-product-2^66"),
        pytest.param(_lacf((0, 1, 2, 2)), id="zero-dim"),
        pytest.param(_lacf((1, 1, 1, 2), struct.pack("<2d", 1.0, np.nan)),
                     id="nan-payload"),
        pytest.param(_lacf((1, 1, 1, 1), struct.pack("<d", -np.inf)),
                     id="inf-payload"),
    ],
)
def test_corrupt_feature_headers_raise_feature_file_error(tmp_path, blob):
    path = tmp_path / "bad.bin"
    path.write_bytes(blob)
    with pytest.raises(FeatureFileError):
        read_feature_file(str(path))


@pytest.mark.parametrize(
    "text",
    [
        # ASCII digits only: int() would also take these
        pytest.param(b"1_0\n", id="underscore"),
        pytest.param(b"+2\n", id="plus-sign"),
        pytest.param(b"-1\n", id="minus-sign"),
        pytest.param(b"\xd9\xa3\n", id="arabic-indic-digit"),
        pytest.param(b"1 2\n", id="inner-space"),
        pytest.param(b"0\na\n", id="letter"),
        pytest.param(b"\xff\n", id="non-utf8"),
        pytest.param(b"9" * 19 + b"\n", id="past-int64"),
    ],
)
def test_corrupt_label_sidecars_raise_feature_file_error(tmp_path, text):
    path = tmp_path / "feats.bin"
    (tmp_path / "feats.bin.labels").write_bytes(text)
    with pytest.raises(FeatureFileError):
        read_label_sidecar(str(path))


def test_label_sidecar_skips_blank_lines_and_edge_whitespace(tmp_path):
    (tmp_path / "feats.bin.labels").write_bytes(b"0\r\n\n 12 \n\t3\n")
    assert read_label_sidecar(str(tmp_path / "feats.bin")).tolist() == [0, 12, 3]


@pytest.mark.parametrize(
    "labels",
    [
        pytest.param([1.7, -1], id="fractional-and-negative"),
        pytest.param([10**18], id="past-reader-range"),
        pytest.param(np.array([10**18]), id="past-reader-range-int64"),
        pytest.param([-1, 0], id="negative"),
        pytest.param([float("nan")], id="nan"),
        pytest.param([float("inf")], id="inf"),
        pytest.param(["1"], id="text"),
    ],
)
def test_write_rejects_labels_the_reader_refuses(tmp_path, labels):
    path = tmp_path / "feats.bin"
    feats = np.zeros((len(labels), 1, 2, 2))
    with pytest.raises(ValueError, match="labels must be integers"):
        write_feature_file(str(path), feats, labels)
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ShapeMismatchError):
        write_feature_file(str(path), feats, np.zeros((len(labels), 1)))
    assert list(tmp_path.iterdir()) == []


def test_written_labels_round_trip(tmp_path):
    path = str(tmp_path / "feats.bin")
    for labels in ([0, 7, 10**18 - 1], np.array([3, 0, 1]), [2.0, 0.0, 5.0]):
        write_feature_file(path, np.zeros((3, 1, 1, 1)), labels)
        assert read_label_sidecar(path).tolist() == [int(v) for v in labels]


def test_fuzzed_feature_files_raise_only_feature_file_errors(tmp_path):
    rng = np.random.default_rng(20240918)
    feats = rng.standard_normal((2, 3, 2, 2))
    path = tmp_path / "fuzz.bin"
    write_feature_file(str(path), feats, labels=[0, 12])
    valid = path.read_bytes()
    sidecar = tmp_path / "fuzz.bin.labels"
    valid_labels = sidecar.read_bytes()
    # the sidecar draws from its own stream, so the LACF draws stay as they were
    label_rng = np.random.default_rng(20240919)
    rejected = rejected_labels = 0
    for _ in range(2000):
        text = corrupt(valid_labels, label_rng)
        sidecar.write_bytes(text)
        try:
            labels = read_label_sidecar(str(path))
        except FeatureFileError:
            rejected_labels += 1
        else:
            assert labels.dtype == np.int64
            assert labels.tolist() == [int(tok) for tok in text.split()]
        path.write_bytes(corrupt(valid, rng))
        try:
            out = read_feature_file(str(path))
        except FeatureFileError:
            rejected += 1
            continue
        assert out.ndim == 4 and out.size >= 1
        assert np.all(np.isfinite(out))
    assert rejected > 1000  # the loop exercised the error paths
    assert rejected_labels > 500


# ----------------------------------------------------------------- backbone

def test_backbone_shapes_and_determinism():
    bb = FrozenBackbone.make(seed=4, channels=12)
    assert bb.out_channels == 12
    images = np.random.default_rng(0).uniform(0, 255, size=(3, 1, 56, 56))
    out = bb.features(images)
    assert out.shape == (3, 12, 7, 7)
    assert np.all(out >= 0.0)  # relu output
    again = FrozenBackbone.make(seed=4, channels=12)
    assert bb.checksum() == again.checksum()
    assert np.array_equal(out, again.features(images))
    assert FrozenBackbone.make(seed=5, channels=12).checksum() != bb.checksum()


@pytest.mark.parametrize("n", [1, 15, 16, 17, 300])
def test_backbone_blocks_match_unblocked_oracle(n):
    rng = np.random.default_rng(n)
    images = rng.uniform(0, 255, size=(n, 1, 56, 56))
    for seed in (0, 7):
        bb = FrozenBackbone.make(seed=seed, channels=16)
        assert np.array_equal(
            bb.features(images),
            ref_backbone_features(bb.weights, bb.biases, images))


def test_backbone_blocks_other_image_sizes_exactly():
    # 40 px images make the block hold more images than at 56 px
    images = np.random.default_rng(3).uniform(0, 255, size=(70, 1, 40, 40))
    bb = FrozenBackbone.make(seed=2, channels=4)
    assert np.array_equal(bb.features(images),
                          ref_backbone_features(bb.weights, bb.biases, images))


def test_backbone_weights_are_write_protected():
    bb = FrozenBackbone.make(seed=0)
    with pytest.raises(ValueError):
        bb.weights[0][0, 0, 0, 0] = 1.0


def test_feature_file_features_feed_the_head(tmp_path):
    feats = np.random.default_rng(1).standard_normal((6, 4, 2, 2))
    path = str(tmp_path / "f.bin")
    write_feature_file(path, feats)
    loaded = read_feature_file(path)
    model = FusionModel.build(loaded.shape[1], LacunarityConfig(method="avg"),
                              num_classes=2, seed=0)
    assert model.classifier_w.shape == (2, 4)
    assert np.array_equal(loaded, feats)
    assert np.allclose(model.head(loaded[[2, 0]])[0], model.head(feats)[0][[2, 0]])


def test_backbone_rejects_multichannel_images():
    bb = FrozenBackbone.make(seed=0)
    with pytest.raises(ShapeMismatchError):
        bb.features(np.zeros((1, 3, 56, 56)))


def test_backbone_features_have_the_feature_shape():
    images = np.random.default_rng(4).uniform(0, 255, size=(20, 1, 40, 40))
    bb = FrozenBackbone.make(seed=1, channels=3)
    assert bb.feature_shape(20, 40, 40) == (20, 3, 5, 5)
    feats = bb.features(images)
    assert feats.shape == bb.feature_shape(20, 40, 40)
    assert np.array_equal(feats, ref_backbone_features(bb.weights, bb.biases, images))


# --------------------------------------------------------------------- head

def test_cross_entropy_uniform_logits():
    logits = np.zeros((2, 5, 4))
    labels = np.array([0, 1, 2, 3, 0])
    losses, d_mean = _cross_entropy(logits, labels)
    assert losses == pytest.approx([np.log(4.0)] * 2)
    # each head's mean loss's gradient is its softmax minus the one-hot
    # labels, over the batch
    assert np.allclose(5 * d_mean + np.eye(4)[labels], 0.25)


def test_cross_entropy_is_shift_stable():
    rng = np.random.default_rng(3)
    logits = rng.standard_normal((2, 6, 3))
    labels = rng.integers(0, 3, size=6)
    big = logits + np.array([1e4, -1e4])[:, None, None]
    assert _cross_entropy(big, labels)[0] == pytest.approx(
        _cross_entropy(logits, labels)[0])
    with pytest.raises(ValueError):
        _checked_labels(np.array([0, 1, 2, 3, 0, 1]), 3)


def misaligned(a):
    """A copy of `a` whose data starts one float64 into its buffer."""
    out = np.empty(a.size + 1)[1:].reshape(a.shape)
    out[...] = a
    return out


@pytest.mark.parametrize("channels", [16, 512, 2208])
def test_head_rows_do_not_depend_on_their_batch(channels):
    rng = np.random.default_rng(channels)
    n, k, s = 40, 3, 2
    pooled = rng.uniform(0.0, 2.0, size=(1, n, channels, s))
    gapped = rng.uniform(0.0, 2.0, size=(n, channels))
    w, b = rng.standard_normal((1, k, channels)), rng.standard_normal((1, k))
    mix = rng.standard_normal((1, channels, s)), rng.standard_normal((1, channels))
    logits, fused = _head(pooled, gapped, w, b, *mix)
    for width in (1, 2):
        for i in range(n - width + 1):
            rows = slice(i, i + width)
            # the rows as views of the batch and as copies at another alignment
            for part in ((pooled[:, rows], gapped[rows]),
                         (misaligned(pooled[:, rows]), misaligned(gapped[rows]))):
                part_logits, part_fused = _head(*part, w, b, *mix)
                assert np.array_equal(part_logits, logits[:, rows]), (width, i)
                assert np.array_equal(part_fused, fused[:, rows]), (width, i)


SELECTORS = {
    "base": LacunarityConfig(method="base"),
    "dbc": LacunarityConfig(method="dbc"),
    "multiscale": LacunarityConfig(method="multiscale", scales=2),
    **{name: LacunarityConfig(method=name) for name in BASELINE_POOLS},
}


def relu_feats(n, c=16, seed=0):
    """Backbone-like features: half the values exactly 0, as after a ReLU."""
    rng = np.random.default_rng(seed)
    return np.maximum(rng.standard_normal((n, c, 7, 7)), 0.0)


@pytest.mark.parametrize("name", sorted(SELECTORS))
def test_pooled_blocks_equal_one_whole_batch_pass(name):
    # 75 samples of 16 x 7 x 7: two full pooling blocks and a partial one
    feats = relu_feats(75)
    model = FusionModel.build(16, SELECTORS[name], num_classes=3, seed=0)
    whole = gap(model.scale_planes(feats)).reshape(75, 16, -1)
    pooled = model.pooled(feats)
    assert pooled.shape == (75, 16, model.pooling.scale_count)
    assert np.array_equal(pooled, whole)


@pytest.mark.parametrize("name", sorted(SELECTORS))
def test_pooled_peak_grows_only_with_its_output(name):
    feats = relu_feats(480)
    model = FusionModel.build(16, SELECTORS[name], num_classes=3, seed=0)
    model.pooled(feats[:2])  # first-call caches
    small, _ = traced_peak(lambda: model.pooled(feats[:48]))
    large, _ = traced_peak(lambda: model.pooled(feats))
    grown_output = (480 - 48) * 16 * model.pooling.scale_count * 8
    assert large - small <= grown_output + PEAK_SLACK, (small, large)


def test_pooled_rejects_malformed_features():
    model = FusionModel.build(4, LacunarityConfig(method="avg"), num_classes=2, seed=0)
    for bad in (np.zeros((0, 4, 7, 7)), np.zeros((4, 7, 7)), np.zeros(3),
                np.zeros((2, 8, 7, 7))):  # features wider than the head
        with pytest.raises(ShapeMismatchError):
            model.pooled(bad)
    nan = relu_feats(40, c=4)
    nan[37, 1, 2, 3] = np.nan  # in the last block
    with pytest.raises(ValueError, match="NaN"):
        model.pooled(nan)


# ------------------------------------------------------------- fusion model

def fixture_feats(n=4, c=5, hw=7, seed=0):
    return np.random.default_rng(seed).uniform(0.0, 3.0, size=(n, c, hw, hw))


def test_avg_baseline_is_classifier_of_gap_squared():
    # avg pooling branch == GAP, so the fused product is gap(x)^2
    model = FusionModel.build(5, LacunarityConfig(method="avg"), num_classes=3, seed=1)
    feats = fixture_feats()
    g = gap(feats)[:, :, 0, 0]
    expected = (g * g) @ model.classifier_w.T + model.classifier_b
    assert np.allclose(model.head(feats)[0], expected)


def test_constant_features_give_bias_logits_for_lacunarity():
    # constant map has zero lacunarity -> fused features vanish
    cfg = LacunarityConfig(method="base", normalize_input=False)
    model = FusionModel.build(2, cfg, num_classes=2, seed=0)
    feats = np.full((3, 2, 6, 6), 4.0)
    logits, _ = model.head(feats)
    assert np.allclose(logits, model.classifier_b[None, :])


def test_base_branch_uses_global_lacunarity():
    cfg = LacunarityConfig(method="base", normalize_input=False)
    model = FusionModel.build(5, cfg, num_classes=3, seed=2)
    feats = fixture_feats()
    lac = base_lacunarity(feats, cfg)
    fused = lac[:, :, 0, 0] * gap(feats)[:, :, 0, 0]
    expected = fused @ model.classifier_w.T + model.classifier_b
    assert np.allclose(model.head(feats)[0], expected)


def test_multiscale_model_has_mix_and_param_count():
    cfg = LacunarityConfig(method="multiscale", scales=2)
    model = FusionModel.build(512, cfg, num_classes=10, seed=0)
    assert model.mix is not None
    assert model.mix.param_count() == 1536
    assert model.trainable_param_count() == 1536 + 512 * 10 + 10


def test_baseline_model_has_no_mix():
    for name in BASELINE_POOLS:
        model = FusionModel.build(8, LacunarityConfig(method=name), num_classes=4,
                                  seed=0)
        assert model.mix is None
        assert model.trainable_param_count() == 8 * 4 + 4
    with pytest.raises(ValueError):
        LacunarityConfig(method="median")


@pytest.mark.parametrize("pooling", ["avg", None])
def test_pooling_must_be_a_config(pooling):
    with pytest.raises(TypeError, match="LacunarityConfig"):
        FusionModel.build(4, pooling, num_classes=3, seed=0)
    with pytest.raises(TypeError, match="LacunarityConfig"):
        FusionModel(pooling=pooling,
                    classifier_w=np.zeros((2, 8)), classifier_b=np.zeros(2))


def test_dbc_branch_defaults_to_local_window_and_gap():
    cfg = LacunarityConfig(method="dbc", dilation_set=(1, 2))
    model = FusionModel.build(3, cfg, num_classes=2, seed=0)
    feats = fixture_feats(c=3)
    planes = model.scale_planes(feats)
    # heights stay 7x7 (identity padding); the 3x3 glide then gives 5x5
    assert planes.shape == (4, 6, 5, 5)
    pooled = model.pooled(feats)
    assert pooled.shape == (4, 3, 2)
    assert model.head(feats)[1].shape == (4, 3)
    assert DBC_DEFAULT_WINDOW == PoolSpec.square(3, stride=1)
    assert cfg.resolve_window(feats) == DBC_DEFAULT_WINDOW


def test_multiscale_branch_pools_mixed_planes():
    cfg = LacunarityConfig(method="multiscale", scales=2,
                           window=PoolSpec.square(2, stride=2))
    model = FusionModel.build(4, cfg, num_classes=2, seed=3)
    feats = fixture_feats(c=4, hw=8)
    planes = model.scale_planes(feats)
    assert planes.shape[1] == 8  # S * C planes, scale-major
    _, fused = model.head(feats)
    assert fused.shape == (4, 4)
    from lacuna.tensor import mix_scales
    mixed = mix_scales(planes, model.mix)
    assert np.allclose(fused, gap(mixed)[:, :, 0, 0] * gap(feats)[:, :, 0, 0])


def test_mix_scale_slot_mismatch_rejected():
    cfg = LacunarityConfig(method="multiscale", scales=3)
    good = FusionModel.build(4, cfg, num_classes=2, seed=0)
    from lacuna.tensor import GroupedMixWeights
    for mix in (GroupedMixWeights.uniform(4, 2),  # two slots, branch makes three
                GroupedMixWeights.uniform(3, 3)):  # three channels, classifier takes four
        with pytest.raises(ShapeMismatchError):
            FusionModel(pooling=cfg,
                        classifier_w=good.classifier_w,
                        classifier_b=good.classifier_b,
                        mix=mix)


@pytest.mark.parametrize("shape", [(3,), (3, 4, 1), (3, 0), ()])
def test_classifier_weights_must_be_k_by_c(shape):
    # a (3,) weight used to build and then fail in `head` with IndexError
    with pytest.raises(ShapeMismatchError, match="classifier weights"):
        FusionModel(pooling=LacunarityConfig(method="avg"),
                    classifier_w=np.zeros(shape), classifier_b=np.zeros(shape[:1]))


def test_classifier_bias_must_be_k():
    with pytest.raises(ShapeMismatchError, match="classifier bias"):
        FusionModel(pooling=LacunarityConfig(method="avg"),
                    classifier_w=np.zeros((3, 4)), classifier_b=np.zeros(4))


def test_backbone_needs_a_channel():
    with pytest.raises(ValueError, match="channels must be >= 1"):
        FrozenBackbone.make(channels=0)


def test_build_rejects_single_class():
    with pytest.raises(ValueError):
        FusionModel.build(4, LacunarityConfig(method="avg"), num_classes=1, seed=0)


def test_predict_runs_end_to_end_on_images():
    bb = FrozenBackbone.make(seed=0, channels=6)
    cfg = LacunarityConfig(method="multiscale", scales=2)
    model = FusionModel.build(bb.out_channels, cfg, num_classes=3, seed=0)
    images = np.random.default_rng(5).uniform(0, 255, size=(2, 1, 56, 56))
    preds = model.head(bb.features(images))[0].argmax(axis=1)
    assert preds.shape == (2,)
    assert set(preds.tolist()) <= {0, 1, 2}
