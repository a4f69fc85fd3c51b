"""Frozen feature extractor and the fusion head over its feature maps.

A frozen backbone (a small fixed-seed stride-2 convolution stack) turns
images into feature maps once, a block of images at a time.  Everything
after that takes the feature tensor.  The fusion head reduces it once, to
the spatial means of its pooling branch's S scale planes (any method of
`lacunarity.scale_planes`; S = 1 for base and the avg/max/l2 baselines),
built a block of samples at a time, and of the features themselves (GAP).  One head
function, which training runs over a stack of heads and `FusionModel.head`
(the model's only forward) over a stack of one, then mixes the scales (a
frozen identity mix when the branch has one plane), multiplies the two
branches per channel and applies a linear classifier.  Only the scale mix
(when the branch has one) and the classifier train, on the one stacked
loss and head gradient that `lacuna gradcheck` checks as its
`cross_entropy` and `fusion_head` ops.

Features computed elsewhere enter the same way, as a plain tensor read from
a flat binary feature file ("LACF" magic, little-endian uint32 dims,
little-endian float64 payload, labels in a one-integer-per-line sidecar).
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .lacunarity import LacunarityConfig, scale_planes
from .tensor import (
    GroupedMixWeights,
    PoolSpec,
    ShapeMismatchError,
    _padded,
    _window_cells,
    as_feature_map,
    gap,
)


class FeatureFileError(ValueError):
    """Malformed feature file: bad magic, dims, payload length or values."""


# --------------------------------------------------------------- feature I/O

FEATURE_MAGIC = b"LACF"
# payload values whose finiteness one step of the reader checks: a 64 KiB
# boolean mask instead of one the size of the payload
_FINITE_BLOCK = 1 << 16


def write_feature_file(path: str, features: np.ndarray,
                       labels: np.ndarray | None = None) -> None:
    """Write features as magic + <4 uint32 dims> + row-major <float64 payload.

    When `labels` is given, a sidecar text file at `path + ".labels"` gets
    one integer per line, aligned with the leading feature axis.  Labels
    must be integers in [0, 10^18), the range `read_label_sidecar` reads
    back; they are checked before either file is opened.
    """
    features = as_feature_map(features, "features")
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != (features.shape[0],):
            raise ShapeMismatchError(
                f"labels shape {labels.shape} does not match N={features.shape[0]}"
            )
        labels = labels.tolist()  # exact Python numbers, whatever the dtype
        if not all(isinstance(v, (int, float)) and 0 <= v < 10**18
                   and v == int(v) for v in labels):
            raise ValueError("labels must be integers in [0, 10^18)")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack("<4I", *features.shape))
        fh.write(np.ascontiguousarray(features, dtype="<f8").tobytes())
    if labels is not None:
        with open(path + ".labels", "w") as fh:
            fh.writelines(f"{int(v)}\n" for v in labels)


def read_feature_file(path: str) -> np.ndarray:
    with open(path, "rb") as fh:
        head = fh.read(20)
        if head[:4] != FEATURE_MAGIC:
            raise FeatureFileError(f"{path}: bad magic {head[:4]!r}")
        if len(head) < 20:
            raise FeatureFileError(f"{path}: truncated header")
        dims = struct.unpack("<4I", head[4:])
        if 0 in dims:
            raise FeatureFileError(f"{path}: dims {dims} hold an empty axis")
        count = math.prod(dims)  # Python ints: no wraparound on corrupt dims
        size = os.fstat(fh.fileno()).st_size - 20
        if size != count * 8:
            raise FeatureFileError(
                f"{path}: payload holds {size} bytes, dims {dims} need {count * 8}"
            )
        # read straight into the array: no whole-file bytes or payload copy
        data = np.fromfile(fh, dtype="<f8", count=count)
    if data.size != count:
        raise FeatureFileError(f"{path}: payload ended after {data.size * 8} bytes")
    for start in range(0, count, _FINITE_BLOCK):
        if not np.isfinite(data[start:start + _FINITE_BLOCK]).all():
            raise FeatureFileError(f"{path}: payload holds NaN or Inf")
    return data.reshape(dims).astype(np.float64, copy=False)


def read_label_sidecar(path: str) -> np.ndarray:
    with open(path + ".labels", "rb") as fh:
        tokens = [line.strip() for line in fh if line.strip()]
    # bytes.isdigit is ASCII-only; int() would also take "+2" or "1_0"
    if not all(tok.isdigit() and len(tok) < 19 for tok in tokens):
        raise FeatureFileError(f"{path}.labels: a label is not 1-18 ASCII digits")
    return np.array([int(tok) for tok in tokens], dtype=np.int64)


# ------------------------------------------------------------------ backbone

# input pixels per backbone block: 16 images of 56 px, whose first-layer
# input and output (about 1.2 MB of float64) stay near L2-sized
_BLOCK_PIXELS = 16 * 56 * 56
# feature cells per pooling block: 32 samples of 16 channels at 7x7 (200 KB
# of float64), whose box-counting temporaries peak near 1.5 MB; blocks of
# 32 to 300 such samples pool in times within 20 % of one another
_BLOCK_CELLS = 32 * 16 * 7 * 7


def _backbone_block(height: int, width: int) -> int:
    """Images of height x width pixels per backbone block, at least one."""
    return max(1, _BLOCK_PIXELS // (height * width))


def _conv2d(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int,
            padding: int) -> np.ndarray:
    c_out, c_in, kh, kw = w.shape
    spec = PoolSpec(kh, kw, stride, stride, padding=padding)
    out_h, out_w = spec.out_size(x.shape[2], x.shape[3])
    xp = _padded(x, padding, 0.0)
    taps = w.reshape(c_out, c_in, -1)
    out = np.zeros((x.shape[0], c_out, out_h, out_w))
    for k, cells in enumerate(_window_cells(spec, out_h, out_w)):
        out += np.einsum("nihw,oi->nohw", xp[cells], taps[:, :, k])
    return out + b[None, :, None, None]


@dataclass
class FrozenBackbone:
    """Immutable conv feature extractor.

    A fixed-seed stack of stride-2 3x3 convolutions with ReLU, mapping
    (N, 1, 56, 56) grayscale in [0, 255] to (N, C, 7, 7).  Weight arrays are
    marked read-only; the checksum lets callers assert nothing trained
    through it.
    """

    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]

    def __post_init__(self):
        for arr in (*self.weights, *self.biases):
            arr.setflags(write=False)

    @classmethod
    def make(cls, seed: int = 0, channels: int = 16) -> "FrozenBackbone":
        if channels < 1:
            raise ValueError("channels must be >= 1")
        rng = np.random.default_rng(seed)
        # three stride-2 layers take 56x56 down to 7x7 regardless of width
        plan = [1, 8, 16, channels]
        weights, biases = [], []
        for c_in, c_out in zip(plan[:-1], plan[1:]):
            fan_in = c_in * 9
            weights.append(rng.standard_normal((c_out, c_in, 3, 3))
                           * np.sqrt(2.0 / fan_in))
            biases.append(np.zeros(c_out))
        return cls(weights=tuple(weights), biases=tuple(biases))

    @property
    def out_channels(self) -> int:
        return self.weights[-1].shape[0]

    def feature_shape(self, n: int, height: int, width: int
                      ) -> tuple[int, int, int, int]:
        """(N, C, H', W') shape of the features of n height x width images."""
        for w in self.weights:
            height, width = PoolSpec(*w.shape[2:], 2, 2, padding=1).out_size(
                height, width)
        return n, self.out_channels, height, width

    def features(self, images: np.ndarray) -> np.ndarray:
        """Feature maps, of `feature_shape`, for a batch of single-channel images.

        The whole conv stack runs over blocks of `_backbone_block` images
        (about `_BLOCK_PIXELS` input pixels each) so one block's layer
        temporaries stay cache-sized, and each block is written into the
        one output array.  Each image's arithmetic is independent of the
        block it lands in, so the result equals one full-batch pass bit for
        bit.
        """
        x = as_feature_map(images, "images")
        if x.shape[1] != 1:
            raise ShapeMismatchError("backbone expects single-channel images")
        out = np.empty(self.feature_shape(x.shape[0], *x.shape[2:]))
        step = _backbone_block(*x.shape[2:])
        for i in range(0, len(x), step):
            out[i:i + step] = self._conv_stack(x[i:i + step])
        return out

    def _conv_stack(self, x: np.ndarray) -> np.ndarray:
        x = x / 255.0
        for w, b in zip(self.weights, self.biases):
            x = np.maximum(_conv2d(x, w, b, stride=2, padding=1), 0.0)
        return x

    def checksum(self) -> str:
        digest = hashlib.sha256()
        for arr in (*self.weights, *self.biases):
            digest.update(np.ascontiguousarray(arr).tobytes())
        return digest.hexdigest()


# ----------------------------------------------------------- classifier head

def _checked_labels(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Labels as int64, raising ValueError unless each one is a whole number
    (an integral float passes, as in `write_feature_file`) naming a class."""
    labels = np.asarray(labels)
    if not np.all(np.floor(labels) == labels):
        raise ValueError("labels must be whole numbers")
    if not np.all((labels >= 0) & (labels < num_classes)):
        raise ValueError("labels out of range for the logit width")
    return labels.astype(np.int64)


def _cross_entropy(logits: np.ndarray, labels: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Per-head mean softmax cross-entropy and its gradient.

    `logits` is (M, B, K) for M heads scoring the same B labelled rows;
    each head's gradient is its softmax minus the one-hot labels, over B.
    """
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    total = e.sum(axis=-1, keepdims=True)
    nll = np.log(total[..., 0]) - z[:, np.arange(len(labels)), labels]
    d = e / total
    d -= labels[:, None] == np.arange(logits.shape[-1])
    d /= len(labels)
    # the arithmetic of np.mean, without its per-call overhead
    return nll.sum(axis=-1) / len(labels), d


# -------------------------------------------------------------- fusion model

def _head(pooled, gapped, classifier_w, classifier_b, mix_weights, mix_bias):
    """(M, N, K) logits and (M, N, C) classifier input of M stacked heads.

    `pooled` is (M, N, C, S), `gapped` the (N, C) GAP vectors, and the mix
    (M, C, S) weights and (M, C) bias.  Pooled values are never -0.0, so an
    identity slot (weight 1, bias 0) gives a plane back bit for bit.
    """
    lac = np.einsum("mncs,mcs->mnc", pooled, mix_weights) + mix_bias[:, None]
    fused = lac * gapped
    # einsum's own loop, not BLAS: a row's logits do not depend on its batch
    logits = (np.einsum("mnc,mkc->mnk", fused, classifier_w)
              + classifier_b[:, None])
    return logits, fused


def _head_grad(d_logits, pooled, gapped, fused, classifier_w):
    """Gradients of `_head`'s classifier weights and bias, then of its mix
    weights and bias, from the (M, N, K) gradient of its logits."""
    d_w = np.matmul(d_logits.transpose(0, 2, 1), fused)
    d_b = np.add.reduce(d_logits, axis=1)
    d_lac = np.matmul(d_logits, classifier_w) * gapped
    return (d_w, d_b, np.add.reduce(d_lac[..., None] * pooled, axis=1),
            np.add.reduce(d_lac, axis=1))


@dataclass
class FusionModel:
    """Pooling branch x GAP branch + linear classifier over feature maps.

    `pooling` is the LacunarityConfig of any of the six methods.  `mix` is
    present exactly when the pooling branch stacks scale planes (multiscale
    or box-counting); it and the classifier weights form the whole
    trainable set.
    """

    pooling: LacunarityConfig
    classifier_w: np.ndarray
    classifier_b: np.ndarray
    mix: GroupedMixWeights | None = None

    def __post_init__(self):
        if not isinstance(self.pooling, LacunarityConfig):
            raise TypeError(f"pooling must be a LacunarityConfig, got {self.pooling!r}")
        self.classifier_w = np.array(self.classifier_w, dtype=np.float64)
        self.classifier_b = np.array(self.classifier_b, dtype=np.float64)
        if self.classifier_w.ndim != 2 or 0 in self.classifier_w.shape:
            raise ShapeMismatchError(f"classifier weights {self.classifier_w.shape}, "
                                     f"not (K, C) with K, C >= 1")
        if self.classifier_b.shape != self.classifier_w.shape[:1]:
            raise ShapeMismatchError(f"classifier bias {self.classifier_b.shape} "
                                     f"for weights {self.classifier_w.shape}")
        need = (*self.classifier_w.shape[1:], self.scale_count)  # (C, S)
        if self.mix is not None and self.mix.weights.shape != need:
            raise ShapeMismatchError(f"mix weights {self.mix.weights.shape}, not {need}")

    @classmethod
    def build(cls, channels: int, pooling: LacunarityConfig,
              num_classes: int, seed: int = 0) -> "FusionModel":
        """Head for C-channel features: centered-uniform 1/sqrt(C) init, bias 0."""
        if num_classes < 2:
            raise ValueError("need at least two classes")
        rng = np.random.default_rng(seed)
        w = rng.uniform(-1.0, 1.0, size=(num_classes, channels)) / np.sqrt(channels)
        model = cls(pooling=pooling, classifier_w=w, classifier_b=np.zeros(num_classes))
        if pooling.method in ("dbc", "multiscale"):
            model.mix = GroupedMixWeights.uniform(channels, pooling.scale_count)
        return model

    @property
    def scale_count(self) -> int:
        """Scale planes S per channel of the pooling branch."""
        return self.pooling.scale_count

    def trainable_param_count(self) -> int:
        mix = 0 if self.mix is None else self.mix.param_count()
        return self.classifier_w.size + self.classifier_b.size + mix

    @property
    def head_mix(self) -> GroupedMixWeights:
        """The mix the head applies: `mix`, else a frozen identity slot."""
        return self.mix or GroupedMixWeights.uniform(self.classifier_w.shape[1], 1)

    # --- forwards --------------------------------------------------------

    def scale_planes(self, feats: np.ndarray) -> np.ndarray:
        """Mix-independent (N, C*S, H', W') branch planes; S = 1 unless it mixes."""
        return scale_planes(feats, self.pooling)

    def pooled(self, feats: np.ndarray) -> np.ndarray:
        """(N, C, S) scale planes averaged over space: the head's input.

        The planes are built over blocks of samples (about `_BLOCK_CELLS`
        feature cells each, at least one sample) and each block's spatial
        means written into the one output, so the planes' temporaries never
        hold more than one block.  Every stage acts sample by sample, so the
        result equals one whole-batch pass bit for bit.  Raises
        ShapeMismatchError unless the features have the head's channel count.
        """
        feats = np.asarray(feats)
        if feats.ndim != 4 or feats.size == 0:
            as_feature_map(feats, "features")  # raises the shape error
        n, c = feats.shape[:2]
        if c != self.classifier_w.shape[1]:
            raise ShapeMismatchError(f"features have {c} channels, "
                                     f"head takes {self.classifier_w.shape[1]}")
        out = np.empty((n, c, self.scale_count))
        step = max(1, _BLOCK_CELLS // math.prod(feats.shape[1:]))
        for i in range(0, n, step):
            out[i:i + step] = gap(self.scale_planes(feats[i:i + step])).reshape(
                -1, c, self.scale_count)
        return out

    def head(self, feats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(N, K) logits and their (N, C) classifier input, from one pass."""
        feats = as_feature_map(feats, "features")
        mix = self.head_mix
        logits, fused = _head(self.pooled(feats)[None], gap(feats)[:, :, 0, 0],
                              self.classifier_w[None], self.classifier_b[None],
                              mix.weights[None], mix.bias[None])
        return logits[0], fused[0]
