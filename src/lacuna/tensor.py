"""Dense NCHW tensors and windowed reductions.

Everything downstream (lacunarity operators, the fusion model) is composed
from the primitives in this module.  Maps are float64 (N, C, H, W) arrays.
Feature maps are finite, as :func:`as_feature_map` enforces; the planes that
:func:`mix_scales` and :func:`upsample_bilinear` take may hold the +-inf a
lacunarity operator documents, and `_as_planes` rejects NaN alone.  A public
call scans each map it is handed once; a walk over a map it has checked or
built (the pools' inputs, `pool_l2`'s squares, the lacunarity window sums,
extremes and masses) goes through `_pool`, which checks nothing, and
`pool_avg` and `gap` check only the shape before `pool_sum` scans the values.
`_feature_rows` checks a map into the first rows of a larger buffer, so a
caller can stack more rows beside it.
Operators allocate their outputs and never write into their arguments;
in-place arithmetic only touches arrays the operator allocated itself.

All reductions accumulate window cells in row-major order within the window,
so results are bit-reproducible across runs.  :func:`_window_cells` is the one
place that fixes that order: the pools here, their adjoints, the pyramid blur
and the backbone convolution all walk its kernel offsets.  No fold crosses
the batch axis, so maps stacked along it (the variance ratio stacks a map
and its square to take both window sums in one walk) keep the bits each has
when walked alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ShapeMismatchError(ValueError):
    """Operand shapes or a PoolSpec are incompatible with the input."""


def as_feature_map(x, name: str = "x") -> np.ndarray:
    """Validate and coerce `x` to a contiguous float64 NCHW array.

    Raises ShapeMismatchError on wrong rank or empty dimensions, and
    ValueError if any value is non-finite.
    """
    arr = np.ascontiguousarray(x, dtype=np.float64)
    _check_nchw(arr.shape, name)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or Inf")
    return arr


def _as_planes(x, name: str) -> np.ndarray:
    """`as_feature_map` for planes, which may hold +-inf but no NaN."""
    arr = np.ascontiguousarray(x, dtype=np.float64)
    _check_nchw(arr.shape, name)
    if np.isnan(arr).any():
        raise ValueError(f"{name} contains NaN")
    return arr


def _check_nchw(shape: tuple, name: str) -> None:
    if len(shape) != 4:
        raise ShapeMismatchError(
            f"{name} must have shape (N, C, H, W), got ndim={len(shape)}"
        )
    if min(shape) < 1:
        raise ShapeMismatchError(f"{name} has an empty dimension: {shape}")


def _feature_rows(x, rows: int) -> np.ndarray:
    """`as_feature_map(x)` in the first N rows of a new float64 buffer of
    shape (rows * N, C, H, W), whose other rows are left for the caller.  A
    map of another dtype is cast in the buffer, so it costs no float64 copy
    of its own."""
    arr = np.asarray(x)
    _check_nchw(arr.shape, "x")
    out = np.empty((rows * arr.shape[0], *arr.shape[1:]))
    head = out[:arr.shape[0]]
    head[...] = arr
    as_feature_map(head)  # the finiteness check, on the cast cells
    return out


@dataclass(frozen=True)
class PoolSpec:
    """Window geometry for the pooling reductions.

    `stride_*` defaults to the kernel (non-overlapping windows), `dilation`
    spaces the sampled cells, and `padding` grows both spatial borders.  Pad
    values are operation-specific: 0 for sum/avg, -inf for max, +inf for min,
    so padded cells never contaminate an extremum.  Padding is capped at half
    the larger effective kernel extent, and `out_size` rejects an input on
    which some window would sample padding cells only.
    """

    kernel_h: int
    kernel_w: int
    stride_h: int = 0  # 0 sentinel: use kernel
    stride_w: int = 0
    dilation: int = 1
    padding: int = 0

    def __post_init__(self):
        object.__setattr__(self, "stride_h", self.stride_h or self.kernel_h)
        object.__setattr__(self, "stride_w", self.stride_w or self.kernel_w)
        for field in ("kernel_h", "kernel_w", "stride_h", "stride_w", "dilation",
                      "padding"):
            value, least = getattr(self, field), int(field != "padding")
            if not isinstance(value, (int, np.integer)) or value < least:
                raise ShapeMismatchError(f"PoolSpec.{field} must be an int >= {least}")
        eff = self.dilation * (max(self.kernel_h, self.kernel_w) - 1) + 1
        if self.padding > eff // 2:
            raise ShapeMismatchError(
                f"padding {self.padding} exceeds half the effective kernel {eff}"
            )

    @classmethod
    def square(cls, kernel: int, stride: int | None = None, dilation: int = 1,
               padding: int = 0) -> "PoolSpec":
        s = stride if stride is not None else kernel
        return cls(kernel, kernel, s, s, dilation, padding)

    @classmethod
    def global_window(cls, h: int, w: int) -> "PoolSpec":
        """Single window covering an entire h-by-w map."""
        return cls(h, w, h, w)

    @property
    def area(self) -> int:
        return self.kernel_h * self.kernel_w

    def effective_extent(self) -> tuple[int, int]:
        return (self.dilation * (self.kernel_h - 1) + 1,
                self.dilation * (self.kernel_w - 1) + 1)

    def out_size(self, h: int, w: int) -> tuple[int, int]:
        """Output spatial dims for an h-by-w input; raises ShapeMismatchError
        if one is < 1 or if some window samples padding cells only."""
        eff_h, eff_w = self.effective_extent()
        p, d = self.padding, self.dilation
        out_h = (h + 2 * p - eff_h) // self.stride_h + 1
        out_w = (w + 2 * p - eff_w) // self.stride_w + 1
        if out_h < 1 or out_w < 1:
            raise ShapeMismatchError(
                f"window {self} does not fit a {h}x{w} input"
            )
        # window o samples o*s + t*d along an axis; [p, p + n) are real cells
        for n, out, k, s in ((h, out_h, self.kernel_h, self.stride_h),
                             (w, out_w, self.kernel_w, self.stride_w)):
            if p and not all(any(p <= o * s + t * d < p + n for t in range(k))
                             for o in range(out) if not p <= o * s < p + n):
                raise ShapeMismatchError(
                    f"window {self} samples padding only on a {h}x{w} input"
                )
        return out_h, out_w


def _padded(x: np.ndarray, pad: int, fill: float) -> np.ndarray:
    if pad == 0:
        return x
    n, c, h, w = x.shape
    out = np.full((n, c, h + 2 * pad, w + 2 * pad), fill, dtype=np.float64)
    out[:, :, pad:pad + h, pad:pad + w] = x
    return out


def _window_cells(spec: PoolSpec, out_h: int, out_w: int):
    """Index tuples `(..., rows, cols)` selecting each kernel offset's cells.

    One tuple per offset, in row-major kernel order; each picks that offset's
    cell of every window from the padded map.  This generator is the one
    place that fixes the order every reduction accumulates in.
    """
    d, sh, sw = spec.dilation, spec.stride_h, spec.stride_w
    rows = [slice(i, i + (out_h - 1) * sh + 1, sh)
            for i in range(0, d * spec.kernel_h, d)]
    cols = [slice(j, j + (out_w - 1) * sw + 1, sw)
            for j in range(0, d * spec.kernel_w, d)]
    return ((..., r, c) for r in rows for c in cols)


def _pool(x: np.ndarray, spec: PoolSpec, fill: float, combine) -> np.ndarray:
    """Fold `combine` over every window's cells of checked map `x`; `fill`
    pads and seeds it.  The walk reads `x` once and does not check it: its
    callers have checked or built `x`, and the variance ratio stacks a
    checked map and its square as one `x` so that one walk takes both sums.
    No fold crosses the batch axis, so each row keeps the bits it has when
    walked alone."""
    out_h, out_w = spec.out_size(x.shape[2], x.shape[3])
    xp = _padded(x, spec.padding, fill)
    out = np.full((x.shape[0], x.shape[1], out_h, out_w), fill)
    for cells in _window_cells(spec, out_h, out_w):
        combine(out, xp[cells], out=out)
    return out


# n * max|x| below 2^511 keeps every window sum of x and of x^2 of an
# n-cell window, and the square of every window sum of x, finite
_SUM_LIMIT_EXP = 511


def _sum_shift(x: np.ndarray, area: int) -> int:
    """The exponent k <= 0 for which area * max|x * 2^k| < 2^511: 0 when `x`
    is already below that bound, or holds a NaN or inf for the caller's
    validation to reject.  The pools, the variance ratio and its gradient
    share this one bound.  Scaling by 2^k is exact, so a caller that scales
    its input and its result back keeps the bits of every normal cell."""
    peak = max(float(x.max()), -float(x.min()))
    if not (math.isfinite(peak) and area * peak >= 2.0 ** _SUM_LIMIT_EXP):
        return 0
    return _SUM_LIMIT_EXP - math.frexp(peak)[1] - math.frexp(area)[1]


def pool_sum(x: np.ndarray, spec: PoolSpec) -> np.ndarray:
    """Windowed sum; padded cells contribute 0."""
    return _pool(as_feature_map(x), spec, 0.0, np.add)


def pool_avg(x: np.ndarray, spec: PoolSpec) -> np.ndarray:
    """Windowed mean; the divisor is always the full kernel area.  A map
    whose window sums could overflow is pooled scaled by an exact power of
    two (`_sum_shift`) and the means scaled back."""
    x = np.asarray(x, dtype=np.float64)
    _check_nchw(x.shape, "x")  # pool_sum checks the values
    shift = _sum_shift(x, spec.area)
    return np.ldexp(pool_sum(np.ldexp(x, shift), spec) / spec.area, -shift)


def pool_max(x: np.ndarray, spec: PoolSpec) -> np.ndarray:
    """Windowed maximum over the dilated window positions."""
    return _pool(as_feature_map(x), spec, -np.inf, np.maximum)


def pool_min(x: np.ndarray, spec: PoolSpec) -> np.ndarray:
    """Windowed minimum over the dilated window positions."""
    return _pool(as_feature_map(x), spec, np.inf, np.minimum)


def pool_l2(x: np.ndarray, spec: PoolSpec) -> np.ndarray:
    """Root-mean-square over each window (power-average pooling, p=2), with
    `pool_avg`'s rescale when the squares could overflow."""
    x = as_feature_map(x)
    shift = _sum_shift(x, spec.area)
    x = np.ldexp(x, shift)
    x *= x
    return np.ldexp(np.sqrt(_pool(x, spec, 0.0, np.add) / spec.area), -shift)


def _resample_axis(in_size: int, out_size: int):
    """Half-pixel-center source indices and weights for one axis."""
    scale = in_size / out_size
    src = (np.arange(out_size) + 0.5) * scale - 0.5
    src = np.clip(src, 0.0, in_size - 1.0)
    lo = np.floor(src).astype(np.intp)
    hi = np.minimum(lo + 1, in_size - 1)
    frac = src - lo
    return lo, hi, frac


def _lerp(lo: np.ndarray, hi: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """lo * (1 - frac) + hi * frac, where a zero `frac` (`1 - frac` never is)
    gives an infinite `hi` the term 0, not NaN; finite maps keep their bits."""
    with np.errstate(invalid="ignore"):
        far = hi * frac
    far[np.isnan(far)] = 0.0  # inf * 0: no NaN reaches here
    return lo * (1.0 - frac) + far


def upsample_bilinear(x: np.ndarray, target_h: int, target_w: int) -> np.ndarray:
    """Bilinear resampling with half-pixel centers (align-corners false).

    On a constant input the result is the same constant; resampling to the
    input's own size returns the values unchanged.  An inf cell reaches only
    the cells that weigh on it; one that weighs on +inf and -inf is NaN.
    """
    x = _as_planes(x, "x")
    if target_h < 1 or target_w < 1:
        raise ShapeMismatchError("target dims must be >= 1")
    i0, i1, fi = _resample_axis(x.shape[2], target_h)
    j0, j1, fj = _resample_axis(x.shape[3], target_w)
    rows = _lerp(x[:, :, i0, :], x[:, :, i1, :], fi[None, None, :, None])
    return _lerp(rows[:, :, :, j0], rows[:, :, :, j1], fj[None, None, None, :])


@dataclass
class GroupedMixWeights:
    """Per-channel linear combination of S stacked scale-planes.

    `weights` has shape (C, S) and `bias` shape (C,): one independent
    S-to-1 linear map per channel, so the learnable parameter count is
    exactly C*S + C.
    """

    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        self.weights = np.ascontiguousarray(self.weights, dtype=np.float64)
        self.bias = np.ascontiguousarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or 0 in self.weights.shape:
            raise ShapeMismatchError("weights must have shape (C, S), C, S >= 1")
        if self.bias.shape != (self.weights.shape[0],):
            raise ShapeMismatchError("bias must have shape (C,)")

    @classmethod
    def uniform(cls, channels: int, scales: int) -> "GroupedMixWeights":
        """Untrained default: average across scales (weights 1/S, bias 0)."""
        return cls(np.full((channels, scales), 1.0 / scales), np.zeros(channels))

    @property
    def channels(self) -> int:
        return self.weights.shape[0]

    @property
    def scales(self) -> int:
        return self.weights.shape[1]

    def param_count(self) -> int:
        return self.weights.size + self.bias.size


def mix_scales(stacked: np.ndarray, mix: GroupedMixWeights) -> np.ndarray:
    """Reduce C*S scale-planes back to C channels.

    `stacked` carries channel c's S planes contiguously at indices
    c*S .. c*S+S-1; output channel c is their mix-weighted sum plus bias,
    accumulated from +0.0 in scale order, so each output cell depends only
    on its own S products whatever the map's size.  Planes may hold the
    +-inf a lacunarity operator documents, but no NaN.
    """
    stacked = _as_planes(stacked, "stacked")
    c, s = mix.channels, mix.scales
    if stacked.shape[1] != c * s:
        raise ShapeMismatchError(
            f"expected {c * s} channels (C={c} groups of S={s}), got {stacked.shape[1]}"
        )
    n, _, h, w = stacked.shape
    grouped = stacked.reshape(n, c, s, h, w)
    out = np.zeros((n, c, h, w))
    for k in range(s):
        out += grouped[:, :, k] * mix.weights[None, :, k, None, None]
    out += mix.bias[None, :, None, None]
    return out


def gap(x: np.ndarray) -> np.ndarray:
    """Global average pool: (N, C, H, W) -> (N, C, 1, 1)."""
    shape = np.shape(x)
    _check_nchw(shape, "x")  # pool_sum checks the values
    return pool_avg(x, PoolSpec.global_window(shape[2], shape[3]))
