"""Lacunarity pooling operators.

Three ways to turn a feature map into a gappiness measure:

* gliding-box lacunarity: per-window variance over squared mean, computed
  from two sum-pooling passes;
* box-counting lacunarity: stacked fixed-height boxes between the window's
  gray-level extremes, evaluated at several dilation factors and mixed back
  to the input channel count;
* multi-scale lacunarity: the gliding-box form applied to every level of a
  Gaussian pyramid, upsampled to a common resolution and mixed per channel.

Inputs are optionally squashed to pixel range first (:func:`tanh_scale`) so
feature values of any magnitude land in (0, 255).

Each operator allocates only its own output and a few working maps: it never
writes into its arguments, and arithmetic on an array it allocated runs in
place, in the order the formula gives.  The box-counting planes are written
straight into one preallocated stack.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .tensor import (
    GroupedMixWeights,
    PoolSpec,
    _window_cells,
    as_feature_map,
    mix_scales,
    pool_max,
    pool_min,
    pool_sum,
    upsample_bilinear,
)


class PyramidDepthError(ValueError):
    """Requested more pyramid levels than the spatial dims can support."""


METHODS = ("base", "dbc", "multiscale")

# box-counting window when none is configured: its second stage glides over
# the heights map, so one global window would leave nothing to glide over
DBC_DEFAULT_WINDOW = PoolSpec.square(3, stride=1)


@dataclass(frozen=True)
class LacunarityConfig:
    """Method selector plus the knobs shared by the operators.

    `window=None` picks the method's default window (`resolve_window`): a
    3x3 stride-1 window for the box-counting method, which needs maps of at
    least 3x3; otherwise one window covering the whole spatial extent of
    whatever map the operator is applied to (for the multi-scale method, of
    each pyramid level).  `dilation_set` only matters for the box-counting
    method, `scales` only for the multi-scale one.  `normalize_input`
    controls the tanh squashing; the box-counting method requires it since
    its box heights are defined on the 0..255 range.
    """

    method: str = "base"
    window: PoolSpec | None = None
    epsilon: float = 1e-6
    dilation_set: tuple[int, ...] = (1, 2, 3)
    scales: int = 2
    normalize_input: bool = True
    clamp_heights: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be > 0")
        if self.method == "dbc":
            if len(self.dilation_set) == 0:
                raise ValueError("dilation_set must be nonempty")
            if list(self.dilation_set) != sorted(set(self.dilation_set)):
                raise ValueError("dilation_set must be strictly increasing")
            if min(self.dilation_set) < 1:
                raise ValueError("dilation factors must be >= 1")
            if not self.normalize_input:
                raise ValueError("the dbc method requires normalize_input=True")
        if self.scales < 1:
            raise ValueError("scales must be >= 1")

    @property
    def scale_count(self) -> int:
        """Scale planes per channel: pyramid levels, dilations, or 1 for base."""
        return {"base": 1, "dbc": len(self.dilation_set),
                "multiscale": self.scales}[self.method]

    def resolve_window(self, x: np.ndarray) -> PoolSpec:
        """The configured window, else the method's default for map `x`."""
        if self.window is not None:
            return self.window
        if self.method == "dbc":
            return DBC_DEFAULT_WINDOW
        return PoolSpec.global_window(x.shape[2], x.shape[3])


def tanh_scale(x: np.ndarray) -> np.ndarray:
    """Squash any real input into (0, 255): ((tanh(x) + 1) / 2) * 255."""
    out = np.tanh(as_feature_map(x))
    out += 1.0
    out *= 255.0 / 2.0
    return out


# n * max|x| below this keeps every window sum of x^2, and the square of
# every window sum of x, finite
_SUM_LIMIT_EXP = 511
_SUM_LIMIT = 2.0 ** _SUM_LIMIT_EXP


def variance_ratio(x: np.ndarray, spec: PoolSpec, epsilon: float) -> np.ndarray:
    """Per-window variance-to-squared-mean ratio, clamped to be nonnegative.

    For a window of n cells this is n * sum(x^2) / (sum(x)^2 + epsilon) - 1,
    which equals the population variance over the squared mean up to the
    epsilon guard.  An all-zero window lands at -1 and is clamped to 0.

    Inputs so large that n * max|x| reaches 2^511 would overflow the squared
    sums; they are first scaled by an exact power of two (and epsilon by its
    square, kept above zero) so the ratio comes out finite.
    """
    x = as_feature_map(x)
    peak = max(float(x.max()), -float(x.min()))
    if spec.area * peak >= _SUM_LIMIT:
        shift = _SUM_LIMIT_EXP - math.frexp(peak)[1] - math.frexp(spec.area)[1]
        x = np.ldexp(x, shift)
        epsilon = max(math.ldexp(epsilon, 2 * shift), math.ulp(0.0))
    return _ratio_from_sums(spec.area, pool_sum(x, spec), pool_sum(x * x, spec),
                            epsilon)


def _ratio_from_sums(area, s1, s2, epsilon):
    """n * s2 / (s1^2 + epsilon) - 1, clamped at 0, from window sums of x, x^2."""
    # a huge unnormalised input overflows to the documented +inf
    with np.errstate(over="ignore"):
        return np.maximum(area * s2 / (s1 * s1 + epsilon) - 1.0, 0.0)


def base_lacunarity(x: np.ndarray, cfg: LacunarityConfig) -> np.ndarray:
    """Gliding-box lacunarity of each window."""
    if cfg.method != "base":
        raise ValueError(f"config method is {cfg.method!r}, expected 'base'")
    x = as_feature_map(x)
    if cfg.normalize_input:
        x = tanh_scale(x)
    return variance_ratio(x, cfg.resolve_window(x), cfg.epsilon)


@dataclass
class DbcStats:
    """Box-counting intermediates for one dilation factor.

    `heights` holds the per-position relative column heights v - u - 1 (v, u
    the box indices of the window max and min), `mass` their window sums and
    `occupancy` their window averages, so mass == kernel_area * occupancy.
    """

    heights: np.ndarray
    mass: np.ndarray
    occupancy: np.ndarray


def box_index(g: np.ndarray, r: int) -> np.ndarray:
    """Index of the height-r box containing gray level g, counted from 1."""
    index = np.divide(g, r, out=np.empty(np.shape(g)))
    np.floor(index, out=index)
    index += 1.0
    return index


def dbc_column_heights(x: np.ndarray, r: int, window: PoolSpec,
                       clamp_heights: bool = False) -> DbcStats:
    """Stack height-r boxes over each window and measure the column span.

    `x` must already be scaled into [0, 255].  The extremes are taken with
    dilation-r max/min pooling padded so the heights map keeps the dims the
    dilation-1 case would give (padding cells are identity values for
    max/min and never touch the statistics); this keeps the per-dilation
    lacunarity planes stackable.  Kernel dims must be odd for that padding
    to be symmetric.  The masses and occupancies then come from unpadded
    sum pooling of the heights with the same kernel and stride, the
    occupancies being the masses over the kernel area.
    """
    if r < 1:
        raise ValueError("dilation factor r must be >= 1")
    if window.kernel_h != window.kernel_w:
        raise ValueError("box-counting windows must be square")
    if window.kernel_h % 2 == 0:
        raise ValueError("box-counting windows must have odd kernel dims")
    x = as_feature_map(x)
    extremes_spec = PoolSpec(
        window.kernel_h, window.kernel_w, window.stride_h, window.stride_w,
        dilation=r, padding=r * (window.kernel_h - 1) // 2,
    )
    heights = box_index(pool_max(x, extremes_spec), r)
    heights -= box_index(pool_min(x, extremes_spec), r)
    heights -= 1.0
    if clamp_heights:
        np.maximum(heights, 1.0, out=heights)
    glide_spec = PoolSpec(window.kernel_h, window.kernel_w,
                          window.stride_h, window.stride_w)
    mass = pool_sum(heights, glide_spec)
    return DbcStats(heights=heights, mass=mass, occupancy=mass / glide_spec.area)


def dbc_plane(stats: DbcStats, epsilon: float,
              out: np.ndarray | None = None) -> np.ndarray:
    """Lacunarity plane for one dilation: mass^2 * occ / (mass * occ + eps)^2,
    written into `out` when given."""
    m, q = stats.mass, stats.occupancy
    den = m * q
    den += epsilon
    np.square(den, out=den)
    out = np.multiply(m, m, out=out)
    out *= q
    out /= den
    return out


def dbc_scale_planes(x: np.ndarray, cfg: LacunarityConfig) -> np.ndarray:
    """Stacked per-dilation lacunarity planes, channel-major.

    Output has C * len(dilation_set) channels; channel c's planes sit at
    indices c*R .. c*R+R-1 in dilation order.  Input is tanh-scaled here.
    """
    if cfg.method != "dbc":
        raise ValueError(f"config method is {cfg.method!r}, expected 'dbc'")
    x = tanh_scale(x)
    window = cfg.resolve_window(x)
    stacked = None  # (N, C, R, H', W'), sized by the first dilation's masses
    for i, r in enumerate(cfg.dilation_set):
        stats = dbc_column_heights(x, r, window, cfg.clamp_heights)
        stats.heights = None  # the plane needs only masses and occupancies
        if stacked is None:
            n, c, h, w = stats.mass.shape
            stacked = np.empty((n, c, len(cfg.dilation_set), h, w))
        dbc_plane(stats, cfg.epsilon, out=stacked[:, :, i])
        del stats  # before the next dilation's heights are built
    return stacked.reshape(stacked.shape[0], -1, *stacked.shape[3:])


def dbc_lacunarity(x: np.ndarray, cfg: LacunarityConfig,
                   mix: GroupedMixWeights | None = None) -> np.ndarray:
    """Box-counting lacunarity mixed back to the input channel count.

    With `mix=None` the dilations are averaged (weights 1/R, zero bias),
    which for a single dilation factor is the identity mix.
    """
    return _mixed(dbc_scale_planes(x, cfg), cfg, mix)


_BLUR_TAPS = np.outer([1.0, 4.0, 6.0, 4.0, 1.0], [1.0, 4.0, 6.0, 4.0, 1.0]) / 256.0
_BLUR_SPEC = PoolSpec.square(5, stride=1)


@functools.lru_cache
def _reflect_index(n: int) -> np.ndarray:
    """Source index of each cell of an n-cell axis reflect-padded by 2.

    Cached per n and read-only, so every caller shares one array."""
    index = np.pad(np.arange(n), 2, mode="reflect")
    index.setflags(write=False)
    return index


def blur_binomial5(x: np.ndarray) -> np.ndarray:
    """5x5 binomial blur under reflect padding (mirror without the edge)."""
    x = as_feature_map(x)
    xp = x[:, :, _reflect_index(x.shape[2])[:, None], _reflect_index(x.shape[3])]
    out = np.zeros_like(x)
    for tap, cells in zip(_BLUR_TAPS.flat, _window_cells(_BLUR_SPEC, *x.shape[2:])):
        out += tap * xp[cells]
    return out


def gaussian_pyramid(x: np.ndarray, levels: int) -> list[np.ndarray]:
    """Recursive blur-then-decimate pyramid; level 1 is the input itself.

    Each coarser level keeps the even-indexed rows/columns of the blurred
    finer level, so an n-cell axis shrinks to (n + 1) // 2 cells.  Raises
    PyramidDepthError when the requested depth would need more halvings
    than the input supports (dims must be >= 2**(levels - 1)).
    """
    x = as_feature_map(x)
    if levels < 1:
        raise PyramidDepthError("levels must be >= 1")
    if min(x.shape[2], x.shape[3]) < 2 ** (levels - 1):
        raise PyramidDepthError(
            f"{x.shape[2]}x{x.shape[3]} input cannot support {levels} pyramid levels"
        )
    out = [x]
    for _ in range(levels - 1):
        out.append(blur_binomial5(out[-1])[:, :, ::2, ::2])
    return out


def _multiscale_pass(xs: np.ndarray, cfg: LacunarityConfig):
    """Pyramid levels of the squashed input `xs`, their windows, their ratio
    maps and the maps upsampled and stacked channel-major (N, C*S, H', W')."""
    levels = gaussian_pyramid(xs, cfg.scales)
    specs = [cfg.resolve_window(lv) for lv in levels]
    maps = [variance_ratio(lv, sp, cfg.epsilon) for lv, sp in zip(levels, specs)]
    th, tw = maps[0].shape[2:]
    ups = [m if m.shape[2:] == (th, tw) else upsample_bilinear(m, th, tw)
           for m in maps]
    stacked = np.stack(ups, axis=2).reshape(xs.shape[0], -1, th, tw)
    return levels, specs, maps, stacked


def multiscale_scale_planes(x: np.ndarray, cfg: LacunarityConfig) -> np.ndarray:
    """Per-level lacunarity planes at a common resolution, channel-major.

    The input is squashed once (before the pyramid) when normalization is
    on; each pyramid level then gets the gliding-box operator with the
    configured window, and every coarser level's map is upsampled to the
    finest level's map size before stacking.
    """
    if cfg.method != "multiscale":
        raise ValueError(f"config method is {cfg.method!r}, expected 'multiscale'")
    x = as_feature_map(x)
    if cfg.normalize_input:
        x = tanh_scale(x)
    return _multiscale_pass(x, cfg)[3]


def multiscale_lacunarity(x: np.ndarray, cfg: LacunarityConfig,
                          mix: GroupedMixWeights | None = None) -> np.ndarray:
    """Multi-scale lacunarity: pyramid, per-level gliding box, upsample, mix
    (`mix=None` averages the levels: weights 1/S, zero bias)."""
    return _mixed(multiscale_scale_planes(x, cfg), cfg, mix)


def _mixed(planes: np.ndarray, cfg: LacunarityConfig,
           mix: GroupedMixWeights | None) -> np.ndarray:
    """C*S channel-major planes mixed to C channels; `mix` must be (C, S)."""
    s = cfg.scale_count
    c = planes.shape[1] // s
    if mix is None:
        mix = GroupedMixWeights.uniform(c, s)
    if (mix.channels, mix.scales) != (c, s):
        raise ValueError(f"mix sized ({mix.channels}, {mix.scales}), need C={c}, S={s}")
    return mix_scales(planes, mix)


def scale_planes(x: np.ndarray, cfg: LacunarityConfig) -> np.ndarray:
    """`cfg.method`'s (N, C*S, H', W') planes, S = cfg.scale_count: the one
    method dispatch.  The table is built per call, so a wrapped or patched
    operator is the one that runs."""
    return {"base": base_lacunarity, "dbc": dbc_scale_planes,
            "multiscale": multiscale_scale_planes}[cfg.method](x, cfg)
