"""Lacunarity pooling operators, and the one table of pooling methods.

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

:func:`scale_planes` is the only code that turns a method name into planes,
for these three methods and the avg/max/l2 pooling baselines.

Each operator allocates only its own output and a few working maps: it never
writes into its arguments, and arithmetic on an array it allocated runs in
place, in the order the formula gives.  The box-counting planes are written
straight into one preallocated stack, and the pyramid blurs only the cells
its coarser level keeps.  :func:`heatmap` builds a gliding window's mixed
map in row strips, each from its own slab of input rows, so its working set
follows the strip rather than the map; every cell keeps the one-pass bits.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .tensor import (
    GroupedMixWeights,
    PoolSpec,
    _sum_shift,
    _window_cells,
    as_feature_map,
    mix_scales,
    pool_avg,
    pool_l2,
    pool_max,
    pool_min,
    pool_sum,
    upsample_bilinear,
)


class PyramidDepthError(ValueError):
    """Requested more pyramid levels than the spatial dims can support."""


BASELINE_POOLS = ("avg", "max", "l2")
METHODS = ("base", "dbc", "multiscale") + BASELINE_POOLS

# box-counting window when none is configured: its second stage glides over
# the heights map, so one global window would leave nothing to glide over
DBC_DEFAULT_WINDOW = PoolSpec.square(3, stride=1)


@dataclass(frozen=True)
class LacunarityConfig:
    """Pooling method selector plus the knobs shared by the operators.

    `window=None` picks the method's default window (`resolve_window`): a
    3x3 stride-1 window for the box-counting method, which needs maps of at
    least 3x3; otherwise one window covering the whole spatial extent of
    whatever map the operator is applied to (for the multi-scale method, of
    each pyramid level).  `dilation_set` and `clamp_heights` only matter for
    the box-counting method, `scales` only for the multi-scale one, but
    `dilation_set` and `scales` are checked whatever the method.
    `normalize_input` controls the tanh squashing; the box-counting method
    requires it since its box heights are defined on the 0..255 range.  The
    avg/max/l2 baselines read the window alone and never squash.
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
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be finite and > 0")
        if len(self.dilation_set) == 0:
            raise ValueError("dilation_set must be nonempty")
        if list(self.dilation_set) != sorted(set(self.dilation_set)):
            raise ValueError("dilation_set must be strictly increasing")
        if min(self.dilation_set) < 1:
            raise ValueError("dilation factors must be >= 1")
        if self.method == "dbc" and not self.normalize_input:
            raise ValueError("the dbc method requires normalize_input=True")
        if self.scales < 1:
            raise ValueError("scales must be >= 1")

    @property
    def scale_count(self) -> int:
        """Scale planes per channel: pyramid levels, dilations, else 1."""
        return {"dbc": len(self.dilation_set),
                "multiscale": self.scales}.get(self.method, 1)

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
    x, epsilon, _ = _scaled_for_sums(x, spec.area, epsilon)
    return _ratio_from_sums(spec.area, pool_sum(x, spec), pool_sum(x * x, spec),
                            epsilon)


def _scaled_for_sums(x: np.ndarray, area: int, epsilon: float):
    """`x` times 2^k and `epsilon` times 2^2k (kept above 0), and k, for
    `_sum_shift`'s k: the ratio of every `area`-cell window is unchanged,
    and below the bound (k = 0) so are the arrays."""
    shift = _sum_shift(x, area)
    if shift:
        x = np.ldexp(x, shift)
        epsilon = max(math.ldexp(epsilon, 2 * shift), math.ulp(0.0))
    return x, epsilon, shift


def _ratio_from_sums(area, s1, s2, epsilon):
    """n * s2 / (s1^2 + epsilon) - 1, clamped at 0, from window sums of x, x^2."""
    # a huge unnormalised input overflows to the documented +inf
    with np.errstate(over="ignore"):
        return np.maximum(area * s2 / (s1 * s1 + epsilon) - 1.0, 0.0)


def _expect_method(cfg: LacunarityConfig, method: str) -> None:
    """Raise ValueError unless `cfg` selects `method`."""
    if cfg.method != method:
        raise ValueError(f"config method is {cfg.method!r}, expected {method!r}")


def base_lacunarity(x: np.ndarray, cfg: LacunarityConfig) -> np.ndarray:
    """Gliding-box lacunarity of each window."""
    _expect_method(cfg, "base")
    x = as_feature_map(x)
    if cfg.normalize_input:
        x = tanh_scale(x)
    return variance_ratio(x, cfg.resolve_window(x), cfg.epsilon)


def _dbc_specs(window: PoolSpec, r: int) -> tuple[PoolSpec, PoolSpec]:
    """The dilation-r extremes pool and the glide pool over its heights."""
    extremes = PoolSpec(window.kernel_h, window.kernel_w,
                        window.stride_h, window.stride_w,
                        dilation=r, padding=r * (window.kernel_h - 1) // 2)
    glide = PoolSpec(window.kernel_h, window.kernel_w,
                     window.stride_h, window.stride_w)
    return extremes, glide


def box_index(g: np.ndarray, r: int) -> np.ndarray:
    """Index of the height-r box containing gray level g, counted from 1."""
    index = np.divide(g, r, out=np.empty(np.shape(g)))
    np.floor(index, out=index)
    index += 1.0
    return index


def dbc_column_heights(x: np.ndarray, r: int, window: PoolSpec,
                       clamp_heights: bool = False) -> np.ndarray:
    """Stack height-r boxes over each window and measure the column span.

    Returns the per-position relative column heights v - u - 1 (v, u the
    box indices of the window max and min).  `x` must already be scaled
    into [0, 255].  The extremes are taken with dilation-r max/min pooling
    padded so the heights map keeps the dims the dilation-1 case would give
    (padding cells are identity values for max/min and never touch the
    statistics); this keeps the per-dilation lacunarity planes stackable.
    Kernel dims must be odd for that padding to be symmetric.
    """
    if r < 1:
        raise ValueError("dilation factor r must be >= 1")
    if window.kernel_h != window.kernel_w:
        raise ValueError("box-counting windows must be square")
    if window.kernel_h % 2 == 0:
        raise ValueError("box-counting windows must have odd kernel dims")
    x = as_feature_map(x)
    extremes_spec, _ = _dbc_specs(window, r)
    heights = box_index(pool_max(x, extremes_spec), r)
    heights -= box_index(pool_min(x, extremes_spec), r)
    heights -= 1.0
    if clamp_heights:
        np.maximum(heights, 1.0, out=heights)
    return heights


def dbc_plane(mass: np.ndarray, area: int, epsilon: float,
              out: np.ndarray | None = None) -> np.ndarray:
    """Lacunarity plane for one dilation from `mass`, the heights' sums over
    windows of `area` cells: mass^2 * occ / (mass * occ + eps)^2 with the
    occupancy occ = mass / area, written into `out` when given."""
    q = mass / area
    den = mass * q
    den += epsilon
    np.square(den, out=den)
    out = np.multiply(mass, mass, out=out)
    out *= q
    out /= den
    return out


def dbc_scale_planes(x: np.ndarray, cfg: LacunarityConfig) -> np.ndarray:
    """Stacked per-dilation lacunarity planes, channel-major.

    Output has C * len(dilation_set) channels; channel c's planes sit at
    indices c*R .. c*R+R-1 in dilation order.  Input is tanh-scaled here.
    Each dilation's masses are the unpadded sum pooling of its heights with
    the window's kernel and stride.
    """
    _expect_method(cfg, "dbc")
    x = tanh_scale(x)
    window = cfg.resolve_window(x)
    stacked = None  # (N, C, R, H', W'), sized by the first dilation's masses
    for i, r in enumerate(cfg.dilation_set):
        _, glide = _dbc_specs(window, r)
        mass = pool_sum(dbc_column_heights(x, r, window, cfg.clamp_heights), glide)
        if stacked is None:
            n, c, h, w = mass.shape
            stacked = np.empty((n, c, len(cfg.dilation_set), h, w))
        dbc_plane(mass, glide.area, cfg.epsilon, out=stacked[:, :, i])
        del mass  # before the next dilation's heights are built
    return stacked.reshape(stacked.shape[0], -1, *stacked.shape[3:])


def dbc_lacunarity(x: np.ndarray, cfg: LacunarityConfig,
                   mix: GroupedMixWeights | None = None) -> np.ndarray:
    """Box-counting lacunarity mixed back to the input channel count.

    With `mix=None` the dilations are averaged (weights 1/R, zero bias),
    which for a single dilation factor is the identity mix.
    """
    return _mixed(dbc_scale_planes(x, cfg), cfg, mix)


_BLUR_TAPS = np.outer([1.0, 4.0, 6.0, 4.0, 1.0], [1.0, 4.0, 6.0, 4.0, 1.0]) / 256.0


@functools.lru_cache
def _reflect_index(n: int) -> np.ndarray:
    """Source index of each cell of an n-cell axis reflect-padded by 2.

    Cached per n and read-only, so every caller shares one array."""
    index = np.pad(np.arange(n), 2, mode="reflect")
    index.setflags(write=False)
    return index


def blur_binomial5(x: np.ndarray) -> np.ndarray:
    """5x5 binomial blur under reflect padding (mirror without the edge)."""
    return _blur_binomial5(as_feature_map(x), 1)


def _blur_binomial5(x: np.ndarray, stride: int) -> np.ndarray:
    """The blur at every `stride`-th row and column from the first: the taps
    walk the padded map at that stride, so only the kept cells are summed,
    each in the same tap order as the full blur."""
    h, w = x.shape[2:]
    xp = x[:, :, _reflect_index(h)[:, None], _reflect_index(w)]
    spec = PoolSpec.square(5, stride=stride)
    out_h, out_w = spec.out_size(h + 4, w + 4)
    out = np.zeros((x.shape[0], x.shape[1], out_h, out_w))
    for tap, cells in zip(_BLUR_TAPS.flat, _window_cells(spec, out_h, out_w)):
        out += tap * xp[cells]
    return out


def gaussian_pyramid(x: np.ndarray, levels: int) -> list[np.ndarray]:
    """Recursive blur-then-decimate pyramid; level 1 is the input itself.

    Each coarser level keeps the even-indexed rows/columns of the blurred
    finer level, so an n-cell axis shrinks to (n + 1) // 2 cells.  As in
    Burt & Adelson's REDUCE, the blur is evaluated at those cells only (its
    taps stride 2 over the padded level), which gives the same bits as
    `blur_binomial5(level)[:, :, ::2, ::2]` at a quarter of the work.
    Raises PyramidDepthError when the requested depth would need more
    halvings than the input supports (dims must be >= 2**(levels - 1)).
    """
    x = as_feature_map(x)
    if levels < 1:
        raise PyramidDepthError("levels must be >= 1")
    if min(x.shape[2:]) < 2 ** (levels - 1):
        raise PyramidDepthError(
            f"{x.shape[2]}x{x.shape[3]} input cannot support {levels} pyramid levels")
    out = [x]
    for _ in range(levels - 1):
        out.append(_blur_binomial5(out[-1], 2))
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
    _expect_method(cfg, "multiscale")
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
    """C*S channel-major planes mixed to C channels by `_checked_mix`'s mix."""
    return mix_scales(planes, _checked_mix(planes, cfg, mix))


def _checked_mix(planes: np.ndarray, cfg: LacunarityConfig,
                 mix: GroupedMixWeights | None) -> GroupedMixWeights:
    """`mix`, else the uniform mix, for C*S channel-major `planes`; raises
    ValueError unless it is (C, S)."""
    s = cfg.scale_count
    c = planes.shape[1] // s
    mix = mix or GroupedMixWeights.uniform(c, s)
    if (mix.channels, mix.scales) != (c, s):
        raise ValueError(f"mix sized ({mix.channels}, {mix.scales}), need C={c}, S={s}")
    return mix


def scale_planes(x: np.ndarray, cfg: LacunarityConfig) -> np.ndarray:
    """`cfg.method`'s (N, C*S, H', W') planes, S = cfg.scale_count: the one
    method dispatch.  A baseline pools the raw map over `resolve_window`,
    the whole map unless a window is set.  The tables are built per call,
    so a wrapped or patched operator or pool is the one that runs."""
    pools = {"avg": pool_avg, "max": pool_max, "l2": pool_l2}
    if cfg.method in pools:
        return pools[cfg.method](x, cfg.resolve_window(x))
    return {"base": base_lacunarity, "dbc": dbc_scale_planes,
            "multiscale": multiscale_scale_planes}[cfg.method](x, cfg)


# input cells (all samples and channels) one strip of `heatmap` advances over:
# 64 rows of a 512-pixel-wide map, 16 of a 2048-pixel one
_STRIP_CELLS = 32 * 1024


def heatmap(x: np.ndarray, cfg: LacunarityConfig) -> np.ndarray:
    """`cfg.method`'s planes mixed uniformly to C channels, built in row
    strips: the same bits as `mix_scales(scale_planes(x, cfg),
    GroupedMixWeights.uniform(C, cfg.scale_count))`.

    When each output row reads a bounded band of input rows (gliding `base`
    and `dbc` windows), each strip of output rows runs the method on its
    slab of input rows only, halo included, and is mixed into the one output
    map; a strip advances over about `_STRIP_CELLS` input cells.  Global
    windows, unsquashed base maps and the multi-scale method (whose
    upsampling ties every row to the whole map's size) run as one strip.
    """
    x = as_feature_map(x)
    chain = _strip_chain(x, cfg)
    if not chain:
        return _mixed(scale_planes(x, cfg), cfg, None)
    n, c, h, w = x.shape
    out_h, out_w = h, w
    for spec in chain:
        out_h, out_w = spec.out_size(out_h, out_w)
    step = math.prod(spec.stride_h for spec in chain)
    rows = max(1, _STRIP_CELLS // (n * c * w * step))
    out = np.empty((n, c, out_h, out_w))
    for lo in range(0, out_h, rows):
        hi = min(lo + rows, out_h)
        a, b = _source_rows(chain, lo, hi, h)
        planes = scale_planes(x[:, :, a:b], cfg)
        first = lo - a // step  # the slab's output row that is row `lo`
        out[:, :, lo:hi] = _mixed(planes[:, :, first:first + hi - lo], cfg, None)
    return out


def _strip_chain(x: np.ndarray, cfg: LacunarityConfig) -> tuple[PoolSpec, ...]:
    """The pools that take an input row to an output row, input side first,
    if the rows of `cfg.method`'s output on `x` can be built in strips;
    else ()."""
    window = cfg.resolve_window(x)
    if cfg.method == "dbc":
        # every dilation strides alike; the widest reaches the most rows
        return _dbc_specs(window, max(cfg.dilation_set))
    # variance_ratio's rescale reads the whole map's peak, and a squashed
    # map (at most 255) never reaches it
    if cfg.method == "base" and cfg.window is not None and cfg.normalize_input:
        return (window,)
    return ()


def _source_rows(chain: tuple[PoolSpec, ...], lo: int, hi: int,
                 h: int) -> tuple[int, int]:
    """Input rows [a, b) of an h-row map from which `chain` gives output rows
    [lo, hi) unchanged.

    Output rows [lo, hi) read no map row outside [a, b), so where their
    windows reach past the slab they reach past the map too, and the slab's
    padding stands in for the map's.  `a` is rounded down to a multiple of
    the chain's total row stride, which puts the slab's windows on the map's
    window grid: the slab's output row j is the map's row j + a // stride."""
    step = 1
    for spec in reversed(chain):
        lo = lo * spec.stride_h - spec.padding
        hi = (hi - 1) * spec.stride_h - spec.padding + spec.effective_extent()[0]
        step *= spec.stride_h
    return max(0, lo) // step * step, min(h, hi)
