"""Analytic backward passes and a central-finite-difference verifier.

Every operator that sits on a trainable path gets a hand-written
vector-Jacobian product, dispatched through :func:`backward` and its
``BACKWARD`` table; the `fusion_head` and `cross_entropy` rows check the head
gradient and stacked loss every training step runs, on checked shapes and
labels.  :func:`finite_diff_check` verifies any of them
(plus the composed multi-scale operator end to end) against central
differences of a randomly projected scalar loss.

The rig knows each checked op through one record in a private table, from
which ``BACKWARD`` and ``CHECKED_OPS`` are derived: its forward and
backward, how the probed arrays become its argument tuple, how they are
drawn, its suite input and window cycle, and whether it acts by sample.  Its
input x is the one array stacked by sample: a probe of x copies only the
probed sample's row, its ±h copies are stacked along axis 0 with other
probes' copies, several per forward under a fixed byte budget, and each
copy's output is the base output with that row replaced.  The multiscale
record splits its forward into planes and mix, so a check builds the pyramid
planes once and every probe of a mix weight or bias re-runs only the mix.
The resulting reports equal a one-probe-at-a-time sweep's.  A non-finite
analytic gradient or numeric slope fails the check.  `probes` below 1, a
`tol` or `h` that is not positive and finite, and an empty seed list raise
ValueError.

Conventions: max-pooling routes gradient to the first maximal cell in
row-major window order; the lacunarity output clamp ``max(L, 0)`` uses
subgradient 0 where the clamp is active, and so does a window whose ratio
is +inf (its sum cancels to 0 under a tiny epsilon); a cell of a +-inf
plane adds 0 to its mix weight's gradient; the epsilon guards are
constants.  Each backward takes its forward's arguments and errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lacunarity import (
    _BLUR_TAPS,
    LacunarityConfig,
    _checked_mix,
    _mixed,
    _multiscale_pass,
    _ratio_terms,
    _reflect_index,
    _squashed,
    base_lacunarity,
    multiscale_lacunarity,
    multiscale_scale_planes,
    tanh_scale,
)
from .model import _checked_labels, _cross_entropy, _head, _head_grad
from .tensor import (
    GroupedMixWeights,
    PoolSpec,
    ShapeMismatchError,
    _feature_rows,
    _padded,
    _resample_axis,
    _window_cells,
    as_feature_map,
    gap,
    mix_scales,
    pool_avg,
    pool_max,
    pool_sum,
    upsample_bilinear,
)

Gradient = np.ndarray


class UnknownOpError(ValueError):
    """Asked to differentiate an op that has no registered backward."""


# ----------------------------------------------------------- adjoint helpers

def _expect(upstream: np.ndarray, shape: tuple) -> np.ndarray:
    upstream = np.asarray(upstream, dtype=np.float64)
    if upstream.shape != shape:
        raise ShapeMismatchError(
            f"upstream gradient has shape {upstream.shape}, forward output {shape}"
        )
    return upstream


def _scatter_pool(upstream: np.ndarray, spec: PoolSpec, h: int, w: int,
                  winner: np.ndarray | None = None) -> np.ndarray:
    """Adjoint of pool_sum: route each window value back to its member cells.

    With `winner`, offset k routes only to windows whose winner is k.
    """
    n, c, oh, ow = upstream.shape
    pad = spec.padding
    gxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad))
    for k, cells in enumerate(_window_cells(spec, oh, ow)):
        gxp[cells] += upstream if winner is None else upstream * (winner == k)
    return gxp[:, :, pad:pad + h, pad:pad + w]


def _winner_offsets(x: np.ndarray, spec: PoolSpec, best: np.ndarray) -> np.ndarray:
    """Row-major kernel offset of each window's first cell equal to `best`."""
    xp = _padded(x, spec.padding, -np.inf)
    winner = np.full(best.shape, -1, dtype=np.intp)
    for k, cells in enumerate(_window_cells(spec, *best.shape[2:])):
        winner[(winner < 0) & (xp[cells] == best)] = k
    return winner


# ------------------------------------------------------------- primitive vjps

def vjp_tanh_scale(upstream, x):
    x = as_feature_map(x)
    upstream = _expect(upstream, x.shape)
    t = np.tanh(x)
    return (upstream * (127.5 * (1.0 - t * t)),)


def vjp_pool_sum(upstream, x, spec):
    x = as_feature_map(x)
    upstream = _expect(upstream, (*x.shape[:2], *spec.out_size(x.shape[2], x.shape[3])))
    return (_scatter_pool(upstream, spec, x.shape[2], x.shape[3]),)


def vjp_pool_avg(upstream, x, spec):
    (g,) = vjp_pool_sum(upstream, x, spec)
    return (g / spec.area,)


def vjp_pool_max(upstream, x, spec):
    x = as_feature_map(x)
    best = pool_max(x, spec)
    upstream = _expect(upstream, best.shape)
    return (_scatter_pool(upstream, spec, x.shape[2], x.shape[3],
                          _winner_offsets(x, spec, best)),)


def _vjp_variance_ratio(upstream, xx, spec, epsilon):
    """Gradient of the clamped variance-to-squared-mean ratio of the checked
    map x in the first N rows of the (2N, C, H, W) buffer `xx`, which
    `_ratio_terms` takes; `upstream` must have the ratio's shape.

    The scaled input, window sums and ratio are `variance_ratio`'s own, and
    the gradient is scaled back.  The s1 term divides by the denominator
    twice, never by its square, so the forward's 2^511 bound serves here too
    and a tiny map with a tiny epsilon keeps a finite gradient.  The
    upstreams of both sums are stacked like the buffer, so one scatter walk
    routes both.
    """
    x, epsilon, shift, s1, s2, ratio = _ratio_terms(xx, spec, epsilon)
    upstream = _expect(upstream, ratio.shape)
    # a clamped window and one whose ratio is +inf contribute 0: an infinite
    # denominator zeroes both terms without overflowing either
    live = (ratio > 0.0) & (ratio < math.inf)
    denom = np.where(live, s1 * s1 + epsilon, math.inf)
    g = upstream * live
    n = len(x)
    d_sums = np.empty((2 * n, *g.shape[1:]))  # d_s1, then d_s2
    np.multiply(g, -2.0 * spec.area * (s2 / denom) * (s1 / denom), out=d_sums[:n])
    np.multiply(g, spec.area / denom, out=d_sums[n:])
    scattered = _scatter_pool(d_sums, spec, x.shape[2], x.shape[3])
    g = scattered[:n] + 2.0 * x * scattered[n:]
    return np.ldexp(g, shift) if shift else g


def vjp_base_lacunarity(upstream, x, cfg):
    xx = _squashed(x, cfg, "base", rows=2)
    g = _vjp_variance_ratio(upstream, xx, cfg.resolve_window(xx), cfg.epsilon)
    return vjp_tanh_scale(g, x) if cfg.normalize_input else (g,)


def vjp_mix_scales(upstream, stacked, mix):
    upstream = _expect(upstream, mix_scales(stacked, mix).shape)
    n, c, h, w = upstream.shape
    planes = np.ascontiguousarray(stacked, dtype=np.float64).reshape(n, c, -1, h, w)
    d_stacked = (upstream[:, :, None] * mix.weights[None, :, :, None, None])
    # a cell of a +-inf plane contributes 0, as a +inf window does in
    # _vjp_variance_ratio; np.einsum would sum inf * 0 or inf - inf to NaN
    d_weights = np.einsum("nchw,ncshw->cs", upstream,
                          np.where(np.isinf(planes), 0.0, planes))
    d_bias = upstream.sum(axis=(0, 2, 3))
    return (d_stacked.reshape(n, -1, h, w), d_weights, d_bias)


def vjp_gap(upstream, x):
    x = as_feature_map(x)
    upstream = _expect(upstream, (*x.shape[:2], 1, 1))
    return (np.broadcast_to(upstream, x.shape) / (x.shape[2] * x.shape[3]),)


def _agreeing(what: str, axes: str, *arrays) -> tuple:
    """`arrays`, if each has one non-empty axis per letter of its word in
    `axes` and each letter names one size throughout; else ShapeMismatchError."""
    sizes = {}
    for letters, a in zip(axes.split(), arrays, strict=True):
        if np.ndim(a) != len(letters) or any(sizes.setdefault(k, n) != n or not n
                                             for k, n in zip(letters, np.shape(a))):
            raise ShapeMismatchError(
                f"{what} got shapes {[np.shape(a) for a in arrays]}, not {axes}")
    return arrays


def _checked_head(*args):
    """`model._head` of pooled, GAP, classifier and mix arrays that agree."""
    return _head(*_agreeing("fusion head", "MNCS NC MKC MK MCS MC", *args))


def _checked_loss(logits, labels):
    """`model._cross_entropy` of (M, B, K) logits and (B,) class labels."""
    logits, labels = _agreeing("loss", "MBK B", np.asarray(logits, np.float64), labels)
    return _cross_entropy(logits, _checked_labels(labels, logits.shape[2]))


def vjp_fusion_head(upstream, pooled, gapped, classifier_w, *bias_and_mix):
    """Gradients of the head's four trainable arrays, the step training runs;
    the pooled and GAP vectors are frozen features and get none."""
    logits, fused = _checked_head(pooled, gapped, classifier_w, *bias_and_mix)
    upstream = _expect(upstream, logits.shape)
    return _head_grad(upstream, pooled, gapped, fused, classifier_w)


def vjp_cross_entropy(upstream, logits, labels):
    """Gradient of the heads' mean losses, the one training steps on."""
    losses, grad = _checked_loss(logits, labels)
    return (_expect(upstream, losses.shape)[:, None, None] * grad,)


def backward(op_id: str, inputs: tuple, upstream) -> tuple[Gradient, ...]:
    """Gradients of a projected loss w.r.t. an op's differentiable inputs.

    `inputs` is the op's forward argument tuple; the return tuple aligns
    with the differentiable arguments in order (weights and biases included
    where the op has them); `fusion_head` returns only the gradients of its
    four trainable arrays.
    """
    try:
        fn = BACKWARD[op_id]
    except KeyError:
        raise UnknownOpError(f"no backward registered for {op_id!r}") from None
    return fn(upstream, *inputs)


# ----------------------------------------------- composed multi-scale branch

def _blur_adjoint(g: np.ndarray, h: int, w: int, stride: int) -> np.ndarray:
    """Adjoint of `_blur_binomial5(x, stride)` on an h-by-w map: the same
    taps walk the same strided cells of the reflect-padded map."""
    n, c, out_h, out_w = g.shape
    gxp = np.zeros((n, c, h + 4, w + 4))
    spec = PoolSpec.square(5, stride=stride)
    for tap, cells in zip(_BLUR_TAPS.flat, _window_cells(spec, out_h, out_w)):
        gxp[cells] += tap * g
    # fold padding onto its source cells: rows, then columns, in padded order
    rows = np.zeros((n, c, h, w + 4))
    np.add.at(rows, (slice(None), slice(None), _reflect_index(h)), gxp)
    out = np.zeros((n, c, h, w))
    np.add.at(out, (slice(None), slice(None), slice(None), _reflect_index(w)), rows)
    return out


def vjp_upsample_bilinear(upstream, x, target_h, target_w):
    g = _expect(upstream, upsample_bilinear(x, target_h, target_w).shape)
    n, c, oh, ow = g.shape
    in_h, in_w = np.shape(x)[2:]
    i0, i1, fi = _resample_axis(in_h, oh)
    j0, j1, fj = _resample_axis(in_w, ow)
    d_rows = np.zeros((n, c, oh, in_w))
    np.add.at(d_rows, (slice(None), slice(None), slice(None), j0), g * (1.0 - fj))
    np.add.at(d_rows, (slice(None), slice(None), slice(None), j1), g * fj)
    dx = np.zeros((n, c, in_h, in_w))
    np.add.at(dx, (slice(None), slice(None), i0, slice(None)),
              d_rows * (1.0 - fi)[None, None, :, None])
    np.add.at(dx, (slice(None), slice(None), i1, slice(None)),
              d_rows * fi[None, None, :, None])
    return (dx,)


def vjp_multiscale_lacunarity(upstream, x, cfg, mix=None):
    """End-to-end gradient of the multi-scale operator: input, weights, bias.

    Chains the mix, the bilinear upsampling, the per-level variance ratios,
    the stride-2 blur pyramid steps (coarse to fine), and the input
    squashing; `mix=None` differentiates the forward's uniform mix.
    """
    levels, specs, maps, stacked = _multiscale_pass(
        _squashed(x, cfg, "multiscale", rows=2), cfg)
    mix = _checked_mix(stacked, cfg, mix)
    d_stacked, d_weights, d_bias = backward("mix_scales", (stacked, mix), upstream)
    d_ups = d_stacked.reshape(len(stacked), -1, cfg.scales, *stacked.shape[2:])
    carry = None  # the gradient at the next coarser level
    for k in range(cfg.scales - 1, -1, -1):
        g = d_ups[:, :, k]
        if maps[k].shape != g.shape:
            (g,) = backward("upsample_bilinear", (maps[k], *g.shape[2:]), g)
        g = _vjp_variance_ratio(g, _feature_rows(levels[k], 2), specs[k], cfg.epsilon)
        carry = g if carry is None else g + _blur_adjoint(
            carry, *levels[k].shape[2:], 2)
    if cfg.normalize_input:
        (carry,) = backward("tanh_scale", (x,), carry)
    return (carry, d_weights, d_bias)


# ----------------------------------------------------------- finite-diff rig

@dataclass(frozen=True)
class GradCheckReport:
    """One sweep's worst raw relative error and verdict; see finite_diff_check."""

    op_id: str
    max_rel_error: float
    max_abs_error: float
    probe_count: int
    tolerance: float
    passed: bool
    resampled: int = 0


WINDOW_CONFIGS = (
    PoolSpec.square(2, stride=1),
    PoolSpec.square(3, stride=2),
    PoolSpec.square(3, stride=1, padding=1),
)

_MULTISCALE_WINDOWS = (None, PoolSpec.square(2, stride=1),
                       PoolSpec.square(3, stride=3))

# the sizes a two-level pyramid upsamples a 3x3 level to
_UPSAMPLE_SIZES = ((5, 5), (4, 7), (3, 3))

_ROUNDOFF_UNITS = 16.0  # K of finite_diff_check's rounding allowance

# Most bytes that one batched probe forward may hold in one-sample input
# copies plus the full outputs assembled from them, so a large `x` cannot
# multiply the rig's memory by the probe count.
_PROBE_BATCH_BYTES = 64 * 1024


@dataclass(frozen=True)
class _Op:
    """How the finite-difference rig drives one checked op.

    `vjp(upstream, *args)` is its backward, which :func:`backward` reaches
    through ``BACKWARD``.  `setup(x, rng, params)` gives the probed arrays
    (mostly x, then weights drawn from `rng`; `fusion_head` probes only its
    weights, and x's GAP vectors join its context) and a context that is
    never probed; `args(arrays, context)` is the argument tuple of both
    `forward` and `vjp`.  With `sample_axis`, `arrays[0]` (x) is the one
    array stacked by sample: the op acts sample by sample along axis 0 of
    x, row i of its output depending only on row i of x.
    `suite_input(rng)` and `suite_params(i)` are the suite's input and the
    params of its i-th seed.

    An op whose forward is planes then a mix sets `planes(arrays, context)`,
    which reads only x, and `mix(planes, arrays, context)`, which gives
    `forward`'s output bits from them; a probe of any other array then
    re-runs only the mix.
    """

    forward: Callable
    vjp: Callable
    setup: Callable
    args: Callable
    suite_input: Callable
    suite_params: Callable = lambda i: {}
    sample_axis: bool = True
    planes: Callable | None = None
    mix: Callable | None = None


def _args_x_context(arrays, context):
    return (arrays[0], context)


def _uniform3(rng):
    return rng.uniform(-3.0, 3.0, size=(2, 2, 6, 6))


def _normal(rng):
    return rng.standard_normal((2, 2, 6, 6)) * 1.5


def _setup_mix(x, rng, params):
    c, scales = x.shape[1], params.get("scales", 2)
    weights = rng.standard_normal((c // scales, scales))
    return [x, weights, rng.standard_normal(c // scales)], None


def _setup_head(x, rng, params):
    """One head of 3 classes over the GAP vectors of `x` and (N, C, 2)
    pooled vectors drawn from `rng`: its four trainable arrays are probed,
    the features are the context."""
    (n, c), k, s = x.shape[:2], 3, 2
    pooled = rng.uniform(0.0, 2.0, size=(1, n, c, s))
    arrays = [rng.standard_normal((1, k, c)) / np.sqrt(c), rng.standard_normal((1, k)),
              rng.standard_normal((1, c, s)), rng.standard_normal((1, c))]
    return arrays, (pooled, gap(x)[:, :, 0, 0])


def _setup_multiscale(x, rng, params):
    cfg = params.get("cfg") or LacunarityConfig(method="multiscale", scales=2)
    weights = rng.standard_normal((x.shape[1], cfg.scales))
    return [x, weights, rng.standard_normal(x.shape[1])], cfg


def _pooling(forward, vjp):
    return _Op(forward, vjp, lambda x, rng, p: ([x], p.get("spec") or WINDOW_CONFIGS[0]),
               _args_x_context, _normal,
               lambda i: {"spec": WINDOW_CONFIGS[i % len(WINDOW_CONFIGS)]})


# The forwards look module-level names up at call time, so a wrapped or
# patched function (a tracer, a test spy) is the one the rig runs.
_OPS = {
    "tanh_scale": _Op(lambda x: tanh_scale(x), vjp_tanh_scale,
                      lambda x, rng, p: ([x], None), lambda a, _: (a[0],), _uniform3),
    "pool_sum": _pooling(lambda x, spec: pool_sum(x, spec), vjp_pool_sum),
    "pool_avg": _pooling(lambda x, spec: pool_avg(x, spec), vjp_pool_avg),
    "pool_max": _pooling(lambda x, spec: pool_max(x, spec), vjp_pool_max),
    "base_lacunarity": _Op(
        lambda x, cfg: base_lacunarity(x, cfg), vjp_base_lacunarity,
        lambda x, rng, p: ([x], p.get("cfg") or LacunarityConfig(
            method="base", window=WINDOW_CONFIGS[0])),
        _args_x_context, _uniform3,
        lambda i: {"cfg": LacunarityConfig(
            method="base", window=WINDOW_CONFIGS[i % len(WINDOW_CONFIGS)])}),
    "mix_scales": _Op(lambda s, mix: mix_scales(s, mix), vjp_mix_scales, _setup_mix,
                      lambda a, _: (a[0], GroupedMixWeights(a[1], a[2])),
                      lambda rng: rng.standard_normal((2, 4, 5, 5))),
    "upsample_bilinear": _Op(
        lambda x, th, tw: upsample_bilinear(x, th, tw), vjp_upsample_bilinear,
        lambda x, rng, p: ([x], p.get("size") or _UPSAMPLE_SIZES[0]),
        lambda a, size: (a[0], *size), lambda rng: rng.standard_normal((2, 2, 3, 3)),
        lambda i: {"size": _UPSAMPLE_SIZES[i % len(_UPSAMPLE_SIZES)]}),
    "gap": _Op(lambda x: gap(x), vjp_gap, lambda x, rng, p: ([x], None),
               lambda a, _: (a[0],), _normal),
    # training's head gradient and stacked loss: the head's probed weights
    # have no sample axis, and the loss's (M, B, K) logits take heads as samples
    "fusion_head": _Op(
        lambda *args: _checked_head(*args)[0], vjp_fusion_head, _setup_head,
        lambda a, features: (*features, *a),
        lambda rng: rng.uniform(0.0, 2.0, size=(4, 3, 1, 1)), sample_axis=False),
    "cross_entropy": _Op(
        lambda logits, labels: _checked_loss(logits, labels)[0], vjp_cross_entropy,
        lambda x, rng, p: ([x.reshape(*x.shape[:2], -1)],
                           rng.integers(0, x[0, 0].size, size=x.shape[1])),
        _args_x_context, lambda rng: rng.uniform(-2.0, 2.0, size=(2, 2, 3, 1))),
    "multiscale_lacunarity": _Op(
        lambda x, cfg, mix: multiscale_lacunarity(x, cfg, mix),
        vjp_multiscale_lacunarity, _setup_multiscale,
        lambda a, cfg: (a[0], cfg, GroupedMixWeights(a[1], a[2])), _uniform3,
        lambda i: {"cfg": LacunarityConfig(
            method="multiscale", scales=2, window=_MULTISCALE_WINDOWS[i % 3])},
        planes=lambda a, cfg: multiscale_scale_planes(a[0], cfg),
        mix=lambda planes, a, cfg: _mixed(planes, cfg, GroupedMixWeights(a[1], a[2]))),
}

# backward() dispatches through this table, so a patched or wrapped entry
# is the vjp that runs
BACKWARD = {op_id: op.vjp for op_id, op in _OPS.items()}
CHECKED_OPS = tuple(_OPS)


def _forward(op: _Op, arrays: list, context, planes=None) -> np.ndarray:
    """The op's output; with `planes` (of this x), the mix."""
    if planes is None:
        return np.asarray(op.forward(*op.args(arrays, context)))
    return np.asarray(op.mix(planes, arrays, context))


def _stacked_losses(op: _Op, arrays: list, context, proj: np.ndarray,
                    out: np.ndarray, offsets: np.ndarray, h: float,
                    per_forward: int) -> np.ndarray:
    """(+h, -h) losses of the coordinates of x at flat `offsets`, in forwards
    of at most `per_forward` probes each.

    Probe m's +h copy is copy 2m and its -h copy is copy 2m + 1; each copy
    holds only the probed sample's row of x.
    """
    x = arrays[0]
    sample, cell = np.divmod(np.repeat(offsets, 2), x.size // len(out))
    step = np.where(np.arange(len(sample)) % 2, -h, h)
    losses = np.empty(len(sample))
    for start in range(0, len(sample), 2 * per_forward):
        at = slice(start, start + 2 * per_forward)
        rows = sample[at]
        copy = np.arange(len(rows))
        tiled = x[rows]
        tiled.reshape(len(rows), -1)[copy, cell[at]] += step[at]
        full = np.repeat(out[None], len(rows), axis=0)
        full[copy, rows] = _forward(op, [tiled, *arrays[1:]], context)
        losses[at] = (proj * full).reshape(len(rows), -1).sum(axis=1)
    return losses.reshape(-1, 2)


def _probe_losses(op: _Op, arrays: list, context, proj: np.ndarray,
                  out: np.ndarray, planes, coords: np.ndarray, h: float):
    """Projected losses with each flat coordinate in `coords` moved by +h, -h.

    `out` is the op's output at `arrays`, and `planes` the op's planes there
    (None for an op without a planes/mix split).

    A coordinate of x, when the op acts by sample, is probed in a stacked
    forward: its +h and -h copies hold only the probed sample's row of x and
    are tiled along axis 0 with other probes' copies.  Each copy's full
    output is `out` with that sample's row replaced by the copy's forward
    row.  At most `_PROBE_BATCH_BYTES` of input and output copies go into
    one forward.  Because the op acts sample by sample, each copy's loss is
    the one a lone forward would give.  Other coordinates (weights, biases,
    and an x without a sample axis) are probed one forward at a time in
    place; with `planes`, a probe of any array but x runs only the mix.
    """
    bounds = np.cumsum([0] + [a.size for a in arrays])
    which = np.searchsorted(bounds, coords, side="right") - 1
    offsets = coords - bounds[which]
    losses = np.empty((len(coords), 2))
    # x's probes per stacked forward: none when x has no sample axis
    per_forward = op.sample_axis and _PROBE_BATCH_BYTES // (
        2 * (arrays[0].nbytes // len(out) + out.nbytes))
    stacked = (which == 0) & (per_forward > 0)
    if per_forward:
        losses[stacked] = _stacked_losses(op, arrays, context, proj, out,
                                          offsets[stacked], h, per_forward)
    for p in np.flatnonzero(~stacked):
        target, off = arrays[which[p]], offsets[p]
        mix_of = planes if which[p] else None
        old = target.flat[off]
        for k, value in enumerate((old + h, old - h)):
            target.flat[off] = value
            losses[p, k] = np.sum(proj * _forward(op, arrays, context, mix_of))
        target.flat[off] = old
    return losses[:, 0], losses[:, 1]


def finite_diff_check(op_id: str, x: np.ndarray, h: float = 1e-5,
                      tol: float = 1e-4, seed: int = 0, probes: int = 100,
                      **op_params) -> GradCheckReport:
    """Compare an op's analytic gradient against central differences.

    A fixed random projection turns the op into a scalar loss; `probes`
    coordinates (or all of them, if fewer exist) are perturbed by ±h.  A
    coordinate whose one-sided slopes disagree (a kink: max-pool tie or
    clamp boundary) is swapped for a fresh coordinate, at most 10 times.
    Relative error uses denominator max(|analytic|, |numeric|, 1e-12); a
    non-finite analytic gradient or numeric slope counts as error ``inf``,
    so the check fails.

    A probe passes when ``|a - n| <= tol * max(|a|, |n|, 1e-12) + K * eps *
    (|L+| + |L-|) / (2h)``, L+ and L- being its losses and K = 16 units of
    a correct slope's rounding.  Over h from 1e-4 to 1e-6 and 200 suite
    seeds, correct backwards need at most 8 units past the relative term; a
    backward scaled by 1 + 1e-3 misses by over 10^7 units on every op.

    The at most ``probes + 10`` coordinates the sweep can visit are probed
    up front, those of an x that carries the sample axis in stacked
    one-sample forwards (see :func:`_probe_losses`), and the selection above
    is replayed over their losses in array operations; the report equals a
    one-probe-at-a-time sweep's.  An op with a planes/mix split builds its
    planes once per check: the base output and every probe of a mix weight
    or bias re-run only the mix.

    Raises ValueError unless ``probes >= 1`` and `h` and `tol` are positive
    and finite, and UnknownOpError for an op outside `CHECKED_OPS`.
    """
    if probes < 1:
        raise ValueError(f"probes must be >= 1, got {probes}")
    for name, value in (("h", h), ("tol", tol)):
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite, got {value}")
    try:
        op = _OPS[op_id]
    except KeyError:
        raise UnknownOpError(f"no finite-difference harness for {op_id!r}") from None
    rng = np.random.default_rng(seed)
    arrays, context = op.setup(as_feature_map(x), rng, op_params)
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    planes = op.planes(arrays, context) if op.planes else None
    out = _forward(op, arrays, context, planes)
    proj = (rng.uniform(0.5, 1.5, size=out.shape)
            * rng.choice([-1.0, 1.0], size=out.shape))
    grads = backward(op_id, op.args(arrays, context), proj)
    flat_grads = np.concatenate([np.asarray(g).ravel() for g in grads])
    total = sum(a.size for a in arrays)
    want = min(probes, total)

    base = float(np.sum(proj * out))
    coords = rng.permutation(total)[:want + 10]
    ups, downs = _probe_losses(op, arrays, context, proj, out, planes, coords, h)
    with np.errstate(all="ignore"):  # non-finite losses fail the check below
        numeric = (ups - downs) / (2.0 * h)
        fwd = (ups - base) / h
        bwd = (base - downs) / h
        kinked = (np.abs(fwd - bwd)
                  > 1e-2 * np.maximum(np.maximum(1.0, np.abs(fwd)), np.abs(bwd)))
    # the sweep skips the first 10 kinked coordinates, except the very last
    # coordinate, and stops once `want` coordinates are checked
    skipped = np.flatnonzero(kinked[:total - 1])[:10]
    kept = np.delete(np.arange(len(coords)), skipped)[:want]
    analytic, numeric = flat_grads[coords[kept]], numeric[kept]
    finite = np.isfinite(analytic) & np.isfinite(numeric)
    with np.errstate(all="ignore"):
        abs_err = np.where(finite, np.abs(analytic - numeric), np.inf)
        scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
        max_rel = float(np.where(finite, abs_err / scale, np.inf).max())
        roundoff = (_ROUNDOFF_UNITS * np.finfo(np.float64).eps
                    * (np.abs(ups[kept]) + np.abs(downs[kept])) / (2.0 * h))
        passed = bool(np.all(finite & (abs_err <= tol * scale + roundoff)))
    return GradCheckReport(op_id=op_id, max_rel_error=max_rel,
                           max_abs_error=float(abs_err.max()),
                           probe_count=len(kept), tolerance=tol,
                           passed=passed,
                           resampled=int(np.count_nonzero(skipped < kept[-1])))


def run_gradient_suite(seeds=range(20), tol: float = 1e-4,
                       probes: int = 100) -> list[GradCheckReport]:
    """Finite-difference checks for every registered op across seeds.

    Window-taking ops cycle through three window configurations (overlapping,
    strided, padded) as the seed advances.  Raises ValueError for empty
    `seeds` and, as :func:`finite_diff_check` does, for a vacuous `tol` or
    `probes`.
    """
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must not be empty")
    reports = []
    for op_id, op in _OPS.items():
        for i, seed in enumerate(seeds):
            rng = np.random.default_rng((7919, seed))
            reports.append(finite_diff_check(op_id, op.suite_input(rng), tol=tol,
                                             seed=seed, probes=probes,
                                             **op.suite_params(i)))
    return reports
