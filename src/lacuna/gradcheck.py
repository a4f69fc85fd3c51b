"""Analytic backward passes and a central-finite-difference verifier.

Every operator that sits on a trainable path gets a hand-written
vector-Jacobian product, registered in the module-level ``BACKWARD`` table
and dispatched through :func:`backward`.  :func:`finite_diff_check` verifies
any of them (plus the composed multi-scale operator end to end) against
central differences of a randomly projected scalar loss.

The rig knows each checked op through one record in a private table: its
forward, how the probed arrays become its argument tuple, how they are
drawn, its suite input and window cycle, and which arrays carry the sample
axis.  Probes of sample-axis arrays run as ±h copies stacked along that axis,
several per forward under a fixed byte budget; the resulting reports equal a
one-probe-at-a-time sweep's.  A non-finite analytic gradient or numeric
slope fails the check.  `probes` below 1, a `tol` or `h` that is not
positive and finite, and an empty seed list raise ValueError.

Conventions: max-pooling routes gradient to the first maximal cell in
row-major window order; the lacunarity output clamp ``max(L, 0)`` uses
subgradient 0 where the clamp is active; the epsilon guards are constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .lacunarity import (
    _BLUR_SPEC,
    _BLUR_TAPS,
    LacunarityConfig,
    base_lacunarity,
    gaussian_pyramid,
    multiscale_lacunarity,
    tanh_scale,
    variance_ratio,
)
from .model import linear_classifier, softmax, softmax_cross_entropy
from .tensor import (
    GroupedMixWeights,
    PoolSpec,
    ShapeMismatchError,
    _padded,
    _resample_axis,
    _window_cells,
    as_feature_map,
    elementwise_mul,
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


def _winner_offsets(x: np.ndarray, spec: PoolSpec) -> np.ndarray:
    """Row-major kernel offset of each window's first maximal cell."""
    out_h, out_w = spec.out_size(x.shape[2], x.shape[3])
    xp = _padded(x, spec.padding, -np.inf)
    best = np.full((x.shape[0], x.shape[1], out_h, out_w), -np.inf)
    winner = np.zeros(best.shape, dtype=np.intp)
    for k, cells in enumerate(_window_cells(spec, out_h, out_w)):
        v = xp[cells]
        better = v > best
        best[better] = v[better]
        winner[better] = k
    return winner


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    axes = tuple(i for i, (g, t) in enumerate(zip(grad.shape, shape)) if t == 1 and g != 1)
    return grad.sum(axis=axes, keepdims=True) if axes else grad


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
    upstream = _expect(upstream, (*x.shape[:2], *spec.out_size(x.shape[2], x.shape[3])))
    return (_scatter_pool(upstream, spec, x.shape[2], x.shape[3],
                          _winner_offsets(x, spec)),)


def _vjp_variance_ratio(upstream, x, spec, epsilon):
    """Gradient of the clamped variance-to-squared-mean ratio."""
    s1 = pool_sum(x, spec)
    s2 = pool_sum(x * x, spec)
    denom = s1 * s1 + epsilon
    ratio = spec.area * s2 / denom - 1.0
    g = upstream * (ratio > 0.0)
    d_s2 = g * (spec.area / denom)
    d_s1 = g * (-2.0 * spec.area * s2 * s1 / (denom * denom))
    h, w = x.shape[2], x.shape[3]
    return (_scatter_pool(d_s1, spec, h, w)
            + 2.0 * x * _scatter_pool(d_s2, spec, h, w))


def vjp_base_lacunarity(upstream, x, cfg):
    x = as_feature_map(x)
    xs = tanh_scale(x) if cfg.normalize_input else x
    spec = cfg.resolve_window(xs)
    upstream = _expect(
        upstream, (*xs.shape[:2], *spec.out_size(xs.shape[2], xs.shape[3])))
    g = _vjp_variance_ratio(upstream, xs, spec, cfg.epsilon)
    if cfg.normalize_input:
        t = np.tanh(x)
        g = g * (127.5 * (1.0 - t * t))
    return (g,)


def vjp_mix_scales(upstream, stacked, mix):
    stacked = as_feature_map(stacked, "stacked")
    n, cs, h, w = stacked.shape
    c, s = mix.weights.shape
    upstream = _expect(upstream, (n, c, h, w))
    planes = stacked.reshape(n, c, s, h, w)
    d_stacked = (upstream[:, :, None] * mix.weights[None, :, :, None, None])
    d_weights = np.einsum("nchw,ncshw->cs", upstream, planes)
    d_bias = upstream.sum(axis=(0, 2, 3))
    return (d_stacked.reshape(n, cs, h, w), d_weights, d_bias)


def vjp_elementwise_mul(upstream, a, b):
    a = as_feature_map(a, "a")
    b = as_feature_map(b, "b")
    out_shape = np.broadcast_shapes(a.shape, b.shape)
    upstream = _expect(upstream, out_shape)
    return (_unbroadcast(upstream * b, a.shape),
            _unbroadcast(upstream * a, b.shape))


def vjp_gap(upstream, x):
    x = as_feature_map(x)
    upstream = _expect(upstream, (*x.shape[:2], 1, 1))
    return (np.broadcast_to(upstream, x.shape) / (x.shape[2] * x.shape[3]),)


def vjp_linear_classifier(upstream, x, weights, bias):
    x = np.asarray(x, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    upstream = _expect(upstream, (x.shape[0], weights.shape[0]))
    return (upstream @ weights, upstream.T @ x, upstream.sum(axis=0))


def vjp_softmax_cross_entropy(upstream, logits, labels):
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels)
    scale = float(np.asarray(upstream))
    p = softmax(logits)
    p[np.arange(len(labels)), labels] -= 1.0
    return (scale * p / len(labels),)


def backward(op_id: str, inputs: tuple, upstream) -> tuple[Gradient, ...]:
    """Gradients of a projected loss w.r.t. an op's differentiable inputs.

    `inputs` is the op's forward argument tuple; the return tuple aligns
    with the differentiable arguments in order (weights and biases included
    where the op has them).
    """
    try:
        fn = BACKWARD[op_id]
    except KeyError:
        raise UnknownOpError(f"no backward registered for {op_id!r}") from None
    return fn(upstream, *inputs)


# ----------------------------------------------- composed multi-scale branch

def _undecimate(g: np.ndarray, h: int, w: int) -> np.ndarray:
    full = np.zeros((*g.shape[:2], h, w))
    full[:, :, ::2, ::2] = g
    return full


def _fold(t: int, n: int) -> int:
    if n == 1:
        return 0
    while t < 0 or t > n - 1:
        t = -t if t < 0 else 2 * (n - 1) - t
    return t


def _blur_adjoint(g: np.ndarray) -> np.ndarray:
    """Adjoint of the reflect-padded 5x5 binomial blur."""
    n, c, h, w = g.shape
    gxp = np.zeros((n, c, h + 4, w + 4))
    for tap, cells in zip(_BLUR_TAPS.flat, _window_cells(_BLUR_SPEC, h, w)):
        gxp[cells] += tap * g
    rows = np.zeros((n, c, h, w + 4))
    for i in range(h + 4):
        rows[:, :, _fold(i - 2, h), :] += gxp[:, :, i, :]
    out = np.zeros((n, c, h, w))
    for j in range(w + 4):
        out[:, :, :, _fold(j - 2, w)] += rows[:, :, :, j]
    return out


def _upsample_adjoint(g: np.ndarray, in_h: int, in_w: int) -> np.ndarray:
    n, c, oh, ow = g.shape
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
    return dx


def vjp_multiscale_lacunarity(upstream, x, cfg, mix):
    """End-to-end gradient of the multi-scale operator: input, weights, bias.

    Chains the mix, the bilinear upsampling, the per-level variance ratios,
    the blur/decimate pyramid steps, and the input squashing.
    """
    x = as_feature_map(x)
    xs = tanh_scale(x) if cfg.normalize_input else x
    levels = gaussian_pyramid(xs, cfg.scales)
    specs = [cfg.resolve_window(lv) for lv in levels]
    maps = [variance_ratio(lv, sp, cfg.epsilon) for lv, sp in zip(levels, specs)]
    th, tw = maps[0].shape[2], maps[0].shape[3]
    ups = [maps[0]] + [
        m if m.shape[2:] == (th, tw) else upsample_bilinear(m, th, tw)
        for m in maps[1:]
    ]
    n, c = x.shape[0], x.shape[1]
    stacked = np.stack(ups, axis=2).reshape(n, c * cfg.scales, th, tw)
    d_stacked, d_weights, d_bias = backward(
        "mix_scales", (stacked, mix), upstream)
    d_ups = d_stacked.reshape(n, c, cfg.scales, th, tw)
    d_levels = []
    for k in range(cfg.scales):
        g = d_ups[:, :, k]
        if maps[k].shape[2:] != (th, tw):
            g = _upsample_adjoint(g, maps[k].shape[2], maps[k].shape[3])
        d_levels.append(_vjp_variance_ratio(g, levels[k], specs[k], cfg.epsilon))
    carry = d_levels[-1]
    for k in range(cfg.scales - 1, 0, -1):
        lower = levels[k - 1]
        carry = d_levels[k - 1] + _blur_adjoint(
            _undecimate(carry, lower.shape[2], lower.shape[3]))
    if cfg.normalize_input:
        (carry,) = backward("tanh_scale", (x,), carry)
    return (carry, d_weights, d_bias)


BACKWARD = {
    "tanh_scale": vjp_tanh_scale,
    "pool_sum": vjp_pool_sum,
    "pool_avg": vjp_pool_avg,
    "pool_max": vjp_pool_max,
    "base_lacunarity": vjp_base_lacunarity,
    "mix_scales": vjp_mix_scales,
    "elementwise_mul": vjp_elementwise_mul,
    "gap": vjp_gap,
    "linear_classifier": vjp_linear_classifier,
    "softmax_cross_entropy": vjp_softmax_cross_entropy,
    "multiscale_lacunarity": vjp_multiscale_lacunarity,
}


# ----------------------------------------------------------- finite-diff rig

@dataclass(frozen=True)
class GradCheckReport:
    """Outcome of one finite-difference sweep; passed ⇔ max_rel_error < tol."""

    op_id: str
    max_rel_error: float
    max_abs_error: float
    probe_count: int
    tolerance: float
    passed: bool
    resampled: int = 0

    def __str__(self):
        state = "pass" if self.passed else "FAIL"
        return (f"{self.op_id}: {state} max_rel={self.max_rel_error:.3e} "
                f"probes={self.probe_count} resampled={self.resampled}")


WINDOW_CONFIGS = (
    PoolSpec.square(2, stride=1),
    PoolSpec.square(3, stride=2),
    PoolSpec.square(3, stride=1, padding=1),
)

_MULTISCALE_WINDOWS = (None, PoolSpec.square(2, stride=1),
                       PoolSpec.square(3, stride=3))

# Most bytes of stacked input copies that one batched probe forward may hold,
# so a large `x` cannot multiply the rig's memory by the probe count.
_PROBE_BATCH_BYTES = 64 * 1024


@dataclass(frozen=True)
class _Op:
    """How the finite-difference rig drives one checked op.

    `setup(x, rng, params)` gives the probed arrays (x first, then weights
    drawn from `rng`) and a context that is never probed; `args(arrays,
    context)` is the argument tuple of both `forward` and ``backward``.  The
    op acts sample by sample along axis 0 of the arrays in `sample_axis`.
    `suite_input(rng)` and `suite_params(i)` are the suite's input and the
    params of its i-th seed.
    """

    forward: Callable
    setup: Callable
    args: Callable
    suite_input: Callable
    suite_params: Callable = lambda i: {}
    sample_axis: tuple = (0,)


def _args_x_context(arrays, context):
    return (arrays[0], context)


def _uniform3(rng):
    return rng.uniform(-3.0, 3.0, size=(2, 2, 6, 6))


def _normal(rng):
    return rng.standard_normal((2, 2, 6, 6)) * 1.5


def _setup_mix(x, rng, params):
    c, scales = x.shape[1], params.get("scales", 2)
    if c % scales:
        raise ShapeMismatchError(f"{c} channels not divisible into {scales} scales")
    weights = rng.standard_normal((c // scales, scales))
    return [x, weights, rng.standard_normal(c // scales)], None


def _setup_linear(x, rng, params):
    flat = x.reshape(x.shape[0], -1)
    k, d = params.get("num_classes", 3), flat.shape[1]
    weights = rng.standard_normal((k, d)) / np.sqrt(d)
    return [flat, weights, rng.standard_normal(k)], None


def _setup_softmax(x, rng, params):
    flat = x.reshape(x.shape[0], -1)
    if flat.shape[1] < 2:
        raise ShapeMismatchError("need at least two logit columns")
    return [flat], rng.integers(0, flat.shape[1], size=flat.shape[0])


def _setup_multiscale(x, rng, params):
    cfg = params.get("cfg") or LacunarityConfig(method="multiscale", scales=2)
    weights = rng.standard_normal((x.shape[1], cfg.scales))
    return [x, weights, rng.standard_normal(x.shape[1])], cfg


def _pooling(forward):
    return _Op(forward, lambda x, rng, p: ([x], p.get("spec") or WINDOW_CONFIGS[0]),
               _args_x_context, _normal,
               lambda i: {"spec": WINDOW_CONFIGS[i % len(WINDOW_CONFIGS)]})


# The forwards look module-level names up at call time, so a wrapped or
# patched function (a tracer, a test spy) is the one the rig runs.
_OPS = {
    "tanh_scale": _Op(lambda x: tanh_scale(x), lambda x, rng, p: ([x], None),
                      lambda a, _: (a[0],), _uniform3),
    "pool_sum": _pooling(lambda x, spec: pool_sum(x, spec)),
    "pool_avg": _pooling(lambda x, spec: pool_avg(x, spec)),
    "pool_max": _pooling(lambda x, spec: pool_max(x, spec)),
    "base_lacunarity": _Op(
        lambda x, cfg: base_lacunarity(x, cfg),
        lambda x, rng, p: ([x], p.get("cfg") or LacunarityConfig(
            method="base", window=WINDOW_CONFIGS[0])),
        _args_x_context, _uniform3,
        lambda i: {"cfg": LacunarityConfig(
            method="base", window=WINDOW_CONFIGS[i % len(WINDOW_CONFIGS)])}),
    "mix_scales": _Op(lambda s, mix: mix_scales(s, mix), _setup_mix,
                      lambda a, _: (a[0], GroupedMixWeights(a[1], a[2])),
                      lambda rng: rng.standard_normal((2, 4, 5, 5))),
    "elementwise_mul": _Op(
        lambda a, b: elementwise_mul(a, b),
        lambda x, rng, p: ([x, rng.standard_normal((*x.shape[:2], 1, 1))], None),
        lambda a, _: tuple(a), _normal, sample_axis=(0, 1)),
    "gap": _Op(lambda x: gap(x), lambda x, rng, p: ([x], None),
               lambda a, _: (a[0],), _normal),
    "linear_classifier": _Op(
        lambda x, w, b: linear_classifier(x, w, b), _setup_linear,
        lambda a, _: tuple(a), lambda rng: rng.uniform(-2.0, 2.0, size=(4, 2, 3, 3))),
    # the loss is a mean over the samples, so no array has a sample axis
    "softmax_cross_entropy": _Op(
        lambda logits, labels: softmax_cross_entropy(logits, labels),
        _setup_softmax, _args_x_context,
        lambda rng: rng.uniform(-2.0, 2.0, size=(4, 3, 1, 1)), sample_axis=()),
    "multiscale_lacunarity": _Op(
        lambda x, cfg, mix: multiscale_lacunarity(x, cfg, mix), _setup_multiscale,
        lambda a, cfg: (a[0], cfg, GroupedMixWeights(a[1], a[2])), _uniform3,
        lambda i: {"cfg": LacunarityConfig(
            method="multiscale", scales=2, window=_MULTISCALE_WINDOWS[i % 3])}),
}

CHECKED_OPS = tuple(_OPS)


def _loss(op: _Op, arrays: list, context, proj: np.ndarray) -> float:
    return float(np.sum(proj * np.asarray(op.forward(*op.args(arrays, context)))))


def _probe_losses(op: _Op, arrays: list, context, proj: np.ndarray,
                  coords: np.ndarray, h: float):
    """Projected losses with each flat coordinate in `coords` moved by +h, -h.

    A coordinate in a sample-axis array is probed in a stacked forward: its
    +h and -h copies of every sample-axis array are tiled along axis 0 with
    other probes' copies, at most `_PROBE_BATCH_BYTES` of copies per
    forward.  Because the op acts sample by sample, each copy's loss is the
    one a lone forward would give.  Other coordinates (weights, biases, and
    arrays without a sample axis) are probed one forward at a time in place.
    """
    bounds = np.cumsum([0] + [a.size for a in arrays])
    which = np.searchsorted(bounds, coords, side="right") - 1
    offsets = coords - bounds[which]
    ups = np.empty(len(coords))
    downs = np.empty(len(coords))
    copy_bytes = sum(arrays[j].nbytes for j in op.sample_axis)
    per_forward = _PROBE_BATCH_BYTES // (2 * copy_bytes) if copy_bytes else 0
    stacked = np.isin(which, op.sample_axis) & (per_forward > 0)
    batch = np.flatnonzero(stacked)
    for start in range(0, len(batch), max(per_forward, 1)):
        chunk = batch[start:start + per_forward]
        copies = 2 * len(chunk)
        tiled = list(arrays)
        for j in op.sample_axis:
            tiled[j] = np.tile(arrays[j], (copies,) + (1,) * (arrays[j].ndim - 1))
        for m, p in enumerate(chunk):
            rows = tiled[which[p]].reshape(copies, -1)  # one copy per row
            rows[2 * m, offsets[p]] += h
            rows[2 * m + 1, offsets[p]] -= h
        out = np.asarray(op.forward(*op.args(tiled, context)))
        losses = (proj * out.reshape(copies, *proj.shape)).reshape(copies, -1).sum(axis=1)
        ups[chunk] = losses[0::2]
        downs[chunk] = losses[1::2]
    for p in np.flatnonzero(~stacked):
        target, off = arrays[which[p]], offsets[p]
        old = target.flat[off]
        target.flat[off] = old + h
        ups[p] = _loss(op, arrays, context, proj)
        target.flat[off] = old - h
        downs[p] = _loss(op, arrays, context, proj)
        target.flat[off] = old
    return ups, downs


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

    The at most ``probes + 10`` coordinates the sweep can visit are probed
    up front, those of inputs with a sample axis in stacked forwards (see
    :func:`_probe_losses`), and the selection above is replayed over their
    losses; the report equals a one-probe-at-a-time sweep's.

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
    out = np.asarray(op.forward(*op.args(arrays, context)))
    proj = (rng.uniform(0.5, 1.5, size=out.shape)
            * rng.choice([-1.0, 1.0], size=out.shape))
    grads = backward(op_id, op.args(arrays, context), proj)
    flat_grads = np.concatenate([np.asarray(g).ravel() for g in grads])
    total = sum(a.size for a in arrays)
    want = min(probes, total)

    base = float(np.sum(proj * out))
    coords = rng.permutation(total)[:want + 10]
    ups, downs = _probe_losses(op, arrays, context, proj, coords, h)
    analytics = flat_grads[coords].tolist()
    ups, downs = ups.tolist(), downs.tolist()
    max_rel = 0.0
    max_abs = 0.0
    checked = 0
    resampled = 0
    pos = 0
    while checked < want and pos < total:
        up, down, analytic = ups[pos], downs[pos], analytics[pos]
        pos += 1
        numeric = (up - down) / (2.0 * h)
        fwd = (up - base) / h
        bwd = (base - down) / h
        kinked = abs(fwd - bwd) > 1e-2 * max(1.0, abs(fwd), abs(bwd))
        if kinked and resampled < 10 and pos < total:
            resampled += 1
            continue
        if math.isfinite(analytic) and math.isfinite(numeric):
            abs_err = abs(analytic - numeric)
            rel = abs_err / max(abs(analytic), abs(numeric), 1e-12)
        else:
            abs_err = rel = math.inf
        max_rel = max(max_rel, rel)
        max_abs = max(max_abs, abs_err)
        checked += 1
    return GradCheckReport(op_id=op_id, max_rel_error=max_rel,
                           max_abs_error=max_abs, probe_count=checked,
                           tolerance=tol, passed=max_rel < tol,
                           resampled=resampled)


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
