import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lacuna.gradcheck as gradcheck
from lacuna import lacunarity, tensor
from lacuna.gradcheck import (
    CHECKED_OPS,
    GradCheckReport,
    UnknownOpError,
    backward,
    finite_diff_check,
    run_gradient_suite,
    vjp_multiscale_lacunarity,
)
from lacuna.lacunarity import (
    LacunarityConfig,
    _blur_binomial5,
    base_lacunarity,
    blur_binomial5,
    multiscale_lacunarity,
    multiscale_scale_planes,
    tanh_scale,
)
from lacuna.model import _cross_entropy, _head
from lacuna.tensor import (
    GroupedMixWeights,
    PoolSpec,
    ShapeMismatchError,
    gap,
    mix_scales,
    pool_avg,
    pool_max,
    pool_sum,
    upsample_bilinear,
)

from _reference import ref_out_size


def test_tanh_scale_derivative_at_zero():
    x = np.zeros((1, 1, 2, 2))
    (g,) = backward("tanh_scale", (x,), np.ones((1, 1, 2, 2)))
    assert np.allclose(g, 127.5, rtol=0, atol=0)


def test_pool_sum_backward_counts_window_membership():
    spec = PoolSpec.square(2, stride=1)
    x = np.zeros((1, 1, 3, 4))
    ones = np.ones((1, 1, *spec.out_size(3, 4)))
    (g,) = backward("pool_sum", (x, spec), ones)
    counts = np.zeros((3, 4))
    oh = ref_out_size(3, 2, 1, 1, 0)
    ow = ref_out_size(4, 2, 1, 1, 0)
    for oi in range(oh):
        for oj in range(ow):
            for ki in range(2):
                for kj in range(2):
                    counts[oi + ki, oj + kj] += 1
    assert np.array_equal(g[0, 0], counts)


def test_pool_max_backward_routes_to_first_argmax():
    # two equal maxima in one window: row-major first occurrence wins
    x = np.array([[5.0, 1.0], [1.0, 5.0]]).reshape(1, 1, 2, 2)
    (g,) = backward("pool_max", (x, PoolSpec.square(2)), np.ones((1, 1, 1, 1)))
    assert np.array_equal(g[0, 0], np.array([[1.0, 0.0], [0.0, 0.0]]))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kernel=st.integers(1, 3))
def test_pool_max_backward_conserves_mass_on_partitions(seed, kernel):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 2, kernel * 3, kernel * 2))
    spec = PoolSpec.square(kernel)  # stride = kernel, no padding
    upstream = rng.standard_normal((2, 2, 3, 2))
    (g,) = backward("pool_max", (x, spec), upstream)
    assert np.isclose(g.sum(), upstream.sum(), rtol=1e-12, atol=1e-12)


def _adjoint_holds(forward_out, upstream, x, grad):
    """<f(x), u> == <x, f*(u)> to 1e-12 of the summed term magnitudes."""
    scale = np.abs(forward_out * upstream).sum()
    return np.isclose((forward_out * upstream).sum(), (x * grad).sum(),
                      rtol=1e-12, atol=1e-12 * scale)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kernel=st.tuples(st.integers(1, 4), st.integers(1, 4)),
       stride=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       dilation=st.integers(1, 3), data=st.data())
def test_pool_adjoint_identities_across_window_geometry(seed, kernel, stride,
                                                        dilation, data):
    eff = dilation * (max(kernel) - 1) + 1
    pad = data.draw(st.integers(0, eff // 2), label="padding")
    spec = PoolSpec(*kernel, *stride, dilation=dilation, padding=pad)
    h, w = (max(1, dilation * (k - 1) + 1 - 2 * pad) + data.draw(st.integers(0, 5))
            for k in kernel)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, 2, h, w))
    # the padding cap does not rule out a window of padding alone on a
    # non-square or dilated kernel; out_size rejects the input instead
    if _some_window_samples_padding_only(spec, h, w):
        with pytest.raises(ShapeMismatchError):
            spec.out_size(h, w)
        return
    u = rng.standard_normal((2, 2, *spec.out_size(h, w)))
    assert np.isfinite(pool_max(x, spec)).all()
    for op, fwd in (("pool_sum", pool_sum), ("pool_max", pool_max)):
        (g,) = backward(op, (x, spec), u)
        assert _adjoint_holds(fwd(x, spec), u, x, g), op


def _some_window_samples_padding_only(spec, h, w):
    """Brute-force scan of every window's sampled cells in the padded map."""
    p, d = spec.padding, spec.dilation
    for oi in range(ref_out_size(h, spec.kernel_h, spec.stride_h, d, p)):
        for oj in range(ref_out_size(w, spec.kernel_w, spec.stride_w, d, p)):
            if not any(p <= oi * spec.stride_h + ki * d < p + h
                       and p <= oj * spec.stride_w + kj * d < p + w
                       for ki in range(spec.kernel_h) for kj in range(spec.kernel_w)):
                return True
    return False


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(2, 9), w=st.integers(2, 9),
       stride=st.sampled_from((1, 2)))
def test_blur_adjoint_identity_through_reflect_folds(seed, h, w, stride):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, 2, h, w))
    g = rng.standard_normal((1, 2, h, w))
    assert _adjoint_holds(blur_binomial5(x), g, x, gradcheck._blur_adjoint(g, h, w, 1))
    # the strided blur is the pyramid's REDUCE step
    blurred = _blur_binomial5(x, stride)
    g = rng.standard_normal(blurred.shape)
    assert _adjoint_holds(blurred, g, x, gradcheck._blur_adjoint(g, h, w, stride))


def _head_inputs(rng, m=1, n=4, c=3, s=2, k=5):
    """Pooled and GAP vectors, then the four trainable arrays, of m heads."""
    return (rng.standard_normal((m, n, c, s)), rng.standard_normal((n, c)),
            rng.standard_normal((m, k, c)), rng.standard_normal((m, k)),
            rng.standard_normal((m, c, s)), rng.standard_normal((m, c)))


def test_fusion_head_backward_product_rule_exact():
    rng = np.random.default_rng(0)
    inputs = _head_inputs(rng, m=2)
    pooled, gapped, w = inputs[:3]
    upstream = rng.standard_normal((2, 4, 5))
    # the features are frozen: only the four trainable arrays get gradients
    d_w, d_b, d_mix_w, d_mix_b = backward("fusion_head", inputs, upstream)
    _, fused = _head(*inputs)
    assert np.array_equal(d_w, upstream.transpose(0, 2, 1) @ fused)
    assert np.array_equal(d_b, upstream.sum(axis=1))
    # the classifier input is the mixed lacunarity times the GAP vector
    d_lac = (upstream @ w) * gapped
    assert np.array_equal(d_mix_w, (d_lac[..., None] * pooled).sum(axis=1))
    assert np.array_equal(d_mix_b, d_lac.sum(axis=1))


def test_unknown_op_and_shape_errors():
    with pytest.raises(UnknownOpError):
        backward("conv2d", (np.zeros((1, 1, 2, 2)),), np.zeros((1, 1, 2, 2)))
    with pytest.raises(UnknownOpError):
        finite_diff_check("conv2d", np.zeros((1, 1, 2, 2)))
    with pytest.raises(ShapeMismatchError):
        backward("gap", (np.zeros((1, 1, 2, 2)),), np.zeros((1, 1, 2, 2)))
    # each backward rejects the inputs its forward rejects, with its error
    head = _head_inputs(np.random.default_rng(1))
    with pytest.raises(ShapeMismatchError, match=r"forward output \(1, 4, 5\)"):
        backward("fusion_head", head, np.ones((4, 5)))
    with pytest.raises(ShapeMismatchError, match=r"forward output \(1, 2, 5, 7\)"):
        backward("upsample_bilinear", (np.ones((1, 2, 3, 3)), 5, 7), np.ones((1, 2, 3, 3)))
    # the loss takes (M, B, K) logits, (B,) labels and an (M,) upstream
    logits = np.ones((2, 2, 3))
    with pytest.raises(ShapeMismatchError, match=r"forward output \(2,\)"):
        backward("cross_entropy", (logits, np.array([0, 2])), np.ones(1))
    with pytest.raises(ValueError, match="out of range"):
        backward("cross_entropy", (logits, np.array([0, 3])), np.ones(2))
    loss = gradcheck._OPS["cross_entropy"].forward
    for bad in ((np.ones((2, 3)), np.array([0, 2])),
                (np.ones((2, 0, 3)), np.array([], dtype=int)),
                (logits, np.array([0, 1, 2])), (logits, np.array([[0, 2]]))):
        for raise_it in (lambda: loss(*bad), lambda: backward("cross_entropy", bad, np.ones(2))):
            with pytest.raises(ShapeMismatchError, match="loss got shapes"):
                raise_it()
    x = np.ones((1, 1, 4, 4))
    with pytest.raises(ValueError, match="expected 'base'"):
        backward("base_lacunarity", (x, LacunarityConfig(method="dbc")),
                 np.ones((1, 1, 2, 2)))
    with pytest.raises(ValueError, match="expected 'multiscale'"):
        backward("multiscale_lacunarity",
                 (x, LacunarityConfig(method="base"), GroupedMixWeights.uniform(1, 2)),
                 np.ones((1, 1, 1, 1)))
    # the lacunarity backwards check and squash x as their forwards do
    nan = np.ones((1, 2, 4, 4))
    nan[0, 1, 2, 2] = np.nan
    for bad in (nan, np.ones((2, 4, 4))):
        for norm in (True, False):
            for forward, op_id, method in ((base_lacunarity, "base_lacunarity", "base"),
                                           (multiscale_lacunarity, "multiscale_lacunarity",
                                            "multiscale")):
                cfg = LacunarityConfig(method=method, normalize_input=norm)
                with pytest.raises(ValueError) as want:
                    forward(bad, cfg)
                with pytest.raises(type(want.value), match=re.escape(str(want.value))):
                    backward(op_id, (bad, cfg), np.ones((1, 2, 1, 1)))
    # an upstream shaped for a strided window, not the 3x3 map of a gliding one
    for norm in (True, False):
        cfg = LacunarityConfig(window=PoolSpec.square(2, stride=1), normalize_input=norm)
        with pytest.raises(ShapeMismatchError, match=r"forward output \(1, 1, 3, 3\)"):
            backward("base_lacunarity", (x, cfg), np.ones((1, 1, 2, 2)))
    # a backward raises its forward's error on the forward's bad arguments
    a = np.ones((2, 3, 4, 4))
    for raise_it in (lambda: upsample_bilinear(a, 0, 5),
                     lambda: backward("upsample_bilinear", (a, 0, 5), np.ones((2, 3, 0, 5)))):
        with pytest.raises(ShapeMismatchError, match="target dims"):
            raise_it()
    # the head row's forward checks shapes that training's `_head` takes on
    # trust: a mix narrower than the pooled vectors, a one-scale mix over two
    # scales, and GAP vectors that numpy would broadcast over every row
    narrow = head[:4] + (np.ones((1, 2, 2)),) + head[5:]
    with pytest.raises(ValueError, match="operands could not be broadcast"):
        _head(*narrow)
    one_scale = head[:4] + (np.ones((1, 3, 1)),) + head[5:]
    assert _head(*one_scale)[0].shape == (1, 4, 5)
    head_fwd = gradcheck._OPS["fusion_head"].forward
    for bad in (narrow, one_scale, (head[0], head[1][:1], *head[2:]),
                (head[0], head[1][0], *head[2:])):
        for raise_it in (lambda: head_fwd(*bad),
                         lambda: backward("fusion_head", bad, np.ones((1, 4, 5)))):
            with pytest.raises(ShapeMismatchError, match="fusion head got shapes"):
                raise_it()
    five, mix = np.ones((1, 5, 3, 3)), GroupedMixWeights.uniform(2, 2)
    for raise_it in (lambda: mix_scales(five, mix),
                     lambda: backward("mix_scales", (five, mix), np.ones((1, 2, 3, 3)))):
        with pytest.raises(ShapeMismatchError, match="expected 4 channels"):
            raise_it()
    x2, ms = np.ones((1, 2, 4, 4)), LacunarityConfig(method="multiscale", scales=2)
    tall = GroupedMixWeights(np.ones((4, 1)), np.zeros(4))
    for raise_it in (lambda: multiscale_lacunarity(x2, ms, tall),
                     lambda: backward("multiscale_lacunarity", (x2, ms, tall),
                                      np.ones((1, 4, 1, 1)))):
        with pytest.raises(ValueError, match=r"mix sized \(4, 1\)"):
            raise_it()
    logits, fractional = np.ones((2, 3, 3)), np.arange(3) + 0.6
    for raise_it in (lambda: loss(logits, fractional),
                     lambda: backward("cross_entropy", (logits, fractional), np.ones(2))):
        with pytest.raises(ValueError, match="whole numbers"):
            raise_it()


def test_mix_scales_backward_takes_the_inf_planes_its_forward_takes():
    rng = np.random.default_rng(13)
    stacked = rng.standard_normal((2, 4, 3, 3))
    stacked[0, 1, 2, 0] = np.inf
    mix = GroupedMixWeights(rng.standard_normal((2, 2)), rng.standard_normal(2))
    assert mix_scales(stacked, mix).shape == (2, 2, 3, 3)
    up = np.ones((2, 2, 3, 3))
    d_stacked, d_weights, d_bias = backward("mix_scales", (stacked, mix), up)
    assert np.array_equal(d_stacked, np.broadcast_to(mix.weights.reshape(1, 4, 1, 1),
                                                     stacked.shape))
    # the +inf cell contributes 0 to its plane's weight gradient
    assert d_weights[0, 1] == pytest.approx(np.sum(np.delete(stacked[:, 1], 6)), rel=1e-12)
    assert np.isfinite(d_weights).all()
    assert np.array_equal(d_bias, [18.0, 18.0])


def test_multiscale_backward_without_a_mix_is_the_uniform_mix():
    rng = np.random.default_rng(14)
    x = rng.uniform(-3.0, 3.0, (2, 3, 6, 6))
    cfg = LacunarityConfig(method="multiscale", scales=2)
    up = rng.standard_normal(multiscale_lacunarity(x, cfg).shape)
    uniform = backward("multiscale_lacunarity",
                       (x, cfg, GroupedMixWeights.uniform(3, 2)), up)
    for inputs in ((x, cfg), (x, cfg, None)):
        got = backward("multiscale_lacunarity", inputs, up)
        assert len(got) == 3
        for g, want in zip(got, uniform):
            assert g.tobytes() == want.tobytes()


@pytest.mark.parametrize("method", ["base", "multiscale"])
def test_a_window_whose_ratio_is_inf_contributes_zero(method):
    # every 2x2 window sums +-1e10 to 0, so under epsilon 1e-300 its ratio is
    # +inf; the suite's warnings-as-errors setting fails any overflow warning
    x = np.zeros((1, 1, 4, 4))
    x[0, 0, 0::2, 0::2], x[0, 0, 1::2, 0::2] = 1e10, -1e10
    cfg = LacunarityConfig(method=method, epsilon=1e-300, normalize_input=False,
                           window=PoolSpec.square(2, stride=1))
    forward = base_lacunarity if method == "base" else multiscale_lacunarity
    out = forward(x, cfg)
    up = np.ones(out.shape)
    grads = backward(f"{method}_lacunarity", (x, cfg), up)
    if method == "base":
        assert np.all(out == np.inf)
        assert np.array_equal(grads[0], np.zeros(x.shape))
        return
    (d_x, d_weights, d_bias) = grads
    planes = multiscale_scale_planes(x, cfg)
    assert np.isfinite(d_x).all()
    # the mix gradient is the upstream-weighted sum of each plane, whose +inf
    # cells contribute 0: the finest level is +inf throughout
    assert np.all(planes[:, 0] == np.inf) and np.isfinite(planes[:, 1]).all()
    assert d_weights[0, 0] == 0.0
    np.testing.assert_allclose(d_weights[0, 1], planes[:, 1].sum(), rtol=1e-12)
    assert np.array_equal(d_bias, [up.sum()])


@pytest.mark.parametrize("sign", [1.0, -1.0, 0.0])
def test_mix_gradient_over_inf_planes_is_finite_whatever_the_upstream(sign):
    # an upstream cell of 0, or cells of either sign, over +-inf planes once
    # summed inf * 0 or inf - inf to a NaN weight gradient, with no warning
    x = np.zeros((1, 1, 4, 4))
    x[0, 0, 0::2, 0::2], x[0, 0, 1::2, 0::2] = 1e10, -1e10
    cfg = LacunarityConfig(method="multiscale", epsilon=1e-300, normalize_input=False,
                           window=PoolSpec.square(2, stride=1))
    stacked = multiscale_scale_planes(x, cfg)
    mix = GroupedMixWeights.uniform(1, 2)
    up = np.ones((1, 1, 3, 3))
    up[0, 0, 1, 2] = sign
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for op, inputs in (("multiscale_lacunarity", (x, cfg)),
                           ("mix_scales", (stacked, mix))):
            d_weights = backward(op, inputs, up)[-2]
            assert d_weights[0, 0] == 0.0
            assert d_weights[0, 1] == pytest.approx(np.sum(up * stacked[:, 1]), rel=1e-12)


def test_pool_sum_check_is_exact_to_roundoff():
    # linear op: central differences carry no truncation error, so a larger
    # step just shrinks the roundoff share
    x = np.random.default_rng(1).standard_normal((2, 2, 6, 6))
    rep = finite_diff_check("pool_sum", x, seed=1, h=1e-3)
    assert rep.passed and rep.max_rel_error < 1e-9


def test_base_lacunarity_small_window_tight_tolerance():
    x = np.random.default_rng(2).uniform(1.0, 3.0, size=(1, 1, 2, 2))
    cfg = LacunarityConfig(method="base", normalize_input=False)
    rep = finite_diff_check("base_lacunarity", x, seed=2, cfg=cfg)
    assert rep.passed and rep.max_rel_error < 1e-6


def test_multiscale_end_to_end_including_weights():
    x = np.random.default_rng(3).uniform(-3.0, 3.0, size=(2, 2, 6, 6))
    rep = finite_diff_check("multiscale_lacunarity", x, seed=3)
    assert rep.passed
    # gradient covers input, mix weights, and bias coordinates
    assert rep.probe_count == 100


def test_multiscale_vjp_matches_dense_fd_on_weights():
    rng = np.random.default_rng(4)
    x = rng.uniform(-2.0, 2.0, size=(1, 2, 6, 6))
    cfg = LacunarityConfig(method="multiscale", scales=2)
    weights = rng.standard_normal((2, 2))
    bias = rng.standard_normal(2)
    proj = rng.standard_normal((1, 2, 1, 1))

    def loss(w, b):
        out = multiscale_lacunarity(x, cfg, GroupedMixWeights(w, b))
        return float(np.sum(proj * out))

    _, d_w, d_b = vjp_multiscale_lacunarity(
        proj, x, cfg, GroupedMixWeights(weights, bias))
    h = 1e-6
    for idx in np.ndindex(*weights.shape):
        wp, wm = weights.copy(), weights.copy()
        wp[idx] += h
        wm[idx] -= h
        num = (loss(wp, bias) - loss(wm, bias)) / (2 * h)
        assert abs(num - d_w[idx]) < 1e-6 * max(1.0, abs(num))
    for k in range(bias.size):
        bp, bm = bias.copy(), bias.copy()
        bp[k] += h
        bm[k] -= h
        num = (loss(weights, bp) - loss(weights, bm)) / (2 * h)
        assert abs(num - d_b[k]) < 1e-6 * max(1.0, abs(num))


def test_probe_count_covers_all_coords_when_few():
    x = np.random.default_rng(5).standard_normal((1, 1, 2, 2))
    rep = finite_diff_check("gap", x, seed=5)
    assert rep.probe_count == 4


def test_report_pass_flag_tracks_tolerance():
    # at h = 1e-3 the slope's truncation error (relative 6.6e-7) dwarfs its
    # rounding, so the pass flag follows the tolerance
    x = np.random.default_rng(6).uniform(-3.0, 3.0, size=(1, 1, 4, 4))
    loose = finite_diff_check("tanh_scale", x, seed=6, h=1e-3, tol=1e-4)
    tight = finite_diff_check("tanh_scale", x, seed=6, h=1e-3, tol=1e-8)
    assert loose.passed and not tight.passed
    assert loose.max_rel_error == tight.max_rel_error
    # a linear op's slope is exact but for rounding, which passes at any tol
    x = np.random.default_rng(6).standard_normal((1, 1, 4, 4))
    rounding = finite_diff_check("pool_avg", x, seed=6, tol=1e-12)
    assert rounding.passed and rounding.max_rel_error > 1e-12


def test_sabotaged_backward_table_is_caught(monkeypatch):
    original = gradcheck.BACKWARD["tanh_scale"]

    def flipped(upstream, x):
        (g,) = original(upstream, x)
        return (-g,)

    monkeypatch.setitem(gradcheck.BACKWARD, "tanh_scale", flipped)
    x = np.random.default_rng(7).uniform(-3.0, 3.0, size=(1, 1, 4, 4))
    rep = finite_diff_check("tanh_scale", x, seed=7)
    assert not rep.passed


def test_param_count_table_values():
    assert GroupedMixWeights.uniform(512, 2).param_count() == 1536
    assert GroupedMixWeights.uniform(768, 2).param_count() == 2304
    assert GroupedMixWeights.uniform(2208, 2).param_count() == 6624
    with pytest.raises(ValueError):
        GroupedMixWeights.uniform(0, 2)


def test_suite_covers_every_op_and_passes_quickly():
    reports = run_gradient_suite(seeds=range(2))
    assert {r.op_id for r in reports} == set(CHECKED_OPS)
    assert all(r.passed for r in reports)
    assert all(isinstance(r, GradCheckReport) for r in reports)


def test_sabotaged_multiscale_backward_is_caught(monkeypatch):
    # the composed operator's gradient is dispatched through the registry too
    original = gradcheck.BACKWARD["multiscale_lacunarity"]

    def flipped(upstream, *inputs):
        return tuple(-g for g in original(upstream, *inputs))

    monkeypatch.setitem(gradcheck.BACKWARD, "multiscale_lacunarity", flipped)
    x = np.random.default_rng(3).uniform(-3.0, 3.0, size=(2, 2, 6, 6))
    assert not finite_diff_check("multiscale_lacunarity", x, seed=3).passed


def test_a_correct_slope_within_its_rounding_passes():
    # suite seed 41 of the multiscale op: one probe's |a - n| is 2.3e-11 on
    # a 2.2e-7 gradient, a quarter unit of the slope's rounding, so its
    # relative error 1.08e-4 is over the tolerance
    x = np.random.default_rng((7919, 41)).uniform(-3.0, 3.0, size=(2, 2, 6, 6))
    cfg = LacunarityConfig(method="multiscale", scales=2,
                           window=_MULTISCALE_WINDOWS[41 % 3])
    rep = finite_diff_check("multiscale_lacunarity", x, seed=41, cfg=cfg)
    assert rep.passed and rep.max_rel_error > rep.tolerance


@pytest.mark.parametrize("op_id", CHECKED_OPS)
def test_backward_off_by_one_part_in_a_thousand_fails(monkeypatch, op_id):
    # the roundoff allowance leaves the check sharp: a gradient 0.1 % too
    # large fails the op's 20 suite seeds
    original = gradcheck.BACKWARD[op_id]

    def scaled(upstream, *inputs):
        return tuple(g * (1 + 1e-3) for g in original(upstream, *inputs))

    monkeypatch.setitem(gradcheck.BACKWARD, op_id, scaled)
    reports = run_gradient_suite(seeds=range(20))
    assert not all(r.passed for r in reports if r.op_id == op_id)


def test_checked_ops_keep_their_order_and_each_has_a_backward():
    assert CHECKED_OPS == (
        "tanh_scale", "pool_sum", "pool_avg", "pool_max", "base_lacunarity",
        "mix_scales", "upsample_bilinear", "gap", "fusion_head",
        "cross_entropy", "multiscale_lacunarity",
    )
    assert CHECKED_OPS == tuple(gradcheck._OPS)
    assert set(CHECKED_OPS) <= set(gradcheck.BACKWARD)


def _nan_backward(monkeypatch):
    monkeypatch.setitem(gradcheck.BACKWARD, "pool_avg",
                        lambda upstream, x, spec: (np.full(x.shape, np.nan),))


def _nan_forward(monkeypatch):
    real = gradcheck.pool_avg
    monkeypatch.setattr(gradcheck, "pool_avg",
                        lambda x, spec: real(x, spec) * np.nan)


def _inf_forward(monkeypatch):
    # one infinite output cell makes a loss infinite, and so its rounding
    # allowance: the check must still fail on the non-finite slope
    real = gradcheck.pool_avg

    def one_inf(x, spec):
        out = real(x, spec)
        out.flat[0] = np.inf
        return out

    monkeypatch.setattr(gradcheck, "pool_avg", one_inf)


@pytest.mark.parametrize("sabotage", [_nan_backward, _nan_forward, _inf_forward])
def test_non_finite_gradient_or_slope_fails_the_check(monkeypatch, sabotage):
    sabotage(monkeypatch)
    x = np.random.default_rng(6).standard_normal((1, 1, 4, 4))
    rep = finite_diff_check("pool_avg", x, seed=6)
    assert not rep.passed
    assert rep.max_rel_error == math.inf and rep.probe_count > 0


@pytest.mark.parametrize("kwargs", [
    {"probes": 0}, {"probes": -5}, {"tol": 0.0}, {"tol": -1e-4},
    {"tol": math.inf}, {"tol": math.nan}, {"h": 0.0}, {"h": -1e-5},
    {"h": math.inf}, {"h": math.nan},
])
def test_vacuous_rig_arguments_raise(kwargs):
    # a sweep that checks nothing, or cannot fail, must not report a pass
    x = np.random.default_rng(5).standard_normal((1, 1, 2, 2))
    with pytest.raises(ValueError, match="probes|tol|h must"):
        finite_diff_check("gap", x, **kwargs)
    if "h" not in kwargs:
        with pytest.raises(ValueError, match="probes|tol"):
            run_gradient_suite(seeds=[0], **kwargs)


def test_empty_seed_list_raises():
    with pytest.raises(ValueError, match="seeds"):
        run_gradient_suite(seeds=[])


# -------------------------------------------- one-probe-at-a-time reference

_WINDOWS = (PoolSpec.square(2, stride=1), PoolSpec.square(3, stride=2),
            PoolSpec.square(3, stride=1, padding=1))
_MULTISCALE_WINDOWS = (None, PoolSpec.square(2, stride=1),
                       PoolSpec.square(3, stride=3))
_UPSAMPLE_SIZES = ((5, 5), (4, 7), (3, 3))


def _reference_harness(op_id, x, rng, **params):
    """Probed arrays, forward and analytic gradient of one op, one branch each."""
    n, c = x.shape[:2]
    if op_id in ("tanh_scale", "gap"):
        fwd = {"tanh_scale": tanh_scale, "gap": gap}[op_id]
        return [x], lambda a: fwd(a[0]), lambda a, p: backward(op_id, (a[0],), p)
    if op_id in ("pool_sum", "pool_avg", "pool_max"):
        spec = params.get("spec") or PoolSpec.square(2, stride=1)
        fwd = {"pool_sum": pool_sum, "pool_avg": pool_avg, "pool_max": pool_max}[op_id]
        return ([x], lambda a: fwd(a[0], spec),
                lambda a, p: backward(op_id, (a[0], spec), p))
    if op_id == "base_lacunarity":
        cfg = params.get("cfg") or LacunarityConfig(
            method="base", window=PoolSpec.square(2, stride=1))
        return ([x], lambda a: base_lacunarity(a[0], cfg),
                lambda a, p: backward(op_id, (a[0], cfg), p))
    if op_id == "mix_scales":
        weights = rng.standard_normal((c // 2, 2))
        bias = rng.standard_normal(c // 2)
        return ([x, weights, bias],
                lambda a: mix_scales(a[0], GroupedMixWeights(a[1], a[2])),
                lambda a, p: backward(op_id, (a[0], GroupedMixWeights(a[1], a[2])), p))
    if op_id == "upsample_bilinear":
        size = params.get("size") or (5, 5)
        return ([x], lambda a: upsample_bilinear(a[0], *size),
                lambda a, p: backward(op_id, (a[0], *size), p))
    if op_id == "fusion_head":
        # one head of 3 classes mixing 2 scales; the features are not probed
        features = (rng.uniform(0.0, 2.0, size=(1, n, c, 2)), gap(x)[:, :, 0, 0])
        weights = [rng.standard_normal((1, 3, c)) / np.sqrt(c), rng.standard_normal((1, 3)),
                   rng.standard_normal((1, c, 2)), rng.standard_normal((1, c))]
        return (weights, lambda a: _head(*features, *a)[0],
                lambda a, p: backward(op_id, (*features, *a), p))
    if op_id == "cross_entropy":
        # n heads of c rows; a row's logits are its remaining cells
        logits = x.reshape(n, c, -1)
        labels = rng.integers(0, logits.shape[2], size=c)
        return ([logits], lambda a: _cross_entropy(a[0], labels)[0],
                lambda a, p: backward(op_id, (a[0], labels), p))
    assert op_id == "multiscale_lacunarity"
    cfg = params.get("cfg") or LacunarityConfig(method="multiscale", scales=2)
    weights = rng.standard_normal((c, cfg.scales))
    bias = rng.standard_normal(c)
    return ([x, weights, bias],
            lambda a: multiscale_lacunarity(a[0], cfg, GroupedMixWeights(a[1], a[2])),
            lambda a, p: vjp_multiscale_lacunarity(
                p, a[0], cfg, GroupedMixWeights(a[1], a[2])))


def _reference_check(op_id, x, h=1e-5, tol=1e-4, seed=0, probes=100, **params):
    """Probe one coordinate at a time in place, as the sweep is specified.

    Returns the report and the (up, down) losses of every visited probe.
    """
    rng = np.random.default_rng(seed)
    args, f, grad_fn = _reference_harness(op_id, np.asarray(x, float), rng, **params)
    args = [np.array(a, dtype=np.float64) for a in args]
    out = f(args)
    proj = (rng.uniform(0.5, 1.5, size=out.shape)
            * rng.choice([-1.0, 1.0], size=out.shape))

    def loss():
        return float(np.sum(proj * f(args)))

    flat_grads = np.concatenate([np.asarray(g).ravel() for g in grad_fn(args, proj)])
    bounds = np.cumsum([0] + [a.size for a in args])
    total = int(bounds[-1])
    want = min(probes, total)
    base = loss()
    order = rng.permutation(total)
    max_rel = max_abs = 0.0
    checked = resampled = pos = 0
    passed = True
    visited = []
    while checked < want and pos < total:
        coord = order[pos]
        pos += 1
        i = int(np.searchsorted(bounds, coord, side="right") - 1)
        target, off = args[i], coord - bounds[i]
        old = target.flat[off]
        target.flat[off] = old + h
        up = loss()
        target.flat[off] = old - h
        down = loss()
        target.flat[off] = old
        visited.append((up, down))
        numeric = (up - down) / (2.0 * h)
        fwd = (up - base) / h
        bwd = (base - down) / h
        if (abs(fwd - bwd) > 1e-2 * max(1.0, abs(fwd), abs(bwd))
                and resampled < 10 and pos < total):
            resampled += 1
            continue
        analytic = flat_grads[coord]
        abs_err = abs(analytic - numeric)
        scale = max(abs(analytic), abs(numeric), 1e-12)
        max_rel = max(max_rel, abs_err / scale)
        max_abs = max(max_abs, abs_err)
        # relative tolerance plus 16 units of the slope's rounding
        rounding = 16 * np.finfo(float).eps * (abs(up) + abs(down)) / (2 * h)
        passed = passed and abs_err <= tol * scale + rounding
        checked += 1
    report = GradCheckReport(op_id, max_rel, max_abs, checked, tol, passed,
                             resampled)
    return report, visited


def _reference_suite(seeds, probes):
    inputs = {
        "tanh_scale": lambda rng: rng.uniform(-3.0, 3.0, size=(2, 2, 6, 6)),
        "base_lacunarity": lambda rng: rng.uniform(-3.0, 3.0, size=(2, 2, 6, 6)),
        "multiscale_lacunarity": lambda rng: rng.uniform(-3.0, 3.0, size=(2, 2, 6, 6)),
        "mix_scales": lambda rng: rng.standard_normal((2, 4, 5, 5)),
        "upsample_bilinear": lambda rng: rng.standard_normal((2, 2, 3, 3)),
        "fusion_head": lambda rng: rng.uniform(0.0, 2.0, size=(4, 3, 1, 1)),
        "cross_entropy": lambda rng: rng.uniform(-2.0, 2.0, size=(2, 2, 3, 1)),
    }
    results = []
    for op_id in CHECKED_OPS:
        for i, seed in enumerate(seeds):
            rng = np.random.default_rng((7919, seed))
            x = inputs.get(op_id, lambda r: r.standard_normal((2, 2, 6, 6)) * 1.5)(rng)
            params = {}
            if op_id in ("pool_sum", "pool_avg", "pool_max"):
                params["spec"] = _WINDOWS[i % 3]
            elif op_id == "base_lacunarity":
                params["cfg"] = LacunarityConfig(method="base", window=_WINDOWS[i % 3])
            elif op_id == "upsample_bilinear":
                params["size"] = _UPSAMPLE_SIZES[i % 3]
            elif op_id == "multiscale_lacunarity":
                params["cfg"] = LacunarityConfig(
                    method="multiscale", scales=2, window=_MULTISCALE_WINDOWS[i % 3])
            results.append(_reference_check(op_id, x, seed=seed, probes=probes,
                                            **params))
    return results


@pytest.mark.parametrize("seeds, probes", [(range(20), 100), (range(3), 7)])
def test_batched_sweep_equals_one_probe_at_a_time(monkeypatch, seeds, probes):
    # every seed cycle covers all three windows and all three multiscale windows
    captured = []
    real = gradcheck._probe_losses

    def spy(*args):
        losses = real(*args)
        captured.append(losses)
        return losses

    monkeypatch.setattr(gradcheck, "_probe_losses", spy)
    reports = run_gradient_suite(seeds=seeds, probes=probes)
    expected = _reference_suite(seeds, probes)
    assert reports == [report for report, _ in expected]
    for (ups, downs), (_, visited) in zip(captured, expected, strict=True):
        up_ref, down_ref = np.array(visited).T
        assert np.array_equal(ups[:len(visited)], up_ref)
        assert np.array_equal(downs[:len(visited)], down_ref)


def test_byte_budget_split_leaves_the_report_unchanged(monkeypatch):
    x = np.random.default_rng(8).uniform(-3.0, 3.0, size=(2, 2, 6, 6))
    whole = finite_diff_check("multiscale_lacunarity", x, seed=8)
    out = multiscale_lacunarity(x, LacunarityConfig(method="multiscale", scales=2))
    batch_sizes = []
    real = gradcheck.multiscale_lacunarity

    def spy(x, cfg, mix):
        batch_sizes.append(x.shape[0])
        return real(x, cfg, mix)

    monkeypatch.setattr(gradcheck, "multiscale_lacunarity", spy)
    # one probe holds two one-sample copies of x and two assembled outputs
    pair_bytes = 2 * (x.nbytes // len(x) + out.nbytes)
    monkeypatch.setattr(gradcheck, "_PROBE_BATCH_BYTES", 3 * pair_bytes)
    split = finite_diff_check("multiscale_lacunarity", x, seed=8)
    assert split == whole == _reference_check("multiscale_lacunarity", x, seed=8)[0]
    # three probes (six one-sample copies) per stacked forward
    assert max(batch_sizes) == 6
    assert sum(size > 2 for size in batch_sizes) > 1


def test_multiscale_builds_its_planes_once_and_probes_weights_on_the_mix(monkeypatch):
    # few enough coordinates (72 input cells, 2 weights, 1 bias) that all are probed
    x = np.random.default_rng(12).uniform(-3.0, 3.0, size=(2, 1, 6, 6))
    whole_forwards, plane_builds = [], []
    real_op = gradcheck.multiscale_lacunarity
    real_planes = gradcheck.multiscale_scale_planes

    def op_spy(x, cfg, mix):
        whole_forwards.append(x.shape[0])
        return real_op(x, cfg, mix)

    def planes_spy(x, cfg):
        plane_builds.append(x.shape[0])
        return real_planes(x, cfg)

    monkeypatch.setattr(gradcheck, "multiscale_lacunarity", op_spy)
    monkeypatch.setattr(gradcheck, "multiscale_scale_planes", planes_spy)
    rep = finite_diff_check("multiscale_lacunarity", x, seed=12)
    assert plane_builds == [2]
    # whole forwards run only on the ±h copies of the input cells
    assert sum(whole_forwards) == 2 * x.size
    assert rep == _reference_check("multiscale_lacunarity", x, seed=12)[0]


@pytest.mark.parametrize("shape", [(4, 8, 8, 8), (4, 8, 32, 32), (2048, 1, 2, 2)])
def test_no_stacked_forward_exceeds_the_byte_budget(monkeypatch, shape):
    x = np.random.default_rng(9).standard_normal(shape)
    out = pool_sum(x, gradcheck.WINDOW_CONFIGS[0])
    inputs = []
    real = gradcheck.pool_sum

    def spy(x, spec):
        inputs.append(x)
        return real(x, spec)

    monkeypatch.setattr(gradcheck, "pool_sum", spy)
    rep = finite_diff_check("pool_sum", x, seed=9, probes=20)
    budget = gradcheck._PROBE_BATCH_BYTES
    # the base forward and in-place probes get the rig's own copy of x
    stacked = [c for c in inputs if c is not inputs[0]]
    # a stacked forward holds its one-sample copies plus one full output each
    assert all(c.nbytes + len(c) * out.nbytes <= budget for c in stacked)
    # a map whose one-sample pair overruns the budget is probed one copy at a time
    assert bool(stacked) == (2 * (x.nbytes // len(x) + out.nbytes) <= budget)
    # the second map's pair overruns it; the third stacks only as one-sample
    # pairs, since two copies of its whole x overrun it too
    assert bool(stacked) == (shape != (4, 8, 32, 32))
    assert (2 * x.nbytes <= budget) == (shape == (4, 8, 8, 8))
    assert rep == _reference_check("pool_sum", x, seed=9, probes=20)[0]


@pytest.mark.parametrize("op_id", [op_id for op_id, op in gradcheck._OPS.items()
                                   if op.sample_axis])
@pytest.mark.parametrize("cycle", range(3))
def test_each_op_acts_sample_by_sample(op_id, cycle):
    # the rig's one-sample probe copies rest on this, under every suite
    # window: a stack of sample rows gives those samples' rows of the whole
    # forward.  Stacks hold two or more rows, as the rig's ±h pairs do: a
    # lone row can take another BLAS path (a 1-row matmul runs as gemv).
    op = gradcheck._OPS[op_id]
    rng = np.random.default_rng((31, cycle))
    arrays, context = op.setup(op.suite_input(rng), rng, op.suite_params(cycle))
    whole = np.asarray(op.forward(*op.args(arrays, context)))
    picks = [[s, s] for s in range(len(whole))]
    picks += [[1, 0], rng.integers(0, len(whole), size=74)]
    for rows in picks:
        part = [arrays[0][rows], *arrays[1:]]
        assert np.array_equal(np.asarray(op.forward(*op.args(part, context))),
                              whole[rows])


def _sequential_replay(ups, downs, base, analytics, want, total, h):
    """The sweep's coordinate selection, one coordinate at a time."""
    max_rel = max_abs = 0.0
    checked = resampled = pos = 0
    while checked < want and pos < total:
        up, down, analytic = ups[pos], downs[pos], analytics[pos]
        pos += 1
        fwd, bwd = (up - base) / h, (base - down) / h
        if (abs(fwd - bwd) > 1e-2 * max(1.0, abs(fwd), abs(bwd))
                and resampled < 10 and pos < total):
            resampled += 1
            continue
        numeric = (up - down) / (2.0 * h)
        abs_err = abs(analytic - numeric)
        max_rel = max(max_rel, abs_err / max(abs(analytic), abs(numeric), 1e-12))
        max_abs = max(max_abs, abs_err)
        checked += 1
    return max_rel, max_abs, checked, resampled


@pytest.mark.parametrize("shape, probes, kink_rate", [
    ((1, 1, 3, 3), 3, 0.5), ((1, 1, 3, 3), 20, 0.5), ((1, 1, 3, 3), 20, 1.0),
    ((1, 2, 6, 6), 30, 0.2), ((1, 2, 6, 6), 30, 0.6), ((1, 2, 6, 6), 100, 0.3),
])
def test_replay_matches_a_sequential_sweep_over_kinked_losses(monkeypatch, shape,
                                                              probes, kink_rate):
    # kinks land before, between and after the checked coordinates, and on
    # the last one, which is never skipped
    x = np.random.default_rng(13).standard_normal(shape)
    expected = []

    def kinked_losses(op, arrays, context, proj, out, planes, coords, h):
        r = np.random.default_rng(len(coords))
        slope = r.standard_normal(len(coords))
        kink = np.where(r.random(len(coords)) < kink_rate, 5.0, 0.0)
        base = float(np.sum(proj * out))
        ups, downs = base + h * slope, base - h * (slope + kink)
        grads = backward("gap", op.args(arrays, context), proj)[0].ravel()
        expected.append(_sequential_replay(
            ups.tolist(), downs.tolist(), base, grads[coords].tolist(),
            min(probes, x.size), x.size, h))
        return ups, downs

    monkeypatch.setattr(gradcheck, "_probe_losses", kinked_losses)
    rep = finite_diff_check("gap", x, seed=13, probes=probes)
    assert [(rep.max_rel_error, rep.max_abs_error, rep.probe_count,
             rep.resampled)] == expected


def test_kinked_sweep_spends_every_resample_like_the_reference():
    # on a flat map every probe lands on a max-pool tie
    x = np.ones((2, 1, 8, 8))
    rep = finite_diff_check("pool_max", x, seed=11)
    assert rep.resampled == 10
    assert rep == _reference_check("pool_max", x, seed=11)[0]


# 1e77, 1e140, 1e160, and 1e-90, 1e-120 below the map's [1, 2) values
@pytest.mark.parametrize("k", [256, 465, 532, -300, -400])
@pytest.mark.parametrize("op_id", ["base_lacunarity", "multiscale_lacunarity"])
def test_unsquashed_gradient_of_a_huge_map_is_the_scaled_gradient(op_id, k):
    # the ratio of a map scaled by 2^k, epsilon by 2^2k, is the map's, so its
    # input gradient is 2^-k times the map's and its mix gradient the map's;
    # large k takes the sums past 2^255 and, at 532, into the 2^511 rescale,
    # and at negative k the squared denominator would underflow to 0
    rng = np.random.default_rng(abs(k))
    x = rng.uniform(1.0, 2.0, (1, 2, 4, 4))
    eps = 1e-300

    def grads(scale, epsilon):
        cfg = LacunarityConfig(method=op_id.split("_")[0], epsilon=epsilon,
                               window=PoolSpec.square(2, stride=1),
                               normalize_input=False)
        mix = GroupedMixWeights(np.array([[0.3, -0.7], [1.1, 0.4]]), np.zeros(2))
        inputs = (np.ldexp(x, scale), cfg) + ((mix,) if cfg.method == "multiscale" else ())
        return backward(op_id, inputs, np.random.default_rng(1).standard_normal((1, 2, 3, 3)))

    scaled = grads(k, eps)
    plain = grads(0, max(math.ldexp(eps, -2 * k), math.ulp(0.0)))
    assert all(np.isfinite(g).all() for g in scaled)
    np.testing.assert_allclose(scaled[0], np.ldexp(plain[0], -k), rtol=1e-12, atol=0)
    for got, want in zip(scaled[1:], plain[1:]):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


# ------------------------------------------- one pooling walk for both sums

def _two_walk_terms(xx, spec, epsilon):
    """`lacunarity._ratio_terms` with each window sum taken by its own
    `pool_sum` walk over x and over a separate x * x."""
    x = xx[:len(xx) // 2]
    shift = tensor._sum_shift(x, spec.area)
    if shift:
        x = np.ldexp(x, shift)
        epsilon = max(math.ldexp(epsilon, 2 * shift), math.ulp(0.0))
    s1, s2 = pool_sum(x, spec), pool_sum(x * x, spec)
    return x, epsilon, shift, s1, s2, lacunarity._ratio_from_sums(
        spec.area, s1, s2, epsilon)


def _two_walk_vjp(upstream, xx, spec, epsilon):
    """`gradcheck._vjp_variance_ratio` with each sum's upstream scattered by
    its own walk."""
    x, epsilon, shift, s1, s2, ratio = _two_walk_terms(xx, spec, epsilon)
    live = (ratio > 0.0) & (ratio < math.inf)
    denom = np.where(live, s1 * s1 + epsilon, math.inf)
    g = upstream * live
    d_s2 = g * (spec.area / denom)
    d_s1 = g * (-2.0 * spec.area * (s2 / denom) * (s1 / denom))
    h, w = x.shape[2:]
    g = (gradcheck._scatter_pool(d_s1, spec, h, w)
         + 2.0 * x * gradcheck._scatter_pool(d_s2, spec, h, w))
    return np.ldexp(g, shift) if shift else g


def _walk_test_map(kind, seed):
    rng = np.random.default_rng(seed)
    shape = (2, 2, int(rng.integers(4, 10)), int(rng.integers(4, 10)))
    if kind == "ties":  # three levels: many equal cells and flat windows
        return rng.integers(0, 3, shape) * 0.5
    if kind == "negzero":  # -0.0 beside 0.0 and a few ones
        return np.where(rng.random(shape) < 0.2, 1.0, rng.choice([0.0, -0.0], shape))
    if kind == "float32":
        return rng.standard_normal(shape).astype(np.float32)
    if kind == "big":  # x * x near 2^600: no rescale, since x alone is far below it
        return np.ldexp(rng.standard_normal(shape), 300)
    return np.ldexp(rng.standard_normal(shape), 1000)  # "huge": rescaled by 2^k


def _walk_outputs(x, window, normalize):
    """The bytes of every forward and backward that takes both window sums."""
    rng = np.random.default_rng(1)
    base = LacunarityConfig(window=window, normalize_input=normalize)
    ms = LacunarityConfig(method="multiscale", window=window, normalize_input=normalize)
    forwards = [base_lacunarity(x, base), multiscale_scale_planes(x, ms)]
    if window is not None:
        forwards.append(lacunarity.variance_ratio(x, window, 1e-6))
    grads = [*backward("base_lacunarity", (x, base),
                       rng.standard_normal(forwards[0].shape)),
             *backward("multiscale_lacunarity", (x, ms),
                       rng.standard_normal(multiscale_lacunarity(x, ms).shape))]
    return [a.tobytes() for a in forwards + grads]


@pytest.mark.parametrize("kind", ["ties", "negzero", "float32", "big", "huge"])
@pytest.mark.parametrize("window", [None, PoolSpec.square(2, stride=1),
                                    PoolSpec.square(3, stride=1, padding=1)],
                         ids=["global", "2x2", "3x3-pad"])
def test_one_walk_keeps_the_bits_of_two(kind, window, monkeypatch):
    for seed in range(3):
        x = _walk_test_map(kind, seed)
        for normalize in (True, False):
            one_walk = _walk_outputs(x, window, normalize)
            with monkeypatch.context() as m:
                m.setattr(lacunarity, "_ratio_terms", _two_walk_terms)
                m.setattr(gradcheck, "_ratio_terms", _two_walk_terms)
                m.setattr(gradcheck, "_vjp_variance_ratio", _two_walk_vjp)
                assert _walk_outputs(x, window, normalize) == one_walk, (seed, normalize)


@pytest.mark.parametrize("top,shift", [(300, 0), (1000, -497)])
def test_rescale_exponent_reads_x_not_its_square(top, shift):
    # an 8x8 window of cells up to 2^top: x * x reaches 2^(2 top), but only
    # x decides whether the sums need the 2^511 rescale
    x = np.full((1, 1, 8, 8), math.ldexp(1.0, top))
    xx = tensor._feature_rows(x, 2)
    terms = lacunarity._ratio_terms(xx, PoolSpec.square(8), 1e-6)
    assert terms[2] == shift == tensor._sum_shift(x, 64)
    assert np.array_equal(xx[:1], x)  # a rescale goes into a new buffer
