import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lacuna.tensor import (
    GroupedMixWeights,
    PoolSpec,
    ShapeMismatchError,
    elementwise_mul,
    gap,
    mix_scales,
    pool_avg,
    pool_l2,
    pool_max,
    pool_min,
    pool_sum,
    upsample_bilinear,
)

from _reference import ref_bilinear, ref_mix, ref_pool


def fmap(*shape, rng=None, lo=-2.0, hi=2.0):
    rng = rng or np.random.default_rng(0)
    return rng.uniform(lo, hi, size=shape)


def test_pool_sum_whole_window():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    out = pool_sum(x, PoolSpec.square(2, stride=1))
    assert out.shape == (1, 1, 1, 1)
    assert out[0, 0, 0, 0] == 10.0


def test_pool_sum_zeros():
    out = pool_sum(np.zeros((2, 3, 6, 6)), PoolSpec.square(3, stride=2))
    assert np.all(out == 0.0)


def test_pool_sum_matches_oracle_on_4x4():
    rng = np.random.default_rng(7)
    x = fmap(1, 1, 4, 4, rng=rng)
    out = pool_sum(x, PoolSpec.square(2, stride=2))
    ref = ref_pool(x, "sum", 2, 2, 2, 2)
    np.testing.assert_allclose(out, ref, rtol=1e-12)


def test_pool_avg_constant():
    x = np.full((1, 2, 5, 5), 3.25)
    out = pool_avg(x, PoolSpec.square(2, stride=1))
    np.testing.assert_allclose(out, 3.25)


def test_pool_avg_mean_of_window():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    out = pool_avg(x, PoolSpec.square(2))
    assert out[0, 0, 0, 0] == 2.5


def test_pool_avg_matches_oracle_8x8():
    rng = np.random.default_rng(11)
    x = fmap(1, 3, 8, 8, rng=rng)
    out = pool_avg(x, PoolSpec.square(3, stride=2))
    ref = ref_pool(x, "avg", 3, 3, 2, 2)
    np.testing.assert_allclose(out, ref, rtol=1e-12)


def test_pool_max_min_basic():
    x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
    assert pool_max(x, PoolSpec.square(2))[0, 0, 0, 0] == 4.0
    assert pool_min(x, PoolSpec.square(2))[0, 0, 0, 0] == 1.0


def test_pool_max_min_constant():
    x = np.full((1, 1, 4, 4), -1.5)
    spec = PoolSpec.square(2, stride=2)
    assert np.all(pool_max(x, spec) == -1.5)
    assert np.all(pool_min(x, spec) == -1.5)


def test_pool_max_min_dilated_matches_oracle():
    rng = np.random.default_rng(3)
    x = fmap(2, 2, 6, 6, rng=rng)
    spec = PoolSpec.square(2, stride=1, dilation=2)
    np.testing.assert_array_equal(pool_max(x, spec), ref_pool(x, "max", 2, 2, 1, 1, dilation=2))
    np.testing.assert_array_equal(pool_min(x, spec), ref_pool(x, "min", 2, 2, 1, 1, dilation=2))


def test_pool_l2_constant_and_zero():
    assert np.allclose(pool_l2(np.full((1, 1, 4, 4), 2.0), PoolSpec.square(2)), 2.0)
    assert np.all(pool_l2(np.zeros((1, 1, 4, 4)), PoolSpec.square(2)) == 0.0)


def test_pool_l2_rms_definition():
    x = np.array([[3.0, 4.0], [0.0, 0.0]]).reshape(1, 1, 2, 2)
    out = pool_l2(x, PoolSpec.square(2))
    assert out[0, 0, 0, 0] == pytest.approx(2.5, rel=1e-15)


def test_pool_rejects_oversized_window():
    x = np.zeros((1, 1, 3, 3))
    with pytest.raises(ShapeMismatchError):
        pool_sum(x, PoolSpec.square(4))


def test_pool_rejects_nan():
    x = np.zeros((1, 1, 3, 3))
    x[0, 0, 1, 1] = np.nan
    with pytest.raises(ValueError):
        pool_sum(x, PoolSpec.square(2, stride=1))


def test_padding_cap_guards_inf_escape():
    with pytest.raises(ShapeMismatchError):
        PoolSpec.square(2, stride=1, padding=2)
    x = fmap(1, 1, 4, 4)
    out = pool_max(x, PoolSpec.square(3, stride=1, padding=1))
    assert np.isfinite(out).all()
    # within the cap, a non-square or dilated kernel can still leave a window
    # of padding alone: the input is rejected, not pooled to -inf or 0
    one = np.ones((1, 1, 1, 1))
    for spec in (PoolSpec(1, 2, 1, 1, padding=1),
                 PoolSpec.square(2, stride=1, dilation=3, padding=2),
                 # samples on both sides of the map, none on it
                 PoolSpec.square(2, stride=1, dilation=2, padding=1)):
        for pool in (pool_max, pool_sum):
            with pytest.raises(ShapeMismatchError):
                pool(one, spec)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(2, 4), st.integers(2, 4), st.integers(1, 3), st.integers(1, 3),
    st.integers(1, 2), st.integers(0, 1), st.integers(0, 10),
)
def test_pooling_matches_oracle_property(kh, kw, sh, sw, dil, pad, seed):
    eff = dil * (max(kh, kw) - 1) + 1
    pad = min(pad, eff // 2)
    rng = np.random.default_rng(seed)
    h = rng.integers(eff, eff + 5)
    w = rng.integers(eff, eff + 5)
    x = rng.normal(size=(1, 2, h, w))
    spec = PoolSpec(kh, kw, sh, sw, dil, pad)
    for mode, fn in [("sum", pool_sum), ("avg", pool_avg), ("l2", pool_l2)]:
        np.testing.assert_allclose(
            fn(x, spec), ref_pool(x, mode, kh, kw, sh, sw, dil, pad), rtol=1e-12, atol=1e-15
        )
    for mode, fn in [("max", pool_max), ("min", pool_min)]:
        np.testing.assert_array_equal(fn(x, spec), ref_pool(x, mode, kh, kw, sh, sw, dil, pad))


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10))
def test_max_ge_avg_ge_min(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 2, 7, 6))
    spec = PoolSpec.square(3, stride=2)
    mx, av, mn = pool_max(x, spec), pool_avg(x, spec), pool_min(x, spec)
    assert np.all(mx >= av - 1e-12)
    assert np.all(av >= mn - 1e-12)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10), st.floats(-3, 3), st.floats(-3, 3))
def test_pool_sum_linearity(seed, alpha, beta):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(1, 2, 6, 6))
    y = rng.normal(size=(1, 2, 6, 6))
    spec = PoolSpec.square(2, stride=2)
    lhs = pool_sum(alpha * x + beta * y, spec)
    rhs = alpha * pool_sum(x, spec) + beta * pool_sum(y, spec)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_upsample_constant():
    out = upsample_bilinear(np.full((1, 2, 3, 3), 7.0), 5, 9)
    assert out.shape == (1, 2, 5, 9)
    np.testing.assert_allclose(out, 7.0, rtol=1e-12)


def test_upsample_identity():
    x = fmap(1, 2, 4, 5)
    np.testing.assert_allclose(upsample_bilinear(x, 4, 5), x, atol=1e-12)


def test_upsample_ramp_2x2_to_4x4():
    x = np.array([[0.0, 1.0], [0.0, 1.0]]).reshape(1, 1, 2, 2)
    out = upsample_bilinear(x, 4, 4)
    ref = ref_bilinear(x, 4, 4)
    np.testing.assert_allclose(out, ref, atol=1e-15)
    # every row is the same horizontal ramp
    for i in range(4):
        np.testing.assert_allclose(out[0, 0, i], out[0, 0, 0])
    np.testing.assert_allclose(out[0, 0, 0], [0.0, 0.25, 0.75, 1.0], atol=1e-15)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 20), st.integers(1, 9), st.integers(1, 9))
def test_upsample_matches_oracle_and_range(seed, th, tw):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(1, 2, rng.integers(1, 6), rng.integers(1, 6)))
    out = upsample_bilinear(x, th, tw)
    np.testing.assert_allclose(out, ref_bilinear(x, th, tw), atol=1e-12)
    assert out.min() >= x.min() - 1e-12
    assert out.max() <= x.max() + 1e-12


def test_mix_scales_identity():
    x = fmap(2, 3, 4, 4)
    out = mix_scales(x, GroupedMixWeights.uniform(3, 1))
    np.testing.assert_allclose(out, x, rtol=1e-15)


def test_mix_scales_bias_only():
    x = fmap(1, 4, 3, 3)
    mix = GroupedMixWeights(np.zeros((2, 2)), np.array([5.0, -1.0]))
    out = mix_scales(x, mix)
    np.testing.assert_allclose(out[:, 0], 5.0)
    np.testing.assert_allclose(out[:, 1], -1.0)


def test_mix_scales_matches_dot_product_oracle():
    rng = np.random.default_rng(5)
    x = fmap(1, 4, 3, 3, rng=rng)
    mix = GroupedMixWeights(rng.normal(size=(2, 2)), rng.normal(size=2))
    np.testing.assert_allclose(
        mix_scales(x, mix), ref_mix(x, mix.weights, mix.bias), rtol=1e-12, atol=1e-14
    )


@pytest.mark.parametrize("s", [1, 3, 9])
def test_mix_scales_sums_each_cell_in_scale_order(s):
    # from +0.0, product by product, then the bias: the same bits for a cell
    # whether it stands alone or in a larger map
    rng = np.random.default_rng(s)
    planes = rng.normal(size=(1, s, 3, 3)) * 10.0 ** rng.integers(-8, 9, (1, s, 3, 3))
    planes[0, :, 0, 0] = -0.0
    mix = GroupedMixWeights(rng.normal(size=(1, s)), np.array([-0.0]))
    out = mix_scales(planes, mix)
    for i in range(3):
        for j in range(3):
            acc = 0.0
            for k in range(s):
                acc += float(mix.weights[0, k]) * float(planes[0, k, i, j])
            acc += -0.0
            alone = mix_scales(planes[:, :, i:i + 1, j:j + 1], mix)
            assert out[0, 0, i, j].tobytes() == np.float64(acc).tobytes()
            assert alone.tobytes() == out[:, :, i:i + 1, j:j + 1].tobytes()


@settings(deadline=None, max_examples=50)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 4),
       st.integers(1, 6), st.integers(1, 6), st.integers(0, 10_000))
def test_gap_commutes_with_mix(n, c, s, h, w, seed):
    # the mix is per-channel linear over scales with a spatially constant bias
    rng = np.random.default_rng(seed)
    planes = rng.normal(size=(n, c * s, h, w)) * rng.uniform(0.1, 100.0)
    mix = GroupedMixWeights(rng.normal(size=(c, s)), rng.normal(size=c))
    lhs = gap(mix_scales(planes, mix))
    rhs = mix_scales(gap(planes), mix)
    scale = (np.abs(planes).max() * np.abs(mix.weights).sum(axis=1).max()
             + np.abs(mix.bias).max())
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12 * scale)


@settings(deadline=None, max_examples=50)
@given(st.integers(1, 3), st.integers(1, 4), st.integers(1, 6),
       st.integers(1, 5), st.integers(1, 5), st.integers(0, 10_000))
def test_uniform_mix_of_identical_planes_is_identity(n, c, s, h, w, seed):
    x = np.random.default_rng(seed).normal(size=(n, c, h, w))
    stacked = np.repeat(x, s, axis=1)  # channel c's S planes all equal x[:, c]
    out = mix_scales(stacked, GroupedMixWeights.uniform(c, s))
    np.testing.assert_allclose(out, x, rtol=1e-12, atol=0.0)


def test_mix_scales_channel_mismatch():
    with pytest.raises(ShapeMismatchError):
        mix_scales(fmap(1, 5, 2, 2), GroupedMixWeights.uniform(2, 2))


def test_mix_scales_passes_inf_and_rejects_nan():
    planes = np.ones((1, 2, 1, 2))
    planes[0, 0, 0, 0] = np.inf
    out = mix_scales(planes, GroupedMixWeights.uniform(1, 2))
    assert out[0, 0, 0, 0] == np.inf and out[0, 0, 0, 1] == 1.0
    planes[0, 1, 0, 1] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        mix_scales(planes, GroupedMixWeights.uniform(1, 2))


@settings(deadline=None, max_examples=30)
@given(st.integers(1, 6), st.integers(1, 4))
def test_mix_param_count(c, s):
    mix = GroupedMixWeights.uniform(c, s)
    assert mix.param_count() == c * s + c


def test_elementwise_mul_identities():
    x = fmap(1, 2, 3, 3)
    np.testing.assert_array_equal(elementwise_mul(x, np.ones_like(x)), x)
    assert np.all(elementwise_mul(x, np.zeros_like(x)) == 0.0)


def test_elementwise_mul_broadcast():
    rng = np.random.default_rng(9)
    a = fmap(1, 2, 3, 3, rng=rng)
    b = fmap(1, 2, 1, 1, rng=rng)
    out = elementwise_mul(a, b)
    for ch in range(2):
        np.testing.assert_allclose(out[0, ch], a[0, ch] * b[0, ch, 0, 0], rtol=1e-15)


def test_elementwise_mul_shape_error():
    with pytest.raises(ShapeMismatchError):
        elementwise_mul(fmap(1, 2, 3, 3), fmap(1, 2, 2, 2))
    with pytest.raises(ShapeMismatchError):
        elementwise_mul(fmap(1, 2, 3, 3), fmap(1, 3, 1, 1))
