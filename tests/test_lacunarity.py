import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lacuna import lacunarity, tensor
from lacuna.lacunarity import (
    LacunarityConfig,
    PyramidDepthError,
    base_lacunarity,
    blur_binomial5,
    box_index,
    dbc_column_heights,
    dbc_lacunarity,
    dbc_plane,
    dbc_scale_planes,
    gaussian_pyramid,
    multiscale_lacunarity,
    multiscale_scale_planes,
    tanh_scale,
    variance_ratio,
)
from lacuna.tensor import (
    GroupedMixWeights,
    PoolSpec,
    mix_scales,
    pool_avg,
    pool_l2,
    pool_max,
    pool_sum,
)

from _reference import (
    ref_blur_decimate,
    ref_bilinear,
    ref_box_index,
    ref_dbc_heights,
    ref_dbc_lacunarity_plane,
    ref_mix,
    ref_variance_ratio,
)


def _maps(seed, n=1, c=1, h=6, w=6, lo=1.0, hi=255.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(lo, hi, size=(n, c, h, w))


# ---------------------------------------------------------------- tanh_scale

def test_tanh_scale_fixed_points():
    x = np.zeros((1, 1, 1, 1))
    assert tanh_scale(x)[0, 0, 0, 0] == 127.5
    lo = tanh_scale(np.full((1, 1, 1, 1), -40.0))[0, 0, 0, 0]
    hi = tanh_scale(np.full((1, 1, 1, 1), 40.0))[0, 0, 0, 0]
    assert abs(lo - 0.0) < 1e-12
    assert abs(hi - 255.0) < 1e-12


def test_tanh_scale_monotone_and_bounded():
    grid = np.linspace(-5, 5, 401).reshape(1, 1, 1, -1)
    y = tanh_scale(grid)[0, 0, 0]
    assert np.all(np.diff(y) > 0)
    assert y.min() > 0.0 and y.max() < 255.0


# ---------------------------------------------------------- gliding-box form

def test_variance_ratio_worked_window():
    # window [1, 1, 1, 3]: mean 1.5, variance 0.75 -> ratio 1/3
    x = np.array([1.0, 1.0, 1.0, 3.0]).reshape(1, 1, 2, 2)
    out = variance_ratio(x, PoolSpec.square(2), epsilon=1e-6)
    assert out.shape == (1, 1, 1, 1)
    assert abs(out[0, 0, 0, 0] - 1.0 / 3.0) < 1e-6


def test_variance_ratio_of_huge_values_matches_prescaled_map():
    # squares of these overflow; the ratio is scale-free, so it must equal
    # var/mean^2 of the same map brought down to ordinary magnitudes
    x = np.array([1e200, 2e200, 3e200, 1.5e200]).reshape(1, 1, 2, 2)
    small = x * 2.0 ** -700
    expected = np.var(small) / np.mean(small) ** 2
    cfg = LacunarityConfig(method="base", normalize_input=False)
    out = base_lacunarity(x, cfg)
    assert np.isfinite(out).all()
    assert out[0, 0, 0, 0] == pytest.approx(expected, rel=1e-12)
    assert variance_ratio(x, PoolSpec.square(2), 1e-6)[0, 0, 0, 0] \
        == pytest.approx(expected, rel=1e-12)


def test_zero_mean_huge_window_overflows_to_inf_without_a_warning():
    # the window sum cancels to 0 while the rescaled epsilon is a denormal,
    # so the ratio overflows: the documented result is +inf, silently
    x = np.array([[[[1e300, -1e300], [1e300, -1e300]]]])
    cfg = LacunarityConfig(normalize_input=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = base_lacunarity(x, cfg)
    assert out.shape == (1, 1, 1, 1) and out[0, 0, 0, 0] == np.inf


def test_variance_ratio_rescaled_input_keeps_zero_windows_at_zero():
    x = np.array([1e308, 1.7e308, 0.0, 0.0, -1e308, 5e307]).reshape(1, 1, 3, 2)
    out = variance_ratio(x, PoolSpec(1, 2, 1, 1), epsilon=1e-300)
    small = x * 2.0 ** -1000
    rows = [np.var(r) / np.mean(r) ** 2 for r in small[0, 0][[0, 2]]]
    assert out[0, 0, 1, 0] == 0.0
    assert out[0, 0, [0, 2], 0] == pytest.approx(rows, rel=1e-12)


def test_variance_ratio_agrees_across_the_rescale_limit():
    # 16 cells of magnitude [0.5, 1) * 2^k: k = 506 keeps n * max|x| under
    # 2^511 and the plain arithmetic, k = 508 is rescaled; epsilon is below
    # an ulp of either denominator, so both must give the same bits
    x = np.random.default_rng(5).uniform(0.5, 1.0, size=(1, 2, 4, 4))
    spec = PoolSpec.global_window(4, 4)
    below = variance_ratio(x * 2.0 ** 506, spec, 1e-6)
    above = variance_ratio(x * 2.0 ** 508, spec, 1e-6)
    assert np.array_equal(below, above)
    assert np.all(below > 0.0)


def _binary_scaled_map(rng, shape, top):
    """Signed values with exponents in [top - 30, top], some of them zero."""
    x = np.ldexp(rng.uniform(0.5, 1.0, size=shape),
                 rng.integers(top - 30, top + 1, size=shape))
    x *= rng.choice([-1.0, 1.0], size=shape)
    x[rng.random(shape) < 0.15] = 0.0
    return x


# Scaling x by 2^k and epsilon by 2^2k scales every sum in the ratio by
# 2^2k (after the rescale for huge inputs, which is itself a power of two),
# and power-of-two scaling commutes with rounding while all values stay
# normal, so the ratio keeps its bits.  The exponents drawn here keep the
# squares, cancelled sums and epsilon normal and finite on both sides.
@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), top=st.integers(-350, 540),
       data=st.data())
def test_variance_ratio_is_exactly_invariant_to_binary_scaling(seed, top, data):
    n, c, h, w = (data.draw(st.integers(1, hi)) for hi in (2, 2, 6, 6))
    x = _binary_scaled_map(np.random.default_rng(seed), (n, c, h, w), top)
    spec = PoolSpec(data.draw(st.integers(1, h)), data.draw(st.integers(1, w)),
                    data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))
    k = data.draw(st.integers(-350 - top, 540 - top))
    # epsilon near 2^(2 top + r): up to the squared sums where that fits
    r = min(data.draw(st.integers(-120, 8)), 1020 - 2 * max(top, top + k))
    eps = math.ldexp(data.draw(st.floats(1.0, 2.0, exclude_max=True)), 2 * top + r)
    assert np.array_equal(
        variance_ratio(np.ldexp(x, k), spec, math.ldexp(eps, 2 * k)),
        variance_ratio(x, spec, eps))


@pytest.mark.parametrize(
    "top,k,rescaled",
    [
        (500, 6, (False, True)),
        (506, -6, (True, False)),
        (200, 306, (False, True)),
        (506, 1, (True, True)),
    ],
)
def test_binary_scaling_invariance_across_the_rescale_limit(top, k, rescaled):
    # peak 0.9375 * 2^top over a 6x6 global window: n * max|x| reaches the
    # 2^511 rescale limit from top = 506 on.  Epsilon is near the squared
    # window sum, so it moves the ratio: a rescale that scaled epsilon by
    # anything but the square of its factor would change the bits
    x = np.abs(_binary_scaled_map(np.random.default_rng(top), (1, 3, 6, 6), top - 1))
    x[0, :, 0, 0] = math.ldexp(0.9375, top)
    spec = PoolSpec.global_window(6, 6)
    eps = math.ldexp(1.0, 2 * top + 2)
    assert tuple(spec.area * np.abs(m).max() >= 2.0 ** tensor._SUM_LIMIT_EXP
                 for m in (x, np.ldexp(x, k))) == rescaled
    plain = variance_ratio(x, spec, eps)
    assert np.all(plain > 0.0)
    assert np.array_equal(
        variance_ratio(np.ldexp(x, k), spec, math.ldexp(eps, 2 * k)), plain)


def test_base_lacunarity_constant_map_is_zero():
    cfg = LacunarityConfig(method="base", window=PoolSpec.square(3, stride=1),
                           normalize_input=False)
    out = base_lacunarity(np.full((2, 3, 7, 7), 42.0), cfg)
    assert np.all(out == 0.0)


def test_base_lacunarity_global_window_default():
    x = _maps(0, n=2, c=3, h=5, w=4)
    cfg = LacunarityConfig(method="base", normalize_input=False)
    out = base_lacunarity(x, cfg)
    assert out.shape == (2, 3, 1, 1)
    ref = ref_variance_ratio(x, 5, 4, 5, 4)
    assert np.allclose(out, ref, rtol=1e-6, atol=1e-5)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    kernel=st.integers(2, 4),
    stride=st.integers(1, 3),
    h=st.integers(4, 9),
    w=st.integers(4, 9),
)
def test_base_lacunarity_matches_oracle(seed, kernel, stride, h, w):
    x = _maps(seed, n=2, c=2, h=h, w=w)
    cfg = LacunarityConfig(
        method="base",
        window=PoolSpec.square(kernel, stride=stride),
        normalize_input=False,
    )
    out = base_lacunarity(x, cfg)
    ref = np.maximum(ref_variance_ratio(x, kernel, kernel, stride, stride), 0.0)
    assert np.allclose(out, ref, rtol=1e-6, atol=1e-5)


def test_base_lacunarity_normalized_path_composes():
    x = _maps(3, lo=-4.0, hi=4.0)
    cfg = LacunarityConfig(method="base", window=PoolSpec.square(2, stride=2))
    direct = base_lacunarity(x, cfg)
    squashed = (np.tanh(x) + 1.0) / 2.0 * 255.0
    ref = np.maximum(ref_variance_ratio(squashed, 2, 2, 2, 2), 0.0)
    assert np.allclose(direct, ref, rtol=1e-6, atol=1e-5)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       alpha=st.floats(0.5, 8.0, allow_nan=False))
def test_base_lacunarity_scale_invariant(seed, alpha):
    x = _maps(seed, h=6, w=6)
    cfg = LacunarityConfig(method="base", window=PoolSpec.square(3, stride=1),
                           normalize_input=False)
    assert np.allclose(base_lacunarity(alpha * x, cfg), base_lacunarity(x, cfg),
                       rtol=1e-6, atol=1e-5)


def _finite_maps():
    """Small (N, C, H, W) float64 maps of any finite values."""
    shapes = st.tuples(st.integers(1, 2), st.integers(1, 2),
                       st.integers(1, 6), st.integers(1, 6))
    return hnp.arrays(np.float64, shapes, elements=st.floats(
        allow_nan=False, allow_infinity=False))


def _windows(x, data):
    """A stride-1 gliding window drawn to fit x, then the global window."""
    h, w = x.shape[2:]
    gliding = PoolSpec(data.draw(st.integers(1, h)),
                       data.draw(st.integers(1, w)), 1, 1)
    return gliding, PoolSpec.global_window(h, w)


@settings(max_examples=60, deadline=None)
@given(x=_finite_maps(), data=st.data())
def test_base_lacunarity_is_nonnegative_on_finite_input(x, data):
    for window in _windows(x, data):
        cfg = LacunarityConfig(method="base", window=window)
        assert np.all(base_lacunarity(x, cfg) >= 0.0)


# without the tanh squashing the window sums square the raw values, up to
# the largest finite floats
@settings(max_examples=60, deadline=None)
@given(x=_finite_maps(), data=st.data())
def test_unnormalized_base_lacunarity_is_nonnegative(x, data):
    for window in _windows(x, data):
        cfg = LacunarityConfig(method="base", window=window,
                               normalize_input=False)
        assert np.all(base_lacunarity(x, cfg) >= 0.0)


@settings(max_examples=60, deadline=None)
@given(x=_finite_maps(), data=st.data())
def test_base_lacunarity_and_pool_max_commute_with_flips(x, data):
    for spec in _windows(x, data):
        cfg = LacunarityConfig(method="base", window=spec)
        lac = base_lacunarity(x, cfg)
        top = pool_max(x, spec)
        for axis in (2, 3):
            flipped = np.flip(x, axis=axis)
            # the window sums run in another order, so only rounding differs
            np.testing.assert_allclose(base_lacunarity(flipped, cfg),
                                       np.flip(lac, axis=axis),
                                       rtol=1e-9, atol=1e-12)
            assert np.array_equal(pool_max(flipped, spec),
                                  np.flip(top, axis=axis))


def test_base_lacunarity_rejects_wrong_method():
    with pytest.raises(ValueError):
        base_lacunarity(_maps(0), LacunarityConfig(method="dbc"))


# ------------------------------------------------------------- box counting

def test_box_index_examples():
    assert box_index(np.array(5.0), 10) == 1.0
    assert box_index(np.array(35.0), 10) == 4.0
    assert box_index(np.array(0.0), 3) == 1.0
    assert ref_box_index(5, 10) == 1
    assert ref_box_index(35, 10) == 4


def test_column_heights_worked_window():
    # dilation-10 3x3 window whose min is 5 and max 35: boxes 1 and 4 -> 2
    x = np.full((1, 1, 21, 21), 20.0)
    x[0, 0, 0, 0] = 5.0
    x[0, 0, 10, 10] = 35.0
    heights = dbc_column_heights(x, r=10, window=PoolSpec.square(3, stride=1))
    assert heights.shape == (1, 1, 21, 21)
    # the center window samples rows/cols {0, 10, 20}, catching both extremes
    assert heights[0, 0, 10, 10] == 2.0


def test_column_heights_flat_window_and_clamp():
    x = np.full((1, 1, 5, 5), 100.0)
    spec = PoolSpec.square(3, stride=1)
    raw = dbc_column_heights(x, r=4, window=spec)
    assert np.all(raw == -1.0)
    clamped = dbc_column_heights(x, r=4, window=spec, clamp_heights=True)
    assert np.all(clamped == 1.0)


def test_column_heights_rejects_even_or_nonsquare_windows():
    x = _maps(0)
    with pytest.raises(ValueError):
        dbc_column_heights(x, r=1, window=PoolSpec.square(2))
    with pytest.raises(ValueError):
        dbc_column_heights(x, r=1, window=PoolSpec(3, 5, 1, 1))
    with pytest.raises(ValueError):
        dbc_column_heights(x, r=0, window=PoolSpec.square(3))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    r=st.integers(1, 4),
    stride=st.integers(1, 2),
    h=st.integers(5, 9),
    w=st.integers(5, 9),
)
def test_column_heights_match_oracle(seed, r, stride, h, w):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 256, size=(1, 2, h, w)).astype(np.float64)
    heights = dbc_column_heights(x, r=r, window=PoolSpec.square(3, stride=stride))
    ref = ref_dbc_heights(x, r, 3, stride)
    assert np.array_equal(heights, ref)
    # heights are integers in [-1, number of boxes spanning 0..255]
    assert np.all(heights == np.floor(heights))
    assert heights.min() >= -1.0
    assert heights.max() <= np.floor(255.0 / r) + 1.0


def _plane(x, r, window, epsilon):
    """dbc_plane of one dilation's masses under a stride-1 unpadded window."""
    heights = dbc_column_heights(x, r, window)
    return dbc_plane(pool_sum(heights, window), window.area, epsilon)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), r=st.integers(1, 4))
def test_dbc_plane_matches_oracle(seed, r):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 256, size=(1, 2, 7, 7)).astype(np.float64)
    lib = _plane(x, r, PoolSpec.square(3, stride=1), 1e-6)
    ref = ref_dbc_lacunarity_plane(x, r, 3, 1, 1e-6)
    assert np.allclose(lib, ref, rtol=1e-12, atol=1e-12)


def test_dbc_scale_planes_layout():
    x = _maps(5, n=1, c=2, h=7, w=7, lo=-3.0, hi=3.0)
    cfg = LacunarityConfig(method="dbc", window=PoolSpec.square(3, stride=1),
                           dilation_set=(1, 2, 3))
    planes = dbc_scale_planes(x, cfg)
    assert planes.shape[1] == 2 * 3
    xs = tanh_scale(x)
    for c in range(2):
        for ri, r in enumerate((1, 2, 3)):
            single = _plane(xs[:, c:c + 1], r, cfg.window, cfg.epsilon)
            assert np.array_equal(planes[:, c * 3 + ri], single[:, 0])


def test_dbc_lacunarity_single_dilation_is_identity_mix():
    x = _maps(6, n=2, c=3, h=7, w=7, lo=-2.0, hi=2.0)
    cfg = LacunarityConfig(method="dbc", window=PoolSpec.square(3, stride=1),
                           dilation_set=(2,))
    out = dbc_lacunarity(x, cfg)
    raw = _plane(tanh_scale(x), 2, cfg.window, cfg.epsilon)
    assert out.shape == raw.shape
    assert np.allclose(out, raw, rtol=0, atol=0)


def test_dbc_lacunarity_default_mix_averages_dilations():
    x = _maps(7, n=1, c=2, h=9, w=9, lo=-2.0, hi=2.0)
    cfg = LacunarityConfig(method="dbc", window=PoolSpec.square(3, stride=1),
                           dilation_set=(1, 2, 3))
    out = dbc_lacunarity(x, cfg)
    planes = dbc_scale_planes(x, cfg)
    manual = planes.reshape(1, 2, 3, *planes.shape[2:]).mean(axis=2)
    assert out.shape == (1, 2, *planes.shape[2:])
    assert np.allclose(out, manual, rtol=1e-12, atol=1e-12)


def test_dbc_output_dims_shared_across_dilations():
    # identity padding keeps the heights grid size independent of r
    x = _maps(8, h=11, w=11)
    for stride in (1, 2):
        spec = PoolSpec.square(3, stride=stride)
        shapes = {
            dbc_column_heights(x, r, spec).shape for r in (1, 2, 3, 5)
        }
        assert len(shapes) == 1


# ------------------------------------------------------------------- pyramid

def test_blur_preserves_constant_maps():
    x = np.full((1, 2, 6, 5), 3.25)
    assert np.allclose(blur_binomial5(x), x, rtol=0, atol=1e-12)


def test_reflect_index_is_shared_and_read_only():
    # the blur and its adjoint share one cached index per axis length
    index = lacunarity._reflect_index(5)
    assert index is lacunarity._reflect_index(5)
    assert index.tolist() == [2, 1, 0, 1, 2, 3, 4, 3, 2]
    with pytest.raises(ValueError, match="read-only"):
        index[0] = 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       h=st.integers(1, 8), w=st.integers(1, 8))
def test_blur_decimate_matches_oracle(seed, h, w):
    x = _maps(seed, n=1, c=2, h=h, w=w, lo=-5.0, hi=5.0)
    lib = blur_binomial5(x)[:, :, ::2, ::2]
    assert np.allclose(lib, ref_blur_decimate(x), rtol=1e-12, atol=1e-12)


def test_pyramid_level_dims():
    x = _maps(0, h=7, w=5)
    levels = gaussian_pyramid(x, 3)
    assert [lv.shape[2:] for lv in levels] == [(7, 5), (4, 3), (2, 2)]
    assert np.array_equal(levels[0], x)


def test_pyramid_depth_errors():
    x = _maps(0, h=7, w=5)
    with pytest.raises(PyramidDepthError):
        gaussian_pyramid(x, 4)  # needs dims >= 8
    with pytest.raises(PyramidDepthError):
        gaussian_pyramid(x, 0)
    assert len(gaussian_pyramid(x, 1)) == 1


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), levels=st.integers(1, 3))
def test_pyramid_range_containment(seed, levels):
    x = _maps(seed, h=9, w=9, lo=-7.0, hi=11.0)
    for lv in gaussian_pyramid(x, levels):
        assert lv.min() >= x.min() - 1e-12
        assert lv.max() <= x.max() + 1e-12


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), levels=st.integers(2, 4),
       n=st.integers(1, 2), c=st.integers(1, 2),
       h=st.integers(8, 21), w=st.integers(8, 21))
def test_pyramid_levels_are_the_blurred_finer_level_decimated(seed, levels,
                                                               n, c, h, w):
    # the pyramid sums only the kept cells, in the full blur's tap order
    x = _maps(seed, n=n, c=c, h=h, w=w, lo=-9.0, hi=9.0)
    pyramid = gaussian_pyramid(x, levels)
    for finer, level in zip(pyramid, pyramid[1:]):
        want = blur_binomial5(finer)[:, :, ::2, ::2]
        assert level.shape == want.shape
        assert level.tobytes() == want.tobytes()


# ------------------------------------------------------------------- heatmap

@st.composite
def _gliding_cases(draw):
    """A map a few rows past the smallest its gliding base or dbc window
    fits, the config, and the config's total row stride."""
    n, c = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    stride = draw(st.integers(1, 3))
    if draw(st.booleans()):
        k = draw(st.sampled_from([1, 3, 5]))
        dilations = tuple(sorted(draw(st.sets(st.integers(1, 3), min_size=1))))
        cfg = LacunarityConfig(method="dbc", window=PoolSpec.square(k, stride=stride),
                               dilation_set=dilations)
        # the glide pool needs k heights rows, each `stride` input rows apart
        min_h = min_w = (k - 1) * stride + 1
        step = stride * stride
    else:
        window = PoolSpec(draw(st.integers(1, 4)), draw(st.integers(1, 4)),
                          stride, draw(st.integers(1, 3)))
        cfg = LacunarityConfig(window=window, normalize_input=draw(st.booleans()))
        min_h, min_w, step = window.kernel_h, window.kernel_w, stride
    shape = (n, c, min_h + draw(st.integers(0, 8)), min_w + draw(st.integers(0, 3)))
    # unbounded values: tanh saturates, and an unsquashed base map runs whole
    x = draw(hnp.arrays(np.float64, shape, elements=st.floats(
        allow_nan=False, allow_infinity=False)))
    return x, cfg, step


_BIG = np.finfo(np.float64).max


@pytest.mark.parametrize("rows", [1, 2, 3])
@settings(max_examples=60, deadline=None)
@given(case=_gliding_cases())
# the window's squares overflow, so its plane is the documented +inf
@example(case=(np.array([[[[_BIG, -_BIG]]]]),
               LacunarityConfig(window=PoolSpec(1, 2), normalize_input=False), 1))
def test_heatmap_strips_equal_the_one_pass_map(rows, case):
    x, cfg, step = case
    n, c, _, w = x.shape
    want = mix_scales(lacunarity.scale_planes(x, cfg),
                      GroupedMixWeights.uniform(c, cfg.scale_count))
    with mock.patch.object(lacunarity, "_STRIP_CELLS", rows * n * c * w * step):
        got = lacunarity.heatmap(x, cfg)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("cfg, strips, slab_rows", [
    # 18 output rows in strips of 2; a dbc slab adds the glide pool's 2 rows
    # and the dilation-3 extremes' 3 above and below, a base slab 2 rows
    (LacunarityConfig(method="dbc"), 9, 2 + 8),
    (LacunarityConfig(window=PoolSpec.square(3, stride=1)), 9, 2 + 2),
    # a whole-map window, and a pyramid that upsamples to the whole map
    (LacunarityConfig(), 1, 20),
    (LacunarityConfig(method="multiscale", window=PoolSpec.square(3, stride=1)),
     1, 20),
], ids=["dbc", "base-gliding", "base-global", "multiscale"])
def test_heatmap_runs_gliding_windows_in_strips(monkeypatch, cfg, strips,
                                                 slab_rows):
    x = _maps(5, n=1, c=2, h=20, w=7)
    slabs = []

    def counted(x, cfg):
        slabs.append(x.shape[2])
        return scale_planes(x, cfg)

    scale_planes = lacunarity.scale_planes
    monkeypatch.setattr(lacunarity, "scale_planes", counted)
    monkeypatch.setattr(lacunarity, "_STRIP_CELLS", 2 * 2 * 7)
    got = lacunarity.heatmap(x, cfg)
    assert len(slabs) == strips
    assert max(slabs) == slab_rows
    assert got.tobytes() == lacunarity._mixed(scale_planes(x, cfg), cfg, None).tobytes()


# ---------------------------------------------------------------- multiscale

def test_multiscale_single_scale_collapses_to_base():
    x = _maps(9, n=2, c=3, h=6, w=6, lo=-3.0, hi=3.0)
    for window in (None, PoolSpec.square(2, stride=2)):
        ms_cfg = LacunarityConfig(method="multiscale", window=window, scales=1)
        base_cfg = LacunarityConfig(method="base", window=window)
        mix = GroupedMixWeights.uniform(3, 1)
        out = multiscale_lacunarity(x, ms_cfg, mix)
        ref = base_lacunarity(x, base_cfg)
        assert np.array_equal(out, ref)


def test_multiscale_matches_composed_oracle():
    x = _maps(10, n=1, c=2, h=8, w=8, lo=-2.0, hi=2.0)
    cfg = LacunarityConfig(method="multiscale", scales=2)
    mix = GroupedMixWeights(np.array([[0.25, 0.75], [1.0, -0.5]]),
                            np.array([0.1, -0.2]))
    out = multiscale_lacunarity(x, cfg, mix)

    xs = (np.tanh(x) + 1.0) / 2.0 * 255.0
    lvl2 = ref_blur_decimate(xs)
    l1 = ref_variance_ratio(xs, 8, 8, 8, 8)
    l2 = ref_bilinear(ref_variance_ratio(lvl2, 4, 4, 4, 4), 1, 1)
    stacked = np.stack([l1, l2], axis=2).reshape(1, 4, 1, 1)
    ref = ref_mix(stacked, mix.weights, mix.bias)
    assert np.allclose(out, ref, rtol=1e-9, atol=1e-9)


def test_multiscale_planes_are_scale_major():
    x = _maps(11, n=1, c=2, h=8, w=8)
    cfg = LacunarityConfig(method="multiscale", scales=2,
                           window=PoolSpec.square(2, stride=2))
    planes = multiscale_scale_planes(x, cfg)
    assert planes.shape == (1, 4, 4, 4)
    # channel 0's pair first, then channel 1's pair
    xs = tanh_scale(x)
    l1 = variance_ratio(xs, PoolSpec.square(2, stride=2), cfg.epsilon)
    assert np.array_equal(planes[:, 0], l1[:, 0])
    assert np.array_equal(planes[:, 2], l1[:, 1])


def test_multiscale_rejects_mismatched_mix():
    x = _maps(12, n=1, c=2, h=8, w=8)
    cfg = LacunarityConfig(method="multiscale", scales=2)
    with pytest.raises(ValueError):
        multiscale_lacunarity(x, cfg, GroupedMixWeights.uniform(2, 3))
    with pytest.raises(ValueError):
        multiscale_lacunarity(x, cfg, GroupedMixWeights.uniform(5, 2))


def test_dbc_rejects_mismatched_mix():
    # a (3, 2) mix has the C*S = 6 planes of a 2-channel, 3-dilation input
    x = _maps(12, n=1, c=2, h=6, w=6)
    cfg = LacunarityConfig(method="dbc", dilation_set=(1, 2, 3))
    with pytest.raises(ValueError):
        dbc_lacunarity(x, cfg, GroupedMixWeights.uniform(3, 2))
    with pytest.raises(ValueError):
        dbc_lacunarity(x, cfg, GroupedMixWeights.uniform(2, 2))


def test_multiscale_default_mix_averages_levels():
    x = _maps(13, n=1, c=2, h=8, w=8)
    cfg = LacunarityConfig(method="multiscale", scales=2)
    assert np.array_equal(multiscale_lacunarity(x, cfg),
                          multiscale_lacunarity(x, cfg, GroupedMixWeights.uniform(2, 2)))


@pytest.mark.parametrize("cfg", [
    LacunarityConfig(method="base", window=PoolSpec.square(2, stride=1)),
    LacunarityConfig(method="dbc", dilation_set=(1, 2)),
    LacunarityConfig(method="multiscale", scales=2),
], ids=lambda cfg: cfg.method)
def test_scale_planes_dispatches_on_the_method(cfg):
    x = _maps(14, n=2, c=3, h=8, w=8)
    want = {"base": base_lacunarity, "dbc": dbc_scale_planes,
            "multiscale": multiscale_scale_planes}[cfg.method](x, cfg)
    planes = lacunarity.scale_planes(x, cfg)
    assert planes.shape[1] == 3 * cfg.scale_count
    assert np.array_equal(planes, want)


def test_multiscale_mixes_the_inf_of_its_finest_level():
    x = np.zeros((1, 1, 4, 4))
    x[0, 0, 0, :2] = _BIG, -_BIG
    cfg = LacunarityConfig(method="multiscale", window=PoolSpec(1, 2),
                           normalize_input=False)
    planes = multiscale_scale_planes(x, cfg)
    assert planes[0, 0, 0, 0] == math.inf
    assert np.isfinite(planes.ravel()[1:]).all()
    out = multiscale_lacunarity(x, cfg)
    want = mix_scales(planes, GroupedMixWeights.uniform(1, 2))
    assert out[0, 0, 0, 0] == math.inf
    assert out.tobytes() == want.tobytes()
    assert lacunarity.heatmap(x, cfg).tobytes() == want.tobytes()


@pytest.mark.parametrize("method, pool", [
    ("avg", pool_avg), ("max", pool_max), ("l2", pool_l2)])
def test_scale_planes_pools_a_baseline_over_the_raw_map(method, pool):
    # ReLU-like features: about half the cells are exactly 0
    x = np.maximum(_maps(15, n=3, c=4, h=7, w=5, lo=-1.0, hi=1.0), 0.0)
    assert (x == 0.0).any()
    cfg = LacunarityConfig(method=method)
    assert cfg.scale_count == 1
    want = pool(x, PoolSpec.global_window(7, 5))
    assert lacunarity.scale_planes(x, cfg).tobytes() == want.tobytes()
    window = PoolSpec.square(2, stride=1)
    assert (lacunarity.scale_planes(x, LacunarityConfig(method=method, window=window))
            .tobytes() == pool(x, window).tobytes())


@pytest.mark.parametrize("entry, method", [
    (dbc_scale_planes, "base"), (dbc_scale_planes, "multiscale"),
    (multiscale_scale_planes, "base"), (multiscale_scale_planes, "dbc"),
])
def test_scale_plane_entries_reject_another_method(entry, method):
    with pytest.raises(ValueError, match=f"config method is '{method}'"):
        entry(_maps(3, n=1, c=2, h=8, w=8), LacunarityConfig(method=method))


# ------------------------------------------------------------- config checks

@pytest.mark.parametrize("kwargs", [
    dict(method="fractal"),
    dict(epsilon=0.0),
    dict(epsilon=-1e-6),
    dict(method="dbc", dilation_set=()),
    dict(method="dbc", dilation_set=(2, 1)),
    dict(method="dbc", dilation_set=(1, 1, 2)),
    dict(method="dbc", dilation_set=(0, 1)),
    dict(method="dbc", normalize_input=False),
    dict(scales=0),
    dict(epsilon=math.inf),
    dict(epsilon=math.nan),
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        LacunarityConfig(**kwargs)


def test_config_defaults():
    cfg = LacunarityConfig()
    assert cfg.method == "base"
    assert cfg.window is None
    assert cfg.epsilon == 1e-6
    assert cfg.dilation_set == (1, 2, 3)
    assert cfg.scales == 2
    assert cfg.normalize_input is True
    assert cfg.clamp_heights is False
