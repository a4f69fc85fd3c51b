"""Operators allocate their own outputs: they never write into an argument,
and their peak working set stays within a budget counted in full-size maps."""

import os

import numpy as np
import pytest
from _memory import PEAK_SLACK, traced_peak
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from lacuna import lacunarity
from lacuna.lacunarity import (
    LacunarityConfig,
    base_lacunarity,
    box_index,
    dbc_column_heights,
    dbc_plane,
    dbc_scale_planes,
    multiscale_scale_planes,
    tanh_scale,
    variance_ratio,
)
from lacuna.pgm import write_pgm
from lacuna.tensor import GroupedMixWeights, PoolSpec, mix_scales, pool_sum


def _maps(bound=None):
    """(N, C, H, W) float64 maps of at least 3x3, -0.0 and huge values included."""
    shapes = st.tuples(st.integers(1, 2), st.integers(1, 2),
                       st.integers(3, 6), st.integers(3, 6))
    return hnp.arrays(np.float64, shapes, elements=st.floats(
        allow_nan=False, allow_infinity=False,
        min_value=None if bound is None else -bound, max_value=bound))


def _window(x, data):
    h, w = x.shape[2:]
    return PoolSpec(data.draw(st.integers(1, h)), data.draw(st.integers(1, w)),
                    data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3)))


def _mix(x, data):
    """A (C, S) mix for `x`, read as C = 1 channel of S = x's channel planes."""
    s = x.shape[1]
    weights = data.draw(hnp.arrays(np.float64, (1, s),
                                   elements=st.floats(-1e100, 1e100)))
    bias = data.draw(hnp.arrays(np.float64, (1,), elements=st.floats(-1e100, 1e100)))
    return GroupedMixWeights(weights, bias)


def _column_args(x, data):
    """dbc_column_heights' arguments: a scaled map, r, a window, the clamp."""
    return (tanh_scale(x), data.draw(st.integers(1, 3)),
            PoolSpec.square(3, stride=1), data.draw(st.booleans()))


def _plane_args(x, data):
    """dbc_plane's arguments: one dilation's masses and its window's area."""
    args = _column_args(x, data)
    window = args[2]
    return pool_sum(dbc_column_heights(*args), window), window.area


# each case: (map bound, draw the call's arguments, run the call)
CASES = {
    "tanh_scale": (None, lambda x, data: (x,), tanh_scale),
    "variance_ratio": (None, lambda x, data: (x, _window(x, data)),
                       lambda x, spec: variance_ratio(x, spec, 1e-6)),
    "box_index": (None, lambda x, data: (tanh_scale(x), data.draw(st.integers(1, 9))),
                  box_index),
    "dbc_column_heights": (None, _column_args, dbc_column_heights),
    "dbc_plane": (None, _plane_args,
                  lambda mass, area: dbc_plane(mass, area, 1e-6)),
    "dbc_scale_planes": (None, lambda x, data: (x,),
                         lambda x: dbc_scale_planes(x, LacunarityConfig(method="dbc"))),
    "base_lacunarity": (
        None, lambda x, data: (x, LacunarityConfig(
            window=_window(x, data), normalize_input=data.draw(st.booleans()))),
        base_lacunarity),
    # the blur's partial sums may round past the largest float
    "multiscale_scale_planes": (
        1e300, lambda x, data: (x, LacunarityConfig(
            method="multiscale", normalize_input=data.draw(st.booleans()))),
        multiscale_scale_planes),
    "mix_scales": (1e100, lambda x, data: (x, _mix(x, data)), mix_scales),
    "write_pgm": (None, lambda x, data: (x[:1, :1], x[0, 0]),
                  lambda x4, x2: (write_pgm(x4, os.devnull),
                                  write_pgm(x2, os.devnull))),
}


def _arrays(args):
    """Every array an argument list carries, dataclass fields included."""
    for arg in args:
        if isinstance(arg, np.ndarray):
            yield arg
        elif hasattr(arg, "__dict__"):
            yield from _arrays(vars(arg).values())


@pytest.mark.parametrize("name", sorted(CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_operators_never_write_into_their_arguments(name, data):
    bound, draw_args, call = CASES[name]
    args = draw_args(data.draw(_maps(bound)), data)
    before = [(a, a.copy()) for a in _arrays(args)]
    call(*args)
    for arr, copy in before:
        # bytes, so a -0.0 turned into 0.0 counts as a write
        assert arr.tobytes() == copy.tobytes(), name


# ------------------------------------------------------------ peak budgets

SIDE = 128
MAP = SIDE * SIDE * 8  # bytes of one (1, 1, 128, 128) float64 map
# a ufunc that buffers its operands (the pools' strided folds do) holds
# np.getbufsize() elements of float64 at once
UFUNC_BUFFER = np.getbufsize() * 8
# as_feature_map's finiteness check holds one byte per cell
FINITE_MASK = MAP // 8


def _texture(dtype=np.float64):
    return np.random.default_rng(0).standard_normal((1, 1, SIDE, SIDE)).astype(dtype)


def _budgeted(fn, budget):
    fn()  # first-call caches
    peak, _ = traced_peak(fn)
    assert peak <= budget, (peak / MAP, budget / MAP)


def test_tanh_scale_holds_only_its_output():
    x = _texture()
    _budgeted(lambda: tanh_scale(x), MAP + PEAK_SLACK)


def test_mix_scales_holds_its_output_and_one_product():
    planes = np.random.default_rng(1).standard_normal((1, 3, SIDE, SIDE))
    mix = GroupedMixWeights.uniform(1, 3)
    _budgeted(lambda: mix_scales(planes, mix), 2 * MAP + PEAK_SLACK)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_base_lacunarity_holds_two_maps(dtype):
    # a float32 map is first copied to float64: that copy and the squashed
    # map are the two; the squashed map and its square are the two after
    x = _texture(dtype)
    _budgeted(lambda: base_lacunarity(x, LacunarityConfig()),
              2 * MAP + FINITE_MASK + PEAK_SLACK)


def test_dbc_scale_planes_holds_its_stack_and_three_working_maps():
    # beside the output stack: the squashed input, the running heights, the
    # widest padded extremes map (dilation 3 pads 3 cells a side) and its pool
    cfg = LacunarityConfig(method="dbc", dilation_set=(1, 2, 3))
    x = _texture()
    padded = (SIDE + 2 * 3) ** 2 * 8
    stacked = dbc_scale_planes(x, cfg)
    _budgeted(lambda: dbc_scale_planes(x, cfg),
              stacked.nbytes + 3 * MAP + padded + UFUNC_BUFFER + PEAK_SLACK)


def test_heatmap_holds_its_output_and_two_maps(monkeypatch):
    # in 8-row strips a dbc slab's working maps (its squashed rows, the
    # stack, the heights, the widest padded extremes) and numpy's ufunc
    # buffer come to about 1.4 maps; one pass over the map holds about 7.5
    monkeypatch.setattr(lacunarity, "_STRIP_CELLS", 8 * SIDE)
    cfg = LacunarityConfig(method="dbc", dilation_set=(1, 2, 3))
    x = _texture()
    out = lacunarity.heatmap(x, cfg)
    _budgeted(lambda: lacunarity.heatmap(x, cfg), out.nbytes + 2 * MAP + PEAK_SLACK)
