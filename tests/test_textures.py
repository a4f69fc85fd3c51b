import numpy as np
import pytest
from _reference import (
    ref_cluster_mask,
    ref_generate_texture,
    ref_jitter_mask,
    ref_lattice_mask,
    ref_paint_disk,
)

from lacuna import textures
from lacuna.lacunarity import LacunarityConfig, _ratio_from_sums
from lacuna.textures import (
    ARRANGEMENTS,
    BACKGROUND_VALUE,
    GAP_VALUE,
    GRADE_BANDS,
    GRADE_GAP_FRACTION,
    GRADES,
    TextureGenerationError,
    generate_texture,
    global_lacunarity,
    heterogeneity_dataset,
    toy_dataset,
)


def gap_count(image):
    return int((image == GAP_VALUE).sum())


def test_samples_are_binary_with_exact_gap_count():
    for grade in GRADES:
        s = generate_texture(grade, size=48, seed=1)
        assert s.image.shape == (48, 48)
        assert set(np.unique(s.image)) <= {GAP_VALUE, BACKGROUND_VALUE}
        assert gap_count(s.image) == round(GRADE_GAP_FRACTION[grade] * 48 * 48)
        assert s.grade == grade
        assert s.label == GRADES.index(grade)


def test_gap_area_within_five_percent_across_grades():
    mid = GRADE_GAP_FRACTION["medium"]
    for grade in GRADES:
        assert abs(GRADE_GAP_FRACTION[grade] - mid) <= 0.05 * mid


def test_measured_lacunarity_lands_in_registered_band():
    for grade in GRADES:
        lo, hi = GRADE_BANDS[grade]
        for seed in range(5):
            val = global_lacunarity(generate_texture(grade, seed=seed).image)
            assert lo <= val <= hi


def test_grade_ordering_holds_across_seeds():
    for seed in range(25):
        vals = [global_lacunarity(generate_texture(g, seed=seed).image)
                for g in GRADES]
        assert vals[0] < vals[1] < vals[2]


def test_generation_is_deterministic():
    a = generate_texture("high", size=40, seed=7)
    b = generate_texture("high", size=40, seed=7)
    assert np.array_equal(a.image, b.image)
    c = generate_texture("high", size=40, seed=8)
    assert not np.array_equal(a.image, c.image)


def test_bad_arguments_rejected():
    with pytest.raises(ValueError):
        generate_texture("ultra")
    with pytest.raises(ValueError):
        generate_texture("low", size=8)
    with pytest.raises(ValueError):
        generate_texture("low", seed=-1)


def _count_lacunarity(count, n):
    """global_lacunarity of n pixels holding `count` gaps, from exact sums."""
    s1 = GAP_VALUE * count + BACKGROUND_VALUE * (n - count)
    s2 = GAP_VALUE ** 2 * count + BACKGROUND_VALUE ** 2 * (n - count)
    return float(_ratio_from_sums(n, s1, s2, LacunarityConfig().epsilon))


def test_impossible_band_raises_generation_error(monkeypatch):
    # the band is decided from the gap count: no painter may run
    calls = []

    def spy(*args):
        calls.append(args)
        raise AssertionError("painted although the band cannot be met")

    monkeypatch.setitem(textures.GRADE_BANDS, "low", (0.9, 1.0))
    for name in ARRANGEMENTS:
        monkeypatch.setitem(textures._PAINTERS, name, spy)
    monkeypatch.setattr(textures, "_match_count", spy)
    value = repr(_count_lacunarity(round(GRADE_GAP_FRACTION["low"] * 32 * 32), 32 * 32))
    with pytest.raises(TextureGenerationError, match=r"\(0\.9, 1\.0\)") as err:
        generate_texture("low", size=32, seed=0)
    assert value in str(err.value)
    assert calls == []


@pytest.mark.parametrize("grade", GRADES)
def test_one_draw_matches_the_retry_loop_reference(grade):
    cases = [(size, seed) for size in (16, 40, 56, 64, 128) for seed in range(8)]
    for size, seed in cases + [(512, 3)]:
        ref, measured = ref_generate_texture(grade, size, seed)
        got = generate_texture(grade, size=size, seed=seed)
        assert np.array_equal(got.image, ref.image), (size, seed)
        assert (got.label, got.grade, got.seed) == (ref.label, ref.grade, ref.seed)
        # the count sums give the measured value to the last bit
        assert _count_lacunarity(gap_count(got.image), size * size) == measured


def test_every_size_lies_in_its_grade_band(monkeypatch):
    # arithmetic only: the painting is stubbed out, the band check is not
    monkeypatch.setattr(textures, "_draw", lambda *args: None)
    for grade in GRADES:
        lo, hi = GRADE_BANDS[grade]
        frac = GRADE_GAP_FRACTION[grade]
        for size in range(16, 4097):
            value = _count_lacunarity(round(frac * size * size), size * size)
            assert lo <= value <= hi, (grade, size, value)
            assert generate_texture(grade, size=size).image is None


def test_global_lacunarity_is_arrangement_free():
    # same gap count => same histogram => identical global value
    imgs, _ = heterogeneity_dataset(2, size=40, seed=3)
    vals = {round(global_lacunarity(im[0]), 12) for im in imgs}
    assert len(vals) == 1


def test_heterogeneity_dataset_matches_counts_exactly():
    imgs, labels = heterogeneity_dataset(4, size=56, seed=0)
    assert imgs.shape == (12, 1, 56, 56)
    assert labels.tolist() == [0] * 4 + [1] * 4 + [2] * 4
    counts = {gap_count(im[0]) for im in imgs}
    assert counts == {round(GRADE_GAP_FRACTION["medium"] * 56 * 56)}
    assert len(ARRANGEMENTS) == 3


def test_heterogeneity_classes_differ_spatially():
    imgs, labels = heterogeneity_dataset(2, size=56, seed=1)
    # different arrangements, same count: images differ between classes
    a = imgs[labels == 0][0]
    b = imgs[labels == 2][0]
    assert not np.array_equal(a, b)


def test_toy_dataset_varies_gap_fraction():
    imgs, labels = toy_dataset(classes=3, n_per_class=2, size=40, seed=0)
    assert imgs.shape == (6, 1, 40, 40)
    per_class = [gap_count(imgs[labels == k][0][0]) for k in range(3)]
    assert per_class[0] < per_class[1] < per_class[2]
    with pytest.raises(ValueError):
        toy_dataset(classes=1)


@pytest.mark.parametrize("build", [
    lambda **rows: heterogeneity_dataset(5, size=40, seed=2, **rows),
    lambda **rows: toy_dataset(4, 3, size=32, seed=6, **rows),
], ids=["heterogeneity", "toy"])
def test_dataset_row_ranges_are_slices_of_the_whole_set(build):
    images, labels = build()
    n = len(labels)
    for start, stop in ((0, n), (0, 1), (3, 8), (n - 1, n), (4, 4)):
        part, part_labels = build(start=start, stop=stop)
        assert np.array_equal(part, images[start:stop])
        assert np.array_equal(part_labels, labels[start:stop])
        assert part_labels.dtype == np.int64
    for start, stop in ((-1, 2), (3, 2), (0, n + 1)):
        with pytest.raises(ValueError, match="outside a set"):
            build(start=start, stop=stop)


def test_toy_dataset_needs_a_sample_per_class():
    with pytest.raises(ValueError, match="n_per_class"):
        toy_dataset(classes=2, n_per_class=0)


# ------------------------------------------------ painters vs loop oracles

_REF_PAINTERS = {"lattice": ref_lattice_mask, "jitter": ref_jitter_mask,
                 "cluster": ref_cluster_mask}


@pytest.mark.parametrize("name", ARRANGEMENTS)
@pytest.mark.parametrize("size", [56, 64, 128, 512])
def test_bulk_painters_match_per_disk_reference(name, size):
    seeds = range(2) if size == 512 else range(8)
    fracs = sorted({*GRADE_GAP_FRACTION.values(), 0.05, 0.65})
    for seed in seeds:
        for frac in fracs:
            mask = textures._PAINTERS[name](
                size, frac, np.random.default_rng([seed, size]))
            ref = _REF_PAINTERS[name](
                size, frac, np.random.default_rng([seed, size]))
            assert np.array_equal(mask, ref), (name, size, seed, frac)


def test_cluster_painter_matches_reference_with_centres_off_grid():
    centres = []
    for seed in range(12):
        ref = ref_cluster_mask(56, 0.24, np.random.default_rng([seed, 9]),
                               centres)
        mask = textures._cluster_mask(56, 0.24, np.random.default_rng([seed, 9]))
        assert np.array_equal(mask, ref)
    rows, cols = np.array(centres).T
    assert (rows < 0).any() and (cols < 0).any()  # int() truncates up here
    assert (rows >= 56).any() and (cols >= 56).any()


def test_paint_disks_matches_per_disk_reference():
    rng = np.random.default_rng(11)
    for _ in range(40):
        shape = tuple(rng.integers(5, 40, size=2))
        count = int(rng.integers(1, 30))
        ci = rng.uniform(-12.0, shape[0] + 12.0, size=count)
        cj = rng.uniform(-12.0, shape[1] + 12.0, size=count)
        radius = rng.uniform(0.2, 9.0, size=count)
        radius[::3] = np.round(radius[::3])  # whole radii reach box edges
        ci[::4] = np.round(ci[::4])          # so do whole-pixel centres
        ref = np.zeros(shape, dtype=bool)
        for a, b, r in zip(ci, cj, radius):
            ref_paint_disk(ref, float(a), float(b), float(r))
        mask = np.zeros(shape, dtype=bool)
        textures._paint_disks(mask, ci, cj, radius)
        assert np.array_equal(mask, ref)


def test_paint_disks_tests_only_inside_each_box():
    # row 4 lies one past the box of a centre just below row 1, yet its
    # distance rounds to exactly the radius; the per-disk painter skips it.
    # The second, wider disk stretches the shared offset grid past row 4.
    ci = np.array([1.0 - 2.0 ** -53, 8.0])
    cj = np.array([10.0, 2.0])
    radius = np.array([3.0, 6.0])
    ref = np.zeros((12, 20), dtype=bool)
    for a, b, r in zip(ci, cj, radius):
        ref_paint_disk(ref, float(a), float(b), float(r))
    mask = np.zeros((12, 20), dtype=bool)
    textures._paint_disks(mask, ci, cj, radius)
    assert not ref[4, 10]
    assert np.array_equal(mask, ref)
