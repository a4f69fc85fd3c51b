"""Synthetic binary gap textures with controlled heterogeneity.

Each texture is a two-valued image (background 224, gaps 32) built by
stamping gap disks and then trimming/padding to an exact gap pixel count.
Three arrangements with increasingly clumped gap placement are provided:

- lattice: disks of one radius on a regular grid,
- jitter:  grid positions perturbed per-site, two alternating radii,
- cluster: parent-child clusters with heavy-tailed radii.

Disks are painted in bulk (``_paint_disks``): the lattice and jitter masks
in one call each, the cluster mask one call per parent, because its
coverage is checked after every parent.  Draws come from the generator in
the same order as painting one disk at a time would take them, so every
mask is a fixed function of its seed.

Grades ("low" < "medium" < "high") differ only in their gap *fraction*
(23.04% / 24% / 24.96%, a +-4% area spread).  The gap count is exact, so
it alone fixes the global lacunarity of every draw, whatever the arrangement:
``generate_texture`` checks the band from the count, then draws once.  The
heterogeneity dataset instead holds the gap count exactly equal across its
classes so that only the spatial arrangement separates them.

The test suite checks each band from the gap count for sizes 16 to 4096.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .lacunarity import LacunarityConfig, _ratio_from_sums, base_lacunarity

GAP_VALUE = 32.0
BACKGROUND_VALUE = 224.0

GRADES = ("low", "medium", "high")
GRADE_GAP_FRACTION = {"low": 0.2304, "medium": 0.24, "high": 0.2496}

# Registered acceptance bands for the global lacunarity of each grade
# (inner edges are midpoints between adjacent grade levels; outer edges
# mirror the same half-gap); the grade band test checks them from the gap count.
GRADE_BANDS = {
    "low": (0.197211, 0.207345),
    "medium": (0.207345, 0.217560),
    "high": (0.217560, 0.227856),
}

_LATTICE_PERIOD = 8


class TextureGenerationError(RuntimeError):
    """Raised when a grade's textures at a size miss its lacunarity band."""


@dataclass(frozen=True)
class TextureSample:
    image: np.ndarray  # (H, W) float64, values {GAP_VALUE, BACKGROUND_VALUE}
    label: int         # index of the grade in GRADES
    grade: str
    seed: int


def global_lacunarity(image: np.ndarray) -> float:
    """Base lacunarity of the whole image, no input scaling."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim == 2:
        arr = arr[None, None]
    cfg = LacunarityConfig(method="base", normalize_input=False)
    return float(base_lacunarity(arr, cfg)[0, 0, 0, 0])


def _paint_disks(mask: np.ndarray, ci: np.ndarray, cj: np.ndarray,
                 radius: np.ndarray) -> None:
    """Set every pixel of `mask` inside any of the disks (ci, cj, radius).

    Takes 1-D arrays, one entry per disk.  Pixel (i, j) joins a disk when
    (i - ci)^2 + (j - cj)^2 <= radius^2, tested only inside the disk's box:
    rows int(ci) -+ ceil(radius), columns likewise, with int() truncating
    toward zero, clipped to the grid.  All disks are tested at once on one
    shared grid of offsets from their box centres.
    """
    reach = np.ceil(radius)
    top = reach.max()
    offsets = np.arange(-top, top + 1)
    centre = np.array((ci, cj))[:, :, None]           # (axis, disk, 1)
    at = np.trunc(centre) + offsets                    # (axis, disk, offset)
    delta = at - centre
    sq = delta * delta
    extent = np.array(mask.shape)[:, None, None]
    sq[(np.abs(offsets) > reach[:, None]) | (at < 0) | (at >= extent)] = np.inf
    hit = sq[0][:, :, None] + sq[1][:, None, :] <= (radius * radius)[:, None, None]
    at = at.astype(np.intp)
    flat = at[0][:, :, None] * mask.shape[1] + at[1][:, None, :]
    np.put(mask, flat[hit], True)


def _cell_centres(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major centres of the lattice cells, as flat row and column arrays."""
    centres = np.arange(_LATTICE_PERIOD // 2, size, _LATTICE_PERIOD,
                        dtype=np.float64)
    ci, cj = np.meshgrid(centres, centres, indexing="ij")
    return ci.reshape(-1), cj.reshape(-1)


def _lattice_mask(size: int, frac: float, rng: np.random.Generator) -> np.ndarray:
    # one radius sized so the per-cell disk area matches the target fraction
    radius = _LATTICE_PERIOD * math.sqrt(frac / math.pi)
    ci, cj = _cell_centres(size)
    mask = np.zeros((size, size), dtype=bool)
    _paint_disks(mask, ci, cj, np.full(ci.size, radius))
    return mask


def _jitter_mask(size: int, frac: float, rng: np.random.Generator) -> np.ndarray:
    period = _LATTICE_PERIOD
    mean_sq = frac * period * period / math.pi  # E[r^2] that hits the target
    r_small = math.sqrt(0.5 * mean_sq)
    r_large = math.sqrt(1.5 * mean_sq)
    slack = period / 2.0 - 1.0
    bi, bj = _cell_centres(size)
    # per site, row-major: two uniform(-slack, slack) shifts, then the radius
    # coin; Generator.uniform(low, high) is low + (high - low) * random()
    u = rng.random((bi.size, 3))
    low, high = -slack, slack
    ci = bi + (low + (high - low) * u[:, 0])
    cj = bj + (low + (high - low) * u[:, 1])
    radius = np.where(u[:, 2] < 0.5, r_small, r_large)
    mask = np.zeros((size, size), dtype=bool)
    _paint_disks(mask, ci, cj, radius)
    return mask


def _cluster_mask(size: int, frac: float, rng: np.random.Generator) -> np.ndarray:
    target = frac * size * size
    mask = np.zeros((size, size), dtype=bool)
    radius_cap = size / 7.0
    spread = size / 16.0
    for _ in range(4 * size):  # safety cap; coverage exits the loop first
        pi, pj = rng.uniform(0.0, size, size=2)
        # scalar draws in stream order: the normal and pareto samplers
        # consume a variable number of words, so they cannot be batched
        children = int(rng.poisson(4)) + 1
        ci, cj, radius = [], [], []
        for _ in range(children):
            ci.append(pi + rng.normal(0.0, spread))
            cj.append(pj + rng.normal(0.0, spread))
            radius.append(min(1.2 * (1.0 + rng.pareto(1.7)), radius_cap))
        _paint_disks(mask, np.array(ci), np.array(cj), np.array(radius))
        if np.count_nonzero(mask) >= target:
            break
    return mask


ARRANGEMENTS = ("lattice", "jitter", "cluster")
_PAINTERS = {"lattice": _lattice_mask, "jitter": _jitter_mask, "cluster": _cluster_mask}


def _match_count(mask: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """Flip random pixels until exactly `count` gap pixels remain."""
    flat = mask.reshape(-1).copy()
    have = int(flat.sum())
    if have > count:
        on = np.flatnonzero(flat)
        flat[rng.choice(on, size=have - count, replace=False)] = False
    elif have < count:
        off = np.flatnonzero(~flat)
        flat[rng.choice(off, size=count - have, replace=False)] = True
    return flat.reshape(mask.shape)


def _draw(painter, size: int, frac: float, rng: np.random.Generator) -> np.ndarray:
    """A `painter` mask with exactly round(frac * size^2) gaps, rendered."""
    mask = _match_count(painter(size, frac, rng), round(frac * size * size), rng)
    return np.where(mask, GAP_VALUE, BACKGROUND_VALUE)


def generate_texture(grade: str, size: int = 56, seed: int = 0) -> TextureSample:
    """One texture of the requested grade, validated against its band.

    Deterministic in (grade, size, seed).  The band is checked before any
    painting: the whole-image sums follow from the gap count, exactly, so
    every draw has the same global lacunarity and the one draw is final.
    """
    if grade not in GRADES:
        raise ValueError(f"grade must be one of {GRADES}, got {grade!r}")
    if size < 16:
        raise ValueError(f"size must be >= 16, got {size}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    frac = GRADE_GAP_FRACTION[grade]
    n, count = size * size, round(frac * size * size)
    # global_lacunarity's sums, exact in float64 for any arrangement
    s1 = GAP_VALUE * count + BACKGROUND_VALUE * (n - count)
    s2 = GAP_VALUE ** 2 * count + BACKGROUND_VALUE ** 2 * (n - count)
    value = float(_ratio_from_sums(n, s1, s2, LacunarityConfig().epsilon))
    lo, hi = GRADE_BANDS[grade]
    if not lo <= value <= hi:
        raise TextureGenerationError(
            f"{grade} textures of size {size} have global lacunarity {value!r}, "
            f"outside the band ({lo}, {hi})")
    label = GRADES.index(grade)
    image = _draw(_PAINTERS[ARRANGEMENTS[label]], size, frac,
                  np.random.default_rng([seed, 0, label]))
    return TextureSample(image=image, label=label, grade=grade, seed=seed)


def _rows(n_per_class: int, classes: int, start: int, stop: int | None,
          size: int, seed: int, draw) -> tuple[np.ndarray, np.ndarray]:
    """Rows [start, stop) of a class-major dataset, drawn into one array.

    Row j is sample i = j % n_per_class of class k = j // n_per_class: the
    (size, size) image `draw(k, rng)` from its own generator seeded
    [seed, k, i].  A row depends only on (seed, j), so any row range gives
    the same bits as the matching slice of the whole set.
    """
    total = classes * n_per_class
    stop = total if stop is None else stop
    if not 0 <= start <= stop <= total:
        raise ValueError(f"rows [{start}, {stop}) outside a set of {total}")
    images = np.empty((stop - start, 1, size, size))
    for row, j in enumerate(range(start, stop)):
        k, i = divmod(j, n_per_class)
        images[row, 0] = draw(k, np.random.default_rng([seed, k, i]))
    return images, np.arange(start, stop, dtype=np.int64) // n_per_class


def heterogeneity_dataset(
    n_per_class: int, size: int = 56, seed: int = 0, start: int = 0,
    stop: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Three arrangement classes with *identical* gap pixel counts.

    First-order statistics match exactly across classes, so only the spatial
    gap structure carries label information.  Returns images (N, 1, H, W)
    and integer labels (class k = ARRANGEMENTS[k]), class-major; `start` and
    `stop` restrict both to the rows [start, stop) of the whole set, with the
    same bits as slicing it.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    frac = GRADE_GAP_FRACTION["medium"]
    return _rows(n_per_class, len(ARRANGEMENTS), start, stop, size, seed,
                 lambda k, rng: _draw(_PAINTERS[ARRANGEMENTS[k]], size, frac,
                                      rng))


def toy_dataset(
    classes: int = 3, n_per_class: int = 10, size: int = 56, seed: int = 0,
    start: int = 0, stop: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Trivially separable set: classes differ in gap fraction (0.05..0.65).

    Any pooled first-order statistic splits these, so simple baselines reach
    full accuracy.  Returns images (N, 1, H, W) and labels, class-major;
    `start` and `stop` pick rows as for `heterogeneity_dataset`.
    """
    if classes < 2:
        raise ValueError("classes must be >= 2")
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    return _rows(n_per_class, classes, start, stop, size, seed,
                 lambda k, rng: _draw(_jitter_mask, size,
                                      0.05 + 0.60 * k / (classes - 1), rng))
