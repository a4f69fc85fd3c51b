#!/usr/bin/env python3
"""Calibrate the per-grade lacunarity bands registered in lacuna.textures.

Sweeps generated textures per grade over many seeds and sizes, measures the
global lacunarity of each, and derives band edges as midpoints between
adjacent grade levels (outer edges mirror the same half-gap).  Paste the
printed GRADE_BANDS dict into src/lacuna/textures.py when the generator's
gap fractions change.

A texture holds only two pixel values and exactly round(frac * size^2) gap
pixels, so its global lacunarity depends on the size only through that gap
count, never on the seed or the arrangement: the sweep's spread per grade is
the spread over its sizes.  At the defaults the printed bands differ from the
registered ones in the fifth decimal (low edge 0.197239 printed, 0.197211
in GRADE_BANDS), so pasting them would move every band; the registered
bands are kept as they are.

Run:  python3 scripts/calibrate_bands.py [--samples 1000]
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

sys.path.insert(0, "src")

from lacuna.textures import (  # noqa: E402
    ARRANGEMENTS,
    GRADE_GAP_FRACTION,
    GRADES,
    _draw,
    _PAINTERS,
    global_lacunarity,
)


def sweep(samples: int) -> dict[str, np.ndarray]:
    """Measured lacunarity per grade, without band gating."""
    sizes = (32, 56, 96)
    per_grade = samples // len(GRADES)
    out = {}
    for grade in GRADES:
        frac = GRADE_GAP_FRACTION[grade]
        painter = _PAINTERS[ARRANGEMENTS[GRADES.index(grade)]]
        vals = []
        for i in range(per_grade):
            size = sizes[i % len(sizes)]
            rng = np.random.default_rng([9000 + i, GRADES.index(grade)])
            vals.append(global_lacunarity(_draw(painter, size, frac, rng)))
        out[grade] = np.array(vals)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=1000)
    args = ap.parse_args()

    measured = sweep(args.samples)
    centers = {}
    for grade in GRADES:
        v = measured[grade]
        centers[grade] = v.mean()
        print(f"{grade:>7}: n={len(v)}  min={v.min():.6f}  "
              f"mean={v.mean():.6f}  max={v.max():.6f}")

    lo_c, me_c, hi_c = (centers[g] for g in GRADES)
    edge1 = (lo_c + me_c) / 2
    edge2 = (me_c + hi_c) / 2
    bands = {
        "low": (lo_c - (edge1 - lo_c), edge1),
        "medium": (edge1, edge2),
        "high": (edge2, hi_c + (hi_c - edge2)),
    }
    print("\nGRADE_BANDS = {")
    for grade, (lo, hi) in bands.items():
        print(f'    "{grade}": ({lo:.6f}, {hi:.6f}),')
    print("}")

    for grade in GRADES:
        lo, hi = bands[grade]
        v = measured[grade]
        assert np.all((v >= lo) & (v <= hi)), f"{grade} samples escape band"
    print("\nall sweep samples inside their bands")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
