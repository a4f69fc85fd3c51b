"""Write the golden outputs that run.py checks against.

    python3 perfbench/make_golden.py

Run from the root of the checkout whose outputs define "correct": it runs
every experiment seed pair and every lacmap texture the workloads can draw,
with the same thread pinning as run.py, and overwrites perfbench/golden/.
"""

from __future__ import annotations

import os
import shutil
import sys

import run  # pins BLAS threads before numpy loads

import numpy as np


def main() -> int:
    sys.path.insert(0, run.SRC)
    run.make_work_dir()
    try:
        exp_dir = os.path.join(run.GOLDEN, "experiment")
        lac_dir = os.path.join(run.GOLDEN, "lacmap")
        os.makedirs(exp_dir, exist_ok=True)
        os.makedirs(lac_dir, exist_ok=True)
        for k in range(run.PAIRS):
            config = os.path.join(run.WORK, "experiment.ini")
            results = os.path.join(run.WORK, "results.txt")
            with open(config, "w") as fh:
                fh.write(run.ExperimentSix.config_text(k, results))
            code, _, seconds = run.run_cli(["experiment", config])
            if code != 0:
                raise SystemExit(f"experiment pair {k} exited {code}")
            shutil.copyfile(results, os.path.join(exp_dir, f"pair_{k:02d}.txt"))
            print(f"experiment pair {k}: {seconds:.2f} s", flush=True)
        texture = os.path.join(run.WORK, "texture.pgm")
        heat = os.path.join(run.WORK, "heat.pgm")
        for index in range(run.TEXTURES):
            run.Lacmap512.make_texture(index, texture)
            maps = {}
            for s, flags in enumerate(run.LACMAP_SETTINGS):
                code, printed, seconds = run.run_cli(["lacmap", *flags, texture, heat])
                if code != 0:
                    raise SystemExit(f"lacmap {flags} on texture {index} exited {code}")
                maps[f"setting_{s}"] = run.read_p5(heat)
                print(f"texture {index} {' '.join(flags)}: {printed.strip()} "
                      f"{seconds:.2f} s", flush=True)
            np.savez_compressed(os.path.join(lac_dir, f"texture_{index}.npz"), **maps)
    finally:
        run.remove_work_dir()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
