"""Run-to-run spread of the end-to-end metrics, recorded in baseline.json.

    python3 perfbench/spread.py WORKLOAD first|repeat

Runs run.py with tracing off once for each of the seeds 0-9 and prints, per
metric, the median and the distance between the first and third quartiles
as a share of the median (`statistics.quantiles(values, n=4)`), next to the
metric's bound from BENCHMARK.json.  Also prints each run's JSON result line.

The figures go into perfbench/baseline.json: set ``first`` under
``end_to_end``, together with the workload's per-layer metrics from one
traced run at seed 0 under ``per_layer``; set ``repeat`` (the same code
measured again later) under ``end_to_end_repeat``, with each metric's median
over the first set's median as ``second_over_first``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BASELINE = os.path.join(HERE, "baseline.json")
SEEDS = range(10)
ABOUT = ("Baseline of the benchmark, measured at the commit that defined it "
         "(lacuna with no perf work yet), written by spread.py. end_to_end: ten "
         "untraced runs per workload, seeds 0-9; iqr_share is (Q3 - Q1) / median "
         "over the ten per-run values, as statistics.quantiles(values, n=4) gives "
         "the quartiles. end_to_end_repeat: a second such set of the same code, "
         "measured later, with second_over_first its median over the first set's. "
         "per_layer: one traced run per workload at seed 0.")


def run(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict | None]:
    """One run.py run: its JSON result line ({} if it failed) and environment."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    print(f"seed {seed} trace {trace} exit {done.returncode}: "
          f"{lines[-1] if lines else ''}", flush=True)
    env = next((json.loads(line.split(" ", 1)[1]) for line in lines
                if line.startswith("environment ")), None)
    result = json.loads(lines[-1]) if done.returncode == 0 and lines else {}
    if not result.get("correct"):
        sys.stderr.write(done.stderr)
    return result, env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload")
    parser.add_argument("set", choices=("first", "repeat"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    record = {}
    if os.path.exists(BASELINE):
        with open(BASELINE) as fh:
            record = json.load(fh)

    values: dict[str, list[float]] = {}
    failures = 0
    for seed in SEEDS:
        result, env = run(spec, args.workload, seed, 0)
        failures += not result.get("correct")
        for name, entry in result.get("metrics", {}).items():
            values.setdefault(name, []).append(entry["value"])

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    section = "end_to_end" if args.set == "first" else "end_to_end_repeat"
    summary = {}
    print(f"{'metric':<16} {'median':>12} {'iqr/median':>11} {'bound':>6} "
          f"{'2nd/1st':>8}")
    for name, series in values.items():
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        summary[name] = {"median": median, "iqr_share": (q3 - q1) / median,
                         "values": series}
        ratio = ""
        if args.set == "repeat":
            first = record["end_to_end"][args.workload][name]["median"]
            summary[name]["second_over_first"] = median / first
            ratio = f"{median / first:.4f}"
        print(f"{name:<16} {median:>12.6g} {summary[name]['iqr_share']:>11.4f} "
              f"{bounds[name]:>6} {ratio:>8}")
    print(f"runs not correct: {failures}")

    record["about"] = ABOUT
    record["environment"] = {k: v for k, v in (env or {}).items() if k != "seed"}
    record["run_seconds"] = spec["run_seconds"]
    record.setdefault(section, {})[args.workload] = summary
    record.setdefault(f"runs_not_correct_{args.set}", {})[args.workload] = failures
    if args.set == "first":
        traced, _ = run(spec, args.workload, SEEDS[0], 1)
        failures += not traced.get("correct")
        record.setdefault("per_layer", {})[args.workload] = {
            name: entry["value"] for name, entry in traced.get("metrics", {}).items()}
    with open(BASELINE, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
