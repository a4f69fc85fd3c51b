"""Benchmark of lacuna's three user-facing commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lacuna checkout; the program is imported from its
``src`` directory.  Workloads (closed loop: one caller, one process, the
next call starts when the previous one returns):

* ``experiment-six``: ``lacuna experiment`` on a generated config with all
  six pooling methods, the heterogeneity dataset (100 samples per class,
  56 px, 16 backbone channels) and two seeds derived from the workload seed;
  every call of a run repeats the same config.  The backbone conv, head
  training and dataset generation dominate.
* ``lacmap-512``: ``lacuna lacmap`` on a seeded 512x512 gap texture, in a
  fixed mix of five settings; one operation is one call in each setting.
  Python loops over kernel offsets in the pooling kernels dominate; no
  backbone or training code runs.
* ``gradcheck-suite``: ``lacuna gradcheck`` at defaults (11 ops x 20 seeds x
  100 probes).  Many small pooling calls on 6x6 maps, input validation and
  adjoint scatters.  The command fixes its own probe seeds, so this
  workload's inputs do not depend on the workload seed.

Each command runs in-process through ``lacuna.cli.main`` and its outputs are
checked: experiment results files byte for byte against ``golden/``, lacmap
heatmaps within one gray level of ``golden/`` and the printed value against
a float64 var/mean^2 of the tanh-scaled image, gradcheck's exit code and
every op's pass.  Any nonzero exit code is a failure.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: set-up time
(median import time in a fresh interpreter plus median input-generation
time), median operation latency, operations per second of program time
and peak resident memory.  A "report" line gives the figures under their
workload names (experiment_s, mean_accuracy, lacmap_p50_s, the median of
single lacmap calls, lacmap_mpix_per_s, gradcheck_s), the error rate and
the highest call-latency percentile with at least ten samples beyond it.

``--trace 1`` runs untraced (U) and traced (T) repetitions of one set-up
plus one operation on the same input, in the order U T T U repeated, and
reports the per-layer metrics (see tracer.py), with ``trace.overhead_s``
the median over adjacent U/T pairs of traced minus untraced time.  It
checks that every function the metrics name was found and wrapped, that
the counters repeat exactly across traced repetitions and that traced and
untraced repetitions write identical outputs, and prints the first traced
repetition's per-function profile.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Golden outputs come
from make_golden.py; spread.py measures run-to-run spread over seeds and
records it, with the baseline figures, in baseline.json.
"""

from __future__ import annotations

import os

# pinned before numpy loads: OpenBLAS would otherwise start nproc threads
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("LACUNA_SEED", None)  # it would replace the generated seeds

import argparse
import contextlib
import glob
import io
import itertools
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
GOLDEN = os.path.join(HERE, "golden")

IMPORT_REPEATS = 15
SETUP_REPEATS = 3
PAIRS = 16      # experiment seed pairs (2k, 2k + 1) with golden results
TEXTURES = 6    # lacmap texture seeds with golden heatmaps
TEXTURE_SIZE = 512
LACMAP_SETTINGS = (
    ("--method", "base"),
    ("--method", "base", "--window", "8"),
    ("--method", "dbc"),
    ("--method", "ms"),
    ("--method", "ms", "--window", "16", "--stride", "4"),
)
GLOBAL_TOLERANCE = 1e-6  # printed with %.6f


@dataclass
class Call:
    """One command invocation: its latency, whether its checks held, its outputs."""

    seconds: float
    ok: bool
    output: object


def make_work_dir() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)


def remove_work_dir() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    with contextlib.suppress(OSError):
        os.rmdir(os.path.dirname(WORK))  # only once no other run uses it


def run_cli(argv) -> tuple[int | None, str, float]:
    """Run `lacuna <argv>` in-process; exit code (None if it raised), stdout, seconds."""
    from lacuna import cli

    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(argv))
    except Exception:  # a crash is a failed operation, not a benchmark error
        traceback.print_exc(file=sys.stderr)
        code = None
    return code, out.getvalue(), time.perf_counter() - start


def read_p5(path: str) -> np.ndarray:
    """Pixels of a binary PGM as written by lacuna (``P5\\n<w> <h>\\n255\\n``)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, dims, maxval, payload = blob.split(b"\n", 3)
    width, height = (int(v) for v in dims.split())
    if magic != b"P5" or maxval != b"255" or len(payload) != width * height:
        raise ValueError(f"{path}: not a {width}x{height} 8-bit P5 file")
    return np.frombuffer(payload, dtype=np.uint8).reshape(height, width)


# ------------------------------------------------------------------ workloads

class ExperimentSix:
    """`lacuna experiment`, six methods, seeds (2k, 2k + 1), k from the workload seed."""

    def __init__(self, seed: int):
        self.pair = seed % PAIRS
        with open(os.path.join(GOLDEN, "experiment", f"pair_{self.pair:02d}.txt"), "rb") as fh:
            self.golden = fh.read()
        self.config = os.path.join(WORK, "experiment.ini")
        self.results = os.path.join(WORK, "results.txt")

    @staticmethod
    def config_text(k: int, output: str) -> str:
        # [train] holds the shipped settings of configs/heterogeneity.ini
        return (
            "[experiment]\n"
            "methods = base, dbc, multiscale, avg, max, l2\n"
            "dataset = heterogeneity\nclasses = 3\nsamples_per_class = 100\n"
            "image_size = 56\n"
            f"seeds = {2 * k}, {2 * k + 1}\n"
            "backbone_channels = 16\nscales = 2\n"
            f"output = {output}\n\n"
            "[train]\nbatch_size = 16\nlearning_rate = 0.01\nmax_epochs = 100\n"
            "early_stop_patience = 10\n"
        )

    def setup(self) -> None:
        with open(self.config, "w") as fh:
            fh.write(self.config_text(self.pair, self.results))

    def cycle(self) -> list[Call]:
        if os.path.exists(self.results):
            os.remove(self.results)
        code, _, seconds = run_cli(["experiment", self.config])
        data = b""
        if os.path.exists(self.results):
            with open(self.results, "rb") as fh:
                data = fh.read()
        return [Call(seconds, code == 0 and data == self.golden, data)]

    @staticmethod
    def mean_accuracy(calls: list[Call]) -> float:
        """Mean test accuracy over methods x seeds, from the results files."""
        values = [float(line.split()[2])
                  for call in calls for line in call.output.decode().splitlines()
                  if line.startswith("accuracy = ")]
        return statistics.fmean(values) if values else float("nan")


class Lacmap512:
    """`lacuna lacmap` in five settings on one seeded 512x512 gap texture.

    One operation (`cycle`) is one call in each setting, so its latency does
    not jump between the settings' very different call latencies.
    """

    def __init__(self, seed: int):
        self.index = seed % TEXTURES
        with np.load(os.path.join(GOLDEN, "lacmap", f"texture_{self.index}.npz")) as npz:
            self.golden = [npz[f"setting_{s}"] for s in range(len(LACMAP_SETTINGS))]
        self.texture = os.path.join(WORK, "texture.pgm")
        self.expected_global = None

    @staticmethod
    def make_texture(index: int, path: str) -> None:
        from lacuna import pgm, textures

        grade = textures.GRADES[index % len(textures.GRADES)]
        sample = textures.generate_texture(grade, size=TEXTURE_SIZE, seed=index)
        pgm.write_pgm(sample.image, path)

    def setup(self) -> None:
        self.make_texture(self.index, self.texture)

    def heat_path(self, s: int) -> str:
        return os.path.join(WORK, f"heat_{s}.pgm")

    def cycle(self) -> list[Call]:
        if self.expected_global is None:
            scaled = (np.tanh(read_p5(self.texture) / 255.0) + 1.0) * 127.5
            self.expected_global = float(np.var(scaled) / np.mean(scaled) ** 2)
        calls = []
        for s, flags in enumerate(LACMAP_SETTINGS):
            heat_path = self.heat_path(s)
            if os.path.exists(heat_path):
                os.remove(heat_path)
            code, printed, seconds = run_cli(["lacmap", *flags, self.texture, heat_path])
            heat = None
            if code == 0:
                with contextlib.suppress(OSError, ValueError):
                    heat = read_p5(heat_path)
            ok = heat is not None and self.matches(s, printed, heat)
            calls.append(Call(seconds, ok, (printed, None if heat is None else heat.tobytes())))
        return calls

    def matches(self, s: int, printed: str, heat: np.ndarray) -> bool:
        try:
            value = float(printed)
        except ValueError:
            return False
        gold = self.golden[s]
        return (abs(value - self.expected_global) <= GLOBAL_TOLERANCE
                and heat.shape == gold.shape
                and int(np.abs(heat.astype(np.int16) - gold).max()) <= 1)


class GradcheckSuite:
    """`lacuna gradcheck` at defaults."""

    OPS = 11

    def __init__(self, seed: int):
        pass

    def setup(self) -> None:
        pass

    def cycle(self) -> list[Call]:
        code, printed, seconds = run_cli(["gradcheck"])
        rows = printed.splitlines()[1:]
        ok = (code == 0 and len(rows) == self.OPS
              and all(row.split()[1:2] == ["pass"] for row in rows))
        return [Call(seconds, ok, printed)]


WORKLOADS = {"experiment-six": ExperimentSix, "lacmap-512": Lacmap512,
             "gradcheck-suite": GradcheckSuite}


# ---------------------------------------------------------------- environment

def _read(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def git_sha() -> str | None:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    sha = _read(os.path.join(ROOT, ".git", ref))
    if sha is None:
        for line in (_read(os.path.join(ROOT, ".git", "packed-refs")) or "").splitlines():
            if line.endswith(" " + ref):
                sha = line.split()[0]
    return sha


def environment(seed: int) -> dict:
    cpuinfo = _read("/proc/cpuinfo") or ""
    model = next((line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
                  if line.startswith("model name")), None)
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = _read(f"{index}/size")
    return {"git_sha": git_sha(), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "cpu_model": model,
            "caches": caches, "python": platform.python_version(),
            "numpy": np.__version__, "blas_threads": BLAS_THREADS, "seed": seed}


# ---------------------------------------------------------------- measurement

def import_seconds() -> float:
    """Seconds to import lacuna (and numpy) in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import lacuna; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def setup_seconds(workload) -> float:
    """Median import time plus median input-generation time."""
    imports = [import_seconds() for _ in range(IMPORT_REPEATS)]
    generation = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        generation.append(time.perf_counter() - start)
    return statistics.median(imports) + statistics.median(generation)


def tail_percentile(latencies: list[float]) -> str:
    """Highest whole percentile with at least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    for q in range(99, -1, -1):
        value = ordered[max(0, -(-q * n // 100) - 1)]  # nearest rank
        beyond = sum(v > value for v in ordered)
        if beyond >= 10:
            return f"p{q} = {value:.4f} s ({beyond} of {n} samples beyond)"
    return f"none: {n} samples leave fewer than 10 beyond any percentile"


def measure(workload, seconds: float) -> dict:
    """Set-up time, then operations (`cycle` calls) for `seconds`.

    An operation starts only if, at the mean latency so far, it would end
    within `seconds`, so a run does not overrun by up to one operation.
    """
    setup_s = setup_seconds(workload)
    ops: list[list[Call]] = []
    start = time.perf_counter()
    while not ops or (len(ops) + 1) * (time.perf_counter() - start) / len(ops) <= seconds:
        ops.append(workload.cycle())
    op_seconds = [sum(c.seconds for c in op) for op in ops]
    calls = [c for op in ops for c in op]
    latencies = [c.seconds for c in calls]
    return {
        "calls": calls,
        "report": {"ops": len(ops), "call_p50_s": statistics.median(latencies),
                   "tail_latency": tail_percentile(latencies)},
        "metrics": {
            "setup_s": setup_s,
            "op_p50_s": statistics.median(op_seconds),
            "ops_per_s": len(ops) / sum(op_seconds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        },
    }


def measure_traced(workload, seconds: float) -> dict:
    """Untraced (U) and traced (T) repetitions of set-up plus one operation.

    They run in the order U T T U, repeated, for at least four repetitions
    and until `seconds` have passed after a whole U/T pair, so that each
    adjacent pair (0, 1), (2, 3), ... holds one of each kind.
    """
    import tracer

    calls: list[Call] = []
    kinds, walls, outputs, layers = [], [], [], []
    missing: set[str] = set()
    start = time.perf_counter()
    for n, kind in enumerate(itertools.cycle("UTTU")):
        if n >= 4 and n % 2 == 0 and time.perf_counter() - start >= seconds:
            break
        begin = time.perf_counter()
        with tracer.Tracer() if kind == "T" else contextlib.nullcontext() as tr:
            workload.setup()
            rep = workload.cycle()
        walls.append(time.perf_counter() - begin)
        kinds.append(kind)
        if tr is not None:
            missing.update(tr.missing)
            layers.append(tracer.layer_metrics(tr.spans))
            if len(layers) == 1:
                profile = tracer.profile(tr.spans)
        calls.extend(rep)
        outputs.append([c.output for c in rep])
    metrics = {name: (layers[0][name] if name in tracer.COUNTERS
                      else statistics.median(m[name] for m in layers))
               for name in layers[0]}
    metrics["trace.overhead_s"] = statistics.median(
        (walls[j + 1] - walls[j]) * (1 if kinds[j] == "U" else -1)
        for j in range(0, len(walls), 2))
    checks = {
        "layers_found": not missing,
        "counters_repeat": all(m[name] == layers[0][name]
                               for m in layers for name in tracer.COUNTERS),
        "traced_outputs_match": all(out == outputs[0] for out in outputs),
    }
    return {"calls": calls, "metrics": metrics,
            "report": {"self_checks": checks, "not_found": sorted(missing),
                       "profile": profile},
            "self_checks_ok": all(checks.values())}


def named_figures(workload: str, result: dict) -> dict:
    """The end-to-end figures under the names users know them by."""
    metrics, calls = result["metrics"], result["calls"]
    if workload == "experiment-six":
        return {"experiment_s": metrics["op_p50_s"],
                "mean_accuracy": ExperimentSix.mean_accuracy(calls)}
    if workload == "lacmap-512":
        return {"lacmap_p50_s": result["report"]["call_p50_s"],
                "lacmap_mpix_per_s": len(calls) * TEXTURE_SIZE ** 2 / 1e6
                / sum(c.seconds for c in calls)}
    return {"gradcheck_s": metrics["op_p50_s"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "lacuna", "__init__.py")):
        print(f"error: no lacuna sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import lacuna

    if not os.path.abspath(lacuna.__file__).startswith(SRC + os.sep):
        print(f"error: imported lacuna from {lacuna.__file__}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    make_work_dir()
    try:
        workload = WORKLOADS[args.workload](args.seed)
        if args.trace:
            result = measure_traced(workload, args.seconds)
        else:
            result = measure(workload, args.seconds)
    finally:
        remove_work_dir()

    calls = result["calls"]
    failed = sum(not c.ok for c in calls)
    metrics = result["metrics"]
    report = {"workload": args.workload, "calls": len(calls),
              "error_rate": failed / len(calls), **result["report"]}
    if not args.trace:
        report.update(named_figures(args.workload, result))
    print("environment", json.dumps(environment(args.seed)))
    print("report", json.dumps(report))

    listed = spec["per_layer" if args.trace else "end_to_end"]
    out_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                   for m in listed}
    for name, entry in out_metrics.items():
        print(f"  {name:<36} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0 and result.get("self_checks_ok", True),
                      "attempted": len(calls), "failed": failed,
                      "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
