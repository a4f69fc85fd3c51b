"""Command-line front end: lacunarity heatmaps, experiments, gradient checks.

Exit codes: 0 success, 1 usage or config error, 2 unreadable or corrupt
input file, 3 training divergence, 4 gradient-check failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from .experiment import (
    ExperimentConfigError,
    load_config,
    run_experiment,
    write_results,
)
from .gradcheck import run_gradient_suite
from .lacunarity import LacunarityConfig, base_lacunarity, heatmap
from .pgm import PgmError, read_pgm_raw, write_pgm
from .tensor import PoolSpec
from .train import DivergenceError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DIVERGENCE = 3
EXIT_GRADCHECK = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; route that through exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _int_list(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"{raw!r} is not a comma list of ints")


def build_parser() -> _Parser:
    parser = _Parser(prog="lacuna", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    lacmap = sub.add_parser(
        "lacmap", help="write a lacunarity heatmap PGM for an input PGM")
    lacmap.add_argument("--method", choices=("base", "dbc", "ms"),
                        default="base")
    lacmap.add_argument("--window", type=int, default=None,
                        help="square window size (default: 3x3 stride 1 for "
                             "--method dbc, else one window over the whole "
                             "image, which writes a 1x1 heatmap whose one "
                             "pixel is always 0; the image's global "
                             "lacunarity is printed either way)")
    lacmap.add_argument("--stride", type=int, default=None,
                        help="window stride (default: the window size)")
    lacmap.add_argument("--scales", type=int, default=None,
                        help="pyramid levels for --method ms (default: 2)")
    lacmap.add_argument("--dilations", type=_int_list, default=None,
                        help="comma list of box sizes for --method dbc "
                             "(default: 1,2,3)")
    lacmap.add_argument("--epsilon", type=float, default=1e-6)
    lacmap.add_argument("input", help="input PGM (P2 or P5)")
    lacmap.add_argument("output", help="output heatmap PGM")

    experiment = sub.add_parser(
        "experiment", help="train and score pooling methods from an INI config")
    experiment.add_argument("config", help="INI experiment config path")

    gradcheck = sub.add_parser(
        "gradcheck", help="finite-difference check every registered backward")
    gradcheck.add_argument("--seeds", type=int, default=20,
                           help="number of probe seeds per operation")
    gradcheck.add_argument("--probes", type=int, default=100)
    gradcheck.add_argument("--tol", type=float, default=1e-4)
    return parser


def _cmd_lacmap(args) -> int:
    # (flag, what it needs, passed without it); parsed defaults are None
    misplaced = (
        ("--stride", "--window",
         args.stride is not None and args.window is None),
        ("--stride", "a value >= 1", args.stride is not None and args.stride < 1),
        ("--scales", "--method ms",
         args.scales is not None and args.method != "ms"),
        ("--dilations", "--method dbc",
         args.dilations is not None and args.method != "dbc"),
    )
    for flag, needs, bad in misplaced:
        if bad:
            print(f"usage error: {flag} needs {needs}", file=sys.stderr)
            return EXIT_USAGE
    try:
        pixels, maxval = read_pgm_raw(args.input)
    except (OSError, PgmError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    x = pixels  # the reader's own array, scaled in place
    x /= maxval  # to [0, 1]; the operators apply the tanh scaling

    try:
        window = None
        if args.window is not None:
            stride = args.stride if args.stride is not None else args.window
            window = PoolSpec.square(args.window, stride=stride)
        given = {"scales": args.scales, "dilation_set": args.dilations}
        cfg = LacunarityConfig(
            method={"ms": "multiscale"}.get(args.method, args.method),
            window=window, epsilon=args.epsilon,
            **{k: v for k, v in given.items() if v is not None})
        heat = heatmap(x, cfg)
    except ValueError as exc:  # bad flag combination for this input
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        write_pgm(heat, args.output)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    del heat  # written; the whole-image value below needs its own maps

    whole = LacunarityConfig(method="base", epsilon=args.epsilon)
    print(f"{float(base_lacunarity(x, whole)[0, 0, 0, 0]):.6f}")
    return EXIT_OK


def _cmd_experiment(args) -> int:
    try:
        cfg = load_config(args.config)
    except ExperimentConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = run_experiment(cfg)
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    try:
        path = write_results(result)
    except OSError as exc:
        print(f"error: cannot write results: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for s in result.summaries:
        print(f"{s.method}: accuracy {s.mean_accuracy:.6f} "
              f"+/- {s.std_accuracy:.6f}")
    print(f"results written to {path}")
    return EXIT_OK


def _cmd_gradcheck(args) -> int:
    if args.seeds < 1 or args.probes < 1 or not 0 < args.tol < math.inf:
        print("usage error: --seeds and --probes must be >= 1, --tol a "
              "positive finite number", file=sys.stderr)
        return EXIT_USAGE
    reports = run_gradient_suite(seeds=range(args.seeds), tol=args.tol,
                                 probes=args.probes)
    by_op: dict[str, list] = {}
    for rep in reports:
        by_op.setdefault(rep.op_id, []).append(rep)
    failed = False
    print(f"{'operation':<24} {'status':<6} {'max_rel':>10} {'runs':>5} "
          f"{'resampled':>9}")
    for op_id, group in by_op.items():
        ok = all(r.passed for r in group)
        failed = failed or not ok
        worst = max(r.max_rel_error for r in group)
        resampled = sum(r.resampled for r in group)
        print(f"{op_id:<24} {'pass' if ok else 'FAIL':<6} "
              f"{worst:>10.3e} {len(group):>5} {resampled:>9}")
    return EXIT_GRADCHECK if failed else EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    command = {"lacmap": _cmd_lacmap, "experiment": _cmd_experiment,
               "gradcheck": _cmd_gradcheck}[args.command]
    return command(args)


if __name__ == "__main__":
    raise SystemExit(main())
