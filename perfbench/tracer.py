"""Span recorder that times lacuna's layers from outside the program.

`Tracer.install()` replaces every public module-level function of the ten
layer modules, plus three public methods (the backbone conv, the model's
scale planes and the optimiser step), with a wrapper that records a span:
name, parent span, start and end.  A function is replaced at every place it
is bound, not only in its defining module: ``from .tensor import pool_sum``
copies the name into ``lacunarity``, ``model`` and ``gradcheck``, the
package namespace re-exports it (``lacuna.train`` is the function, not the
module) and ``gradcheck.BACKWARD`` holds the vjp functions in a dict.
Private helpers stay unwrapped; wrapping them costs more than it tells.
Every function the metrics below name must be found and wrapped: one that
is gone (renamed, made private) is listed in `Tracer.missing` rather than
read as a layer whose cost went to zero.

Spans stay in memory until `layer_metrics` folds them into per-layer
figures.  A layer's self time is its spans' duration minus the time their
child spans cover.  Counters are derived from arguments and return values
only, so they repeat exactly across runs of one input.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import statistics
import time

import numpy as np

LAYERS = ("tensor", "lacunarity", "gradcheck", "model", "train", "metrics",
          "textures", "pgm", "experiment", "cli")

METHODS = {
    ("model", "FrozenBackbone"): ("features",),
    ("model", "FusionModel"): ("scale_planes",),
    ("train", "Adam"): ("step",),
}

POOL_KERNELS = ("tensor.pool_sum", "tensor.pool_max", "tensor.pool_min")
POOL_ALL = POOL_KERNELS + ("tensor.pool_avg", "tensor.pool_l2")
TEXTURE_MAKERS = ("textures.generate_texture", "textures.heterogeneity_dataset",
                  "textures.toy_dataset")
LAC_ENTRIES = ("lacunarity.base_lacunarity", "lacunarity.dbc_lacunarity",
               "lacunarity.multiscale_lacunarity", "lacunarity.dbc_scale_planes",
               "lacunarity.multiscale_scale_planes")

# (metric, spans whose self time it sums); names ending in "*" are prefixes
SELF_TIME_GROUPS = (
    ("tensor.pool.self_s", POOL_ALL),
    ("tensor.validate.self_s", ("tensor.as_feature_map",)),
    ("tensor.resample.self_s", ("tensor.upsample_bilinear",)),
    ("tensor.mix.self_s", ("tensor.mix_scales",)),
    ("lacunarity.op.self_s", ("lacunarity.base_lacunarity",
                              "lacunarity.dbc_lacunarity",
                              "lacunarity.multiscale_lacunarity",
                              "lacunarity.multiscale_scale_planes",
                              "lacunarity.tanh_scale")),
    ("lacunarity.variance_ratio.self_s", ("lacunarity.variance_ratio",)),
    ("lacunarity.dbc.self_s", ("lacunarity.dbc_scale_planes",
                               "lacunarity.dbc_column_heights",
                               "lacunarity.dbc_plane", "lacunarity.box_index")),
    ("lacunarity.pyramid.self_s", ("lacunarity.gaussian_pyramid",
                                   "lacunarity.blur_binomial5")),
    ("model.backbone.self_s", ("model.FrozenBackbone.features",)),
    ("model.planes.self_s", ("model.FusionModel.scale_planes",)),
    ("train.self_s", ("train.train", "train.split_indices", "train.Adam.step")),
    ("train.evaluate.self_s", ("train.evaluate",)),
    ("gradcheck.backward.self_s", ("gradcheck.backward", "gradcheck.vjp_*")),
    ("gradcheck.fd.self_s", ("gradcheck.finite_diff_check",
                             "gradcheck.run_gradient_suite")),
    ("metrics.fdr.self_s", ("metrics.*",)),
    ("textures.self_s", ("textures.*",)),
    ("pgm.read.self_s", ("pgm.read_pgm_raw", "pgm.read_pgm")),
    ("pgm.write.self_s", ("pgm.write_pgm",)),
    ("experiment.self_s", ("experiment.*",)),
    ("cli.self_s", ("cli.*",)),
)

# per-layer metrics that are counts derived from arguments and return values
COUNTERS = (
    "tensor.pool.calls", "tensor.pool.window_cells", "tensor.pool.bytes_computed",
    "tensor.validate.calls", "lacunarity.op.calls",
    "model.backbone.passes", "model.backbone.images", "model.backbone.useful_ratio",
    "model.planes.calls", "train.steps", "train.epochs", "train.early_stops",
    "gradcheck.backward.calls", "gradcheck.fd.probes", "gradcheck.resampled",
    "gradcheck.probe_accept_ratio", "textures.images", "pgm.bytes",
)


# ------------------------------------------------------------ argument probes

def _pool_probe(args, kwargs, out):
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    return out.size * spec.area, out.size


def _backbone_probe(args, kwargs, out):
    images = args[1] if len(args) > 1 else kwargs.get("images")
    if images is None:
        return ()
    rows = np.ascontiguousarray(images, dtype=np.float64)
    return tuple(hashlib.blake2b(row.tobytes(), digest_size=16).digest()
                 for row in rows)


def _train_probe(args, kwargs, out):
    return out.history.epochs(), bool(out.stopped_early)


def _suite_probe(args, kwargs, out):
    return (sum(r.probe_count for r in out), sum(r.resampled for r in out))


def _texture_probe(args, kwargs, out):
    return len(out[0]) if isinstance(out, tuple) else 1


def _pgm_read_probe(args, kwargs, out):
    return os.path.getsize(args[0] if args else kwargs["path"])


def _pgm_write_probe(args, kwargs, out):
    return os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])


def _cli_probe(args, kwargs, out):
    argv = args[0] if args else kwargs.get("argv")
    return argv[0] if argv else None


PROBES = {
    **{name: _pool_probe for name in POOL_KERNELS},
    "model.FrozenBackbone.features": _backbone_probe,
    "train.train": _train_probe,
    "gradcheck.run_gradient_suite": _suite_probe,
    "textures.generate_texture": _texture_probe,
    "textures.heterogeneity_dataset": _texture_probe,
    "textures.toy_dataset": _texture_probe,
    "pgm.read_pgm_raw": _pgm_read_probe,
    "pgm.read_pgm": _pgm_read_probe,
    "pgm.write_pgm": _pgm_write_probe,
    "cli.main": _cli_probe,
}

# span record fields
NAME, PARENT, START, END, INFO, COVER_END = range(6)


class Tracer:
    """Records spans of wrapped lacuna functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None, 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[END] = rec[COVER_END] = clock()
            if probe is not None:
                # probe time is charged to neither this span nor its parent
                rec[INFO] = probe(args, kwargs, out)
                rec[COVER_END] = clock()
            return out

        return traced

    def install(self) -> None:
        """Wrap the public functions at every binding site in lacuna."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        package = importlib.import_module("lacuna")
        modules = {layer: importlib.import_module(f"lacuna.{layer}")
                   for layer in LAYERS}
        wrapped = {}
        names = []
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj)
                    names.append(f"{layer}.{attr}")
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("__"):
                    continue
                if inspect.isfunction(obj) and obj in wrapped:
                    self._undo.append((setattr, module, attr, obj))
                    setattr(module, attr, wrapped[obj])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrapped:
                            self._undo.append((dict.__setitem__, obj, key, value))
                            obj[key] = wrapped[value]
        for (layer, cls_name), methods in METHODS.items():
            cls = getattr(modules[layer], cls_name, None)
            for attr in methods:
                original = vars(cls).get(attr) if cls is not None else None
                if original is None:
                    continue  # reported in self.missing
                self._undo.append((setattr, cls, attr, original))
                setattr(cls, attr, self._wrap(f"{layer}.{cls_name}.{attr}", original))
                names.append(f"{layer}.{cls_name}.{attr}")
        self.missing = [p for p in named_in_metrics() if not _matches_any(p, names)]

    def uninstall(self) -> None:
        while self._undo:
            restore, owner, key, original = self._undo.pop()
            restore(owner, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ------------------------------------------------------------- aggregation

def _matches(name: str, patterns) -> bool:
    return any(name == p or (p.endswith("*") and name.startswith(p[:-1]))
               for p in patterns)


def _matches_any(pattern: str, names) -> bool:
    return any(_matches(name, (pattern,)) for name in names)


def named_in_metrics() -> list[str]:
    """Function names and name patterns that the per-layer metrics read."""
    listed = [p for _, patterns in SELF_TIME_GROUPS for p in patterns]
    listed += [*PROBES, *POOL_ALL, *TEXTURE_MAKERS, *LAC_ENTRIES]
    return sorted(set(listed))


def _self_times(spans) -> list[float]:
    """Span duration minus the interval its direct children cover."""
    selfs = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            selfs[rec[PARENT]] -= rec[COVER_END] - rec[START]
    return selfs


def profile(spans) -> dict[str, list]:
    """Calls and self seconds per wrapped function, busiest first."""
    table: dict[str, list] = {}
    for rec, self_s in zip(spans, _self_times(spans)):
        entry = table.setdefault(rec[NAME], [0, 0.0])
        entry[0] += 1
        entry[1] += self_s
    return dict(sorted(table.items(), key=lambda item: -item[1][1]))


def layer_metrics(spans) -> dict[str, float]:
    """Fold one traced run's spans into the per-layer metrics (except overhead)."""
    out = {metric: 0.0 for metric, _ in SELF_TIME_GROUPS}
    out.update({metric: 0 for metric in COUNTERS})
    for name, (_, self_s) in profile(spans).items():
        for metric, patterns in SELF_TIME_GROUPS:
            if _matches(name, patterns):
                out[metric] += self_s

    digests = []
    step_ends: dict[int, list[float]] = {}
    probes_seen = resampled = 0
    last_base: dict[int, int] = {}
    for i, rec in enumerate(spans):
        name, parent, info = rec[NAME], rec[PARENT], rec[INFO]
        parent_name = spans[parent][NAME] if parent >= 0 else ""
        if name in POOL_KERNELS and info is not None:
            cells, outputs = info
            out["tensor.pool.calls"] += 1
            out["tensor.pool.window_cells"] += cells
            # float64 operands a direct window reduction reads, plus its outputs
            out["tensor.pool.bytes_computed"] += 8 * (cells + outputs)
        elif name == "tensor.as_feature_map":
            out["tensor.validate.calls"] += 1
        elif name in LAC_ENTRIES and parent_name not in LAC_ENTRIES:
            out["lacunarity.op.calls"] += 1
            if (name == "lacunarity.base_lacunarity" and parent_name == "cli.main"
                    and spans[parent][INFO] == "lacmap"):
                last_base[parent] = i  # lacmap prints the last one it makes
        elif name == "model.FrozenBackbone.features":
            out["model.backbone.passes"] += 1
            digests.extend(info or ())
        elif name == "model.FusionModel.scale_planes":
            out["model.planes.calls"] += 1
        elif name == "train.Adam.step":
            step_ends.setdefault(parent, []).append(rec[END])
        elif name == "train.train" and info is not None:
            out["train.epochs"] += info[0]
            out["train.early_stops"] += int(info[1])
        elif name == "gradcheck.backward":
            out["gradcheck.backward.calls"] += 1
        elif name == "gradcheck.run_gradient_suite" and info is not None:
            probes_seen += info[0]
            resampled += info[1]
        elif name in TEXTURE_MAKERS and not parent_name.startswith("textures."):
            out["textures.images"] += info or 0
        elif name.startswith("pgm.") and info is not None:
            out["pgm.bytes"] += info

    intervals = [b - a for ends in step_ends.values() for a, b in zip(ends, ends[1:])]
    out["train.steps"] = sum(len(ends) for ends in step_ends.values())
    out["train.step_p50_s"] = statistics.median(intervals) if intervals else 0.0
    out["model.backbone.images"] = len(digests)
    out["model.backbone.useful_ratio"] = (len(set(digests)) / len(digests)
                                          if digests else 0.0)
    out["gradcheck.fd.probes"] = probes_seen
    out["gradcheck.resampled"] = resampled
    out["gradcheck.probe_accept_ratio"] = (probes_seen / (probes_seen + resampled)
                                           if probes_seen else 0.0)
    pool_s = out["tensor.pool.self_s"]
    out["tensor.pool.cells_per_s"] = (out["tensor.pool.window_cells"] / pool_s
                                      if pool_s > 0 else 0.0)
    out["cli.lacmap.global_s"] = sum(spans[i][END] - spans[i][START]
                                     for i in last_base.values())
    return out
