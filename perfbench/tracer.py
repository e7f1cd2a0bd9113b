"""Spans around the calls into each `intgeo` layer, recorded from outside.

`Tracer` wraps the public functions listed in TRACED at every place they
are bound (the modules import each other with `from .x import f`, so one
function can live under several names), records one span per call (name,
start, end, parent) in memory, and puts the originals back on exit. Self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute) of every traced callable, in metric-name order
TRACED = [
    ("volumes", "batch_ellipsoid_intrinsic_volumes"),
    ("volumes", "closed_intrinsic_volumes"),
    ("symmetric", "sample_gaussian_sym"),
    ("symmetric", "sample_haar_orthogonal"),
    ("symmetric", "eigvals_sym_batch"),
    ("symmetric", "expm_sym"),
    ("weyl", "c_direct"),
    ("weyl", "c_weyl"),
    ("weyl", "load_constants"),
    ("kinematic", "lhs_kinematic"),
    ("kinematic", "crofton_coefficient"),
    ("kinematic", "build_report"),
    ("kinematic", "separation_lemma_check"),
    ("sampling", "sample_group_element"),
    ("sampling", "translation_region"),
    ("sampling", "sample_affine_flat"),
    ("sampling", "flat_hits"),
    ("bodies", "intersects"),
    ("bodies", "support"),
    ("bodies", "affine_image"),
    ("bodies", "separating_hyperplane"),
    ("bodies", "contains_points"),
    ("bodies", "minkowski_sum_vpolytopes"),
    ("linprog", "solve_lp"),
    ("estimation", "RunningMean.update"),
    ("estimation", "merge_results"),
    ("cli", "main"),
]

# per-layer metrics: (name, unit, better)
PER_LAYER = [
    ("volumes.batch_ellipsoid_intrinsic_volumes.self_s", "s", "lower"),
    ("volumes.batch_ellipsoid_intrinsic_volumes.rows_per_s", "1/s", "higher"),
    ("volumes.closed_intrinsic_volumes.self_s", "s", "lower"),
    ("symmetric.sample_gaussian_sym.self_s", "s", "lower"),
    ("symmetric.sample_haar_orthogonal.self_s", "s", "lower"),
    ("symmetric.eigvals_sym_batch.self_s", "s", "lower"),
    ("symmetric.expm_sym.calls", "count", "lower"),
    ("symmetric.expm_sym.self_s", "s", "lower"),
    ("weyl.c_direct.self_s", "s", "lower"),
    ("weyl.c_weyl.self_s", "s", "lower"),
    ("weyl.ess", "1", "higher"),
    ("weyl.load_constants.self_s", "s", "lower"),
    ("kinematic.lhs_kinematic.self_s", "s", "lower"),
    ("kinematic.lhs_kinematic.samples_per_s", "1/s", "higher"),
    ("kinematic.crofton_coefficient.self_s", "s", "lower"),
    ("kinematic.crofton_coefficient.flats_per_s", "1/s", "higher"),
    ("kinematic.build_report.self_s", "s", "lower"),
    ("kinematic.separation_lemma_check.self_s", "s", "lower"),
    ("kinematic.separation_lemma_check.trials_per_s", "1/s", "higher"),
    ("sampling.sample_group_element.calls", "count", "lower"),
    ("sampling.sample_group_element.self_s", "s", "lower"),
    ("sampling.translation_region.self_s", "s", "lower"),
    ("sampling.sample_affine_flat.self_s", "s", "lower"),
    ("sampling.flat_hits.calls", "count", "lower"),
    ("sampling.flat_hits.self_s", "s", "lower"),
    ("sampling.flat_hits.hit_frac", "1", "higher"),
    ("bodies.intersects.calls", "count", "lower"),
    ("bodies.intersects.self_s", "s", "lower"),
    ("bodies.intersects.true_frac", "1", "higher"),
    ("bodies.support.calls", "count", "lower"),
    ("bodies.support.self_s", "s", "lower"),
    ("bodies.affine_image.self_s", "s", "lower"),
    ("bodies.separating_hyperplane.calls", "count", "lower"),
    ("bodies.separating_hyperplane.self_s", "s", "lower"),
    ("bodies.contains_points.self_s", "s", "lower"),
    ("bodies.minkowski_sum_vpolytopes.self_s", "s", "lower"),
    ("linprog.solve_lp.calls", "count", "lower"),
    ("linprog.solve_lp.self_s", "s", "lower"),
    ("linprog.lps_per_lhs_sample", "1", "lower"),
    ("linprog.simplex_errors", "count", "lower"),
    ("estimation.RunningMean.update.calls", "count", "lower"),
    ("estimation.RunningMean.update.self_s", "s", "lower"),
    ("estimation.merge_results.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.thread_speedup", "1", "higher"),
    ("cli.thread_invariant", "1", "higher"),
    ("trace.overhead_s", "s", "lower"),
]


class _Stat:
    __slots__ = ("calls", "total", "self", "errors", "work", "hits")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.errors = 0
        self.work = 0.0  # rows, samples, flats or trials processed
        self.hits = 0.0  # true results, or summed ESS for c_weyl


def _flats(args) -> int:
    # flats are sampled only for chi with j < n; the other cases are exact
    phi, M, j, samples = args[:4]
    return int(samples) if getattr(phi, "name", phi) == "chi" and j < M.dim else 0


# what each call adds to its _Stat: (work, hits) from (positional args, result)
_TALLY = {
    "volumes.batch_ellipsoid_intrinsic_volumes":
        lambda a, r: (a[0].shape[0] if getattr(a[0], "ndim", 1) == 2 else 1, 0),
    "kinematic.lhs_kinematic": lambda a, r: (a[4], 0),
    "kinematic.crofton_coefficient": lambda a, r: (_flats(a), 0),
    "kinematic.separation_lemma_check": lambda a, r: (a[2], 0),
    "sampling.flat_hits": lambda a, r: (0, bool(r)),
    "bodies.intersects": lambda a, r: (0, bool(r)),
    "weyl.c_weyl": lambda a, r: (0, next(iter(r.values())).ess),
}


class Tracer:
    """Context manager that traces the TRACED callables of a loaded intgeo."""

    def __init__(self):
        self.stats = {f"{m}.{a}": _Stat() for m, a in TRACED}
        self.names = list(self.stats)
        self.spans: list[tuple[int, float, float, int]] = []  # name id, start, end, parent
        self.lps_in_lhs = 0
        self._stack: list[list] = []  # [span index, start, child time]
        self._lhs_depth = 0
        self._undo: list[tuple[object, str, object]] = []

    # -- patching -----------------------------------------------------------

    def __enter__(self) -> "Tracer":
        mods = {name: mod for name, mod in sys.modules.items()
                if mod is not None and (name == "intgeo" or name.startswith("intgeo."))}
        for i, (m, attr) in enumerate(TRACED):
            owner = mods[f"intgeo.{m}"]
            if "." in attr:  # a method: wrap it on its class
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(i, getattr(cls, meth)))
                continue
            fn = getattr(owner, attr)
            wrapper = self._wrap(i, fn)
            for mod in mods.values():
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, key, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for obj, key, val in reversed(self._undo):
            setattr(obj, key, val)
        self._undo.clear()

    def _patch(self, obj, key: str, new) -> None:
        self._undo.append((obj, key, getattr(obj, key)))
        setattr(obj, key, new)

    def _wrap(self, idx: int, fn):
        name = self.names[idx]
        stat = self.stats[name]
        tally = _TALLY.get(name)
        is_lhs = name == "kinematic.lhs_kinematic"
        is_lp = name == "linprog.solve_lp"
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [len(spans) - 1, clock(), 0.0]
            stack.append(frame)
            if is_lhs:
                self._lhs_depth += 1
            elif is_lp and self._lhs_depth:
                self.lps_in_lhs += 1
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stat.errors += 1
                raise
            finally:
                end = clock()
                stack.pop()
                if is_lhs:
                    self._lhs_depth -= 1
                dur = end - frame[1]
                spans[frame[0]] = (idx, frame[1], end, parent)
                stat.calls += 1
                stat.total += dur
                stat.self += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
            if tally is not None:
                work, hits = tally(args, result)
                stat.work += work
                stat.hits += hits
            return result

        return traced

    # -- results ------------------------------------------------------------

    def layer_metrics(self, runs: int) -> dict[str, float]:
        """Per-layer figures for one workload run, from `runs` traced runs."""
        s = self.stats
        out: dict[str, float] = {}
        for name, stat in s.items():
            out[f"{name}.self_s"] = stat.self / runs
            out[f"{name}.calls"] = stat.calls / runs

        def rate(name: str, seconds: float) -> float:
            return s[name].work / seconds if seconds > 0 else 0.0

        def frac(name: str) -> float:
            return s[name].hits / s[name].calls if s[name].calls else 0.0

        b = "volumes.batch_ellipsoid_intrinsic_volumes"
        out[f"{b}.rows_per_s"] = rate(b, s[b].self)
        for name, key in (("kinematic.lhs_kinematic", "samples_per_s"),
                          ("kinematic.crofton_coefficient", "flats_per_s"),
                          ("kinematic.separation_lemma_check", "trials_per_s")):
            out[f"{name}.{key}"] = rate(name, s[name].total)
        out["sampling.flat_hits.hit_frac"] = frac("sampling.flat_hits")
        out["bodies.intersects.true_frac"] = frac("bodies.intersects")
        out["weyl.ess"] = frac("weyl.c_weyl")
        lhs_samples = s["kinematic.lhs_kinematic"].work
        out["linprog.lps_per_lhs_sample"] = self.lps_in_lhs / lhs_samples if lhs_samples else 0.0
        # exceptions that escaped the simplex
        out["linprog.simplex_errors"] = float(s["linprog.solve_lp"].errors)
        return out

    def dump(self, path: str) -> None:
        """Write every recorded span as JSON: names plus (name, start, end, parent)."""
        with open(path, "w") as fh:
            json.dump({"names": self.names, "fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))
