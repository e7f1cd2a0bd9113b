"""Command line front end.

Four subcommands: intrinsic (closed-form or Steiner-fit intrinsic volumes of
a body), cj (deformation constants by either route), kinematic (both sides
of the kinematic formula with a full report), lemma-check (the separation
biconditional stress test). All estimators require an explicit --seed; there
is no wall-clock default, so identical configurations reproduce byte-identical
JSON up to the metadata block. Sample counts accept scientific notation
("1e6"). Exit codes: 2 for configuration errors, 3 for numerical failures.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from . import bodies as bd
from . import kinematic, weyl
from .estimation import merge_results, run_chunks
from .linprog import SimplexError
from .volumes import (QuadratureError, closed_intrinsic_volumes, steiner_fit)

SCHEMA_VERSION = 1


class ConfigError(Exception):
    pass


def parse_samples(text: str | int | float) -> int:
    if isinstance(text, bool) or not isinstance(text, (str, int, float)):
        raise ConfigError(f"bad sample count {text!r}")
    try:
        val = float(text)
    except ValueError as exc:
        raise ConfigError(f"bad sample count {text!r}") from exc
    if not np.isfinite(val) or val < 1 or val != int(val):
        raise ConfigError(f"sample count must be a positive integer, got {text!r}")
    return int(val)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return cfg


def _merge_config(args: argparse.Namespace, cfg: dict,
                  parser: argparse.ArgumentParser) -> None:
    # explicit flags win; config fills the gaps. Each value takes the path a
    # flag's text takes: as a string, through the subcommand parser's type=
    # and choices checks
    actions = {a.dest: a for a in parser._actions}
    for key, val in cfg.items():
        attr = key.replace("-", "_")
        if (val is None or attr not in actions or not hasattr(args, attr)
                or getattr(args, attr) is not None):
            continue
        action = actions[attr]
        val = str(val)
        if action.type is not None:
            try:
                val = action.type(val)
            except ValueError as exc:
                raise ConfigError(f"bad config value {key!r}: {val!r}") from exc
        if action.choices is not None and val not in action.choices:
            raise ConfigError(f"config value {key!r} must be one of "
                              f"{sorted(action.choices)}, got {val!r}")
        setattr(args, attr, val)


def _require_seed(args) -> int:
    if args.seed is None:
        raise ConfigError("--seed is required (no wall-clock default)")
    return int(args.seed)


def _threads(args) -> int:
    if args.threads is None:
        return os.cpu_count() or 1
    t = int(args.threads)
    if t < 1:
        raise ConfigError("--threads must be at least 1")
    return t


def _load_body_arg(path: str | None, flag: str):
    if not path:
        raise ConfigError(f"{flag} is required")
    try:
        return bd.load_body(path)
    except OSError as exc:
        raise ConfigError(f"cannot read {flag} file: {exc}") from exc
    except (ValueError, json.JSONDecodeError) as exc:
        raise ConfigError(f"bad body in {flag} file: {exc}") from exc


def _emit(payload: dict, args) -> None:
    rows = payload.pop("_csv_rows", None)
    payload["metadata"] = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
    }
    if getattr(args, "format", "json") == "csv":
        if rows is None:
            raise ConfigError("csv output is not available for this command")
        buf = io.StringIO()
        csv.writer(buf).writerows(rows)
        text = buf.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def _radius(text: str) -> float:
    try:
        r = float(text)
    except ValueError as exc:
        raise ConfigError(f"bad --radii entry {text!r}") from exc
    if not (np.isfinite(r) and r > 0.0):
        raise ConfigError(f"--radii entries must be finite and positive, got {text!r}")
    return r


def cmd_intrinsic(args) -> dict:
    seed = _require_seed(args)
    body = _load_body_arg(args.body, "--body")
    method = args.method or "closed"
    n = body.dim
    if method == "closed":
        try:
            values = closed_intrinsic_volumes(body)
        except ValueError as exc:
            raise ConfigError(f"no closed form: {exc}") from exc
        results = {"values": values.tolist(),
                   "std_errors": [0.0] * len(values),
                   "method": "closed"}
        rows = [["j", "value", "std_error"]]
        rows += [[j, float(values[j]), 0.0] for j in range(len(values))]
    else:
        samples = parse_samples(args.samples or "100000")
        if args.radii:
            radii = [_radius(r) for r in str(args.radii).split(",")]
            if len(radii) < n + 1:
                raise ConfigError(f"--radii needs at least n + 1 = {n + 1} entries")
        else:
            radii = [0.25 * (i + 1) for i in range(n + 2)]
        fit = steiner_fit(body, radii, samples, seed)
        results = {"values": fit.values.tolist(),
                   "std_errors": fit.std_errors.tolist(),
                   "radii": fit.radii.tolist(),
                   "measured": fit.measured.tolist(),
                   "measured_se": fit.measured_se.tolist(),
                   "samples": fit.samples,
                   "method": "steiner"}
        rows = [["j", "value", "std_error"]]
        rows += [[j, float(fit.values[j]), float(fit.std_errors[j])]
                 for j in range(len(fit.values))]
    return {"schema_version": SCHEMA_VERSION, "command": "intrinsic",
            "params": {"body": bd.body_to_dict(body), "method": method,
                       "seed": seed, "n": n},
            "results": results, "_csv_rows": rows}


def cmd_cj(args) -> dict:
    seed = _require_seed(args)
    if args.n is None:
        raise ConfigError("--n is required")
    n = int(args.n)
    if n < 1 or n > 8:
        raise ConfigError("supported dimensions are 1 <= n <= 8")
    method = args.method or "both"
    if method in ("weyl", "both") and n > weyl.WEYL_MAX_N:
        raise ConfigError(f"the weyl route needs n <= {weyl.WEYL_MAX_N}; "
                          f"use --method direct for n = {n}")
    samples = parse_samples(args.samples or "1000000")
    js = None
    if args.j is not None:
        try:
            js = sorted({int(x) for x in str(args.j).split(",")})
        except ValueError as exc:
            raise ConfigError(f"--j must be a comma list of integers, got {args.j!r}") from exc
        if any(j < 0 or j > n for j in js):
            raise ConfigError("--j entries must lie in [0, n]")
    threads = _threads(args)
    out: dict = {}
    records = []
    methods = ("direct", "weyl") if method == "both" else (method,)
    for m in methods:
        [parts] = run_chunks(
            [(lambda rng, k, m=m: weyl.compute_constants(n, k, rng, method=m, js=js),
              samples)],
            seed + (0 if m == "direct" else 1), threads)
        if m == "weyl":
            merged = weyl.merge_weyl(parts, seed)
            out[m] = {str(j): {**r.to_dict()} for j, r in sorted(merged.items())}
        else:
            merged = {j: merge_results([p[j] for p in parts], seed)
                      for j in parts[0]}
            out[m] = {str(j): r.to_dict() for j, r in sorted(merged.items())}
        records += weyl.constants_to_records(n, m, merged)
    if args.cache:
        weyl.save_constants(args.cache, records)
    return {"schema_version": SCHEMA_VERSION, "command": "cj",
            "params": {"n": n, "method": method, "samples": samples,
                       "seed": seed, "threads": threads, "j": js},
            "results": out}


def cmd_kinematic(args) -> dict:
    seed = _require_seed(args)
    group = args.group or "gl"
    phi = args.phi or "chi"
    M = _load_body_arg(args.M, "--M")
    L = _load_body_arg(args.L, "--L")
    try:
        kinematic.check_lhs_inputs(group, phi, M, L)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    n = M.dim
    samples = parse_samples(args.samples or "1000000")
    inner = parse_samples(str(kinematic.INNER_SAMPLES if args.inner_samples is None
                              else args.inner_samples))
    stage = kinematic.stage_samples(samples)
    cj_samples = parse_samples(args.cj_samples) if args.cj_samples else stage
    crofton_samples = parse_samples(args.crofton_samples) if args.crofton_samples else stage
    window = None
    if args.window_radius:
        try:
            window = float(args.window_radius)
        except ValueError as exc:
            raise ConfigError(f"bad --window-radius {args.window_radius!r}") from exc
        rad = bd.outer_radius(M)
        if not (np.isfinite(window) and window >= rad):
            raise ConfigError(f"--window-radius must be at least the outer radius "
                              f"of M ({rad:.6g}), got {window}")
    threads = _threads(args)

    constants = None
    if args.cj_cache:
        try:
            records = weyl.load_constants(args.cj_cache)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"bad constants cache: {exc}") from exc
        constants = weyl.lookup_constants(records, n, method="direct")
        if set(constants) < set(range(n + 1)):
            constants = weyl.lookup_constants(records, n, method="weyl")
        if set(constants) < set(range(n + 1)):
            raise ConfigError("constants cache is missing some j for this n")

    report = kinematic.build_report(group, phi, M, L, samples, seed,
                                    inner_samples=inner, cj_samples=cj_samples,
                                    crofton_samples=crofton_samples,
                                    window_radius=window, constants=constants,
                                    threads=threads)
    payload = {"schema_version": SCHEMA_VERSION, "command": "kinematic",
               "params": {"group": group, "phi": phi,
                          "M": bd.body_to_dict(M), "L": bd.body_to_dict(L),
                          "samples": samples, "inner_samples": inner,
                          "cj_samples": cj_samples,
                          "crofton_samples": crofton_samples,
                          "window_radius": window, "seed": seed,
                          "threads": threads},
               "results": report.to_dict(),
               "_csv_rows": report.csv_rows()}
    return payload


def cmd_lemma_check(args) -> dict:
    seed = _require_seed(args)
    trials = parse_samples(args.trials or "1000")
    rng = np.random.default_rng(seed)
    if args.M:
        M = _load_body_arg(args.M, "--M")
        L = _load_body_arg(args.L, "--L")
        try:
            kinematic.check_lemma_inputs(M, L)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    else:
        M = bd.random_polytope(2, 8, rng)
        L = bd.random_polytope(2, 8, rng)
    res = kinematic.separation_lemma_check(M, L, trials, rng)
    return {"schema_version": SCHEMA_VERSION, "command": "lemma-check",
            "params": {"trials": trials, "seed": seed,
                       "M": bd.body_to_dict(M), "L": bd.body_to_dict(L)},
            "results": res.to_dict()}


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intgeo",
        description="Monte Carlo integral geometry for convex bodies")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (required; no wall-clock default)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads (default: available cores)")
        p.add_argument("--config", default=None,
                       help="JSON config file; explicit flags win")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.set_defaults(parser=p)

    p = sub.add_parser("intrinsic", help="intrinsic volumes of one body")
    p.add_argument("--body", default=None, help="body JSON file")
    p.add_argument("--method", default=None, choices=["closed", "steiner"])
    p.add_argument("--samples", default=None, help="MC budget (steiner)")
    p.add_argument("--radii", default=None, help="comma list of dilation radii")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    common(p)
    p.set_defaults(func=cmd_intrinsic)

    p = sub.add_parser("cj", help="deformation constants c_j")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--method", default=None, choices=["direct", "weyl", "both"])
    p.add_argument("--samples", default=None)
    p.add_argument("--j", default=None, help="comma list of j (default all)")
    p.add_argument("--cache", default=None, help="write constants cache JSON here")
    common(p)
    p.set_defaults(func=cmd_cj)

    p = sub.add_parser("kinematic", help="compare both sides of the formula")
    p.add_argument("--group", default=None, choices=["gl", "o", "so"])
    p.add_argument("--phi", default=None, choices=["chi", "volume"])
    p.add_argument("--M", default=None, help="body JSON file for M")
    p.add_argument("--L", default=None, help="body JSON file for L")
    p.add_argument("--samples", default=None)
    p.add_argument("--inner-samples", dest="inner_samples", type=int, default=None)
    p.add_argument("--cj-samples", dest="cj_samples", default=None)
    p.add_argument("--crofton-samples", dest="crofton_samples", default=None)
    p.add_argument("--window-radius", dest="window_radius", default=None)
    p.add_argument("--cj-cache", dest="cj_cache", default=None,
                   help="constants cache JSON from `intgeo cj --cache`")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    common(p)
    p.set_defaults(func=cmd_kinematic)

    p = sub.add_parser("lemma-check", help="separation biconditional stress test")
    p.add_argument("--trials", default=None)
    p.add_argument("--M", default=None, help="V-polytope JSON (default random)")
    p.add_argument("--L", default=None, help="V-polytope JSON (default random)")
    common(p)
    p.set_defaults(func=cmd_lemma_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args, _load_config(args.config), args.parser)
        payload = args.func(args)
        _emit(payload, args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, weyl.EssFloorError, SimplexError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
