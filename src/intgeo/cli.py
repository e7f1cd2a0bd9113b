"""Command line front end.

Four subcommands: intrinsic (closed-form or Steiner-fit intrinsic volumes of
a body), cj (deformation constants by either route), kinematic (both sides
of the kinematic formula with a full report), lemma-check (the separation
biconditional stress test). All estimators require an explicit --seed; there
is no wall-clock default, so identical configurations reproduce byte-identical
JSON up to the metadata block. Sample counts accept scientific notation
("1e6").

Every flag's text is read once, by one parse_args pass: each flag's type=
converter (parse_samples, the comma lists, the body files, --threads at
least 1), required= and choices are the whole of its check, and the
parser's refusals raise ConfigError. The entries of a --config file are flag text too: they are
spliced in right after the subcommand, where any explicit flag, coming
later, overrides them, and a key that names no flag of the subcommand is
refused. Beyond the flags the command checks only that --M and --L come
together in lemma-check; the library checks every other input before it
draws and refuses it with ValueError. A cj run is weyl.run_constants, and
its cache is read back by weyl.load_constants, so the commands parse and
print. Exit codes: 2 for configuration errors, the library's ValueError
among them, and for an output path that cannot be written (OSError); 3
for numerical failures (np.linalg.LinAlgError among them).
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
from .linprog import SimplexError
from .volumes import (QuadratureError, closed_intrinsic_volumes, steiner_fit)

SCHEMA_VERSION = 1


class ConfigError(argparse.ArgumentTypeError):
    """A refused configuration: exit 2. When a type= converter raises it,
    argparse puts the flag's name in front of the message."""


class _Parser(argparse.ArgumentParser):
    """Refuses with ConfigError, so main reports a bad flag as it reports
    any other configuration error, in process and from a shell alike."""

    def error(self, message):
        raise ConfigError(message)


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


def _comma_list(kind):
    """type= converter of comma-separated text ("0.5,1,2") to a list of kind."""
    def convert(text: str) -> list:
        try:
            return [kind(x) for x in text.split(",")]
        except ValueError as exc:
            raise ConfigError(f"not a comma list of {kind.__name__}s: {text!r}") from exc
    return convert


def _threads(text: str) -> int:
    """type= converter of --threads: an integer of at least 1."""
    try:
        val = int(text)
    except ValueError as exc:
        raise ConfigError(f"not an integer: {text!r}") from exc
    if val < 1:
        raise ConfigError(f"threads must be at least 1, got {val}")
    return val


def _body(path: str):
    """type= converter of a body file's path to the body."""
    try:
        return bd.load_body(path)
    except OSError as exc:
        raise ConfigError(f"cannot read body file: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"bad body file: {exc}") from exc


def _config_flags(argv: list[str]) -> list[str]:
    """The entries of the --config file named in argv as flag text:
    {"inner_samples": 10} gives ["--inner-samples=10"]. A null value leaves
    its flag unset."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return []
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config file must hold a JSON object")
    return [f"--{key.replace('_', '-')}={val}" for key, val in cfg.items() if val is not None]


def _emit(payload: dict, args) -> None:
    rows = payload.pop("_csv_rows", None)
    payload["metadata"] = {
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
    }
    if getattr(args, "format", "json") == "csv":
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


def cmd_intrinsic(args) -> dict:
    body, n = args.body, args.body.dim
    if args.method == "closed":
        values = closed_intrinsic_volumes(body)
        results = {"values": values.tolist(),
                   "std_errors": [0.0] * len(values),
                   "method": "closed"}
    else:
        results = {**steiner_fit(body, args.radii, args.samples, args.seed).to_dict(),
                   "method": "steiner"}
    rows = [["j", "value", "std_error"]]
    rows += [[j, *row] for j, row in enumerate(zip(results["values"], results["std_errors"]))]
    return {"schema_version": SCHEMA_VERSION, "command": "intrinsic",
            "params": {"body": bd.body_to_dict(body), "method": args.method,
                       "seed": args.seed, "n": n},
            "results": results, "_csv_rows": rows}


def cmd_cj(args) -> dict:
    n, method, samples, seed = args.n, args.method, args.samples, args.seed
    js = None if args.j is None else sorted(set(args.j))
    routes = weyl.run_constants(n, samples, seed, weyl.ROUTES if method == "both" else (method,),
                                js=js, threads=args.threads)
    if args.cache:
        weyl.save_constants(args.cache, n, routes)
    return {"schema_version": SCHEMA_VERSION, "command": "cj",
            "params": {"n": n, "method": method, "samples": samples,
                       "seed": seed, "threads": args.threads, "j": js},
            "results": {route: {str(j): r.to_dict() for j, r in results.items()}
                        for route, results in routes.items()}}


def cmd_kinematic(args) -> dict:
    M, L, n, samples = args.M, args.L, args.M.dim, args.samples
    stage = kinematic.stage_samples(samples)
    cj_samples = args.cj_samples or stage
    crofton_samples = args.crofton_samples or stage

    constants = None
    if args.cj_cache:
        try:
            constants = weyl.load_constants(args.cj_cache, n)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"bad constants cache: {exc}") from exc

    report = kinematic.build_report(args.group, args.phi, M, L, samples, args.seed,
                                    inner_samples=args.inner_samples,
                                    cj_samples=cj_samples,
                                    crofton_samples=crofton_samples,
                                    window_radius=args.window_radius,
                                    constants=constants, threads=args.threads)
    return {"schema_version": SCHEMA_VERSION, "command": "kinematic",
            "params": {"group": args.group, "phi": args.phi,
                       "M": bd.body_to_dict(M), "L": bd.body_to_dict(L),
                       "samples": samples, "inner_samples": args.inner_samples,
                       "cj_samples": cj_samples,
                       "crofton_samples": crofton_samples,
                       "window_radius": args.window_radius, "seed": args.seed,
                       "threads": args.threads},
            "results": report.to_dict(),
            "_csv_rows": report.csv_rows()}


def cmd_lemma_check(args) -> dict:
    rng = np.random.default_rng(args.seed)
    M, L = args.M, args.L
    if (M is None) != (L is None):
        raise ConfigError(f"--M and --L go together: --{'L' if L is None else 'M'} is required")
    if M is None:
        M, L = bd.random_polytope(2, 8, rng), bd.random_polytope(2, 8, rng)
    res = kinematic.separation_lemma_check(M, L, args.trials, rng)
    return {"schema_version": SCHEMA_VERSION, "command": "lemma-check",
            "params": {"trials": args.trials, "seed": args.seed,
                       "M": bd.body_to_dict(M), "L": bd.body_to_dict(L)},
            "results": res.to_dict()}


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="intgeo",
                     description="Monte Carlo integral geometry for convex bodies")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed", type=int, required=True,
                       help="RNG seed (required; no wall-clock default)")
        p.add_argument("--threads", type=_threads, default=os.cpu_count() or 1,
                       help="worker threads (default: available cores)")
        p.add_argument("--config", help="JSON config file; explicit flags win")
        p.add_argument("--out", help="output path (default stdout)")

    p = sub.add_parser("intrinsic", help="intrinsic volumes of one body")
    p.add_argument("--body", type=_body, required=True, help="body JSON file")
    p.add_argument("--method", default="closed", choices=["closed", "steiner"])
    p.add_argument("--samples", type=parse_samples, default=100000,
                   help="MC budget (steiner)")
    p.add_argument("--radii", type=_comma_list(float),
                   help="comma list of dilation radii")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    common(p)
    p.set_defaults(func=cmd_intrinsic)

    p = sub.add_parser("cj", help="deformation constants c_j")
    p.add_argument("--n", type=int, required=True, choices=range(1, 9))
    p.add_argument("--method", default="both", choices=["direct", "weyl", "both"])
    p.add_argument("--samples", type=parse_samples, default=10**6)
    p.add_argument("--j", type=_comma_list(int), help="comma list of j (default all)")
    p.add_argument("--cache", help="write constants cache JSON here")
    common(p)
    p.set_defaults(func=cmd_cj)

    p = sub.add_parser("kinematic", help="compare both sides of the formula")
    p.add_argument("--group", default="gl", choices=list(kinematic.GROUPS))
    p.add_argument("--phi", default="chi", choices=["chi", "volume"])
    p.add_argument("--M", type=_body, required=True, help="body JSON file for M")
    p.add_argument("--L", type=_body, required=True, help="body JSON file for L")
    p.add_argument("--samples", type=parse_samples, default=10**6)
    p.add_argument("--inner-samples", type=parse_samples, default=kinematic.INNER_SAMPLES)
    p.add_argument("--cj-samples", type=parse_samples)
    p.add_argument("--crofton-samples", type=parse_samples)
    p.add_argument("--window-radius", type=float)
    p.add_argument("--cj-cache",
                   help="constants cache JSON from `intgeo cj --cache` (--group gl only)")
    p.add_argument("--format", default="json", choices=["json", "csv"])
    common(p)
    p.set_defaults(func=cmd_kinematic)

    p = sub.add_parser("lemma-check", help="separation biconditional stress test")
    p.add_argument("--trials", type=parse_samples, default=1000)
    p.add_argument("--M", type=_body, help="polygon JSON (default random)")
    p.add_argument("--L", type=_body, help="polygon JSON (default random)")
    common(p)
    p.set_defaults(func=cmd_lemma_check)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        # config entries go right after the subcommand: later flags win
        args = build_parser().parse_args(argv[:1] + _config_flags(argv[1:]) + argv[1:])
        _emit(args.func(args), args)
    except (QuadratureError, weyl.EssFloorError, SimplexError,
            FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, NotImplementedError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
