"""Measuring process of the benchmark; run.py starts it in a fresh interpreter.

    worker.py measure --workload W --seed S --seconds T --trace 0|1 --workdir D
    worker.py setup --workdir D

`measure` writes the workload's inputs, builds its c_j caches, runs it once
untimed, then repeats it for T seconds through `intgeo.cli.main`, one
command at a time, checking every output. With --trace 1 it also runs the
thread probe and alternates untraced and traced repetitions. The record goes
to D/measure.json.

`setup` times one fresh start: import intgeo, build the parser, load the
first command's inputs, up to the moment that command draws its first
sample. It prints {"setup_s": ...}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback


def digest(results: dict) -> str:
    """SHA-256 of a `results` block as JSON with sorted keys."""
    return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()


class Checks:
    """Count of checks attempted and failed, with the names of the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed: list[str] = []

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(name)
            print(f"check failed: {name}", file=sys.stderr)


def run_command(argv: list[str]) -> tuple[int, float, dict | None]:
    """Run one command in-process: (exit code, wall seconds, results block)."""
    from intgeo import cli

    out = argv[argv.index("--out") + 1]
    t0 = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:  # a crash counts as a failed run, not a benchmark error
        traceback.print_exc()
        rc = -1
    wall = time.perf_counter() - t0
    if rc != 0:
        return rc, wall, None
    with open(out) as fh:
        return rc, wall, json.load(fh)["results"]


def run_workload(commands, workdir: str, checks: Checks, label: str,
                 expect: list[str] | None) -> tuple[list[float], list[dict | None]]:
    """One run of every command; checks each output and, given `expect`,
    that its results digest equals the expected one."""
    import workloads

    walls, results = [], []
    for i, cmd in enumerate(commands):
        rc, wall, res = run_command(cmd.with_out(os.path.join(workdir, f"out{i}.json")))
        for name, ok in workloads.check(cmd, rc, res):
            checks.add(f"{cmd.name}:{name}", ok)
        if expect is not None:
            checks.add(f"{cmd.name}:{label}-digest", res is not None and digest(res) == expect[i])
        walls.append(wall)
        results.append(res)
    return walls, results


def _openblas_threads() -> list[int]:
    """Thread counts reported by every OpenBLAS loaded in this process."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln})
    except OSError:
        return []
    counts = []
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                counts.append(int(fn()))
                break
    return counts


def machine() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", ""),
            "blas_threads": _openblas_threads()}


def measure(args) -> dict:
    import workloads
    from intgeo import cli  # noqa: F401  (import before anything is timed)

    checks = Checks()
    caches, commands = workloads.build(args.workload, args.seed, args.workdir)
    with open(os.path.join(args.workdir, "spec.json"), "w") as fh:
        out = os.path.join(args.workdir, "setup-out.json")
        json.dump({"setup_argv": commands[0].with_out(out)}, fh)
    run_workload(caches, args.workdir, checks, "cache", None)
    _, first = run_workload(commands, args.workdir, checks, "first", None)
    expect = [digest(r) if r is not None else "" for r in first]
    factors = [workloads.error_factor(c, r) if r is not None else 1.0
               for c, r in zip(commands, first)]
    record = {"machine": machine(),
              "commands": [{"name": c.name, "argv": c.argv, "results_sha256": d}
                           for c, d in zip(commands, expect)]}

    plain, traced = [], []
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        probe = {}
        for threads in (1, os.cpu_count() or 1):
            argv = workloads.thread_probe(threads) + ["--out", os.path.join(args.workdir, "probe.json")]
            rc, wall, res = run_command(argv)
            checks.add(f"thread-probe-{threads}:exit", rc == 0)
            probe[threads] = (wall, digest(res) if res is not None else None)
        record["thread_probe"] = {str(k): {"wall_s": w, "results_sha256": d}
                                  for k, (w, d) in probe.items()}
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or not plain:
        if tracer is None:
            order = [False]
        else:  # a traced and an untraced run, alternating which goes first
            order = [False, True] if len(plain) % 2 == 0 else [True, False]
        for traced_now in order:
            if traced_now:
                with tracer:
                    walls, _ = run_workload(commands, args.workdir, checks, "traced", expect)
                traced.append(walls)
            else:
                walls, _ = run_workload(commands, args.workdir, checks, "repeat", expect)
                plain.append(walls)

    record["rep_walls"] = plain
    record["wall_s"] = [sum(w) for w in plain]
    record["tta_s"] = [sum(w * f for w, f in zip(ws, factors)) for ws in plain]
    record["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        layers = tracer.layer_metrics(len(traced))
        (w1, d1), (wn, dn) = probe[1], probe[max(probe)]
        layers["cli.thread_speedup"] = w1 / wn
        layers["cli.thread_invariant"] = 1.0 if d1 is not None and d1 == dn else 0.0
        layers["trace.overhead_s"] = (statistics.median(sum(w) for w in traced)
                                      - statistics.median(record["wall_s"]))
        record["traced_wall_s"] = [sum(w) for w in traced]
        record["layers"] = layers
        record["spans"] = len(tracer.spans)
        tracer.dump(os.path.join(args.spans_dir, f"spans-{args.workload}.json"))
    record["attempted"] = checks.attempted
    record["failed"] = checks.failed
    return record


def setup(args) -> float:
    with open(os.path.join(args.workdir, "spec.json")) as fh:
        argv = json.load(fh)["setup_argv"]
    t0 = time.perf_counter()
    from intgeo import cli, kinematic, weyl

    class FirstSample(Exception):
        pass

    def first_sample(*_, **__):
        raise FirstSample

    # each command's sampling starts in exactly one of these
    weyl.compute_constants = first_sample
    kinematic.lhs_kinematic = first_sample
    kinematic.separation_lemma_check = first_sample
    try:
        cli.main(argv)
    except FirstSample:
        return time.perf_counter() - t0
    raise RuntimeError("the setup command finished without drawing a sample")


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["measure", "setup"])
    p.add_argument("--workdir", required=True)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spans-dir")
    args = p.parse_args()
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup(args)}))
        return 0
    record = measure(args)
    with open(os.path.join(args.workdir, "measure.json"), "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
