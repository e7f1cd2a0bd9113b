"""intgeo benchmark: one workload, measured from outside the program.

    python3 perfbench/run.py --workload cj-spectra --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout (the package is imported from
./src; nothing needs installing). The workload's commands run in a fresh
interpreter through `intgeo.cli.main`, with --threads 1 and BLAS pinned to
one thread, repeated for --seconds; every output is checked.

With --trace 0 the last line holds the end-to-end metrics:
  wall_s       median wall time of one run of the workload's commands
  tta_s        median time to 1% accuracy: per command, wall time x
               (worst relative standard error of its headline estimates
               / 0.01)^2, summed; a lemma check counts its wall time
  setup_s      median over fresh interpreters of import + parser + input
               load, up to the first sample drawn
  peak_rss_mb  peak resident memory of the measuring process
With --trace 1 it holds the per-layer metrics of tracer.PER_LAYER, from
runs traced by wrapping each layer's public functions, plus the thread
probe and the tracing overhead.

Failed checks and non-zero exits are counted in "failed" out of
"attempted"; fail_frac is their ratio. Inputs and spans are written under
./.perfbench; the run record (machine, results digests, every timing) goes
to ./.perfbench/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 5
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _child_env() -> dict:
    path = os.path.join(ROOT, "src")
    if os.environ.get("PYTHONPATH"):
        path += os.pathsep + os.environ["PYTHONPATH"]
    return dict(os.environ, PYTHONPATH=path, **PINNED)


def _worker(args: list[str], timeout: float, capture: bool = False) -> subprocess.CompletedProcess:
    # the worker's own stdout goes to our stderr: our stdout carries only the report
    return subprocess.run([sys.executable, os.path.join(HERE, "worker.py")] + args,
                          env=_child_env(), timeout=timeout, check=True, text=True,
                          stdout=subprocess.PIPE if capture else sys.stderr)


def _summary(values: list[float]) -> str:
    return f"median {statistics.median(values):.6g}  max {max(values):.6g}  n {len(values)}"


def main() -> int:
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "intgeo", "cli.py")):
        print(f"error: no intgeo sources under {ROOT}/src", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    try:
        _worker(["measure", "--workload", args.workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace),
                 "--workdir", workdir, "--spans-dir", out_dir],
                timeout=2 * args.seconds + 60)
        with open(os.path.join(workdir, "measure.json")) as fh:
            rec = json.load(fh)
        if not args.trace:
            rec["setup_s"] = [json.loads(_worker(["setup", "--workdir", workdir], 10,
                                                 capture=True).stdout)["setup_s"]
                              for _ in range(SETUP_PROBES)]
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = rec["attempted"], len(rec["failed"])
    m = rec["machine"]
    print(f"machine: nproc {m['nproc']}, python {m['python']}, numpy {m['numpy']}, "
          f"scipy {m['scipy']}, {m['blas']} ({m['blas_config']}), "
          f"blas threads {m['blas_threads']}")
    for c in rec["commands"]:
        print(f"results sha256 {c['results_sha256']}  {c['name']}")
    print(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} checks)"
          + (f": {', '.join(sorted(set(rec['failed'])))}" if failed else ""))
    if args.trace:
        from tracer import PER_LAYER

        print(f"wall_s untraced {_summary(rec['wall_s'])}; traced {_summary(rec['traced_wall_s'])}"
              f"; {rec['spans']} spans")
        metrics = {name: {"value": rec["layers"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
        for name, v in metrics.items():
            print(f"{name} [{v['unit']}] {v['value']:.6g}")
    else:
        for name in ("wall_s", "tta_s", "setup_s"):
            print(f"{name} [s] {_summary(rec[name])}")
        print(f"peak_rss_mb [MB] {rec['peak_rss_mb']:.6g}")
        metrics = {"wall_s": {"value": statistics.median(rec["wall_s"]), "unit": "s"},
                   "tta_s": {"value": statistics.median(rec["tta_s"]), "unit": "s"},
                   "setup_s": {"value": statistics.median(rec["setup_s"]), "unit": "s"},
                   "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"}}
    rec["metrics"] = metrics
    with open(os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump(rec, fh, indent=1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
