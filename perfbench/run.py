"""Benchmark of the optapprox command line.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1] [--inject-error]

Runs seeded job mixes through ``optapprox.cli.main`` in-process and checks
every output against an oracle.  Each workload runs in its own worker
process (worker.py) with APPROX_THREADS unset.  Without ``--workload``
all workloads run, one after the other.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
traced pass and prints the per-layer metrics.  The names and units come
from BENCHMARK.json at the root of the checkout.  A table with sample
counts goes to stdout first; the last line is one JSON object with the
keys correct, attempted, failed and metrics.

``--inject-error`` is the negative control: it damages the first job's
output before it is checked, so ``failed`` must come out nonzero.

Raw results go to .perfbench-out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
WORKER = os.path.join(HERE, "worker.py")

#: Set-ups per untraced run -- the worker's own and SETUP_SAMPLES - 1
#: set-up-only processes; setup_s is their median.
SETUP_SAMPLES = 3
#: Time a workload run may take beyond --seconds, for its set-up
#: processes, the checker's start, the checks and the last cycle's
#: overrun (s).  With the default run length a run ends within 170 s.
RUN_SLACK_S = 140
#: A tail is the highest whole percentile with at least this many samples
#: beyond it in the smallest run (MIN_CYCLES cycles).
TAIL_BEYOND = 10


def quantile(sorted_xs, q: float) -> float:
    """Linear interpolation between order statistics, q in [0, 1]."""
    pos = (len(sorted_xs) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def tail_percentile(per_cycle: int, min_cycles: int) -> int:
    return math.floor(100 * (1 - TAIL_BEYOND / (per_cycle * min_cycles)))


def _spawn(name, args, extra, deadline):
    """Run one worker; returns (seconds from spawn to ready, later stdout lines)."""
    env = dict(os.environ)
    env.pop("APPROX_THREADS", None)
    env["PYTHONPATH"] = SRC
    cmd = [sys.executable, WORKER, "--workload", name, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    t0 = time.monotonic()
    # A session of its own, so that a kill reaches the worker's checker too.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"worker for {name} timed out")
    if proc.returncode != 0:
        raise SystemExit(f"worker for {name} exited with {proc.returncode}")
    lines = stdout.splitlines()
    if not lines or not lines[0].startswith("ready "):
        raise SystemExit(f"worker for {name} never got ready")
    return float(lines[0].split()[1]) - t0, lines[1:]


def end_to_end(raw, setups) -> dict:
    """The end-to-end metrics of one untraced run, with sample counts."""
    m = {}
    for kind in ("sweep", "point"):
        xs = sorted(raw["samples"][kind])
        q = tail_percentile(raw["per_cycle"][kind], raw["min_cycles"])
        m[f"{kind}_p50_ms"] = (quantile(xs, 0.5) * 1e3 if xs else 0.0, len(xs), "p50")
        m[f"{kind}_tail_ms"] = (quantile(xs, q / 100) * 1e3 if xs else 0.0, len(xs), f"p{q}")
    correct = raw["attempted"] - raw["failed"]
    m["jobs_per_s"] = (correct / raw["busy_s"], correct, "correct jobs / summed main() time")
    m["failed_frac"] = (raw["failed"] / raw["attempted"], raw["attempted"], "of attempted")
    m["peak_rss_mb"] = (raw["peak_rss_mb"], 1, "worker process")
    m["setup_s"] = (statistics.median(setups), len(setups), "median")
    return m


def run_workload(name, args, spec) -> dict:
    deadline = time.monotonic() + args.seconds + RUN_SLACK_S
    extra = ["--inject-error"] if args.inject_error else []
    setups = []
    if args.trace:
        os.makedirs(OUT, exist_ok=True)
        extra += ["--spans", os.path.join(
            OUT, f"spans-{name}-seed{args.seed}.jsonl.gz")]
    else:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_spawn(name, args, ["--setup-only"], deadline)[0])
    ready, lines = _spawn(name, args, extra, deadline)
    setups.append(ready)
    raw = json.loads(lines[-1])
    raw["setup_samples_s"] = setups

    if args.trace:
        listed = spec["per_layer"]
        values = {k: (v, raw["cycles"], "") for k, v in raw["layer"].items()}
        header = (f"{raw['spans']} spans, {raw['wrapped_bindings']} wrapped bindings, "
                  f"{raw['cycles']} cycles, each run traced and untraced")
    else:
        listed = spec["end_to_end"] + [{"name": "failed_frac", "unit": "1"}]
        values = end_to_end(raw, setups)
        header = (f"{raw['cycles']} cycles, {raw['attempted']} jobs in {raw['wall_s']:.1f} s "
                  f"({raw['per_cycle']['sweep']} sweep + {raw['per_cycle']['point']} point "
                  "per cycle)")
    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        raise SystemExit(f"no value for {missing}")

    env = raw["env"]
    print(f"== {name}  seed {args.seed}  trace {args.trace}  {header}")
    print(f"   nproc {env['nproc']}  python {env['python']}  numpy {env['numpy']}  "
          f"scipy {env['scipy']}  APPROX_THREADS {env['approx_threads']}")
    for m in listed:
        value, count, note = values[m["name"]]
        print(f"   {m['name']:<26} {value:>14.6g} {m['unit']:<9} n={count:<5} {note}")
    for failure in raw["failures"]:
        print(f"   FAILED {failure['error']}\n          {' '.join(failure['argv'])}")

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"{name}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(raw, fh)
    metrics = {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
               for m in listed if m["name"] != "failed_frac"}
    return {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
            "failed": raw["failed"], "metrics": metrics}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "design.json")) as fh:
        design = json.load(fh)
    ap = argparse.ArgumentParser(description="optapprox CLI benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, default=None,
                    help="one workload (default: all of them)")
    ap.add_argument("--seed", type=int, default=design["seeds"]["default"])
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="least time a workload run measures (default: run_seconds "
                         "of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-error", action="store_true",
                    help="negative control: damage one job's output before checking it")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(SRC, "optapprox", "__init__.py")):
        print(f"no optapprox package under {SRC}", file=sys.stderr)
        return 2

    results = []
    for name in ([args.workload] if args.workload else workloads.WORKLOADS):
        results.append(run_workload(name, args, spec))
    for result in results:
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
