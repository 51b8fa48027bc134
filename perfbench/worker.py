"""Run one workload in this process and print what it measured.

Started by run.py, one process per workload, so that each workload's
peak memory is its own.  Prints ``ready <monotonic time>`` once set-up is
done -- ``import optapprox``, input generation and one warm-up call of
each subcommand -- and then one JSON line with the raw measurements.

Each output is checked by oracles.py in a checker process of its own,
started after set-up, so that the checks' memory is not this process's.

Untraced (``--trace 0``): one client calls ``optapprox.cli.main(argv)`` in
a closed loop, the next job starting when the previous one has returned
and been checked.  Only ``main`` is timed.  Whole cycles run until at
least MIN_CYCLES are done and ``--seconds`` have passed.

Traced (``--trace 1``): TRACE_CYCLES fixed cycles, each run once with the
layer functions wrapped and once untraced (traced first in even cycles,
second in odd ones), so that counts repeat exactly and the tracing
overhead is measured on the same jobs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))

#: A run covers at least this many whole cycles.
MIN_CYCLES = 4
#: Cycles in a traced run, each run once traced and once untraced.
TRACE_CYCLES = 2


class Checker:
    """The output checks (oracles.py), run in a process of their own so
    that their imports and arrays do not count in this process's peak
    memory.  One request at a time: a job's check ends before the next
    job starts."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, os.path.join(HERE, "oracles.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def verify(self, job, rc, text, err, damage=False):
        """None if the job's result is right, else why not."""
        request = {"job": job.to_json(), "rc": rc, "stdout": text, "stderr": err,
                   "damage": damage}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the checker process ended early")
        return json.loads(reply)["why"]

    def close(self) -> None:
        """End the checker (it stops at the end of its input) and wait."""
        self.proc.stdin.close()
        self.proc.wait()


class Runner:
    """Runs jobs through ``cli.main``, checks their outputs and keeps the
    tallies.  A job fails on a nonzero exit code or an oracle mismatch."""

    def __init__(self, cli, checker, inject_error: bool):
        self.cli = cli
        self.checker = checker
        self.inject_error = inject_error
        self.attempted = 0
        self.busy_s = 0.0
        self.failures = []

    def run(self, job, tracer=None, job_id=None):
        """Run and check one job; returns (ok, latency in s, output).  Only
        the call of ``main`` is timed."""
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            if tracer is not None:
                tracer.begin_job(job_id)
            try:
                t0 = perf_counter()
                rc = self.cli.main(job.argv())
                dt = perf_counter() - t0
            finally:
                if tracer is not None:
                    tracer.end_job()
        text = stdout.getvalue()
        self.attempted += 1
        self.busy_s += dt
        damage = self.inject_error and self.attempted == 1
        why = self.checker.verify(job, rc, text, stderr.getvalue(), damage)
        if why is not None:
            self.failures.append({"argv": job.argv(), "error": why})
        return why is None, dt, text


def _tail_bound_ratio(jobs_outputs, limits) -> float:
    """Largest |z_1 - known limit| / reported tail over correct first-zero
    jobs on the paper's (eta, alpha) pairs; above 1 the reported tail is
    no bound."""
    worst = 0.0
    for job, text in jobs_outputs:
        key = (float(job.f["params"]["eta"]), float(job.alpha))
        if key not in limits:
            continue
        out = json.loads(text)
        z = out["value"]
        z = complex(z["re"], z["im"]) if isinstance(z, dict) else complex(z)
        err, tail = abs(z - limits[key]), float(out["tail_error_bound"])
        worst = max(worst, err / tail if tail > 0 else 1e9)
    return worst


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--inject-error", action="store_true")
    ap.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = ap.parse_args()

    t0 = perf_counter()
    import optapprox
    from optapprox import cli
    expected = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))),
                            "src", "optapprox")
    if os.path.dirname(os.path.realpath(optapprox.__file__)) != expected:
        print(f"optapprox was imported from {optapprox.__file__}, not from {expected}",
              file=sys.stderr)
        return 2
    import workloads
    t_import = perf_counter() - t0

    schedule = workloads.Schedule(args.workload, args.seed)
    first_cycle = schedule.cycle(0)
    t_inputs = perf_counter() - t0 - t_import

    warm = []
    for job in schedule.warmup:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(job.argv())
        warm.append((job, rc, stdout.getvalue(), stderr.getvalue()))
    t_warmup = perf_counter() - t0 - t_import - t_inputs
    print(f"ready {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    checker = Checker()
    try:
        return measure(args, cli, schedule, first_cycle, warm, checker,
                       {"import": t_import, "inputs": t_inputs, "warmup": t_warmup})
    finally:
        checker.close()


def measure(args, cli, schedule, first_cycle, warm, checker, setup_split) -> int:
    """Check the warm-up jobs, run the workload and print the result."""
    import numpy
    import scipy

    import workloads

    for job, rc, text, err in warm:
        why = checker.verify(job, rc, text, err)
        if why is not None:
            print(f"warm-up job {job.argv()} failed: {why}", file=sys.stderr)
            return 1

    runner = Runner(cli, checker, args.inject_error)
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_split_s": setup_split,
        "per_cycle": schedule.per_cycle(), "min_cycles": MIN_CYCLES,
        "env": {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
                "python": platform.python_version(), "numpy": numpy.__version__,
                "scipy": scipy.__version__,
                "approx_threads": os.environ.get("APPROX_THREADS")},
    }

    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        result["wrapped_bindings"] = tracer.install()
        traced_s = untraced_s = 0.0
        bytes_out = 0
        job_backend, outputs = {}, []
        for c in range(TRACE_CYCLES):
            jobs = first_cycle if c == 0 else schedule.cycle(c)
            if c % 2:  # traced and untraced passes alternate, to cancel drift
                untraced_s += sum(runner.run(job)[1] for job in jobs)
            for i, job in enumerate(jobs):
                job_id = f"{c}.{i}"
                job_backend[job_id] = job.backend
                ok, dt, text = runner.run(job, tracer, job_id)
                traced_s += dt
                bytes_out += len(text.encode())
                if ok and job.command == "first-zero":
                    outputs.append((job, text))
            if not c % 2:
                untraced_s += sum(runner.run(job)[1] for job in jobs)
        tracer.uninstall()
        layer = tracing.layer_metrics(tracer.spans, job_backend)
        layer["zeros.tail_bound_ratio"] = _tail_bound_ratio(outputs, workloads.PAPER_FIRST_ZEROS)
        layer["cli.bytes_out"] = bytes_out
        layer["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
        result.update(layer=layer, spans=len(tracer.spans), cycles=TRACE_CYCLES,
                      traced_s=traced_s, untraced_s=untraced_s)
        if args.spans:
            tracer.write(args.spans)
    else:
        samples = {"sweep": [], "point": []}
        start = perf_counter()
        c = 0
        while True:
            for job in (first_cycle if c == 0 else schedule.cycle(c)):
                ok, dt, _ = runner.run(job)
                if ok:
                    samples[job.kind].append(dt)
            c += 1
            if c >= MIN_CYCLES and perf_counter() - start >= args.seconds:
                break
        result.update(samples=samples, cycles=c, wall_s=perf_counter() - start)

    result.update(attempted=runner.attempted, failed=len(runner.failures),
                  busy_s=runner.busy_s,
                  failures=runner.failures[:5],
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
