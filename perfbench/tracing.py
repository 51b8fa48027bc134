"""Span tracing of the optapprox layers, installed from outside the package.

``Tracer.install`` replaces every public function defined in a layer
module by a wrapper, in every ``optapprox`` module namespace that binds
it -- ``approximant.gram`` as well as ``spaces.gram``.  A wrapper records
a span only while a job is set, so calls made by the output checks are
not traced.  Spans are kept in memory; ``write`` saves them at the end.

Self time is measured on the calling thread's CPU clock: a span's CPU
time minus that of its child spans on the same thread.  ``zeros`` runs
its degrees on a thread pool, and a wall clock would count each pool
thread's wait for the interpreter lock as work.  A span opened on a pool
thread takes the main thread's innermost open span as its parent.
"""

from __future__ import annotations

import gzip
import json
import sys
import threading
import types
from collections import defaultdict
from time import perf_counter, thread_time

#: The modules of src/optapprox that are layers; series.py and exact.py
#: are the scalar and coefficient arithmetic every layer uses, and their
#: time counts as the caller's.
LAYERS = ("cli", "families", "spaces", "linsolve", "approximant", "orthopoly",
          "kernels", "levinson", "zeros")


def _max_denominator_bits(values) -> int:
    best = 0
    for x in values:
        for part in (getattr(x, "re", x), getattr(x, "im", 0)):
            best = max(best, getattr(part, "denominator", 1).bit_length())
    return best


def _gram_info(args, result):
    f, n, alpha = args[:3]
    return id(f), len(f), int(n), float(alpha)


#: Extra facts recorded per span, from a call's arguments and result.
_INFO = {
    "spaces.gram": _gram_info,
    "spaces.gram_matrix": _gram_info,
    "linsolve.solve_exact": lambda args, result: _max_denominator_bits(result),
    "families.realize": lambda args, result: len(result),
    "zeros.poly_roots": lambda args, result: len(result.roots),
}

# span tuple fields
NAME, START, END, PARENT, JOB, SELF, INFO = range(7)


class Tracer:
    def __init__(self):
        self.spans = []
        self.job = None
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._main_stack = []
        self._saved = []

    def install(self) -> int:
        """Wrap the layer functions; returns the number of bindings wrapped."""
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if modname != "optapprox" and not modname.startswith("optapprox."):
                continue
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not isinstance(obj, types.FunctionType):
                    continue
                pkg, _, layer = obj.__module__.rpartition(".")
                if pkg != "optapprox" or layer not in LAYERS:
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self._wrap(obj, f"{layer}.{obj.__name__}")
                setattr(module, name, wrappers[obj])
                self._saved.append((module, name, obj))
        return len(self._saved)

    def uninstall(self) -> None:
        for module, name, obj in self._saved:
            setattr(module, name, obj)
        self._saved.clear()

    def begin_job(self, job_id) -> None:
        self._tls.stack = self._main_stack = []
        self.job = job_id

    def end_job(self) -> None:
        self.job = None

    def _wrap(self, fn, key):
        info = _INFO.get(key)
        tls, lock, spans = self._tls, self._lock, self.spans

        def wrapper(*args, **kwargs):
            job = self.job
            if job is None:
                return fn(*args, **kwargs)
            stack = getattr(tls, "stack", None)
            if stack is None:
                stack = tls.stack = []
            if stack:
                parent = stack[-1][0]
            else:
                main = self._main_stack
                parent = main[-1][0] if main else -1
            with lock:
                idx = len(spans)
                spans.append(None)
            frame = [idx, 0.0]
            stack.append(frame)
            c0 = thread_time()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                cpu = thread_time() - c0
                stack.pop()
                if stack:
                    stack[-1][1] += cpu
                spans[idx] = (key, t0, t1, parent, job, cpu - frame[1], None)
            if info is not None:
                try:
                    spans[idx] = spans[idx][:INFO] + (info(args, result),)
                except (TypeError, ValueError, AttributeError, IndexError):
                    pass
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def write(self, path) -> None:
        """Save the spans as gzipped JSON lines: name, start and end (s),
        parent span index (-1 for none), job id, self time (ms)."""
        with gzip.open(path, "wt") as fh:
            for s in self.spans:
                fh.write(json.dumps([s[NAME], round(s[START], 7), round(s[END], 7),
                                     s[PARENT], s[JOB], round(s[SELF] * 1e3, 4)]))
                fh.write("\n")


def self_ms_by_layer(spans) -> dict:
    """Summed self time (ms) of each layer's spans."""
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        out[s[NAME].partition(".")[0]] += s[SELF] * 1e3
    return out


def layer_metrics(spans, job_backend) -> dict:
    """Per-layer counts and self times (ms) from the spans of a traced pass.

    ``job_backend`` maps each job id to its backend.  A function that no
    longer exists simply contributes no spans.
    """
    self_ms = self_ms_by_layer(spans)
    fn_ms = defaultdict(float)          # by layer.function
    fn_calls = defaultdict(int)
    fn_jobs = defaultdict(set)
    layer_calls = defaultdict(int)      # calls entering a layer from outside it
    layer_jobs = defaultdict(set)
    backend_ms = defaultdict(float)     # linsolve self time by job backend
    tag = [None] * len(spans)           # "gram" / "tail" for Gram assembly spans
    gram_ms = tail_ms = 0.0
    gram_calls = gram_terms = realized = roots = max_bits = 0
    gram_keys = set()

    for i, s in enumerate(spans):
        name, parent, job, ms, info = s[NAME], s[PARENT], s[JOB], s[SELF] * 1e3, s[INFO]
        layer = name.partition(".")[0]
        fn_ms[name] += ms
        fn_calls[name] += 1
        fn_jobs[name].add(job)
        if parent < 0 or spans[parent][NAME].partition(".")[0] != layer:
            layer_calls[layer] += 1
            layer_jobs[layer].add(job)
        if layer == "linsolve":
            backend_ms[job_backend[job]] += ms
        if name == "linsolve.solve_exact" and info is not None:
            max_bits = max(max_bits, info)
        elif name == "families.realize" and info is not None:
            realized += info
        elif name == "zeros.poly_roots" and info is not None:
            roots += info

        ptag = tag[parent] if parent >= 0 else None
        if name == "spaces.gram_matrix" and info is not None:
            p = spans[parent] if parent >= 0 else None
            is_tail = (p is not None and p[NAME] == "spaces.gram" and p[INFO] is not None
                       and info[1] < p[INFO][1])
            tag[i] = "tail" if is_tail or ptag == "tail" else "gram"
            gram_terms += (info[2] + 1) ** 2 * info[1]
            if tag[i] == "gram":
                gram_calls += 1
                gram_keys.add((job, info[0], info[3]))
        elif name == "spaces.gram":
            tag[i] = "gram"
        else:
            tag[i] = ptag
        if layer == "spaces":
            if tag[i] == "gram":
                gram_ms += ms
            elif tag[i] == "tail":
                tail_ms += ms

    def per_job(calls, jobs):
        return calls / len(jobs) if jobs else 0.0

    return {
        "linsolve.self_ms": self_ms["linsolve"],
        "linsolve.exact_ms": backend_ms["exact"],
        "linsolve.float_ms": backend_ms["float"],
        "linsolve.calls": layer_calls["linsolve"],
        "linsolve.solves_per_job": per_job(layer_calls["linsolve"], layer_jobs["linsolve"]),
        "linsolve.exact_max_bits": max_bits,
        "spaces.self_ms": self_ms["spaces"],
        "spaces.gram_ms": gram_ms,
        "spaces.tail_ms": tail_ms,
        "spaces.gram_calls": gram_calls,
        "spaces.gram_terms": gram_terms,
        "spaces.gram_reuse": len(gram_keys) / gram_calls if gram_calls else 0.0,
        "families.self_ms": self_ms["families"],
        "families.realize_ms": fn_ms["families.realize"],
        "families.realized_coeffs": realized,
        "approximant.self_ms": self_ms["approximant"],
        "approximant.optimal_calls": fn_calls["approximant.optimal"],
        "orthopoly.self_ms": self_ms["orthopoly"],
        "orthopoly.basis_ms": fn_ms["orthopoly.basis"],
        "orthopoly.basis_calls": fn_calls["orthopoly.basis"],
        "orthopoly.basis_per_job": per_job(fn_calls["orthopoly.basis"],
                                           fn_jobs["orthopoly.basis"]),
        "kernels.self_ms": self_ms["kernels"],
        "levinson.ms": self_ms["levinson"],
        "levinson.solves_per_job": per_job(fn_calls["levinson.levinson_solve"],
                                           fn_jobs["levinson.levinson_solve"]),
        "zeros.self_ms": self_ms["zeros"],
        "zeros.roots_ms": fn_ms["zeros.poly_roots"],
        "zeros.roots": roots,
        "zeros.first_zero_ms": fn_ms["zeros.first_zero"] + fn_ms["zeros.first_zero_with_tail"],
        "cli.self_ms": self_ms["cli"],
    }
