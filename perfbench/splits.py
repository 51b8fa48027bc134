"""One-off check of where the time of two single solves goes.

    python3 perfbench/splits.py

Traces exact ``optimal(1 - z, 50)`` at alpha = 0 and float ``optimal`` on
the eta family (eta = 0.8, alpha = -1) at truncation 10^6 and n = 20, and
prints each layer's share of the summed self time as JSON.  The first
should be about all linsolve and the second about all spaces.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from optapprox import approximant, families  # noqa: E402

import tracing  # noqa: E402


def split(label, call) -> dict:
    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin_job(label)
    t0 = perf_counter()
    try:
        call()
    finally:
        wall = perf_counter() - t0
        tracer.end_job()
        tracer.uninstall()
    by_layer = tracing.self_ms_by_layer(tracer.spans)
    total = sum(by_layer.values())
    return {"wall_s": round(wall, 3), "self_ms": round(total, 1),
            "share": {k: round(v / total, 4) for k, v in by_layer.items() if v / total >= 5e-4}}


def main() -> int:
    exact_f = families.realize(families.FunctionSpec("one_minus_z_pow", {"N": 1}, "exact"))
    eta_f = families.FunctionSpec("eta_family", {"eta": 0.8, "truncation": 10 ** 6}, "float")
    out = {
        "exact optimal(1-z, n=50, alpha=0)":
            split("exact", lambda: approximant.optimal(exact_f, 50, 0)),
        "float optimal(eta=0.8, M=1e6, n=20, alpha=-1), realize included":
            split("float", lambda: approximant.optimal(families.realize(eta_f), 20, -1)),
    }
    print(json.dumps(out, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
