"""Seeded job mixes for the three workloads.

A job is one call of the ``optapprox`` command line.  ``zeros`` and
``cyclicity`` jobs are *sweeps* (every degree up to N); every other job
is a *point* job (one degree n).

Each workload is a fixed list of cells that is run as one *cycle*, over
and over.  A cell fixes what sets a job's cost: the command, the degree,
alpha, the kind of function, its degree or truncation length.  So every
cycle, and every run, has the same cost structure whatever the seed.
The seed, together with the cycle index, draws what the cost does not
depend on: polynomial coefficients, their signs and roots, eta away from
the paper's pairs, lambda, kernel points, and the order of the jobs in
the cycle.
Every draw is a function the mathematics defines (f(0) != 0,
0 < |lambda| < 1, alpha + 2 eta < 1), so no job is expected to fail.
"""

from __future__ import annotations

import cmath
import json
import math
import random
from dataclasses import dataclass

SWEEP_COMMANDS = ("zeros", "cyclicity")

#: The paper's eta-family first-zero limits, keyed by (eta, alpha).
PAPER_FIRST_ZEROS = {
    (1.0, -2.0): (8 * math.pi ** 2 - 57) / (8 * math.pi ** 2 - 54),
    (0.8, -1.0): 119.0 / 121.0,
}


@dataclass(frozen=True)
class Job:
    command: str
    backend: str
    f: dict                 # FunctionSpec JSON, passed as --f
    alpha: float | None     # None for levinson, which has no --alpha
    n: int                  # degree n, or the top degree N of a sweep
    z: complex = 0j         # kernel evaluation points
    w: complex = 0j

    def to_json(self) -> dict:
        return {"command": self.command, "backend": self.backend, "f": self.f,
                "alpha": self.alpha, "n": self.n,
                "z": [self.z.real, self.z.imag], "w": [self.w.real, self.w.imag]}

    @classmethod
    def from_json(cls, d: dict) -> "Job":
        return cls(d["command"], d["backend"], d["f"], d["alpha"], d["n"],
                   complex(*d["z"]), complex(*d["w"]))

    @property
    def kind(self) -> str:
        return "sweep" if self.command in SWEEP_COMMANDS else "point"

    def argv(self) -> list:
        a = [self.command, "--f", json.dumps(self.f), "--backend", self.backend]
        if self.alpha is not None:
            a += ["--alpha", _format_alpha(self.alpha)]
        if self.command == "zeros":
            a += ["--n-range", f"0..{self.n}"]
        elif self.command == "cyclicity":
            a += ["--max-n", str(self.n)]
        elif self.command != "first-zero":
            a += ["--n", str(self.n)]
        if self.command == "kernel":
            # "--z=" form: a value like "-0.5,0.1" would read as an option
            a += [f"--z={self.z.real!r},{self.z.imag!r}",
                  f"--w={self.w.real!r},{self.w.imag!r}"]
        return a


def _format_alpha(alpha: float) -> str:
    return str(int(alpha)) if float(alpha) == int(alpha) else repr(float(alpha))


# Cells are (command, n or N, function, alpha).  Within each class the
# cells form a ladder: a few cheap ones, three of similar cost in the
# middle (the median falls among them), three more of similar cost at the
# tail position (the third most expensive cell of a cycle), and the two
# most expensive.  Each step between these groups is about 1.4x or more,
# so a reported quantile stays among the samples of one group from run to
# run, and averages over three cells' worth of them.  The exact sweep
# groups are cyclicity jobs: the zeros thread pool makes a job's time
# swing with the load on the other core far more than its neighbours'.
# The two most expensive exact sweeps are zeros jobs, so that the Bareiss
# solves in linsolve, not exact Gram-Schmidt, take most of the time.

# -- exact-poly -----------------------------------------------------------
#
# A function is ("one_minus_z",) for 1 - z, ("binomial", sign, N) for
# (1 + sign z)^N, ("int_poly", degree) for seeded small integer
# coefficients, or ("signed", magnitudes) for those magnitudes with
# seeded signs after the constant term.

EXACT_CELLS = (
    ("cyclicity", 10, ("one_minus_z",), 2),
    ("zeros", 10, ("int_poly", 2), -2),
    ("cyclicity", 15, ("binomial", 1, 2), -1),
    ("zeros", 12, ("int_poly", 3), 1),
    ("cyclicity", 20, ("binomial", -1, 2), 1),
    ("cyclicity", 20, ("binomial", 1, 2), 1),
    ("cyclicity", 20, ("signed", (1, 2, 1)), 1),
    ("cyclicity", 23, ("binomial", -1, 2), 1),
    ("cyclicity", 23, ("binomial", 1, 2), 1),
    ("cyclicity", 23, ("signed", (1, 2, 1)), 1),
    ("zeros", 18, ("binomial", -1, 3), -2),
    ("zeros", 20, ("binomial", 1, 3), 2),
    ("approximant", 5, ("int_poly", 4), -2),
    ("levinson", 15, ("binomial", 1, 2), None),
    ("approximant", 12, ("int_poly", 4), -2),
    ("levinson", 25, ("one_minus_z",), None),
    ("approximant", 17, ("binomial", -1, 2), 0),
    ("approximant", 17, ("binomial", 1, 2), 0),
    ("approximant", 17, ("signed", (1, 2, 1)), 0),
    ("approximant", 20, ("binomial", -1, 2), -1),
    ("approximant", 20, ("binomial", 1, 2), -1),
    ("approximant", 20, ("signed", (1, 2, 1)), -1),
    ("approximant", 27, ("one_minus_z",), 2),
    ("approximant", 30, ("binomial", 1, 3), 2),
)


def _exact_f(kind: tuple, rng: random.Random) -> dict:
    if kind[0] == "one_minus_z":
        return {"family": "one_minus_z_pow", "params": {"N": 1}}
    if kind[0] == "binomial":
        family = "one_minus_z_pow" if kind[1] < 0 else "one_plus_z_pow"
        return {"family": family, "params": {"N": kind[2]}}
    if kind[0] == "signed":
        return {"coefficients": [kind[1][0]] + [rng.choice((-1, 1)) * m for m in kind[1][1:]]}
    nonzero = [-3, -2, -1, 1, 2, 3]
    coeffs = ([rng.choice(nonzero)] + [rng.randint(-3, 3) for _ in range(kind[1] - 1)]
              + [rng.choice(nonzero)])
    return {"coefficients": coeffs}


def _exact_cycle(rng: random.Random) -> list:
    return [Job(cmd, "exact", _exact_f(kind, rng), None if alpha is None else float(alpha), n)
            for cmd, n, kind, alpha in EXACT_CELLS]


# -- float-tail -----------------------------------------------------------
#
# First zeros of the eta family at truncations 1e5, 1e6 and 1e7 (the
# paper's (eta, alpha) pairs and seeded eta at other alphas), eta
# approximants at n <= 8, and Blaschke factors at alpha = 0.  A function
# is ("eta", eta or None for a seeded draw, truncation) or ("blaschke",
# truncation).

TAIL_CELLS = (
    ("first-zero", 0, ("eta", 1.0, 10 ** 5), -2.0),
    ("first-zero", 0, ("eta", 0.8, 10 ** 5), -1.0),
    ("first-zero", 0, ("eta", None, 10 ** 5), -1.5),
    ("approximant", 2, ("eta", None, 10 ** 5), -2.0),
    ("approximant", 10, ("blaschke", 10 ** 4), 0.0),
    ("approximant", 4, ("eta", None, 2 * 10 ** 5), 0.0),
    ("first-zero", 0, ("eta", 1.0, 10 ** 6), -2.0),
    ("first-zero", 0, ("eta", 0.8, 10 ** 6), -1.0),
    ("first-zero", 0, ("eta", None, 10 ** 6), -0.5),
    ("approximant", 8, ("eta", None, 3 * 10 ** 5), 0.5),
    ("approximant", 8, ("eta", None, 3 * 10 ** 5), -1.0),
    ("approximant", 25, ("blaschke", 5 * 10 ** 4), 0.0),
    ("approximant", 25, ("blaschke", 5 * 10 ** 4), 0.0),
    ("first-zero", 0, ("eta", 1.0, 10 ** 7), -2.0),
    ("first-zero", 0, ("eta", 0.8, 10 ** 7), -1.0),
    ("cyclicity", 10, ("blaschke", 10 ** 4), 0.0),
    ("cyclicity", 15, ("blaschke", 10 ** 4), 0.0),
    ("cyclicity", 20, ("blaschke", 10 ** 4), 0.0),
    ("cyclicity", 20, ("blaschke", 15 * 10 ** 3), 0.0),
    ("cyclicity", 25, ("blaschke", 16 * 10 ** 3), 0.0),
    ("cyclicity", 25, ("blaschke", 16 * 10 ** 3), 0.0),
    ("cyclicity", 25, ("blaschke", 16 * 10 ** 3), 0.0),
    ("cyclicity", 25, ("blaschke", 3 * 10 ** 4), 0.0),
    ("cyclicity", 25, ("blaschke", 3 * 10 ** 4), 0.0),
    ("cyclicity", 25, ("blaschke", 3 * 10 ** 4), 0.0),
    ("cyclicity", 30, ("blaschke", 5 * 10 ** 4), 0.0),
    ("cyclicity", 30, ("blaschke", 10 ** 5), 0.0),
)


def _eta_f(eta: float, M: int) -> dict:
    return {"family": "eta_family", "params": {"eta": eta, "truncation": M}}


def _tail_f(kind: tuple, alpha: float, rng: random.Random) -> dict:
    if kind[0] == "eta":
        eta = kind[1]
        if eta is None:
            # alpha + 2 eta < 1 is where the eta family lies in D_alpha
            eta = round(rng.uniform(0.1, 0.9) * (1.0 - alpha) / 2.0, 6)
        return _eta_f(eta, kind[2])
    lam = cmath.rect(rng.uniform(0.2, 0.8), rng.uniform(-math.pi, math.pi))
    return {"family": "blaschke",
            "params": {"lambda": {"re": lam.real, "im": lam.imag}, "truncation": kind[1]}}


def _tail_cycle(rng: random.Random) -> list:
    return [Job(cmd, "float", _tail_f(kind, alpha, rng), alpha, n)
            for cmd, n, kind, alpha in TAIL_CELLS]


# -- float-dense ----------------------------------------------------------
#
# Cells are (command, n or N, degree of f, alpha).

DENSE_CELLS = (
    ("cyclicity", 40, 3, -1.0),
    ("cyclicity", 55, 6, 0.5),
    ("zeros", 20, 1, 0.5),
    ("cyclicity", 70, 2, 0.0),
    ("zeros", 25, 4, -1.0),
    ("zeros", 25, 5, 0.0),
    ("zeros", 25, 2, 1.0),
    ("cyclicity", 100, 4, 1.0),
    ("cyclicity", 100, 6, -0.5),
    ("cyclicity", 100, 1, 0.0),
    ("zeros", 40, 5, 0.0),
    ("zeros", 40, 6, 1.0),
    ("levinson", 100, 5, None),
    ("kernel", 30, 6, 0.0),
    ("orthopoly", 30, 2, 1.0),
    ("levinson", 150, 1, None),
    ("levinson", 200, 6, None),
    ("kernel", 40, 3, 1.0),
    ("levinson", 200, 3, None),
    ("orthopoly", 50, 1, 0.0),
    ("levinson", 250, 2, None),
    ("kernel", 50, 4, -1.0),
    ("orthopoly", 60, 6, -1.0),
    ("kernel", 60, 2, 0.5),
)


def _dense_f(degree: int, rng: random.Random) -> dict:
    """c * prod (1 - z/r_j) with every root off an annulus around the unit
    circle, so |f| stays away from 0 on the circle and the float Gram
    matrices stay well conditioned."""
    coeffs = [cmath.rect(rng.uniform(0.5, 2.0), rng.uniform(-math.pi, math.pi))]
    for _ in range(degree):
        r = rng.uniform(0.25, 0.75) if rng.random() < 0.25 else rng.uniform(1.3, 3.0)
        root = cmath.rect(r, rng.uniform(-math.pi, math.pi))
        nxt = coeffs + [0j]
        for k in range(1, len(nxt)):
            nxt[k] -= coeffs[k - 1] / root
        coeffs = nxt
    return {"coefficients": [{"re": a.real, "im": a.imag} for a in coeffs]}


def _disk_point(rng: random.Random) -> complex:
    return cmath.rect(rng.uniform(0.0, 0.8), rng.uniform(-math.pi, math.pi))


def _dense_cycle(rng: random.Random) -> list:
    jobs = []
    for cmd, n, degree, alpha in DENSE_CELLS:
        f = _dense_f(degree, rng)
        if cmd == "kernel":
            jobs.append(Job(cmd, "float", f, alpha, n, _disk_point(rng), _disk_point(rng)))
        else:
            jobs.append(Job(cmd, "float", f, alpha, n))
    return jobs


# -- warm-up jobs: one small call of each subcommand the workload uses ----

def _warmup(workload: str) -> list:
    if workload == "exact-poly":
        f = {"coefficients": [2, -1, 1]}
        return [Job("zeros", "exact", f, 0.0, 3), Job("cyclicity", "exact", f, 1.0, 3),
                Job("approximant", "exact", f, -1.0, 3), Job("levinson", "exact", f, None, 3)]
    if workload == "float-tail":
        return [Job("first-zero", "float", _eta_f(0.5, 10 ** 4), -1.0, 0),
                Job("approximant", "float", _eta_f(0.3, 10 ** 4), 0.0, 2),
                Job("cyclicity", "float",
                    {"family": "blaschke", "params": {"lambda": 0.5, "truncation": 1000}},
                    0.0, 3)]
    f = {"coefficients": [{"re": 1.0, "im": 0.5}, 0.25]}
    return [Job("cyclicity", "float", f, 0.5, 4), Job("zeros", "float", f, -0.5, 4),
            Job("orthopoly", "float", f, 1.0, 4), Job("kernel", "float", f, 0.0, 4, 0.5j, 0.25),
            Job("levinson", "float", f, None, 4)]


_CYCLES = {"exact-poly": _exact_cycle, "float-tail": _tail_cycle, "float-dense": _dense_cycle}
WORKLOADS = tuple(_CYCLES)


class Schedule:
    """The job list of one workload and seed, cycle by cycle."""

    def __init__(self, workload: str, seed: int):
        if workload not in _CYCLES:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        self.seed = seed
        self.warmup = _warmup(workload)

    def cycle(self, c: int) -> list:
        """Jobs of cycle c in run order; the same (workload, seed, c) always
        gives the same jobs."""
        rng = random.Random(f"{self.workload}/{self.seed}/{c}")
        jobs = _CYCLES[self.workload](rng)
        rng.shuffle(jobs)
        return jobs

    def per_cycle(self) -> dict:
        """Number of sweep and point jobs in every cycle."""
        counts = {"sweep": 0, "point": 0}
        for job in self.cycle(0):
            counts[job.kind] += 1
        return counts
