"""Constructors for the function families under study and the closed-form
reference approximants used as oracles.

Families: (1-z)^N and (1+z)^N (exact binomials), single Blaschke factors
(lambda - z)/(1 - conj(lambda) z), the slowly decaying family
(1+z)/(1-z)^eta realized as a truncated power series, and explicit
coefficient lists.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from .errors import SpecValidationError
from .series import BlockSeries, Series

#: The families, each with the params it reads; any other key is refused.
FAMILIES = {"one_minus_z_pow": ("N",), "one_plus_z_pow": ("N",),
            "blaschke": ("lambda", "truncation"), "eta_family": ("eta", "truncation"),
            "explicit": ("coefficients",)}

#: Default truncation degree for the eta family; its coefficients decay
#: like k^(eta-1), so tails must be long to be honest.
ETA_DEFAULT_TRUNCATION = 10 ** 6
BLASCHKE_DEFAULT_TRUNCATION = 10 ** 4


def _is_number(x, kind=numbers.Real) -> bool:
    return isinstance(x, kind) and not isinstance(x, bool)


def _rational(s: str) -> Fraction:
    """A decimal or ``p/q`` string as a Fraction."""
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecValidationError(f"bad number {s!r:.40}") from exc


def _exact_part(x):
    """A JSON integer or numeric string as an exact number; a JSON float
    is refused, since its decimal text need not be the value it stands for."""
    if isinstance(x, str):
        return _rational(x)
    if _is_number(x, numbers.Integral):
        return x
    if isinstance(x, float):
        raise SpecValidationError("float coefficients are not allowed in the exact backend")
    raise SpecValidationError(f"bad coefficient {x!r}")


def _known_keys(obj: dict, known, what: str) -> None:
    """Refuse a key of ``obj`` that is not in ``known``: a key the code does
    not read would otherwise be ignored without a word."""
    unknown = [k for k in obj if k not in known]
    if unknown:
        raise SpecValidationError(f"unknown {what} key {unknown[0]!r:.40}; "
                                  f"expected one of {', '.join(known)}")


def _finite_float(x) -> float:
    """A JSON number or ``p/q`` string as a finite float: NaN, infinities
    and values beyond the float range are rejected before any arithmetic."""
    try:
        v = float(_rational(x)) if isinstance(x, str) else float(x)
    except OverflowError as exc:
        raise SpecValidationError(f"number {x!r:.40} is beyond the float range") from exc
    if not math.isfinite(v):
        raise SpecValidationError(f"number {x!r:.40} is not finite")
    return v


@dataclass(frozen=True)
class FunctionSpec:
    family: str
    params: dict = field(default_factory=dict)
    backend: str = "exact"

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in FAMILIES:
            raise SpecValidationError(f"unknown family {self.family!r}")
        _known_keys(self.params, FAMILIES[self.family], f"{self.family} params")
        if self.backend not in ("exact", "float"):
            raise SpecValidationError(f"unknown backend {self.backend!r}")
        p = self.params
        if self.family in ("one_minus_z_pow", "one_plus_z_pow"):
            N = p.get("N")
            if not _is_number(N, numbers.Integral) or N < 1:
                raise SpecValidationError("power families need an integer N >= 1")
        elif self.family == "blaschke":
            lam = p.get("lambda", 0)
            if not _is_number(lam, numbers.Complex) or not 0 < abs(lam) < 1:
                raise SpecValidationError("blaschke needs 0 < |lambda| < 1")
            trunc = p.get("truncation", BLASCHKE_DEFAULT_TRUNCATION)
            if not _is_number(trunc, numbers.Integral) or trunc < 1:
                raise SpecValidationError("blaschke truncation must be an integer >= 1")
            if self.backend == "exact":
                raise SpecValidationError("blaschke is a truncated family; float only")
        elif self.family == "eta_family":
            eta = p.get("eta")
            if not _is_number(eta) or not _finite_float(eta) > 0:
                raise SpecValidationError("eta_family needs a finite eta > 0")
            trunc = p.get("truncation", ETA_DEFAULT_TRUNCATION)
            if not _is_number(trunc, numbers.Integral) or trunc < 64:
                raise SpecValidationError("eta_family truncation must be an integer >= 64")
            if self.backend == "exact":
                raise SpecValidationError("eta_family is a truncated family; float only")
        elif self.family == "explicit":
            coeffs = p.get("coefficients")
            if not coeffs:
                raise SpecValidationError("explicit family needs nonempty coefficients")


def _blaschke_blocks(lam: complex, length: int, size: int):
    """Coefficients 0..length-1 of (lambda - z)/(1 - conj(lambda) z) =
    lambda + (|lambda|^2 - 1) sum_{k>=1} conj(lambda)^(k-1) z^k, in blocks
    of ``size``: one table of powers conj(lambda)^j, j < size, times one
    scalar power per block.  Real for a real lambda.  Each block is
    overwritten by the next."""
    if not lam.imag:
        lam = lam.real
    c = lam.conjugate()
    s = abs(lam) ** 2 - 1.0
    table = c ** np.arange(min(size, length))
    out = np.empty_like(table)
    for lo in range(0, length, size):
        m = min(size, length - lo)
        if lo == 0:
            out[0] = lam
            np.multiply(table[: m - 1], s, out=out[1:m])
        else:
            np.multiply(table[:m], s * c ** (lo - 1), out=out[:m])
        yield out[:m]


def _eta_blocks(eta: float, length: int, size: int):
    """Coefficients a_0..a_{length-1} of (1+z)/(1-z)^eta, in blocks of
    ``size``: a_k = g_k + g_{k-1} for the coefficients g_k of (1-z)^(-eta),
    g_0 = 1 and g_k = g_{k-1} ((eta+k)-1)/k, g_{-1} = 0.  The running
    product is carried from block to block in the order of one cumprod
    over all k, so the coefficients do not depend on ``size``.  Each
    block is overwritten by the next."""
    size = min(size, length)
    steps = np.arange(size, dtype=np.float64)
    k, g, out = np.empty(size), np.empty(size + 1), np.empty(size)
    for lo in range(0, length, size):
        m = min(size, length - lo)
        # g[0] = g_{lo-1} (0 at first, else carried), g[1:] = g_lo .. g_{hi-1}
        g[0] = g[size] if lo else 0.0
        r = g[1 + (lo == 0): m + 1]  # the ratios, for k >= 1
        kr = np.add(steps[: len(r)], lo + m - len(r), out=k[: len(r)])
        np.add(kr, eta, out=r)
        np.subtract(r, 1.0, out=r)
        np.divide(r, kr, out=r)
        if lo == 0:
            g[1] = 1.0
        else:
            g[1] *= g[0]
        with np.errstate(over="ignore"):  # the float Gram check reports it
            np.cumprod(g[1: m + 1], out=g[1: m + 1])
        yield np.add(g[1: m + 1], g[:m], out=out[:m])


def _exp(x: float) -> float:
    return math.exp(x) if x < 709 else math.inf   # an upper bound stays one


def _blaschke_tail_sq(lam: complex, K: int, alpha) -> float:
    """A bound on sum_{j>K} (j+1)^alpha |b_j|^2, |b_j|^2 = (1-r)^2 r^(j-1)
    for r = |lambda|^2: the term j = K+1 over 1 - q, for q = r max(1,
    ((K+3)/(K+2))^alpha) the largest ratio of consecutive terms past it;
    inf when q >= 1 or K < 0."""
    if K < 0:
        return math.inf
    alpha, log_r = float(alpha), 2 * math.log(abs(lam))   # r itself may underflow
    log_q = log_r + max(0.0, alpha * math.log1p(1 / (K + 2)))
    if log_q >= 0:
        return math.inf
    return _exp(alpha * math.log(K + 2) + 2 * math.log1p(-abs(lam) ** 2) + K * log_r
                - math.log(-math.expm1(log_q)))


def _eta_tail_sq(eta: float, K: int, alpha) -> float:
    """A bound on sum_{j>K} (j+1)^alpha a_j^2, a_j = g_j + g_{j-1}, for
    (1+z)/(1-z)^eta, which lies in D_alpha only when alpha + 2 eta < 1;
    inf when K < 1.  The anchor g_K = Gamma(K+eta) / (Gamma(eta) K!) <
    K^(eta-1) / Gamma(eta) is Gautschi's inequality for eta <= 1, and
    (K+eta)^(eta-1) replaces K^(eta-1) above (psi(t) < log t).  The ratio
    g_j / g_K = prod_{i=K+1}^{j} (1 + (eta-1)/i) <= ((j+c) / (K+c))^(eta-1),
    c = 1 for eta <= 1 and 0 above, compares sum 1/i with its integral.
    So (j+1)^alpha a_j^2 <= C j^p, p = alpha + 2 eta - 2 < -1, for j > K,
    and the power sum is below its integral K^(p+1) / (-p-1); all of it in
    logarithms, where no Gamma overflows."""
    alpha = float(alpha)
    if not alpha + 2 * eta < 1:
        raise SpecValidationError(
            f"eta_family with eta = {eta:.6g} is not in D_alpha at alpha = {alpha:.6g}: "
            "its tail needs alpha + 2 eta < 1")
    if K < 1:
        return math.inf
    p = alpha + 2 * eta - 2
    return _exp(math.log(4) - 2 * math.lgamma(eta)
                + abs(2 * eta - 2) * math.log1p(max(1.0, eta) / K)
                + max(0.0, alpha * math.log1p(1 / (K + 1)))
                + (p + 1) * math.log(K) - math.log(-p - 1))


def realize(spec: FunctionSpec) -> Series:
    """Materialize a FunctionSpec as a Series in its backend.  The
    truncated families (Blaschke, eta) are float :class:`BlockSeries`
    that generate their coefficients block by block and bound their own
    tails."""
    p = spec.params
    if spec.family in ("one_minus_z_pow", "one_plus_z_pow"):
        N = p["N"]
        sign = -1 if spec.family == "one_minus_z_pow" else 1
        coeffs = [sign ** k * math.comb(N, k) for k in range(N + 1)]
        if spec.backend == "exact":
            return Series.exact(coeffs)
        return Series.from_complex(coeffs)
    if spec.family == "blaschke":
        M = int(p.get("truncation", BLASCHKE_DEFAULT_TRUNCATION))
        lam = complex(p["lambda"])
        return BlockSeries(M + 1, partial(_blaschke_blocks, lam, M + 1),
                           partial(_blaschke_tail_sq, lam))
    if spec.family == "eta_family":
        M = int(p.get("truncation", ETA_DEFAULT_TRUNCATION))
        eta = float(p["eta"])
        return BlockSeries(M + 1, partial(_eta_blocks, eta, M + 1), partial(_eta_tail_sq, eta))
    coeffs = p["coefficients"]
    if spec.backend == "exact":
        s = Series.exact(coeffs)
    else:
        s = Series.from_complex([complex(c) for c in coeffs])
    if s.at0() == 0:
        raise SpecValidationError("explicit coefficients must have coeffs[0] != 0")
    return s


def _json_parts(c: dict) -> tuple:
    """(re, im) of a {"re":, "im":} value, each a number or a numeric string."""
    _known_keys(c, ("re", "im"), "complex value")
    parts = (c.get("re", 0), c.get("im", 0))
    if not all(_is_number(x) or isinstance(x, str) for x in parts):
        raise SpecValidationError(f"bad complex value {c!r}")
    return parts


def spec_from_json(obj, backend: str = "exact") -> FunctionSpec:
    """Build a FunctionSpec from its JSON form:
    {"family": str, "params": {...}} or {"coefficients": [...]}."""
    if not isinstance(obj, dict):
        raise SpecValidationError("function spec must be a JSON object")
    _known_keys(obj, ("coefficients",) if "coefficients" in obj else ("family", "params"),
                "function spec")
    if "coefficients" in obj:
        raw = obj["coefficients"]
        if not isinstance(raw, list):
            raise SpecValidationError("coefficients must be a JSON array")
        if backend == "exact":
            coeffs = [tuple(map(_exact_part, _json_parts(c))) if isinstance(c, dict)
                      else _exact_part(c) for c in raw]
        else:
            coeffs = []
            for c in raw:
                if isinstance(c, dict):
                    coeffs.append(complex(*map(_finite_float, _json_parts(c))))
                elif isinstance(c, str) or _is_number(c):
                    coeffs.append(complex(_finite_float(c)))
                else:
                    raise SpecValidationError(f"bad coefficient {c!r}")
        return FunctionSpec("explicit", {"coefficients": coeffs}, backend)
    family = obj.get("family")
    if family == "explicit":
        raise SpecValidationError('explicit coefficients are given as {"coefficients": [...]}')
    params = obj.get("params", {})
    if not isinstance(params, dict):
        raise SpecValidationError("params must be a JSON object")
    params = dict(params)
    if family == "blaschke" and isinstance(params.get("lambda"), dict):
        params["lambda"] = complex(*map(_finite_float, _json_parts(params["lambda"])))
    if family in ("blaschke", "eta_family"):
        backend = "float"
    return FunctionSpec(family, params, backend)


# -- closed-form reference approximants --------------------------------

def cesaro_closed_form(n: int, alpha) -> Series:
    """Closed-form optimal approximant to 1/(1-z) in D_alpha:
    c_k = (sum_{j=k+1}^{n+1} 1/w(j)) / (sum_{j=0}^{n+1} 1/w(j)),
    w(j) = (j+1)^alpha; exact for integer alpha, float otherwise.

    For alpha = 0 this reduces to the Cesaro form c_k = 1 - (k+1)/(n+2).
    """
    a = float(alpha)
    if a == int(a):
        alpha = int(a)
        inv = [Fraction(j + 1) ** -alpha for j in range(n + 2)]
        total = sum(inv)
        coeffs = []
        tail = total
        for k in range(n + 1):
            tail -= inv[k]          # sum_{j=k+1}^{n+1}
            coeffs.append(tail / total)
        return Series.exact(coeffs)
    inv = np.arange(1, n + 3, dtype=np.float64) ** (-a)
    total = inv.sum()
    tails = total - np.cumsum(inv)
    return Series.from_complex(tails[: n + 1] / total)


def one_minus_z_reference(n: int, alpha, z, method: str = "auto"):
    """Evaluate the 1/(1-z) approximant p_n at z via its quotient
    representations:

    * 'quotient': p_n(z) = (1 - S_z / S_1) / (1 - z) with
      S_z = sum_{k=0}^{n+1} z^k / w(k) (any alpha, z != 1);
    * 'hardy': p_n(z) = (z^{n+2} - (n+2) z + n + 1) / ((n+2)(1-z)^2)
      (alpha = 0 only, z != 1).

    z = 1 is a removable singularity of both quotients; the coefficient
    form is used there instead.
    """
    from .series import poly_eval
    from .errors import UnsupportedAlphaError

    zc = complex(z)
    if abs(zc - 1.0) < 1e-12:
        return poly_eval(cesaro_closed_form(n, alpha).to_float(), zc)
    if method == "hardy" or (method == "auto" and float(alpha) == 0.0):
        if float(alpha) != 0.0:
            raise UnsupportedAlphaError("the cubic-quotient form holds for alpha = 0")
        return (zc ** (n + 2) - (n + 2) * zc + n + 1) / ((n + 2) * (1.0 - zc) ** 2)
    w = np.arange(1, n + 3, dtype=np.float64) ** float(alpha)
    powers = zc ** np.arange(n + 2)
    s_z = np.sum(powers / w)
    s_1 = np.sum(1.0 / w)
    return (1.0 - s_z / s_1) / (1.0 - zc)


def hardy_power_closed_form(N: int, n: int) -> Series:
    """Exact Hardy-space approximant to 1/(1-z)^N via Beta-function
    ratios: c_k = C(k+N-1, k) B(n+N+1, N) / B(n-k+1, N)."""
    if N < 1:
        raise SpecValidationError("N must be >= 1")

    def beta_int(a: int, b: int) -> Fraction:
        return Fraction(math.factorial(a - 1) * math.factorial(b - 1),
                        math.factorial(a + b - 1))

    top = beta_int(n + N + 1, N)
    coeffs = [Fraction(math.comb(k + N - 1, k)) * top / beta_int(n - k + 1, N)
              for k in range(n + 1)]
    return Series.exact(coeffs)
