"""Constructors for the function families under study and the closed-form
reference approximants used as oracles.

Families: (1-z)^N and (1+z)^N (exact binomials), single Blaschke factors
(lambda - z)/(1 - conj(lambda) z), the slowly decaying family
(1+z)/(1-z)^eta realized as a truncated power series, and explicit
coefficient lists.

The truncated families (Blaschke, eta) are each a short head plus their
own far part: the float Gram band sums the rows of a head and the family
gives the rest of each entry in closed form.  A Blaschke factor's rows
past n are geometric (:func:`_blaschke_split`); the eta family sums a
head of _eta_head(eta, n) rows and :func:`_eta_far` the rest (the
Stirling series of a gamma ratio and Euler-Maclaurin sums).  Each also
bounds its own tail past the truncation.  The truncation is part of the
function: a first zero at truncation M is that of the polynomial
a_0 + ... + a_M z^M, whatever M is.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

import numpy as np

from .errors import ConditioningError, SpecValidationError
from .series import Series, TruncatedSeries

#: The families, each with the params it reads; any other key is refused.
FAMILIES = {"one_minus_z_pow": ("N",), "one_plus_z_pow": ("N",),
            "blaschke": ("lambda", "truncation"), "eta_family": ("eta", "truncation"),
            "explicit": ("coefficients",)}

#: Default truncation degree for the eta family.  Its coefficients decay
#: like k^(eta-1), so its tails are long; a Gram matrix costs the same at
#: any truncation past _eta_head(eta, n).
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
    raise SpecValidationError(f"bad coefficient {x!r:.40}")


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


def _check_truncation(trunc, least: int, family: str) -> None:
    """A truncation M is an integer >= ``least`` whose length M + 1 fits an
    index (len() refuses one past sys.maxsize)."""
    if not _is_number(trunc, numbers.Integral) or not least <= trunc < sys.maxsize:
        raise SpecValidationError(f"{family} truncation must be an integer from {least} "
                                  f"to {sys.maxsize - 1}")


@dataclass(frozen=True)
class FunctionSpec:
    family: str
    params: dict = field(default_factory=dict)
    backend: str = "exact"

    def __post_init__(self):
        if not isinstance(self.family, str) or self.family not in FAMILIES:
            raise SpecValidationError(f"unknown family {self.family!r:.40}")
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
            _check_truncation(p.get("truncation", BLASCHKE_DEFAULT_TRUNCATION), 1, "blaschke")
            if self.backend == "exact":
                raise SpecValidationError("blaschke is a truncated family; float only")
        elif self.family == "eta_family":
            eta = p.get("eta")
            if not _is_number(eta) or not _finite_float(eta) > 0:
                raise SpecValidationError("eta_family needs a finite eta > 0")
            _check_truncation(p.get("truncation", ETA_DEFAULT_TRUNCATION), 64, "eta_family")
            if self.backend == "exact":
                raise SpecValidationError("eta_family is a truncated family; float only")
        elif self.family == "explicit":
            coeffs = p.get("coefficients")
            if not coeffs:
                raise SpecValidationError("explicit family needs nonempty coefficients")


def _one_minus_r(lam: complex) -> float:
    """1 - |lambda|^2, correctly rounded: 1 minus the float square loses the
    digits of |lambda| near 1."""
    return float(1 - Fraction(lam.real) ** 2 - Fraction(lam.imag) ** 2)


def _blaschke_coefficients(lam: complex, m: int) -> np.ndarray:
    """Coefficients 0..m-1 of (lambda - z)/(1 - conj(lambda) z) =
    lambda + (|lambda|^2 - 1) sum_{k>=1} conj(lambda)^(k-1) z^k; real for
    a real (float) lambda."""
    return np.append(lam, -_one_minus_r(lam) * lam.conjugate() ** np.arange(m - 1))


@np.errstate(over="ignore")   # the float Gram check reports it
def _eta_coefficients(eta: float, m: int) -> np.ndarray:
    """Coefficients a_0..a_{m-1} of (1+z)/(1-z)^eta: a_k = g_k + g_{k-1}
    for the coefficients g_k of (1-z)^(-eta), g_0 = 1 and g_k = g_{k-1}
    ((eta+k)-1)/k, g_{-1} = 0, as one cumprod."""
    k = np.arange(1.0, m)
    g = np.empty(m + 1)   # g_{-1}, g_0, ..., g_{m-1}
    g[:2] = 0.0, 1.0
    r = g[2:]   # the ratios, in place: a head may have 2^24 of them
    np.divide(np.subtract(np.add(k, eta, out=r), 1.0, out=r), k, out=r)
    np.cumprod(g[1:], out=g[1:])
    return g[1:] + g[:-1]


def _exp(x: float) -> float:
    return math.exp(x) if x < 709 else math.inf   # an upper bound stays one


#: Terms the Blaschke tail rule sums one by one before its geometric bound.
_BLASCHKE_TAIL_TERMS = 1 << 20


def _blaschke_tail_sq(lam: complex, K: int, alpha) -> float:
    """A bound on sum_{j>K} t_j, t_j = (j+1)^alpha |b_j|^2 = (j+1)^alpha
    (1-r)^2 r^(j-1) for r = |lambda|^2.  The ratio t_{j+1}/t_j =
    r ((j+2)/(j+1))^alpha falls with j for alpha > 0: the terms before
    the first j0 > K where it is at most sqrt(r) are summed, and the rest
    is at most t_{j0} / (1 - q), for q = r max(1, ((j0+2)/(j0+1))^alpha)
    the largest ratio past j0; all in logarithms, since r may underflow.
    inf when K < 0, or when more than _BLASCHKE_TAIL_TERMS terms come
    before j0."""
    if K < 0:
        return math.inf
    alpha, log_r = float(alpha), 2 * math.log(abs(lam))
    j0 = K + 1
    if alpha > 0:
        # the ratio is at most sqrt(r) once j + 1 >= 1 / x; for every j >= 0
        # once x >= 1, so an exponent past 1 (which may overflow) reads as 1
        x = math.expm1(min(-log_r / (2 * alpha), 1.0))
        if x * (K + 2 + _BLASCHKE_TAIL_TERMS) < 1:
            return math.inf
        j0 = max(j0, math.ceil(1 / x) - 1)
    log_c = 2 * math.log1p(-abs(lam) ** 2)

    def log_t(j):   # log t_j
        return alpha * np.log(j + 1.0) + log_c + (j - 1.0) * log_r

    log_q = log_r + max(0.0, alpha * math.log1p(1 / (j0 + 1)))
    logs = np.append(log_t(np.arange(K + 1, j0)),
                     log_t(j0) - math.log(-math.expm1(log_q)))
    top = logs.max()
    return _exp(top + math.log(np.exp(logs - top).sum()))


#: The log of half the smallest subnormal: exp(x) is 0.0 in floats below it.
_LOG_EXP_ZERO = math.log(math.ulp(0.0)) - math.log(2)

#: Terms per piece of the Blaschke far part's weighted geometric sum at
#: most, so that its memory stays bounded when |lambda| is near 1.
_GEOMETRIC_PIECE = 1 << 20


@np.errstate(over="ignore", invalid="ignore")   # the float Gram check reports it
def _blaschke_split(lam: complex, length: int, n: int, alpha: float):
    """The float Gram band over b_0..b_M, M = length - 1 > n, of a Blaschke
    factor sums the rows m <= n and takes the rest from here.  Every row
    m > n is geometric, (b_m, ..., b_{m-n}) = s c^(m-n-1) (c^n, ..., c, 1)
    for c = conj(lambda) and s = |lambda|^2 - 1, so the rows m > n add
    F_kl = s^2 c^(n-k) conj(c)^(n-l) T_{M-n-1+min(k,l)}, with the weighted
    geometric series T_i = sum_{j<=i} (j+n+2)^alpha r^j, r = |lambda|^2.
    At alpha = 0 only the lags F_k0 are needed, and T_i = (1 - r^(i+1)) /
    (1 - r); elsewhere T is summed pairwise, in pieces, up to the first r^j
    that is 0.0 in floats.  No far part when M <= n."""
    M = length - 1
    if M <= n:
        return None
    c, d = lam.conjugate(), _one_minus_r(lam)
    # log r, from 1 - r where r is near 1 and from |lambda| where it is small
    log_r = math.log1p(-d) if d < 0.5 else 2 * math.log(abs(lam))
    p = c ** np.arange(n, -1, -1)   # c^(n-k)
    if alpha == 0:
        T = math.expm1((M - n) * log_r) / math.expm1(log_r)
        return n + 1, d * d * T * np.conj(c) ** n * p

    def terms(j):
        return (j + (n + 2.0)) ** alpha * np.exp(j * log_r)

    last = M - n - 1
    count = min(last + 1, math.floor(_LOG_EXP_ZERO / log_r) + 1)
    T = sum(np.sum(terms(np.arange(lo, min(lo + _GEOMETRIC_PIECE, count), dtype=np.float64)))
            for lo in range(0, count, _GEOMETRIC_PIECE))
    T = T + np.append(0.0, np.cumsum(terms(last + np.arange(1.0, n + 1))))
    low = np.minimum.outer(np.arange(n + 1), np.arange(n + 1))
    return n + 1, d * d * np.outer(p, np.conj(p)) * T[low]


def _eta_in_space(eta: float, alpha) -> None:
    """(1+z)/(1-z)^eta lies in D_alpha only when alpha + 2 eta < 1."""
    if not float(alpha) + 2 * eta < 1:
        raise SpecValidationError(
            f"eta_family with eta = {eta:.6g} is not in D_alpha at alpha = {float(alpha):.6g}: "
            "its tail needs alpha + 2 eta < 1")


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
    logarithms, where no Gamma overflows.  SpecValidationError outside
    D_alpha (:func:`_eta_in_space`)."""
    _eta_in_space(eta, alpha)
    alpha = float(alpha)
    if K < 1:
        return math.inf
    p = alpha + 2 * eta - 2
    return _exp(math.log(4) - 2 * math.lgamma(eta)
                + abs(2 * eta - 2) * math.log1p(max(1.0, eta) / K)
                + max(0.0, alpha * math.log1p(1 / (K + 1)))
                + (p + 1) * math.log(K) - math.log(-p - 1))


#: Bernoulli numbers B_0..B_11.
_BERNOULLI = (1.0, -1 / 2, 1 / 6, 0.0, -1 / 30, 0.0, 1 / 42, 0.0, -1 / 30, 0.0, 5 / 66, 0.0)

#: Terms c_j x^(p-j), j < _FAR_TERMS, of the eta far part.
_FAR_TERMS = 10

#: B_r(x) = sum_q x^q _BERNOULLI_POLY[q, r], r <= _FAR_TERMS + 1.
_BERNOULLI_POLY = np.array([[math.comb(r, q) * _BERNOULLI[r - q] if q <= r else 0.0
                             for r in range(_FAR_TERMS + 2)] for q in range(_FAR_TERMS + 2)])


def _power_sums(s: np.ndarray, A: float, B: np.ndarray) -> np.ndarray:
    """sum_{x=A}^{B} x^(-s) for integers 1 <= A <= B, elementwise, by
    Euler-Maclaurin: the integral (log(B/A) at s = 1), the end terms
    (A^-s + B^-s)/2 and the corrections -B_2i/(2i)! (s)_{2i-1}
    (B^(1-s-2i) - A^(1-s-2i)) for i <= 3.  The remainder is of order
    (s)_7 / (2 pi A)^8 of the integral, below 1e-25 at A > 4096, |s| < 20."""
    t = 1.0 - s
    L = np.log(B / A)
    out = A ** t * np.where(t == 0, L, np.expm1(t * L) / np.where(t == 0, 1.0, t))
    out += (A ** -s + B ** -s) / 2
    rise = s                                  # the rising factorial (s)_{2i-1}
    for i in (1, 2, 3):
        if i > 1:
            rise = rise * (s + 2 * i - 3) * (s + 2 * i - 2)
        out -= _BERNOULLI[2 * i] / math.factorial(2 * i) * rise * (B ** (t - 2 * i)
                                                                 - A ** (t - 2 * i))
    return out


@np.errstate(over="ignore", invalid="ignore")   # the float Gram check reports it
def _eta_far(eta: float, length: int, K: int, n: int, alpha: float) -> np.ndarray:
    """The rows m >= K of the Gram sums of a_0..a_M, M = length - 1:
    F_kl = sum_{m=K}^{M+min(k,l)} (m+1)^alpha a_{m-k} a_{m-l} for k, l <= n,
    or at alpha = 0 the lags F_0l alone; K > n.

    With x = m + 1 and a shift h, a_{x-1-h} = 2 g_{x-1-h} (x+u)/(x+v) for
    u = (eta-3)/2 - h and v = eta - 2 - h, and log g_{x-1-h} =
    log Gamma(x+eta-1-h) - log Gamma(x-h) - log Gamma(eta) has the
    expansion (eta-1) log x - log Gamma(eta) + sum_{j>=1} (-1)^(j+1)
    (B_{j+1}(eta-1-h) - B_{j+1}(-h)) / (j (j+1) x^j) (DLMF 5.11.8).  So
    a_{x-1-h} = 2 x^(eta-1) / Gamma(eta) exp(sum_j e_j(h) x^-j), the
    exponential is a series sum_j P_j(h) x^-j, and each term of F_kl is
    4 / Gamma(eta)^2 sum_j c_j x^(p-j), p = alpha + 2 eta - 2, with c the
    product of the series P(k) and P(l).  Each power is summed over
    x = K+1..M+min(k,l)+1 by :func:`_power_sums`.  For x > K =
    _eta_head(eta, n) every shift h <= n is below x / 64, and the first
    exponent e_1(h) = (eta-1)(eta-3-2h)/2 below x / 16: the exponential
    cut at j < 10 then errs by about (e_1/x)^10 / 10! < 3e-19 of the
    sum, and the terms left out of the Stirling series by less."""
    h = np.arange(n + 1.0)
    powers = np.arange(_FAR_TERMS + 2)

    def table(x):   # x^q for q <= _FAR_TERMS + 1
        return x[:, None] ** powers

    j = np.arange(1, _FAR_TERMS)
    bern = (table(eta - 1 - h) - table(-h)) @ _BERNOULLI_POLY
    ratio = table((eta - 3) / 2 - h) - table(eta - 2 - h)
    e = (-1.0) ** (j + 1) * (ratio[:, j] / j + bern[:, j + 1] / (j * (j + 1)))
    # P = exp(sum_j e_j t^j) as a series in t: q P_q = sum_{i<=q} i e_i P_{q-i}
    P = np.zeros((n + 1, _FAR_TERMS))
    P[:, 0] = 1.0
    for q in range(1, _FAR_TERMS):
        P[:, q] = sum(i * e[:, i - 1] * P[:, q - i] for i in range(1, q + 1)) / q
    p = alpha + 2 * eta - 2
    T = _power_sums(np.arange(_FAR_TERMS) - p, K + 1.0, length + h[:, None])
    rows = P[:1] if alpha == 0 else P
    low = np.minimum.outer(np.arange(len(rows)), np.arange(n + 1))
    F = sum((rows[:, :q + 1] @ P[:, q::-1].T) * T[low, q] for q in range(_FAR_TERMS))
    F *= math.exp(math.log(4) - 2 * math.lgamma(eta))
    return F[0] if alpha == 0 else F


def _eta_head(eta: float, n: int) -> int:
    """K: the rows m < K of an eta Gram matrix of degree n are summed in
    the band of its head, and the rows past K by :func:`_eta_far`.  The
    second term, which keeps |e_1(h)| <= (eta+1)(eta+3+2n)/2 below K/16,
    is the larger only for eta above 3; in integers, since at eta = 1e200
    it is past the float range."""
    return max(4096 + 64 * n, 8 * math.ceil(eta + 1) * math.ceil(eta + 3 + 2 * n))


#: Rows an eta Gram band may sum, in one array.  A head past it belongs
#: to eta above about 1400, whose coefficients overflow before index 260,
#: or to n above about 2.6e5, whose Gram matrix alone is past a terabyte.
_ETA_MAX_HEAD = 1 << 24


def _eta_split(eta: float, length: int, n: int, alpha: float):
    """The float Gram band over an eta series longer than
    _eta_head(eta, n) + 1 sums its head and takes the rest from
    :func:`_eta_far`.  A ConditioningError when the head it would sum has
    more than _ETA_MAX_HEAD rows."""
    K = _eta_head(eta, n)
    if min(K, length) > _ETA_MAX_HEAD:
        raise ConditioningError(
            f"eta_family with eta = {eta:.6g} at n = {n} needs a Gram head of "
            f"{min(K, length)} rows, past 2^24: its coefficients overflow the float "
            "range (eta above about 1400) or its Gram matrix the memory (n above 2.6e5)")
    if length - 1 <= K:
        return None
    return K, _eta_far(eta, length, K, n, alpha)


def realize(spec: FunctionSpec) -> Series:
    """Materialize a FunctionSpec as a Series in its backend.  The
    truncated families (Blaschke, eta) are float :class:`TruncatedSeries`
    that give their coefficients on demand, their far parts in closed
    form and bounds on their own tails."""
    p = spec.params
    if spec.family == "blaschke":
        M = int(p.get("truncation", BLASCHKE_DEFAULT_TRUNCATION))
        lam = complex(p["lambda"])
        lam = lam if lam.imag else lam.real   # a real factor runs in float64
        return TruncatedSeries(M + 1, partial(_blaschke_coefficients, lam),
                               partial(_blaschke_tail_sq, lam), partial(_blaschke_split, lam))
    if spec.family == "eta_family":
        M = int(p.get("truncation", ETA_DEFAULT_TRUNCATION))
        eta = float(p["eta"])
        return TruncatedSeries(M + 1, partial(_eta_coefficients, eta),
                               partial(_eta_tail_sq, eta), partial(_eta_split, eta),
                               partial(_eta_in_space, eta))
    if spec.family == "explicit":
        coeffs = p["coefficients"]
    else:   # (1 - z)^N or (1 + z)^N
        sign = -1 if spec.family == "one_minus_z_pow" else 1
        coeffs = [sign ** k * math.comb(p["N"], k) for k in range(p["N"] + 1)]
    s = Series.exact(coeffs) if spec.backend == "exact" else Series.from_complex(coeffs)
    if s.at0() == 0:
        raise SpecValidationError("explicit coefficients must have coeffs[0] != 0")
    return s


def _json_parts(c: dict) -> tuple:
    """(re, im) of a {"re":, "im":} value, each a number or a numeric string."""
    _known_keys(c, ("re", "im"), "complex value")
    parts = (c.get("re", 0), c.get("im", 0))
    if not all(_is_number(x) or isinstance(x, str) for x in parts):
        raise SpecValidationError(f"bad complex value {c!r:.40}")
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
                    raise SpecValidationError(f"bad coefficient {c!r:.40}")
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
