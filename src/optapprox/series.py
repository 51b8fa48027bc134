"""Coefficient-vector arithmetic for polynomials and truncated power series.

A :class:`Series` stores coefficients a_0..a_M of a polynomial or a
truncated analytic germ in one read-only ``numpy`` array, whose dtype is
its backend: ``object``, holding :class:`~optapprox.exact.ExactComplex`
(``exact``), or ``complex128`` (``float``).  numpy applies + - * and
conjugation elementwise to both, so each operation here has one body.

A truncated family of ``families.py`` is instead a
:class:`TruncatedSeries`, whose coefficients a rule gives on demand: a
float Gram band reads only the short :meth:`Series.head` that
:meth:`Series.gram_split` names and takes the rest of each entry from the
family, :meth:`Series.tail_sq` bounds the infinite tail it leaves out,
and :meth:`Series.require_in_space` refuses it where that tail diverges.

All values are immutable after construction and every operation here is
pure, so Series may be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import BackendMismatchError, InvalidReflectionDegreeError
from .exact import ExactComplex

#: Float-backend coefficients with modulus at or below this are treated as
#: zero when computing the effective degree, so root extraction never
#: divides by noise.
DEGREE_EPSILON = 1e-11

#: Below this largest modulus M the threshold is relative, DEGREE_EPSILON
#: * M, the ratio it has at unit scale, so a polynomial far below unit
#: scale keeps its degree.  Above it the threshold stays absolute, the
#: rule the root checks of perfbench/oracles.py apply.
DEGREE_SCALE = 1e-6


@dataclass(frozen=True, eq=False)
class Series:
    """``Series(array)`` takes ownership of the array it is given and sets
    it read-only; :meth:`from_complex` copies."""

    coeffs: np.ndarray  # read-only: object (ExactComplex) or complex128

    def __post_init__(self):
        c = np.asarray(self.coeffs)  # a tuple of backend scalars, or an array
        if c.dtype != object:
            c = c.astype(np.complex128, copy=False)
        if len(c) == 0:
            raise ValueError("a Series needs at least one coefficient")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    # -- construction ---------------------------------------------------

    @staticmethod
    def exact(values) -> "Series":
        """Build an exact-backend series from ints, Fractions, ``p/q``
        strings, (re, im) pairs, or ExactComplex values."""
        return Series(np.array([ExactComplex(*v) if isinstance(v, tuple) else
                                ExactComplex.coerce(v) for v in values], dtype=object))

    @staticmethod
    def from_complex(values) -> "Series":
        return Series(np.array(values, dtype=np.complex128))

    def scalar(self, x):
        """``x`` as a scalar of this series' backend: an ExactComplex (a
        float is refused) or a Python complex."""
        return ExactComplex.coerce(x) if self.backend == "exact" else complex(x)

    def like(self, values) -> "Series":
        """A polynomial of this series' backend with coefficients ``values``:
        scalars of that backend, or numbers that :meth:`scalar` accepts."""
        return Series.exact(values) if self.backend == "exact" else Series.from_complex(values)

    # -- structure ------------------------------------------------------

    @property
    def backend(self) -> str:
        return "exact" if self.coeffs.dtype == object else "float"

    @property
    def degree(self) -> int:
        """Effective degree: largest index with a nonzero coefficient; in
        the float backend, with a modulus above DEGREE_EPSILON, times the
        largest modulus when that is below DEGREE_SCALE.

        Returns -1 for the zero series.
        """
        if self.backend == "exact":
            for k in range(len(self.coeffs) - 1, -1, -1):
                if not self.coeffs[k].is_zero:
                    return k
            return -1
        a = np.abs(self.coeffs)
        scale = a.max()
        nonzero = a > DEGREE_EPSILON * (scale if scale < DEGREE_SCALE else 1.0)
        k = len(a) - 1 - int(np.argmax(nonzero[::-1]))
        return k if nonzero[k] else -1

    @property
    def is_zero(self) -> bool:
        return self.degree < 0

    def __len__(self):
        return len(self.coeffs)

    def __getitem__(self, k):
        """Coefficient of z^k; indices beyond the stored range read as 0."""
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.scalar(0)

    def at0(self):
        return self.coeffs[0]

    def head(self, m: int) -> np.ndarray:
        """The first m float coefficients."""
        return self.coeffs[:m]

    def to_float(self) -> "Series":
        return self if self.backend == "float" else Series.from_complex(self.coeffs)

    def tail_sq(self, K: int, alpha) -> float:
        """The tail rule of the function f this series stands for: a bound
        on sum_{j>K} (j+1)^alpha |f_j|^2 when f has coefficients past the
        stored ones; 0 for a polynomial, which has none."""
        return 0.0

    def require_in_space(self, alpha) -> None:
        """Raise SpecValidationError when the function this series stands
        for is not in D_alpha; a polynomial is in every one.  Commands read
        it after the Gram matrix, so that one that overflows is refused as
        such (a ConditioningError)."""

    def gram_split(self, n: int, alpha: float):
        """Where the float Gram band of degree n over this series may stop:
        None to sum every row, or (K, far) to sum the rows m < K, which read
        the head of K coefficients, and add ``far``, the rest of the sum as
        the series gives it (the matrix, or at alpha = 0 the n+1 lags)."""
        return None

    def __repr__(self):
        return f"Series({list(self.coeffs)!r}, backend={self.backend})"


class TruncatedSeries(Series):
    """A float series of ``length`` coefficients that stands for a function
    with more: ``rule(m)`` gives its first m, as :meth:`Series.head` does;
    ``tail(K, alpha)`` bounds its tail as :meth:`Series.tail_sq`,
    ``split(length, n, alpha)`` answers :meth:`Series.gram_split`, and
    ``space(alpha)``, when given, is :meth:`Series.require_in_space`.
    ``coeffs`` is built, as complex128, only when some code reads it;
    ``len``, ``backend``, ``at0`` and ``is_zero`` never build it."""

    def __init__(self, length: int, rule, tail, split, space=None):
        object.__setattr__(self, "_length", length)
        object.__setattr__(self, "_rule", rule)
        object.__setattr__(self, "_tail", tail)
        object.__setattr__(self, "_split", split)
        object.__setattr__(self, "_space", space)

    @cached_property
    def coeffs(self) -> np.ndarray:
        return Series(self._rule(self._length).astype(np.complex128)).coeffs

    backend = "float"

    def __len__(self):
        return self._length

    def head(self, m: int) -> np.ndarray:
        return self._rule(min(m, self._length))

    def at0(self):
        return np.complex128(self.head(1)[0])

    def tail_sq(self, K: int, alpha) -> float:
        return self._tail(K, alpha)

    def require_in_space(self, alpha) -> None:
        if self._space is not None:
            self._space(alpha)

    def gram_split(self, n: int, alpha: float):
        return self._split(self._length, n, alpha)

    @property
    def is_zero(self) -> bool:
        # the degree is -1 exactly when every coefficient is 0
        return self.at0() == 0 and not self.head(self._length).any()

    def __repr__(self):
        return f"TruncatedSeries(length={self._length}, rule={self._rule!r})"


def _check_same_backend(p: Series, q: Series) -> None:
    if p.backend != q.backend:
        raise BackendMismatchError(
            f"mixed backends: {p.backend} vs {q.backend}; convert explicitly "
            "with Series.to_float()")


def poly_eval(p: Series, z):
    """Evaluate sum_k p_k z^k by Horner's rule over the stored coefficients."""
    z = p.scalar(z)
    acc = p.scalar(0)
    for c in reversed(p.coeffs):
        acc = acc * z + c
    return acc


def poly_mul(p: Series, q: Series) -> Series:
    """Coefficient convolution; exact in the exact backend."""
    _check_same_backend(p, q)
    return Series(np.convolve(p.coeffs, q.coeffs))


def poly_add(p: Series, q: Series) -> Series:
    """Coefficientwise sum; the shorter operand is zero-padded."""
    _check_same_backend(p, q)
    out = np.full(max(len(p), len(q)), p.scalar(0), dtype=p.coeffs.dtype)
    out[: len(p)] += p.coeffs
    out[: len(q)] += q.coeffs
    return Series(out)


def poly_sub(p: Series, q: Series) -> Series:
    return poly_add(p, scale(q, -1))


def scale(p: Series, c) -> Series:
    return Series(p.coeffs * p.scalar(c))


def shift(p: Series, k: int) -> Series:
    """Multiply by z^k: prepend k zero coefficients."""
    if k < 0:
        raise ValueError("shift amount must be nonnegative")
    if k == 0:
        return p
    return Series(np.concatenate([np.full(k, p.scalar(0), dtype=p.coeffs.dtype), p.coeffs]))


def reflect(p: Series, n: int) -> Series:
    """Reflected polynomial p*(z) = z^n conj(p)(1/z): coefficient j is
    conj(p_{n-j}).  Involution: reflect(reflect(p, n), n) == p."""
    d = p.degree
    if n < d:
        raise InvalidReflectionDegreeError(
            f"reflection degree {n} is below the effective degree {d}")
    padded = np.full(n + 1, p.scalar(0), dtype=p.coeffs.dtype)
    padded[: len(p)] = p.coeffs[: n + 1]
    return Series(np.conj(padded[::-1]))
