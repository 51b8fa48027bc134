"""Coefficient-vector arithmetic for polynomials and truncated power series.

A :class:`Series` stores coefficients a_0..a_M of a polynomial or a
truncated analytic germ.  Two backends coexist:

* ``exact`` -- a tuple of :class:`~optapprox.exact.ExactComplex`;
* ``float`` -- a ``numpy`` array of ``complex128``.

A long float series may instead be a :class:`BlockSeries`, whose
coefficients a rule yields block by block (the truncated families of
``families.py``); passes over :meth:`Series.blocks` never hold it whole.

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
    coeffs: object  # tuple[ExactComplex] | np.ndarray
    is_exact_polynomial: bool = True

    def __post_init__(self):
        if len(self.coeffs) == 0:
            raise ValueError("a Series needs at least one coefficient")

    # -- construction ---------------------------------------------------

    @staticmethod
    def exact(values, is_exact_polynomial: bool = True) -> "Series":
        """Build an exact-backend series from ints, Fractions, ``p/q``
        strings, (re, im) pairs, or ExactComplex values."""
        coeffs = []
        for v in values:
            if isinstance(v, tuple):
                coeffs.append(ExactComplex(v[0], v[1]))
            else:
                coeffs.append(ExactComplex.coerce(v))
        return Series(tuple(coeffs), is_exact_polynomial)

    @staticmethod
    def from_complex(values, is_exact_polynomial: bool = True) -> "Series":
        arr = np.asarray(values, dtype=np.complex128)
        arr.setflags(write=False)
        return Series(arr, is_exact_polynomial)

    def scalar(self, x):
        """``x`` as a scalar of this series' backend: an ExactComplex (a
        float is refused) or a Python complex."""
        return ExactComplex.coerce(x) if self.backend == "exact" else complex(x)

    def like(self, values) -> "Series":
        """A polynomial of this series' backend with coefficients ``values``:
        scalars of that backend, or numbers that :meth:`scalar` accepts."""
        if self.backend == "exact":
            return Series(tuple(map(ExactComplex.coerce, values)))
        return Series.from_complex(values)

    # -- structure ------------------------------------------------------

    @property
    def backend(self) -> str:
        return "exact" if isinstance(self.coeffs, tuple) else "float"

    @property
    def truncation_degree(self) -> int:
        return len(self) - 1

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

    def blocks(self, size: int):
        """The float coefficients in consecutive blocks of ``size``, the
        last one shorter: float64 arrays when every coefficient is real,
        complex128 ones otherwise.  A block may be overwritten once the
        next one is asked for."""
        c = self.coeffs
        if not c.imag.any():
            c = c.real
        for start in range(0, len(c), size):
            yield c[start: start + size]

    def to_float(self) -> "Series":
        if self.backend == "float":
            return self
        return Series.from_complex([complex(c) for c in self.coeffs],
                                   self.is_exact_polynomial)

    def __repr__(self):
        return f"Series({list(self.coeffs)!r}, backend={self.backend})"


#: Coefficients per block when a BlockSeries is read whole.
_READ_BLOCK = 1 << 14


class BlockSeries(Series):
    """A float series of ``length`` coefficients that ``rule(size)`` yields
    in blocks, with the dtype and block sizes of :meth:`Series.blocks`.
    ``coeffs`` is built, as complex128, only when some code reads it;
    ``len``, ``backend``, ``at0`` and ``is_zero`` never build it."""

    def __init__(self, length: int, rule):
        object.__setattr__(self, "is_exact_polynomial", False)
        object.__setattr__(self, "_length", length)
        object.__setattr__(self, "_rule", rule)

    @cached_property
    def coeffs(self) -> np.ndarray:
        out = np.empty(self._length, dtype=np.complex128)
        start = 0
        for block in self.blocks(_READ_BLOCK):
            out[start: start + len(block)] = block
            start += len(block)
        out.setflags(write=False)
        return out

    backend = "float"

    def __len__(self):
        return self._length

    def blocks(self, size: int):
        return self._rule(size)

    def at0(self):
        return np.complex128(next(self.blocks(1))[0])

    @property
    def is_zero(self) -> bool:
        # the degree is -1 exactly when every coefficient is 0
        return self.at0() == 0 and not any(b.any() for b in self.blocks(_READ_BLOCK))

    def __repr__(self):
        return f"BlockSeries(length={self._length}, rule={self._rule!r})"


def _check_same_backend(p: Series, q: Series) -> str:
    if p.backend != q.backend:
        raise BackendMismatchError(
            f"mixed backends: {p.backend} vs {q.backend}; convert explicitly "
            "with Series.to_float()")
    return p.backend


def poly_eval(p: Series, z):
    """Evaluate sum_k p_k z^k by Horner's rule over the stored coefficients."""
    z = p.scalar(z)
    acc = p.scalar(0)
    for c in reversed(p.coeffs):
        acc = acc * z + c
    return acc


def poly_mul(p: Series, q: Series) -> Series:
    """Coefficient convolution; exact in the exact backend."""
    backend = _check_same_backend(p, q)
    exact_poly = p.is_exact_polynomial and q.is_exact_polynomial
    if backend == "float":
        return Series.from_complex(np.convolve(p.coeffs, q.coeffs), exact_poly)
    out = [ExactComplex(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p.coeffs):
        if a.is_zero:
            continue
        for j, b in enumerate(q.coeffs):
            out[i + j] = out[i + j] + a * b
    return Series(tuple(out), exact_poly)


def poly_add(p: Series, q: Series) -> Series:
    """Coefficientwise sum; the shorter operand is zero-padded."""
    backend = _check_same_backend(p, q)
    n = max(len(p), len(q))
    exact_poly = p.is_exact_polynomial and q.is_exact_polynomial
    if backend == "float":
        out = np.zeros(n, dtype=np.complex128)
        out[: len(p)] += p.coeffs
        out[: len(q)] += q.coeffs
        return Series.from_complex(out, exact_poly)
    return Series(tuple(p[k] + q[k] for k in range(n)), exact_poly)


def poly_sub(p: Series, q: Series) -> Series:
    return poly_add(p, scale(q, -1))


def scale(p: Series, c) -> Series:
    if p.backend == "float":
        return Series.from_complex(np.asarray(p.coeffs) * complex(c),
                                   p.is_exact_polynomial)
    c = ExactComplex.coerce(c)
    return Series(tuple(a * c for a in p.coeffs), p.is_exact_polynomial)


def shift(p: Series, k: int) -> Series:
    """Multiply by z^k: prepend k zero coefficients."""
    if k < 0:
        raise ValueError("shift amount must be nonnegative")
    if k == 0:
        return p
    if p.backend == "float":
        return Series.from_complex(
            np.concatenate([np.zeros(k, dtype=np.complex128), p.coeffs]),
            p.is_exact_polynomial)
    return Series((ExactComplex(0),) * k + p.coeffs, p.is_exact_polynomial)


def reflect(p: Series, n: int) -> Series:
    """Reflected polynomial p*(z) = z^n conj(p)(1/z): coefficient j is
    conj(p_{n-j}).  Involution: reflect(reflect(p, n), n) == p."""
    d = p.degree
    if n < d:
        raise InvalidReflectionDegreeError(
            f"reflection degree {n} is below the effective degree {d}")
    if p.backend == "float":
        padded = np.zeros(n + 1, dtype=np.complex128)
        m = min(len(p), n + 1)
        padded[:m] = p.coeffs[:m]
        return Series.from_complex(np.conj(padded[::-1]), p.is_exact_polynomial)
    return Series(tuple(p[n - j].conjugate() for j in range(n + 1)),
                  p.is_exact_polynomial)
