"""The CLI contract on hostile exact specs: every input ends in exit 0, 2,
3 or 4; a refusal prints nothing on stdout and one JSON error on stderr;
an accepted approximant equals an independent exact solve.  And scaling
f by c scales p_n by 1/c and keeps its zeros, however far c is from 1."""

import contextlib
import io
import json
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optapprox import ExactComplex, Series, shifted_inner
from optapprox.cli import main
from optapprox.exact import format_rational

from conftest import exact_gauss_solve


def _fraction(text):
    """The rational a p/q string denotes, or None when it denotes none."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


small = st.integers(-6, 6)
huge = st.builds(lambda e, s: s * 10 ** e + 1, st.integers(30, 120), st.sampled_from([1, -1]))
ratios = st.builds(lambda p, q: f"{p}/{q}", st.one_of(small, huge), st.integers(-3, 9))
parts = st.one_of(small.map(lambda v: (v, Fraction(v))),
                  ratios.map(lambda s: (s, _fraction(s))))
junk = st.sampled_from([True, False, None, 0.5, float("inf"), "abc", "nan", "inf",
                        "1/0", [1], {"re": True}, {"im": None}, {"re": 0.5}])


@st.composite
def coefficients(draw):
    """A JSON coefficient and the exact value it denotes, or None for one
    the exact backend must refuse."""
    kind = draw(st.sampled_from(["int", "huge", "ratio", "complex", "junk"]))
    if kind in ("int", "huge"):
        v = draw(small if kind == "int" else huge)
        return v, ExactComplex(v)
    if kind == "ratio":
        s = draw(ratios)
        q = _fraction(s)
        return s, None if q is None else ExactComplex(q)
    if kind == "complex":
        obj, value = {}, [Fraction(0), Fraction(0)]
        for i, key in enumerate(("re", "im")):
            if draw(st.booleans()):
                obj[key], value[i] = draw(parts)
        return obj, None if None in value else ExactComplex(*value)
    return draw(junk), None


ALPHAS = ["-3", "-2", "-1", "0", "1", "2", "3", "2.0", "0.5", "-1.5"]

COMMANDS = {
    "approximant": lambda n: ("--n", str(n)),
    "zeros": lambda n: ("--n-range", f"0..{n}"),
    "cyclicity": lambda n: ("--max-n", str(n)),
    "orthopoly": lambda n: ("--n", str(n)),
    "levinson": lambda n: ("--n", str(n)),
}


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def parse_rational(text):
    # Decimal reads integers of any length; Fraction(text) stops at 4300 digits
    p, _, q = text.partition("/")
    return Fraction(int(Decimal(p)), int(Decimal(q or "1")))


def parse_scalar(x):
    if isinstance(x, dict):
        return ExactComplex(parse_rational(x["re"]), parse_rational(x["im"]))
    return ExactComplex(parse_rational(x))


def oracle_approximant(f, n, alpha):
    """conj(G) c = conj(f(0)) e_0, with G from single shifted inner
    products and solved by naive Gaussian elimination."""
    G = [[shifted_inner(f, k, l, alpha) for l in range(n + 1)] for k in range(n + 1)]
    y = exact_gauss_solve(G, [f.at0()] + [ExactComplex(0)] * n)
    return [v.conjugate() for v in y]


@settings(max_examples=120, deadline=None)
@given(st.lists(coefficients(), max_size=4), st.sampled_from(ALPHAS), st.integers(0, 12),
       st.sampled_from(sorted(COMMANDS)))
def test_exact_spec_contract(coeffs, alpha, n, command):
    spec = json.dumps({"coefficients": [c for c, _ in coeffs]})
    argv = [command, "--f", spec, *COMMANDS[command](n)]
    if command != "levinson":
        argv.append(f"--alpha={alpha}")
    code, out, err = run(*argv)
    assert code in (0, 2, 3, 4)
    if code:
        assert out == ""
        assert err.count("\n") == 1
        assert set(json.loads(err)) == {"error", "module", "message"}
    else:
        assert err == ""

    values = [v for _, v in coeffs]
    valid = (bool(values) and None not in values and not values[0].is_zero
             and (command == "levinson" or float(alpha).is_integer()))
    if not valid:
        assert code == 2
        return
    # a float view (roots, phis) of a result beyond the float range exits 3;
    # inputs of moderate size must succeed
    tame = all(abs(v.re) + abs(v.im) < 10 ** 6 for v in values)
    assert code == 0 if tame else code in (0, 3)
    if code:
        return
    if command == "approximant":
        f = Series(tuple(values), True)
        got = [parse_scalar(c) for c in json.loads(out)["coefficients"]]
        assert got == oracle_approximant(f, n, int(float(alpha)))


def approximant_output(coeffs, *argv):
    code, out, err = run("approximant", "--f", json.dumps({"coefficients": coeffs}), *argv)
    assert (code, err) == (0, "")
    return json.loads(out)


@settings(max_examples=40, deadline=None)
@given(st.lists(small, min_size=2, max_size=4).filter(lambda a: a[0] != 0),
       st.integers(-2, 2), st.integers(1, 6), st.sampled_from([-1400, -40, 40, 1400]))
def test_scaling_f_scales_exact_p_and_keeps_its_zeros(a, alpha, n, e):
    # c = 2^e: the float views of p_n for f and c f differ by a power of
    # two, so their roots are the same floats
    c = Fraction(2) ** e
    argv = ("--n", str(n), f"--alpha={alpha}")
    base = approximant_output(a, *argv)
    scaled = approximant_output([format_rational(c * x) for x in a], *argv)
    p = [parse_scalar(x) for x in base["coefficients"]]
    assert [parse_scalar(x) for x in scaled["coefficients"]] == [x / c for x in p]
    assert len(base["zeros"]) == max(k for k, x in enumerate(p) if x != 0)
    assert scaled["zeros"] == base["zeros"]


@pytest.mark.parametrize("c", [1e12, 1e100])
@pytest.mark.parametrize("a, n", [([1.0, 0.5], 3), ([3.0, -1.0, 2.0], 3),
                                  ([1.0, 2.0, 2.0, 1.0], 3),
                                  ([1.0, 0.1], 6)])   # c_6 ~ 1e-6 |p|
@pytest.mark.parametrize("alpha", ["-1", "0", "1.5"])
def test_scaling_f_scales_float_p_and_keeps_its_zeros(a, n, c, alpha):
    argv = ("--n", str(n), f"--alpha={alpha}", "--backend", "float")
    base = approximant_output(a, *argv)
    scaled = approximant_output([c * x for x in a], *argv)
    p, q = ([complex(x["re"], x["im"]) if isinstance(x, dict) else x
             for x in out["coefficients"]] for out in (base, scaled))
    np.testing.assert_allclose(np.array(q) * c, p, rtol=1e-12, atol=0)
    want, got = ([complex(z["re"], z["im"]) for z in out["zeros"]] for out in (base, scaled))
    assert len(want) == len(got) == n
    for z in want:
        i = min(range(len(got)), key=lambda i: abs(got[i] - z))
        assert abs(got.pop(i) - z) <= 1e-9 * abs(z)
