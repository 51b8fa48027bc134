"""The CLI contract on hostile exact specs and on float family specs:
every input ends in exit 0, 2, 3 or 4; a refusal prints nothing on
stdout and one JSON error on stderr; an accepted approximant equals an
independent exact solve, and a truncated family reports a nonnegative
tail, or is refused where it lies outside D_alpha.  And scaling
f by c scales p_n by 1/c and keeps its zeros, however far c is from 1."""

import cmath
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
        f = Series(tuple(values))
        got = [parse_scalar(c) for c in json.loads(out)["coefficients"]]
        assert got == oracle_approximant(f, n, int(float(alpha)))


@st.composite
def family_specs(draw):
    """A float eta or Blaschke spec, with its eta (None for Blaschke).  A
    Blaschke truncation may be below n, where its Gram band sums every row."""
    if draw(st.booleans()):
        eta = draw(st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1.5]), st.floats(0.01, 2.0)))
        truncation = draw(st.integers(64, 5000))
        return {"family": "eta_family", "params": {"eta": eta, "truncation": truncation}}, eta
    truncation = draw(st.one_of(st.integers(1, 45), st.integers(1, 5000)))
    modulus = draw(st.one_of(st.floats(1e-3, 0.999), st.just(1e-200)))   # |lambda|^2 underflows
    lam = modulus * np.exp(1j * draw(st.floats(-np.pi, np.pi)))
    return {"family": "blaschke", "params": {"lambda": {"re": lam.real, "im": lam.imag},
                                             "truncation": truncation}}, None


def disk_point(draw):
    """A point of the open unit disk, as --z and --w take it."""
    z = cmath.rect(draw(st.floats(0, 0.999)), draw(st.floats(-np.pi, np.pi)))
    return f"{z.real!r},{z.imag!r}"


FAMILY_COMMANDS = {
    "approximant": lambda n, draw: ("--n", str(n)),
    "zeros": lambda n, draw: ("--n-range", f"0..{n}"),
    "first-zero": lambda n, draw: (),
    "cyclicity": lambda n, draw: ("--max-n", str(n)),
    "orthopoly": lambda n, draw: ("--n", str(n)),
    "kernel": lambda n, draw: ("--n", str(n), f"--z={disk_point(draw)}",
                               f"--w={disk_point(draw)}"),
    "levinson": lambda n, draw: ("--n", str(n)),
}


@settings(max_examples=80, deadline=None)
@given(family_specs(), st.sampled_from([-3.0, -2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
       st.integers(0, 40), st.sampled_from(sorted(FAMILY_COMMANDS)), st.data())
def test_float_family_spec_contract(spec, alpha, n, command, data):
    # eta lies in D_alpha only when alpha + 2 eta < 1; every command refuses
    # it elsewhere, and the ones that report a tail report a nonnegative
    # one.  Levinson runs at alpha = 0 only
    spec, eta = spec
    argv = FAMILY_COMMANDS[command](n, data.draw)
    if command == "levinson":
        alpha = 0.0
    else:
        argv += (f"--alpha={alpha}",)
    code, out, err = run(command, "--backend", "float", "--f", json.dumps(spec), *argv)
    assert code in (0, 2, 3, 4)
    if code:
        assert out == ""
        assert err.count("\n") == 1
        assert set(json.loads(err)) == {"error", "module", "message"}
    else:
        assert err == ""
    if eta is not None and alpha + 2 * eta >= 1:
        assert code == 2 and json.loads(err)["error"] == "SpecValidationError"
    elif code == 0 and command in ("approximant", "first-zero"):
        payload = json.loads(out)
        if payload.get("finite", True):
            assert payload["tail_error_bound"] >= 0


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


@pytest.mark.parametrize("c", [1e-100, 1e-12, 1e12, 1e100])
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


@pytest.mark.parametrize("command", [("approximant", "--n", "1"), ("levinson", "--n", "1"),
                                     ("cyclicity", "--max-n", "3")], ids=lambda c: c[0])
@pytest.mark.parametrize("coeffs", [[1e-155, 1.0], [1e-170, 1.0], [1e-160, 0.5e-160]],
                         ids=["f0-1e-155", "f0-1e-170", "c-1e-160"])
def test_float_f0_whose_square_underflows_is_refused(command, coeffs):
    # |f(0)|^2 below the smallest normal float has lost its precision (or
    # is 0); the solvers divide by it or solve against it
    code, out, err = run(*command, "--backend", "float",
                         "--f", json.dumps({"coefficients": coeffs}))
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ConditioningError"


@pytest.mark.parametrize("command", [("first-zero",), ("orthopoly", "--n", "2"),
                                     ("kernel", "--n", "2", "--z=0.1,0", "--w=0.2,0")],
                         ids=lambda c: c[0])
def test_float_gram_below_the_normal_range_is_refused(command):
    # commands that do not read f(0) on its own: for f scaled by 1e-160
    # every Gram entry is subnormal, with a few significant bits at most
    code, out, err = run(*command, "--backend", "float",
                         "--f", json.dumps({"coefficients": [1e-160, 5e-161, 2.5e-161]}))
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "ConditioningError", "module": "spaces",
                               "message": "float Gram matrix lies below the normal "
                                          "float range; rescale f"}


def test_levinson_refuses_what_its_normalization_overflows():
    # f = 1e-150 + 1e10 z: ||f||^2 / |f(0)|^2 = 1e320 is beyond the float
    # range, so Levinson, which runs on f / f(0), refuses; the Gram solve
    # does not divide by |f(0)|^2 and agrees with the exact backend
    spec = ("--f", json.dumps({"coefficients": [1e-150, 1e10]}))
    code, out, err = run("levinson", "--n", "1", "--backend", "float", *spec)
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "ConditioningError", "module": "levinson",
                               "message": "||f||^2 / |f(0)|^2 is beyond the float "
                                          "range; use the exact backend"}
    got = approximant_output([1e-150, 1e10], "--n", "1", "--backend", "float")
    want = approximant_output(["1e-150", "1e10"], "--n", "1")
    assert got["p0"] == pytest.approx(float(Fraction(want["p0"])), rel=1e-12)


@pytest.mark.parametrize("c", [1e-100, 1e100])
def test_scaling_f_keeps_its_float_monic_orthogonal_polynomials(c):
    # the Gram matrix of c f is |c|^2 times that of f: the monic psi_k are
    # the same, their squared norms scale by |c|^2
    a = [3.0, -1.0, 2.0]
    base, scaled = (json.loads(run("orthopoly", "--n", "3", "--backend", "float", "--f",
                                   json.dumps({"coefficients": b}))[1])
                    for b in (a, [c * x for x in a]))
    np.testing.assert_allclose(scaled["norms_sq"], np.array(base["norms_sq"]) * c * c,
                               rtol=1e-12)
    for p, q in zip(base["monic"], scaled["monic"]):
        np.testing.assert_allclose(q, p, rtol=1e-12, atol=1e-15)
