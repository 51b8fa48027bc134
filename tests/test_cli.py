"""Command-line interface: subcommands, serialization, exit codes."""

import csv
import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optapprox.cli import _dumps, build_parser, main, serialize_scalar
from optapprox.exact import ExactComplex
from optapprox.series import Series

ONE_MINUS_Z = '{"family":"one_minus_z_pow","params":{"N":1}}'
CUBE = '{"family":"one_plus_z_pow","params":{"N":3}}'
BLASCHKE_HALF = '{"family":"blaschke","params":{"lambda":{"re":0.5,"im":0},"truncation":4000}}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSerialization:
    def test_rational(self):
        assert serialize_scalar(ExactComplex("741/1694")) == "741/1694"

    def test_complex_rational(self):
        assert serialize_scalar(ExactComplex(1, "-1/2")) == \
            {"re": "1", "im": "-1/2"}

    def test_rational_beyond_the_int_string_limit(self):
        # str() of an int stops at 4300 digits by default; the output does not
        big = 10 ** 5000 + 1
        assert serialize_scalar(ExactComplex(Fraction(-big, 3))) == "-1" + "0" * 4999 + "1/3"

    def test_float(self):
        assert serialize_scalar(0.25) == 0.25
        assert serialize_scalar(1 + 2j) == {"re": 1.0, "im": 2.0}


class TestApproximant:
    def test_exact_fraction_output(self, capsys):
        code, out, err = run(capsys, "approximant", "--f", CUBE,
                             "--alpha", "-2", "--n", "1", "--backend", "exact")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["coefficients"] == ["741/1694", "-775/1694"]
        assert payload["p0"] == "741/1694"
        assert payload["tail_error_bound"] == 0.0
        assert payload["zeros"][0]["re"] == pytest.approx(741 / 775, abs=1e-10)

    def test_byte_identical_across_runs(self, capsys):
        outs = []
        for _ in range(2):
            code, out, _ = run(capsys, "approximant", "--f", CUBE,
                               "--alpha", "-2", "--n", "3", "--backend", "exact")
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]

    def test_output_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, _ = run(capsys, "approximant", "--f", ONE_MINUS_Z,
                           "--n", "1", "--output", str(path))
        assert code == 0 and out == ""
        payload = json.loads(path.read_text())
        assert payload["coefficients"] == ["2/3", "1/3"]
        assert payload["distance_sq"] == "1/3"


class TestZeros:
    def test_sweep_csv(self, capsys):
        code, out, err = run(capsys, "zeros", "--f", ONE_MINUS_Z,
                             "--alpha", "0", "--n-range", "0..10",
                             "--format", "csv")
        assert code == 0 and err == ""
        rows = list(csv.DictReader(io.StringIO(out)))
        # degree-n approximant has n roots; n = 0 contributes none
        assert len(rows) == sum(range(11))
        for row in rows:
            assert float(row["modulus"]) > 1.0
        # odd n: exactly one real negative root; even n: none
        for n in range(11):
            negatives = [r for r in rows if int(r["n"]) == n
                         and abs(float(r["im"])) < 1e-9 and float(r["re"]) < 0]
            assert len(negatives) == (1 if n % 2 == 1 else 0)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "zeros", "--f", ONE_MINUS_Z,
                           "--n-range", "1..2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 3
        assert payload[0]["re"] == pytest.approx(-2.0, abs=1e-12)

    def test_csv_lines_are_those_of_csv_writer(self, capsys):
        argv = ("zeros", "--f", CUBE, "--backend", "float", "--alpha", "0.5",
                "--n-range", "2..7")
        code, out, _ = run(capsys, *argv)
        assert code == 0
        _, rows, _ = run(capsys, *argv, "--format", "json")
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["n", "root_index", "re", "im", "modulus"])
        for r in json.loads(rows):
            w.writerow([r["n"], r["root_index"], repr(r["re"]), repr(r["im"]),
                        repr(r["modulus"])])
        assert out == buf.getvalue()

    def test_descending_range_rejected(self, capsys):
        code, out, err = run(capsys, "zeros", "--f", ONE_MINUS_Z,
                             "--n-range", "5..2")
        assert code == 2
        assert json.loads(err)["error"] == "SpecValidationError"


class TestOrthopoly:
    def test_monomials(self, capsys):
        code, out, _ = run(capsys, "orthopoly", "--f",
                           '{"coefficients":[1]}', "--alpha", "0", "--n", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["monic"] == [["1"], ["0", "1"], ["0", "0", "1"]]
        assert payload["norms_sq"] == ["1", "1", "1"]


class TestKernel:
    def test_at_origin(self, capsys):
        code, out, _ = run(capsys, "kernel", "--f", ONE_MINUS_Z,
                           "--alpha", "0", "--n", "1", "--z", "0", "--w", "0")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == pytest.approx(2 / 3, abs=1e-12)
        assert payload["extremal_value_at_zero"] == \
            pytest.approx((2 / 3) ** 0.5, abs=1e-12)


class TestCyclicity:
    def test_blaschke_plateau(self, capsys):
        code, out, _ = run(capsys, "cyclicity", "--f", BLASCHKE_HALF,
                           "--alpha", "0", "--max-n", "30",
                           "--backend", "float")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict_trend"] == "plateaued"
        for row in payload["rows"]:
            assert row["distance_sq"] == pytest.approx(0.75, abs=1e-10)

    def test_cesaro_csv(self, capsys):
        code, out, _ = run(capsys, "cyclicity", "--f", ONE_MINUS_Z,
                           "--alpha", "0", "--max-n", "5", "--format", "csv")
        assert code == 0
        assert "verdict=approaching-target" in out
        assert '"5/6"' in out  # p_5(0) = 6/7, d_4... d_n = 1/(n+2); p0 at n=4


class TestLevinson:
    def test_cesaro(self, capsys):
        code, out, _ = run(capsys, "levinson", "--f", ONE_MINUS_Z, "--n", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["coefficients"] == ["4/5", "3/5", "2/5", "1/5"]
        assert payload["gammas"] == ["-1/2", "-1/3", "-1/4"]
        assert payload["outer_target"] == "1/2"
        assert payload["outer_partial_products"] == ["3/4", "2/3", "5/8"]


class TestFirstZero:
    def test_exact_value(self, capsys):
        code, out, _ = run(capsys, "first-zero", "--f", CUBE, "--alpha", "-2")
        assert code == 0
        payload = json.loads(out)
        assert payload["finite"] is True
        assert payload["value"] == "741/775"
        assert payload["tail_error_bound"] == 0.0

    def test_infinite_zero(self, capsys):
        code, out, _ = run(capsys, "first-zero", "--f",
                           '{"coefficients":[1,0,1]}', "--alpha", "0")
        assert code == 0
        assert json.loads(out)["finite"] is False


class TestErrorsAndExitCodes:
    def test_invalid_json_spec(self, capsys):
        code, out, err = run(capsys, "approximant", "--f", "{not json",
                             "--n", "1")
        assert code == 2
        payload = json.loads(err)
        assert payload["error"] == "SpecValidationError"

    def test_invalid_family(self, capsys):
        code, _, err = run(capsys, "approximant", "--f",
                           '{"family":"nope","params":{}}', "--n", "1")
        assert code == 2

    def test_zero_at_origin_is_numerical(self, capsys):
        code, _, err = run(capsys, "approximant", "--f",
                           '{"coefficients":[0,1]}', "--n", "1")
        assert code in (2, 3)
        assert json.loads(err)["error"] in ("SpecValidationError",
                                            "ZeroAtOriginError")

    @pytest.mark.parametrize("argv", [
        ("--backend", "float", "--f", '{"coefficients":[null]}'),
        ("--backend", "float", "--f",
         '{"family":"eta_family","params":{"eta":1,"truncation":"x"}}'),
        ("--backend", "exact", "--f", '{"coefficients":[0.1,1]}'),
        ("--backend", "exact", "--f", '{"coefficients":[{"re":0.1},1]}'),
        ("--backend", "exact", "--f", '{"coefficients":[1,{"re":1,"im":2.5}]}'),
    ])
    def test_mistyped_spec_is_validation_error(self, capsys, argv):
        code, _, err = run(capsys, "approximant", "--n", "1", *argv)
        assert code == 2
        assert json.loads(err)["error"] == "SpecValidationError"

    def test_exact_backend_rejects_fractional_alpha(self, capsys):
        code, _, err = run(capsys, "approximant", "--f", ONE_MINUS_Z,
                           "--alpha", "0.5", "--n", "1", "--backend", "exact")
        assert code == 2


class TestVerify:
    def test_filtered_check_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "binomial_cube")
        assert code == 0
        assert out.startswith("PASS")

    def test_injected_error_detected(self, capsys):
        code, out, _ = run(capsys, "verify", "--only", "binomial_cube",
                           "--inject-error")
        assert code == 4
        assert "FAIL" in out

    def test_unknown_filter(self, capsys):
        code, _, err = run(capsys, "verify", "--only", "zzz")
        assert code == 2


BIG_INT = "1" + "0" * 400   # a JSON integer beyond the float range

NON_FINITE_SPECS = [
    pytest.param('{"coefficients":[%s]}' % BIG_INT, id="big-int"),
    pytest.param('{"coefficients":[{"re":%s}]}' % BIG_INT, id="big-int-re"),
    pytest.param('{"coefficients":[1,NaN]}', id="nan"),
    pytest.param('{"coefficients":[1,1e400]}', id="1e400"),
    pytest.param('{"coefficients":[1,"1e400"]}', id="1e400-string"),
    pytest.param('{"family":"eta_family","params":{"eta":1e400,"truncation":100}}',
                 id="eta-1e400"),
    pytest.param('{"family":"eta_family","params":{"eta":%s,"truncation":100}}'
                 % BIG_INT, id="eta-big-int"),
]

COMMANDS = [
    ("approximant", "--n", "2"),
    ("first-zero",),
    ("cyclicity", "--max-n", "3"),
    ("zeros", "--n-range", "0..2"),
]


@pytest.mark.parametrize("command", COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("spec", NON_FINITE_SPECS)
def test_non_finite_float_spec_is_validation_error(capsys, command, spec):
    code, out, err = run(capsys, *command, "--backend", "float", "--f", spec)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "SpecValidationError"


@pytest.mark.parametrize("backend", ["exact", "float"])
def test_zero_denominator_string_is_validation_error(capsys, backend):
    code, _, err = run(capsys, "approximant", "--n", "1", "--backend", backend,
                       "--f", '{"coefficients":[1,"1/0"]}')
    assert code == 2
    assert json.loads(err)["error"] == "SpecValidationError"


OVERFLOWING_SPECS = [
    pytest.param('{"coefficients":[1,1e300]}', id="1e300"),
    pytest.param('{"family":"eta_family","params":{"eta":1e200,"truncation":100}}',
                 id="eta-1e200"),
]


@pytest.mark.parametrize("command", [
    ("approximant", "--n", "2"),
    ("first-zero",),
    ("cyclicity", "--max-n", "3"),
    ("orthopoly", "--n", "2"),
], ids=lambda c: c[0])
@pytest.mark.parametrize("spec", OVERFLOWING_SPECS)
def test_overflowing_float_gram_is_numerical_error(capsys, command, spec):
    # finite specs whose Gram entries overflow the float range
    code, out, err = run(capsys, *command, "--backend", "float", "--f", spec)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ConditioningError"


@pytest.mark.parametrize("argv, error", [
    (("approximant", "--n", "1", "--f", '{"coefficients":[1e-12,5e-13]}'),
     "ZeroAtOriginError"),
    (("first-zero", "--f", OVERFLOWING_SPECS[1].values[0]), "ConditioningError"),
], ids=["f0-zero", "gram-overflow"])
def test_error_names_the_module_that_raised_it(capsys, argv, error):
    # both are raised in spaces: the f(0) check and the float Gram check
    code, out, err = run(capsys, *argv, "--backend", "float")
    assert code == 3 and out == ""
    payload = json.loads(err)
    assert payload["error"] == error and payload["module"] == "spaces"


def test_rounding_noise_denominator_is_no_finite_zero(capsys):
    # <B, zB> = 0 for a Blaschke factor at alpha = 0; rounding leaves ~1e-17
    code, out, _ = run(capsys, "first-zero", "--backend", "float", "--alpha", "0",
                       "--f", '{"family":"blaschke","params":{"lambda":'
                              '{"re":0.4,"im":-0.2},"truncation":2000}}')
    assert code == 0
    assert json.loads(out)["finite"] is False


def test_first_zero_of_large_function(capsys):
    # ||f||^2 ||z f||^2 is beyond the float range; ||z f||^2 / <f, z f>,
    # 1.25e200 / 0.5e200, is not
    code, out, err = run(capsys, "first-zero", "--backend", "float",
                         "--f", '{"coefficients":[1e100,5e99]}')
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["finite"] is True
    assert payload["value"] == pytest.approx(2.5, rel=1e-13)


def test_levinson_solves_once(capsys, monkeypatch):
    from optapprox import levinson

    calls = []
    solve = levinson.levinson_solve
    monkeypatch.setattr(levinson, "levinson_solve",
                        lambda *a: calls.append(a) or solve(*a))
    code, out, _ = run(capsys, "levinson", "--f", ONE_MINUS_Z, "--n", "6")
    assert code == 0 and len(calls) == 1
    oc = levinson.outer_criterion_partial(Series.exact([1, -1]), 6)
    assert json.loads(out)["outer_partial_products"] == \
        [serialize_scalar(p) for p in oc.partial_products]


@pytest.mark.parametrize("backend, factor", [("exact", "_eliminate"), ("float", "zpotrf")])
def test_zeros_sweep_factors_once(capsys, monkeypatch, backend, factor):
    from optapprox import linsolve

    calls = []
    fn = getattr(linsolve, factor)
    monkeypatch.setattr(linsolve, factor, lambda *a: calls.append(a) or fn(*a))
    code, out, _ = run(capsys, "zeros", "--f", CUBE, "--alpha", "1",
                       "--backend", backend, "--n-range", "3..12")
    assert code == 0 and len(calls) == 1
    assert {int(r["n"]) for r in csv.DictReader(io.StringIO(out))} == set(range(3, 13))


@pytest.mark.parametrize("N", [6, 8, 10])
def test_float_cyclicity_refuses_where_the_sweep_does(capsys, N):
    # both read the leading blocks of one factor at n = 40 and refuse any
    # whose condition estimate exceeds 1e14: (1 - z)^10 is refused
    from optapprox import optimal_sweep

    f = '{"family":"one_minus_z_pow","params":{"N":%d}}' % N
    common = ("--backend", "float", "--alpha", "0", "--f", f)
    cyc = run(capsys, "cyclicity", "--max-n", "40", "--format", "json", *common)
    sweep = run(capsys, "zeros", "--n-range", "0..40", *common)
    assert cyc[0] == sweep[0] == (3 if N == 10 else 0)
    if cyc[0]:
        assert json.loads(cyc[2])["error"] == json.loads(sweep[2])["error"] == \
            "ConditioningError"
        return
    code, out, _ = run(capsys, "cyclicity", "--max-n", "40", "--format", "json",
                       "--backend", "exact", "--alpha", "0", "--f", f)
    assert code == 0
    c = [(-1) ** k * math.comb(N, k) for k in range(N + 1)]
    p0 = [r.p_at_zero for r in optimal_sweep(Series.from_complex(c), 40, 0)]
    # against the exact backend to the accuracy of the float solves: the
    # float sweep's p_n(0) is off by as much (4e-8 for N = 6 and 5e-5 for
    # N = 8, whose Gram matrix has condition estimate 5e13 at n = 40)
    tol = {6: 1e-6, 8: 1e-4}[N]
    for fl, ex, p in zip(json.loads(cyc[1])["rows"], json.loads(out)["rows"], p0):
        exact = float(Fraction(ex["partial_sum"]))
        assert abs(fl["partial_sum"] - exact) <= tol * exact
        assert fl["p0"] == pytest.approx(p.real, rel=1e-9)


def test_ill_conditioned_float_sweep_exits_3(capsys):
    code, out, err = run(capsys, "zeros", "--backend", "float", "--alpha", "0",
                         "--n-range", "0..40",
                         "--f", '{"family":"one_minus_z_pow","params":{"N":10}}')
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ConditioningError"


FLOAT_F = ("--backend", "float", "--f", ONE_MINUS_Z)


@pytest.mark.parametrize("argv", [
    pytest.param(("approximant", "--f", ONE_MINUS_Z, "--n", "-1"), id="approximant-n"),
    pytest.param(("orthopoly", "--f", ONE_MINUS_Z, "--n", "-3"), id="orthopoly-n"),
    pytest.param(("kernel", "--f", ONE_MINUS_Z, "--n", "-1"), id="kernel-n"),
    pytest.param(("levinson", "--f", ONE_MINUS_Z, "--n", "-1"), id="levinson-n"),
    pytest.param(("cyclicity", "--f", ONE_MINUS_Z, "--max-n", "-1"), id="cyclicity-max-n"),
    pytest.param(("zeros", "--f", ONE_MINUS_Z, "--n-range=-2..1"), id="zeros-negative-range"),
    pytest.param(("approximant", "--f", ONE_MINUS_Z, "--n", "abc"), id="n-not-integer"),
    pytest.param(("approximant", "--f", ONE_MINUS_Z, "--n", "1.5"), id="n-fraction"),
    pytest.param(("approximant", "--f", ONE_MINUS_Z), id="n-missing"),
    pytest.param(("approximant", "--n", "1"), id="f-missing"),
    pytest.param(("approximant", "--f", ONE_MINUS_Z, "--n", "1", "--backend", "fast"),
                 id="unknown-backend"),
    pytest.param(("no-such-command",), id="unknown-command"),
    pytest.param((), id="no-command"),
    pytest.param(("kernel", *FLOAT_F, "--n", "2", "--z", "nan"), id="z-nan"),
    pytest.param(("kernel", *FLOAT_F, "--n", "2", "--z", "1e400"), id="z-overflow"),
    pytest.param(("kernel", *FLOAT_F, "--n", "2", "--w=0.5,-inf"), id="w-infinite"),
    pytest.param(("approximant", "--f", ONE_MINUS_Z, "--n", "1", "--format", "csv"),
                 id="approximant-format"),
    pytest.param(("levinson", "--f", ONE_MINUS_Z, "--n", "1", "--format", "json"),
                 id="levinson-format"),
])
def test_malformed_command_line_is_json_validation_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "SpecValidationError"
    assert payload["module"] == "cli"


def test_float_view_beyond_the_float_range(capsys):
    # ||f||^2 = 1 + 10^400 is exact and beyond the float range, but
    # A_0 = 1/sqrt(||f||^2) = 1e-200 is a float
    code, out, _ = run(capsys, "orthopoly", "--n", "0",
                       "--f", '{"coefficients":[1,%d]}' % 10 ** 200)
    assert code == 0
    payload = json.loads(out)
    assert payload["norms_sq"] == [str(1 + 10 ** 400)]
    (a,) = payload["leading_coefficients"]
    assert abs(a - 1e-200) <= math.ulp(1e-200)
    assert payload["phis"] == [[a]]


def test_root_beyond_the_float_range_exits_3(capsys):
    # p_1 = c (1 - z/r) with r = 10^400 + 10^-400: no float holds its root
    code, out, err = run(capsys, "approximant", "--n", "1",
                         "--f", '{"coefficients":["1/%d",1]}' % 10 ** 400)
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "OverflowError"


def test_spec_error_names_families(capsys):
    code, out, err = run(capsys, "approximant", "--n", "1", "--f", '{"coefficients":[0,1]}')
    assert code == 2 and out == ""
    assert json.loads(err)["module"] == "families"


@pytest.mark.parametrize("backend", ["exact", "float"])
@pytest.mark.parametrize("alpha", ["inf", "-inf", "nan", "1e400"])
def test_non_finite_alpha_is_json_validation_error(capsys, alpha, backend):
    code, out, err = run(capsys, "approximant", "--n", "3", f"--alpha={alpha}",
                         "--backend", backend, "--f", '{"coefficients":[1,2]}')
    assert code == 2 and out == ""
    payload = json.loads(err)
    assert payload["error"] == "SpecValidationError" and payload["module"] == "cli"


def test_help_still_exits_0(capsys):
    code, out, err = run(capsys, "approximant", "--help")
    assert code == 0 and "--n" in out and err == ""


def test_parser_built_once_gives_each_call_its_own_output(capsys):
    calls = [("zeros", "--f", CUBE, "--n-range", "0..4", "--format", "json"),
             ("zeros", "--f", CUBE, "--n-range", "0..4"),     # CSV by default
             ("zeros", "--f", CUBE, "--n-range"),             # malformed
             ("cyclicity", "--f", ONE_MINUS_Z, "--max-n", "3")]
    in_series = [run(capsys, *argv) for argv in calls]
    assert build_parser() is build_parser()
    alone = []
    for argv in calls:
        build_parser.cache_clear()
        alone.append(run(capsys, *argv))
    assert in_series == alone
    assert [code for code, _, _ in in_series] == [0, 0, 2, 0]
    assert in_series[1][1].startswith("n,root_index,re,im,modulus\r\n")


_FLOATS = st.floats() | st.sampled_from([-0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf])
_LEAVES = (_FLOATS | st.integers() | st.integers(-10 ** 300, 10 ** 300) | st.booleans()
           | st.none() | st.text())
_JSON = st.recursive(
    _LEAVES | st.fixed_dictionaries({"re": _FLOATS, "im": _FLOATS}),
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=40)


@settings(max_examples=300, deadline=None)
@given(_JSON)
def test_dumps_is_json_dumps_with_indent_2(obj):
    assert _dumps(obj) == json.dumps(obj, indent=2)
