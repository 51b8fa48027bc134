"""Command-line surface.

Subcommands: approximant, zeros, orthopoly, kernel, cyclicity, levinson,
first-zero, verify.  Functions are described by a JSON FunctionSpec
({"family": ..., "params": {...}} or {"coefficients": [...]}).  Output is
JSON, or CSV for the tables of zeros and cyclicity (``--format``);
rationals serialize as "p/q" strings in the exact backend so golden
comparisons are byte-stable.

Exit codes: 0 success, 2 validation error, 3 numerical breakdown,
4 verification failure.  Errors are emitted as machine-readable JSON on
stderr.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction

from . import approximant, families, kernels, levinson, orthopoly, verify, zeros
from .errors import OptApproxError, SpecValidationError
from .exact import ExactComplex, format_rational
from .series import Series

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_VERIFY = 4

def serialize_scalar(x):
    """JSON form of a backend scalar: rationals as 'p/q' strings, floats
    as shortest round-trip decimals, complex as {'re':, 'im':}."""
    if isinstance(x, ExactComplex):
        if x.im == 0:
            return format_rational(x.re)
        return {"re": format_rational(x.re), "im": format_rational(x.im)}
    if isinstance(x, Fraction):
        return format_rational(x)
    c = complex(x)
    if c.imag == 0.0:
        return c.real
    return {"re": c.real, "im": c.imag}


def _float_text(x: float) -> str:
    """A float as json writes it: float.__repr__, or NaN and Infinity."""
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


_quote = json.encoder.encode_basestring_ascii


def _dumps(obj, nl: str = "\n") -> str:
    """json.dumps(obj, indent=2), byte for byte, for string keys, without
    json's pure-Python indenting encoder; ``nl`` is a newline and the
    indent of the line obj starts on."""
    if type(obj) is float:
        return _float_text(obj)
    if isinstance(obj, str):
        return _quote(obj)
    inner = nl + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if tuple(obj) == ("re", "im") and type(obj["re"]) is type(obj["im"]) is float:
            return (f'{{{inner}"re": {_float_text(obj["re"])},'
                    f'{inner}"im": {_float_text(obj["im"])}{nl}}}')
        items = [f"{_quote(key)}: {_dumps(value, inner)}" for key, value in obj.items()]
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_dumps(x, inner) for x in obj]) + nl + "]"
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        return _float_text(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _raising_module(exc: Exception) -> str:
    """The optapprox module that raised ``exc``: that of the innermost
    frame of its traceback inside the package."""
    module, tb = "optapprox", exc.__traceback__
    while tb is not None:
        # the module's spec, not its __name__, which is __main__ under -m
        spec = tb.tb_frame.f_globals.get("__spec__")
        if spec is not None and spec.name.startswith("optapprox."):
            module = spec.name.rpartition(".")[2]
        tb = tb.tb_next
    return module


def _emit_error(exc: Exception, code: int, module: str | None = None) -> int:
    payload = {
        "error": type(exc).__name__,
        "module": module or _raising_module(exc),
        "message": str(exc),
    }
    print(json.dumps(payload), file=sys.stderr)
    return code


def _degree(text: str) -> int:
    """argparse type of --n and --max-n: a nonnegative integer."""
    if not text.isdigit():
        raise argparse.ArgumentTypeError(f"degree must be a nonnegative integer, got {text!r}")
    return int(text)


def _alpha(text: str) -> float:
    """argparse type of --alpha: a finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"alpha must be finite, got {text!r}")
    return value


def _n_range(text: str) -> range:
    """argparse type of --n-range: 'lo..hi' or 'n', with 0 <= lo <= hi."""
    lo, sep, hi = text.partition("..")
    lo, hi = int(lo), int(hi if sep else lo)
    if not 0 <= lo <= hi:
        raise argparse.ArgumentTypeError(f"n range {text!r} is empty, descending or negative")
    return range(lo, hi + 1)


def _point(text: str) -> complex:
    """argparse type of --z and --w: 're' or 're,im', both finite."""
    parts = [float(x) for x in text.split(",")] + [0.0]
    if not all(map(math.isfinite, parts)):
        raise argparse.ArgumentTypeError(f"point {text!r} is not finite")
    return complex(parts[0], parts[1])


def _load_function(args) -> Series:
    try:
        obj = json.loads(args.f)
    except json.JSONDecodeError as exc:
        raise SpecValidationError(f"--f is not valid JSON: {exc}") from exc
    spec = families.spec_from_json(obj, backend=args.backend)
    f = families.realize(spec)
    if args.backend == "float" and f.backend == "exact":
        f = f.to_float()
    return f


def _write_output(args, text: str) -> None:
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _zero_rows(zero_set):
    return [{"re": z.real, "im": z.imag, "modulus": abs(z)} for z in zero_set.roots]


# -- subcommand handlers ------------------------------------------------

def _cmd_approximant(args) -> int:
    f = _load_function(args)
    res = approximant.optimal(f, args.n, args.alpha)
    payload = {
        "alpha": args.alpha,
        "n": args.n,
        "backend": f.backend,
        "coefficients": [serialize_scalar(c) for c in res.p.coeffs],
        "p0": serialize_scalar(res.p_at_zero),
        "distance_sq": serialize_scalar(res.distance_sq),
        "zeros": _zero_rows(zeros.poly_roots(res.p)),
        "tail_error_bound": res.tail_error_bound,
    }
    _write_output(args, _dumps(payload) + "\n")
    return EXIT_OK


def _cmd_zeros(args) -> int:
    f = _load_function(args)
    ns = args.n_range
    sweep = approximant.optimal_sweep(f, ns[-1], args.alpha)
    zero_sets = zeros.poly_roots_batch([sweep[n].p for n in ns])
    if args.format == "csv":
        # the lines csv.writer writes: no field needs quoting
        lines = ["n,root_index,re,im,modulus\r\n"]
        lines += [f"{n},{idx},{z.real!r},{z.imag!r},{abs(z)!r}\r\n"
                  for n, zs in zip(ns, zero_sets) for idx, z in enumerate(zs.roots)]
        _write_output(args, "".join(lines))
    else:
        rows = [{"n": n, "root_index": idx, **z}
                for n, zs in zip(ns, zero_sets) for idx, z in enumerate(_zero_rows(zs))]
        _write_output(args, _dumps(rows) + "\n")
    return EXIT_OK


def _cmd_orthopoly(args) -> int:
    f = _load_function(args)
    bas = orthopoly.basis(f, args.n, args.alpha)
    payload = {
        "alpha": args.alpha,
        "n": args.n,
        "backend": f.backend,
        "monic": [[serialize_scalar(c) for c in psi.coeffs] for psi in bas.monic],
        "norms_sq": [serialize_scalar(s) for s in bas.norms_sq],
        "leading_coefficients": list(bas.leading_coefficients()),
        "phis": [[serialize_scalar(c) for c in phi.coeffs] for phi in bas.phis],
    }
    _write_output(args, _dumps(payload) + "\n")
    return EXIT_OK


def _cmd_kernel(args) -> int:
    f = _load_function(args)
    z, w = args.z, args.w
    if f.backend == "exact":
        f = f.to_float()
    bas = orthopoly.basis(f, args.n, args.alpha)
    ev = kernels.kernel_eval_from_basis(bas, z, w)
    k00 = kernels.kernel_eval_from_basis(bas, 0j, 0j).value
    payload = {
        "alpha": args.alpha,
        "n": args.n,
        "z": {"re": z.real, "im": z.imag},
        "w": {"re": w.real, "im": w.imag},
        "value": serialize_scalar(ev.value),
        "extremal_value_at_zero": math.sqrt(max(k00.real, 0.0)),
    }
    _write_output(args, _dumps(payload) + "\n")
    return EXIT_OK


def _cmd_cyclicity(args) -> int:
    f = _load_function(args)
    rep = kernels.cyclicity_report(f, args.alpha, args.max_n)
    rows = [(n, serialize_scalar(rep.pn_at_zero[n]),
             serialize_scalar(rep.partial_sums[n]),
             serialize_scalar(rep.distances[n]))
            for n in range(rep.max_n + 1)]
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["n", "p0", "partial_sum", "distance_sq"])
        for row in rows:
            w.writerow([row[0], json.dumps(row[1]), json.dumps(row[2]),
                        json.dumps(row[3])])
        buf.write(f"# target={json.dumps(serialize_scalar(rep.target))} "
                  f"verdict={rep.verdict_trend}\n")
        _write_output(args, buf.getvalue())
    else:
        payload = {
            "max_n": rep.max_n,
            "target": serialize_scalar(rep.target),
            "verdict_trend": rep.verdict_trend,
            "rows": [{"n": r[0], "p0": r[1], "partial_sum": r[2],
                      "distance_sq": r[3]} for r in rows],
        }
        _write_output(args, _dumps(payload) + "\n")
    return EXIT_OK


def _cmd_levinson(args) -> int:
    f = _load_function(args)
    state = levinson.levinson_solve(f, args.n)
    crit = levinson.outer_criterion(f, state)
    payload = {
        "n": args.n,
        "backend": f.backend,
        "coefficients": [serialize_scalar(c) for c in state.coeffs.coeffs],
        "gammas": [serialize_scalar(g) for g in state.gammas],
        "autocorrelation": [serialize_scalar(r) for r in state.autocorr],
        "outer_partial_products": [serialize_scalar(p) for p in crit.partial_products],
        "outer_target": serialize_scalar(crit.target),
    }
    _write_output(args, _dumps(payload) + "\n")
    return EXIT_OK


def _cmd_first_zero(args) -> int:
    f = _load_function(args)
    value, tail = zeros.first_zero_with_tail(f, args.alpha)
    if value == zeros.NO_FINITE_ZERO:
        payload = {"alpha": args.alpha, "finite": False}
    else:
        payload = {"alpha": args.alpha, "finite": True,
                   "value": serialize_scalar(value),
                   "tail_error_bound": tail}
    _write_output(args, _dumps(payload) + "\n")
    return EXIT_OK


def _cmd_verify(args) -> int:
    results = verify.run_verification(only=args.only,
                                      inject_error=args.inject_error)
    if not results:
        return _emit_error(SpecValidationError(f"no checks match {args.only!r}"),
                           EXIT_VALIDATION, "cli")
    width = max(len(r.name) for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name:<{width}}  expected: {r.expected}  "
                     f"observed: {r.observed}")
    _write_output(args, "\n".join(lines) + "\n")
    return EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


# -- parser --------------------------------------------------------------

def _add_common(sub, with_alpha=True):
    sub.add_argument("--f", required=True,
                     help="function spec as JSON: {\"family\":..., \"params\":{...}}"
                          " or {\"coefficients\": [...]}")
    if with_alpha:
        sub.add_argument("--alpha", type=_alpha, default=0.0)
    sub.add_argument("--backend", choices=("exact", "float"), default="exact")
    sub.add_argument("--output", default=None, help="output path (default stdout)")


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as SpecValidationError, so that
    it ends, like every other input error, in exit 2 with a JSON error."""

    def error(self, message):
        raise SpecValidationError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused: parsing
    leaves it as it was."""
    parser = _Parser(
        prog="optapprox",
        description="Optimal polynomial approximants to 1/f in Dirichlet-type spaces")
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("approximant", help="solve for the degree-n optimal approximant")
    _add_common(s)
    s.add_argument("--n", type=_degree, required=True)
    s.set_defaults(handler=_cmd_approximant)

    s = subs.add_parser("zeros", help="zero-set sweep over a degree range")
    _add_common(s)
    s.add_argument("--n-range", type=_n_range, required=True, help="e.g. 0..50")
    s.add_argument("--format", choices=("json", "csv"), default="csv")
    s.set_defaults(handler=_cmd_zeros)

    s = subs.add_parser("orthopoly", help="weighted orthonormal polynomial basis")
    _add_common(s)
    s.add_argument("--n", type=_degree, required=True)
    s.set_defaults(handler=_cmd_orthopoly)

    s = subs.add_parser("kernel", help="evaluate the reproducing kernel K_n(z, w)")
    _add_common(s)
    s.add_argument("--n", type=_degree, required=True)
    s.add_argument("--z", type=_point, default="0", help="point as 're' or 're,im'")
    s.add_argument("--w", type=_point, default="0")
    s.set_defaults(handler=_cmd_kernel)

    s = subs.add_parser("cyclicity", help="cyclicity diagnostics up to max n")
    _add_common(s)
    s.add_argument("--max-n", type=_degree, required=True, dest="max_n")
    s.add_argument("--format", choices=("json", "csv"), default="json")
    s.set_defaults(handler=_cmd_cyclicity)

    s = subs.add_parser("levinson", help="Hardy-space Levinson recursion (alpha = 0)")
    _add_common(s, with_alpha=False)
    s.add_argument("--n", type=_degree, required=True)
    s.set_defaults(handler=_cmd_levinson)

    s = subs.add_parser("first-zero", help="zero of the first-order approximant")
    _add_common(s)
    s.set_defaults(handler=_cmd_first_zero)

    s = subs.add_parser("verify", help="run the golden verification set")
    s.add_argument("--only", default=None, help="substring filter on check names")
    s.add_argument("--inject-error", action="store_true",
                   help="negative control: flip the first check's outcome")
    s.add_argument("--output", default=None)
    s.set_defaults(handler=_cmd_verify)

    return parser


def _parse_args(argv):
    """The command line, checked as a whole: the exact backend takes an
    integer alpha only."""
    args = build_parser().parse_args(argv)
    if getattr(args, "backend", None) == "exact" and \
            not float(getattr(args, "alpha", 0.0)).is_integer():
        raise SpecValidationError("exact backend requires integer alpha")
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
    except SystemExit:  # after --help
        return EXIT_OK
    except SpecValidationError as exc:
        return _emit_error(exc, EXIT_VALIDATION, "cli")
    try:
        return args.handler(args)
    except SpecValidationError as exc:
        return _emit_error(exc, EXIT_VALIDATION)
    except OptApproxError as exc:
        return _emit_error(exc, EXIT_NUMERICAL)
    except OverflowError as exc:  # a float view of an exact result beyond the float range
        return _emit_error(exc, EXIT_NUMERICAL)
    except ValueError as exc:
        return _emit_error(exc, EXIT_VALIDATION)


if __name__ == "__main__":
    sys.exit(main())
