"""Command-line surface.

Subcommands: approximant, zeros, orthopoly, kernel, cyclicity, levinson,
first-zero, verify.  Functions are described by a JSON FunctionSpec
({"family": ..., "params": {...}} or {"coefficients": [...]}).  Output is
JSON, or CSV for the tables of zeros and cyclicity (``--format``);
rationals serialize as "p/q" strings in the exact backend so golden
comparisons are byte-stable.

Each command returns what it prints; ``main`` loads f, writes the output
once, to stdout or ``--output``, and ends every error in its exit code:
0 success, 2 validation error, 3 numerical breakdown, 4 verification
failure.  Errors are emitted as machine-readable JSON on stderr.
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

import numpy as np

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
    indent of the line obj starts on.  A 1-D complex128 array is written
    as the list of its serialize_scalar forms, without building it."""
    if type(obj) is float:
        return _float_text(obj)
    if isinstance(obj, str):
        return _quote(obj)
    inner = nl + "  "
    if isinstance(obj, np.ndarray):
        if not np.isfinite(obj).all():   # NaN and Infinity: the scalar path
            return _dumps([serialize_scalar(c) for c in obj], nl)
        if not obj.size:
            return "[]"
        items = list(map(float.__repr__, obj.real.tolist()))
        im = obj.imag.tolist()
        re_key, im_key = f'{{{inner}  "re": ', f',{inner}  "im": '
        for k in np.flatnonzero(obj.imag).tolist():   # -0.0 is real, as in serialize_scalar
            items[k] = f"{re_key}{items[k]}{im_key}{float.__repr__(im[k])}{inner}}}"
        return "[" + inner + ("," + inner).join(items) + nl + "]"
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


def _emit_error(exc: Exception, code: int) -> int:
    payload = {
        "error": type(exc).__name__,
        "module": _raising_module(exc),
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
    parts = [float(x) for x in text.split(",")]
    if len(parts) > 2 or not all(map(math.isfinite, parts)):
        raise argparse.ArgumentTypeError(f"point {text!r} is not 're' or 're,im', both finite")
    return complex(*parts)


def _load_function(args) -> Series:
    """f from --f, in --backend; the exact backend takes an integer alpha only."""
    if args.backend == "exact" and not getattr(args, "alpha", 0.0).is_integer():
        raise SpecValidationError("exact backend requires integer alpha")
    try:
        obj = json.loads(args.f)
    except json.JSONDecodeError as exc:
        raise SpecValidationError(f"--f is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise SpecValidationError("--f is nested too deeply to parse") from exc
    spec = families.spec_from_json(obj, backend=args.backend)
    return families.realize(spec)


def _scalars(values, backend: str) -> list | np.ndarray:
    """Scalars of ``backend`` in the form _dumps writes: float ones as one
    complex128 array (serialize_scalar reads a float through complex()
    too), exact ones serialized one by one."""
    if backend == "float":
        return np.asarray(values, dtype=np.complex128)
    return [serialize_scalar(c) for c in values]


def _zero_rows(zero_set):
    return [{"re": z.real, "im": z.imag, "modulus": abs(z)} for z in zero_set.roots]


# -- subcommand handlers ------------------------------------------------
# A handler of a command with --f takes the loaded f and the arguments and
# returns what the command prints: a payload for _dumps, or CSV text.

def _cmd_approximant(f, args):
    res = approximant.optimal(f, args.n, args.alpha)
    return {
        "alpha": args.alpha,
        "n": args.n,
        "backend": f.backend,
        "coefficients": _scalars(res.p.coeffs, f.backend),
        "p0": serialize_scalar(res.p_at_zero),
        "distance_sq": serialize_scalar(res.distance_sq),
        "zeros": _zero_rows(zeros.poly_roots(res.p)),
        "tail_error_bound": res.tail_error_bound,
    }


def _cmd_zeros(f, args):
    ns = args.n_range
    sweep = approximant.optimal_sweep(f, ns[-1], args.alpha)
    zero_sets = zeros.poly_roots_batch([sweep[n].p for n in ns])
    if args.format == "csv":
        # the lines csv.writer writes: no field needs quoting
        lines = ["n,root_index,re,im,modulus\r\n"]
        lines += [f"{n},{idx},{z.real!r},{z.imag!r},{abs(z)!r}\r\n"
                  for n, zs in zip(ns, zero_sets) for idx, z in enumerate(zs.roots)]
        return "".join(lines)
    return [{"n": n, "root_index": idx, **z}
            for n, zs in zip(ns, zero_sets) for idx, z in enumerate(_zero_rows(zs))]


def _cmd_orthopoly(f, args):
    bas = orthopoly.basis(f, args.n, args.alpha)
    return {
        "alpha": args.alpha,
        "n": args.n,
        "backend": f.backend,
        "monic": [_scalars(psi.coeffs, f.backend) for psi in bas.monic],
        "norms_sq": _scalars(bas.norms_sq, f.backend),
        "leading_coefficients": list(bas.leading_coefficients()),
        "phis": [phi.coeffs for phi in bas.phis],
    }


def _cmd_kernel(f, args):
    z, w = args.z, args.w
    bas = orthopoly.basis(f.to_float(), args.n, args.alpha)
    ev = kernels.kernel_eval_from_basis(bas, z, w)
    return {
        "alpha": args.alpha,
        "n": args.n,
        "z": {"re": z.real, "im": z.imag},
        "w": {"re": w.real, "im": w.imag},
        "value": serialize_scalar(ev.value),
        "extremal_value_at_zero": kernels.extremal_value(bas),
    }


def _cmd_cyclicity(f, args):
    rep = kernels.cyclicity_report(f, args.alpha, args.max_n)
    rows = [(n, serialize_scalar(rep.pn_at_zero[n]),
             serialize_scalar(rep.partial_sums[n]),
             serialize_scalar(rep.distances[n]))
            for n in range(rep.max_n + 1)]
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["n", "p0", "partial_sum", "distance_sq"])
        w.writerows([n, *map(json.dumps, values)] for n, *values in rows)
        buf.write(f"# target={json.dumps(serialize_scalar(rep.target))} "
                  f"verdict={rep.verdict_trend}\n")
        return buf.getvalue()
    return {
        "max_n": rep.max_n,
        "target": serialize_scalar(rep.target),
        "verdict_trend": rep.verdict_trend,
        "rows": [{"n": r[0], "p0": r[1], "partial_sum": r[2],
                  "distance_sq": r[3]} for r in rows],
    }


def _cmd_levinson(f, args):
    state = levinson.levinson_solve(f, args.n)
    crit = levinson.outer_criterion(f, state)
    return {
        "n": args.n,
        "backend": f.backend,
        "coefficients": _scalars(state.coeffs.coeffs, f.backend),
        "gammas": _scalars(state.gammas, f.backend),
        "autocorrelation": _scalars(state.autocorr, f.backend),
        "outer_partial_products": _scalars(crit.partial_products, f.backend),
        "outer_target": serialize_scalar(crit.target),
    }


def _cmd_first_zero(f, args):
    value, tail = zeros.first_zero_with_tail(f, args.alpha)
    if value == zeros.NO_FINITE_ZERO:
        return {"alpha": args.alpha, "finite": False}
    return {"alpha": args.alpha, "finite": True,
            "value": serialize_scalar(value),
            "tail_error_bound": tail}


def _cmd_verify(args) -> tuple[str, int]:
    """The verification table and the exit code: 4 when a check fails."""
    results = verify.run_verification(only=args.only,
                                      inject_error=args.inject_error)
    if not results:
        raise SpecValidationError(f"no checks match {args.only!r}")
    width = max(len(r.name) for r in results)
    table = "".join(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<{width}}  "
                    f"expected: {r.expected}  observed: {r.observed}\n" for r in results)
    return table, EXIT_OK if all(r.passed for r in results) else EXIT_VERIFY


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


def main(argv=None) -> int:
    """Run one command: load f for a command that takes --f, write what the
    command returns once, to stdout or --output, and end every error in its
    exit code and one JSON line on stderr."""
    try:
        args = build_parser().parse_args(argv)
        if hasattr(args, "f"):
            out, code = args.handler(_load_function(args), args), EXIT_OK
        else:
            out, code = args.handler(args)
        text = out if isinstance(out, str) else _dumps(out) + "\n"
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except SystemExit:  # after --help
        return EXIT_OK
    except SpecValidationError as exc:
        return _emit_error(exc, EXIT_VALIDATION)
    # OverflowError: a float view of an exact result beyond the float range;
    # numpy's MemoryError says how much the problem needed
    except (OptApproxError, OverflowError, MemoryError) as exc:
        return _emit_error(exc, EXIT_NUMERICAL)
    except (ValueError, OSError) as exc:  # OSError: the output cannot be opened or written
        return _emit_error(exc, EXIT_VALIDATION)


if __name__ == "__main__":
    sys.exit(main())
