"""Command-line front end: one binary, subcommands, deterministic files.

Exit codes: 0 success, 1 verification or computation failure, 2 usage or
configuration errors (one-line diagnostic on stderr).  A config file
named by --config supplies `key = value` defaults for any long flag;
explicit flags win.
"""

import argparse
import sys

from .correlations import (DEFAULT_PRECISION_BITS, PrecisionExhausted,
                           build_table)
from .fileio import (read_config, write_chi_csv, write_corr_csv,
                     write_peaks_csv, write_pgm, write_verification_csv)
from .frustrated import FrustratedModel, dual_pair
from .quasiperiodic import FibonacciSpec, autocorrelation, fib_bits, sign_sequence

__all__ = ["main", "run"]

GAUGE_WINDOW = 1_000_000

_CONFIG_KEYS = {
    "k": float, "S": float, "version": str, "j": int, "gamma": float,
    "radius": int, "precision": int, "grid": str, "count": int,
    "tol": float, "out": str, "pgm": str, "peaks": str, "signs": bool,
}
_CONFIG_BOOLS = {"1": True, "true": True, "yes": True,
                 "0": False, "false": False, "no": False}


# what the user can change when a table runs out of working precision
_PRECISION_ADVICE = {
    "corr": "; rerun with --precision above %d",
    "chi": "; chi builds its table at the default %d bits, so rerun with a "
           "smaller --radius",
}


class UsageError(Exception):
    """Bad flags, config, or parameter domain; maps to exit code 2."""


def _parse_grid(text):
    parts = text.lower().split("x")
    if len(parts) != 2:
        raise UsageError("grid must look like 64x64, got %r" % text)
    try:
        nx, ny = int(parts[0]), int(parts[1])
    except ValueError:
        raise UsageError("grid must look like 64x64, got %r" % text)
    if nx < 2 or ny < 2:
        raise UsageError("grid dimensions must be at least 2, got %s" % text)
    return nx, ny


def _require(args, *names):
    for name in names:
        if getattr(args, name, None) is None:
            raise UsageError("missing required option --%s "
                             "(flag or config file)" % name)


def _check_chi_modulus(k):
    if not 0 < k < 1:
        raise UsageError(
            "susceptibility requires modulus k in (0, 1); k = %g is outside "
            "(k > 1 tables exist only through the duality swap on `corr`)" % k)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="isingchi",
        description="Exact Ising pair correlations and wavevector-dependent "
                    "susceptibility tables.")
    parser.add_argument("--config", metavar="PATH",
                        help="key = value file supplying flag defaults")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    corr = sub.add_parser("corr", help="export a pair-correlation table")
    corr.add_argument("--k", type=float)
    corr.add_argument("--radius", type=int)
    corr.add_argument("--precision", type=int, help="working precision in bits")
    corr.add_argument("--out")

    chi = sub.add_parser("chi", help="sample chi(q) over a Brillouin-zone grid")
    chi_sub = chi.add_subparsers(dest="source", metavar="SOURCE")
    for name in ("uniform", "frustrated", "gauge"):
        p = chi_sub.add_parser(name)
        if name == "frustrated":
            p.add_argument("--S", type=float)
            p.add_argument("--version", choices=("a", "b"))
        else:
            p.add_argument("--k", type=float)
        if name == "gauge":
            p.add_argument("--j", type=int)
            p.add_argument("--gamma", type=float)
        p.add_argument("--radius", type=int)
        p.add_argument("--grid")
        p.add_argument("--out")
        p.add_argument("--pgm")
        p.add_argument("--peaks")

    fib = sub.add_parser("fib", help="dump a quasiperiodic sequence")
    fib.add_argument("--j", type=int)
    fib.add_argument("--gamma", type=float)
    fib.add_argument("--count", type=int)
    fib.add_argument("--signs", action="store_true", default=None,
                     help="emit mapped signs instead of bits")

    ver = sub.add_parser("verify", help="run a self-verification suite")
    ver.add_argument("suite", choices=("elliptic", "couplings", "recurrence",
                                       "frustrated", "chi", "all"))
    ver.add_argument("--tol", type=float,
                     help="override every per-identity tolerance")
    ver.add_argument("--out", help="also write the report as CSV")
    return parser


def _apply_config(args, path):
    values = read_config(path)
    for key, raw in values.items():
        if key not in _CONFIG_KEYS:
            raise UsageError("config: unknown key %r" % key)
        if getattr(args, key, None) is not None or not hasattr(args, key):
            continue
        caster = _CONFIG_KEYS[key]
        try:
            value = (_CONFIG_BOOLS[raw.lower()] if caster is bool
                     else caster(raw))
        except (KeyError, ValueError):
            raise UsageError("config: bad value %r for key %r" % (raw, key))
        setattr(args, key, value)


def _cmd_corr(args):
    _require(args, "k", "radius", "out")
    kwargs = {}
    if args.precision is not None:
        kwargs["precision_bits"] = args.precision
    table = build_table(args.k, args.radius, **kwargs)
    write_corr_csv(args.out, table)
    return 0


def _cmd_chi(args):
    from .chi import chi_grid, find_peaks

    if args.source is None:
        raise UsageError("chi needs a source: uniform, frustrated or gauge")
    _require(args, "radius", "grid", "out")
    nx, ny = _parse_grid(args.grid)

    if args.source == "uniform":
        _require(args, "k")
        _check_chi_modulus(args.k)
        table = build_table(args.k, args.radius)
        source = ("uniform", table)
    elif args.source == "frustrated":
        _require(args, "S", "version")
        model = FrustratedModel(S=args.S, version=args.version)
        table = build_table(dual_pair(args.S).k, args.radius)
        source = ("frustrated", model, table)
    else:
        _require(args, "k", "j")
        _check_chi_modulus(args.k)
        spec = FibonacciSpec(j=args.j, gamma=args.gamma or 0.0)
        table = build_table(args.k, args.radius)
        kappa = autocorrelation(sign_sequence(spec, GAUGE_WINDOW),
                                args.radius + 1)
        source = ("gauge", table, kappa)

    grid = chi_grid(source, nx, ny, args.radius)
    write_chi_csv(args.out, grid)
    if args.pgm is not None:
        write_pgm(args.pgm, grid)
    if args.peaks is not None:
        write_peaks_csv(args.peaks, find_peaks(grid))
    return 0


def _cmd_fib(args):
    _require(args, "j", "count")
    if args.count <= 0:
        raise UsageError("count must be positive")
    spec = FibonacciSpec(j=args.j, gamma=args.gamma or 0.0)
    values = (sign_sequence(spec, args.count) if args.signs
              else fib_bits(spec, args.count))
    print("\n".join(str(int(v)) for v in values))
    return 0


def _cmd_verify(args):
    from .verify import run_suite

    report = run_suite(args.suite, args.tol)
    for line in report.lines():
        print(line)
    if args.out is not None:
        write_verification_csv(args.out, report)
    return 0 if report.passed else 1


def run(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config is not None:
            _apply_config(args, args.config)
        if args.subcommand is None:
            parser.print_usage(sys.stderr)
            return 2
        if args.subcommand == "corr":
            return _cmd_corr(args)
        if args.subcommand == "chi":
            return _cmd_chi(args)
        if args.subcommand == "fib":
            return _cmd_fib(args)
        return _cmd_verify(args)
    except (UsageError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except PrecisionExhausted as exc:
        advice = _PRECISION_ADVICE.get(args.subcommand)
        bits = getattr(args, "precision", None) or DEFAULT_PRECISION_BITS
        print("error: %s%s" % (exc, advice % bits if advice else ""),
              file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
