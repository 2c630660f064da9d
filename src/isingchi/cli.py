"""Command-line front end: one binary, subcommands, deterministic files.

Exit codes: 0 success, 1 verification or computation failure, 2 usage or
configuration errors (one-line diagnostic on stderr).  `run()` returns
every code, argparse's included (0 for --help), and raises none.  A config
file named by --config supplies `key = value` defaults for any long flag;
explicit flags win.  The parser is built once per process, on the first
`run()`; each call parses into a new Namespace.

Each subcommand imports the modules its work needs when it runs: `corr`
and `verify elliptic` load only the standard library, and `chi`, `fib`
and the other `verify` suites add numpy.
"""

import argparse
import errno
import functools
import os
import sys

from .correlations import PrecisionExhausted, build_table
from .fileio import (read_config, write_chi_csv, write_corr_csv,
                     write_peaks_csv, write_pgm, write_verification_csv)

__all__ = ["main", "run"]

GAUGE_WINDOW = 1_000_000

_CONFIG_KEYS = {
    "k": float, "S": float, "version": str, "j": int, "gamma": float,
    "radius": int, "precision": int, "grid": str, "count": int,
    "tol": float, "out": str, "pgm": str, "peaks": str, "signs": bool,
}
_CONFIG_BOOLS = {"1": True, "true": True, "yes": True,
                 "0": False, "false": False, "no": False}


class UsageError(Exception):
    """Bad flags, config, or parameter domain; maps to exit code 2."""


def _parse_grid(text):
    try:
        nx, ny = map(int, text.lower().split("x"))
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


def _failure(args, exc):
    """What follows "error: " for a computation failure; a MemoryError in
    chi or fib and a PrecisionExhausted in corr or chi name a flag to change."""
    if isinstance(exc, MemoryError):
        return ("a %dx%d grid does not fit in memory; pick a smaller --grid"
                % _parse_grid(args.grid) if args.subcommand == "chi" else
                "%d terms do not fit in memory; pick a smaller --count"
                % args.count if args.subcommand == "fib" else "out of memory")
    if not isinstance(exc, PrecisionExhausted) or args.subcommand == "verify":
        return str(exc)
    if args.subcommand == "corr":  # bits is None past the caps
        remedy = "above %d" % exc.bits if exc.bits else "or a smaller --radius"
        return "%s; rerun with --precision %s" % (exc, remedy)
    from .chi import MIN_TAIL_RADIUS

    remedy = ("at which this modulus is out of reach"
              if args.radius <= MIN_TAIL_RADIUS  # no radius chi accepts is less
              else "so rerun with a smaller --radius")
    bits = "%d bits" % exc.bits if exc.bits else "the bits it picks"
    return "%s; chi builds its table at %s, %s" % (exc, bits, remedy)


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
                                       "frustrated", "chi", "seeds", "all"))
    ver.add_argument("--tol", type=float,
                     help="override every per-identity tolerance")
    ver.add_argument("--out", help="also write the report as CSV")
    return parser


_parser = functools.cache(build_parser)


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
    table = build_table(args.k, args.radius, args.precision)
    for n in range(args.radius + 1):  # 17 digits need a normal double
        for name, fam in (("C", table.C), ("Cbar", table.C_bar)):
            if min(fam[n][:n + 1]) < sys.float_info.min:  # C(0..n, n)
                m = next(m for m in range(n + 1)
                         if fam[n][m] < sys.float_info.min)
                raise FloatingPointError(
                    "%s(%d, %d) = %.3g is below the smallest normal double, "
                    "too small for 17 digits; every entry stays normal out to "
                    "--radius %d" % (name, m, n, fam[n][m], n - 1))
    write_corr_csv(args.out, table)
    return 0


def _cmd_chi(args):
    from .chi import MIN_TAIL_RADIUS, chi_grid, find_peaks
    from .frustrated import FrustratedModel
    from .quasiperiodic import FibonacciSpec, autocorrelation, sign_sequence

    if args.source is None:
        raise UsageError("chi needs a source: uniform, frustrated or gauge")
    _require(args, "radius", "grid", "out")
    if args.radius < MIN_TAIL_RADIUS:
        raise UsageError("--radius must be at least %d for chi, got %d: the "
                         "tail estimate fits the outer half of the window"
                         % (MIN_TAIL_RADIUS, args.radius))
    nx, ny = _parse_grid(args.grid)

    if args.source == "frustrated":
        _require(args, "S", "version")
        model = FrustratedModel(S=args.S, version=args.version)
        source = ("frustrated", model, build_table(model.k, args.radius))
    else:  # uniform, or gauge: uniform weighted by a sign sequence's kappa
        gauge = args.source == "gauge"
        _require(args, "k", *(["j"] if gauge else []))
        if not 0 < args.k < 1:
            raise UsageError(
                "susceptibility requires modulus k in (0, 1); k = %g is "
                "outside (k > 1 tables exist only through the duality swap "
                "on `corr`)" % args.k)
        if gauge:  # a bad --gamma is refused before the build, as --k is
            spec = FibonacciSpec(j=args.j, gamma=args.gamma or 0.0)
        source = ("uniform", build_table(args.k, args.radius))
        if gauge:
            source = ("gauge", source[1], autocorrelation(
                sign_sequence(spec, GAUGE_WINDOW), args.radius + 1))

    grid = chi_grid(source, nx, ny, args.radius)  # the tail fit fails first
    write_chi_csv(args.out, grid)
    if args.pgm is not None:
        write_pgm(args.pgm, grid)
    if args.peaks is not None:
        write_peaks_csv(args.peaks, find_peaks(grid))
    return 0


def _cmd_fib(args):
    from .quasiperiodic import FibonacciSpec, fib_bits, sign_sequence

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
    """Run one command line, returning its exit code; one handler per code
    prints the line: 2 for usage, config, domain and file errors, 1 for an
    ArithmeticError (PrecisionExhausted, EstimationError) or MemoryError."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.config is not None:
            _apply_config(args, args.config)
        if args.subcommand is None:
            parser.print_usage(sys.stderr)
            return 2
        named = {}  # real path: the first flag naming it
        for flag in ("out", "pgm", "peaks"):  # refused before any build
            path = getattr(args, flag, None)
            if path and not os.path.isdir(os.path.dirname(path) or "."):
                raise FileNotFoundError(errno.ENOENT,
                                        "No directory for --" + flag, path)
            if path and os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR,
                                        "Is a directory, for --" + flag, path)
            if path and named.setdefault(os.path.realpath(path), flag) != flag:
                raise UsageError("--%s and --%s name one file, %r" % (
                    named[os.path.realpath(path)], flag, path))
        commands = {"corr": _cmd_corr, "chi": _cmd_chi, "fib": _cmd_fib}
        return commands.get(args.subcommand, _cmd_verify)(args)
    except SystemExit as exc:  # --help, or a usage error argparse printed
        return exc.code
    except (UsageError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (ArithmeticError, MemoryError) as exc:
        print("error: %s" % _failure(args, exc), file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
