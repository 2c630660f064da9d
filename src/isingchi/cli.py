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

from .correlations import PrecisionExhausted, _plan, build_table
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


def _precision_advice(args, where):
    """What the user can change when a table runs out of working precision."""
    if args.subcommand == "corr":  # where is None for a pick past the caps
        return ("; rerun with --precision or a smaller --radius" if where is None
                else "; rerun with --precision above %d" % args.precision)
    if args.subcommand != "chi":
        return ""
    from .chi import MIN_TAIL_RADIUS

    # every radius chi accepts builds the entries out to MIN_TAIL_RADIUS
    near = where is not None and max(where) <= MIN_TAIL_RADIUS
    remedy = ("at which this modulus is out of reach"
              if args.radius <= MIN_TAIL_RADIUS or near
              else "so rerun with a smaller --radius")
    bits = "the bits it picks" if where is None else "%d bits" % args.precision
    return "; chi builds its table at %s, %s" % (bits, remedy)


def _build(args, k):
    """build_table(k, --radius, corr's --precision), keeping its bits on args."""
    bits = getattr(args, "precision", None)
    args.precision = _plan(k, args.radius, bits).precision
    return build_table(k, args.radius, bits)


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
    write_corr_csv(args.out, _build(args, args.k))
    return 0


def _cmd_chi(args):
    from .chi import MIN_TAIL_RADIUS, EstimationError, chi_grid, find_peaks
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
        source = ("frustrated", model, _build(args, model.k))
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
        source = ("uniform", _build(args, args.k))
        if gauge:
            source = ("gauge", source[1], autocorrelation(
                sign_sequence(spec, GAUGE_WINDOW), args.radius + 1))

    try:
        grid = chi_grid(source, nx, ny, args.radius)
        write_chi_csv(args.out, grid)
        if args.pgm is not None:
            write_pgm(args.pgm, grid)
        if args.peaks is not None:
            write_peaks_csv(args.peaks, find_peaks(grid))
    except MemoryError:
        print("error: a %dx%d grid does not fit in memory; pick a smaller "
              "--grid" % (nx, ny), file=sys.stderr)
        return 1
    except EstimationError as exc:  # before any file is written
        print("error: %s" % exc, file=sys.stderr)
        return 1
    return 0


def _cmd_fib(args):
    from .quasiperiodic import FibonacciSpec, fib_bits, sign_sequence

    _require(args, "j", "count")
    if args.count <= 0:
        raise UsageError("count must be positive")
    spec = FibonacciSpec(j=args.j, gamma=args.gamma or 0.0)
    try:
        values = (sign_sequence(spec, args.count) if args.signs
                  else fib_bits(spec, args.count))
        print("\n".join(str(int(v)) for v in values))
    except MemoryError:
        print("error: %d terms do not fit in memory; pick a smaller --count"
              % args.count, file=sys.stderr)
        return 1
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
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error argparse printed
        return exc.code
    try:
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
    except (UsageError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except PrecisionExhausted as exc:
        print("error: %s%s" % (exc, _precision_advice(args, exc.where)),
              file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
