"""Self-verification suites behind the `verify` CLI subcommand.

This module judges: each suite compares a computation with an
independent reference, names its rows and sets their tolerances.  The
recurrence and frustrated suites check build_table and ff_correlation
against isingchi.oracle, which only computes; the seeds suite checks the
build's diagonal seeds against the Levinson minors kept here; the others
are seeded property checks against a hypergeometric series and exact
identities.  Each suite imports what it alone uses when it runs: the
oracle (and so numpy) for recurrence and frustrated, numpy for couplings,
and numpy and isingchi.chi for chi.  The module and the elliptic and
seeds suites need only the standard library.
"""

import math
import random
from collections import namedtuple
from itertools import count
from operator import mul

from .correlations import (PrecisionExhausted, _fixed, _identity_residuals,
                           _plan, _symbol_coefficients, build_table,
                           diagonal_seeds, lookup)
from .couplings import coupling_pair, quarter_period
from .elliptic import agm, complete_elliptic_K
from .frustrated import (_CLASSES, FrustratedModel, ff_correlation,
                         separation_class)

__all__ = ["IdentityCheck", "SUITES", "VerificationReport", "run_suite"]

_SEED = 20240917
# legendre-pi's widths: 1,500 bits and any suite's widest agm, the seeds'
_LEGENDRE_BITS = (1500, _plan(0.0718, 24, 256).symbol)


class IdentityCheck(namedtuple(
        "IdentityCheck", "identity location residual tolerance passed")):
    __slots__ = ()


class VerificationReport(namedtuple("VerificationReport", "rows")):
    __slots__ = ()

    @property
    def passed(self):
        return all(r.passed for r in self.rows)

    def lines(self):
        out = ["%-24s %-14s residual %.3e  tol %.1e  %s"
               % (r.identity, r.location, r.residual, r.tolerance,
                  "pass" if r.passed else "FAIL") for r in self.rows]
        out.append("overall: %s" % ("pass" if self.passed else "FAIL"))
        return out


def _worst(name, residuals, tol):
    """Aggregate {location: residual} into one report row."""
    loc, res = max(residuals.items(), key=lambda kv: abs(kv[1]))
    res = abs(res)
    return IdentityCheck(name, loc, res, tol, res <= tol)


def _tol(tolerance, default):
    """The suite-wide override if one was given, else the row's default."""
    return default if tolerance is None else tolerance


def _hypergeometric_K(m):
    """K(m) = pi/2 2F1(1/2, 1/2; 1; m^2): the series summed on integers x
    2^100, times floor(pi 2^96), rounded once; it shares nothing with agm."""
    num, den = float(m).as_integer_ratio()
    term = total = 1 << 100
    n = 0
    while term:  # term_n = term_{n-1} ((2n - 1) / (2n))^2 m^2
        n += 1
        term = term * ((2 * n - 1) * num) ** 2 // (2 * n * den) ** 2
        total += term
    return 0x3243F6A8885A308D313198A2E * total / (1 << 96 + 100 + 1)


def _machin_pi(bits):
    """pi 2^bits by Machin's pi = 16 acot 5 - 4 acot 239, summed on integers
    32 bits deeper; it shares nothing with agm."""
    one = 1 << bits + 32

    def acot(x):  # sum over odd n of (-1)^((n - 1)/2) / (n x^n)
        power, total, n = one // x, 0, 1
        while power:
            total += power // n if n % 4 == 1 else -(power // n)
            power, n = power // (x * x), n + 2
        return total
    return 16 * acot(5) - 4 * acot(239) >> 32


def _toeplitz_minors(t, bits):
    """Yield (det T_n, e_f, e_b) for n = 1, 2, ... until the caller stops.

    T_n = [t(i - j)]; t(j), the minors, e_f and e_b are integers x 2^bits.
    Nonsymmetric Levinson recursion: f and b are the first and last columns
    of T_n^-1, e_f = sum_i t(n - i) f_i, e_b = sum_i t(-1 - i) b_i and det
    T_{n+1} = det T_n (1 - e_f e_b) / f_0, each rounded once.  The next b's
    top entry, -e_b f_0 / (1 - e_f e_b), is the (n, 0) cofactor of T_{n+1}
    over its det, so (-1)^n det[t(i - j - 1)]_n = -e_b det T_n.
    A vanishing minor raises PrecisionExhausted before anything divides.
    """
    def nonzero(det, n):
        if not det:
            raise PrecisionExhausted("Toeplitz minor of order %d vanishes; "
                                     "raise precision_bits" % n, where=(n, n))
        return det

    one, det = 1 << bits, nonzero(t(0), 1)
    f = b = [(one << bits) // det]
    for n in count(1):
        e_f = sum(map(mul, map(t, range(n, 0, -1)), f)) >> bits
        e_b = sum(map(mul, map(t, range(-1, -n - 1, -1)), b)) >> bits
        yield det, e_f, e_b
        scale = one - (e_f * e_b >> bits)
        det = nonzero(det * scale // f[0], n + 1)
        f_ext, b_ext = f + [0], [0] + b
        f = [((x << bits) - e_f * y) // scale for x, y in zip(f_ext, b_ext)]
        b = [((y << bits) - e_b * x) // scale for x, y in zip(f_ext, b_ext)]


def _suite_elliptic(tolerance):
    rng = random.Random(_SEED)
    res = {"m=%.6f" % m: complete_elliptic_K(m) - _hypergeometric_K(m)
           for m in (rng.uniform(0.01, 0.98) for _ in range(20))}
    zero = {"m=0": complete_elliptic_K(0.0) - math.pi / 2}
    rows = [_worst("K-at-zero", zero, _tol(tolerance, 1e-15)),
            _worst("K-vs-hypergeometric", res, _tol(tolerance, 1e-12))]
    # Legendre's relation in AGM form, pi = 2 M M' / (1 - S - S'), from agm
    # at k and at k' = sqrt(1 - k^2), against Machin's pi: the residual is
    # the bit length of the gap in units of 2^-bits (no float holds 2^-1500),
    # so the tolerance of 16 is a gap below 2^(16 - bits), and an override
    # allows a gap of tolerance, bits + log2 tolerance bits long
    for bits in _LEGENDRE_BITS:
        if tolerance is None:
            tol = 16.0
        else:
            tol = max(bits + math.log2(tolerance), 0.0) if tolerance else 0.0
        one, pi, gaps = 1 << bits, _machin_pi(bits), {}
        for k in (0.5, 0.1, 0.9, 0.0718, 0.99):
            kf = _fixed(k.as_integer_ratio(), bits)
            kc = math.isqrt(one * one - kf * kf)  # k' x 2^bits
            (m, s), (mc, sc) = agm(kf, bits), agm(kc, bits)
            gap = 2 * m * mc // (one - s - sc) - pi
            gaps["k=%g b=%d" % (k, bits)] = float(abs(gap).bit_length())
        rows.append(_worst("legendre-pi", gaps, tol))
    return VerificationReport(rows=tuple(rows))


def _suite_couplings(tolerance):
    import numpy as np
    rng = np.random.default_rng(_SEED + 1)
    prod_res, flip_res = {}, {}
    for _ in range(1000):
        k = rng.uniform(0.05, 0.95)
        span = quarter_period(k)
        u1 = rng.uniform(-2.0, 2.0)
        d = (u1 + rng.uniform(0.02, 0.98) * span) - u1
        K, K_bar = coupling_pair(d, k)
        loc = "k=%.4f d=%.4f" % (k, d)
        prod_res[loc] = math.sinh(2 * K) * math.sinh(2 * K_bar) - k
        # reversing one of the two lines takes d to K(k') - d
        flip_K, flip_K_bar = coupling_pair(span - d, k)
        flip_res[loc] = max(abs(flip_K - K_bar), abs(flip_K_bar - K))
    return VerificationReport(rows=(
        _worst("product-rule", prod_res, _tol(tolerance, 1e-12)),
        _worst("orientation-flip", flip_res, _tol(tolerance, 1e-12)),
    ))


def _suite_chi(tolerance):
    import numpy as np
    from .chi import chi_column_gauge, chi_grid, chi_uniform
    rng = np.random.default_rng(_SEED + 2)
    table = build_table(0.5, 30)
    grid = chi_grid(("uniform", table), 64, 64, 30)
    v = grid.values

    rows = [_worst("sum-rule",
                   {"64x64 R=30": float(v.mean()) - lookup(table, 0, 0)},
                   _tol(tolerance, 1e-3))]

    flip = (-np.arange(64)) % 64
    even = max(np.abs(v - v[flip, :]).max(), np.abs(v - v[:, flip]).max())
    rows.append(_worst("evenness", {"64x64": float(even)},
                       _tol(tolerance, 1e-12)))

    period_res, shift_res = {}, {}
    alternating = (-1.0) ** np.arange(31)
    for _ in range(10):
        q = tuple(rng.uniform(-math.pi, math.pi, 2))
        loc = "q=(%.3f %.3f)" % q
        base = chi_uniform(table, q, 30)
        period_res[loc] = max(
            abs(chi_uniform(table, (q[0] + 2 * math.pi, q[1]), 30) - base),
            abs(chi_uniform(table, (q[0], q[1] - 2 * math.pi), 30) - base))
        shift_res[loc] = (chi_column_gauge(table, alternating, q, 30)
                          - chi_uniform(table, (q[0], q[1] + math.pi), 30))
    rows.append(_worst("periodicity", period_res, _tol(tolerance, 1e-12)))
    rows.append(_worst("gauge-shift", shift_res, _tol(tolerance, 1e-12)))

    floor = -grid.tail_bound
    rows.append(_worst("min-floor",
                       {"64x64 R=30": max(0.0, floor - float(v.min()))},
                       _tol(tolerance, 1e-10)))
    return VerificationReport(rows=tuple(rows))


def _identity_rows(C, C_bar, k, radius, tol):
    """Rows for the four pair identities on quadrant dicts C and C_bar."""
    c, cb = ([[v[i, j] for j in range(radius + 2)] for i in range(radius + 2)]
             for v in (C, C_bar))
    names = ("quad-recurrence-y", "quad-recurrence-x", "corner-determinant",
             "neighbour-star")
    residuals = {name: {} for name in names}
    for m in range(radius + 1):
        for n in range(radius + 1):
            for name, r in _identity_residuals((k, 1.0), k ** 0.5, 1.0, c, cb,
                                               m, n).items():
                residuals[name]["(%d %d)" % (m, n)] = r
    return [_worst(name, residuals[name], tol) for name in names]


def _table_rows(k, radius, C, C_bar, tolerance):
    """Worst |build_table - oracle| per family, m, n <= radius + 1: C to
    1e-7, C_bar (the oracle's slower, two-orientation limit) to 1e-6."""
    table = build_table(k, radius + 1)
    return [_worst("table-vs-oracle-" + label,
                   {"(%d %d)" % mn: lookup(table, *mn, label) - value
                    for mn, value in slow.items()},
                   _tol(tolerance, default))
            for label, slow, default in (("C", C, 1e-7), ("Cbar", C_bar, 1e-6))]


def _suite_recurrence(tolerance):
    """Identities on the k = 0.5 oracle tables; build_table against them."""
    from .oracle import oracle_pair_correlations

    C, C_bar = oracle_pair_correlations(0.5, 4)
    return VerificationReport(rows=tuple(
        _identity_rows(C, C_bar, 0.5, 4, _tol(tolerance, 1e-6))
        + _table_rows(0.5, 4, C, C_bar, tolerance)))


def _suite_frustrated(tolerance):
    """Assembly and gauge-map rows of both layouts at S = 1, version a first.

    Each assembly row is the worst gap between ff_correlation and the
    mixed-sign oracle over one separation class, |dx|, |dy| <= 3; the
    gauge-map row is the oracle's own fixed-width certificate.  Both
    layouts read one set of cylinders, built for this call only.
    """
    from .oracle import frustrated_pair_correlations

    tol, gauge_tol = _tol(tolerance, 1e-6), _tol(tolerance, 1e-10)
    S = 1.0
    limits, gauge_map = frustrated_pair_correlations(S, 3)
    table = build_table(FrustratedModel(S=S, version="a").k, 3, 128)
    gauge = {"(%d %d)p%d" % (dx, dy, p): r
             for (p, dx, dy), r in gauge_map.items()}
    rows = []
    for version, oracle in limits.items():
        model = FrustratedModel(S=S, version=version)
        classes = {name: {} for name in _CLASSES}
        for (p, dx, dy), value in oracle.items():
            assembled = ff_correlation(model, table, dx, dy, base_parity=p)
            classes[separation_class(dx, dy)]["(%d %d)p%d" % (dx, dy, p)] = (
                value - assembled)
        rows += [_worst("assembly-%s-%s" % (name, version), classes[name], tol)
                 for name in _CLASSES]
        rows.append(_worst("gauge-map-" + version, gauge, gauge_tol))
    return VerificationReport(rows=tuple(rows))


def _suite_seeds(tolerance):
    """diagonal_seeds as build_table calls it at 256 bits against the
    Levinson minors of the full symbol series at the same bits, C_bar(n,n) =
    det T_n and C(n,n) = -e_b det T_n: the worst relative gap of each family,
    to the deeper-build test's bound 2^-(precision_bits + 40)."""
    bits, gaps = 256, {"C": {}, "Cbar": {}}
    for k, radius in ((0.0718, 24), (0.5, 16)):
        plan = _plan(k, radius, bits)
        c, cbar, _ = diagonal_seeds(plan)
        coeff, ref_bits = _symbol_coefficients(plan.k, radius + 1,
                                               plan.symbol, plan.seeds)
        minors = _toeplitz_minors(coeff.__getitem__, ref_bits)
        for n, (det, _, e_b) in zip(range(1, radius + 2), minors):
            loc, ref = "k=%g (%d %d)" % (k, n, n), -e_b * det >> ref_bits
            gaps["Cbar"][loc] = (cbar[n] - det) / det
            gaps["C"][loc] = (c[n] - ref) / ref
    return VerificationReport(rows=tuple(
        _worst("seeds-vs-toeplitz-" + name, gaps[name],
               _tol(tolerance, 2.0 ** -(bits + 40))) for name in ("C", "Cbar")))


SUITES = {
    "elliptic": _suite_elliptic,
    "couplings": _suite_couplings,
    "recurrence": _suite_recurrence,
    "frustrated": _suite_frustrated,
    "chi": _suite_chi,
    "seeds": _suite_seeds,
}


def run_suite(name, tolerance=None):
    """Run one suite (or "all") and return its VerificationReport.

    tolerance, when given, overrides every per-identity default; nan
    would fail every row and inf pass any, so it must be finite and >= 0.
    """
    if tolerance is not None and not 0 <= tolerance < math.inf:
        raise ValueError("tolerance must be finite and >= 0, got %r" % tolerance)
    if name == "all":
        return VerificationReport(rows=tuple(
            r for key in SUITES for r in run_suite(key, tolerance).rows))
    if name not in SUITES:
        raise KeyError("unknown verification suite %r" % (name,))
    return SUITES[name](tolerance)
