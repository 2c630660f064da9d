"""Self-verification suites behind the `verify` CLI subcommand.

Each suite returns a VerificationReport.  The elliptic, coupling and
susceptibility suites are seeded property checks against independent
references (quadrature, algebraic identities, exact shift relations);
the recurrence and frustrated suites delegate to the brute-force
transfer-matrix comparisons in the oracle module.
"""

import math
from dataclasses import replace

import mpmath
import numpy as np

from .chi import chi_column_gauge, chi_grid, chi_uniform
from .correlations import build_table, lookup
from .couplings import RapidityLine, coupling_pair, orientation_flip
from .elliptic import complete_elliptic_K, jacobi_elliptic, make_modulus
from .oracle import VerificationReport, _frustrated_rows, _worst, verify_identities

__all__ = ["SUITES", "run_suite"]

_SEED = 20240917


def _tol(tolerance, default):
    """The suite-wide override if one was given, else the row's default."""
    return default if tolerance is None else tolerance


def _suite_elliptic(tolerance):
    rng = np.random.default_rng(_SEED)
    rows = [_worst("K-at-zero",
                   {"m=0": float(complete_elliptic_K(0.0)) - math.pi / 2},
                   _tol(tolerance, 1e-15))]

    res = {}
    ctx = mpmath.MPContext()  # its own 80 bits; the global mp is untouched
    ctx.prec = 80
    for m in rng.uniform(0.01, 0.98, 20):
        ref = ctx.quad(lambda t: 1 / ctx.sqrt(1 - (m * ctx.sin(t)) ** 2),
                       [0, ctx.pi / 2])
        res["m=%.6f" % m] = float(complete_elliptic_K(m)) - float(ref)
    rows.append(_worst("K-vs-quadrature", res, _tol(tolerance, 1e-12)))

    sn_res, dn_res = {}, {}
    for _ in range(1000):
        k = rng.uniform(0.01, 0.99)
        u = rng.uniform(-3.0, 3.0)
        sn, cn, dn = (float(v) for v in jacobi_elliptic(u, k))
        loc = "u=%.4f k=%.4f" % (u, k)
        sn_res[loc] = sn * sn + cn * cn - 1.0
        dn_res[loc] = dn * dn + k * k * sn * sn - 1.0
    rows.append(_worst("sn-cn-identity", sn_res, _tol(tolerance, 1e-12)))
    rows.append(_worst("dn-identity", dn_res, _tol(tolerance, 1e-12)))
    return VerificationReport(rows=tuple(rows))


def _suite_couplings(tolerance):
    rng = np.random.default_rng(_SEED + 1)
    prod_res, flip_res = {}, {}
    for _ in range(1000):
        k = rng.uniform(0.05, 0.95)
        mod = make_modulus(k)
        span = float(mod.big_K_prime)
        u1 = rng.uniform(-2.0, 2.0)
        u2 = u1 + rng.uniform(0.02, 0.98) * span
        pair = coupling_pair(u2, u1, mod)
        loc = "k=%.4f d=%.4f" % (k, u2 - u1)
        prod_res[loc] = float(math.sinh(2 * float(pair.K))
                              * math.sinh(2 * float(pair.K_bar)) - k)
        line = RapidityLine(id=0, u=u2)
        flipped = coupling_pair(orientation_flip(line), u1, mod)
        flip_res[loc] = max(abs(float(flipped.K) - float(pair.K_bar)),
                            abs(float(flipped.K_bar) - float(pair.K)))
    return VerificationReport(rows=(
        _worst("product-rule", prod_res, _tol(tolerance, 1e-12)),
        _worst("orientation-flip", flip_res, _tol(tolerance, 1e-12)),
    ))


def _suite_chi(tolerance):
    rng = np.random.default_rng(_SEED + 2)
    table = build_table(make_modulus(0.5), 30)
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


def _suite_recurrence(tolerance):
    return verify_identities(("uniform", 0.5), radius=4, tolerance=tolerance)


def _suite_frustrated(tolerance):
    # the two layouts share one set of cylinders, built for this call only
    by_version = _frustrated_rows(1.0, ("a", "b"), 3, tolerance)
    return VerificationReport(rows=tuple(
        replace(r, identity=r.identity + "-" + version)
        for version, rows in by_version.items() for r in rows))


SUITES = {
    "elliptic": _suite_elliptic,
    "couplings": _suite_couplings,
    "recurrence": _suite_recurrence,
    "frustrated": _suite_frustrated,
    "chi": _suite_chi,
}


def run_suite(name, tolerance=None):
    """Run one suite (or "all") and return its VerificationReport.

    tolerance, when given, overrides every per-identity default.
    """
    if name == "all":
        rows = []
        for key in SUITES:
            rows.extend(run_suite(key, tolerance).rows)
        return VerificationReport(rows=tuple(rows))
    if name not in SUITES:
        raise KeyError("unknown verification suite %r" % (name,))
    return SUITES[name](tolerance)
