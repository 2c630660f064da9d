"""End-to-end acceptance checks, one per shipped guarantee.

Each test exercises one numbered guarantee at its stated tolerance and
prints a single pass/fail line (run pytest with -s to see them all).
"""

import math
import time

import numpy as np

from isingchi import (
    FibonacciSpec,
    FrustratedModel,
    autocorrelation,
    build_table,
    chi_grid,
    ff_correlation,
    fib_bits,
    find_peaks,
    lookup,
    sign_sequence,
)
from isingchi.oracle import (
    CylinderSpec,
    cylinder_correlation,
    extrapolate,
    oracle_pair_correlations,
)
from isingchi.verify import run_suite


def _finish(num, label, checks, elapsed, budget):
    ok = all(checks.values()) and elapsed < budget
    print("criterion %2d  %-34s %s  (%.1fs / %.0fs)"
          % (num, label, "pass" if ok else "FAIL", elapsed, budget))
    failed = [name for name, good in checks.items() if not good]
    assert ok, "failed checks: %s, elapsed %.1fs (budget %.0fs)" % (
        failed, elapsed, budget)


def _suite_checks(name):
    """{row name: passed} of one verify suite, run at its default tolerances."""
    report = run_suite(name)
    checks = {r.identity: r.passed for r in report.rows}
    checks["suite passed"] = report.passed
    return checks


def test_criterion_01_elliptic_kernel():
    # K(0) to 1e-15, and to 1e-12 K at 20 moduli against the 80-bit
    # hypergeometric series
    t0 = time.perf_counter()
    checks = _suite_checks("elliptic")
    _finish(1, "elliptic kernel", checks, time.perf_counter() - t0, 5)


def test_criterion_02_coupling_parametrization():
    # product rule and orientation flip (d -> K(k') - d swaps K and K_bar)
    # over 1000 draws of (k, d), both to 1e-12
    t0 = time.perf_counter()
    checks = _suite_checks("couplings")
    _finish(2, "coupling parametrization", checks,
            time.perf_counter() - t0, 5)


def test_criterion_03_nearest_neighbour_closed_form(table05_r30):
    t0 = time.perf_counter()
    K = math.asinh(math.sqrt(0.5)) / 2
    widths = [8, 10, 12, 14]
    vals = [0.5 * (cylinder_correlation(CylinderSpec(w, K, "uniform"), (1, 0))
                   + cylinder_correlation(CylinderSpec(w, K, "antiperiodic"),
                                          (1, 0)))
            for w in widths]
    limit, _ = extrapolate(widths, vals)
    # C(1,0) of a radius-2 table is Onsager's closed form
    nn = {k: lookup(build_table(k, 2), 1, 0) for k in (0.5, 0.999)}
    checks = {"cylinder extrapolation": abs(nn[0.5] - limit) <= 1e-6}

    seed = abs(math.sqrt(0.5) * lookup(table05_r30, 1, 0)
               + lookup(table05_r30, 0, 1, "Cbar") - math.sqrt(1.5))
    checks["seed identity"] = seed <= 1e-12
    checks["strong-coupling limit"] = abs(nn[0.999] - math.sqrt(2) / 2) <= 2e-3
    _finish(3, "nearest-neighbour closed form", checks,
            time.perf_counter() - t0, 120)


def test_criterion_04_table_against_oracle():
    t0 = time.perf_counter()
    table = build_table(0.5, 8)
    C, C_bar = oracle_pair_correlations(0.5, 4)
    worst = 0.0
    for m in range(6):
        for n in range(6):
            worst = max(worst,
                        abs(lookup(table, m, n) - C[(m, n)]),
                        abs(lookup(table, m, n, "Cbar") - C_bar[(m, n)]))
    checks = {"every entry within 1e-6 of the oracle": worst <= 1e-6}
    _finish(4, "table against oracle", checks,
            time.perf_counter() - t0, 300)


def test_criterion_05_recurrence_residuals():
    t0 = time.perf_counter()
    fine = build_table(0.5, 40, precision_bits=256)
    coarse = build_table(0.5, 12, precision_bits=53)
    checks = {"R=40 at 256 bits": fine.residual_report <= 1e-20,
              "R=12 at double": coarse.residual_report <= 1e-12}
    _finish(5, "recurrence residuals", checks, time.perf_counter() - t0, 60)


def test_criterion_06_dual_diagonal_limit(table05_r30):
    t0 = time.perf_counter()
    limit = (1 - 0.5 ** 2) ** 0.25
    gap = abs(lookup(table05_r30, 30, 30, "Cbar") - limit)
    checks = {"C_bar(30,30) near (1-k^2)^(1/4)": gap <= 1e-3}
    _finish(6, "dual diagonal limit", checks, time.perf_counter() - t0, 60)


def test_criterion_07_frustrated_factorization():
    t0 = time.perf_counter()
    checks = {}
    rng = np.random.default_rng(107)
    ma = FrustratedModel(S=1.0, version="a")
    mb = FrustratedModel(S=1.0, version="b")
    table = build_table(ma.k, 6)
    odd_odd_zero, parity_zero = True, True
    for _ in range(1000):
        dx = int(rng.integers(-11, 12))
        dy = int(rng.integers(-5, 6)) * 2 + 1
        if dx % 2:
            odd_odd_zero &= ff_correlation(ma, table, dx, dy, 0) == 0.0
        else:
            s = (ff_correlation(ma, table, dx, dy, 0)
                 + ff_correlation(ma, table, dx, dy, 1))
            parity_zero &= s == 0.0
    checks["odd-odd class vanishes"] = odd_odd_zero
    checks["sublattice parity average vanishes"] = parity_zero

    # the verify suite: both layouts at radius 3, default tolerances
    rows = run_suite("frustrated").rows
    by_version = {v: [r for r in rows if r.identity.endswith("-" + v)]
                  for v in ("a", "b")}
    for version, vrows in by_version.items():
        checks["assembly vs mixed-sign oracle (%s)" % version] = (
            len(vrows) == 5 and all(r.passed for r in vrows))
    checks["layouts share residuals"] = all(
        ra.identity[:-2] == rb.identity[:-2] and ra.location == rb.location
        and ra.residual == rb.residual for ra, rb in zip(*by_version.values()))

    # base column x0 = 0, so version a sees parity y0 and version b parity 0
    gauge_ok = True
    for y0 in range(4):
        for dx in range(-6, 7):
            for dy in range(-6, 7):
                eps = ((1 if y0 % 4 in (0, 1) else -1)
                       * (1 if (y0 + dy) % 4 in (0, 1) else -1))
                va = ff_correlation(ma, table, dx, dy, y0 % 2)
                vb = ff_correlation(mb, table, dx, dy, 0)
                gauge_ok &= va == eps * vb
    checks["layout gauge map exact"] = gauge_ok
    _finish(7, "frustrated factorization", checks,
            time.perf_counter() - t0, 300)


def test_criterion_08_susceptibility_grid():
    # k = 0.5, R = 30, 64x64 grid: sum rule to 1e-3; evenness in each
    # component, 2pi periodicity at 10 wavevectors and the alternating
    # gauge as a half-zone shift at 10 more, all to 1e-12; grid minimum
    # at least -(tail_bound + 1e-10)
    t0 = time.perf_counter()
    checks = _suite_checks("chi")
    _finish(8, "susceptibility grid", checks, time.perf_counter() - t0, 60)


def test_criterion_09_peak_structure():
    t0 = time.perf_counter()
    checks = {}
    ftable = build_table(FrustratedModel(S=1.0, version="a").k, 12)
    for version in ("a", "b"):
        model = FrustratedModel(S=1.0, version=version)
        grid = chi_grid(("frustrated", model, ftable), 64, 64, 12)
        peaks = find_peaks(grid)
        checks["frustrated %s peaks commensurate" % version] = (
            len(peaks) > 0 and all(p.commensurate for p in peaks))

    kappa = autocorrelation(sign_sequence(FibonacciSpec(j=0), 200_000), 31)
    counts = {}
    for k in (0.5, 0.9):
        table = build_table(k, 30)
        grid = chi_grid(("gauge", table, kappa), 64, 64, 30)
        counts[k] = len(find_peaks(grid))
    checks["quasiperiodic splitting grows with k"] = counts[0.9] > counts[0.5]
    _finish(9, "peak structure", checks, time.perf_counter() - t0, 120)


def test_criterion_10_fibonacci_words():
    t0 = time.perf_counter()
    checks = {}
    N = 1_000_000
    for j in (0, 1, 2):
        ones = int(fib_bits(FibonacciSpec(j=j), N).sum())
        checks["ones frequency j=%d" % j] = (
            abs(ones / N - 1 / FibonacciSpec(j=j).alpha) <= 2 / N)
    hand = [0, 1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 1, 1]
    checks["hand-checked prefix"] = (
        fib_bits(FibonacciSpec(j=0), len(hand)).tolist() == hand)
    _finish(10, "fibonacci words", checks, time.perf_counter() - t0, 5)
