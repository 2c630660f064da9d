import hashlib
import math
import random
import sys
import time
from itertools import islice

import pytest
from mpmath import mp

import isingchi.correlations as correlations
from isingchi import (
    EllipticDomainError,
    PrecisionExhausted,
    TableRangeError,
    build_table,
    lookup,
)
from isingchi.correlations import (
    _fixed,
    _identity_residuals,
    _integer_table,
    _odd_part,
    _plan,
    _symbol_coefficients,
    _worst_residual,
    diagonal_seeds,
    next_diagonal_seeds,
)
from isingchi.verify import _toeplitz_minors

# frozen against the transfer-matrix oracle and the closed forms
NN_HALF = 0.4013239632465773
CBAR01_HALF = 0.9409659755272734
DIAG_C_HALF = (0.25865790461134169, 0.098174021483978635, 0.041159859362,
               0.018075605081, 0.008154796530)
DIAG_CBAR_HALF = (0.93421545766769409, 0.93100462171789966, 0.930661735858,
                  0.930614072419, 0.930606476079)


@pytest.fixture(scope="module")
def table_half():
    return build_table(0.5, 8)


def _entry(x, scale):
    """The value of a stored entry x at the given scale as an mpf, exact at
    any precision that holds its significant bits."""
    return mp.mpf((x, 1 - scale.bit_length()))


def _squares(k, *args):
    """_integer_table(_plan(k, *args)) as full symmetric squares, the families
    swapped above k = 1 as build_table's are: (C, C_bar, scale)."""
    c, cb, scale = _integer_table(_plan(k, *args))
    return (*map(correlations._square, (cb, c) if k > 1 else (c, cb)), scale)


def _march(k, n_max, corrupt=lambda diag: None):
    """diagonal_seeds and next_diagonal_seeds as build_table runs them at
    256 working bits, after corrupt(diag) may edit the two lists in place."""
    plan = _plan(k, n_max - 1, 192)
    c_diag, cbar_diag, bits = diagonal_seeds(plan)
    corrupt((c_diag, cbar_diag))
    return next_diagonal_seeds(plan, (c_diag, cbar_diag, bits)), bits


def _c10(k):
    """C(1,0) of the smallest table, which holds Onsager's closed form."""
    return lookup(build_table(k, 2), 1, 0)


def test_onsager_nn_values():
    assert _c10(0.5) == pytest.approx(NN_HALF, abs=1e-15)
    assert _c10(0.999) == pytest.approx(math.sqrt(2) / 2, abs=2e-3)
    # weak-coupling asymptote sqrt(k)/2
    assert _c10(1e-4) == pytest.approx(0.5e-2, rel=2e-2)
    # the seed stages take the working modulus, which lies in (0, 1)
    with pytest.raises(EllipticDomainError):
        diagonal_seeds(_plan(0.5, 2, 24)._replace(k=(6, 5)))


def test_base_seed_identity(table_half):
    k = 0.5
    c10 = lookup(table_half, 1, 0)
    cbar01 = lookup(table_half, 0, 1, "Cbar")
    assert c10 == pytest.approx(NN_HALF, abs=1e-15)
    assert cbar01 == pytest.approx(CBAR01_HALF, abs=1e-15)
    assert math.sqrt(k) * c10 + cbar01 == pytest.approx(math.sqrt(1 + k),
                                                        abs=1e-14)


def test_diagonal_frozen_values(table_half):
    for n, (c, cb) in enumerate(zip(DIAG_C_HALF, DIAG_CBAR_HALF), start=1):
        assert lookup(table_half, n, n) == pytest.approx(c, abs=2e-12)
        assert lookup(table_half, n, n, "Cbar") == pytest.approx(cb, abs=2e-12)


def test_lookup_symmetries(table_half):
    assert lookup(table_half, 0, 0) == 1.0
    assert lookup(table_half, 0, 0, "Cbar") == 1.0
    for (m, n) in ((1, 3), (2, 5), (0, 4)):
        v = lookup(table_half, m, n)
        assert lookup(table_half, n, m) == v
        assert lookup(table_half, -m, n) == v
        assert lookup(table_half, m, -n) == v
        assert lookup(table_half, -m, -n) == v


def test_lookup_validation(table_half):
    with pytest.raises(TableRangeError):
        lookup(table_half, 0, 9)
    with pytest.raises(TableRangeError):
        lookup(table_half, -9, 0)
    for which in ("sigma", "c", "cbar", "C_bar"):
        with pytest.raises(ValueError):
            lookup(table_half, 1, 1, which)


def test_decay_and_bounds(table_half):
    axis = [lookup(table_half, m, 0) for m in range(9)]
    diag = [lookup(table_half, m, m) for m in range(9)]
    assert all(1 >= a > b > 0 for a, b in zip(axis, axis[1:]))
    assert all(1 >= a > b > 0 for a, b in zip(diag, diag[1:]))

    m_sq = (1 - 0.5 ** 2) ** 0.25
    cbar_diag = [lookup(table_half, n, n, "Cbar") for n in range(1, 9)]
    assert all(a > b for a, b in zip(cbar_diag, cbar_diag[1:]))
    assert all(v > m_sq for v in cbar_diag)


def test_residual_report_scales_with_precision():
    fine = build_table(0.5, 12)
    coarse = build_table(0.5, 12, precision_bits=53)
    assert fine.residual_report <= 1e-40
    assert coarse.residual_report <= 1e-12
    assert fine.residual_report < coarse.residual_report


def test_duality_swap(table_half):
    swapped = build_table(2.0, 8)
    assert swapped.k_requested == 2.0
    # served at 1/k = 0.5: every full-precision entry of the two families
    # is exchanged
    assert swapped.C == table_half.C_bar and swapped.C_bar == table_half.C
    for (m, n) in ((1, 0), (2, 3), (4, 4)):
        assert lookup(swapped, m, n) == lookup(table_half, m, n, "Cbar")
        assert lookup(swapped, m, n, "Cbar") == lookup(table_half, m, n)


def test_domain_guards():
    with pytest.raises(EllipticDomainError):
        build_table(-0.5, 4)
    with pytest.raises(EllipticDomainError):
        build_table(1.0, 4)
    with pytest.raises(EllipticDomainError):
        build_table(1.0 - 1e-9, 4)
    with pytest.raises(EllipticDomainError):
        build_table(1.0 + 1e-7, 4)
    with pytest.raises(ValueError):
        build_table(0.5, 1)
    with pytest.raises(ValueError):
        build_table(0.5, 4, precision_bits=16)


@pytest.mark.parametrize("k, radius, bits, message, where", [
    (0.5, 100, 256, "swept entry left (0, 1]", (22, 100)),
    (0.9, 60, 64, "swept entry left (0, 1]", (26, 60)),
    (0.5, 16, 24, "sweep divisor below 8 significant bits", (14, 16)),
    (0.7176, 88, 48, "sweep divisor below 8 significant bits", (76, 78))],
    ids=["0.5-100-256", "0.9-60-64", "0.5-16-24", "0.7176-88-48"])
def test_precision_exhaustion_names_location(k, radius, bits, message, where):
    # both failure paths of the sweep, each at the entry it was computing
    with pytest.raises(PrecisionExhausted) as err:
        build_table(k, radius, precision_bits=bits)
    assert str(err.value) == ("%s; raise precision_bits at (m, n) = (%d, %d)"
                              % (message, *where))
    assert err.value.where == where


@pytest.mark.parametrize("k, radius, builds", [
    (1e-20, 4, False), (0.1, 48, False), (0.05, 48, False), (0.01, 32, False),
    (0.05, 30, True), (0.0718, 34, True), (1e-10, 4, True)])
def test_refusal_frontier(k, radius, builds):
    # the frontier of 256 named bits; a build that names none picks more
    if builds:
        assert build_table(k, radius, 256).radius == radius
    else:
        with pytest.raises(PrecisionExhausted):
            build_table(k, radius, 256)


@pytest.mark.parametrize("k, radius, where", [(1e-20, 4, (1, 3)),
                                              (0.1, 48, (45, 47))])
def test_loss_estimate_refuses_what_the_sweep_passes(k, radius, where):
    # both sweeps finish with entries far off a deeper build (C(1,4) by a
    # factor of 8e4, C(45,48) by 24%); the estimate names the first radius
    # it rules out, and the one below it still builds, at 256 named bits
    with pytest.raises(PrecisionExhausted, match="^estimated small-k loss") as err:
        build_table(k, radius, 256)
    assert err.value.where == where
    build_table(k, where[1] - 1, 256)


@pytest.mark.parametrize("k, radius", [(1e-300, 10 ** 9), (0.5, 10 ** 400)])
def test_out_of_range_radius_is_refused_before_any_work(k, radius):
    # the plan's bits stop growing at its refused radius, so neither a huge
    # radius nor one past float range costs memory or time before the refusal
    start = time.perf_counter()
    with pytest.raises(PrecisionExhausted, match="^estimated small-k loss"):
        build_table(k, radius, 256)
    assert time.perf_counter() - start < 0.1


@pytest.mark.parametrize("k, radius, bits", [
    (1e-30, 48, 9577), (0.5, 2000, 7710), (0.5, 10 ** 400, None)],
    ids=["1e-30-48", "0.5-2000", "0.5-10^400"])
def test_a_pick_past_the_caps_is_refused_before_any_work(k, radius, bits,
                                                         monkeypatch):
    # a build that names no bits refuses a pick above 8,192 bits, or above
    # 2^32 bits in all (R + 1)^2 entries, naming the pick, before any seed
    def no_seeds(*args):
        raise AssertionError("a seed was computed past the cap")

    monkeypatch.setattr(correlations, "diagonal_seeds", no_seeds)
    start = time.perf_counter()
    with pytest.raises(PrecisionExhausted, match="^17 right digits need") as err:
        build_table(k, radius)
    assert time.perf_counter() - start < 1
    assert err.value.where is err.value.bits is None
    if bits is not None:
        assert str(err.value).startswith("17 right digits need %d bits" % bits)


@pytest.mark.parametrize("k, radius, where", [
    (0.05, 48, (35, 37)), (0.5, 120, (72, 120))], ids=["refused", "swept"])
def test_exhausted_precision_records_its_bits(k, radius, where):
    # the build, which made the plan, records the bits that ran out
    with pytest.raises(PrecisionExhausted) as err:
        build_table(k, radius, 256)
    assert (err.value.where, err.value.bits) == (where, 256)


def test_seed_corruption_detected():
    (clean, _), bits = _march(0.5, 6)
    assert clean[1] / 2 ** bits == pytest.approx(0.14741915511812642, abs=1e-12)

    def corrupt(diag):
        diag[0][3] += diag[0][3] // 1000    # C(3,3) up by 1e-3

    with pytest.raises(PrecisionExhausted,
                       match="^cross-check relation residual") as err:
        _march(0.5, 6, corrupt)
    assert err.value.where == (2, 3)


@pytest.mark.parametrize("corrupt, message, where", [
    # a negative C_bar(3,3) enters only the corner relation at m = 2
    ("cbar33", "cross-check relation residual", (2, 3)),
    # C_bar(0,1) = 0 leaves the determinant -k C(1,0)^2 of the first step
    ("cbar01-zero", "singular star/recurrence system", (1, 2)),
    # a negative C_bar(0,1) sends the first step's X below 0
    ("cbar01-negated", r"next-diagonal entry outside \(0, 1\)", (1, 2)),
], ids=["cbar33", "cbar01-zero", "cbar01-negated"])
def test_march_raises_name_the_entry(corrupt, message, where, monkeypatch):
    derived = correlations._nearest_neighbours

    def edited_base(kf, rk, diag):
        c10, cbar01 = derived(kf, rk, diag)
        return c10, 0 * cbar01 if corrupt == "cbar01-zero" else -cbar01

    def edit(diag):
        if corrupt == "cbar33":
            diag[1][3] = -diag[1][3]

    if corrupt != "cbar33":
        monkeypatch.setattr(correlations, "_nearest_neighbours", edited_base)
    with pytest.raises(PrecisionExhausted, match="^" + message) as err:
        _march(0.5, 6, edit)
    assert err.value.where == where


@pytest.mark.parametrize("k", [1e-20, 1e-6, 0.0718, 0.1, 1 / 3, 0.5, 0.9,
                               0.999998])
def test_nearest_neighbours_match_onsager(k):
    # the march's start, derived from C(1,1) and C_bar(1,1) by the corner
    # relation at the origin, against Onsager's closed form from mpmath's K
    # (parameter m = k^2), from seeds at build_table's working bits, p + 64
    precision_bits = 256
    plan = _plan(k, 2, precision_bits)
    num, den = k = plan.k
    diag = diagonal_seeds(plan)
    bits, kf = diag[2], _fixed(k, diag[2])
    derived = correlations._nearest_neighbours(kf, math.isqrt(kf << bits), diag)
    with mp.workprec(bits + 256):
        kk = mp.mpf(num) / den
        c10 = mp.sqrt((1 + kk) / kk) / 2 * (1 - (1 - kk) * 2 * mp.ellipk(kk * kk)
                                            / mp.pi)
        for x, ref in zip(derived, (c10, mp.sqrt(1 + kk) - mp.sqrt(kk) * c10)):
            err = abs(mp.mpf((x, -bits)) - ref) / ref
            assert err <= mp.mpf(2) ** -(precision_bits + 40), mp.log(err, 2)


def test_build_runs_one_agm(monkeypatch):
    calls, agm = [], correlations.agm
    monkeypatch.setattr(correlations, "agm",
                        lambda *a: calls.append(a) or agm(*a))
    for args in ((0.5, 8), (3.0, 10, 128), (1e-20, 2, 2048)):
        calls.clear()
        build_table(*args)
        assert len(calls) == 1


def test_build_is_deterministic():
    a = build_table(0.3, 6)
    b = build_table(0.3, 6)
    for m in range(7):
        for n in range(7):
            assert lookup(a, m, n) == lookup(b, m, n)
            assert lookup(a, m, n, "Cbar") == lookup(b, m, n, "Cbar")


def test_corner_relation_holds_at_origin(table_half):
    k = 0.5

    def c(m, n):
        return lookup(table_half, m, n)

    def cb(m, n):
        return lookup(table_half, m, n, "Cbar")

    res = (k * (c(0, 0) * c(1, 1) - c(0, 1) * c(1, 0))
           - (cb(0, 0) * cb(1, 1) - cb(0, 1) * cb(1, 0)))
    assert abs(res) < 1e-14


def test_star_relation_excludes_origin(table_half):
    k = 0.5
    rk = math.sqrt(k)

    def star_residual(m, n):
        def c(a, b):
            return lookup(table_half, a, b)

        def cb(a, b):
            return lookup(table_half, a, b, "Cbar")

        lhs = rk * (c(m + 1, n) * cb(m - 1, n) + c(m - 1, n) * cb(m + 1, n)
                    + c(m, n + 1) * cb(m, n - 1) + c(m, n - 1) * cb(m, n + 1))
        return lhs - 2 * (k + 1) * c(m, n) * cb(m, n)

    assert abs(star_residual(1, 1)) < 1e-13
    assert abs(star_residual(2, 1)) < 1e-13
    # the relation simply does not hold at the origin; the build never
    # consumes it there and the residual scan skips it
    assert abs(star_residual(0, 0)) > 1.0


@pytest.mark.parametrize("k", [0.1, 0.5, 0.9, 0.99, 1 - 1e-5])
def test_symbol_coefficients_match_fourier_integral(k):
    # a_j = (1/pi) Re int_0^pi phi(e^{i theta}) e^{-i j theta} d theta,
    # since phi(e^{-i theta}) is the conjugate of phi(e^{i theta})
    coeff, bits = _symbol_coefficients(k.as_integer_ratio(), 6, 200, 80)
    with mp.workprec(80):
        k = mp.mpf(k)
        for j in range(-6, 7):
            def integrand(theta):
                return (mp.sqrt(1 - k * mp.expj(-theta))
                        / mp.sqrt(1 - k * mp.expj(theta))
                        * mp.expj(-j * theta)).real
            a_j = mp.quad(integrand, [0, mp.pi / 2, mp.pi]) / mp.pi
            got = mp.ldexp(coeff[j], -bits)
            assert abs(got - a_j) < 1e-22, (j, got, a_j)


def _dense_det(x, n, shift=0):
    """det[x(i - j - shift)] of order n >= 1."""
    return mp.det(mp.matrix([[x(i - j - shift) for j in range(n)]
                             for i in range(n)]))


def _assert_close(got, bits, want):
    assert abs(mp.ldexp(got, -bits) - want) <= abs(want) * mp.mpf(2) ** -200


def test_toeplitz_minors_match_dense_determinants():
    # fixed point at 2^256 against dense determinants of the same entries:
    # det T_n, and -e_f det T_n and -e_b det T_n against the cofactors
    # (-1)^n det[t(i-j+1)]_n and (-1)^n det[t(i-j-1)]_n
    rng = random.Random(20261018)
    bits = 256
    cases = []
    for _ in range(8):
        # a double times 2^256 is exact, so floor takes nothing off
        entries = {j: math.floor(rng.uniform(-1, 1) * 2 ** bits)
                   for j in range(-12, 13)}
        cases.append(entries.__getitem__)
    plan = _plan(0.9, 11, bits - 64)
    coeff, own_bits = _symbol_coefficients(plan.k, 12, plan.symbol, plan.seeds)
    cases.append({j: a >> own_bits - bits for j, a in coeff.items()}.__getitem__)
    with mp.workprec(2 * own_bits):
        for t in cases:
            def x(j):
                return mp.ldexp(t(j), -bits)

            for n, (det, e_f, e_b) in zip(range(1, 13), _toeplitz_minors(t, bits)):
                _assert_close(det, bits, _dense_det(x, n))
                _assert_close(-e_f * det >> bits, bits,
                              (-1) ** n * _dense_det(x, n, -1))
                _assert_close(-e_b * det >> bits, bits,
                              (-1) ** n * _dense_det(x, n, 1))

        # diagonal_seeds stores the same two forms at the symbol's own bits
        def a(j):
            return mp.ldexp(coeff[j], -own_bits)

        c_diag, cbar_diag, seed_bits = diagonal_seeds(plan)
        assert seed_bits == own_bits and len(c_diag) == len(cbar_diag) == 13
        for n in range(1, 13):
            _assert_close(cbar_diag[n], own_bits, _dense_det(a, n))
            _assert_close(c_diag[n], own_bits, (-1) ** n * _dense_det(a, n, 1))


@pytest.mark.parametrize("t0, order", [(1, 2), (0, 1)])
def test_vanishing_minor_is_precision_exhaustion(t0, order):
    # t(0) = t(1) = t(-1) = 1 makes the order-2 minor vanish; t(0) = 0 the
    # order-1 minor.  Either must stop the recursion before it divides.
    bits = 64

    def t(j):
        return (t0 << bits) if j == 0 else (1 << bits) if abs(j) == 1 else 0

    with pytest.raises(PrecisionExhausted, match="order %d vanishes" % order) as err:
        list(islice(_toeplitz_minors(t, bits), 4))
    assert err.value.where == (order, order)


@pytest.mark.parametrize("k, radius, bits", [(0.1, 32, 256), (0.05, 30, 256),
                                             (0.5, 100, 512), (0.0718, 40, 256),
                                             (0.9, 100, 512), (0.1, 100, 1024),
                                             (0.01, 40, 256)])
def test_seeds_match_deeper_build(k, radius, bits):
    # diagonal_seeds and next_diagonal_seeds as build_table calls them
    # (bits + 64, radius + 1) keep their guard bits against seeds 512 bits
    # deeper.  The minors and the march run at log2(1/k) guard bits per
    # order, half the symbol's, since the C seeds shrink like k^n.  With a
    # flat 32-bit guard the seeds read 2^-237.3 at (0.1, 32, 256) and
    # 2^-501.5 at (0.5, 100, 512), and the march's corner cross-check, an
    # absolute residual that the small C seeds barely enter, does not fire.
    # build_table refuses (0.01, 40, 256) by its sweep estimate, so the
    # seeds are called directly.
    plan, deep_plan = _plan(k, radius, bits), _plan(k, radius, bits + 512)
    diag, deep = diagonal_seeds(plan), diagonal_seeds(deep_plan)
    lo_bits, hi_bits = diag[2], deep[2]
    seeds = (*diag[:2], *next_diagonal_seeds(plan, diag))
    deeper = (*deep[:2], *next_diagonal_seeds(deep_plan, deep))
    # integers x 2^lo_bits and x 2^hi_bits, compared exactly
    worst = max(mp.mpf(abs((lo << hi_bits - lo_bits) - hi)) / hi
                for lo_family, hi_family in zip(seeds, deeper)
                for lo, hi in zip(lo_family, hi_family))
    assert worst <= mp.mpf(2) ** -(bits + 40), mp.log(worst, 2)


@pytest.mark.parametrize("k", [0.1, 0.5, 0.9, 0.99])
def test_diagonal_seeds_agree_across_precision(k):
    *coarse, lo_bits = diagonal_seeds(_plan(k, 39, 192))
    *fine, hi_bits = diagonal_seeds(_plan(k, 39, 448))
    for lo_family, hi_family in zip(coarse, fine):
        for lo, hi in zip(lo_family, hi_family):
            assert abs((lo << hi_bits - lo_bits) - hi) <= hi >> 240


def test_seeds_are_rounded_once():
    coarse = _squares(0.5, 12, 53)
    fine = _squares(0.5, 12, 256)
    with mp.workprec(53):
        for m in range(13):
            for n in range(m, min(m + 2, 13)):
                for fam in (0, 1):
                    x, y = coarse[fam][m][n], fine[fam][m][n]
                    assert (_entry(x, coarse[2])
                            == _entry(y, fine[2])), (fam, m, n)


@pytest.mark.parametrize("k, radius, bits, rel", [
    (0.05, 30, 256, 1e-12), (0.0718, 34, 256, 1e-12),
    # builds that name no bits, at the plan's picks of 313 and 379 bits
    # (2^-20.4 and 2^-4.8 off at 256), against builds 128 bits deeper:
    # every double equal
    (0.0718, 40, None, 2.0 ** -57), (0.5, 96, None, 2.0 ** -57)],
    ids=["0.05-30", "0.0718-34", "0.0718-40-picked", "0.5-96-picked"])
def test_edge_builds_match_deeper_build(k, radius, bits, rel):
    # just inside the 256-bit frontier; 0.0718 is near the dual modulus
    # that chi frustrated --S 1 builds
    edge = build_table(k, radius, bits)
    deep = build_table(k, radius, 768 if bits else edge.precision_bits + 128)
    for fam_edge, fam_deep in ((edge.C, deep.C), (edge.C_bar, deep.C_bar)):
        for row_edge, row_deep in zip(fam_edge, fam_deep):
            for x, y in zip(row_edge, row_deep):
                assert x == pytest.approx(y, rel=rel, abs=0)


def _worst_log2_error(table, deep, deep_bits):
    """Worst log2 relative error of the integer table against deep, both
    _integer_table's (C, C_bar, scale), deep built at deep_bits."""
    with mp.workprec(2 * deep_bits):
        worst = max(abs(_entry(x, table[2]) - _entry(y, deep[2]))
                    / _entry(y, deep[2])
                    for fam, fam_deep in zip(table[:2], deep[:2])
                    for row, row_deep in zip(fam, fam_deep)
                    for x, y in zip(row, row_deep))
        return float(mp.log(worst, 2)) if worst else -math.inf


@pytest.mark.parametrize("k, radius, bits, rounded_sweep_log2", [
    (0.5, 40, 256, -128),
    (0.1, 32, 256, -43),
    (0.5, 100, 512, -184),
    (0.1, 100, 1024, -360),     # reaches C below 2^-300
])
def test_sweep_keeps_its_guard_bits(k, radius, bits, rounded_sweep_log2):
    # rounded_sweep_log2 is the worst relative error of an mpf sweep that
    # rounds every step to precision_bits; the fixed-point sweep keeps the
    # seeds' guard bits and must beat it by 50 bits
    table = _integer_table(_plan(k, radius, bits))
    deep = _integer_table(_plan(k, radius, 2 * bits))
    assert _worst_log2_error(table, deep, 2 * bits) <= rounded_sweep_log2 - 50


def _forms_disagree(k, radius):
    """Worst |float form - fixed-point form| of the identity residuals over
    the octant of build_table(k, radius): the float numerators on its
    doubles, whose units are 1.0, against the fixed-point numerators on its
    integers over o 2^2G (o 2^3G for the star)."""
    (C, C_bar, scale), bits = _integer_table(_plan(k, radius)), 256 + 64
    inner = sorted(k.as_integer_ratio())
    one, kf = 1 << bits, _fixed(inner, bits)
    kn, g = _odd_part(kf, bits)
    rk, kr = math.isqrt(kf << bits), inner[0] / inner[1]
    table, shift = build_table(k, radius), scale.bit_length() - 1 - bits
    fc, fb = (table.C_bar, table.C) if k > 1 else (table.C, table.C_bar)
    ic, ib = ([[x >> shift for x in row] for row in correlations._square(v)]
              for v in (C, C_bar))
    worst = 0.0
    for m in range(radius):
        for n in range(m, radius):
            floats = _identity_residuals((kr, 1.0), kr ** 0.5, 1.0, fc, fb, m, n)
            ints = _identity_residuals((kn, 1 << g), rk, one, ic, ib, m, n)
            assert floats.keys() == ints.keys()
            worst = max(worst, *(
                abs(r - ints[name] / ((1 << g) * one ** (
                    3 if name == "neighbour-star" else 2)))
                for name, r in floats.items()))
    return worst


def test_identity_forms_agree():
    # the float form on (k, 1.0) and the fixed-point form on (kn, 2^g) of
    # the built modulus; at 0.0718, o = 2^55 is far wider than k = 0.5's 2,
    # and k = 2 reads the swapped families
    for k, radius in ((0.5, 12), (0.0718, 40), (2.0, 16)):
        assert _forms_disagree(k, radius) <= 1e-15, k


def test_residual_report_scans_stored_entries():
    # the report scans the integers that the stored doubles were divided from
    table = build_table(0.5, 12)
    C, C_bar, scale = _integer_table(_plan(0.5, 12))
    bits = 256 + 64
    k = (1, 2)
    assert table.residual_report == _worst_residual(k, C, C_bar, scale, bits)
    c = [list(d) for d in C]
    raised = c[2][5] + (c[2][5] >> 100)    # C(5, 7) up by 2^-100 relative
    c[2][5] = raised
    shift = (raised - C[2][5]) / scale
    assert table.residual_report < shift * 1e-30
    assert _worst_residual(k, c, C_bar, scale, bits) >= shift


def test_builds_do_not_scan(monkeypatch, tmp_path):
    import isingchi.correlations as correlations
    from isingchi import FrustratedModel, chi_grid
    from isingchi.fileio import write_corr_csv

    scans, scan = [], correlations._worst_residual

    def counted(*args):
        scans.append(args)
        return scan(*args)

    monkeypatch.setattr(correlations, "_worst_residual", counted)
    model = FrustratedModel(S=1.0, version="a")
    table, dual = build_table(0.5, 6), build_table(model.k, 6)
    assert len(scans) == 0
    write_corr_csv(tmp_path / "corr.csv", table)
    assert len(scans) == 0
    for source in (("uniform", table), ("gauge", table, [1.0] * 7),
                   ("frustrated", model, dual)):
        chi_grid(source, 4, 4, 6)
        assert len(scans) == 0
    assert table.residual_report == table.residual_report
    assert len(scans) == 1


def test_build_converts_each_entry_once(counted_entries):
    # build_table divides each octant entry of both families once, (R+1)(R+2)
    # divisions, swapped or not; the uniform and gauge sums convert nothing
    from isingchi import chi_grid

    R, tables = 5, []
    for k in (0.5, 2.0):
        counted_entries.clear()
        tables.append(build_table(k, R))
        assert len(counted_entries) == (R + 1) * (R + 2), k
    counted_entries.clear()
    for source in (("uniform", tables[0]), ("gauge", tables[0], [1.0] * 7)):
        chi_grid(source, 4, 4, R)
    assert counted_entries == []


def _held(row):
    """Bytes a table row holds: the row and, for a view, the buffer it
    exports, or for a sequence, each of its entries."""
    parts = [row.obj] if isinstance(row, memoryview) else list(row)
    return sys.getsizeof(row) + sum(map(sys.getsizeof, parts))


def test_rows_hold_eight_bytes_an_entry():
    # a row of 41 doubles against one of 41 integers of about 500 bits; the
    # fixed part is a memoryview and an array header, under 512 bytes
    table = build_table(0.5, 40)
    for fam in (table.C, table.C_bar):
        assert len(fam) == 41
        for row in fam:
            assert len(row) == 41 and _held(row) <= 8 * 41 + 512


@pytest.mark.parametrize("k, radius, precision_bits",
                         [(2.0, 8, 256), (3.0, 10, 128), (0.3, 10, 53)])
def test_lazy_report_undoes_the_swap(k, radius, precision_bits):
    table = build_table(k, radius, precision_bits)
    C, C_bar, scale = _integer_table(_plan(k, radius, precision_bits))
    bits = precision_bits + 64
    inner = (1, int(k)) if k > 1 else k.as_integer_ratio()
    # the integer stage is unswapped, at the inner modulus
    assert table.residual_report == _worst_residual(inner, C, C_bar, scale,
                                                    bits)


def _sha256(x):
    """SHA-256 of an integer or of nested lists and tuples of them, by hex."""
    def walk(v):
        return hex(v) if isinstance(v, int) else "(%s)" % ",".join(map(walk, v))
    return hashlib.sha256(walk(x).encode()).hexdigest()


def _pinned_id(args):
    """A pinned row's name as it was recorded: (0.0718, 40) names the 256
    bits it was pinned at, once the default and now below its pick, 313."""
    return str(args[:2] if args == (0.0718, 40, 256) else args)


# SHA-256 of _integer_table's (C, C_bar, scale) as squares and of the
# diagonal_seeds and next_diagonal_seeds outputs of each build, the first
# recorded from the full-width floor(k 2^bits) formulas, the second from the
# reflection coefficients' recurrences and the third from the march's 2x2
# linear solve on those seeds, started from the nearest neighbours that the
# corner relation at the origin gives; the CSV digests of test_cli see only
# 17 digits
PINNED_BUILDS = [
    ((0.5, 40),
     '06421f13a6e2bcf2ee4c027d62ca602e04545841a22910e01def1be7ede26362',
     'e347d9c490b3bb1b910f0dfbacddc14f660e096a3550502fcd79c26bab0e4500',
     'b42ccf57de89d1df72fc0ce9d341817cb5f8229924000bb44654d8b8be6ee715'),
    ((0.99, 24),
     '99c9ec39c4414d7e3c4a4be657e9d41a830d1732fce4ee109bb90315009311c8',
     '32abb85075cab0fc6df69b9797baf92a135c8e994872297ee6a314bb88189477',
     '6d904d21ec5766ac5ce96f3deb2d20277c4b66f839226d288f013fc16c7c93ac'),
    ((0.1, 32),
     '3eb1c8f06fb3223be42296e35552fba45311274f7e37f78dec935ca47cd293e9',
     '18be5a0ad249e0ab0173f8f4a3d3713c02556f2fa002b4fa03b065c525575936',
     '3c0454567210ae1ed4c197f01f4ff06d0aab8d47fdf90715fe33b16e98ea829e'),
    ((2.0, 16),
     'bb7c2c0d302e46343dc1cfb4d09b7c4923391780962c1644e32daadfad3095ab',
     '165bc1f09f8555e21b895ca8b20f43008b0bad7e402963158af25ad3c591690c',
     '3d9f2dc196c0957b90dad111a56e126e17548202defc33a425b9524d905f4705'),
    ((3.0, 30),
     'd873fa85d5aeb316a26381baa0c2cc08ce129883f80eb1d1feab5c39c287aac3',
     '3275f053a910fa13a1c4c8a888ae2ac134522a566839ec22a3a3b592adcacff8',
     '1cbb311a3fdca2f5a563affaaee7529457e1ebdffa06afcc220e2813d31f4e2d'),
    ((0.0718, 40, 256),
     '7dcf143e166e64077d00b7809239ec5012f1171ff0f434e923b1a530815e1ef8',
     'dbee70a1a05341a98c5f3420f506559d5c074bf24c0fd7ea6251649e853cd26e',
     '00f0dfab9283a12d948d8de7308b49335ef2c6aa93560463f802bf28d0fabae5'),
    ((0.1, 100, 1024),
     'aa83bbb329394c1f3c7b64b07649e3ba946ee682091b7015627fc554bc72b11d',
     'bd0de551e3b62338c0ca0f9b0c2507820e512633b639721cfef07180207efab9',
     '264237f8145b1fc4ba0333e47d9b5df0139ee73d41bc602d1bfce42db86a1302'),
    ((1e-20, 2, 2048),
     'fd73d9230ffece8a0e68ae880e54ca3208c8d4e9b3c175a593e119b21d2c8543',
     '86c9fd1ebeac73e32ca2545866ad2cdbe0f764fefa2854d4b43cb2936fb67231',
     '3df19ae992e7a14fedd63be3c9102838819a39a5a9f1ca1527b998d98d2d0df8'),
]


@pytest.mark.parametrize("args, table, diag, march", PINNED_BUILDS,
                         ids=[_pinned_id(row[0]) for row in PINNED_BUILDS])
def test_integer_tables_are_pinned(args, table, diag, march, monkeypatch):
    seen = []
    for name in ("diagonal_seeds", "next_diagonal_seeds"):
        stage = getattr(correlations, name)
        monkeypatch.setattr(correlations, name, lambda *a, stage=stage:
                            seen.append(stage(*a)) or seen[-1])
    t = _squares(*args)
    assert [_sha256(x) for x in (t, *seen)] == [table, diag, march]


@pytest.mark.parametrize("args, table", [row[:2] for row in PINNED_BUILDS],
                         ids=[_pinned_id(row[0]) for row in PINNED_BUILDS])
def test_doubles_are_the_pinned_integers_divided(args, table):
    # every stored double is x / scale of the pinned integers, both families
    ints = _squares(*args)
    assert _sha256(ints) == table
    (C, C_bar, scale), built = ints, build_table(*args)
    for fam, doubles in ((C, built.C), (C_bar, built.C_bar)):
        assert [[x / scale for x in row] for row in fam] == [
            list(row) for row in doubles]


# residual_report of the pinned builds and of the swap cases, as float.hex,
# recorded from the scan on the full-width floor(k 2^bits)
PINNED_REPORTS = [
    ((0.5, 40), '0x1.c5082095cccfdp-256'),
    ((0.99, 24), '0x1.d67321ccd8e59p-256'),
    ((0.1, 32), '0x1.83795d0ce7f96p-218'),
    ((2.0, 16), '0x1.c5082095cccfdp-256'),
    ((3.0, 30), '0x1.d7c5f972a38e7p-256'),
    ((0.0718, 40, 256), '0x1.8bd122d1c285cp-173'),
    ((0.1, 100, 1024), '0x1.3c8323195f504p-757'),
    ((1e-20, 2, 2048), '0x0.0p+0'),
    ((2.0, 8, 256), '0x1.3d67cc1549742p-256'),
    ((3.0, 10, 128), '0x1.d875318d44a79p-128'),
    ((0.3, 10, 53), '0x1.aaa00ed044a36p-53'),
]


@pytest.mark.parametrize("args, report", PINNED_REPORTS,
                         ids=[_pinned_id(row[0]) for row in PINNED_REPORTS])
def test_residual_reports_are_pinned(args, report):
    assert build_table(*args).residual_report.hex() == report


# _worst_residual of build_table(0.99, 24) with one entry of one family
# corrupted, as float.hex, recorded from the scan that divided each
# residual by its own unit.  Raised by 2^-60 relative, an entry breaks the
# star most, which is linear in each family; shifted up by 8 bits, it
# breaks the quadratic recurrences most, whose unit is 2^bits narrower
CORRUPT_REPORTS = [
    ("C", (1, 3), lambda x: x + (x >> 60), '0x1.1a40a70ca271bp-60'),
    ("C", (1, 3), lambda x: x << 8, '0x1.f546b2fa6a6ecp+13'),
    ("Cbar", (2, 5), lambda x: x + (x >> 60), '0x1.aeb0831a088b2p-61'),
    ("Cbar", (2, 5), lambda x: x << 8, '0x1.02831ef89f956p+14'),
]


@pytest.mark.parametrize("family, where, edit, report", CORRUPT_REPORTS,
                         ids=["C-star", "C-recurrence", "Cbar-star",
                              "Cbar-recurrence"])
def test_worst_residual_is_pinned_on_corrupt_copies(family, where, edit,
                                                    report):
    C, C_bar, scale = _integer_table(_plan(0.99, 24))
    fams = {"C": [list(d) for d in C], "Cbar": [list(d) for d in C_bar]}
    (i, j), fam = where, fams[family]
    fam[j - i][i] = edit(fam[j - i][i])
    worst = _worst_residual(sorted((0.99).as_integer_ratio()), fams["C"],
                            fams["Cbar"], scale, 256 + 64)
    assert worst.hex() == report


def _quadratic_march(k, diag):
    """The next diagonals as the march once found them: the star relation
    and the corner relation at (m, m) eliminated to one quadratic in X, of
    which the minus root was the one taken in a sound march."""
    c_diag, cbar_diag, bits = diag
    kf = _fixed(k, bits)
    rk, (kn, g) = math.isqrt(kf << bits), _odd_part(kf, bits)
    a, b = correlations._nearest_neighbours(kf, rk, diag)
    c_next, cbar_next = [a], [b]
    for m in range(1, len(c_diag) - 1):
        cm, cbm = c_diag[m], cbar_diag[m]
        p = ((kn + (1 << g)) * cm * cbm >> g) // rk
        a2 = (b * b << bits) - (kn * a * a << bits - g)
        h = p * b << 2 * bits
        a0 = (((kn * cm * c_diag[m + 1] << bits - g)
               - (cbm * cbar_diag[m + 1] << bits)) * a * a + (p * p << 3 * bits))
        x = (h - math.isqrt(h * h - a2 * a0)) // a2
        a, b = x, ((p << bits) - b * x) // a
        c_next.append(a)
        cbar_next.append(b)
    return c_next, cbar_next


@pytest.mark.parametrize("args", [row[0] for row in PINNED_BUILDS]
                         + [(0.9, 100, 512)], ids=_pinned_id)
def test_linear_march_matches_quadratic_march(args):
    # both seed families of the linear solve, as build_table calls it, agree
    # with the quadratic's minus root to the bound of the deeper-build test
    k, radius, precision_bits = (*args, 256)[:3]
    plan = _plan(k, radius, precision_bits)
    diag = diagonal_seeds(plan)
    linear = next_diagonal_seeds(plan, diag)
    for new, old in zip(linear, _quadratic_march(plan.k, diag)):
        assert len(new) == len(old) == radius + 1
        for x, ref in zip(new, old):
            assert abs(x - ref) << precision_bits + 40 <= ref


def test_dyadic_modulus_identities():
    rng = random.Random(3434)

    def wide(n):
        return rng.randint(-(1 << n), 1 << n)

    # N // (d << s) == (N >> s) // d for d > 0 and N of either sign (the
    # march's star product shifts before it divides by rk > 0), but not for
    # d < 0, where N >> s is a multiple of d and N one of 2^s is not; the
    # symbol step, whose 2j + 1 is negative for j < 0, divides by d << g
    for _ in range(2000):
        N, s = wide(600), rng.randint(0, 200)
        for d in (rng.randint(1, 7), rng.randint(1, 1 << 80)):
            assert N // (d << s) == (N >> s) // d
    assert (7 >> 1) // -3 != 7 // (-3 << 1)

    for _ in range(500):
        # a float in (0, 1) or a non-dyadic ratio, floored at random bits
        k = rng.choice([rng.random(), 10 ** rng.uniform(-30, -1)])
        k = rng.choice([k.as_integer_ratio(), (1, 3), (2, 7), (5, 11)])
        bits = rng.randint(100, 1200)
        kf = _fixed(k, bits)
        kn, g = _odd_part(kf, bits)
        assert kn & 1 and kn << (bits - g) == kf
        one = 1 << bits
        c0, b0, cm, cbm = (rng.randint(1, one) for _ in range(4))
        x, y = wide(2 * bits), wide(2 * bits)
        cd, bd = rng.randint(1, one), rng.randint(1, one)
        # the two sweep quotients
        assert ((kf * c0 * c0 - (x << bits)) // (kf * cd)
                == (kn * c0 * c0 - (x << g)) // (kn * cd))
        assert (((b0 * b0) << bits) - kf * y) // (bd << bits) == (
            ((b0 * b0) << g) - kn * y) // (bd << g)
        # the symbol step, either way from the centre
        j = rng.choice([1, -1]) * rng.randint(2, 200)
        e = 1 if j > 0 else -1
        a1, a2 = wide(bits), wide(bits)
        full = ((((1 << 2 * bits) + kf * kf) * (j - e) + kf * kf) * 2 * a1
                - (kf * (2 * j - 4 * e + 1) * a2 << bits)
                ) // (kf * (2 * j + 1) << bits)
        k2 = kn * kn
        assert full == ((((1 << 2 * g) + k2) * (j - e) + k2) * 2 * a1
                        - (kn * (2 * j - 4 * e + 1) * a2 << g)
                        ) // (kn * (2 * j + 1) << g)
        # the march's star product
        rk = math.isqrt(kf << bits)
        assert ((kf + one) * cm * cbm // (rk << bits)
                == ((kn + (1 << g)) * cm * cbm >> g) // rk)


@pytest.mark.parametrize("k", [(1, 3), (2, 7), (1, 10),
                               (0.1).as_integer_ratio(),
                               (1e-20).as_integer_ratio()])
def test_symbol_coefficients_match_full_width_step(k):
    x = math.log2(k[1]) - math.log2(k[0])
    bits, seed_bits = 256 + int(64 * x) + 32, 256 + int(32 * x) + 32
    coeff, _ = _symbol_coefficients(k, 30, bits, seed_bits)
    kf = _fixed(k, bits)
    m, s = correlations.agm(kf, bits)
    k2, o2 = kf * kf, 1 << 2 * bits
    a = {0: (((1 << bits) - s) << bits) // m,
         -1: -(((k2 - (s << bits)) << bits) // (kf * m))}
    for j in (*range(1, 31), *range(-2, -31, -1)):
        e = 1 if j > 0 else -1
        a[j] = (((o2 + k2) * (j - e) + k2) * 2 * a[j - e]
                - (kf * (2 * j - 4 * e + 1) * a[j - 2 * e] << bits)
                ) // (kf * (2 * j + 1) << bits)
    assert coeff == {j: x >> bits - seed_bits for j, x in a.items()}


def _levinson_seeds(plan):
    """diagonal_seeds as the Levinson minors gave them: the full symbol
    series and _toeplitz_minors at the same bits, C_bar(n,n) = D_n and
    C(n,n) = -y_n D_n, a non-positive seed raising at (n, n)."""
    n_max = plan.radius + 1
    coeff, bits = _symbol_coefficients(plan.k, n_max, plan.symbol, plan.seeds)
    c, cbar = [1 << bits], [1 << bits]
    minors = _toeplitz_minors(coeff.__getitem__, bits)
    for n, (d, _, y) in zip(range(1, n_max + 1), minors):
        c.append(-y * d >> bits)
        cbar.append(d)
        if c[-1] <= 0 or d <= 0:
            raise PrecisionExhausted("Levinson seed", where=(n, n))
    return c, cbar, bits


@pytest.mark.parametrize("k", [0.03, 0.1, 1 / 3, 0.5, 0.9, 0.995])
def test_reflection_recurrences_match_levinson(k):
    # (B), (Q) and the D update of diagonal_seeds hold on the Levinson
    # minors 128 bits past the march's guard, from x_0 = y_0 = -1 and D_0 = 1,
    # and the march as build_table calls it at 256 bits keeps the bound of
    # test_seeds_match_deeper_build against it out to n = 100
    # the series at 128 bits past the diagonal's, with the diagonal's guard
    plan = _plan(k, 99, 256)
    n_max, bits, k, ref = 100, plan.sweep, plan.k, plan.diagonal + 128
    coeff, ref_bits = _symbol_coefficients(
        k, n_max + 1, ref + plan.diagonal - plan.sweep, ref)
    with mp.workprec(2 * ref_bits):
        one, kk = mp.mpf(1), mp.mpf(k[0]) / k[1]
        minors = islice(_toeplitz_minors(coeff.__getitem__, ref_bits), n_max + 1)
        ref = [(one, -one, -one)] + [tuple(mp.ldexp(v, -ref_bits) for v in dxy)
                                     for dxy in minors]
        d, x, y = zip(*ref)
        for n in range(1, n_max + 1):
            s = 1 - x[n] * y[n]
            for terms in (
                    [(2 * n - 1) * s * y[n + 1], -2 * n * (1 + kk ** 2) / kk * y[n],
                     4 * n / kk * x[n], (2 * n + 1) * s * y[n - 1]],
                    [(2 * n + 3) * y[n] * x[n + 1], -(2 * n + 1) * x[n] * y[n + 1],
                     -(2 * n - 1) * y[n - 1] * x[n], (2 * n - 3) * x[n - 1] * y[n]],
                    [d[n + 1] * d[n - 1], -d[n] ** 2 * s]):
                assert abs(sum(terms)) <= max(map(abs, terms)) * 2.0 ** -(bits + 40), n
        c, cbar, seed_bits = diagonal_seeds(plan)
        for n in range(1, n_max + 1):
            for got, want in ((c[n], -y[n] * d[n]), (cbar[n], d[n])):
                assert abs(mp.ldexp(got, -seed_bits) / want - 1) <= 2.0 ** -(256 + 40), n


@pytest.mark.parametrize("j, edit, where", [
    (0, lambda a: 0, (1, 1)),                # D_1 = 0 would divide x_1, y_1
    (-1, lambda a: 0, (1, 1)),               # y_1 = 0 would divide in (Q)
    (-1, lambda a: -a, (1, 1)),              # C(1,1) < 0
    (1, lambda a: -(a << 60), (1, 1)),       # 1 - x_1 y_1 < 0 would divide (B)
    # a relative error e in a_{+-1} excites the k^-n solution, which takes
    # over near e 4^n = 1: up by 2^-40, C(17,17) < 0; down by 2^-200,
    # C(95,95) > C(94,94)
    (1, lambda a: a + (a >> 40), (17, 17)),
    (-1, lambda a: a - (abs(a) >> 200), (95, 95)),
], ids=["a0-zero", "am1-zero", "am1-negated", "s1-negative", "a1-up-2^-40",
        "am1-down-2^-200"])
def test_corrupt_symbol_raises_at_the_seed(j, edit, where, monkeypatch):
    series = correlations._symbol_coefficients

    def edited(*args):
        a, bits = series(*args)
        a[j] = edit(a[j])
        return a, bits

    monkeypatch.setattr(correlations, "_symbol_coefficients", edited)
    with pytest.raises(PrecisionExhausted, match="^diagonal seed or 1 - x_n y_n out") as err:
        diagonal_seeds(_plan(0.5, 119, 256))
    assert err.value.where == where


@pytest.mark.parametrize("radius", [16, 48, 96])
@pytest.mark.parametrize("k", [1e-30, 0.05, 0.1, 0.5, 0.9, 0.99])
def test_plan_loss_covers_the_measured_loss(k, radius):
    # at the plan's pick p, the bits of a build that names none, every entry
    # keeps min(p, p + 64 - L) relative bits against a build 128 bits
    # deeper, L the plan's loss estimate; the stored rounding caps a build at
    # p, so at R = 16 and k >= 0.5 the loss reads exactly 64.  Counted on
    # integer bit lengths: a float ratio underflows below 2^-1074.  The plan
    # refuses (1e-30, 48 and 96), whose picks pass MAX_PICKED_BITS
    try:
        plan = _plan(k, radius)
    except PrecisionExhausted as err:
        assert k == 1e-30 and radius > 16
        assert int(str(err).split()[4]) > correlations.MAX_PICKED_BITS
        return
    p = plan.precision
    assert (radius + 1) ** 2 * p <= correlations.MAX_PICKED_TABLE_BITS
    table = _integer_table(plan)
    deep = _integer_table(_plan(k, radius, p + 128))
    shift = deep[2].bit_length() - table[2].bit_length()
    right = min(y.bit_length() - abs((x << shift) - y).bit_length() - 1
                for fam, fam_deep in zip(table[:2], deep[:2])
                for row, row_deep in zip(fam, fam_deep)
                for x, y in zip(row, row_deep))
    assert right >= min(p, p + 64 - plan.loss_estimate), right


def _seeded_builds(count):
    rng = random.Random(3636)
    for _ in range(count):
        k = rng.choice([10 ** rng.uniform(-4, -1), rng.uniform(0.05, 0.95),
                        1 - 10 ** rng.uniform(-5.5, -1)])
        yield (1 / k if rng.random() < 0.3 else k, rng.randint(2, 36),
               rng.choice([24, 53, 96, 128, 256]))


@pytest.mark.parametrize("args", list(_seeded_builds(40)), ids=str)
def test_seeds_build_the_levinson_tables(args, monkeypatch):
    # each build gives the same integer table, or the same exception type
    # and location, with its seeds from the recurrences or from the minors
    def build():
        try:
            return _integer_table(_plan(*args))
        except PrecisionExhausted as err:
            return err.where

    fast = build()
    monkeypatch.setattr(correlations, "diagonal_seeds", _levinson_seeds)
    assert build() == fast


def test_seeds_suite_sees_a_lost_guard(monkeypatch):
    from isingchi import verify

    rows = verify.run_suite("seeds").rows
    assert [r.identity for r in rows] == ["seeds-vs-toeplitz-C",
                                          "seeds-vs-toeplitz-Cbar"]
    assert all(r.passed and r.tolerance == 2.0 ** -296 for r in rows)
    # seeds off by 2^-260 relative, as the recurrences read at (0.0718, 24)
    # with one seeds guard, (R + 3) log2(1/k), in place of two, fail the C
    # row and leave C_bar's alone
    seeds = correlations.diagonal_seeds

    def coarse(plan):
        c, cbar, bits = seeds(plan)
        return [x + (x >> 260) for x in c], cbar, bits

    monkeypatch.setattr(verify, "diagonal_seeds", coarse)
    assert [r.passed for r in verify.run_suite("seeds").rows] == [False, True]
