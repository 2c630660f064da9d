import math

import mpmath
import numpy as np
import pytest
from mpmath import mp

import isingchi.correlations as correlations
import isingchi.verify as verify
from isingchi import (
    EllipticDomainError,
    complete_elliptic_K,
    coupling_pair,
    jacobi_elliptic,
    quarter_period,
)
from isingchi.elliptic import agm
from isingchi.verify import run_suite


def _mpf_landen(u, k):
    """jacobi_elliptic's Landen descent in mpf, without the argument checks."""
    u = mp.mpf(u)
    k = mp.mpf(k)
    tol = mp.mpf(2) ** (4 - mp.prec)
    a, b, c = mp.one, mp.sqrt(1 - k * k), k
    scale = [(a, c)]
    while abs(c) > tol * a:
        a, b, c = (a + b) / 2, mp.sqrt(a * b), (a - b) / 2
        scale.append((a, c))
    n_top = len(scale) - 1
    phi = scale[n_top][0] * u * mp.mpf(2) ** n_top
    for a_n, c_n in reversed(scale[1:]):
        phi = (phi + mp.asin(c_n / a_n * mp.sin(phi))) / 2
    return mp.sin(phi), mp.cos(phi)


def _landen_sweep():
    """Seeded (u, k) cases: the bulk, tiny k, odd quarter periods."""
    rng = np.random.default_rng(15)
    cases = []
    for _ in range(400):
        k = rng.uniform(0.0, 0.999)
        K = float(complete_elliptic_K(k))
        cases.append((rng.uniform(-4 * K, 4 * K), k))
    for k in (0.0, 1e-20):  # c_0 = k is below the stopping tolerance
        cases += [(u, k) for u in rng.uniform(-7.0, 7.0, 30)]
    for _ in range(100):  # within 1e-9 of a zero of cn
        k = rng.uniform(0.01, 0.999)
        odd = 2 * int(rng.integers(-2, 2)) + 1
        u = odd * float(complete_elliptic_K(k)) + rng.uniform(-1e-9, 1e-9)
        cases.append((u, k))
    return cases


def test_agm_basics():
    bits = 200
    one = 1 << bits
    # k = 0: AGM(1, 1) = 1, and every c_n vanishes
    assert agm(0, bits) == (one, 0)
    # the same M and S at 100 and 200 bits, to a few units at 2^-100
    for k in (0.05, 0.5, 0.95):
        num, den = k.as_integer_ratio()
        coarse = agm((num << 100) // den, 100)
        fine = agm((num << bits) // den, bits)
        for x, y in zip(coarse, fine):
            assert abs(x - (y >> 100)) <= 16
    # Gauss's constant AGM(1, sqrt 2) = sqrt 2 AGM(1, k') at k = 1/sqrt 2
    m, _ = agm(math.isqrt(one * one // 2), bits)
    assert math.sqrt(2) * m / one == pytest.approx(1.1981402347355923,
                                                   abs=1e-14)
    with pytest.raises(EllipticDomainError):
        agm(one, bits)


@pytest.mark.parametrize("k", [0.05, 0.3, 0.5, 0.777, 0.95, 0.9999])
def test_agm_gives_K_and_E(k):
    # K = pi / (2 M) and E = (1 - S) K against mpmath at 256 bits
    bits = 256
    num, den = k.as_integer_ratio()
    m, s = agm((num << bits) // den, bits)
    with mp.workprec(bits):
        k2 = mp.mpf(k) ** 2
        K = mp.pi / (2 * mp.ldexp(m, -bits))
        assert abs(K / mp.ellipk(k2) - 1) < mp.mpf(2) ** -240
        E = (1 - mp.ldexp(s, -bits)) * K
        assert abs(E / mp.ellipe(k2) - 1) < mp.mpf(2) ** -240


def test_K_at_zero_and_growth():
    assert float(complete_elliptic_K(0.0)) == pytest.approx(math.pi / 2,
                                                            abs=1e-15)
    ks = [0.1, 0.3, 0.5, 0.7, 0.9, 0.99]
    vals = [float(complete_elliptic_K(k)) for k in ks]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_K_against_mpmath():
    for k in (0.05, 0.3, 0.5, 0.777, 0.95, 0.9999):
        ref = float(mpmath.ellipk(k * k))
        assert float(complete_elliptic_K(k)) == pytest.approx(ref, rel=1e-14)


def test_K_domain():
    with pytest.raises(EllipticDomainError):
        complete_elliptic_K(1.0)
    with pytest.raises(EllipticDomainError):
        complete_elliptic_K(-0.25)


def _elliptic_rows():
    return {r.identity: r for r in run_suite("elliptic").rows}


def test_elliptic_row_names_and_order():
    # the benchmark's verify check matches these names by prefix
    rows = run_suite("elliptic").rows
    assert [r.identity for r in rows] == ["K-at-zero", "K-vs-hypergeometric",
                                          "legendre-pi", "legendre-pi"]
    assert [r.location.split()[1] for r in rows[2:]] == ["b=1500", "b=579"]
    assert all(r.passed for r in rows)


def test_legendre_rows_take_a_tolerance_override():
    # an override allows a gap of that size, which no float holds at 2^-1500
    loose, exact = (run_suite("elliptic", tolerance=t).rows[2:] for t in (1e-6, 0))
    assert [r.tolerance for r in loose] == [1500 + math.log2(1e-6),
                                            579 + math.log2(1e-6)]
    assert all(r.passed for r in loose)
    assert [r.tolerance for r in exact] == [0.0, 0.0]
    assert not any(r.passed for r in exact)


def test_machin_pi_is_the_floor_of_pi():
    with mp.workprec(1600):
        assert verify._machin_pi(1500) == int(mpmath.floor(mp.pi * 2 ** 1500))


@pytest.mark.parametrize("mutation", ["weight", "last-mean"])
def test_legendre_rows_catch_a_wrong_agm(mutation, monkeypatch):
    # the agm the legendre-pi rows call, with c_n^2 weighted by 2^(n-1)
    # instead of 2^n, or with an error of 2^(bits/3) in the last mean
    def wrong_agm(k, bits):
        one = 1 << bits
        a, b, c, n = one, math.isqrt(one * one - k * k), k, 0
        s = k * k
        while c:
            a, b, c, n = (a + b) >> 1, math.isqrt(a * b), (a - b) >> 1, n + 1
            s += c * c << (n - 1 if mutation == "weight" else n)
        m = (a + b) >> 1
        return m + (1 << bits // 3 if mutation == "last-mean" else 0), s >> bits + 1

    monkeypatch.setattr("isingchi.verify.agm", wrong_agm)
    rows = run_suite("elliptic").rows[2:]
    assert not any(r.passed for r in rows)
    assert min(r.residual for r in rows) > 150


def test_legendre_bits_reach_the_widest_build(monkeypatch):
    # the narrower legendre-pi width is the widest agm of every other suite
    widths, agm_of_builds = [], correlations.agm

    def counting_agm(k, bits):
        widths.append(bits)
        return agm_of_builds(k, bits)

    monkeypatch.setattr("isingchi.correlations.agm", counting_agm)
    for name in verify.SUITES:
        if name != "elliptic":
            run_suite(name)
    assert max(widths) == verify._LEGENDRE_BITS[1]


def test_K_row_catches_a_wrong_K(monkeypatch):
    exact = complete_elliptic_K
    with monkeypatch.context() as patch:
        patch.setattr("isingchi.verify.complete_elliptic_K",
                      lambda m: exact(m) * (1 + 1e-11) if m > 0 else exact(m))
        rows = _elliptic_rows()
        assert rows["K-at-zero"].passed
        assert not rows["K-vs-hypergeometric"].passed
    # a broken AGM fails the row too, so the reference does not use it; the
    # arithmetic mean (1 + k')/2 is right only at AGM(1, 1), i.e. at m = 0
    def arithmetic_mean(k, bits):
        return ((1 << bits) + math.isqrt((1 << 2 * bits) - k * k)) >> 1, 0

    with monkeypatch.context() as patch:
        patch.setattr("isingchi.elliptic.agm", arithmetic_mean)
        rows = _elliptic_rows()
        assert rows["K-at-zero"].passed
        assert not rows["K-vs-hypergeometric"].passed


def test_jacobi_special_points():
    k = 0.6
    assert jacobi_elliptic(0.0, k) == (0.0, 1.0)

    sn, cn = jacobi_elliptic(complete_elliptic_K(k), k)
    assert sn == pytest.approx(1.0, abs=1e-13)
    assert cn == pytest.approx(0.0, abs=1e-13)


def test_jacobi_identities_random():
    rng = np.random.default_rng(7)
    for _ in range(300):
        k = rng.uniform(0.01, 0.99)
        u = rng.uniform(-4.0, 4.0)
        sn, cn = jacobi_elliptic(u, k)
        assert sn * sn + cn * cn == pytest.approx(1.0, abs=1e-12)


def test_jacobi_against_mpmath():
    rng = np.random.default_rng(8)
    for _ in range(40):
        k = rng.uniform(0.05, 0.95)
        u = rng.uniform(-3.0, 3.0)
        sn, cn = jacobi_elliptic(u, k)
        m = k * k
        assert sn == pytest.approx(float(mpmath.ellipfun("sn", u, m)), abs=1e-12)
        assert cn == pytest.approx(float(mpmath.ellipfun("cn", u, m)), abs=1e-12)


def test_sc_cs_and_poles():
    k = 0.4
    sn, cn = jacobi_elliptic(0.37, k)
    # sc * cs == 1 wherever both are finite
    assert float((sn / cn) * (cn / sn)) == pytest.approx(1.0, rel=1e-13)
    # the poles are exact zeros only at u = 0: sn(0) = 0 exactly, while
    # cn(K) merely underflows to ~6e-17 and sc stays finite
    sn, _ = jacobi_elliptic(0.0, k)
    assert sn == 0
    _, cn = jacobi_elliptic(complete_elliptic_K(k), k)
    assert cn != 0 and abs(float(cn)) < 1e-12


def test_half_argument_on_conjugate_modulus():
    # sc(K'/2, k') = 1/sqrt(k), so the crossing at d = K'/2 is symmetric:
    # sinh 2K = k sc = sqrt(k) and sinh 2K_bar = cs = sqrt(k)
    for k in (0.2, 0.5, 0.83):
        K, K_bar = coupling_pair(quarter_period(k) / 2, k)
        assert math.sinh(2 * K) == pytest.approx(math.sqrt(k), rel=1e-12)
        assert math.sinh(2 * K_bar) == pytest.approx(math.sqrt(k), rel=1e-12)


def test_sn_periodicity():
    k = 0.7
    four_K = 4 * complete_elliptic_K(k)
    for u in (-1.3, 0.24, 2.9):
        a, _ = jacobi_elliptic(u, k)
        b, _ = jacobi_elliptic(u + float(four_K), k)
        assert float(a) == pytest.approx(float(b), abs=1e-10)


def test_K_near_singular_modulus():
    # logarithmic blow-up as k -> 1
    assert float(complete_elliptic_K(1 - 1e-12)) > 14


def test_quarter_period_is_a_float_at_any_precision():
    span = quarter_period(0.5)
    assert type(span) is float
    assert span == pytest.approx(float(complete_elliptic_K(math.sqrt(0.75))),
                                 rel=1e-14)
    with mp.workprec(256):
        assert quarter_period(0.5) == span


def _mpf_53_bit_K(kp):
    """K(kp) by an AGM in 53-bit mpf arithmetic: the stopping rule
    |a - b| < 2^-49 a, capped at 22 steps, and pi / (2 AGM(1, sqrt(1 - kp^2)))."""
    with mp.workprec(53):
        a, b = mp.one, mp.sqrt(1 - kp * kp)
        tol = mp.mpf(2) ** (4 - mp.prec)
        for _ in range(mp.prec.bit_length() + 16):
            if abs(a - b) < tol * a:
                break
            a, b = (a + b) / 2, mp.sqrt(a * b)
        return mp.pi / (2 * ((a + b) / 2))


def test_quarter_period_is_53_bit_complete_K():
    # the float AGM rounds every step as 53-bit mpf does, so it agrees
    # with a 53-bit mpf K bit for bit, out to both ends of (0, 1)
    rng = np.random.default_rng(2026)
    ks = np.concatenate([rng.uniform(0.0, 1.0, 2000),
                         10.0 ** rng.uniform(-7.9, -1.0, 300),
                         1 - 10.0 ** rng.uniform(-15.0, -1.0, 300)])
    with mp.workprec(53):
        for k in ks[(ks > 0) & (ks < 1)]:
            kp = mp.sqrt(1 - mp.mpf(k) ** 2)
            assert quarter_period(k) == float(_mpf_53_bit_K(kp)), k


def test_quarter_period_domain():
    for bad in (0.0, 1.0, -0.3, 1.7, math.nan):
        with pytest.raises(EllipticDomainError):
            quarter_period(bad)
    # k' rounds to 1, where K(k') diverges: the message names the k given
    with pytest.raises(EllipticDomainError, match="k = 1e-09.*rounds to 1"):
        quarter_period(1e-9)


def test_float_port_matches_mpf_landen():
    cases = _landen_sweep()
    with mp.workprec(53):
        for u, k in cases:
            got = jacobi_elliptic(u, k)
            old = [float(v) for v in _mpf_landen(u, k)]
            for x, y in zip(got, old):
                assert abs(x - y) <= 4e-16 * max(1.0, abs(y)), (u, k)


def test_jacobi_against_80_bit_ellipfun():
    # The phase inherits a double's rounding of the quarter period, so
    # the error grows with |u|
    cases = _landen_sweep()[::2]
    with mp.workprec(80):
        for u, k in cases:
            m = mp.mpf(k) ** 2
            tol = 1e-14 * max(1.0, abs(u) / 4)
            for name, got in zip(("sn", "cn"), jacobi_elliptic(u, k)):
                ref = float(mp.ellipfun(name, mp.mpf(u), m))
                assert abs(got - ref) <= tol, (name, u, k)


def test_jacobi_is_double_precision_at_any_mp_precision():
    cases = [(0.83, 0.37), (-2.5, 0.9), (1e-3, 0.0)]
    plain = [jacobi_elliptic(u, k) for u, k in cases]
    pair = coupling_pair(0.7, 0.37)
    assert all(type(v) is float for v in (*sum(plain, ()), *pair))
    with mp.workprec(256):
        assert [jacobi_elliptic(u, k) for u, k in cases] == plain
        assert coupling_pair(0.7, 0.37) == pair


def test_jacobi_rejects_non_finite_input():
    for u, k in ((math.inf, 0.5), (-math.inf, 0.5), (math.nan, 0.5),
                 (0.3, math.nan), (0.3, math.inf)):
        with pytest.raises(EllipticDomainError):
            jacobi_elliptic(u, k)
