import math

import numpy as np
import pytest

from isingchi import EllipticDomainError, coupling_pair, quarter_period
from isingchi.verify import run_suite


def _rand_crossing(rng):
    k = rng.uniform(0.05, 0.95)
    return k, rng.uniform(0.02, 0.98) * quarter_period(k)


def test_product_rule_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        k, d = _rand_crossing(rng)
        K, K_bar = coupling_pair(d, k)
        assert math.sinh(2 * K) * math.sinh(2 * K_bar) == pytest.approx(
            k, abs=1e-12)


def test_couplings_positive():
    rng = np.random.default_rng(12)
    for _ in range(100):
        k, d = _rand_crossing(rng)
        K, K_bar = coupling_pair(d, k)
        assert K > 0
        assert K_bar > 0


def test_orientation_flip_swaps_pair():
    # a reversed line sees the complementary difference K(k') - d
    rng = np.random.default_rng(13)
    for _ in range(100):
        k, d = _rand_crossing(rng)
        K, K_bar = coupling_pair(d, k)
        flip_K, flip_K_bar = coupling_pair(quarter_period(k) - d, k)
        assert flip_K == pytest.approx(K_bar, abs=1e-12)
        assert flip_K_bar == pytest.approx(K, abs=1e-12)


def test_rapidity_strip_domain():
    span = quarter_period(0.5)
    for d in (0.0, -0.5, span, span * 1.5, math.inf, -math.inf, math.nan):
        with pytest.raises(EllipticDomainError, match="outside"):
            coupling_pair(d, 0.5)
    for k in (0.0, 1.0, math.nan):
        with pytest.raises(EllipticDomainError, match="modulus"):
            coupling_pair(0.5, k)


def test_dual_couplings_multiply_to_k():
    # the two members of a crossing pair are each other's duals up to the
    # modulus: sinh 2K sinh 2K_bar = k, so K_bar is the Kramers-Wannier dual
    # of K (sinh 2K* = 1 / sinh 2K) only at k = 1
    K, K_bar = coupling_pair(0.5, 0.7)
    dual_K = math.asinh(1 / math.sinh(2 * K)) / 2
    assert math.sinh(2 * K_bar) / math.sinh(2 * dual_K) == pytest.approx(
        0.7, rel=1e-12)


def _couplings_rows():
    return {r.identity: r for r in run_suite("couplings").rows}


def test_couplings_row_names_and_order():
    # the benchmark's verify check matches these names by prefix
    rows = run_suite("couplings").rows
    assert [r.identity for r in rows] == ["product-rule", "orientation-flip"]
    assert all(r.passed for r in rows)


def test_flip_row_catches_a_wrong_quarter_period(monkeypatch):
    # product-rule holds by construction (k sc cs = k) and cannot see it
    exact = quarter_period
    monkeypatch.setattr("isingchi.verify.quarter_period",
                        lambda k: exact(k) * (1 + 1e-9))
    rows = _couplings_rows()
    assert rows["product-rule"].passed
    assert not rows["orientation-flip"].passed


def test_flip_row_catches_a_wrong_cn(monkeypatch):
    from isingchi.elliptic import jacobi_elliptic

    def off(u, k):
        sn, cn = jacobi_elliptic(u, k)
        return sn, cn * (1 + 1e-9)

    monkeypatch.setattr("isingchi.couplings.jacobi_elliptic", off)
    assert not _couplings_rows()["orientation-flip"].passed
