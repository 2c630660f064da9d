import math

import numpy as np
import pytest

from isingchi import (
    EllipticDomainError,
    RapidityLine,
    coupling_pair,
    make_modulus,
    orientation_flip,
)


def _rand_crossing(rng):
    k = rng.uniform(0.05, 0.95)
    mod = make_modulus(k)
    u2 = rng.uniform(-2.0, 2.0)
    u1 = u2 + rng.uniform(0.02, 0.98) * float(mod.big_K_prime)
    return k, mod, u1, u2


def test_product_rule_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        k, mod, u1, u2 = _rand_crossing(rng)
        pair = coupling_pair(u1, u2, mod)
        prod = math.sinh(2 * float(pair.K)) * math.sinh(2 * float(pair.K_bar))
        assert prod == pytest.approx(k, abs=1e-12)


def test_couplings_positive():
    rng = np.random.default_rng(12)
    for _ in range(100):
        _, mod, u1, u2 = _rand_crossing(rng)
        pair = coupling_pair(u1, u2, mod)
        assert float(pair.K) > 0
        assert float(pair.K_bar) > 0


def test_orientation_flip_swaps_pair():
    rng = np.random.default_rng(13)
    for _ in range(100):
        _, mod, u1, u2 = _rand_crossing(rng)
        pair = coupling_pair(u1, u2, mod)
        flipped = coupling_pair(orientation_flip(RapidityLine(id=1, u=u1)),
                                u2, mod)
        assert float(flipped.K) == pytest.approx(float(pair.K_bar), abs=1e-12)
        assert float(flipped.K_bar) == pytest.approx(float(pair.K), abs=1e-12)


def test_flip_is_involutive_and_pure():
    line = RapidityLine(id=3, u=0.25)
    once = orientation_flip(line)
    twice = orientation_flip(once)
    assert line.reversed is False
    assert once.reversed is True
    assert twice == line
    assert once.u == line.u


def test_both_reversed_cancels():
    mod = make_modulus(0.4)
    u1, u2 = 0.9, 0.1
    pair = coupling_pair(u1, u2, mod)
    both = coupling_pair(orientation_flip(RapidityLine(id=1, u=u1)),
                         orientation_flip(RapidityLine(id=2, u=u2)), mod)
    assert float(both.K) == pytest.approx(float(pair.K), rel=1e-13)
    assert float(both.K_bar) == pytest.approx(float(pair.K_bar), rel=1e-13)


def test_rapidity_strip_domain():
    mod = make_modulus(0.5)
    span = float(mod.big_K_prime)
    with pytest.raises(EllipticDomainError):
        coupling_pair(0.0, 0.0, mod)
    with pytest.raises(EllipticDomainError):
        coupling_pair(0.0, 0.5, mod)
    with pytest.raises(EllipticDomainError):
        coupling_pair(span * 1.5, 0.0, mod)
    for u1, u2 in ((math.inf, 0.0), (0.5, -math.inf), (math.nan, 0.0)):
        with pytest.raises(EllipticDomainError, match="outside"):
            coupling_pair(u1, u2, mod)


def test_dual_couplings_multiply_to_k():
    # the two members of a crossing pair are each other's duals up to the
    # modulus: sinh 2K sinh 2K_bar = k, so K_bar is the Kramers-Wannier dual
    # of K (sinh 2K* = 1 / sinh 2K) only at k = 1
    mod = make_modulus(0.7)
    pair = coupling_pair(0.6, 0.1, mod)
    dual_K = math.asinh(1 / math.sinh(2 * float(pair.K))) / 2
    prod = math.sinh(2 * float(pair.K_bar)) / math.sinh(2 * dual_K)
    assert prod == pytest.approx(0.7, rel=1e-12)
