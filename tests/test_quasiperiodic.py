import math

import numpy as np
import pytest

from isingchi import (
    FibonacciSpec,
    WindowRangeError,
    autocorrelation,
    fib_bits,
    sign_sequence,
)


def test_golden_prefix():
    spec = FibonacciSpec(j=0, gamma=0.0)
    want = [0, 1, 0, 1, 1, 0, 1, 0, 1, 1, 0, 1, 1]
    assert fib_bits(spec, len(want)).tolist() == want


def test_metallic_means_solve_quadratic():
    # alpha^2 - (j+1) alpha - 1 = 0
    for j in range(6):
        a = FibonacciSpec(j=j).alpha
        assert a * a - (j + 1) * a - 1 == pytest.approx(0.0, abs=1e-12)
    assert FibonacciSpec(j=0).alpha == pytest.approx((1 + math.sqrt(5)) / 2,
                                                     rel=1e-15)
    with pytest.raises(ValueError):
        FibonacciSpec(j=-1)


def test_bit_frequency_tracks_inverse_alpha():
    N = 100_000
    for j in (0, 1, 2):
        for gamma in (0.0, 0.37):
            spec = FibonacciSpec(j=j, gamma=gamma)
            ones = int(fib_bits(spec, N).sum())
            assert abs(ones / N - 1 / spec.alpha) <= 2 / N


def test_in_place_bits_match_direct_expressions():
    N = 100_000
    for j in (0, 1, 2):
        for gamma in (0.0, 0.3):
            spec = FibonacciSpec(j=j, gamma=gamma)
            n = np.arange(N + 1, dtype=np.float64)
            bits = np.diff(np.floor(spec.gamma + n / spec.alpha)).astype(np.int64)
            signs = np.where(bits == 0, 1, -1).astype(np.int8)
            assert np.array_equal(fib_bits(spec, N), bits)
            assert np.array_equal(sign_sequence(spec, N), signs)
            assert sign_sequence(spec, N).dtype == np.int8


def test_spec_validation():
    with pytest.raises(ValueError):
        FibonacciSpec(j=-2)
    with pytest.raises(ValueError):
        FibonacciSpec(j=0, gamma=1.0)
    with pytest.raises(ValueError):
        FibonacciSpec(j=0, gamma=-0.1)


def test_sign_sequence_values_and_map():
    spec = FibonacciSpec(j=0)
    signs = sign_sequence(spec, 500)
    assert signs.dtype == np.int8
    assert signs.shape == (500,)
    # bit 0 maps to +1 and bit 1 to -1, so the golden word starts +1, -1
    assert signs.tolist() == (1 - 2 * fib_bits(spec, 500)).tolist()
    assert signs[:2].tolist() == [1, -1]

    # constant signs, the uniform model, correlate perfectly at every lag
    kappa = autocorrelation(np.ones(500, np.int8), 100)
    assert np.all(kappa == 1.0)

    with pytest.raises(ValueError):
        sign_sequence(spec, 0)


def test_autocorrelation_basics():
    signs = sign_sequence(FibonacciSpec(j=0), 20_000)
    kappa = autocorrelation(signs, 50)
    assert kappa[0] == 1.0
    assert np.max(np.abs(kappa)) <= 1.0
    # quasiperiodic order: strong revivals at Fibonacci lags
    assert kappa[13] > 0.5
    with pytest.raises(WindowRangeError):
        autocorrelation(signs, 10_000)
    with pytest.raises(ValueError):
        autocorrelation(signs, -1)


def test_autocorrelation_against_direct_mean():
    signs = sign_sequence(FibonacciSpec(j=2, gamma=0.1), 3000)
    kappa = autocorrelation(signs, 7)
    s = signs.astype(float)
    for d in range(8):
        direct = float(np.mean(s[:3000 - d] * s[d:]))
        assert kappa[d] == pytest.approx(direct, abs=1e-14)
