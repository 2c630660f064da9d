"""Generalized Fibonacci bit sequences and column-gauge sign strings.

The bit at position n is the floor difference

    p_j(n) = floor(gamma + (n+1)/alpha_j) - floor(gamma + n/alpha_j)

with alpha_j the metallic mean ((j+1) + sqrt((j+1)^2 + 4))/2; j = 0 gives
the golden ratio and the classic Fibonacci word.  Mapping bits to signs
and flipping lattice columns where the sign is -1 builds quasiperiodic
mixed-coupling models out of the uniform one by pure gauge, so their
susceptibility needs nothing beyond the uniform correlation table and the
sign autocorrelation computed here.
"""

import math
from collections import namedtuple

import numpy as np

__all__ = [
    "FibonacciSpec",
    "WindowRangeError",
    "autocorrelation",
    "fib_bits",
    "sign_sequence",
]


class WindowRangeError(IndexError):
    """Requested lag range exceeds what the materialized window supports."""


class FibonacciSpec(namedtuple("FibonacciSpec", "j gamma")):
    """Family index j and phase offset gamma of a generalized Fibonacci word."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates

    def __new__(cls, j, gamma=0.0):
        self = super().__new__(cls, j, gamma)
        if self.j < 0 or self.j != int(self.j):
            raise ValueError("j must be a non-negative integer, got %r"
                             % (self.j,))
        if not 0 <= self.gamma < 1:
            raise ValueError("gamma must lie in [0, 1), got %r" % (self.gamma,))
        return self

    @property
    def alpha(self):
        """The metallic mean alpha_j; alpha_0 is the golden ratio."""
        return ((self.j + 1) + math.sqrt((self.j + 1) ** 2 + 4)) / 2


def fib_bits(spec, count):
    """Bits 0..count-1 as an int8 array, values in {0, 1}.

    The defining line has slope 1/alpha < 1, so consecutive floors differ
    by 0 or 1 and nothing else.  The floors are formed in place, so the
    peak memory is one float64 array and its difference.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    floors = np.arange(count + 1, dtype=np.float64)
    floors /= spec.alpha
    floors += spec.gamma
    np.floor(floors, out=floors)
    return np.diff(floors).astype(np.int8)


def sign_sequence(spec, N):
    """Signs s(n), n = 0..N-1, as int8: bit 0 maps to +1 and bit 1 to -1."""
    if N < 1:
        raise ValueError("window length must be at least 1, got %r" % (N,))
    return 1 - 2 * fib_bits(spec, N)


def autocorrelation(signs, delta_max):
    """kappa(Delta) = mean of s(n) s(n+Delta), Delta = 0..delta_max.

    Each lag is normalized over its own N - Delta products, which keeps
    every estimate unbiased; the window N = len(signs) must be comfortably
    longer than the largest lag, enforced as delta_max < N/2.
    """
    n = len(signs)
    if delta_max < 0:
        raise ValueError("delta_max must be non-negative")
    if delta_max >= n / 2:
        raise WindowRangeError(
            "delta_max %d needs a window longer than %d, have %d"
            % (delta_max, 2 * delta_max, n))
    s = np.asarray(signs, dtype=np.float64)
    out = np.empty(delta_max + 1)
    for d in range(delta_max + 1):
        out[d] = float(s[:n - d] @ s[d:n]) / (n - d)
    return out
