"""Couplings from rapidity-line geometry.

A coupling pair sits at the crossing of two oriented rapidity lines.  The
map from the rapidity difference d to the pair is

    sinh 2K     = k sc(d, k'),
    sinh 2K_bar = cs(d, k'),

valid for 0 < d < K(k').  The product sinh 2K sinh 2K_bar equals k for
every d, which is what puts all crossings of the same two line families at
one common modulus.  Reversing exactly one of the two lines shifts its
effective rapidity by the quarter period K(k'), so the crossing sees the
complementary difference K(k') - d; by the quarter-period identities of sc
and cs that interchanges the two members of the pair.

A Modulus carries the k, k' and K(k') the map reads, as Python floats;
make_modulus builds it in double precision at any mpmath precision, and
the map itself runs in float64.  The tables take a bare k.
"""

import math
from dataclasses import dataclass, replace

from .elliptic import EllipticDomainError, jacobi_elliptic

__all__ = [
    "CouplingPair",
    "Modulus",
    "RapidityLine",
    "coupling_pair",
    "make_modulus",
    "orientation_flip",
]


@dataclass(frozen=True)
class Modulus:
    """An elliptic modulus, its complement and K(k'), all Python floats."""

    k: float
    k_prime: float
    big_K_prime: float


def make_modulus(k):
    """Build a Modulus in double precision.

    k must lie strictly inside (0, 1): K(k') diverges at k = 0, and k = 1
    is criticality.  K(k') repeats elliptic.agm's steps, stopping rule and
    cap at 53 bits, where mpf rounds +, -, *, / and sqrt to nearest as IEEE
    doubles do, so it equals complete_elliptic_K(k') bit for bit there.
    """
    k = float(k)
    if not (0 < k < 1):
        raise EllipticDomainError("modulus must lie in (0, 1), got %.8g" % k)
    kp = math.sqrt(1 - k * k)
    if kp == 1:
        raise EllipticDomainError(
            "K(k') diverges at k = %.8g: k' rounds to 1 in double precision" % k)
    a, b = 1.0, math.sqrt(1 - kp * kp)
    for _ in range(22):
        if abs(a - b) < 2.0 ** -49 * a:
            break
        a, b = (a + b) / 2, math.sqrt(a * b)
    return Modulus(k=k, k_prime=kp, big_K_prime=math.pi / (2 * ((a + b) / 2)))


@dataclass(frozen=True)
class RapidityLine:
    """One oriented rapidity line: label, real rapidity, direction flag."""

    id: int
    u: object
    reversed: bool = False


@dataclass(frozen=True)
class CouplingPair:
    """The two couplings generated at a crossing of rapidity lines."""

    K: float
    K_bar: float


def orientation_flip(line):
    """The same rapidity line traversed the other way.

    Only the flag is toggled; the stored rapidity is never mutated.  The
    quarter-period shift the flip implies is applied where the line enters
    a crossing.
    """
    return replace(line, reversed=not line.reversed)


def coupling_pair(u1, u2, mod):
    """Coupling pair at the crossing of two rapidity lines.

    u1 and u2 may be plain rapidity values or RapidityLine instances.  The
    effective difference d = u1 - u2 must fall strictly inside (0, K(k'));
    at the endpoints one member of the pair degenerates (zero or infinite
    coupling), and outside the strip the map changes sign, which the
    positive-coupling correlation machinery does not admit.  With exactly
    one line reversed the crossing sees K(k') - d, which swaps K and K_bar.
    """
    flip = False
    if isinstance(u1, RapidityLine):
        flip ^= u1.reversed
        u1 = u1.u
    if isinstance(u2, RapidityLine):
        flip ^= u2.reversed
        u2 = u2.u
    span = float(mod.big_K_prime)
    d = float(u1) - float(u2)
    if flip:
        d = span - d
    if not (0 < d < span):
        raise EllipticDomainError(
            "rapidity difference %.8g outside (0, K(k')) with K(k') = %.8g"
            % (d, span))
    sn, cn, _ = jacobi_elliptic(d, mod.k_prime)
    if sn == 0 or cn == 0:
        raise EllipticDomainError("sc/cs pole: %s vanishes at d = %s"
                                  % ("sn" if sn == 0 else "cn", d))
    return CouplingPair(K=math.asinh(float(mod.k) * (sn / cn)) / 2,
                        K_bar=math.asinh(cn / sn) / 2)
