"""Couplings from rapidity-line geometry.

A coupling pair sits at the crossing of two oriented rapidity lines and
depends only on their rapidity difference d.  The map is

    sinh 2K     = k sc(d, k'),
    sinh 2K_bar = cs(d, k'),

valid for 0 < d < K(k').  The product sinh 2K sinh 2K_bar equals k for
every d, which is what puts all crossings of the same two line families at
one common modulus.  Reversing exactly one of the two lines takes d to
K(k') - d; by the quarter-period identities of sc and cs that interchanges
the two members of the pair.  Both functions take the bare modulus k and
return Python floats, computed in float64.
"""

import math

from .elliptic import EllipticDomainError, jacobi_elliptic

__all__ = ["coupling_pair", "quarter_period"]


def quarter_period(k):
    """K(k'), the width of the rapidity strip, in double precision.

    k must lie strictly inside (0, 1): K(k') diverges at k = 0, and k = 1
    is criticality.  The AGM rounds as 53-bit mpf arithmetic does.  It
    starts from b = sqrt(1 - k'^2) of the rounded k', which loses bits as
    k -> 0: K(k') is good to 1e-14 relative at k = 0.01, but only to 8e-10
    at k = 1e-4 and 3e-6 at k = 1e-6.
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
    return math.pi / (2 * ((a + b) / 2))


def coupling_pair(d, k):
    """(K, K_bar) at a crossing with rapidity difference d, at modulus k.

    d must fall strictly inside (0, K(k')); at the endpoints one member of
    the pair degenerates (zero or infinite coupling), and outside the strip
    the map changes sign, which the positive-coupling correlation machinery
    does not admit.
    """
    k, d, span = float(k), float(d), quarter_period(k)
    if not (0 < d < span):
        raise EllipticDomainError(
            "rapidity difference %.8g outside (0, K(k')) with K(k') = %.8g"
            % (d, span))
    sn, cn = jacobi_elliptic(d, math.sqrt(1 - k * k))
    if sn == 0 or cn == 0:
        raise EllipticDomainError("sc/cs pole: %s vanishes at d = %s"
                                  % ("sn" if sn == 0 else "cn", d))
    return math.asinh(k * (sn / cn)) / 2, math.asinh(cn / sn) / 2
