"""Complete elliptic integrals and the Jacobi functions sn and cn.

Everything here is built on the arithmetic-geometric mean.  The AGM and
K follow the precision of the ambient mpmath context (wrap calls in
``mpmath.workprec(bits)``), since table seeds need hundreds of bits;
jacobi_elliptic is float64 at any mpmath precision.
"""

import math

from mpmath import mp

__all__ = [
    "EllipticDomainError",
    "agm",
    "complete_elliptic_K",
    "jacobi_elliptic",
]


class EllipticDomainError(ValueError):
    """Argument outside the domain where an elliptic routine is defined."""


def agm(a, b):
    """Arithmetic-geometric mean of two positive reals.

    Iterates until |a_n - b_n| < 2^-(prec-4) * a_n at the current working
    precision.  Convergence is quadratic, so the loop is short even at
    hundreds of bits.
    """
    a = mp.mpf(a)
    b = mp.mpf(b)
    if a <= 0 or b <= 0:
        raise EllipticDomainError("agm requires positive arguments, got (%s, %s)" % (a, b))
    tol = mp.mpf(2) ** (4 - mp.prec)
    for _ in range(mp.prec.bit_length() + 16):
        if abs(a - b) < tol * a:
            break
        a, b = (a + b) / 2, mp.sqrt(a * b)
    return (a + b) / 2


def complete_elliptic_K(m):
    """Complete elliptic integral K(m), m being the modulus.

    K(m) = integral_0^{pi/2} dtheta / sqrt(1 - m^2 sin^2 theta), computed
    as pi / (2 agm(1, sqrt(1 - m^2))).  Monotone increasing on [0, 1),
    diverging logarithmically as m -> 1.
    """
    m = mp.mpf(m)
    if not (0 <= m < 1):
        raise EllipticDomainError("modulus must lie in [0, 1), got %s" % m)
    return mp.pi / (2 * agm(mp.one, mp.sqrt(1 - m * m)))


def jacobi_elliptic(u, k):
    """Jacobi sn and cn of real argument u at modulus k, 0 <= k < 1.

    Descending Landen transformation in float64: run the AGM scale
    sequence (a_n, b_n, c_n) down until c_N is negligible, seed the
    amplitude phi_N = 2^N a_N u, then recover phi_{n-1} from
    sin(2 phi_{n-1} - phi_n) = (c_n / a_n) sin phi_n down to phi_0 = am u.
    """
    u, k = float(u), float(k)
    if not (math.isfinite(u) and 0 <= k < 1):
        raise EllipticDomainError(
            "need a finite u and a modulus in [0, 1), got (%r, %r)" % (u, k))

    a, b, c = 1.0, math.sqrt(1 - k * k), k
    scale = [(a, c)]
    while abs(c) > 2.0 ** (4 - 53) * a:
        a, b, c = (a + b) / 2, math.sqrt(a * b), (a - b) / 2
        scale.append((a, c))
        if len(scale) > (53).bit_length() + 16:
            raise ArithmeticError("Landen sequence failed to converge")

    n_top = len(scale) - 1
    phi = scale[n_top][0] * u * 2.0 ** n_top
    for a_n, c_n in reversed(scale[1:]):
        phi = (phi + math.asin(c_n / a_n * math.sin(phi))) / 2
    return math.sin(phi), math.cos(phi)
