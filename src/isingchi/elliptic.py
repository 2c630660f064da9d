"""Complete elliptic integrals and the Jacobi functions sn and cn.

Everything here is built on the arithmetic-geometric mean.  agm runs on
Python integers at any number of bits, since table seeds need hundreds;
complete_elliptic_K and jacobi_elliptic return float64.
"""

import math

__all__ = [
    "EllipticDomainError",
    "agm",
    "complete_elliptic_K",
    "jacobi_elliptic",
]


class EllipticDomainError(ValueError):
    """Argument outside the domain where an elliptic routine is defined."""


def agm(k, bits):
    """M = AGM(1, k') and S = sum_{n >= 0} 2^(n-1) c_n^2, so that K(k) =
    pi / (2 M) and E(k) = (1 - S) K(k) (DLMF 19.8.1 and 19.8.6).

    k, M and S are integers x 2^bits, 0 <= k < 2^bits.  The floored steps
    (a, b, c) -> ((a + b)/2, sqrt(a b), (a - b)/2) from (1, k', k) run until
    c vanishes, a handful of them even at thousands of bits.
    """
    one = 1 << bits
    if not 0 <= k < one:
        raise EllipticDomainError("modulus must lie in [0, 1), got %.8g"
                                  % (k / one))
    a, b, c, n = one, math.isqrt(one * one - k * k), k, 0
    s = k * k  # sum of 2^n c_n^2 at 2^(2 bits)
    while c:
        a, b, c, n = (a + b) >> 1, math.isqrt(a * b), (a - b) >> 1, n + 1
        s += c * c << n
    return (a + b) >> 1, s >> (bits + 1)


def complete_elliptic_K(m):
    """Complete elliptic integral K(m), m being the modulus.

    K(m) = integral_0^{pi/2} dtheta / sqrt(1 - m^2 sin^2 theta), computed
    as pi / (2 AGM(1, sqrt(1 - m^2))), with agm at 96 bits.  Monotone
    increasing on [0, 1), diverging logarithmically as m -> 1.
    """
    m = float(m)
    if not (0 <= m < 1):
        raise EllipticDomainError("modulus must lie in [0, 1), got %r" % m)
    num, den = m.as_integer_ratio()
    M, _ = agm((num << 96) // den, 96)
    return math.pi / (M / 2 ** 95)


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
