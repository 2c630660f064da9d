"""Dual pair-correlation tables built from quadratic recurrences.

Two infinite-lattice correlation families are tabulated side by side:
C(m,n) for the disordered model at sinh 2K = sqrt(k), and C_bar(m,n) for
its ordered dual at sinh 2K = 1/sqrt(k).  The quadratic recurrences couple
the two families, so the build always carries both.

The build proceeds in three stages.  Closed forms fix the nearest
neighbour and, through the linear seed relation

    sqrt(k) C(1,0) + C_bar(0,1) = sqrt(1 + k),

the dual nearest neighbour.  Toeplitz minors of the diagonal symbol,
whose coefficients obey a three-term recurrence, supply C(n,n) and
C_bar(n,n) in O(R^2) by Levinson recursion.  A joint corner/star march
produces the next-to-diagonal entries; all these seeds carry guard bits
and are rounded once.  Superdiagonal sweeps of the two quadratic
recurrences fill the remaining octant.

All arithmetic here runs under mpmath at a configurable precision; the
recurrences cancel catastrophically, losing bits roughly linearly with
distance from the diagonal, so double precision is only good to radius 12
or so.  The star and corner identities are not consumed by the sweep; the
worst residual of these and of the two quadratic recurrences over the
finished octant is recorded as a build-time health figure.
"""

import math
from dataclasses import dataclass

from mpmath import mp

from .elliptic import EllipticDomainError, Modulus, complete_elliptic_K

__all__ = [
    "CorrelationTable",
    "PrecisionExhausted",
    "SeedInconsistency",
    "TableRangeError",
    "build_table",
    "diagonal_seeds",
    "lookup",
    "next_diagonal_seeds",
    "onsager_nn",
]

EPS_CRITICAL = 1e-6
DEFAULT_PRECISION_BITS = 256
_SEED_GUARD_BITS = 64  # carried by the seed stage, then rounded off once

# a divisor in the sweep must keep at least this many significant bits
# relative to full precision before the build is declared hopeless
MIN_DIVISOR_BITS = 8


class PrecisionExhausted(ArithmeticError):
    """The working precision cannot support the requested table.

    Raised when a nearest-neighbour seed or a Toeplitz determinant comes
    out non-positive, a swept entry leaves (0, 1], or a divisor loses
    nearly all of its significant bits.  The remedy is a higher
    precision_bits, not a smaller tolerance.
    """

    def __init__(self, message, where=None):
        if where is not None:
            message = "%s at (m, n) = (%d, %d)" % (message, where[0], where[1])
        super().__init__(message)
        self.where = where


class SeedInconsistency(PrecisionExhausted):
    """The relation left unused by the diagonal march failed to close.

    Inside build_table the seeds carry 64 guard bits, so there it means
    the working precision ran out, and it takes the same remedy.
    """

    def __init__(self, m, residual):
        super().__init__(
            "cross-check relation residual %s at diagonal step m = %d"
            % (mp.nstr(residual, 6), m))
        self.m = m
        self.residual = residual


class TableRangeError(IndexError):
    """Lookup outside the stored radius."""


def _as_k(mod):
    """Accept a Modulus or a bare number; return k at working precision."""
    if isinstance(mod, Modulus):
        return mp.mpf(mod.k)
    return mp.mpf(mod)


def onsager_nn(mod):
    """Nearest-neighbour correlation of the disordered model.

    Classical closed form at sinh 2K = sqrt(k):

        C(1,0) = 1/2 sqrt((1+k)/k) [1 + (2/pi)((k-1)/(k+1)) K(2 sqrt(k)/(1+k))]

    Tends to sqrt(2)/2 as k -> 1 and to sqrt(k)/2 as k -> 0.
    """
    k = _as_k(mod)
    if not 0 < k < 1:
        raise EllipticDomainError("modulus must lie in (0, 1), got %s"
                                  % mp.nstr(k, 8))
    arg = 2 * mp.sqrt(k) / (1 + k)
    bracket = 1 + (2 / mp.pi) * ((k - 1) / (k + 1)) * complete_elliptic_K(arg)
    return mp.sqrt((1 + k) / k) * bracket / 2


def _base_seeds(k):
    """C(1,0) from the closed form, C_bar(0,1) from the linear relation."""
    c10 = onsager_nn(k)
    if not c10 > 0:
        # the closed form cancels to ~sqrt(k)/2, which rounds to 0 at tiny k
        raise PrecisionExhausted("nearest-neighbour seed is not positive; "
                                 "raise precision_bits", where=(1, 0))
    return c10, mp.sqrt(1 + k) - mp.sqrt(k) * c10


def _symbol_coefficients(k, n_top):
    """Laurent coefficients a_j of the diagonal symbol for |j| <= n_top.

    phi(z) = (1 - k/z)^(1/2) (1 - k z)^(-1/2) solves a first-order ODE, so

        k (n + 1/2) a_n = [(1 + k^2)(n - 1) + k^2] a_{n-1} - k (n - 3/2) a_{n-2}

    for every integer n.  From a_0 = 2E/pi and a_{-1} = -2 [E - (1 - k^2) K]
    / (pi k) it runs outward both ways in O(n_top) steps for any k, with
    2 (n_top + 2) log2(1/k) + 32 guard bits against the k^-2|n| growth of
    the unwanted solution.
    """
    guard = int(2 * (n_top + 2) * mp.log(1 / k, 2)) + 32
    with mp.workprec(mp.prec + guard):
        k2 = k * k
        ell_e = mp.ellipe(k2)
        a = {0: 2 * ell_e / mp.pi,
             -1: -2 * (ell_e - (1 - k2) * complete_elliptic_K(k)) / (mp.pi * k)}
        a[1] = (2 * k * a[0] + a[-1]) / 3
        for n in range(2, n_top + 1):
            a[n] = (((1 + k2) * (n - 1) + k2) * a[n - 1]
                    - k * (n - 1.5) * a[n - 2]) / (k * (n + 0.5))
            a[-n] = (((1 + k2) * (1 - n) + k2) * a[1 - n]
                     - k * (2.5 - n) * a[2 - n]) / (k * (0.5 - n))
    return a


def _toeplitz_minors(t, order):
    """Yield det[t(i - j)] of orders 0..order (order >= 1) in O(order^2).

    Nonsymmetric Levinson recursion: f and b are the first and last columns
    of T_n^-1, and det T_{n+1} = det T_n (1 - e_f e_b) / f_0.  A caller can
    stop at a minor it rejects before the division by 1 - e_f e_b.
    """
    det = t(0)
    f = b = [1 / det]
    yield mp.one
    yield det
    for n in range(1, order):
        e_f = mp.fdot((t(n - j) for j in range(n)), f)
        e_b = mp.fdot((t(-1 - j) for j in range(n)), b)
        scale = 1 - e_f * e_b
        det = det * scale / f[0]
        yield det
        f_ext, b_ext = f + [0], [0] + b
        f = [(x - e_f * y) / scale for x, y in zip(f_ext, b_ext)]
        b = [(y - e_b * x) / scale for x, y in zip(f_ext, b_ext)]


def diagonal_seeds(mod, n_max):
    """C(n,n) and C_bar(n,n) for n = 0..n_max via Toeplitz determinants.

    The ordered diagonal is det[a_{i-j}] of order n; the disordered one
    picks up an index shift and an alternating sign, (-1)^n det[a_{i-j-1}].
    Both conventions are frozen against the transfer-matrix oracle.  One
    Levinson recursion per family gives every order in O(n_max^2).  A
    determinant that evaluates non-positive means the working precision
    has been exhausted by cancellation, not that the model is sick.
    """
    k = _as_k(mod)
    if not 0 < k < 1:
        raise EllipticDomainError("modulus must lie in (0, 1), got %s"
                                  % mp.nstr(k, 8))
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    coeff = _symbol_coefficients(k, n_max)
    minors = zip(_toeplitz_minors(coeff.__getitem__, n_max),
                 _toeplitz_minors(lambda j: coeff[j - 1], n_max))
    c_diag, cbar_diag = [], []
    for n, (d_bar, d) in enumerate(minors):
        d *= (-1) ** n
        if d <= 0 or d_bar <= 0:
            raise PrecisionExhausted(
                "Toeplitz determinant of order %d is non-positive; "
                "raise precision_bits" % n, where=(n, n))
        c_diag.append(d)
        cbar_diag.append(d_bar)
    return c_diag, cbar_diag


def next_diagonal_seeds(mod, diag, base):
    """March C(m,m+1), C_bar(m,m+1) up the diagonal.

    At each m the star relation on the diagonal is linear in the unknown
    pair (X, Y) = (C(m,m+1), C_bar(m,m+1)),

        X C_bar(m-1,m) + C(m-1,m) Y = (k+1) C(m,m) C_bar(m,m) / sqrt(k),

    and the corner relation is quadratic,

        k [C(m,m) C(m+1,m+1) - X^2] = C_bar(m,m) C_bar(m+1,m+1) - Y^2.

    Eliminating Y leaves one quadratic in X.  Among its real roots inside
    (0, 1) the one closest to the previous step's value is taken,
    preferring the larger root on a tie: correlations vary smoothly along
    the diagonal.  The quadratic recurrence on the diagonal itself is not
    consumed; its residual is checked and must close to rounding level.
    """
    k = _as_k(mod)
    c_diag, cbar_diag = diag
    c10, cbar01 = base
    rk = mp.sqrt(k)
    n_max = len(c_diag) - 1
    check_tol = max(mp.mpf(10) ** (-(mp.prec // 4)), mp.mpf(2) ** (8 - mp.prec))

    c_next = [mp.mpf(c10)]
    cbar_next = [mp.mpf(cbar01)]
    for m in range(1, n_max):
        a, b = c_next[m - 1], cbar_next[m - 1]
        cm, cbm = c_diag[m], cbar_diag[m]
        d = c_diag[m] * c_diag[m + 1]
        d_bar = cbar_diag[m] * cbar_diag[m + 1]
        p = (k + 1) * cm * cbm / rk

        a2 = b * b - k * a * a
        a1 = -2 * p * b
        a0 = k * a * a * d - a * a * d_bar + p * p
        if abs(a2) < mp.mpf(2) ** (MIN_DIVISOR_BITS - mp.prec):
            roots = [-a0 / a1]
        else:
            disc = a1 * a1 - 4 * a2 * a0
            if disc < 0:
                raise PrecisionExhausted(
                    "no real root in the diagonal march; raise precision_bits",
                    where=(m, m + 1))
            sq = mp.sqrt(disc)
            roots = [(-a1 + sq) / (2 * a2), (-a1 - sq) / (2 * a2)]

        inside = [r for r in roots if 0 < r < 1]
        if not inside:
            raise PrecisionExhausted(
                "no admissible positive root in the diagonal march; "
                "raise precision_bits", where=(m, m + 1))
        prev = c_next[m - 1]
        # closest to the previous value; ties break toward the larger root
        x = min(sorted(inside, reverse=True), key=lambda r: abs(r - prev))
        y = (p - b * x) / a

        residual = abs(k * (a * x - cm * cm) + (b * y - cbm * cbm))
        if residual > check_tol:
            raise SeedInconsistency(m, residual)
        c_next.append(x)
        cbar_next.append(y)
    return c_next, cbar_next


@dataclass(frozen=True)
class CorrelationTable:
    """A finished octant of C and C_bar values, immutable once built.

    C and C_bar are full (radius+1)-square nested tuples, symmetric in
    (m, n); entries are mpmath reals at precision_bits.  k_requested keeps
    the caller's modulus; a modulus above 1 was served through the
    duality swap, at 1/k_requested.  residual_report is the worst
    identity residual (corner, star, quadratic) seen over the finished
    octant.
    """

    radius: int
    C: tuple
    C_bar: tuple
    precision_bits: int
    residual_report: float
    k_requested: float

    @property
    def swapped(self):
        return self.k_requested > 1


def lookup(table, m, n, which="C"):
    """Symmetry-reduced table access: C(m,n) = C(n,m) = C(|m|,|n|).

    which selects the family, "C" or "Cbar".  Values come back as floats;
    the full-precision entries stay available on the table itself.
    """
    i, j = abs(int(m)), abs(int(n))
    if i > table.radius or j > table.radius:
        raise TableRangeError(
            "(%d, %d) outside table radius %d" % (m, n, table.radius))
    if which == "C":
        return float(table.C[i][j])
    if which == "Cbar":
        return float(table.C_bar[i][j])
    raise ValueError("which must be 'C' or 'Cbar', got %r" % (which,))


def _identity_residuals(k, c, cb, m, n):
    """Residuals of the four pair identities at (m, n), keyed by name.

    c and cb are (i, j) accessors for C and C_bar that fold negative
    indices by symmetry; k may be an mpf or a float.  The corner
    determinant holds everywhere including the origin; the two quadratic
    recurrences and the star relation exclude it, where they provably
    fail, so only the corner residual is returned there.
    """
    corner = (k * (c(m, n) * c(m + 1, n + 1) - c(m, n + 1) * c(m + 1, n))
              - (cb(m, n) * cb(m + 1, n + 1) - cb(m, n + 1) * cb(m + 1, n)))
    if m == 0 and n == 0:
        return {"corner-determinant": corner}
    return {
        "quad-recurrence-y": (k * (c(m, n + 1) * c(m, n - 1) - c(m, n) ** 2)
                              + (cb(m + 1, n) * cb(m - 1, n) - cb(m, n) ** 2)),
        "quad-recurrence-x": (k * (c(m + 1, n) * c(m - 1, n) - c(m, n) ** 2)
                              + (cb(m, n + 1) * cb(m, n - 1) - cb(m, n) ** 2)),
        "corner-determinant": corner,
        "neighbour-star": (k ** 0.5 * (c(m + 1, n) * cb(m - 1, n)
                                       + c(m - 1, n) * cb(m + 1, n)
                                       + c(m, n + 1) * cb(m, n - 1)
                                       + c(m, n - 1) * cb(m, n + 1))
                           - 2 * (k + 1) * c(m, n) * cb(m, n)),
    }


def build_table(mod, radius, precision_bits=DEFAULT_PRECISION_BITS):
    """Build the joint C / C_bar octant out to the given radius.

    mod may be a Modulus or a bare modulus; a modulus above 1 is served by
    building at 1/k and swapping the two families, which is exactly the
    duality of the pair.  Moduli within EPS_CRITICAL of 1 are refused: the
    correlation length diverges there and a fixed-radius table is
    meaningless.

    The seeds (nearest neighbours, diagonal, next diagonal) run at 64 more
    bits and are rounded once, so the table depends on (k, radius,
    precision_bits) alone.  The sweep fills superdiagonal d = n - m = 2,
    3, ... with m ascending, rearranging the two quadratic recurrences as

        C(m,n+1)     = [C(m,n)^2 - (Cb(m+1,n) Cb(m-1,n) - Cb(m,n)^2)/k] / C(m,n-1)
        C_bar(m,n+1) = [Cb(m,n)^2 - k (C(m+1,n) C(m-1,n) - C(m,n)^2)]  / Cb(m,n-1)

    and resolving negative first indices by symmetry.  Any entry leaving
    (0, 1], or any divisor with fewer than MIN_DIVISOR_BITS significant
    bits, aborts the build with a precision-exhaustion error naming the
    offending entry.  Radius 100 at 512 bits takes about 2 s.
    """
    if radius < 2:
        raise ValueError("radius must be at least 2")
    if precision_bits < 24:
        raise ValueError("precision_bits must be at least 24")

    k_req = float(_as_k(mod))
    if not 0 < k_req < math.inf:
        raise EllipticDomainError(
            "modulus must be positive and finite, got %r" % k_req)
    if abs(1 - k_req) < EPS_CRITICAL:
        raise EllipticDomainError(
            "modulus %r is within %g of criticality; correlation length "
            "diverges and a fixed-radius table is meaningless"
            % (k_req, EPS_CRITICAL))
    swap = k_req > 1

    with mp.workprec(precision_bits + _SEED_GUARD_BITS):
        k = 1 / mp.mpf(k_req) if swap else mp.mpf(k_req)
        c10, cbar01 = _base_seeds(k)
        diag = diagonal_seeds(k, radius + 1)
        next_diag = next_diagonal_seeds(k, diag, (c10, cbar01))

    with mp.workprec(precision_bits):
        # unary plus rounds to the working precision: k and each seed, once
        k = +k

        size = radius + 1
        c = [[None] * size for _ in range(size)]
        cb = [[None] * size for _ in range(size)]

        def put(i, j, cv, bv):
            c[i][j] = c[j][i] = cv
            cb[i][j] = cb[j][i] = bv

        for n in range(size):
            put(n, n, +diag[0][n], +diag[1][n])
        for m in range(radius):
            put(m, m + 1, +next_diag[0][m], +next_diag[1][m])

        tiny = mp.mpf(2) ** (MIN_DIVISOR_BITS - precision_bits)

        def gc(i, j):
            return c[abs(i)][abs(j)]

        def gb(i, j):
            return cb[abs(i)][abs(j)]

        for d in range(2, radius + 1):
            for m in range(radius - d + 1):
                n = m + d - 1
                den_c, den_b = gc(m, n - 1), gb(m, n - 1)
                if abs(den_c) < tiny or abs(den_b) < tiny:
                    raise PrecisionExhausted(
                        "sweep divisor below %d significant bits; raise "
                        "precision_bits" % MIN_DIVISOR_BITS, where=(m, n + 1))
                cv = (gc(m, n) ** 2
                      - (gb(m + 1, n) * gb(m - 1, n) - gb(m, n) ** 2) / k) / den_c
                bv = (gb(m, n) ** 2
                      - k * (gc(m + 1, n) * gc(m - 1, n) - gc(m, n) ** 2)) / den_b
                if not (0 < cv <= 1) or not (0 < bv <= 1):
                    raise PrecisionExhausted(
                        "swept entry left (0, 1]; raise precision_bits",
                        where=(m, n + 1))
                put(m, n + 1, cv, bv)

        worst = max(abs(r) for m in range(radius) for n in range(m, radius)
                    for r in _identity_residuals(k, gc, gb, m, n).values())

        if swap:
            c, cb = cb, c
        table = CorrelationTable(
            radius=radius,
            C=tuple(tuple(row) for row in c),
            C_bar=tuple(tuple(row) for row in cb),
            precision_bits=precision_bits,
            residual_report=float(worst),
            k_requested=k_req)
    return table
