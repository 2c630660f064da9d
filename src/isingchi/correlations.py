"""Dual pair-correlation tables built from quadratic recurrences.

Two infinite-lattice correlation families are tabulated side by side:
C(m,n) for the disordered model at sinh 2K = sqrt(k), and C_bar(m,n) for
its ordered dual at sinh 2K = 1/sqrt(k).  The quadratic recurrences couple
the two families, so the build always carries both.  Every function here
takes that bare modulus k.

Two recurrences on the reflection coefficients of the diagonal symbol's
Toeplitz matrices give C_bar(n,n) as their minors and C(n,n) as cofactors
in O(R); the corner relation at the origin and sqrt(k) C(1,0) + C_bar(0,1)
= sqrt(1 + k) give the nearest neighbours from C(1,1) and C_bar(1,1); a
march solving the star relation and a quadratic recurrence as one 2x2
linear system gives the next-to-diagonal entries, and a sweep of the two
recurrences, each diagonal from the two before it, the rest of the octant.
All of it is fixed point on Python integers: the modulus enters as an exact
ratio (num, den), which the diagonal's recurrences take as it is and each
other stage floors at its own bits to kf = floor(k 2^bits) = kn 2^(bits - g)
with kn odd (53 bits at most for a float k < 1, about as wide as kf for a
non-dyadic k such as 1/3); the symbol step, the next-diagonal march and the
sweep multiply by kn and cancel or shift the power of two exactly, and one
AGM gives the symbol's closed forms, the only transcendental input.  The
recurrences cancel catastrophically, losing bits roughly linearly with
distance from the diagonal, so every stage reads its bits from one precision
plan, _plan, which picks them for a build that names none; a table stores
the doubles its readers read, each divided once from _integer_table's
integers.  The corner identity is written once, in _corner, the march's check;
_identity_residuals gives all four as numerators, over units formed once by
_worst_residual for residual_report's first read and 1.0 for verify.
"""

import math
from array import array
from collections import namedtuple
from functools import cached_property

from .elliptic import EllipticDomainError, agm

__all__ = [
    "CorrelationTable",
    "PrecisionExhausted",
    "TableRangeError",
    "build_table",
    "diagonal_seeds",
    "lookup",
    "next_diagonal_seeds",
]

EPS_CRITICAL = 1e-6
MIN_PICKED_BITS, MAX_PICKED_BITS = 256, 8192  # the bits a pick may take, and
MAX_PICKED_TABLE_BITS = 1 << 32  # in all (R + 1)^2 entries, 1 GB transient
_SEED_GUARD_BITS = 64  # carried by the seeds and the sweep, then rounded off

MIN_DIVISOR_BITS = 8  # a sweep divisor's least significant bits, or it stops
_DIVISOR_FLOOR = 1 << _SEED_GUARD_BITS + MIN_DIVISOR_BITS  # at sweep bits


class PrecisionExhausted(ArithmeticError):
    """The working precision cannot support the requested table.

    Raised with the entry as where, and from build_table the bits that ran
    out as bits, when a seed, 1 - x_n y_n, the march or a swept entry leaves
    its range, C(n,n) fails to fall, a divisor loses nearly all its bits or
    the small-k loss estimate leaves too few; past the caps on a pick, both
    None, naming the bits.  The remedy is more bits, not a smaller tolerance.
    """

    def __init__(self, message, where=None):
        if where is not None:
            message = "%s at (m, n) = (%d, %d)" % (message, where[0], where[1])
        super().__init__(message)
        self.where, self.bits = where, None


class TableRangeError(IndexError):
    """Lookup outside the stored radius."""


def _fixed(k, bits):
    """floor(k 2^bits) of a modulus given as an exact ratio (num, den)."""
    num, den = k
    return (num << bits) // den


def _odd_part(kf, bits):
    """(kn, g) with kf = kn 2^(bits - g), kn odd, for kf = _fixed(k, bits)."""
    zeros = (kf & -kf).bit_length() - 1
    return kf >> zeros, bits - zeros


_Plan = namedtuple("_Plan", "k radius precision symbol diagonal seeds sweep "
                   "march_digits refused loss_estimate")


def _plan(k, radius, precision_bits=None):
    """build_table's arguments, checked, and every stage's bits.

    k becomes the exact ratio (num, den) of k, or of 1/k above 1; x is
    log2(1/k).  precision p is precision_bits or, for None, the fewest p >=
    256 whose guard, less loss_estimate (R max(2x, 2.6 + 1.25x) rounded up,
    a fit, not a bound), keeps 17 digits' 57 bits and 16 more, past the caps
    refused.  The sweep runs at p + 64 bits; the seeds, the march and the
    integers' scale at L = (R + 3) x more, plus 32; the diagonal's
    recurrences and the symbol series, which compute k^n against dominant
    k^-n solutions (Gautschi 1967), at 2L plus 32 and 3x (6x for the
    symbol), R past 2^53 counting as 2^53.  The corner check's tolerance is
    10^-march_digits; refused is the first radius whose small-k loss 2 R x
    leaves under MIN_DIVISOR_BITS of the sweep's bits.
    """
    if radius < 2:
        raise ValueError("radius must be at least 2")
    if precision_bits is not None and precision_bits < 24:
        raise ValueError("precision_bits must be at least 24")
    k_req = float(k)
    if not 0 < k_req < math.inf:
        raise EllipticDomainError(
            "modulus must be positive and finite, got %r" % k_req)
    if abs(1 - k_req) < EPS_CRITICAL:
        raise EllipticDomainError(
            "modulus %r is within %g of criticality; correlation length "
            "diverges and a fixed-radius table is meaningless"
            % (k_req, EPS_CRITICAL))
    num, den = k = sorted(k_req.as_integer_ratio())  # exact; 1/k above 1
    x, p = math.log2(den) - math.log2(num), precision_bits
    rate = max(2 * x, 2.6 + 1.25 * x).as_integer_ratio()  # ceil'd exactly
    loss = -(-radius * rate[0] // rate[1])
    if p is None:
        p = max(MIN_PICKED_BITS, 57 + 16 + loss - _SEED_GUARD_BITS)
        if p > MAX_PICKED_BITS or (radius + 1) ** 2 * p > MAX_PICKED_TABLE_BITS:
            raise PrecisionExhausted(
                "17 right digits need %d bits in each of the (R + 1)^2 entries "
                "here, above the cap of %d bits or 2^32 in all; pass "
                "precision_bits" % (p, MAX_PICKED_BITS))
    sweep = p + _SEED_GUARD_BITS
    refused = int((sweep - MIN_DIVISOR_BITS) / (2 * x)) + 1
    big = (min(radius, 1 << 53) + 3) * x  # never overflows
    seeds, twice = sweep + int(big) + 32, sweep + int(2 * big) + 32
    return _Plan(k, radius, p, twice + int(6 * x), twice + int(3 * x), seeds,
                 sweep, sweep // 4, refused, loss)


def _symbol_coefficients(k, n_top, bits, out_bits):
    """Laurent coefficients a_j of the diagonal symbol for |j| <= n_top, as
    integers x 2^out_bits, and out_bits.

    phi(z) = (1 - k/z)^(1/2) (1 - k z)^(-1/2) solves a first-order ODE, so

        k (j + 1/2) a_j = [(1 + k^2)(j - e) + k^2] a_{j-e} - k (j - 2e + 1/2) a_{j-2e}

    for every integer j and either step e = +1 or -1.  From the closed forms
    a_0 = 2E/pi = (1 - S)/M and a_{-1} = -2 [E - (1 - k^2) K] / (pi k) =
    -(k^2 - S)/(k M), with M and S from one AGM (the pi in front of K and E
    cancels), it runs outward both ways in O(n_top) steps for any k at bits,
    which must cover the k^-2|j| growth of the unwanted solution, then one
    shift hands them on at out_bits: the plan's diagonal bits for
    diagonal_seeds, its seeds bits for verify's Levinson minors.
    """
    kf = _fixed(k, bits)
    m, s = agm(kf, bits)
    a = {0: (((1 << bits) - s) << bits) // m,
         -1: -(((kf * kf - (s << bits)) << bits) // (kf * m))}
    kn, g = _odd_part(kf, bits)
    k2, o2 = kn * kn, 1 << 2 * g
    for j in (*range(1, n_top + 1), *range(-2, -n_top - 1, -1)):
        e = 1 if j > 0 else -1
        a[j] = (((o2 + k2) * (j - e) + k2) * 2 * a[j - e]
                - (kn * (2 * j - 4 * e + 1) * a[j - 2 * e] << g)
                ) // (kn * (2 * j + 1) << g)
    return {j: x >> bits - out_bits for j, x in a.items()}, out_bits


def diagonal_seeds(plan):
    """C(n,n) and C_bar(n,n) for n = 0..plan.radius + 1 in O(R).

    C_bar(n,n) = D_n = det[a_{i-j}]_n and C(n,n) = -y_n D_n, with x_n and y_n
    the reflection coefficients e_f and e_b of Levinson's recursion
    (verify._toeplitz_minors).  As z phi'/phi is rational, from x_0 = y_0 =
    -1, D_0 = 1, D_1 = a_0 and (x_1, y_1) = (a_1, a_{-1}) / a_0 (Magnus 1995)

        (2n - 1) s_n y_{n+1} = 2n [(1 + k^2) y_n - 2 x_n] / k - (2n + 1) s_n y_{n-1}
        (2n + 3) y_n x_{n+1} = (2n + 1) x_n y_{n+1} + (2n - 1) y_{n-1} x_n
                               - (2n - 3) x_{n-1} y_n
        D_{n+1} D_{n-1} = D_n^2 s_n,    s_n = 1 - x_n y_n.

    y_n ~ k^n is the first's minimal solution, so the march runs at the
    plan's diagonal bits and returns (C, C_bar, bits) at its seeds bits,
    unrounded integers x 2^bits.  A non-positive seed or s_n, or C(n,n) not
    below C(n-1,n-1), means the precision ran out.
    """
    def exhausted(n):
        return PrecisionExhausted("diagonal seed or 1 - x_n y_n out of range; "
                                  "raise precision_bits", where=(n, n))

    num, den = k = plan.k
    a, bits = _symbol_coefficients(k, 1, plan.symbol, plan.diagonal)
    one, seed_bits = 1 << bits, plan.seeds
    shift, d0, d = bits - seed_bits, one, a[0]
    if d >> shift <= 0:
        raise exhausted(1)
    x, y, x0, y0 = (a[1] << bits) // d, (a[-1] << bits) // d, -one, -one
    c_diag, cbar_diag = [1 << seed_bits], [1 << seed_bits]
    for n in range(1, plan.radius + 2):
        c_diag.append(-y * d >> bits + shift)
        cbar_diag.append(d >> shift)
        s = one - (x * y >> bits)
        if min(c_diag[-1], cbar_diag[-1], s) <= 0 or c_diag[-1] >= c_diag[-2]:
            raise exhausted(n)
        # the first recurrence times num den; s, d0 > 0 and y < 0 divide
        y1 = ((n * (2 * (num * num + den * den) * y - 4 * den * den * x) << bits)
              - num * den * (2 * n + 1) * s * y0) // (num * den * (2 * n - 1) * s)
        x1 = ((2 * n + 1) * x * y1 + (2 * n - 1) * y0 * x
              - (2 * n - 3) * x0 * y) // ((2 * n + 3) * y)
        x0, y0, x, y, d0, d = x, y, x1, y1, d, d * d * s // (d0 << bits)
    return c_diag, cbar_diag, seed_bits


def _nearest_neighbours(kf, rk, diag):
    """C(1,0) and C_bar(0,1), x 2^bits, from diag = (C, C_bar, bits), kf =
    floor(k 2^bits) and rk = sqrt(k): the corner relation at the origin and
    sqrt(k) C(1,0) + C_bar(0,1) = sqrt(1 + k) give Onsager's closed form
    C(1,0) = (1 + k + k C(1,1) - C_bar(1,1)) / (2 sqrt(k (1 + k))), whose
    numerator cancels to about k, within the plan's seeds guard."""
    (c, cb, bits), one = diag, 1 << diag[2]
    r1 = math.isqrt(one + kf << bits)
    c10 = ((one + kf - cb[1] << bits) + kf * c[1] << bits) // (2 * rk * r1)
    return c10, r1 - (rk * c10 >> bits)


def next_diagonal_seeds(plan, diag):
    """March C(m,m+1), C_bar(m,m+1) up the diagonal on integers.

    diag is diagonal_seeds(plan), the march's only input besides the plan's
    k and march_digits: it starts from the C(1,0) and C_bar(0,1) of its
    C(1,1) and C_bar(1,1), and both next diagonals come back at its 2^bits.
    At each m the star relation and the quadratic recurrence on the diagonal
    are both linear in (X, Y) = (C(m,m+1), C_bar(m,m+1)),

        C_bar(m-1,m) X + C(m-1,m) Y = (k+1) C(m,m) C_bar(m,m) / sqrt(k),
        k C(m-1,m) X + C_bar(m-1,m) Y = k C(m,m)^2 + C_bar(m,m)^2,

    so one exact 2x2 solve gives both, its determinant positive in a sound
    march.  The corner relation at (m, m), not consumed, is its cross-check:
    an absolute residual (_corner) against 10^-march_digits.  It cannot see
    a relative loss in the small C seeds, whose k C^2 term shrinks like
    k^(2m+1); the plan's seeds guard keeps them right, as
    test_seeds_match_deeper_build checks.
    """
    def exhausted(what, m):
        return PrecisionExhausted("%s in the diagonal march; raise precision_bits"
                                  % what, where=(m, m + 1))

    (c_diag, cbar_diag, bits), k = diag, plan.k
    one, kf, ten = 1 << bits, _fixed(k, bits), 10 ** plan.march_digits
    rk, (kn, g) = math.isqrt(kf << bits), _odd_part(kf, bits)
    a, b = _nearest_neighbours(kf, rk, diag)
    if a <= 0:
        raise PrecisionExhausted("nearest-neighbour seed is not positive; "
                                 "raise precision_bits", where=(1, 0))

    c_next, cbar_next = [a], [b]
    for m in range(1, len(c_diag) - 1):
        cm, cbm = c_diag[m], cbar_diag[m]
        p = ((kn + (1 << g)) * cm * cbm >> g) // rk
        # b X + a Y = p 2^bits and kn a X + 2^g b Y = q for X, Y at 2^bits
        q, det = kn * cm * cm + (cbm * cbm << g), (b * b << g) - kn * a * a
        if det <= 0:
            raise exhausted("singular star/recurrence system", m)
        x = ((p * b << g + bits) - a * q) // det
        y = (b * q - (kn * a * p << bits)) // det
        if not (0 < x < one and 0 < y < one):
            raise exhausted("next-diagonal entry outside (0, 1)", m)

        residual = _corner((kn, 1 << g), (cm, c_diag[m + 1], x, x),
                           (cbm, cbar_diag[m + 1], y, y)) << bits - g
        if abs(residual) * ten > one ** 3:  # above 10^-march_digits
            raise exhausted("cross-check relation residual %.6g"
                            % (abs(residual) / one ** 3), m)
        a, b = x, y
        c_next.append(x)
        cbar_next.append(y)
    return c_next, cbar_next


class CorrelationTable(namedtuple("CorrelationTable", "radius C C_bar "
                                 "precision_bits k_requested")):
    """A finished octant of C and C_bar values, immutable once built.

    C and C_bar are (radius+1)-square tuples of read-only rows of doubles,
    symmetric in (m, n), each rounded half to even to precision_bits bits,
    the build's named or picked ones, then to a double.  A k_requested above
    1 was served through the duality swap, at 1/k_requested.  residual_report,
    the worst absolute identity residual (corner, star, quadratic) over the
    octant, scans a second build's integers exactly on first read; a float,
    it reads 0.0 below 2^-1074, as in builds above about 1,070 bits.
    """

    # no __slots__: the cached property keeps its value in the instance dict
    @cached_property
    def residual_report(self):
        plan = _plan(self.k_requested, self.radius, self.precision_bits)
        return _worst_residual(plan.k, *_integer_table(plan), plan.sweep)


def lookup(table, m, n, which="C"):
    """Symmetry-reduced table access: C(m,n) = C(n,m) = C(|m|,|n|), as a
    float from any table whose rows index to numbers; which is "C" or "Cbar".
    """
    i, j = abs(int(m)), abs(int(n))
    if i > table.radius or j > table.radius:
        raise TableRangeError(
            "(%d, %d) outside table radius %d" % (m, n, table.radius))
    if which not in ("C", "Cbar"):
        raise ValueError("which must be 'C' or 'Cbar', got %r" % (which,))
    fam = table.C if which == "C" else table.C_bar
    return float(fam[i][j])


def _corner(k, c, cb):
    """o times the corner determinant at k = kn / o, from the entries (m, n),
    (m+1, n+1), (m, n+1) and (m+1, n) of C (c) and C_bar (cb)."""
    (kn, o), (c00, c11, c01, c10), (b00, b11, b01, b10) = k, c, cb
    return kn * (c00 * c11 - c01 * c10) - o * (b00 * b11 - b01 * b10)


def _identity_residuals(k, rk, one, C, C_bar, m, n):
    """Exact numerators of the four pair identities at (m, n), or of the
    corner alone at the origin, the only one that holds there.

    C and C_bar are symmetric nested sequences read as C[i][j], abs folding
    the m - 1 and n - 1 that can reach -1; k = (kn, o) and rk = sqrt(k) are
    in the unit one.  The caller owns the units: o one^3 for the star, o one^2
    for the rest, 1.0 for doubles.
    """
    (kn, o), mu, nu = k, abs(m - 1), abs(n - 1)
    c, c1, b, b1 = C[m], C[m + 1], C_bar[m], C_bar[m + 1]
    corner = _corner(k, (c[n], c1[n + 1], c[n + 1], c1[n]),
                     (b[n], b1[n + 1], b[n + 1], b1[n]))
    if m == 0 and n == 0:
        return {"corner-determinant": corner}
    cu, bu, c2, b2 = C[mu], C_bar[mu], c[n] ** 2, b[n] ** 2
    return {
        "quad-recurrence-y": (kn * (c[n + 1] * c[nu] - c2)
                              + o * (b1[n] * bu[n] - b2)),
        "quad-recurrence-x": (kn * (c1[n] * cu[n] - c2)
                              + o * (b[n + 1] * b[nu] - b2)),
        "corner-determinant": corner,
        "neighbour-star": (o * rk * (c1[n] * bu[n] + cu[n] * b1[n]
                                     + c[n + 1] * b[nu] + c[nu] * b[n + 1])
                           - 2 * (kn + o) * one * c[n] * b[n]),
    }


def _worst_residual(k, C, C_bar, scale, bits):
    """Worst identity residual of diagonals C and C_bar x scale, exact at 2^bits.

    The units are formed here.  The worst star numerator (over o 2^3bits)
    and the rest's (over o 2^2bits) meet in the star's unit; one division
    rounds the larger: as rounding is monotone, the worst rounded residual."""
    kf, shift = _fixed(k, bits), scale.bit_length() - 1 - bits
    c, cb = (_square([[x >> shift for x in d] for d in fam]) for fam in (C, C_bar))
    (kn, g), radius, worst, star = _odd_part(kf, bits), len(C) - 1, 0, 0
    args = (kn, 1 << g), math.isqrt(kf << bits), 1 << bits, c, cb
    for m in range(radius):
        for n in range(m, radius):
            r = _identity_residuals(*args, m, n)
            star = max(star, abs(r.pop("neighbour-star", 0)))
            worst = max(worst, *map(abs, r.values()))
    return max(worst << bits, star) / (1 << g + 3 * bits)


def build_table(k, radius, precision_bits=None):
    """Build the joint C / C_bar octant out to the given radius.

    k is the bare modulus, sinh 2K = sqrt(k); one above 1 is served at 1/k
    with the families swapped, the pair's exact duality.  Moduli within
    EPS_CRITICAL of 1, where the correlation length diverges, are refused.

    The seeds and the sweep carry guard bits; each entry is rounded once on
    integers, then divided once into a double and stored in read-only rows,
    so the table depends on (k, radius, precision_bits) alone; None takes
    _plan's pick, and named bits are built as asked.  The sweep makes
    diagonal d = n + 1 - m = 2, 3, ..., m ascending, from diagonals d - 1
    and d - 2 alone, by the quadratic recurrences

        C(m,n+1)     = [C(m,n)^2 - (Cb(m+1,n) Cb(m-1,n) - Cb(m,n)^2)/k] / C(m,n-1)
        C_bar(m,n+1) = [Cb(m,n)^2 - k (C(m+1,n) C(m-1,n) - C(m,n)^2)]  / Cb(m,n-1)

    with C(m-1,n) the entry just made (C(1,n) at m = 0).  Every stage runs
    at the bits of _plan, whose refused radius, a small-k loss estimate, not
    a bound, and picks past its caps are refused before any work; an entry
    leaving (0, 1] or a divisor with fewer than MIN_DIVISOR_BITS significant
    bits aborts the sweep, each a PrecisionExhausted.  Radius 100 at 512
    bits builds in 0.06 reference s (2-vCPU Xeon VM).
    """
    plan = _plan(k, radius, precision_bits)
    try:
        c, cb, scale = _integer_table(plan)
    except PrecisionExhausted as exc:
        exc.bits = plan.precision
        raise
    C, C_bar = (tuple(memoryview(array("d", row)).toreadonly()
                      for row in _square([[x / scale for x in d] for d in r]))
                for r in ((cb, c) if float(k) > 1 else (c, cb)))
    return CorrelationTable(radius, C, C_bar, plan.precision, float(k))


def _square(r):
    """Rows of the symmetric square whose diagonals are r[d][m] = X(m, m + d)."""
    return [[r[m - n][n] for n in range(m)] + [r[d][m] for d in range(len(r) - m)]
            for m in range(len(r))]


def _integer_table(plan):
    """build_table's rounded octant at plan.k, below 1, unswapped: diagonals
    r[d][m] = X(m, m + d) of C and C_bar, and the power of two dividing them."""
    k, bits, n, p = plan.k, plan.sweep, plan.refused, plan.precision
    if plan.radius >= n:  # the first radius the small-k loss estimate rules out
        raise PrecisionExhausted(
            "estimated small-k loss leaves fewer than %d of %d bits; raise "
            "precision_bits" % (MIN_DIVISOR_BITS, bits), where=(max(n - 2, 0), n))

    diag = diagonal_seeds(plan)
    seeds = diag, next_diagonal_seeds(plan, diag)  # seeds[n - m][family][m]

    # x -> floor(x 2^bits), k -> kn / 2^g; products are exact, so each swept
    # entry is rounded once, by the floor division.  rc[d][m] = C(m, m + d);
    # cl = C(m - 1, m + d - 1) is the entry just made, C(1, d - 1) at m = 0
    one, size, shift = 1 << bits, plan.radius + 1, diag[2] - bits
    (kn, g), tiny = _odd_part(_fixed(k, bits), bits), _DIVISOR_FLOOR

    def rounded(x):  # half to even, to p significant bits
        cut = x.bit_length() - p
        return x if cut <= 0 else (
            x + (1 << cut - 1) - 1 + (x >> cut & 1)) >> cut << cut

    rc, rb = ([list(map(rounded, s[fam][:size - d])) for d, s in enumerate(seeds)]
              for fam in (0, 1))
    (c2, c1), (b2, b1) = ([[x >> shift for x in s[fam]] for s in seeds]
                          for fam in (0, 1))
    for d in range(2, size):
        cl, bl, cd, bd = c2[1], b2[1], [0] * (size - d), [0] * (size - d)
        for m in range(size - d):
            if c2[m] < tiny or b2[m] < tiny:
                raise PrecisionExhausted(
                    "sweep divisor below %d significant bits; raise "
                    "precision_bits" % MIN_DIVISOR_BITS, where=(m, m + d))
            cc, bb = c1[m] * c1[m], b1[m] * b1[m]
            cl, bl = ((kn * cc - (b2[m + 1] * bl - bb << g)) // (kn * c2[m]),
                      ((bb << g) - kn * (c2[m + 1] * cl - cc)) // (b2[m] << g))
            if not (0 < cl <= one) or not (0 < bl <= one):
                raise PrecisionExhausted(
                    "swept entry left (0, 1]; raise precision_bits",
                    where=(m, m + d))
            cd[m], bd[m] = cl, bl
        rc.append([rounded(x) << shift for x in cd])
        rb.append([rounded(x) << shift for x in bd])
        c2, c1, b2, b1 = c1, cd, b1, bd
    return rc, rb, 1 << diag[2]
