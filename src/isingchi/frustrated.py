"""Fully-frustrated square lattice: decimation, duality, correlations.

The fully-frustrated model (every plaquette carries an odd number of
negative bonds) maps through a decimation step onto a free-fermion
eight-vertex model, then through a partial duality onto two decoupled
Ising models at mutually dual temperatures.  That factorization turns
every pair correlation of the frustrated model into a short combination
of the dual pair tables C and C_bar.

Two bond layouts are covered: version "a" staggers the negative vertical
bonds in a checkerboard, version "b" stacks them in alternate columns.
They are gauge equivalent (flip all spins on rows l with l mod 4 in
{2, 3}), which fixes how their correlation formulas differ: version "a"
carries alternating signs that version "b" lacks.

Sign conventions here are frozen against the mixed-sign transfer-matrix
oracle, base row by base row, rather than taken on faith: the assembled
values reproduce the oracle on both layouts, from both sublattices, for
every separation class.
"""

import math
from collections import namedtuple

from .correlations import TableRangeError, lookup

__all__ = [
    "FrustratedModel",
    "TableMismatchError",
    "ff_correlation",
    "separation_class",
]


class TableMismatchError(ValueError):
    """The supplied table was built at a different modulus than the model's."""


class FrustratedModel(namedtuple("FrustratedModel", "S version")):
    """Model parameters: S = sinh(2J/kT) and the bond layout version."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates

    def __new__(cls, S, version):
        self = super().__new__(cls, S, version)
        if not self.S > 0:
            raise ValueError("S must be positive, got %r" % (self.S,))
        if not 0 < self.k < 1:
            raise ValueError("S = %r gives modulus %r, outside (0, 1)"
                             % (self.S, self.k))
        if self.version not in ("a", "b"):
            raise ValueError("version must be 'a' or 'b', got %r"
                             % (self.version,))
        return self

    @property
    def k(self):
        """The modulus of the two dual Ising models the model factorizes into.

        sqrt(k) = sinh(2 K_sigma) = S^2 / (S^2 + 1 + sqrt(2 S^2 + 1)), and
        K_tau is its Kramers-Wannier partner, sinh(2 K_sigma) sinh(2 K_tau)
        = 1, so one table at k carries both.
        """
        s2 = self.S * self.S
        rk = s2 / (s2 + 1 + math.sqrt(2 * s2 + 1))
        return rk * rk


# the separation classes, in verify's row order: index dx % 2 + 2 (dy % 2)
_CLASSES = ("even-even", "odd-x", "odd-y", "odd-odd")


def separation_class(dx, dy):
    """Parity class of a separation; odd-x has dx odd and dy even."""
    return _CLASSES[dx % 2 + 2 * (dy % 2)]


def _cross(table, i, j, m, n):
    """C(i,j) C_bar(m,n) + C(m,n) C_bar(i,j): a neighbour pair of entries."""
    return (lookup(table, i, j) * lookup(table, m, n, "Cbar")
            + lookup(table, m, n) * lookup(table, i, j, "Cbar"))


def ff_correlation(model, table, dx, dy, base_parity):
    """Pair correlation <s(x0,y0) s(x0+dx, y0+dy)> of the frustrated model.

    base_parity is the sublattice parity of the base site: (x0 + y0) mod 2
    for version "a", whose bond pattern repeats along the (1,1) diagonal,
    and x0 mod 2 for version "b", which is invariant under any vertical
    shift.  Only the odd-y class depends on it; averaging that class over
    the two parities gives exactly zero.

    The table must be built at model.k, or TableMismatchError is raised.
    Every class reads the half-separations m = (|dx| + 1) // 2 and
    n = (dy + 1) // 2, n keeping the sign of dy, and assembles as

        even-even  (2m, 2n)      sigma C(m,n) C_bar(m,n)
        odd-odd                  0
        odd-x      (2m-1, 2n)    sigma A [C(m-1,n) C_bar(m,n) + C(m,n) C_bar(m-1,n)]
        odd-y      (2m, 2n-1)    sigma' A [C(m,n-1) C_bar(m,n) + C(m,n) C_bar(m,n-1)]

    with A = S / (2 sqrt(2 S^2 + 1)).  sigma is the gauge factor (-1)^n
    for version "a" and +1 for version "b"; on the odd-y class
    sigma' = sigma (-1)^base_parity, times a further -1 for version "a".
    """
    if base_parity not in (0, 1):
        raise ValueError("base_parity must be 0 or 1, got %r" % (base_parity,))
    k = model.k
    if abs(table.k_requested - k) > 1e-9 * max(k, 1e-30):
        raise TableMismatchError(
            "table modulus %.12g does not match the model's %.12g at S=%g"
            % (table.k_requested, k, model.S))
    dx, dy = int(dx), int(dy)
    need = max((abs(dx) + 1) // 2, (abs(dy) + 1) // 2)
    if need > table.radius:
        raise TableRangeError(
            "separation (%d, %d) needs table radius %d, have %d"
            % (dx, dy, need, table.radius))

    cls = separation_class(dx, dy)
    if cls == "odd-odd":
        return 0.0
    staggered = model.version == "a"
    m, n = (abs(dx) + 1) // 2, (dy + 1) // 2
    sign = -1 if staggered and n % 2 else 1
    if cls == "even-even":
        return sign * lookup(table, m, n) * lookup(table, m, n, "Cbar")
    amp = model.S / (2 * math.sqrt(2 * model.S ** 2 + 1))
    if cls == "odd-x":
        return sign * amp * _cross(table, m - 1, n, m, n)
    if base_parity != staggered:
        sign = -sign
    return sign * amp * _cross(table, m, n - 1, m, n)
