"""The wavevector-dependent susceptibility chi(q) on Brillouin-zone grids.

Every in-scope model is in a zero-magnetization phase, so the connected
susceptibility is the plain Fourier sum of pair correlations over a
truncation window:

    chi(q) = sum_{|dx|,|dy| <= window} e^{i q.(dx,dy)} <s(0) s(dx,dy)>

Correlations are even in each separation component for all three sources
(uniform, fully frustrated, column gauge), which collapses the complex
sum to products of cosine matrices; imaginary parts are never formed and
the grids are exactly 2pi-periodic and even in q by construction.

The truncation error is estimated separately: an exponential fit to the
table's axis decay extrapolates the omitted mass geometrically, carried
on the grid as tail_bound.  It is an estimate, not a bound.
"""

import math
from collections import namedtuple

import numpy as np

from .correlations import TableRangeError, lookup
from .frustrated import ff_correlation
from .quasiperiodic import WindowRangeError

__all__ = [
    "ChiGrid",
    "EstimationError",
    "Peak",
    "chi_column_gauge",
    "chi_grid",
    "chi_uniform",
    "find_peaks",
    "tail_estimate",
]

# the tail fit reads separations R // 2 .. R and needs at least three of them
MIN_TAIL_RADIUS = 4


class EstimationError(ArithmeticError):
    """The tail fit found non-decaying data; the window is too small for k."""


class ChiGrid(namedtuple("ChiGrid", "nx ny qx qy values window_radius "
                                   "tail_bound source")):
    """Susceptibility samples over the uniform Brillouin-zone grid.

    Grid point (i, j) sits at q = (2 pi i/nx - pi, 2 pi j/ny - pi);
    values[i, j] is chi there.  tail_bound estimates the truncation error
    of every sample at window_radius; it is not a bound.  Its repr
    leaves out the three arrays.
    """

    __slots__ = ()

    def __repr__(self):
        return ("ChiGrid(nx=%r, ny=%r, window_radius=%r, tail_bound=%r, "
                "source=%r)" % (self.nx, self.ny, self.window_radius,
                                self.tail_bound, self.source))


class Peak(namedtuple("Peak", "qx qy value commensurate")):
    __slots__ = ()


def _cos_block(qs, seps):
    # rows indexed by q, columns by separation; interior separations
    # carry weight 2 for the folded |sep| sum
    block = np.cos(np.multiply.outer(np.asarray(qs, float), np.asarray(seps, float)))
    return block * np.where(np.asarray(seps) == 0, 1.0, 2.0)


def _require_window(table, R):
    if R < 0:
        raise ValueError("window radius must be non-negative, got %r" % (R,))
    if R > table.radius:
        raise TableRangeError(
            "window radius %d exceeds table radius %d" % (R, table.radius))


def _require_disordered(table):
    if table.k_requested >= 1:
        raise ValueError(
            "susceptibility needs the zero-magnetization phase; the table "
            "was built for modulus %g >= 1" % table.k_requested)


def _gauge_grid(table, kappa, qxs, qys, R):
    # the uniform source is this sum with kappa = 1, which is exact in float
    _require_window(table, R)
    _require_disordered(table)
    kappa = np.asarray(kappa, float)
    if kappa.shape[0] <= R:
        raise WindowRangeError(
            "gauge autocorrelation covers lags < %d, window needs %d"
            % (kappa.shape[0], R))
    m = np.asarray(table.C)[:R + 1, :R + 1] * kappa[np.newaxis, :R + 1]
    x = _cos_block(qxs, range(R + 1))
    y = _cos_block(qys, range(R + 1))
    return x @ m @ y.T


def _frustrated_grid(model, table, qxs, qys, R):
    # sublattice-averaged ff_correlation over |dx|, |dy| <= 2R: the odd-y
    # class cancels in the average and the odd-odd class vanishes, leaving
    # the even-x term at (2m, 2n) and the odd-x term at (2m-1, 2n)
    _require_window(table, R)
    y2 = _cos_block(qys, 2 * np.arange(R + 1))

    def term(dxs):
        coef = np.array([[ff_correlation(model, table, dx, 2 * n, 0)
                          for n in range(R + 1)] for dx in dxs])
        return _cos_block(qxs, dxs) @ coef @ y2.T

    grid = term(2 * np.arange(R + 1))
    if R >= 1:
        grid = grid + term(2 * np.arange(1, R + 1) - 1)
    return grid


def chi_uniform(table, q, R):
    """chi of the disordered uniform model at one wavevector q = (qx, qy).

    Cosine-reduced sum over |dx|, |dy| <= R; exactly real and even in q.
    """
    return float(_gauge_grid(table, np.ones(R + 1), [q[0]], [q[1]], R)[0, 0])


def chi_column_gauge(table, kappa, q, R):
    """chi of the column-gauged model given the sign autocorrelation kappa.

    The gauge multiplies each correlation by the average sign product at
    its transverse separation, chi = sum e^{iq.d} C(dx,dy) kappa(|dy|);
    exact given kappa.  kappa(0..R) must be available.
    """
    return float(_gauge_grid(table, kappa, [q[0]], [q[1]], R)[0, 0])


def tail_estimate(table, R):
    """Geometric estimate of the correlation mass omitted beyond radius R.

    Fits log C(0, s) over the outer half of the window (the table is
    symmetric, so one axis serves both), then extrapolates
    sum_{s > R} 8 s A r^s in closed form; it can fall short.
    A non-negative fitted slope means the table is not decaying over this
    window, which signals a modulus too close to 1 for the chosen R.
    """
    _require_window(table, R)
    if R < MIN_TAIL_RADIUS:
        raise ValueError("tail fit needs R >= %d, got %d" % (MIN_TAIL_RADIUS, R))
    lo = max(1, R // 2)
    seps = np.arange(lo, R + 1, dtype=float)
    mags = np.array([lookup(table, 0, int(s)) for s in seps])
    if np.any(mags <= 0):
        raise EstimationError("correlations hit the noise floor inside the window")
    slope, intercept = np.polyfit(seps, np.log(mags), 1)
    if slope >= 0:
        raise EstimationError(
            "no decay over the fit window; the modulus is too close to 1 "
            "for window radius %d" % R)
    r = math.exp(slope)
    a = math.exp(intercept)
    mass = 8 * a * r ** (R + 1) * ((R + 1) - R * r) / (1 - r) ** 2
    return float(mass)


def chi_grid(source, nx, ny, R):
    """Sample chi over the nx-by-ny Brillouin-zone grid.

    source is ("uniform", table), ("frustrated", model, table) or
    ("gauge", table, kappa).  Returns a ChiGrid carrying the samples and
    a truncation estimate from tail_estimate.  The frustrated window covers
    separations out to 2R using table entries within radius R; its
    coefficients are frustrated.ff_correlation averaged over sublattices.
    """
    if nx < 2 or ny < 2:
        raise ValueError("grid needs nx, ny >= 2, got %dx%d" % (nx, ny))
    qxs = 2 * math.pi * np.arange(nx) / nx - math.pi
    qys = 2 * math.pi * np.arange(ny) / ny - math.pi
    kind = source[0]
    if kind == "frustrated":
        _, model, table = source
        values = _frustrated_grid(model, table, qxs, qys, R)
        label = "frustrated S=%g version=%s" % (model.S, model.version)
    elif kind in ("uniform", "gauge"):
        _, table, kappa = (source if kind == "gauge"
                           else (*source, np.ones(R + 1)))
        values = _gauge_grid(table, kappa, qxs, qys, R)
        label = "%s k=%g" % (kind, table.k_requested)
    else:
        raise ValueError("unknown chi source %r" % (kind,))
    return ChiGrid(nx=nx, ny=ny, qx=qxs, qy=qys, values=values,
                   window_radius=R, tail_bound=tail_estimate(table, R),
                   source=label)


def find_peaks(grid):
    """Strict local maxima of the grid under periodic 8-neighbour topology.

    A peak is commensurate when both components sit within one grid cell
    of a multiple of pi/2.  Peaks come back sorted by height.
    """
    v = grid.values
    nx, ny = grid.nx, grid.ny
    wrapped = np.pad(v, 1, mode="wrap")
    best = np.full(v.shape, -np.inf)
    for di in (0, 1, 2):
        for dj in (0, 1, 2):
            if di != 1 or dj != 1:
                np.maximum(best, wrapped[di:di + nx, dj:dj + ny], out=best)
    spacing = math.pi / 2
    cell_x, cell_y = 2 * math.pi / nx, 2 * math.pi / ny

    def near_multiple(q, cell):
        frac = q / spacing
        return abs(frac - round(frac)) * spacing <= cell

    peaks = []
    for i, j in zip(*np.nonzero(v > best)):
        qx, qy = float(grid.qx[i]), float(grid.qy[j])
        flag = near_multiple(qx, cell_x) and near_multiple(qy, cell_y)
        peaks.append(Peak(qx=qx, qy=qy, value=float(v[i, j]), commensurate=flag))
    peaks.sort(key=lambda p: -p.value)
    return peaks
