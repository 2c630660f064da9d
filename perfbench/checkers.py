"""Output checks for the benchmark workloads.

Every check compares a file the CLI wrote against a computation made here,
outside the program, or against a property the method must have; none
compares against a stored copy of earlier output.  Each check returns a
list of failure messages, empty when the file passes.
"""

import math

import numpy as np
from scipy.special import ellipk

EPS = np.finfo(float).eps

# Largest Toeplitz-determinant tolerance worth checking: beyond it the
# float64 determinant says nothing (poor conditioning at small k).
TOEPLITZ_MAX_TOL = 1e-6

# Error of the CLI's gauge kappa, estimated over a 10^6-site window.  For
# a Sturmian word the estimate's discrepancy is of order ln(N)/N; the
# measured error is 2-5e-6 for j = 0, 1, 2.
GAUGE_WINDOW = 1_000_000
KAPPA_WINDOW_ERR = math.log(GAUGE_WINDOW) / GAUGE_WINDOW

# identity-name prefixes of each `verify` suite
VERIFY_SUITES = {
    "elliptic": ("K-at-zero", "K-vs-quadrature", "sn-cn-identity", "dn-identity"),
    "couplings": ("product-rule", "orientation-flip"),
    "recurrence": ("quad-recurrence", "corner-determinant", "neighbour-star"),
    "frustrated": ("assembly-", "gauge-map"),
    "chi": ("sum-rule", "evenness", "periodicity", "gauge-shift", "min-floor"),
}


# ---------------------------------------------------------------- readers


def _read_lines(path, header):
    with open(path, "r", encoding="ascii") as handle:
        lines = handle.read().splitlines()
    if not lines or lines[0] != header:
        raise ValueError("%s: header is not %r" % (path, header))
    return lines[1:]


def read_corr_csv(path):
    """Return (C, Cbar) as full symmetric (R+1)-square arrays."""
    rows = [line.split(",") for line in _read_lines(path, "m,n,C,Cbar")]
    radius = max(int(r[1]) for r in rows)
    c = np.full((radius + 1, radius + 1), np.nan)
    cb = np.full((radius + 1, radius + 1), np.nan)
    for m, n, cv, bv in rows:
        m, n = int(m), int(n)
        c[m, n] = c[n, m] = float(cv)
        cb[m, n] = cb[n, m] = float(bv)
    if len(rows) != (radius + 1) * (radius + 2) // 2 or np.isnan(c).any():
        raise ValueError("%s: not a complete octant of radius %d" % (path, radius))
    return c, cb


def read_chi_csv(path):
    """Return (qx, qy, values) with values[i, j] at (qx[i], qy[j])."""
    lines = _read_lines(path, "qx,qy,chi")
    flat = np.array(",".join(lines).split(","), dtype=float).reshape(-1, 3)
    ny = int(np.count_nonzero(flat[:, 0] == flat[0, 0]))
    nx = flat.shape[0] // ny
    grid = flat.reshape(ny, nx, 3)
    qx, qy = grid[0, :, 0], grid[:, 0, 1]
    if (nx * ny != flat.shape[0] or not (grid[:, :, 0] == qx).all()
            or not (grid[:, :, 1] == qy[:, None]).all()):
        raise ValueError("%s: rows are not a row-major qx-by-qy grid" % path)
    return qx, qy, grid[:, :, 2].T.copy()


def read_pgm(path):
    """Return the 16-bit samples of a binary P5 file as array[x, y]."""
    with open(path, "rb") as handle:
        data = handle.read()
    parts = data.split(b"\n", 3)
    if len(parts) != 4 or parts[0] != b"P5" or parts[2] != b"65535":
        raise ValueError("%s: not a 16-bit binary PGM" % path)
    width, height = (int(v) for v in parts[1].split())
    body = np.frombuffer(parts[3], dtype=">u2")
    if body.size != width * height:
        raise ValueError("%s: %d samples for a %dx%d image"
                         % (path, body.size, width, height))
    return body.reshape(height, width).T


def read_peaks_csv(path):
    out = []
    for line in _read_lines(path, "qx,qy,value,commensurate"):
        qx, qy, value, flag = line.split(",")
        if flag not in ("true", "false"):
            raise ValueError("%s: bad commensurate flag %r" % (path, flag))
        out.append((float(qx), float(qy), float(value), flag == "true"))
    return out


def read_verification_csv(path):
    out = []
    for line in _read_lines(path, "identity,location,residual,tolerance,pass"):
        identity, location, residual, tolerance, passed = line.split(",")
        out.append((identity, location, float(residual), float(tolerance),
                    passed))
    return out


# ---------------------------------------------------------------- tables


def onsager_nn(k):
    """C(1,0) of the disordered model at sinh 2K = sqrt(k), in float64."""
    kappa = 2 * math.sqrt(k) / (1 + k)
    bracket = 1 + (2 / math.pi) * ((k - 1) / (k + 1)) * float(ellipk(kappa * kappa))
    return 0.5 * math.sqrt((1 + k) / k) * bracket


def symbol_coefficients(k, j_max, points=1 << 14):
    """Fourier coefficients a_j, |j| <= j_max, of (1-k/z)^1/2 (1-kz)^-1/2.

    Taken by FFT over the unit circle; the coefficients decay like k^|j|,
    so aliasing is far below float64 rounding for the sizes used here.
    """
    z = np.exp(2j * np.pi * np.arange(points) / points)
    a = np.fft.fft(np.sqrt(1 - k / z) / np.sqrt(1 - k * z)) / points
    return {j: a[j % points].real for j in range(-j_max, j_max + 1)}


def _toeplitz(a, order, shift):
    return np.array([[a[i - j + shift] for j in range(order)]
                     for i in range(order)])


def check_toeplitz_diagonal(c, cb, k):
    """C(n,n) = (-1)^n det[a_{i-j-1}], Cbar(n,n) = det[a_{i-j}] in float64.

    The tolerance for order n is 8 n eps cond(T); orders whose tolerance
    exceeds TOEPLITZ_MAX_TOL are beyond what float64 can check.
    """
    radius = c.shape[0] - 1
    a = symbol_coefficients(k, radius + 1)
    fails = []
    for n in range(1, radius + 1):
        for name, value, shift, sign in (("C", c[n, n], -1, (-1) ** n),
                                         ("Cbar", cb[n, n], 0, 1)):
            t = _toeplitz(a, n, shift)
            tol = max(8 * n * EPS * np.linalg.cond(t), 1e-14)
            if tol > TOEPLITZ_MAX_TOL:
                continue
            ref = sign * np.linalg.det(t)
            if not abs(value - ref) <= tol * abs(ref):
                fails.append("%s(%d,%d) = %.17g, Toeplitz determinant %.17g "
                             "(tol %.1e)" % (name, n, n, value, ref, tol))
    return fails


def check_identities(c, cb, k):
    """Corner and star identities on the written values.

    The sweep consumes neither, so they test the finished octant.  Each
    residual is measured against the sum of the magnitudes of its terms.
    """
    radius = c.shape[0] - 1
    rk = math.sqrt(k)

    def g(t, i, j):
        return t[abs(i), abs(j)]

    fails = []
    for m in range(radius):
        for n in range(m, radius):
            corner = (k * g(c, m, n) * g(c, m + 1, n + 1),
                      -k * g(c, m, n + 1) * g(c, m + 1, n),
                      -g(cb, m, n) * g(cb, m + 1, n + 1),
                      g(cb, m, n + 1) * g(cb, m + 1, n))
            terms = [("corner", corner)]
            if (m, n) != (0, 0):
                star = (rk * g(c, m + 1, n) * g(cb, m - 1, n),
                        rk * g(c, m - 1, n) * g(cb, m + 1, n),
                        rk * g(c, m, n + 1) * g(cb, m, n - 1),
                        rk * g(c, m, n - 1) * g(cb, m, n + 1),
                        -2 * (k + 1) * g(c, m, n) * g(cb, m, n))
                terms.append(("star", star))
            for name, parts in terms:
                scale = sum(abs(p) for p in parts)
                if not abs(math.fsum(parts)) <= 64 * EPS * scale:
                    fails.append("%s identity at (%d, %d): residual %.3e of %.3e"
                                 % (name, m, n, abs(math.fsum(parts)), scale))
    return fails


def check_table(c, cb, k):
    """Every check of a table built at modulus 0 < k < 1."""
    fails = []
    for name, t in (("C", c), ("Cbar", cb)):
        if not ((t > 0) & (t <= 1)).all():
            fails.append("%s has an entry outside (0, 1]" % name)
    ref = onsager_nn(k)
    if not abs(c[1, 0] - ref) <= 1e-13 * ref:
        fails.append("C(1,0) = %.17g, Onsager closed form %.17g" % (c[1, 0], ref))
    diag = np.diag(cb)
    limit = (1 - k * k) ** 0.25
    if not (np.diff(diag) <= 0).all():
        fails.append("Cbar(n,n) is not non-increasing")
    if not diag[-1] >= limit * (1 - 4 * EPS):
        fails.append("Cbar(n,n) fell below its limit (1-k^2)^(1/4)")
    return fails + check_toeplitz_diagonal(c, cb, k) + check_identities(c, cb, k)


def check_swap(c_dual, cb_dual, c, cb):
    """A k > 1 table equals the corner of the 1/k table with C and Cbar swapped."""
    r = c_dual.shape[0]
    fails = []
    for name, got, want in (("C", c_dual, cb[:r, :r]), ("Cbar", cb_dual, c[:r, :r])):
        if not np.allclose(got, want, rtol=1e-14, atol=0):
            fails.append("dual %s differs from the swapped corner by %.3e relative"
                         % (name, float(np.max(np.abs(got / want - 1)))))
    return fails


# ---------------------------------------------------------------- grids


def check_grid_invariants(values, zero_term=1.0):
    """Grid mean equals the zero-separation term; chi(q) = chi(-q)."""
    nx, ny = values.shape
    scale = float(np.abs(values).max())
    fails = []
    if not abs(values.mean() - zero_term) <= 1e-12 * scale:
        fails.append("grid mean %.17g, zero-separation term %g"
                     % (values.mean(), zero_term))
    flip_x, flip_y = (-np.arange(nx)) % nx, (-np.arange(ny)) % ny
    asym = float(np.abs(values - values[flip_x][:, flip_y]).max())
    if not asym <= 1e-12 * scale:
        fails.append("chi(q) - chi(-q) reaches %.3e" % asym)
    return fails


def direct_sum(corr, q):
    """sum over the window of e^{i q.d} corr[d], corr indexed from -W to W."""
    w = (corr.shape[0] - 1) // 2
    d = np.arange(-w, w + 1)
    phase = np.exp(1j * q[0] * d)[:, None] * np.exp(1j * q[1] * d)[None, :]
    return complex((phase * corr).sum()), float(np.abs(corr).sum())


def full_window(octant, kappa=None):
    """Expand C(|dx|, |dy|) (times kappa(|dy|)) to the square window."""
    r = octant.shape[0] - 1
    idx = np.abs(np.arange(-r, r + 1))
    corr = octant[np.ix_(idx, idx)]
    if kappa is not None:
        corr = corr * np.asarray(kappa)[idx][None, :]
    return corr


def check_grid_points(qx, qy, values, corr, points, tol_rel):
    """Grid samples at the given indices against a direct complex sum."""
    fails = []
    for i, j in points:
        ref, mass = direct_sum(corr, (qx[i], qy[j]))
        err = max(abs(values[i, j] - ref.real), abs(ref.imag))
        if not err <= tol_rel * mass:
            fails.append("chi at (%d, %d) = %.17g, direct sum %.17g (tol %.1e)"
                         % (i, j, values[i, j], ref.real, tol_rel * mass))
    return fails


def sturmian_kappa(alpha, max_lag):
    """Closed-form sign autocorrelation of a Sturmian word of slope 1/alpha."""
    lag = np.arange(max_lag + 1) / alpha
    dist = np.abs(lag - np.rint(lag))
    return 1 - 4 * np.minimum(dist, min(1 / alpha, 1 - 1 / alpha))


def cosine_grid(qx, qy, corr):
    """chi over the whole grid from a square window, by cosine matrices."""
    w = (corr.shape[0] - 1) // 2
    d = np.arange(-w, w + 1)
    return np.cos(np.multiply.outer(qx, d)) @ corr @ np.cos(np.multiply.outer(qy, d)).T


def check_gauge_closed_form(qx, qy, values, octant, alpha):
    """A gauge grid agrees with the closed-form kappa within the window error."""
    kappa = sturmian_kappa(alpha, octant.shape[0] - 1)
    corr = full_window(octant, kappa)
    ref = cosine_grid(qx, qy, corr)
    tol = (KAPPA_WINDOW_ERR + 1e-12) * float(np.abs(corr).sum())
    err = float(np.abs(values - ref).max())
    if not err <= tol:
        return ["gauge grid differs from the closed-form kappa grid by %.3e "
                "(window error %.3e)" % (err, tol)]
    return []


def check_pgm(samples, values):
    """The PGM holds the linear min-max scaling of the grid to 16 bits."""
    if samples.shape != values.shape:
        return ["PGM is %dx%d, grid is %dx%d" % (samples.shape + values.shape)]
    lo, hi = float(values.min()), float(values.max())
    want = np.rint(65535.0 * (values - lo) / (hi - lo)).astype(np.uint16)
    bad = np.argwhere(samples != want)
    if len(bad):
        i, j = bad[0]
        return ["PGM sample (%d, %d) is %d, min-max scaling gives %d (%d bad)"
                % (i, j, samples[i, j], want[i, j], len(bad))]
    return []


def strict_maxima(values):
    """Mask of samples above all 8 neighbours, the grid wrapping around."""
    best = np.full(values.shape, -np.inf)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                best = np.maximum(best, np.roll(values, (di, dj), axis=(0, 1)))
    return values > best


def check_peaks(peaks, qx, qy, values):
    """The peaks file lists exactly the strict maxima, highest first.

    A peak is commensurate when both components lie within one grid cell
    of a multiple of pi/2.
    """
    spacing = math.pi / 2
    expected = []
    for i, j in zip(*np.nonzero(strict_maxima(values))):
        flags = [abs(q / spacing - round(q / spacing)) * spacing <= 2 * math.pi / n
                 for q, n in ((qx[i], len(qx)), (qy[j], len(qy)))]
        expected.append((float(qx[i]), float(qy[j]), float(values[i, j]), all(flags)))
    fails = []
    if sorted(peaks) != sorted(expected):
        fails.append("peaks file has %d entries, %d strict maxima recomputed "
                     "(%d differ)" % (len(peaks), len(expected),
                                      len(set(peaks) ^ set(expected))))
    heights = [p[2] for p in peaks]
    if any(a < b for a, b in zip(heights, heights[1:])):
        fails.append("peaks are not sorted by height")
    return fails


# ---------------------------------------------------------------- verify


def suite_of(identity):
    for suite, prefixes in VERIFY_SUITES.items():
        if identity.startswith(prefixes):
            return suite
    return None


def check_verify(rows):
    """Every residual finite and within tolerance, every suite present."""
    fails = []
    seen = set()
    for identity, location, residual, tolerance, passed in rows:
        seen.add(suite_of(identity))
        if not (math.isfinite(residual) and residual <= tolerance
                and passed == "true"):
            fails.append("%s at %s: residual %.3e, tolerance %.1e, pass=%s"
                         % (identity, location, residual, tolerance, passed))
    for suite in VERIFY_SUITES:
        if suite not in seen:
            fails.append("suite %s contributed no row" % suite)
    return fails
