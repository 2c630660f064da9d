"""Deterministic file emission: CSV tables, PGM density maps, config files.

Every writer streams its chunks into a sibling temp file that is renamed
into place only when complete, so interrupted runs never leave truncated
artifacts (the chi CSV goes a few qy rows at a time and is never held
whole in memory), and every float is printed as `%.17g` prints it, so
reading it back gives the same double and identical inputs give
byte-identical files.

The chi CSV formats its samples a block at a time with integer
arithmetic on numpy arrays (`_format_g17`), because CPython's `%.17g`
takes the slow bignum path of its dtoa for every value.  A value whose
17-digit decimal exponent e lies in [-4, 16] prints in fixed notation
with the digits D = round(|x| 10**(16 - e)), rounded half to even.  That
power of ten is an exact double, Dekker's product gives |x| 10**(16 - e)
as y + err exactly, and y >= 10**16 > 2**53 is an even integer, so D is
y plus err rounded half to even: the same digits as `%.17g`, with no
approximation anywhere.  Zeros, non-finite values and values that print
in scientific notation go through `%.17g` one at a time.

numpy is imported only by the functions that use it (`_format_g17`, the
chi CSV and PGM writers), and `_format_g17`'s lookup tables are built on
its first call, so a `corr` table or a verification CSV is written
without loading numpy.
"""

import os
import tempfile
from contextlib import suppress
from functools import cache

__all__ = [
    "ConfigError",
    "format_float",
    "read_config",
    "write_chi_csv",
    "write_corr_csv",
    "write_peaks_csv",
    "write_pgm",
    "write_verification_csv",
]


class ConfigError(ValueError):
    """A config file line is malformed."""


def format_float(x):
    return "%.17g" % float(x)


_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitter for 53-bit doubles


def _column_maps():
    """Source column of each of the 24 output bytes, one row per (e, sign,
    digits kept), into a source row of 24 bytes: "000", the 17 digits of
    D, then "-", ".", "0" and NUL."""
    import numpy as np

    e = np.arange(-4, 17)[:, None, None, None]
    neg = np.arange(2)[:, None, None]
    keep = np.arange(1, 18)[:, None]
    t = np.arange(24) - neg  # position after the sign
    fixed = e >= 0
    size = np.where(fixed, np.maximum(keep, e + 1) + (keep > e + 1),
                    1 - e + keep)
    digit = np.where(fixed, 3 + t - (t > e + 1), 2 + t + e)
    col = np.select([t >= size, t < 0, fixed & (t == e + 1), fixed,
                     t == 1, t < 1 - e], [23, 20, 21, digit, 21, 22], digit)
    return col.reshape(-1, 24)


@cache
def _tables():
    """_format_g17's lookup tables, built on its first call."""
    import numpy as np

    pow10 = np.cumprod(np.r_[1.0, np.full(20, 10.0)])  # 10**0..10**20, exact
    # 4-digit ASCII chunks, each packed in a uint32 whose bytes are its
    # text; entry 10**4 holds the bytes "-", ".", "0" and NUL that the
    # column maps point at
    chunks = np.vstack([np.arange(10 ** 4)[:, None] // [1000, 100, 10, 1] % 10
                        + 48, [45, 46, 48, 0]]).astype(np.uint8).view(np.uint32)
    # number of trailing zero digits of each 4-digit chunk, 4 for 0000
    trailing_zeros = sum((np.arange(10 ** 4) % 10 ** k == 0)
                         for k in range(1, 5))
    return pow10, chunks, _column_maps(), trailing_zeros


def _two_product(a, b):
    """y, err with a*b == y + err exactly (Dekker), barring over/underflow."""
    y = a * b
    t = a * _SPLIT
    ah = t - (t - a)
    al = a - ah
    t = b * _SPLIT
    bh = t - (t - b)
    bl = b - bh
    return y, ((ah * bh - y) + ah * bl + al * bh) + al * bl


def _format_g17(x):
    """`b"%.17g" % v` for every v of a float64 array, as a list of bytes."""
    import numpy as np

    pow10, chunk_texts, maps, trailing_zeros = _tables()
    x = np.asarray(x, float).ravel()
    a = np.abs(x)
    # zeros, nan, inf and values far outside the range run through junk
    # arithmetic here; they are not ok and go through %.17g below
    with np.errstate(all="ignore"):
        e = np.log10(a)
        ok = np.isfinite(e)
        e = np.fmax(np.fmin(np.floor(e), 16), -4).astype(np.int64)
        y, err = _two_product(a, pow10[16 - e])
        # floor(log10) can be one off: move e by one towards
        # 10**16 <= y + err < 10**17 and recompute where it moved
        low = (y < 1e16) | ((y == 1e16) & (err < 0))
        high = (y > 1e17) | ((y == 1e17) & (err >= 0))
        e += high.view(np.int8)
        e -= low.view(np.int8)
        ok &= (e >= -4) & (e <= 16)
        fix = np.flatnonzero(ok & (low | high))
        y[fix], err[fix] = _two_product(a[fix], pow10[16 - e[fix]])
        # y >= 10**16 > 2**53 is an even integer, so rounding err half to
        # even rounds y + err half to even
        d = (np.where(ok, y, 1e16).astype(np.int64)
             + np.where(ok, np.rint(err), 0).astype(np.int64))
    # a carry to 10**17 is 10**16 at e + 1
    carry = d == 10 ** 17
    d[carry] = 10 ** 16
    e += carry.view(np.int8)
    ok &= e <= 16
    chunks = np.empty((len(x), 6), np.int64)
    chunks[:, 5] = 10 ** 4
    for i in (4, 3, 2, 1):
        q = d // 10 ** 4
        chunks[:, i] = d - q * 10 ** 4
        d = q
    chunks[:, 0] = d
    zeros = trailing_zeros[chunks[:, 4]]
    for i in (3, 2, 1):
        zeros += (zeros == 16 - 4 * i) * trailing_zeros[chunks[:, i]]
    group = np.where(ok, ((e + 4) * 2 + (x < 0)) * 17 + 16 - zeros, 0)
    index = maps[group]
    index += np.arange(0, 24 * len(x), 24)[:, None]
    texts = chunk_texts[chunks].view(np.uint8).take(index)
    texts = texts.view("S24").ravel().tolist()
    for i in np.flatnonzero(~ok).tolist():
        texts[i] = b"%.17g" % x[i]
    return texts


def _atomic_write(path, chunks):
    """Stream str (ASCII) or bytes chunks into a sibling temp file, then
    rename it over path; if any chunk fails, path is left as it was.  An
    OSError that names a file names path, never the temp file."""
    directory = os.path.dirname(os.path.abspath(path))
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
        with os.fdopen(fd, "wb") as handle:
            for chunk in chunks:
                handle.write(chunk.encode("ascii") if isinstance(chunk, str)
                             else chunk)
        mask = os.umask(0)
        os.umask(mask)
        os.chmod(tmp, 0o666 & ~mask)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            with suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename is not None:
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
        raise


def write_corr_csv(path, table):
    """Octant of a correlation table, rows ordered by (n - m, m), each entry
    printed as format_float does."""
    C, C_bar, size = table.C, table.C_bar, table.radius + 1
    _atomic_write(path, ["m,n,C,Cbar\n" + "".join([
        "%d,%d,%.17g,%.17g\n" % (m, m + d, C[m][m + d], C_bar[m][m + d])
        for d in range(size) for m in range(size - d)])])


_CHI_BLOCK_ROWS = 8


def write_chi_csv(path, grid):
    """Grid samples as qx,qy,chi rows, row-major with qy as the outer loop.

    Formatted _CHI_BLOCK_ROWS qy rows at a time and streamed one row at a
    time, each a single % call on a template that holds the qx text.  A
    grid whose arrays do not match (nx, ny) raises ValueError before
    anything is written.
    """
    import numpy as np

    qx, qy = np.asarray(grid.qx, float), np.asarray(grid.qy, float)
    values = np.asarray(grid.values, float)
    if (qx.shape, qy.shape, values.shape) != ((grid.nx,), (grid.ny,),
                                              (grid.nx, grid.ny)):
        raise ValueError("chi grid is %dx%d but qx, qy and values have shapes "
                         "%s, %s and %s" % (grid.nx, grid.ny, qx.shape,
                                            qy.shape, values.shape))
    template = b"".join(b"%s,%%s,%%s\n" % x for x in _format_g17(qx))
    qy_texts = _format_g17(qy)

    def rows():
        yield b"qx,qy,chi\n"
        for j0 in range(0, grid.ny, _CHI_BLOCK_ROWS):
            texts = _format_g17(values[:, j0:j0 + _CHI_BLOCK_ROWS].T)
            for j, y in enumerate(qy_texts[j0:j0 + _CHI_BLOCK_ROWS]):
                cells = [y] * (2 * grid.nx)
                cells[1::2] = texts[j * grid.nx:(j + 1) * grid.nx]
                yield template % tuple(cells)

    _atomic_write(path, rows())


def write_pgm(path, grid):
    """16-bit NetPBM P5 density map of the grid, linear min-max scaling.

    Width nx, height ny; row j holds qy[j], sample i in a row holds qx[i];
    two bytes per sample, most significant first.  A constant grid maps to
    all zeros.
    """
    import numpy as np

    v = np.asarray(grid.values, float)
    lo, hi = float(v.min()), float(v.max())
    if hi > lo:
        scaled = np.rint(65535.0 * (v - lo) / (hi - lo)).astype(np.uint16)
    else:
        scaled = np.zeros(v.shape, np.uint16)
    _atomic_write(path, ["P5\n%d %d\n65535\n" % (grid.nx, grid.ny),
                         scaled.T.astype(">u2").tobytes()])


def write_peaks_csv(path, peaks):
    _atomic_write(path, ["qx,qy,value,commensurate\n"] + [
        "%s,%s,%s,%s\n" % (format_float(p.qx), format_float(p.qy),
                           format_float(p.value),
                           "true" if p.commensurate else "false")
        for p in peaks])


def write_verification_csv(path, report):
    _atomic_write(path, ["identity,location,residual,tolerance,pass\n"] + [
        "%s,%s,%s,%s,%s\n" % (r.identity, r.location, format_float(r.residual),
                              format_float(r.tolerance),
                              "true" if r.passed else "false")
        for r in report.rows])


def read_config(path):
    """Parse a line-oriented `key = value` file with # comments."""
    out = {}
    with open(path, "r", encoding="ascii") as handle:
        for lineno, raw in enumerate(handle, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("%s:%d: expected `key = value`, got %r"
                                  % (path, lineno, raw.strip()))
            key, value = line.split("=", 1)
            key = key.strip()
            if not key:
                raise ConfigError("%s:%d: empty key" % (path, lineno))
            out[key] = value.strip()
    return out
