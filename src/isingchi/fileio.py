"""Deterministic file emission: CSV tables, PGM density maps, config files.

Every writer streams its chunks into a sibling temp file that is renamed
into place only when complete, so interrupted runs never leave truncated
artifacts (the chi CSV goes one qy row at a time and is never held whole
in memory), and every float is printed with 17 significant digits so
identical inputs give byte-identical files.
"""

import os
import tempfile
from contextlib import suppress

import numpy as np

from .correlations import lookup

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
    """Octant of a correlation table, rows ordered by (n - m, m)."""
    points = sorted((n - m, m, n) for m in range(table.radius + 1)
                    for n in range(m, table.radius + 1))
    _atomic_write(path, ["m,n,C,Cbar\n"] + [
        "%d,%d,%s,%s\n" % (m, n, format_float(lookup(table, m, n)),
                           format_float(lookup(table, m, n, "Cbar")))
        for _, m, n in points])


def write_chi_csv(path, grid):
    """Grid samples as qx,qy,chi rows, row-major with qy as the outer loop.

    Streamed one qy row at a time, each a single % call on a template that
    holds the qx text.  A grid whose arrays do not match (nx, ny) raises
    ValueError before anything is written.
    """
    qx, qy = np.asarray(grid.qx, float), np.asarray(grid.qy, float)
    values = np.asarray(grid.values, float)
    if (qx.shape, qy.shape, values.shape) != ((grid.nx,), (grid.ny,),
                                              (grid.nx, grid.ny)):
        raise ValueError("chi grid is %dx%d but qx, qy and values have shapes "
                         "%s, %s and %s" % (grid.nx, grid.ny, qx.shape,
                                            qy.shape, values.shape))
    template = "".join("%s,%%s,%%.17g\n" % format_float(x)
                       for x in qx.tolist()).encode("ascii")

    def rows():
        yield b"qx,qy,chi\n"
        for j, y in enumerate(qy.tolist()):
            cells = [format_float(y).encode("ascii")] * (2 * grid.nx)
            cells[1::2] = values[:, j].tolist()
            yield template % tuple(cells)

    _atomic_write(path, rows())


def write_pgm(path, grid):
    """16-bit NetPBM P5 density map of the grid, linear min-max scaling.

    Width nx, height ny; row j holds qy[j], sample i in a row holds qx[i];
    two bytes per sample, most significant first.  A constant grid maps to
    all zeros.
    """
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
