"""Deterministic file emission: CSV tables, PGM density maps, config files.

Every writer goes through an atomic temp-file-plus-rename so interrupted
runs never leave truncated artifacts, and every float is printed with 17
significant digits so identical inputs give byte-identical files.
"""

import os
import tempfile

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


def _atomic_write(path, data):
    """Write bytes to path via a sibling temp file and rename."""
    if isinstance(data, str):
        data = data.encode("ascii")
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        mask = os.umask(0)
        os.umask(mask)
        os.chmod(tmp, 0o666 & ~mask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_corr_csv(path, table):
    """Octant of a correlation table, rows ordered by (n - m, m)."""
    lines = ["m,n,C,Cbar"]
    points = [(n - m, m, n) for m in range(table.radius + 1)
              for n in range(m, table.radius + 1)]
    for _, m, n in sorted(points):
        lines.append("%d,%d,%s,%s" % (m, n,
                                      format_float(lookup(table, m, n)),
                                      format_float(lookup(table, m, n, "Cbar"))))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_chi_csv(path, grid):
    """Grid samples as qx,qy,chi rows, row-major with qy as the outer loop."""
    lines = ["qx,qy,chi"]
    for j in range(grid.ny):
        qy = format_float(grid.qy[j])
        for i in range(grid.nx):
            lines.append("%s,%s,%s" % (format_float(grid.qx[i]), qy,
                                       format_float(grid.values[i, j])))
    _atomic_write(path, "\n".join(lines) + "\n")


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
    header = ("P5\n%d %d\n65535\n" % (grid.nx, grid.ny)).encode("ascii")
    _atomic_write(path, header + scaled.T.astype(">u2").tobytes())


def write_peaks_csv(path, peaks):
    lines = ["qx,qy,value,commensurate"]
    for p in peaks:
        lines.append("%s,%s,%s,%s" % (format_float(p.qx), format_float(p.qy),
                                      format_float(p.value),
                                      "true" if p.commensurate else "false"))
    _atomic_write(path, "\n".join(lines) + "\n")


def write_verification_csv(path, report):
    lines = ["identity,location,residual,tolerance,pass"]
    for r in report.rows:
        lines.append("%s,%s,%s,%s,%s" % (r.identity, r.location,
                                         format_float(r.residual),
                                         format_float(r.tolerance),
                                         "true" if r.passed else "false"))
    _atomic_write(path, "\n".join(lines) + "\n")


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
