"""Each output check passes on real CLI output and catches one corruption.

Run from the checkout root:  python3 -m pytest -q perfbench/test_checkers.py
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checkers as ck  # noqa: E402
from isingchi.cli import run  # noqa: E402

K, RADIUS, SHAPE = 0.5, 8, (32, 24)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("outputs")
    assert run(["corr", "--k", str(K), "--radius", str(RADIUS),
                "--out", str(d / "corr.csv")]) == 0
    assert run(["chi", "uniform", "--k", str(K), "--radius", str(RADIUS),
                "--grid", "%dx%d" % SHAPE, "--out", str(d / "chi.csv"),
                "--pgm", str(d / "chi.pgm"), "--peaks", str(d / "peaks.csv")]) == 0
    return d


def _copy(src, dst, edit=None):
    data = src.read_bytes()
    dst.write_bytes(edit(data) if edit else data)
    return dst


def _perturb_line(data, index, column, factor):
    lines = data.decode().split("\n")
    fields = lines[index].split(",")
    fields[column] = "%.17g" % (float(fields[column]) * factor)
    lines[index] = ",".join(fields)
    return "\n".join(lines).encode()


def table_failures(path):
    c, cb = ck.read_corr_csv(path)
    return ck.check_table(c, cb, K)


def grid_failures(d, csv="chi.csv", pgm="chi.pgm", peaks="peaks.csv"):
    qx, qy, values = ck.read_chi_csv(d / csv)
    c, _ = ck.read_corr_csv(d / "corr.csv")
    points = [(i, j) for i in range(0, SHAPE[0], 5) for j in range(0, SHAPE[1], 7)]
    return (ck.check_grid_invariants(values)
            + ck.check_pgm(ck.read_pgm(d / pgm), values)
            + ck.check_peaks(ck.read_peaks_csv(d / peaks), qx, qy, values)
            + ck.check_grid_points(qx, qy, values, ck.full_window(c), points, 1e-12))


def test_real_outputs_pass(outputs):
    assert table_failures(outputs / "corr.csv") == []
    assert grid_failures(outputs) == []
    assert len(ck.read_peaks_csv(outputs / "peaks.csv")) >= 1


@pytest.mark.parametrize("row", [3, 17, 30])
def test_perturbed_corr_value_is_caught(outputs, tmp_path, row):
    # rows 3, 17 and 30 hold (2,2), (7,8) and (5,8)
    bad = _copy(outputs / "corr.csv", tmp_path / "corr.csv",
                lambda data: _perturb_line(data, row, 2, 1 + 1e-9))
    assert table_failures(bad)


def test_perturbed_chi_value_is_caught(outputs, tmp_path):
    for name in ("corr.csv", "chi.pgm", "peaks.csv"):
        _copy(outputs / name, tmp_path / name)
    _copy(outputs / "chi.csv", tmp_path / "chi.csv",
          lambda data: _perturb_line(data, 200, 2, 1 + 1e-9))
    assert grid_failures(tmp_path)


def test_flipped_pgm_byte_is_caught(outputs, tmp_path):
    def flip(data):
        data = bytearray(data)
        data[-101] ^= 0x01
        return bytes(data)

    _copy(outputs / "chi.pgm", tmp_path / "chi.pgm", flip)
    qx, qy, values = ck.read_chi_csv(outputs / "chi.csv")
    assert ck.check_pgm(ck.read_pgm(tmp_path / "chi.pgm"), values)


def test_dropped_peak_is_caught(outputs, tmp_path):
    def drop(data):
        lines = data.decode().splitlines(keepends=True)
        return "".join(lines[:1] + lines[2:]).encode()

    _copy(outputs / "peaks.csv", tmp_path / "peaks.csv", drop)
    qx, qy, values = ck.read_chi_csv(outputs / "chi.csv")
    assert ck.check_peaks(ck.read_peaks_csv(tmp_path / "peaks.csv"), qx, qy, values)


VERIFY_ROWS = [
    ("K-vs-quadrature", "m=0.5", 1e-16, 1e-12, "true"),
    ("product-rule", "k=0.5", 1e-16, 1e-12, "true"),
    ("corner-determinant", "(1 2)", 1e-9, 1e-6, "true"),
    ("assembly-odd-x-a", "(1 0)p0", 1e-9, 1e-6, "true"),
    ("sum-rule", "64x64", 1e-5, 1e-3, "true"),
]


def test_verify_rows_pass():
    assert ck.check_verify(VERIFY_ROWS) == []


def test_failing_verify_row_is_caught():
    rows = list(VERIFY_ROWS)
    rows[2] = ("corner-determinant", "(1 2)", 3e-6, 1e-6, "false")
    assert ck.check_verify(rows)


def test_missing_verify_suite_is_caught():
    assert ck.check_verify(VERIFY_ROWS[:-1])
