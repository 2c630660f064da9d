import math
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from isingchi import (
    ChiGrid,
    Peak,
    build_table,
    chi_grid,
    lookup,
)
from isingchi.fileio import (
    ConfigError,
    _atomic_write,
    _format_g17,
    format_float,
    read_config,
    write_chi_csv,
    write_corr_csv,
    write_peaks_csv,
    write_pgm,
    write_verification_csv,
)
from isingchi.verify import run_suite


@pytest.fixture(scope="module")
def small_table():
    return build_table(0.5, 2)


def test_float_format_round_trips():
    for x in (0.1, 1 / 3, 0.4013239632465773, 1e-300, -math.pi):
        assert float(format_float(x)) == x


def test_corr_csv_layout(tmp_path, small_table):
    path = tmp_path / "corr.csv"
    write_corr_csv(path, small_table)
    lines = path.read_text().splitlines()
    assert lines[0] == "m,n,C,Cbar"
    coords = [tuple(map(int, ln.split(",")[:2])) for ln in lines[1:]]
    # octant only, ordered by distance off the diagonal, then along it
    assert coords == [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)]
    first = lines[1].split(",")
    assert float(first[2]) == lookup(small_table, 0, 0)
    assert float(first[3]) == lookup(small_table, 0, 0, "Cbar")
    row12 = lines[5].split(",")
    assert float(row12[2]) == lookup(small_table, 1, 2)


def test_corr_csv_converts_each_entry_once(tmp_path, counted_entries):
    # the build divides each octant entry once; the writer converts nothing
    R = 5
    table = build_table(0.5, R)
    assert len(counted_entries) == (R + 1) * (R + 2)  # C and Cbar per octant entry
    counted_entries.clear()
    write_corr_csv(tmp_path / "corr.csv", table)
    assert counted_entries == []


@pytest.mark.parametrize("k, radius, precision_bits",
                         [(2.0, 8, 256), (0.5, 12, 53), (0.05, 30, 256)])
def test_corr_csv_rows_match_lookup_rendering(tmp_path, k, radius, precision_bits):
    # each row must read as format_float of lookup does, on a swapped table, a 53-bit table and
    # one whose far entries are the smallest a 256-bit table holds
    table = build_table(k, radius, precision_bits)
    path = tmp_path / "corr.csv"
    write_corr_csv(path, table)
    points = sorted((n - m, m, n) for m in range(radius + 1)
                    for n in range(m, radius + 1))
    assert path.read_text().splitlines()[1:] == [
        "%d,%d,%s,%s" % (m, n, format_float(lookup(table, m, n)),
                         format_float(lookup(table, m, n, "Cbar")))
        for _, m, n in points]


def test_chi_csv_row_major_qy_outer(tmp_path, table05_r30):
    grid = chi_grid(("uniform", table05_r30), 4, 3, 5)
    path = tmp_path / "chi.csv"
    write_chi_csv(path, grid)
    lines = path.read_text().splitlines()
    assert lines[0] == "qx,qy,chi"
    assert len(lines) == 1 + 4 * 3
    rows = [ln.split(",") for ln in lines[1:]]
    # qy constant within a block of nx rows, qx cycling
    assert [r[1] for r in rows[:4]] == [format_float(grid.qy[0])] * 4
    assert [r[0] for r in rows[:4]] == [format_float(q) for q in grid.qx]
    assert float(rows[4][1]) == float(grid.qy[1])
    k = 0
    for j in range(3):
        for i in range(4):
            assert float(rows[k][2]) == float(grid.values[i, j])
            k += 1


def test_chi_csv_matches_per_sample_layout(tmp_path):
    # non-square, with signed zero, subnormal-range, large and non-finite values
    nx, ny = 7, 5
    qx = 2 * math.pi * np.arange(nx) / nx - math.pi
    qy = 2 * math.pi * np.arange(ny) / ny - math.pi
    values = np.random.default_rng(7).normal(size=(nx, ny))
    values[0, 0], values[3, 1], values[6, 4], values[2, 2] = -0.0, 1e-300, -1.5e17, 1 / 3
    values[1, 0], values[4, 3], values[5, 2] = math.nan, math.inf, -math.inf
    # edges of the block formatter's fixed-notation range: the double next
    # below 1e-4 (no double rounds up to 0.0001), the largest double below
    # 1e17, 1e17 itself, an exact decimal tie and -0.0001
    values[0, 1], values[1, 1] = 9.9999999999999995e-5, 99999999999999984.0
    values[2, 1], values[4, 1], values[5, 1] = 1e17, 1000000000000000.25, -1e-4
    grid = ChiGrid(nx=nx, ny=ny, qx=qx, qy=qy, values=values,
                   window_radius=0, tail_bound=0.0, source="synthetic")
    path = tmp_path / "chi.csv"
    write_chi_csv(path, grid)
    expect = ["qx,qy,chi"]
    for j in range(ny):
        for i in range(nx):
            expect.append("%.17g,%.17g,%.17g" % (qx[i], qy[j], values[i, j]))
    assert path.read_bytes() == ("\n".join(expect) + "\n").encode("ascii")
    for text in (",-0\n", ",1e-300\n", ",-1.5e+17\n", ",nan\n", ",inf\n",
                 ",-inf\n", ",9.9999999999999991e-05\n",
                 ",99999999999999984\n", ",1e+17\n", ",1000000000000000.2\n",
                 ",-0.0001\n"):
        assert text in path.read_text()


def _exact_ties(rng, per_power):
    """Doubles x with x * 10**p exactly half an odd integer in [1e16, 1e17):
    x = M / 2**(p + 1) for odd M, so %.17g must round the tie to even."""
    out = []
    for p in range(1, 21):
        lo = -(-2 * 10 ** 16 // 5 ** p)
        hi = min(2 * 10 ** 17 // 5 ** p, 2 ** 53)
        odd = rng.integers(lo // 2, hi // 2, per_power) * 2 + 1
        out.append(np.ldexp(odd.astype(float), -(p + 1)))
    return np.concatenate(out)


def test_block_format_is_percent_17g():
    rng = np.random.default_rng(2024)
    n = 200_000
    sweep = 10 ** rng.uniform(-330, 308.25, n) * rng.choice([-1.0, 1.0], n)
    fixed_range = (10 ** rng.uniform(-5, 17.5, n // 2)
                   * rng.choice([-1.0, 1.0], n // 2))
    ties = _exact_ties(rng, 2000)
    powers = 10.0 ** np.arange(-6, 19)
    specials = np.concatenate([
        [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324,
         2.2250738585072014e-308, 9.9999999999999995e-5,
         np.nextafter(1e-4, 0), 99999999999999984.0, 1e17,
         1000000000000000.25, 123456789012345.125],
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf),
        np.nextafter(ties, 0), np.nextafter(ties, np.inf)])
    for x in (sweep, fixed_range, np.round(fixed_range[:n // 4], 3), ties,
              specials):
        assert _format_g17(x) == [b"%.17g" % v for v in x.tolist()]
    assert all(Fraction(float(x)) * 10 ** p % 1 == Fraction(1, 2)
               for p, x in zip(range(1, 21), ties[::2000]))
    assert _format_g17(np.array([1000000000000000.25, 123456789012345.125,
                                 9.9999999999999995e-5, 1e17])) == [
        b"1000000000000000.2", b"123456789012345.12",
        b"9.9999999999999991e-05", b"1e+17"]


def test_chi_csv_streams(tmp_path):
    # the 512x512 file is 14.8 MB; a writer that holds it whole fails this
    nx = ny = 512
    q = 2 * math.pi * np.arange(nx) / nx - math.pi
    values = np.random.default_rng(5).uniform(0.1, 30.0, (nx, ny))
    grid = ChiGrid(nx=nx, ny=ny, qx=q, qy=q, values=values,
                   window_radius=0, tail_bound=0.0, source="synthetic")
    tracemalloc.start()
    try:
        write_chi_csv(tmp_path / "chi.csv", grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "chi.csv").stat().st_size > 10_000_000
    assert peak < 4_000_000


@pytest.mark.parametrize("shapes", [((7,), (5,), (7, 4)), ((7,), (5,), (5, 7)),
                                    ((6,), (5,), (7, 5)), ((7,), (6,), (7, 5))])
def test_mismatched_chi_grid_leaves_old_file(tmp_path, shapes):
    (nqx,), (nqy,), vshape = shapes
    path = tmp_path / "chi.csv"
    path.write_bytes(b"qx,qy,chi\nold\n")
    grid = ChiGrid(nx=7, ny=5, qx=np.zeros(nqx), qy=np.zeros(nqy),
                   values=np.ones(vshape), window_radius=0, tail_bound=0.0,
                   source="synthetic")
    with pytest.raises(ValueError, match="7x5"):
        write_chi_csv(path, grid)
    assert path.read_bytes() == b"qx,qy,chi\nold\n"
    assert [p.name for p in tmp_path.iterdir()] == ["chi.csv"]


def test_failed_stream_leaves_no_temp_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_bytes(b"old\n")

    def chunks():
        yield "first row\n"
        raise RuntimeError("producer failed")

    with pytest.raises(RuntimeError, match="producer failed"):
        _atomic_write(path, chunks())
    assert path.read_bytes() == b"old\n"
    with pytest.raises(RuntimeError):
        _atomic_write(tmp_path / "new.csv", chunks())
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def _parse_pgm(data):
    magic, dims, maxval, rest = data.split(b"\n", 3)
    w, h = map(int, dims.split())
    return magic, w, h, int(maxval), rest


def test_pgm_encoding(tmp_path):
    vals = np.array([[0.0, 1.0], [0.25, 0.5], [1.0, 0.75]])
    grid = ChiGrid(nx=3, ny=2, qx=np.zeros(3), qy=np.zeros(2), values=vals,
                   window_radius=0, tail_bound=0.0, source="synthetic")
    path = tmp_path / "map.pgm"
    write_pgm(path, grid)
    magic, w, h, maxval, body = _parse_pgm(path.read_bytes())
    assert (magic, w, h, maxval) == (b"P5", 3, 2, 65535)
    assert len(body) == 2 * w * h
    samples = struct.unpack(">%dH" % (w * h), body)
    # row j scans qy[j], within it sample i is qx[i]
    expect = [round(65535 * v) for v in
              (0.0, 0.25, 1.0,   # j = 0 row: values[:, 0]
               1.0, 0.5, 0.75)]  # j = 1 row: values[:, 1]
    assert list(samples) == expect


def test_pgm_constant_grid_all_zeros(tmp_path):
    grid = ChiGrid(nx=2, ny=2, qx=np.zeros(2), qy=np.zeros(2),
                   values=np.full((2, 2), 3.7), window_radius=0,
                   tail_bound=0.0, source="synthetic")
    path = tmp_path / "flat.pgm"
    write_pgm(path, grid)
    _, w, h, _, body = _parse_pgm(path.read_bytes())
    assert body == b"\x00" * (2 * w * h)


def test_peaks_csv(tmp_path):
    peaks = [Peak(qx=0.0, qy=-math.pi, value=2.5, commensurate=True),
             Peak(qx=0.7, qy=0.1, value=1.0, commensurate=False)]
    path = tmp_path / "peaks.csv"
    write_peaks_csv(path, peaks)
    lines = path.read_text().splitlines()
    assert lines[0] == "qx,qy,value,commensurate"
    assert lines[1].endswith(",true")
    assert lines[2].endswith(",false")
    assert float(lines[1].split(",")[1]) == -math.pi


def test_verification_csv(tmp_path):
    rep = run_suite("elliptic")
    path = tmp_path / "report.csv"
    write_verification_csv(path, rep)
    lines = path.read_text().splitlines()
    assert lines[0] == "identity,location,residual,tolerance,pass"
    for ln in lines[1:]:
        fields = ln.split(",")
        assert len(fields) == 5
        assert fields[4] in ("true", "false")
        assert float(fields[2]) <= float(fields[3])


def test_atomic_write_leaves_no_droppings(tmp_path, small_table):
    target = tmp_path / "out.csv"
    write_corr_csv(target, small_table)
    write_corr_csv(target, small_table)  # overwrite in place
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_config_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# susceptibility run\n"
        "k = 0.5\n"
        "grid = 64x64   # square zone\n"
        "\n"
        "radius=30\n")
    assert read_config(path) == {"k": "0.5", "grid": "64x64", "radius": "30"}


def test_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("k 0.5\n")
    with pytest.raises(ConfigError) as err:
        read_config(bad)
    assert "bad.cfg:1" in str(err.value)
    empty_key = tmp_path / "empty.cfg"
    empty_key.write_text(" = 3\n")
    with pytest.raises(ConfigError):
        read_config(empty_key)
