import math
import types

import numpy as np
import pytest

from isingchi import (
    ChiGrid,
    EstimationError,
    FibonacciSpec,
    FrustratedModel,
    TableMismatchError,
    TableRangeError,
    WindowRangeError,
    autocorrelation,
    build_table,
    chi_column_gauge,
    chi_grid,
    chi_uniform,
    ff_correlation,
    find_peaks,
    lookup,
    sign_sequence,
    tail_estimate,
)

QS = [(0.0, 0.0), (0.3, 0.7), (-1.2, 2.0), (math.pi / 3, -math.pi / 5)]


@pytest.fixture(scope="module")
def table_s1():
    return build_table(FrustratedModel(S=1.0, version="a").k, 6)


def test_uniform_matches_direct_sum(table05_r30):
    R = 6
    for qx, qy in QS:
        direct = sum(
            math.cos(qx * dx) * math.cos(qy * dy)
            * lookup(table05_r30, dx, dy)
            for dx in range(-R, R + 1) for dy in range(-R, R + 1))
        fast = chi_uniform(table05_r30, (qx, qy), R)
        assert fast == pytest.approx(direct, rel=1e-13)


def test_scalar_matches_grid_samples(table05_r30):
    grid = chi_grid(("uniform", table05_r30), 8, 6, 6)
    assert grid.values.shape == (8, 6)
    for i in (0, 3, 7):
        for j in (0, 2, 5):
            q = (float(grid.qx[i]), float(grid.qy[j]))
            assert grid.values[i, j] == pytest.approx(
                chi_uniform(table05_r30, q, 6), rel=1e-14)
    assert grid.window_radius == 6
    assert grid.tail_bound > 0
    assert "uniform" in grid.source


def test_evenness_and_periodicity(table05_r30):
    R = 8
    for qx, qy in QS[1:]:
        base = chi_uniform(table05_r30, (qx, qy), R)
        assert chi_uniform(table05_r30, (-qx, qy), R) == pytest.approx(
            base, rel=1e-13)
        assert chi_uniform(table05_r30, (qx, -qy), R) == pytest.approx(
            base, rel=1e-13)
        assert chi_uniform(table05_r30, (qx + 2 * math.pi, qy), R) == (
            pytest.approx(base, rel=1e-12))


def test_constant_gauge_recovers_uniform(table05_r30):
    R = 6
    kappa = np.ones(R + 1)
    for q in QS:
        assert chi_column_gauge(table05_r30, kappa, q, R) == (
            chi_uniform(table05_r30, q, R))


def test_alternating_gauge_is_half_zone_shift(table05_r30):
    # kappa(Delta) = (-1)^Delta folds into the phases as a pi shift
    R = 8
    kappa = (-1.0) ** np.arange(R + 1)
    for qx, qy in QS:
        shifted = chi_uniform(table05_r30, (qx, qy + math.pi), R)
        assert chi_column_gauge(table05_r30, kappa, (qx, qy), R) == (
            pytest.approx(shifted, rel=1e-12))


def test_fibonacci_gauge_grid_builds(table05_r30):
    seq = sign_sequence(FibonacciSpec(j=0), 4000)
    kappa = autocorrelation(seq, 11)
    grid = chi_grid(("gauge", table05_r30, kappa), 16, 16, 10)
    assert np.all(np.isfinite(grid.values))
    assert find_peaks(grid)
    with pytest.raises(WindowRangeError):
        chi_column_gauge(table05_r30, kappa, (0.0, 0.0), 12)


def test_frustrated_matches_direct_class_sum(table_s1):
    # brute Fourier sum of the parity-averaged real-space correlations
    # over the matched window |dx|, |dy| <= 2R, at sampled grid points
    R = 4
    for version in ("a", "b"):
        model = FrustratedModel(S=1.0, version=version)
        grid = chi_grid(("frustrated", model, table_s1), 10, 8, R)
        for i, j in ((0, 0), (3, 5), (5, 4), (9, 1)):
            qx, qy = grid.qx[i], grid.qy[j]
            direct = 0.0
            for dx in range(-2 * R, 2 * R + 1):
                for dy in range(-2 * R, 2 * R + 1):
                    avg = 0.5 * (ff_correlation(model, table_s1, dx, dy, 0)
                                 + ff_correlation(model, table_s1, dx, dy, 1))
                    direct += math.cos(qx * dx) * math.cos(qy * dy) * avg
            assert grid.values[i, j] == pytest.approx(direct, rel=1e-12,
                                                      abs=1e-12)


def test_frustrated_grid_is_bit_identical_to_class_products(table_s1):
    # the class formulas written out as matrices: even-x coefficients at
    # (2m, 2n), odd-x at (2m-1, 2n), version "a" carrying (-1)^n
    c = np.array([[lookup(table_s1, m, n) for n in range(7)]
                  for m in range(7)])
    cb = np.array([[lookup(table_s1, m, n, "Cbar") for n in range(7)]
                   for m in range(7)])
    S = 1.0
    amp = S / (2 * math.sqrt(2 * S ** 2 + 1))
    for version in ("a", "b"):
        model = FrustratedModel(S=S, version=version)
        for R in (4, 6):
            n_sign = ((-1.0) ** np.arange(R + 1) if version == "a"
                      else np.ones(R + 1))
            ee = (c[:R + 1, :R + 1] * cb[:R + 1, :R + 1]) * n_sign
            oe = np.array([amp * (c[m - 1, :R + 1] * cb[m, :R + 1]
                                  + c[m, :R + 1] * cb[m - 1, :R + 1])
                           for m in range(1, R + 1)]) * n_sign
            for nx, ny in ((12, 20), (9, 7)):
                qxs = 2 * math.pi * np.arange(nx) / nx - math.pi
                qys = 2 * math.pi * np.arange(ny) / ny - math.pi
                sep = 2.0 * np.arange(R + 1)
                x2 = np.cos(np.multiply.outer(qxs, sep)) * np.where(sep == 0, 1.0, 2.0)
                y2 = np.cos(np.multiply.outer(qys, sep)) * np.where(sep == 0, 1.0, 2.0)
                xo = 2 * np.cos(np.multiply.outer(qxs, 2.0 * np.arange(1, R + 1) - 1))
                want = x2 @ ee @ y2.T + xo @ oe @ y2.T
                got = chi_grid(("frustrated", model, table_s1), nx, ny, R)
                assert np.array_equal(got.values, want)


def test_version_shift_relation(table_s1):
    # the gauge between layouts shifts qy by a quarter zone, which is
    # ny/4 grid rows when ny is divisible by 4
    nx, ny = 12, 20
    ga = chi_grid(("frustrated", FrustratedModel(S=1.0, version="a"),
                   table_s1), nx, ny, 6)
    gb = chi_grid(("frustrated", FrustratedModel(S=1.0, version="b"),
                   table_s1), nx, ny, 6)
    shifted = np.roll(gb.values, -ny // 4, axis=1)
    np.testing.assert_allclose(ga.values, shifted, rtol=1e-12, atol=1e-12)


def test_grid_mean_recovers_same_site(table05_r30, table_s1):
    # window shorter than the grid: every nonzero separation averages
    # out exactly, leaving the same-site correlation
    grid = chi_grid(("uniform", table05_r30), 16, 16, 6)
    assert float(grid.values.mean()) == pytest.approx(1.0, abs=1e-12)
    fgrid = chi_grid(
        ("frustrated", FrustratedModel(S=1.0, version="a"), table_s1),
        16, 16, 6)
    assert float(fgrid.values.mean()) == pytest.approx(1.0, abs=1e-12)


def test_find_peaks_synthetic_grid():
    n = 24
    qs = 2 * math.pi * np.arange(n) / n - math.pi
    vals = (np.exp(np.cos(3 * qs))[:, None]
            + np.exp(np.cos(2 * qs))[None, :])
    grid = ChiGrid(nx=n, ny=n, qx=qs, qy=qs, values=vals,
                   window_radius=0, tail_bound=0.0, source="synthetic")
    # peaks at qx in {0, +-2pi/3}, qy in {-pi, 0}; against quarter-zone
    # multiples only qx = 0 qualifies
    peaks = find_peaks(grid)
    assert sum(p.commensurate for p in peaks) == 2
    values = [p.value for p in peaks]
    assert values == sorted(values, reverse=True)


def test_find_peaks_wraps_around_the_zone():
    # strict maxima over the 8 periodic neighbours, on a non-square grid
    # with ties, against a direct scan
    nx, ny = 7, 5
    vals = np.random.default_rng(11).integers(0, 6, (nx, ny)).astype(float)
    vals[0, 0], vals[-1, -1] = 10.0, 9.0  # neighbours across both edges
    grid = ChiGrid(nx=nx, ny=ny, qx=np.arange(nx) * 0.9 - 3,
                   qy=np.arange(ny) * 1.2 - 3, values=vals,
                   window_radius=0, tail_bound=0.0, source="synthetic")
    expect = sorted((-vals[i, j], i, j) for i in range(nx) for j in range(ny)
                    if all(vals[i, j] > vals[(i + di) % nx, (j + dj) % ny]
                           for di in (-1, 0, 1) for dj in (-1, 0, 1)
                           if di or dj))
    got = sorted((-p.value, round((p.qx + 3) / 0.9), round((p.qy + 3) / 1.2))
                 for p in find_peaks(grid))
    assert expect and got == expect


def test_tail_estimate_decays(table05_r30):
    bounds = [tail_estimate(table05_r30, R) for R in (6, 10, 14, 20)]
    assert all(b > 0 for b in bounds)
    assert bounds == sorted(bounds, reverse=True)
    # the bound really does dominate the omitted mass: compare the R=6
    # bound against the mass actually present out to radius 30
    omitted = sum(
        lookup(table05_r30, dx, dy)
        for dx in range(-30, 31) for dy in range(-30, 31)
        if max(abs(dx), abs(dy)) > 6)
    assert bounds[0] > omitted > 0


class _StubTable:
    """Duck table with prescribed axis values, for exercising the fit."""

    def __init__(self, radius, axis):
        self.radius = radius
        grid = [[1.0] * (radius + 1) for _ in range(radius + 1)]
        for s, v in enumerate(axis):
            grid[0][s] = v
            grid[s][0] = v
        self.C = grid
        self.C_bar = grid


def test_frustrated_grid_converts_each_entry_once(counted_entries):
    # the build's (R+1)(R+2) divisions, then nothing on either grid
    model = FrustratedModel(S=1.0, version="a")
    table = build_table(model.k, 6)
    assert len(counted_entries) == 7 * 8
    counted_entries.clear()
    first = chi_grid(("frustrated", model, table), 8, 8, 6)
    second = chi_grid(("frustrated", model, table), 8, 8, 6)
    assert counted_entries == []
    assert np.array_equal(first.values, second.values)
    assert first.tail_bound == second.tail_bound


def test_plain_tables_still_serve_lookup(table_s1):
    # nested lists carrying only radius, C, C_bar and k_requested, as a
    # reader of the `corr` CSVs assembles them
    model = FrustratedModel(S=1.0, version="a")
    plain = types.SimpleNamespace(
        radius=table_s1.radius, k_requested=table_s1.k_requested,
        C=[list(row) for row in table_s1.C],
        C_bar=[list(row) for row in table_s1.C_bar])
    assert lookup(plain, -2, 3, "Cbar") == lookup(table_s1, 2, 3, "Cbar")
    assert tail_estimate(plain, 6) == tail_estimate(table_s1, 6)
    for dx, dy, p in ((0, 0, 0), (3, -4, 1), (-5, 2, 0), (4, 6, 1)):
        assert ff_correlation(model, plain, dx, dy, p) == (
            ff_correlation(model, table_s1, dx, dy, p))


def test_tail_estimate_refuses_growth():
    grow = _StubTable(10, [math.exp(0.2 * s) for s in range(11)])
    with pytest.raises(EstimationError):
        tail_estimate(grow, 10)
    dead = _StubTable(10, [1.0] * 5 + [0.0] * 6)
    with pytest.raises(EstimationError):
        tail_estimate(dead, 10)
    with pytest.raises(ValueError):
        tail_estimate(grow, 3)


def test_window_and_domain_errors(table05_r30, table_s1):
    with pytest.raises(ValueError):
        chi_uniform(table05_r30, (0.0, 0.0), -1)
    with pytest.raises(TableRangeError):
        chi_uniform(table05_r30, (0.0, 0.0), 31)
    swapped = build_table(2.0, 4)
    with pytest.raises(ValueError):
        chi_uniform(swapped, (0.0, 0.0), 4)
    model = FrustratedModel(S=1.0, version="a")
    with pytest.raises(TableMismatchError):
        chi_grid(("frustrated", model, table05_r30), 8, 8, 4)
    with pytest.raises(ValueError):
        chi_grid(("bogus", table05_r30), 8, 8, 4)
    with pytest.raises(ValueError):
        chi_grid(("uniform", table05_r30), 1, 8, 4)


def test_grid_rejects_ordered_tables():
    # chi_grid runs the same window and phase checks as the point functions
    swapped = build_table(2.0, 4)
    for source in (("uniform", swapped), ("gauge", swapped, np.ones(5))):
        with pytest.raises(ValueError):
            chi_grid(source, 4, 4, 4)
