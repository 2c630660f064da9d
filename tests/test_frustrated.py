import math
import types

import pytest

from isingchi import (
    FrustratedModel,
    TableMismatchError,
    TableRangeError,
    build_table,
    ff_correlation,
    separation_class,
)
from isingchi.oracle import gauge_sign


@pytest.fixture(scope="module")
def table_s1():
    return build_table(FrustratedModel(S=1.0, version="a").k, 6)


def test_dual_pair_relations():
    # sqrt(k) = sinh 2K_sigma, shared by both layouts
    for S in (0.4, 1.0, 3.1):
        rk = S * S / (S * S + 1 + math.sqrt(2 * S * S + 1))
        for version in ("a", "b"):
            k = FrustratedModel(S=S, version=version).k
            assert k == pytest.approx(rk * rk, rel=1e-15)


def test_dual_pair_at_unit_S():
    # sqrt(k) = 1/(2 + sqrt(3)) = 2 - sqrt(3)
    k = FrustratedModel(S=1.0, version="a").k
    assert k == pytest.approx((2 - math.sqrt(3)) ** 2, rel=1e-15)


def test_model_validation():
    with pytest.raises(ValueError):
        FrustratedModel(S=0.0, version="a")
    with pytest.raises(ValueError):
        FrustratedModel(S=1.0, version="c")


@pytest.mark.parametrize("S", [math.inf, 1e300, 1e-200])
def test_extreme_S_is_refused_by_name(S):
    # S^2 overflows to a nan modulus or underflows to k = 0
    with pytest.raises(ValueError, match=r"^S = "):
        FrustratedModel(S=S, version="a")


def test_separation_classes():
    assert separation_class(2, 4) == "even-even"
    assert separation_class(0, 0) == "even-even"
    assert separation_class(3, 1) == "odd-odd"
    assert separation_class(-3, 2) == "odd-x"
    assert separation_class(2, -3) == "odd-y"


def _class_by_class(model, table, dx, dy, base_parity):
    """ff_correlation written out per class, each with its own m and n."""
    def c(i, j):
        return float(table.C[abs(i)][abs(j)])

    def cb(i, j):
        return float(table.C_bar[abs(i)][abs(j)])

    staggered = model.version == "a"
    if dx % 2 and dy % 2:
        return 0.0
    amp = model.S / (2 * math.sqrt(2 * model.S ** 2 + 1))
    if dx % 2 == 0 and dy % 2 == 0:
        m, n = abs(dx) // 2, dy // 2
        sign = (-1) ** n if staggered else 1
        return sign * c(m, n) * cb(m, n)
    if dy % 2 == 0:
        m, n = (abs(dx) + 1) // 2, abs(dy) // 2
        sign = (-1) ** n if staggered else 1
        return sign * amp * (c(m - 1, n) * cb(m, n) + c(m, n) * cb(m - 1, n))
    m, n = abs(dx) // 2, (dy + 1) // 2
    mag = c(m, n - 1) * cb(m, n) + c(m, n) * cb(m, n - 1)
    parity_sign = -1 if base_parity else 1
    if staggered:
        return -((-1) ** n) * parity_sign * amp * mag
    return parity_sign * amp * mag


def test_one_index_rule_matches_the_class_by_class_formula(table_s1):
    R = table_s1.radius
    plain = types.SimpleNamespace(radius=R, C=table_s1.C, C_bar=table_s1.C_bar,
                                  k_requested=table_s1.k_requested)
    for version in ("a", "b"):
        model = FrustratedModel(S=1.0, version=version)
        for dx in range(-2 * R - 1, 2 * R + 2):
            for dy in range(-2 * R - 1, 2 * R + 2):
                for p in (0, 1):
                    if max(abs(dx) + 1, abs(dy) + 1) // 2 > R:
                        with pytest.raises(TableRangeError):
                            ff_correlation(model, plain, dx, dy, p)
                        continue
                    assert ff_correlation(model, plain, dx, dy, p) == (
                        _class_by_class(model, plain, dx, dy, p))


def test_odd_odd_class_vanishes_exactly(table_s1):
    model = FrustratedModel(S=1.0, version="a")
    for dx in (-5, -1, 1, 3):
        for dy in (-3, 1, 5):
            for p in (0, 1):
                assert ff_correlation(model, table_s1, dx, dy, p) == 0.0


def test_even_odd_parity_average_vanishes_exactly(table_s1):
    for version in ("a", "b"):
        model = FrustratedModel(S=1.0, version=version)
        for dx in (-4, 0, 2, 6):
            for dy in (-5, -1, 3):
                v0 = ff_correlation(model, table_s1, dx, dy, 0)
                v1 = ff_correlation(model, table_s1, dx, dy, 1)
                assert v0 + v1 == 0.0
                assert v0 != 0.0


def test_other_classes_ignore_base_parity(table_s1):
    for version in ("a", "b"):
        model = FrustratedModel(S=1.0, version=version)
        for dx, dy in ((2, 4), (3, 2), (1, 0), (4, -2), (-3, -4)):
            assert ff_correlation(model, table_s1, dx, dy, 0) == (
                ff_correlation(model, table_s1, dx, dy, 1))


def test_gauge_map_between_versions(table_s1):
    # the two bond layouts differ by a row gauge: correlations from base
    # (x0, y0) satisfy C_a = eps(y0) eps(y0+dy) C_b with eps = gauge_sign
    ma = FrustratedModel(S=1.0, version="a")
    mb = FrustratedModel(S=1.0, version="b")
    for x0 in range(4):
        for y0 in range(4):
            for dx in range(-6, 7):
                for dy in range(-6, 7):
                    va = ff_correlation(ma, table_s1, dx, dy, (x0 + y0) % 2)
                    vb = ff_correlation(mb, table_s1, dx, dy, x0 % 2)
                    eps = gauge_sign(y0) * gauge_sign(y0 + dy)
                    assert va == eps * vb


def test_gauge_sign_period():
    assert [gauge_sign(l) for l in range(8)] == [1, 1, -1, -1, 1, 1, -1, -1]
    assert gauge_sign(-1) == -1
    assert gauge_sign(-2) == -1


def test_correlations_bounded(table_s1):
    model = FrustratedModel(S=1.0, version="b")
    vals = [ff_correlation(model, table_s1, dx, dy, 0)
            for dx in range(-12, 13) for dy in range(-12, 13)]
    assert max(abs(v) for v in vals) <= 1.0
    # same-site value is 1 by normalization
    assert ff_correlation(model, table_s1, 0, 0, 0) == pytest.approx(
        1.0, abs=1e-12)


def test_table_modulus_mismatch_rejected(table05_r30):
    model = FrustratedModel(S=1.0, version="a")
    with pytest.raises(TableMismatchError):
        ff_correlation(model, table05_r30, 2, 0, 0)


def test_separation_beyond_table_rejected(table_s1):
    model = FrustratedModel(S=1.0, version="a")
    with pytest.raises(TableRangeError):
        ff_correlation(model, table_s1, 50, 0, 0)
    with pytest.raises(ValueError):
        ff_correlation(model, table_s1, 2, 0, 2)
