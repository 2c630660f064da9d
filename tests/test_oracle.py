import ast
import inspect
import math

import numpy as np
import pytest

import isingchi.oracle
from isingchi.oracle import (
    CylinderSpec,
    ExtrapolationError,
    OracleCapacityError,
    cylinder_correlation,
    enumerate_correlation,
    extrapolate,
    frustrated_lattice,
    square_lattice,
    oracle_pair_correlations,
    torus_correlation,
)
from isingchi.oracle import (_apply_bond_layer, _Cylinder, _dense_bond_layer,
                             _spin_diag)
from isingchi.verify import (VerificationReport, _identity_rows,
                             _suite_frustrated, _table_rows, run_suite)


def _per_site_bond_layer(v, W, K):
    """The bond layer as one reshape/stack per site, lowest site first."""
    ep, em = np.exp(K), np.exp(-K)
    for i in range(W):
        v = v.reshape(1 << (W - 1 - i), 2, 1 << i)
        up = ep * v[:, 0, :] + em * v[:, 1, :]
        dn = em * v[:, 0, :] + ep * v[:, 1, :]
        v = np.stack((up, dn), axis=1)
    return v.reshape(-1)


def test_two_site_chain_is_tanh():
    K = 0.43
    lat = square_lattice(2, 1, K)
    assert enumerate_correlation(lat, 0, 1) == pytest.approx(math.tanh(K),
                                                             rel=1e-15)
    assert enumerate_correlation(lat, 0, 0) == 1.0


def test_small_torus_closed_form():
    # 2x2 periodic lattice: each bond doubled by the wrap, and
    # <s0 s1> = sinh 8K / (cosh 8K + 3)
    for K in (0.1, 0.43, 1.0):
        lat = square_lattice(2, 2, K, periodic=(True, True))
        got = enumerate_correlation(lat, lat.site(0, 0), lat.site(1, 0))
        want = math.sinh(8 * K) / (math.cosh(8 * K) + 3)
        assert got == pytest.approx(want, rel=1e-14)


def test_transfer_matches_enumeration_on_torus():
    K = math.asinh(math.sqrt(0.2)) / 2
    lat = square_lattice(4, 4, K, periodic=(True, True))
    for (xa, ya), (xb, yb) in (((0, 0), (1, 2)), ((0, 0), (2, 0)),
                               ((1, 1), (3, 2))):
        e = enumerate_correlation(lat, lat.site(xa, ya), lat.site(xb, yb))
        t = torus_correlation(4, 4, K, (xa, ya), (xb, yb))
        assert t == pytest.approx(e, abs=1e-13)


def test_frustrated_transfer_matches_enumeration():
    K = 0.5
    for version, mode in (("a", "checkerboard"), ("b", "columnar")):
        lat = frustrated_lattice(4, 4, K, version, periodic=(True, True))
        e = enumerate_correlation(lat, lat.site(0, 0), lat.site(2, 0))
        t = torus_correlation(4, 4, K, (0, 0), (2, 0), ring_mode=mode)
        assert t == pytest.approx(e, abs=1e-13)


def test_bond_layer_shuffle_is_bit_identical():
    rng = np.random.default_rng(31)
    for W in range(2, 13):
        for K in (0.3, 1.2):
            v = rng.standard_normal(1 << W)
            got = _apply_bond_layer(v, W, K)
            assert np.array_equal(got, _per_site_bond_layer(v, W, K))
            if W <= 8:
                dense = _dense_bond_layer(W, K) @ v
                assert np.abs(got - dense).max() <= 1e-13 * np.abs(dense).max()


def test_antiperiodic_torus_matches_enumeration():
    # the antiperiodic ring is the plain ring with its seam bond
    # s_(W-1) s_0 flipped; no two-column cell, so odd W and L are fine
    K = 0.3
    for W, L in ((3, 4), (4, 4), (3, 5)):
        lat = square_lattice(L, W, K, periodic=(True, True),
                             bond_sign=lambda x, y, axis: -1 if axis == 1
                             and y == W - 1 else 1)
        for a, b in (((0, 0), (1, 1)), ((0, 2), (2, 0)), ((1, 0), (1, 2))):
            e = enumerate_correlation(lat, lat.site(*a), lat.site(*b))
            t = torus_correlation(W, L, K, a, b, "antiperiodic")
            assert t == pytest.approx(e, abs=1e-13)


def test_frustrated_suite_builds_cylinders_once_per_call(monkeypatch):
    calls = []
    eigsh = isingchi.oracle.eigsh

    def counting(*args, **kwargs):
        calls.append(1)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(isingchi.oracle, "eigsh", counting)
    # five columnar widths and one checkerboard ring, shared by a and b,
    # and built again by the next call: nothing outlives the call
    for _ in range(2):
        calls.clear()
        assert run_suite("frustrated").passed
        assert len(calls) == 6


def test_cylinder_agrees_with_long_torus():
    K = math.asinh(math.sqrt(0.2)) / 2
    spec = CylinderSpec(4, K, "uniform")
    for delta in ((1, 0), (0, 1), (2, 1)):
        cyl = cylinder_correlation(spec, delta)
        tor = torus_correlation(4, 24, K, (0, 0), delta)
        assert cyl == pytest.approx(tor, abs=1e-10)
    assert cylinder_correlation(spec, (0, 0)) == pytest.approx(1.0, abs=1e-12)
    # at weaker coupling the wrap correction dies out by L = 12 already
    Kw = math.asinh(math.sqrt(0.05)) / 2
    cyl = cylinder_correlation(CylinderSpec(4, Kw, "uniform"), (1, 0))
    assert cyl == pytest.approx(torus_correlation(4, 12, Kw, (0, 0), (1, 0)),
                                abs=1e-8)


def test_two_column_cylinder_agrees_with_long_torus():
    # every branch of the two-column chain: base parity 0 and 1, dx = 0,
    # odd dx and even dx >= 2, and a negative dx that moves the base
    deltas = ((0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 1), (4, 2), (-3, 1))
    for mode in ("columnar", "checkerboard"):
        spec = CylinderSpec(4, 0.3, mode)
        for base in ((0, 0), (1, 0), (1, 1)):
            for dx, dy in deltas:
                far = (base[0] + dx, base[1] + dy)
                cyl = cylinder_correlation(spec, (dx, dy), base)
                tor = torus_correlation(4, 40, 0.3, base, far, mode)
                assert cyl == pytest.approx(tor, abs=1e-12)


def test_pair_table_matches_a_chain_per_ring_separation():
    # the uniform grid oracle_pair_correlations records, against one
    # literal chain <s_0 psi| T^dx |s_dy psi> per dy
    K = math.asinh(math.sqrt(0.5)) / 2
    cyl = _Cylinder(CylinderSpec(10, K, "uniform"))
    table = cyl.pair_table((0, 0), 5, range(6))
    for dy in range(6):
        left = _spin_diag(10, 0) * cyl.psi
        v = _spin_diag(10, dy) * cyl.psi
        for dx in range(6):
            assert table[(dx, dy)] == pytest.approx(float(left @ v), abs=1e-14)
            v = cyl._block(v) / cyl.lam


def test_leading_vector_is_flip_even():
    # the start vector is flip-even, so the Krylov space never holds the
    # flip-odd partner that nearly ties with psi in the ordered phase
    for sinh2k in (math.sqrt(0.5), 1 / math.sqrt(0.5)):
        cyl = _Cylinder(CylinderSpec(16, math.asinh(sinh2k) / 2, "uniform"))
        assert np.array_equal(cyl.psi, cyl.psi[::-1])


@pytest.mark.parametrize("suite, most", [("recurrence", 100),
                                         ("frustrated", 50)])
def test_suites_walk_each_cylinder_once(suite, most, monkeypatch):
    eigsh, layer = isingchi.oracle.eigsh, isingchi.oracle._apply_bond_layer
    solves, inside, chain = [], [], []

    def solving(*args, **kwargs):
        solves.append(kwargs["k"])
        inside.append(1)
        try:
            return eigsh(*args, **kwargs)
        finally:
            inside.pop()

    def counting(*args):
        if not inside:
            chain.append(1)
        return layer(*args)

    monkeypatch.setattr(isingchi.oracle, "eigsh", solving)
    monkeypatch.setattr(isingchi.oracle, "_apply_bond_layer", counting)
    assert run_suite(suite).passed
    # one eigenpair per cylinder, and one short chain per cylinder and base
    assert set(solves) == {1}
    assert len(chain) <= most


def test_extrapolate_geometric_and_constant():
    ws = [8, 10, 12, 14]
    vs = [0.7 + 0.3 * 0.5 ** w for w in ws]
    limit, err = extrapolate(ws, vs)
    assert limit == pytest.approx(0.7, abs=1e-12)
    assert err >= abs(vs[-1] - limit)
    assert extrapolate([2, 4, 6], [1.5, 1.5, 1.5]) == (1.5, 0.0)


def test_extrapolate_rejects_bad_sweeps():
    with pytest.raises(ExtrapolationError):
        extrapolate([2, 4], [1.0, 2.0])
    with pytest.raises(ExtrapolationError):
        extrapolate([2, 4, 7], [1.0, 1.1, 1.2])
    with pytest.raises(ExtrapolationError):
        extrapolate([2, 4, 6], [0.0, 1.0, 3.0])
    with pytest.raises(ExtrapolationError):
        extrapolate([2, 4, 6], [1.0, 1.0, 2.0])


def test_capacity_limits():
    with pytest.raises(OracleCapacityError):
        enumerate_correlation(square_lattice(5, 5, 0.3), 0, 1)
    with pytest.raises(OracleCapacityError):
        torus_correlation(12, 4, 0.3, (0, 0), (1, 0))
    with pytest.raises(OracleCapacityError):
        CylinderSpec(18, 0.3, "uniform")
    with pytest.raises(ValueError):
        CylinderSpec(7, 0.3, "columnar")


def test_pair_table_structure(oracle05):
    C, C_bar = oracle05
    assert C[(0, 0)] == 1.0
    assert C_bar[(0, 0)] == 1.0
    # transpose symmetry is not imposed, it emerges from the sweeps
    worst = max(abs(C[(m, n)] - C[(n, m)])
                for m in range(5) for n in range(5))
    assert worst < 1e-7
    assert all(abs(C_bar[(m, n)] - C_bar[(n, m)]) < 1e-7
               for m in range(5) for n in range(5))
    # ferromagnetic couplings: all correlations in (0, 1], decaying
    # along each axis
    assert all(0 < v <= 1 for v in C.values())
    assert all(0 < v <= 1 for v in C_bar.values())
    assert all(C[(m, n)] >= C[(m + 1, n)] - 1e-12
               for m in range(4) for n in range(5))
    assert all(C[(m, n)] >= C[(m, n + 1)] - 1e-12
               for m in range(5) for n in range(4))


def test_identity_rows_accept_clean_reject_corrupt(oracle05):
    C, C_bar = oracle05
    rows = _identity_rows(C, C_bar, 0.5, 3, 1e-6)
    assert {r.identity for r in rows} == {
        "quad-recurrence-y", "quad-recurrence-x",
        "corner-determinant", "neighbour-star"}
    assert all(r.passed for r in rows)

    poisoned = dict(C)
    poisoned[(1, 2)] += 1e-3
    bad = _identity_rows(poisoned, C_bar, 0.5, 3, 1e-6)
    assert all(not r.passed for r in bad)
    assert max(r.residual for r in bad) > 1e-4


def _uniform_report(tol):
    # the recurrence suite's rows at radius 2 instead of 4
    C, C_bar = oracle_pair_correlations(0.5, 2)
    return VerificationReport(rows=tuple(_identity_rows(C, C_bar, 0.5, 2, tol)
                                         + _table_rows(0.5, 2, C, C_bar, tol)))


def test_verify_identities_reports():
    rep = _uniform_report(1e-6)
    assert rep.passed
    table_rows = [r for r in rep.rows if r.identity == "table-vs-oracle"]
    assert len(table_rows) == 1 and table_rows[0].passed
    lines = rep.lines()
    assert len(lines) == len(rep.rows) + 1
    assert all("pass" in ln for ln in lines)
    assert lines[-1] == "overall: pass"

    frows = [r for r in _suite_frustrated(None, radius=2).rows
             if r.identity.endswith("-a")]
    assert len(frows) == 5 and all(r.passed for r in frows)
    assert any(r.identity == "gauge-map-a" for r in frows)


def test_verify_identities_tolerance_overrides_every_row():
    rep = _uniform_report(1e-30)
    assert {r.tolerance for r in rep.rows} == {1e-30}
    assert not rep.passed
    # the override also replaces the gauge-map row's own 1e-10 default
    frows = [r for r in _suite_frustrated(0.5, radius=2).rows
             if r.identity.endswith("-b")]
    assert {r.tolerance for r in frows} == {0.5}
    assert all(r.passed for r in frows)


def test_oracle_imports_nothing_from_the_package():
    # the oracle is the independent reference: it may not import the
    # code that verify checks against it
    tree = ast.parse(inspect.getsource(isingchi.oracle))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0, "relative import in oracle"
            assert node.module.split(".")[0] != "isingchi"
        elif isinstance(node, ast.Import):
            assert all(a.name.split(".")[0] != "isingchi" for a in node.names)
