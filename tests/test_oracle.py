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
from isingchi.oracle import (_apply_bond_layer, _column_ring_fields,
                             _Cylinder, _dense_bond_layer, _spin_diag,
                             _unfold, eigsh)
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


def _per_site_ring_fields(W):
    """(uniform, alternating, seam) ring fields as a product per bond."""
    c = np.arange(1 << (W - 1), dtype=np.int64)
    s = [1 - 2 * ((c >> i) & 1) for i in range(W)]
    f = np.zeros(c.size, dtype=np.int64)
    f_alt = np.zeros(c.size, dtype=np.int64)
    for i in range(W):
        prod = s[i] * s[(i + 1) % W]
        f += prod
        f_alt += (-1) ** i * prod
    seam = s[W - 1] * s[0]
    return f.astype(np.float64), f_alt.astype(np.float64), seam.astype(np.float64)


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
    # the folded layer on a stored half h of parity p is the stored half
    # of the per-site layer on the full vector (h, p h reversed), up to
    # the widest cylinder; the reference's other half is p times the
    # result reversed, so the output keeps its parity
    rng = np.random.default_rng(31)
    for W in range(2, 17):
        # two generic couplings, no coupling, and the three the verify
        # suites solve: sinh 2K = sqrt(0.5), 1/sqrt(0.5) and 1
        for K in (0.3, 1.2, 0.0, math.asinh(math.sqrt(0.5)) / 2,
                  math.asinh(1 / math.sqrt(0.5)) / 2, math.asinh(1) / 2):
            for p in (1, -1):
                h = rng.standard_normal(1 << (W - 1))
                got = _apply_bond_layer(h, W, K, p)
                full = _unfold(h, p)
                want = _per_site_bond_layer(full, W, K)
                assert np.array_equal(got, want[:h.size])
                assert np.array_equal(want[h.size:], p * got[::-1])
                if W <= 8:
                    B = _dense_bond_layer(W, K)
                    dense = B @ full
                    # at K = 0 an odd vector maps to exactly zero, so
                    # only there is the rounding measured against B |v|
                    scale = B @ np.abs(full) if K == 0 else dense
                    assert (np.abs(_unfold(got, p) - dense).max()
                            <= 1e-13 * np.abs(scale).max())


def test_ring_fields_match_the_per_bond_products():
    # the broken-bond count gives the same floats as one product per
    # bond, for every width and ring mode the cylinders take
    for W in range(2, 17):
        f, f_alt, seam = _per_site_ring_fields(W)
        want = {"uniform": [f, f], "antiperiodic": [f - 2 * seam] * 2,
                "columnar": [f, -f], "checkerboard": [f_alt, -f_alt]}
        for mode, fields in want.items():
            if mode in ("columnar", "checkerboard") and W % 2:
                continue
            got = _column_ring_fields(CylinderSpec(W, 0.3, mode))
            assert [g.tobytes() for g in got] == [w.tobytes() for w in fields]


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
    # the antiperiodic ring puts its seam field on the stored half
    K = math.asinh(math.sqrt(0.2)) / 2
    for mode in ("uniform", "antiperiodic"):
        spec = CylinderSpec(4, K, mode)
        for delta in ((1, 0), (0, 1), (2, 1)):
            cyl = cylinder_correlation(spec, delta)
            tor = torus_correlation(4, 24, K, (0, 0), delta, mode)
            assert cyl == pytest.approx(tor, abs=1e-10)
        assert cylinder_correlation(spec, (0, 0)) == pytest.approx(1.0,
                                                                   abs=1e-12)
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
            v = cyl._block(v, -1) / cyl.lam


def test_unfolded_leading_vector_is_an_eigenvector():
    # the folded eigenpair, unfolded to the full 2^W vector, against the
    # per-site reference layer at the widest cylinder, in both phases
    W = 16
    for sinh2k in (math.sqrt(0.5), 1 / math.sqrt(0.5)):
        spec = CylinderSpec(W, math.asinh(sinh2k) / 2, "uniform")
        cyl = _Cylinder(spec)
        psi = _unfold(cyl.psi, 1) / math.sqrt(2)
        half0 = _unfold(cyl.half0, 1)
        t_psi = half0 * _per_site_bond_layer(half0 * psi, W, spec.K)
        assert np.linalg.norm(t_psi - cyl.lam * psi) <= 1e-13 * cyl.lam


def _dense_block(spec):
    """The symmetric transfer block of _Cylinder as a dense matrix."""
    B = _dense_bond_layer(spec.W, spec.K)
    fields = [_unfold(f, 1) for f in _column_ring_fields(spec)]
    half0 = np.exp(spec.K * fields[0] / 2)
    if spec.ring_mode in ("columnar", "checkerboard"):
        B = B @ (np.exp(spec.K * fields[1])[:, None] * B)
    return half0[:, None] * B * half0[None, :]


@pytest.mark.parametrize("mode", ["uniform", "antiperiodic", "columnar",
                                  "checkerboard"])
def test_eigsh_matches_dense_eigh(mode):
    # both phases of the recurrence suite; deeper in the ordered phase the
    # dense eigh mixes in the flip-odd partner, which eigsh never sees
    for W in range(2, 9):
        if mode in ("columnar", "checkerboard") and W % 2:
            continue
        for sinh2k in (math.sqrt(0.5), 1 / math.sqrt(0.5)):
            spec = CylinderSpec(W, math.asinh(sinh2k) / 2, mode)
            block = _dense_block(spec)
            lam, psi = eigsh(lambda v: block @ v,
                             np.full(1 << W, 2.0 ** (-W / 2)), spec)
            vals, vecs = np.linalg.eigh(block)
            want = vecs[:, -1] * np.sign(vecs[:, -1].sum())
            assert lam == pytest.approx(vals[-1], rel=1e-14, abs=0)
            assert np.abs(psi * np.sign(psi.sum()) - want).max() <= 1e-13
            # the folded psi has unit norm on its stored half
            cyl = _Cylinder(spec)
            assert cyl.lam == pytest.approx(vals[-1], rel=1e-14, abs=0)
            psi = _unfold(cyl.psi, 1) / math.sqrt(2)
            assert np.abs(psi - want).max() <= 1e-13


def test_eigsh_raises_at_the_restart_cap(monkeypatch):
    # one 8-vector space cannot reach the 1e-14 residual at W = 12; the
    # solver must say so instead of returning an unconverged pair
    monkeypatch.setattr(isingchi.oracle, "MAX_RESTARTS", 1)
    spec = CylinderSpec(12, 0.3, "uniform")
    with pytest.raises(RuntimeError) as err:
        _Cylinder(spec)
    message = str(err.value)
    assert "W = 12" in message and "K = 0.3" in message
    assert "residual" in message


@pytest.mark.parametrize("suite, most", [("recurrence", 100),
                                         ("frustrated", 50)])
def test_suites_walk_each_cylinder_once(suite, most, monkeypatch):
    solve, layer = isingchi.oracle.eigsh, isingchi.oracle._apply_bond_layer
    solves, inside, chain = [], [], []

    def solving(matvec, v0, spec):
        inside.append(1)
        try:
            lam, psi = solve(matvec, v0, spec)
        finally:
            inside.pop()
        solves.append((spec, np.shape(lam), psi.shape))
        return lam, psi

    def counting(*args):
        if not inside:
            chain.append(1)
        return layer(*args)

    monkeypatch.setattr(isingchi.oracle, "eigsh", solving)
    monkeypatch.setattr(isingchi.oracle, "_apply_bond_layer", counting)
    assert run_suite(suite).passed
    # one eigenpair per cylinder, on the stored half, and one short chain
    # per cylinder and base
    specs = [spec for spec, _, _ in solves]
    assert len(set(specs)) == len(specs)
    assert all((lam, psi) == ((), (1 << (spec.W - 1),))
               for spec, lam, psi in solves)
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


# the recurrence suite's identity rows on the k = 0.5 oracle quadrant, the
# residual as float.hex, recorded from the form that divided each residual
# by its unit of 1.0
PINNED_IDENTITY_ROWS = [
    ("quad-recurrence-y", "(1 3)", "0x1.fc0f1a8d72000p-22"),
    ("quad-recurrence-x", "(3 1)", "0x1.fc23afba10000p-22"),
    ("corner-determinant", "(2 0)", "0x1.820ff64870000p-22"),
    ("neighbour-star", "(0 2)", "0x1.078734b800000p-24"),
]


def test_identity_rows_are_pinned(oracle05):
    rows = _identity_rows(*oracle05, 0.5, 4, 1e-6)
    assert [(r.identity, r.location, r.residual.hex())
            for r in rows] == PINNED_IDENTITY_ROWS


def _uniform_report(tol):
    # the recurrence suite's rows at radius 2 instead of 4
    C, C_bar = oracle_pair_correlations(0.5, 2)
    return VerificationReport(rows=tuple(_identity_rows(C, C_bar, 0.5, 2, tol)
                                         + _table_rows(0.5, 2, C, C_bar, tol)))


def test_verify_identities_reports():
    rep = _uniform_report(1e-6)
    assert rep.passed
    table_rows = [r for r in rep.rows if r.identity.startswith("table-vs-oracle")]
    assert [r.identity for r in table_rows] == ["table-vs-oracle-C",
                                                "table-vs-oracle-Cbar"]
    assert all(r.passed for r in table_rows)
    # without an override C is held to 1e-7 and C_bar to 1e-6
    defaults = _table_rows(0.5, 2, *oracle_pair_correlations(0.5, 2), None)
    assert [(r.tolerance, r.passed) for r in defaults] == [(1e-7, True),
                                                            (1e-6, True)]
    lines = rep.lines()
    assert len(lines) == len(rep.rows) + 1
    assert all("pass" in ln for ln in lines)
    assert lines[-1] == "overall: pass"

    frows = [r for r in _suite_frustrated(None).rows
             if r.identity.endswith("-a")]
    assert len(frows) == 5 and all(r.passed for r in frows)
    assert any(r.identity == "gauge-map-a" for r in frows)


def test_verify_identities_tolerance_overrides_every_row():
    rep = _uniform_report(1e-30)
    assert {r.tolerance for r in rep.rows} == {1e-30}
    assert not rep.passed
    # the override also replaces the gauge-map row's own 1e-10 default
    frows = [r for r in _suite_frustrated(0.5).rows
             if r.identity.endswith("-b")]
    assert {r.tolerance for r in frows} == {0.5}
    assert all(r.passed for r in frows)


def test_frustrated_row_names_and_order():
    # the benchmark's verify check matches these names by prefix
    names = [r.identity for r in _suite_frustrated(None).rows]
    assert names == [
        "assembly-even-even-a", "assembly-odd-x-a", "assembly-odd-y-a",
        "assembly-odd-odd-a", "gauge-map-a",
        "assembly-even-even-b", "assembly-odd-x-b", "assembly-odd-y-b",
        "assembly-odd-odd-b", "gauge-map-b",
    ]


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
