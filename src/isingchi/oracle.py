"""Brute-force reference computations for every exact result in the package.

Three independent routes, in increasing reach:

  * exhaustive enumeration of all spin configurations (up to 20 sites),
  * dense transfer-matrix traces on small tori (exact at finite size),
  * leading-eigenvector contractions on infinite cylinders of circumference
    W, extrapolated in W.

The cylinder operator is never materialized as a dense 2^W x 2^W matrix;
the bond layer factorizes over sites, so one application costs O(W 2^W)
and W = 16 stays within memory.  It is applied as W perfect-shuffle
passes: each mixes the even and odd entries (the lowest site) and writes
the two results as the low and high halves, which moves the next site
into the lowest place.

Each cylinder is solved once and walked once.  Lanczos iteration from a
fixed, flip-even start vector finds the one leading eigenpair in an
8-vector Krylov space, deterministically; the space never leaves the
even sector, so the near-degenerate odd partner of the ordered phase
never competes.  The transfer block is symmetric, so <a|T^n|b> =
<T^n a|b>: one chain from the base spin, stepped out to the farthest
axis distance, serves every separation up to it.  The repeated
Aitken fits of the ordered table amplify rounding in the eigenvector
about 10^4-fold, so its entries move at the 1e-12 level whenever the
order of a contraction changes.

All arithmetic here is float64.  The high-precision claims of the
recurrence engine are never tested against this module beyond ~1e-10;
that is the point: the oracle is independent, not sharper.

The oracle computes and never judges: it imports nothing from the rest
of the package, and isingchi.verify compares the fast path with it.
"""

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

MAX_ENUM_SITES = 20
MAX_CYLINDER_W = 16
MAX_TRANSFER_DX = 256

__all__ = [
    "CylinderSpec",
    "ExtrapolationError",
    "FiniteLatticeSpec",
    "OracleCapacityError",
    "cylinder_correlation",
    "enumerate_correlation",
    "extrapolate",
    "frustrated_lattice",
    "frustrated_pair_correlations",
    "gauge_sign",
    "oracle_pair_correlations",
    "square_lattice",
    "torus_correlation",
]


class OracleCapacityError(ValueError):
    """Problem size beyond what the brute-force route can handle."""


class ExtrapolationError(RuntimeError):
    """Width sequence does not look like geometric convergence."""


# ---------------------------------------------------------------------------
# finite lattices and exhaustive enumeration


@dataclass(frozen=True)
class FiniteLatticeSpec:
    """Explicit finite Ising instance: sites on a width x height grid.

    bonds is a tuple of (site_a, site_b, coupling) with couplings in units
    of beta*J; site index of (x, y) is x + width*y.
    """

    width: int
    height: int
    bonds: tuple

    @property
    def n_sites(self):
        return self.width * self.height

    def site(self, x, y):
        return (x % self.width) + self.width * (y % self.height)


def square_lattice(width, height, K, K_bar=None, periodic=(False, False),
                   bond_sign=None):
    """Square-lattice spec with couplings K along x and K_bar along y.

    bond_sign(x, y, axis) with axis 0 for the bond (x,y)-(x+1,y) and
    axis 1 for (x,y)-(x,y+1) multiplies the coupling; default all +1.
    """
    if K_bar is None:
        K_bar = K
    bonds = []
    for y in range(height):
        for x in range(width):
            if x + 1 < width or periodic[0]:
                s = 1 if bond_sign is None else bond_sign(x, y, 0)
                bonds.append((x + width * y, ((x + 1) % width) + width * y, s * K))
            if y + 1 < height or periodic[1]:
                s = 1 if bond_sign is None else bond_sign(x, y, 1)
                bonds.append((x + width * y, x + width * ((y + 1) % height), s * K_bar))
    return FiniteLatticeSpec(width, height, tuple(bonds))


def frustrated_lattice(width, height, K, version, periodic=(True, True)):
    """Fully frustrated lattice: all |couplings| = K, every plaquette odd.

    version "a" (checkerboard) signs the vertical bond (x,y)-(x,y+1) with
    (-1)^(x+y); version "b" (columnar) with (-1)^x.  Horizontal bonds stay
    positive.  Periodic wrapping needs even extents to keep the pattern
    consistent, which is enforced.
    """
    if version not in ("a", "b"):
        raise ValueError("version must be 'a' or 'b'")
    if periodic[0] and width % 2 or periodic[1] and height % 2 and version == "a":
        raise ValueError("periodic frustrated pattern needs even wrap lengths")

    def sign(x, y, axis):
        if axis == 0:
            return 1
        return (-1) ** (x + y) if version == "a" else (-1) ** x

    return square_lattice(width, height, K, K, periodic, sign)


def enumerate_correlation(lat, site_a, site_b):
    """<sigma_a sigma_b> by summation over all 2^n configurations."""
    n = lat.n_sites
    if n > MAX_ENUM_SITES:
        raise OracleCapacityError(
            "%d sites exceeds the %d-site enumeration cap" % (n, MAX_ENUM_SITES))
    configs = np.arange(1 << n, dtype=np.int64)

    def spin(idx):
        return (1 - 2 * ((configs >> idx) & 1)).astype(np.float64)

    energy = np.zeros(1 << n)
    for a, b, kab in lat.bonds:
        energy += kab * spin(a) * spin(b)
    w = np.exp(energy - energy.max())
    return float(np.sum(w * spin(site_a) * spin(site_b)) / np.sum(w))


# ---------------------------------------------------------------------------
# transfer matrices: shared pieces

# The per-column operator is D_x B with D_x = diag(exp(K_x * ring field))
# collecting the in-column (ring) bonds and B the product of single-bond
# factors [[e^K, e^-K], [e^-K, e^K]] joining the column to the next one.


def _ring_fields(W):
    """(uniform, alternating, seam) ring bond fields over 2^W configs.

    seam is the single wrap bond s_{W-1} s_0; subtracting twice its value
    from the uniform field turns the ring antiperiodic.
    """
    c = np.arange(1 << W, dtype=np.int64)
    s = [1 - 2 * ((c >> i) & 1) for i in range(W)]
    f = np.zeros(1 << W, dtype=np.int64)
    f_alt = np.zeros(1 << W, dtype=np.int64)
    for i in range(W):
        prod = s[i] * s[(i + 1) % W]
        f += prod
        f_alt += (-1) ** i * prod
    seam = s[W - 1] * s[0]
    return f.astype(np.float64), f_alt.astype(np.float64), seam.astype(np.float64)


def _spin_diag(W, y):
    c = np.arange(1 << W, dtype=np.int64)
    return (1 - 2 * ((c >> (y % W)) & 1)).astype(np.float64)


def _apply_bond_layer(v, W, K):
    """Multiply by the inter-column bond factor: W shuffle passes, low site first."""
    ep, em = np.exp(K), np.exp(-K)
    half = 1 << (W - 1)
    for _ in range(W):
        a0, a1 = v[0::2], v[1::2]
        out = np.empty_like(v)
        np.add(ep * a0, em * a1, out=out[:half])
        np.add(em * a0, ep * a1, out=out[half:])
        v = out
    return v


def _dense_bond_layer(W, K):
    b2 = np.array([[np.exp(K), np.exp(-K)], [np.exp(-K), np.exp(K)]])
    B = np.ones((1, 1))
    for _ in range(W):
        B = np.kron(B, b2)
    return B


@dataclass(frozen=True)
class CylinderSpec:
    """Infinite cylinder: circumference W (the ring), coupling scale K.

    ring_mode selects the in-column bond signs: "uniform" for the plain
    ferromagnet, "antiperiodic" for the same model with one flipped seam
    bond per ring (sector probe; averaging it with "uniform" cancels the
    leading odd-winding finite-W correction), "columnar" for vertical
    signs (-1)^x (version b), "checkerboard" for (-1)^(x+y) (version a).
    The frustrated modes have a two-column unit cell and require even W.
    """

    W: int
    K: float
    ring_mode: str = "uniform"

    def __post_init__(self):
        if not 2 <= self.W <= MAX_CYLINDER_W:
            raise OracleCapacityError("circumference %d outside [2, %d]"
                                      % (self.W, MAX_CYLINDER_W))
        if self.ring_mode not in ("uniform", "antiperiodic", "columnar",
                                  "checkerboard"):
            raise ValueError("unknown ring_mode %r" % (self.ring_mode,))
        if self.ring_mode in ("columnar", "checkerboard") and self.W % 2:
            raise ValueError("frustrated ring pattern needs even W")


def _column_ring_fields(spec):
    """Ring field per column parity: [column x even, column x odd]."""
    f, f_alt, seam = _ring_fields(spec.W)
    if spec.ring_mode == "uniform":
        return [f, f]
    if spec.ring_mode == "antiperiodic":
        return [f - 2 * seam, f - 2 * seam]
    if spec.ring_mode == "columnar":
        return [f, -f]
    return [f_alt, -f_alt]


class _Cylinder:
    """Symmetric transfer block, its leading eigenpair and its one chain.

    For the uniform mode the block spans one column
    (D^1/2 B D^1/2); for the frustrated modes it spans the two-column
    unit cell (D0^1/2 B D1 B D0^1/2).  Spins at even columns sit at a
    block edge, next to psi; spins at odd columns sit inside a block,
    next to B D0^1/2 psi dressed with D1.
    """

    def __init__(self, spec):
        self.spec = spec
        self.W = spec.W
        dim = 1 << spec.W
        fields = _column_ring_fields(spec)
        self.half0 = np.exp(spec.K * fields[0] / 2)
        self.two_column = spec.ring_mode in ("columnar", "checkerboard")
        self.d1 = np.exp(spec.K * fields[1]) if self.two_column else None

        op = LinearOperator((dim, dim), matvec=self._block, dtype=np.float64)
        v0 = np.full(dim, 1.0 / np.sqrt(dim))
        # The flip-even start keeps the Krylov space in the even sector,
        # where the leading eigenvalue has no near tie, so a small
        # subspace suffices.
        vals, vecs = eigsh(op, k=1, which="LA", v0=v0, ncv=min(dim, 8))
        self.lam = float(vals[0])
        psi = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
        self.psi = -psi if psi.sum() < 0 else psi
        if self.two_column:
            self.inner = _apply_bond_layer(self.half0 * self.psi, self.W,
                                           spec.K)

    def _block(self, v):
        v = self.half0 * np.asarray(v, dtype=np.float64).ravel()
        v = _apply_bond_layer(v, self.W, self.spec.K)
        if self.two_column:
            v = _apply_bond_layer(self.d1 * v, self.W, self.spec.K)
        return self.half0 * v

    def pair_table(self, base, dx_max, dys):
        """{(dx, dy): <sigma_base sigma_(base+(dx, dy))>}, 0 <= dx <= dx_max.

        The block is symmetric, so <a|T^n|b> = <T^n a|b>: one chain runs
        from the base spin, and at each dx every far spin reads the same
        pair (l, r) as l . (s_dy r).  On the two-column cell each step
        crosses one bond layer, from an edge into a block or back out.
        """
        (x0, y0), W, K, lam = base, self.W, self.spec.K, self.lam
        sa = _spin_diag(W, y0)
        if self.two_column:
            ends = (self.psi, self.d1 * self.inner)
            steps = (lambda v: _apply_bond_layer(self.half0 * v, W, K) / lam,
                     lambda v: self.half0 * _apply_bond_layer(self.d1 * v, W, K))
            l = sa * self.inner / lam if x0 % 2 else sa * self.psi
        else:
            ends = (self.psi, self.psi)
            steps = (lambda v: self._block(v) / lam,) * 2
            l = sa * self.psi
        spins = {dy: _spin_diag(W, y0 + dy) for dy in dys}
        out = {}
        for dx in range(dx_max + 1):
            if dx:
                l = steps[(x0 + dx - 1) % 2](l)
            lr = l * ends[(x0 + dx) % 2]
            out.update(((dx, dy), float(lr @ s)) for dy, s in spins.items())
        return out

    def correlation(self, base, delta):
        """<sigma_base sigma_(base+delta)> on the infinite cylinder."""
        (x0, y0), (dx, dy) = base, delta
        if dx < 0:
            x0, y0, dx, dy = x0 + dx, y0 + dy, -dx, -dy
        if dx > MAX_TRANSFER_DX:
            raise OracleCapacityError("transfer distance %d exceeds %d"
                                      % (dx, MAX_TRANSFER_DX))
        return self.pair_table((x0, y0), dx, (dy,))[(dx, dy)]


def cylinder_correlation(spec, delta, base=(0, 0)):
    """<sigma_0 sigma_delta> on the infinite cylinder of circumference W.

    delta = (dx, dy) with dx along the axis and dy around the ring.  base
    matters only for the frustrated ring modes, where the two-column unit
    cell breaks full translation invariance.
    """
    return _Cylinder(spec).correlation(base, delta)


def torus_correlation(W, L, K, site_a, site_b, ring_mode="uniform"):
    """Exact <sigma_a sigma_b> on a W x L torus via dense transfer traces.

    Sites are (x, y) with x in [0, L) along the transfer direction and y
    around the ring.  Complements enumerate_correlation where 2^(W*L) is
    out of reach; the dense 2^W matrices cap W at 10.
    """
    if W > 10:
        raise OracleCapacityError("dense torus path caps the ring at W = 10")
    if ring_mode in ("columnar", "checkerboard") and (W % 2 or L % 2):
        raise ValueError("frustrated ring pattern needs even W and L")
    dim = 1 << W
    B = _dense_bond_layer(W, K)
    fields = _column_ring_fields(CylinderSpec(W, K, ring_mode))
    d = [np.exp(K * fields[0]), np.exp(K * fields[1])]
    ins = {}
    for (x, y) in (site_a, site_b):
        key = x % L
        ins[key] = ins.get(key, np.ones(dim)) * _spin_diag(W, y)

    def column(x):
        m = d[x % 2][:, None] * B
        if x in ins:
            m = ins[x][:, None] * m
        return m

    prod = np.eye(dim)
    prod_plain = np.eye(dim)
    for x in range(L):
        prod = column(x) @ prod
        m = d[x % 2][:, None] * B
        prod_plain = m @ prod_plain
        scale = np.abs(prod_plain).max()
        prod /= scale
        prod_plain /= scale
    return float(np.trace(prod) / np.trace(prod_plain))


# ---------------------------------------------------------------------------
# width extrapolation


def extrapolate(widths, values):
    """(limit, error estimate) of a geometrically converging width sweep.

    Fits value(W) = limit + B e^{-cW} through the last three points of an
    evenly spaced sweep; the error estimate is |value(W_max) - limit|
    inflated by 4.
    """
    widths = list(widths)
    values = [float(v) for v in values]
    if len(widths) < 3 or len(widths) != len(values):
        raise ExtrapolationError("need at least 3 evenly spaced widths")
    steps = {widths[i + 1] - widths[i] for i in range(len(widths) - 1)}
    if len(steps) != 1 or steps.pop() <= 0:
        raise ExtrapolationError("widths must be increasing and evenly spaced")
    v1, v2, v3 = values[-3:]
    d1, d2 = v2 - v1, v3 - v2
    if d1 == 0 and d2 == 0:
        return v3, 0.0
    if d1 == 0:
        raise ExtrapolationError("stalled then moving tail; no geometric fit")
    r = d2 / d1
    if not 0 < r < 1:
        raise ExtrapolationError(
            "width sequence not geometrically decaying (ratio %.3g)" % r)
    limit = v3 + d2 * r / (1 - r)
    return limit, 4 * abs(v3 - limit)


def _limit_single(ws, vs):
    """Aitken limit with a converged-tail escape hatch."""
    try:
        return extrapolate(ws, vs)[0]
    except ExtrapolationError:
        spread = max(vs[-3:]) - min(vs[-3:])
        if spread < 1e-11 * max(1.0, abs(vs[-1])):
            # settled to the noise floor; the differences are no longer
            # geometric but the value itself is converged
            return vs[-1]
        raise


def _limit_deep(ws, vs):
    """Repeated Aitken: collapse consecutive triples level by level.

    Each level removes one more decay component; stops when a level
    fails the geometric test (converged tails included) or fewer than
    three values remain, returning the deepest healthy value.
    """
    cur_w, cur_v = list(ws), list(vs)
    while len(cur_v) >= 3:
        try:
            nxt = [extrapolate(cur_w[j - 2:j + 1], cur_v[j - 2:j + 1])[0]
                   for j in range(2, len(cur_v))]
        except ExtrapolationError:
            break
        cur_w, cur_v = cur_w[2:], nxt
    return cur_v[-1]


def oracle_pair_correlations(k, radius):
    """Extrapolated cylinder tables for the dual correlation pair.

    Returns (C, C_bar): dicts over the quadrant 0 <= m, n <= radius+1,
    C from the disordered model at sinh 2K = sqrt(k) and C_bar from its
    Kramers-Wannier dual at sinh 2K = 1/sqrt(k).  Indices are (axis,
    ring) separations.

    The two phases need different finite-width treatments, both
    calibrated against the model's closed forms.  The disordered table
    averages periodic and antiperiodic rings, cancelling the odd-winding
    correction, fits one geometric tail per entry, and keeps the full
    quadrant so transpose symmetry stays a checkable statement.
    Antiperiodic rings would insert a domain wall in the ordered phase,
    so that table keeps periodic rings, collapses a unit-spaced width
    ladder by repeated geometric fits, and averages the two transfer
    orientations of each entry (transpose-symmetric by construction;
    the raw orientations agree to the quoted accuracy).  Entries come
    out accurate to a few 1e-7 away from criticality; radius is capped
    so every ring separation keeps at least three alias-free widths.
    """
    top = radius + 1
    if 2 * top > MAX_CYLINDER_W - 2:
        raise OracleCapacityError(
            "radius %d needs ring separations to %d; width cap %d leaves "
            "fewer than 3 alias-free widths" % (radius, top, MAX_CYLINDER_W))
    even = list(range(8, MAX_CYLINDER_W + 1, 2))
    out = []
    for sinh2k, averaged in ((np.sqrt(k), True), (1 / np.sqrt(k), False)):
        K = np.arcsinh(sinh2k) / 2
        cache = {}

        def grid(mode, W, K=K):
            if (mode, W) not in cache:
                cyl = _Cylinder(CylinderSpec(W, K, mode))
                cache[(mode, W)] = cyl.pair_table(
                    (0, 0), top, range(min(top, W // 2) + 1))
            return cache[(mode, W)]

        raw = {}
        for dy in range(top + 1):
            if averaged:
                ws = [w for w in even if w >= 2 * dy]
                if len(ws) < 3:
                    ws = list(range(max(8, 2 * dy), MAX_CYLINDER_W + 1))
            else:
                ws = list(range(max(8, 2 * dy), MAX_CYLINDER_W + 1))
            for dx in range(top + 1):
                series = []
                for W in ws:
                    if averaged:
                        series.append(0.5 * (grid("uniform", W)[(dx, dy)]
                                             + grid("antiperiodic", W)[(dx, dy)]))
                    else:
                        series.append(grid("uniform", W)[(dx, dy)])
                if (dx, dy) == (0, 0):
                    raw[(dx, dy)] = 1.0
                elif averaged:
                    raw[(dx, dy)] = _limit_single(ws, series)
                else:
                    raw[(dx, dy)] = _limit_deep(ws, series)
        if averaged:
            out.append(raw)
        else:
            out.append({key: 0.5 * (raw[key] + raw[key[::-1]])
                        for key in raw})
    return out[0], out[1]


# ---------------------------------------------------------------------------
# fully frustrated model


def gauge_sign(l):
    """Row gauge relating the two layouts: +1 on rows l mod 4 in {0, 1}."""
    return 1 if l % 4 in (0, 1) else -1


def frustrated_pair_correlations(S, radius):
    """Mixed-sign cylinder correlations of the fully frustrated model.

    Returns (limits, gauge_map) at S = sinh 2K.  limits maps each layout,
    "a" and "b", to {(p, dx, dy): value}, the correlation from a base
    site of sublattice parity p to the separation (dx, dy), extrapolated
    in W, for 0 <= dx <= radius, |dy| <= radius and one of each +-pair.
    gauge_map holds over the same keys the fixed-width residual of the
    gauge map between the layouts, which vanishes in exact arithmetic.
    """
    K = float(np.arcsinh(S) / 2)

    # Both layouts are extrapolated through the columnar cylinders, whose
    # two-column period gives same-sign geometric convergence in W, and
    # checkerboard targets pick up the exact row-gauge sign.  The
    # checkerboard row pattern has period 4: on W = 2 mod 4 rings its seam
    # carries a gauge defect and the width corrections alternate in sign.
    widths = (8, 10, 12, 14, 16)
    dys = range(-radius, radius + 1)

    def tables(W, mode):
        cyl = _Cylinder(CylinderSpec(W, K, mode))
        return [cyl.pair_table((p, 0), radius, dys) for p in (0, 1)]

    columnar = [tables(W, "columnar") for W in widths]
    # Fixed-width certification of the gauge map: on a W = 8 ring the
    # checkerboard model is exactly the row-gauged columnar model, so
    # their correlations must agree to transfer-matrix precision.
    checker = tables(8, "checkerboard")

    # base column parity p and one separation of each +-(dx, dy) pair
    offsets = [(p, dx, dy) for p in (0, 1) for dx in range(radius + 1)
               for dy in dys if dx > 0 or dy > 0]
    limits, gauge_map = {"a": {}, "b": {}}, {}
    for p, dx, dy in offsets:
        key, sign = (p, dx, dy), gauge_sign(0) * gauge_sign(dy)
        value = _limit_deep(widths, [t[p][(dx, dy)] for t in columnar])
        limits["a"][key], limits["b"][key] = sign * value, value
        gauge_map[key] = (checker[p][(dx, dy)]
                          - sign * columnar[0][p][(dx, dy)])
    return limits, gauge_map
