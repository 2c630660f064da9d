"""The three workloads: their commands, set-up command and output checks.

A command is an isingchi argv in which "{out}" stands for the output
directory.  The commands and their order are fixed, so every seed does the
same work; the order matters for peak memory, which moves by 6% between
orders of the grids commands.  The seed picks the grid points that are
checked against a direct sum.
"""

import math
import sys
import types

import numpy as np

import checkers as ck

# (k, radius); k = 2 takes the duality-swap path and is checked against
# the corner of the k = 0.5 table.
TABLES = ((0.5, 40), (0.99, 24), (0.1, 32), (2.0, 16))

# (source, parameters, grid); every grid uses window radius GRID_RADIUS
GRID_RADIUS = 16
GRIDS = (
    ("uniform", {"k": 0.5}, (512, 512)),
    ("uniform", {"k": 0.9}, (640, 400)),
    ("frustrated", {"S": 1.0, "version": "a"}, (512, 512)),
    ("frustrated", {"S": 1.0, "version": "b"}, (400, 640)),
    ("gauge", {"k": 0.9, "j": 0}, (512, 512)),
    ("gauge", {"k": 0.5, "j": 1}, (640, 400)),
)
GRID_POINTS = 8


def _corr(k, radius, path):
    return ["corr", "--k", repr(k), "--radius", str(radius), "--out", path]


def _table_path(k, radius):
    return "{out}/corr_k%s_R%d.csv" % (repr(k), radius)


def dual_modulus(S):
    """Modulus of the uniform pair the frustrated model factorizes into."""
    s2 = S * S
    rk = s2 / (s2 + 1 + math.sqrt(2 * s2 + 1))
    return rk * rk


def _grid_stem(source, params, shape):
    tags = "_".join("%s%s" % kv for kv in sorted(params.items()))
    return "{out}/chi_%s_%s_%dx%d" % (source, tags, shape[0], shape[1])


def _chi(source, params, shape):
    stem = _grid_stem(source, params, shape)
    argv = ["chi", source]
    for key, value in params.items():
        argv += ["--" + key, str(value)]
    return argv + ["--radius", str(GRID_RADIUS), "--grid", "%dx%d" % shape,
                   "--out", stem + ".csv", "--pgm", stem + ".pgm",
                   "--peaks", stem + "_peaks.csv"]


def _grid_reference_moduli():
    out = []
    for source, params, _ in GRIDS:
        k = dual_modulus(params["S"]) if source == "frustrated" else params["k"]
        if k not in out:
            out.append(k)
    return out


class Workload:
    name = ""
    commands = []       # one round, in order
    setup = []          # smallest command of the kind, for setup_s
    references = []     # untimed commands whose outputs the checks use

    def check(self, out_dir, ref_dir, seed, src, skip):
        """Failure messages for the outputs of the last untraced round.

        Files named in skip belong to commands that failed; they are
        counted as failed operations and not checked.
        """
        raise NotImplementedError


class Tables(Workload):
    name = "tables"
    commands = [_corr(k, r, _table_path(k, r)) for k, r in TABLES]
    setup = _corr(0.5, 2, "{out}/setup.csv")

    def check(self, out_dir, ref_dir, seed, src, skip):
        fails = []
        loaded = {}
        for k, radius in TABLES:
            path = _table_path(k, radius).replace("{out}", out_dir)
            if path in skip:
                continue
            c, cb = loaded[k] = ck.read_corr_csv(path)
            if c.shape[0] != radius + 1:
                fails.append("%s: radius %d" % (path, c.shape[0] - 1))
            elif k < 1:
                fails += ["%s: %s" % (path, f) for f in ck.check_table(c, cb, k)]
        for k, _ in TABLES:
            if k > 1 and k in loaded and 1 / k in loaded:
                fails += ["k=%g: %s" % (k, f)
                          for f in ck.check_swap(*loaded[k], *loaded[1 / k])]
        return fails


class Grids(Workload):
    name = "grids"
    commands = [_chi(*g) for g in GRIDS]
    setup = ["chi", "uniform", "--k", "0.5", "--radius", "4", "--grid", "2x2",
             "--out", "{out}/setup.csv"]
    references = [_corr(k, GRID_RADIUS, _table_path(k, GRID_RADIUS))
                  for k in _grid_reference_moduli()]

    def check(self, out_dir, ref_dir, seed, src, skip):
        rng = np.random.default_rng(seed)
        fails = []
        for source, params, shape in GRIDS:
            stem = _grid_stem(source, params, shape).replace("{out}", out_dir)
            points = list(zip(rng.integers(0, shape[0], GRID_POINTS),
                              rng.integers(0, shape[1], GRID_POINTS)))
            if stem + ".csv" in skip:
                continue
            qx, qy, values = ck.read_chi_csv(stem + ".csv")
            here = []
            if values.shape != shape:
                fails.append("%s: grid %s" % (stem, values.shape))
                continue
            here += ck.check_grid_invariants(values)
            here += ck.check_pgm(ck.read_pgm(stem + ".pgm"), values)
            here += ck.check_peaks(ck.read_peaks_csv(stem + "_peaks.csv"),
                                   qx, qy, values)
            k = dual_modulus(params["S"]) if source == "frustrated" else params["k"]
            c, cb = ck.read_corr_csv(
                _table_path(k, GRID_RADIUS).replace("{out}", ref_dir))
            if source == "uniform":
                here += ck.check_grid_points(qx, qy, values, ck.full_window(c),
                                             points, 1e-12)
            elif source == "gauge":
                here += ck.check_grid_points(qx, qy, values,
                                             gauge_window(src, params, c),
                                             points, 1e-12)
                here += ck.check_gauge_closed_form(
                    qx, qy, values, c, metallic_alpha(params["j"]))
            else:
                corr = frustrated_window(src, params, k, c, cb)
                here += ck.check_grid_points(qx, qy, values, corr, points, 1e-12)
            fails += ["%s: %s" % (stem, f) for f in here]
        return fails


def metallic_alpha(j):
    return ((j + 1) + math.sqrt((j + 1) ** 2 + 4)) / 2


def _import_from(src):
    if src not in sys.path:
        sys.path.insert(0, src)


def gauge_window(src, params, c):
    """Gauge correlations C(dx, dy) kappa(|dy|) over |dx|, |dy| <= R.

    kappa is the program's own sign autocorrelation over the same window
    the CLI uses, so the direct sum tests the grid sum alone; the window
    error of kappa is left to check_gauge_closed_form.
    """
    _import_from(src)
    from isingchi.quasiperiodic import FibonacciSpec, autocorrelation, sign_sequence

    spec = FibonacciSpec(j=params["j"], gamma=0.0)
    kappa = autocorrelation(sign_sequence(spec, ck.GAUGE_WINDOW), GRID_RADIUS + 1)
    return ck.full_window(c, kappa)


def frustrated_window(src, params, k, c, cb):
    """Sublattice-averaged frustrated correlations over |dx|, |dy| <= 2R.

    Assembled by the program's ff_correlation from the C / Cbar values the
    `corr` command wrote for the model's dual modulus.
    """
    _import_from(src)
    from isingchi.frustrated import FrustratedModel, ff_correlation

    model = FrustratedModel(S=params["S"], version=params["version"])
    table = types.SimpleNamespace(radius=c.shape[0] - 1, C=c, C_bar=cb,
                                  k_requested=k)
    w = 2 * GRID_RADIUS
    corr = np.empty((2 * w + 1, 2 * w + 1))
    for dx in range(-w, w + 1):
        for dy in range(-w, w + 1):
            corr[dx + w, dy + w] = 0.5 * sum(
                ff_correlation(model, table, dx, dy, p) for p in (0, 1))
    return corr


class Verify(Workload):
    name = "verify"
    commands = [["verify", "all", "--out", "{out}/verify.csv"]]
    setup = ["verify", "elliptic", "--out", "{out}/setup.csv"]

    def check(self, out_dir, ref_dir, seed, src, skip):
        path = out_dir + "/verify.csv"
        if path in skip:
            return []
        return ck.check_verify(ck.read_verification_csv(path))


WORKLOADS = {w.name: w for w in (Tables(), Grids(), Verify())}
