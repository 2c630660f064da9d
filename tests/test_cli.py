import argparse
import ast
import hashlib
import inspect
import os
import subprocess
import sys
import time

import pytest

import isingchi.cli as cli
import isingchi.correlations as correlations
from isingchi.cli import _CONFIG_KEYS, build_parser, run
from isingchi.verify import SUITES

PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def test_fib_bits_prefix(capsys):
    assert run(["fib", "--j", "0", "--count", "5"]) == 0
    assert capsys.readouterr().out == "0\n1\n0\n1\n1\n"


def test_fib_signs(capsys):
    assert run(["fib", "--j", "0", "--count", "5", "--signs"]) == 0
    assert capsys.readouterr().out == "1\n-1\n1\n-1\n-1\n"


@pytest.mark.parametrize("argv, digest", [
    (["--k", "0.5", "--radius", "40"], "5a375b5bdd063220"),
    (["--k", "0.1", "--radius", "32"], "a1566d4bd58cfbd4"),
    (["--k", "2.0", "--radius", "16"], "801f2b74e5d7b44d"),
    (["--k", "0.99", "--radius", "24"], "07efffcf7911ed5e"),
    (["--k", "0.5", "--radius", "100", "--precision", "512"], "fb503e727882bcb5"),
    (["--k", "0.3", "--radius", "60"], "941fd25f2d5156ce"),
    # served at the exact ratio 1/3, not a rounded 1/3
    (["--k", "3.0", "--radius", "30"], "699d685c582ecf99"),
    (["--k", "0.9", "--radius", "100", "--precision", "512"], "d823811ff9ea3cd8"),
    # the build whose cost the Toeplitz minors dominate
    (["--k", "0.1", "--radius", "100", "--precision", "1024"], "9c47b042c067b75f"),
])
def test_corr_bytes_are_pinned(argv, digest, tmp_path):
    # SHA-256 prefixes of the CSVs written when the table was still stored
    # as mpf values; the integer table must print the same floats
    out = tmp_path / "corr.csv"
    assert run(["corr"] + argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest()[:16] == digest


def test_corr_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["corr", "--k", "0.5", "--radius", "4", "--out", str(a)]) == 0
    assert run(["corr", "--k", "0.5", "--radius", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "m,n,C,Cbar"
    assert len(lines) == 1 + 15  # octant of a radius-4 table


def test_corr_accepts_dual_modulus(tmp_path):
    out = tmp_path / "dual.csv"
    assert run(["corr", "--k", "2.0", "--radius", "3", "--out", str(out)]) == 0
    assert out.exists()


def test_chi_uniform_with_sidecars(tmp_path):
    out, pgm, peaks = (tmp_path / n for n in ("chi.csv", "chi.pgm",
                                              "peaks.csv"))
    code = run(["chi", "uniform", "--k", "0.5", "--radius", "6",
                "--grid", "16x16", "--out", str(out), "--pgm", str(pgm),
                "--peaks", str(peaks)])
    assert code == 0
    assert out.read_text().splitlines()[0] == "qx,qy,chi"
    assert len(out.read_text().splitlines()) == 1 + 256
    assert pgm.read_bytes().startswith(b"P5\n16 16\n65535\n")
    plines = peaks.read_text().splitlines()
    assert plines[0] == "qx,qy,value,commensurate"
    assert len(plines) >= 2


def test_chi_frustrated_runs(tmp_path):
    out = tmp_path / "ff.csv"
    code = run(["chi", "frustrated", "--S", "1.0", "--version", "a",
                "--radius", "5", "--grid", "12x12", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 144


def test_chi_gauge_runs(tmp_path):
    out = tmp_path / "gauge.csv"
    code = run(["chi", "gauge", "--k", "0.5", "--j", "0", "--gamma", "0.0",
                "--radius", "5", "--grid", "8x8", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 64


def test_chi_near_criticality_runs(tmp_path):
    out = tmp_path / "near.csv"
    code = run(["chi", "uniform", "--k", "0.99999", "--radius", "4",
                "--grid", "2x2", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 1 + 4


def test_chi_rejects_modulus_outside_disordered_domain(tmp_path, capsys):
    code = run(["chi", "uniform", "--k", "1.5", "--radius", "4",
                "--grid", "8x8", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "(0, 1)" in err


def _picks_256(monkeypatch):
    """Let a build that names no bits, as chi's are, build at 256 bits, as
    it did when 256 was the default: the frontier of 256 named bits."""
    plan = correlations._plan

    def at_256(k, radius, precision_bits=None):
        return plan(k, radius, 256 if precision_bits is None else precision_bits)

    monkeypatch.setattr(correlations, "_plan", at_256)


_LOSS = ("error: estimated small-k loss leaves fewer than 8 of 320 bits; "
         "raise precision_bits")
_SWEPT = "error: swept entry left (0, 1]; raise precision_bits"


@pytest.mark.parametrize("argv, message, advice", [
    (["chi", "frustrated", "--S", "1", "--version", "a", "--radius", "48",
      "--grid", "2x2"], _LOSS + " at (m, n) = (40, 42)", "smaller --radius"),
    (["corr", "--k", "0.05", "--radius", "48", "--precision", "256"],
     _LOSS + " at (m, n) = (35, 37)", "--precision above 256"),
    # the loss estimate passes k = 0.5 at radius 120; the sweep refuses it
    (["corr", "--k", "0.5", "--radius", "120", "--precision", "256"],
     _SWEPT + " at (m, n) = (72, 120)", "--precision above 256"),
], ids=["argv0-smaller --radius", "argv1---precision above 256",
        "argv2---precision above 256"])
def test_precision_errors_name_a_flag(argv, message, advice, tmp_path, capsys,
                                     monkeypatch):
    # the library says "raise precision_bits"; the CLI adds what to pass.
    # chi names no bits, so it reaches the 256-bit frontier only by _picks_256
    _picks_256(monkeypatch)
    out = tmp_path / "x.csv"
    assert run(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(message)
    assert err[0].endswith(advice)
    assert not out.exists()


@pytest.mark.parametrize("k, radius, where", [
    # the small-k loss estimate refuses each before any work, and names the
    # first radius it rules out
    ("1e-30", "4", "(0, 2)"), ("1e-20", "4", "(1, 3)"),
    ("1e-300", "4", "(0, 1)")])
def test_chi_precision_error_no_radius_avoids(k, radius, where, tmp_path,
                                              capsys, monkeypatch):
    # no --radius below 4 is accepted, and every accepted radius builds the
    # failing entry, so the advice is that 256 bits cannot reach the modulus
    # at 256 bits (_picks_256); the plan picks 541 bits or more for these
    _picks_256(monkeypatch)
    out = tmp_path / "x.csv"
    assert run(["chi", "uniform", "--k", k, "--radius", radius, "--grid",
                "2x2", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "at (m, n) = %s; " % where in err[0]
    assert err[0].endswith("chi builds its table at 256 bits, "
                           "at which this modulus is out of reach")
    assert not out.exists()


@pytest.mark.parametrize("k, code, message", [
    ("1e-300", 1, "error: estimated small-k loss"),
    ("1e300", 1, "error: estimated small-k loss"),
    # 256 bits cannot reach it; --precision 1024 builds it
    ("1e-30", 1, "error: estimated small-k loss"),
    ("inf", 2, "error: modulus must be positive and finite, got inf"),
])
def test_extreme_moduli_fail_in_one_line(k, code, message, tmp_path, capsys):
    # below 2^-320 the working modulus floors to zero, reached at k = 1e300
    # through the duality swap; the loss estimate refuses it before any
    # stage divides by it
    out = tmp_path / "x.csv"
    assert run(["corr", "--k", k, "--radius", "4", "--precision", "256",
                "--out", str(out)]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(message)
    if code == 1:
        assert err[0].endswith("--precision above 256")
    assert not out.exists()


def test_corr_picks_its_own_bits(tmp_path):
    # without --precision, corr builds at the fewest bits from 256 up that
    # leave 57 + 16 relative bits after the plan's loss estimate: 424 bits
    # for (0.05, 48), which 256 bits refuse, and 379 for (0.5, 96), whose
    # C(0, 96) was off by 2^-4.8 at 256 bits; it prints what a build 128
    # bits deeper prints
    out, deep = tmp_path / "corr.csv", tmp_path / "deep.csv"
    assert run(["corr", "--k", "0.05", "--radius", "48", "--out", str(out)]) == 0
    argv = ["corr", "--k", "0.5", "--radius", "96", "--out"]
    assert run(argv + [str(out)]) == 0
    assert run(argv + [str(deep), "--precision", str(379 + 128)]) == 0
    assert out.read_bytes() == deep.read_bytes()


@pytest.mark.parametrize("k, radius, first, normal", [
    # C(1, 2) and C(3, 4) print 0, and C(153, 154) is subnormal
    ("1e-300", 4, "C(1, 2) = 0", 1), ("1e-100", 8, "C(3, 4) = 0", 3),
    ("0.01", 160, "C(153, 154) = 4.54e-309", 153)],
    ids=["1e-300-4", "1e-100-8", "0.01-160"])
def test_corr_refuses_entries_below_double_range(k, radius, first, normal,
                                                 tmp_path, capsys):
    # a double below the smallest normal one cannot hold 17 digits; corr
    # once printed them, exit 0
    out = tmp_path / "x.csv"
    assert run(["corr", "--k", k, "--radius", str(radius), "--out",
                str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: %s is below the smallest normal double, too small for 17 "
        "digits; every entry stays normal out to --radius %d\n"
        % (first, normal))
    assert not out.exists()
    if k == "0.01":  # out to radius 150, every entry is normal
        assert run(["corr", "--k", k, "--radius", "150", "--out",
                    str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 151 * 152 // 2


@pytest.mark.parametrize("k, radius, bits", [
    # past the cap on bits; past the cap on the whole table, whose 7,710-bit
    # entries would take several GB; past both, far beyond float range
    ("1e-30", 48, 9577), ("0.5", 2000, 7710),
    ("0.5", 10 ** 12, 3850000000010)])
def test_corr_refuses_past_its_cap_before_any_work(k, radius, bits, tmp_path,
                                                   capsys, monkeypatch):
    def no_seeds(*args):
        raise AssertionError("a seed was computed past the cap")

    monkeypatch.setattr(correlations, "diagonal_seeds", no_seeds)
    out = tmp_path / "x.csv"
    start = time.perf_counter()
    assert run(["corr", "--k", k, "--radius", str(radius), "--out",
                str(out)]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "error: 17 right digits need %d bits in each of the (R + 1)^2 entries "
        "here, above the cap of 8192 bits or 2^32 in all; pass precision_bits; "
        "rerun with --precision or a smaller --radius\n" % bits)
    assert not out.exists()


@pytest.mark.parametrize("k, radius, bits, advice", [
    ("0.5", 2000, 7710, "so rerun with a smaller --radius"),
    ("1e-300", 8, 15955, "so rerun with a smaller --radius"),
    # no radius chi accepts is smaller
    ("5e-324", 4, 8601, "at which this modulus is out of reach")])
def test_chi_refuses_past_the_cap_before_any_work(k, radius, bits, advice,
                                                  tmp_path, capsys, monkeypatch):
    # chi's builds name no bits, so the plan's pick and its caps bound them
    def no_seeds(*args):
        raise AssertionError("a seed was computed past the cap")

    monkeypatch.setattr(correlations, "diagonal_seeds", no_seeds)
    out = tmp_path / "x.csv"
    start = time.perf_counter()
    assert run(["chi", "uniform", "--k", k, "--radius", str(radius), "--grid",
                "2x2", "--out", str(out)]) == 1
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "error: 17 right digits need %d bits in each of the (R + 1)^2 entries "
        "here, above the cap of 8192 bits or 2^32 in all; pass precision_bits; "
        "chi builds its table at the bits it picks, %s\n" % (bits, advice))
    assert not out.exists()


def test_chi_builds_at_the_plan_pick(tmp_path):
    # 256 bits run out at (22, 100) of the k = 0.5 sweep; the pick is 395
    out = tmp_path / "chi.csv"
    assert run(["chi", "uniform", "--k", "0.5", "--radius", "100", "--grid",
                "8x8", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 64


def test_chi_frustrated_bytes_are_pinned(tmp_path):
    # SHA-256 prefixes of the files written when the (0.0718, 40) table was
    # built at 256 bits: at the pick, 313, every file keeps its bytes
    paths = [tmp_path / name for name in ("ff.csv", "ff.pgm", "peaks.csv")]
    assert run(["chi", "frustrated", "--S", "1", "--version", "a", "--radius",
                "40", "--grid", "32x32", "--out", str(paths[0]), "--pgm",
                str(paths[1]), "--peaks", str(paths[2])]) == 0
    assert [hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in paths] == [
        "061e849f8173e913", "b47c6da4d4894d64", "91b0cd6b18a40009"]


class _Built(Exception):
    """Stops a command at its build, once the build is recorded."""


def test_benchmark_builds_pick_256_bits(tmp_path, monkeypatch, capsys):
    # each build of the benchmark's corr and chi commands, references and
    # set-ups, read from perfbench/workloads.py, and of verify all names no
    # bits and picks exactly 256, so its bytes are those of 256 named bits;
    # a change to the plan that would move them fails here first
    monkeypatch.syspath_prepend(PERFBENCH)
    import workloads

    builds, plan = [], correlations._plan

    def stop(k, radius, precision_bits=None):
        builds.append((k, radius, precision_bits))
        raise _Built

    monkeypatch.setattr(cli, "build_table", stop)
    argvs = [argv for w in workloads.WORKLOADS.values()
             for argv in w.commands + w.references + [w.setup]]
    for argv in argvs:
        if argv[0] in ("corr", "chi"):
            with pytest.raises(_Built):
                run([a.replace("{out}", str(tmp_path)) for a in argv])
    # tables and its set-up, grids, its three reference tables and set-up
    assert len(builds) == 4 + 1 + 6 + 3 + 1
    monkeypatch.undo()

    def recorded(k, radius, precision_bits=None):
        if precision_bits is None:
            builds.append((k, radius, precision_bits))
        return plan(k, radius, precision_bits)

    monkeypatch.setattr(correlations, "_plan", recorded)
    assert run(["verify", "all"]) == 0
    capsys.readouterr()
    # the recurrence and chi suites' tables; the frustrated suite names 128
    assert builds[15:] == [(0.5, 5, None), (0.5, 30, None)]
    for k, radius, bits in builds:
        assert bits is None and plan(k, radius).precision == 256, (k, radius)


def test_tail_fit_failure_is_one_line(tmp_path, capsys):
    # the pick, 7,982 bits, builds this table, whose axis entries fall
    # below the smallest double inside the tail fit's window
    out = tmp_path / "x.csv"
    assert run(["chi", "uniform", "--k", "1e-300", "--radius", "4", "--grid",
                "4x4", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: correlations hit the noise floor inside the window\n")
    assert [p.name for p in tmp_path.iterdir()] == []


@pytest.mark.parametrize("name", ["missing/o.csv", ""],
                         ids=["missing-directory", "directory"])
def test_unwritable_output_names_the_path(name, tmp_path, capsys):
    # a missing directory, or a directory where the file should go: the
    # error names the path asked for, not the temp file written beside it
    out = str(tmp_path / name)
    assert run(["chi", "uniform", "--k", "0.5", "--radius", "4", "--grid",
                "4x4", "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: [Errno ")
    assert repr(out) in err[0] and ".tmp-" not in err[0]
    assert [p.name for p in tmp_path.iterdir()] == []


_CHI = ["chi", "uniform", "--k", "0.5", "--radius", "4", "--grid", "2x2"]


_OUTPUTS = [
    (_CHI + ["--out", "keep.csv"], "--pgm"),
    (_CHI + ["--out", "keep.csv"], "--peaks"),
    (_CHI, "--out"),
    (["corr", "--k", "0.5", "--radius", "4"], "--out"),
]
_OUTPUT_IDS = ["chi-pgm", "chi-peaks", "chi-out", "corr-out"]


@pytest.mark.parametrize("argv, flag, target", [
    (argv, flag, target) for target in ("missing", "directory")
    for argv, flag in _OUTPUTS], ids=_OUTPUT_IDS + [
        name + "-directory" for name in _OUTPUT_IDS])
def test_missing_output_directory_is_refused_first(argv, flag, target,
                                                   tmp_path, capsys,
                                                   monkeypatch):
    # a later file's missing directory, or a directory given as the file,
    # once surfaced only after the table was built and the CSV had already
    # replaced the old one
    def no_build(*args):
        raise AssertionError("a table was built before the paths were checked")

    monkeypatch.setattr("isingchi.cli.build_table", no_build)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "keep.csv").write_bytes(b"old bytes\n")
    if target == "missing":
        path, message = str(tmp_path / "missing" / "x"), "2] No directory for"
    else:
        path, message = str(tmp_path), "21] Is a directory, for"
    assert run(argv + [flag, path]) == 2
    assert capsys.readouterr().err == (
        "error: [Errno %s %s: %r\n" % (message, flag, path))
    assert (tmp_path / "keep.csv").read_bytes() == b"old bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["keep.csv"]


@pytest.mark.parametrize("flags, first, second", [
    (["--out", "h.csv", "--pgm", "h.csv"], "out", "pgm"),
    (["--out", "h.csv", "--peaks", "h.csv"], "out", "peaks"),
    (["--out", "./h.csv", "--pgm", "h.csv"], "out", "pgm"),
    (["--out", "keep.csv", "--pgm", "sub/../h.csv", "--peaks", "h.csv"],
     "pgm", "peaks")], ids=["out-pgm", "out-peaks", "out-dot-pgm", "pgm-peaks"])
def test_two_outputs_naming_one_file_are_refused_first(flags, first, second,
                                                       tmp_path, capsys,
                                                       monkeypatch):
    # the later writer once replaced the chi CSV with its own file, exit 0
    def no_build(*args):
        raise AssertionError("a table was built before the paths were checked")

    monkeypatch.setattr("isingchi.cli.build_table", no_build)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    for name in ("keep.csv", "h.csv"):
        (tmp_path / name).write_bytes(b"old bytes\n")
    assert run(_CHI + flags) == 2
    assert capsys.readouterr().err == "error: --%s and --%s name one file, %r\n" % (
        first, second, "h.csv")
    for name in ("keep.csv", "h.csv"):
        assert (tmp_path / name).read_bytes() == b"old bytes\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.csv", "keep.csv", "sub"]


def test_verify_refuses_a_missing_out_directory_first(tmp_path, capsys,
                                                      monkeypatch):
    def no_suite(*args):
        raise AssertionError("a suite ran before the paths were checked")

    monkeypatch.setattr("isingchi.verify.run_suite", no_suite)
    missing = str(tmp_path / "missing" / "v.csv")
    assert run(["verify", "elliptic", "--out", missing]) == 2
    assert capsys.readouterr().err == (
        "error: [Errno 2] No directory for --out: %r\n" % missing)
    assert run(["verify", "elliptic", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: [Errno 21] Is a directory, for --out: %r\n" % str(tmp_path))


def test_missing_flag_is_usage_error(capsys):
    assert run(["corr", "--k", "0.5"]) == 2
    assert "--radius" in capsys.readouterr().err


def test_bad_grid_is_usage_error(tmp_path, capsys):
    code = run(["chi", "uniform", "--k", "0.5", "--radius", "4",
                "--grid", "10", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["corr", "--k", "0.5", "--radius", "1"],
    ["corr", "--k", "0.5", "--radius", "4", "--precision", "10"],
    ["chi", "uniform", "--k", "0.5", "--radius", "3", "--grid", "2x2"],
    ["chi", "frustrated", "--S", "1", "--version", "a", "--radius", "1",
     "--grid", "2x2"],
    ["fib", "--j", "0", "--gamma", "1.5", "--count", "3"],
    ["chi", "uniform", "--k", "0.9999999", "--radius", "4", "--grid", "2x2"],
])
def test_library_domain_errors_are_usage_errors(argv, tmp_path, capsys):
    if argv[0] != "fib":
        argv = argv + ["--out", str(tmp_path / "x.csv")]
    assert run(argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error:")
    if "0.9999999" in argv:
        # the modulus is quoted unrounded, not as %g's "1"
        assert "modulus 0.9999999 is within" in err[0]


@pytest.mark.parametrize("S", ["inf", "1e300", "1e-200"])
def test_extreme_S_fails_in_one_line(S, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["chi", "frustrated", "--S", S, "--version", "a", "--radius",
                "4", "--grid", "4x4", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: S = ")
    assert not out.exists()


@pytest.mark.parametrize("source", [
    ["uniform", "--k", "0.5"],
    ["frustrated", "--S", "1", "--version", "a"],
    ["gauge", "--k", "0.5", "--j", "0"],
], ids=["uniform", "frustrated", "gauge"])
@pytest.mark.parametrize("radius", ["2", "3"])
def test_chi_refuses_a_radius_the_tail_fit_cannot_use(source, radius, tmp_path,
                                                      capsys, monkeypatch):
    def no_build(*args):
        raise AssertionError("a table was built before the radius check")

    monkeypatch.setattr("isingchi.cli.build_table", no_build)
    out = tmp_path / "x.csv"
    assert run(["chi", *source, "--radius", radius, "--grid", "8x8",
                "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: --radius must be at least 4 for chi, got %s: the tail "
        "estimate fits the outer half of the window" % radius]
    assert not out.exists()


def test_verify_choices_name_every_suite():
    # kept by hand in cli so that `corr` never imports verify or numpy
    sub, = (a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction))
    suite, = (a for a in sub.choices["verify"]._actions if a.dest == "suite")
    assert tuple(suite.choices) == (*SUITES, "all")


def test_config_keys_are_the_long_flags():
    # every long flag but --config, with the caster its value takes
    flags = {}
    parsers = [build_parser()]
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers += action.choices.values()
            elif action.option_strings and action.dest not in ("help", "config"):
                caster = (bool if isinstance(action, argparse._StoreTrueAction)
                          else action.type or str)
                assert flags.setdefault(action.dest, caster) is caster
    assert flags == _CONFIG_KEYS


@pytest.mark.parametrize("argv, code, stream, text", [
    (["corr", "--k", "abc"], 2, "err",
     "isingchi corr: error: argument --k: invalid float value: 'abc'"),
    (["verify", "nosuch"], 2, "err", "argument suite: invalid choice"),
    (["--help"], 0, "out", "usage: isingchi [-h] [--config PATH]"),
], ids=["bad-float", "bad-suite", "help"])
def test_argparse_exits_are_returned(argv, code, stream, text, monkeypatch,
                                     capsys):
    # run() returns argparse's status; the console script exits with it
    # and prints the same bytes
    monkeypatch.setenv("COLUMNS", "80")
    assert run(argv) == code
    captured = capsys.readouterr()
    assert text in getattr(captured, stream)
    proc = subprocess.run([sys.executable, "-m", "isingchi"] + argv,
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, captured.out, captured.err)


def test_no_subcommand_prints_usage(capsys):
    assert run([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_nonpositive_count_rejected(capsys):
    assert run(["fib", "--j", "0", "--count", "0"]) == 2
    capsys.readouterr()


def test_config_supplies_missing_flags(tmp_path):
    out = tmp_path / "from_config.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 0.5\nradius = 4\nout = %s\n" % out)
    assert run(["--config", str(cfg), "corr"]) == 0
    ref = tmp_path / "ref.csv"
    assert run(["corr", "--k", "0.5", "--radius", "4", "--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


def test_flags_override_config(tmp_path):
    out = tmp_path / "o.csv"
    cfg = tmp_path / "run.cfg"
    cfg.write_text("k = 0.9\nradius = 4\n")
    assert run(["--config", str(cfg), "corr", "--k", "0.5",
                "--out", str(out)]) == 0
    ref = tmp_path / "r.csv"
    assert run(["corr", "--k", "0.5", "--radius", "4", "--out", str(ref)]) == 0
    assert out.read_bytes() == ref.read_bytes()


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("modulus = 0.5\n")
    assert run(["--config", str(cfg), "fib", "--j", "0",
                "--count", "3"]) == 2
    assert "modulus" in capsys.readouterr().err


def test_config_booleans_are_checked(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    argv = ["--config", str(cfg), "fib", "--j", "0", "--count", "3"]
    cfg.write_text("signs = ture\n")
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        err.strip()]
    cfg.write_text("signs = no\n")
    assert run(argv) == 0
    assert capsys.readouterr().out == "0\n1\n0\n"
    cfg.write_text("signs = YES\n")
    assert run(argv) == 0
    assert capsys.readouterr().out == "1\n-1\n1\n"


def test_missing_config_file_rejected(tmp_path, capsys):
    assert run(["--config", str(tmp_path / "absent.cfg"), "fib", "--j", "0",
                "--count", "3"]) == 2
    capsys.readouterr()


def test_verify_suite_passes(tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert run(["verify", "elliptic", "--out", str(out)]) == 0
    assert "overall: pass" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "identity,location,residual,tolerance,pass"
    assert all(ln.endswith(",true") for ln in lines[1:])


def test_verify_failure_sets_exit_code(capsys):
    # the oracle's extrapolated tables are nowhere near this tight
    assert run(["verify", "recurrence", "--tol", "1e-12"]) == 1
    assert "overall: FAIL" in capsys.readouterr().out


def test_verify_rejects_meaningless_tolerance(capsys):
    # nan fails every row and inf passes any: a usage error, not a verdict
    for tol in ("nan", "-1", "inf"):
        assert run(["verify", "couplings", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: tolerance")


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "isingchi", "fib", "--j", "1",
         "--count", "4"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == "0\n0\n1\n0\n"


@pytest.mark.parametrize("argv, absent", [
    (["corr", "--k", "0.5", "--radius", "2", "--out", "{out}"],
     ("numpy", "scipy", "mpmath", "dataclasses")),
    # the elliptic suite draws its moduli with the standard library
    (["verify", "elliptic"], ("numpy", "scipy", "mpmath", "dataclasses")),
    # so do the seeds suite's recurrences and Levinson minors
    (["verify", "seeds"], ("numpy", "scipy", "mpmath", "dataclasses")),
    (["verify", "couplings"], ("scipy", "mpmath", "dataclasses")),
    (["verify", "chi"], ("scipy", "mpmath", "dataclasses")),
    (["chi", "uniform", "--k", "0.5", "--radius", "4", "--grid", "2x2",
      "--out", "{out}"], ("scipy", "mpmath", "dataclasses")),
    # the oracle suites solve their cylinders with numpy alone
    (["verify", "recurrence"], ("scipy", "mpmath", "dataclasses")),
    (["verify", "all", "--out", "{out}"], ("scipy", "mpmath", "dataclasses")),
], ids=["corr", "verify-elliptic", "verify-seeds", "verify-couplings",
        "verify-chi", "chi-uniform", "verify-recurrence", "verify-all"])
def test_command_loads_only_what_it_uses(argv, absent, tmp_path):
    # each command imports only what its work needs: a table export pays
    # for neither numpy nor scipy, no command loads scipy or mpmath, and
    # none loads dataclasses (numpy imports inspect, but not dataclasses)
    code = ("import sys\n"
            "from isingchi.cli import run\n"
            "rc = run(sys.argv[1:])\n"
            "print(rc, sorted({m.split('.')[0] for m in sys.modules}"
            " & {'numpy', 'scipy', 'mpmath', 'dataclasses'}))")
    argv = [a.replace("{out}", str(tmp_path / "out.csv")) for a in argv]
    proc = subprocess.run([sys.executable, "-c", code] + argv,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rc, loaded = proc.stdout.splitlines()[-1].split(" ", 1)
    assert rc == "0", proc.stdout
    assert not set(absent) & set(eval(loaded)), loaded


def test_parser_is_built_once_per_process(tmp_path, monkeypatch, capsys):
    run(["corr", "--k", "0.5", "--radius", "2", "--out",
         str(tmp_path / "warm.csv")])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert run(["corr", "--k", "0.5", "--radius", "4", "--out",
                str(tmp_path / "corr.csv")]) == 0
    assert run(["verify", "elliptic"]) == 0
    assert run(["chi", "uniform", "--k", "0.5", "--radius", "2", "--grid",
                "8x8", "--out", str(tmp_path / "chi.csv")]) == 2
    capsys.readouterr()
    assert built == []


def test_shared_parser_keeps_no_precision(tmp_path):
    # the pinned bytes of `corr --k 0.5 --radius 40` at the default 256 bits
    argv = ["corr", "--k", "0.5", "--radius", "40", "--out",
            str(tmp_path / "corr.csv")]
    assert run(argv + ["--precision", "300"]) == 0
    assert run(argv) == 0
    digest = hashlib.sha256((tmp_path / "corr.csv").read_bytes()).hexdigest()
    assert digest[:16] == "5a375b5bdd063220"


def test_shared_parser_keeps_no_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("radius = 4\n")
    argv = ["corr", "--k", "0.5", "--out", str(tmp_path / "corr.csv")]
    assert run(["--config", str(cfg)] + argv) == 0
    assert run(argv) == 2
    assert capsys.readouterr().err == (
        "error: missing required option --radius (flag or config file)\n")


def test_shared_parser_keeps_no_gamma(tmp_path):
    def gauge(name, *extra):
        return ["chi", "gauge", "--k", "0.5", "--j", "0", "--radius", "5",
                "--grid", "8x8", "--out", str(tmp_path / name), *extra]

    assert run(gauge("half.csv", "--gamma", "0.5")) == 0
    assert run(gauge("after.csv")) == 0
    proc = subprocess.run([sys.executable, "-m", "isingchi"]
                          + gauge("fresh.csv"),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    fresh = (tmp_path / "fresh.csv").read_bytes()
    assert (tmp_path / "after.csv").read_bytes() == fresh
    assert (tmp_path / "half.csv").read_bytes() != fresh


@pytest.mark.parametrize("argv", [
    ["corr", "--k", "0.5", "--radius", "8"],
    ["chi", "uniform", "--k", "0.5", "--radius", "8", "--grid", "4x4"]],
    ids=["corr", "chi-uniform"])
def test_a_build_is_planned_once(argv, tmp_path, monkeypatch):
    # the build plans its bits, and nothing else in the command re-plans
    plans, plan = [], correlations._plan

    def counted(*args):
        plans.append(args)
        return plan(*args)

    monkeypatch.setattr(correlations, "_plan", counted)
    assert run(argv + ["--out", str(tmp_path / "x.csv")]) == 0
    assert plans == [(0.5, 8, None)]


def test_cli_imports_no_private_name_from_correlations():
    # the precision plan's bits reach the CLI through build_table and
    # PrecisionExhausted only
    names = [alias.name for node in ast.walk(ast.parse(inspect.getsource(cli)))
             if isinstance(node, ast.ImportFrom)
             and node.module == "correlations" for alias in node.names]
    assert "build_table" in names
    assert [name for name in names if name.startswith("_")] == []


def test_out_of_memory_in_a_corr_build_is_one_line(tmp_path, monkeypatch,
                                                   capsys):
    # once a traceback out of run(); never allocate a table that large here
    def no_memory(plan):
        raise MemoryError()

    monkeypatch.setattr(correlations, "_integer_table", no_memory)
    out = tmp_path / "x.csv"
    assert run(["corr", "--k", "0.5", "--radius", "4", "--out",
                str(out)]) == 1
    assert capsys.readouterr() == ("", "error: out of memory\n")
    assert not out.exists()


def test_oversized_grid_fails_in_one_line(tmp_path, monkeypatch, capsys):
    # stands in for a grid too large to allocate; never allocate one here
    def no_memory(*args):
        raise MemoryError("Unable to allocate 74.5 GiB")

    monkeypatch.setattr("isingchi.chi.chi_grid", no_memory)
    out = tmp_path / "chi.csv"
    assert run(["chi", "uniform", "--k", "0.5", "--radius", "4",
                "--grid", "100000x100000", "--out", str(out)]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: a 100000x100000 grid")
    assert lines[0].endswith("pick a smaller --grid")
    assert not out.exists()


@pytest.mark.parametrize("signs", [[], ["--signs"]])
def test_oversized_count_fails_in_one_line(signs, monkeypatch, capsys):
    def no_memory(*args):
        raise MemoryError()

    monkeypatch.setattr("isingchi.quasiperiodic.fib_bits", no_memory)
    assert run(["fib", "--j", "0", "--count", "10000000000000"] + signs) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, captured.err
    assert lines[0].startswith("error: 10000000000000 terms")
    assert lines[0].endswith("pick a smaller --count")


def test_verify_bytes_do_not_depend_on_blas_threads(tmp_path):
    # every reduction of the oracle runs in a fixed order, so the rows
    # come out the same whatever the BLAS thread count
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / ("verify-%s.csv" % threads)
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "isingchi", "verify", "all", "--out",
             str(out)], capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.parametrize("source", [["uniform", "--k", "0.5"],
                                    ["frustrated", "--S", "1", "--version", "a"]],
                         ids=["uniform", "frustrated"])
def test_chi_bytes_do_not_depend_on_blas_threads(source, tmp_path):
    # the grid's cosine sums are matrix products, which OpenBLAS may split
    # across threads; the CSV, PGM and peaks must not see how
    outs = []
    for threads in ("1", "2"):
        paths = [tmp_path / ("chi-%s.%s" % (threads, ext))
                 for ext in ("csv", "pgm", "peaks.csv")]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "isingchi", "chi", *source, "--radius", "16",
             "--grid", "64x64", "--out", str(paths[0]), "--pgm", str(paths[1]),
             "--peaks", str(paths[2])],
            capture_output=True, text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append([p.read_bytes() for p in paths])
    assert outs[0] == outs[1]
