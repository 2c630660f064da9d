import subprocess
import sys

import pytest

from isingchi.cli import run


def test_fib_bits_prefix(capsys):
    assert run(["fib", "--j", "0", "--count", "5"]) == 0
    assert capsys.readouterr().out == "0\n1\n0\n1\n1\n"


def test_fib_signs(capsys):
    assert run(["fib", "--j", "0", "--count", "5", "--signs"]) == 0
    assert capsys.readouterr().out == "1\n-1\n1\n-1\n-1\n"


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


@pytest.mark.parametrize("argv, advice", [
    (["chi", "frustrated", "--S", "1", "--version", "a", "--radius", "40",
      "--grid", "2x2"], "smaller --radius"),
    (["corr", "--k", "0.05", "--radius", "32"], "--precision above 256"),
])
def test_precision_errors_name_a_flag(argv, advice, tmp_path, capsys):
    # the library says "raise precision_bits"; the CLI adds what to pass
    out = tmp_path / "x.csv"
    assert run(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: swept entry left (0, 1]; raise precision_bits")
    assert err[0].endswith(advice)
    assert not out.exists()


@pytest.mark.parametrize("k, code, message", [
    ("1e-300", 1, "error: nearest-neighbour seed is not positive"),
    ("1e300", 1, "error: nearest-neighbour seed is not positive"),
    # the diagonal march runs out of bits; --precision 1024 builds it
    ("1e-30", 1, "error: cross-check relation residual"),
    ("inf", 2, "error: modulus must be positive and finite, got inf"),
])
def test_extreme_moduli_fail_in_one_line(k, code, message, tmp_path, capsys):
    # Onsager's closed form cancels to zero at k <= 1e-100, reached at
    # k = 1e300 through the duality swap; the march must not divide by it
    out = tmp_path / "x.csv"
    assert run(["corr", "--k", k, "--radius", "4", "--out", str(out)]) == code
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(message)
    if code == 1:
        assert err[0].endswith("--precision above 256")
    assert not out.exists()


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


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "isingchi", "fib", "--j", "1",
         "--count", "4"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stdout == "0\n0\n1\n0\n"


def test_corr_does_not_load_scipy(tmp_path):
    # the oracle and verify suites need scipy; a table export must not
    # pay for importing it
    code = ("import sys\n"
            "from isingchi.cli import run\n"
            "assert run(['corr', '--k', '0.5', '--radius', '2', '--out',"
            " sys.argv[1]]) == 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "c.csv")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_verify_does_not_load_scipy_integrate():
    # K-vs-quadrature integrates with mpmath; scipy.integrate costs ~0.3 s
    code = ("import sys\n"
            "from isingchi.verify import run_suite\n"
            "assert run_suite('elliptic').passed\n"
            "print('scipy.integrate' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
