import subprocess
import sys


def run_cli(*args):
    return subprocess.run([sys.executable, "-m", "geodexp.cli", *args],
                          capture_output=True, text=True)


def test_verify_geodesic_passes_and_writes_csv(tmp_path):
    out = tmp_path / "report.csv"
    r = run_cli("verify", "geodesic", "--out", str(out))
    assert r.returncode == 0
    assert "[PASS] A1" in r.stdout and "[PASS] A2" in r.stdout
    header = out.read_text().splitlines()[0]
    assert header == "check,name,key,value,slope,passed"


def test_reports_byte_identical():
    a = run_cli("verify", "geodesic").stdout
    b = run_cli("verify", "geodesic").stdout
    assert a == b


def test_sweep_outputs_slope_summary():
    r = run_cli("sweep", "expand3_sphere")
    assert r.returncode == 0
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "scale,error"
    assert lines[-1].startswith("slope,")


def test_sweep_euclidean_exact():
    r = run_cli("sweep", "expand3_euclidean")
    assert r.stdout.strip().splitlines()[-1] == "slope,exact"


def test_sweep_insufficient_signal():
    # two scales carry signal, the rest sit at the oracle floor: too few to fit
    r = run_cli("sweep", "expand3_sphere", "--scales", "0.2,0.1,1e-9,5e-10")
    assert r.returncode == 2
    assert "noise floor" in r.stderr


def test_config_errors_exit_2(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("fields:\n  deviation: {kind: random, amplitude: 0.1}\n")
    r = run_cli("verify", "geodesic", "--config", str(bad))
    assert r.returncode == 2
    assert "fields.deviation.seed" in r.stderr

    bad2 = tmp_path / "bad2.yaml"
    bad2.write_text("manifld: {builtin: sphere}\n")
    r = run_cli("verify", "geodesic", "--config", str(bad2))
    assert r.returncode == 2
    assert "manifld" in r.stderr


def test_geodesic_verbs(tmp_path):
    cfg = tmp_path / "p.yaml"
    cfg.write_text("manifold: {builtin: poincare_half_plane}\n")
    r = run_cli("geodesic", "shoot", "--x0", "0.0,1.0", "--v", "0.0,1.0",
                "--t", "0.6931471805599453", "--config", str(cfg))
    assert r.returncode == 0
    x, y = (float(c) for c in r.stdout.split())
    assert abs(x) < 1e-9 and abs(y - 2.0) < 1e-9

    r = run_cli("geodesic", "log", "--x0", "1.5707963267948966,0.0",
                "--x1", "1.5707963267948966,0.3")
    v = [float(c) for c in r.stdout.split()]
    assert abs(v[0]) < 1e-8 and abs(v[1] - 0.3) < 1e-8

    r = run_cli("geodesic", "expand", "--x0", "1.1,0.4", "--v", "0.05,0.02")
    assert r.returncode == 0


def test_geodesic_point_usage_errors():
    for args, flag in ((("log", "--x0", "1.0,0.3"), "--x1"),
                       (("shoot", "--x0", "1.0,0.3"), "--v"),
                       (("expand", "--x0", "1.0,0.3"), "--v"),
                       (("log", "--x0", "1.0,0.3,0.2", "--x1", "1.1,0.3"), "--x0"),
                       (("shoot", "--x0", "1.0,0.3", "--v", "0.1"), "--v"),
                       (("expand", "--x0", "1.0,0.3", "--v", "0.1,0.2,0.0"), "--v")):
        r = run_cli("geodesic", *args)
        assert r.returncode == 2, args
        assert flag in r.stderr and "Traceback" not in r.stderr, r.stderr


def test_immersion_report():
    r = run_cli("immersion", "report")
    assert r.returncode == 0
    assert "residual_gauss" in r.stdout
    assert "frame_completeness" in r.stdout


def test_measure_table():
    r = run_cli("measure")
    assert r.returncode == 0
    assert "right_measure.ricci_exponent" in r.stdout
    assert "fp_determinant.mean_curvature_linear" in r.stdout
    assert "pipeline.max_abs" in r.stdout


def test_action_table():
    r = run_cli("action")
    assert r.returncode == 0
    assert "background_action" in r.stdout
    assert "expanded_action" in r.stdout


def test_usage_error_exit_code():
    r = run_cli("verify", "nosuchsuite")
    assert r.returncode == 2


def test_raising_check_becomes_fail_row(monkeypatch, tmp_path, capsys):
    from geodexp import cli, suites
    from geodexp.errors import LatticeError

    def raises(config):
        raise LatticeError("lattice too coarse")

    def passes(config):
        return suites.CheckResult("A2", "stub", {"x": 1.0}, "none", True)

    monkeypatch.setitem(suites.CHECKS, "A1", raises)
    monkeypatch.setitem(suites.CHECKS, "A2", passes)
    out = tmp_path / "report.csv"
    assert cli.main(["verify", "geodesic", "--out", str(out)]) == cli.EXIT_FAIL
    stdout = capsys.readouterr().out
    assert "[FAIL] A1 raised LatticeError (lattice too coarse)" in stdout
    assert "[PASS] A2 stub" in stdout
    assert "A1,raised LatticeError,error,nan,,0" in out.read_text().splitlines()
