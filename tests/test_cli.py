import json
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import qtangent
from qtangent.cli import parse_and_dispatch


def run(argv, capsys):
    code = parse_and_dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(args, cwd):
    """Run python ARGS in a new interpreter that imports qtangent from this tree."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qtangent.__file__)))
    return subprocess.run([sys.executable] + args, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=300)


def assert_usage_error(code, err):
    assert code == 1
    lines = err.strip().split("\n")
    assert len(lines) == 1 and lines[0].startswith("qtangent: error:"), err


class TestInputValidation:
    """Bad input exits 1 with one error line: no traceback, no NaN output."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--process", "qbm", "--q", "0.5", "--t1", "1", "--steps", "5",
         "--paths", "0"],
        ["jumps", "--q", "0.5", "--T", "1", "--a", "1", "--steps", "5", "--paths", "0"],
        ["simulate", "--process", "qou", "--q", "0.5", "--t1", "1", "--steps", "5",
         "--init", "fixed:abc"],
        ["simulate", "--process", "qou", "--q", "0.5", "--t1", "1", "--steps", "5",
         "--init", "fixed:nan"],
        ["simulate", "--process", "qbm", "--q", "0.5", "--t1", "inf", "--steps", "5"],
        ["density", "--process", "qou", "--q", "0.5", "--delta", "0.3", "--x", "nan",
         "--grid", "-1:1:5"],
        ["density", "--process", "half_stable", "--t", "inf", "--grid", "0.5:2:5"],
        ["density", "--process", "qnormal", "--q", "0", "--grid", "0:inf:5"],
        ["density", "--process", "qnormal", "--q", "0", "--grid", "-inf:1:5"],
    ], ids=["simulate-paths-0", "jumps-paths-0", "init-fixed-abc", "init-fixed-nan",
            "simulate-t1-inf", "density-x-nan", "density-t-inf", "density-grid-inf",
            "density-grid-minus-inf"])
    def test_exits_one_with_one_line(self, argv, tmp_path, capsys):
        code, out, err = run(argv + (["--output-dir", str(tmp_path)] if argv[0] == "simulate"
                                     else []), capsys)
        assert_usage_error(code, err)
        assert "nan" not in out


class TestDensityCommand:
    def test_qnormal_grid(self, capsys):
        code, out, _ = run(["density", "--process", "qnormal", "--q", "0",
                            "--grid", "-2:2:401"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "x,pdf"
        assert len(lines) == 402
        x0 = dict(tuple(line.split(",")) for line in lines[1:])["0.0"]
        assert float(x0) == pytest.approx(0.3183098862, abs=1e-9)

    def test_csv_floats_round_trip(self, tmp_path, capsys):
        out_file = tmp_path / "d.csv"
        code, _, _ = run(["density", "--process", "qnormal", "--q", "0.5",
                          "--grid", "-1:1:33", "-o", str(out_file)], capsys)
        assert code == 0
        rows = out_file.read_text().strip().split("\n")[1:]
        xs = np.array([float(r.split(",")[0]) for r in rows])
        expected = np.linspace(-1, 1, 33)
        assert all(struct.pack("<d", a) == struct.pack("<d", b)
                   for a, b in zip(xs, expected))

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["density", "--process", "qou", "--q", "0.5", "--delta", "0.3",
                "--x", "0.1", "--grid", "-2:2:65"]
        run(argv + ["-o", str(a)], capsys)
        run(argv + ["-o", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_json_envelope(self, capsys):
        code, out, _ = run(["density", "--process", "cauchy_marginal", "--t", "1",
                            "--grid", "-1:1:11", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["tool"] == "qtangent"
        assert doc["command"] == "density"
        assert "version" in doc and "result" in doc

    def test_missing_parameter_exits_one(self, capsys):
        code, _, err = run(["density", "--process", "qou", "--q", "0.5",
                            "--grid", "0:1:5"], capsys)
        assert code == 1
        assert "delta" in err

    def test_bad_grid_exits_one(self, capsys):
        code, _, err = run(["density", "--process", "qnormal", "--q", "0",
                            "--grid", "nope"], capsys)
        assert code == 1

    def test_negative_grid_bounds_reach_the_grid_parser(self, capsys):
        # "-inf:1:5" and "-.5:1:5" are values, not options
        code, _, err = run(["density", "--process", "qnormal", "--q", "0",
                            "--grid", "-inf:1:5"], capsys)
        assert_usage_error(code, err)
        assert "grid needs finite lo < hi" in err
        code, out, _ = run(["density", "--process", "qnormal", "--q", "0",
                            "--grid", "-.5:1:4"], capsys)
        assert code == 0
        assert out.split("\n")[1].startswith("-0.5,")

    def test_unknown_flag_exits_one(self, capsys):
        code, _, _ = run(["density", "--process", "qnormal", "--q", "0",
                          "--grid", "0:1:5", "--bogus", "1"], capsys)
        assert code == 1


    def test_qbm_at_extreme_times_is_finite(self, capsys):
        code, out, _ = run(["density", "--process", "qbm", "--q", "0.5", "--t1", "1e200",
                            "--t2", "2e200", "--y1", "0", "--grid", "-1e100:1e100:3"], capsys)
        assert code == 0
        pdf = [float(line.split(",")[1]) for line in out.strip().split("\n")[1:]]
        assert len(pdf) == 3 and all(math.isfinite(v) and v > 0.0 for v in pdf)


class TestSimulateCommand:
    def test_writes_paths_and_reproduces(self, tmp_path, capsys):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        argv = ["simulate", "--process", "qbm", "--q", "0.95", "--t0", "0",
                "--t1", "4", "--steps", "50", "--paths", "3", "--seed", "7"]
        code, _, _ = run(argv + ["--output-dir", str(d1)], capsys)
        assert code == 0
        files = sorted(f.name for f in d1.iterdir())
        assert files == ["path_000.csv", "path_001.csv", "path_002.csv"]
        header, first = (d1 / "path_000.csv").read_text().split("\n")[:2]
        assert header == "t,value"
        run(argv + ["--output-dir", str(d2)], capsys)
        for name in files:
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_envelope_confinement(self, tmp_path, capsys):
        run(["simulate", "--process", "qbm", "--q", "0.95", "--t0", "0", "--t1", "4",
             "--steps", "100", "--paths", "2", "--seed", "3",
             "--output-dir", str(tmp_path)], capsys)
        rows = (tmp_path / "path_000.csv").read_text().strip().split("\n")[1:]
        data = np.array([[float(v) for v in r.split(",")] for r in rows])
        bound = 2 * np.sqrt(data[:, 0] / (1 - 0.95))
        assert np.all(np.abs(data[:, 1]) <= bound + 1e-9)

    def test_qou_reruns_byte_identical(self, tmp_path):
        # fresh processes with default arguments, as a user would run them
        argv = ["-m", "qtangent.cli", "simulate", "--process", "qou", "--q", "0.5",
                "--t1", "20", "--steps", "400", "--paths", "20", "--seed", "11"]
        for name in ("r1", "r2"):
            proc = run_fresh(argv + ["--output-dir", name], tmp_path)
            assert proc.returncode == 0, proc.stderr
        files = sorted(f.name for f in (tmp_path / "r1").iterdir())
        assert len(files) == 20
        for name in files:
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


@pytest.mark.parametrize("argv, err", [
    (["jumps", "--q", "0.997", "--T", "1", "--a", "1", "--steps", "2", "--paths", "2"], ""),
    (["simulate", "--process", "qbm", "--q", "-0.997", "--t1", "1", "--steps", "20",
      "--paths", "5", "--output-dir", "paths"], "wrote 5 path files to paths\n"),
], ids=["jumps-q-0.997", "simulate-qbm-q-minus-0.997"])
def test_edge_of_supported_q_writes_no_warnings(argv, err, tmp_path):
    # conditional rows there hold intervals whose mass underflows; the
    # quantile slopes must treat them as ties instead of overflowing
    proc = run_fresh(["-m", "qtangent.cli"] + argv, tmp_path)
    assert proc.returncode == 0
    assert proc.stderr == err


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # importing scipy would cost most of a short command's start-up
    proc = run_fresh(["-c", "import sys, qtangent.cli; "
                            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                     tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "kernels", "--samples", "2"],
    ["verify", "--suite", "freeprob", "--samples", "2"],
    ["tangent", "--case", "qbm_boundary", "--q", "0.5", "--s", "1", "--ladder", "0.1,0.05"],
    ["biane", "--s", "1", "--t", "2", "--x", "1", "--grid", "0.5:3:4"],
], ids=["verify-kernels", "verify-freeprob", "tangent", "biane"])
def test_integrating_commands_leave_scipy_unloaded(argv, tmp_path):
    # every integral runs through qtangent.quadrature; scipy is a test dependency
    code = ("import sys\n"
            "from qtangent.cli import parse_and_dispatch\n"
            "rc = parse_and_dispatch(sys.argv[1:])\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
            "sys.exit(rc)\n")
    proc = run_fresh(["-c", code] + argv + ["-o", "out"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out").stat().st_size > 0
    assert proc.stdout.strip() == "[]"


class TestTangentCommand:
    def test_pass_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "t.json"
        code, _, _ = run(["tangent", "--case", "qou_interior", "--q", "0.5",
                          "--x", "0.5", "--ladder", "0.1,0.05,0.01",
                          "--resolution", "801", "-o", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["result"]["verdict"] == "pass"
        assert len(doc["result"]["ladder"]) == 3

    def test_negative_control_exit_two(self, capsys):
        code, out, _ = run(["tangent", "--case", "qou_interior", "--q", "0.5",
                            "--x", "0.5", "--ladder", "0.1,0.05,0.01",
                            "--resolution", "801", "--wrong-scale", "1.0"], capsys)
        assert code == 2
        assert json.loads(out)["result"]["verdict"] == "fail"

    def test_invalid_case_parameters_exit_one(self, capsys):
        code, _, err = run(["tangent", "--case", "qbm_interior", "--q", "0.5",
                            "--x", "0.0"], capsys)
        assert code == 1

    @pytest.mark.parametrize("flag,value", [
        ("--resolution", "0"), ("--resolution", "-5"), ("--resolution", "3"),
        ("--resolution", "31"), ("--threshold", "nan"), ("--threshold", "0"),
        ("--threshold", "inf"), ("--slack", "nan"), ("--slack", "-0.1"),
        ("--coverage", "1.5"), ("--coverage", "0"), ("--coverage", "nan"),
        ("--wrong-scale", "0"), ("--wrong-scale", "-1"), ("--wrong-scale", "inf"),
        ("--horizon", "inf"), ("--horizon", "-1"),
    ])
    def test_bad_flag_exits_one_naming_it(self, flag, value, capsys):
        code, out, err = run(["tangent", "--case", "qou_interior", "--q", "0.5", "--x", "0.5",
                              flag, value], capsys)
        assert_usage_error(code, err)
        assert flag in err and out == ""


    @staticmethod
    def _ladder(capsys, case, s, *extra):
        code, out, err = run(["tangent", "--case", case, "--q", "0.5", "--s", repr(s),
                              *extra], capsys)
        assert code == 0, err
        result = json.loads(out)["result"]
        assert result["verdict"] == "pass"
        return np.array([row["l1"] for row in result["ladder"]])

    @pytest.mark.parametrize("s", [1e-300, 1e-100, 1e100, 1e300])
    def test_qbm_boundary_at_extreme_base_times(self, s, capsys):
        # the study is scale-free: the ladder at s matches the one at s = 1
        # up to the rounding of the edge cancellation
        np.testing.assert_allclose(self._ladder(capsys, "qbm_boundary", s),
                                   self._ladder(capsys, "qbm_boundary", 1.0), rtol=1e-5)

    @pytest.mark.parametrize("s", [1e-200, 1e200])
    def test_qbm_interior_at_extreme_base_times(self, s, capsys):
        ladder = self._ladder(capsys, "qbm_interior", s, "--x", repr(0.5 * math.sqrt(s)))
        np.testing.assert_allclose(
            ladder, self._ladder(capsys, "qbm_interior", 1.0, "--x", "0.5"), rtol=1e-9)


class TestJumpsCommand:
    def test_fields_and_bound(self, capsys):
        code, out, _ = run(["jumps", "--q", "0.5", "--T", "1", "--a", "1",
                            "--paths", "40", "--steps", "60", "--seed", "5"], capsys)
        assert code == 0
        result = json.loads(out)["result"]
        assert result["bound"] == 0.5
        assert 0.0 <= result["exceed_fraction"] <= 1.0
        assert result["within_bound"] is True


class TestBianeCommand:
    def test_kernel_matches_inverted_transform(self, capsys):
        code, out, _ = run(["biane", "--s", "1", "--t", "2", "--x", "1",
                            "--grid", "0.5:3:6"], capsys)
        assert code == 0
        rows = out.strip().split("\n")[1:]
        for row in rows:
            _, kernel, inverted = (float(v) for v in row.split(","))
            assert inverted == pytest.approx(kernel, abs=1e-6)


class TestVerifyCommand:
    def test_freeprob_suite_passes(self, capsys):
        code, out, _ = run(["verify", "--suite", "freeprob", "--samples", "40"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["command"] == "verify"
        assert all(row["pass"] for row in doc["result"])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            parse_and_dispatch(["--version"])
        assert exc.value.code == 0
