import json
import math
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import qtangent
import qtangent.simulate
from qtangent.cli import parse_and_dispatch


def run(argv, capsys):
    code = parse_and_dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(args, cwd, **env):
    """Run python ARGS in a new interpreter that imports qtangent from this tree,
    with the environment variables env on top of this one's."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(qtangent.__file__)), **env)
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
        ["density", "--process", "qnormal", "--q", "0.5", "--grid=-1.7e308:1.7e308:5"],
        ["density", "--process", "qou", "--q", "0.5", "--delta", "1e-310", "--x", "0",
         "--grid", "0:1:3"],
        ["density", "--process", "half_stable", "--t", "0", "--grid", "0.5:2:5"],
        ["verify", "--suite", "kernels", "--samples", "-1"],
        ["verify", "--suite", "kernels", "--samples", "0"],
        ["verify", "--suite", "freeprob", "--samples", "0"],
        ["tangent", "--case", "qou_interior", "--q", "0.5", "--x", "0", "--ladder", "0.2,nan"],
        ["tangent", "--case", "qou_interior", "--q", "0.5", "--x", "0", "--ladder", "0.2,-0.1"],
        ["tangent", "--case", "qou_interior", "--q", "0.5", "--x", "0", "--ladder", "inf,0.1"],
        ["tangent", "--case", "qou_interior", "--q", "0.5", "--x", "0.1", "--ladder", "0.2,1e-320"],
        ["tangent", "--case", "qbm_interior", "--q", "0.5", "--x", "0.1", "--s", "1",
         "--ladder", "0.2,1e-320"],
        ["tangent", "--case", "qbm_boundary", "--q", "0.5", "--s", "1e-10", "--horizon", "1e-4",
         "--ladder", "1e308,1e307"],
        ["simulate", "--process", "qou", "--q", "0.5", "--t1", "1", "--steps", "5",
         "--seed", "-1"],
        ["jumps", "--q", "0.5", "--T", "1", "--a", "1", "--paths", "2", "--steps", "2",
         "--seed", "-1"],
        ["verify", "--suite", "freeprob", "--samples", "2", "--seed", "-1"],
        ["simulate", "--process", "qou", "--q", "0.5", "--t1", "1", "--steps", "5",
         "--init", "origin"],
        ["simulate", "--process", "qbm", "--q", "0.5", "--t0", "1", "--t1", "2", "--steps", "5",
         "--init", "origin"],
        ["jumps", "--q", "0.5", "--T", "1", "--a", "1", "--steps", "abc"],
        ["density", "--process", "qnormal", "--q", "0", "--grid", "0:1:5", "--bogus", "1"],
        ["jumps", "--q", "0.5", "--T", "1"],
        ["density", "--process", "nope", "--grid", "0:1:3"],
        ["simulate", "--process", "qou", "--q", "0.5", "--t1", "1e-310", "--steps", "1",
         "--paths", "3"],
        # counts numpy cannot size, which it rejects before allocating anything
        ["density", "--process", "qnormal", "--q", "0.5", "--grid", f"-1:1:{10**20}"],
        ["biane", "--s", "0.5", "--t", "1", "--x", "1", "--grid", f"0.5:1:{10**20}"],
        ["simulate", "--process", "qou", "--q", "0.5", "--t1", "1", "--steps", str(10**20)],
        ["simulate", "--process", "qou", "--q", "0.5", "--t1", "1", "--steps", "1",
         "--paths", str(10**20)],
        ["jumps", "--q", "0.5", "--T", "1", "--a", "1", "--paths", str(10**20)],
        ["jumps", "--q", "0.5", "--T", "1", "--a", "1", "--steps", str(10**20)],
        ["verify", "--suite", "freeprob", "--samples", str(10**20)],
        ["tangent", "--case", "qou_interior", "--q", "0.5", "--x", "0.1",
         "--resolution", str(10**20)],
        # linspace repeats t = 1.0: a q-BM step of lag 0
        ["simulate", "--process", "qbm", "--q", "0.5", "--t0", "1", "--t1", "1.0000000000000002",
         "--steps", "2"],
        ["jumps", "--q", "0.5", "--S", "1", "--T", "1.0000000000000002", "--a", "1",
         "--paths", "2", "--steps", "2"],
        # q the kernel refuses, checked before the envelope sizes ~1/(1-|q|) bins
        ["simulate", "--process", "qou", "--q", "0.9999", "--t1", "1", "--steps", "2"],
        ["simulate", "--process", "qou", "--q", "0.9999999999999999", "--t1", "1",
         "--steps", "2"],
        ["jumps", "--q", "0.9999", "--T", "1", "--a", "1", "--paths", "2", "--steps", "2"],
        ["jumps", "--q", "0.9999999999999999", "--T", "1", "--a", "1", "--paths", "2",
         "--steps", "2"],
    ], ids=["simulate-paths-0", "jumps-paths-0", "init-fixed-abc", "init-fixed-nan",
            "simulate-t1-inf", "density-x-nan", "density-t-inf", "density-grid-inf",
            "density-grid-minus-inf", "density-grid-span-overflow", "density-qou-subnormal-lag",
            "density-t-0", "verify-samples-minus-1", "verify-samples-0",
            "verify-freeprob-samples-0", "ladder-nan", "ladder-negative", "ladder-inf",
            "ladder-subnormal-qou", "ladder-subnormal-qbm", "ladder-frame-overflow",
            "simulate-seed-minus-1", "jumps-seed-minus-1", "verify-seed-minus-1",
            "init-origin-qou", "init-origin-qbm-t0-1", "argparse-bad-int",
            "argparse-unknown-flag", "argparse-missing-flag", "argparse-bad-choice",
            "simulate-qou-subnormal-lag", "density-grid-count-1e20", "biane-grid-count-1e20",
            "simulate-steps-1e20", "simulate-paths-1e20", "jumps-paths-1e20", "jumps-steps-1e20",
            "verify-freeprob-samples-1e20", "tangent-resolution-1e20", "simulate-qbm-repeated-time",
            "jumps-repeated-time", "simulate-q-0.9999", "simulate-q-next-below-1", "jumps-q-0.9999",
            "jumps-q-next-below-1"])
    def test_exits_one_with_one_line(self, argv, tmp_path, capsys):
        code, out, err = run(argv + (["--output-dir", str(tmp_path)] if argv[0] == "simulate"
                                     else []), capsys)
        assert_usage_error(code, err)
        assert "nan" not in out


class TestExtremeInputs:
    """Good input at the ends of double range exits 0 with finite numbers and nothing on stderr."""

    @pytest.mark.parametrize("argv", [
        ["density", "--process", "biane_shifted", "--t1", "1", "--t2", "1e80", "--y1", "1",
         "--grid", "1:2:3"],
        ["density", "--process", "cauchy_marginal", "--t", "1e200", "--grid", "0:1e200:3"],
        ["density", "--process", "cauchy", "--t1", "0", "--t2", "1e-300", "--y1", "0",
         "--grid", "0:1e-300:3"],
        ["density", "--process", "biane_half", "--t1", "0", "--t2", "1e100", "--y1", "0",
         "--grid", "3e199:4e199:3"],
        ["density", "--process", "qbm", "--q", "0.5", "--t1", "1e-300", "--t2", "2e-300",
         "--y1", "0", "--grid", "-1e-150:1e-150:3"],
        ["density", "--process", "qbm", "--q", "0.5", "--t1", "1e300", "--t2", "2e300",
         "--y1", "0", "--grid", "-1e150:1e150:3"],
        ["tangent", "--case", "qbm_boundary", "--q", "0.5", "--s", "1e-300",
         "--ladder", "0.1,0.05"],
        ["tangent", "--case", "qbm_boundary", "--q", "0.5", "--s", "1e300",
         "--ladder", "0.1,0.05"],
        # the transform's square passes the double range; both sides are 0 there
        ["biane", "--s", "0.5", "--t", "1e300", "--x", "1", "--grid", "0.5:1:3"],
    ], ids=["biane-shifted-span-1e80", "cauchy-marginal-t-1e200", "cauchy-span-1e-300",
            "biane-half-span-1e100", "qbm-t-1e-300", "qbm-t-1e300",
            "tangent-qbm-boundary-s-1e-300", "tangent-qbm-boundary-s-1e300", "biane-t-1e300"])
    def test_exits_zero_with_finite_values(self, argv, capsys):
        code, out, err = run(argv, capsys)
        assert code == 0 and err == ""
        if argv[0] in ("density", "biane"):
            values = [float(v) for line in out.strip().split("\n")[1:] for v in line.split(",")]
        else:
            values = [row["l1"] for row in json.loads(out)["result"]["ladder"]]
        assert len(values) > 0 and all(math.isfinite(v) for v in values)
        assert "nan" not in out and "inf" not in out

    @pytest.mark.parametrize("case", [["--case", "qou_interior", "--x", "0.1"],
                                      ["--case", "qbm_boundary", "--s", "1"]])
    def test_tangent_ladder_beyond_double_range(self, case, capsys):
        # the rescaled targets overflow: the exact density is 0 there, so every
        # rung reads the window's limit mass and the study fails, quietly
        code, out, err = run(["tangent", "--q", "0.5", "--ladder", "1e308,1e307"] + case, capsys)
        assert code == 2 and err == ""
        l1s = [row["l1"] for row in json.loads(out)["result"]["ladder"]]
        assert l1s[0] == l1s[1] and 0.98 < l1s[0] < 1.0

    @pytest.mark.parametrize("argv, bound", [
        (["--T", "1", "--a", "1e100", "--steps", "2"], 0.0),
        (["--S", "1", "--T", "1.0000000000000002", "--a", "1e-300", "--steps", "1"], 1.0),
        (["--T", "1e200", "--a", "1e100", "--steps", "2"], 0.5),
    ], ids=["a-1e100", "a-1e-300", "T-1e200-a-1e100"])
    def test_jumps_bound_where_a_to_the_4_leaves_double_range(self, argv, bound, capsys):
        # (1 - q)(T^2 - S^2)/a^4 at q = 0.5, capped at 1
        code, out, err = run(["jumps", "--q", "0.5", "--paths", "2"] + argv, capsys)
        assert code == 0 and err == ""
        assert json.loads(out)["result"]["bound"] == bound

    def test_qou_on_a_grid_that_repeats_a_time(self, tmp_path, capsys):
        # a q-OU step's lag is (t1 - t0)/steps > 0 however the grid rounds
        code, _, err = run(["simulate", "--process", "qou", "--q", "0.5", "--t0", "1",
                            "--t1", "1.0000000000000002", "--steps", "2",
                            "--output-dir", str(tmp_path)], capsys)
        assert code == 0, err
        assert len((tmp_path / "path_000.csv").read_text().split("\n")) == 5

    @pytest.mark.parametrize("argv", [
        ["simulate", "--process", "qou", "--q", "0.5", "--t1", "1.7976931348623157e308"],
        ["simulate", "--process", "qbm", "--q", "0.5", "--t1", "1.7976931348623157e308"],
        ["jumps", "--q", "0.5", "--T", "1.7976931348623157e308", "--a", "1"],
    ], ids=["simulate-qou", "simulate-qbm", "jumps"])
    def test_grid_to_the_largest_double(self, argv, tmp_path, capsys):
        # the grid's last step overflows inside linspace, which then writes t1 there
        out_dir = ["--output-dir", str(tmp_path)] if argv[0] == "simulate" else []
        code, _, err = run(argv + ["--steps", "3", "--paths", "2"] + out_dir, capsys)
        assert code == 0 and err == (f"wrote 2 path files to {tmp_path}\n" if out_dir else "")
        if out_dir:
            rows = (tmp_path / "path_000.csv").read_text().split("\n")[1:-1]
            assert [float(r.split(",")[0]) for r in rows][-1] == 1.7976931348623157e308

    def test_density_overflow_exits_one(self, capsys):
        # the Cauchy peak 1/(pi dt) is not a double below dt ~ 5.6e-309
        code, out, err = run(["density", "--process", "cauchy", "--t1", "0", "--t2", "1e-310",
                              "--y1", "0", "--grid", "0:1e-300:3"], capsys)
        assert_usage_error(code, err)
        assert out == ""


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

    @staticmethod
    def _files(capsys, out_dir, *argv):
        code, _, err = run(["simulate", "--q", "0.5", "--steps", "6", "--paths", "3",
                            "--seed", "2", *argv, "--output-dir", str(out_dir)], capsys)
        assert code == 0, err
        return {f.name: f.read_bytes() for f in out_dir.iterdir()}

    def test_qbm_origin_is_the_marginal_at_t0_0(self, tmp_path, capsys):
        # at t0 = 0 the q-BM marginal is the point mass at the origin
        argv = ("--process", "qbm", "--t1", "1")
        origin = self._files(capsys, tmp_path / "o", *argv, "--init", "origin")
        assert len(origin) == 3
        assert self._files(capsys, tmp_path / "s", *argv, "--init", "stationary") == origin
        assert self._files(capsys, tmp_path / "d", *argv) == origin

    def test_qbm_default_start_after_t0_is_the_marginal(self, tmp_path, capsys):
        argv = ("--process", "qbm", "--t0", "1", "--t1", "2")
        default = self._files(capsys, tmp_path / "d", *argv)
        assert self._files(capsys, tmp_path / "s", *argv, "--init", "stationary") == default

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


def test_qbm_step_from_a_subnormal_time_writes_no_warning(tmp_path):
    # the q-BM lag from t0 = 5e-324 overflows to inf in Python floats, silently
    proc = run_fresh(["-m", "qtangent.cli", "simulate", "--process", "qbm", "--q", "0.5",
                      "--t0", "5e-324", "--t1", "1", "--steps", "1", "--output-dir", "paths"],
                     tmp_path)
    assert proc.returncode == 0
    assert proc.stderr == "wrote 1 path files to paths\n"


@pytest.mark.parametrize("seed", ["0", "18446744073709551615"])
@pytest.mark.parametrize("command", ["simulate", "jumps", "verify"])
def test_seeds_below_2_to_64_work(command, seed, tmp_path, capsys):
    argv = {"simulate": ["simulate", "--process", "qou", "--q", "0.5", "--t1", "1", "--steps", "2",
                         "--paths", "2", "--output-dir", str(tmp_path)],
            "jumps": ["jumps", "--q", "0.5", "--T", "1", "--a", "1", "--paths", "2", "--steps", "2"],
            "verify": ["verify", "--suite", "freeprob", "--samples", "2"]}[command]
    code, _, err = run(argv + ["--seed", seed], capsys)
    assert code == 0, err


@pytest.mark.parametrize("seed", [str(2**64), str(10**30)])
def test_seeds_from_2_to_64_exit_one_or_keep_working(seed, tmp_path, capsys):
    # every random draw is a Philox word keyed on a 64-bit seed
    for argv in (["simulate", "--process", "qou", "--q", "0.5", "--t1", "1", "--steps", "2",
                  "--output-dir", str(tmp_path)],
                 ["jumps", "--q", "0.5", "--T", "1", "--a", "1", "--paths", "2", "--steps", "2"],
                 ["verify", "--suite", "freeprob", "--samples", "2"]):
        code, out, err = run(argv + ["--seed", seed], capsys)
        assert_usage_error(code, err)
        assert "seed" in err and out == ""


@pytest.mark.parametrize("argv", [
    ["simulate", "--process", "qbm", "--q", "0.5", "--t1", "1", "--steps", "3", "--paths", "4",
     "--output-dir", "paths"],
    ["verify", "--suite", "all", "--samples", "2", "-o", "report.json"],
], ids=["simulate", "verify"])
def test_random_draws_leave_numpy_random_unloaded(argv, tmp_path):
    # every random draw is a keyed Philox word made in numpy arithmetic,
    # with no generator object
    code = ("import sys\n"
            "from qtangent.cli import parse_and_dispatch\n"
            "rc = parse_and_dispatch(sys.argv[1:])\n"
            "print('numpy.random' in sys.modules)\n"
            "sys.exit(rc)\n")
    proc = run_fresh(["-c", code] + argv, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("argv", [
    ["tangent", "--case", "qou_boundary", "--q", "0.5", "--ladder", "0.2,0.1,0.05,0.02,0.01",
     "-o", "t.json"],
    ["verify", "--suite", "tangent", "-o", "t.json"],
])
def test_tangent_leaves_numpy_ma_unloaded(argv, tmp_path):
    # np.unique without its inverse imports numpy.ma, about 14 ms of a study's start
    code = ("import sys\n"
            "from qtangent.cli import parse_and_dispatch\n"
            "rc = parse_and_dispatch(sys.argv[1:])\n"
            "print('numpy.ma' in sys.modules)\n"
            "sys.exit(rc)\n")
    proc = run_fresh(["-c", code] + argv, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_main_sets_one_blas_thread_only_when_unset(monkeypatch, capsys):
    from qtangent.cli import main

    monkeypatch.setattr(sys, "argv", ["qtangent", "--version"])
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")  # a user's value wins
    with pytest.raises(SystemExit):
        main()
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"
    monkeypatch.delenv("OPENBLAS_NUM_THREADS")
    with pytest.raises(SystemExit):
        main()
    assert os.environ["OPENBLAS_NUM_THREADS"] == "1"
    capsys.readouterr()


def test_verify_does_not_depend_on_blas_threads(tmp_path):
    outputs = []
    for threads in ("1", "2"):
        proc = run_fresh(["-m", "qtangent.cli", "verify", "--suite", "kernels", "--samples", "2",
                          "-o", f"out{threads}"], tmp_path, OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        outputs.append((tmp_path / f"out{threads}").read_bytes())
    assert outputs[0] == outputs[1]


def test_cli_import_leaves_simulate_unloaded(tmp_path):
    # only simulate and jumps need the simulator and the samplers
    proc = run_fresh(["-c", "import sys, qtangent.cli; "
                            "print(sorted(m for m in ('qtangent.simulate', 'qtangent.sampling') "
                            "if m in sys.modules))"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_import_leaves_numpy_unloaded(tmp_path):
    # --version, --help and usage errors pay for no numpy import
    proc = run_fresh(["-c", "import sys, qtangent.cli as c; "
                            "code = c.parse_and_dispatch(['density', '--bogus', '1']); "
                            "print(code, 'numpy' in sys.modules)"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "1 False"


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


    def test_threshold_checked_before_simulating(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("simulate_ensemble called")
        monkeypatch.setattr(qtangent.simulate, "simulate_ensemble", fail)
        code, out, err = run(["jumps", "--q", "0.9", "--T", "1", "--a", "0"], capsys)
        assert_usage_error(code, err)
        assert "threshold" in err and out == ""


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
