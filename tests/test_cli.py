"""Command-line surface: exit codes, JSON/CSV schemas, determinism."""

from __future__ import annotations

import hashlib
import json
import math

import pytest
from click.testing import CliRunner

from bellsource.cli import main
from oracles import binomial_4sigma

REPORT_KEYS = [
    "config",
    "populations_raw",
    "populations_normalized",
    "populations_exact",
    "moments",
    "raw_norm",
    "histogram",
    "seed",
]


@pytest.fixture
def runner():
    return CliRunner()


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def worked_config(tmp_path, **overrides):
    payload = {
        "gamma": math.pi / 4,
        "p1": 1.0,
        "theta1": math.pi / 2,
        "knob": {"n": 1, "delta": 0.125},
    }
    payload.update(overrides)
    return write_config(tmp_path, payload)


class TestSimulate:
    def test_report_schema(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", worked_config(tmp_path)])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert list(report) == REPORT_KEYS
        assert report["histogram"] is None
        assert list(report["populations_raw"]) == ["f00", "f01", "f10", "f11"]

    def test_worked_populations(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", worked_config(tmp_path)])
        report = json.loads(result.output)
        normalized = report["populations_normalized"]
        assert normalized["f00"] == pytest.approx(0.25, abs=1e-12)
        assert normalized["f01"] == pytest.approx(0.5, abs=1e-12)
        assert normalized["f10"] == 0.0
        assert normalized["f11"] == pytest.approx(0.25, abs=1e-12)
        exact = report["populations_exact"]
        for key in normalized:
            assert exact[key] == pytest.approx(normalized[key], abs=1e-12)

    def test_pure_first_species_oscillation(self, runner, tmp_path):
        path = worked_config(tmp_path, gamma=0.0, knob={"n": 1, "delta": 0.2})
        result = runner.invoke(main, ["simulate", path])
        assert result.exit_code == 0
        normalized = json.loads(result.output)["populations_normalized"]
        x = 2.0 * math.pi * 0.2
        assert normalized["f00"] == pytest.approx(math.cos(x) ** 2, abs=1e-12)
        assert normalized["f01"] == pytest.approx(0.0, abs=1e-15)
        assert normalized["f10"] == 0.0
        assert normalized["f11"] == pytest.approx(math.sin(x) ** 2, abs=1e-12)

    def test_field_form_knob(self, runner, tmp_path):
        # Homogeneous field gives j = 1/2 exactly, so the mismatch vanishes.
        path = worked_config(
            tmp_path, gamma=0.5, theta1=0.3, knob={"J": 1.0, "B1": 0.5, "B2": 0.5, "max_den": 10}
        )
        result = runner.invoke(main, ["simulate", path])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert report["config"]["knob"]["max_den"] == 10
        raw = report["populations_raw"]
        assert raw["f00"] == pytest.approx(math.cos(0.5) ** 2, abs=1e-12)

    def test_invalid_weights_exit_2(self, runner, tmp_path):
        path = worked_config(tmp_path, p1=0.9, p2=0.9)
        result = runner.invoke(main, ["simulate", path])
        assert result.exit_code == 2
        assert "p1^2 + p2^2 = 1" in result.stderr

    def test_invalid_angle_sum_exit_2(self, runner, tmp_path):
        path = worked_config(tmp_path, theta2=0.0, theta1=0.3)
        result = runner.invoke(main, ["simulate", path])
        assert result.exit_code == 2
        assert "theta1 + theta2" in result.stderr

    def test_missing_field_exit_2(self, runner, tmp_path):
        path = write_config(tmp_path, {"gamma": 0.3, "knob": {"n": 1, "delta": 0.1}})
        result = runner.invoke(main, ["simulate", path])
        assert result.exit_code == 2
        assert "p1" in result.stderr

    def test_ambiguous_knob_exit_2(self, runner, tmp_path):
        path = worked_config(tmp_path, knob={"n": 1, "delta": 0.1, "J": 1.0})
        result = runner.invoke(main, ["simulate", path])
        assert result.exit_code == 2
        assert "knob" in result.stderr

    def test_degenerate_emission_exit_3(self, runner, tmp_path):
        path = worked_config(
            tmp_path,
            gamma=math.pi / 2,
            p1=1 / math.sqrt(2),
            p2=-1 / math.sqrt(2),
            theta1=math.pi / 4,
        )
        result = runner.invoke(main, ["simulate", path])
        assert result.exit_code == 3

    def test_config_echo_round_trip(self, runner, tmp_path):
        first = runner.invoke(main, ["simulate", worked_config(tmp_path)])
        report = json.loads(first.output)
        echo_path = write_config(tmp_path, report["config"], name="echo.json")
        second = runner.invoke(main, ["simulate", echo_path])
        assert second.exit_code == 0
        rerun = json.loads(second.output)
        for key in ("populations_raw", "populations_normalized", "populations_exact"):
            assert rerun[key] == report[key]


class TestSample:
    def test_histogram_statistics(self, runner, tmp_path):
        result = runner.invoke(
            main, ["sample", worked_config(tmp_path), "--shots", "20000", "--seed", "5"]
        )
        assert result.exit_code == 0
        report = json.loads(result.output)
        histogram = report["histogram"]
        assert sorted(histogram) == ["00", "01", "10", "11"]
        assert sum(histogram.values()) == 20000
        assert histogram["10"] == 0
        for key, freq in report["populations_exact"].items():
            assert binomial_4sigma(histogram[key.removeprefix("f")], 20000, freq)

    def test_single_shot(self, runner, tmp_path):
        result = runner.invoke(main, ["sample", worked_config(tmp_path), "--shots", "1"])
        histogram = json.loads(result.output)["histogram"]
        assert sum(histogram.values()) == 1

    def test_byte_identical_reports(self, runner, tmp_path):
        args = ["sample", worked_config(tmp_path), "--shots", "5000", "--seed", "123"]
        first = runner.invoke(main, args)
        second = runner.invoke(main, args)
        assert first.output == second.output

    def test_zero_shots_exit_3(self, runner, tmp_path):
        result = runner.invoke(main, ["sample", worked_config(tmp_path), "--shots", "0"])
        assert result.exit_code == 3

    def test_shots_from_config(self, runner, tmp_path):
        path = worked_config(tmp_path, shots=100, seed=9)
        result = runner.invoke(main, ["sample", path])
        assert result.exit_code == 0
        report = json.loads(result.output)
        assert sum(report["histogram"].values()) == 100
        assert report["seed"] == 9

    def test_missing_shots_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["sample", worked_config(tmp_path)])
        assert result.exit_code == 2


# SHA-256 of `region --resolution 101` stdout as the first release printed it
# (perfbench/golden_region_digests.json).
REGION_101_DIGESTS = {
    0.3: "873601116a09bab0e28f5d373be5223bfe221a463991523e6af20a9ddaeff11f",
    math.pi / 4: "2654a59fd2e53bad22fc7a51d7523690687fe507a42d740f795a8fc905e1bef9",
    1.2: "d16b706075a356466060ae4486fc062ae4dd4b1093e02a9c16c64bf478a31041",
    math.pi / 2: "189e36a96550f6979daddb487477aac2e158d43f06d1e551b983fe5a451b2568",
}


class TestRegion:
    @pytest.mark.parametrize("gamma", sorted(REGION_101_DIGESTS))
    def test_stdout_bytes_unchanged(self, runner, gamma):
        result = runner.invoke(main, ["region", "--gamma", repr(gamma), "--resolution", "101"])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == REGION_101_DIGESTS[gamma]

    def test_csv_shape_and_worked_row(self, runner):
        result = runner.invoke(
            main, ["region", "--gamma", str(math.pi / 4), "--resolution", "101"]
        )
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert lines[0] == "f00,f11,feasible,s_squared,ndelta"
        assert len(lines) == 101 * 101 + 1
        feasible_rows = [ln for ln in lines[1:] if ln.split(",")[2] == "1"]
        assert feasible_rows
        worked = [
            ln
            for ln in lines[1:]
            if abs(float(ln.split(",")[0]) - 0.30) < 1e-12
            and abs(float(ln.split(",")[1]) - 0.30) < 1e-12
        ]
        assert len(worked) == 1
        fields = worked[0].split(",")
        assert fields[2] == "1"
        assert float(fields[3]) == pytest.approx(0.5, abs=1e-12)
        assert float(fields[4]) == pytest.approx(0.125, abs=1e-12)

    def test_probability_bound_rows_infeasible(self, runner):
        result = runner.invoke(main, ["region", "--gamma", str(math.pi / 4), "--resolution", "21"])
        for line in result.output.strip().split("\n")[1:]:
            f00, f11, flag, s2, nd = line.split(",")
            if float(f00) + float(f11) > 1.0:
                assert flag == "0" and s2 == "" and nd == ""

    def test_bad_resolution_exit_2(self, runner):
        result = runner.invoke(main, ["region", "--gamma", "0.5", "--resolution", "1"])
        assert result.exit_code == 2
        assert result.stderr == "resolution must be >= 2, got 1\n"

    def test_bad_gamma_exit_2(self, runner):
        result = runner.invoke(main, ["region", "--gamma", "3.0"])
        assert result.exit_code == 2
        assert result.stderr == "gamma must lie in (0, pi/2], got 3.0\n"


class TestSolve:
    def test_worked_point(self, runner):
        result = runner.invoke(
            main, ["solve", "--gamma", str(math.pi / 4), "--f00", "0.3", "--f11", "0.3"]
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["s_squared"] == pytest.approx(0.5, abs=1e-12)
        assert payload["ndelta"] == pytest.approx(0.125, abs=1e-12)
        assert payload["required_C_squared"] == pytest.approx(0.2, abs=1e-12)

    def test_gamma_half_pi_point(self, runner):
        result = runner.invoke(
            main, ["solve", "--gamma", str(math.pi / 2), "--f00", "0.3", "--f11", "0.45"]
        )
        assert json.loads(result.output)["s_squared"] == pytest.approx(0.4, abs=1e-12)

    def test_infeasible_exit_4(self, runner):
        result = runner.invoke(
            main, ["solve", "--gamma", str(math.pi / 4), "--f00", "0.9", "--f11", "0.9"]
        )
        assert result.exit_code == 4
        payload = json.loads(result.output)
        assert payload["error"] == "InfeasibleError"
        assert "f00 + f11" in payload["detail"]

    def test_gamma_precondition_exit_3(self, runner):
        result = runner.invoke(main, ["solve", "--gamma", "0.0", "--f00", "0.3", "--f11", "0.3"])
        assert result.exit_code == 3

    def test_nan_target_exit_3(self, runner):
        result = runner.invoke(main, ["solve", "--gamma", "0.7", "--f00", "nan", "--f11", "0.2"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert "finite" in result.stderr


class TestInfer:
    def test_worked_point(self, runner):
        result = runner.invoke(
            main,
            ["infer", "--f00", "0.4", "--f01", "0.4", "--f11", "0.2", "--ndelta", str(1 / 12)],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["sin2_gamma"] == pytest.approx(0.5, abs=1e-12)
        assert payload["C_squared"] == pytest.approx(0.2, abs=1e-12)
        assert payload["S_squared"] == pytest.approx(0.8, abs=1e-12)

    def test_singular_exit_4(self, runner):
        result = runner.invoke(
            main, ["infer", "--f00", "0.4", "--f01", "0.4", "--f11", "0.2", "--ndelta", "0.125"]
        )
        assert result.exit_code == 4
        assert json.loads(result.output)["error"] == "SingularSystemError"

    def test_sum_precondition_exit_3(self, runner):
        result = runner.invoke(
            main, ["infer", "--f00", "0.5", "--f01", "0.5", "--f11", "0.2", "--ndelta", "0.05"]
        )
        assert result.exit_code == 3

    def test_nan_frequency_exit_3(self, runner):
        result = runner.invoke(
            main, ["infer", "--f00", "nan", "--f01", "0.4", "--f11", "0.2", "--ndelta", "0.05"]
        )
        assert result.exit_code == 3
        assert result.stdout == ""
        assert "finite" in result.stderr

    def test_estimates_from_large_sample(self, runner, tmp_path):
        # gamma = pi/4 single species with C^2 = 0.2 at n delta = 1/12.
        theta1 = math.acos(math.sqrt(0.2))
        path = worked_config(tmp_path, theta1=theta1, knob={"n": 1, "delta": 1 / 12})
        sampled = runner.invoke(main, ["sample", path, "--shots", "1000000", "--seed", "77"])
        histogram = json.loads(sampled.output)["histogram"]
        total = sum(histogram.values())
        result = runner.invoke(
            main,
            [
                "infer",
                "--f00",
                str(histogram["00"] / total),
                "--f01",
                str(histogram["01"] / total),
                "--f11",
                str(histogram["11"] / total),
                "--ndelta",
                str(1 / 12),
            ],
        )
        assert result.exit_code == 0
        payload = json.loads(result.output)
        assert payload["sin2_gamma"] == pytest.approx(0.5, abs=0.01)
        assert payload["C_squared"] == pytest.approx(0.2, abs=0.01)
        assert payload["S_squared"] == pytest.approx(0.8, abs=0.01)
