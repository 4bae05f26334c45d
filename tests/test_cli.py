"""Command-line surface: exit codes, JSON/CSV schemas, determinism."""

from __future__ import annotations

import hashlib
import json
import math

import pytest
from click.testing import CliRunner

from bellsource import cli
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

    def test_degenerate_emission_reports_a_failed_precondition(self, runner, tmp_path):
        path = worked_config(tmp_path, gamma=math.pi / 2, p1=1 / math.sqrt(2),
                             p2=-1 / math.sqrt(2), theta1=math.pi / 4)
        result = runner.invoke(main, ["simulate", path])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.startswith("precondition failed: ")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize(
        "payload, message",
        [({"gamma": 0.3, "p1": 1.0, "theta1": 0.2}, "missing required object field 'knob'"),
         ({"gamma": 0.3, "p1": 1.0, "theta1": 0.2, "knob": [1, 0.1]},
          "missing required object field 'knob'"),
         ([0.3, 1.0, 0.2], "config must be a JSON object"),
         # A misspelt field would otherwise be ignored: here p2 would be +0.8, not -0.8.
         ({"gamma": 0.3, "p1": 0.6, "p2_negatve": True, "theta1": 0.2,
           "knob": {"n": 1, "delta": 0.1}, "shot": 5}, "unknown fields ['p2_negatve', 'shot']")],
    )
    def test_config_of_the_wrong_shape_exit_2(self, runner, tmp_path, payload, message):
        result = runner.invoke(main, ["simulate", write_config(tmp_path, payload)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"config error: {message}\n"

    def test_all_nine_fields_at_once(self, tmp_path):
        # Every declared field in one consistent config: a misspelt name in
        # cli._FIELDS would refuse its field here as unknown.
        payload = {"gamma": 0.5, "p1": 0.6, "p2": -0.8, "p2_negative": True, "theta1": 0.3,
                   "theta2": math.pi / 2 - 0.3, "knob": {"n": 1, "delta": 0.1},
                   "shots": 10, "seed": 5}
        assert payload.keys() == cli._FIELDS
        config = cli.load_config(write_config(tmp_path, payload))
        assert (config.spec.p2, config.spec.theta2) == (-0.8, math.pi / 2 - 0.3)
        assert (config.shots, config.seed) == (10, 5)

    def test_unreadable_config_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", str(tmp_path / "absent.json")])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("config error: cannot read config: ")
        assert result.stderr.count("\n") == 1

    @pytest.mark.parametrize("field", ["p1", "theta1", "gamma"])
    def test_nan_parameter_exit_2(self, runner, tmp_path, field):
        result = runner.invoke(main, ["simulate", worked_config(tmp_path, **{field: math.nan})])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("config error: ")

    def test_nan_delta_exit_2(self, runner, tmp_path):
        path = worked_config(tmp_path, knob={"n": 1, "delta": math.nan})
        result = runner.invoke(main, ["simulate", path])
        assert result.exit_code == 2
        assert result.stderr.startswith("config error: ")

    def test_knob_n_beyond_float_range_exit_2(self, runner, tmp_path):
        path = worked_config(tmp_path, knob={"n": 10**400, "delta": 0.1})
        result = runner.invoke(main, ["simulate", path])
        assert result.exit_code == 2
        assert result.stderr.startswith("config error: n must")

    @pytest.mark.parametrize(
        "knob",
        [
            {"n": 3.0, "delta": 0.1},
            {"J": 1.0, "B1": 0.9, "B2": 0.1, "max_den": 9, "n": 3.0},
            {"n": "3", "delta": 0.1},
        ],
    )
    def test_knob_n_not_an_integer_exit_2(self, runner, tmp_path, knob):
        result = runner.invoke(main, ["simulate", worked_config(tmp_path, knob=knob)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"config error: n must be a non-negative integer, got {knob['n']!r}\n"
        )

    def test_infinite_field_knob_exit_2(self, runner, tmp_path):
        # JSON reads 1e309 as inf.
        path = tmp_path / "config.json"
        path.write_text(
            '{"gamma": 0.7853981633974483, "p1": 1.0, "theta1": 1.5707963267948966,'
            ' "knob": {"J": 1e309, "B1": 0.0, "B2": 0.0, "max_den": 9}}'
        )
        result = runner.invoke(main, ["simulate", str(path)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            "config error: J, B1 and B2 must be finite, got J=inf, B1=0.0, B2=0.0\n"
        )

    def test_weight_square_overflow_exit_2(self, runner, tmp_path):
        path = worked_config(tmp_path, gamma=0.5, p1=1e200, p2=0.0, theta1=0.0,
                             knob={"n": 1, "delta": 0.1})
        result = runner.invoke(main, ["simulate", path])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "config error: p1^2 + p2^2 = 1 violated: got inf\n"

    def test_field_difference_overflow_exit_2(self, runner, tmp_path):
        # n * delta would be about 1/4, but j read 0.0 and the run printed delta = 0.
        knob = {"J": 1e300, "B1": 1e308, "B2": -1e308, "max_den": 10, "n": 5 * 10**7}
        result = runner.invoke(main, ["simulate", worked_config(tmp_path, knob=knob)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            "config error: B1 - B2 must be finite, got inf for B1=1e+308, B2=-1e+308\n"
        )

    @pytest.mark.parametrize("max_den", [2.5, True, 0, "7", None])
    def test_max_den_not_a_positive_integer_exit_2(self, runner, tmp_path, max_den):
        knob = {"J": 1.0, "B1": 0.5, "B2": 0.1, "max_den": max_den}
        result = runner.invoke(main, ["simulate", worked_config(tmp_path, knob=knob)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"config error: max_den must be a positive integer, got {max_den!r}\n"
        )

    def test_integer_beyond_float_range_exit_2(self, runner, tmp_path):
        path = worked_config(tmp_path, gamma=10**400)
        result = runner.invoke(main, ["simulate", path])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            "config error: field 'gamma' is a 1329-bit integer, beyond the float range\n"
        )

    def test_integer_past_digit_limit_exit_2(self, runner, tmp_path):
        # Python refuses to parse an integer of more than 4300 digits.
        path = tmp_path / "config.json"
        path.write_text(
            '{"gamma": 1' + "0" * 5000 + ', "p1": 1.0, "theta1": 1.5707963267948966,'
            ' "knob": {"n": 1, "delta": 0.125}}'
        )
        result = runner.invoke(main, ["simulate", str(path)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("config error: config is not valid JSON: ")
        assert result.stderr.count("\n") == 1

    def test_deeply_nested_json_exit_2(self, runner, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[" * 100000 + "]" * 100000)
        result = runner.invoke(main, ["simulate", str(path)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("config error: config is not valid JSON: ")
        assert result.stderr.count("\n") == 1

    def test_config_not_utf8_exit_2(self, runner, tmp_path):
        path = tmp_path / "config.json"
        path.write_bytes(b"\xff\xfe" + json.dumps({"gamma": 0.5}).encode("utf-16-le"))
        result = runner.invoke(main, ["simulate", str(path)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("config error: config is not UTF-8 text: ")
        assert result.stderr.count("\n") == 1

    def test_knob_angle_overflow_exit_2(self, runner, tmp_path):
        # n * delta = 5e307 is finite, but 2 pi n delta is not.
        path = worked_config(tmp_path, knob={"n": 10**308, "delta": 0.5})
        result = runner.invoke(main, ["simulate", path])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "config error: 2 pi n delta overflows: n * delta = 5e+307\n"

    @pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
    def test_non_standard_json_constant_exit_2(self, runner, tmp_path, constant):
        path = tmp_path / "config.json"
        path.write_text(
            f'{{"gamma": 0.7853981633974483, "p1": 1.0, "theta1": 1.5707963267948966,'
            f' "knob": {{"J": {constant}, "B1": 0.0, "B2": 0.0, "max_den": 9}}}}'
        )
        result = runner.invoke(main, ["simulate", str(path)])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"config error: config is not valid JSON: {constant} is not a JSON number\n"
        )

    def test_non_finite_report_value_is_never_printed(self, runner, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "build_report", lambda *args, **kwargs: {"raw_norm": math.nan})
        result = runner.invoke(main, ["simulate", worked_config(tmp_path)])
        assert isinstance(result.exception, ValueError)
        assert result.stdout == ""

    def test_negative_seed_flag_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["simulate", worked_config(tmp_path), "--seed", "-1"])
        assert result.exit_code == 2
        assert result.stderr == "--seed must be a non-negative integer, got -1\n"

    def test_config_echo_round_trip(self, runner, tmp_path):
        first = runner.invoke(main, ["simulate", worked_config(tmp_path)])
        report = json.loads(first.output)
        echo_path = write_config(tmp_path, report["config"], name="echo.json")
        second = runner.invoke(main, ["simulate", echo_path])
        assert second.exit_code == 0
        rerun = json.loads(second.output)
        for key in ("populations_raw", "populations_normalized", "populations_exact"):
            assert rerun[key] == report[key]


def _sha256(result):
    return hashlib.sha256(result.stdout_bytes).hexdigest()


class TestConfigEdges:
    """Where an explicit p2 or theta2 changes which check applies.

    The stdout digests were frozen from the loader as it was before it
    delegated the derived p2 to SourceSpec.from_p1_theta1.
    """

    def test_p1_past_one_within_tolerance_needs_explicit_p2(self, runner, tmp_path):
        # |p1| = 1 + 1e-10 passes SourceSpec's 1e-9 weight check when p2 is
        # given, but a derived p2 = sqrt(1 - p1^2) needs |p1| <= 1 strictly.
        explicit = runner.invoke(
            main, ["simulate", worked_config(tmp_path, p1=1.0000000001, p2=0.0)]
        )
        assert explicit.exit_code == 0
        assert _sha256(explicit) == (
            "127daa76abec155eac06374fc7cc5843656dabf9411300308eb86a2480654096"
        )
        derived = runner.invoke(main, ["simulate", worked_config(tmp_path, p1=1.0000000001)])
        assert derived.exit_code == 2
        assert derived.stdout == ""
        assert derived.stderr == (
            "config error: p1^2 + p2^2 = 1 violated: |p1| = 1.0000000001 is not at most 1\n"
        )

    def test_p2_negative_contradicting_explicit_p2_exit_2(self, runner, tmp_path):
        path = worked_config(tmp_path, p1=0.6, p2=0.8, p2_negative=True)
        result = runner.invoke(main, ["simulate", path])
        assert result.exit_code == 2
        assert result.stderr == "config error: p2_negative=True contradicts explicit p2=0.8\n"

    def test_p2_negative_agreeing_with_explicit_p2_equals_derived(self, runner, tmp_path):
        digest = "4cc7b68bd40aa21a6165322f4856a5db4648a1efcdf8efd3da9f70eb3e48125f"
        for overrides in ({"p2": -0.8, "p2_negative": True}, {"p2_negative": True}):
            result = runner.invoke(main, ["simulate", worked_config(tmp_path, p1=0.6, **overrides)])
            assert result.exit_code == 0
            assert _sha256(result) == digest

    @pytest.mark.parametrize(
        "overrides, digest",
        [
            # theta2 is 5e-10 off pi/2 - theta1, inside the 1e-9 angle tolerance.
            (
                {"p1": 0.6},
                "9354208a8b59aa7ba1c38f408a7277bfc5d9e33936ef223dd30ee279e80cd06e",
            ),
            (
                {"p1": 0.6, "p2": 0.8},
                "9354208a8b59aa7ba1c38f408a7277bfc5d9e33936ef223dd30ee279e80cd06e",
            ),
        ],
    )
    def test_explicit_theta2_is_honoured(self, runner, tmp_path, overrides, digest):
        theta2 = math.pi / 2 - 0.3 + 5e-10
        path = worked_config(tmp_path, theta1=0.3, theta2=theta2, **overrides)
        result = runner.invoke(main, ["simulate", path])
        assert result.exit_code == 0
        assert json.loads(result.output)["config"]["theta2"] == theta2
        assert _sha256(result) == digest

    @pytest.mark.parametrize(
        "theta2, stderr",
        [
            (0.5, "config error: theta1 + theta2 = pi/2 violated: got 0.8\n"),
            ("x", "config error: field 'theta2' must be a number, got 'x'\n"),
        ],
    )
    @pytest.mark.parametrize("explicit_p2", [False, True])
    def test_bad_theta2_exit_2(self, runner, tmp_path, theta2, stderr, explicit_p2):
        overrides = {"p2": 0.0} if explicit_p2 else {}
        path = worked_config(tmp_path, theta1=0.3, theta2=theta2, **overrides)
        result = runner.invoke(main, ["simulate", path])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == stderr

    @pytest.mark.parametrize("flag", [1, 0, "true", None])
    def test_p2_negative_not_bool_exit_2(self, runner, tmp_path, flag):
        result = runner.invoke(main, ["simulate", worked_config(tmp_path, p2_negative=flag)])
        assert result.exit_code == 2
        assert result.stderr == (
            f"config error: field 'p2_negative' must be a boolean, got {flag!r}\n"
        )


# Configs spanning both knob forms, both signs of p2, gamma near 0, at pi/4
# and at pi/2, and n*delta next to the 1/8 singularity.
DIGEST_CONFIGS = {
    "worked": {"gamma": math.pi / 4, "p1": 1.0, "theta1": math.pi / 2,
               "knob": {"n": 1, "delta": 0.125}},
    "field": {"gamma": 0.7, "p1": 0.6, "theta1": 0.4,
              "knob": {"J": 0.7, "B1": 0.3, "B2": -0.2, "max_den": 16, "n": 3}},
    "p2_negative": {"gamma": math.pi / 4, "p1": 0.8, "p2_negative": True, "theta1": 1.1,
                    "knob": {"n": 5, "delta": -0.031}},
    "gamma_small": {"gamma": 0.05, "p1": -0.35, "theta1": 2.6,
                    "knob": {"n": 7, "delta": 0.0123}},
    "gamma_half_pi": {"gamma": math.pi / 2, "p1": 0.3, "theta1": -0.7,
                      "knob": {"n": 2, "delta": 0.2}},
    "near_eighth": {"gamma": 1.0, "p1": 0.5, "theta1": 0.25,
                    "knob": {"n": 4, "delta": 0.03125 + 1e-12}},
    "field_half_pi": {"gamma": math.pi / 2, "p1": -0.9, "p2_negative": True, "theta1": -2.0,
                      "knob": {"J": -1.3, "B1": 0.05, "B2": 1.9, "max_den": 40}},
    "field_small": {"gamma": 0.05, "p1": 0.1, "theta1": 0.9,
                    "knob": {"J": 0.4, "B1": -0.8, "B2": 0.8, "max_den": 3, "n": 11}},
}

# SHA-256 of stdout for each config and seed, frozen from the code before the
# state-vector fast paths: (simulate, sample --shots 100000). The field,
# field_half_pi, field_small, gamma_half_pi and worked entries were re-pinned
# when the emission moved to its closed form.
STDOUT_DIGESTS = {
    ('field', 0): (
        '2cba2da44733037f364df29bbd74d1215703156dec73d769d412e8fbdf49a311',
        '096719b75cd3ba0e410681a9a8dbea515efc2240d91200645fa40831b407be8d',
    ),
    ('field', 7): (
        '4455a38f7804bb458b60a4c73162561cbc7b5e33a3446108864e8dd4dbd56591',
        '02f962671893ff9ca0a882e14cc2677988e1d74578a25e47e22358794ab2c5d2',
    ),
    ('field_half_pi', 0): (
        '0da2b4d0b24ee6d241faab3a7ab05e25dfd5b0272dc84219e5ee7cd6fbf2d481',
        '6f6456d3657a4eebfe590a508b357de9fc4e121de92c3d595fba88334433f303',
    ),
    ('field_half_pi', 7): (
        '43adc6575557ab01f5f970f9484dc72b9921e815bcbe2e6237cb4b45df0850f2',
        '9da32825e236d57953fe1f172406cdf0156109ff2074d2529d6230b6304b2d51',
    ),
    ('field_small', 0): (
        '40d415ecd1d1a900963ab27d4d70a73e184df06b53da881d97bdf9585411df51',
        '4a6e3be72c700a92ebfe71340c8df7aee0d9452869a7a5954403d9ae1cd0799f',
    ),
    ('field_small', 7): (
        '74ba8148353270a2905bb895d72ef937bd6d3ed812f04c22c05620bb174e40a2',
        'e6956008e920ec9b1bd6d79c8d3964386bfc8013c303dd297c5527d30bbcc595',
    ),
    ('gamma_half_pi', 0): (
        '83a4be24840dc90d8dad4d900b87f6c4c4809c4a94fcd3d65ef1eef68d204ee4',
        '934e8778f650bbd194eb918af7b7c750c797ca74dec571fd7dd9a719f16aaf9a',
    ),
    ('gamma_half_pi', 7): (
        'e4a8ab473dfa9dde8780fd345ff6c40a2ff5996dc2fae1b4e78a9099a5306f65',
        '6b646d5037a1824cc814b8a537130b85ab69265dd1a7fd4c3d0bc71d844344d4',
    ),
    ('gamma_small', 0): (
        'df6930ec323b3fd6fe3ccff091a5d240f439fb55c8cd691e19bcbf7087d924bf',
        'cc53e7f305c1650e29b0b37aeefbba9b3edd5f0cafa188974981764c4de3232a',
    ),
    ('gamma_small', 7): (
        'd321d639af4c8582b570113a3ffcd52ead65d78863387b4c11557e3d3b1a97c8',
        '62a641118213861a5119ca6a4b95daa4fba0ecca38003817784da1e87928e4fb',
    ),
    ('near_eighth', 0): (
        '4213b3605d1d13b3ce46c8b3bd2faa77b5691683c8c620e807ed2dff13d09afd',
        '3a046918205a05cf3f1cedff927234f7bc58b45591f9d59b425e73c7e75e7c53',
    ),
    ('near_eighth', 7): (
        '7d36b3097426912b4d6b79ce5784e890aa06423cefbb1e475ffcd25770d3fb5b',
        'e57f1ed3504f4bbc3a73f45d1925d0d2d79a322d183b3d1951e81f7990c45bd1',
    ),
    ('p2_negative', 0): (
        'f142c88882a48435aea0c9001b880e4ff49eef8bf3038ae47746b5e4eb58afa5',
        'a5d280c818d53063bf997788426f585cf4651de96db6a46de1dc4dc17bc7c654',
    ),
    ('p2_negative', 7): (
        'f9fdc676380390c80017e97c2cede2e620e4baf73a739071858dd65e48ca26b7',
        'bd1a744d851ee054fcbe7bbd8193dda4d61c888d4280d0ab23a85116ec993303',
    ),
    ('worked', 0): (
        '0d9a46d6c6715cef07d1f79f7771d9b9192d1f76f19ebd007d7381595a56253a',
        '431ee5f9fcb8a4f445db255e4bc382c9942d9ab288b56ed82b60896e100b6080',
    ),
    ('worked', 7): (
        '46f1cda15c2ecd00162b103179842cc39b2cfbd0687a4a6e40eef3185731b5fc',
        '590a32284bd327cc93cfeb8ee2f2f2c5acd8cab833798cffee76daf682f2a68c',
    ),
}


# SHA-256 of stdout and the exit code for solve and infer flag sets, frozen
# before the report and readout paths were reworked: feasible and infeasible
# steering targets, and regular and singular inference points.
CONTROL_STDOUT_DIGESTS = {
    ("solve", "--gamma", "0.7853981633974483", "--f00", "0.3", "--f11", "0.3"):
        (0, "f4675adbfd728d56157ce00da87de9393709a94d2cb74145bc428ba1d85d77e8"),
    ("solve", "--gamma", "1.5707963267948966", "--f00", "0.3", "--f11", "0.45"):
        (0, "af3d20c1a616d8120e0afaaa5b0bf05ed68aefb573c4ee69289fa0fce9b779cd"),
    ("solve", "--gamma", "0.05", "--f00", "0.99", "--f11", "0.0"):
        (4, "8d3c317cd6f4bc3d797cf64a4c0cafde5a2d0811e61ec630d8eab3c8bcb73686"),
    ("solve", "--gamma", "1.2", "--f00", "0.2", "--f11", "0.6"):
        (0, "4b1f65463c98c8adb7b139434ac5ecb6a3f6e66399f35fb942e941fbfde54abc"),
    ("solve", "--gamma", "0.7853981633974483", "--f00", "0.9", "--f11", "0.9"):
        (4, "4468e371d79506f41eb7681bcd30275e49975969bc247a06e8919048e2f07eb4"),
    ("infer", "--f00", "0.4", "--f01", "0.4", "--f11", "0.2", "--ndelta", "0.08333333333333333"):
        (0, "233c27652016bee127fd7216fc3074f05874412c691add57d659ef14d8269aee"),
    ("infer", "--f00", "0.55", "--f01", "0.15", "--f11", "0.3", "--ndelta", "0.3"):
        (0, "aabfa254355229b1d42b09763daf8f397c9b7a0acf91779c40b34620bc191fd2"),
    ("infer", "--f00", "0.7", "--f01", "0.1", "--f11", "0.2", "--ndelta", "-2.04"):
        (0, "36325c922485e2075daa074b1b8cfb2813992e720709bf1c35200b2b47312570"),
    ("infer", "--f00", "0.4", "--f01", "0.4", "--f11", "0.2", "--ndelta", "0.125"):
        (4, "168e12b1c6a15350bb0324c09ac43b725d64d9abf7c4baee43e75fc20be02a20"),
}


class TestStdoutDigests:
    @pytest.mark.parametrize("key", sorted(STDOUT_DIGESTS))
    def test_simulate_and_sample_bytes_unchanged(self, runner, tmp_path, key):
        name, seed = key
        path = write_config(tmp_path, DIGEST_CONFIGS[name])
        simulated = runner.invoke(main, ["simulate", path, "--seed", str(seed)])
        sampled = runner.invoke(main, ["sample", path, "--shots", "100000", "--seed", str(seed)])
        assert simulated.exit_code == 0 and sampled.exit_code == 0
        digests = tuple(
            hashlib.sha256(r.stdout_bytes).hexdigest() for r in (simulated, sampled)
        )
        assert digests == STDOUT_DIGESTS[key]

    @pytest.mark.parametrize("args", list(CONTROL_STDOUT_DIGESTS))
    def test_solve_and_infer_bytes_unchanged(self, runner, args):
        result = runner.invoke(main, list(args))
        digest = hashlib.sha256(result.stdout_bytes).hexdigest()
        assert (result.exit_code, digest) == CONTROL_STDOUT_DIGESTS[args]


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

    def test_zero_shots_fail_the_library_count_rule(self, runner, tmp_path):
        result = runner.invoke(main, ["sample", worked_config(tmp_path), "--shots", "-4"])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == (
            "precondition failed: shots must be an integer in [1, 2**63 - 1], got -4\n"
        )

    def test_seed_flag_is_checked_before_the_shot_count(self, runner, tmp_path):
        # Exited 3 on the shot count; the flags are checked before the library runs.
        result = runner.invoke(
            main, ["sample", worked_config(tmp_path), "--shots", "0", "--seed", "-1"]
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "--seed must be a non-negative integer, got -1\n"

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

    def test_negative_seed_flag_exit_2(self, runner, tmp_path):
        result = runner.invoke(
            main, ["sample", worked_config(tmp_path), "--shots", "1000", "--seed", "-1"]
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "--seed must be a non-negative integer, got -1\n"

    def test_negative_seed_in_config_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["sample", worked_config(tmp_path, seed=-1), "--shots", "10"])
        assert result.exit_code == 2
        assert result.stderr.startswith("config error: field 'seed'")

    def test_shots_beyond_int64_exit_2(self, runner, tmp_path):
        shots = "100000000000000000000"
        result = runner.invoke(main, ["sample", worked_config(tmp_path), "--shots", shots])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == f"shots must be at most 2**63 - 1, got {shots}\n"

    def test_shots_beyond_int64_in_config_exit_2(self, runner, tmp_path):
        result = runner.invoke(main, ["sample", worked_config(tmp_path, shots=2**63)])
        assert result.exit_code == 2
        assert result.stderr.startswith("config error: field 'shots'")

    def test_largest_shot_count_accepted(self, runner, tmp_path):
        shots = 2**63 - 1
        result = runner.invoke(main, ["sample", worked_config(tmp_path), "--shots", str(shots)])
        assert result.exit_code == 0
        assert sum(json.loads(result.output)["histogram"].values()) == shots


# SHA-256 of `region --resolution 101` stdout as the first release printed it
# (perfbench/golden_region_digests.json).
REGION_101_DIGESTS = {
    0.3: "873601116a09bab0e28f5d373be5223bfe221a463991523e6af20a9ddaeff11f",
    math.pi / 4: "2654a59fd2e53bad22fc7a51d7523690687fe507a42d740f795a8fc905e1bef9",
    1.2: "d16b706075a356466060ae4486fc062ae4dd4b1093e02a9c16c64bf478a31041",
    math.pi / 2: "189e36a96550f6979daddb487477aac2e158d43f06d1e551b983fe5a451b2568",
}

# The same digest at two gamma where cos^2 gamma is exactly 0.36 and 0.1: the
# row f00 = cos^2 gamma prints 29 and 81 cells as -0.0, which pins the sign of
# a zero through the clamp. Frozen from the output of commit 169b803.
SIGNED_ZERO_REGION_101_DIGESTS = {
    0.9272952180016123: (
        "d9940119a885916ec4f9eaac87490e7f1c8283f2eb736ee8eb12b1dc97f27e23", 29
    ),
    1.2490457723982544: (
        "3469f202e039a4bd0415e6f040293c9609a9f9ed28857981e8418209c6c54902", 81
    ),
}


class TestRegion:
    @pytest.mark.parametrize("gamma", sorted(REGION_101_DIGESTS))
    def test_stdout_bytes_unchanged(self, runner, gamma):
        result = runner.invoke(main, ["region", "--gamma", repr(gamma), "--resolution", "101"])
        assert result.exit_code == 0
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == REGION_101_DIGESTS[gamma]

    @pytest.mark.parametrize("gamma", sorted(SIGNED_ZERO_REGION_101_DIGESTS))
    def test_signed_zero_stdout_bytes_unchanged(self, runner, gamma):
        digest, negative_zero_cells = SIGNED_ZERO_REGION_101_DIGESTS[gamma]
        result = runner.invoke(main, ["region", "--gamma", repr(gamma), "--resolution", "101"])
        assert result.exit_code == 0
        assert result.output.count(",1,-0.0,-0.0\n") == negative_zero_cells
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == digest

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

    def test_tiny_gamma_overflow_is_silent(self, runner):
        # S^2 = (1 - f00 - f11) / sin^2 gamma overflows to inf in most cells; they
        # are infeasible, and the overflow must not reach stderr as a warning.
        result = runner.invoke(main, ["region", "--gamma", "1e-160", "--resolution", "11"])
        assert result.exit_code == 0
        assert result.stderr == ""
        assert hashlib.sha256(result.stdout_bytes).hexdigest() == (
            "e1b724d16ad2a021cfe83a921e6b5de2813d4ca3d9599287891d668bfd839179"
        )

    def test_bad_resolution_exit_2(self, runner):
        result = runner.invoke(main, ["region", "--gamma", "0.5", "--resolution", "1"])
        assert result.exit_code == 2
        assert result.stderr == "resolution must be >= 2, got 1\n"

    def test_resolution_past_bound_exit_2(self, runner):
        # 4097 is one past the bound; the check runs before any grid array exists.
        result = runner.invoke(main, ["region", "--gamma", "0.5", "--resolution", "4097"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "resolution must be at most 4096, got 4097\n"

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

    def test_negative_frequency_exit_3(self, runner):
        result = runner.invoke(
            main, ["infer", "--f00", "0.1", "--f01", "-0.1", "--f11", "1.0", "--ndelta", "0"]
        )
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == (
            "precondition failed: frequencies must be non-negative, got (0.1, -0.1, 1.0)\n"
        )

    def test_ndelta_overflow_exit_3(self, runner):
        result = runner.invoke(
            main, ["infer", "--f00", "0.5", "--f01", "0.2", "--f11", "0.3", "--ndelta", "1e308"]
        )
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == (
            "precondition failed: ndelta=1e+308 is too large: 4 pi ndelta overflows\n"
        )

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
