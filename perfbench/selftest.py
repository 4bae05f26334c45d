"""Tests of the benchmark itself, kept out of the repository's test suite.

    python3 -m pytest perfbench/selftest.py -q

They run each workload at smoke size (a warm-up and one timed batch per
part), show that a tampered output is counted as a failed op, that exact
counts repeat for a seed in traced and untraced runs, and that the region
CSV still matches the digests recorded at the seed commit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from spans import build_api  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}


def smoke(workload: str, trace: bool, seed: int = 7) -> dict:
    return run.run(workload, seed, 0.0, trace)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", ["region", "roundtrip", "shots"])
def test_workload_runs_clean_at_smoke_size(workload, trace):
    out = smoke(workload, trace)
    result = out["result"]
    assert out["report"]["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == (PER_LAYER if trace else END_TO_END)
    assert all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in result["metrics"].values())


def test_command_prints_the_result_as_its_last_line():
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shots", "--seed", "3",
         "--seconds", "0.2", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        name: entry["unit"] for name, entry in result["metrics"].items()}
    for name in ("setup_s", "ops_per_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb", "error_rate"):
        assert any(line.startswith(f"{name} = ") for line in lines), name


def test_without_the_package_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "roundtrip", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _failed_run(workload, monkeypatch, tamper) -> dict:
    """Smoke run in which ``tamper`` rewrites the output of the first op only."""
    cls = workloads.WORKLOADS[workload]
    original = cls.op
    calls = []

    def op(self, api, item):
        out = original(self, api, item)
        calls.append(item)
        return tamper(self, out) if len(calls) == 1 else out

    monkeypatch.setattr(cls, "op", op)
    return smoke(workload, trace=False)


def test_one_flipped_csv_byte_fails_the_op(monkeypatch):
    def flip(region, out):
        # Flip a digit in the first row the check will sample.
        sample = workloads._rng(7, "region-check").choice(
            workloads.REGION_RESOLUTION ** 2, size=workloads.REGION_SAMPLE_ROWS, replace=False)
        lines = out.data.split(b"\n")
        row = bytearray(lines[1 + int(sample[0])])
        row[2] = ord("7") if row[2] != ord("7") else ord("3")
        lines[1 + int(sample[0])] = bytes(row)
        data = b"\n".join(lines)
        return out._replace(data=data, digest=hashlib.sha256(data).hexdigest())

    result = _failed_run("region", monkeypatch, flip)["result"]
    assert result["failed"] == 1 and not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_region_process_with_other_bytes_fails_the_run(monkeypatch):
    monkeypatch.setitem(run.GOLDEN, run.PROBE_KEY, "0" * 64)
    result = smoke("region", trace=False)["result"]
    assert result["failed"] == 1 and not result["correct"]


def test_changed_digest_for_a_repeated_gamma_fails_the_op():
    region = workloads.Region(7)
    api, _ = build_api()
    gamma = region.items[0]
    out = region.op(api, gamma)
    assert region.check(gamma, out) is None
    assert region.check(gamma, out._replace(digest="0" * 64)) is not None


def test_one_population_perturbed_by_1e_6_fails_the_op(monkeypatch):
    def perturb(roundtrip, out):
        analytic = out[6]
        normalized = dataclasses.replace(analytic.normalized, f00=analytic.normalized.f00 + 1e-6)
        return out[:6] + (dataclasses.replace(analytic, normalized=normalized),) + out[7:]

    result = _failed_run("roundtrip", monkeypatch, perturb)["result"]
    assert result["failed"] == 1 and not result["correct"]


@pytest.mark.parametrize("workload", ["region", "roundtrip", "shots"])
def test_counts_repeat_exactly_for_a_seed(workload):
    first, second = smoke(workload, True)["report"], smoke(workload, True)["report"]
    untraced = smoke(workload, False)["report"]
    assert first["span_calls_per_batch"] == second["span_calls_per_batch"]
    assert first["counts_per_batch"] == second["counts_per_batch"] == untraced["counts_per_batch"]
    assert first["traced_counts_per_batch"] == untraced["counts_per_batch"]
    assert first["region_digests"] == second["region_digests"] == untraced["region_digests"]


GOLDEN = json.loads((BENCH / "golden_region_digests.json").read_text())


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_region_csv_matches_the_seed_commit_digest(key):
    resolution, gamma = key.split(":")
    done = subprocess.run(
        [sys.executable, "-m", "bellsource.cli", "region", "--resolution", resolution,
         "--gamma", gamma],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, timeout=170)
    assert done.returncode == 0
    assert hashlib.sha256(done.stdout).hexdigest() == GOLDEN[key]
