"""Command-line surface: forward simulation, shot sampling, region export, steering.

Subcommands: simulate, sample, region, solve, infer. Scalar results are
emitted as JSON and the region scan as CSV, all on stdout; human-readable
diagnostics go to stderr. Exit codes: 0 success, 2 config/flag validation,
3 domain precondition, 4 mathematical infeasibility or singularity.

The config file is a flat JSON object of these fields and no others:

    {
      "gamma": 0.7853981633974483,
      "p1": 1.0,                      // p2 derived as +-sqrt(1 - p1^2)
      "p2_negative": false,           // optional sign of the derived p2
      "p2": 0.0,                      // optional; validated if present
      "theta1": 1.5707963267948966,   // theta2 derived as pi/2 - theta1
      "theta2": 0.0,                  // optional; validated if present
      "knob": {"n": 1, "delta": 0.125},
      "shots": 100000,                // optional; at most 2**63 - 1
      "seed": 0                       // optional; non-negative
    }

The knob takes exactly one of two forms: {"n", "delta"} directly, or
{"J", "B1", "B2", "max_den"} (with optional "n", default 1) from which the
mismatch is derived via the best rational approximation.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import NoReturn

import click
import numpy as np

from .characterize import (
    populations_analytic,
    populations_exact,
    sample_histogram,
    species_moments,
)
from .control import ControlError, _region_axis, _region_slabs, infer_parameters, solve_ndelta
from .distortion import ControlKnob, FieldParams, controlled_emission
from .source import SourceSpec
from .statevec import _MAX_SHOTS, _is_integer

EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_INFEASIBLE = 4
# The config fields of the docstring's example, the only ones load_config accepts.
_FIELDS = frozenset("gamma p1 p2_negative p2 theta1 theta2 knob shots seed".split())


class ConfigError(ValueError):
    """Config file fails validation; the message names the violated invariant."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description plus the knob form to echo back."""

    spec: SourceSpec
    knob: ControlKnob
    knob_echo: dict
    shots: int | None
    seed: int


def _require_number(cfg: dict, key: str) -> float:
    if key not in cfg:
        raise ConfigError(f"missing required field '{key}'")
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field '{key}' must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(
            f"field '{key}' is a {value.bit_length()}-bit integer, beyond the float range"
        ) from None


def _resolve_knob(cfg: dict) -> tuple[ControlKnob, dict]:
    knob = cfg.get("knob")
    if not isinstance(knob, dict):
        raise ConfigError("missing required object field 'knob'")
    keys = set(knob)
    field_form = keys - {"n"} == {"J", "B1", "B2", "max_den"}
    if keys != {"n", "delta"} and not field_form:
        raise ConfigError(
            "knob must be exactly {n, delta} or {J, B1, B2, max_den} (optional n), "
            f"got keys {sorted(keys)}"
        )
    n = knob.get("n", 1)
    try:  # ControlKnob owns the checks on n, rational_approx those on max_den
        if not field_form:
            resolved = ControlKnob(n=n, delta=_require_number(knob, "delta"))
            return resolved, {"n": resolved.n, "delta": resolved.delta}
        max_den = knob["max_den"]
        fp = FieldParams(
            J=_require_number(knob, "J"),
            B1=_require_number(knob, "B1"),
            B2=_require_number(knob, "B2"),
        )
        resolved = ControlKnob.from_field_params(fp, max_den, n=n)
        return resolved, {**asdict(fp), "max_den": max_den, "n": n}
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _reject_constant(name: str) -> float:
    raise ValueError(f"{name} is not a JSON number")


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a config file; raises ConfigError on any violation."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        cfg = json.loads(text, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # also NaN, an over-long integer, deep nesting
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")

    gamma = _require_number(cfg, "gamma")
    p1 = _require_number(cfg, "p1")
    negative = cfg.get("p2_negative", False)
    if not isinstance(negative, bool):
        raise ConfigError(f"field 'p2_negative' must be a boolean, got {negative!r}")
    if "p2" in cfg:
        p2 = _require_number(cfg, "p2")
        if "p2_negative" in cfg and negative != (p2 < 0):
            raise ConfigError(f"p2_negative={negative} contradicts explicit p2={p2!r}")
    theta1 = _require_number(cfg, "theta1")
    theta2 = _require_number(cfg, "theta2") if "theta2" in cfg else math.pi / 2 - theta1
    try:
        if "p2" not in cfg:
            # A derived p2 needs |p1| <= 1 strictly; an explicit one only
            # SourceSpec's weight tolerance.
            p2 = SourceSpec.from_p1_theta1(gamma, p1, theta1, p2_negative=negative).p2
        spec = SourceSpec(gamma=gamma, p1=p1, p2=p2, theta1=theta1, theta2=theta2)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    knob, knob_echo = _resolve_knob(cfg)

    shots = cfg.get("shots")
    if shots is not None and not (_is_integer(shots) and 1 <= shots <= _MAX_SHOTS):
        raise ConfigError(f"field 'shots' must be an integer in [1, 2**63 - 1], got {shots!r}")
    seed = cfg.get("seed", 0)
    if not _is_integer(seed) or seed < 0:
        raise ConfigError(f"field 'seed' must be a non-negative integer, got {seed!r}")
    if cfg.keys() - _FIELDS:
        raise ConfigError(f"unknown fields {sorted(cfg.keys() - _FIELDS)}")

    return ExperimentConfig(spec=spec, knob=knob, knob_echo=knob_echo, shots=shots, seed=seed)


def build_report(config: ExperimentConfig, shots: int | None, seed: int) -> dict:
    """Self-contained run report; re-running its config echo reproduces it.

    With ``shots`` the histogram is drawn from ``np.random.default_rng(seed)``.
    """
    spec, knob = config.spec, config.knob
    state, raw_norm = controlled_emission(spec, knob)
    histogram = None
    if shots is not None:
        histogram = sample_histogram(state, shots, np.random.default_rng(seed))
    analytic = populations_analytic(spec, knob)
    return {
        "config": {**asdict(spec), "knob": config.knob_echo, "shots": shots, "seed": seed},
        "populations_raw": asdict(analytic.raw),
        "populations_normalized": asdict(analytic.normalized),
        "populations_exact": asdict(populations_exact(state).normalized),
        "moments": asdict(species_moments(spec)),
        "raw_norm": raw_norm,
        "histogram": histogram,
        "seed": seed,
    }


def _emit_json(payload: dict) -> None:
    click.echo(json.dumps(payload, indent=2, allow_nan=False))


def _fail(message: str, code: int) -> NoReturn:
    click.echo(message, err=True)
    sys.exit(code)


def _report(path: str, seed: int | None, sampling: bool, shots: int | None = None) -> None:
    """Print the report of simulate (no shots) or sample: flag errors exit 2, library errors 3."""
    try:
        config = load_config(path)
    except ConfigError as exc:
        _fail(f"config error: {exc}", EXIT_CONFIG)
    if sampling:
        shots = shots if shots is not None else config.shots
        if shots is None:
            _fail("config error: sampling needs --shots or a 'shots' config field", EXIT_CONFIG)
        if shots > _MAX_SHOTS:
            _fail(f"shots must be at most 2**63 - 1, got {shots}", EXIT_CONFIG)
    if seed is None:
        seed = config.seed
    elif seed < 0:
        _fail(f"--seed must be a non-negative integer, got {seed}", EXIT_CONFIG)
    _emit_json(_control(build_report, config, shots, seed))


def _control(solve, *args):
    """Run a library call: ControlError exits 4, any other ValueError 3."""
    try:
        return solve(*args)
    except ControlError as exc:
        _emit_json({"error": type(exc).__name__, "detail": str(exc)})
        sys.exit(EXIT_INFEASIBLE)
    except ValueError as exc:
        _fail(f"precondition failed: {exc}", EXIT_PRECONDITION)


@click.group()
def main() -> None:
    """Entangled-pair source simulator: populations, sampling, steering."""


@main.command()
@click.argument("config_path", type=click.Path())
@click.option("--seed", type=int, default=None, help="Override the config seed (default 0).")
def simulate(config_path: str, seed: int | None) -> None:
    """Forward-simulate the controlled emission and print the population report."""
    _report(config_path, seed, sampling=False)


@main.command()
@click.argument("config_path", type=click.Path())
@click.option("--shots", type=int, default=None, help="Number of measurement shots.")
@click.option("--seed", type=int, default=None, help="Override the config seed (default 0).")
def sample(config_path: str, shots: int | None, seed: int | None) -> None:
    """Sample repeated characterization measurements and report the histogram."""
    _report(config_path, seed, sampling=True, shots=shots)


@main.command()
@click.option("--gamma", type=float, required=True, help="Mixing angle in (0, pi/2].")
@click.option("--resolution", type=int, default=101, show_default=True, help="Grid points per axis.")
def region(gamma: float, resolution: int) -> None:
    """Scan steering feasibility over the (f00, f11) grid and print CSV."""
    try:
        axis = _region_axis(gamma, resolution)
    except ValueError as exc:
        _fail(str(exc), EXIT_CONFIG)
    # One write per slab of rows: per-line echo calls cost more than the scan,
    # and one write for the whole CSV would hold all of it in memory.
    stdout = click.get_text_stream("stdout")
    stdout.write("f00,f11,feasible,s_squared,ndelta\n")
    labels = [f"{value!r}," for value in axis.tolist()]
    infeasible_cells = [f"{label}0,,\n" for label in labels]
    for top, ok, s_squared, ndelta in _region_slabs(gamma, axis):
        heads = labels[top : top + len(ok)]
        cells = infeasible_cells * len(heads)
        flat = np.flatnonzero(ok)
        solved = zip(
            flat.tolist(),
            (flat % resolution).tolist(),
            s_squared.tolist(),
            ndelta.tolist(),
        )
        for k, j, s, nd in solved:
            cells[k] = f"{labels[j]}1,{s!r},{nd!r}\n"
        stdout.write(
            "".join(
                head + head.join(cells[i * resolution : (i + 1) * resolution])
                for i, head in enumerate(heads)
            )
        )
    stdout.flush()


@main.command()
@click.option("--gamma", type=float, required=True, help="Mixing angle in (0, pi/2].")
@click.option("--f00", type=float, required=True, help="Target population f00.")
@click.option("--f11", type=float, required=True, help="Target population f11.")
def solve(gamma: float, f00: float, f11: float) -> None:
    """Solve for the control value steering the populations to the target."""
    solution = asdict(_control(solve_ndelta, gamma, f00, f11))
    # The SteeringSolution fields in order, ndelta_principal printed as "ndelta".
    _emit_json({key.removesuffix("_principal"): value for key, value in solution.items()})


@main.command()
@click.option("--f00", type=float, required=True, help="Measured frequency f00.")
@click.option("--f01", type=float, required=True, help="Measured frequency f01.")
@click.option("--f11", type=float, required=True, help="Measured frequency f11.")
@click.option("--ndelta", type=float, required=True, help="Known control value n*delta.")
def infer(f00: float, f01: float, f11: float, ndelta: float) -> None:
    """Infer source parameters from measured frequencies at a known control value."""
    _emit_json(asdict(_control(infer_parameters, f00, f01, f11, ndelta)))


if __name__ == "__main__":
    main()
