"""Command-line surface: forward simulation, shot sampling, region export, steering.

Subcommands: simulate, sample, region, solve, infer. Scalar results are
emitted as JSON and the region scan as CSV, all on stdout; human-readable
diagnostics go to stderr. Exit codes: 0 success, 2 config/flag validation,
3 domain precondition, 4 mathematical infeasibility or singularity.

The config file is a flat JSON object:

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
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np

from .characterize import (
    populations_analytic,
    populations_exact,
    sample_histogram,
    species_moments,
)
from .control import ControlError, infer_parameters, region_arrays, solve_ndelta
from .distortion import ControlKnob, FieldParams, controlled_emission
from .source import DegenerateSourceError, SourceSpec

EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_INFEASIBLE = 4
# numpy draws the shot counts as int64.
_MAX_SHOTS = 2**63 - 1
# CSV cells the region command formats per write.
_REGION_BLOCK_CELLS = 8192


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


def _resolve_p2(cfg: dict, p1: float) -> float:
    negative = cfg.get("p2_negative", False)
    if not isinstance(negative, bool):
        raise ConfigError(f"field 'p2_negative' must be a boolean, got {negative!r}")
    if "p2" in cfg:
        p2 = _require_number(cfg, "p2")
        if "p2_negative" in cfg and negative != (p2 < 0):
            raise ConfigError(f"p2_negative={negative} contradicts explicit p2={p2!r}")
        return p2
    if not abs(p1) <= 1.0:
        raise ConfigError(f"p1^2 + p2^2 = 1 violated: |p1| = {abs(p1)!r} is not at most 1")
    magnitude = math.sqrt(max(0.0, 1.0 - p1**2))
    return -magnitude if negative else magnitude


def _resolve_knob(cfg: dict) -> tuple[ControlKnob, dict]:
    knob = cfg.get("knob")
    if not isinstance(knob, dict):
        raise ConfigError("missing required object field 'knob'")
    keys = set(knob)
    if keys == {"n", "delta"}:
        n = knob["n"]
        if isinstance(n, bool) or not isinstance(n, int):
            raise ConfigError(f"knob field 'n' must be an integer, got {n!r}")
        try:
            resolved = ControlKnob(n=n, delta=_require_number(knob, "delta"))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return resolved, {"n": resolved.n, "delta": resolved.delta}
    if keys in ({"J", "B1", "B2", "max_den"}, {"J", "B1", "B2", "max_den", "n"}):
        n = knob.get("n", 1)
        if isinstance(n, bool) or not isinstance(n, int):
            raise ConfigError(f"knob field 'n' must be an integer, got {n!r}")
        max_den = knob["max_den"]
        if isinstance(max_den, bool) or not isinstance(max_den, int) or max_den < 1:
            raise ConfigError(f"knob field 'max_den' must be a positive integer, got {max_den!r}")
        fp = FieldParams(
            J=_require_number(knob, "J"),
            B1=_require_number(knob, "B1"),
            B2=_require_number(knob, "B2"),
        )
        try:
            resolved = ControlKnob.from_field_params(fp, max_den, n=n)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        return resolved, {"J": fp.J, "B1": fp.B1, "B2": fp.B2, "max_den": max_den, "n": n}
    raise ConfigError(
        "knob must be exactly {n, delta} or {J, B1, B2, max_den} (optional n), "
        f"got keys {sorted(keys)}"
    )


def _reject_constant(name: str) -> float:
    raise ConfigError(f"config is not valid JSON: {name} is not a JSON number")


def load_config(path: str | Path) -> ExperimentConfig:
    """Parse and validate a config file; raises ConfigError on any violation."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        cfg = json.loads(text, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8 text: {exc}") from exc
    except ConfigError:
        raise
    except (ValueError, RecursionError) as exc:  # also an over-long integer or deep nesting
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")

    gamma = _require_number(cfg, "gamma")
    p1 = _require_number(cfg, "p1")
    p2 = _resolve_p2(cfg, p1)
    theta1 = _require_number(cfg, "theta1")
    theta2 = _require_number(cfg, "theta2") if "theta2" in cfg else math.pi / 2 - theta1
    try:
        spec = SourceSpec(gamma=gamma, p1=p1, p2=p2, theta1=theta1, theta2=theta2)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    knob, knob_echo = _resolve_knob(cfg)

    shots = cfg.get("shots")
    if shots is not None and (
        isinstance(shots, bool) or not isinstance(shots, int) or not 1 <= shots <= _MAX_SHOTS
    ):
        raise ConfigError(f"field 'shots' must be an integer in [1, 2**63 - 1], got {shots!r}")
    seed = cfg.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
        raise ConfigError(f"field 'seed' must be a non-negative integer, got {seed!r}")

    return ExperimentConfig(spec=spec, knob=knob, knob_echo=knob_echo, shots=shots, seed=seed)


def _config_echo(config: ExperimentConfig, shots: int | None, seed: int) -> dict:
    spec = config.spec
    return {
        "gamma": spec.gamma,
        "p1": spec.p1,
        "p2": spec.p2,
        "theta1": spec.theta1,
        "theta2": spec.theta2,
        "knob": config.knob_echo,
        "shots": shots,
        "seed": seed,
    }


def build_report(
    config: ExperimentConfig, histogram: dict[str, int] | None, shots: int | None, seed: int
) -> dict:
    """Self-contained run report; re-running its config echo reproduces it."""
    spec, knob = config.spec, config.knob
    state, raw_norm = controlled_emission(spec, knob)
    analytic = populations_analytic(spec, knob)
    exact = populations_exact(state)
    moments = species_moments(spec)
    return {
        "config": _config_echo(config, shots, seed),
        "populations_raw": analytic.raw.as_dict(),
        "populations_normalized": analytic.normalized.as_dict(),
        "populations_exact": exact.normalized.as_dict(),
        "moments": {"C": moments.C, "S": moments.S},
        "raw_norm": raw_norm,
        "histogram": histogram,
        "seed": seed,
    }


def _emit_json(payload: dict) -> None:
    click.echo(json.dumps(payload, indent=2, allow_nan=False))


def _fail_config(message: str) -> None:
    click.echo(f"config error: {message}", err=True)
    sys.exit(EXIT_CONFIG)


def _resolve_seed(flag: int | None, config: ExperimentConfig) -> int:
    """The --seed flag if given, else the config's; a negative flag exits 2."""
    if flag is None:
        return config.seed
    if flag < 0:
        click.echo(f"--seed must be a non-negative integer, got {flag}", err=True)
        sys.exit(EXIT_CONFIG)
    return flag


@click.group()
def main() -> None:
    """Entangled-pair source simulator: populations, sampling, steering."""


@main.command()
@click.argument("config_path", type=click.Path())
@click.option("--seed", type=int, default=None, help="Override the config seed (default 0).")
def simulate(config_path: str, seed: int | None) -> None:
    """Forward-simulate the controlled emission and print the population report."""
    try:
        config = load_config(config_path)
    except ConfigError as exc:
        _fail_config(str(exc))
    effective_seed = _resolve_seed(seed, config)
    try:
        report = build_report(config, histogram=None, shots=None, seed=effective_seed)
    except DegenerateSourceError as exc:
        click.echo(f"degenerate emission: {exc}", err=True)
        sys.exit(EXIT_PRECONDITION)
    _emit_json(report)


@main.command()
@click.argument("config_path", type=click.Path())
@click.option("--shots", type=int, default=None, help="Number of measurement shots.")
@click.option("--seed", type=int, default=None, help="Override the config seed (default 0).")
def sample(config_path: str, shots: int | None, seed: int | None) -> None:
    """Sample repeated characterization measurements and report the histogram."""
    try:
        config = load_config(config_path)
    except ConfigError as exc:
        _fail_config(str(exc))
    effective_shots = shots if shots is not None else config.shots
    if effective_shots is None:
        _fail_config("sampling needs --shots or a 'shots' config field")
    if effective_shots < 1:
        click.echo(f"shots must be >= 1, got {effective_shots}", err=True)
        sys.exit(EXIT_PRECONDITION)
    if effective_shots > _MAX_SHOTS:
        click.echo(f"shots must be at most 2**63 - 1, got {effective_shots}", err=True)
        sys.exit(EXIT_CONFIG)
    effective_seed = _resolve_seed(seed, config)
    rng = np.random.default_rng(effective_seed)
    try:
        state, _ = controlled_emission(config.spec, config.knob)
        histogram = sample_histogram(state, effective_shots, rng)
        report = build_report(
            config, histogram=histogram, shots=effective_shots, seed=effective_seed
        )
    except DegenerateSourceError as exc:
        click.echo(f"degenerate emission: {exc}", err=True)
        sys.exit(EXIT_PRECONDITION)
    _emit_json(report)


@main.command()
@click.option("--gamma", type=float, required=True, help="Mixing angle in (0, pi/2].")
@click.option("--resolution", type=int, default=101, show_default=True, help="Grid points per axis.")
def region(gamma: float, resolution: int) -> None:
    """Scan steering feasibility over the (f00, f11) grid and print CSV."""
    try:
        scan = region_arrays(gamma, resolution)
    except ValueError as exc:
        click.echo(str(exc), err=True)
        sys.exit(EXIT_CONFIG)
    # One write per block of rows: per-line echo calls cost more than the scan,
    # and one write for the whole CSV would hold all of it in memory.
    stdout = click.get_text_stream("stdout")
    stdout.write("f00,f11,feasible,s_squared,ndelta\n")
    labels = [f"{value!r}," for value in scan.axis.tolist()]
    infeasible_cells = [f"{label}0,,\n" for label in labels]
    rows_per_block = max(1, _REGION_BLOCK_CELLS // resolution)
    for top in range(0, resolution, rows_per_block):
        block = slice(top, top + rows_per_block)
        heads = labels[block]
        cells = infeasible_cells * len(heads)
        flat = np.flatnonzero(scan.feasible[block])
        solved = zip(
            flat.tolist(),
            (flat % resolution).tolist(),
            scan.s_squared[block].ravel()[flat].tolist(),
            scan.ndelta[block].ravel()[flat].tolist(),
        )
        for k, j, s_squared, ndelta in solved:
            cells[k] = f"{labels[j]}1,{s_squared!r},{ndelta!r}\n"
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
    try:
        solution = solve_ndelta(gamma, f00, f11)
    except ControlError as exc:
        _emit_json({"error": type(exc).__name__, "detail": str(exc)})
        sys.exit(EXIT_INFEASIBLE)
    except ValueError as exc:
        click.echo(f"precondition failed: {exc}", err=True)
        sys.exit(EXIT_PRECONDITION)
    _emit_json(
        {
            "s_squared": solution.s_squared,
            "ndelta": solution.ndelta_principal,
            "required_C_squared": solution.required_C_squared,
            "required_S_squared": solution.required_S_squared,
        }
    )


@main.command()
@click.option("--f00", type=float, required=True, help="Measured frequency f00.")
@click.option("--f01", type=float, required=True, help="Measured frequency f01.")
@click.option("--f11", type=float, required=True, help="Measured frequency f11.")
@click.option("--ndelta", type=float, required=True, help="Known control value n*delta.")
def infer(f00: float, f01: float, f11: float, ndelta: float) -> None:
    """Infer source parameters from measured frequencies at a known control value."""
    try:
        estimate = infer_parameters(f00, f01, f11, ndelta)
    except ControlError as exc:
        _emit_json({"error": type(exc).__name__, "detail": str(exc)})
        sys.exit(EXIT_INFEASIBLE)
    except ValueError as exc:
        click.echo(f"precondition failed: {exc}", err=True)
        sys.exit(EXIT_PRECONDITION)
    _emit_json(
        {
            "sin2_gamma": estimate.sin2_gamma,
            "C_squared": estimate.C_squared,
            "S_squared": estimate.S_squared,
            "residual": estimate.residual,
        }
    )


if __name__ == "__main__":
    main()
