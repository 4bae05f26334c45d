"""The benchmark's workloads: seeded inputs, one op per input, and its checks.

Each workload draws a batch of inputs from the seed when it is built. The
harness runs ``op(api, item)`` on each input in turn, timing only that call,
then ``check(item, out)`` outside the timed region; a check returns a
description of the first violation it finds, or None. ``tally(out)`` gives
the exact counts an op produced (rows, bytes, feasible solves), which repeat
for a given seed whether or not the run is traced.

- ``region``: the costliest user path, the CLI's steering scan, on a 51 x 51 grid.
- ``roundtrip``: one forward-then-inverse experiment through the library.
- ``shots``: one characterization shot taken by three independent routes.
"""

from __future__ import annotations

import hashlib
import io
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from bellsource.characterize import outcome_to_label, populations_exact, table_populations
from bellsource.control import ControlError, feasible
from bellsource.distortion import ControlKnob, controlled_emission
from bellsource.source import SourceSpec
from bellsource.statevec import bell_state, fidelity_up_to_phase

HALF_PI = math.pi / 2
EXACT_TOL = 1e-12
ROUNDTRIP_TOL = 1e-9
REGION_HEADER = b"f00,f11,feasible,s_squared,ndelta"
REGION_RESOLUTION = 51
REGION_GAMMAS = 6
REGION_SAMPLE_ROWS = 2000
# Inputs per batch of roundtrip and shots: enough to vary, few enough that each
# repeats hundreds of times in a run and so meets a quiet spell of the host.
BATCH = 32


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(workload.encode())])


def _populations_by_outcome(pops) -> dict[tuple[int, int], float]:
    return {(0, 0): pops.f00, (0, 1): pops.f01, (1, 0): pops.f10, (1, 1): pops.f11}


# ---------------------------------------------------------------- region


class RegionOut(NamedTuple):
    returncode: int
    data: bytes
    digest: str


class _HashingSink(io.RawIOBase):
    """Byte sink that hashes and keeps what the in-process command writes."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.sha = hashlib.sha256()
        self.data = bytearray()

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        self.sha.update(b)
        self.data += b
        return len(b)


class Region:
    """One op: ``bellsource region --resolution 51`` through its click command.

    The command runs in-process with stdout going to a hashing sink, so an
    op is the scan and the CSV output without interpreter start-up, which
    ``setup_s`` measures. The op cost grows with the feasible share of the
    grid, which runs from 1% to 50% over gamma. A batch therefore takes one
    gamma in each sixth of (0, pi/2], all at the same seeded offset within
    their sixth, so every batch spans the whole range and its total cost
    barely depends on the seed.
    """

    name = "region"

    def __init__(self, seed: int) -> None:
        rng = _rng(seed, self.name)
        offset = 1.0 - rng.random()
        self.items = [float((k + offset) * HALF_PI / REGION_GAMMAS)
                      for k in rng.permutation(REGION_GAMMAS)]
        self.check_rng = _rng(seed, "region-check")
        self.digests: dict[float, str] = {}
        # One stream for all ops: click caches a wrapper per stream it sees on
        # sys.stdout and never lets go of it.
        self.sink = _HashingSink()
        self.stream = io.TextIOWrapper(io.BufferedWriter(self.sink), encoding="utf-8",
                                       newline="\n")

    def op(self, api, gamma: float) -> RegionOut:
        self.sink.reset()
        returncode = api.cli_region(gamma, REGION_RESOLUTION, self.stream)
        return RegionOut(returncode, bytes(self.sink.data), self.sink.sha.hexdigest())

    def check(self, gamma: float, out: RegionOut) -> str | None:
        if out.returncode != 0:
            return f"region exited {out.returncode} at gamma={gamma!r}"
        lines = out.data.split(b"\n")
        if lines[0] != REGION_HEADER or lines[-1] != b"":
            return "region header or final newline wrong"
        rows = lines[1:-1]
        res = REGION_RESOLUTION
        if len(rows) != res * res:
            return f"{len(rows)} region rows, expected {res * res}"
        sample = self.check_rng.choice(res * res, size=min(REGION_SAMPLE_ROWS, res * res),
                                       replace=False)
        sin2_g = math.sin(gamma) ** 2
        for index in sample.tolist():
            i, j = divmod(index, res)
            f00, f11 = i / (res - 1), j / (res - 1)
            point = feasible(gamma, f00, f11)
            if point.solution is None:
                text = f"{f00!r},{f11!r},0,,"
            else:
                sol = point.solution
                text = f"{f00!r},{f11!r},1,{sol.s_squared!r},{sol.ndelta_principal!r}"
            if rows[index].decode() != text:
                return f"region row {index} is {rows[index]!r}, expected {text!r}"
            if point.solution is not None:
                ndelta = float(text.rsplit(",", 1)[1])
                s_req = min(max((1.0 - f00 - f11) / sin2_g, 0.0), 1.0)
                back = table_populations(gamma, 1.0 - s_req, s_req, ndelta)
                if abs(back.f00 - f00) > ROUNDTRIP_TOL or abs(back.f11 - f11) > ROUNDTRIP_TOL:
                    return f"region row {index} does not give back its target"
        # The first output that passed the checks above is the reference.
        if self.digests.setdefault(gamma, out.digest) != out.digest:
            return f"stdout digest changed between ops at gamma={gamma!r}"
        return None

    def tally(self, out: RegionOut) -> dict[str, int]:
        return {
            "rows": out.data.count(b"\n") - 1,
            "stdout_bytes": len(out.data),
            "feasible_rows": out.data.count(b",1,"),
        }


# ---------------------------------------------------------------- roundtrip


@dataclass(frozen=True)
class RoundtripInput:
    gamma: float
    p1: float
    p2_negative: bool
    theta1: float
    direct_knob: bool
    n: int
    delta: float
    J: float
    B1: float
    B2: float
    max_den: int
    t: float
    shots: int


class Roundtrip:
    """One op: emit, distort, characterize, sample, then steer and infer.

    Inputs cover the whole domain, so some steering targets are infeasible
    and some inferences are singular or unidentifiable; those typed
    outcomes are results, not failures.
    """

    name = "roundtrip"

    def __init__(self, seed: int) -> None:
        rng = _rng(seed, self.name)
        self.items = [
            RoundtripInput(
                gamma=float((1.0 - rng.random()) * HALF_PI),
                p1=float(rng.uniform(-1.0, 1.0)),
                p2_negative=bool(rng.random() < 0.5),
                theta1=float(rng.uniform(-math.pi, math.pi)),
                direct_knob=k % 2 == 0,
                n=int(rng.integers(0, 21)),
                delta=float(rng.uniform(-0.5, 0.5)),
                J=float(rng.uniform(-2.0, 2.0)),
                B1=float(rng.uniform(-2.0, 2.0)),
                B2=float(rng.uniform(-2.0, 2.0)),
                max_den=int(rng.integers(1, 65)),
                t=float(rng.uniform(0.0, 10.0)),
                shots=int(round(10 ** rng.uniform(3.0, 7.0))),
            )
            for k in range(BATCH)
        ]
        self.rng = _rng(seed, "roundtrip-shots")

    def op(self, api, it: RoundtripInput):
        spec = api.from_p1_theta1(it.gamma, it.p1, it.theta1, it.p2_negative)
        fields = api.FieldParams(it.J, it.B1, it.B2)
        if it.direct_knob:
            knob = api.ControlKnob(it.n, it.delta)
        else:
            knob = api.from_field_params(fields, it.max_den, n=it.n)
        reference, reference_norm = api.emitted_state(spec)
        evolved = api.evolve(reference, fields, it.t)
        state, raw_norm = api.controlled_emission(spec, knob)
        analytic = api.populations_analytic(spec, knob)
        exact = api.populations_exact(state)
        histogram = api.sample_histogram(state, it.shots, self.rng)
        f = analytic.normalized
        try:
            steering = api.solve_ndelta(spec.gamma, f.f00, f.f11)
        except ControlError:
            steering = None
        try:
            estimate = api.infer_parameters(f.f00, f.f01, f.f11, knob.ndelta)
        except ControlError:
            estimate = None
        return (spec, knob, reference, reference_norm, evolved, raw_norm,
                analytic, exact, histogram, steering, estimate)

    def check(self, it: RoundtripInput, out) -> str | None:
        (spec, knob, reference, reference_norm, evolved, raw_norm,
         analytic, exact, histogram, steering, estimate) = out
        f = analytic.normalized
        if analytic.raw.f10 != 0.0:
            return f"analytic f10 = {analytic.raw.f10!r}"
        for a, b in zip(f.as_tuple(), exact.normalized.as_tuple()):
            if abs(a - b) > EXACT_TOL:
                return f"analytic {f.as_tuple()} != Born {exact.normalized.as_tuple()}"
        closed = 1.0 + math.sin(spec.gamma) ** 2 * 2.0 * spec.p1 * spec.p2 * math.sin(
            2.0 * spec.theta1)
        if abs(raw_norm - closed) > EXACT_TOL or abs(reference_norm - closed) > EXACT_TOL:
            return f"raw norms {raw_norm!r}, {reference_norm!r} != closed form {closed!r}"
        at_zero, _ = controlled_emission(spec, ControlKnob(0, 0.0))
        for a, b in zip(populations_exact(reference).raw.as_tuple(),
                        populations_exact(at_zero).raw.as_tuple()):
            if abs(a - b) > EXACT_TOL:
                return "emitted_state populations differ from controlled_emission at ndelta=0"
        if abs(float(np.linalg.norm(evolved.amplitudes)) - 1.0) > EXACT_TOL:
            return "evolve changed the norm"
        if sum(histogram.values()) != it.shots:
            return f"histogram sums to {sum(histogram.values())}, not {it.shots}"
        targets = (f.f00, f.f01, f.f11)
        if steering is not None:
            back = table_populations(spec.gamma, steering.required_C_squared,
                                     steering.required_S_squared, steering.ndelta_principal)
            if max(abs(a - b) for a, b in zip((back.f00, back.f01, back.f11), targets)) > ROUNDTRIP_TOL:
                return "steering solution does not give back the populations"
        if estimate is not None:
            gamma = math.asin(math.sqrt(estimate.sin2_gamma))
            back = table_populations(gamma, estimate.C_squared, estimate.S_squared, knob.ndelta)
            if max(abs(a - b) for a, b in zip((back.f00, back.f01, back.f11), targets)) > ROUNDTRIP_TOL:
                return "inferred parameters do not give back the populations"
        return None

    def tally(self, out) -> dict[str, int]:
        steering, estimate = out[-2], out[-1]
        return {"solves": 1, "feasible_solves": int(steering is not None),
                "inferences": 1, "identified": int(estimate is not None)}


# ---------------------------------------------------------------- shots


class Shots:
    """One op: one characterization shot through each of three routes.

    Route 1 is ``run_characterization_circuit``; route 2 applies the six
    gates of ``circuit_realization`` one at a time with ``apply_unitary`` and
    measures the ancillas with ``measure_qubits``; route 3 is
    ``nonlocal_bell_measurement``. Each route draws from its own generator.
    The measured states are prepared before timing starts.
    """

    name = "shots"

    def __init__(self, seed: int) -> None:
        rng = _rng(seed, self.name)
        self.items = []
        for _ in range(BATCH):
            spec = SourceSpec.from_p1_theta1(
                float((1.0 - rng.random()) * HALF_PI), float(rng.uniform(-1.0, 1.0)),
                float(rng.uniform(-math.pi, math.pi)), bool(rng.random() < 0.5))
            knob = ControlKnob(int(rng.integers(0, 21)), float(rng.uniform(-0.5, 0.5)))
            state, _ = controlled_emission(spec, knob)
            self.items.append((state, _populations_by_outcome(populations_exact(state).raw)))
        self.rngs = [_rng(seed, f"shots-route-{k}") for k in range(3)]

    def op(self, api, item):
        state, _ = item
        circuit_rng, gatewise_rng, direct_rng = self.rngs
        circuit = api.run_characterization_circuit(state, circuit_rng)
        gates, relabel = api.circuit_realization(state)
        psi = api.tensor(state, api.basis_state("00"))
        for gate in gates:
            psi = api.apply_unitary(psi, gate, (1, 2, 3, 4))
        bits, collapsed, prob = api.measure_qubits(psi, (3, 4), gatewise_rng)
        pair = collapsed.amplitudes.reshape(2, 2, 2, 2)[:, :, bits[0], bits[1]]
        direct = api.nonlocal_bell_measurement(state, direct_rng)
        return (
            (circuit.outcome, circuit.post_state, circuit.probability),
            (relabel[bits], api.PureState(pair.reshape(-1)), prob),
            (direct.outcome, direct.post_state, direct.probability),
        )

    def check(self, item, out) -> str | None:
        _, weights = item
        for route, (outcome, post, prob) in zip(("circuit", "gatewise", "direct"), out):
            if fidelity_up_to_phase(post, bell_state(outcome_to_label(outcome))) < 1.0 - EXACT_TOL:
                return f"{route} route post-state is not the Bell state of outcome {outcome}"
            if abs(prob - weights[outcome]) > EXACT_TOL:
                return f"{route} route probability {prob!r} != Born weight {weights[outcome]!r}"
        return None

    def tally(self, out) -> dict[str, int]:
        return {"shots": len(out)}


WORKLOADS = {"region": Region, "roundtrip": Roundtrip, "shots": Shots}
