"""bellsource benchmark: one seeded, single-client, closed-loop workload per run.

    python3 perfbench/run.py --workload {region,roundtrip,shots} --seed N \
        --seconds S --trace {0,1}

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy. Each run runs whole batches of the
workload's seeded inputs, one op at a time, until ``--seconds`` have
passed, and times fresh ``python -c "import bellsource"`` processes in
rounds spread over that time (``setup_s`` is the median of the rounds'
fastest imports). A ``region`` run also runs the region command once in a
fresh process, for its peak RSS and its bytes. With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it spends half the time untraced and
half traced and reports the per-layer metrics of perfbench/README.md.
Human-readable lines and a ``report`` line with provenance and exact counts
come first; the last line is the result as one JSON object. The exit code
is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
# Rounds of fresh imports for setup_s: before the workload, between its
# equal parts, and after it.
SETUP_ROUNDS = 5
SETUP_PER_ROUND = 4
# The fresh region process whose peak RSS is peak_rss_mb on region: the grid
# with the largest feasible share, so the most result objects.
PROBE_KEY = f"501:{math.pi / 2!r}"
GOLDEN = json.loads((Path(__file__).resolve().parent / "golden_region_digests.json").read_text())
TAIL_PERCENTILES = (99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
# Functions whose median call time is a per-layer metric.
NAMED_SPANS = [m["name"][:-len(".p50_us")] for m in SPEC["per_layer"]
               if m["name"].endswith(".p50_us")]


def measure_setup() -> list[float]:
    """Wall seconds of one round of fresh interpreters that only import bellsource."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_PER_ROUND):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import bellsource"], cwd=ROOT, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def region_process() -> tuple[float, str | None]:
    """Peak RSS in MB of a fresh ``bellsource region`` process at PROBE_KEY,
    and what is wrong with its exit code or stdout, if anything."""
    resolution, gamma = PROBE_KEY.split(":")
    proc = subprocess.Popen(
        [sys.executable, "-m", "bellsource.cli", "region", "--resolution", resolution,
         "--gamma", gamma],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)), stdout=subprocess.PIPE)
    sha = hashlib.sha256()
    with proc.stdout:
        for chunk in iter(lambda: proc.stdout.read(1 << 16), b""):
            sha.update(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    problem = None
    if proc.returncode != 0:
        problem = f"region process at {PROBE_KEY} exited {proc.returncode}"
    elif sha.hexdigest() != GOLDEN[PROBE_KEY]:
        problem = f"region process at {PROBE_KEY} no longer gives the seed-commit bytes"
    return usage.ru_maxrss / 1024, problem


def run_phase(workload, op, api, seconds: float, tracer=None) -> dict:
    """Run whole batches of the workload until ``seconds`` of wall time have passed."""
    latencies: list[int] = []
    failed = 0
    problems: list[str] = []
    tally: Counter = Counter()
    batches = 0
    if tracer is not None:
        op = tracer.wrap("bench.op", op)
    start = time.perf_counter()
    while batches == 0 or time.perf_counter() - start < seconds:
        for item in workload.items:
            if tracer is not None:
                tracer.active = True
            t0 = time.perf_counter_ns()
            try:
                out = op(api, item)
            except Exception as exc:  # an unexpected exception fails this op only
                out, problem = None, f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter_ns()
            if tracer is not None:
                tracer.active = False
            latencies.append(t1 - t0)
            if out is not None:
                problem = workload.check(item, out)
                if batches == 0:
                    tally.update(workload.tally(out))
            if problem is not None:
                failed += 1
                if len(problems) < 5:
                    problems.append(problem)
        batches += 1
        if tracer is not None:
            tracer.end_batch()
    return {"latencies": latencies, "failed": failed, "problems": problems,
            "tally": dict(tally), "batches": batches}


def merge(parts: list[dict]) -> dict:
    """One phase from consecutive parts; counts are the first batch's."""
    return {"latencies": [ns for p in parts for ns in p["latencies"]],
            "failed": sum(p["failed"] for p in parts),
            "problems": [x for p in parts for x in p["problems"]][:5],
            "tally": parts[0]["tally"], "batches": sum(p["batches"] for p in parts)}


def best_per_input(latencies_ns: list[int], batch_size: int) -> tuple[float, float]:
    """(median op latency in ms, ops per second) from each input's fastest op.

    Other tenants of a shared machine slow the same op by up to 2x, in
    spells of a few seconds. Ops cycle through the batch's inputs, so every
    input runs many times in a run; its fastest run is the figure that
    repeats from run to run. The latency is the median of these over the
    inputs, and the throughput is the batch size over their sum.
    """
    fastest = np.asarray(latencies_ns, dtype=float).reshape(-1, batch_size).min(axis=0)
    return float(np.median(fastest)) / 1e6, batch_size / (float(fastest.sum()) / 1e9)


def tail(latencies_ms: list[float]) -> tuple[float, float, int] | None:
    """(percentile, latency, samples beyond) at the highest listed percentile
    that leaves at least TAIL_MIN_BEYOND samples beyond it."""
    ordered = sorted(latencies_ms)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        index = math.ceil(pct / 100 * n) - 1
        beyond = n - 1 - index
        if beyond >= TAIL_MIN_BEYOND:
            return pct, ordered[index], beyond
    return None


def layer_metrics(tracer, traced_phase: dict, batch_size: int,
                  untraced_p50_ms: float) -> dict[str, float]:
    from spans import LAYERS, layer_of

    ops = len(traced_phase["latencies"])
    total_ns = sum(traced_phase["latencies"])
    metrics: dict[str, float] = {}
    per_batch = tracer.first_batch_calls or {}
    for layer in LAYERS:
        self_ns = sum(v for k, v in tracer.self_ns.items() if layer_of(k) == layer)
        metrics[f"{layer}.calls"] = sum(v for k, v in per_batch.items() if layer_of(k) == layer)
        metrics[f"{layer}.self_s"] = self_ns / 1e9 / ops
        metrics[f"{layer}.share"] = self_ns / total_ns
    for name in NAMED_SPANS:
        durations = tracer.durations.get(name)
        metrics[f"{name}.p50_us"] = statistics.median(durations) / 1e3 if durations else 0.0
    region_grid = tracer.durations.get("control.region_grid")
    metrics["control.region_grid.s"] = statistics.median(region_grid) / 1e9 if region_grid else 0.0
    metrics["cli.region.self_s"] = tracer.self_ns.get("cli.region", 0) / 1e9 / ops
    tally = traced_phase["tally"]
    metrics["cli.rows"] = tally.get("rows", 0)
    metrics["cli.stdout_bytes"] = tally.get("stdout_bytes", 0)
    metrics["control.feasible_ratio"] = feasible_ratio(tally)
    traced_p50_ms, _ = best_per_input(traced_phase["latencies"], batch_size)
    metrics["trace_overhead"] = traced_p50_ms / untraced_p50_ms
    return metrics


def feasible_ratio(tally: dict) -> float:
    if "rows" in tally:
        return tally["feasible_rows"] / tally["rows"]
    if "solves" in tally:
        return tally["feasible_solves"] / tally["solves"]
    return 0.0


def _cache_sizes() -> dict[str, str]:
    """Size and instance count of each cache level, from sysfs."""
    caches: dict[str, set] = {}
    sizes: dict[str, str] = {}
    for index in sorted(Path("/sys/devices/system/cpu").glob("cpu[0-9]*/cache/index[0-9]*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
            shared = (index / "shared_cpu_list").read_text().strip()
        except OSError:
            continue
        key = f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"
        sizes[key] = size
        caches.setdefault(key, set()).add(shared)
    return {key: f"{sizes[key]} x {len(caches[key])}" for key in sizes}


def _git(*args: str) -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed: int) -> dict:
    import bellsource
    import numpy

    toplevel = _git("rev-parse", "--show-toplevel")
    in_git = toplevel is not None and Path(toplevel).resolve() == ROOT
    source = hashlib.sha256()
    for path in sorted((SRC / "bellsource").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_sha": _git("rev-parse", "HEAD") if in_git else None,
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no")) if in_git else None,
        "source_sha256": source.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
        "bellsource": bellsource.__version__,
        "seed": seed,
        "working_set": "roundtrip and shots hold states of at most 16 amplitudes; a region op "
                       "writes a CSV of under 0.1 MB and the region process holds about 50 MB "
                       "of result objects; no memory-bandwidth figure is claimed",
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return the result object plus a detailed report."""
    import workloads
    from spans import Tracer, build_api, restore

    workload = workloads.WORKLOADS[workload_name](seed)
    api, _ = build_api()
    # One warm-up batch: checked and counted, not timed.
    phases = [run_phase(workload, workload.op, api, 0.0)]
    untraced_s = seconds / 2 if trace else seconds
    setup_rounds, parts = [], []
    for k in range(SETUP_ROUNDS):
        setup_rounds.append(measure_setup())
        if k < SETUP_ROUNDS - 1:
            parts.append(run_phase(workload, workload.op, api, untraced_s / (SETUP_ROUNDS - 1)))
    untraced = merge(parts)
    phases.append(untraced)
    latencies_ms = [ns / 1e6 for ns in untraced["latencies"]]
    # Read before the analysis below, whose arrays are not the workload's memory.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # The region process counts as one more op.
    process_ops, process_problems = 0, []
    if workload_name == "region":
        rss_mb, problem = region_process()
        process_ops, process_problems = 1, [problem] if problem else []
    op_p50_ms, ops_per_s = best_per_input(untraced["latencies"], len(workload.items))
    report: dict = {"workload": workload_name, "seconds": seconds, "trace": int(trace),
                    "provenance": provenance(seed), "batch_size": len(workload.items),
                    "counts_per_batch": untraced["tally"]}
    if trace:
        tracer = Tracer()
        traced_api, patches = build_api(tracer)
        try:
            traced = run_phase(workload, workload.op, traced_api, seconds / 2, tracer)
        finally:
            restore(patches)
        phases.append(traced)
        metrics = layer_metrics(tracer, traced, len(workload.items), op_p50_ms)
        report["span_calls_per_batch"] = tracer.first_batch_calls
        report["traced_counts_per_batch"] = traced["tally"]
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{workload_name}-seed{seed}.json"
        spans_path.write_text(json.dumps({
            "report": report,
            "first_batch_spans": tracer.kept,
            "aggregate": {name: {"calls": tracer.calls[name], "self_ns": tracer.self_ns[name],
                                 "p50_ns": statistics.median(tracer.durations[name])}
                          for name in sorted(tracer.calls)},
        }))
        report["spans_file"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "setup_s": statistics.median(min(r) for r in setup_rounds),
            "ops_per_s": ops_per_s,
            "op_p50_ms": op_p50_ms,
            "peak_rss_mb": rss_mb,
        }
    attempted = sum(len(p["latencies"]) for p in phases) + process_ops
    failed = sum(p["failed"] for p in phases) + len(process_problems)
    report.update({
        "setup_rounds_s": setup_rounds,
        "ops": len(latencies_ms),
        "batches": untraced["batches"],
        "op_tail_ms": tail(latencies_ms),
        "region_digests": getattr(workload, "digests", None),
        "error_rate": failed / attempted,
        "problems": [p for phase in phases for p in phase["problems"]] + process_problems,
    })
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return {"result": result, "report": report}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("region", "roundtrip", "shots"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bellsource" / "__init__.py").is_file():
        print(f"no bellsource package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    result, report = out["result"], out["report"]
    metrics = {name: {"value": value, "unit": UNITS[name]}
               for name, value in result["metrics"].items()}
    result["metrics"] = metrics
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={report['ops']} batches={report['batches']}")
    for name, entry in metrics.items():
        print(f"{name} = {entry['value']!r} {entry['unit']}")
    if not args.trace:
        tail_ms = report["op_tail_ms"]
        if tail_ms is None:
            print(f"op_tail_ms omitted: {report['ops']} ops leave no percentile with "
                  f"{TAIL_MIN_BEYOND} samples beyond it")
        else:
            pct, value, beyond = tail_ms
            print(f"op_tail_ms = {value!r} ms (p{pct}, {beyond} of {report['ops']} samples beyond)")
    print(f"error_rate = {report['error_rate']!r} ratio "
          f"({result['failed']} failed of {result['attempted']} attempted)")
    for problem in report["problems"]:
        print(f"check failed: {problem}")
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
