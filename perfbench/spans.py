"""Span recording around calls into the bellsource layers, for the traced run.

A wrapper records a span for every call the benchmark makes into a layer's
public names, and for every call one bellsource module makes into a name it
imported from another (for example ``bellsource.cli.region_grid`` or
``bellsource.characterize.measure_qubits``). Calls inside one module are not
wrapped. A span's self time is its duration minus the durations of the spans
it directly encloses; spans are aggregated as they close, and the spans of
the first batch are also kept verbatim so they can be written out at exit.
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import time
from types import SimpleNamespace

LAYERS = ("statevec", "source", "distortion", "characterize", "control", "cli")

# Constructors and class methods the workloads call, timed as their layer's work.
_CLASS_CALLS = (
    ("statevec", "PureState"),
    ("source", "SourceSpec.from_p1_theta1"),
    ("distortion", "FieldParams"),
    ("distortion", "ControlKnob"),
    ("distortion", "ControlKnob.from_field_params"),
)


class Tracer:
    """In-memory span recorder; records only while ``active`` is set."""

    def __init__(self) -> None:
        self.active = False
        self.keep = True  # keep raw spans until the first batch ends
        self.kept: list[tuple[str, int, int, int]] = []  # name, depth, start, end
        self.calls: dict[str, int] = {}
        self.durations: dict[str, list[int]] = {}
        self.self_ns: dict[str, int] = {}
        self.first_batch_calls: dict[str, int] | None = None
        self._open: list[list[int]] = []  # per open span: [time of its children]

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            frame = [0]
            self._open.append(frame)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._open.pop()
                self._close(name, start, end, frame[0])

        traced.__wrapped__ = fn
        return traced

    def _close(self, name: str, start: int, end: int, children_ns: int) -> None:
        duration = end - start
        if self._open:
            self._open[-1][0] += duration
        self.calls[name] = self.calls.get(name, 0) + 1
        self.durations.setdefault(name, []).append(duration)
        self.self_ns[name] = self.self_ns.get(name, 0) + duration - children_ns
        if self.keep:
            self.kept.append((name, len(self._open), start, end))

    def end_batch(self) -> None:
        """Freeze the call counts of the first batch; later batches only aggregate."""
        if self.first_batch_calls is None:
            self.first_batch_calls = dict(self.calls)
            self.keep = False


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def _region_in_process(gamma: float, resolution: int, stream) -> int:
    """Run ``bellsource region`` through its click command, stdout into ``stream``.

    Returns the exit code the command would have given as a process.
    """
    from bellsource import cli

    args = ["region", "--resolution", str(resolution), "--gamma", repr(gamma)]
    try:
        with contextlib.redirect_stdout(stream):
            cli.main.main(args, prog_name="bellsource", standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    finally:
        stream.flush()
    return 0


def build_api(tracer: Tracer | None = None) -> tuple[SimpleNamespace, list]:
    """Namespace of the callables the workloads use, plus the patches made.

    Without a tracer every attribute is the library's own object and no
    patch is made. With one, every attribute is a span wrapper, and each
    cross-module import inside bellsource is replaced by its wrapper; pass
    the returned patch list to :func:`restore` to undo that.
    """
    modules = {layer: importlib.import_module(f"bellsource.{layer}") for layer in LAYERS}

    def wrap(name, fn):
        return fn if tracer is None else tracer.wrap(name, fn)

    api = SimpleNamespace()
    wrappers = {}
    for layer, module in modules.items():
        for name in getattr(module, "__all__", ()):
            fn = getattr(module, name)
            if inspect.isfunction(fn):
                wrappers[fn] = wrap(f"{layer}.{name}", fn)
                setattr(api, name, wrappers[fn])
    for layer, dotted in _CLASS_CALLS:
        target = modules[layer]
        for part in dotted.split("."):
            target = getattr(target, part)
        setattr(api, dotted.rsplit(".", 1)[-1], wrap(f"{layer}.{dotted}", target))
    api.cli_region = wrap("cli.region", _region_in_process)

    patches = []
    if tracer is not None:
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if (
                    inspect.isfunction(value)
                    and value.__module__ != module.__name__
                    and value in wrappers
                ):
                    patches.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
    return api, patches


def restore(patches: list) -> None:
    for module, attr, value in patches:
        setattr(module, attr, value)
