"""Outside-in layer probes: eager layer timers, analytic FLOPs and the
plan-engine counters.

Nothing here edits the program.  Timers wrap the *bound methods* of one
model's module instances (``forward`` of the two ProtoAttn mixers, the
extractor and the fusion head; ``normalize``/``denormalize`` of RevIN)
for the duration of a probe and remove the wrappers afterwards.  Two
rules keep the probes on the program's own code path:

- ``assignment_weights`` is never overridden on a ProtoAttn instance;
  such an override disables the hard-routing gather fast path;
- no timed pass runs under an active ``OpCounter``, which switches
  ProtoAttn to the one-hot matmul and recomputes the prototype queries.
  FLOPs come from a separate, untimed counted pass.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from repro.profiling.counter import count_ops

#: Eager layers of the forward, in pipeline order.
LAYERS = ("revin", "temporal_protoattn", "entity_protoattn", "extractor_rest", "fusion")
BATCHES = (1, 32)
#: The eager layer timers must cover this share of ``forecast_batch``
#: (what is left is input checks, Tensor wrapping, two swapaxes and the
#: float64 copy of the result).
LAYER_COVERAGE_MIN = 0.85


def _probe_targets(model):
    extractor = model.extractor
    return [
        ("revin", model.revin, "normalize"),
        ("revin", model.revin, "denormalize"),
        ("temporal", extractor.temporal_mixer, "forward"),
        ("entity", extractor.entity_mixer, "forward"),
        ("extractor", extractor, "forward"),
        ("fusion", model.fusion, "forward"),
    ]


@contextlib.contextmanager
def wrapped_layers(model, measure):
    """Install ``measure(slot, call)`` around each probed method."""
    installed = []
    for slot, owner, name in _probe_targets(model):
        original = getattr(owner, name)

        def wrapper(*args, _slot=slot, _original=original, **kwargs):
            return measure(_slot, lambda: _original(*args, **kwargs))

        setattr(owner, name, wrapper)
        installed.append((owner, name))
    try:
        yield
    finally:
        for owner, name in installed:
            delattr(owner, name)


def _split(slots: dict) -> dict:
    """Raw slot totals -> the reported layers (extractor minus mixers)."""
    return {
        "revin": slots["revin"],
        "temporal_protoattn": slots["temporal"],
        "entity_protoattn": slots["entity"],
        "extractor_rest": slots["extractor"] - slots["temporal"] - slots["entity"],
        "fusion": slots["fusion"],
    }


def time_layers(model, windows: np.ndarray, reps: int) -> dict:
    """Median per-layer milliseconds of eager ``forecast_batch`` on
    ``windows`` plus the layer coverage of the whole call."""
    slots = dict.fromkeys(("revin", "temporal", "entity", "extractor", "fusion"), 0.0)

    def measure(slot, call):
        started = time.perf_counter()
        try:
            return call()
        finally:
            slots[slot] += time.perf_counter() - started

    per_layer = {layer: [] for layer in LAYERS}
    totals, coverage = [], []
    with wrapped_layers(model, measure):
        for rep in range(reps + 3):
            for slot in slots:
                slots[slot] = 0.0
            started = time.perf_counter()
            model.forecast_batch(windows)
            total = time.perf_counter() - started
            if rep < 3:
                continue  # warm-up
            layers = _split(slots)
            for layer, seconds in layers.items():
                per_layer[layer].append(seconds * 1e3)
            totals.append(total * 1e3)
            covered = slots["revin"] + slots["extractor"] + slots["fusion"]
            coverage.append(covered / total)
    result = {layer: float(np.median(values)) for layer, values in per_layer.items()}
    result["forecast_batch"] = float(np.median(totals))
    result["coverage"] = float(np.median(coverage))
    return result


def count_layer_flops(model, windows: np.ndarray) -> dict:
    """Analytic kFLOPs per request of each layer, from one counted pass."""
    slots = dict.fromkeys(("revin", "temporal", "entity", "extractor", "fusion"), 0)
    with count_ops() as counter:

        def measure(slot, call):
            before = counter.flops
            try:
                return call()
            finally:
                slots[slot] += counter.flops - before

        with wrapped_layers(model, measure):
            model.forecast_batch(windows)
        total = counter.flops
    batch = len(windows)
    result = {layer: value / batch / 1e3 for layer, value in _split(slots).items()}
    result["total"] = total / batch / 1e3
    return result


def layer_metrics(model, windows: np.ndarray, reps: dict) -> tuple[dict, list[str]]:
    """Per-layer times (ms per call) and FLOPs (kFLOP per request) at
    B=1 and B=32, plus any coverage problems found."""
    metrics, problems = {}, []
    for batch in BATCHES:
        chunk = windows[:batch]
        timed = time_layers(model, chunk, reps[batch])
        flops = count_layer_flops(model, chunk)
        for layer in LAYERS:
            metrics[f"model.b{batch}.{layer}_ms"] = timed[layer]
            metrics[f"model.b{batch}.{layer}_kflop"] = flops[layer]
        metrics[f"model.b{batch}.forecast_batch_ms"] = timed["forecast_batch"]
        metrics[f"model.b{batch}.total_kflop"] = flops["total"]
        metrics[f"model.b{batch}.layer_coverage"] = timed["coverage"]
        if not LAYER_COVERAGE_MIN <= timed["coverage"] <= 1.0:
            problems.append(
                f"eager layer timers cover {timed['coverage']:.3f} of "
                f"forecast_batch at B={batch}, outside "
                f"[{LAYER_COVERAGE_MIN}, 1.0]"
            )
    return metrics, problems


class EngineProbe:
    """Counts and times ``repro.engine.compile_plan`` calls and
    ``ExecutionPlan.replay`` calls made while serving.

    The compile-time self-check replay inside ``compile_plan`` is not a
    served forward and is excluded from the replay statistics.
    """

    def __init__(self):
        self.compile_seconds: list[float] = []
        self.replay_seconds: list[float] = []
        self._compiling = False
        self._saved = None

    def __enter__(self) -> "EngineProbe":
        import repro.engine as engine
        from repro.engine.plan import ExecutionPlan

        compile_plan = engine.compile_plan
        replay = ExecutionPlan.replay
        probe = self

        def timed_compile(*args, **kwargs):
            started = time.perf_counter()
            probe._compiling = True
            try:
                return compile_plan(*args, **kwargs)
            finally:
                probe._compiling = False
                probe.compile_seconds.append(time.perf_counter() - started)

        def timed_replay(plan, *arrays):
            if probe._compiling:
                return replay(plan, *arrays)
            started = time.perf_counter()
            try:
                return replay(plan, *arrays)
            finally:
                probe.replay_seconds.append(time.perf_counter() - started)

        self._saved = (engine, compile_plan, ExecutionPlan, replay)
        engine.compile_plan = timed_compile
        ExecutionPlan.replay = timed_replay
        return self

    def __exit__(self, *exc) -> None:
        engine, compile_plan, plan_class, replay = self._saved
        engine.compile_plan = compile_plan
        plan_class.replay = replay

    def metrics(self) -> dict:
        forwards = len(self.replay_seconds)
        compiles = len(self.compile_seconds)
        return {
            "engine.compiles": float(compiles),
            "engine.compile_ms.total": sum(self.compile_seconds) * 1e3,
            "engine.plan_hit_ratio": (forwards - compiles) / forwards if forwards else 0.0,
            "engine.replay_ms.p50": (
                float(np.median(self.replay_seconds)) * 1e3 if forwards else 0.0
            ),
        }
