"""The offline phase and the training loop: the ``offline-fit`` workload.

Set-up prepares the data, builds the pinned model and runs the offline
clustering fit on the training split.  The measured part is a fixed
budget of B=32 steps through :meth:`repro.training.Trainer.fit`
(forward, MSE, backward, gradient clipping, AdamW), then the test-split
MAE against persistence.  The budget is fixed in steps, not seconds, so ``mae_ratio`` is
a function of the seed alone; it is sized to take about ``--seconds``
on the reference host.
"""

from __future__ import annotations

import time

import numpy as np

from perfbench import common, layers
from repro.autograd import Tensor
from repro.data.windows import SlidingWindowDataset
from repro.profiling.profiler import track_allocations
from repro.training import Trainer, TrainerConfig
from repro.training.trainer import NonFiniteLossError

BATCH = 32
STEPS_PER_SECOND = 20
TEST_ROWS = 200
SLO_MS = 55.0
EVAL_STRIDE = 4


class PooledWindows:
    """Sliding windows of several series, without windows that straddle
    two series; ``select`` picks a subset by global index.  Provides the
    ``len``/``batch`` interface ``DataLoader`` and ``Trainer`` use."""

    def __init__(self, parts: list[np.ndarray], select: np.ndarray | None = None):
        self.parts = [
            SlidingWindowDataset(part, common.LOOKBACK, common.HORIZON) for part in parts
        ]
        self.offsets = np.cumsum([0] + [len(part) for part in self.parts])
        total = int(self.offsets[-1])
        self.select = np.arange(total) if select is None else np.asarray(select)

    def __len__(self) -> int:
        return len(self.select)

    def batch(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        xs, ys = [], []
        for index in self.select[np.asarray(indices)]:
            part = int(np.searchsorted(self.offsets, index, side="right")) - 1
            x, y = self.parts[part][int(index - self.offsets[part])]
            xs.append(x)
            ys.append(y)
        return np.stack(xs), np.stack(ys)


def _setup(seed: int, steps: int):
    """Data prep (generate, standardize, split, window) + model build +
    the offline clustering fit."""
    parts = [common.make_series(seed * common.SERIES + i, TEST_ROWS) for i in range(common.SERIES)]
    trains = [train for train, _ in parts]
    every = PooledWindows(trains)
    rng = np.random.default_rng(seed)
    budget = steps * BATCH
    pick = rng.choice(len(every), size=budget, replace=budget > len(every))
    train_windows = PooledWindows(trains, select=pick)
    test_windows = PooledWindows([rest for _, rest in parts])
    model, fit_s = common.build_model(np.concatenate(trains))
    return (model, train_windows, test_windows), (lambda: None), fit_s


def _train(model, windows, seed: int, probes: dict | None = None):
    """Run the step budget through ``Trainer.fit``; returns the trainer,
    the per-step seconds, windows per second, whether the loss stayed
    finite and the steps completed."""
    trainer = Trainer(model, TrainerConfig(
        epochs=1, batch_size=BATCH, seed=seed, restore_best=False,
    ))
    stamps = []
    step = trainer.optimizer.step

    def timed_step(*args, **kwargs):
        started = time.perf_counter()
        try:
            return step(*args, **kwargs)
        finally:
            if probes is not None:
                probes["optimizer"].append(time.perf_counter() - started)
            stamps.append(time.perf_counter())

    trainer.optimizer.step = timed_step
    try:
        trainer.fit(windows)
        finite = True
    except NonFiniteLossError:
        finite = False
    # Per-step time runs from one optimizer step to the next, so the
    # first step (which also pays the loader set-up) is left out.
    step_seconds = list(np.diff(stamps))
    rate = common.sliced_rate(
        stamps[1:], stamps[0], stamps[-1], weights=np.full(len(stamps) - 1, BATCH)
    ) if len(stamps) > 1 else 0.0
    return trainer, step_seconds, rate, finite, len(stamps)


def _evaluate(trainer, windows) -> float:
    """Test MAE over the MAE of persistence on the same windows."""
    mae = trainer.evaluate(windows, stride_subsample=EVAL_STRIDE)["mae"]
    inputs, targets = windows.batch(np.arange(0, len(windows), EVAL_STRIDE))
    naive = np.repeat(inputs[:, -1:, :], common.HORIZON, axis=1)
    return mae / float(np.abs(naive - targets).mean())


def run(seed: int, seconds: float, trace: bool) -> dict:
    steps = max(8, int(seconds * STEPS_PER_SECOND))
    if trace:
        return _run_traced(seed, steps)
    (model, train_windows, test_windows), _, setup_s, _ = common.timed_setups(
        lambda: _setup(seed, steps), repeats=3
    )
    baseline = _evaluate(Trainer(model), test_windows)
    trainer, step_s, rate, finite, completed = _train(model, train_windows, seed)
    mae = _evaluate(trainer, test_windows) if finite else float("nan")
    latency_ms = np.asarray(step_s) * 1e3
    problems = []
    if not mae < baseline:
        problems.append(
            f"training did not improve the test MAE ({baseline:.4f} -> {mae:.4f})"
        )
    failed = steps - completed
    return {
        "metrics": {
            "setup_s": setup_s,
            "latency_p50_ms": common.percentile(latency_ms, 50),
            "latency_p95_ms": common.sliced_percentile(latency_ms, 95),
            "throughput_per_s": rate,
            "slo_attainment": common.sliced(latency_ms <= SLO_MS, np.mean),
            "mae_ratio": mae,
            "peak_rss_mb": common.peak_rss_mb(),
        },
        "summary": {
            "sent": steps, "rows": 0, "succeeded": completed, "degraded": 0,
            "failed": failed,
            "latency_p99_ms": round(common.percentile(latency_ms, 99), 3),
        },
        "attempted": steps,
        "failed": failed,
        "problems": problems,
    }


def _run_traced(seed: int, steps: int) -> dict:
    half = max(4, steps // 2)
    (model, train_windows, _), _, _, _ = common.timed_setups(
        lambda: _setup(seed, half), repeats=1
    )
    _, plain_s, _, plain_ok, plain_done = _train(model, train_windows, seed)

    (model, train_windows, _), _, _, fit_s = common.timed_setups(
        lambda: _setup(seed, half), repeats=1
    )
    probes = {"forward": [], "backward": [], "optimizer": []}
    forward = model.forward

    def timed_forward(*args, **kwargs):
        started = time.perf_counter()
        try:
            return forward(*args, **kwargs)
        finally:
            probes["forward"].append(time.perf_counter() - started)

    backward = Tensor.backward

    def timed_backward(tensor, *args, **kwargs):
        started = time.perf_counter()
        try:
            return backward(tensor, *args, **kwargs)
        finally:
            probes["backward"].append(time.perf_counter() - started)

    model.forward = timed_forward
    Tensor.backward = timed_backward
    try:
        with track_allocations() as allocations:
            _, traced_s, _, traced_ok, traced_done = _train(
                model, train_windows, seed, probes
            )
    finally:
        Tensor.backward = backward
        del model.forward
    metrics = {
        "train.forward_ms": common.median(probes["forward"]) * 1e3,
        "train.backward_ms": common.median(probes["backward"]) * 1e3,
        "train.optimizer_ms": common.median(probes["optimizer"]) * 1e3,
        "train.allocs_per_step": allocations.count / max(traced_done, 1),
        "clustering.fit_s": fit_s,
        "trace.overhead_pct": 100.0 * (
            common.median(traced_s) / common.median(plain_s) - 1.0
        ),
    }
    model.eval()
    windows, _ = train_windows.batch(np.arange(32))
    layer_metrics, problems = layers.layer_metrics(model, windows, reps={1: 60, 32: 20})
    metrics.update(layer_metrics)
    failed = (half - plain_done) + (half - traced_done)
    if not (plain_ok and traced_ok):
        problems.append("training loss went non-finite")
    return {
        "metrics": metrics,
        "summary": {
            "sent": 2 * half, "rows": 0, "succeeded": plain_done + traced_done,
            "degraded": 0, "failed": failed,
        },
        "attempted": 2 * half,
        "failed": failed,
        "problems": problems,
    }
