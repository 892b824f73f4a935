"""Concurrent replay: one shared plan, many threads, zero cross-talk.

Arenas are per-thread (``threading.local`` inside
:class:`repro.engine.ExecutionPlan`), so N serving threads replaying
the *same* compiled plan concurrently must each produce exactly what a
single-threaded run produces — no torn buffers, no interleaved scratch
state.  The hammer drives MicroBatcher-style traffic (every thread its
own window set, all threads sharing the model and plan cache) and
compares every result against a precomputed single-threaded oracle.

CI runs this file twice under ``PYTHONHASHSEED=0`` (see the ``plan``
job) to shake out ordering flakes.
"""

import importlib
import sys
import threading

import numpy as np
import pytest

from repro.serving import ForecastServer, ServingConfig

from .conftest import build_plan_model, make_windows

pytestmark = pytest.mark.plan

N_THREADS = 8
REPLAYS_PER_THREAD = 40


def test_threaded_replays_match_single_threaded_oracle():
    model = build_plan_model()
    batches = {
        tid: make_windows(model, 1 + tid % 3, seed=100 + tid)
        for tid in range(N_THREADS)
    }
    # Oracle first, single-threaded, via the eager reference engine.
    oracle = {
        tid: model.forecast_batch(windows, engine="eager")
        for tid, windows in batches.items()
    }
    # Compile the plans once so every thread hammers shared plans.
    for windows in batches.values():
        model.forecast_batch(windows, engine="plan")

    failures = []
    barrier = threading.Barrier(N_THREADS)

    def hammer(tid):
        windows = batches[tid]
        expected = oracle[tid]
        barrier.wait()
        for _ in range(REPLAYS_PER_THREAD):
            got = model.forecast_batch(windows, engine="plan")
            if not np.array_equal(got, expected):
                failures.append(tid)
                return

    threads = [
        threading.Thread(target=hammer, args=(tid,)) for tid in range(N_THREADS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, f"threads {sorted(set(failures))} saw torn replays"


def test_each_thread_gets_its_own_arena():
    model = build_plan_model()
    windows = make_windows(model, 2, seed=7)
    model.forecast_batch(windows, engine="plan")
    plan = model._last_plan[1]
    arenas = {}

    def grab(tid):
        plan.replay(windows)
        arenas[tid] = plan._tls.arena

    threads = [threading.Thread(target=grab, args=(tid,)) for tid in range(3)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len({id(arena) for arena in arenas.values()}) == 3


def test_threaded_plan_server_matches_eager_server():
    """The full serving front-end, background batching worker included."""
    plan_server = ForecastServer(
        build_plan_model(), ServingConfig(engine="plan", use_cache=False)
    )
    eager_server = ForecastServer(
        build_plan_model(), ServingConfig(engine="eager", use_cache=False)
    )
    cfg = plan_server.model.config
    rng = np.random.default_rng(31)
    streams = {
        f"plan-{i}": rng.normal(size=(cfg.lookback + 4, cfg.num_entities))
        for i in range(6)
    }
    for server in (plan_server, eager_server):
        for entity_id, data in streams.items():
            server.observe_many(entity_id, data.copy())
    with plan_server:
        plan_responses = {
            r.entity: r for r in plan_server.forecast_many(list(streams))
        }
    eager_responses = {
        r.entity: r for r in eager_server.forecast_many(list(streams))
    }
    assert set(plan_responses) == set(eager_responses)
    for entity_id, eager in eager_responses.items():
        got = plan_responses[entity_id]
        assert got.source == eager.source == "model"
        assert np.array_equal(got.forecast, eager.forecast)


def test_capture_counter_survives_concurrent_compiles():
    """Two models compile plans on two threads at once: the global
    capture counter must end at 0 (no lost update) and every plan must
    still replay bit-equal to eager."""
    # The ``repro.autograd.tensor`` attribute is the creation helper;
    # the counter lives in the module of the same name.
    tensor_module = importlib.import_module("repro.autograd.tensor")
    models = [build_plan_model(seed=seed) for seed in (0, 1)]
    windows = [make_windows(model, 2, seed=40 + i) for i, model in enumerate(models)]
    oracle = [m.forecast_batch(w, engine="eager") for m, w in zip(models, windows)]
    failures = []
    barrier = threading.Barrier(len(models), timeout=60)

    def compile_repeatedly(index):
        model, batch = models[index], windows[index]
        barrier.wait()
        for _ in range(15):
            model._invalidate_plans()
            got = model.forecast_batch(batch, engine="plan")
            if not np.array_equal(got, oracle[index]):
                failures.append(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=compile_repeatedly, args=(i,))
            for i in range(len(models))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert tensor_module._CAPTURE_COUNT == 0
    assert not failures
    for model, batch, expected in zip(models, windows, oracle):
        assert np.array_equal(model.forecast_batch(batch, engine="plan"), expected)
