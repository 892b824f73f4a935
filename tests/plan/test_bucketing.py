"""Plan shape bucketing: one plan per power-of-two batch bucket.

``forecast_batch(engine="plan")`` rounds ``B`` up to the next power of
two, pads with copies of the last window, replays the bucket's plan and
returns the first ``B`` rows.  Rows never interact, so padding is exact:
these tests pin plan ≡ eager bit-for-bit at every ``B``, the number of
plans a mixed-size sweep compiles, NaN rows as the padding source, the
float32 tolerance, and concurrent replays of shared bucket plans.
"""

import threading

import numpy as np
import pytest

from .conftest import build_plan_model, make_windows

pytestmark = pytest.mark.plan


def test_every_batch_size_matches_eager_bitwise(model):
    for batch in range(1, 34):
        windows = make_windows(model, batch, seed=batch)
        plan = model.forecast_batch(windows, engine="plan")
        eager = model.forecast_batch(windows, engine="eager")
        assert plan.shape == eager.shape and plan.dtype == np.float64
        assert np.array_equal(plan, eager), f"plan diverged from eager at B={batch}"


def test_batches_up_to_32_compile_six_plans(compile_count):
    model = build_plan_model()
    for _ in range(2):
        for batch in range(1, 33):
            model.forecast_batch(make_windows(model, batch), engine="plan")
        # Buckets 1, 2, 4, 8, 16, 32; the second sweep only replays.
        assert len(compile_count) == 6
    assert sorted(key[0][0] for key in model._plans) == [1, 2, 4, 8, 16, 32]


def test_nan_last_window_is_also_the_padding_source(model):
    windows = make_windows(model, 5, seed=11, nan_rows=(4,))
    plan = model.forecast_batch(windows, engine="plan")
    eager = model.forecast_batch(windows, engine="eager")
    assert np.array_equal(plan[:4], eager[:4])
    assert np.array_equal(np.isfinite(plan), np.isfinite(eager))


def test_float32_padded_batch_within_tolerance(model_f32):
    windows = make_windows(model_f32, 5, seed=12).astype(np.float32)
    plan = model_f32.forecast_batch(windows, engine="plan")
    eager = model_f32.forecast_batch(windows, engine="eager")
    finite = np.isfinite(eager)
    assert np.array_equal(np.isfinite(plan), finite)
    np.testing.assert_allclose(plan[finite], eager[finite], atol=1e-4, rtol=1e-4)


def test_threads_with_mixed_batches_share_bucket_plans_bitwise():
    model = build_plan_model()
    # 5..8 share bucket 8 and 3 and 4 share bucket 4, so threads replay
    # the same plans with different pad lengths at once.
    batches = (3, 4, 5, 6, 7, 8)
    inputs = {b: make_windows(model, b, seed=50 + b) for b in batches}
    expected = {b: model.forecast_batch(w, engine="eager") for b, w in inputs.items()}
    failures = []
    barrier = threading.Barrier(4, timeout=60)

    def hammer(tid):
        order = np.random.default_rng(tid).permutation(
            np.repeat(np.array(batches), 5)
        )
        barrier.wait()
        for batch in order:
            got = model.forecast_batch(inputs[batch], engine="plan")
            if not np.array_equal(got, expected[batch]):
                failures.append((tid, int(batch)))

    threads = [threading.Thread(target=hammer, args=(tid,)) for tid in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, f"(thread, B) pairs with diverging rows: {failures}"
    assert len(model._plans) == 2
