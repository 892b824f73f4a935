"""Plan invalidation: no sanctioned mutation can serve a stale replay.

Plans are keyed by ``(bucketed input shape, dtype, prototype version)``
and the version bumps on every sanctioned mutation, so a stale plan can
never *match* again — it is also actively evicted.  ProtoAttn's
knockout mask needs no key: the routing node reads it on every replay.
The property test drives random mutation sequences and re-checks
bit-equivalence after each step; the structural tests pin the cache
mechanics and the capture layer's rejection of data-dependent leaves
(the failure mode that would otherwise allow silent staleness).
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine import PlanError, PlanUnsupportedError, trace_function

from .conftest import build_plan_model, make_windows

pytestmark = pytest.mark.plan


def _mutate(model, op, rng):
    k, p = model.config.num_prototypes, model.config.segment_length
    if op == "set":
        model.set_prototypes(rng.standard_normal((k, p)))
    elif op == "update":
        model.update_prototype(int(rng.integers(k)), rng.standard_normal(p))
    else:
        raise AssertionError(op)


@settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    ops=st.lists(st.sampled_from(["set", "update"]), min_size=1, max_size=4),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_any_prototype_mutation_retraces_before_next_replay(ops, seed):
    model = build_plan_model()
    rng = np.random.default_rng(seed)
    windows = make_windows(model, 2, seed=seed)
    assert np.array_equal(
        model.forecast_batch(windows, engine="plan"),
        model.forecast_batch(windows, engine="eager"),
    )
    for op in ops:
        stale = model.forecast_batch(windows, engine="plan")
        _mutate(model, op, rng)
        eager = model.forecast_batch(windows, engine="eager")
        plan = model.forecast_batch(windows, engine="plan")
        assert np.array_equal(plan, eager), f"stale replay after {op!r}"
        # The mutation must actually change the forward for this check
        # to be meaningful most of the time; when it does, the plan
        # tracked it.
        if not np.array_equal(stale, eager):
            assert not np.array_equal(plan, stale)


def test_set_prototypes_invalidates_cached_plan(model_factory=build_plan_model):
    model = model_factory()
    windows = make_windows(model, 1, seed=0)
    model.forecast_batch(windows, engine="plan")
    first = model._last_plan
    model.set_prototypes(np.random.default_rng(5).standard_normal(
        (model.config.num_prototypes, model.config.segment_length)
    ))
    assert model._last_plan is None and not model._plans
    model.forecast_batch(windows, engine="plan")
    second = model._last_plan
    assert second[1] is not first[1]
    assert second[0][2] == first[0][2] + 1  # version advanced in the key


def test_dtype_switch_retraces():
    model = build_plan_model()
    windows = make_windows(model, 2, seed=1)
    f64 = model.forecast_batch(windows, engine="plan")
    model.to_dtype(np.float32)
    assert not model._plans
    f32 = model.forecast_batch(windows.astype(np.float32), engine="plan")
    eager32 = model.forecast_batch(windows.astype(np.float32), engine="eager")
    finite = np.isfinite(eager32)
    np.testing.assert_allclose(f32[finite], eager32[finite], atol=1e-4, rtol=1e-4)
    assert f64.dtype == f32.dtype == np.float64  # forecast contract


def test_stale_version_plans_are_evicted():
    model = build_plan_model()
    for batch in (1, 2, 3):
        model.forecast_batch(make_windows(model, batch), engine="plan")
    assert len(model._plans) == 3
    model.update_prototype(0, np.zeros(model.config.segment_length))
    model.forecast_batch(make_windows(model, 1), engine="plan")
    versions = {key[2] for key in model._plans}
    assert len(model._plans) == 1 and versions == {model._prototype_version}


def test_plan_cache_is_bounded(compile_count):
    model = build_plan_model()
    # Powers of two are distinct buckets, so the LRU must overflow.
    buckets = [2**i for i in range(model.PLAN_CACHE_CAPACITY + 3)]
    for batch in buckets:
        model.forecast_batch(make_windows(model, batch), engine="plan")
    assert len(compile_count) == len(buckets)
    assert len(model._plans) == model.PLAN_CACHE_CAPACITY
    assert 1 not in {key[0][0] for key in model._plans}  # evicted first
    model.forecast_batch(make_windows(model, 1), engine="plan")  # oldest bucket
    assert len(compile_count) == len(buckets) + 1
    assert len(model._plans) == model.PLAN_CACHE_CAPACITY


def test_replay_rejects_signature_mismatch(model):
    model.forecast_batch(make_windows(model, 2), engine="plan")
    plan = model._last_plan[1]
    wrong = make_windows(model, 3)
    with pytest.raises(PlanError, match="retrace"):
        plan.replay(wrong)


def test_data_dependent_leaf_is_rejected():
    """A Tensor born from the input's *values* cannot be baked.

    This is the structural guarantee behind invalidation: anything the
    capture cannot prove input-independent (or route through a custom
    replay node) refuses to compile, so a plan can never freeze
    input-derived data.
    """
    from repro.autograd import Tensor

    def sneaky(x):
        frozen = Tensor(np.argsort(x.data, axis=0).astype(float))
        return x + frozen

    with pytest.raises(PlanUnsupportedError, match="leaf Tensor"):
        trace_function(sneaky, np.random.default_rng(0).standard_normal((4, 3)))
