"""ProtoAttn routing: one distance kernel and one forward for both engines.

``composite_distance`` is the only implementation of Eq. 13; a compiled
plan passes it a per-arena workspace, every other caller passes none.
``ProtoAttn.forward`` records its routing as a replayable node, so the
plan recomputes the assignment from the replayed segments — these tests
pin that the workspace never changes a bit, that a replay leaves the
same ``last_assignment_`` as an eager forward, and that an
instance-level ``assignment_weights`` override routes under the plan
engine as it does eagerly — setting or popping one retraces.
"""

import numpy as np
import pytest

from repro.analysis.attribution import prototype_importance
from repro.core.clustering import composite_distance

from .conftest import build_plan_model, make_windows

pytestmark = pytest.mark.plan


def _segments(rng, n, p, dtype):
    segments = rng.standard_normal((n, p)).astype(dtype)
    segments[0] = 1.5  # zero variance: correlation 0
    segments[1, 2] = np.nan  # NaN row
    return segments


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("alpha", [0.0, 0.2])
def test_workspace_reuse_is_bitwise_equal_to_a_fresh_call(dtype, alpha):
    rng = np.random.default_rng(3)
    prototypes = rng.standard_normal((5, 12)).astype(dtype)
    prototypes[0] = -0.25  # zero-variance prototype
    workspace = {}
    with np.errstate(invalid="ignore"):
        for n in (7, 7, 19, 7):  # a shape change must reallocate
            segments = _segments(rng, n, 12, dtype)
            fresh = composite_distance(segments, prototypes, alpha)
            reused = composite_distance(segments, prototypes, alpha, workspace)
            assert reused.shape == (n, 5)
            assert reused.dtype == fresh.dtype == dtype
            assert np.array_equal(reused, fresh, equal_nan=True)
            assert np.isnan(reused[1]).all()
            assert workspace["distance"]["dist"].shape == (n, 5)


def test_workspace_follows_a_new_prototype_array():
    rng = np.random.default_rng(4)
    segments = rng.standard_normal((9, 6))
    workspace = {}
    for _ in range(2):
        prototypes = rng.standard_normal((3, 6))
        reused = composite_distance(segments, prototypes, 0.5, workspace)
        assert np.array_equal(reused, composite_distance(segments, prototypes, 0.5))


def _assignments(model):
    extractor = model.extractor
    return [
        extractor.temporal_mixer.last_assignment_.copy(),
        extractor.entity_mixer.last_assignment_.copy(),
    ]


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"assignment": "soft"}, {"n_layers": 2}],
    ids=["hard-gather", "soft-assign", "deep-routing"],
)
def test_plan_replay_leaves_the_eager_last_assignment(kwargs):
    model = build_plan_model(**kwargs)
    traced = make_windows(model, 3, seed=1)
    fresh = make_windows(model, 3, seed=2)
    model.forecast_batch(traced, engine="plan")  # trace on other data
    expected_forecast = model.forecast_batch(fresh, engine="eager")
    expected = _assignments(model)
    model.forecast_batch(traced, engine="eager")  # clobber the attributes
    got_forecast = model.forecast_batch(fresh, engine="plan")
    assert np.array_equal(got_forecast, expected_forecast)
    for got, want in zip(_assignments(model), expected):
        assert np.array_equal(got, want)


def test_overridden_assignment_weights_route_under_the_plan_engine():
    """The knockout of ``prototype_importance`` patches
    ``assignment_weights`` per instance; a plan traced while it is
    patched must route through the patched matrix, as eager does."""
    model = build_plan_model()
    windows = make_windows(model, 2, seed=5)
    result = prototype_importance(model, windows)
    baseline = model.forecast_batch(windows, engine="plan")
    assert np.array_equal(baseline, result.baseline_forecast)
    mixers = (model.extractor.temporal_mixer, model.extractor.entity_mixer)
    for proto in range(model.config.num_prototypes):
        for mixer in mixers:
            original = type(mixer).assignment_weights.__get__(mixer)

            def masked(segments, original=original, proto=proto):
                weights = original(segments).copy()
                weights[..., proto] = 0.0
                return weights

            mixer.assignment_weights = masked
        try:
            eager = model.forecast_batch(windows, engine="eager")
            plan = model.forecast_batch(windows, engine="plan")
        finally:
            for mixer in mixers:
                del mixer.assignment_weights
        assert np.array_equal(plan, eager)
        importance = float(np.abs(plan - baseline).mean())
        assert importance == result.importance[proto]


def test_setting_or_popping_an_override_retraces():
    """The plan key holds each mixer's ``assignment_weights`` override,
    so a plan traced before (or under) an override never replays after
    the override changes."""
    model = build_plan_model()
    windows = make_windows(model, 3, seed=6)
    baseline = model.forecast_batch(windows, engine="eager")
    assert np.array_equal(model.forecast_batch(windows, engine="plan"), baseline)
    mixer = model.extractor.temporal_mixer
    original = type(mixer).assignment_weights.__get__(mixer)

    def reversed_routing(segments):
        return original(segments)[..., ::-1].copy()

    mixer.assignment_weights = reversed_routing
    try:
        patched = model.forecast_batch(windows, engine="eager")
        assert not np.array_equal(patched, baseline)  # the override bites
        assert np.array_equal(model.forecast_batch(windows, engine="plan"), patched)
    finally:
        del mixer.assignment_weights
    assert np.array_equal(model.forecast_batch(windows, engine="plan"), baseline)
