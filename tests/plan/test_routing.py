"""ProtoAttn routing: one distance kernel and one routing node.

``composite_distance`` is the only implementation of Eq. 13; a compiled
plan passes it a per-arena workspace, every other caller passes none.
``ProtoAttn.route`` is one replayable node with a backward, which every
mode goes through: eager and plan inference, training, counted runs and
the deep blocks.  These tests pin that the workspace never changes a
bit; that a replay leaves the eager ``last_assignment_``,
``last_attention_`` and ``dependency_matrix()``; that the node's
gradient is right and float64 training is bitwise the one-hot
composition ``A · context`` (kept here as the oracle); and that the
knockout mask routes under the plan engine without a retrace and gives
the importance of a one-hot-column knockout.
"""

import numpy as np
import pytest

from repro import autograd as ag
from repro import optim
from repro.analysis.attribution import prototype_importance
from repro.autograd import gradcheck
from repro.core.clustering import composite_distance
from repro.core.model import FOCUSConfig, FOCUSForecaster
from repro.core.protoattn import ProtoAttn
from repro.nn import init as nn_init

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


def _recorded(model):
    """What each mixer leaves behind after a forward."""
    recorded = []
    for mixer in (model.extractor.temporal_mixer, model.extractor.entity_mixer):
        recorded += [
            mixer.last_assignment_.copy(),
            mixer.last_attention_.copy(),
            mixer.dependency_matrix(),
        ]
    return recorded


@pytest.mark.parametrize(
    "kwargs, batch",
    [({}, 3), ({"assignment": "soft"}, 3), ({"n_layers": 2}, 3), ({}, 4)],
    ids=["hard-gather", "soft-assign", "deep-routing", "hard-unpadded"],
)
def test_plan_replay_leaves_the_eager_last_assignment(kwargs, batch):
    """B=3 replays the padded 4-row bucket; the pad rows' labels and
    attention maps are trimmed."""
    model = build_plan_model(**kwargs)
    traced = make_windows(model, batch, seed=1)
    fresh = make_windows(model, batch, seed=2)
    model.forecast_batch(traced, engine="plan")  # trace on other data
    expected_forecast = model.forecast_batch(fresh, engine="eager")
    expected = _recorded(model)
    model.forecast_batch(traced, engine="eager")  # clobber the attributes
    got_forecast = model.forecast_batch(fresh, engine="plan")
    assert np.array_equal(got_forecast, expected_forecast)
    for got, want in zip(_recorded(model), expected):
        assert got.shape == want.shape
        assert np.array_equal(got, want)
    # The recorded attention is a copy, not the arena buffer the next
    # replay overwrites.
    attention = model.extractor.temporal_mixer.last_attention_
    model.forecast_batch(traced, engine="plan")
    assert np.array_equal(attention, expected[1])


def _one_hot_route(self, segments, context, attention=None, column=None):
    """The oracle: Eq. 19 as the product of the assignment matrix ``A``
    and the context, with knocked-out prototype columns of ``A`` zeroed."""
    weights = self.assignment_weights(segments.data)
    if self.knockout is not None:
        weights[..., self.knockout] = 0.0
    if column is not None:
        weights[..., column] = 0.0
    return ag.matmul(ag.Tensor(weights), context)


@pytest.mark.parametrize("assignment", ["hard", "soft"])
@pytest.mark.parametrize("knocked", [False, True], ids=["all", "knockout"])
def test_route_gradcheck(assignment, knocked):
    rng = np.random.default_rng(7)
    layer = ProtoAttn(rng.standard_normal((4, 5)), d_model=3, assignment=assignment)
    if knocked:
        layer.knockout = np.array([False, True, False, False])
    segments = ag.Tensor(rng.standard_normal((2, 6, 5)))
    context = ag.Tensor(rng.standard_normal((2, 4, 3)), requires_grad=True)
    assert gradcheck(lambda c: layer.route(segments, c), [context])
    if assignment == "hard":
        routed = layer.route(segments, context).data
        assert np.array_equal(routed, _one_hot_route(layer, segments, context).data)


def _pinned_model(n_layers):
    """The pinned serving/training model (L=96, N=8, p=12, k=8, d=32)."""
    nn_init.seed(0)
    config = FOCUSConfig(
        lookback=96, horizon=12, num_entities=8, segment_length=12,
        num_prototypes=8, d_model=32, num_readout=2, n_layers=n_layers,
    )
    prototypes = np.random.default_rng(1).standard_normal((8, 12))
    return FOCUSForecaster(config, prototypes=prototypes)


def _train(model, steps=5):
    """Forward outputs, gradients and parameters of ``steps`` AdamW steps."""
    rng = np.random.default_rng(2)
    x = ag.Tensor(rng.standard_normal((32, 96, 8)))
    y = ag.Tensor(rng.standard_normal((32, 12, 8)))
    optimizer = optim.AdamW(model.parameters(), lr=1e-3)
    trace = []
    for _ in range(steps):
        prediction = model(x)
        loss = ((prediction - y) ** 2.0).mean()
        optimizer.zero_grad()
        loss.backward()
        trace.append(prediction.data)
        trace += [param.grad.copy() for param in model.parameters()]
        optimizer.step()
    return trace + [param.data.copy() for param in model.parameters()]


@pytest.mark.parametrize("n_layers", [1, 2], ids=["pinned", "deep"])
def test_float64_training_is_bitwise_the_one_hot_oracle(n_layers, monkeypatch):
    served = _train(_pinned_model(n_layers))
    monkeypatch.setattr(ProtoAttn, "route", _one_hot_route)
    oracle = _train(_pinned_model(n_layers))
    assert len(served) == len(oracle)
    for got, want in zip(served, oracle):
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got, want)


def test_knockout_under_the_plan_engine_matches_eager_without_a_retrace(compile_count):
    model = build_plan_model()
    windows = make_windows(model, 4, seed=5)
    baseline = model.forecast_batch(windows, engine="plan")
    mixers = (model.extractor.temporal_mixer, model.extractor.entity_mixer)
    k = model.config.num_prototypes
    moved = 0
    try:
        for proto in range(k):
            for mixer in mixers:
                mixer.knockout = np.arange(k) == proto
            eager = model.forecast_batch(windows, engine="eager")
            plan = model.forecast_batch(windows, engine="plan")
            assert np.array_equal(plan, eager)
            moved += not np.array_equal(plan, baseline)
    finally:
        for mixer in mixers:
            mixer.knockout = None
    assert moved > 0  # the mask bites
    assert np.array_equal(model.forecast_batch(windows, engine="plan"), baseline)
    assert len(compile_count) == 1


@pytest.mark.parametrize(
    "kwargs", [{}, {"assignment": "soft"}, {"n_layers": 2}], ids=["hard", "soft", "deep"]
)
def test_prototype_importance_equals_a_one_hot_column_knockout(kwargs, monkeypatch):
    model = build_plan_model(**kwargs)
    windows = make_windows(model, 3, seed=8)
    result = prototype_importance(model, windows)

    def forecast(column=None):
        def route(self, segments, context, attention=None):
            return _one_hot_route(self, segments, context, attention, column)

        monkeypatch.setattr(ProtoAttn, "route", route)
        with ag.no_grad():
            return model(ag.Tensor(windows)).data

    baseline = forecast()
    assert np.array_equal(baseline, result.baseline_forecast)
    expected = np.array([
        float(np.abs(forecast(proto) - baseline).mean())
        for proto in range(model.config.num_prototypes)
    ])
    assert np.array_equal(result.importance, expected)
    assert expected.max() > 0.0
