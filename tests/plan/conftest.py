"""Shared fixtures for the plan-engine suite.

Models here are built directly from seeded random prototypes (no
offline clustering fit) so the differential-fuzz properties can sweep
arbitrary ``(B, L, N, k, p, horizon)`` configurations cheaply.  Every
build is fully seeded — identical weights for identical arguments —
which is what makes the plan-vs-eager comparisons meaningful.
"""

import numpy as np
import pytest

from repro.core.model import FOCUSConfig, FOCUSForecaster
from repro.nn import init as nn_init


def build_plan_model(
    lookback: int = 24,
    num_entities: int = 3,
    segment_length: int = 8,
    num_prototypes: int = 4,
    d_model: int = 16,
    horizon: int = 8,
    n_layers: int = 1,
    assignment: str = "hard",
    dtype: str = "float64",
    seed: int = 0,
) -> FOCUSForecaster:
    """A freshly seeded FOCUS model (same weights for same arguments)."""
    from repro.autograd.tensor import default_dtype

    with default_dtype(np.dtype(dtype)):
        nn_init.seed(seed)
        config = FOCUSConfig(
            lookback=lookback,
            horizon=horizon,
            num_entities=num_entities,
            segment_length=segment_length,
            num_prototypes=num_prototypes,
            d_model=d_model,
            num_readout=2,
            n_layers=n_layers,
            assignment=assignment,
        )
        prototypes = np.random.default_rng(seed + 1).standard_normal(
            (num_prototypes, segment_length)
        )
        model = FOCUSForecaster(config, prototypes.astype(dtype))
    model.eval()
    return model


@pytest.fixture
def compile_count(monkeypatch) -> list:
    """Grows by one per ``repro.engine.compile_plan`` call (plan built)."""
    import repro.engine

    calls = []
    compile_plan = repro.engine.compile_plan

    def counting(*args, **kwargs):
        calls.append(1)
        return compile_plan(*args, **kwargs)

    monkeypatch.setattr(repro.engine, "compile_plan", counting)
    return calls


@pytest.fixture(scope="module")
def model() -> FOCUSForecaster:
    return build_plan_model()


@pytest.fixture(scope="module")
def model_f32() -> FOCUSForecaster:
    return build_plan_model(dtype="float32")


def make_windows(model, batch, seed=0, nan_rows=()):
    """Seeded ``(B, L, N)`` windows; ``nan_rows`` poison whole rows."""
    cfg = model.config
    rng = np.random.default_rng(seed)
    windows = rng.standard_normal((batch, cfg.lookback, cfg.num_entities))
    for row in nan_rows:
        windows[row, cfg.lookback // 2, row % cfg.num_entities] = np.nan
    return windows
