"""Shared fixtures for the serving suite: one small trained model.

The model is deliberately tiny (lookback 32, 3 entities, 4 prototypes)
so the whole suite — including the concurrency hammer and the hypothesis
equivalence properties — stays fast while exercising every serving code
path.  Construction is fully seeded (``nn.init.seed``) so golden
fixtures are reproducible.
"""

import numpy as np
import pytest

from repro import autograd as ag
from repro.autograd import Tensor
from repro.core.model import FOCUSConfig, FOCUSForecaster
from repro.nn import init as nn_init

LOOKBACK = 32
HORIZON = 8
NUM_ENTITIES = 3


def build_model(dtype: str = "float64") -> FOCUSForecaster:
    """A freshly seeded small FOCUS model (same weights every call)."""
    from repro.autograd.tensor import default_dtype

    with default_dtype(np.dtype(dtype)):
        nn_init.seed(0)
        config = FOCUSConfig(
            lookback=LOOKBACK,
            horizon=HORIZON,
            num_entities=NUM_ENTITIES,
            segment_length=8,
            num_prototypes=4,
            d_model=16,
        )
        history = np.random.default_rng(7).normal(size=(400, NUM_ENTITIES))
        model = FOCUSForecaster.from_training_data(config, history.astype(dtype))
    model.eval()
    return model


def eager_forecast(model: FOCUSForecaster, window: np.ndarray) -> np.ndarray:
    """The batched ≡ sequential oracle: one single-window eager forward.

    Touches no serving code (no session, batcher, cache or fallback), so
    comparing a served forecast against it is never circular.  The
    window is cast to the model's dtype, as a session ring stores it.
    """
    dtype = next(iter(model.parameters())).data.dtype
    with ag.no_grad():
        return model(Tensor(np.asarray(window, dtype=dtype)[None])).data[0]


@pytest.fixture(scope="module")
def model() -> FOCUSForecaster:
    return build_model("float64")


@pytest.fixture(scope="module")
def model_f32() -> FOCUSForecaster:
    return build_model("float32")
