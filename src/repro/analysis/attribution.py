"""Prototype importance attribution.

Which of the offline prototypes actually drive a forecast?  For each
prototype we knock out its routing (segments assigned to it lose their
ProtoAttn contribution, keeping the residual path) and measure how much
the forecast moves.  This turns the paper's interpretability narrative
(prototypes = high-level events) into a quantitative tool: a traffic
model should assign high importance to the rush-hour prototypes when
forecasting a weekday morning.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import autograd as ag
from repro.autograd import Tensor
from repro.core.model import FOCUSForecaster


@dataclasses.dataclass
class AttributionResult:
    """Per-prototype forecast sensitivity for a batch of windows."""

    importance: np.ndarray  # (k,) mean |forecast delta| per prototype knockout
    usage: np.ndarray  # (k,) fraction of temporal segments routed to each
    baseline_forecast: np.ndarray  # (B, L_f, N)

    def ranking(self) -> np.ndarray:
        """Prototype indices, most important first."""
        return np.argsort(self.importance)[::-1]


def prototype_importance(
    model: FOCUSForecaster, windows: np.ndarray
) -> AttributionResult:
    """Knock out each prototype's routing and measure the forecast delta.

    ``windows`` is ``(B, L, N)``.  The knockout (:attr:`ProtoAttn.knockout`)
    routes zero context to the segments of the targeted prototype in both
    branches, so they keep only their residual-embedding representation.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3:
        raise ValueError("expected (B, L, N) windows")
    model.eval()
    mixers = (model.extractor.temporal_mixer, model.extractor.entity_mixer)
    if not all(hasattr(m, "knockout") for m in mixers):
        raise RuntimeError("prototype attribution requires the ProtoAttn mixer")
    k = model.config.num_prototypes

    with ag.no_grad():
        baseline = model(Tensor(windows)).data
    usage = np.bincount(
        model.extractor.temporal_mixer.last_assignment_.reshape(-1), minlength=k
    ).astype(float)
    usage /= max(usage.sum(), 1.0)

    importance = np.zeros(k)
    try:
        for proto in range(k):
            knockout = np.arange(k) == proto
            for mixer in mixers:
                mixer.knockout = knockout
            with ag.no_grad():
                knocked = model(Tensor(windows)).data
            importance[proto] = float(np.abs(knocked - baseline).mean())
    finally:
        for mixer in mixers:
            mixer.knockout = None
    return AttributionResult(
        importance=importance, usage=usage, baseline_forecast=baseline
    )
