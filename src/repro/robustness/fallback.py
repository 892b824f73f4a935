"""Degraded-mode forecast fallbacks.

When the model forward raises or emits non-finite values, the serving
path must still answer.  These model-free baselines compute a finite
``(horizon, N)`` forecast from the lookback window alone:

- **persistence** — repeat the last observation (the strongest naive
  baseline on most high-frequency series);
- **seasonal-naive** — repeat the last full season, the standard
  fallback when the series has a known period (e.g. ``steps_per_day``).

Both sanitize their input, so they stay finite even if the buffer
itself was poisoned before ingestion guards were enabled.

:func:`resolve_fallback` is the one place a fallback choice is
validated and bound: the micro-batcher, the server's admission-control
path and the serving/fleet configs all go through it.
"""

from __future__ import annotations

import functools

import numpy as np


def _sanitize(window: np.ndarray) -> np.ndarray:
    window = np.asarray(window, dtype=np.float64)
    if np.isfinite(window).all():
        return window
    return np.nan_to_num(window, nan=0.0, posinf=0.0, neginf=0.0)


def persistence_forecast(window: np.ndarray, horizon: int) -> np.ndarray:
    """Repeat the last row of ``(L, N)`` ``window`` for ``horizon`` steps."""
    window = _sanitize(window)
    return np.tile(window[-1], (horizon, 1))


def seasonal_naive_forecast(
    window: np.ndarray, horizon: int, period: int
) -> np.ndarray:
    """Tile the last ``period`` rows of ``window`` out to ``horizon`` steps.

    Falls back to persistence when the window is shorter than one
    period or the period is degenerate.
    """
    window = _sanitize(window)
    if period is None or period < 1 or period > len(window):
        return persistence_forecast(window, horizon)
    season = window[-period:]
    repeats = -(-horizon // period)  # ceil division
    return np.tile(season, (repeats, 1))[:horizon]


FALLBACKS = {
    "persistence": persistence_forecast,
    "seasonal": seasonal_naive_forecast,
}


def resolve_fallback(kind: str, seasonal_period: int | None = None):
    """Validate a fallback choice and bind it to ``forecast(window, horizon)``.

    Raises ``ValueError`` for a name outside :data:`FALLBACKS`, or for
    ``"seasonal"`` without a positive ``seasonal_period``.
    """
    if kind not in FALLBACKS:
        raise ValueError(
            f"unknown fallback {kind!r}; choose from {tuple(FALLBACKS)}"
        )
    if kind != "seasonal":
        return FALLBACKS[kind]
    if seasonal_period is None or seasonal_period < 1:
        raise ValueError("the seasonal fallback requires a positive seasonal_period")
    return functools.partial(FALLBACKS[kind], period=seasonal_period)
