"""Serving-path health tracking and input guardrails.

Shared by every serving front door (:class:`~repro.serving.StreamingFOCUS`,
:class:`~repro.serving.ForecastServer`, :class:`~repro.serving.ShardRouter`):

- :class:`HealthMonitor` — a three-state machine
  (``HEALTHY → DEGRADED → FAILED``) driven by per-forecast outcomes.
  Any model failure degrades a healthy stream immediately; a streak of
  ``fail_threshold`` consecutive failures marks it failed; recovery
  climbs back one rung at a time (``FAILED → DEGRADED`` on the first
  success, ``DEGRADED → HEALTHY`` after ``recover_after`` consecutive
  successes).
- :func:`health_reporter` — the one ``on_transition`` callback that
  publishes state changes as ``<prefix>health_*`` metrics and
  ``health_transition`` run events.
- :func:`apply_nan_policy` — the ingestion guard that decides what to
  do with non-finite observations before they reach the ring buffer.
"""

from __future__ import annotations

import enum
from collections import deque

import numpy as np

NAN_POLICIES = ("reject", "impute_last", "impute_prototype")
#: Forward engines of ``FOCUSForecaster.forecast_batch`` and the serving stack.
ENGINES = ("eager", "plan")


def check_nan_policy(policy: str) -> str:
    """Return ``policy`` if it is one of :data:`NAN_POLICIES`, else raise."""
    if policy not in NAN_POLICIES:
        raise ValueError(f"unknown nan_policy {policy!r}; choose from {NAN_POLICIES}")
    return policy


def check_engine(engine: str) -> str:
    """Return ``engine`` if it is one of :data:`ENGINES`, else raise."""
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; choose from {ENGINES}")
    return engine


class HealthState(str, enum.Enum):
    """Coarse serving-health states exposed for monitoring."""

    HEALTHY = "HEALTHY"
    DEGRADED = "DEGRADED"
    FAILED = "FAILED"


#: Numeric encoding of each state for the ``*_health_state`` gauges.
HEALTH_LEVELS = {
    HealthState.HEALTHY.value: 0,
    HealthState.DEGRADED.value: 1,
    HealthState.FAILED.value: 2,
}


def health_reporter(prefix: str, telemetry=None, run_logger=None):
    """Build a :class:`HealthMonitor` ``on_transition`` callback.

    Each state change increments ``<prefix>health_transitions_total{to}``
    and sets the ``<prefix>health_state`` gauge on ``telemetry``, and
    writes a ``health_transition`` event to ``run_logger``.  The gauge is
    registered up front so it is exported before the first transition.
    Returns ``None`` when both sinks are off, keeping the monitor free of
    callbacks.
    """
    if telemetry is None and run_logger is None:
        return None
    gauge = None
    if telemetry is not None:
        gauge = telemetry.gauge(
            f"{prefix}health_state", help="0=HEALTHY 1=DEGRADED 2=FAILED"
        )

    def report(src: str, dst: str, reason: str, tick: int) -> None:
        if telemetry is not None:
            telemetry.counter(
                f"{prefix}health_transitions_total", labels={"to": dst},
                help="serving-health state changes",
            ).inc()
            gauge.set(HEALTH_LEVELS[dst])
        if run_logger is not None:
            run_logger.event(
                "health_transition",
                **{"from": src, "to": dst, "reason": reason, "tick": tick},
            )

    return report


class HealthMonitor:
    """Streak-driven state machine over per-forecast success/failure.

    Every :meth:`record_success` / :meth:`record_failure` advances a
    monotonic ``tick``; state changes are kept as a bounded history of
    ``(from, to, reason, tick)`` tuples in :attr:`transitions` (newest
    last, capped at ``history`` entries) instead of overwriting a single
    reason string.  ``on_transition(from, to, reason, tick)`` lets a
    telemetry layer observe changes as they happen.
    """

    def __init__(
        self,
        fail_threshold: int = 5,
        recover_after: int = 3,
        history: int = 256,
        on_transition=None,
    ):
        if fail_threshold < 1:
            raise ValueError("fail_threshold must be at least 1")
        if recover_after < 1:
            raise ValueError("recover_after must be at least 1")
        if history < 1:
            raise ValueError("history must be at least 1")
        self.fail_threshold = fail_threshold
        self.recover_after = recover_after
        self.state = HealthState.HEALTHY
        self.transitions: deque[tuple[str, str, str, int]] = deque(maxlen=history)
        self.on_transition = on_transition
        self.tick = 0
        self._fail_streak = 0
        self._ok_streak = 0

    def _set(self, state: HealthState, reason: str) -> None:
        if state is not self.state:
            record = (self.state.value, state.value, reason, self.tick)
            self.transitions.append(record)
            self.state = state
            if self.on_transition is not None:
                self.on_transition(*record)

    def record_success(self) -> HealthState:
        self.tick += 1
        self._fail_streak = 0
        self._ok_streak += 1
        if self.state is HealthState.FAILED:
            self._set(HealthState.DEGRADED, "first success after failure")
        elif self.state is HealthState.DEGRADED and self._ok_streak >= self.recover_after:
            self._set(HealthState.HEALTHY, f"{self._ok_streak} consecutive successes")
        return self.state

    def record_failure(self, reason: str = "model failure") -> HealthState:
        self.tick += 1
        self._ok_streak = 0
        self._fail_streak += 1
        if self.state is HealthState.HEALTHY:
            self._set(HealthState.DEGRADED, reason)
        elif (
            self.state is HealthState.DEGRADED
            and self._fail_streak >= self.fail_threshold
        ):
            self._set(
                HealthState.FAILED, f"{self._fail_streak} consecutive failures"
            )
        return self.state


def apply_nan_policy(
    block: np.ndarray,
    policy: str,
    last_row: np.ndarray | None = None,
    fill_value: float = 0.0,
) -> tuple[np.ndarray, int, int]:
    """Guard a ``(T, N)`` block of observations against non-finite values.

    Returns ``(clean_block, imputed_values, rejected_rows)`` where
    ``clean_block`` contains only finite values:

    - ``"reject"`` — drop every row containing a non-finite entry;
    - ``"impute_last"`` — forward-fill each bad entry from the most
      recent finite value of the same entity (seeded by ``last_row``,
      the last row already in the buffer; ``fill_value`` when there is
      no history yet);
    - ``"impute_prototype"`` — replace bad entries with ``fill_value``
      (the caller passes the prototype-dictionary mean).

    The fast path (fully finite block) returns the input unchanged.
    """
    check_nan_policy(policy)
    finite = np.isfinite(block)
    if finite.all():
        return block, 0, 0
    if policy == "reject":
        keep = finite.all(axis=1)
        return block[keep], 0, int((~keep).sum())
    clean = block.copy()
    bad_total = int((~finite).sum())
    if policy == "impute_prototype":
        clean[~finite] = fill_value
        return clean, bad_total, 0
    # impute_last: per-entity forward fill, seeded by the buffer's last row.
    previous = (
        np.full(block.shape[1], fill_value, dtype=block.dtype)
        if last_row is None
        else np.where(np.isfinite(last_row), last_row, fill_value)
    )
    for t in range(len(clean)):
        bad = ~finite[t]
        if bad.any():
            clean[t, bad] = previous[bad]
        previous = clean[t]
    return clean, bad_total, 0
