"""Fault tolerance for both phases of the system.

- :mod:`repro.robustness.checkpoint` — atomic, checksummed training
  checkpoints with retention and corrupt-file fallback;
- :mod:`repro.robustness.health` — the serving health state machine,
  its telemetry/run-log transition reporter, and non-finite-input
  guardrails;
- :mod:`repro.robustness.fallback` — model-free degraded-mode
  forecasts (persistence, seasonal-naive) and their one validator;
- :mod:`repro.robustness.chaos` — deterministic fault injection used
  by the recovery test suite.
"""

from repro.robustness.chaos import (
    ChaosError,
    ChaosModel,
    ChaosSpec,
    corrupt_file,
    truncate_file,
)
from repro.robustness.checkpoint import (
    CheckpointCorruptionError,
    CheckpointManager,
    state_checksum,
)
from repro.robustness.fallback import (
    FALLBACKS,
    persistence_forecast,
    resolve_fallback,
    seasonal_naive_forecast,
)
from repro.robustness.health import (
    NAN_POLICIES,
    HealthMonitor,
    HealthState,
    apply_nan_policy,
    health_reporter,
)

__all__ = [
    "ChaosError",
    "ChaosModel",
    "ChaosSpec",
    "corrupt_file",
    "truncate_file",
    "CheckpointCorruptionError",
    "CheckpointManager",
    "state_checksum",
    "FALLBACKS",
    "persistence_forecast",
    "resolve_fallback",
    "seasonal_naive_forecast",
    "NAN_POLICIES",
    "HealthMonitor",
    "HealthState",
    "apply_nan_policy",
    "health_reporter",
]
