"""The assembled FOCUS forecaster and its ablation variants.

``FOCUSForecaster`` chains the pieces of Secs. V-VII:

1. (offline, before construction) a :class:`SegmentClusterer` produces
   the ``(k, p)`` prototype set from the *training split*;
2. RevIN window normalization (standard practice for long-horizon
   forecasters under distribution shift);
3. segmentation of the lookback window into ``(B, N, l, p)`` tokens;
4. the dual-branch ProtoAttn extractor (Algorithm 3);
5. the Parallel Fusion readout head (Algorithm 4) emitting ``(B, L_f, N)``.

:func:`make_focus_variant` builds the Table IV ablations:
``"attn"`` (FOCUS-Attn), ``"lnr_fusion"`` (FOCUS-LnrFusion) and
``"all_lnr"`` (FOCUS-AllLnr).
"""

from __future__ import annotations

import collections
import dataclasses
import threading

import numpy as np

from repro import autograd as ag
from repro.autograd import Tensor
from repro.autograd.tensor import get_default_dtype
from repro.core.clustering import ClusteringConfig, SegmentClusterer
from repro.core.extractor import DualBranchExtractor
from repro.core.fusion import GatedLinearFusion, ParallelFusion
from repro.nn import Module, RevIN
from repro.robustness.health import check_engine


@dataclasses.dataclass
class FOCUSConfig:
    """Model hyperparameters (paper Sec. VIII-A defaults where stated).

    ``num_readout`` is m (6 for horizon 96, 21 for horizon 336 in the
    paper); ``alpha=0.2`` is the correlation-loss weight; ``d_model`` was
    128 for PEMS and 64 elsewhere.
    """

    lookback: int
    horizon: int
    num_entities: int
    segment_length: int = 12
    num_prototypes: int = 8
    d_model: int = 64
    num_readout: int = 6
    alpha: float = 0.2
    use_revin: bool = True
    # Branch ablation: "dual" (paper), "temporal" or "entity" feed the
    # fusion head with only one branch's features.
    branch: str = "dual"
    # Assignment ablation: "hard" one-hot routing (paper) or "soft"
    # distance-softmax routing with the given temperature.
    assignment: str = "hard"
    assignment_temperature: float = 1.0
    # Extractor depth (extension): the paper uses 1; deeper stacks add
    # DeepProtoBlock layers that reuse the layer-1 assignment (proto
    # mixer only).
    n_layers: int = 1

    def __post_init__(self):
        if self.branch not in ("dual", "temporal", "entity"):
            raise ValueError(f"unknown branch mode {self.branch!r}")
        if self.lookback % self.segment_length != 0:
            raise ValueError(
                f"lookback {self.lookback} must be divisible by "
                f"segment_length {self.segment_length}"
            )

    @property
    def n_segments(self) -> int:
        return self.lookback // self.segment_length


class FOCUSForecaster(Module):
    """FOCUS: forecasting with offline clustering using segments.

    Parameters
    ----------
    config:
        Model hyperparameters.
    prototypes:
        ``(k, p)`` prototypes from the offline phase.  If ``None``, call
        :meth:`fit_prototypes` (or classmethod :meth:`from_training_data`)
        before the first forward pass.
    mixer / fusion:
        Internal switches used by :func:`make_focus_variant`.
    """

    def __init__(
        self,
        config: FOCUSConfig,
        prototypes: np.ndarray | None = None,
        mixer: str = "proto",
        fusion: str = "readout",
    ):
        super().__init__()
        self.config = config
        self.mixer_kind = mixer
        self.fusion_kind = fusion
        # Bumped on every prototype mutation (set_prototypes /
        # update_prototype).  The serving ForecastCache keys entries on
        # this so EMA adaptation invalidates stale cached forecasts.
        self._prototype_version = 0
        # Compiled execution plans (repro.engine), keyed by (bucketed
        # input shape, input dtype, prototype version, assignment_weights
        # overrides).  Guarded by a lock: serving threads share the
        # cache, and a build must not race a mutation-triggered
        # invalidation.
        self._plans: "collections.OrderedDict" = collections.OrderedDict()
        self._plan_lock = threading.Lock()
        # (key, plan) of the most recent hit, read without the lock.
        self._last_plan: tuple | None = None
        if prototypes is None:
            # Placeholder prototypes; fit_prototypes() replaces them.
            prototypes = np.zeros(
                (config.num_prototypes, config.segment_length),
                dtype=get_default_dtype(),
            )
            self._has_prototypes = mixer != "proto"
        else:
            prototypes = np.asarray(prototypes, dtype=get_default_dtype())
            expected = (config.num_prototypes, config.segment_length)
            if prototypes.shape != expected:
                raise ValueError(
                    f"prototypes shape {prototypes.shape} != expected {expected}"
                )
            self._has_prototypes = True
        if config.use_revin:
            self.revin = RevIN(config.num_entities, affine=True)
        else:
            self.revin = None
        self.extractor = DualBranchExtractor(
            prototypes,
            segment_length=config.segment_length,
            d_model=config.d_model,
            alpha=config.alpha,
            mixer=mixer,
            n_segments=config.n_segments,
            num_entities=config.num_entities,
            assignment=config.assignment,
            temperature=config.assignment_temperature,
            n_layers=config.n_layers if mixer == "proto" else 1,
        )
        if fusion == "readout":
            self.fusion = ParallelFusion(
                config.d_model, config.num_readout, config.horizon, config.n_segments
            )
        elif fusion == "linear":
            self.fusion = GatedLinearFusion(config.d_model, config.n_segments, config.horizon)
        else:
            raise ValueError(f"unknown fusion {fusion!r}")

    # ------------------------------------------------------------------
    # Offline phase
    # ------------------------------------------------------------------
    def fit_prototypes(
        self, train_data: np.ndarray, clustering: ClusteringConfig | None = None
    ) -> SegmentClusterer:
        """Run the offline clustering phase on ``(T, N)`` training data."""
        cfg = self.config
        clustering = clustering or ClusteringConfig(
            num_prototypes=cfg.num_prototypes,
            segment_length=cfg.segment_length,
            alpha=cfg.alpha,
        )
        if (
            clustering.num_prototypes != cfg.num_prototypes
            or clustering.segment_length != cfg.segment_length
        ):
            raise ValueError("clustering config disagrees with model config")
        clusterer = SegmentClusterer(clustering).fit(train_data)
        self.set_prototypes(clusterer.prototypes_)
        return clusterer

    def set_prototypes(self, prototypes: np.ndarray) -> None:
        prototypes = np.asarray(prototypes, dtype=get_default_dtype())
        for mixer in self._mixers():
            if hasattr(mixer, "prototypes"):
                mixer.prototypes[...] = prototypes
                if hasattr(mixer, "invalidate_cache"):
                    mixer.invalidate_cache()
        self._has_prototypes = True
        self._prototype_version += 1
        self._invalidate_plans()

    @property
    def prototype_version(self) -> int:
        """Monotonic counter of prototype mutations (cache invalidation)."""
        return self._prototype_version

    def prototype_values(self) -> np.ndarray | None:
        """A copy of the ``(k, p)`` prototype dictionary, or ``None`` when
        the active mixer is prototype-free (``"attn"`` / ``"linear"``).

        Used by streaming guardrails for prototype-mean imputation.
        Always a defensive copy — mutating the result must not corrupt
        the live dictionary shared by both mixers.
        """
        prototypes = getattr(self.extractor.temporal_mixer, "prototypes", None)
        if prototypes is None:
            return None
        return np.array(prototypes, copy=True)

    def assignment_profile(self, window: np.ndarray) -> dict:
        """Nearest-prototype routing profile of a ``(L, N)`` window.

        The drift-monitoring primitive (see
        :mod:`repro.telemetry.drift`): segments the window exactly like
        the online phase, assigns each segment to its nearest prototype
        under the composite distance, and returns

        - ``assignments`` — ``(N * l,)`` prototype indices,
        - ``counts`` — ``(k,)`` utilization histogram,
        - ``entropy`` — normalized assignment entropy in ``[0, 1]``,
        - ``mean_distance`` — mean nearest-prototype distance.
        """
        from repro.core.clustering import composite_distance
        from repro.data.segments import segment_series
        from repro.telemetry.drift import assignment_entropy

        prototypes = self.prototype_values()
        if prototypes is None:
            raise RuntimeError(
                "assignment profiles require a prototype mixer "
                "(the attn/linear variants have no dictionary)"
            )
        segments = segment_series(np.asarray(window), self.config.segment_length)
        distances = composite_distance(segments, prototypes, self.config.alpha)
        assignments = distances.argmin(axis=1)
        counts = np.bincount(assignments, minlength=self.config.num_prototypes)
        nearest = distances[np.arange(len(segments)), assignments]
        return {
            "assignments": assignments,
            "counts": counts,
            "entropy": assignment_entropy(counts),
            "mean_distance": float(nearest.mean()),
        }

    def update_prototype(self, index: int, value: np.ndarray) -> None:
        """Overwrite one prototype row in place (both mixers stay in sync).

        Used by streaming adaptation: updating a single row avoids
        rebuilding the full ``(k, p)`` dictionary per novel segment.
        """
        # Snapshot the value first: ``value`` may be a view into one
        # mixer's live dictionary, and writing the first mixer's row
        # must not change what the second mixer receives.
        value = np.array(value, copy=True)
        for mixer in self._mixers():
            # Row assignment below casts to each mixer's prototype dtype.
            if hasattr(mixer, "prototypes"):
                mixer.prototypes[index] = value
                if hasattr(mixer, "invalidate_cache"):
                    mixer.invalidate_cache()
        self._prototype_version += 1
        self._invalidate_plans()

    @classmethod
    def from_training_data(
        cls,
        config: FOCUSConfig,
        train_data: np.ndarray,
        clustering: ClusteringConfig | None = None,
    ) -> "FOCUSForecaster":
        """Offline phase + model construction in one call."""
        model = cls(config)
        model.fit_prototypes(train_data, clustering)
        return model

    # ------------------------------------------------------------------
    # Replication (prototype-bank / weight export for serving fleets)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """A picklable snapshot that fully reconstructs this model.

        The export half of the serving-fleet replication protocol
        (:mod:`repro.serving.fleet`): the paper's offline clustering
        makes the model a small read-only artifact at serving time, so
        shipping ``(config, weights, prototypes)`` to a worker process
        yields a bit-identical replica.  Prototypes ride along inside
        the state dict (they are registered buffers).
        """
        dtype = next(iter(self.parameters())).data.dtype
        return {
            "config": dataclasses.asdict(self.config),
            "mixer": self.mixer_kind,
            "fusion": self.fusion_kind,
            "dtype": np.dtype(dtype).name,
            "state": self.state_dict(),
            "prototype_version": self._prototype_version,
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "FOCUSForecaster":
        """Rebuild a bit-identical replica from :meth:`snapshot`.

        The import half of fleet replication: reconstructs the module
        tree under the snapshot's dtype, restores every parameter and
        buffer (including the prototype dictionary), and resumes the
        prototype version counter so replica caches fence consistently.
        """
        from repro.autograd.tensor import default_dtype

        config = FOCUSConfig(**snapshot["config"])
        with default_dtype(np.dtype(snapshot["dtype"])):
            model = cls(config, mixer=snapshot["mixer"], fusion=snapshot["fusion"])
        model.load_state_dict(snapshot["state"])
        model._has_prototypes = True
        model._prototype_version = snapshot["prototype_version"]
        # The ProtoAttn C_Q cache was primed against placeholder
        # prototypes during construction; drop it.
        for mixer in (model.extractor.temporal_mixer, model.extractor.entity_mixer):
            if hasattr(mixer, "invalidate_cache"):
                mixer.invalidate_cache()
        model.eval()
        return model

    # ------------------------------------------------------------------
    # Online phase
    # ------------------------------------------------------------------
    def forward(self, window: Tensor) -> Tensor:
        """Forecast ``(B, L_f, N)`` from a lookback window ``(B, L, N)``."""
        if not self._has_prototypes:
            raise RuntimeError(
                "prototypes not fitted; call fit_prototypes() or pass them in"
            )
        cfg = self.config
        if window.ndim != 3 or window.shape[1] != cfg.lookback or window.shape[2] != cfg.num_entities:
            raise ValueError(
                f"expected (B, {cfg.lookback}, {cfg.num_entities}) window, got {window.shape}"
            )
        if self.revin is not None:
            window = self.revin.normalize(window)
        batch = window.shape[0]
        # (B, L, N) -> (B, N, l, p)
        segments = ag.swapaxes(window, 1, 2).reshape(
            batch, cfg.num_entities, cfg.n_segments, cfg.segment_length
        )
        h_t, h_e = self.extractor(segments)
        if cfg.branch == "temporal":
            h_e = h_t
        elif cfg.branch == "entity":
            h_t = h_e
        forecast = self.fusion(h_t, h_e)  # (B, N, L_f)
        forecast = ag.swapaxes(forecast, 1, 2)  # (B, L_f, N)
        if self.revin is not None:
            forecast = self.revin.denormalize(forecast)
        return forecast

    def forecast_batch(self, windows: np.ndarray, engine: str = "eager") -> np.ndarray:
        """Batched inference: ``(B, L, N)`` windows → ``(B, L_f, N)``.

        The serving hot path (:class:`repro.serving.MicroBatcher`): one
        gradient-free forward amortizes segment embedding and ProtoAttn
        across ``B`` concurrent requests.  Every per-sample computation
        in the network (RevIN statistics, prototype assignment, the
        attention rows, the fusion readout) is independent across the
        batch axis, so in float64 each row of the result is bit-identical
        to a single-window forward of the same window — the invariant the
        serving equivalence suite (``tests/serving``) pins down.

        ``engine`` selects the executor: ``"eager"`` (default) runs the
        autograd forward and stays the reference implementation;
        ``"plan"`` replays a compiled :class:`repro.engine.ExecutionPlan`
        — bit-identical to eager in float64 (``tests/plan`` pins it) but
        free of per-op Python dispatch.  The plan engine rounds ``B`` up
        to the next power of two, pads with copies of the last window and
        returns the first ``B`` rows — exact, because rows never interact
        — so one plan serves every batch size in its bucket (six cover
        ``B <= 32``).  Plans are traced on first use per (bucketed shape,
        dtype, prototype version, ``assignment_weights`` overrides) and
        invalidated by ``set_prototypes`` / ``update_prototype`` /
        ``to_dtype``; per-thread arenas make concurrent replay safe.

        Returns a fresh float64 array that aliases no internal buffer.
        """
        windows = np.asarray(windows)
        cfg = self.config
        if windows.ndim != 3 or windows.shape[1:] != (cfg.lookback, cfg.num_entities):
            raise ValueError(
                f"expected (B, {cfg.lookback}, {cfg.num_entities}) windows, "
                f"got {windows.shape}"
            )
        if check_engine(engine) == "plan":
            if windows.dtype.kind != "f":
                # Mirror Tensor.__init__'s coercion of non-float inputs so
                # the plan's input signature matches what eager would run.
                windows = windows.astype(get_default_dtype())
            prediction = self._replay_bucketed(windows)
        else:
            with ag.no_grad():
                prediction = self(Tensor(windows)).data
        # .astype always copies — serving hands forecasts to callers that
        # may mutate them, and the engine may reuse forward buffers (the
        # plan replay returns a per-thread arena buffer).
        return prediction.astype(np.float64)

    # ------------------------------------------------------------------
    # Plan engine (repro.engine)
    # ------------------------------------------------------------------
    #: Plans kept per model.  Batch sizes share power-of-two buckets, so
    #: 8 entries hold every bucket of ``B <= 128`` for one dtype.
    PLAN_CACHE_CAPACITY = 8

    def _replay_bucketed(self, windows: np.ndarray) -> np.ndarray:
        """Replay the plan of ``windows``' power-of-two batch bucket.

        Pad rows copy the last window and are sliced off again: every
        per-sample computation is independent across the batch axis, so
        they cannot change a real row.
        """
        batch = windows.shape[0]
        bucket = 1 << (batch - 1).bit_length() if batch > 1 else batch
        if bucket != batch:
            padded = np.empty((bucket,) + windows.shape[1:], dtype=windows.dtype)
            padded[:batch] = windows
            padded[batch:] = windows[-1]
            windows = padded
        prediction = self._plan_for(windows).replay(windows)
        if bucket != batch:
            # Both mixers flatten with the batch axis outermost, so the
            # pad rows' labels are a contiguous tail: trim it to leave
            # what an eager forward on the real rows leaves.
            for mixer in self._mixers():
                labels = getattr(mixer, "last_assignment_", None)
                if labels is not None:
                    mixer.last_assignment_ = labels[: labels.shape[0] // bucket * batch]
        return prediction[:batch]

    def _mixers(self) -> tuple:
        return (self.extractor.temporal_mixer, self.extractor.entity_mixer)

    def _plan_for(self, windows: np.ndarray):
        """Fetch (or trace and compile) the plan for this input signature."""
        # An instance-level ``assignment_weights`` override (the knockout
        # attribution patches one) changes how ProtoAttn routes, so the
        # key holds the override objects: setting or popping one retraces.
        overrides = tuple(vars(mixer).get("assignment_weights") for mixer in self._mixers())
        key = (windows.shape, windows.dtype.str, self._prototype_version, overrides)
        # Lock-free fast path for the steady state (same shape, same
        # bank): safe because the key embeds the prototype version, so a
        # stale cached pair can never match a post-mutation key.
        cached = self._last_plan
        if cached is not None and cached[0] == key:
            return cached[1]
        with self._plan_lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self._last_plan = (key, plan)
                return plan
            plan = self._trace_plan(windows)
            # Plans traced under older prototype banks can never hit
            # again — the version is part of the key — so drop them.
            for stale in [k for k in self._plans if k[2] != key[2]]:
                del self._plans[stale]
            self._plans[key] = plan
            while len(self._plans) > self.PLAN_CACHE_CAPACITY:
                self._plans.popitem(last=False)
            self._last_plan = (key, plan)
            return plan

    def _trace_plan(self, windows: np.ndarray):
        """Capture one eager forward on ``windows`` and lower it."""
        from repro.autograd import capture_graph
        from repro.engine import compile_plan

        with ag.no_grad(), capture_graph() as capture:
            traced = Tensor(windows)
            capture.mark_input(traced)
            output = self(traced)
        # compile_plan self-checks: the fresh plan must reproduce the
        # traced forward bit-for-bit before it is ever served.
        return compile_plan(capture, [traced], output)

    def plan_stats(self):
        """Compile stats of the most recently used plan (or ``None``).

        A :class:`repro.engine.PlanStats`; benches and tests read it to
        report op counts, folded constants, and arena footprint.
        """
        cached = self._last_plan
        return None if cached is None else cached[1].stats

    def _invalidate_plans(self) -> None:
        with self._plan_lock:
            self._plans.clear()
            self._last_plan = None

    def to_dtype(self, dtype) -> "FOCUSForecaster":
        # Casting replaces parameter/buffer arrays, severing the live
        # references a compiled plan folded in — retrace from scratch.
        result = super().to_dtype(dtype)
        self._invalidate_plans()
        return result

    def dependency_matrix(self) -> np.ndarray:
        """Temporal-branch dependency map from the last forward (Fig. 13)."""
        mixer = self.extractor.temporal_mixer
        if not hasattr(mixer, "dependency_matrix"):
            raise RuntimeError("dependency matrices require the ProtoAttn mixer")
        return mixer.dependency_matrix()

    def _extra_repr(self) -> str:
        cfg = self.config
        return (
            f"(L={cfg.lookback}, L_f={cfg.horizon}, N={cfg.num_entities}, "
            f"p={cfg.segment_length}, k={cfg.num_prototypes}, d={cfg.d_model}, "
            f"mixer={self.mixer_kind}, fusion={self.fusion_kind})"
        )


def make_focus_variant(
    variant: str,
    config: FOCUSConfig,
    prototypes: np.ndarray | None = None,
) -> FOCUSForecaster:
    """Build FOCUS or one of the Table IV ablation variants.

    - ``"focus"``       — full model (ProtoAttn + readout fusion);
    - ``"attn"``        — FOCUS-Attn: extractors use full self-attention;
    - ``"lnr_fusion"``  — FOCUS-LnrFusion: gated-linear fusion head;
    - ``"all_lnr"``     — FOCUS-AllLnr: linear extractors AND linear fusion.
    """
    variants = {
        "focus": ("proto", "readout"),
        "attn": ("attn", "readout"),
        "lnr_fusion": ("proto", "linear"),
        "all_lnr": ("linear", "linear"),
    }
    if variant not in variants:
        raise ValueError(f"unknown variant {variant!r}; choose from {sorted(variants)}")
    mixer, fusion = variants[variant]
    return FOCUSForecaster(config, prototypes=prototypes, mixer=mixer, fusion=fusion)
