"""Offline segment clustering (paper Sec. V, Algorithm 1).

Segments are assigned to prototypes under the composite distance of
Eq. (6)/(13):

    Dis(P, c) = ||P - c||^2 + alpha * (1 - corr(P, c))

and prototypes are refined with AdamW on the combined objective of
Eq. (10):

    L = L_rec + alpha * L_corr
      = sum_j ||c_j - mean(B_j)||^2
        - alpha * sum_j (1/|B_j|) sum_{P in B_j} corr(P, c_j)

The ``use_correlation=False`` switch realizes the paper's *Rec Only*
ablation (Fig. 8): plain Euclidean k-means-style clustering.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import autograd as ag
from repro.autograd import Tensor
from repro.autograd.tensor import get_default_dtype
from repro.data.segments import segment_series
from repro.optim import AdamW


def _distance_state(
    workspace: dict | None, segments: np.ndarray, prototypes: np.ndarray
) -> dict:
    """Scratch buffers and prototype statistics for one ``(n, p) x (k, p)`` call.

    Kept in ``workspace["distance"]`` and rebuilt when the segment shape
    or dtype, or the prototype array object, changes.  Buffer dtypes
    follow numpy's promotion of the plain expressions: per-segment
    quantities in the segment dtype, ``(n, k)`` ones in the common dtype.
    """
    state = None if workspace is None else workspace.get("distance")
    if (
        state is not None
        and state["prototypes"] is prototypes
        and state["segments"] == (segments.shape, segments.dtype)
    ):
        return state
    n, k = segments.shape[0], prototypes.shape[0]
    seg_dtype = segments.dtype
    dtype = np.result_type(segments, prototypes)
    pro_centered = prototypes - prototypes.mean(axis=1, keepdims=True)
    state = {
        "prototypes": prototypes,
        "segments": (segments.shape, seg_dtype),
        # ``.T`` views, exactly as ``x @ w.T`` would pass them (same memory
        # layout, so the same BLAS call and summation order).
        "pro_sq": (prototypes**2).sum(axis=1)[None, :],
        "prototypes_t": prototypes.T,
        "pro_centered_t": pro_centered.T,
        "pro_norm_t": np.linalg.norm(pro_centered, axis=1, keepdims=True).T,
        # Segment-shaped buffers keep the segments' memory order, as the
        # temporaries of ``segments**2`` would (reduction order follows it).
        "sq": np.empty_like(segments),
        "red": np.empty((n, 1), seg_dtype),
        "centered": np.empty_like(segments),
        "dist": np.empty((n, k), dtype),
        "cross": np.empty((n, k), dtype),
        "numer": np.empty((n, k), dtype),
        "denom": np.empty((n, k), dtype),
        "mask": np.empty((n, k), bool),
    }
    if workspace is not None:
        workspace["distance"] = state
    return state


def _operands(segments: np.ndarray, prototypes: np.ndarray):
    """Float operands; a strided ``segments`` view gets a copy in its own
    axis order (the layout the temporary of ``2.0 * segments`` has)."""
    segments, prototypes = np.asarray(segments), np.asarray(prototypes)
    if segments.dtype.kind != "f":
        segments = segments.astype(np.float64)
    elif not (segments.flags.c_contiguous or segments.flags.f_contiguous):
        segments = segments.copy(order="K")
    if prototypes.dtype.kind != "f":
        prototypes = prototypes.astype(np.float64)
    return segments, prototypes


def _pearson_into(segments: np.ndarray, state: dict) -> np.ndarray:
    """Pearson correlation of segments vs prototypes into ``state["numer"]``."""
    # segments.mean(axis=1, keepdims=True), then center.
    mean = np.add.reduce(segments, axis=1, keepdims=True, out=state["red"])
    np.true_divide(mean, segments.shape[1], out=mean)
    centered = np.subtract(segments, mean, out=state["centered"])
    # np.linalg.norm(centered, axis=1, keepdims=True)
    sq = np.multiply(centered, centered, out=state["sq"])
    seg_norm = np.add.reduce(sq, axis=1, keepdims=True, out=state["red"])
    np.sqrt(seg_norm, out=seg_norm)
    corr = np.matmul(centered, state["pro_centered_t"], out=state["numer"])
    denom = np.matmul(seg_norm, state["pro_norm_t"], out=state["denom"])
    with np.errstate(invalid="ignore", divide="ignore"):
        keep = np.greater(denom, 1e-12, out=state["mask"])
        np.maximum(denom, 1e-12, out=denom)
        np.true_divide(corr, denom, out=corr)
    # Zero-variance (and NaN) rows: correlation 0.
    np.copyto(corr, 0.0, where=np.logical_not(keep, out=keep))
    return np.clip(corr, -1.0, 1.0, out=corr)


def pearson_rows(segments: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    """Pairwise Pearson correlation of ``(n, p)`` rows vs ``(k, p)`` rows.

    Zero-variance rows get correlation 0 against everything (a flat
    segment is shape-neutral).
    """
    segments, prototypes = _operands(segments, prototypes)
    return _pearson_into(segments, _distance_state(None, segments, prototypes))


def composite_distance(
    segments: np.ndarray,
    prototypes: np.ndarray,
    alpha: float,
    workspace: dict | None = None,
) -> np.ndarray:
    """Eq. (13): squared Euclidean plus ``alpha * (1 - Pearson)``, ``(n, k)``.

    The one implementation of the composite distance, written with
    ``out=`` buffers.  Without ``workspace`` every call gets fresh ones.
    A caller that computes distances repeatedly (a compiled plan) passes
    the same dict each time: buffers and prototype statistics are then
    reused while the segment shape, the dtypes and the prototype array
    object stay the same, and the returned array is a workspace buffer,
    valid until the next call.  The prototype values must not change
    while a workspace is reused.
    """
    segments, prototypes = _operands(segments, prototypes)
    state = _distance_state(workspace, segments, prototypes)
    # ||s||^2 + ||c||^2 - 2 s.c, clamped at zero.
    sq = np.multiply(segments, segments, out=state["sq"])
    seg_sq = np.add.reduce(sq, axis=1, keepdims=True, out=state["red"])
    dist = np.add(seg_sq, state["pro_sq"], out=state["dist"])
    cross = np.matmul(segments, state["prototypes_t"], out=state["cross"])
    np.multiply(cross, 2.0, out=cross)
    np.subtract(dist, cross, out=dist)
    np.maximum(dist, 0.0, out=dist)
    if alpha == 0.0:
        return dist
    corr = _pearson_into(segments, state)
    np.subtract(1.0, corr, out=corr)
    np.multiply(alpha, corr, out=corr)
    return np.add(dist, corr, out=dist)


def _pearson_tensor(segments: np.ndarray, prototype: Tensor) -> Tensor:
    """Differentiable Pearson correlation of each segment row vs one prototype."""
    seg = segments - segments.mean(axis=1, keepdims=True)  # (n, p) constant
    seg_norm = np.linalg.norm(seg, axis=1)
    seg_norm = np.where(seg_norm < 1e-12, 1.0, seg_norm)
    centered = prototype - prototype.mean()
    norm = ag.sqrt((centered * centered).sum() + 1e-12)
    projections = ag.matmul(Tensor(seg / seg_norm[:, None]), centered)
    return projections / norm  # (n,)


@dataclasses.dataclass
class ClusteringConfig:
    """Hyperparameters of the offline phase.

    ``alpha=0.2`` is the paper's setting (Sec. VIII-A);
    ``use_correlation=False`` gives the *Rec Only* ablation.
    ``refine_impl`` selects the prototype-refinement kernel:
    ``"vectorized"`` (default) optimizes one batched ``(k, p)`` tensor,
    ``"loop"`` keeps the original one-Tensor-per-prototype reference
    implementation for equivalence testing and benchmarking.
    """

    num_prototypes: int = 8
    segment_length: int = 12
    alpha: float = 0.2
    max_iters: int = 25
    refine_steps: int = 5
    lr: float = 0.05
    weight_decay: float = 0.0
    tol: float = 1e-6
    use_correlation: bool = True
    seed: int = 0
    refine_impl: str = "vectorized"

    def __post_init__(self):
        if self.refine_impl not in ("vectorized", "loop"):
            raise ValueError(
                f"refine_impl must be 'vectorized' or 'loop', got {self.refine_impl!r}"
            )

    @property
    def effective_alpha(self) -> float:
        return self.alpha if self.use_correlation else 0.0


class SegmentClusterer:
    """Discovers representative segment patterns (prototypes) offline.

    Usage::

        clusterer = SegmentClusterer(ClusteringConfig(num_prototypes=8,
                                                      segment_length=12))
        clusterer.fit(train_data)           # (T, N) or (n_segments, p)
        labels = clusterer.assign(segments) # nearest-prototype indices
        prototypes = clusterer.prototypes_  # (k, p)
    """

    def __init__(self, config: ClusteringConfig | None = None, **kwargs):
        if config is None:
            config = ClusteringConfig(**kwargs)
        elif kwargs:
            config = dataclasses.replace(config, **kwargs)
        self.config = config
        self.prototypes_: np.ndarray | None = None
        self.loss_history_: list[float] = []
        self.n_iter_: int = 0

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def _as_segments(self, data: np.ndarray) -> np.ndarray:
        data = np.asarray(data, dtype=get_default_dtype())
        p = self.config.segment_length
        if data.ndim == 2 and data.shape[1] == p:
            return data
        return segment_series(data, p)

    def _init_prototypes(self, segments: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """k-means++-style seeding under the composite distance."""
        k = self.config.num_prototypes
        n = segments.shape[0]
        if n < k:
            raise ValueError(f"need at least k={k} segments, got {n}")
        alpha = self.config.effective_alpha
        chosen = [int(rng.integers(n))]
        for _ in range(k - 1):
            dists = composite_distance(segments, segments[chosen], alpha).min(axis=1)
            dists = np.maximum(dists, 0.0)
            total = dists.sum()
            if total <= 0.0:
                chosen.append(int(rng.integers(n)))
                continue
            chosen.append(int(rng.choice(n, p=dists / total)))
        return segments[chosen].copy()

    def fit(self, data: np.ndarray) -> "SegmentClusterer":
        """Run Algorithm 1 until assignment stability or ``max_iters``."""
        cfg = self.config
        segments = self._as_segments(data)
        rng = np.random.default_rng(cfg.seed)
        prototypes = self._init_prototypes(segments, rng)
        previous_labels: np.ndarray | None = None
        self.loss_history_ = []

        for iteration in range(cfg.max_iters):
            labels = composite_distance(segments, prototypes, cfg.effective_alpha).argmin(axis=1)
            self._fix_empty_buckets(labels, segments, prototypes, rng)
            prototypes, loss = self._refine_prototypes(segments, labels, prototypes)
            self.loss_history_.append(loss)
            self.n_iter_ = iteration + 1
            if previous_labels is not None and np.array_equal(labels, previous_labels):
                if (
                    len(self.loss_history_) >= 2
                    and abs(self.loss_history_[-2] - loss) < cfg.tol
                ):
                    break
            previous_labels = labels

        self.prototypes_ = prototypes
        return self

    def _fix_empty_buckets(
        self,
        labels: np.ndarray,
        segments: np.ndarray,
        prototypes: np.ndarray,
        rng: np.random.Generator,
    ) -> None:
        """Re-seed any empty prototype at the segment farthest from its own."""
        cfg = self.config
        counts = np.bincount(labels, minlength=cfg.num_prototypes)
        empty = np.where(counts == 0)[0]
        if not len(empty):
            return
        # One full (n, k) distance computation; re-seeding prototype j only
        # changes the own-prototype distance of the segment moved into
        # bucket j (nothing was assigned to j before), so the remaining
        # entries stay valid and are patched incrementally.
        own = composite_distance(segments, prototypes, cfg.effective_alpha)[
            np.arange(len(labels)), labels
        ]
        for j in empty:
            worst = int(own.argmax())
            prototypes[j] = segments[worst] + 1e-6 * rng.standard_normal(
                segments.shape[1]
            )
            labels[worst] = j
            own[worst] = composite_distance(
                segments[worst : worst + 1], prototypes[j : j + 1], cfg.effective_alpha
            )[0, 0]

    def _refine_prototypes(
        self, segments: np.ndarray, labels: np.ndarray, prototypes: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Gradient refinement of Eq. (10) with AdamW (paper Sec. V)."""
        if self.config.refine_impl == "loop":
            return self._refine_prototypes_loop(segments, labels, prototypes)
        return self._refine_prototypes_vectorized(segments, labels, prototypes)

    def _refine_prototypes_vectorized(
        self, segments: np.ndarray, labels: np.ndarray, prototypes: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Batched refinement: one ``(k, p)`` parameter tensor.

        The Pearson term of Eq. (10) is linear in the (fixed) segments, so
        each bucket's mean correlation collapses to a dot product between
        the prototype and the precomputed mean of the bucket's unit-
        normalized centered segments — O(n·p) setup once per call instead
        of per optimizer step, and a graph of ~10 batched ops instead of
        O(k) small ones.  AdamW updates are elementwise, so the trajectory
        matches the per-prototype reference implementation.
        """
        cfg = self.config
        k = cfg.num_prototypes
        params = Tensor(prototypes.copy(), requires_grad=True)  # (k, p)
        optimizer = AdamW([params], lr=cfg.lr, weight_decay=cfg.weight_decay)

        counts = np.bincount(labels, minlength=k).astype(segments.dtype)
        occupied = counts > 0
        sums = np.zeros_like(prototypes)
        np.add.at(sums, labels, segments)
        # Empty buckets are anchored to their incoming prototype (the
        # reconstruction term then has zero initial gradient), exactly as
        # the reference implementation does.
        means = Tensor(
            np.where(
                occupied[:, None], sums / np.maximum(counts, 1.0)[:, None], prototypes
            )
        )

        use_corr = cfg.use_correlation and bool(occupied.any())
        if use_corr:
            seg = segments - segments.mean(axis=1, keepdims=True)
            seg_norm = np.linalg.norm(seg, axis=1)
            seg_norm = np.where(seg_norm < 1e-12, 1.0, seg_norm)
            unit = seg / seg_norm[:, None]
            unit_mean = np.zeros_like(prototypes)
            np.add.at(unit_mean, labels, unit)
            unit_mean /= np.maximum(counts, 1.0)[:, None]
            unit_mean = Tensor(unit_mean)
            corr_mask = Tensor(occupied.astype(segments.dtype))

        final_loss = 0.0
        for _ in range(cfg.refine_steps):
            diff = params - means
            loss = (diff * diff).sum()
            if use_corr:
                centered = params - params.mean(axis=1, keepdims=True)
                norm = ag.sqrt((centered * centered).sum(axis=1) + 1e-12)
                corr = (unit_mean * centered).sum(axis=1) / norm  # (k,)
                loss = loss + (corr * corr_mask).sum() * (-cfg.alpha)
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            final_loss = loss.item()
        return params.data.copy(), final_loss

    def _refine_prototypes_loop(
        self, segments: np.ndarray, labels: np.ndarray, prototypes: np.ndarray
    ) -> tuple[np.ndarray, float]:
        """Reference implementation: one Tensor per prototype, looped in
        Python.  Kept for equivalence tests and the hot-path benchmark."""
        cfg = self.config
        proto_params = [Tensor(prototypes[j].copy(), requires_grad=True) for j in range(cfg.num_prototypes)]
        optimizer = AdamW(proto_params, lr=cfg.lr, weight_decay=cfg.weight_decay)
        bucket_segments = [segments[labels == j] for j in range(cfg.num_prototypes)]
        bucket_means = [
            bucket.mean(axis=0) if len(bucket) else prototypes[j]
            for j, bucket in enumerate(bucket_segments)
        ]

        final_loss = 0.0
        for _ in range(cfg.refine_steps):
            loss_terms = []
            for j, param in enumerate(proto_params):
                diff = param - Tensor(bucket_means[j])
                rec = (diff * diff).sum()
                loss_terms.append(rec)
                if cfg.use_correlation and len(bucket_segments[j]):
                    corr = _pearson_tensor(bucket_segments[j], param).mean()
                    loss_terms.append(corr * (-cfg.alpha))
            loss = loss_terms[0]
            for term in loss_terms[1:]:
                loss = loss + term
            optimizer.zero_grad()
            loss.backward()
            optimizer.step()
            final_loss = loss.item()
        refined = np.stack([param.data for param in proto_params])
        return refined, final_loss

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def _check_fitted(self) -> None:
        if self.prototypes_ is None:
            raise RuntimeError("clusterer is not fitted; call fit() first")

    def assign(self, segments: np.ndarray) -> np.ndarray:
        """Nearest-prototype index per segment, Eq. (6)."""
        self._check_fitted()
        segments = self._as_segments(segments)
        return composite_distance(
            segments, self.prototypes_, self.config.effective_alpha
        ).argmin(axis=1)

    def assignment_matrix(self, segments: np.ndarray) -> np.ndarray:
        """One-hot assignment matrix ``A`` of Sec. VI-A, shape ``(n, k)``."""
        labels = self.assign(segments)
        matrix = np.zeros((len(labels), self.config.num_prototypes))
        matrix[np.arange(len(labels)), labels] = 1.0
        return matrix

    def inertia(self, segments: np.ndarray) -> float:
        """Mean composite distance of segments to their prototypes."""
        self._check_fitted()
        segments = self._as_segments(segments)
        dists = composite_distance(segments, self.prototypes_, self.config.effective_alpha)
        return float(dists.min(axis=1).mean())

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Serialize prototypes + config to a compressed npz archive."""
        self._check_fitted()
        np.savez_compressed(
            path,
            prototypes=self.prototypes_,
            loss_history=np.asarray(self.loss_history_),
            n_iter=self.n_iter_,
            **{
                f"config_{field.name}": np.asarray(getattr(self.config, field.name))
                for field in dataclasses.fields(ClusteringConfig)
            },
        )

    @classmethod
    def load(cls, path: str) -> "SegmentClusterer":
        """Restore a fitted clusterer saved with :meth:`save`."""
        with np.load(path) as archive:
            defaults = ClusteringConfig()
            kwargs = {
                field.name: type(getattr(defaults, field.name))(
                    archive[f"config_{field.name}"].item()
                )
                for field in dataclasses.fields(ClusteringConfig)
                # Archives written before a config field existed fall back
                # to that field's default.
                if f"config_{field.name}" in archive.files
            }
            clusterer = cls(ClusteringConfig(**kwargs))
            clusterer.prototypes_ = archive["prototypes"].copy()
            clusterer.loss_history_ = archive["loss_history"].tolist()
            clusterer.n_iter_ = int(archive["n_iter"])
        return clusterer

    def reconstruct(self, segments: np.ndarray, match_moments: bool = False) -> np.ndarray:
        """Replace each segment by its prototype (Fig. 11's approximation).

        With ``match_moments=True`` each prototype copy is rescaled to the
        segment's mean and standard deviation, as in the paper's case
        study ("each prototype adjusted to maintain the original mean and
        standard deviation").
        """
        self._check_fitted()
        segments = self._as_segments(segments)
        labels = self.assign(segments)
        approx = self.prototypes_[labels].copy()
        if match_moments:
            seg_mean = segments.mean(axis=1, keepdims=True)
            seg_std = segments.std(axis=1, keepdims=True)
            app_mean = approx.mean(axis=1, keepdims=True)
            app_std = approx.std(axis=1, keepdims=True)
            app_std = np.where(app_std < 1e-12, 1.0, app_std)
            approx = (approx - app_mean) / app_std * seg_std + seg_mean
        return approx
