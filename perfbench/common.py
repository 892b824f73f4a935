"""Shared fixture of the per-request benchmark: pinned model, seeded
inputs, timed set-up, the correctness oracle and summary statistics.

Every workload serves or trains the same pinned model (the ROADMAP
serving config: L=96, N=8, p=12, k=8, d=32, horizon 12).  Weights are
initialised from a fixed seed, so the model is identical in every run;
the ``--seed`` argument only drives the generated inputs (the series,
the entity streams, the arrival schedule) and therefore the prototypes,
which come from the offline clustering phase on the training split.
"""

from __future__ import annotations

import resource
import statistics
import time

import numpy as np

from repro.core.clustering import ClusteringConfig, SegmentClusterer
from repro.core.model import FOCUSConfig, FOCUSForecaster
from repro.data.synthetic import generate_domain
from repro.nn import init as nn_init

LOOKBACK = 96
HORIZON = 12
NUM_ENTITIES = 8
SEGMENT = 12
PROTOTYPES = 8
D_MODEL = 32
READOUT = 2
WEIGHT_SEED = 0

#: Weather-like surrogate (N=8 channels, 10-minute sampling).
DOMAIN = "weather"
STEPS_PER_DAY = 144
#: Training rows per series (a whole number of segments).
TRAIN_ROWS = 336
#: Independent series pooled per seed (see :func:`make_corpus`).
SERIES = 32


def model_config() -> FOCUSConfig:
    return FOCUSConfig(
        lookback=LOOKBACK,
        horizon=HORIZON,
        num_entities=NUM_ENTITIES,
        segment_length=SEGMENT,
        num_prototypes=PROTOTYPES,
        d_model=D_MODEL,
        num_readout=READOUT,
    )


def make_series(seed: int, rest_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """A standardized series split into ``TRAIN_ROWS`` training rows and
    ``rest_rows`` held-out rows.

    Statistics come from the training split only, as in
    :func:`repro.data.loading.load_dataset`.
    """
    raw = generate_domain(
        DOMAIN, length=TRAIN_ROWS + rest_rows, num_entities=NUM_ENTITIES,
        steps_per_day=STEPS_PER_DAY, seed=seed,
    )
    mean = raw[:TRAIN_ROWS].mean(axis=0)
    std = raw[:TRAIN_ROWS].std(axis=0) + 1e-8
    data = (raw - mean) / std
    return data[:TRAIN_ROWS], data[TRAIN_ROWS:]


def make_corpus(seed: int, rest_rows: int) -> tuple[np.ndarray, list[np.ndarray]]:
    """``SERIES`` independent series from one seed.

    Each synthetic series draws its own motifs and noise levels, so one
    series alone makes a seed an easy or a hard dataset; pooling several
    keeps accuracy figures comparable across seeds.  Returns the pooled
    training splits (the clustering input, a fixed size for every
    workload) and each series' held-out rows.
    """
    parts = [make_series(seed * SERIES + index, rest_rows) for index in range(SERIES)]
    return np.concatenate([train for train, _ in parts]), [rest for _, rest in parts]


def entity_streams(
    rests: list[np.ndarray], lengths: list[int], rng: np.random.Generator
) -> list[np.ndarray]:
    """One contiguous held-out slice per entity, series taken in turn.

    Each stream holds the warm-fill lookback, every row the workload
    will send, and ``HORIZON`` realized rows beyond the last one (the
    ground truth of the last answer).
    """
    streams = []
    for index, length in enumerate(lengths):
        rest = rests[index % len(rests)]
        if length > len(rest):
            raise ValueError(f"stream of {length} rows exceeds the series")
        start = int(rng.integers(0, len(rest) - length + 1))
        streams.append(np.ascontiguousarray(rest[start : start + length]))
    return streams


def build_model(train: np.ndarray) -> tuple[FOCUSForecaster, float]:
    """Pinned model with prototypes from the offline phase.

    Returns the model and the seconds spent in ``fit_prototypes``.
    """
    nn_init.seed(WEIGHT_SEED)
    model = FOCUSForecaster(model_config())
    started = time.perf_counter()
    model.fit_prototypes(train)
    fit_s = time.perf_counter() - started
    model.eval()
    return model, fit_s


def swap_banks(train: np.ndarray, count: int) -> list[np.ndarray]:
    """Alternative prototype banks, fitted before timing from disjoint
    slices of the training split (different clustering seeds too)."""
    banks = []
    slices = np.array_split(np.arange(len(train)), count)
    for index, rows in enumerate(slices):
        clusterer = SegmentClusterer(
            ClusteringConfig(
                num_prototypes=PROTOTYPES, segment_length=SEGMENT,
                seed=index + 1,
            )
        ).fit(train[rows])
        banks.append(clusterer.prototypes_)
    return banks


def timed_setups(build, repeats: int):
    """Run ``build()`` ``repeats`` times; keep the last result.

    ``build`` returns ``(resource, close, fit_s)``; every earlier
    resource is closed.  Returns ``(resource, close, setup_s, fit_s)``
    with the median set-up and clustering times.
    """
    durations, fits = [], []
    kept = None
    for _ in range(repeats):
        if kept is not None:
            kept[1]()
        started = time.perf_counter()
        resource_, close, fit_s = build()
        durations.append(time.perf_counter() - started)
        fits.append(fit_s)
        kept = (resource_, close)
    return kept[0], kept[1], statistics.median(durations), statistics.median(fits)


# ----------------------------------------------------------------------
# Correctness oracle
# ----------------------------------------------------------------------
def window_at(stream: np.ndarray, version: int) -> np.ndarray:
    """The lookback window an entity's ring held at ``version``
    (the count of rows accepted so far)."""
    return stream[version - LOOKBACK : version]


def expected_model_forecasts(model, windows: list[np.ndarray]) -> np.ndarray:
    """Eager ``forecast_batch`` (the reference engine) on every window.

    Rows of a batched eager forward are bit-identical to single-window
    forwards in float64, so chunking only saves time.
    """
    if not windows:
        return np.zeros((0, HORIZON, NUM_ENTITIES))
    stacked = np.stack(windows)
    return np.concatenate([
        model.forecast_batch(stacked[start : start + 64])
        for start in range(0, len(stacked), 64)
    ])


def persistence(window: np.ndarray) -> np.ndarray:
    return np.tile(window[-1], (HORIZON, 1))


def check_answers(model, answers: list[tuple]) -> list[bool]:
    """Oracle over ``(stream, version, response)`` triples.

    A ``model`` or ``cache`` answer must equal the eager forecast of the
    window rebuilt from the generated stream at the response's ring
    version, bit for bit; a ``fallback:*`` or ``rejected:*`` answer must
    equal the persistence forecast of that window.
    """
    ok = [False] * len(answers)
    rows: dict[tuple[int, int], int] = {}  # (stream, version) -> window row
    windows, model_rows = [], []
    for index, (stream, version, response) in enumerate(answers):
        if version < LOOKBACK or version > len(stream) - HORIZON:
            continue
        window = window_at(stream, version)
        if response.source in ("model", "cache"):
            key = (id(stream), version)
            if key not in rows:
                rows[key] = len(windows)
                windows.append(window)
            model_rows.append((index, rows[key]))
        elif response.source.startswith(("fallback:", "rejected:")):
            ok[index] = _bit_equal(response.forecast, persistence(window))
    expected = expected_model_forecasts(model, windows)
    for index, row in model_rows:
        ok[index] = _bit_equal(answers[index][2].forecast, expected[row])
    return ok


def _bit_equal(actual: np.ndarray, expected: np.ndarray) -> bool:
    actual = np.asarray(actual)
    return (
        actual.dtype == np.float64
        and actual.shape == expected.shape
        and np.array_equal(actual, expected)
    )


def answer_error(response, stream: np.ndarray) -> tuple[str, float, float]:
    """``(entity, answer MAE, persistence MAE)`` of one answer against
    the rows realized after its ring version."""
    version = response.ring_version
    realized = stream[version : version + HORIZON]
    naive = persistence(window_at(stream, version))
    return (
        response.entity,
        float(np.abs(np.asarray(response.forecast) - realized).mean()),
        float(np.abs(naive - realized).mean()),
    )


def mae_ratio(errors: list[tuple[str, float, float]]) -> float:
    """MAE of the answers over the MAE of persistence on the same
    windows, per entity, averaged over entities.

    ``errors`` holds ``(entity, answer MAE, persistence MAE)``.  The
    ratio is scale-free, so calm and noisy series read alike, and the
    per-entity average keeps a few popular entities from deciding it.
    """
    if not errors:
        return float("nan")
    sums: dict[str, np.ndarray] = {}
    for entity, model, naive in errors:
        sums.setdefault(entity, np.zeros(2))
        sums[entity] += (model, naive)
    return float(np.mean([model / naive for model, naive in sums.values()]))


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50.0)


#: Runs are cut into this many consecutive slices; tail latency,
#: throughput and SLO attainment are medians over the slices, so a few
#: seconds of contention on a shared host do not decide a run's figure,
#: while a cost the program pays all through the run still shows.
SLICES = 10


def sliced(values, statistic, slices: int = SLICES) -> float:
    """Median over ``slices`` consecutive slices of time-ordered
    ``values`` of ``statistic(slice)``."""
    values = np.asarray(values, dtype=np.float64)
    if len(values) == 0:
        return 0.0
    parts = [part for part in np.array_split(values, slices) if len(part)]
    return float(np.median([statistic(part) for part in parts]))


def sliced_percentile(values, q: float) -> float:
    """The ``q``-th percentile as the median of per-slice percentiles;
    every slice keeps at least ten samples beyond ``q`` (one slice when
    there are too few for two)."""
    per_slice = int(np.ceil(10 / (1 - q / 100)))
    slices = int(np.clip(len(values) // per_slice, 1, SLICES))
    return sliced(values, lambda part: np.percentile(part, q), slices)


def sliced_rate(times, start: float, end: float, weights=None) -> float:
    """Median over ``SLICES`` equal slices of ``[start, end]`` of the
    completions (or ``weights`` summed) per second."""
    edges = np.linspace(start, end, SLICES + 1)
    counts = np.histogram(np.asarray(times), bins=edges, weights=weights)[0]
    return float(np.median(counts / np.diff(edges)))


def peak_rss_mb(child_pids=()) -> float:
    """Peak resident set of this process plus the given live children."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in child_pids:
        total_kb += _vm_hwm_kb(pid)
    return total_kb / 1024.0


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0
