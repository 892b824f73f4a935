"""Open-loop traffic through ``ForecastServer.submit``: the
``poisson-low`` and ``bursty-plan`` workloads.

The generator (the main thread) sends each request at its scheduled
time, whether or not earlier requests have been answered, so a stall
delays every later answer and that delay is measured: latency runs
from the *scheduled* send time to the moment the answer is seen.  One
collector thread waits on the answers in send order and stamps them.
Requests shed by admission control are answered inside ``submit`` and
stamped by the generator.  The benchmark therefore runs two threads of
its own, no more than the two CPUs of the reference host.
"""

from __future__ import annotations

import dataclasses
import queue
import threading
import time

import numpy as np

from perfbench import common, layers
from repro.serving import ForecastServer, ServingConfig

#: A request not answered this long after the last send is failed.
ANSWER_TIMEOUT_S = 30.0
#: A run whose generator trails its schedule by more than this at the
#: 99th percentile is invalid: the load is no longer the stated one.
GEN_LAG_P99_BOUND_MS = 200.0
#: The traced stages (queue_wait, cache_lookup, batch_assembly,
#: forward) must account for at least this share of the traced latency.
STAGE_COVERAGE_MIN = 0.90


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    entities: int
    engine: str
    slo_ms: float
    # Arrivals: Poisson at ``rate`` per second while "on"; bursts last
    # ``on_s`` and repeat every ``period_s`` (on == period: no gaps).
    rate: float
    on_s: float
    period_s: float
    zipf: float  # 0: uniform popularity
    poll_share: float  # arrivals without a new row (cache-eligible)


POISSON_LOW = Workload(
    name="poisson-low", entities=256, engine="eager", slo_ms=15.0,
    rate=150.0, on_s=1.0, period_s=1.0, zipf=0.0, poll_share=0.0,
)
BURSTY_PLAN = Workload(
    name="bursty-plan", entities=1024, engine="plan", slo_ms=200.0,
    rate=5000.0, on_s=0.06, period_s=0.5, zipf=1.1, poll_share=0.3,
)


@dataclasses.dataclass
class Inputs:
    train: np.ndarray
    streams: list[np.ndarray]
    ids: list[str]
    times: np.ndarray  # scheduled offsets, seconds
    entity: np.ndarray  # entity index per arrival
    row: np.ndarray  # stream row sent before the request, -1 for a poll
    version: np.ndarray  # ring version the request must at least see
    final: np.ndarray  # ring version of each entity after the last row


def _rest_rows(workload: Workload, seconds: float) -> int:
    """Held-out rows per series: room for the most popular entity's
    stream with a wide margin (a function of the workload, not the
    seed, so every seed clusters the same amount of data)."""
    arrivals = workload.rate * workload.on_s / workload.period_s * seconds
    if workload.zipf > 0:
        weights = 1.0 / np.arange(1, workload.entities + 1) ** workload.zipf
        top = weights[0] / weights.sum()
    else:
        top = 1.0 / workload.entities
    hottest = arrivals * top * (1.0 - workload.poll_share)
    return common.LOOKBACK + common.HORIZON + int(2 * hottest) + 256


def make_inputs(workload: Workload, seed: int, seconds: float) -> Inputs:
    rng = np.random.default_rng(seed)
    times = []
    for burst in np.arange(0.0, seconds, workload.period_s):
        span = min(workload.on_s, seconds - burst)
        count = rng.poisson(workload.rate * span)
        times.append(burst + np.sort(rng.uniform(0.0, span, count)))
    times = np.concatenate(times)
    if workload.zipf > 0:
        weights = 1.0 / np.arange(1, workload.entities + 1) ** workload.zipf
        popularity = rng.permutation(weights / weights.sum())
        entity = rng.choice(workload.entities, size=len(times), p=popularity)
    else:
        entity = rng.integers(0, workload.entities, size=len(times))
    has_row = rng.random(len(times)) >= workload.poll_share
    sent_rows = np.zeros(workload.entities, dtype=np.int64)
    row = np.full(len(times), -1, dtype=np.int64)
    version = np.zeros(len(times), dtype=np.int64)
    for index, (e, new) in enumerate(zip(entity, has_row)):
        if new:
            row[index] = common.LOOKBACK + sent_rows[e]
            sent_rows[e] += 1
        version[index] = common.LOOKBACK + sent_rows[e]
    lengths = [common.LOOKBACK + int(n) + common.HORIZON for n in sent_rows]
    train, rests = common.make_corpus(seed, _rest_rows(workload, seconds))
    streams = common.entity_streams(rests, lengths, rng)
    ids = [f"entity-{index:04d}" for index in range(workload.entities)]
    final = common.LOOKBACK + sent_rows
    return Inputs(train, streams, ids, times, entity, row, version, final)


def _setup(workload: Workload, inputs: Inputs, traced: bool):
    """Model build + offline clustering + server start + warm-filled
    entity rings: everything between process start and ready-to-serve."""
    model, fit_s = common.build_model(inputs.train)
    config = ServingConfig(engine=workload.engine)
    if traced:
        config = dataclasses.replace(
            config, trace=True, trace_keep=len(inputs.times) + 1
        )
    server = ForecastServer(model, config).start()
    for entity_id, stream in zip(inputs.ids, inputs.streams):
        server.observe_many(entity_id, stream[: common.LOOKBACK])
    return server, server.close, fit_s


@dataclasses.dataclass
class PassResult:
    server: ForecastServer
    requests: list
    done_at: np.ndarray
    due: np.ndarray
    lag: np.ndarray
    observe_s: list[float]
    depth: list[int]
    rejected_rows: int


def _drive(server: ForecastServer, inputs: Inputs, traced: bool) -> PassResult:
    count = len(inputs.times)
    requests: list = [None] * count
    done_at = np.zeros(count)
    lag = np.zeros(count)
    observe_s: list[float] = []
    depth: list[int] = []
    rejected_rows = 0
    handoff: queue.SimpleQueue = queue.SimpleQueue()
    origin = time.perf_counter() + 0.05
    deadline = origin + float(inputs.times[-1]) + ANSWER_TIMEOUT_S

    def collect() -> None:
        while True:
            index = handoff.get()
            if index is None:
                return
            if done_at[index]:
                continue
            remaining = max(0.0, deadline - time.perf_counter())
            if requests[index].done.wait(remaining):
                done_at[index] = time.perf_counter()

    collector = threading.Thread(target=collect, name="perfbench-collector")
    collector.start()
    try:
        for index in range(count):
            due = origin + inputs.times[index]
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            lag[index] = time.perf_counter() - due
            entity = inputs.entity[index]
            entity_id = inputs.ids[entity]
            if inputs.row[index] >= 0:
                row = inputs.streams[entity][inputs.row[index]]
                started = time.perf_counter()
                accepted = server.observe(entity_id, row).accepted
                if traced:
                    observe_s.append(time.perf_counter() - started)
                rejected_rows += accepted != 1
            request = server.submit(entity_id)
            requests[index] = request
            if request.done.is_set():  # shed inline by admission control
                done_at[index] = time.perf_counter()
            if traced:
                depth.append(server.queue_depth)
            handoff.put(index)
    finally:
        handoff.put(None)
        collector.join()
        server.close()
    due = origin + inputs.times
    return PassResult(
        server, requests, done_at, due, lag, observe_s, depth, rejected_rows
    )


@dataclasses.dataclass
class Outcome:
    """End-to-end figures and counts of one pass."""

    metrics: dict
    sent: int
    rows: int
    succeeded: int
    degraded: int
    failed: int
    problems: list[str]
    responses: list
    lag_p99_ms: float
    latency_p99_ms: float


def _score(workload: Workload, inputs: Inputs, run: PassResult) -> Outcome:
    count = len(inputs.times)
    answered = [
        index for index in range(count)
        if run.done_at[index] and run.requests[index].response is not None
    ]
    responses = [None] * count
    answers = []
    fresh = []
    for index in answered:
        response = run.requests[index].response
        responses[index] = response
        entity = inputs.entity[index]
        stream = inputs.streams[entity]
        # An answer computed from a ring older than the request's own
        # row would break read-your-writes.
        fresh.append(
            inputs.version[index] <= response.ring_version <= inputs.final[entity]
        )
        answers.append((stream, response.ring_version, response))
    correct = common.check_answers(run.server.model, answers)
    ok_source = {"model", "cache"}
    succeeded = degraded = 0
    errors = []
    served = []
    latency_ms = (run.done_at - run.due) * 1e3
    met = np.zeros(count, dtype=bool)
    for position, index in enumerate(answered):
        if not (correct[position] and fresh[position]):
            continue
        response = responses[index]
        if response.source in ok_source:
            stream = answers[position][0]
            errors.append(common.answer_error(response, stream))
            served.append(index)
            succeeded += 1
            met[index] = latency_ms[index] <= workload.slo_ms
        else:
            degraded += 1
    failed = count - succeeded - degraded + run.rejected_rows
    rows = int((inputs.row >= 0).sum())
    # Latency of the answers the model gave; a shed or fallback answer
    # is fast but counts as a miss in slo_attainment instead.
    served_ms = latency_ms[served]
    end = float(run.done_at.max()) if answered else float(run.due[-1])
    metrics = {
        "latency_p50_ms": common.percentile(served_ms, 50),
        "latency_p95_ms": common.sliced_percentile(served_ms, 95),
        "throughput_per_s": common.sliced_rate(run.done_at[served], run.due[0], end),
        "slo_attainment": common.sliced(met, np.mean),
        "mae_ratio": common.mae_ratio(errors),
    }
    problems = []
    lag_p99 = common.percentile(run.lag, 99) * 1e3
    if lag_p99 > GEN_LAG_P99_BOUND_MS:
        problems.append(
            f"invalid run: generator lag p99 {lag_p99:.1f} ms exceeds "
            f"{GEN_LAG_P99_BOUND_MS} ms"
        )
    return Outcome(
        metrics, count, rows, succeeded, degraded, failed, problems,
        responses, lag_p99, common.percentile(served_ms, 99),
    )


def _trace_metrics(inputs: Inputs, run: PassResult,
                   outcome: Outcome) -> tuple[dict, list[str]]:
    """Per-layer figures of the traced pass (server, batcher, cache,
    session) from the server's own stage spans and the benchmark's
    timers."""
    count = len(inputs.times)
    by_id = {
        trace.context.request_id: trace
        for trace in run.server.trace_buffer.traces()
    }
    queue_wait, stage_sum, total_sum = [], 0.0, 0.0
    batches: dict[int, list[int]] = {}
    batch_spans: dict[str, dict[int, float]] = {
        "forward": {}, "batch_assembly": {}, "cache_lookup": {},
    }
    for index, response in enumerate(outcome.responses):
        if response is None or not response.request_id:
            continue
        trace = by_id.get(response.request_id)
        if trace is None:
            continue
        stage_sum += trace.stage_seconds
        total_sum += trace.total_seconds
        for span in trace.spans:
            if span.stage == "queue_wait":
                queue_wait.append(span.seconds * 1e3)
            elif span.stage in batch_spans:
                # Batch-level spans are shared objects across the
                # requests that rode the same batch.
                batch_spans[span.stage][id(span)] = span.seconds * 1e3
                if span.stage == "cache_lookup":
                    batches.setdefault(id(span), []).append(index)
    duplicates = 0
    for members in batches.values():
        seen = set()
        for index in members:
            response = outcome.responses[index]
            if response.source == "cache":
                continue
            key = (response.entity, response.ring_version)
            if key in seen:
                duplicates += 1
            seen.add(key)
    sources = [r.source for r in outcome.responses if r is not None]
    shed = sum(source.startswith("rejected:") for source in sources)
    fallback = sum(source.startswith("fallback:") for source in sources)
    model_sizes = [
        r.batch_size for r in outcome.responses if r is not None and r.source == "model"
    ]
    forward = list(batch_spans["forward"].values())
    coverage = stage_sum / total_sum if total_sum else 0.0
    metrics = {
        "server.queue_wait_ms.p50": common.percentile(queue_wait, 50),
        "server.queue_wait_ms.p99": common.percentile(queue_wait, 99),
        "server.batch_size.mean": float(np.mean(model_sizes)) if model_sizes else 0.0,
        "server.shed_share": shed / count,
        "server.degraded_share": (shed + fallback) / count,
        "server.queue_depth.max": float(max(run.depth, default=0)),
        "batcher.forward_ms.p50": common.percentile(forward, 50),
        "batcher.forward_ms.p99": common.percentile(forward, 99),
        "batcher.batch_assembly_ms.p50": common.median(
            list(batch_spans["batch_assembly"].values())
        ),
        "batcher.cache_lookup_ms.p50": common.median(
            list(batch_spans["cache_lookup"].values())
        ),
        "batcher.dedup_share": duplicates / count,
        "batcher.fallback_share": fallback / count,
        "cache.hit_ratio": run.server.cache.hit_rate,
        "session.observe_us.p50": common.percentile(run.observe_s, 50) * 1e6,
        "session.observe_us.p99": common.percentile(run.observe_s, 99) * 1e6,
        "gen.lag_ms.p99": common.percentile(run.lag, 99) * 1e3,
        "trace.stage_coverage": coverage,
    }
    problems = []
    if not STAGE_COVERAGE_MIN <= coverage <= 1.0:
        problems.append(
            f"traced stages cover {coverage:.3f} of the traced latency, "
            f"outside [{STAGE_COVERAGE_MIN}, 1.0]"
        )
    return metrics, problems


def run(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    inputs = make_inputs(workload, seed, seconds if not trace else seconds / 2)
    if not trace:
        server, _, setup_s, _ = common.timed_setups(
            lambda: _setup(workload, inputs, traced=False), repeats=5
        )
        outcome = _score(workload, inputs, _drive(server, inputs, traced=False))
        metrics = dict(outcome.metrics)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = common.peak_rss_mb()
        return _report([outcome], metrics, outcome.problems)

    # Traced run: an untraced pass and a traced pass over the same
    # inputs; their latency difference is the tracing overhead.
    server, _, _, _ = common.timed_setups(
        lambda: _setup(workload, inputs, traced=False), repeats=1
    )
    plain = _score(workload, inputs, _drive(server, inputs, traced=False))
    server, _, _, fit_s = common.timed_setups(
        lambda: _setup(workload, inputs, traced=True), repeats=1
    )
    with layers.EngineProbe() as engine:
        traced_run = _drive(server, inputs, traced=True)
    traced = _score(workload, inputs, traced_run)
    metrics, problems = _trace_metrics(inputs, traced_run, traced)
    metrics.update(engine.metrics())
    metrics["clustering.fit_s"] = fit_s
    metrics["trace.overhead_pct"] = 100.0 * (
        traced.metrics["latency_p50_ms"] / plain.metrics["latency_p50_ms"] - 1.0
    )
    windows = np.stack([stream[: common.LOOKBACK] for stream in inputs.streams[:32]])
    layer_metrics, layer_problems = layers.layer_metrics(
        server.model, windows, reps={1: 60, 32: 20}
    )
    metrics.update(layer_metrics)
    problems += plain.problems + traced.problems + layer_problems
    return _report([plain, traced], metrics, problems)


def _report(outcomes: list[Outcome], metrics: dict, problems: list[str]) -> dict:
    summary = {
        key: sum(getattr(outcome, key) for outcome in outcomes)
        for key in ("sent", "rows", "succeeded", "degraded", "failed")
    }
    summary["latency_p99_ms"] = round(outcomes[-1].latency_p99_ms, 3)
    summary["gen_lag_p99_ms"] = round(max(o.lag_p99_ms for o in outcomes), 3)
    return {
        "metrics": metrics,
        "summary": summary,
        "attempted": summary["sent"] + summary["rows"],
        "failed": summary["failed"],
        "problems": problems,
    }
