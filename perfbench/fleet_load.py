"""Closed-loop writes beside reads through ``ShardRouter``: the
``fleet-ingest-swap`` workload.

One client thread (the main thread) drives a two-shard eager fleet.
Each tick sends one ``observe`` RPC per entity.  Every
``FORECAST_EVERY`` ticks one ``forecast_many`` reads every entity and a
second one re-reads the ``HOT`` most popular entities at the same ring
versions, which the shard caches answer.  Every ``SWAP_EVERY`` reads a
prototype bank fitted before timing is installed with
``set_prototypes`` between the read and the re-read, so the re-read is
the first call after the swap: it pays the epoch fence and finds every
cached forecast invalidated.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time

import numpy as np

from perfbench import common, layers
from repro.core.model import FOCUSForecaster
from repro.serving import FleetConfig, ShardRouter

ENTITIES = 64
HOT = 16
SHARDS = 2
FORECAST_EVERY = 2
SWAP_EVERY = 8  # reads between swaps
BANKS = 4
#: Upper bound on ticks per second of measurement (streams are
#: generated for this many ticks; the loop stops early if it gets there).
MAX_TICKS_PER_S = 250
SLO_MS = 50.0


@dataclasses.dataclass
class Inputs:
    train: np.ndarray
    streams: list[np.ndarray]
    ids: list[str]
    banks: list[np.ndarray]
    max_ticks: int


def make_inputs(seed: int, seconds: float) -> Inputs:
    max_ticks = int(seconds * MAX_TICKS_PER_S)
    length = common.LOOKBACK + max_ticks + common.HORIZON
    train, rests = common.make_corpus(seed, rest_rows=length)
    rng = np.random.default_rng(seed)
    streams = common.entity_streams(rests, [length] * ENTITIES, rng)
    ids = [f"fleet-{index:02d}" for index in range(ENTITIES)]
    banks = common.swap_banks(train, BANKS)
    return Inputs(train, streams, ids, banks, max_ticks)


def _setup(inputs: Inputs, traced: bool):
    """Model build + offline clustering + fleet start (worker spawn,
    replica build, shared bank) + warm-filled entity rings."""
    model, fit_s = common.build_model(inputs.train)
    reference = FOCUSForecaster.from_snapshot(model.snapshot())
    config = FleetConfig(shards=SHARDS)
    if traced:
        config = dataclasses.replace(config, trace=True, trace_keep=1_000_000)
    router = ShardRouter(model, config).start()
    for entity_id, stream in zip(inputs.ids, inputs.streams):
        router.observe_many(entity_id, stream[: common.LOOKBACK])
    return (router, reference), router.close, fit_s


@dataclasses.dataclass
class Call:
    tick: int
    bank: int
    seconds: float
    responses: list
    after_swap: bool


def _drive(router: ShardRouter, inputs: Inputs, seconds: float, traced: bool):
    calls: list[Call] = []
    observe_s: list[float] = []
    swap_s: list[float] = []
    rejected_rows = 0
    rows = 0
    bank = 0
    reads = 0
    hot = inputs.ids[:HOT]
    tick_ends: list[float] = []
    tick_rows: list[int] = []
    started = time.perf_counter()
    deadline = started + seconds
    tick = 0
    while tick < inputs.max_ticks and time.perf_counter() < deadline:
        row = common.LOOKBACK + tick
        for entity_id, stream in zip(inputs.ids, inputs.streams):
            if traced:
                sent = time.perf_counter()
                result = router.observe(entity_id, stream[row])
                observe_s.append(time.perf_counter() - sent)
            else:
                result = router.observe(entity_id, stream[row])
            rejected_rows += result.accepted != 1
            rows += result.accepted
        if tick % FORECAST_EVERY == FORECAST_EVERY - 1:
            calls.append(_call(router, inputs.ids, tick, bank, False))
            reads += 1
            swapped = reads % SWAP_EVERY == 0
            if swapped:
                bank = 1 + (bank % BANKS)
                sent = time.perf_counter()
                router.set_prototypes(inputs.banks[bank - 1])
                swap_s.append(time.perf_counter() - sent)
            calls.append(_call(router, hot, tick, bank, swapped))
        tick_ends.append(time.perf_counter())
        tick_rows.append(rows)
        tick += 1
    accepted = np.diff([0] + tick_rows)
    ingest = common.sliced_rate(tick_ends, started, tick_ends[-1], weights=accepted)
    return calls, observe_s, swap_s, rows, rejected_rows, ingest


def _call(router, entity_ids, tick, bank, after_swap) -> Call:
    sent = time.perf_counter()
    responses = router.forecast_many(entity_ids)
    return Call(tick, bank, time.perf_counter() - sent, responses, after_swap)


def _score(inputs: Inputs, reference, drive) -> dict:
    calls, _, _, rows, rejected_rows, ingest = drive
    bank_values = [reference.prototype_values()] + list(inputs.banks)
    stream_of = dict(zip(inputs.ids, inputs.streams))
    by_bank: dict[int, list] = {}
    flat = []  # (call, response, fresh)
    for call in calls:
        expected_version = common.LOOKBACK + call.tick + 1
        for response in call.responses:
            fresh = response.ring_version == expected_version
            flat.append((call, response, fresh))
            by_bank.setdefault(call.bank, []).append(len(flat) - 1)
    correct = [False] * len(flat)
    for bank, members in by_bank.items():
        reference.set_prototypes(bank_values[bank])
        answers = [
            (stream_of[flat[i][1].entity], flat[i][1].ring_version, flat[i][1])
            for i in members
        ]
        for i, ok in zip(members, common.check_answers(reference, answers)):
            correct[i] = ok
    succeeded = degraded = 0
    latency_ms, errors, met = [], [], []
    for (call, response, fresh), ok in zip(flat, correct):
        met.append(False)
        if not (ok and fresh):
            continue
        if response.source in ("model", "cache"):
            succeeded += 1
            latency_ms.append(call.seconds * 1e3)
            met[-1] = call.seconds * 1e3 <= SLO_MS
            errors.append(common.answer_error(response, stream_of[response.entity]))
        else:
            degraded += 1
    sent = len(flat)
    failed = sent - succeeded - degraded + rejected_rows
    return {
        "metrics": {
            "latency_p50_ms": common.percentile(latency_ms, 50),
            "latency_p95_ms": common.sliced_percentile(latency_ms, 95),
            "throughput_per_s": ingest,
            "slo_attainment": common.sliced(met, np.mean),
            "mae_ratio": common.mae_ratio(errors),
        },
        "summary": {
            "sent": sent, "rows": rows, "succeeded": succeeded,
            "degraded": degraded, "failed": failed,
            "latency_p99_ms": round(common.percentile(latency_ms, 99), 3),
        },
        "attempted": sent + rows + rejected_rows,
        "failed": failed,
        "problems": [],
    }


def _trace_metrics(router: ShardRouter, drive) -> dict:
    calls, observe_s, swap_s, _, _, _ = drive
    by_id = {trace.context.request_id: trace for trace in router.trace_buffer.traces()}
    per_stage: dict[str, list[float]] = {}
    batch_spans: dict[str, dict[int, float]] = {
        "forward": {}, "batch_assembly": {}, "cache_lookup": {},
    }
    stage_sum = total_sum = 0.0
    for call in calls:
        for response in call.responses:
            trace = by_id.get(response.request_id)
            if trace is None:
                continue
            stage_sum += trace.stage_seconds
            total_sum += trace.total_seconds
            for stage, seconds in trace.decomposition().items():
                per_stage.setdefault(stage, []).append(seconds * 1e3)
            for span in trace.spans:
                if span.stage in batch_spans:
                    batch_spans[span.stage][id(span)] = span.seconds * 1e3
    post_swap = [call for call in calls if call.after_swap]
    post_hits = sum(
        response.source == "cache" for call in post_swap for response in call.responses
    )
    post_total = sum(len(call.responses) for call in post_swap)
    shards = router.stats()["shards"].values()
    lookups = sum(shard["forecasts"] for shard in shards)
    hit_ratio = (
        sum(shard.get("cache_hit_rate", 0.0) * shard["forecasts"] for shard in shards)
        / lookups if lookups else 0.0
    )
    model_sizes = [
        response.batch_size for call in calls for response in call.responses
        if response.source == "model"
    ]
    forward = list(batch_spans["forward"].values())
    return {
        "fleet.observe_rpc_us.p50": common.percentile(observe_s, 50) * 1e6,
        "fleet.observe_rpc_us.p99": common.percentile(observe_s, 99) * 1e6,
        "fleet.router_dispatch_ms.p50": common.median(per_stage.get("router_dispatch", [])),
        "fleet.worker_queue_wait_ms.p50": common.median(per_stage.get("queue_wait", [])),
        "fleet.worker_forward_ms.p50": common.median(per_stage.get("forward", [])),
        "fleet.gather_ms.p50": common.median(per_stage.get("gather", [])),
        "fleet.swap_ms": common.median(swap_s) * 1e3,
        "fleet.post_swap_call_ms": common.median([c.seconds for c in post_swap]) * 1e3,
        "cache.hit_ratio": hit_ratio,
        "cache.post_swap_hit_ratio": post_hits / post_total if post_total else 0.0,
        "server.batch_size.mean": float(np.mean(model_sizes)) if model_sizes else 0.0,
        "batcher.forward_ms.p50": common.percentile(forward, 50),
        "batcher.forward_ms.p99": common.percentile(forward, 99),
        "batcher.batch_assembly_ms.p50": common.median(
            list(batch_spans["batch_assembly"].values())
        ),
        "batcher.cache_lookup_ms.p50": common.median(
            list(batch_spans["cache_lookup"].values())
        ),
        "trace.stage_coverage": stage_sum / total_sum if total_sum else 0.0,
    }


def _worker_pids() -> list[int]:
    return [child.pid for child in multiprocessing.active_children()]


def _stop_resource_tracker() -> None:
    """Stop and wait for the resource-tracker process that starting the
    fleet spawned, so the run leaves no process behind."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def run(seed: int, seconds: float, trace: bool) -> dict:
    try:
        return _run(seed, seconds, trace)
    finally:
        _stop_resource_tracker()


def _run(seed: int, seconds: float, trace: bool) -> dict:
    inputs = make_inputs(seed, seconds)
    if not trace:
        (router, reference), close, setup_s, _ = common.timed_setups(
            lambda: _setup(inputs, traced=False), repeats=3
        )
        try:
            drive = _drive(router, inputs, seconds, traced=False)
            rss = common.peak_rss_mb(_worker_pids())
        finally:
            close()
        result = _score(inputs, reference, drive)
        result["metrics"]["setup_s"] = setup_s
        result["metrics"]["peak_rss_mb"] = rss
        return result

    (router, reference), close, _, _ = common.timed_setups(
        lambda: _setup(inputs, traced=False), repeats=1
    )
    try:
        plain_drive = _drive(router, inputs, seconds / 2, traced=False)
    finally:
        close()
    plain = _score(inputs, reference, plain_drive)
    (router, reference), close, _, fit_s = common.timed_setups(
        lambda: _setup(inputs, traced=True), repeats=1
    )
    try:
        drive = _drive(router, inputs, seconds / 2, traced=True)
        metrics = _trace_metrics(router, drive)
    finally:
        close()
    traced = _score(inputs, reference, drive)
    metrics["clustering.fit_s"] = fit_s
    metrics["trace.overhead_pct"] = 100.0 * (
        traced["metrics"]["latency_p50_ms"] / plain["metrics"]["latency_p50_ms"] - 1.0
    )
    windows = np.stack([stream[: common.LOOKBACK] for stream in inputs.streams[:32]])
    layer_metrics, problems = layers.layer_metrics(
        router.model, windows, reps={1: 60, 32: 20}
    )
    metrics.update(layer_metrics)
    summary = {
        key: plain["summary"][key] + traced["summary"][key]
        for key in ("sent", "rows", "succeeded", "degraded", "failed")
    }
    return {
        "metrics": metrics,
        "summary": summary,
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "problems": problems,
    }
