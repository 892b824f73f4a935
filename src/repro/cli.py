"""Command-line interface for the FOCUS reproduction.

Subcommands::

    python -m repro datasets                      # list dataset presets
    python -m repro cluster  --dataset PEMS08 -k 8 -p 12 [--save protos.npz]
    python -m repro run      --model FOCUS --dataset PEMS08 --epochs 6
    python -m repro profile  --model FOCUS --dataset PEMS08 --lookback 384
    python -m repro profile  --ops --dtype float32   # per-op wall clock
    python -m repro compare  --dataset PEMS08 --models FOCUS,DLinear,PatchTST
    python -m repro bench    [--quick] [--out BENCH_hotpath.json]
    python -m repro monitor  RUN_DIR [--follow] [--validate] [--trace] [--fleet]
    python -m repro serve    --replay [--entities 4] [--steps 128] [--shards N]
    python -m repro serve    --replay --maintenance [--shift-after 96]
    python -m repro serve    --replay --shards 2 --trace --slo-p99-ms 250
    python -m repro serve    --replay --engine plan [--shards N]

All commands operate on the synthetic dataset surrogates (seeded, see
DESIGN.md) and print plain-text tables.  Model-building commands accept
``--dtype float32`` to run the whole pipeline in single precision.
``run`` and ``cluster`` accept ``--telemetry-dir DIR`` to emit
schema-versioned JSONL events plus a Prometheus metrics snapshot there;
``monitor`` renders (or tails) such a directory.  See
``docs/observability.md``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _add_telemetry_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--telemetry-dir", default=None,
        help="directory for JSONL run events + Prometheus metrics snapshot "
             "(inspect with `repro monitor DIR`)",
    )


def _add_common_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="PEMS08", help="dataset preset name")
    parser.add_argument("--scale", default="smoke", choices=["smoke", "paper"])
    parser.add_argument("--lookback", type=int, default=96)
    parser.add_argument("--horizon", type=int, default=24)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--dtype", default="float64", choices=["float32", "float64"],
        help="default floating dtype for parameters and activations",
    )


def _cmd_datasets(_args) -> int:
    from repro.data import DATASETS
    from repro.training.reporting import format_table

    rows = [
        {
            "name": spec.name,
            "domain": spec.domain,
            "steps_per_day": spec.steps_per_day,
            "paper_T": spec.length,
            "paper_N": spec.num_entities,
            "smoke_T": spec.smoke_length,
            "smoke_N": spec.smoke_entities,
            "split": ":".join(map(str, spec.split)),
        }
        for spec in DATASETS.values()
    ]
    print(format_table(rows, title="Dataset presets (Table II of the paper)"))
    return 0


def _cmd_cluster(args) -> int:
    from repro.core import ClusteringConfig, SegmentClusterer
    from repro.data import load_dataset, segment_series
    from repro.telemetry import (
        NULL_LOGGER,
        NULL_TRACER,
        MetricsRegistry,
        RunLogger,
        Tracer,
        write_prometheus,
    )

    logger, tracer, registry = NULL_LOGGER, NULL_TRACER, None
    if args.telemetry_dir:
        logger = RunLogger.to_dir(args.telemetry_dir)
        registry = MetricsRegistry()
        tracer = Tracer(registry)
    logger.event(
        "run_start", kind="cluster", dataset=args.dataset,
        num_prototypes=args.num_prototypes, segment_length=args.segment_length,
    )
    data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    with tracer.span("cluster.fit"):
        clusterer = SegmentClusterer(
            ClusteringConfig(
                num_prototypes=args.num_prototypes,
                segment_length=args.segment_length,
                alpha=args.alpha,
                seed=args.seed,
            )
        ).fit(data.train)
    segments = segment_series(data.train, args.segment_length)
    with tracer.span("cluster.assign"):
        labels = clusterer.assign(segments)
    shares = np.bincount(labels, minlength=args.num_prototypes) / len(labels)
    inertia = clusterer.inertia(segments)
    logger.event(
        "cluster_fit",
        num_prototypes=args.num_prototypes,
        segment_length=args.segment_length,
        n_segments=len(segments),
        iterations=int(clusterer.n_iter_),
        inertia=float(inertia),
        usage=[round(float(share), 6) for share in shares],
    )
    print(f"fitted {args.num_prototypes} prototypes on {len(segments)} segments "
          f"({clusterer.n_iter_} iterations)")
    for j, share in enumerate(shares):
        print(f"  prototype {j}: usage {share:6.1%}")
    print(f"inertia: {inertia:.4f}")
    if args.save:
        clusterer.save(args.save)
        print(f"saved to {args.save}")
    logger.event("run_end", kind="cluster")
    if args.telemetry_dir:
        write_prometheus(registry, args.telemetry_dir)
        logger.close()
        print(f"telemetry written to {args.telemetry_dir}")
    return 0


def _cmd_run(args) -> int:
    from repro.data import load_dataset
    from repro.training import ExperimentConfig, TrainerConfig, run_experiment
    from repro.training.reporting import format_table

    config = ExperimentConfig(
        model=args.model,
        dataset=args.dataset,
        lookback=args.lookback,
        horizon=args.horizon,
        scale=args.scale,
        seed=args.seed,
        trainer=TrainerConfig(
            epochs=args.epochs,
            batch_size=args.batch_size,
            lr=args.lr,
            patience=99,
            restore_best=False,
            verbose=True,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
            telemetry_dir=args.telemetry_dir,
        ),
    )
    data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    result = run_experiment(config, data)
    print()
    print(format_table([result.row()], title="Result"))
    print(f"training took {result.train_seconds:.1f}s")
    if args.telemetry_dir:
        print(f"telemetry written to {args.telemetry_dir}")
    return 0


def _cmd_profile(args) -> int:
    from repro.data import load_dataset
    from repro.profiling import profile_model
    from repro.training import ExperimentConfig, build_model

    data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    config = ExperimentConfig(
        model=args.model,
        dataset=args.dataset,
        lookback=args.lookback,
        horizon=args.horizon,
        scale=args.scale,
        seed=args.seed,
    )
    model = build_model(config, data)
    if args.ops:
        return _profile_wall_clock(args, data, model)
    report = profile_model(model, (1, args.lookback, data.num_entities))
    print(f"{args.model} @ L={args.lookback}, N={data.num_entities}: {report}")
    top = sorted(report.per_op_flops.items(), key=lambda kv: -kv[1])[:8]
    for op_name, flops in top:
        print(f"  {op_name:20s} {flops / 1e6:10.2f} MFLOPs")
    return 0


def _profile_wall_clock(args, data, model) -> int:
    """``repro profile --ops``: per-op wall clock over one training step."""
    from repro.autograd import Tensor, get_default_dtype
    from repro.optim import AdamW
    from repro.profiling import profile_ops

    dtype = get_default_dtype()
    rng = np.random.default_rng(args.seed)
    x = Tensor(
        rng.standard_normal(
            (args.batch_size, args.lookback, data.num_entities)
        ).astype(dtype)
    )
    y = Tensor(
        rng.standard_normal(
            (args.batch_size, args.horizon, data.num_entities)
        ).astype(dtype)
    )
    optimizer = AdamW(model.parameters(), lr=1e-3)
    # Warm-up step so lazily-built caches don't pollute the profile.
    loss = ((model(x) - y) ** 2.0).mean()
    optimizer.zero_grad()
    loss.backward()
    optimizer.step()
    with profile_ops() as prof:
        loss = ((model(x) - y) ** 2.0).mean()
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
        prof.note("optimizer.step")
    print(
        f"{args.model} @ L={args.lookback}, N={data.num_entities}, "
        f"batch={args.batch_size}, dtype={np.dtype(dtype).name} — one training "
        f"step, {prof.total_seconds * 1e3:.1f}ms total"
    )
    print(prof.table(top=args.top))
    return 0


def _cmd_compare(args) -> int:
    from repro.data import load_dataset
    from repro.training import ExperimentConfig, TrainerConfig, run_experiment
    from repro.training.reporting import format_table, rank_by

    data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    trainer = TrainerConfig(
        epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
        patience=99, restore_best=False,
    )
    rows = []
    for model_name in args.models.split(","):
        model_name = model_name.strip()
        print(f"training {model_name} ...", file=sys.stderr)
        result = run_experiment(
            ExperimentConfig(
                model=model_name,
                dataset=args.dataset,
                lookback=args.lookback,
                horizon=args.horizon,
                scale=args.scale,
                seed=args.seed,
                trainer=trainer,
                train_stride=2,
            ),
            data,
        )
        rows.append(result.row())
    print(format_table(rank_by(rows, "mse"), title=f"{args.dataset} comparison"))
    return 0


def _cmd_bench(args) -> int:
    from repro.profiling.bench import run_benchmarks, write_report

    report = run_benchmarks(quick=args.quick)
    clustering = report["clustering_fit"]
    attn = report["protoattn_forward"]
    streaming = report["streaming"]
    print(f"hot-path benchmark ({report['mode']} mode)")
    print(
        f"  clustering fit : vectorized {clustering['vectorized_s']:.3f}s vs "
        f"loop {clustering['loop_s']:.3f}s  ({clustering['speedup']:.2f}x, "
        f"max|diff| {clustering['max_abs_diff']:.2e})"
    )
    print(
        f"  protoattn fwd  : cached {attn['cached_ms']:.3f}ms vs "
        f"uncached {attn['uncached_ms']:.3f}ms  ({attn['speedup']:.2f}x)"
    )
    print(
        f"  streaming      : {streaming['observe_per_s']:.0f} obs/s "
        f"({streaming['observe_us']:.1f}us/observe), "
        f"forecast {streaming['forecast_ms']:.2f}ms"
    )
    step = report["training_step"]
    print(
        f"  training step  : float64 {step['float64_ms']:.1f}ms vs "
        f"float32 {step['float32_ms']:.1f}ms  ({step['speedup_fp32']:.2f}x); "
        f"allocations/step {step['allocs_per_step_legacy']} -> "
        f"{step['allocs_per_step_inplace']} "
        f"(-{step['alloc_reduction']:.0%})"
    )
    telemetry = report["telemetry"]
    print(
        f"  telemetry      : step {telemetry['baseline_ms']:.1f}ms bare, "
        f"{telemetry['off_ms']:.1f}ms off ({telemetry['overhead_off_pct']:+.2f}%), "
        f"{telemetry['on_ms']:.1f}ms on ({telemetry['overhead_on_pct']:+.2f}%); "
        f"jsonl {telemetry['events_per_s']:.0f} events/s"
    )
    serving = report["serving"]
    batch32 = serving["batched"]["batch_32"]
    print(
        f"  serving        : sequential "
        f"{serving['sequential']['throughput_per_s']:.0f} fc/s vs batch-32 "
        f"{batch32['throughput_per_s']:.0f} fc/s "
        f"({serving['speedup_batch32']:.2f}x, p99 {batch32['p99_ms']:.2f}ms); "
        f"cache-on {serving['cache_on']['throughput_per_s']:.0f} fc/s"
    )
    fleet = report["fleet"]
    shard_line = "  ".join(
        f"{shards}x {entry['throughput_per_s']:.0f} fc/s "
        f"(p99 {entry['p99_ms']:.2f}ms)"
        for shards, entry in fleet["shards"].items()
    )
    print(f"  fleet          : {shard_line}")
    print(
        f"                   scaling 4-shard/1-shard {fleet['scaling_4x']:.2f}x "
        f"(gate >={fleet['gate']}x "
        f"{'active' if fleet['gate_active'] else 'inactive'}, "
        f"{fleet['cpu_count']} CPUs)"
    )
    obs = report["fleet_observability"]
    print(
        f"  observability  : {obs['off_per_s']:.0f} fc/s off vs "
        f"{obs['on_per_s']:.0f} fc/s traced+SLO "
        f"({obs['overhead_pct']:+.2f}%, gate <={obs['gate_pct']}%); "
        f"aggregation {obs['aggregate_ms']:.2f}ms/"
        f"{obs['aggregate_shards']}-shard cycle"
    )
    plan = report["plan_engine"]
    plan_b1 = plan["batches"]["1"]
    print(
        f"  plan engine    : B=1 eager {plan_b1['eager_ms']:.3f}ms vs "
        f"plan {plan_b1['plan_ms']:.3f}ms ({plan_b1['speedup']:.2f}x, "
        f"gate >={plan['gate']}x); {plan['plan_ops']} ops, "
        f"{plan['plan_folded']} folded, arena {plan['arena_kb']:.1f}KB, "
        f"build {plan['build_ms']:.1f}ms"
    )
    mixed = plan["mixed"]
    print(
        f"  plan mixed B   : {mixed['calls']} calls B~U[1,32] p50 "
        f"{mixed['p50_ms']:.3f}ms p99 {mixed['p99_ms']:.3f}ms, "
        f"{mixed['compiles']} compiles"
    )
    failed = False
    if not clustering["equivalent_1e8"]:
        print("WARNING: vectorized and loop prototypes diverge beyond 1e-8")
        failed = True
    if not serving["meets_1_5x"]:
        print(
            "WARNING: batched serving throughput at batch 32 is "
            f"{serving['speedup_batch32']:.2f}x sequential (gate: >=1.5x)"
        )
        failed = True
    if not fleet["consistent_response_counts"]:
        print("WARNING: fleet replay response counts differ across shard counts")
        failed = True
    if fleet["gate_active"] and not fleet["meets_scaling_gate"]:
        print(
            f"WARNING: 4-shard fleet throughput is {fleet['scaling_4x']:.2f}x "
            f"single-shard (gate: >={fleet['gate']}x on this "
            f"{fleet['cpu_count']}-CPU host)"
        )
        failed = True
    if not obs["meets_overhead_gate"]:
        print(
            f"WARNING: observability plane costs {obs['overhead_pct']:+.2f}% "
            f"serving throughput (gate: <={obs['gate_pct']}%)"
        )
        failed = True
    if not plan["meets_plan_gate"]:
        print(
            f"WARNING: plan engine is {plan['speedup_uncached']:.2f}x eager "
            f"on the uncached B=1 path (gate: >={plan['gate']}x)"
        )
        failed = True
    if args.out:
        try:
            write_report(report, args.out)
        except OSError as error:
            print(f"error: could not write {args.out}: {error}", file=sys.stderr)
            return 1
        print(f"wrote {args.out}")
    # Timing gates are noisy on shared boxes (an in-process run inherits
    # whatever heap and frequency state the host is in), so a miss is a
    # warning by default; CI re-asserts every gate from the written JSON
    # in a dedicated job, and --strict restores the hard failure.
    if failed and args.strict:
        return 1
    return 0


def _cmd_serve(args) -> int:
    """``repro serve --replay``: drive the serving stack on synthetic streams."""
    from repro.core import ClusteringConfig
    from repro.core.model import FOCUSConfig, FOCUSForecaster
    from repro.data import load_dataset
    from repro.serving import ForecastServer, ServingConfig, replay_streams
    from repro.telemetry import (
        NULL_LOGGER,
        MetricsRegistry,
        RunLogger,
        write_prometheus,
    )

    if not args.replay:
        print("error: only --replay mode is implemented", file=sys.stderr)
        return 2

    logger, registry = NULL_LOGGER, None
    if args.telemetry_dir:
        logger = RunLogger.to_dir(args.telemetry_dir)
        registry = MetricsRegistry()
    logger.event("run_start", kind="serve", dataset=args.dataset)

    slo = None
    if args.slo_p99_ms is not None or args.slo_error_rate is not None:
        from repro.telemetry import SloConfig

        slo_kwargs = {"min_samples": 8, "evaluate_every": 8}
        if args.slo_p99_ms is not None:
            slo_kwargs["latency_p99_ms"] = args.slo_p99_ms
        if args.slo_error_rate is not None:
            slo_kwargs["error_rate"] = args.slo_error_rate
        slo = SloConfig(**slo_kwargs)

    data = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    config = FOCUSConfig(
        lookback=args.lookback,
        horizon=args.horizon,
        num_entities=data.num_entities,
        segment_length=12,
        num_prototypes=8,
        d_model=32,
        num_readout=2,
    )
    model = FOCUSForecaster.from_training_data(
        config, data.train, ClusteringConfig(num_prototypes=8, segment_length=12,
                                             seed=args.seed)
    )
    rng = np.random.default_rng(args.seed)
    steps = args.lookback + args.steps
    streams = {}
    for index in range(args.entities):
        offset = rng.integers(0, max(len(data.test) - steps, 1))
        streams[f"entity-{index}"] = data.test[offset : offset + steps]
    if args.shift_after > 0:
        # Motif shift: superimpose a strong periodic pattern the offline
        # prototypes never saw, starting at --shift-after.
        for entity_id, stream in streams.items():
            shifted = stream.copy()
            tail = np.arange(len(shifted) - args.shift_after)
            shifted[args.shift_after :] += (
                5.0 * np.std(stream) * np.sin(tail / 2.0)[:, None]
            )
            streams[entity_id] = shifted

    maintenance = None
    if args.maintenance:
        from repro.maintenance import MaintenanceConfig, MaintenanceWorker
        from repro.telemetry import DriftConfig

        maintenance = MaintenanceWorker(
            model,
            MaintenanceConfig(
                history_rows=max(4 * args.lookback, 256),
                # Sized for a short demo replay: profile densely so the
                # TV window has enough samples to smooth sampling noise,
                # yet the alarm still fires within the replayed stream.
                drift_every=4,
                drift=DriftConfig(
                    window=16, baseline_forecasts=12, threshold=0.25,
                    alarm_streak=2, min_segments=16,
                ),
            ),
            registry=registry,
            run_logger=logger,
        )

    if args.shards > 0:
        from repro.serving import (
            FleetConfig,
            ShardRouter,
            replay_fleet,
            replay_routed,
        )

        with ShardRouter(
            model,
            FleetConfig(
                shards=args.shards,
                max_batch=args.max_batch,
                engine=args.engine,
                nan_policy=args.nan_policy,
                trace=args.trace,
                slo=slo,
            ),
            telemetry=registry,
            run_logger=logger,
        ) as router:
            if maintenance is not None:
                # Row-by-row routed replay: the maintenance tap only
                # sees traffic that crosses the router.
                router.attach_maintenance(maintenance)
                with maintenance:
                    responses = replay_routed(
                        router, streams, forecast_every=args.forecast_every
                    )
                    maintenance.join_idle()
            elif args.trace:
                # Tracing needs each request to cross the router (where
                # contexts are minted), so the whole-stream fast path is
                # out — replay row by row instead.
                responses = replay_routed(
                    router, streams, forecast_every=args.forecast_every
                )
            else:
                responses = replay_fleet(
                    router, streams, forecast_every=args.forecast_every
                )
            stats = router.stats()
            if registry is not None:
                # Pull every worker's registry snapshot and merge it,
                # shard-labelled, into the export written below.
                registry = router.merged_registry()
        mode = f"{args.shards}-shard fleet"
    else:
        server = ForecastServer(
            model,
            ServingConfig(
                max_batch=args.max_batch,
                engine=args.engine,
                queue_capacity=args.queue_capacity,
                nan_policy=args.nan_policy,
                trace=args.trace,
                slo=slo,
            ),
            telemetry=registry,
            run_logger=logger,
        )
        if maintenance is not None:
            server.attach_maintenance(maintenance)
            maintenance.start()
        if args.threaded:
            with server:
                responses = replay_streams(
                    server, streams, forecast_every=args.forecast_every
                )
        else:
            responses = replay_streams(
                server, streams, forecast_every=args.forecast_every
            )
        if maintenance is not None:
            maintenance.join_idle()
            maintenance.close()
        stats = server.stats()
        mode = "threaded" if args.threaded else "synchronous"

    by_source: dict[str, int] = {}
    for response in responses:
        by_source[response.source] = by_source.get(response.source, 0) + 1
    print(f"replayed {args.entities} entities x {steps} steps ({mode} mode)")
    print(f"  forecasts : {len(responses)} "
          + " ".join(f"{source}={count}" for source, count in sorted(by_source.items())))
    if args.shards > 0:
        print(f"  fleet     : {stats['alive_workers']} live workers, "
              f"prototype epoch {stats['prototype_epoch']}")
        shard_entities = {
            shard: shard_stats["entities"]
            for shard, shard_stats in sorted(stats["shards"].items())
        }
        print("  shards    : "
              + " ".join(f"{shard}:{count}e" for shard, count in shard_entities.items()))
    else:
        print(f"  health    : {stats['health']}")
        if stats.get("cache_hit_rate") is not None:
            print(f"  cache     : {stats['cache_hit_rate']:.1%} hit rate")
    print(f"  rejected  : {stats['rejected_requests']} requests, "
          f"{stats['rejected_observations']} observations")
    if maintenance is not None:
        mstats = maintenance.stats()
        print(f"  maintain  : {mstats['alarms']} alarms, "
              f"{mstats['jobs_swapped']} swaps, "
              f"{mstats['jobs_rejected']} rejected, "
              f"{mstats['rollbacks']} rollbacks "
              f"(drift {mstats['drift']:.3f}, state {mstats['state']})")
    if args.trace:
        traced = sum(1 for response in responses if response.request_id)
        print(f"  traces    : {traced}/{len(responses)} responses traced "
              f"(inspect with `repro monitor DIR --trace`)")
    if slo is not None and "slo" in stats:
        snap = stats["slo"]
        print(f"  slo       : p99 {snap['latency_p99_ms']:.2f}ms, "
              f"error rate {snap['error_rate']:.3f}, "
              f"burn {snap['budget_burn_rate']:.2f} "
              f"over {snap['samples']} samples")
    logger.event("run_end", kind="serve")
    if args.telemetry_dir:
        write_prometheus(registry, args.telemetry_dir)
        logger.close()
        print(f"telemetry written to {args.telemetry_dir}")
    return 0


def _cmd_monitor(args) -> int:
    import json

    from repro.telemetry import (
        follow_events,
        summarize_fleet,
        summarize_run,
        summarize_traces,
        validate_run,
    )

    if args.trace:
        print(summarize_traces(args.run_dir, last=args.last))
        return 0
    if args.fleet:
        print(summarize_fleet(args.run_dir))
        return 0
    if args.validate:
        errors = validate_run(args.run_dir)
        if errors:
            for problem in errors:
                print(problem, file=sys.stderr)
            print(f"{len(errors)} schema violation(s) in {args.run_dir}", file=sys.stderr)
            return 1
        print(f"{args.run_dir}: all events valid (schema v1)")
        return 0
    if args.follow:
        try:
            for event in follow_events(args.run_dir, max_polls=args.max_polls):
                print(json.dumps(event, sort_keys=True))
        except KeyboardInterrupt:
            pass
        return 0
    print(summarize_run(args.run_dir, last_epochs=args.last))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse tree for all subcommands."""
    from repro.robustness.health import ENGINES, NAN_POLICIES

    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list dataset presets").set_defaults(
        func=_cmd_datasets
    )

    cluster = sub.add_parser("cluster", help="run the offline clustering phase")
    _add_common_model_args(cluster)
    cluster.add_argument("-k", "--num-prototypes", type=int, default=8)
    cluster.add_argument("-p", "--segment-length", type=int, default=12)
    cluster.add_argument("--alpha", type=float, default=0.2)
    cluster.add_argument("--save", help="npz path to save the fitted prototypes")
    _add_telemetry_arg(cluster)
    cluster.set_defaults(func=_cmd_cluster)

    run = sub.add_parser("run", help="train and evaluate one model")
    _add_common_model_args(run)
    run.add_argument("--model", default="FOCUS")
    run.add_argument("--epochs", type=int, default=6)
    run.add_argument("--batch-size", type=int, default=32)
    run.add_argument("--lr", type=float, default=5e-3)
    run.add_argument(
        "--checkpoint-dir", default=None,
        help="directory for crash-safe training checkpoints (enables "
             "loss-spike rollback + LR halving)",
    )
    run.add_argument(
        "--checkpoint-every", type=int, default=1,
        help="checkpoint cadence in epochs (with --checkpoint-dir)",
    )
    run.add_argument(
        "--resume", action="store_true",
        help="resume from the newest valid checkpoint in --checkpoint-dir",
    )
    _add_telemetry_arg(run)
    run.set_defaults(func=_cmd_run)

    profile = sub.add_parser(
        "profile", help="analytic FLOPs/memory/params, or --ops wall clock"
    )
    _add_common_model_args(profile)
    profile.add_argument("--model", default="FOCUS")
    profile.add_argument(
        "--ops", action="store_true",
        help="measure per-op wall clock over one training step instead of "
             "analytic FLOPs",
    )
    profile.add_argument("--batch-size", type=int, default=32)
    profile.add_argument(
        "--top", type=int, default=None,
        help="with --ops: show only the N most expensive ops",
    )
    profile.set_defaults(func=_cmd_profile)

    compare = sub.add_parser("compare", help="train several models, rank by MSE")
    _add_common_model_args(compare)
    compare.add_argument("--models", default="FOCUS,PatchTST,DLinear")
    compare.add_argument("--epochs", type=int, default=6)
    compare.add_argument("--batch-size", type=int, default=32)
    compare.add_argument("--lr", type=float, default=5e-3)
    compare.set_defaults(func=_cmd_compare)

    bench = sub.add_parser("bench", help="time the hot paths, write BENCH_hotpath.json")
    bench.add_argument("--quick", action="store_true", help="smaller pinned config")
    bench.add_argument("--strict", action="store_true",
                       help="exit 1 when a perf gate misses (default: warn)")
    bench.add_argument("--out", default="BENCH_hotpath.json",
                       help="output JSON path ('' to skip writing)")
    bench.set_defaults(func=_cmd_bench)

    serve = sub.add_parser(
        "serve", help="run the concurrent serving stack over replayed streams"
    )
    _add_common_model_args(serve)
    serve.add_argument(
        "--replay", action="store_true",
        help="replay synthetic test streams through the server (required)",
    )
    serve.add_argument("--entities", type=int, default=4,
                       help="number of serving entities (independent streams)")
    serve.add_argument("--steps", type=int, default=128,
                       help="post-warmup steps to replay per entity")
    serve.add_argument("--forecast-every", type=int, default=8,
                       help="request a forecast every N steps per entity")
    serve.add_argument("--max-batch", type=int, default=32)
    serve.add_argument("--engine", default="eager", choices=ENGINES,
                       help="forward engine for batched forecasts: 'eager' "
                            "(reference) or 'plan' (compiled execution plans, "
                            "bit-identical in float64; see docs/api.md)")
    serve.add_argument("--queue-capacity", type=int, default=256)
    serve.add_argument("--nan-policy", default="reject", choices=NAN_POLICIES)
    serve.add_argument("--threaded", action="store_true",
                       help="use the background batching worker instead of "
                            "synchronous draining")
    serve.add_argument("--shards", type=int, default=0,
                       help="serve through a sharded multi-process fleet of N "
                            "workers (0 = single-process)")
    serve.add_argument("--maintenance", action="store_true",
                       help="run the prototype-lifecycle maintenance worker "
                            "(drift-triggered re-clustering with shadow "
                            "scoring and hot-swap; see docs/maintenance.md)")
    serve.add_argument("--shift-after", type=int, default=0,
                       help="inject a motif shift into every stream after N "
                            "replay steps (demo fodder for --maintenance; "
                            "0 = no shift)")
    serve.add_argument("--trace", action="store_true",
                       help="trace every request end to end (per-stage latency "
                            "spans, serve_trace run events; fleet mode merges "
                            "router- and worker-side spans)")
    serve.add_argument("--slo-p99-ms", type=float, default=None,
                       help="enable SLO tracking with this p99 latency "
                            "objective in milliseconds")
    serve.add_argument("--slo-error-rate", type=float, default=None,
                       help="enable SLO tracking with this error/fallback-rate "
                            "objective (fraction, e.g. 0.05)")
    _add_telemetry_arg(serve)
    serve.set_defaults(func=_cmd_serve)

    monitor = sub.add_parser(
        "monitor", help="render or validate a telemetry run directory"
    )
    monitor.add_argument("run_dir", help="directory written by --telemetry-dir")
    monitor.add_argument(
        "--validate", action="store_true",
        help="exit 1 if any event violates the v1 schema",
    )
    monitor.add_argument(
        "--follow", action="store_true",
        help="tail events.jsonl and print events as JSON lines",
    )
    monitor.add_argument(
        "--max-polls", type=int, default=None,
        help="with --follow: stop after N empty polls (default: forever)",
    )
    monitor.add_argument(
        "--trace", action="store_true",
        help="print per-request latency decompositions from serve_trace events",
    )
    monitor.add_argument(
        "--fleet", action="store_true",
        help="summarize the merged fleet metrics.prom (per-shard rows, fleet "
             "gauges, SLO transitions)",
    )
    monitor.add_argument(
        "--last", type=int, default=8,
        help="number of trailing epochs to show in the summary",
    )
    monitor.set_defaults(func=_cmd_monitor)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "dtype", None):
        from repro.autograd import set_default_dtype

        set_default_dtype(np.dtype(args.dtype))
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
