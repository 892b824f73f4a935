"""Deployment-style streaming forecasting with prototype adaptation.

Trains FOCUS on the Weather surrogate, then replays the test split one
observation at a time through :class:`StreamingFOCUS` — forecasting every
hour and letting the prototype dictionary adapt when genuinely novel
segment shapes arrive (an extension of the paper's online phase for
long-running deployments).

With ``--telemetry-dir DIR`` the whole pipeline shares one telemetry
stack (docs/observability.md): the trainer and the stream write JSONL
events to ``DIR/events.jsonl``, metrics (forecast latency, prototype
utilization, assignment drift, health) land in ``DIR/metrics.prom``,
and ``python -m repro monitor DIR`` renders the result.

Run:  python examples/streaming_deployment.py [--telemetry-dir DIR] [--epochs N]
"""

import argparse

import numpy as np

from repro.core import FOCUSConfig, FOCUSForecaster
from repro.data import load_dataset
from repro.serving import StreamingFOCUS
from repro.telemetry import (
    DriftConfig,
    MetricsRegistry,
    RunLogger,
    write_prometheus,
)
from repro.training import Trainer, TrainerConfig

LOOKBACK, HORIZON = 96, 24


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--telemetry-dir", default=None,
        help="write JSONL events + Prometheus metrics here",
    )
    parser.add_argument("--epochs", type=int, default=4)
    args = parser.parse_args(argv)

    registry = None
    logger = None
    if args.telemetry_dir:
        registry = MetricsRegistry()
        logger = RunLogger.to_dir(args.telemetry_dir)

    data = load_dataset("Weather", scale="smoke", seed=0)
    config = FOCUSConfig(
        lookback=LOOKBACK, horizon=HORIZON, num_entities=data.num_entities,
        segment_length=12, num_prototypes=8, d_model=64, num_readout=16,
    )
    model = FOCUSForecaster.from_training_data(config, data.train)
    trainer = Trainer(
        model,
        TrainerConfig(epochs=args.epochs, batch_size=32, lr=5e-3, patience=99,
                      restore_best=False),
        run_logger=logger,
        registry=registry,
    )
    print("training ...")
    trainer.fit(
        data.windows("train", LOOKBACK, HORIZON, stride=2),
        data.windows("val", LOOKBACK, HORIZON),
    )

    stream = StreamingFOCUS(
        model, adapt_prototypes=True, novelty_threshold=4.0, ema=0.05,
        telemetry=registry,
        drift=DriftConfig() if registry is not None else None,
        run_logger=logger,
    )
    print("replaying the test split through the stream ...")
    errors = []
    test = data.test
    for t in range(test.shape[0] - HORIZON):
        stream.observe(test[t])
        # Forecast once per 24 steps after warm-up, score against truth.
        if stream.ready and t % 24 == 0 and t + HORIZON < test.shape[0]:
            forecast = stream.forecast()
            truth = test[t + 1 : t + 1 + HORIZON]
            errors.append(float(((forecast - truth) ** 2).mean()))

    stats = stream.stats
    print(f"\nstreamed {stats.observations} observations, "
          f"made {stats.forecasts} forecasts")
    print(f"novel segments seen: {stats.novel_segments}, "
          f"prototype EMA updates: {stats.prototype_updates}")
    print(f"streaming forecast MSE: {np.mean(errors):.4f} "
          f"(first half {np.mean(errors[: len(errors) // 2]):.4f}, "
          f"second half {np.mean(errors[len(errors) // 2 :]):.4f})")
    if args.telemetry_dir:
        stream.emit_stats()
        write_prometheus(registry, args.telemetry_dir)
        logger.close()
        print(f"telemetry written to {args.telemetry_dir} "
              f"(render with: python -m repro monitor {args.telemetry_dir})")


if __name__ == "__main__":
    main()
