"""Per-request benchmark of the FOCUS serving stack, fleet and training loop.

Run from the repository root::

    python3 perfbench/run.py --workload poisson-low --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes a separate traced run that reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric with its unit and the sent / succeeded /
degraded / failed counts.  See ``perfbench/README.md`` for the
workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

# One BLAS thread in this process (fleet workers pin their own): the
# benchmark must not compete with the server for the host's cores.
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
for _path in (SRC, ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

WORKLOADS = ("poisson-low", "bursty-plan", "fleet-ingest-swap", "offline-fit")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    if name == "poisson-low":
        from perfbench import serving_load

        return serving_load.run(serving_load.POISSON_LOW, seed, seconds, trace)
    if name == "bursty-plan":
        from perfbench import serving_load

        return serving_load.run(serving_load.BURSTY_PLAN, seed, seconds, trace)
    if name == "fleet-ingest-swap":
        from perfbench import fleet_load

        return fleet_load.run(seed, seconds, trace)
    from perfbench import fit_load

    return fit_load.run(seed, seconds, trace)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2

    spec = _spec()
    section = "per_layer" if args.trace else "end_to_end"
    declared = {entry["name"]: entry["unit"] for entry in spec[section]}
    result = _run_workload(args.workload, args.seed, float(args.seconds), bool(args.trace))

    measured = result["metrics"]
    missing = sorted(set(declared) - set(measured))
    if args.trace:
        # A layer this workload never runs reads zero.
        measured = {**dict.fromkeys(missing, 0.0), **measured}
    elif missing:
        raise RuntimeError(f"workload did not measure {missing}")
    metrics = {
        name: {"value": float(measured[name]), "unit": unit}
        for name, unit in declared.items()
    }
    problems = list(result["problems"])
    for name, entry in metrics.items():
        if not math.isfinite(entry["value"]):
            problems.append(f"metric {name} is not finite")
            entry["value"] = 0.0  # keep the JSON line valid
    correct = result["failed"] == 0 and not problems

    summary = result["summary"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("  " + "  ".join(f"{key} {value}" for key, value in summary.items()))
    for name, entry in metrics.items():
        print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}")
    for problem in problems:
        print(f"  PROBLEM: {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
