"""The benchmark of record: one command, three workloads, checked answers.

Run from the repository root::

    python3 perfbench/run.py --workload match-15k --seed 1 --seconds 5 --trace 0

prints the end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``) of one run, one ``name value unit`` line each, then one
JSON object as the last line::

    {"correct": true, "attempted": 1000, "failed": 0, "metrics": {...}}

``--workload all`` runs every workload in turn, each in its own process.
``--repeat N`` runs each selected workload N times with the given seed and
prints every metric's median and quartiles instead, for setting bounds
from measured spread.  See ``perfbench/README.md`` for what each workload
and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("match-15k", "serve-2k", "churn-4k")


def spec() -> dict:
    with open(HERE.parent / "BENCHMARK.json") as handle:
        return json.load(handle)


def metric_units(kind: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in spec()[kind]}


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    import common  # noqa: F401  (exits with code 2 when the program is missing)

    if name == "match-15k":
        import match_wl as module
    elif name == "serve-2k":
        import serve_wl as module
    else:
        import churn_wl as module
    return module.run(seed, seconds, trace)


def single(args: argparse.Namespace) -> int:
    kind = "per_layer" if args.trace else "end_to_end"
    units = metric_units(kind)
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    source = outcome.per_layer if args.trace else outcome.end_to_end
    missing = [name for name in units if name not in source and not args.trace]
    if missing:
        print(f"perfbench: workload did not measure {missing}", file=sys.stderr)
        return 1
    metrics = {
        name: {"value": float(source.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    for note in outcome.notes:
        print(f"# {args.workload}: {note}")
    for problem in outcome.problems:
        print(f"# CHECK FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"{args.workload} {name} {metric['value']:.6g} {metric['unit']}")
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def child(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload in a fresh process and parse its last line."""
    command = [
        sys.executable, str(HERE / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    completed = subprocess.run(command, capture_output=True, text=True, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        sys.stderr.write(completed.stderr)
        raise SystemExit(f"perfbench: {workload} seed {seed} exited {completed.returncode}")
    return json.loads(lines[-1])


def many(args: argparse.Namespace) -> int:
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)
    failures = 0
    for workload in workloads:
        runs = []
        for index in range(args.repeat):
            started = time.perf_counter()
            runs.append(child(workload, args.seed, args.seconds, trace))
            print(
                f"# {workload} run {index + 1}/{args.repeat} "
                f"({time.perf_counter() - started:.1f}s)",
                flush=True,
            )
        if not all(run["correct"] for run in runs):
            failures += 1
        failed = sorted({run["failed"] / run["attempted"] for run in runs})
        print(f"{workload}: correct={all(run['correct'] for run in runs)} failed_share={failed}")
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            unit = runs[0]["metrics"][name]["unit"]
            median = statistics.median(values)
            if len(values) > 1:
                low, _, high = statistics.quantiles(values, n=4)
            else:
                low = high = median
            spread = (high - low) / median if median else 0.0
            print(
                f"  {name:34s} median {median:12.6g} {unit:8s} "
                f"q1 {low:12.6g} q3 {high:12.6g} spread {spread:6.3f}"
            )
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec()["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--repeat", type=int, default=0,
        help="run each selected workload N times and print medians and quartiles",
    )
    args = parser.parse_args(argv)
    if args.repeat > 0 or args.workload == "all":
        args.repeat = max(args.repeat, 1)
        return many(args)
    return single(args)


if __name__ == "__main__":
    os.chdir(HERE.parent)
    raise SystemExit(main())
