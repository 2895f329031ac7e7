"""Measure the whole benchmark over ten seeds and append one trajectory line.

Usage (from the repository root)::

    python3 perfbench/trajectory.py --label <commit>

Runs ``run.py`` on every workload ``BENCHMARK.json`` declares, for its
``run_seconds``: once per seed with tracing off and once per workload
with tracing on, each in a fresh process. Then appends to
``perfbench/trajectory.jsonl`` one JSON line: per workload, the median,
first and third quartile of every end-to-end metric, and the traced
run's per-layer metrics.
"""

from __future__ import annotations

import argparse
import datetime
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SEEDS = 10


def run_once(workload: str, seed: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(SPEC["run_seconds"]),
         "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=HERE.parent,
    )
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run\n{completed.stderr}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True, help="commit or config label")
    args = parser.parse_args(argv)

    entry = {
        "label": args.label,
        "date": datetime.date.today().isoformat(),
        "seeds": SEEDS,
        "seconds": SPEC["run_seconds"],
        "workloads": {},
    }
    for workload in (w["name"] for w in SPEC["workloads"]):
        values: dict[str, list] = {}
        for seed in range(1, SEEDS + 1):
            result = run_once(workload, seed, trace=0)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, json.dumps(result["metrics"]), flush=True)
        end_to_end = {}
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            end_to_end[name] = {"median": median, "q1": q1, "q3": q3}
        traced = run_once(workload, 1, trace=1)
        entry["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": {
                name: metric["value"] for name, metric in traced["metrics"].items()
            },
        }
        print(workload, "quartiles", json.dumps(end_to_end), flush=True)
    with open(HERE / "trajectory.jsonl", "a", encoding="utf-8") as out:
        out.write(json.dumps(entry, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
