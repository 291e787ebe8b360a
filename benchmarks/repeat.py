#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric's spread.

    python3 benchmarks/repeat.py --workloads train_packed eval_rolling \
        --seeds 1 2 3 4 5 --out .bench_out/summary.json

Runs are sequential, one process each, with the settings of BENCHMARK.json
(`--seconds` overrides `run_seconds`). For every workload and metric it
prints the median, the first and third quartiles from
`statistics.quantiles(values, n=4)`, and their distance as a share of the
median, next to the metric's bound. With `--trace 1` it summarises the
per-layer metrics instead. The summary JSON also keeps every run's result
line and the machine facts the runs printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command: list, workload: str, seed: int, seconds: int, trace: int) -> tuple:
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
                      "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    machine = next((json.loads(line[len("machine "):]) for line in lines
                    if line.startswith("machine ")), None)
    return json.loads(lines[-1]), machine


def spread(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / statistics.median(values) if statistics.median(values) else None,
            "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in declared}
    summary = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
               "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result, machine = run_once(bench["command"], workload, seed, args.seconds, args.trace)
            runs.append(result)
            summary["machine"] = machine
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
        metrics = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = spread(values) if len(values) > 1 else {"values": values}
            stats = metrics[name]
            if "iqr_share" in stats and stats["iqr_share"] is not None:
                bound = f"  bound {bounds[name]}" if bounds[name] is not None else ""
                print(f"  {name:28s} median {stats['median']:.6g}  q1 {stats['q1']:.6g}  "
                      f"q3 {stats['q3']:.6g}  iqr/median {stats['iqr_share']:.3f}{bound}",
                      flush=True)
        summary["workloads"][workload] = {
            "metrics": metrics, "all_correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs), "runs": runs}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
