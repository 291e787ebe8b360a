#!/usr/bin/env python3
"""sparsecast benchmark: one workload per process, end-to-end or traced.

Run from the root of a checkout:

    python3 benchmarks/run.py --workload train_packed --seed 1 --seconds 45 --trace 0

The package is imported from `src/` of the checkout that holds this file;
without it the run exits with status 2 and prints no result. BLAS threads
are capped at the number of usable cores before numpy loads.

With `--trace 0` the run times a closed loop of operations for `--seconds`
and reports the end-to-end metrics. With `--trace 1` operations alternate
between untraced and traced, the span tracer (benchmarks/tracing.py)
installed only around the traced ones; the run reports per-layer metrics
from the traced operations and the tracing overhead from the two sets of
latencies, and writes the spans to `.bench_out/`. Every line but the last
is for people; the last is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"

# The workload-specific names each generic metric stands for.
ALIASES = {
    "train_packed": {"latency_ms": "train_step_ms", "throughput_per_s": "train_tokens_per_s"},
    "eval_rolling": {"latency_ms": "eval_job_ms", "throughput_per_s": "eval_windows_per_s"},
}
MIN_OPS = 3


class NoResult(RuntimeError):
    """The run produced nothing to measure."""


def parse_args(argv, bench: dict):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input; for smoke tests only")
    return parser.parse_args(argv)


def cap_blas_threads() -> int:
    """Set BLAS/OpenMP pools to the usable cores, whatever the environment says.

    Must run before numpy loads.
    """
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cores)
    return cores


def blas_threads():
    """Threads the OpenBLAS linked into numpy reports, or None if it cannot be asked.

    dlsym on numpy's extension module also searches the libraries it links.
    """
    import ctypes

    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:
        from numpy.core import _multiarray_umath as umath
    lib = ctypes.CDLL(umath.__file__)
    for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def machine_facts(cores: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    try:
        threads = blas_threads()
    except OSError:
        threads = None
    return {"nproc": cores, "cpu_count": os.cpu_count(), "blas_name": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads,
            "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine()}


def percentile(values, q) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Loop:
    """Closed-loop runner: runs operations back to back and records each one."""

    def __init__(self, workload):
        self.workload = workload
        self.next_op = 0
        self.attempted = 0
        self.failed = 0
        self.items = 0
        self.failures: list = []
        self.roots: list = []
        self.setup_times: list = []

    def setup(self, tracer=None) -> dict:
        """One timed `workload.setup()`; returns what it built."""
        if tracer:
            tracer.install()
        try:
            began = time.perf_counter()
            built = self.workload.setup()
            self.setup_times.append(time.perf_counter() - began)
        finally:
            if tracer:
                tracer.uninstall()
        return built

    def one(self, tracer=None):
        """One operation; returns its latency in seconds, or None if it failed."""
        i = self.next_op
        self.next_op += 1
        self.attempted += 1
        arg = self.workload.prepare(i)
        root = tracer.begin("op") if tracer else None
        began = time.perf_counter()
        try:
            out = self.workload.call(i, arg)
        except Exception as e:  # a failed operation is counted, not fatal
            self.failed += 1
            self.failures.append(f"op {i}: {type(e).__name__}: {e}")
            return None
        finally:
            elapsed = time.perf_counter() - began
            if root is not None:
                tracer.end(root)
        problems = self.workload.check(i, out)
        if problems:
            self.failed += 1
            self.failures.extend(problems)
            return None
        if root is not None:
            self.roots.append(root)
        self.items += self.workload.items(out)
        return elapsed

    def run_for(self, seconds: float, tracer=None, setups: int = 0) -> tuple:
        """Operations for `seconds`; returns (untraced latencies, traced latencies).

        With a tracer, operations alternate between untraced and traced, the
        tracer installed only around the traced ones, so drift in machine
        speed hits both halves alike. `setups` more set-ups, timed and then
        discarded, run between operations at even intervals: the machine's
        speed switches between states that last seconds, and set-ups made
        back to back all land in one state.
        """
        plain, traced = [], []
        start = time.perf_counter()
        while (len(plain) < MIN_OPS or (tracer and len(traced) < MIN_OPS)
               or time.perf_counter() - start < seconds):
            if self.attempted > 10 * MIN_OPS and self.failed * 2 > self.attempted:
                break  # mostly failing: stop rather than spin
            due = len(self.setup_times) < 1 + setups and (
                time.perf_counter() - start >= seconds * len(self.setup_times) / (setups + 1))
            if due:
                self.setup(tracer)
            use_tracer = tracer is not None and len(traced) < len(plain)
            if use_tracer:
                tracer.install()
                try:
                    latency = self.one(tracer)
                finally:
                    tracer.uninstall()
            else:
                latency = self.one()
            if latency is not None:
                (traced if use_tracer else plain).append(latency)
        while len(self.setup_times) < 1 + setups:
            self.setup(tracer)
        return plain, traced


def layer_metrics(summary, store_write_s: float, overhead_pct: float) -> dict:
    s = summary
    points = s.size.get("heads.rollout", 0.0)
    rollout_tokens = s.nested.get(("heads.rollout", "model.forward"), (0, 0.0))[1]
    metrics = {
        "tensor.attention_ms": s.per_root_ms("tensor.attention", self_only=True),
        "tensor.attention_calls": s.per_root_count("tensor.attention"),
        "tensor.attention_score_mb": s.mean_size("tensor.attention") / 1e6,
        "tensor.rope_ms": s.per_root_ms("tensor.rope"),
        "tensor.rmsnorm_ms": s.per_root_ms("tensor.rmsnorm"),
        "tensor.backward_ms": s.per_root_ms("tensor.backward"),
        "tensor.tape_nodes": s.per_root_size("tensor.backward"),
        "model.forward_ms": s.per_root_ms("model.forward"),
        "model.forward_calls": s.per_root_count("model.forward"),
        "model.tokens_forwarded": s.per_root_size("model.forward"),
        "model.embed_ms": s.per_root_ms("model.embed"),
        "model.self_attention_ms": s.per_root_ms("model.self_attention", self_only=True),
        "model.attention_bias_ms": s.per_root_ms("model.attention_bias"),
        "model.packing_positions_ms": s.per_root_ms("model.packing_positions"),
        "moe.route_ms": s.per_root_ms("moe.route"),
        "moe.dispatch_ms": s.per_root_ms("moe.dispatch", self_only=True),
        "moe.expert_ffn_ms": s.per_root_ms("moe.expert_ffn"),
        "moe.expert_ffn_calls": s.per_root_count("moe.expert_ffn"),
        "moe.rows_per_expert_call": s.mean_size("moe.expert_ffn"),
        "heads.rollout_ms": s.per_root_ms("heads.rollout"),
        "heads.tokens_per_point": rollout_tokens / points if points else 0.0,
        "heads.head_forward_ms": s.per_root_ms("heads.head_forward"),
        "data.sample_batch_ms": s.per_root_ms("data.sample_batch"),
        "data.store_reads": s.per_root_count("data.store_read"),
        "data.store_write_s": store_write_s,
        "data.load_csv_s": s.per_root_ms("data.load_csv") / 1000.0,
        "train.batch_loss_ms": s.per_root_ms("train.batch_loss", self_only=True),
        "train.head_targets_ms": s.per_root_ms("train.head_targets"),
        "train.optimizer_ms": s.per_root_ms("train.optimizer"),
        "evaluate.overhead_ms": s.per_root_ms("evaluate.eval_model", self_only=True),
        "evaluate.forecasts": s.per_root_count("heads.rollout", within="evaluate.eval_model"),
        "trace.overhead_pct": overhead_pct,
    }
    return metrics


def run(args, bench: dict, cores: int) -> dict:
    from tracing import SpanSummary, Tracer
    import workloads

    sizes = workloads.TINY if args.size == "tiny" else workloads.FULL
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    tracer = Tracer() if args.trace else None
    try:
        workload = workloads.WORKLOADS[args.workload](sizes, args.seed, workdir)
        workload.generate()
        loop = Loop(workload)
        workload.use(loop.setup(tracer))  # the operations use the first set-up's objects
        loop.one()  # warm-up: lazy allocation and first-touch pages, not timed
        items_before = loop.items
        plain, traced = loop.run_for(args.seconds, tracer, setups=sizes.setup_repeats - 1)
        items = loop.items - items_before
        rss = peak_rss_mb()
        final_problems = workload.final_checks()
        if tracer:
            tracer.write(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if not plain or (tracer and not traced):
        raise NoResult("no operation succeeded: " + "; ".join((loop.failures + final_problems)[:5]))
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "why": next(w["why"] for w in bench["workloads"] if w["name"] == args.workload),
        "machine": machine_facts(cores), "facts": workload.facts(),
        "attempted": loop.attempted + workload.final_check_count,
        "failed": loop.failed + len(final_problems),
        "failures": (loop.failures + final_problems)[:20],
        "samples": len(traced if tracer else plain), "setup_samples": len(loop.setup_times),
    }
    # Latency percentiles are printed, not declared. The machine's speed
    # switches between states within a run, so a run's median jumps between
    # them; across ten-seed sets its spread exceeded the bound that
    # throughput (the mean over all operations) stayed within.
    result["latency_ms_p50"] = 1000 * median(plain)
    result["latency_ms_p90"] = 1000 * percentile(plain, 90)
    if tracer:
        overhead = 100.0 * (median(traced) / median(plain) - 1.0)
        summary = SpanSummary(tracer.spans, loop.roots)
        result["untraced_latency_ms_p50"] = 1000 * median(plain)
        result["traced_latency_ms_p50"] = 1000 * median(traced)
        result["untraced_samples"] = len(plain)
        result["spans"] = len(tracer.spans)
        writes = [end - start for name, start, end, _, _ in tracer.spans
                  if name == "data.store_write"]
        metrics = layer_metrics(summary, median(writes) if writes else 0.0, overhead)
    else:
        metrics = {
            "throughput_per_s": items / sum(plain),
            "peak_rss_mb": rss,
            "setup_s": median(loop.setup_times),
        }
    # Names, order and units come from BENCHMARK.json; a metric it declares
    # that the code does not compute fails here, before anything is printed.
    declared = bench["per_layer"] if tracer else bench["end_to_end"]
    result["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                         for m in declared}
    return result


def report(result: dict) -> None:
    """Human-readable lines; the JSON result line follows them."""
    print(f"workload {result['workload']}  seed {result['seed']}  seconds {result['seconds']}"
          f"  trace {result['trace']}  size {result['size']}")
    print("why " + result["why"])
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    print("facts " + json.dumps(result["facts"], sort_keys=True))
    aliases = ALIASES[result["workload"]]
    for name, metric in result["metrics"].items():
        alias = f" ({aliases[name]})" if name in aliases else ""
        samples = ""
        if name == "throughput_per_s":
            samples = f"  n={result['samples']}"
        elif name == "setup_s":
            samples = f"  n={result['setup_samples']}"
        print(f"metric {name}{alias} = {metric['value']:.6g} {metric['unit']}{samples}")
    if not result["trace"]:
        for q in ("p50", "p90"):
            print(f"metric latency_ms_{q} ({aliases['latency_ms']}_{q}) = "
                  f"{result['latency_ms_' + q]:.6g} ms  n={result['samples']}  "
                  "(printed only; not in BENCHMARK.json)")
    else:
        print(f"trace untraced p50 {result['untraced_latency_ms_p50']:.6g} ms "
              f"(n={result['untraced_samples']}), traced p50 "
              f"{result['traced_latency_ms_p50']:.6g} ms (n={result['samples']}), "
              f"{result['spans']} spans")
    share = result["failed"] / result["attempted"]
    print(f"metric failed_share = {share:.6g} ({result['failed']} failed / "
          f"{result['attempted']} attempted)")
    for failure in result["failures"]:
        print("failure " + failure)


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv, bench)
    cores = cap_blas_threads()
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(Path(__file__).resolve().parent)]
    sys.dont_write_bytecode = True
    try:
        import sparsecast
    except ImportError as e:
        print(f"error: cannot import sparsecast from {src}: {e}", file=sys.stderr)
        return 2
    if Path(sparsecast.__file__).resolve().parent.parent != src.resolve():
        print(f"error: imported sparsecast from {sparsecast.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    try:
        result = run(args, bench, cores)
    except NoResult as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    report(result)
    print(json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
