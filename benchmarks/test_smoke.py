"""Smoke tests of the benchmark itself at tiny sizes.

    python3 -m pytest -q benchmarks/test_smoke.py

They check the output format of run.py in both modes, the refusal to run
without the package sources, that tracing leaves the package as it found
it, the self-time arithmetic of the span summary, and that per-step
train_loop calls replay one uninterrupted call.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(cwd: Path, workload: str, trace: int, *extra) -> subprocess.CompletedProcess:
    argv = [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_matches_benchmark_json(workload, trace):
    proc = run_bench(ROOT, workload, trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, metric["name"]
    assert "machine " in proc.stdout and "failed_share" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "benchmarks")
    proc = run_bench(tmp_path, "train_packed", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_restores_every_attribute():
    import importlib

    from tracing import TRACE_POINTS, Tracer

    def current():
        out = []
        for module_name, owner_name, attr, _, _ in TRACE_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            out.append(vars(owner)[attr])
        return out

    before = current()
    tracer = Tracer()
    tracer.install()
    assert all(a is not b for a, b in zip(current(), before))
    tracer.uninstall()
    assert all(a is b for a, b in zip(current(), before))


def test_span_summary_self_time_and_nesting():
    from tracing import SpanSummary

    spans = [["op", 0.0, 10.0, -1, 0.0],
             ["a", 1.0, 4.0, 0, 2.0],
             ["b", 2.0, 3.0, 1, 5.0],
             ["a", 5.0, 6.0, 0, 4.0],
             ["b", 20.0, 21.0, -1, 7.0]]      # outside every root: ignored
    s = SpanSummary(spans, roots=[0])
    assert s.self_time == {"op": 6.0, "a": 3.0, "b": 1.0}
    assert s.total == {"op": 10.0, "a": 4.0, "b": 1.0}
    assert s.mean_size("a") == 3.0
    assert s.nested[("a", "b")] == (1, 5.0) and s.nested[("op", "b")] == (1, 5.0)
    assert s.per_root_count("b", within="a") == 1.0 and s.per_root_count("op", within="a") == 0.0


def test_per_step_calls_replay_one_train_loop(tmp_path):
    import dataclasses

    import workloads
    from sparsecast import train

    def trained(per_step: bool) -> bytes:
        work = workloads.TrainPacked(workloads.TINY, seed=5, workdir=tmp_path)
        work.generate()
        work.use(work.setup())
        if per_step:
            for i in range(3):
                work.call(i, work.prepare(i))
        else:
            config = dataclasses.replace(work.config, steps=3)
            train.train_loop(work.model, work.store, config, optimizer=work.optimizer)
        return work.model.param_bytes()

    assert trained(per_step=True) == trained(per_step=False)


@pytest.mark.xfail(strict=True, raises=ValueError,
                   reason="known defect: head_targets cannot broadcast when the "
                          "training context is shorter than the largest head horizon")
def test_known_defect_context_below_largest_horizon(tmp_path):
    from sparsecast import synthetic, train
    from sparsecast.model import Forecaster
    import workloads

    store = synthetic.build_regime_store(tmp_path, np.random.default_rng(0), per_regime=1,
                                         length=100)
    model = Forecaster.init(workloads.model_config(), seed=0)
    train.train_loop(model, store, train.TrainConfig(steps=1, batch=1, context=32))
