"""Metrics, standardization, rolling windows, eval protocol, and the bench."""

import json
import math

import numpy as np
import pytest

from sparsecast.data import CsvSchema, write_csv
from sparsecast.evaluate import (
    BENCHMARK_SPLITS,
    EvalReport,
    EvalSpec,
    LastValueBaseline,
    Standardizer,
    WindowError,
    bench_sparse_vs_dense,
    eval_model,
    flops_per_token,
    iter_eval_windows,
    match_dense_config,
    model_hash,
    parity_gap,
)
from sparsecast.model import ConfigError, Forecaster, ModelConfig, count_params
from sparsecast.synthetic import build_regime_store
from sparsecast.evaluate import mae, mse
from sparsecast.train import TrainConfig


# --- metrics ---------------------------------------------------------------------


def test_metrics_zero_on_identical():
    x = np.arange(5, dtype=float)
    assert mse(x, x) == 0.0
    assert mae(x, x) == 0.0


def test_metrics_closed_form():
    assert mse([0.0, 0.0], [1.0, -1.0]) == 1.0
    assert mae([0.0, 0.0], [1.0, -1.0]) == 1.0


def test_metrics_jensen_relation():
    rng = np.random.default_rng(0)
    for _ in range(50):
        x = rng.normal(size=32)
        y = rng.normal(size=32)
        m2 = mse(x, y)
        m1 = mae(x, y)
        assert m2 >= 0.0
        assert m1 <= math.sqrt(m2) + 1e-12


def test_metrics_length_mismatch():
    with pytest.raises(ValueError):
        mse(np.ones(3), np.ones(4))


# --- standardization ----------------------------------------------------------------


def test_standardize_roundtrip_identity():
    rng = np.random.default_rng(1)
    train = rng.normal(loc=3.0, scale=5.0, size=(100, 4))
    scaler = Standardizer.fit(train)
    other = rng.normal(size=(20, 4))
    back = scaler.invert(scaler.transform(other))
    np.testing.assert_allclose(back, other, atol=1e-6)
    z = scaler.transform(train)
    np.testing.assert_allclose(z.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(z.std(axis=0), 1.0, atol=1e-9)


# --- rolling windows -----------------------------------------------------------------


def test_windows_tile_test_split():
    windows = list(iter_eval_windows(100, (60, 20, 20), context=16, horizon=5))
    assert windows[0] == ((64, 80), (80, 85))
    assert windows[-1][1] == (95, 100)
    assert len(windows) == 16


def test_windows_never_leak_test_targets():
    splits = (60, 20, 20)
    for (c0, c1), (t0, t1) in iter_eval_windows(100, splits, 32, 7, stride=3):
        assert c1 == t0          # context ends exactly where targets begin
        assert c0 >= 0
        assert t0 >= splits[0] + splits[1]
        assert t1 <= 100


def test_windows_errors():
    with pytest.raises(WindowError):
        list(iter_eval_windows(100, (60, 20, 20), context=128, horizon=5))
    with pytest.raises(WindowError):
        list(iter_eval_windows(100, (60, 20, 20), context=8, horizon=25))
    with pytest.raises(WindowError):
        list(iter_eval_windows(90, (60, 20, 20), context=8, horizon=5))


def test_benchmark_shaped_split_audit():
    splits = BENCHMARK_SPLITS["etth1"]
    rows = sum(splits)
    test_start = splits[0] + splits[1]
    for horizon, context in zip((96, 192, 336, 720), (512, 1024, 2048, 3072)):
        seen = 0
        for (c0, c1), (t0, t1) in iter_eval_windows(rows, splits, context, horizon):
            assert c1 <= t0 and t0 >= test_start and t1 <= rows and c0 >= 0
            seen += 1
        assert seen == splits[2] - horizon + 1


# --- eval protocol -------------------------------------------------------------------


def synthetic_csv(tmp_path, rows=240, channels=2, seed=2, constant=None):
    rng = np.random.default_rng(seed)
    if constant is None:
        t = np.arange(rows)
        values = np.stack([np.sin(2 * np.pi * t / 16 + c) + 0.01 * rng.normal(size=rows)
                           for c in range(channels)], axis=1)
    else:
        values = np.full((rows, channels), float(constant))
    path = tmp_path / "series.csv"
    write_csv(path, values, [f"ch{c}" for c in range(channels)])
    return path


def test_last_value_on_constant_series_is_exact(tmp_path):
    path = synthetic_csv(tmp_path, constant=4.2)
    spec = EvalSpec(dataset=str(path), horizons=(4, 8), contexts=(16, 16),
                    splits=(144, 48, 48), standardize=False, stride=4)
    report = eval_model(LastValueBaseline(), spec)
    for row in report.rows:
        assert row["mse"] == 0.0
        assert row["mae"] == 0.0


def test_report_has_one_row_per_horizon(tmp_path):
    path = synthetic_csv(tmp_path)
    spec = EvalSpec(dataset=str(path), horizons=(4, 8, 12), contexts=(16, 16, 32),
                    splits=(144, 48, 48), stride=8)
    report = eval_model(LastValueBaseline(), spec)
    assert len(report.rows) == 3
    assert [r["horizon"] for r in report.rows] == [4, 8, 12]


def test_report_average_matches_row_mean(tmp_path):
    path = synthetic_csv(tmp_path)
    spec = EvalSpec(dataset=str(path), horizons=(4, 8), contexts=(16, 16),
                    splits=(144, 48, 48), stride=8)
    report = eval_model(LastValueBaseline(), spec)
    assert report.averages["mse"] == pytest.approx(np.mean([r["mse"] for r in report.rows]))
    assert report.averages["mae"] == pytest.approx(np.mean([r["mae"] for r in report.rows]))


def test_report_json_roundtrip(tmp_path):
    path = synthetic_csv(tmp_path)
    spec = EvalSpec(dataset=str(path), horizons=(4,), contexts=(16,),
                    splits=(144, 48, 48), stride=8)
    report = eval_model(LastValueBaseline(), spec)
    clone = EvalReport.from_json(report.to_json())
    assert clone.rows == report.rows
    assert clone.averages == report.averages
    assert clone.metadata == report.metadata


def test_eval_spec_validation():
    with pytest.raises(ValueError):
        EvalSpec(dataset="x", horizons=(96,), contexts=(512, 1024))
    with pytest.raises(ValueError):
        EvalSpec(dataset="x", mode="few_shot")
    spec = EvalSpec(dataset="x", horizons=(96,), contexts=(512,))
    assert EvalSpec.from_dict(spec.to_dict()) == spec


@pytest.mark.parametrize("field, doc", [("horizons", {"horizons": [96.9], "contexts": [512]}),
                                        ("contexts", {"horizons": [96], "contexts": ["512"]}),
                                        ("horizons", {"horizons": [False], "contexts": [512]})])
def test_eval_spec_rejects_non_int_horizons_and_contexts(field, doc):
    with pytest.raises(ConfigError, match=f"EvalSpec: {field} must hold ints"):
        EvalSpec.from_dict({"dataset": "x", **doc})


def test_eval_model_records_model_metadata(tmp_path):
    path = synthetic_csv(tmp_path, rows=120)
    cfg = ModelConfig(num_layers=1, num_heads=2, num_experts=2, top_k=1, d_model=8,
                      d_ff=16, d_expert=8, head_horizons=(1, 4), max_context=64)
    model = Forecaster.init(cfg, seed=3)
    spec = EvalSpec(dataset=str(path), horizons=(4,), contexts=(16,),
                    splits=(72, 24, 24), stride=8)
    report = eval_model(model, spec)
    assert report.metadata["model_hash"] == model_hash(model)
    assert report.metadata["standardized"] is True
    assert np.isfinite(report.averages["mse"])


def test_fine_tune_mode_changes_parameters(tmp_path):
    path = synthetic_csv(tmp_path, rows=160)
    cfg = ModelConfig(num_layers=1, num_heads=2, num_experts=2, top_k=1, d_model=8,
                      d_ff=16, d_expert=8, head_horizons=(1, 4), max_context=64)
    model = Forecaster.init(cfg, seed=4)
    before = model.param_bytes()
    spec = EvalSpec(dataset=str(path), horizons=(4,), contexts=(16,),
                    splits=(96, 32, 32), mode="fine_tune", stride=8)
    tune = TrainConfig(steps=1, batch=2, context=16, lr=1e-3, warmup_steps=1, seed=0)
    report = eval_model(model, spec, fine_tune_config=tune)
    assert model.param_bytes() != before
    assert report.metadata["mode"] == "fine_tune"


def test_fine_tune_mode_requires_config(tmp_path):
    path = synthetic_csv(tmp_path, rows=120)
    spec = EvalSpec(dataset=str(path), horizons=(4,), contexts=(16,),
                    splits=(72, 24, 24), mode="fine_tune")
    with pytest.raises(ValueError):
        eval_model(LastValueBaseline(), spec)


# --- flops and parity -----------------------------------------------------------------


def test_flops_moe_below_same_width_dense():
    moe = ModelConfig(num_layers=12, num_heads=12, num_experts=8, top_k=2,
                      d_model=384, d_ff=1536, d_expert=192)
    dense = ModelConfig.from_dict({**moe.to_dict(), "use_moe": False})
    assert moe.top_k * moe.d_expert < moe.d_ff
    assert flops_per_token(moe) < flops_per_token(dense)


def test_matched_dense_config_has_activated_parity():
    moe = ModelConfig(num_layers=2, num_heads=4, num_experts=4, top_k=2,
                      d_model=32, d_ff=128, d_expert=16)
    dense = match_dense_config(moe)
    assert not dense.use_moe
    assert parity_gap(moe, dense) < 0.02
    # parity implies near-equal mixture compute; whole-model FLOPs then agree closely
    moe_fl = flops_per_token(moe, 256)
    dense_fl = flops_per_token(dense, 256)
    assert abs(moe_fl - dense_fl) / dense_fl < 0.02


def test_bench_report_shape_and_roundtrip(tmp_path):
    moe = ModelConfig(num_layers=1, num_heads=2, num_experts=2, top_k=1,
                      d_model=8, d_ff=16, d_expert=8, head_horizons=(1, 4),
                      max_context=64)
    dense = match_dense_config(moe)
    store = build_regime_store(tmp_path, np.random.default_rng(5), per_regime=2,
                               length=256)
    tcfg = TrainConfig(steps=3, batch=2, context=24, lr=1e-3, warmup_steps=1, seed=0)
    report = bench_sparse_vs_dense(moe, dense, store, tcfg, seeds=[0, 1])
    assert {"configs", "params", "parity_gap", "flops_per_token", "runs",
            "moe_win_count"} <= set(report)
    assert len(report["runs"]) == 2
    for run in report["runs"]:
        assert {"seed", "moe_final_loss", "dense_final_loss", "moe_seconds",
                "dense_seconds", "moe_wins"} <= set(run)
    clone = json.loads(json.dumps(report))
    assert clone == report


def test_count_params_drives_parity_check():
    moe = ModelConfig(num_layers=2, num_heads=4, num_experts=8, top_k=2,
                      d_model=64, d_ff=256, d_expert=32)
    dense = match_dense_config(moe)
    assert abs(count_params(dense)["total"] - count_params(moe)["activated"]) \
        / count_params(moe)["activated"] < 0.02
