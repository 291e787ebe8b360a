"""Metrics, standardization, rolling windows, eval protocol, and the bench."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from helpers import (reference_count_params, reference_flops_per_token,
                     reference_match_dense_config)

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
    one_epoch_fine_tune,
    parity_gap,
)
from sparsecast.model import ConfigError, DataError, Forecaster, ModelConfig, count_params
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


def test_last_value_baseline_keeps_the_rollout_shape_contract():
    ctx = np.arange(30.0).reshape(10, 3)
    np.testing.assert_array_equal(LastValueBaseline().forecast(ctx, 5), np.tile(ctx[-1], (5, 1)))
    np.testing.assert_array_equal(LastValueBaseline().forecast(ctx[:, 1], 5), np.full(5, 28.0))
    for bad in (np.ones((0,)), np.ones((0, 3)), np.ones((10, 3, 2))):
        with pytest.raises(ValueError, match=r"non-empty \[T\] or \[T, C\]"):
            LastValueBaseline().forecast(bad, 5)


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
    # A context or horizon below 1 was a bare IndexError in eval_model.
    for horizons, contexts in (((96,), (0,)), ((96,), (-4,)), ((0, 96), (512, 512))):
        with pytest.raises(ValueError, match="all >= 1"):
            EvalSpec(dataset="x", horizons=horizons, contexts=contexts)
    spec = EvalSpec(dataset="x", horizons=(96,), contexts=(512,))
    assert EvalSpec.from_dict(spec.to_dict()) == spec


def test_eval_spec_rejects_an_empty_list_of_pairs():
    # An empty spec would evaluate nothing and report NaN averages.
    with pytest.raises(ValueError, match="at least one pair"):
        EvalSpec(dataset="x", horizons=(), contexts=())


@pytest.mark.parametrize("field, doc", [("horizons", {"horizons": [96.9], "contexts": [512]}),
                                        ("contexts", {"horizons": [96], "contexts": ["512"]}),
                                        ("horizons", {"horizons": [False], "contexts": [512]})])
def test_eval_spec_rejects_non_int_horizons_and_contexts(field, doc):
    with pytest.raises(ConfigError, match=f"EvalSpec: {field} must hold ints"):
        EvalSpec.from_dict({"dataset": "x", **doc})


def test_eval_model_holds_one_copy_of_the_dataset_while_it_forecasts(tmp_path):
    # The raw array goes once it is standardized, and the standardizer
    # divides in place: one ETTh1-shaped dataset is alive during the
    # forecasts (two before), and three copies are never alive at once.
    rows, channels = sum(BENCHMARK_SPLITS["etth1"]), 7
    path = tmp_path / "etth1.csv"
    values = np.random.default_rng(4).normal(loc=3.0, scale=5.0, size=(rows, channels))
    write_csv(path, values, [f"ch{c}" for c in range(channels)])
    dataset_bytes = values.nbytes
    del values

    class Probe(LastValueBaseline):
        held = None

        def forecast(self, context, h):
            if self.held is None:
                self.held = tracemalloc.get_traced_memory()[0]
            return super().forecast(context, h)

    probe = Probe()
    spec = EvalSpec(dataset=str(path), horizons=(96,), contexts=(512,),
                    splits=BENCHMARK_SPLITS["etth1"], stride=2786)
    tracemalloc.start()
    try:
        eval_model(probe, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert probe.held < 1.25 * dataset_bytes, \
        f"{probe.held / 1e6:.2f} MB held, dataset {dataset_bytes / 1e6:.2f} MB"
    assert peak < 2.5 * dataset_bytes, f"peak {peak / 1e6:.2f} MB, dataset {dataset_bytes / 1e6:.2f} MB"


def _small_model(max_context=64):
    return Forecaster.init(ModelConfig(num_layers=1, num_heads=2, num_experts=2, top_k=1,
                                       d_model=8, d_ff=16, d_expert=8, head_horizons=(1, 4),
                                       max_context=max_context), seed=3)


def test_values_too_large_to_standardize_are_a_data_error(tmp_path):
    # A channel alternating +-1e300 has an infinite std: standardizing it
    # warned "overflow encountered in square" and eval_model went on to report
    # errors on a channel divided down to zeros.
    values = np.random.default_rng(4).normal(size=(240, 2))
    values[:, 1] = np.resize([1e300, -1e300], 240)
    with pytest.raises(DataError, match="channel 1"):
        Standardizer.fit(values)
    path = tmp_path / "huge.csv"
    write_csv(path, values, ["ch0", "ch1"])
    spec = EvalSpec(dataset=str(path), horizons=(4,), contexts=(16,), splits=(144, 48, 48),
                    stride=8)
    with pytest.raises(DataError, match="channel 1"):
        eval_model(_small_model(), spec)


def test_context_above_max_context_is_a_window_error_before_any_forecast(tmp_path, monkeypatch):
    # The rollout slid each window down to max_context points, so contexts
    # 64, 70 and 79 reported the same errors under their own labels.
    path = synthetic_csv(tmp_path, rows=240)
    spec = EvalSpec(dataset=str(path), horizons=(4, 4), contexts=(64, 70),
                    splits=(144, 48, 48), stride=8)
    model = _small_model()
    calls = []
    monkeypatch.setattr("sparsecast.evaluate.autoregressive_forecast",
                        lambda *args: calls.append(args))
    with pytest.raises(WindowError, match="max_context 64"):
        eval_model(model, spec)
    assert calls == []
    monkeypatch.undo()
    report = eval_model(_small_model(max_context=70), spec)
    assert [row["context"] for row in report.rows] == [64, 70]


def test_standardizer_transform_matches_one_expression_bitwise():
    rng = np.random.default_rng(9)
    train = rng.normal(loc=3.0, scale=5.0, size=(500, 7))
    scaler = Standardizer.fit(train)
    other = rng.normal(loc=2.0, scale=4.0, size=(300, 7))
    assert scaler.transform(other).tobytes() == ((other - scaler.mean) / scaler.std).tobytes()


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
    # Timing: every window is forecast once per channel (two here).
    seconds = report.metadata["seconds"]
    assert seconds > 0
    assert report.metadata["windows_per_s"] == pytest.approx(
        2 * report.rows[0]["windows"] / seconds)
    assert "fine_tune_steps" not in report.metadata


def test_fine_tune_mode_tunes_a_copy(tmp_path):
    path = synthetic_csv(tmp_path, rows=160)
    cfg = ModelConfig(num_layers=1, num_heads=2, num_experts=2, top_k=1, d_model=8,
                      d_ff=16, d_expert=8, head_horizons=(1, 4), max_context=64)
    model = Forecaster.init(cfg, seed=4)
    before = model.param_bytes()
    spec = EvalSpec(dataset=str(path), horizons=(4,), contexts=(16,),
                    splits=(96, 32, 32), mode="fine_tune", stride=8)
    tune = TrainConfig(steps=1, batch=2, context=16, lr=1e-3, warmup_steps=1, seed=0)
    report = eval_model(model, spec, fine_tune_config=tune)
    assert model.param_bytes() == before
    assert report.metadata["model_hash"] != model_hash(model)
    assert report.metadata["mode"] == "fine_tune"
    # 2 channels x 96 train rows / 16-point crops = 12 crops, 2 per step.
    assert report.metadata["fine_tune_steps"] == 6
    assert np.isfinite(report.metadata["fine_tune_loss"])
    assert report.metadata["fine_tune_seconds"] > 0
    assert report.metadata["seconds"] > 0 and report.metadata["windows_per_s"] > 0


def test_fine_tune_honours_grad_clip():
    # Adam is nearly scale-free, but a clip of 1e-9 shrinks the gradients far
    # below its eps, so a clipped epoch must end at other parameters.
    cfg = ModelConfig(num_layers=1, num_heads=2, num_experts=2, top_k=1, d_model=8,
                      d_ff=16, d_expert=8, head_horizons=(1, 4), max_context=64)
    values = np.random.default_rng(5).normal(size=(64, 2))

    def tuned(clip):
        model = Forecaster.init(cfg, seed=4)
        tune = TrainConfig(steps=1, batch=2, context=16, lr=1e-3, warmup_steps=1, seed=0,
                           grad_clip=clip)
        assert len(one_epoch_fine_tune(model, values, tune)) == 4
        return model.param_bytes()

    assert tuned(1e-9) != tuned(None)


def test_fine_tune_mode_requires_config(tmp_path):
    path = synthetic_csv(tmp_path, rows=120)
    spec = EvalSpec(dataset=str(path), horizons=(4,), contexts=(16,),
                    splits=(72, 24, 24), mode="fine_tune")
    with pytest.raises(ValueError):
        eval_model(LastValueBaseline(), spec)


# --- flops and parity -----------------------------------------------------------------


# The paper's base, large and ultra shapes (arXiv 2409.16040), each routed
# expert d_ff / 2 wide, with their (total, activated) counts.
PAPER_SHAPES = {
    "base": (dict(num_layers=12, num_heads=12, d_model=384, d_ff=1536), 102_735_360, 39_034_368),
    "large": (dict(num_layers=12, num_heads=12, d_model=768, d_ff=3072), 410_729_472, 155_925_504),
    "ultra": (dict(num_layers=36, num_heads=16, d_model=1024, d_ff=4096),
              2_190_053_376, 831_098_880),
}


def paper_config(name: str) -> ModelConfig:
    shape = PAPER_SHAPES[name][0]
    return ModelConfig(**shape, d_expert=shape["d_ff"] // 2, num_experts=8, top_k=2)


def test_counts_flops_and_dense_width_equal_their_closed_forms():
    grid = [ModelConfig(num_layers=layers, num_heads=2, d_model=16, num_experts=n, top_k=k,
                        d_ff=d_ff, d_expert=8, use_moe=use_moe)
            for layers in (1, 2, 3) for n in (1, 4, 8) for k in range(1, n + 1)
            for d_ff in (8, 40) for use_moe in (True, False)]
    for name, (_, total, activated) in PAPER_SHAPES.items():
        moe = paper_config(name)
        assert count_params(moe) == {"total": total, "activated": activated}
        grid += [moe, match_dense_config(moe)]
    for config in grid:
        assert count_params(config) == reference_count_params(config), config
        for context in (48, 1024):
            assert flops_per_token(config, context) \
                == reference_flops_per_token(config, context), config
        assert match_dense_config(config) == reference_match_dense_config(config), config
    # Read off placeholders: real arrays of the ultra model would take 8.8 GB.
    tracemalloc.start()
    try:
        ultra = paper_config("ultra")
        count_params(ultra), flops_per_token(ultra), match_dense_config(ultra)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


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
