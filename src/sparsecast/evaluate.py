"""Evaluation harness: error metrics, the rolling benchmark protocol, and the
sparse-vs-dense comparison bench.

Rolling evaluation slides a (context, horizon) pair across the test split at
a fixed stride. Target windows always lie inside the test split and context
windows end strictly before their targets begin, so test values can never
leak into any model input. Metrics are computed on the standardized scale
(per-channel z-scores fit on the train split); the report records the flag.
"""

from __future__ import annotations

import copy
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import CsvSchema, load_csv, PackedBatch
from .heads import autoregressive_forecast
from .model import ConfigCodec, DataError, Forecaster, ModelConfig, count_params, int_items
from .train import AdamW, TrainConfig, train_loop, train_step

# Canonical (train, val, test) row counts of the long-horizon benchmark files.
BENCHMARK_SPLITS = {
    "etth1": (8545, 2881, 2881),
    "etth2": (8545, 2881, 2881),
    "ettm1": (34465, 11521, 11521),
    "ettm2": (34465, 11521, 11521),
    "weather": (36792, 5271, 10540),
    "global_temp": (12280, 1755, 3509),
}


class WindowError(ValueError):
    """Requested context/horizon cannot be tiled onto the available rows."""


def _errors(x, x_hat, metric: str) -> np.ndarray:
    """x - x_hat in float64; metric names the caller in the error."""
    x, x_hat = np.asarray(x, dtype=np.float64), np.asarray(x_hat, dtype=np.float64)
    if x.shape != x_hat.shape or x.size == 0:
        raise ValueError(f"{metric} needs matching non-empty arrays, got {x.shape} vs {x_hat.shape}")
    return x - x_hat


def mse(x, x_hat) -> float:
    return float(np.mean(_errors(x, x_hat, "mse") ** 2))


def mae(x, x_hat) -> float:
    return float(np.mean(np.abs(_errors(x, x_hat, "mae"))))


@dataclass
class Standardizer:
    """Per-channel z-scoring with train-split statistics."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, train_values: np.ndarray) -> "Standardizer":
        """Each channel's mean and std (at least 1e-8); a channel whose mean or
        std is not finite in float64, such as values near 1e300, is a DataError."""
        values = np.asarray(train_values, dtype=np.float64)
        with np.errstate(over="ignore", invalid="ignore"):
            mean, std = values.mean(axis=0), values.std(axis=0)
        bad = np.flatnonzero(~(np.isfinite(mean) & np.isfinite(std)))
        if bad.size:
            raise DataError(f"channel {bad[0]}: values too large to standardize, std {std[bad[0]]}")
        return cls(mean=mean, std=np.maximum(std, 1e-8))

    def transform(self, values: np.ndarray) -> np.ndarray:
        # Divided in place: one new array, not two.
        out = np.asarray(values, dtype=np.float64) - self.mean
        out /= self.std
        return out

    def invert(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=np.float64) * self.std + self.mean


class LastValueBaseline:
    """Predicts the last observed value forever; the floor any model must beat."""

    def forecast(self, context, h: int) -> np.ndarray:
        context = np.asarray(context, dtype=np.float64).reshape(-1)
        return np.full(h, context[-1])


def _forecast(model, context: np.ndarray, h: int) -> np.ndarray:
    if hasattr(model, "forecast"):
        return np.asarray(model.forecast(context, h), dtype=np.float64)
    return autoregressive_forecast(model, context, h)


@dataclass
class EvalSpec(ConfigCodec):
    """What to evaluate: dataset, paired (horizon, context) lists, and mode."""

    dataset: str
    horizons: tuple = (96, 192, 336, 720)
    contexts: tuple = (512, 1024, 2048, 3072)
    mode: str = "zero_shot"
    standardize: bool = True
    splits: tuple = (0.6, 0.2, 0.2)
    columns: list | None = None
    stride: int = 1

    def __post_init__(self):
        self.horizons = int_items("EvalSpec", "horizons", self.horizons)
        self.contexts = int_items("EvalSpec", "contexts", self.contexts)
        self.splits = tuple(self.splits)
        if len(self.horizons) != len(self.contexts):
            raise ValueError("horizons and contexts must pair up one-to-one")
        if not self.horizons or min(self.horizons + self.contexts) < 1:
            raise ValueError(f"horizons and contexts must hold at least one pair, all >= 1, "
                             f"got {self.horizons} and {self.contexts}")
        if self.mode not in ("zero_shot", "fine_tune"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.stride < 1:
            raise ValueError("stride must be >= 1")


def iter_eval_windows(n_rows: int, splits: tuple, context: int, horizon: int,
                      stride: int = 1):
    """Yield ((ctx_start, ctx_stop), (tgt_start, tgt_stop)) index pairs.

    Targets tile the test split; each context is the `context` rows
    immediately before its target, reaching back into earlier splits as
    history (never forward).
    """
    n_train, n_val, n_test = splits
    test_start = n_train + n_val
    if test_start + n_test > n_rows:
        raise WindowError(f"splits {splits} exceed {n_rows} rows")
    if horizon > n_test:
        raise WindowError(f"horizon {horizon} longer than the {n_test}-row test split")
    if context > test_start:
        raise WindowError(f"context {context} longer than the {test_start} rows of history")
    last_start = n_rows - horizon
    for s in range(test_start, last_start + 1, stride):
        yield (s - context, s), (s, s + horizon)


@dataclass
class EvalReport:
    rows: list
    averages: dict
    metadata: dict = field(default_factory=dict)

    @classmethod
    def from_rows(cls, rows: list, metadata: dict | None = None) -> "EvalReport":
        averages = {
            "mse": float(np.mean([r["mse"] for r in rows])),
            "mae": float(np.mean([r["mae"] for r in rows])),
        }
        return cls(rows=rows, averages=averages, metadata=metadata or {})

    def to_json(self) -> str:
        return json.dumps({"rows": self.rows, "averages": self.averages,
                           "metadata": self.metadata}, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "EvalReport":
        doc = json.loads(text)
        return cls(rows=doc["rows"], averages=doc["averages"], metadata=doc["metadata"])


def model_hash(model: Forecaster) -> str:
    digest = hashlib.sha256()
    digest.update(json.dumps(model.config.to_dict(), sort_keys=True).encode())
    digest.update(model.param_bytes())
    return digest.hexdigest()[:16]


def one_epoch_fine_tune(model: Forecaster, train_values: np.ndarray,
                        config: TrainConfig) -> list:
    """Exactly one pass over the train split: sequential non-overlapping
    context-length crops of every channel, batched in order. Returns the
    train_step record of every optimization step taken."""
    rows = []
    for c in range(train_values.shape[1]):
        channel = train_values[:, c]
        for start in range(0, len(channel) - config.context + 1, config.context):
            rows.append(channel[start:start + config.context])
    optimizer = AdamW(model, config)
    records = []
    for i in range(0, len(rows), config.batch):
        chunk = np.stack(rows[i:i + config.batch]).astype(np.float32)
        batch = PackedBatch(
            tokens=chunk[:, :, None],
            seq_ids=np.zeros(chunk.shape[:2], dtype=np.int64),
            pad_mask=np.zeros(chunk.shape[:2], dtype=bool),
        )
        records.append(train_step(model, optimizer, batch, config, config.lr))
    return records


def eval_model(model, spec: EvalSpec, fine_tune_config: TrainConfig | None = None) -> EvalReport:
    """Rolling evaluation per the configured protocol; returns one row per
    (horizon, context) pair with channel-and-window-averaged MSE/MAE.

    In fine_tune mode a copy of the model is tuned and evaluated, so the
    caller's model is left as it was, and the report's model_hash is the
    tuned copy's.

    The metadata times the rolling forecasts: seconds is their wall time
    and windows_per_s the windows forecast per second, each window counted
    once per channel. A fine-tune report adds fine_tune_steps, fine_tune_loss
    (the last step's loss, None when the split holds no crop) and
    fine_tune_seconds.

    A Forecaster's rollout slides a context longer than its max_context down
    to max_context points, so such a pair is a WindowError before anything
    runs."""
    if isinstance(model, Forecaster) and max(spec.contexts) > model.config.max_context:
        raise WindowError(f"context {max(spec.contexts)} exceeds the model's max_context "
                          f"{model.config.max_context}")
    loaded = load_csv(spec.dataset, CsvSchema(columns=spec.columns, splits=spec.splits))
    # Only the split sizes outlive this: the raw array goes once it is standardized.
    values, splits = loaded.values, loaded.splits
    del loaded
    n_train = splits[0]
    if spec.standardize:
        scaler = Standardizer.fit(values[:n_train])
        values = scaler.transform(values)
    if spec.mode == "fine_tune":
        if fine_tune_config is None:
            raise ValueError("fine_tune mode needs a TrainConfig")
        model = copy.deepcopy(model)
        began = time.perf_counter()
        records = one_epoch_fine_tune(model, values[:n_train], fine_tune_config)
        tuning = {"fine_tune_seed": fine_tune_config.seed, "fine_tune_steps": len(records),
                  "fine_tune_loss": records[-1]["loss"] if records else None,
                  "fine_tune_seconds": time.perf_counter() - began}
    began = time.perf_counter()
    rows = []
    channels = values.shape[1]
    for horizon, context in zip(spec.horizons, spec.contexts):
        se_sum = 0.0
        ae_sum = 0.0
        count = 0
        windows = 0
        for (c0, c1), (t0, t1) in iter_eval_windows(len(values), splits,
                                                    context, horizon, spec.stride):
            windows += 1
            for ch in range(channels):
                pred = _forecast(model, values[c0:c1, ch], horizon)
                err = pred - values[t0:t1, ch]
                se_sum += float(np.sum(err ** 2))
                ae_sum += float(np.sum(np.abs(err)))
                count += horizon
        if count == 0:
            raise WindowError(f"no evaluation windows for horizon {horizon}")
        rows.append({"dataset": Path(spec.dataset).stem, "horizon": horizon,
                     "context": context, "mse": se_sum / count, "mae": ae_sum / count,
                     "windows": windows})
    seconds = time.perf_counter() - began
    forecasts = sum(row["windows"] for row in rows) * channels
    metadata = {"mode": spec.mode, "standardized": spec.standardize,
                "stride": spec.stride, "seconds": seconds, "windows_per_s": forecasts / seconds}
    if spec.mode == "fine_tune":
        metadata.update(tuning)
    if isinstance(model, Forecaster):
        metadata["model_hash"] = model_hash(model)
        metadata["model_config"] = model.config.to_dict()
    return EvalReport.from_rows(rows, metadata)


# --- sparse-vs-dense bench ---------------------------------------------------------


def flops_per_token(config: ModelConfig, context_len: int = 1024) -> float:
    """Analytic multiply-add count (x2) per token at a given context length.

    Counts the embedding, per-layer attention projections and score/value
    matmuls, the mixture (router plus the K routed and one shared expert, or
    the dense FFN), and the forecast heads.
    """
    d = config.d_model
    embed = 2 * 2 * d
    attn = 2 * 4 * d * d + 2 * 2 * context_len * d
    if config.use_moe:
        mixture = 2 * (config.num_experts + 1) * d \
            + (config.top_k + 1) * 2 * 3 * d * config.d_expert
    else:
        mixture = 2 * 3 * d * config.d_ff
    heads = 2 * d * sum(config.head_horizons)
    return float(embed + config.num_layers * (attn + mixture) + heads)


def match_dense_config(moe_config: ModelConfig) -> ModelConfig:
    """Dense variant whose parameter count matches the activated parameters
    of the mixture model, by solving for its FFN hidden size."""
    if not moe_config.use_moe:
        raise ValueError("expected a mixture configuration")
    target = count_params(moe_config)["activated"]
    doc = moe_config.to_dict()
    doc["use_moe"] = False
    base = ModelConfig.from_dict({**doc, "d_ff": 1})
    without_ffn = count_params(base)["total"] - moe_config.num_layers * 3 * moe_config.d_model
    d_ff = round((target - without_ffn) / (moe_config.num_layers * 3 * moe_config.d_model))
    return ModelConfig.from_dict({**doc, "d_ff": max(1, int(d_ff))})


def parity_gap(a: ModelConfig, b: ModelConfig) -> float:
    """Relative activated-parameter difference between two configurations."""
    pa = count_params(a)["activated"]
    pb = count_params(b)["activated"]
    return abs(pa - pb) / max(pa, pb)


def bench_sparse_vs_dense(moe_config: ModelConfig, dense_config: ModelConfig,
                          store, train_config: TrainConfig, seeds,
                          domain_weights: dict | None = None) -> dict:
    """Train both configurations at equal step budgets on the same data,
    once per seed; report final losses, wall time, parity, and FLOPs."""
    counts = {"moe": count_params(moe_config), "dense": count_params(dense_config)}
    report = {
        "configs": {"moe": moe_config.to_dict(), "dense": dense_config.to_dict()},
        "params": counts,
        "parity_gap": parity_gap(moe_config, dense_config),
        "flops_per_token": {
            "moe": flops_per_token(moe_config, train_config.context),
            "dense": flops_per_token(dense_config, train_config.context),
        },
        "steps": train_config.steps,
        "runs": [],
    }
    for seed in seeds:
        run = {"seed": int(seed)}
        for label, config in (("moe", moe_config), ("dense", dense_config)):
            model = Forecaster.init(config, seed=seed)
            cfg = TrainConfig(**{**train_config.to_dict(), "seed": seed})
            began = time.perf_counter()
            metrics = train_loop(model, store, cfg, domain_weights=domain_weights)
            run[f"{label}_seconds"] = time.perf_counter() - began
            tail = [m["loss_ar"] for m in metrics[-10:]]
            run[f"{label}_final_loss"] = float(np.mean(tail))
        run["moe_wins"] = bool(run["moe_final_loss"] <= run["dense_final_loss"])
        report["runs"].append(run)
    report["moe_win_count"] = sum(r["moe_wins"] for r in report["runs"])
    return report
