"""Evaluation harness: error metrics, the rolling benchmark protocol, and the
sparse-vs-dense comparison bench.

Rolling evaluation slides a (context, horizon) pair across the test split at
a fixed stride. Target windows always lie inside the test split and context
windows end strictly before their targets begin, so test values can never
leak into any model input. Metrics are computed on the standardized scale
(per-channel z-scores fit on the train split); the report records the flag.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import CsvSchema, load_csv, PackedBatch
from .heads import autoregressive_forecast
from .model import ConfigCodec, Forecaster, ModelConfig, count_params, int_items
from .train import AdamW, TrainConfig, batch_loss, train_loop
from .tensor import Graph

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


def mse(x, x_hat) -> float:
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x.shape != x_hat.shape or x.size == 0:
        raise ValueError(f"mse needs matching non-empty arrays, got {x.shape} vs {x_hat.shape}")
    return float(np.mean((x - x_hat) ** 2))


def mae(x, x_hat) -> float:
    x = np.asarray(x, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x.shape != x_hat.shape or x.size == 0:
        raise ValueError(f"mae needs matching non-empty arrays, got {x.shape} vs {x_hat.shape}")
    return float(np.mean(np.abs(x - x_hat)))


@dataclass
class Standardizer:
    """Per-channel z-scoring with train-split statistics."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, train_values: np.ndarray) -> "Standardizer":
        values = np.asarray(train_values, dtype=np.float64)
        std = values.std(axis=0)
        return cls(mean=values.mean(axis=0), std=np.maximum(std, 1e-8))

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self.mean) / self.std

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
                        config: TrainConfig) -> int:
    """Exactly one pass over the train split: sequential non-overlapping
    context-length crops of every channel, batched in order. Returns the
    number of optimization steps taken."""
    rows = []
    for c in range(train_values.shape[1]):
        channel = train_values[:, c]
        for start in range(0, len(channel) - config.context + 1, config.context):
            rows.append(channel[start:start + config.context])
    optimizer = AdamW(model, config)
    steps = 0
    for i in range(0, len(rows), config.batch):
        chunk = np.stack(rows[i:i + config.batch]).astype(np.float32)
        batch = PackedBatch(
            tokens=chunk[:, :, None],
            seq_ids=np.zeros(chunk.shape[:2], dtype=np.int64),
            pad_mask=np.zeros(chunk.shape[:2], dtype=bool),
            crop_domains=[["fine_tune"]] * chunk.shape[0],
        )
        optimizer.zero_grad()
        with Graph() as graph:
            loss, _ = batch_loss(model, batch, config)
        graph.backward(loss)
        optimizer.step(config.lr)
        steps += 1
    return steps


def eval_model(model, spec: EvalSpec, fine_tune_config: TrainConfig | None = None) -> EvalReport:
    """Rolling evaluation per the configured protocol; returns one row per
    (horizon, context) pair with channel-and-window-averaged MSE/MAE."""
    loaded = load_csv(spec.dataset, CsvSchema(columns=spec.columns, splits=spec.splits))
    values = loaded.values
    n_train = loaded.splits[0]
    if spec.standardize:
        scaler = Standardizer.fit(values[:n_train])
        values = scaler.transform(values)
    if spec.mode == "fine_tune":
        if fine_tune_config is None:
            raise ValueError("fine_tune mode needs a TrainConfig")
        one_epoch_fine_tune(model, values[:n_train], fine_tune_config)
    rows = []
    channels = values.shape[1]
    for horizon, context in zip(spec.horizons, spec.contexts):
        se_sum = 0.0
        ae_sum = 0.0
        count = 0
        windows = 0
        for (c0, c1), (t0, t1) in iter_eval_windows(len(values), loaded.splits,
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
    metadata = {"mode": spec.mode, "standardized": spec.standardize,
                "stride": spec.stride}
    if spec.mode == "fine_tune":
        metadata["fine_tune_seed"] = fine_tune_config.seed
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
