"""Sparse mixture-of-experts forecaster for time series.

A self-contained stack: a tape-based autodiff core, a decoder-only
transformer backbone with sparsely routed expert layers, multi-resolution
forecast heads with greedy horizon scheduling, a data-curation pipeline and
binary sequence store, a training loop, and an evaluation harness.
"""

from .data import (
    CleanConfig,
    CleanSeries,
    CsvSchema,
    FormatError,
    PackedBatch,
    RawSeries,
    SequenceStore,
    check_window,
    clean_series,
    load_csv,
    sample_batch,
    split_by_nan_inf,
    split_by_window_quality,
)
from .evaluate import (
    EvalReport,
    EvalSpec,
    LastValueBaseline,
    Standardizer,
    bench_sparse_vs_dense,
    eval_model,
    flops_per_token,
    mae,
    match_dense_config,
    mse,
)
from .heads import ForecastPlan, autoregressive_forecast, forecast_multivariate, plan_horizons
from .model import ConfigError, DataError, Forecaster, ModelConfig, count_params
from .moe import ExpertFFN, MoeParams, RouterOutput, load_stats, moe_forward, route_topk
from .tensor import Graph, NumericError, ShapeError, Tensor
from .train import (
    AdamW,
    CheckpointError,
    TrainConfig,
    TrainingError,
    aux_loss,
    load_checkpoint,
    lr_at_step,
    save_checkpoint,
    train_loop,
)

__version__ = "0.1.0"
