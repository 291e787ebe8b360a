"""Command-line surface: clean, train, forecast, eval, params, bench.

Every subcommand is deterministic given --seed. Faults (missing files,
malformed configs, degenerate data) print a message to stderr and exit
nonzero; argparse reports unknown flags on its own.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from .data import (
    CleanConfig,
    CsvSchema,
    FormatError,
    RawSeries,
    SequenceStore,
    clean_series,
    load_csv,
    write_csv,
)
from .evaluate import (
    EvalSpec,
    Standardizer,
    bench_sparse_vs_dense,
    eval_model,
    match_dense_config,
)
from .heads import autoregressive_forecast
from .model import ConfigError, Forecaster, ModelConfig, count_params
from .synthetic import build_regime_store
from .tensor import NumericError
from .train import (
    AdamW,
    CheckpointError,
    TrainConfig,
    TrainingError,
    load_checkpoint,
    save_checkpoint,
    train_loop,
)

USER_ERRORS = (FormatError, ConfigError, CheckpointError, TrainingError, NumericError,
               ValueError, OSError)


def _read_json(path: Path) -> dict:
    if not path.exists():
        raise FormatError(f"no such file: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except UnicodeDecodeError as e:
        raise FormatError(f"{path}: not UTF-8 text ({e})") from None
    except json.JSONDecodeError as e:
        raise FormatError(f"{path}: invalid JSON ({e})") from e
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object, got a JSON {type(doc).__name__}")
    return doc


def cmd_clean(args) -> int:
    src = Path(args.input)
    config = CleanConfig(window_size=args.window, zero_threshold=args.threshold,
                         min_len=args.min_len)
    files = sorted(src.glob("*.csv")) if src.is_dir() else [src]
    if not files:
        raise FormatError(f"no CSV files under {src}")

    def segments():
        for file in files:
            loaded = load_csv(file, CsvSchema(splits=(1.0, 0.0, 0.0)))
            for values in loaded.values.T:
                yield from clean_series(RawSeries(values=values, domain=args.domain), config)

    store = SequenceStore.write(segments(), args.store)
    print(f"kept {len(store)} segments ({store.total_points} points) in {args.store}")
    return 0


def cmd_train(args) -> int:
    doc = _read_json(Path(args.config))
    model_config = ModelConfig.from_dict(doc.get("model", {}))
    train_config = TrainConfig.from_dict(doc.get("train", {}))
    if args.seed is not None:
        train_config.seed = args.seed
    domain_weights = doc.get("domain_weights")
    store = SequenceStore.open(args.store)
    model = Forecaster.init(model_config, seed=train_config.seed)
    optimizer = AdamW(model, train_config)
    metrics = train_loop(model, store, train_config, domain_weights=domain_weights,
                         optimizer=optimizer, log_path=args.log,
                         checkpoint_path=args.out)
    save_checkpoint(args.out, model, optimizer, step=train_config.steps)
    final = metrics[-1] if metrics else {}
    print(f"trained {train_config.steps} steps; final loss "
          f"{final.get('loss', float('nan')):.6f}; checkpoint at {args.out}")
    return 0


def cmd_forecast(args) -> int:
    model, _, _ = load_checkpoint(args.ckpt)
    loaded = load_csv(args.input, CsvSchema(splits=(1.0, 0.0, 0.0)))
    context = loaded.values
    if args.standardize:
        scaler = Standardizer.fit(context)
        context = scaler.transform(context)
    prediction = autoregressive_forecast(model, context, args.horizon, ensemble=args.ensemble)
    if args.standardize:
        prediction = scaler.invert(prediction)
    if args.out:
        write_csv(args.out, prediction, loaded.columns)
        print(f"wrote {args.horizon} rows x {len(loaded.columns)} channels to {args.out}")
    else:
        csv.writer(sys.stdout, lineterminator="\n").writerow(loaded.columns)
        for row in prediction:
            sys.stdout.write(",".join(repr(float(v)) for v in row) + "\n")
    return 0


def cmd_eval(args) -> int:
    model, _, _ = load_checkpoint(args.ckpt)
    doc = _read_json(Path(args.spec))
    fine_tune_doc = doc.pop("fine_tune", None)
    spec = EvalSpec.from_dict(doc)
    fine_tune_config = TrainConfig.from_dict(fine_tune_doc) if fine_tune_doc else None
    report = eval_model(model, spec, fine_tune_config=fine_tune_config)
    text = report.to_json()
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote report to {args.out}")
    else:
        print(text)
    return 0


def cmd_params(args) -> int:
    doc = _read_json(Path(args.config))
    config = ModelConfig.from_dict(doc.get("model", doc))
    counts = count_params(config)
    print(f"total: {counts['total']:,}")
    print(f"activated: {counts['activated']:,}")
    return 0


def cmd_bench(args) -> int:
    doc = _read_json(Path(args.pair))
    if "moe" not in doc:
        raise FormatError(f"{args.pair}: missing key 'moe', the sparse model's config")
    moe_config = ModelConfig.from_dict(doc["moe"])
    if doc.get("dense") in (None, "auto"):
        dense_config = match_dense_config(moe_config)
    else:
        dense_config = ModelConfig.from_dict(doc["dense"])
    train_config = TrainConfig.from_dict(doc.get("train", {}))
    seeds = doc.get("seeds", [0, 1, 2, 3, 4])
    if (not isinstance(seeds, list) or not seeds
            or any(isinstance(s, bool) or not isinstance(s, int) or s < 0 for s in seeds)):
        raise FormatError(f"{args.pair}: seeds must be a non-empty list of non-negative ints, "
                          f"got {seeds!r}")
    if args.seed is not None:
        seeds = [args.seed + i for i in range(len(seeds))]
    task = doc.get("task", {})
    if not isinstance(task, dict):
        raise FormatError(f"{args.pair}: task must be a JSON object, got {task!r}")
    sizes = {"per_regime": task.get("per_regime", 4), "length": task.get("length", 512)}
    for key, value in sizes.items():
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise FormatError(f"{args.pair}: task.{key} must be a positive int, got {value!r}")
    workdir = args.workdir or tempfile.mkdtemp(prefix="sparsecast-bench-")
    store = build_regime_store(workdir, np.random.default_rng(seeds[0]), **sizes)
    report = bench_sparse_vs_dense(moe_config, dense_config, store, train_config, seeds)
    text = json.dumps(report, indent=1)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote report to {args.out}")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsecast",
        description="Sparse mixture-of-experts time-series forecasting toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("clean", help="clean CSV series into a binary sequence store")
    p.add_argument("input", help="CSV file or directory of CSV files")
    p.add_argument("store", help="directory for the store")
    p.add_argument("--window", type=int, default=128)
    p.add_argument("--threshold", type=float, default=0.2)
    p.add_argument("--min-len", type=int, default=256, dest="min_len")
    p.add_argument("--domain", default="default")
    p.set_defaults(fn=cmd_clean)

    p = sub.add_parser("train", help="train a model on a packed store")
    p.add_argument("--config", required=True)
    p.add_argument("--store", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log")
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("forecast", help="forecast H future points per channel")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--out")
    p.add_argument("--ensemble", action="store_true")
    p.add_argument("--standardize", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(fn=cmd_forecast)

    p = sub.add_parser("eval", help="rolling benchmark evaluation")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("params", help="report parameter counts for a configuration")
    p.add_argument("--config", required=True)
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("bench", help="sparse-vs-dense comparison on synthetic data")
    p.add_argument("--pair", required=True)
    p.add_argument("--out")
    p.add_argument("--seed", type=int)
    p.add_argument("--workdir")
    p.set_defaults(fn=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except USER_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
