"""The two benchmark workloads and the inputs they generate from a seed.

Each workload is a closed loop with one caller: `call(i)` is one operation
(a training step or an evaluation job) and the next one
starts when it returns. `generate()` builds the seeded inputs once, and
`setup()` is the program-side set-up a user pays before the first
operation. It returns what it built; the operations use the first
set-up's objects (`use`), and the benchmark repeats `setup()` over the run
only to time it.
`prepare(i)` builds an operation's input and `check(i, out)` verifies its
output, both outside the timed region. `final_checks()` runs once after
the timed region.

The model is the baseline configuration for every workload: d_model 32,
2 layers, 4 heads, 4 experts with top-2 routing, d_expert 32, heads
{1, 8, 32, 64}, parameters drawn from a fixed init seed. Only the inputs
depend on the workload seed.
"""

from __future__ import annotations

import dataclasses
import math
from pathlib import Path

import numpy as np

from sparsecast import data, evaluate, synthetic, train
from sparsecast.model import Forecaster, ModelConfig

MODEL_CONFIG = dict(d_model=32, num_layers=2, num_heads=4, num_experts=4, top_k=2,
                    d_expert=32, head_horizons=(1, 8, 32, 64))
INIT_SEED = 0
ETT_COLUMNS = ["HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT"]
REGIMES = ("tonal", "sawtooth", "ar1")
# Evaluation job 0's MSE and MAE must match those of a float64 model
# with the same init seed to a relative 1e-6; float32 rounding through two
# layers and two chained plan picks moves them by about 3e-9.
FLOAT64_RTOL = 1e-6


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Input sizes; FULL is the benchmark, TINY only exercises the code paths."""

    train_batch: int = 4
    train_context: int = 256
    store_per_regime: int = 6
    store_length: int = 768
    eval_context: int = 512
    eval_horizon: int = 96
    eval_splits: tuple = (8545, 2881, 2881)     # ETTh1: 14 307 rows
    eval_stride: int = 2786                     # 1 window x 7 channels per job
    setup_repeats: int = 11


FULL = Sizes()
# The tiny training context stays above the largest head horizon (64): below
# it `train.head_targets` raises a raw ValueError, a known defect that the
# smoke test pins down separately.
TINY = Sizes(train_batch=2, train_context=96, store_per_regime=2, store_length=200,
             eval_context=96, eval_horizon=24, eval_splits=(300, 100, 100), eval_stride=50,
             setup_repeats=2)


def model_config() -> ModelConfig:
    return ModelConfig(**MODEL_CONFIG)


def ett_like(rng: np.random.Generator, rows: int, channels: int) -> np.ndarray:
    """Hourly-looking multichannel series: daily and weekly cycles, a slow
    drift and AR(1) noise, each channel on its own offset and scale."""
    t = np.arange(rows, dtype=np.float64)
    out = np.empty((rows, channels))
    for c in range(channels):
        daily = rng.uniform(0.5, 2.0) * np.sin(2 * np.pi * t / 24 + rng.uniform(0, 2 * np.pi))
        weekly = rng.uniform(0.2, 1.0) * np.sin(2 * np.pi * t / 168 + rng.uniform(0, 2 * np.pi))
        drift = rng.uniform(-1.0, 1.0) * t / rows
        eps = rng.normal(scale=0.3, size=rows)
        noise = np.empty(rows)
        noise[0] = eps[0]
        phi = rng.uniform(0.6, 0.95)
        for i in range(1, rows):
            noise[i] = phi * noise[i - 1] + eps[i]
        out[:, c] = rng.uniform(-5, 25) + rng.uniform(0.5, 4.0) * (daily + weekly + drift + noise)
    return out


class Workload:
    name = ""
    final_check_count = 0  # checks final_checks() makes, each returning one problem at most

    def __init__(self, sizes: Sizes, seed: int, workdir: Path):
        self.sizes = sizes
        self.seed = seed
        self.workdir = workdir

    def generate(self) -> None:
        pass

    def use(self, built: dict) -> None:
        vars(self).update(built)

    def prepare(self, i: int):
        return None

    def final_checks(self) -> list:
        return []

    def facts(self) -> dict:
        return {}


class TrainPacked(Workload):
    """`train.train_loop`, one step per call, on a three-domain regime store."""

    name = "train_packed"

    def generate(self) -> None:
        """The series `synthetic.build_regime_store` would write, in its order."""
        s = self.sizes
        rng = np.random.default_rng([self.seed, 1])
        self.series = [data.CleanSeries(values=synthetic.regime_series(rng, s.store_length, regime),
                                        domain=regime)
                       for regime in REGIMES for _ in range(s.store_per_regime)]
        # One configuration for the run. Each call runs train_loop for one
        # step with start_step=i and steps=i+1: batches are seeded by
        # (seed, step) and warmup_steps far exceeds any run, so the learning
        # rate and batch stream equal those of a single uninterrupted call.
        self.config = train.TrainConfig(steps=1, batch=s.train_batch, context=s.train_context,
                                        alpha=0.02, seed=self.seed)
        self.losses = []
        self.setups = 0

    def setup(self) -> dict:
        """Write the store to a fresh directory, open it, build model and optimizer."""
        directory = self.workdir / f"store-{self.setups}"
        self.setups += 1
        data.SequenceStore.write(self.series, directory, name="regimes")
        model = Forecaster.init(model_config(), seed=INIT_SEED)
        return {"store": data.SequenceStore.open(directory), "model": model,
                "optimizer": train.AdamW(model, self.config)}

    def prepare(self, i: int):
        return dataclasses.replace(self.config, steps=i + 1)

    def call(self, i: int, config):
        return train.train_loop(self.model, self.store, config, optimizer=self.optimizer,
                                start_step=i)

    def items(self, out) -> int:
        return self.sizes.train_batch * self.sizes.train_context

    def check(self, i: int, out) -> list:
        if len(out) != 1 or out[0]["step"] != i:
            return [f"step {i}: expected one record for step {i}, got {out}"]
        loss = out[0]["loss"]
        self.losses.append(loss)
        return [] if math.isfinite(loss) else [f"step {i}: loss {loss} is not finite"]

    def facts(self) -> dict:
        return {"last_step_loss": self.losses[-1] if self.losses else None,
                "steps": len(self.losses), "store_sequences": len(self.store),
                "store_points": self.store.total_points}


class EvalRolling(Workload):
    """`evaluate.eval_model` zero-shot at (H 96, ctx 512) on ETTh1-shaped CSVs.

    Every job reads a CSV of its own, generated from (seed, job), so no two
    jobs forecast the same contexts.
    """

    name = "eval_rolling"
    final_check_count = 1

    def job_values(self, i: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, 3, i])
        return ett_like(rng, sum(self.sizes.eval_splits), len(ETT_COLUMNS))

    def generate(self) -> None:
        s = self.sizes
        self.values = self.job_values(0)
        train.save_checkpoint(self.workdir / "init.ckpt",
                              Forecaster.init(model_config(), seed=INIT_SEED))
        self.windows = sum(1 for _ in evaluate.iter_eval_windows(
            sum(s.eval_splits), s.eval_splits, s.eval_context, s.eval_horizon, s.eval_stride))
        self.spec = evaluate.EvalSpec(dataset=str(self.workdir / "job-0.csv"),
                                      horizons=(s.eval_horizon,), contexts=(s.eval_context,),
                                      mode="zero_shot", standardize=True, splits=s.eval_splits,
                                      stride=s.eval_stride)
        self.first = None
        self.last = {}
        self.float64_gap = None

    def setup(self) -> dict:
        """Write job 0's CSV with the package's writer, then load the model."""
        data.write_csv(self.spec.dataset, self.values, ETT_COLUMNS)
        model, _, _ = train.load_checkpoint(self.workdir / "init.ckpt")
        return {"model": model}

    def prepare(self, i: int) -> evaluate.EvalSpec:
        """Job 0 reads the set-up's CSV; job i > 0 a fresh one written here."""
        if i == 0:
            return self.spec
        if i > 1:  # job 0's CSV stays for the float64 replay in final_checks
            (self.workdir / f"job-{i - 1}.csv").unlink()
        csv_path = self.workdir / f"job-{i}.csv"
        data.write_csv(csv_path, self.job_values(i), ETT_COLUMNS)
        return dataclasses.replace(self.spec, dataset=str(csv_path))

    def call(self, i: int, spec):
        return evaluate.eval_model(self.model, spec)

    def items(self, report) -> int:
        return self.windows * len(ETT_COLUMNS)

    def check(self, i: int, report) -> list:
        if len(report.rows) != 1:
            return [f"job {i}: {len(report.rows)} report rows, expected 1"]
        row = report.rows[0]
        if i == 0:
            self.first = row
        self.last = row
        problems = []
        if not (math.isfinite(row["mse"]) and math.isfinite(row["mae"])):
            problems.append(f"job {i}: mse {row['mse']} / mae {row['mae']} not finite")
        if row["windows"] != self.windows:
            problems.append(f"job {i}: {row['windows']} windows, iter_eval_windows "
                            f"yields {self.windows}")
        return problems

    def final_checks(self) -> list:
        """Replay job 0 on a float64 model and compare its errors."""
        if self.first is None:
            return ["job 0 returned no report to compare with float64"]
        ref_model = Forecaster.init(model_config(), seed=INIT_SEED, dtype=np.float64)
        ref = evaluate.eval_model(ref_model, self.spec).rows[0]
        self.float64_gap = max(abs(self.first[k] - ref[k]) / abs(ref[k]) for k in ("mse", "mae"))
        if self.float64_gap <= FLOAT64_RTOL:
            return []
        return [f"first job: float32 MSE/MAE differ from float64 by {self.float64_gap:.3e} "
                f"(relative), above {FLOAT64_RTOL}"]

    def facts(self) -> dict:
        return {"rows": sum(self.sizes.eval_splits), "channels": len(ETT_COLUMNS),
                "splits": list(self.sizes.eval_splits), "stride": self.sizes.eval_stride,
                "windows_per_job": self.windows, "mse": self.last.get("mse"),
                "mae": self.last.get("mae"), "float64_relative_gap": self.float64_gap,
                "float64_tolerance": FLOAT64_RTOL}


WORKLOADS = {w.name: w for w in (TrainPacked, EvalRolling)}
