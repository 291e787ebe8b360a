"""Print SHA-256 digests of the outputs a behaviour-preserving change must
keep, each computed from fixed seeds at the benchmark model (d_model 32,
2 layers, 4 heads, 4 experts with top-2 routing, d_expert 32, heads
{1, 8, 32, 64}, init seed 0):

- train:    the parameter bytes after 30 train_loop steps at 4 x 256 on a
            synthetic.build_regime_store store (alpha 0.02, seed 7);
- eval:     the eval_model report rows of one zero-shot (96, 512) job on
            an ETTh1-shaped CSV (14 307 rows, 7 channels, 1 window);
- forecast: the CSV bytes `sparsecast forecast` writes for 96 steps of
            that CSV's last 512 rows, all 7 channels;
- rollout:  a univariate (720, 3072) rollout, as float64 bytes;
- params:   count_params, flops_per_token at contexts 48 and 1024, and
            match_dense_config's d_ff of PARAMS_CONFIGS (the benchmark
            model, the paper's base, large and ultra shapes with each routed
            expert d_ff / 2 wide, and small edge cases), and the counts and
            FLOPs of each one's dense twin.

Run the same command on two checkouts and compare the lines; equal
digests mean equal bits. Uses the standard library, numpy and the package
under src/ only.

Run:  python3 tools/digests.py    (under 30 s on two cores)
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from sparsecast import cli, data, evaluate, heads, synthetic, train  # noqa: E402
from sparsecast.model import Forecaster, ModelConfig, count_params  # noqa: E402

MODEL_CONFIG = dict(d_model=32, num_layers=2, num_heads=4, num_experts=4, top_k=2,
                    d_expert=32, head_horizons=(1, 8, 32, 64))
PARAMS_CONFIGS = [
    MODEL_CONFIG,
    dict(num_layers=12, num_heads=12, d_model=384, d_ff=1536, d_expert=768, num_experts=8),
    dict(num_layers=12, num_heads=12, d_model=768, d_ff=3072, d_expert=1536, num_experts=8),
    dict(num_layers=36, num_heads=16, d_model=1024, d_ff=4096, d_expert=2048, num_experts=8),
    dict(num_layers=1, num_experts=1, top_k=1, d_model=8, d_expert=8, d_ff=8),
    dict(num_layers=3, num_experts=8, top_k=8, d_model=16, d_expert=24, d_ff=40,
         head_horizons=(1, 4)),
]
ETT_SPLITS = (8545, 2881, 2881)
ETT_COLUMNS = ["HUFL", "HULL", "MUFL", "MULL", "LUFL", "LULL", "OT"]


def sha(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def model() -> Forecaster:
    return Forecaster.init(ModelConfig(**MODEL_CONFIG), seed=0)


def ett_like(rng: np.random.Generator, rows: int, channels: int) -> np.ndarray:
    """Daily and weekly cycles, a drift and noise per channel, each on its
    own offset and scale."""
    t = np.arange(rows, dtype=np.float64)[:, None]
    phase = rng.uniform(0, 2 * np.pi, size=(2, channels))
    cycles = (rng.uniform(0.5, 2.0, channels) * np.sin(2 * np.pi * t / 24 + phase[0])
              + rng.uniform(0.2, 1.0, channels) * np.sin(2 * np.pi * t / 168 + phase[1]))
    drift = rng.uniform(-1.0, 1.0, channels) * t / rows
    noise = rng.normal(scale=0.3, size=(rows, channels))
    return rng.uniform(-5, 25, channels) + rng.uniform(0.5, 4.0, channels) * (
        cycles + drift + noise)


def train_digest(workdir: Path) -> str:
    store = synthetic.build_regime_store(workdir / "store", np.random.default_rng(7))
    forecaster = model()
    config = train.TrainConfig(steps=30, batch=4, context=256, alpha=0.02, seed=7)
    train.train_loop(forecaster, store, config)
    return sha(forecaster.param_bytes())


def eval_digest(csv_path: Path) -> str:
    spec = evaluate.EvalSpec(dataset=str(csv_path), horizons=(96,), contexts=(512,),
                             splits=ETT_SPLITS, stride=2786)
    rows = evaluate.eval_model(model(), spec).rows
    return sha(json.dumps(rows, sort_keys=True).encode())


def forecast_digest(workdir: Path, values: np.ndarray) -> str:
    ckpt, context, out = workdir / "init.ckpt", workdir / "context.csv", workdir / "forecast.csv"
    train.save_checkpoint(ckpt, model())
    data.write_csv(context, values[-512:], ETT_COLUMNS)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["forecast", "--ckpt", str(ckpt), "--input", str(context),
                         "--horizon", "96", "--out", str(out)])
    if code != 0:
        raise SystemExit(f"sparsecast forecast exited {code}")
    return sha(out.read_bytes())


def rollout_digest() -> str:
    context = synthetic.multi_tone(np.random.default_rng(11), 3072)
    return sha(heads.autoregressive_forecast(model(), context, 720).tobytes())


def params_digest() -> str:
    rows = []
    for doc in PARAMS_CONFIGS:
        config = ModelConfig(**doc)
        dense = evaluate.match_dense_config(config)
        rows += [[count_params(c), evaluate.flops_per_token(c, 48),
                  evaluate.flops_per_token(c, 1024)] for c in (config, dense)]
        rows.append(dense.d_ff)
    return sha(json.dumps(rows, sort_keys=True).encode())


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="sparsecast-digests-") as tmp:
        workdir = Path(tmp)
        values = ett_like(np.random.default_rng(3), sum(ETT_SPLITS), len(ETT_COLUMNS))
        csv_path = workdir / "etth1.csv"
        data.write_csv(csv_path, values, ETT_COLUMNS)
        print(f"train     {train_digest(workdir)}")
        print(f"eval      {eval_digest(csv_path)}")
        print(f"forecast  {forecast_digest(workdir, values)}")
        print(f"rollout   {rollout_digest()}")
        print(f"params    {params_digest()}")


if __name__ == "__main__":
    main()
