"""How arbitrary forecast lengths are composed from fixed-horizon heads.

The model owns one linear projection per horizon in {1, 8, 32, 64}; any
requested length H is served by greedily stacking the largest head that
still fits. This script traces the schedule for a few lengths and shows the
rollout honoring it.

Run:  python3 demos/horizon_scheduling.py
"""

import numpy as np

from sparsecast.heads import autoregressive_forecast, plan_horizons
from sparsecast.model import Forecaster, ModelConfig

HORIZONS = (1, 8, 32, 64)

print("greedy schedules over heads", HORIZONS)
for h in (1, 7, 96, 100, 337, 720):
    plan = plan_horizons(h, HORIZONS)
    trace = " + ".join(str(p) for p in plan)
    print(f"  H={h:>4} -> {len(plan):>3} picks: {trace}")

print("\nrollout honors the schedule (model forwards == plan length); the context")
print("is prefilled once, then only the points just predicted are pushed through:")
config = ModelConfig(num_layers=1, num_heads=2, num_experts=2, top_k=1, d_model=16,
                     d_ff=32, d_expert=16, head_horizons=HORIZONS, max_context=512)
model = Forecaster.init(config, seed=0)

calls = []
inner = model.forward


def counting(values, seq_ids=None, cache=None):
    calls.append(len(np.asarray(values).reshape(-1)))
    return inner(values, seq_ids, cache)


model.forward = counting
context = np.sin(2 * np.pi * np.arange(64) / 16)
for h in (64, 96, 100):
    calls.clear()
    out = autoregressive_forecast(model, context, h)
    print(f"  H={h:>3}: {len(calls)} forward passes, tokens {calls}, forecast length {len(out)}")
