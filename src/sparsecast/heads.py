"""Multi-resolution forecasting: horizon scheduling and autoregressive rollout.

A model carries one linear head per configured horizon p_j. An arbitrary
request H is served by greedily picking the largest head that still fits the
remaining length, appending its prediction to the context, and repeating;
since the smallest head is always 1, every H is reachable.

autoregressive_forecast is the one rollout. A [T] context gives [H]; a
[T, C] context gives [H, C], each channel rolled out on its own cache and
window, so channels never mix:

    autoregressive_forecast(model, series, 96)          # [512]    -> [96]
    autoregressive_forecast(model, table, 96)           # [512, 7] -> [96, 7]

The rollout decodes with a KV cache: the context is prefilled once, and
each later pick pushes only the p values just predicted, at the rotary
positions that continue the cache. Each forward reads the heads at the last
position only. When the cache plus the next p values would exceed
max_context, the window slides and positions restart from 0, so the cache
is dropped and the slid window is prefilled afresh: the same inputs, pick
for pick, as recomputing the whole window every time.
"""

from __future__ import annotations

import numbers

import numpy as np

from .model import ConfigError, KVCache


def plan_horizons(h: int, horizons) -> list:
    """Greedy schedule: the head picks, each the largest horizon that still
    fits, whose sum is exactly h."""
    if isinstance(h, bool) or not isinstance(h, numbers.Integral) or h < 1:
        raise ValueError(f"forecast horizon must be an integer >= 1, got {h!r}")
    horizons = list(horizons)
    if not horizons or horizons[0] != 1:
        raise ConfigError("head horizons must start at 1")
    picks = []
    done = 0
    while done < h:
        for p in reversed(horizons):
            if done + p <= h:
                picks.append(p)
                done += p
                break
    return picks


def autoregressive_forecast(model, context, h: int, ensemble: bool = False) -> np.ndarray:
    """Forecast h future points: a [T] context gives [h], a [T, C] context
    gives [h, C]. Any other rank, or an empty context, is a ValueError.

    Each channel of a [T, C] context is rolled out alone, exactly as its
    own [T] call, so channels never mix.

    Per plan pick p: read head p's prediction at the last position and
    append those p values. The first pick prefills a KV cache with the
    context; every later pick runs model.forward on just the previous
    pick's values, continuing that cache. The window (context plus
    predictions) keeps at most max_context points: when the cache plus the
    next values would pass it, the oldest points are dropped, the cache is
    discarded and the slid window is prefilled again from position 0.

    With ensemble=True each predicted offset is averaged over every head
    whose horizon reaches it, instead of trusting the scheduled head alone.
    """
    context = np.asarray(context, dtype=np.float64)
    if context.ndim not in (1, 2) or context.size == 0:
        raise ValueError(f"context must be a non-empty [T] or [T, C] array, got {context.shape}")
    if context.ndim == 2:
        return np.stack([autoregressive_forecast(model, channel, h, ensemble)
                         for channel in context.T], axis=1)
    config = model.config
    horizons = config.head_horizons
    plan = plan_horizons(h, horizons)
    window = context
    pending = context  # points the cache has not seen yet
    cache = KVCache.empty(config.num_layers)
    steps = []
    for p in plan:
        if cache.length + pending.size > config.max_context:
            window = window[-config.max_context:]
            pending = window
            cache = KVCache.empty(config.num_layers)
        result = model.forward(pending, cache=cache)
        if ensemble:
            votes = [result.head_outputs[j].data[-1, :p]
                     for j, pj in enumerate(horizons) if pj >= p]
            step = np.mean(votes, axis=0)
        else:
            step = result.head_outputs[horizons.index(p)].data[-1, :]
        pending = np.asarray(step, dtype=np.float64)
        window = np.concatenate([window, pending])
        steps.append(pending)
    out = np.concatenate(steps)
    assert out.size == h
    return out
