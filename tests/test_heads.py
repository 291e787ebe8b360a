"""Horizon scheduling, head projections, and autoregressive rollout."""

import numpy as np
import pytest

from helpers import reference_rollout
from sparsecast.heads import autoregressive_forecast, plan_horizons
from sparsecast.model import ConfigError, Forecaster, ModelConfig, head_forward
from sparsecast.tensor import Tensor

HORIZONS = (1, 8, 32, 64)


def tiny_model(**kw):
    base = dict(num_layers=1, num_heads=2, num_experts=2, top_k=1, d_model=8,
                d_ff=16, d_expert=8, head_horizons=HORIZONS, max_context=512)
    base.update(kw)
    return Forecaster.init(ModelConfig(**base), seed=0)


class ConstantModel:
    """Stub returning the same value from every head position."""

    def __init__(self, value, horizons=HORIZONS, max_context=512):
        self.value = value
        self.config = ModelConfig(num_layers=1, num_heads=2, num_experts=2, top_k=1,
                                  d_model=8, d_ff=16, d_expert=8,
                                  head_horizons=horizons, max_context=max_context)

    def forward(self, values, seq_ids=None, cache=None):
        t = np.asarray(values).reshape(-1).shape[0]
        rows = t
        if cache is not None:  # a cached forward reads out the last row only
            cache.length += t
            rows = 1

        class R:
            pass

        r = R()
        r.head_outputs = [Tensor(np.full((rows, p), self.value, dtype=np.float32))
                          for p in self.config.head_horizons]
        return r


# --- scheduling -------------------------------------------------------------------


def test_plan_96_is_64_plus_32():
    assert plan_horizons(96, HORIZONS) == [64, 32]


def test_plan_base_case():
    assert plan_horizons(1, HORIZONS) == [1]


def test_plan_100_trace():
    assert plan_horizons(100, HORIZONS) == [64, 32, 1, 1, 1, 1]


def test_plan_rejects_bad_inputs():
    with pytest.raises(ValueError):
        plan_horizons(0, HORIZONS)
    with pytest.raises(ConfigError):
        plan_horizons(5, (2, 8))


@pytest.mark.parametrize("h", [1.5, 2.5, True])
def test_plan_rejects_a_horizon_that_is_not_an_int(h):
    # 1.5 looped forever: after one pick of 1, no horizon fits the half left.
    with pytest.raises(ValueError, match="must be an integer"):
        plan_horizons(h, HORIZONS)


def test_plan_sums_exactly_for_all_horizons_to_1000():
    for h in range(1, 1001):
        plan = plan_horizons(h, HORIZONS)
        assert sum(plan) == h
        assert all(p in HORIZONS for p in plan)


def test_plan_length_is_minimal_up_to_256():
    # Exhaustive minimum by dynamic programming over pick counts.
    inf = 10**9
    best = [0] + [inf] * 256
    for h in range(1, 257):
        best[h] = 1 + min(best[h - p] for p in HORIZONS if p <= h)
    for h in range(1, 257):
        assert len(plan_horizons(h, HORIZONS)) == best[h]


# --- head projections ----------------------------------------------------------------


def test_zero_head_weights_give_zero_forecasts():
    rng = np.random.default_rng(0)
    hidden = Tensor(rng.normal(size=(5, 8)), dtype=np.float64)
    heads = [Tensor(np.zeros((p, 8)), dtype=np.float64) for p in HORIZONS]
    for out in head_forward(hidden, heads):
        np.testing.assert_array_equal(out.data, np.zeros_like(out.data))


def test_head_output_shapes():
    model = tiny_model()
    out = model.forward(np.random.default_rng(1).normal(size=20))
    assert [o.shape for o in out.head_outputs] == [(20, 1), (20, 8), (20, 32), (20, 64)]


def test_basis_row_head_selects_hidden_component():
    rng = np.random.default_rng(2)
    hidden = Tensor(rng.normal(size=(1, 8)), dtype=np.float64)
    w = np.zeros((1, 8))
    w[0, 3] = 1.0
    out = head_forward(hidden, [Tensor(w, dtype=np.float64)])[0]
    assert out.data[0, 0] == pytest.approx(hidden.data[0, 3])


# --- autoregressive rollout -------------------------------------------------------------


def test_single_pick_means_single_forward():
    model = tiny_model()
    calls = []
    inner = model.forward

    def counting(values, seq_ids=None, cache=None):
        calls.append(len(np.asarray(values).reshape(-1)))
        return inner(values, seq_ids, cache)

    model.forward = counting
    out = autoregressive_forecast(model, np.random.default_rng(3).normal(size=32), 64)
    assert len(calls) == 1
    assert out.shape == (64,)


@pytest.mark.parametrize("h", [1, 7, 96, 720])
def test_forecast_length_matches_request(h):
    model = ConstantModel(0.25)
    out = autoregressive_forecast(model, np.ones(16), h)
    assert out.shape == (h,)


def test_constant_stub_forecasts_constant():
    model = ConstantModel(3.5)
    out = autoregressive_forecast(model, np.ones(10), 100)
    np.testing.assert_array_equal(out, np.full(100, 3.5))


def test_empty_context_rejected():
    model = ConstantModel(1.0)
    with pytest.raises(ValueError):
        autoregressive_forecast(model, np.array([]), 4)


def test_context_slides_beyond_max_context():
    model = tiny_model(max_context=48)
    out = autoregressive_forecast(model, np.random.default_rng(4).normal(size=48), 70)
    assert out.shape == (70,)
    assert np.all(np.isfinite(out))


def test_rollout_determinism():
    model = tiny_model()
    ctx = np.random.default_rng(5).normal(size=40)
    a = autoregressive_forecast(model, ctx, 33)
    b = autoregressive_forecast(model, ctx, 33)
    np.testing.assert_array_equal(a, b)


def test_ensemble_flag_stays_finite_and_sized():
    model = tiny_model()
    ctx = np.random.default_rng(6).normal(size=40)
    out = autoregressive_forecast(model, ctx, 40, ensemble=True)
    assert out.shape == (40,)
    assert np.all(np.isfinite(out))


def record_cached_forwards(model) -> list:
    """Log (tokens pushed, cache length before) for every forward of model."""
    calls = []
    inner = model.forward

    def counting(values, seq_ids=None, cache=None):
        calls.append((len(np.asarray(values).reshape(-1)), cache.length))
        return inner(values, seq_ids, cache)

    model.forward = counting
    return calls


def test_rollout_prefills_once_then_pushes_only_new_points():
    model = tiny_model(num_layers=2)
    calls = record_cached_forwards(model)
    autoregressive_forecast(model, np.random.default_rng(11).normal(size=40), 100)
    # plan 64 + 32 + 1 + 1 + 1 + 1: each forward continues the cache.
    assert calls == [(40, 0), (64, 40), (32, 104), (1, 136), (1, 137), (1, 138)]


def test_rollout_restarts_the_cache_when_the_window_slides():
    model = tiny_model(num_layers=2, max_context=48)
    calls = record_cached_forwards(model)
    autoregressive_forecast(model, np.random.default_rng(12).normal(size=30), 10)
    # plan 8 + 1 + 1 ends at 39 points, inside max_context 48: no slide.
    assert calls == [(30, 0), (8, 30), (1, 38)]
    calls.clear()
    autoregressive_forecast(model, np.random.default_rng(12).normal(size=30), 40)
    # plan 32 + 8: 30 + 32 passes 48, so the slid 48-point window is prefilled.
    assert calls == [(30, 0), (48, 0)]


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-10), (np.float32, 1e-5)])
@pytest.mark.parametrize("ensemble", [False, True])
@pytest.mark.parametrize("h", [1, 7, 64, 96, 100, 720])
def test_cached_rollout_matches_full_recompute(h, ensemble, dtype, tol):
    config = tiny_model(num_layers=2).config
    model = Forecaster.init(config, seed=1, dtype=dtype)
    ctx = np.random.default_rng(h).normal(size=40)
    got = autoregressive_forecast(model, ctx, h, ensemble=ensemble)
    want = reference_rollout(model, ctx, h, ensemble=ensemble)
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-10), (np.float32, 1e-5)])
@pytest.mark.parametrize("ensemble", [False, True])
@pytest.mark.parametrize("context", [48, 100], ids=["at-max", "beyond-max"])
def test_cached_rollout_matches_full_recompute_when_sliding(context, ensemble, dtype, tol):
    config = tiny_model(num_layers=2, max_context=48).config
    model = Forecaster.init(config, seed=2, dtype=dtype)
    ctx = np.random.default_rng(context).normal(size=context)
    got = autoregressive_forecast(model, ctx, 70, ensemble=ensemble)
    want = reference_rollout(model, ctx, 70, ensemble=ensemble)
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


# --- channel independence ------------------------------------------------------------------


def test_single_channel_reduces_to_univariate():
    model = tiny_model()
    ctx = np.random.default_rng(7).normal(size=30)
    uni = autoregressive_forecast(model, ctx, 12)
    multi = autoregressive_forecast(model, ctx[:, None], 12)
    np.testing.assert_array_equal(multi[:, 0], uni)


def test_channel_permutation_permutes_forecasts():
    model = tiny_model()
    ctx = np.random.default_rng(8).normal(size=(30, 3))
    perm = [2, 0, 1]
    base = autoregressive_forecast(model, ctx, 9)
    shuffled = autoregressive_forecast(model, ctx[:, perm], 9)
    np.testing.assert_array_equal(shuffled, base[:, perm])


def test_duplicated_channel_duplicates_forecast():
    model = tiny_model()
    rng = np.random.default_rng(9)
    ctx = rng.normal(size=(25, 2))
    doubled = np.concatenate([ctx, ctx[:, :1]], axis=1)
    out = autoregressive_forecast(model, doubled, 11)
    np.testing.assert_array_equal(out[:, 2], out[:, 0])


def test_zeroing_one_channel_leaves_others_untouched():
    model = tiny_model()
    ctx = np.random.default_rng(10).normal(size=(25, 3))
    base = autoregressive_forecast(model, ctx, 10)
    ctx2 = ctx.copy()
    ctx2[:, 1] = 0.0
    out = autoregressive_forecast(model, ctx2, 10)
    np.testing.assert_array_equal(out[:, 0], base[:, 0])
    np.testing.assert_array_equal(out[:, 2], base[:, 2])


@pytest.mark.parametrize("ensemble", [False, True])
def test_multichannel_context_gives_one_column_per_channel_bit_equal_to_univariate(ensemble):
    model = tiny_model(num_layers=2)
    ctx = np.random.default_rng(13).normal(size=(40, 3))
    out = autoregressive_forecast(model, ctx, 70, ensemble=ensemble)
    assert out.shape == (70, 3)
    for c in range(3):
        np.testing.assert_array_equal(
            out[:, c], autoregressive_forecast(model, ctx[:, c], 70, ensemble=ensemble))


@pytest.mark.parametrize("shape", [(0, 3), (30, 0), (), (30, 3, 2)],
                         ids=["no-rows", "no-channels", "scalar", "3-d"])
def test_context_that_is_empty_or_not_1d_or_2d_is_rejected(shape):
    with pytest.raises(ValueError, match=r"non-empty \[T\] or \[T, C\]"):
        autoregressive_forecast(ConstantModel(1.0), np.ones(shape), 4)
