"""Backbone contracts: embedding, norms, attention, blocks, parameter counts."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sparsecast
from sparsecast import tensor as T
from sparsecast.model import (
    RMSNORM_EPS,
    AttentionParams,
    ConfigError,
    DataError,
    Forecaster,
    KVCache,
    ModelConfig,
    attention_bias,
    block_forward,
    causal_self_attention,
    count_params,
    embed_points,
    init_params,
    packing_positions,
    segment_bounds,
)
from sparsecast.tensor import Tensor


def tiny_config(**kw):
    base = dict(num_layers=2, num_heads=2, num_experts=4, top_k=2, d_model=8,
                d_ff=16, d_expert=8, head_horizons=(1, 8, 32, 64), max_context=128)
    base.update(kw)
    return ModelConfig(**base)


# --- config validation ---------------------------------------------------------


def test_config_rejects_indivisible_heads():
    with pytest.raises(ConfigError):
        tiny_config(d_model=10, num_heads=3)


def test_config_rejects_bad_horizons():
    with pytest.raises(ConfigError):
        tiny_config(head_horizons=(2, 8))
    with pytest.raises(ConfigError):
        tiny_config(head_horizons=(1, 8, 8))


def test_config_rejects_k_above_n():
    with pytest.raises(ConfigError):
        tiny_config(top_k=5, num_experts=4)


def test_config_rejects_odd_head_dim():
    with pytest.raises(ConfigError):
        ModelConfig(d_model=6, num_heads=2)


def test_config_roundtrips_through_dict():
    cfg = tiny_config()
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError):
        ModelConfig.from_dict({"bogus_field": 1})


@pytest.mark.parametrize("field, value", [
    ("num_layers", 2.5), ("num_layers", True), ("num_layers", "2"), ("use_moe", "no"),
    ("use_moe", 1), ("rope_base", False), ("rope_base", "1e4"), ("head_horizons", 3),
    ("max_context", None),
])
def test_config_from_dict_rejects_mistyped_field(field, value):
    with pytest.raises(ConfigError) as err:
        ModelConfig.from_dict({field: value})
    assert str(err.value).startswith(f"invalid ModelConfig: {field} must be ")
    assert str(err.value).endswith(f"got {value!r}")


@pytest.mark.parametrize("horizons", [[1, 8.7, 32], [1, "8", 32], [1, True, 8], [1.0, 8]])
def test_config_rejects_non_int_horizons(horizons):
    # int() would truncate 8.7 to 8 and parse "8"; neither is a horizon.
    with pytest.raises(ConfigError, match="head_horizons must hold ints"):
        ModelConfig.from_dict({"head_horizons": horizons})
    with pytest.raises(ConfigError, match="head_horizons must hold ints"):
        ModelConfig(head_horizons=tuple(horizons))


@pytest.mark.parametrize("field, value", [
    ("num_heads", 0), ("num_heads", -2), ("rope_base", math.nan), ("rope_base", math.inf),
    ("rope_base", -1.0),
])
def test_config_from_dict_rejects_out_of_range_value(field, value):
    # num_heads 0 divided by zero before the positivity check ran; a NaN
    # rope_base passed "<= 0" and failed only at the first forward.
    with pytest.raises(ConfigError, match=field):
        ModelConfig.from_dict({field: value})


def test_config_from_dict_widens_int_to_float_and_list_to_tuple():
    cfg = ModelConfig.from_dict({"rope_base": 500, "head_horizons": [1, 8], "use_moe": False})
    assert cfg.rope_base == 500 and cfg.head_horizons == (1, 8) and cfg.use_moe is False


# --- embedding -------------------------------------------------------------------


def test_embed_zero_input_gives_zero_vector():
    rng = np.random.default_rng(0)
    w = Tensor(rng.normal(size=(8, 1)), dtype=np.float64)
    v = Tensor(rng.normal(size=(8, 1)), dtype=np.float64)
    out = embed_points(Tensor(np.zeros((3, 1)), dtype=np.float64), w, v)
    np.testing.assert_array_equal(out.data, np.zeros((3, 8)))


def test_embed_ones_matches_silu_formula():
    d = 8
    w = Tensor(np.ones((d, 1)), dtype=np.float64)
    v = Tensor(np.ones((d, 1)), dtype=np.float64)
    out = embed_points(Tensor(np.ones((1, 1)), dtype=np.float64), w, v)
    expect = 1.0 / (1.0 + math.exp(-1.0))  # silu(1) * 1
    np.testing.assert_allclose(out.data, np.full((1, d), expect), atol=1e-7)


def test_embed_output_shape():
    rng = np.random.default_rng(1)
    w = Tensor(rng.normal(size=(16, 1)).astype(np.float32))
    v = Tensor(rng.normal(size=(16, 1)).astype(np.float32))
    out = embed_points(Tensor(rng.normal(size=(100, 1)).astype(np.float32)), w, v)
    assert out.shape == (100, 16)


def test_embed_rejects_nonfinite_input():
    w = Tensor(np.ones((4, 1), dtype=np.float32))
    with pytest.raises(DataError):
        embed_points(Tensor(np.array([[1.0], [np.nan]], dtype=np.float32)), w, w)


# --- rmsnorm ---------------------------------------------------------------------


def test_rmsnorm_all_ones_fixed_point():
    x = Tensor(np.ones((2, 8), dtype=np.float32))
    w = Tensor(np.ones(8, dtype=np.float32))
    np.testing.assert_allclose(T.rmsnorm(x, w, eps=RMSNORM_EPS).data, np.ones((2, 8)), atol=1e-5)


def test_rmsnorm_scale_invariance():
    rng = np.random.default_rng(2)
    row = rng.normal(size=(1, 16))
    w = Tensor(rng.normal(size=16) + 2.0, dtype=np.float64)
    base = T.rmsnorm(Tensor(row, dtype=np.float64), w, eps=RMSNORM_EPS).data
    scaled = T.rmsnorm(Tensor(7.5 * row, dtype=np.float64), w, eps=RMSNORM_EPS).data
    np.testing.assert_allclose(scaled, base, atol=1e-5)


def test_rmsnorm_matches_direct_formula():
    rng = np.random.default_rng(3)
    row = rng.normal(size=(1, 12))
    w = rng.normal(size=12)
    got = T.rmsnorm(Tensor(row, dtype=np.float64), Tensor(w, dtype=np.float64),
                    eps=RMSNORM_EPS).data[0]
    expect = row[0] / math.sqrt(np.mean(row[0] ** 2) + 1e-6) * w
    np.testing.assert_allclose(got, expect, atol=1e-6)


# --- rotary positions --------------------------------------------------------------


def test_packing_positions_restart_per_sequence():
    ids = np.array([0, 0, 0, 1, 1, 2])
    np.testing.assert_array_equal(packing_positions(ids), [0, 1, 2, 0, 1, 0])


def test_packing_positions_match_loop_reference():
    rng = np.random.default_rng(12)
    for _ in range(20):
        ids = np.cumsum(rng.random(int(rng.integers(1, 40))) < 0.2)
        expect = np.zeros(len(ids), dtype=np.int64)
        for i in range(1, len(ids)):
            expect[i] = expect[i - 1] + 1 if ids[i] == ids[i - 1] else 0
        np.testing.assert_array_equal(packing_positions(ids), expect)
        bounds = segment_bounds(ids)
        np.testing.assert_array_equal(bounds, np.append(np.flatnonzero(expect == 0), len(ids)))


@pytest.mark.parametrize("ids", [[0, 0, 1, 1, 0], [3, 1, 3], [0, 1, 0, 1]])
def test_non_contiguous_sequence_ids_rejected(ids):
    with pytest.raises(DataError):
        packing_positions(ids)
    model = Forecaster.init(tiny_config(), seed=0)
    with pytest.raises(DataError):
        model.forward(np.zeros(len(ids), dtype=np.float32), seq_ids=np.array(ids))


def test_packed_forward_does_not_import_numpy_ma():
    # np.unique imports numpy.ma on its first call, about 1 MB traced, which
    # the step-peak guards would charge to whichever test first checks ids.
    code = ("import sys\n"
            "import numpy as np\n"
            "from sparsecast.model import Forecaster, ModelConfig\n"
            "model = Forecaster.init(ModelConfig(d_model=8, num_layers=1, num_heads=2, "
            "num_experts=4, top_k=2, d_expert=8, head_horizons=(1, 8)), seed=0)\n"
            "model.forward(np.zeros(30, dtype=np.float32), seq_ids=np.repeat([3, 1, 2], 10))\n"
            "print('numpy.ma' in sys.modules)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(sparsecast.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


# --- attention ----------------------------------------------------------------------


def make_attention_params(rng, d, dtype=np.float64, identity_out=False):
    def w():
        return Tensor(rng.normal(scale=0.2, size=(d, d)), dtype=dtype)

    return AttentionParams(
        wq=w(), bq=Tensor(rng.normal(scale=0.1, size=d), dtype=dtype),
        wk=w(), bk=Tensor(rng.normal(scale=0.1, size=d), dtype=dtype),
        wv=w(), bv=Tensor(rng.normal(scale=0.1, size=d), dtype=dtype),
        wo=Tensor(np.eye(d), dtype=dtype) if identity_out else w(),
    )


def rotary(cfg, positions, dtype=np.float64):
    return T.rope_tables(positions, cfg.num_heads, cfg.d_model // cfg.num_heads, cfg.rope_base,
                         dtype)


def attend(x, params, cfg, ids):
    return causal_self_attention(x, params, cfg, rotary(cfg, packing_positions(ids), x.dtype),
                                 segment_bounds(ids))


def test_single_token_attention_is_value_projection():
    rng = np.random.default_rng(4)
    cfg = tiny_config()
    params = make_attention_params(rng, cfg.d_model, identity_out=True)
    x_arr = rng.normal(size=(1, cfg.d_model))
    x = Tensor(x_arr, dtype=np.float64)
    out = attend(x, params, cfg, np.zeros(1, dtype=int))
    v_proj = x_arr @ params.wv.data.T + params.bv.data
    np.testing.assert_allclose(out.data, v_proj, atol=1e-9)


def test_causality_bit_exact():
    rng = np.random.default_rng(5)
    cfg = tiny_config()
    params = make_attention_params(rng, cfg.d_model)
    x = rng.normal(size=(10, cfg.d_model))
    ids = np.zeros(10, dtype=int)
    base = attend(Tensor(x, dtype=np.float64), params, cfg, ids).data
    bumped = x.copy()
    bumped[7] += 3.0
    out = attend(Tensor(bumped, dtype=np.float64), params, cfg, ids).data
    np.testing.assert_array_equal(out[:7], base[:7])
    assert not np.array_equal(out[7:], base[7:])


def test_packed_sequences_are_isolated():
    rng = np.random.default_rng(6)
    cfg = tiny_config()
    params = make_attention_params(rng, cfg.d_model)
    x = rng.normal(size=(12, cfg.d_model))
    ids = np.array([0] * 6 + [1] * 6)
    base = attend(Tensor(x, dtype=np.float64), params, cfg, ids).data
    zeroed = x.copy()
    zeroed[6:] = 0.0
    out = attend(Tensor(zeroed, dtype=np.float64), params, cfg, ids).data
    np.testing.assert_array_equal(out[:6], base[:6])


def test_attention_bias_structure():
    bias = attention_bias(np.array([0, 0, 1]))
    finite = np.isfinite(bias)
    np.testing.assert_array_equal(
        finite, np.array([[True, False, False], [True, True, False], [False, False, True]])
    )


# --- blocks -----------------------------------------------------------------------


def test_block_zero_weights_is_residual_identity():
    cfg = tiny_config()
    model = Forecaster.init(cfg, seed=0, dtype=np.float64)
    block = model.params.blocks[0]
    for t in (block.attn.wq, block.attn.wk, block.attn.wv, block.attn.wo,
              block.attn.bq, block.attn.bk, block.attn.bv):
        t.data[:] = 0.0
    for exp in block.moe.experts + [block.moe.shared]:
        exp.w_gate.data[:] = 0.0
        exp.w_up.data[:] = 0.0
        exp.w_down.data[:] = 0.0
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(5, cfg.d_model)), dtype=np.float64)
    out, _ = block_forward(x, block, cfg, 0, rotary(cfg, np.arange(5)), np.array([0, 5]))
    np.testing.assert_allclose(out.data, x.data, atol=1e-12)


def test_block_preserves_shape():
    cfg = tiny_config()
    model = Forecaster.init(cfg, seed=1, dtype=np.float64)
    x = Tensor(np.random.default_rng(8).normal(size=(9, cfg.d_model)), dtype=np.float64)
    out, routing = block_forward(x, model.params.blocks[0], cfg, 0, rotary(cfg, np.arange(9)),
                                 np.array([0, 9]))
    assert out.shape == (9, cfg.d_model)
    assert routing is not None


def test_dense_ablation_equals_single_expert_moe():
    """With one routed expert, gate = softmax of one logit = 1; silencing the
    shared expert makes the mixture equal a plain FFN of the same weights."""
    cfg_dense = tiny_config(use_moe=False, d_ff=16)
    dense = Forecaster.init(cfg_dense, seed=3, dtype=np.float64)

    cfg_moe = tiny_config(use_moe=True, num_experts=1, top_k=1, d_expert=16)
    sparse = Forecaster.init(cfg_moe, seed=4, dtype=np.float64)
    sparse.params.embed_w.data[:] = dense.params.embed_w.data
    sparse.params.embed_v.data[:] = dense.params.embed_v.data
    sparse.params.final_norm.data[:] = dense.params.final_norm.data
    for hs, hd in zip(sparse.params.heads, dense.params.heads):
        hs.data[:] = hd.data
    for bs, bd in zip(sparse.params.blocks, dense.params.blocks):
        bs.attn_norm.data[:] = bd.attn_norm.data
        bs.ffn_norm.data[:] = bd.ffn_norm.data
        for name in ("wq", "bq", "wk", "bk", "wv", "bv", "wo"):
            getattr(bs.attn, name).data[:] = getattr(bd.attn, name).data
        bs.moe.experts[0].w_gate.data[:] = bd.ffn.w_gate.data
        bs.moe.experts[0].w_up.data[:] = bd.ffn.w_up.data
        bs.moe.experts[0].w_down.data[:] = bd.ffn.w_down.data
        bs.moe.shared.w_down.data[:] = 0.0

    rng = np.random.default_rng(9)
    x = rng.normal(size=20)
    out_dense = dense.forward(x)
    out_moe = sparse.forward(x)
    for a, b in zip(out_dense.head_outputs, out_moe.head_outputs):
        np.testing.assert_allclose(a.data, b.data, atol=1e-5)


# --- full forward ------------------------------------------------------------------


def test_forward_shapes_per_head():
    cfg = tiny_config()
    model = Forecaster.init(cfg, seed=5)
    out = model.forward(np.random.default_rng(10).normal(size=40))
    shapes = [o.shape for o in out.head_outputs]
    assert shapes == [(40, 1), (40, 8), (40, 32), (40, 64)]
    assert len(out.routing) == cfg.num_layers


def test_forward_finite_up_to_max_context():
    cfg = tiny_config(max_context=128)
    model = Forecaster.init(cfg, seed=6)
    x = np.random.default_rng(11).normal(size=128)
    out = model.forward(x)
    assert np.all(np.isfinite(out.hidden.data))
    for h in out.head_outputs:
        assert np.all(np.isfinite(h.data))


def test_forward_rejects_oversized_context():
    cfg = tiny_config(max_context=16)
    model = Forecaster.init(cfg, seed=7)
    with pytest.raises(DataError):
        model.forward(np.zeros(17))


def test_forward_causality_full_model():
    cfg = tiny_config()
    model = Forecaster.init(cfg, seed=8)
    rng = np.random.default_rng(12)
    x = rng.normal(size=16).astype(np.float32)
    base = model.forward(x)
    bumped = x.copy()
    bumped[10] += 1.0
    out = model.forward(bumped)
    for a, b in zip(base.head_outputs, out.head_outputs):
        np.testing.assert_array_equal(a.data[:10], b.data[:10])


def test_forward_packing_isolation_full_model():
    cfg = tiny_config()
    model = Forecaster.init(cfg, seed=9)
    rng = np.random.default_rng(13)
    x = rng.normal(size=20).astype(np.float32)
    ids = np.array([0] * 10 + [1] * 10)
    base = model.forward(x, seq_ids=ids)
    zeroed = x.copy()
    zeroed[10:] = 0.0
    out = model.forward(zeroed, seq_ids=ids)
    for a, b in zip(base.head_outputs, out.head_outputs):
        np.testing.assert_array_equal(a.data[:10], b.data[:10])
    # A packed sequence computes exactly what it computes alone.
    alone = model.forward(x[:10])
    for a, b in zip(base.head_outputs, alone.head_outputs):
        np.testing.assert_array_equal(a.data[:10], b.data)


def test_forward_packing_isolation_across_tiles():
    # Two segments of several attention tiles each: the second segment's tiles
    # start at its own first token, so each computes exactly what it does alone.
    model = Forecaster.init(tiny_config(max_context=160), seed=11)
    x = np.random.default_rng(17).normal(size=300).astype(np.float32)
    ids = np.repeat([0, 1], 150)
    packed = model.forward(x, seq_ids=ids)
    for a, b in ((0, 150), (150, 300)):
        alone = model.forward(x[a:b])
        for got, want in zip(packed.head_outputs, alone.head_outputs):
            np.testing.assert_array_equal(got.data[a:b], want.data)


# --- parameter accounting ------------------------------------------------------------


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_cached_forward_matches_last_row_of_full_forward(dtype, tol):
    model = Forecaster.init(tiny_config(), seed=3, dtype=dtype)
    x = np.random.default_rng(13).normal(size=50)
    full = model.forward(x)
    cache = KVCache.empty(model.config.num_layers)
    for a, b in ((0, 30), (30, 37), (37, 38), (38, 50)):
        out = model.forward(x[a:b], cache=cache)
        assert cache.length == b
        assert [k.shape for k in cache.keys] == [(b, 2, 4)] * 2
        assert out.hidden.shape == (1, 8)
        assert [o.shape for o in out.head_outputs] == [(1, 1), (1, 8), (1, 32), (1, 64)]
        prefix = model.forward(x[:b])
        for got, want in zip(out.head_outputs, prefix.head_outputs):
            np.testing.assert_allclose(got.data[0], want.data[-1], rtol=tol, atol=tol)
    np.testing.assert_allclose(out.hidden.data[0], full.hidden.data[-1], rtol=tol, atol=tol)


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-12), (np.float32, 1e-5)])
def test_cached_forward_beyond_one_tile_matches_full_forward(dtype, tol):
    # Pushes that start mid-tile, fill one tile exactly, and add single points.
    model = Forecaster.init(tiny_config(max_context=256), seed=5, dtype=dtype)
    x = np.random.default_rng(21).normal(size=230)
    cache = KVCache.empty(model.config.num_layers)
    for a, b in ((0, 100), (100, 128), (128, 192), (192, 193), (193, 230)):
        out = model.forward(x[a:b], cache=cache)
        prefix = model.forward(x[:b])
        for got, want in zip(out.head_outputs, prefix.head_outputs):
            np.testing.assert_allclose(got.data[0], want.data[-1], rtol=tol, atol=tol)


def test_cached_forward_rejects_seq_ids_and_overflow():
    model = Forecaster.init(tiny_config(max_context=16), seed=0)
    cache = KVCache.empty(model.config.num_layers)
    with pytest.raises(DataError):
        model.forward(np.zeros(4), seq_ids=np.zeros(4, dtype=np.int64), cache=cache)
    model.forward(np.zeros(12), cache=cache)
    with pytest.raises(DataError):
        model.forward(np.zeros(5), cache=cache)
    model.forward(np.zeros(4), cache=cache)
    assert cache.length == 16


def test_cached_forward_inside_a_recording_graph_raises():
    # The cache holds plain arrays, so a tape recorded through it would stop
    # there: a cached forward is inference-only and refuses to record.
    model = Forecaster.init(tiny_config(), seed=0)
    cache = KVCache.empty(model.config.num_layers)
    with T.Graph():
        with pytest.raises(DataError):
            model.forward(np.zeros(4), cache=cache)
    assert cache.length == 0 and cache.keys == [None, None]
    model.forward(np.zeros(4), cache=cache)
    assert cache.length == 4


def test_count_params_hand_enumeration():
    cfg = tiny_config(num_layers=2, d_model=8, num_experts=4, top_k=2, d_expert=16)
    d = 8
    embed = 2 * (d * 1)
    attn = 3 * (d * d + d) + d * d
    norms = 2 * d
    router = 5 * d
    one_expert = 3 * (16 * d)
    layer = attn + norms + router + 5 * one_expert  # 4 routed + 1 shared
    expect_total = embed + 2 * layer + d + (1 + 8 + 32 + 64) * d
    expect_activated = expect_total - 2 * 2 * one_expert  # (N - K) idle per layer
    counts = count_params(cfg)
    assert counts == {"total": expect_total, "activated": expect_activated}


def test_count_params_equals_allocated_sizes():
    cfg = tiny_config()
    model = Forecaster.init(cfg, seed=10)
    allocated = sum(p.data.size for p in model.parameters())
    assert count_params(cfg)["total"] == allocated


def test_count_params_dense_and_full_selection():
    cfg = tiny_config(num_experts=4, top_k=4)
    counts = count_params(cfg)
    assert counts["total"] == counts["activated"]
    dense = count_params(tiny_config(use_moe=False))
    assert dense["total"] == dense["activated"]


def test_count_params_reference_scale_configuration():
    # 12-layer, 384-wide, 8-expert configuration; the published counts for
    # this family are ~113M total / ~50M activated. Conventions for what an
    # "expert" includes differ, so this only pins the order of magnitude.
    cfg = ModelConfig(num_layers=12, num_heads=12, num_experts=8, top_k=2,
                      d_model=384, d_ff=1536, d_expert=192)
    counts = count_params(cfg)
    ratio_total = counts["total"] / 113e6
    ratio_act = counts["activated"] / 50e6
    assert 0.1 < ratio_total < 10
    assert 0.1 < ratio_act < 10


def test_forward_determinism():
    cfg = tiny_config()
    model = Forecaster.init(cfg, seed=11)
    x = np.random.default_rng(14).normal(size=24)
    a = model.forward(x)
    b = model.forward(x)
    for p, q in zip(a.head_outputs, b.head_outputs):
        assert p.data.tobytes() == q.data.tobytes()


# --- one packed row per training batch -------------------------------------------


def test_packed_batch_forward_matches_per_row_forwards_bitwise(tmp_path):
    """A 4 x 256 batch laid end to end gives each row bit for bit what the row
    gives alone. At d_model 32 and 4 heads a product by a transposed view
    would differ with the row count, so this size catches one."""
    from sparsecast.data import sample_batch
    from sparsecast.synthetic import build_regime_store
    from sparsecast.train import flat_batch

    cfg = ModelConfig(d_model=32, num_layers=2, num_heads=4, num_experts=4, top_k=2,
                      d_expert=32, head_horizons=(1, 8, 32, 64), max_context=256)
    model = Forecaster.init(cfg, seed=0)
    store = build_regime_store(tmp_path, np.random.default_rng(1), per_regime=2, length=400)
    batch = sample_batch(store, np.random.default_rng(2), 4, 256)
    tokens, seq_ids, _ = flat_batch(batch)
    packed = model.forward(tokens, seq_ids=seq_ids)  # 1024 tokens past max_context 256
    for b in range(4):
        alone = model.forward(batch.tokens[b], seq_ids=batch.seq_ids[b])
        rows = slice(256 * b, 256 * (b + 1))
        assert packed.hidden.data[rows].tobytes() == alone.hidden.data.tobytes(), b
        for j, (p, a) in enumerate(zip(packed.head_outputs, alone.head_outputs)):
            assert p.data[rows].tobytes() == a.data.tobytes(), (b, j)


def test_max_context_bounds_segments_not_the_row():
    model = Forecaster.init(tiny_config(max_context=16), seed=7)
    ids = np.repeat(np.arange(3), 16)  # 48 tokens, no segment past 16
    out = model.forward(np.zeros(48), seq_ids=ids)
    assert out.hidden.shape == (48, 8)
    with pytest.raises(DataError, match="context 17 exceeds max_context 16"):
        model.forward(np.zeros(33), seq_ids=np.repeat([0, 1], [16, 17]))
    cache = KVCache.empty(2)
    model.forward(np.zeros(10), cache=cache)
    with pytest.raises(DataError, match="context 17 exceeds max_context 16"):
        model.forward(np.zeros(7), cache=cache)  # positions 10..16


@pytest.mark.parametrize("lengths", [(63, 65, 200, 333), (1, 1, 9), (1024,) * 4])
def test_packed_segments_of_any_length_match_solo_forwards_bitwise(lengths):
    """Segments of odd lengths packed into one row give bit for bit what each
    gives alone, in the hidden state and every head, at the benchmark model.
    On OpenBLAS the router (5 rows) and the horizon-8 head once rounded by
    the row count; one input draw can hide that, so several are taken."""
    cfg = ModelConfig(d_model=32, num_layers=2, num_heads=4, num_experts=4, top_k=2,
                      d_expert=32, head_horizons=(1, 8, 32, 64))
    model = Forecaster.init(cfg, seed=0)
    bounds = np.cumsum((0,) + lengths)
    ids = np.repeat(np.arange(len(lengths)), lengths)
    for draw in range(4):
        x = np.random.default_rng(draw).normal(size=bounds[-1])
        packed = model.forward(x, seq_ids=ids)
        for a, b in zip(bounds[:-1], bounds[1:]):
            alone = model.forward(x[a:b])
            assert packed.hidden.data[a:b].tobytes() == alone.hidden.data.tobytes(), (draw, a)
            for j, (p, s) in enumerate(zip(packed.head_outputs, alone.head_outputs)):
                assert p.data[a:b].tobytes() == s.data.tobytes(), (draw, a, j)


def assert_packed_segments_match_solo_forwards(d_model, d_expert, seeds,
                                               lengths=(300, 257, 33, 5, 130)):
    """Segments of the given lengths packed in one row give every hidden and
    head row bit for bit what each gives alone."""
    bounds = np.cumsum((0,) + lengths)
    ids = np.repeat(np.arange(len(lengths)), lengths)
    for seed in range(seeds):
        cfg = ModelConfig(d_model=d_model, num_layers=2, num_heads=4, num_experts=4, top_k=2,
                          d_expert=d_expert, head_horizons=(1, 8, 32, 64))
        model = Forecaster.init(cfg, seed=seed)
        x = np.random.default_rng(seed).normal(size=bounds[-1])
        packed = model.forward(x, seq_ids=ids)
        for a, b in zip(bounds[:-1], bounds[1:]):
            alone = model.forward(x[a:b])
            assert packed.hidden.data[a:b].tobytes() == alone.hidden.data.tobytes(), (seed, a)
            for j, (p, s) in enumerate(zip(packed.head_outputs, alone.head_outputs)):
                assert p.data[a:b].tobytes() == s.data.tobytes(), (seed, a, j)


@pytest.mark.parametrize("d_expert", [8, 24])
def test_packed_segments_match_solo_forwards_bitwise_at_narrow_expert_widths(d_expert):
    """Expert widths that are not a multiple of 16 pad their products as
    linear does. Unpadded, a segment's expert rows rounded by the routed
    group sizes, which only some draws hit, so ten seeds are taken."""
    assert_packed_segments_match_solo_forwards(32, d_expert, seeds=10)


def test_packed_segments_match_solo_forwards_bitwise_at_d_model_64():
    """Every product whose input is a row of the model (q, k, v, wo, router,
    heads, expert gate and up) contracts over d_model. A 64-wide
    contraction runs whole, and a one-row call (a 1-point segment, a
    one-token expert group) as two rows: numpy's one-row path rounds a row
    differently at contractions of 56 or more. The d_model 128 case packs a
    1-point and a 5-point segment; without the two-row floor it failed at
    all six seeds."""
    assert_packed_segments_match_solo_forwards(64, 32, seeds=12)
    assert_packed_segments_match_solo_forwards(128, 96, seeds=6,
                                               lengths=(300, 1, 5, 33, 130, 257))
