"""Losses, optimizer, schedule, training loop, and checkpoints."""

import json
import tracemalloc
import weakref
from collections import Counter

import numpy as np
import pytest

from helpers import (
    ReferenceGraph,
    check_against_fd,
    max_rel_err,
    reference_batch_loss,
    reference_head_targets,
    reference_moe_forward,
)
from sparsecast import model as model_module
from sparsecast import tensor as T
from sparsecast import train as train_module
from sparsecast.data import CleanSeries, PackedBatch, SequenceStore, sample_batch
from sparsecast.evaluate import model_hash
from sparsecast.model import ConfigError, Forecaster, ForwardResult, ModelConfig, segment_bounds
from sparsecast.synthetic import build_regime_store, build_tone_store, multi_tone
from sparsecast.tensor import Graph, Tensor
from sparsecast.train import (
    AdamW,
    CheckpointError,
    TrainConfig,
    TrainingError,
    aux_loss,
    batch_loss,
    flat_batch,
    head_targets,
    huber,
    load_checkpoint,
    lr_at_step,
    save_checkpoint,
    train_loop,
    train_step,
)


def toy_config(**kw):
    base = dict(num_layers=1, num_heads=2, num_experts=2, top_k=1, d_model=8,
                d_ff=16, d_expert=8, head_horizons=(1, 4), max_context=256)
    base.update(kw)
    return ModelConfig(**base)


def toy_train(**kw):
    base = dict(steps=2, batch=2, context=32, lr=1e-3, warmup_steps=1, seed=0)
    base.update(kw)
    return TrainConfig(**base)


# --- huber -----------------------------------------------------------------------


def test_huber_closed_forms():
    assert huber(1.0, 1.0) == 0.0
    assert huber(1.0, 0.5, delta=1.0) == pytest.approx(0.125)
    assert huber(3.0, 1.0, delta=1.0) == pytest.approx(1.5)


def test_huber_continuous_and_smooth_at_knee():
    delta = 1.0
    eps = 1e-7
    below = huber(delta - eps, 0.0, delta)
    above = huber(delta + eps, 0.0, delta)
    assert abs(above - below) < 1e-6
    # first derivative from both sides of the knee
    h = 1e-6
    d_below = (huber(delta - eps + h, 0.0, delta) - huber(delta - eps - h, 0.0, delta)) / (2 * h)
    d_above = (huber(delta + eps + h, 0.0, delta) - huber(delta + eps - h, 0.0, delta)) / (2 * h)
    assert d_below == pytest.approx(d_above, abs=1e-5)
    assert d_above == pytest.approx(1.0, abs=1e-5)


# --- balance penalty ----------------------------------------------------------------


@pytest.mark.parametrize("n", [2, 4, 8])
def test_aux_loss_uniform_is_one(n):
    uniform = np.full(n, 1.0 / n)
    assert aux_loss(uniform, uniform) == pytest.approx(1.0, abs=1e-6)


def test_aux_loss_collapse_scales_with_n():
    for n in (2, 4, 8):
        f = np.zeros(n)
        f[0] = 1.0
        r = np.full(n, 1e-6)
        r[0] = 1.0 - (n - 1) * 1e-6
        assert aux_loss(f, r) >= 0.95 * n


def test_aux_loss_lower_bound_when_f_equals_r():
    rng = np.random.default_rng(0)
    for _ in range(100):
        n = int(rng.integers(2, 12))
        f = rng.dirichlet(np.ones(n))
        value = aux_loss(f, f)
        assert value >= 1.0 - 1e-9
    uniform = np.full(6, 1.0 / 6)
    assert aux_loss(uniform, uniform) == pytest.approx(1.0)
    skew = np.array([0.5, 0.3, 0.2])
    assert aux_loss(skew, skew) > 1.0


# --- schedule --------------------------------------------------------------------


def test_lr_schedule_endpoints():
    assert lr_at_step(0, 10, 100, 1e-3) == 0.0
    assert lr_at_step(10, 10, 100, 1e-3) == pytest.approx(1e-3)
    assert lr_at_step(100, 10, 100, 1e-3) == pytest.approx(0.0, abs=1e-12)


def test_lr_schedule_shape():
    warm = [lr_at_step(s, 10, 100, 1.0) for s in range(11)]
    assert warm == sorted(warm)
    decay = [lr_at_step(s, 10, 100, 1.0) for s in range(10, 101)]
    assert decay == sorted(decay, reverse=True)
    with pytest.raises(ValueError):
        lr_at_step(101, 10, 100, 1.0)


# --- optimizer --------------------------------------------------------------------


class OneParamModel:
    def __init__(self, value, decays=True):
        self.tensor = Tensor(np.array([value], dtype=np.float32), requires_grad=True)
        self._decays = decays

    def named_parameters(self):
        yield "w", self.tensor, self._decays

    def parameters(self):
        yield self.tensor


def test_adamw_zero_grad_zero_decay_is_fixed_point():
    model = OneParamModel(1.5)
    opt = AdamW(model, toy_train(weight_decay=0.0))
    model.tensor.grad = np.zeros(1, dtype=np.float32)
    opt.step(lr=0.1)
    assert model.tensor.data[0] == 1.5


def test_adamw_single_step_matches_hand_recurrence():
    model = OneParamModel(1.0)
    cfg = toy_train(weight_decay=0.0, beta1=0.9, beta2=0.95)
    opt = AdamW(model, cfg)
    model.tensor.grad = np.array([0.5], dtype=np.float32)
    opt.step(lr=0.1)
    # Hand evaluation of the recurrence at t = 1:
    m = 0.1 * 0.5                 # (1 - b1) g
    v = 0.05 * 0.25               # (1 - b2) g^2
    m_hat = m / (1 - 0.9)
    v_hat = v / (1 - 0.95)
    expect = 1.0 - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert model.tensor.data[0] == pytest.approx(expect, rel=1e-6)


def test_adamw_decay_only_closed_form():
    model = OneParamModel(2.0)
    cfg = toy_train(weight_decay=0.1)
    opt = AdamW(model, cfg)
    model.tensor.grad = np.zeros(1, dtype=np.float32)
    opt.step(lr=0.5)
    assert model.tensor.data[0] == pytest.approx(2.0 * (1 - 0.5 * 0.1))


def test_adamw_respects_decay_exemption():
    model = OneParamModel(2.0, decays=False)
    opt = AdamW(model, toy_train(weight_decay=0.1))
    model.tensor.grad = np.zeros(1, dtype=np.float32)
    opt.step(lr=0.5)
    assert model.tensor.data[0] == 2.0


def test_adamw_rejects_nonfinite_gradient():
    model = OneParamModel(1.0)
    opt = AdamW(model, toy_train())
    model.tensor.grad = np.array([np.nan], dtype=np.float32)
    with pytest.raises(TrainingError):
        opt.step(lr=0.1)
    assert model.tensor.data[0] == 1.0  # step rejected, parameter untouched


def test_norm_gains_and_biases_not_decayed():
    model = Forecaster.init(toy_config(), seed=0)
    exempt = [name for name, _, decays in model.named_parameters() if not decays]
    assert all(("norm" in n) or (".b" in n) for n in exempt)
    assert any("attn_norm" in n for n in exempt)
    assert any(".bq" in n for n in exempt)


# --- targets and loss --------------------------------------------------------------


def test_head_targets_mask_respects_boundaries():
    tokens = np.arange(10, dtype=np.float32)
    seq_ids = np.array([0] * 5 + [1] * 5)
    pad = np.zeros(10, dtype=bool)
    targets, valid = head_targets(tokens, segment_bounds(seq_ids), pad, horizon=3)
    # anchor 1 sees targets 2,3,4 inside sequence 0
    assert valid[1]
    np.testing.assert_array_equal(targets[1], [2, 3, 4])
    # anchor 2's window 3,4,5 straddles the boundary
    assert not valid[2]
    assert not valid[4]
    assert valid[5] and valid[6]
    assert not valid[7]  # window 8,9,10 runs off the row


def test_head_targets_reject_context_below_horizon():
    tokens = np.zeros(8, dtype=np.float32)
    ids = np.zeros(8, dtype=np.int64)
    pad = np.zeros(8, dtype=bool)
    with pytest.raises(ConfigError, match=r"context 8 .* horizon 9"):
        head_targets(tokens, segment_bounds(ids), pad, horizon=9)
    # context == horizon is legal
    _, valid = head_targets(tokens, segment_bounds(ids), pad, horizon=8)
    assert not valid.any()


def test_train_loop_context_below_largest_horizon_is_config_error(tmp_path):
    store = build_tone_store(tmp_path, np.random.default_rng(0), num_sequences=2, length=64)
    model = Forecaster.init(toy_config(head_horizons=(1, 16)), seed=0)
    with pytest.raises(ConfigError, match="horizon 16"):
        train_loop(model, store, toy_train(context=8, steps=1))


@pytest.mark.parametrize("lengths, pad", [([24], 0), ([1, 5, 1, 1, 9, 2], 0),
                                          ([3, 1, 8], 5), ([1] * 12, 4), ([6], 6)],
                         ids=["one", "packed-len1", "packed-pad", "all-len1", "half-pad"])
@pytest.mark.parametrize("horizon", [1, 2, 4, 8, 12])
def test_head_targets_match_loop_oracle(lengths, pad, horizon):
    # Padding comes last under its own id, as sample_batch packs it.
    ids = np.repeat(np.arange(len(lengths) + (pad > 0)), lengths + ([pad] if pad else []))
    pad_mask = np.zeros(len(ids), dtype=bool)
    pad_mask[len(ids) - pad:] = True
    tokens = np.random.default_rng(len(ids)).normal(size=len(ids)).astype(np.float32)
    targets, valid = head_targets(tokens, segment_bounds(ids), pad_mask, horizon)
    want_targets, want_valid = reference_head_targets(tokens, ids, pad_mask, horizon)
    assert targets.dtype == want_targets.dtype
    assert targets.tobytes() == want_targets.tobytes()
    np.testing.assert_array_equal(valid, want_valid)


def test_head_targets_exclude_padding():
    tokens = np.zeros(8, dtype=np.float32)
    seq_ids = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    pad = np.array([False] * 4 + [True] * 4)
    _, valid = head_targets(tokens, segment_bounds(seq_ids), pad, horizon=2)
    assert not valid[4:].any()


def one_row_batch(tokens, pad=None):
    length = len(tokens)
    return PackedBatch(tokens=np.asarray(tokens, dtype=np.float32)[None, :, None],
                       seq_ids=np.zeros((1, length), dtype=np.int64),
                       pad_mask=np.zeros((1, length), dtype=bool) if pad is None else pad[None],
                       crop_domains=[["test"]])


class FixedPredictions:
    """A stand-in model whose forward returns chosen head outputs and no
    routing, so batch_loss scores exactly those predictions."""

    def __init__(self, config, head_outputs):
        self.config = config
        self.head_outputs = head_outputs

    def forward(self, values, seq_ids=None):
        return ForwardResult(hidden=None, head_outputs=self.head_outputs, routing=[])


def test_batch_loss_perfect_predictions_zero():
    cfg = toy_config()
    rng = np.random.default_rng(1)
    tokens = rng.normal(size=12).astype(np.float32)
    ids = np.zeros(12, dtype=np.int64)
    pad = np.zeros(12, dtype=bool)
    bounds = segment_bounds(ids)
    preds = [Tensor(head_targets(tokens, bounds, pad, p)[0].copy()) for p in cfg.head_horizons]
    loss, info = batch_loss(FixedPredictions(cfg, preds), one_row_batch(tokens),
                            toy_train(alpha=0.0))
    assert loss.item() == 0.0
    assert info["loss"] == 0.0 and info["loss_aux"] == 0.0


def test_batch_loss_alpha_is_linear_shift():
    model = Forecaster.init(toy_config(), seed=2)
    tokens = np.random.default_rng(3).normal(size=24).astype(np.float32)
    batch = one_row_batch(tokens)
    base, _ = batch_loss(model, batch, toy_train(alpha=0.0))
    shifted, info = batch_loss(model, batch, toy_train(alpha=0.02))
    assert shifted.item() - base.item() == pytest.approx(0.02 * info["loss_aux"], rel=1e-5)


def test_batch_loss_single_head_reduces_to_masked_huber():
    cfg = toy_config(head_horizons=(1,))
    rng = np.random.default_rng(4)
    tokens = rng.normal(size=10).astype(np.float32)
    ids = np.zeros(10, dtype=np.int64)
    pad = np.zeros(10, dtype=bool)
    tgt, valid = head_targets(tokens, segment_bounds(ids), pad, 1)
    pred = Tensor(rng.normal(size=(10, 1)).astype(np.float32))
    loss, _ = batch_loss(FixedPredictions(cfg, [pred]), one_row_batch(tokens),
                         toy_train(alpha=0.0))
    manual = np.mean([huber(float(t), float(p)) for t, p, v
                      in zip(tgt[:, 0], pred.data[:, 0], valid) if v])
    assert loss.item() == pytest.approx(manual, rel=1e-6)


def test_batch_loss_all_masked_is_degenerate():
    cfg = toy_config(head_horizons=(1,))
    pred = Tensor(np.zeros((4, 1), dtype=np.float32))
    batch = one_row_batch(np.zeros(4), pad=np.ones(4, dtype=bool))
    with pytest.raises(TrainingError):
        batch_loss(FixedPredictions(cfg, [pred]), batch, toy_train(alpha=0.0))


def random_batch(rng, rows: int, length: int) -> PackedBatch:
    """Rows packed with segments of random length, many of length 1, and a
    padded tail on every other row; ids numbered as sample_batch numbers them."""
    tokens = rng.normal(size=(rows, length, 1)).astype(np.float32)
    seq_ids = np.zeros((rows, length), dtype=np.int64)
    pad_mask = np.zeros((rows, length), dtype=bool)
    for b in range(rows):
        end = length - (int(rng.integers(1, length // 3)) if b % 2 == 0 else 0)
        pos = sid = 0
        while pos < end:
            n = min(int(rng.choice([1, 1, 2, 5, 9, 17])), end - pos)
            seq_ids[b, pos:pos + n] = sid
            pos, sid = pos + n, sid + 1
        seq_ids[b, end:] = sid
        pad_mask[b, end:] = True
    return PackedBatch(tokens=tokens, seq_ids=seq_ids, pad_mask=pad_mask,
                       crop_domains=[["test"]] * rows)


@pytest.mark.parametrize("alpha", [0.0, 0.02])
@pytest.mark.parametrize("rows", [1, 4])
@pytest.mark.parametrize("dtype, rtol", [(np.float64, 1e-10), (np.float32, 1e-5)])
def test_batch_loss_matches_per_row_oracle(monkeypatch, dtype, rtol, rows, alpha):
    """One packed row through grouped dispatch gives the loss and gradients of
    one forward per batch row through the per-expert loop."""
    cfg = toy_config(num_layers=2, num_experts=4, top_k=2, head_horizons=(1, 4, 8))
    model = Forecaster.init(cfg, seed=21, dtype=dtype)
    batch = random_batch(np.random.default_rng([22, rows]), rows, 40)
    tcfg = toy_train(alpha=alpha)

    def run(loss_fn):
        model.zero_grad()
        with Graph() as g:
            loss, info = loss_fn(model, batch, tcfg)
        g.backward(loss)
        return info, {name: t.grad for name, t, _ in model.named_parameters()}

    info, grads = run(batch_loss)
    monkeypatch.setattr(model_module, "moe_forward", reference_moe_forward)
    want_info, want_grads = run(reference_batch_loss)
    for key in ("loss", "loss_ar", "loss_aux", "f_min", "f_max"):
        assert info[key] == pytest.approx(want_info[key], rel=rtol, abs=1e-12), key
    for name, want in want_grads.items():
        assert (grads[name] is None) == (want is None), name
        if want is not None:
            scale = float(np.abs(want).max())
            np.testing.assert_allclose(grads[name], want, rtol=rtol, atol=rtol * scale,
                                       err_msg=name)


def test_flat_batch_keeps_rows_apart():
    batch = random_batch(np.random.default_rng(23), 3, 16)
    tokens, seq_ids, pad_mask = flat_batch(batch)
    bounds = segment_bounds(seq_ids)
    assert {0, 16, 32, 48} <= set(bounds.tolist())
    for b in range(3):
        np.testing.assert_array_equal(np.diff(segment_bounds(batch.seq_ids[b])),
                                      np.diff(bounds[(bounds >= 16 * b) & (bounds <= 16 * b + 16)]))
    np.testing.assert_array_equal(tokens, batch.tokens[:, :, 0].reshape(-1))
    np.testing.assert_array_equal(pad_mask, batch.pad_mask.reshape(-1))


def test_batch_loss_gradients_match_finite_differences(tmp_path):
    cfg = toy_config(num_layers=1, d_model=4, num_heads=2, num_experts=2, top_k=1,
                     d_expert=4, head_horizons=(1, 2))
    model = Forecaster.init(cfg, seed=5, dtype=np.float64)
    store = build_tone_store(tmp_path, np.random.default_rng(6), num_sequences=2, length=64)
    batch = sample_batch(store, np.random.default_rng(7), 1, 12)
    tcfg = toy_train(alpha=0.02)
    leaves = {name: t for name, t, _ in model.named_parameters()}

    def forward():
        return batch_loss(model, batch, tcfg)[0]

    check_against_fd(leaves, forward, h=1e-5, tol=1e-4, allow_unused=True)


# --- training loop -------------------------------------------------------------------


def tone_store(tmp_path, seed=0, n=4, length=256):
    return build_tone_store(tmp_path, np.random.default_rng(seed),
                            num_sequences=n, length=length)


def test_train_loop_runs_and_logs(tmp_path):
    model = Forecaster.init(toy_config(), seed=6)
    store = tone_store(tmp_path / "s")
    log = tmp_path / "metrics.ndjson"
    metrics = train_loop(model, store, toy_train(steps=3), log_path=log)
    assert [m["step"] for m in metrics] == [0, 1, 2]
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(lines) == 3
    for rec in lines:
        assert set(rec) == {"step", "lr", "loss", "loss_ar", "loss_aux", "f", "f_min", "f_max",
                            "seconds", "tokens_per_s", "tape_nodes", "grad_norm"}
        assert np.isfinite(rec["loss"])
        f = np.array(rec["f"])
        assert f.shape == (1, 2) and np.allclose(f.sum(axis=1), 1.0)
        assert (rec["f_min"], rec["f_max"]) == (f.mean(axis=0).min(), f.mean(axis=0).max())
        assert rec["seconds"] > 0 and isinstance(rec["tape_nodes"], int)
        assert rec["grad_norm"] > 0
        assert rec["tokens_per_s"] == pytest.approx(2 * 32 / rec["seconds"])


def test_step_tape_does_not_grow_with_batch_rows(tmp_path):
    # The batch runs as one packed row: a step records the same ops for 1 row as for 4.
    store = tone_store(tmp_path / "s")
    nodes = [train_loop(Forecaster.init(toy_config(), seed=6), store,
                        toy_train(steps=1, batch=rows))[0]["tape_nodes"] for rows in (1, 4)]
    assert nodes[0] == nodes[1]


def test_grad_norm_is_recorded_before_clipping(tmp_path):
    # Step 0 sees the same model and batch whatever the clip, so the recorded
    # norm must not move when a tiny clip scales the gradients down.
    store = tone_store(tmp_path / "s")
    norms = [train_loop(Forecaster.init(toy_config(), seed=6), store,
                        toy_train(steps=1, grad_clip=clip))[0]["grad_norm"]
             for clip in (None, 1e-6)]
    assert norms[0] == norms[1] > 1e-3


def benchmark_model_and_batch(tmp_path):
    """The benchmark's model and a batch of its shape (4 x 256)."""
    cfg = ModelConfig(d_model=32, num_layers=2, num_heads=4, num_experts=4, top_k=2,
                      d_expert=32, head_horizons=(1, 8, 32, 64))
    store = build_regime_store(tmp_path, np.random.default_rng(1), per_regime=2, length=400)
    return Forecaster.init(cfg, seed=0), sample_batch(store, np.random.default_rng(2), 4, 256)


def test_step_tape_per_op_counts_at_benchmark_model(tmp_path, monkeypatch):
    """One batch_loss at the benchmark model and batch shape (4 x 256): each
    weight product outside the embedding and the experts is one linear node,
    each loss term (four heads, two balance layers) one weighted_sum, the
    embedding one glu, each layer's router scores one router_scores and its
    routed and shared experts together one swiglu, and no matmul, mul,
    silu, dispatch_rows, transpose, row_scale, sigmoid, softmax, column
    slice or bias add is recorded."""
    model, batch = benchmark_model_and_batch(tmp_path)
    # A node is (key, input refs, vjp) and holds no operand, so each add's
    # operand shapes are logged as it is called.
    add, adds = T.add, []
    monkeypatch.setattr(T, "add", lambda a, b: adds.append((a, b)) or add(a, b))
    with Graph() as graph:
        batch_loss(model, batch, TrainConfig(batch=4, context=256))
    nodes = graph._nodes
    ops = Counter(vjp.__qualname__.split(".")[0] for _, _, vjp in nodes)
    assert len(nodes) == 59
    assert ops["linear"] == 14 and ops["weighted_sum"] == 6
    assert ops["glu"] == 1 and ops["swiglu"] == 2 and ops["router_scores"] == 2
    assert ops["matmul"] == ops["mul"] == ops["silu"] == ops["dispatch_rows"] == 0
    assert ops["transpose"] == ops["row_scale"] == 0
    assert ops["sigmoid"] == ops["softmax_lastdim"] == ops["slice_cols"] == 0
    assert len(adds) == ops["add"]
    assert adds and all(b.shape in (a.shape, ()) for a, b in adds)


def test_benchmark_step_peaks_under_12_mb(tmp_path):
    # The tape keeps attention row statistics, not tile weights (17.9 MB
    # when it kept the weights), and frees each node as backward passes it.
    model, batch = benchmark_model_and_batch(tmp_path)
    config = TrainConfig(batch=4, context=256)
    optimizer = AdamW(model, config)
    tracemalloc.start()
    try:
        train_step(model, optimizer, batch, config, config.lr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 12e6, f"train_step peaked at {peak / 1e6:.2f} MB"


def test_benchmark_step_peaks_under_9_5_mb(tmp_path):
    # The tape holds node keys, not outputs, and the loss is built one head
    # at a time, so no projection, prediction, Huber table or target table
    # outlives the op that reads it (11.0 MB when the tape held outputs).
    model, batch = benchmark_model_and_batch(tmp_path)
    config = TrainConfig(batch=4, context=256)
    optimizer = AdamW(model, config)
    tracemalloc.start()
    try:
        train_step(model, optimizer, batch, config, config.lr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 9.5e6, f"train_step peaked at {peak / 1e6:.2f} MB"


def test_benchmark_step_peaks_under_7_mb(tmp_path):
    # swiglu gathers its own rows and keeps only each group's sigmoid, and
    # the embedding is one glu that keeps only its sigmoid (8.9 MB when the
    # tape kept the routed-row copy and every group's pre and up).
    model, batch = benchmark_model_and_batch(tmp_path)
    config = TrainConfig(batch=4, context=256)
    optimizer = AdamW(model, config)
    tracemalloc.start()
    try:
        train_step(model, optimizer, batch, config, config.lr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 7e6, f"train_step peaked at {peak / 1e6:.2f} MB"


def test_batch_loss_frees_every_output_no_vjp_reads_before_backward(tmp_path, monkeypatch):
    """Of a step's 14 linear outputs only those a vjp reads outlive the
    forward: each layer's value projection (attention reads it). The q, k
    and wo projections, the routers and the heads are gone, and so are the
    heads' Huber values. The embedding is one glu op, with no linear."""
    model, batch = benchmark_model_and_batch(tmp_path)
    refs = {"linear": [], "huber": []}
    for name in refs:
        def logged(*args, op=getattr(T, name), name=name):
            out = op(*args)
            refs[name].append(weakref.ref(out.data))
            return out
        monkeypatch.setattr(T, name, logged)
    with Graph() as graph:
        loss, _ = batch_loss(model, batch, TrainConfig(batch=4, context=256))
    alive = {name: [i for i, ref in enumerate(found) if ref() is not None]
             for name, found in refs.items()}
    # Calls in order: per layer q, k, v, wo, router, then the heads.
    assert [len(refs["linear"]), len(refs["huber"])] == [14, 4]
    assert alive == {"linear": [2, 7], "huber": []}
    graph.backward(loss)
    assert all(p.grad is not None for p in model.params.heads)


@pytest.mark.parametrize("alpha", [0.0, 0.02])
def test_batch_loss_gradients_match_reference_graph_bitwise(tmp_path, alpha):
    """The tape of node keys gives the loss and every parameter gradient bit
    for bit what the tape that held every output, keyed by id(), gives."""
    model, batch = benchmark_model_and_batch(tmp_path)
    config = TrainConfig(batch=4, context=256, alpha=alpha)
    runs = []
    for graph_type in (ReferenceGraph, Graph):
        model.zero_grad()
        with graph_type() as graph:
            loss, _ = batch_loss(model, batch, config)
        graph.backward(loss)
        runs.append((loss.data.tobytes(),
                     [(name, p.grad.tobytes()) for name, p, _ in model.named_parameters()
                      if p.grad is not None]))
    (want_loss, want), (got_loss, got) = runs
    assert got_loss == want_loss
    assert len(got) == len(want) > 40
    for (name, a), (_, b) in zip(got, want):
        assert a == b, name


def test_backward_peak_stays_within_the_forward_peak(tmp_path):
    # Backward frees what each vjp saved as it goes, so it never lifts a
    # step's memory above what the forward already reached.
    model, batch = benchmark_model_and_batch(tmp_path)
    tracemalloc.start()
    try:
        with Graph() as graph:
            loss, _ = batch_loss(model, batch, TrainConfig(batch=4, context=256))
        _, forward_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        graph.backward(loss)
        _, backward_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(graph) == 0
    assert backward_peak <= forward_peak, \
        f"backward peak {backward_peak / 1e6:.2f} MB, forward peak {forward_peak / 1e6:.2f} MB"


def test_resume_matches_uninterrupted(tmp_path):
    cfg2 = toy_train(steps=2, seed=11)
    store = tone_store(tmp_path / "s")

    straight = Forecaster.init(toy_config(), seed=7)
    train_loop(straight, store, cfg2)

    resumed = Forecaster.init(toy_config(), seed=7)
    opt = AdamW(resumed, cfg2)
    train_loop(resumed, store, TrainConfig(**{**cfg2.to_dict(), "steps": 1}), optimizer=opt)
    ckpt = tmp_path / "mid.ckpt"
    save_checkpoint(ckpt, resumed, opt, step=1)

    restored, opt_state, step = load_checkpoint(ckpt)
    assert step == 1
    opt2 = AdamW(restored, cfg2)
    opt2.load_state_dict(opt_state)
    train_loop(restored, store, cfg2, optimizer=opt2, start_step=step)

    for (name, a, _), (_, b, _) in zip(straight.named_parameters(), restored.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes(), f"divergence in {name}"


def test_seed_changes_trajectory(tmp_path):
    store = tone_store(tmp_path / "s")
    a = Forecaster.init(toy_config(), seed=8)
    b = Forecaster.init(toy_config(), seed=8)
    train_loop(a, store, toy_train(steps=2, seed=1))
    train_loop(b, store, toy_train(steps=2, seed=2))
    assert any(x.data.tobytes() != y.data.tobytes()
               for x, y in zip(a.parameters(), b.parameters()))


def test_loss_decreases_on_learnable_sinusoid(tmp_path):
    cfg = ModelConfig(num_layers=1, num_heads=2, num_experts=2, top_k=1, d_model=16,
                      d_ff=32, d_expert=16, head_horizons=(1, 4, 16), max_context=256)
    model = Forecaster.init(cfg, seed=9)
    store = build_tone_store(tmp_path, np.random.default_rng(10), num_sequences=6,
                             length=512, periods=(8,))
    tcfg = TrainConfig(steps=200, batch=4, context=64, lr=1.5e-2, warmup_steps=10,
                       alpha=0.02, seed=3)
    metrics = train_loop(model, store, tcfg)
    first = np.mean([m["loss"] for m in metrics[:10]])
    last = np.mean([m["loss"] for m in metrics[-10:]])
    assert last < 0.5 * first, f"no learning: {first:.4f} -> {last:.4f}"


# --- checkpoints ---------------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    model = Forecaster.init(toy_config(), seed=12)
    opt = AdamW(model, toy_train())
    for _, tensor, _ in opt.slots:
        tensor.grad = np.ones_like(tensor.data)
    opt.step(lr=1e-3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model, opt, step=41)
    restored, opt_state, step = load_checkpoint(path)
    assert step == 41
    assert restored.config == model.config
    for (name, a, _), (_, b, _) in zip(model.named_parameters(), restored.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes(), name
    assert opt_state["t"] == 1
    for name in opt.m:
        assert opt_state["m"][name].tobytes() == opt.m[name].tobytes()
        assert opt_state["v"][name].tobytes() == opt.v[name].tobytes()


def test_checkpoint_config_block_and_model_hash_are_golden(tmp_path):
    """The checkpoint's JSON config block and model_hash of the default model,
    pinned as literals: field order and JSON arrays for tuples must not move."""
    model = Forecaster.init(ModelConfig(), seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)
    raw = path.read_bytes()
    length = int.from_bytes(raw[8:12], "little")
    assert raw[12:12 + length].decode("utf-8") == (
        '{"num_layers": 2, "num_heads": 2, "num_experts": 4, "top_k": 2, "d_model": 32, '
        '"d_ff": 128, "d_expert": 32, "head_horizons": [1, 8, 32, 64], "max_context": 4096, '
        '"rope_base": 10000.0, "use_moe": true}')
    assert model_hash(model) == "55899565a9a5874b"


def test_checkpoint_load_draws_no_random_init(tmp_path, monkeypatch):
    model = Forecaster.init(toy_config(), seed=17)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, model)

    def no_draws(*args, **kwargs):
        raise AssertionError("load_checkpoint drew a random initialisation")

    monkeypatch.setattr(model_module, "trunc_normal", no_draws)
    restored, _, _ = load_checkpoint(path)
    for (name, a, _), (_, b, _) in zip(model.named_parameters(), restored.named_parameters()):
        assert a.data.tobytes() == b.data.tobytes(), name
        assert b.data.dtype == np.float32 and b.data.flags.writeable, name


def test_checkpoint_without_optimizer(tmp_path):
    model = Forecaster.init(toy_config(), seed=13)
    path = tmp_path / "bare.ckpt"
    save_checkpoint(path, model)
    _, opt_state, step = load_checkpoint(path)
    assert opt_state is None and step == 0


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_truncated_checkpoint_is_checkpoint_error_at_every_offset(tmp_path):
    model = Forecaster.init(toy_config(num_experts=1, top_k=1, d_model=4, d_expert=2,
                                       head_horizons=(1, 2)), seed=16)
    opt = AdamW(model, toy_train())
    path = tmp_path / "small.ckpt"
    save_checkpoint(path, model, opt, step=3)
    blob = path.read_bytes()
    cut = tmp_path / "cut.ckpt"
    for offset in range(len(blob)):
        cut.write_bytes(blob[:offset])
        with pytest.raises(CheckpointError):
            load_checkpoint(cut)
    cut.write_bytes(blob)
    assert load_checkpoint(cut)[2] == 3


def test_flipped_checkpoint_byte_is_checkpoint_error_at_every_offset(tmp_path):
    # A CRC32 follows every block and each declared length is checked
    # against the bytes left before it is read, so no flip loads with
    # changed weights or ends in a MemoryError or a decode error.
    model = Forecaster.init(toy_config(num_experts=1, top_k=1, d_model=4, d_expert=2,
                                       head_horizons=(1, 2)), seed=16)
    opt = AdamW(model, toy_train())
    path = tmp_path / "small.ckpt"
    save_checkpoint(path, model, opt, step=3)
    blob = path.read_bytes()
    bad = tmp_path / "flipped.ckpt"
    for offset in range(len(blob)):
        flipped = bytearray(blob)
        flipped[offset] ^= 1 << offset % 8  # every bit position, over the offsets
        bad.write_bytes(flipped)
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)
    bad.write_bytes(blob + b"\x00")
    with pytest.raises(CheckpointError, match="unexpected bytes"):
        load_checkpoint(bad)


def test_version_1_checkpoint_is_unsupported(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, Forecaster.init(toy_config(), seed=19))
    blob = path.read_bytes()
    path.write_bytes(blob[:4] + (1).to_bytes(4, "little") + blob[8:])
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 1"):
        load_checkpoint(path)


def test_failed_save_keeps_the_old_checkpoint(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, Forecaster.init(toy_config(), seed=18), step=5)
    before = path.read_bytes()
    real_write_block = train_module._write_block
    calls = []

    def failing_write_block(f, name, arr):
        calls.append(name)
        if len(calls) == 4:
            raise OSError("disk full")
        real_write_block(f, name, arr)

    monkeypatch.setattr(train_module, "_write_block", failing_write_block)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(path, Forecaster.init(toy_config(), seed=19), step=9)
    assert path.read_bytes() == before
    assert load_checkpoint(path)[2] == 5
    assert sorted(p.name for p in tmp_path.iterdir()) == ["model.ckpt"]


def test_checkpoint_rejects_float64_model(tmp_path):
    model = Forecaster.init(toy_config(), seed=14, dtype=np.float64)
    with pytest.raises(CheckpointError):
        save_checkpoint(tmp_path / "x.ckpt", model)


def test_optimizer_state_mismatch_rejected(tmp_path):
    model = Forecaster.init(toy_config(), seed=15)
    opt = AdamW(model, toy_train())
    other = Forecaster.init(toy_config(num_experts=3), seed=15)
    opt_other = AdamW(other, toy_train())
    with pytest.raises(CheckpointError):
        opt_other.load_state_dict(opt.state_dict())


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(delta=0.0)
    with pytest.raises(ValueError):
        TrainConfig(beta1=1.0)
    cfg = TrainConfig()
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
