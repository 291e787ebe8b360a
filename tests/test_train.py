"""Losses, optimizer, schedule, training loop, and checkpoints."""

import copy
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import weakref
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import (
    ReferenceGraph,
    benchmark_model_and_batch,
    check_against_fd,
    corruption_cases,
    max_rel_err,
    reference_batch_loss,
    reference_head_targets,
    reference_moe_forward,
    reference_optimizer_step,
    scalar_huber,
)
import sparsecast
from sparsecast import model as model_module
from sparsecast import tensor as T
from sparsecast import train as train_module
from sparsecast.data import CleanSeries, PackedBatch, SequenceStore, sample_batch
from sparsecast.evaluate import model_hash
from sparsecast.model import ConfigError, Forecaster, ForwardResult, ModelConfig, segment_bounds
from sparsecast.synthetic import build_tone_store, multi_tone
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
    assert scalar_huber(1.0, 1.0) == 0.0
    assert scalar_huber(1.0, 0.5, delta=1.0) == pytest.approx(0.125)
    assert scalar_huber(3.0, 1.0, delta=1.0) == pytest.approx(1.5)


def test_huber_continuous_and_smooth_at_knee():
    delta = 1.0
    eps = 1e-7
    below = scalar_huber(delta - eps, 0.0, delta)
    above = scalar_huber(delta + eps, 0.0, delta)
    assert abs(above - below) < 1e-6
    # first derivative from both sides of the knee
    h = 1e-6
    def slope(x):
        return (scalar_huber(x + h, 0.0, delta) - scalar_huber(x - h, 0.0, delta)) / (2 * h)
    d_below, d_above = slope(delta - eps), slope(delta + eps)
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


def optimizer_state(optimizer: AdamW) -> list:
    """Every bit a step may move: t, and per slot the parameter, its
    gradient and both moments."""
    return [optimizer.t] + [
        (name, tensor.data.tobytes(), None if tensor.grad is None else tensor.grad.tobytes(),
         optimizer.m[name].tobytes(), optimizer.v[name].tobytes())
        for name, tensor, _ in optimizer.slots]


@pytest.mark.parametrize("grad_clip", [None, 0.05, 10.0])
def test_adamw_step_matches_clip_then_step_oracle(tmp_path, grad_clip):
    # The benchmark model's first gradients norm about 0.2, so a clip of
    # 0.05 binds on every step and one of 10 on none.
    model, batch = benchmark_model_and_batch(tmp_path)
    oracle = copy.deepcopy(model)
    config = TrainConfig(batch=4, context=256, grad_clip=grad_clip)
    opt, ref = AdamW(model, config), AdamW(oracle, config)
    clipped = []
    for step in range(3):
        model.zero_grad()
        with Graph() as graph:
            loss, _ = batch_loss(model, batch, config)
        graph.backward(loss)
        for i, ((_, a, _), (_, b, _)) in enumerate(zip(opt.slots, ref.slots)):
            if i % 5 == step:  # some tensors have no gradient
                a.grad = None
            b.grad = None if a.grad is None else a.grad.copy()
        norm = opt.step(1e-3)
        assert norm == reference_optimizer_step(oracle, ref, 1e-3)
        assert optimizer_state(opt) == optimizer_state(ref), f"step {step}"
        clipped.append(grad_clip is not None and norm > grad_clip)
    assert clipped == [grad_clip == 0.05] * 3


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("grad_clip", [None, 0.05])
def test_adamw_step_rejects_a_non_finite_gradient_before_anything_moves(tmp_path, grad_clip,
                                                                       bad):
    model, _ = benchmark_model_and_batch(tmp_path)
    oracle = copy.deepcopy(model)
    config = TrainConfig(grad_clip=grad_clip)
    opt, ref = AdamW(model, config), AdamW(oracle, config)
    rng = np.random.default_rng(5)
    for (name, a, _), (_, b, _) in zip(opt.slots, ref.slots):
        a.grad = rng.standard_normal(a.data.shape).astype(np.float32)
        if name == "layers.0.attn.wk":
            a.grad[1, 2] = bad
        elif name == "layers.1.attn.wq":  # a later one: the first bad tensor is named
            a.grad[0, 0] = bad
        b.grad = a.grad.copy()
    before = optimizer_state(opt)
    for step in (lambda: opt.step(1e-3), lambda: reference_optimizer_step(oracle, ref, 1e-3)):
        with pytest.raises(TrainingError, match="non-finite gradient in layers.0.attn.wk;"), \
                np.errstate(invalid="ignore"):
            step()
    assert optimizer_state(opt) == before
    # The oracle clips before its check, so an Inf under a clip leaves NaN
    # gradients behind in it; its t, parameters and moments stay put.
    def without_grads(state):
        return [state[0]] + [(name, p, m, v) for name, p, _, m, v in state[1:]]
    assert without_grads(optimizer_state(ref)) == without_grads(before)


@pytest.mark.parametrize("grad_clip", [None, 0.05])
def test_adamw_step_accepts_float64_gradients_whose_squares_overflow(grad_clip):
    # Every gradient is finite but the sum of squares is not: the norm reads
    # inf, and a set clip scales the gradients by 0.
    model = Forecaster.init(toy_config(), seed=3, dtype=np.float64)
    oracle = copy.deepcopy(model)
    config = toy_train(grad_clip=grad_clip)
    opt, ref = AdamW(model, config), AdamW(oracle, config)
    rng = np.random.default_rng(4)
    for (_, a, _), (_, b, _) in zip(opt.slots, ref.slots):
        a.grad = rng.standard_normal(a.data.shape) * 1e200
        b.grad = a.grad.copy()
    with np.errstate(over="ignore"):
        assert opt.step(1e-3) == reference_optimizer_step(oracle, ref, 1e-3) == math.inf
    assert opt.t == 1
    assert optimizer_state(opt) == optimizer_state(ref)


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
                       pad_mask=np.zeros((1, length), dtype=bool) if pad is None else pad[None])


class FixedPredictions:
    """A stand-in model whose heads give chosen predictions and which routes
    nothing, so batch_loss scores exactly those predictions: hidden holds
    them side by side, and head j's weight copies its own columns."""

    def __init__(self, config, head_outputs):
        self.config = config
        self.hidden = Tensor(np.concatenate([p.data for p in head_outputs], axis=1))
        eye = np.eye(self.hidden.shape[1], dtype=self.hidden.dtype)
        ends = np.cumsum([p.shape[1] for p in head_outputs])[:-1]
        self.params = SimpleNamespace(heads=[Tensor(w) for w in np.split(eye, ends)])

    def forward(self, values, seq_ids=None):
        return ForwardResult(hidden=self.hidden, routing=[], heads=self.params.heads)


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
    manual = np.mean([scalar_huber(float(t), float(p)) for t, p, v
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
    return PackedBatch(tokens=tokens, seq_ids=seq_ids, pad_mask=pad_mask)


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


def test_step_tape_per_op_counts_at_benchmark_model(tmp_path, monkeypatch):
    """One batch_loss at the benchmark model and batch shape (4 x 256): each
    weight product outside the embedding, the experts and the heads is one
    linear node, each head's product and loss one head_loss, each balance
    layer's term one weighted_sum, the embedding one glu, each layer's router scores one router_scores and its
    routed and shared experts, their gates and their sum together one
    mixture, and no huber, matmul, mul, silu, dispatch_rows, swiglu,
    combine_rows, transpose, row_scale, sigmoid, softmax, column slice or
    bias add is recorded."""
    model, batch = benchmark_model_and_batch(tmp_path)
    # A node is (key, input refs, vjp) and holds no operand, so each add's
    # operand shapes are logged as it is called.
    add, adds = T.add, []
    monkeypatch.setattr(T, "add", lambda a, b: adds.append((a, b)) or add(a, b))
    with Graph() as graph:
        batch_loss(model, batch, TrainConfig(batch=4, context=256))
    nodes = graph._nodes
    ops = Counter(vjp.__qualname__.split(".")[0] for _, _, vjp in nodes)
    assert len(nodes) == 49
    assert ops["linear"] == 10 and ops["head_loss"] == 4 and ops["weighted_sum"] == 2
    assert ops["huber"] == 0
    assert ops["glu"] == 1 and ops["mixture"] == 2 and ops["router_scores"] == 2
    assert ops["swiglu"] == ops["combine_rows"] == 0
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


def test_benchmark_step_peaks_under_5_5_mb(tmp_path):
    # One mixture op per layer keeps only weight copies, not the experts'
    # [T (K + 1), D] output rows nor any sigmoid, and glu keeps no sigmoid:
    # the sigmoid is cheap enough to run again in the vjps (6.2 MB when
    # swiglu kept its sigmoids and combine_rows the expert outputs).
    model, batch = benchmark_model_and_batch(tmp_path)
    config = TrainConfig(batch=4, context=256)
    optimizer = AdamW(model, config)
    tracemalloc.start()
    try:
        train_step(model, optimizer, batch, config, config.lr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5.5e6, f"train_step peaked at {peak / 1e6:.2f} MB"


def test_benchmark_step_peaks_under_3_5_mb(tmp_path):
    # A recorded attention keeps only its output and row statistics, not
    # its rotated q and k nor its value projection: its vjp rebuilds them
    # from the rows the q, k and v linear nodes keep (4.4-4.7 MB when it
    # kept them). Each head's product and Huber cells run 256 rows at a
    # time in one head_loss op, and mixture's vjp walks each group in the
    # same blocks (3.9 MB when each head ran a linear, a huber and a
    # weighted_sum on whole [1024, p] tables).
    model, batch = benchmark_model_and_batch(tmp_path)
    config = TrainConfig(batch=4, context=256)
    optimizer = AdamW(model, config)
    tracemalloc.start()
    try:
        train_step(model, optimizer, batch, config, config.lr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6, f"train_step peaked at {peak / 1e6:.2f} MB"


def test_long_context_step_peaks_under_20_mb(tmp_path):
    # One 4096-point segment: each layer's attention vjp peaks over its last
    # tiles' two [heads, 64, 4096] blocks (4 MB each). It holds two blocks at
    # a time and attention keeps no q, k or v (23.8 MB when the vjp kept the
    # last tile's blocks while scoring the next and attention kept q, k and
    # v, 22.2 MB with only the blocks kept).
    model, _ = benchmark_model_and_batch(tmp_path)
    x = np.random.default_rng(3).normal(size=(1, 4096, 1)).astype(np.float32)
    batch = PackedBatch(tokens=x, seq_ids=np.zeros((1, 4096), dtype=np.int64),
                        pad_mask=np.zeros((1, 4096), dtype=bool))
    config = TrainConfig(batch=1, context=4096)
    optimizer = AdamW(model, config)
    tracemalloc.start()
    try:
        train_step(model, optimizer, batch, config, config.lr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6, f"train_step peaked at {peak / 1e6:.2f} MB"


def memory_ref(a: np.ndarray) -> weakref.ref:
    """A weakref to the array that owns a's memory: a itself, or the buffer
    a is a view of. It dies exactly when nothing holds that memory, so an
    output that is a view of a buffer something still holds reads as alive,
    where a weakref to the view itself would read as freed."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    assert a.flags.owndata
    return weakref.ref(a)


def test_memory_ref_sees_a_view_of_a_buffer_the_tape_holds():
    def doubled_view(x):
        """2 x, returned as a view of a wider buffer that the vjp reads."""
        buf = np.zeros((x.shape[0], x.shape[1] + 1), dtype=x.data.dtype)
        buf[:, :-1] = 2 * x.data

        def vjp(g):
            return (g * (buf[:, :-1] / x.data),)

        return T._finish("doubled_view", buf[:, :-1], (x,), vjp)

    x = Tensor(np.arange(1.0, 7.0).reshape(2, 3), requires_grad=True)
    with Graph() as graph:
        out = doubled_view(x)
        view, owner = weakref.ref(out.data), memory_ref(out.data)
        loss = T.weighted_sum(out, np.ones((2, 3)))
        del out
    assert view() is None and owner() is not None
    graph.backward(loss)
    assert owner() is None
    np.testing.assert_array_equal(x.grad, np.full((2, 3), 2.0))


def test_batch_loss_frees_every_output_no_vjp_reads_before_backward(tmp_path, monkeypatch):
    """No linear or rope output outlives the forward: attention rebuilds
    its rotated q and k and its value projection in its vjp from the rows
    the q, k and v linear nodes keep, so none of the 10 linear outputs (q,
    k, v, wo and router per layer) and none of the 4 rope outputs is held.
    The embedding is one glu op, and each head one head_loss op, with no
    linear. An output counts as alive while anything holds its memory
    (memory_ref)."""
    model, batch = benchmark_model_and_batch(tmp_path)
    refs = {"linear": [], "rope": []}
    for name in refs:
        def logged(*args, op=getattr(T, name), name=name):
            out = op(*args)
            refs[name].append(memory_ref(out.data))
            return out
        monkeypatch.setattr(T, name, logged)
    with Graph() as graph:
        loss, _ = batch_loss(model, batch, TrainConfig(batch=4, context=256))
    alive = {name: [i for i, ref in enumerate(found) if ref() is not None]
             for name, found in refs.items()}
    # Calls in order: per layer q, k, v, wo, router.
    assert [len(refs["linear"]), len(refs["rope"])] == [10, 4]
    assert alive == {"linear": [], "rope": []}
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


def test_training_bits_do_not_depend_on_blas_thread_count(tmp_path):
    """Six benchmark-model steps at 4 x 256 on a store of six 768-point
    series end with the same parameter bytes at one and at two BLAS
    threads. A weight gradient contracts over token rows, and whole,
    OpenBLAS rounds such a contraction by its thread count at most lengths
    from 977 rows on, which expert groups reach; the product rule sums it
    over 256-row blocks. The thread count is read when numpy loads, hence
    the subprocesses."""
    code = ("import hashlib, sys\n"
            "import numpy as np\n"
            "from sparsecast.model import Forecaster, ModelConfig\n"
            "from sparsecast.synthetic import build_regime_store\n"
            "from sparsecast.train import TrainConfig, train_loop\n"
            "store = build_regime_store(sys.argv[1], np.random.default_rng(1), per_regime=2)\n"
            "model = Forecaster.init(ModelConfig(d_model=32, num_layers=2, num_heads=4, "
            "num_experts=4, top_k=2, d_expert=32, head_horizons=(1, 8, 32, 64)), seed=0)\n"
            "train_loop(model, store, TrainConfig(steps=6, batch=4, context=256, seed=0))\n"
            "print(hashlib.sha256(model.param_bytes()).hexdigest())\n")
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads,
               "PYTHONPATH": str(Path(sparsecast.__file__).resolve().parent.parent)}
        proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / threads)],
                              capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.strip())
    assert digests[0] == digests[1]


def test_checkpoint_bytes_are_golden(tmp_path):
    """Whole checkpoint files of the default model, pinned by SHA-256: bare,
    and with AdamW state after one step on seeded gradients. Format version
    2 must not move by a byte."""
    model = Forecaster.init(ModelConfig(), seed=0)
    save_checkpoint(tmp_path / "bare.ckpt", model)
    opt = AdamW(model, TrainConfig())
    rng = np.random.default_rng(0)
    for _, tensor, _ in opt.slots:
        tensor.grad = rng.standard_normal(tensor.data.shape).astype(np.float32)
    opt.step(lr=1e-3)
    save_checkpoint(tmp_path / "adam.ckpt", model, opt, step=1)
    digests = {name: hashlib.sha256((tmp_path / f"{name}.ckpt").read_bytes()).hexdigest()
               for name in ("bare", "adam")}
    assert digests == {
        "bare": "4166692504d227fc43f24e269ee1c008b8c643a836cc7067e68ef5c11829f475",
        "adam": "2a74e2d59328217e27ec0ddc7366f3613a5773304bd194ecf2eead63f5b94758",
    }


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


def test_checkpoint_corruption_sweep_is_a_checkpoint_error_in_every_case(tmp_path):
    # The store's sweep, on the smallest model: every byte XORed by 0xff and
    # every cut. A CRC32 guards every block, so no case may load.
    model = Forecaster.init(toy_config(num_heads=1, num_experts=1, d_model=2, d_ff=2,
                                       d_expert=1, head_horizons=(1,), max_context=8), seed=16)
    path = tmp_path / "tiny.ckpt"
    save_checkpoint(path, model, AdamW(model, toy_train()), step=3)
    bad = tmp_path / "bad.ckpt"
    for label, raw in corruption_cases(path, masks=(0xFF,)):
        bad.write_bytes(raw)
        with pytest.raises(CheckpointError):
            load_checkpoint(bad)
            pytest.fail(f"{label} loaded")


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


def test_optimizer_state_with_a_misshapen_moment_is_rejected_whole(tmp_path):
    # The writer stores what it is given; the check belongs to the load.
    model = Forecaster.init(toy_config(), seed=15)
    opt = AdamW(model, toy_train())
    opt.t = 4
    opt.m["layers.0.attn.wq"] = np.zeros(3, dtype=np.float32)
    path = tmp_path / "bad.ckpt"
    save_checkpoint(path, model, opt, step=4)
    restored, opt_state, _ = load_checkpoint(path)
    fresh = AdamW(restored, toy_train())
    before = optimizer_state(fresh)
    with pytest.raises(CheckpointError, match=r"m\.layers\.0\.attn\.wq: \(3,\)"):
        fresh.load_state_dict(opt_state)
    assert optimizer_state(fresh) == before


def test_optimizer_state_with_other_v_names_is_rejected_whole():
    model = Forecaster.init(toy_config(), seed=15)
    opt = AdamW(model, toy_train())
    state = opt.state_dict()
    state["t"] = 4
    state["v"] = {f"x{name}": v for name, v in state["v"].items()}
    fresh = AdamW(Forecaster.init(toy_config(), seed=15), toy_train())
    before = optimizer_state(fresh)
    with pytest.raises(CheckpointError, match="optimizer state v does not match"):
        fresh.load_state_dict(state)
    assert optimizer_state(fresh) == before


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(alpha=-0.1)
    with pytest.raises(ValueError):
        TrainConfig(delta=0.0)
    with pytest.raises(ValueError):
        TrainConfig(beta1=1.0)
    # A negative clip scales every gradient by -clip / norm: Adam would ascend.
    for bad in (dict(grad_clip=-1.0), dict(grad_clip=0.0), dict(grad_clip=float("nan")),
                dict(lr=-1e-3), dict(lr=float("nan")), dict(weight_decay=-0.5),
                dict(warmup_steps=-3), dict(checkpoint_interval=0),
                dict(checkpoint_interval=-2)):
        with pytest.raises(ValueError):
            TrainConfig(**bad)
    TrainConfig(grad_clip=1e-9, lr=0.0, weight_decay=0.0, warmup_steps=0, checkpoint_interval=1)
    # A NaN delta failed at the first step; a NaN alpha trained with no
    # balance loss, and an infinite one passed too.
    # An infinite lr or weight decay filled every parameter with NaN in the
    # first step.
    for bad in (dict(delta=math.nan), dict(alpha=math.nan), dict(alpha=math.inf),
                dict(lr=math.inf), dict(weight_decay=math.inf)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            TrainConfig.from_dict(bad)
    cfg = TrainConfig()
    assert TrainConfig.from_dict(cfg.to_dict()) == cfg
