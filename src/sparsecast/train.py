"""Training: the multi-horizon loss, AdamW, warmup-cosine schedule, the
step loop over packed batches, and binary checkpoints.

batch_loss is the one loss. It runs the whole batch as one packed row (one
forward, one target table per head) and averages a masked robust (Huber)
term per forecast head — over all valid anchor positions and over the
head's horizon elements, so long heads are not overweighted — then averages
across heads and adds alpha times the expert-balance penalty, itself
averaged over mixture layers. An anchor is valid for a head of horizon p when the p
following tokens exist, stay inside the anchor's packed sequence, and are
not padding.

Checkpoints are a seekable little-endian binary format: magic "TMOE",
a version word, the JSON-encoded model configuration, the training step,
named float32 parameter tensors, and optionally the optimizer moments.
"""

from __future__ import annotations

import json
import math
import struct
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import PackedBatch, SequenceStore, sample_batch
from .model import ConfigCodec, ConfigError, Forecaster, ModelConfig, init_params, segment_bounds
from .tensor import Graph, Tensor

CHECKPOINT_MAGIC = b"TMOE"
CHECKPOINT_VERSION = 1
ADAM_EPS = 1e-8


class TrainingError(RuntimeError):
    """A training step could not proceed (non-finite gradients, empty batch)."""


class CheckpointError(RuntimeError):
    """Checkpoint file is unreadable or incompatible with the model."""


@dataclass
class TrainConfig(ConfigCodec):
    steps: int = 1000
    batch: int = 8
    context: int = 256
    lr: float = 1e-3
    weight_decay: float = 0.1
    beta1: float = 0.9
    beta2: float = 0.95
    warmup_steps: int = 10000
    alpha: float = 0.02
    delta: float = 1.0
    seed: int = 0
    grad_clip: float | None = None
    checkpoint_interval: int | None = None

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.delta <= 0:
            raise ValueError("delta must be > 0")
        for b in (self.beta1, self.beta2):
            if not 0 < b < 1:
                raise ValueError("betas must lie in (0, 1)")
        if self.steps < 1 or self.batch < 1 or self.context < 2:
            raise ValueError("steps and batch must be >= 1, context >= 2")


# --- loss pieces -----------------------------------------------------------------


def huber(x: float, x_hat: float, delta: float = 1.0) -> float:
    """Scalar robust loss: quadratic inside |r| <= delta, linear outside."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    r = abs(x - x_hat)
    return 0.5 * r * r if r <= delta else delta * (r - 0.5 * delta)


def aux_loss(f: np.ndarray, r: np.ndarray) -> float:
    """Expert-balance penalty N * sum_i f_i r_i; 1.0 at perfectly uniform routing."""
    f = np.asarray(f, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    if f.shape != r.shape:
        raise ValueError(f"f and r must align, got {f.shape} vs {r.shape}")
    return float(len(f) * np.sum(f * r))


def lr_at_step(step: int, warmup: int, total_steps: int, peak_lr: float) -> float:
    """Linear warmup to peak_lr, then cosine decay to zero at total_steps."""
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if warmup > 0 and step < warmup:
        return peak_lr * step / warmup
    span = max(total_steps - warmup, 1)
    progress = (step - warmup) / span
    return max(0.0, peak_lr * 0.5 * (1.0 + math.cos(math.pi * progress)))


def _check_horizon(context: int, horizon: int) -> None:
    if horizon > context:
        raise ConfigError(f"training context {context} is shorter than head horizon {horizon}; "
                          f"use a context of at least {horizon}")


def head_targets(tokens: np.ndarray, seq_ids: np.ndarray, pad_mask: np.ndarray,
                 horizon: int) -> tuple:
    """(targets [L, p], valid [L]) for one packed row and one head horizon.

    A row shorter than the horizon cannot hold one target window: ConfigError.
    """
    length = len(tokens)
    _check_horizon(length, horizon)
    bounds = segment_bounds(seq_ids)
    run_end = np.repeat(bounds[1:], np.diff(bounds))
    remaining = run_end - np.arange(length)
    valid = (~pad_mask) & (remaining > horizon)
    # Row t holds tokens t+1 .. t+horizon; the last `horizon` rows run off the
    # row, so they are never valid and stay zero.
    targets = np.zeros((length, horizon), dtype=tokens.dtype)
    if horizon < length:
        targets[:length - horizon] = np.lib.stride_tricks.sliding_window_view(tokens[1:], horizon)
    targets[~valid] = 0.0
    return targets, valid


def masked_head_loss(pred: Tensor, targets: np.ndarray, valid: np.ndarray,
                     delta: float) -> tuple:
    """(sum of Huber over valid cells as a tensor, number of valid cells)."""
    horizon = pred.shape[1]
    cells = valid[:, None] & np.ones((1, horizon), dtype=bool)
    elementwise = T.huber(pred, T.constant(targets, pred.dtype), delta)
    masked = T.mul(elementwise, T.constant(cells.astype(pred.data.dtype), pred.dtype))
    return T.sum_all(masked), int(cells.sum())


def balance_loss_tensor(routings: list) -> tuple:
    """Differentiable balance penalty averaged over mixture layers, one
    RouterOutput per layer.

    Gradients flow through the mean routing scores r; the selection fractions
    f enter as constants (the selection itself is not differentiable).
    Returns (tensor, f averaged over layers).
    """
    terms = []
    for routing in routings:
        scores = routing.scores
        total, n = scores.shape
        ones = T.constant(np.full((1, total), 1.0 / total), scores.dtype)
        r_mean = T.matmul(ones, scores)  # [1, N]
        weighted = T.mul(r_mean, T.constant(routing.f[None, :], scores.dtype))
        terms.append(T.mul(T.sum_all(weighted), float(n)))
    acc = terms[0]
    for term in terms[1:]:
        acc = T.add(acc, term)
    mean_f = np.mean(np.stack([routing.f for routing in routings]), axis=0)
    return T.mul(acc, 1.0 / len(terms)), mean_f


def flat_batch(batch: PackedBatch) -> tuple:
    """(tokens [B*L], seq_ids [B*L], pad_mask [B*L]): the batch rows laid end
    to end as one packed row. Each row's ids are shifted into a range of
    their own, so a row end is always a segment bound and no sequence spans
    two rows."""
    ids = batch.seq_ids - batch.seq_ids.min()
    ids = ids + (int(ids.max()) + 1) * np.arange(batch.rows)[:, None]
    return batch.tokens[:, :, 0].reshape(-1), ids.reshape(-1), batch.pad_mask.reshape(-1)


def batch_loss(model: Forecaster, batch: PackedBatch, config: TrainConfig) -> tuple:
    """Forward the batch as one packed row and combine into one scalar loss.

    The B rows are laid end to end (flat_batch), so one forward serves the
    batch, and each head takes one target table and one masked Huber sum
    over it; since a row end is a segment bound, the targets and valid
    cells are those of the rows taken one by one. Every valid position in
    the batch carries equal weight. A head with no valid cell in the batch
    drops out of the head average; when every head is empty the batch is
    degenerate and raises TrainingError. A batch row shorter than the
    largest horizon raises ConfigError. Returns (loss tensor, info dict of
    float diagnostics).
    """
    horizons = model.config.head_horizons
    _check_horizon(batch.length, horizons[-1])
    tokens, seq_ids, pad_mask = flat_batch(batch)
    result = model.forward(tokens, seq_ids=seq_ids)
    parts = []
    for j, horizon in enumerate(horizons):
        targets, valid = head_targets(tokens, seq_ids, pad_mask, horizon)
        if not valid.any():
            continue
        head_sum, count = masked_head_loss(result.head_outputs[j], targets, valid, config.delta)
        parts.append(T.mul(head_sum, 1.0 / count))
    if not parts:
        raise TrainingError("degenerate batch: every position is masked for every head")
    acc = parts[0]
    for part in parts[1:]:
        acc = T.add(acc, part)
    loss_ar = T.mul(acc, 1.0 / len(parts))

    info = {"loss_ar": float(loss_ar.data)}
    loss = loss_ar
    if model.config.use_moe and result.routing:
        balance, mean_f = balance_loss_tensor(result.routing)
        info["loss_aux"] = float(balance.data)
        info["f_min"] = float(mean_f.min())
        info["f_max"] = float(mean_f.max())
        if config.alpha > 0:
            loss = T.add(loss_ar, T.mul(balance, config.alpha))
    else:
        info["loss_aux"] = 0.0
        info["f_min"] = None
        info["f_max"] = None
    info["loss"] = float(loss.data)
    return loss, info


# --- optimizer -------------------------------------------------------------------


class AdamW:
    """Bias-corrected Adam with decoupled weight decay.

    Decay touches weight matrices only — norm gains and attention biases are
    exempt. A step with any non-finite gradient is rejected whole.
    """

    def __init__(self, model: Forecaster, config: TrainConfig):
        self.config = config
        self.slots = [(name, tensor, decays) for name, tensor, decays in model.named_parameters()]
        self.m = {name: np.zeros_like(t.data) for name, t, _ in self.slots}
        self.v = {name: np.zeros_like(t.data) for name, t, _ in self.slots}
        self.t = 0

    def step(self, lr: float) -> None:
        cfg = self.config
        for name, tensor, _ in self.slots:
            if tensor.grad is None:
                continue
            if not np.all(np.isfinite(tensor.grad)):
                raise TrainingError(f"non-finite gradient in {name}; step rejected")
        self.t += 1
        b1, b2 = cfg.beta1, cfg.beta2
        correction1 = 1.0 - b1 ** self.t
        correction2 = 1.0 - b2 ** self.t
        for name, tensor, decays in self.slots:
            g = tensor.grad
            if g is None:
                g = np.zeros_like(tensor.data)
            g = g.astype(tensor.data.dtype, copy=False)
            m = self.m[name]
            v = self.v[name]
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            update = (m / correction1) / (np.sqrt(v / correction2) + ADAM_EPS)
            tensor.data -= lr * update
            if decays and cfg.weight_decay:
                tensor.data -= lr * cfg.weight_decay * tensor.data

    def zero_grad(self) -> None:
        for _, tensor, _ in self.slots:
            tensor.grad = None

    def state_dict(self) -> dict:
        return {"t": self.t, "m": dict(self.m), "v": dict(self.v)}

    def load_state_dict(self, state: dict) -> None:
        if set(state["m"]) != set(self.m):
            raise CheckpointError("optimizer state does not match model parameters")
        self.t = int(state["t"])
        for name in self.m:
            self.m[name] = state["m"][name].copy()
            self.v[name] = state["v"][name].copy()


def clip_global_norm(model: Forecaster, max_norm: float) -> float:
    total = 0.0
    for p in model.parameters():
        if p.grad is not None:
            total += float((p.grad.astype(np.float64) ** 2).sum())
    norm = math.sqrt(total)
    if norm > max_norm and norm > 0:
        scale = max_norm / norm
        for p in model.parameters():
            if p.grad is not None:
                p.grad = p.grad * scale
    return norm


# --- the loop --------------------------------------------------------------------


def train_loop(model: Forecaster, store: SequenceStore, config: TrainConfig,
               domain_weights: dict | None = None, optimizer: AdamW | None = None,
               start_step: int = 0, log_path=None, checkpoint_path=None) -> list:
    """Run config.steps optimization steps; returns one metrics record per step.

    Batches are drawn from a per-step generator seeded by (seed, step), so a
    resumed run replays exactly the stream an uninterrupted run would see.
    Besides the losses and routing fractions, a record holds the step's wall
    time (seconds, from sampling through the optimizer step), the batch
    tokens per second over it, and tape_nodes, the ops the forward and loss
    recorded for backward.
    """
    optimizer = optimizer or AdamW(model, config)
    metrics: list[dict] = []
    log_handle = open(log_path, "a") if log_path else None
    try:
        for step in range(start_step, config.steps):
            began = time.perf_counter()
            rng = np.random.default_rng([config.seed, step])
            batch = sample_batch(store, rng, config.batch, config.context, domain_weights)
            optimizer.zero_grad()
            with Graph() as graph:
                loss, info = batch_loss(model, batch, config)
            tape_nodes = len(graph)
            graph.backward(loss)
            if config.grad_clip is not None:
                clip_global_norm(model, config.grad_clip)
            lr = lr_at_step(step + 1, config.warmup_steps, config.steps + 1, config.lr)
            optimizer.step(lr)
            seconds = time.perf_counter() - began
            record = {"step": step, "lr": lr, "loss": info["loss"],
                      "loss_ar": info["loss_ar"], "loss_aux": info["loss_aux"],
                      "f_min": info["f_min"], "f_max": info["f_max"], "seconds": seconds,
                      "tokens_per_s": batch.rows * batch.length / seconds,
                      "tape_nodes": tape_nodes}
            metrics.append(record)
            if log_handle:
                log_handle.write(json.dumps(record) + "\n")
            if checkpoint_path and config.checkpoint_interval and \
                    (step + 1) % config.checkpoint_interval == 0:
                save_checkpoint(checkpoint_path, model, optimizer, step + 1)
    finally:
        if log_handle:
            log_handle.close()
    return metrics


# --- checkpoints ------------------------------------------------------------------


def _write_block(f, name: str, arr: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    f.write(struct.pack("<I", len(encoded)))
    f.write(encoded)
    f.write(struct.pack("<I", arr.ndim))
    f.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    f.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _read_exact(f, size: int, what: str) -> bytes:
    """Exactly size bytes from f, or CheckpointError naming what was cut off."""
    raw = f.read(size)
    if len(raw) != size:
        raise CheckpointError(f"truncated checkpoint ({what})")
    return raw


def _read_struct(f, fmt: str, what: str) -> tuple:
    return struct.unpack(fmt, _read_exact(f, struct.calcsize(fmt), what))


def _read_block(f) -> tuple:
    (name_len,) = _read_struct(f, "<I", "block header")
    name = _read_exact(f, name_len, "block name").decode("utf-8")
    (rank,) = _read_struct(f, "<I", f"rank of {name}")
    dims = _read_struct(f, f"<{rank}Q", f"shape of {name}")
    count = int(np.prod(dims)) if rank else 1
    payload = _read_exact(f, 4 * count, f"tensor {name}")
    return name, np.frombuffer(payload, dtype="<f4").reshape(dims).copy()


def save_checkpoint(path, model: Forecaster, optimizer: AdamW | None = None,
                    step: int = 0) -> None:
    if model.dtype != np.float32:
        raise CheckpointError("checkpoints store float32 models only")
    named = list(model.named_parameters())
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        config_doc = json.dumps(model.config.to_dict()).encode("utf-8")
        f.write(struct.pack("<I", len(config_doc)))
        f.write(config_doc)
        f.write(struct.pack("<Q", step))
        f.write(struct.pack("<I", len(named)))
        for name, tensor, _ in named:
            _write_block(f, name, tensor.data)
        f.write(struct.pack("<B", 1 if optimizer is not None else 0))
        if optimizer is not None:
            f.write(struct.pack("<Q", optimizer.t))
            f.write(struct.pack("<I", 2 * len(optimizer.m)))
            for name in sorted(optimizer.m):
                _write_block(f, f"m.{name}", optimizer.m[name])
                _write_block(f, f"v.{name}", optimizer.v[name])


def load_checkpoint(path) -> tuple:
    """Returns (model, optimizer_state or None, step); bit-exact round trip."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"no such checkpoint: {path}")
    with open(path, "rb") as f:
        if _read_exact(f, 4, "magic") != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
        (version,) = _read_struct(f, "<I", "version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (config_len,) = _read_struct(f, "<I", "config length")
        config_doc = _read_exact(f, config_len, "config")
        config = ModelConfig.from_dict(json.loads(config_doc.decode("utf-8")))
        (step,) = _read_struct(f, "<Q", "step")
        (n_params,) = _read_struct(f, "<I", "parameter count")
        tensors = dict(_read_block(f) for _ in range(n_params))
        (has_opt,) = _read_struct(f, "<B", "optimizer flag")
        opt_state = None
        if has_opt:
            (t,) = _read_struct(f, "<Q", "optimizer step")
            (n_slots,) = _read_struct(f, "<I", "optimizer slot count")
            slots = dict(_read_block(f) for _ in range(n_slots))
            opt_state = {
                "t": t,
                "m": {k[2:]: v for k, v in slots.items() if k.startswith("m.")},
                "v": {k[2:]: v for k, v in slots.items() if k.startswith("v.")},
            }
    # Placeholder tensors, no random draws: each one takes the file's array.
    model = Forecaster(config, init_params(config, rng=None))
    expected = {name for name, _, _ in model.named_parameters()}
    if set(tensors) != expected:
        raise CheckpointError("checkpoint parameters do not match the configuration")
    for name, tensor, _ in model.named_parameters():
        if tensors[name].shape != tensor.data.shape:
            raise CheckpointError(f"shape mismatch for {name}: "
                                  f"{tensors[name].shape} vs {tensor.data.shape}")
        tensor.data = tensors[name].astype(np.float32, copy=False)
    return model, opt_state, step
