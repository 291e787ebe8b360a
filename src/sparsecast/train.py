"""Training: the multi-horizon loss, AdamW, warmup-cosine schedule, the
step loop over packed batches, and binary checkpoints.

batch_loss is the one loss. It runs the whole batch as one packed row (one
forward, one target table per head) and averages a masked robust (Huber)
term per forecast head — over all valid anchor positions and over the
head's horizon elements, so long heads are not overweighted — then averages
across heads and adds alpha times the expert-balance penalty, itself
averaged over mixture layers. Every term is one op with constant weights
that hold the mask and the averaging: tensor.head_loss per head, which
runs the head itself, and tensor.weighted_sum per balance term. An anchor
is valid for a head of horizon p when the p following tokens exist, stay
inside the anchor's packed sequence, and are not padding. train_step is
the one optimization step, shared by pre-training (train_loop) and
fine-tuning. AdamW.step takes the global gradient norm in one pass over
the gradients; from that number it rejects a step with a non-finite
gradient and clips to grad_clip, and it returns it for the step record.

Checkpoints are a seekable little-endian binary format (version 2): magic
"TMOE", a version word, the JSON-encoded model configuration, the training
step and the parameter count as one header block; then one block per named
float32 parameter tensor, the optimizer flag (with its step and slot count)
and, when present, one block per optimizer moment. A CRC32 of each block's
bytes follows the block, and every declared length is checked against the
bytes left in the file before it is read, so a flipped or cut byte is a
CheckpointError.
"""

from __future__ import annotations

import json
import math
import os
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import tensor as T
from .data import PackedBatch, SequenceStore, sample_batch
from .model import ConfigCodec, ConfigError, Forecaster, ModelConfig, init_params, segment_bounds
from .tensor import Graph

CHECKPOINT_MAGIC = b"TMOE"
CHECKPOINT_VERSION = 2
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
        if not 0 <= self.alpha < math.inf:
            raise ValueError(f"alpha must be finite and >= 0, got {self.alpha}")
        if not self.delta > 0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        for b in (self.beta1, self.beta2):
            if not 0 < b < 1:
                raise ValueError("betas must lie in (0, 1)")
        if self.steps < 1 or self.batch < 1 or self.context < 2:
            raise ValueError("steps and batch must be >= 1, context >= 2")
        if not all(0 <= v < math.inf for v in (self.lr, self.weight_decay, self.warmup_steps)):
            raise ValueError("lr, weight_decay and warmup_steps must be finite and >= 0")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ValueError(f"grad_clip must be > 0 when set, got {self.grad_clip}")
        if self.checkpoint_interval is not None and self.checkpoint_interval < 1:
            raise ValueError(f"checkpoint_interval must be >= 1 when set, "
                             f"got {self.checkpoint_interval}")


# --- loss pieces -----------------------------------------------------------------


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


def _anchor_room(bounds: np.ndarray, pad_mask: np.ndarray) -> np.ndarray:
    """Per position of a packed row, how many later tokens share its segment;
    0 at padding, so an anchor is valid for horizon p where its room is at least p."""
    length = len(pad_mask)
    run_end = np.repeat(bounds[1:], np.diff(bounds))
    return np.where(pad_mask, 0, run_end - np.arange(length) - 1)


def head_targets(tokens: np.ndarray, bounds: np.ndarray, pad_mask: np.ndarray,
                 horizon: int) -> tuple:
    """(targets [L, p], valid [L]) for one packed row and one head horizon.

    bounds are the row's segment bounds [0, b_1, ..., L] (model.segment_bounds
    of its sequence ids); a target never crosses one. A row shorter than the
    horizon cannot hold one target window: ConfigError.
    """
    length = len(tokens)
    _check_horizon(length, horizon)
    valid = _anchor_room(bounds, pad_mask) >= horizon
    # Row t holds tokens t+1 .. t+horizon; the last `horizon` rows run off the
    # row, so they are never valid and stay zero.
    targets = np.zeros((length, horizon), dtype=tokens.dtype)
    if horizon < length:
        targets[:length - horizon] = np.lib.stride_tricks.sliding_window_view(tokens[1:], horizon)
    targets[~valid] = 0.0
    return targets, valid


def flat_batch(batch: PackedBatch) -> tuple:
    """(tokens [B*L], seq_ids [B*L], pad_mask [B*L]): the batch rows laid end
    to end as one packed row. Each row's ids are shifted into a range of
    their own, so a row end is always a segment bound and no sequence spans
    two rows."""
    ids = batch.seq_ids - batch.seq_ids.min()
    ids = ids + (int(ids.max()) + 1) * np.arange(batch.rows)[:, None]
    return batch.tokens[:, :, 0].reshape(-1), ids.reshape(-1), batch.pad_mask.reshape(-1)


def _head_term(hidden: T.Tensor, w: T.Tensor, tokens: np.ndarray, bounds: np.ndarray,
               pad_mask: np.ndarray, heads: int, delta: float) -> T.Tensor:
    """One head's Huber term: its cells weigh 1 / (valid anchors * horizon *
    heads) where valid and 0 elsewhere, one weight column broadcast over the
    horizon."""
    horizon = w.shape[0]
    targets, valid = head_targets(tokens, bounds, pad_mask, horizon)
    column = np.zeros((len(valid), 1), dtype=hidden.data.dtype)
    column[valid] = 1.0 / (int(valid.sum()) * horizon * heads)
    return T.head_loss(hidden, w, targets, np.broadcast_to(column, targets.shape), delta)


def batch_loss(model: Forecaster, batch: PackedBatch, config: TrainConfig) -> tuple:
    """Forward the batch as one packed row and combine into one scalar loss.

    The B rows are laid end to end (flat_batch), so one forward serves the
    batch, and each head takes one target table; since a row end is a
    segment bound, the targets and valid cells are those of the rows taken
    one by one. The forward's head outputs are never read: each head is
    one head_loss op on the final-norm rows, which runs the head's product
    and its Huber cells 256 rows at a time and keeps no prediction. Each
    term's constant weights carry its mask and averaging: a head's Huber
    cells weigh 1 / (valid anchors * horizon * heads kept) where valid and
    0 elsewhere, so every valid position in the batch carries equal weight
    and heads are averaged. A head with no valid cell in the batch drops
    out of the head average; when every head is empty the batch is
    degenerate and raises TrainingError. With alpha > 0, each mixture
    layer adds alpha times its balance penalty N * sum_i f_i *
    mean_t(scores[t, i]), averaged over layers: routed score i weighs
    alpha * N * f_i / (T * layers), the shared gate 0, and f enters as a
    constant. A batch row
    shorter than the largest horizon raises ConfigError. Returns (loss
    tensor, info dict of diagnostics: the losses, f per layer, and f_min /
    f_max of its layer mean).
    """
    horizons = model.config.head_horizons
    _check_horizon(batch.length, horizons[-1])
    tokens, seq_ids, pad_mask = flat_batch(batch)
    result = model.forward(tokens, seq_ids=seq_ids)
    hidden, layers = result.hidden, result.routing
    del result
    bounds = segment_bounds(seq_ids)
    # Horizons ascend, so the heads with a valid anchor are the first `kept`.
    room = int(_anchor_room(bounds, pad_mask).max())
    kept = sum(room >= horizon for horizon in horizons)
    if not kept:
        raise TrainingError("degenerate batch: every position is masked for every head")
    loss = None
    for w in model.params.heads[:kept]:
        term = _head_term(hidden, w, tokens, bounds, pad_mask, kept, config.delta)
        loss = term if loss is None else T.add(loss, term)

    info = {"loss_ar": float(loss.data)}
    if layers:
        info["loss_aux"] = float(np.mean([aux_loss(r.f, r.r) for r in layers]))
        info["f"] = [r.f.tolist() for r in layers]
        mean_f = np.mean([r.f for r in layers], axis=0)
        info["f_min"] = float(mean_f.min())
        info["f_max"] = float(mean_f.max())
        if config.alpha > 0:
            for routing in layers:
                scores, n = routing.scores, len(routing.f)
                scale = config.alpha * n / (scores.shape[0] * len(layers))
                # Column N, the shared expert's gate, has no part in the penalty.
                weights = np.append(scale * routing.f, 0.0).astype(scores.dtype)
                loss = T.add(loss, T.weighted_sum(scores, np.broadcast_to(weights, scores.shape)))
    else:
        info.update(loss_aux=0.0, f=None, f_min=None, f_max=None)
    info["loss"] = float(loss.data)
    return loss, info


# --- optimizer -------------------------------------------------------------------


class AdamW:
    """Bias-corrected Adam with decoupled weight decay.

    Decay touches weight matrices only — norm gains and attention biases are
    exempt. Each step takes the global gradient norm once, rejects the step
    whole when a gradient is non-finite, clips to config.grad_clip when set,
    and returns the norm.
    """

    def __init__(self, model: Forecaster, config: TrainConfig):
        self.config = config
        self.slots = [(name, tensor, decays) for name, tensor, decays in model.named_parameters()]
        self.m = {name: np.zeros_like(t.data) for name, t, _ in self.slots}
        self.v = {name: np.zeros_like(t.data) for name, t, _ in self.slots}
        self.t = 0

    def step(self, lr: float) -> float:
        """One update at learning rate lr; returns the global gradient norm
        before clipping.

        The norm is the square root of the gradients' float64 sum of squares,
        taken once, in slot order. A NaN or Inf gradient makes it non-finite
        and rejects the step, naming the first such tensor, before anything
        moves; finite float64 gradients whose squares overflow read inf and
        are accepted. When config.grad_clip is set and the norm exceeds it,
        every gradient is scaled by grad_clip / norm and tensor.grad holds the
        clipped array.
        """
        cfg = self.config
        total = 0.0
        for _, tensor, _ in self.slots:
            if tensor.grad is not None:
                total += float((tensor.grad.astype(np.float64) ** 2).sum())
        if not math.isfinite(total):
            for name, tensor, _ in self.slots:
                if tensor.grad is not None and not np.all(np.isfinite(tensor.grad)):
                    raise TrainingError(f"non-finite gradient in {name}; step rejected")
        norm = math.sqrt(total)
        scale = cfg.grad_clip / norm if cfg.grad_clip is not None and norm > cfg.grad_clip else None
        self.t += 1
        b1, b2 = cfg.beta1, cfg.beta2
        correction1 = 1.0 - b1 ** self.t
        correction2 = 1.0 - b2 ** self.t
        for name, tensor, decays in self.slots:
            g = tensor.grad
            if g is None:
                g = np.zeros_like(tensor.data)
            elif scale is not None:
                g = tensor.grad = g * scale
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
        return norm

    def state_dict(self) -> dict:
        return {"t": self.t, "m": dict(self.m), "v": dict(self.v)}

    def load_state_dict(self, state: dict) -> None:
        """Take t and copies of the moments from state. Both moment maps must
        name exactly this optimizer's parameters, each moment with its
        parameter's shape; all of it is checked before anything is assigned,
        and a mismatch is a CheckpointError."""
        for key in ("m", "v"):
            if set(state[key]) != set(self.m):
                raise CheckpointError(f"optimizer state {key} does not match model parameters")
            for name, tensor, _ in self.slots:
                if state[key][name].shape != tensor.data.shape:
                    raise CheckpointError(f"shape mismatch for {key}.{name}: "
                                          f"{state[key][name].shape} vs {tensor.data.shape}")
        self.t = int(state["t"])
        for name in self.m:
            self.m[name] = state["m"][name].copy()
            self.v[name] = state["v"][name].copy()


# --- the loop --------------------------------------------------------------------


def train_step(model: Forecaster, optimizer: AdamW, batch: PackedBatch, config: TrainConfig,
               lr: float) -> dict:
    """One optimization step on batch at learning rate lr: batch_loss under a
    fresh graph, backward, then the optimizer step, which takes the global
    gradient norm and clips to optimizer.config.grad_clip (when set).

    Returns batch_loss's info dict plus tape_nodes, the ops recorded for
    backward, and grad_norm, the global gradient norm before any clipping.
    """
    model.zero_grad()
    with Graph() as graph:
        loss, info = batch_loss(model, batch, config)
    tape_nodes = len(graph)
    graph.backward(loss)
    return {**info, "tape_nodes": tape_nodes, "grad_norm": optimizer.step(lr)}


def train_loop(model: Forecaster, store: SequenceStore, config: TrainConfig,
               domain_weights: dict | None = None, optimizer: AdamW | None = None,
               start_step: int = 0, log_path=None, checkpoint_path=None) -> list:
    """Run config.steps optimization steps; returns one metrics record per step.

    Batches are drawn from a per-step generator seeded by (seed, step), so a
    resumed run replays exactly the stream an uninterrupted run would see.
    A record holds step, lr, the losses (loss, loss_ar, loss_aux), the
    per-layer selection fractions f with f_min / f_max of their layer mean,
    the step's wall time (seconds, from sampling through the optimizer
    step), the batch tokens per second over it, and train_step's tape_nodes
    and grad_norm.
    """
    optimizer = optimizer or AdamW(model, config)
    metrics: list[dict] = []
    log_handle = open(log_path, "a") if log_path else None
    try:
        for step in range(start_step, config.steps):
            began = time.perf_counter()
            rng = np.random.default_rng([config.seed, step])
            batch = sample_batch(store, rng, config.batch, config.context, domain_weights)
            lr = lr_at_step(step + 1, config.warmup_steps, config.steps + 1, config.lr)
            info = train_step(model, optimizer, batch, config, lr)
            seconds = time.perf_counter() - began
            record = {"step": step, "lr": lr, **info, "seconds": seconds,
                      "tokens_per_s": batch.rows * batch.length / seconds}
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


def _block(*parts: bytes) -> bytes:
    """One checkpoint block: the parts end to end, then the CRC32 of their bytes."""
    raw = b"".join(parts)
    return raw + struct.pack("<I", zlib.crc32(raw))


class _BlockReader:
    """Reads a checkpoint, checking every length against the bytes left in
    the file before reading it and each block against its CRC32."""

    def __init__(self, f, size: int):
        self.f = f
        self.left = size
        self.crc = 0

    def read(self, size: int, what: str) -> bytes:
        """Exactly size bytes, or CheckpointError naming what was cut off."""
        if size > self.left:
            raise CheckpointError(f"truncated checkpoint ({what})")
        raw = self.f.read(size)
        self.left -= size
        self.crc = zlib.crc32(raw, self.crc)
        return raw

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), what))

    def end_block(self, what: str) -> None:
        want = self.crc
        (crc,) = self.unpack("<I", f"checksum of {what}")
        if crc != want:
            raise CheckpointError(f"checksum mismatch in {what}")
        self.crc = 0


def _write_block(f, name: str, arr: np.ndarray) -> None:
    encoded = name.encode("utf-8")
    f.write(_block(struct.pack(f"<I{len(encoded)}sI{arr.ndim}Q", len(encoded), encoded,
                               arr.ndim, *arr.shape),
                   np.ascontiguousarray(arr, dtype="<f4").tobytes()))


def _decode(raw: bytes, what: str) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"{what} is not UTF-8") from None


def _read_block(f: _BlockReader) -> tuple:
    (name_len,) = f.unpack("<I", "block header")
    raw_name = f.read(name_len, "block name")
    (rank,) = f.unpack("<I", "block rank")
    dims = f.unpack(f"<{rank}Q", "block shape")
    payload = f.read(4 * math.prod(dims), "block tensor")
    f.end_block("a tensor block")
    name = _decode(raw_name, "a block name")
    return name, np.frombuffer(payload, dtype="<f4").reshape(dims).copy()


def _write_checkpoint(f, model: Forecaster, optimizer: AdamW | None, step: int) -> None:
    named = list(model.named_parameters())
    config_doc = json.dumps(model.config.to_dict()).encode("utf-8")
    f.write(_block(CHECKPOINT_MAGIC, struct.pack("<II", CHECKPOINT_VERSION, len(config_doc)),
                   config_doc, struct.pack("<QI", step, len(named))))
    for name, tensor, _ in named:
        _write_block(f, name, tensor.data)
    if optimizer is None:
        f.write(_block(struct.pack("<B", 0)))
        return
    f.write(_block(struct.pack("<BQI", 1, optimizer.t, 2 * len(optimizer.m))))
    for name in sorted(optimizer.m):
        _write_block(f, f"m.{name}", optimizer.m[name])
        _write_block(f, f"v.{name}", optimizer.v[name])


def save_checkpoint(path, model: Forecaster, optimizer: AdamW | None = None,
                    step: int = 0) -> None:
    """Write the checkpoint to <path>.tmp beside path, fsync it, then rename
    it over path, so a failed save leaves any earlier file at path whole."""
    if model.dtype != np.float32:
        raise CheckpointError("checkpoints store float32 models only")
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            _write_checkpoint(f, model, optimizer, step)
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path) -> tuple:
    """Returns (model, optimizer_state or None, step); bit-exact round trip."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"no such checkpoint: {path}")
    with open(path, "rb") as raw:
        f = _BlockReader(raw, os.fstat(raw.fileno()).st_size)
        if f.read(4, "magic") != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint (bad magic)")
        version, config_len = f.unpack("<II", "version and config length")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        config_doc = f.read(config_len, "config")
        step, n_params = f.unpack("<QI", "step and parameter count")
        f.end_block("the header")
        try:
            doc = json.loads(_decode(config_doc, "the config"))
        except json.JSONDecodeError as e:
            raise CheckpointError(f"the config is not JSON: {e}") from None
        config = ModelConfig.from_dict(doc)
        tensors = dict(_read_block(f) for _ in range(n_params))
        (has_opt,) = f.unpack("<B", "optimizer flag")
        if has_opt:
            t, n_slots = f.unpack("<QI", "optimizer step and slot count")
        f.end_block("the optimizer header")
        opt_state = None
        if has_opt:
            slots = dict(_read_block(f) for _ in range(n_slots))
            opt_state = {
                "t": t,
                "m": {k[2:]: v for k, v in slots.items() if k.startswith("m.")},
                "v": {k[2:]: v for k, v in slots.items() if k.startswith("v.")},
            }
        if f.left:
            raise CheckpointError(f"{f.left} unexpected bytes after the checkpoint's end")
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
