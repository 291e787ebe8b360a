"""Decoder-only forecasting backbone.

Each raw observation becomes one token (no patching): a gated linear unit
embeds the scalar into D dimensions, a stack of pre-norm blocks applies
causal multi-head self-attention with rotary positions followed by a sparse
expert mixture (or a dense gated FFN in the ablation variant), and per-horizon
linear heads read multi-step forecasts off every position.

Bias terms exist only on the attention QKV projections; every other linear
map is bias-free. Packed batches carry a per-token sequence id, each
sequence one contiguous run of its id. Attention never crosses an id
boundary and rotary positions restart at each boundary, so a packed sequence
computes exactly what it would alone. Forecaster.forward derives the segment
bounds and positions once and hands them to every layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .moe import ExpertFFN, MoeParams, expert_ffn, moe_forward, route_topk
from .tensor import Tensor

INIT_STD = 0.02
RMSNORM_EPS = 1e-6


class ConfigError(ValueError):
    """Model configuration violates a structural constraint."""


class DataError(ValueError):
    """Model input contains values the forward pass cannot accept."""


@dataclass
class ModelConfig:
    """Architecture hyperparameters.

    num_experts is the routed-expert count N (a shared expert is always added
    on top when use_moe is set); top_k experts are activated per token.
    head_horizons must be strictly ascending and start at 1 so the greedy
    scheduler can always finish.
    """

    num_layers: int = 2
    num_heads: int = 2
    num_experts: int = 4
    top_k: int = 2
    d_model: int = 32
    d_ff: int = 128
    d_expert: int = 32
    head_horizons: tuple = (1, 8, 32, 64)
    max_context: int = 4096
    rope_base: float = 10000.0
    use_moe: bool = True

    def __post_init__(self):
        self.head_horizons = tuple(int(h) for h in self.head_horizons)
        if self.d_model % self.num_heads != 0:
            raise ConfigError(f"d_model {self.d_model} not divisible by {self.num_heads} heads")
        if (self.d_model // self.num_heads) % 2 != 0:
            raise ConfigError("rotary positions need an even per-head dimension")
        if not self.head_horizons or self.head_horizons[0] != 1:
            raise ConfigError("head_horizons must start at 1")
        if any(a >= b for a, b in zip(self.head_horizons, self.head_horizons[1:])):
            raise ConfigError("head_horizons must be strictly ascending")
        if not 1 <= self.top_k <= self.num_experts:
            raise ConfigError(f"top_k {self.top_k} outside [1, {self.num_experts}]")
        for name in ("num_layers", "num_heads", "num_experts", "d_model", "d_ff",
                     "d_expert", "max_context"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if self.rope_base <= 0:
            raise ConfigError("rope_base must be positive")

    def to_dict(self) -> dict:
        return {
            "num_layers": self.num_layers,
            "num_heads": self.num_heads,
            "num_experts": self.num_experts,
            "top_k": self.top_k,
            "d_model": self.d_model,
            "d_ff": self.d_ff,
            "d_expert": self.d_expert,
            "head_horizons": list(self.head_horizons),
            "max_context": self.max_context,
            "rope_base": self.rope_base,
            "use_moe": self.use_moe,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ModelConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(doc) - known
        if extra:
            raise ConfigError(f"unknown config fields: {sorted(extra)}")
        return cls(**doc)


@dataclass
class AttentionParams:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor


@dataclass
class BlockParams:
    attn_norm: Tensor
    attn: AttentionParams
    ffn_norm: Tensor
    moe: MoeParams | None = None
    ffn: ExpertFFN | None = None


@dataclass
class HiddenState:
    """Per-layer activation carrier for a (possibly packed) token row."""

    values: Tensor
    layer_index: int
    seq_ids: np.ndarray


@dataclass
class ForwardResult:
    hidden: Tensor
    head_outputs: list
    routing: list  # one RouterOutput per layer when the mixture is active


def trunc_normal(rng: np.random.Generator, shape, std: float = INIT_STD,
                 dtype=np.float32) -> np.ndarray:
    """Normal(0, std) resampled until within two standard deviations."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2 * std
    return out.astype(dtype)


def _param(rng, shape, dtype, std=INIT_STD) -> Tensor:
    return Tensor(trunc_normal(rng, shape, std, dtype), requires_grad=True)


def _zeros(shape, dtype) -> Tensor:
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=True)


def _ones(shape, dtype) -> Tensor:
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=True)


def _init_ffn(rng, d_model: int, hidden: int, dtype) -> ExpertFFN:
    return ExpertFFN(
        w_gate=_param(rng, (hidden, d_model), dtype),
        w_up=_param(rng, (hidden, d_model), dtype),
        w_down=_param(rng, (d_model, hidden), dtype),
    )


@dataclass
class ModelParams:
    embed_w: Tensor
    embed_v: Tensor
    blocks: list
    final_norm: Tensor
    heads: list  # one [p_j, D] projection per configured horizon


def init_params(config: ModelConfig, rng: np.random.Generator, dtype=np.float32) -> ModelParams:
    d = config.d_model
    blocks = []
    for _ in range(config.num_layers):
        attn = AttentionParams(
            wq=_param(rng, (d, d), dtype), bq=_zeros((d,), dtype),
            wk=_param(rng, (d, d), dtype), bk=_zeros((d,), dtype),
            wv=_param(rng, (d, d), dtype), bv=_zeros((d,), dtype),
            wo=_param(rng, (d, d), dtype),
        )
        block = BlockParams(attn_norm=_ones((d,), dtype), attn=attn,
                            ffn_norm=_ones((d,), dtype))
        if config.use_moe:
            block.moe = MoeParams(
                router=_param(rng, (config.num_experts + 1, d), dtype),
                experts=[_init_ffn(rng, d, config.d_expert, dtype)
                         for _ in range(config.num_experts)],
                shared=_init_ffn(rng, d, config.d_expert, dtype),
            )
        else:
            block.ffn = _init_ffn(rng, d, config.d_ff, dtype)
        blocks.append(block)
    return ModelParams(
        embed_w=_param(rng, (d, 1), dtype),
        embed_v=_param(rng, (d, 1), dtype),
        blocks=blocks,
        final_norm=_ones((d,), dtype),
        heads=[_param(rng, (p, d), dtype) for p in config.head_horizons],
    )


# --- forward pieces ------------------------------------------------------------


def embed_points(x: Tensor, w: Tensor, v: Tensor) -> Tensor:
    """Gated embedding of raw scalars: silu(W x) * (V x), x of shape [T, 1]."""
    if x.data.ndim != 2 or x.shape[1] != 1:
        raise T.ShapeError(f"embed_points expects [T, 1], got {x.shape}")
    if not np.all(np.isfinite(x.data)):
        raise DataError("embedding input contains NaN/Inf; clean the series first")
    return T.mul(T.silu(T.matmul(x, T.transpose(w))), T.matmul(x, T.transpose(v)))


def rmsnorm(x: Tensor, weight: Tensor) -> Tensor:
    return T.rmsnorm(x, weight, eps=RMSNORM_EPS)


def rope_apply(qk: Tensor, positions: np.ndarray, base: float = 10000.0) -> Tensor:
    """Rotate [T, heads, d_head] query/key vectors by their positions."""
    head_dim = qk.shape[-1]
    if head_dim % 2 != 0:
        raise ConfigError(f"rotary positions need an even head dim, got {head_dim}")
    return T.rope(qk, positions, base)


def segment_bounds(seq_ids: np.ndarray) -> np.ndarray:
    """[0, b_1, ..., T]: the start of every maximal run of equal ids, then T.

    Each packed sequence must occupy one contiguous run; an id that comes
    back after a different one raises DataError.
    """
    ids = np.asarray(seq_ids)
    if ids.ndim != 1 or len(ids) < 1:
        raise DataError(f"sequence ids must be a non-empty 1-D array, got shape {ids.shape}")
    starts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
    bounds = np.concatenate(([0], starts, [len(ids)]))
    run_ids = ids[bounds[:-1]]
    if len(np.unique(run_ids)) != len(run_ids):
        raise DataError("sequence ids must form contiguous runs; an id reappears after another")
    return bounds


def packing_positions(seq_ids: np.ndarray) -> np.ndarray:
    """Rotary positions restarting from 0 at every sequence boundary."""
    bounds = segment_bounds(seq_ids)
    return np.arange(bounds[-1]) - np.repeat(bounds[:-1], np.diff(bounds))


def attention_bias(seq_ids: np.ndarray) -> np.ndarray:
    """[T, T] additive mask: 0 where key <= query within one sequence, else -inf.

    The forward pass never builds it (attention is blocked by segment); it is
    the mask of the dense reference kernel the tests compare against.
    """
    t = len(seq_ids)
    ids = np.asarray(seq_ids)
    allowed = (np.arange(t)[None, :] <= np.arange(t)[:, None]) & (ids[None, :] == ids[:, None])
    bias = np.where(allowed, 0.0, -np.inf)
    return bias


def causal_self_attention(x: Tensor, params: AttentionParams, config: ModelConfig,
                          seq_ids: np.ndarray, positions: np.ndarray | None = None,
                          bounds: np.ndarray | None = None) -> Tensor:
    """Multi-head causal attention over a packed row x[T, D].

    positions and bounds default to packing_positions / segment_bounds of
    seq_ids; Forecaster.forward computes them once for all layers.
    """
    t, d = x.shape
    heads = config.num_heads
    head_dim = d // heads
    if positions is None:
        positions = packing_positions(seq_ids)
    if bounds is None:
        bounds = segment_bounds(seq_ids)
    q = T.reshape(T.add(T.matmul(x, T.transpose(params.wq)), params.bq), (t, heads, head_dim))
    k = T.reshape(T.add(T.matmul(x, T.transpose(params.wk)), params.bk), (t, heads, head_dim))
    v = T.reshape(T.add(T.matmul(x, T.transpose(params.wv)), params.bv), (t, heads, head_dim))
    q = rope_apply(q, positions, config.rope_base)
    k = rope_apply(k, positions, config.rope_base)
    attended = T.masked_attention(q, k, v, bounds)
    return T.matmul(T.reshape(attended, (t, d)), T.transpose(params.wo))


def block_forward(h: HiddenState, params: BlockParams, config: ModelConfig,
                  positions: np.ndarray | None = None,
                  bounds: np.ndarray | None = None) -> tuple:
    """One pre-norm residual block; returns the next state and, when the
    mixture is active, its routing decisions."""
    if h.layer_index >= config.num_layers:
        raise ConfigError(f"layer index {h.layer_index} beyond {config.num_layers} layers")
    x = h.values
    u = T.add(causal_self_attention(rmsnorm(x, params.attn_norm), params.attn,
                                    config, h.seq_ids, positions, bounds), x)
    u_norm = rmsnorm(u, params.ffn_norm)
    routing = None
    if params.moe is not None:
        routing = route_topk(u_norm, params.moe, config.top_k)
        mixed = moe_forward(u_norm, params.moe, routing)
    else:
        mixed = expert_ffn(u_norm, params.ffn)
    out = HiddenState(values=T.add(mixed, u), layer_index=h.layer_index + 1,
                      seq_ids=h.seq_ids)
    return out, routing


def head_forward(hidden: Tensor, heads: list) -> list:
    """Per-horizon forecasts W_p @ h_t for every position; j-th is [T, p_j]."""
    return [T.matmul(hidden, T.transpose(w)) for w in heads]


class Forecaster:
    """The assembled model: embedding, block stack, final norm, forecast heads.

    Parameters are plain tensors; forward passes are read-only and safe to
    share across threads, training mutates parameters single-threaded.
    """

    def __init__(self, config: ModelConfig, params: ModelParams):
        self.config = config
        self.params = params

    @classmethod
    def init(cls, config: ModelConfig, seed: int = 0, dtype=np.float32) -> "Forecaster":
        rng = np.random.default_rng(seed)
        return cls(config, init_params(config, rng, dtype))

    @property
    def dtype(self):
        return self.params.embed_w.dtype

    def forward(self, values, seq_ids: np.ndarray | None = None) -> ForwardResult:
        """Run a packed token row [T] or [T, 1] through the full stack."""
        if isinstance(values, Tensor):
            x = values
        else:
            arr = np.asarray(values, dtype=self.dtype)
            if arr.ndim == 1:
                arr = arr[:, None]
            x = T.constant(arr, self.dtype)
        t = x.shape[0]
        if t < 1:
            raise DataError("empty input")
        if t > self.config.max_context:
            raise DataError(f"context {t} exceeds max_context {self.config.max_context}")
        if seq_ids is None:
            seq_ids = np.zeros(t, dtype=np.int64)
        bounds = segment_bounds(seq_ids)
        positions = packing_positions(seq_ids)
        state = HiddenState(values=embed_points(x, self.params.embed_w, self.params.embed_v),
                            layer_index=0, seq_ids=np.asarray(seq_ids))
        routing = []
        for block in self.params.blocks:
            state, routed = block_forward(state, block, self.config, positions, bounds)
            if routed is not None:
                routing.append(routed)
        hidden = rmsnorm(state.values, self.params.final_norm)
        return ForwardResult(hidden=hidden,
                             head_outputs=head_forward(hidden, self.params.heads),
                             routing=routing)

    def named_parameters(self):
        """Yield (name, tensor, decays) for every learnable tensor.

        Norm gains and attention biases are excluded from weight decay.
        """
        yield "embed.w", self.params.embed_w, True
        yield "embed.v", self.params.embed_v, True
        for i, block in enumerate(self.params.blocks):
            prefix = f"layers.{i}"
            yield f"{prefix}.attn_norm.weight", block.attn_norm, False
            attn = block.attn
            for nm, tns in (("wq", attn.wq), ("wk", attn.wk), ("wv", attn.wv), ("wo", attn.wo)):
                yield f"{prefix}.attn.{nm}", tns, True
            for nm, tns in (("bq", attn.bq), ("bk", attn.bk), ("bv", attn.bv)):
                yield f"{prefix}.attn.{nm}", tns, False
            yield f"{prefix}.ffn_norm.weight", block.ffn_norm, False
            if block.moe is not None:
                yield f"{prefix}.moe.router", block.moe.router, True
                for j, exp in enumerate(block.moe.experts):
                    yield f"{prefix}.moe.experts.{j}.w_gate", exp.w_gate, True
                    yield f"{prefix}.moe.experts.{j}.w_up", exp.w_up, True
                    yield f"{prefix}.moe.experts.{j}.w_down", exp.w_down, True
                yield f"{prefix}.moe.shared.w_gate", block.moe.shared.w_gate, True
                yield f"{prefix}.moe.shared.w_up", block.moe.shared.w_up, True
                yield f"{prefix}.moe.shared.w_down", block.moe.shared.w_down, True
            else:
                yield f"{prefix}.ffn.w_gate", block.ffn.w_gate, True
                yield f"{prefix}.ffn.w_up", block.ffn.w_up, True
                yield f"{prefix}.ffn.w_down", block.ffn.w_down, True
        yield "final_norm.weight", self.params.final_norm, False
        for j, w in enumerate(self.params.heads):
            yield f"heads.{j}.weight", w, True

    def parameters(self):
        for _, tensor, _ in self.named_parameters():
            yield tensor

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None

    def param_bytes(self) -> bytes:
        """Concatenated little-endian payload of all parameters, for hashing."""
        return b"".join(p.data.astype("<f4", copy=False).tobytes()
                        for p in self.parameters())


def count_params(config: ModelConfig) -> dict:
    """Analytic parameter counts, no allocation.

    total covers every stored tensor; activated excludes the (N - K) routed
    experts a token never touches. Composition per layer: QKV with bias plus
    bias-free output projection, two norm gains, and either the mixture
    (router of (N+1) x D, N routed plus one shared gated FFN at d_expert) or
    a dense gated FFN at d_ff. Embedding contributes 2 D, the final norm D,
    and each head p_j x D.
    """
    d = config.d_model
    attn = 3 * (d * d + d) + d * d
    norms = 2 * d
    ffn = lambda hidden: 3 * d * hidden
    if config.use_moe:
        mixture = (config.num_experts + 1) * d + (config.num_experts + 1) * ffn(config.d_expert)
        unused = (config.num_experts - config.top_k) * ffn(config.d_expert)
    else:
        mixture = ffn(config.d_ff)
        unused = 0
    per_layer = attn + norms + mixture
    total = 2 * d + config.num_layers * per_layer + d + d * sum(config.head_horizons)
    return {"total": total, "activated": total - config.num_layers * unused}
