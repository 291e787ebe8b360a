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
computes exactly what it would alone; train.batch_loss relies on this to run
a whole batch as one row. Forecaster.forward derives the segment bounds and
the rotary tables (tensor.rope_tables of the positions) once and hands them
to every layer:
block_forward(x, params, config, layer, rotary, bounds, cache) -> (x, routing).

For decoding, Forecaster.forward takes a KVCache: each block appends the
row's post-rotary keys and values and attends over everything cached, and
the final block, final norm and heads run on the last row only. A cached
forward is inference-only: it records no tape, and inside a recording
Graph it raises DataError.
"""

from __future__ import annotations

import functools
import numbers
import typing
from dataclasses import asdict, dataclass, fields

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


def _accepts(kind, value) -> bool:
    """Whether a JSON value fits a config field's type: a bool is no int, an
    int is a float, and a list is a tuple."""
    if kind is bool or isinstance(value, bool):
        return kind is bool and isinstance(value, bool)
    if kind is float:
        return isinstance(value, (int, float))
    if kind in (tuple, list):
        return isinstance(value, (tuple, list))
    if kind is type(None):
        return value is None
    return isinstance(value, kind)


class ConfigCodec:
    """Plain-dict codec of a dataclass config. to_dict is asdict in field
    order, with tuple fields as lists, so the dict equals its own JSON round
    trip; from_dict checks each value against its field's type, then builds
    cls(**doc), so a doc that is not a dict, an unknown or missing field, a
    wrongly typed value, or one that breaks validation is a ConfigError."""

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()}

    @classmethod
    def from_dict(cls, doc: dict):
        if not isinstance(doc, dict):
            raise ConfigError(f"invalid {cls.__name__}: expected a JSON object, got {doc!r}")
        hints = typing.get_type_hints(cls)
        declared = {f.name: f.type for f in fields(cls)}
        for name, value in doc.items():
            if name not in hints:
                continue  # cls(**doc) names the unknown field
            kinds = typing.get_args(hints[name]) or (hints[name],)
            if not any(_accepts(kind, value) for kind in kinds):
                raise ConfigError(f"invalid {cls.__name__}: {name} must be "
                                  f"{declared[name]}, got {value!r}")
        try:
            return cls(**doc)
        except TypeError as e:
            raise ConfigError(f"invalid {cls.__name__}: {e}") from e


def int_items(owner: str, name: str, values) -> tuple:
    """values as a tuple of ints; an item that is not an int, or is a bool,
    is a ConfigError naming the field rather than a silent truncation."""
    values = tuple(values)
    for value in values:
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"invalid {owner}: {name} must hold ints, got {value!r}")
    return tuple(int(v) for v in values)


@dataclass
class ModelConfig(ConfigCodec):
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
        self.head_horizons = int_items("ModelConfig", "head_horizons", self.head_horizons)
        for name in ("num_layers", "num_heads", "num_experts", "d_model", "d_ff",
                     "d_expert", "max_context"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive")
        if not 0 < self.rope_base < np.inf:
            raise ConfigError(f"rope_base must be positive and finite, got {self.rope_base}")
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


@dataclass
class AttentionParams:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    bq: Tensor
    bk: Tensor
    bv: Tensor


@dataclass
class BlockParams:
    attn_norm: Tensor
    attn: AttentionParams
    ffn_norm: Tensor
    moe: MoeParams | None = None
    ffn: ExpertFFN | None = None


@dataclass
class ForwardResult:
    """The final-norm rows, the routing of each mixture layer, and the head
    weights. head_outputs runs the heads on hidden when first read, so a
    caller that scores the heads itself, as training's loss does, never
    computes their outputs."""

    hidden: Tensor
    routing: list  # one RouterOutput per layer when the mixture is active
    heads: list

    @functools.cached_property
    def head_outputs(self) -> list:
        return head_forward(self.hidden, self.heads)


@dataclass
class KVCache:
    """Decode state of one unpacked sequence, for Forecaster.forward(cache=...).

    keys[i] and values[i] hold layer i's post-rotary keys and values,
    [length, heads, d_head], of every token pushed through so far; length
    is also the rotary position of the next token. The cache holds plain
    arrays, so a cached forward is inference-only: keys or values that
    require a gradient (a forward inside a recording Graph) are a
    DataError. A forward that raises leaves the cache part-extended, so
    drop it then.
    """

    keys: list
    values: list
    length: int = 0

    @classmethod
    def empty(cls, num_layers: int) -> "KVCache":
        return cls(keys=[None] * num_layers, values=[None] * num_layers)

    def extend(self, layer: int, k: Tensor, v: Tensor) -> tuple:
        """Append one layer's new keys and values; return those of every cached token."""
        if k.requires_grad or v.requires_grad:
            raise DataError("a cached forward is inference-only; run it outside a recording Graph")
        keys, values = k.data, v.data
        if self.keys[layer] is not None:
            keys = np.concatenate([self.keys[layer], keys])
            values = np.concatenate([self.values[layer], values])
        self.keys[layer], self.values[layer] = keys, values
        return T.constant(keys, k.dtype), T.constant(values, v.dtype)


def trunc_normal(rng: np.random.Generator, shape, std: float = INIT_STD,
                 dtype=np.float32) -> np.ndarray:
    """Normal(0, std) resampled until within two standard deviations."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2 * std
    return out.astype(dtype)


def _param(rng, shape, dtype, fill=None) -> Tensor:
    """A learnable tensor: truncated-normal draws from rng, or fill (0 for a
    bias, 1 for a norm gain) where given. With rng None it is a read-only
    zero-stride view of fill, or of 0, that allocates nothing."""
    if rng is None:
        data = np.broadcast_to(np.array(fill or 0, dtype), shape)
    elif fill is None:
        data = trunc_normal(rng, shape, INIT_STD, dtype)
    else:
        data = np.full(shape, fill, dtype)
    return Tensor(data, requires_grad=True)


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


def init_params(config: ModelConfig, rng: np.random.Generator | None = None,
                dtype=np.float32) -> ModelParams:
    """The model's parameter tree, the one statement of its composition:
    count_params, flops_per_token and match_dense_config read every shape
    off it, and named_parameters its names.

    With rng, fresh parameters: weights drawn in a fixed order, biases 0 and
    norm gains 1. With rng None, placeholders that allocate nothing (each a
    read-only zero-stride view, see _param), for a loader to replace or a
    count to read; nothing is drawn.
    """
    d = config.d_model
    blocks = []
    for _ in range(config.num_layers):
        attn = AttentionParams(
            wq=_param(rng, (d, d), dtype), bq=_param(rng, (d,), dtype, 0),
            wk=_param(rng, (d, d), dtype), bk=_param(rng, (d,), dtype, 0),
            wv=_param(rng, (d, d), dtype), bv=_param(rng, (d,), dtype, 0),
            wo=_param(rng, (d, d), dtype),
        )
        block = BlockParams(attn_norm=_param(rng, (d,), dtype, 1), attn=attn,
                            ffn_norm=_param(rng, (d,), dtype, 1))
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
        final_norm=_param(rng, (d,), dtype, 1),
        heads=[_param(rng, (p, d), dtype) for p in config.head_horizons],
    )


# Checkpoint keys of the parameter-tree fields not keyed by their own name.
_KEYS = {"embed_w": "embed.w", "embed_v": "embed.v", "blocks": "layers",
         "attn_norm": "attn_norm.weight", "ffn_norm": "ffn_norm.weight",
         "final_norm": "final_norm.weight"}


def _named_tensors(node, key: str = ""):
    """(checkpoint key, tensor) of every tensor under node, in field order. A
    field that is None holds none, and a tensor that is a list item is keyed
    <index>.weight."""
    if isinstance(node, Tensor):
        yield key, node
    elif isinstance(node, list):
        for i, item in enumerate(node):
            suffix = ".weight" if isinstance(item, Tensor) else ""
            yield from _named_tensors(item, f"{key}.{i}{suffix}")
    elif node is not None:
        for f in fields(node):
            name = _KEYS.get(f.name, f.name)
            yield from _named_tensors(getattr(node, f.name), f"{key}.{name}" if key else name)


# --- forward pieces ------------------------------------------------------------


def embed_points(x: Tensor, w: Tensor, v: Tensor) -> Tensor:
    """Gated embedding of raw scalars: silu(W x) * (V x), x of shape [T, 1],
    as one glu op that keeps only its sigmoid for backward."""
    if x.data.ndim != 2 or x.shape[1] != 1:
        raise T.ShapeError(f"embed_points expects [T, 1], got {x.shape}")
    if not np.all(np.isfinite(x.data)):
        raise DataError("embedding input contains NaN/Inf; clean the series first")
    return T.glu(x, w, v)


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
    # Sorted, a repeated run id sits next to itself (np.unique would import numpy.ma).
    run_ids = np.sort(ids[bounds[:-1]])
    if np.any(run_ids[1:] == run_ids[:-1]):
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
                          rotary: tuple, bounds: np.ndarray,
                          cache: KVCache | None = None, layer: int = 0,
                          last_row: bool = False) -> Tensor:
    """Multi-head causal attention over a packed row x[T, D].

    rotary is the rope_tables (cos, sin) of the row's rotary positions and
    bounds the segment bounds (packing_positions / segment_bounds of the
    sequence ids).
    With a cache, the row's keys and values are appended to cache entry
    `layer` and the queries attend over every cached token too (bounds then
    span the cache and the row). last_row computes the query, and so the
    output, for the row's last token only: [1, D].
    """
    t, d = x.shape
    heads = config.num_heads
    head_dim = d // heads
    x_q = T.constant(x.data[-1:], x.dtype) if last_row else x
    n_q = x_q.shape[0]
    pairs = ((params.wq, params.bq), (params.wk, params.bk), (params.wv, params.bv))
    q, k, v = (T.reshape(T.linear(rows, w, b), (rows.shape[0], heads, head_dim))
               for rows, (w, b) in zip((x_q, x, x), pairs))
    cos, sin = rotary
    q = T.rope(q, (cos[t - n_q:], sin[t - n_q:]))
    k = T.rope(k, rotary)
    if cache is not None:
        k, v = cache.extend(layer, k, v)
    # A recorded call rebuilds q, k and v from their source in its vjp rather than
    # keep them; a cached call is never recorded and passes none.
    source = (x, pairs, rotary) if cache is None else None
    attended = T.masked_attention(q, k, v, bounds, source=source)
    return T.linear(T.reshape(attended, (n_q, d)), params.wo)


def block_forward(x: Tensor, params: BlockParams, config: ModelConfig, layer: int,
                  rotary: tuple, bounds: np.ndarray,
                  cache: KVCache | None = None) -> tuple:
    """One pre-norm residual block over the rows x[T, D] of layer `layer`;
    returns (next rows, routing decisions or None for the dense FFN).

    With a cache the final block carries the last row only: its keys and
    values are cached for every row, but only the last row is read out.
    """
    last_row = cache is not None and layer == config.num_layers - 1
    attended = causal_self_attention(T.rmsnorm(x, params.attn_norm, eps=RMSNORM_EPS),
                                     params.attn, config, rotary, bounds, cache, layer,
                                     last_row)
    if last_row:
        x = T.constant(x.data[-1:], x.dtype)
    u = T.add(attended, x)
    u_norm = T.rmsnorm(u, params.ffn_norm, eps=RMSNORM_EPS)
    routing = None
    if params.moe is not None:
        routing = route_topk(u_norm, params.moe, config.top_k)
        mixed = moe_forward(u_norm, params.moe, routing)
    else:
        mixed = expert_ffn(u_norm, params.ffn)
    return T.add(mixed, u), routing


def head_forward(hidden: Tensor, heads: list) -> list:
    """Per-horizon forecasts W_p @ h_t for every position; j-th is [T, p_j]."""
    return [T.linear(hidden, w) for w in heads]


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

    def forward(self, values, seq_ids: np.ndarray | None = None,
                cache: KVCache | None = None) -> ForwardResult:
        """Run a packed token row [T] or [T, 1] through the full stack.

        Without a cache every position is computed and head j's output is
        [T, p_j]; the heads run when result.head_outputs is first read. The
        row may pack many sequences (a training batch is one such row, its
        batch rows laid end to end under distinct ids); each segment then
        computes bit for bit what it would alone. max_context
        bounds the rotary positions, so it is the longest segment, not the
        row, that may not pass it.

        With a cache (KVCache.empty for a prefill) the row continues the one
        sequence already cached: seq_ids must be None, rotary positions
        start at cache.length, and every block attends over the cached keys
        and values and appends the row's own. The final block, the final
        norm and the heads then run on the last row only, so hidden is
        [1, D] and head j's output [1, p_j]. The cache and the row together
        may not exceed max_context. A cached forward is inference-only:
        inside a recording Graph it raises DataError.
        """
        arr = np.asarray(values, dtype=self.dtype)
        if arr.ndim == 1:
            arr = arr[:, None]
        x = T.constant(arr, self.dtype)
        t = x.shape[0]
        if t < 1:
            raise DataError("empty input")
        start = 0 if cache is None else cache.length
        if seq_ids is None:
            bounds = np.array([0, start + t])
            positions = np.arange(start, start + t)
        elif cache is not None:
            raise DataError("a cached forward continues one sequence; seq_ids must be None")
        else:
            bounds = segment_bounds(seq_ids)
            positions = packing_positions(seq_ids)
        longest = int(positions.max()) + 1
        if longest > self.config.max_context:
            raise DataError(f"context {longest} exceeds max_context {self.config.max_context}")
        heads = self.config.num_heads
        rotary = T.rope_tables(positions, heads, self.config.d_model // heads,
                               self.config.rope_base, self.dtype)
        x = embed_points(x, self.params.embed_w, self.params.embed_v)
        routing = []
        for layer, block in enumerate(self.params.blocks):
            x, routed = block_forward(x, block, self.config, layer, rotary, bounds, cache)
            if routed is not None:
                routing.append(routed)
        if cache is not None:
            cache.length += t
        hidden = T.rmsnorm(x, self.params.final_norm, eps=RMSNORM_EPS)
        return ForwardResult(hidden=hidden, routing=routing, heads=self.params.heads)

    def named_parameters(self):
        """Iterate (name, tensor, decays) over every learnable tensor, in the
        parameter tree's field order. Exactly the 1-D tensors, the norm
        gains and attention biases, are excluded from weight decay.
        """
        return iter(self._named)

    @functools.cached_property
    def _named(self) -> list:
        # Walked once per model, not once per step: a tensor of the tree is
        # updated in place (tensor.data), never rebound.
        return [(name, tensor, tensor.data.ndim > 1)
                for name, tensor in _named_tensors(self.params)]

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
    """Parameter counts read off init_params' placeholder tree, which
    allocates nothing.

    total is the size of every stored tensor; activated is total less the
    (N - K) / N share of the routed experts, which a token never touches.
    """
    named = list(_named_tensors(init_params(config)))
    total = sum(tensor.size for _, tensor in named)
    routed = sum(tensor.size for name, tensor in named if ".moe.experts." in name)
    idle = routed * (config.num_experts - config.top_k) // config.num_experts
    return {"total": total, "activated": total - idle}
