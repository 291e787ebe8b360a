"""Dense tensors with reverse-mode automatic differentiation on a recorded tape.

The op set is exactly what the forecaster's math needs: linear, explicit
elementwise addition, reshape, constant-weighted sums (the loss terms), the
router's scores (a softmax over the routed experts plus the shared
expert's sigmoid), the Huber loss, fused norm/rotation/attention kernels
and two gated units (glu for the point embedding, mixture for the experts)
with analytic adjoints. Ops are plain functions, with no operator
overloading on Tensor, and Graph.backward is the one way to backpropagate.

A recorded op keeps only what its vjp reads, and only while a graph
records it (one check, _recording, decides that for every op). The tape
holds keys, not outputs: a node is its own serial key, its inputs' keys
(or the Tensor of a requires_grad leaf), and its vjp, so an output that no
vjp reads, such as a projection that rope rotates or a residual branch that
add sums, is freed as soon as the forward drops it. Attention keeps its
output and each tile's row max and row sum, not its weights, and its vjp
replays the forward's ops to rebuild them bit for bit; given the rows and
weights its q, k and v were projected from, as the model's attention
gives them, it keeps none of q, k and v either and rebuilds them too, by
linear's, reshape's and rope's own array math. glu and mixture keep no
activation, only their transposed weight copies: their vjps rebuild the
gate pre-activation, its sigmoid and the up projection by the forward's
own ops, and mixture gathers its rows from the token rows again and
rebuilds its expert outputs for the gates' gradient rather than keep them.
Graph.backward drops each node as its vjp runs, so each saved array is
freed once backward has passed its node. A training step of the benchmark
model at 4 x 256 peaks at about 3.9 MB traced (4.6 MB when attention kept
q, k and v, 6.5 MB when the gated ops also kept their sigmoids and the
expert outputs were kept for the gates' gradient, 8.9 MB when the
pre-activations, up projections and a copy of the routed rows were kept
too).

Every product of a weight with an activation or a gradient (forward,
x-gradient and weight gradient) goes through one helper, _times, by one
rule, so a row's result does not depend on how many rows share the call
and a weight gradient does not depend on the BLAS thread count:
- a contraction of up to 256 runs whole, and a wider one is summed in
  order over 256-wide blocks (whole, OpenBLAS rounds a row of a 512-wide
  or wider contraction by the row count, and a weight gradient's
  contraction over the tokens by the thread count);
- a one-row left operand is multiplied as two rows, itself and a zero
  row, and the first is sliced back: numpy's one-row path rounds a row
  differently at contractions of 56 or more in float32, and at every
  width in float64;
- a forward product is by a contiguous transposed copy of the weight,
  never by the transposed view, zero-padded to a multiple of 16 weight
  rows and sliced back, since OpenBLAS rounds a product of another width
  by the row count.
linear, glu and mixture follow it.

Attention is blocked by segment and tiled by query. A packed row of T
tokens is cut into segments given by their bounds [0, b_1, ..., T]; tokens
attend causally within their own segment only, and each segment is cut into
query tiles counted from its own start. A tile scores its queries against
the keys up to its own last query only, in one block, so the masked
triangle above it is never computed and its softmax needs no running max
and sum (an online softmax). A segment packed into a row therefore computes
bit for bit what it computes alone, at about half of n^2 per segment and
with no [T, T] mask. Every call, recorded or not, holds one tile's
workspace at a time. The same kernel serves cached decoding, where keys
and values run longer than the queries by a cached prefix.

Expert dispatch is dropless and expert-sorted: mixture takes the token
rows, the router scores and each token's experts, cols[T, K], and groups
the tokens by expert itself, with one stable sort. In one op it gathers
each group's rows, runs every group's gated FFN, scales each output row by
its expert's column of the scores and adds each token's K rows back in
cols order. The shared expert is one more column, which every token
selects.

Shape discipline is strict: elementwise ops accept equal shapes or a
scalar, nothing else. Anything fancier (biases, per-row scaling, column
slicing) is part of a named op. Every op checks its output for NaN/Inf and
raises NumericError, so non-finite values are never silently stored.

Default precision is float32; pass dtype=np.float64 at tensor creation for
gradient-checking headroom. Mixing precisions in one expression is an error.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

DEFAULT_DTYPE = np.float32
_FLOAT_DTYPES = (np.float32, np.float64)


class ShapeError(ValueError):
    """Operand shapes violate an op's contract."""


class NumericError(ArithmeticError):
    """An op produced NaN/Inf from finite inputs, or was fed NaN/Inf."""


class Tensor:
    """N-dimensional array of float32/float64 values, optionally carrying a gradient.

    `data` is a row-major numpy array; `grad`, once Graph.backward has run,
    is an array of the same shape. Tensors created while a Graph is active
    and derived from a requires_grad input participate in backpropagation;
    such an output carries its graph's id (`_graph_id`) and its node key (`_key`).
    """

    __slots__ = ("data", "requires_grad", "grad", "_graph_id", "_key")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._graph_id = None

    @classmethod
    def _wrap(cls, data: np.ndarray, requires_grad: bool) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.requires_grad = requires_grad
        out.grad = None
        out._graph_id = None
        return out

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def __repr__(self):
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


def constant(value, dtype=DEFAULT_DTYPE) -> Tensor:
    """A tensor that never requires grad (targets, masks, literals)."""
    return Tensor(value, dtype=dtype, requires_grad=False)


# --- the tape ----------------------------------------------------------------

_STACK = threading.local()


def _graph_stack() -> list:
    if not hasattr(_STACK, "graphs"):
        _STACK.graphs = []
    return _STACK.graphs


def _active_graph():
    stack = _graph_stack()
    return stack[-1] if stack else None


class Graph:
    """Execution-ordered tape of recorded ops, keyed by serial numbers.

    Each recorded output gets the next serial key of its graph. A node holds
    three things: its own key; per input, that input's key when this graph
    produced it, the Tensor itself when it is a requires_grad leaf (a
    parameter, or an output of another graph), or None for a constant; and
    the vjp. A node never holds a Tensor an op produced, so an output that no
    vjp closure captures is freed as soon as the forward drops it.
    Replaying the adjoints in reverse execution order, with gradients keyed
    by node key, yields the gradient of a scalar loss for every
    requires_grad leaf. One graph per forward pass; backward() consumes and
    drops the tape.
    """

    _ids = itertools.count()

    def __init__(self):
        self._id = next(Graph._ids)
        self._nodes: list[tuple[int, list, object]] = []

    def __enter__(self) -> "Graph":
        _graph_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _graph_stack().pop()
        assert popped is self, "graph contexts must nest"
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def _ref(self, t: Tensor):
        """t's key when this graph produced it, else t as a leaf, else None."""
        if t._graph_id == self._id:
            return t._key
        return t if t.requires_grad else None

    def _record(self, out: Tensor, inputs: tuple, vjp) -> None:
        key = len(self._nodes)
        out._graph_id, out._key = self._id, key
        self._nodes.append((key, [self._ref(t) for t in inputs], vjp))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into .grad of every requires_grad leaf."""
        if loss.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")
        nodes = self._nodes
        # Node keys are ints and leaves are Tensors, hashed by identity.
        start = self._ref(loss)
        grads = {} if start is None else {start: np.ones_like(loss.data)}
        # A fresh id: outputs recorded so far are leaves of anything recorded later.
        self._id = next(Graph._ids)
        # Each node leaves the tape as its vjp runs, so what the vjp saved is
        # freed as backward goes rather than all at the end.
        while nodes:
            key, refs, vjp = nodes.pop()
            g_out = grads.pop(key, None)
            if g_out is None:
                continue
            for ref, g_in in zip(refs, vjp(g_out)):
                if g_in is None or ref is None:
                    continue
                held = grads.get(ref)
                grads[ref] = g_in if held is None else held + g_in
        for leaf, g in grads.items():
            g = g.reshape(leaf.data.shape)
            leaf.grad = g if leaf.grad is None else leaf.grad + g


def _recording(inputs: tuple) -> Graph | None:
    """The active graph when it records an op on these inputs, else None."""
    graph = _active_graph()
    if graph is not None and any(t.requires_grad for t in inputs):
        return graph
    return None


def _finish(op: str, out_data: np.ndarray, inputs: tuple, vjp) -> Tensor:
    """Finite-check the result and record the op if a tape is active."""
    # One BLAS reduction first: the squared norm is finite unless an entry is
    # NaN or Inf, or finite entries overflow it; only then check entrywise.
    flat = out_data.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.dot(flat, flat)
    if not np.isfinite(norm) and not np.isfinite(out_data).all():
        raise NumericError(f"{op} produced non-finite values")
    graph = _recording(inputs)
    out = Tensor._wrap(out_data, graph is not None)
    if graph is not None:
        graph._record(out, inputs, vjp)
    return out


def _as_operand(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        if x.data.dtype != like.data.dtype:
            raise TypeError(f"mixed precisions: {like.data.dtype} vs {x.data.dtype}")
        return x
    return Tensor._wrap(np.asarray(x, dtype=like.data.dtype), False)


def _is_scalar(a_shape: tuple, b_shape: tuple) -> bool:
    """Whether b broadcasts onto a as a scalar; a shape that is neither a's
    own nor a scalar's is a ShapeError."""
    if a_shape == b_shape:
        return False
    if b_shape in ((), (1,)):
        return True
    raise ShapeError(f"no elementwise rule for shapes {a_shape} and {b_shape}")


# --- arithmetic ---------------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    """Elementwise a + b; b may be equal-shaped or a scalar."""
    b = _as_operand(b, a)
    b_shape = b.shape
    scalar = _is_scalar(a.shape, b_shape)

    def vjp(g):
        return g, g.sum().reshape(b_shape) if scalar else g

    return _finish("add", a.data + b.data, (a, b), vjp)


# Forward products zero-pad a weight to a multiple of this many rows.
_PAD_ROWS = 16
# _times contracts whole up to this width and in order over blocks of it above.
_BLOCK = 256


def _padded_t(w: np.ndarray) -> np.ndarray:
    """w [n, k] as a contiguous transposed copy [k, n'], zero-padded to
    n' = n rounded up to a multiple of _PAD_ROWS."""
    n = w.shape[0]
    wt = np.zeros((w.shape[1], n + -n % _PAD_ROWS), dtype=w.dtype)
    wt[:, :n] = w.T
    return wt


def _times(a: np.ndarray, b: np.ndarray, n: int | None = None) -> np.ndarray:
    """a @ b by the product rule (module docstring), sliced back to its
    first n columns, all of b's by default."""
    if len(a) == 1:
        return _times(np.concatenate((a, np.zeros_like(a))), b, n)[:1]
    out = a[:, :_BLOCK] @ b[:_BLOCK]
    for j in range(_BLOCK, a.shape[1], _BLOCK):
        out += a[:, j:j + _BLOCK] @ b[j:j + _BLOCK]
    return out if n in (None, out.shape[1]) else np.ascontiguousarray(out[:, :n])


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x[m×k] @ w[n×k].T, plus b[n] on every row when given; the product
    and both gradients by the product rule (module docstring)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.shape[1] != w.shape[1]:
        raise ShapeError(f"linear needs x [m, k] and w [n, k], got {x.shape} and {w.shape}")
    w = _as_operand(w, x)
    x_data, w_data = x.data, w.data
    n = w_data.shape[0]
    out = _times(x_data, _padded_t(w_data), n)
    if b is None:
        inputs = (x, w)
    else:
        b = _as_operand(b, x)
        if b.shape != (n,):
            raise ShapeError(f"linear bias {b.shape} does not match weight {w.shape}")
        out += b.data
        inputs = (x, w, b)

    def vjp(g):
        grads = (_times(g, w_data), _times(g.T, x_data))
        return grads if b is None else grads + (g.sum(axis=0),)

    return _finish("linear", out, inputs, vjp)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}")
    in_shape = a.data.shape

    def vjp(g):
        return (g.reshape(in_shape),)

    return _finish("reshape", a.data.reshape(shape), (a,), vjp)


def weighted_sum(x: Tensor, weights) -> Tensor:
    """Sum of x * weights as a scalar tensor; weights is a constant of x's
    exact shape, so every mean, mask or per-entry scale of a reduction is
    folded into one node."""
    w = np.asarray(weights, dtype=x.data.dtype)
    if w.shape != x.shape:
        raise ShapeError(f"weighted_sum weights {w.shape} do not match {x.shape}")

    def vjp(g):
        return (g * w,)

    return _finish("weighted_sum", (x.data * w).sum().reshape(()), (x,), vjp)


# --- activations ---------------------------------------------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows. The numerator is 1 where x >= 0 (e <= 1
    # there) and e below 0: the bits of choosing 1 / d or e / d by sign, at
    # under half the cost of np.where, whose select mispredicts on random
    # signs, so the gated ops can run it again in their vjps.
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def _gated_hidden(rows: np.ndarray, wgt: np.ndarray, wut: np.ndarray, n: int) -> tuple:
    """(pre, s, up) of a gated unit silu(pre) * up of width n: pre = rows @
    wgt, its sigmoid s, and up = rows @ wut, by _times on padded weight
    copies (_padded_t).

    glu and mixture keep none of the three for their vjps, which call this
    again: the forward's own ops on the same operands give them bit for bit."""
    pre = _times(rows, wgt, n)
    return pre, _sigmoid(pre), _times(rows, wut, n)


def _gated_hidden_grads(g: np.ndarray, pre: np.ndarray, s: np.ndarray, up: np.ndarray) -> tuple:
    """(d pre, d up, silu(pre)) for the gradient g of silu(pre) * up."""
    gate = pre * s
    return g * up * (s + pre * s * (1.0 - s)), g * gate, gate


def glu(x: Tensor, w: Tensor, v: Tensor) -> Tensor:
    """silu(x @ w.T) * (x @ v.T) for x [m, k] and w, v [n, k]: a gated linear
    unit as one op (the point embedding), its products and gradients by the
    product rule (module docstring).

    While a graph records it keeps only the padded weight copies; the
    vjp rebuilds both products and the sigmoid by the forward's ops. x's
    gradient is computed only when x requires one, and the embedding's x is
    the data, a constant.
    """
    if (x.data.ndim != 2 or w.data.ndim != 2 or w.shape != v.shape
            or x.shape[1] != w.shape[1]):
        raise ShapeError(f"glu needs x [m, k] and w, v [n, k], got {x.shape}, {w.shape}, {v.shape}")
    w, v = _as_operand(w, x), _as_operand(v, x)
    x_data, x_grad, n = x.data, x.requires_grad, w.shape[0]
    wt, vt = _padded_t(w.data), _padded_t(v.data)
    pre, s, up = _gated_hidden(x_data, wt, vt, n)

    def vjp(g):
        g_pre, g_up, _ = _gated_hidden_grads(g, *_gated_hidden(x_data, wt, vt, n))
        gx = _times(g_pre, w.data) + _times(g_up, v.data) if x_grad else None
        return gx, _times(g_pre.T, x_data), _times(g_up.T, x_data)

    return _finish("glu", pre * s * up, (x, w, v), vjp)


def router_scores(logits: Tensor) -> Tensor:
    """[T, N+1] router scores from logits [T, N+1]: the max-subtracted
    softmax over the N routed logits in columns 0..N-1, and the sigmoid of
    the shared expert's logit in column N."""
    if logits.data.ndim != 2 or logits.shape[1] < 2:
        raise ShapeError(f"router_scores needs logits [T, N+1] with N >= 1, got {logits.shape}")
    z = logits.data
    n = z.shape[1] - 1
    e = np.exp(z[:, :n] - z[:, :n].max(axis=-1, keepdims=True))
    y = np.empty_like(z)
    np.divide(e, e.sum(axis=-1, keepdims=True), out=y[:, :n])
    y[:, n] = _sigmoid(z[:, n])

    def vjp(g):
        routed, s = y[:, :n], y[:, n]
        gz = np.empty_like(g)
        gz[:, :n] = routed * (g[:, :n] - (g[:, :n] * routed).sum(axis=-1, keepdims=True))
        gz[:, n] = g[:, n] * s * (1.0 - s)
        return (gz,)

    return _finish("router_scores", y, (logits,), vjp)


def huber(pred: Tensor, target, delta: float) -> Tensor:
    """Elementwise robust loss: quadratic within |r| <= delta, linear beyond."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    target = _as_operand(target, pred)
    target_grad = target.requires_grad
    r = pred.data - target.data
    dr = np.clip(r, -delta, delta)
    # With a = |r| and m = min(a, delta), (a - m / 2) * m is 0.5 * r * r
    # where |r| <= delta (a - a / 2 is exact) and delta * (|r| - delta / 2)
    # beyond, bit for bit; r's buffer becomes the output.
    a = np.abs(r, out=r)
    m = np.minimum(a, delta)
    a -= 0.5 * m
    a *= m

    def vjp(g):
        g_pred = g * dr
        return g_pred, -g_pred if target_grad else None

    return _finish("huber", a, (pred, target), vjp)


# --- fused model kernels -------------------------------------------------------


def rmsnorm(x: Tensor, weight: Tensor, eps: float = 1e-6) -> Tensor:
    """Per-row x / sqrt(mean(x^2) + eps), scaled elementwise by weight."""
    if x.shape[-1] != weight.shape[0] or weight.data.ndim != 1:
        raise ShapeError(f"rmsnorm weight {weight.shape} does not match rows of {x.shape}")
    weight = _as_operand(weight, x)
    d = x.shape[-1]
    inv = 1.0 / np.sqrt((x.data * x.data).mean(axis=-1, keepdims=True) + eps)
    x_data, w_data = x.data, weight.data
    y = x_data * inv * w_data

    def vjp(g):
        gw_x = g * w_data
        dot = (gw_x * x_data).sum(axis=-1, keepdims=True)
        gx = inv * gw_x - (inv ** 3 / d) * x_data * dot
        gw = (g * x_data * inv).reshape(-1, d).sum(axis=0)
        return gx, gw

    return _finish("rmsnorm", y, (x, weight), vjp)


def rope_tables(positions: np.ndarray, heads: int, d_head: int, base: float = 10000.0,
                dtype=DEFAULT_DTYPE) -> tuple:
    """(cos, sin), each [T, heads, d_head / 2]: the angles positions[t] * base^(-2i/d_head)
    that rope turns pair i of every head vector of token t by.

    Rows are per token, so the tables of a row's last n tokens are the last
    n rows of the row's tables. Each head gets its own contiguous copy, so
    rope's products run over whole rows instead of broadcasting over heads,
    about three times faster at d_head = 8."""
    if d_head % 2 != 0:
        raise ShapeError(f"rope needs an even head dim, got {d_head}")
    half = d_head // 2
    inv_freq = base ** (-np.arange(half, dtype=np.float64) * 2.0 / (2 * half))
    angles = np.asarray(positions).astype(np.float64)[:, None, None] * inv_freq
    return tuple(np.repeat(f(angles).astype(dtype), heads, axis=1) for f in (np.cos, np.sin))


def rope(x: Tensor, tables: tuple) -> Tensor:
    """Rotate adjacent feature pairs of x[T, heads, d_head] by the angles of
    rope_tables (cos, sin) for x's T tokens.

    The adjoint is the inverse rotation, so gradients are exact isometries too.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"rope expects [T, heads, d_head], got {x.shape}")
    t, heads, d_head = x.shape
    if d_head % 2 != 0:
        raise ShapeError(f"rope needs an even head dim, got {d_head}")
    cos, sin = tables
    if cos.shape != (t, heads, d_head // 2) or sin.shape != cos.shape:
        raise ShapeError(f"rope tables {cos.shape}, {sin.shape} do not fit {x.shape}")
    if cos.dtype != x.data.dtype or sin.dtype != x.data.dtype:
        raise TypeError(f"mixed precisions: {x.data.dtype} vs rope tables {cos.dtype}")

    def vjp(g):
        return (_rotate(g, cos, -sin),)

    return _finish("rope", _rotate(x.data, cos, sin), (x,), vjp)


def _rotate(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """rope's rotation of the adjacent feature pairs of x[T, heads, d_head]."""
    a, b = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = a * cos - b * sin
    out[..., 1::2] = a * sin + b * cos
    return out


# Query tile of masked_attention: a tile's workspace is [heads, ATTENTION_TILE, keys].
ATTENTION_TILE = 64
# Strict upper triangle of one tile: True where a key comes after its query.
_FUTURE = np.triu(np.ones((ATTENTION_TILE, ATTENTION_TILE), dtype=bool), k=1)


def _segment_spans(segments, t: int) -> list:
    """(start, stop) pairs of the segment bounds [0, b_1, ..., T], checked."""
    bounds = np.asarray(segments)
    if (bounds.ndim != 1 or len(bounds) < 2 or not np.issubdtype(bounds.dtype, np.integer)
            or bounds[0] != 0 or bounds[-1] != t or np.any(np.diff(bounds) <= 0)):
        raise ShapeError(f"segments must be strictly ascending integer bounds from 0 to {t}")
    bounds = bounds.tolist()
    return list(zip(bounds[:-1], bounds[1:]))


def masked_attention(q: Tensor, k: Tensor, v: Tensor, segments, source=None) -> Tensor:
    """Causal scaled dot-product attention, blocked by segment and tiled by query.

    k and v are [n_k, heads, d_head]; q is [n_q, heads, d_head] with
    n_q <= n_k, and its rows are the last n_q key positions: query i sits at
    key position n_k - n_q + i. n_q == n_k is the training case; n_q < n_k
    is a decode step whose first n_k - n_q keys and values come from a cache.

    segments are the bounds [0, b_1, ..., n_k] of the packed segments over
    key positions: a token in [b_i, b_i+1) attends to itself and the earlier
    tokens of its own segment, never across a bound. Each segment is cut
    into tiles of ATTENTION_TILE positions from its own start, and each tile
    scores its queries with batched matmul against the segment's keys up to
    its own last position only: the masked triangle above the tile is never
    computed, and only the tile's own diagonal square is masked, by a corner
    of one triangle built at import. Since tiles fall from the segment
    start, a packed segment gives bit for bit what it gives alone, and a
    decode push that fills a tile computes that tile of the full call. A
    tile holds its whole key range in one [heads, m, key range] block (4 MB
    at 4 heads, 4096 keys and float32), so its softmax is exact without the
    running max and sum across key blocks of an online softmax. A tile that
    ends inside the cached prefix holds no query and is skipped.

    Each tile's weights are dropped before the next tile is scored, so a
    call holds one tile's workspace, never [heads, n_q, n_k]. While a graph
    is recording, each tile keeps its row max and row sum ([heads, m, 1]
    each) for the vjp, which walks the same tiles, rebuilds each tile's
    weights by the forward's own ops (the same matmul on the same slices,
    the scale, the diagonal mask, minus the saved max, exp, over the saved
    sum), so they and every gradient match bit for bit, and sums the key
    and value gradients over the tiles, holding one tile's weights and
    their gradient at a time. A logsumexp or online softmax would round
    differently.

    source, when given, is (x, ((wq, bq), (wk, bk), (wv, bv)), tables): the
    rows x [n_k, heads * d_head] and the weights that q, k and v were
    projected from, with q = rope(reshape(linear(x, wq, bq)), tables), k
    the same by wk and bk, and v = reshape(linear(x, wv, bv)), n_q == n_k.
    A recorded call given a source keeps only its output and the row
    statistics, not q, k or v: its vjp rebuilds the three by those ops' own
    array math (linear's padded product plus the bias, the reshape, rope's
    rotation by the same tables), bit for bit, and the linear nodes keep x
    anyway. Without a source a recorded call keeps q, k and v. With it, a
    training step of the benchmark model at 4 x 256 peaks at about 3.9 MB
    traced, against 4.6 MB when attention kept q, k and v (0.79 MB of
    them), and a one-segment 4096-point step at about 18.7 MB.
    """
    if (q.data.ndim != 3 or k.shape != v.shape or k.data.ndim != 3
            or q.shape[1:] != k.shape[1:] or q.shape[0] > k.shape[0]):
        raise ShapeError(f"attention expects q [n_q, heads, d_head] and k, v [n_k >= n_q, heads, "
                         f"d_head], got {q.shape}, {k.shape}, {v.shape}")
    n_q, _, d_head = q.shape
    shape = k.shape
    n_k = shape[0]
    prefix = n_k - n_q
    # (first query row, end query row, segment start, tile start, tile end) per
    # tile that holds a query: from the tile of a segment's first query on.
    tiles = []
    for a, b in _segment_spans(segments, n_k):
        if b <= prefix:
            continue
        for t0 in range(a + max(prefix - a, 0) // ATTENTION_TILE * ATTENTION_TILE, b,
                        ATTENTION_TILE):
            t1 = min(t0 + ATTENTION_TILE, b)
            tiles.append((max(t0, prefix) - prefix, t1 - prefix, a, t0, t1))
    k, v = _as_operand(k, q), _as_operand(v, q)
    if source is None:
        kept = q.data, k.data, v.data
    else:
        x, projections, (cos, sin) = source
        if n_q != n_k or x.shape[0] != n_k:
            raise ShapeError(f"attention source rows {x.shape} do not fit q {q.shape} and "
                             f"k {k.shape}")
        rows, projections = x.data, [(w.data, b.data) for w, b in projections]
        kept = None

        def rebuilt():
            """q, k and v again, by the forward's own ops on its own operands."""
            qd, kd, vd = ((_times(rows, _padded_t(w), len(w)) + b).reshape(shape)
                          for w, b in projections)
            return _rotate(qd, cos, sin), _rotate(kd, cos, sin), vd

    keep = _recording((q, k, v)) is not None
    scale = float(1.0 / np.sqrt(d_head))
    out = np.empty_like(q.data)
    oh = out.transpose(1, 0, 2)

    def scores(qh, kh, s, e, a, t0, t1):
        """One tile's scaled scores, its future keys at -inf: [heads, e - s, t1 - a]."""
        ws = np.matmul(qh[:, s:e], kh[:, a:t1].transpose(0, 2, 1))
        ws *= scale
        m = t1 - t0
        np.copyto(ws[:, :, t0 - a:], -np.inf, where=_FUTURE[m - (e - s):m, :m])
        return ws

    # [heads, T, d_head] views of the [T, heads, d_head] operands.
    qh, kh, vh = (a.transpose(1, 0, 2) for a in (q.data, k.data, v.data))
    stats = []
    for tile in tiles:
        s, e, a, _, t1 = tile
        ws = scores(qh, kh, *tile)
        row_max = ws.max(axis=-1, keepdims=True)
        ws -= row_max
        np.exp(ws, out=ws)
        row_sum = ws.sum(axis=-1, keepdims=True)
        ws /= row_sum
        np.matmul(ws, vh[:, a:t1], out=oh[:, s:e])
        if keep:
            stats.append((row_max, row_sum))
        del ws

    def vjp(g):
        qh, kh, vh, gh = (a.transpose(1, 0, 2) for a in (*(kept or rebuilt()), g))
        # Tiles add into the key and value gradients; keys no query reaches get 0.
        gq, gk, gv = np.empty_like(g), np.zeros(shape, g.dtype), np.zeros(shape, g.dtype)
        gqh, gkh, gvh = (a.transpose(1, 0, 2) for a in (gq, gk, gv))
        for tile, (row_max, row_sum) in zip(tiles, stats):
            s, e, a, _, t1 = tile
            # The forward's weights again, by its own ops on its own operands.
            ws = scores(qh, kh, *tile)
            ws -= row_max
            np.exp(ws, out=ws)
            ws /= row_sum
            go = gh[:, s:e]
            gvh[:, a:t1] += np.matmul(ws.transpose(0, 2, 1), go)
            # d(scores) = w * (g v^T - rowsum(w * g v^T)), and that row sum is g . out.
            gw = np.matmul(go, vh[:, a:t1].transpose(0, 2, 1))
            gw -= (go * oh[:, s:e]).sum(axis=-1, keepdims=True)
            gw *= ws
            np.matmul(gw, kh[:, a:t1], out=gqh[:, s:e])
            gkh[:, a:t1] += np.matmul(gw.transpose(0, 2, 1), qh[:, s:e])
            del ws, gw  # before the next tile is scored: two blocks at a time, not three
        gq *= scale
        gk *= scale
        return gq, gk, gv

    return _finish("attention", out, (q, k, v), vjp)


# --- expert dispatch -----------------------------------------------------------


def _check_distinct_per_row(a: np.ndarray, what: str) -> None:
    """Each row of a 2-D integer array must hold distinct values."""
    # Column pairs, not a sort along rows: numpy sorts a row of a few
    # entries at about four times the cost of the K(K-1)/2 comparisons.
    k = a.shape[1]
    if any(np.any(a[:, i] == a[:, j]) for i in range(k) for j in range(i + 1, k)):
        raise ShapeError(f"each row of {what} must be distinct")


def mixture(x: Tensor, experts: list, cols: np.ndarray, gates: Tensor) -> Tensor:
    """For each token t of x[T, D], the sum over j of gates[t, i] * ffn_i(x[t]),
    i = cols[t, j], the terms added j ascending; ffn_i is the gated
    feed-forward net down(silu(gate(r)) * up(r)) of experts[i].

    cols is [T, K >= 1], each row distinct indices below len(experts).
    experts[i] is (w_gate [hidden, D], w_up [hidden, D], w_down [D, hidden]),
    and gates is [T, len(experts)], expert i reading its column i. The op
    groups the tokens by expert itself, once: a stable sort of cols by
    expert gives each expert's group of tokens, ascending, and the grouped
    row of each term, which the combine step reads. Each group gathers its
    own rows of x; an empty group is skipped, and its weights get no
    gradient. Every product and gradient follows the product rule (module
    docstring), so a row comes out bit for bit the same whatever else
    shares the call.

    While a graph records, each group keeps only its weight copies: no
    activation, no expert output and no copy of the rows. The vjp rebuilds
    a group's rows, pre-activation, sigmoid, up projection and output rows
    by the forward's own ops, takes gate column i as the row sums of
    g * output, and adds the group's row gradients straight into x's
    gradient, so a token's K row gradients are summed in expert order.
    """
    cols = np.asarray(cols, dtype=np.intp)
    t, d = x.data.shape
    if cols.ndim != 2 or cols.shape[0] != t or cols.shape[1] < 1:
        raise ShapeError(f"cols must be [{t}, K >= 1], got {cols.shape}")
    if cols.size and (cols.min() < 0 or cols.max() >= len(experts)):
        raise ShapeError(f"cols must index the {len(experts)} experts")
    _check_distinct_per_row(cols, "cols")
    gates = _as_operand(gates, x)
    if gates.shape != (t, len(experts)):
        raise ShapeError(f"gates must be [{t}, {len(experts)}], a column per expert, "
                         f"got {gates.shape}")
    weights = [tuple(_as_operand(w, x) for w in ws) for ws in experts]
    for w_gate, w_up, w_down in weights:
        h = w_gate.shape[0]
        if w_gate.shape != (h, d) or w_up.shape != (h, d) or w_down.shape != (d, h):
            raise ShapeError(f"mixture weights {w_gate.shape}, {w_up.shape}, {w_down.shape} "
                             f"do not fit rows of width {d}")
    inputs = (x, gates, *(w for ws in weights for w in ws))
    keep = _recording(inputs) is not None
    x_data, gate_data = x.data, gates.data
    # The grouping, built once: a stable sort by expert lists each group's
    # terms with their tokens ascending, and expert i owns grouped rows
    # bounds[i]:bounds[i+1]. slots[t, j] is the grouped row of token t's
    # j-th term, and order[r] the token of grouped row r.
    k, order = cols.shape[1], np.argsort(cols.reshape(-1), kind="stable")
    slots = np.empty_like(order)
    slots[order] = np.arange(cols.size)
    slots = slots.reshape(cols.shape)
    order //= k
    bounds = [0, *np.cumsum(np.bincount(cols.reshape(-1), minlength=len(experts))).tolist()]
    # Gated expert outputs in grouped order, dropped once the tokens have summed them.
    y = np.empty((cols.size, d), dtype=x_data.dtype)
    saved = []
    for i, (w_gate, w_up, w_down) in enumerate(weights):
        a, b = bounds[i], bounds[i + 1]
        if a == b:
            continue
        wgt, wut, wdt = _padded_t(w_gate.data), _padded_t(w_up.data), _padded_t(w_down.data)
        tokens = order[a:b]
        pre, s, up = _gated_hidden(x_data[tokens], wgt, wut, w_gate.shape[0])
        y[a:b] = _times(pre * s * up, wdt, d)
        del pre, s, up  # one group's workspace at a time
        y[a:b] *= gate_data[tokens, i, None]
        if keep:
            saved.append((a, b, i, wgt, wut, wdt))
    out = y[slots[:, 0]]
    for j in range(1, k):
        out += y[slots[:, j]]
    del y

    def vjp(g):
        # A group's tokens are distinct, so each adds its row gradients
        # straight into theirs, and a token's sum runs in group order. Each
        # temporary is dropped once read, so backward holds one group's
        # workspace at a time and stays under the forward's peak.
        gx, g_gates = np.zeros_like(x_data), np.zeros_like(gate_data)
        grads = [None] * (3 * len(weights))
        for a, b, i, wgt, wut, wdt in saved:
            w_gate, w_up, w_down = weights[i]
            tokens = order[a:b]
            rows, go = x_data[tokens], g[tokens]
            pre, s, up = _gated_hidden(rows, wgt, wut, w_gate.shape[0])
            hidden = pre * s * up
            g_gates[tokens, i] = (go * _times(hidden, wdt, d)).sum(axis=1)
            go *= gate_data[tokens, i, None]
            g_down = _times(go.T, hidden)
            del hidden
            g_pre, g_up, _ = _gated_hidden_grads(_times(go, w_down.data), pre, s, up)
            del pre, s, up
            gx[tokens] += _times(g_pre, w_gate.data) + _times(g_up, w_up.data)
            grads[3 * i: 3 * i + 3] = _times(g_pre.T, rows), _times(g_up.T, rows), g_down
            del rows, go, g_pre, g_up
        return (gx, g_gates, *grads)

    return _finish("mixture", out, inputs, vjp)

