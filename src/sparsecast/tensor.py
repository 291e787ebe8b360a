"""Dense tensors with reverse-mode automatic differentiation on a recorded tape.

The op set is exactly what the forecaster's math needs: matmul, explicit
elementwise arithmetic, the gated activations, row-stochastic softmax,
fused norm/rotation/attention/SwiGLU kernels with analytic adjoints, and
the row permutations behind sparse expert dispatch. Ops are plain
functions, with no operator overloading on Tensor, and Graph.backward is
the one way to backpropagate.

Attention is blocked by segment. A packed row of T tokens is cut into
segments given by their bounds [0, b_1, ..., T]; tokens attend causally
within their own segment only, and each segment is computed on its own
[heads, n, d_head] slice with batched matmul. A row therefore costs the sum
of n^2 over its segments, not T^2, no [T, T] mask is ever built, and a
segment packed into a row computes bit for bit what it computes alone. Each
segment block keeps its softmax weights in a workspace of its own,
[heads, n, n], which the backward pass reads; a training batch packed into
one long row thus holds sum n^2 weights, never [heads, T, T]. The same
kernel serves cached decoding: keys and values may be longer than the
queries by a cached prefix, the queries being the last key positions, and a
block's workspace is then [heads, n_q, n_k].

Expert dispatch is dropless and expert-sorted: dispatch_rows copies each
token's row once per routed expert into expert-contiguous groups, swiglu
runs every group's gated FFN in one op, and combine_rows adds the gated
expert rows back to their tokens. swiglu multiplies by contiguous transposed
copies of the weights, never by transposed views, so a row's result does
not depend on how many rows share the call.

Shape discipline is strict: elementwise ops accept equal shapes, a
trailing-dimension vector, or a scalar — nothing else. Anything fancier
(per-row scaling, column slicing) is its own named op. Every op checks its
output for NaN/Inf and raises NumericError, so non-finite values are never
silently stored.

Default precision is float32; pass dtype=np.float64 at tensor creation for
gradient-checking headroom. Mixing precisions in one expression is an error.
"""

from __future__ import annotations

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
    and derived from a requires_grad input participate in backpropagation.
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, dtype=None, requires_grad: bool = False):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None

    @classmethod
    def _wrap(cls, data: np.ndarray, requires_grad: bool) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.requires_grad = requires_grad
        out.grad = None
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
    """Execution-ordered tape of recorded ops.

    Replaying the recorded adjoints in reverse execution order yields the
    gradient of a scalar loss for every requires_grad leaf. One graph per
    forward pass; backward() consumes and drops the tape.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], object]] = []

    def __enter__(self) -> "Graph":
        _graph_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _graph_stack().pop()
        assert popped is self, "graph contexts must nest"
        return False

    def __len__(self) -> int:
        return len(self._nodes)

    def _record(self, out: Tensor, inputs: tuple, vjp) -> None:
        self._nodes.append((out, inputs, vjp))

    def backward(self, loss: Tensor) -> None:
        """Accumulate d(loss)/d(leaf) into .grad of every requires_grad leaf."""
        if loss.data.size != 1:
            raise ShapeError(f"backward() needs a scalar loss, got shape {loss.shape}")
        produced = {id(out) for out, _, _ in self._nodes}
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        leaves: dict[int, Tensor] = {}
        if loss.requires_grad and id(loss) not in produced:
            leaves[id(loss)] = loss
        for out, inputs, vjp in reversed(self._nodes):
            g_out = grads.pop(id(out), None)
            if g_out is None:
                continue
            for tin, g_in in zip(inputs, vjp(g_out)):
                if g_in is None or not tin.requires_grad:
                    continue
                key = id(tin)
                held = grads.get(key)
                grads[key] = g_in if held is None else held + g_in
                if key not in produced:
                    leaves[key] = tin
        for key, tensor in leaves.items():
            g = grads.get(key)
            if g is None:
                continue
            g = g.reshape(tensor.data.shape)
            tensor.grad = g if tensor.grad is None else tensor.grad + g
        self._nodes.clear()


def _finish(op: str, out_data: np.ndarray, inputs: tuple, vjp) -> Tensor:
    """Finite-check the result and record the op if a tape is active."""
    # One BLAS reduction first: the squared norm is finite unless an entry is
    # NaN or Inf, or finite entries overflow it; only then check entrywise.
    flat = out_data.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        norm = np.dot(flat, flat)
    if not np.isfinite(norm) and not np.isfinite(out_data).all():
        raise NumericError(f"{op} produced non-finite values")
    graph = _active_graph()
    track = graph is not None and any(t.requires_grad for t in inputs)
    out = Tensor._wrap(out_data, track)
    if track:
        graph._record(out, inputs, vjp)
    return out


def _as_operand(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        if x.data.dtype != like.data.dtype:
            raise TypeError(f"mixed precisions: {like.data.dtype} vs {x.data.dtype}")
        return x
    return Tensor._wrap(np.asarray(x, dtype=like.data.dtype), False)


def _broadcast_kind(a_shape: tuple, b_shape: tuple) -> str:
    if a_shape == b_shape:
        return "same"
    if b_shape in ((), (1,)):
        return "scalar"
    if len(a_shape) >= 1 and b_shape == a_shape[-1:]:
        return "trailing"
    raise ShapeError(f"no elementwise rule for shapes {a_shape} and {b_shape}")


def _reduce_to(g: np.ndarray, kind: str, shape: tuple) -> np.ndarray:
    if kind == "same":
        return g
    if kind == "scalar":
        return g.sum().reshape(shape)
    axes = tuple(range(g.ndim - 1))
    return g.sum(axis=axes).reshape(shape)


# --- arithmetic ---------------------------------------------------------------


def add(a: Tensor, b) -> Tensor:
    """Elementwise a + b; b may be equal-shaped, a trailing vector, or a scalar."""
    b = _as_operand(b, a)
    kind = _broadcast_kind(a.shape, b.shape)

    def vjp(g):
        return g, _reduce_to(g, kind, b.shape)

    return _finish("add", a.data + b.data, (a, b), vjp)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise a * b under the same shape rules as add."""
    b = _as_operand(b, a)
    kind = _broadcast_kind(a.shape, b.shape)
    a_data, b_data = a.data, b.data

    def vjp(g):
        return g * b_data, _reduce_to(g * a_data, kind, b_data.shape)

    return _finish("mul", a_data * b_data, (a, b), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """2-D matrix product [m×k] @ [k×n] -> [m×n]."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul needs 2-D operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul inner dims disagree: {a.shape} @ {b.shape}")
    b = _as_operand(b, a)
    a_data, b_data = a.data, b.data

    def vjp(g):
        return g @ b_data.T, a_data.T @ g

    return _finish("matmul", a_data @ b_data, (a, b), vjp)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got {a.shape}")

    def vjp(g):
        return (g.T.copy(),)

    return _finish("transpose", a.data.T.copy(), (a,), vjp)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    if int(np.prod(shape)) != a.data.size:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}")
    in_shape = a.data.shape

    def vjp(g):
        return (g.reshape(in_shape),)

    return _finish("reshape", a.data.reshape(shape), (a,), vjp)


def sum_all(a: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    shape = a.data.shape
    dtype = a.data.dtype

    def vjp(g):
        return (np.full(shape, g.reshape(()), dtype=dtype),)

    return _finish("sum", a.data.sum().reshape(()), (a,), vjp)


# --- activations ---------------------------------------------------------------


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # exp(-|x|) never overflows; each sign takes the form that stays exact there.
    e = np.exp(-np.abs(x))
    d = 1.0 + e
    return np.where(x >= 0, 1.0 / d, e / d)


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)

    def vjp(g):
        return (g * s * (1.0 - s),)

    return _finish("sigmoid", s, (x,), vjp)


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x) (the gate activation used throughout the model)."""
    s = _sigmoid(x.data)
    x_data = x.data

    def vjp(g):
        return (g * (s + x_data * s * (1.0 - s)),)

    return _finish("silu", x_data * s, (x,), vjp)


def softmax_lastdim(x: Tensor) -> Tensor:
    """Row-stochastic softmax over the last dimension, with max-subtraction."""
    if x.data.shape[-1] < 1:
        raise ShapeError("softmax over an empty dimension")
    if not np.all(np.isfinite(np.nan_to_num(x.data, nan=np.nan, posinf=np.nan, neginf=0.0))):
        # -inf entries are legal (masking); NaN/+inf are not.
        raise NumericError("softmax input contains NaN or +inf")
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        return (y * (g - dot),)

    return _finish("softmax", y, (x,), vjp)


def huber(pred: Tensor, target, delta: float) -> Tensor:
    """Elementwise robust loss: quadratic within |r| <= delta, linear beyond."""
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    target = _as_operand(target, pred)
    r = pred.data - target.data
    small = np.abs(r) <= delta
    out = np.where(small, 0.5 * r * r, delta * (np.abs(r) - 0.5 * delta))
    dr = np.where(small, r, delta * np.sign(r))

    def vjp(g):
        return g * dr, -(g * dr)

    return _finish("huber", out, (pred, target), vjp)


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


def _rope_tables(positions: np.ndarray, half: int, base: float, dtype) -> tuple:
    inv_freq = base ** (-np.arange(half, dtype=np.float64) * 2.0 / (2 * half))
    angles = positions.astype(np.float64)[:, None] * inv_freq[None, :]
    return np.cos(angles).astype(dtype), np.sin(angles).astype(dtype)


def rope(x: Tensor, positions: np.ndarray, base: float = 10000.0) -> Tensor:
    """Rotate adjacent feature pairs of x[T, heads, d_head] by position-dependent angles.

    Pair i of each head vector turns by positions[t] * base^(-2i/d_head); the
    adjoint is the inverse rotation, so gradients are exact isometries too.
    """
    if x.data.ndim != 3:
        raise ShapeError(f"rope expects [T, heads, d_head], got {x.shape}")
    t, _, d_head = x.shape
    if d_head % 2 != 0:
        raise ShapeError(f"rope needs an even head dim, got {d_head}")
    if len(positions) != t:
        raise ShapeError("positions must have one entry per token")
    cos, sin = _rope_tables(np.asarray(positions), d_head // 2, base, x.data.dtype)
    cos = cos[:, None, :]
    sin = sin[:, None, :]

    def rotate(arr, c, s):
        a, b = arr[..., 0::2], arr[..., 1::2]
        out = np.empty_like(arr)
        out[..., 0::2] = a * c - b * s
        out[..., 1::2] = a * s + b * c
        return out

    def vjp(g):
        return (rotate(g, cos, -sin),)

    return _finish("rope", rotate(x.data, cos, sin), (x,), vjp)


def _segment_spans(segments, t: int) -> list:
    """(start, stop) pairs of the segment bounds [0, b_1, ..., T], checked."""
    bounds = np.asarray(segments)
    if (bounds.ndim != 1 or len(bounds) < 2 or not np.issubdtype(bounds.dtype, np.integer)
            or bounds[0] != 0 or bounds[-1] != t or np.any(np.diff(bounds) <= 0)):
        raise ShapeError(f"segments must be strictly ascending integer bounds from 0 to {t}")
    bounds = bounds.tolist()
    return list(zip(bounds[:-1], bounds[1:]))


def masked_attention(q: Tensor, k: Tensor, v: Tensor, segments) -> Tensor:
    """Causal scaled dot-product attention, blocked by segment.

    k and v are [n_k, heads, d_head]; q is [n_q, heads, d_head] with
    n_q <= n_k, and its rows are the last n_q key positions: query i sits at
    key position n_k - n_q + i. n_q == n_k is the training case; n_q < n_k
    is a decode step whose first n_k - n_q keys and values come from a cache.

    segments are the bounds [0, b_1, ..., n_k] of the packed segments over
    key positions: a token in [b_i, b_i+1) attends to itself and the earlier
    tokens of its own segment, never across a bound. Each segment runs on
    its own [heads, n, d_head] slice with batched matmul, masked by
    np.tri(n_q, n_k, k=n_k - n_q) for its n_q queries and n_k keys, so a
    packed segment gives bit for bit what it gives alone, and a row costs
    sum n_q * n_k rather than T^2. A segment that ends inside the cached
    prefix holds no query and is skipped.

    Each segment block keeps its softmax weights in a [heads, n_q, n_k]
    workspace of its own, so a long row of short segments (a packed
    training batch) never allocates [heads, T, T]. The vjp keeps those
    workspaces and the inputs, no copies.
    """
    if (q.data.ndim != 3 or k.shape != v.shape or k.data.ndim != 3
            or q.shape[1:] != k.shape[1:] or q.shape[0] > k.shape[0]):
        raise ShapeError(f"attention expects q [n_q, heads, d_head] and k, v [n_k >= n_q, heads, "
                         f"d_head], got {q.shape}, {k.shape}, {v.shape}")
    n_q, _, d_head = q.shape
    n_k = k.shape[0]
    prefix = n_k - n_q
    # (first query row, end query row, first key, end key) per segment that holds a query.
    blocks = [(max(a, prefix) - prefix, b - prefix, a, b)
              for a, b in _segment_spans(segments, n_k) if b > prefix]
    k, v = _as_operand(k, q), _as_operand(v, q)
    scale = float(1.0 / np.sqrt(d_head))
    # [heads, T, d_head] views of the [T, heads, d_head] operands.
    qh, kh, vh = (x.data.transpose(1, 0, 2) for x in (q, k, v))
    out = np.empty_like(q.data)
    oh = out.transpose(1, 0, 2)
    weights = []
    for s, e, a, b in blocks:
        ws = np.matmul(qh[:, s:e], kh[:, a:b].transpose(0, 2, 1))
        ws *= scale
        np.copyto(ws, -np.inf, where=~np.tri(e - s, b - a, k=b - a - (e - s), dtype=bool))
        ws -= ws.max(axis=-1, keepdims=True)
        np.exp(ws, out=ws)
        ws /= ws.sum(axis=-1, keepdims=True)
        np.matmul(ws, vh[:, a:b], out=oh[:, s:e])
        weights.append(ws)

    def vjp(g):
        gh = g.transpose(1, 0, 2)
        # Behind a cached prefix, keys of segments with no query get no gradient.
        new = np.zeros_like if prefix else np.empty_like
        gq, gk, gv = np.empty_like(g), new(k.data), new(v.data)
        gqh, gkh, gvh = (x.transpose(1, 0, 2) for x in (gq, gk, gv))
        for (s, e, a, b), ws in zip(blocks, weights):
            go = gh[:, s:e]
            np.matmul(ws.transpose(0, 2, 1), go, out=gvh[:, a:b])
            # d(scores) = w * (g v^T - rowsum(w * g v^T)), and that row sum is g . out.
            gw = np.matmul(go, vh[:, a:b].transpose(0, 2, 1))
            gw -= (go * oh[:, s:e]).sum(axis=-1, keepdims=True)
            gw *= ws
            np.matmul(gw, kh[:, a:b], out=gqh[:, s:e])
            np.matmul(gw.transpose(0, 2, 1), qh[:, s:e], out=gkh[:, a:b])
        gq *= scale
        gk *= scale
        return gq, gk, gv

    return _finish("attention", out, (q, k, v), vjp)


# --- gather / dispatch ---------------------------------------------------------


def gather_rows(x: Tensor, rows: np.ndarray) -> Tensor:
    """Select rows of x (leading axis); adjoint scatter-adds back."""
    rows = np.asarray(rows, dtype=np.intp)
    in_shape = x.data.shape

    def vjp(g):
        acc = np.zeros(in_shape, dtype=g.dtype)
        np.add.at(acc, rows, g)
        return (acc,)

    return _finish("gather_rows", x.data[rows], (x,), vjp)


def _check_distinct(rows: np.ndarray, size: int, what: str) -> None:
    """rows must index distinct entries of range(size)."""
    flat = rows.reshape(-1)
    if flat.size and (flat.min() < 0 or flat.max() >= size
                      or np.bincount(flat, minlength=size).max() > 1):
        raise ShapeError(f"{what} must be distinct indices into {size} rows")


def dispatch_rows(x: Tensor, slots: np.ndarray) -> Tensor:
    """Copy row t of x[T, ...] to rows slots[t, 0], ..., slots[t, K-1] of a
    [T * K, ...] result; slots is [T, K] and holds every row index once.

    The adjoint sums each token's K copies in slot order, with no scatter-add.
    """
    slots = np.asarray(slots, dtype=np.intp)
    t = x.data.shape[0]
    if slots.ndim != 2 or slots.shape[0] != t:
        raise ShapeError(f"slots must be [{t}, K], got {slots.shape}")
    _check_distinct(slots, slots.size, "slots")
    out = np.empty((slots.size,) + x.data.shape[1:], dtype=x.data.dtype)
    out[slots] = x.data[:, None]

    def vjp(g):
        return (g[slots].sum(axis=1),)

    return _finish("dispatch_rows", out, (x,), vjp)


def swiglu(x: Tensor, experts: list, bounds) -> Tensor:
    """Gated feed-forward nets down(silu(gate(x)) * up(x)), one per group of rows.

    experts[i] is (w_gate [hidden, D], w_up [hidden, D], w_down [D, hidden])
    and applies to rows bounds[i]:bounds[i+1] of x[R, D], bounds running
    from 0 to R. An empty group is skipped, and its weights get no gradient.
    Each product is by a contiguous transposed copy of the weight, so a row
    comes out bit for bit the same whatever else shares the call.
    """
    r, d = x.data.shape
    bounds = [int(b) for b in bounds]
    if (len(bounds) != len(experts) + 1 or bounds[0] != 0 or bounds[-1] != r
            or any(a > b for a, b in zip(bounds, bounds[1:]))):
        raise ShapeError(f"bounds must ascend from 0 to {r}, one group per expert")
    weights = [tuple(_as_operand(w, x) for w in ws) for ws in experts]
    for w_gate, w_up, w_down in weights:
        h = w_gate.shape[0]
        if w_gate.shape != (h, d) or w_up.shape != (h, d) or w_down.shape != (d, h):
            raise ShapeError(f"swiglu weights {w_gate.shape}, {w_up.shape}, {w_down.shape} "
                             f"do not fit rows of width {d}")
    out = np.empty_like(x.data)
    saved = []
    for i, (w_gate, w_up, w_down) in enumerate(weights):
        a, b = bounds[i], bounds[i + 1]
        if a == b:
            continue
        rows = x.data[a:b]
        pre = rows @ w_gate.data.T.copy()
        s = _sigmoid(pre)
        gate = pre * s
        up = rows @ w_up.data.T.copy()
        hidden = gate * up
        out[a:b] = hidden @ w_down.data.T.copy()
        saved.append((a, b, i, pre, s, gate, up, hidden))

    def vjp(g):
        gx = np.empty_like(x.data)
        grads = [None] * (3 * len(weights))
        for a, b, i, pre, s, gate, up, hidden in saved:
            w_gate, w_up, w_down = weights[i]
            rows, go = x.data[a:b], g[a:b]
            g_hidden = go @ w_down.data
            g_up = g_hidden * gate
            g_pre = g_hidden * up * (s + pre * s * (1.0 - s))
            gx[a:b] = g_pre @ w_gate.data + g_up @ w_up.data
            grads[3 * i: 3 * i + 3] = g_pre.T @ rows, g_up.T @ rows, go.T @ hidden
        return (gx, *grads)

    return _finish("swiglu", out, (x, *(w for ws in weights for w in ws)), vjp)


def combine_rows(base: Tensor, y: Tensor, gates: Tensor, slots: np.ndarray,
                 cols: np.ndarray) -> Tensor:
    """base[t] + sum over j of gates[t, cols[t, j]] * y[slots[t, j]], j ascending.

    base is [T, D], y [R, D], gates [T, N]; slots and cols are [T, K], each
    slots entry a distinct row of y and each row of cols distinct columns.
    The adjoint writes every gradient row once, with no scatter-add.
    """
    slots = np.asarray(slots, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    t = base.data.shape[0]
    if slots.shape != cols.shape or slots.ndim != 2 or slots.shape[0] != t:
        raise ShapeError(f"slots {slots.shape} and cols {cols.shape} must both be [{t}, K]")
    y, gates = _as_operand(y, base), _as_operand(gates, base)
    _check_distinct(slots, y.data.shape[0], "slots")
    if np.any(np.diff(np.sort(cols, axis=1), axis=1) == 0):
        raise ShapeError("each row of cols must name distinct columns")
    tokens = np.arange(t)
    picked = [gates.data[tokens, cols[:, j]][:, None] for j in range(slots.shape[1])]
    out = base.data.copy()
    for j, w in enumerate(picked):
        out += y.data[slots[:, j]] * w

    def vjp(g):
        gy = np.zeros_like(y.data) if slots.size < y.data.shape[0] else np.empty_like(y.data)
        g_gates = np.zeros_like(gates.data)
        for j, w in enumerate(picked):
            gy[slots[:, j]] = g * w
            g_gates[tokens, cols[:, j]] = (g * y.data[slots[:, j]]).sum(axis=1)
        return g, gy, g_gates

    return _finish("combine_rows", out, (base, y, gates), vjp)


def row_scale(x: Tensor, s: Tensor) -> Tensor:
    """Scale row i of x[T, D] by s[i]."""
    if s.data.ndim != 1 or s.shape[0] != x.shape[0]:
        raise ShapeError(f"row_scale needs s[T] matching x{x.shape}, got {s.shape}")
    s = _as_operand(s, x)
    x_data, s_data = x.data, s.data

    def vjp(g):
        return g * s_data[:, None], (g * x_data).sum(axis=1)

    return _finish("row_scale", x_data * s_data[:, None], (x, s), vjp)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    """Columns [start, stop) of a 2-D tensor."""
    if x.data.ndim != 2:
        raise ShapeError(f"slice_cols needs a 2-D tensor, got {x.shape}")
    if not (0 <= start < stop <= x.shape[1]):
        raise ShapeError(f"column range [{start}, {stop}) out of bounds for {x.shape}")
    in_shape = x.data.shape

    def vjp(g):
        acc = np.zeros(in_shape, dtype=g.dtype)
        acc[:, start:stop] = g
        return (acc,)

    return _finish("slice_cols", x.data[:, start:stop].copy(), (x,), vjp)


def concat_rows(parts: list) -> Tensor:
    """Concatenate tensors along the leading axis."""
    if not parts:
        raise ShapeError("concat_rows of nothing")
    sizes = [p.data.shape[0] for p in parts]
    bounds = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(g[bounds[i]:bounds[i + 1]] for i in range(len(sizes)))

    return _finish("concat_rows", np.concatenate([p.data for p in parts], axis=0), tuple(parts), vjp)
