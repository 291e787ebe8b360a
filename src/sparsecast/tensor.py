"""Dense tensors with reverse-mode automatic differentiation on a recorded tape.

The op set is exactly what the forecaster's math needs: linear, explicit
elementwise addition, reshape, constant-weighted sums (the balance terms),
the router's scores (a softmax over the routed experts plus the shared
expert's sigmoid), a forecast head with its weighted Huber loss
(head_loss), fused norm/rotation/attention kernels and two gated units
(glu for the point embedding, mixture for the experts) with analytic
adjoints. Ops are plain functions, with no operator overloading on
Tensor, and Graph.backward is the one way to backpropagate.

A recorded op keeps only what its vjp reads, and only while a graph
records it (one check, _recording, decides that for every op). The tape
holds keys, not outputs: a node is its own serial key, its inputs' keys
(or the Tensor of a requires_grad leaf), and its vjp, so an output that no
vjp reads, such as a projection that rope rotates or a residual branch that
add sums, is freed as soon as the forward drops it. Attention keeps its
output and one log-sum-exp per query row and head, not its weights, and its
vjp rebuilds the weights from it. A recorded call is given the rows and
weights its q, k and v were projected from, keeps none of the three, and
rebuilds them too, one segment at a time, by linear's, reshape's and
rope's own array math. glu and mixture keep no activation, only their
transposed weight copies: their vjps rebuild the gate pre-activation, its
sigmoid and the up projection by the forward's own ops, and mixture
gathers its rows from the token rows again and rebuilds its expert outputs
for the gates' gradient rather than keep them, 256 rows of a group at a
time. head_loss
keeps only its operands and runs the head's product, its residuals and
their gradients 256 rows at a time. Graph.backward drops each node as its
vjp runs, so each saved array is freed once backward has passed its
node. A training step of the benchmark model at 4 x 256 peaks at about
3.1 MB traced (3.2 MB with the exp form of the sigmoid and a row max and
a row sum kept per attention tile, 3.9 MB when each head ran
a linear, a Huber op and a weighted sum on whole [1024, p] tables and
mixture's vjp rebuilt each group whole, 4.6 MB when attention kept q, k
and v, 6.5 MB when the gated ops also kept their sigmoids and the expert
outputs were kept for the gates' gradient, 8.9 MB when the
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
  rows and sliced back, and an x-gradient product by the weight
  zero-padded to a multiple of 16 columns and sliced back, since OpenBLAS
  rounds a product of another output width by the row count.
linear, glu, mixture and head_loss follow it. mixture's vjp and head_loss
walk their rows in blocks of 256, adding a weight gradient's parts in the
order _times adds them; a row of a padded product has the same bits in a
block as in the whole call, at every width.

Attention is blocked by segment and tiled by query. A packed row of T
tokens is cut into segments given by their bounds [0, b_1, ..., T]; tokens
attend causally within their own segment only, and each segment is cut into
query tiles counted from its own start. A tile scores its queries against
the keys up to its own last query only, in one block, so the masked
triangle above it is never computed and its softmax needs no running max
and sum (an online softmax). A tile makes three elementwise passes over
its [heads, m, keys] block (row max, subtract, exp) besides its products,
and its replay in the vjp two. A segment packed into a row therefore
computes bit for bit what it computes alone, at about half of n^2 per
segment and with no [T, T] mask. Every call, recorded or not, holds one tile's
workspace at a time. The same kernel serves cached decoding, where keys
and values run longer than the queries by a cached prefix; nothing records
a cached call.

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
import math
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


# Weight products zero-pad a weight to a multiple of this many output columns.
_PAD = 16
# _times contracts whole up to this width and in order over blocks of it above.
_BLOCK = 256


def _padded_t(w: np.ndarray) -> np.ndarray:
    """w [n, k] as a contiguous transposed copy [k, n'], zero-padded to
    n' = n rounded up to a multiple of _PAD."""
    n = w.shape[0]
    wt = np.zeros((w.shape[1], n + -n % _PAD), dtype=w.dtype)
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


def _x_grad(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """g [m, n] @ w [n, k], an x-gradient product, by the product rule: by w
    zero-padded to a multiple of _PAD columns, which are sliced off again."""
    return _times(g, _padded_t(w.T) if w.shape[1] % _PAD else w, w.shape[1])


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
        grads = (_x_grad(g, w_data), _times(g.T, x_data))
        return grads if b is None else grads + (g.sum(axis=0),)

    return _finish("linear", out, inputs, vjp)


def reshape(a: Tensor, shape: tuple) -> Tensor:
    if math.prod(shape) != a.data.size:
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
    """1 / (1 + exp(-x)) as 0.5 + 0.5 tanh(x / 2).

    tanh never overflows and saturates to exactly -1 and 1, so the result
    saturates to exactly 0 and 1, with no warning. Its absolute error is
    within one unit in the last place of 0.5 (6e-8 in float32); far below
    zero it keeps no relative precision (sigmoid(-20), 2e-9, is 0 in
    float32). At about half the cost of the exp(-|x|) form, the gated ops
    run it again in their vjps."""
    s = np.tanh(x * 0.5)
    s *= 0.5
    s += 0.5
    return s


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
        gx = _x_grad(g_pre, w.data) + _x_grad(g_up, v.data) if x_grad else None
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


def head_loss(hidden: Tensor, w: Tensor, targets, weights, delta: float) -> Tensor:
    """sum(weights * huber(hidden @ w.T - targets)): a forecast head and its
    weighted Huber loss as one scalar op. hidden is [T, k], w [p, k], and
    targets and weights are constants of shape [T, p]; a cell with residual
    r costs 0.5 * r * r where |r| <= delta and delta * (|r| - delta / 2)
    beyond.

    It holds one block of _BLOCK rows' predictions and residuals at a time
    and keeps only its operands: the vjp rebuilds each block's residual by
    the forward's ops. Products and gradients are linear's (module
    docstring), and the weighted cells are summed at once, as weighted_sum
    sums them.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if hidden.data.ndim != 2 or w.data.ndim != 2 or hidden.shape[1] != w.shape[1]:
        raise ShapeError(f"head_loss needs hidden [T, k] and w [p, k], got {hidden.shape} "
                         f"and {w.shape}")
    w = _as_operand(w, hidden)
    x_data, w_data = hidden.data, w.data
    shape = (len(x_data), len(w_data))
    targets, weights = (np.asarray(a, dtype=x_data.dtype) for a in (targets, weights))
    if targets.shape != shape or weights.shape != shape:
        raise ShapeError(f"head_loss targets {targets.shape} and weights {weights.shape} "
                         f"must be {shape}")
    wt = _padded_t(w_data)

    def residuals():
        """(span, residual) per block of rows: linear's product minus the targets."""
        for start in range(0, shape[0], _BLOCK):
            span = slice(start, start + _BLOCK)
            yield span, _times(x_data[span], wt, shape[1]) - targets[span]

    cells = np.empty(shape, dtype=x_data.dtype)
    for span, r in residuals():
        # With a = |r| and m = min(a, delta), (a - m / 2) * m is 0.5 * r * r
        # where |r| <= delta (a - a / 2 is exact) and delta * (|r| - delta / 2)
        # beyond, bit for bit.
        a = np.abs(r, out=r)
        m = np.minimum(a, delta)
        a -= 0.5 * m
        a *= m
        np.multiply(a, weights[span], out=cells[span])

    def vjp(g):
        gx, gw = np.empty_like(x_data), None
        for span, r in residuals():
            g_pred = g * weights[span]
            g_pred *= np.clip(r, -delta, delta, out=r)
            gx[span] = _x_grad(g_pred, w_data)
            part = _times(g_pred.T, x_data[span])
            gw = part if gw is None else gw + part
        return gx, gw

    return _finish("head_loss", cells.sum().reshape(()), (hidden, w), vjp)


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


def _with_last(a: np.ndarray, last) -> np.ndarray:
    """A copy of a [heads, T, d_head] with one more column, last: a scalar
    or a [heads, T, 1] array."""
    aug = np.empty((*a.shape[:2], a.shape[2] + 1), dtype=a.dtype)
    aug[..., :-1] = a
    aug[..., -1:] = last
    return aug


def masked_attention(q: Tensor, k: Tensor, v: Tensor, segments, source=None) -> Tensor:
    """Causal scaled dot-product attention, blocked by segment and tiled by query.

    k and v are [n_k, heads, d_head]; q is [n_q, heads, d_head] with
    n_q <= n_k, and its rows are the last n_q key positions: query i sits at
    key position n_k - n_q + i. n_q == n_k is the training case; n_q < n_k
    is a decode step whose first n_k - n_q keys and values come from a
    cache, which no graph records.

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

    The passes over a tile's [heads, m, key range] block are few, after
    FlashAttention-2 (Dao, 2023, arXiv 2307.08691, section 3.1): the queries
    are scaled once per segment, the row max comes from np.fmax.reduce, and
    the exp stays unnormalised. The value product and a product by a column
    of ones give the output rows and the row sums, so only the [heads, m,
    d_head] output is divided. That is three elementwise passes over the
    block (max, subtract, exp) and three products (scores, values, row
    sums), where scaling and normalising the block took six passes.
    Each tile's weights are dropped before the next tile is scored, so a
    call holds one tile's workspace, never [heads, n_q, n_k].

    While a graph is recording, the call keeps one log-sum-exp per query row
    and head, lse = max + log(sum), a [heads, n, 1] array per segment. The
    vjp walks the same tiles on per-segment operands with one more column,
    [q * scale | -lse], [k | 1] and [v | 1], and [g | -rowsum(g * out)] for
    the output gradient g, so both subtractions happen inside the products:
    a tile's weights are exp([q * scale | -lse] [k | 1]^T) under the
    diagonal mask, and its score gradient ([g | -rowsum(g * out)]
    [v | 1]^T) * weights. That is two elementwise passes (exp and the
    product by the weights) and five products per tile. The key and value
    gradients are summed over the tiles, holding one tile's weights and its
    score gradient at a time.

    source is (x, ((wq, bq), (wk, bk), (wv, bv)), tables): the rows
    x [n_k, heads * d_head] and the weights that q, k and v were projected
    from, with q = rope(reshape(linear(x, wq, bq)), tables), k the same by
    wk and bk, and v = reshape(linear(x, wv, bv)), so n_q == n_k. A call
    that a graph records must carry it (ShapeError otherwise), so it has no
    cached prefix. It keeps only its output and the log-sum-exp, not q,
    k or v: its vjp rebuilds the three by those ops' own array math
    (linear's padded product plus the bias, the reshape, rope's rotation by
    the same tables), bit for bit, and the linear nodes keep x anyway. It
    rebuilds them one segment at a time, just before that segment's tiles,
    so backward holds one segment's augmented q, k and v, built in place of
    the plain ones, not the row's. A call that nothing records needs no
    source. A training step of the benchmark model at 4 x 256 peaks at about
    3.1 MB traced (3.2 MB with a row max and a row sum kept per tile and
    the exp form of the sigmoid, 3.9 MB before the heads' loss and mixture's
    vjp were row-blocked, 4.6 MB when attention kept q, k and v, 0.79 MB of
    them), and a one-segment 4096-point step at about 18.7 MB (19.7 MB when
    the vjp normalised each tile's block by a kept row max and row sum).
    """
    if (q.data.ndim != 3 or k.shape != v.shape or k.data.ndim != 3
            or q.shape[1:] != k.shape[1:] or q.shape[0] > k.shape[0]):
        raise ShapeError(f"attention expects q [n_q, heads, d_head] and k, v [n_k >= n_q, heads, "
                         f"d_head], got {q.shape}, {k.shape}, {v.shape}")
    n_q, _, d_head = q.shape
    shape = k.shape
    n_k = shape[0]
    prefix = n_k - n_q
    # Per segment that holds a query: its keys a:b, its first query row q0,
    # and its tiles (s, e, t0, t1), from the tile of its first query on:
    # query rows s:e counted from q0 and key positions t0:t1 counted from a.
    segs = []
    for a, b in _segment_spans(segments, n_k):
        if b <= prefix:
            continue
        p0 = max(prefix - a, 0)  # the first query's key position, counted from a
        tiles = []
        for t0 in range(p0 // ATTENTION_TILE * ATTENTION_TILE, b - a, ATTENTION_TILE):
            t1 = min(t0 + ATTENTION_TILE, b - a)
            tiles.append((max(t0, p0) - p0, t1 - p0, t0, t1))
        segs.append((a, b, a + p0 - prefix, tiles))
    k, v = _as_operand(k, q), _as_operand(v, q)
    keep = _recording((q, k, v)) is not None
    if keep and source is None:
        raise ShapeError("a recorded attention call needs the source of its q, k and v")
    if source is not None:
        x, projections, (cos, sin) = source
        if n_q != n_k or x.shape[0] != n_k:
            raise ShapeError(f"attention source rows {x.shape} do not fit q {q.shape} and "
                             f"k {k.shape}")
        rows, projections = x.data, [(w.data, b.data) for w, b in projections]
    scale = float(1.0 / np.sqrt(d_head))
    out = np.empty_like(q.data)

    def masked(ws, s, e, t0, t1):
        """ws [heads, e - s, t1], one tile's block, with its future keys at -inf."""
        m = t1 - t0
        np.copyto(ws[:, :, t0:], -np.inf, where=_FUTURE[m - (e - s):m, :m])
        return ws

    def heads_first(*arrays):
        """[heads, T, d_head] views of [T, heads, d_head] arrays."""
        return (a.transpose(1, 0, 2) for a in arrays)

    lses = []
    for a, b, q0, tiles in segs:
        qs, outs = heads_first(q.data[q0:b - prefix] * scale, out[q0:b - prefix])
        ks, vs = heads_first(k.data[a:b], v.data[a:b])
        ones = np.ones((b - a, 1), dtype=qs.dtype)
        lse = np.empty((*qs.shape[:2], 1), dtype=qs.dtype) if keep else None
        for tile in tiles:
            s, e, _, t1 = tile
            ws = masked(np.matmul(qs[:, s:e], ks[:, :t1].transpose(0, 2, 1)), *tile)
            row_max = np.fmax.reduce(ws, axis=-1, keepdims=True)
            ws -= row_max
            np.exp(ws, out=ws)
            # The row sums as a product too: ws @ 1 takes no elementwise pass.
            row_sum = np.matmul(ws, ones[:t1])
            np.matmul(ws, vs[:, :t1], out=outs[:, s:e])
            del ws
            outs[:, s:e] /= row_sum
            if keep:
                np.add(np.log(row_sum), row_max, out=lse[:, s:e])
        lses.append(lse)

    def vjp(g):
        # A recorded call has no cached prefix, so a segment's queries and keys are
        # both a:b. Tiles add into the key and value gradients.
        gq, gk, gv = np.empty_like(g), np.zeros(shape, g.dtype), np.zeros(shape, g.dtype)
        padded = [(_padded_t(w), bias) for w, bias in projections]

        def rebuilt(i, a, b):
            """Projection i of rows a:b again, by the forward's own ops."""
            wt, bias = padded[i]
            return (_times(rows[a:b], wt, len(bias)) + bias).reshape((b - a, *shape[1:]))

        for (a, b, _, tiles), lse in zip(segs, lses):
            # [q * scale | -lse], [k | 1] and [v | 1], heads first, so the products
            # subtract lse from the scores and g . out from g v^T.
            qa = _with_last(*heads_first(_rotate(rebuilt(0, a, b), cos[a:b], sin[a:b]) * scale),
                            -lse)
            ka = _with_last(*heads_first(_rotate(rebuilt(1, a, b), cos[a:b], sin[a:b])), 1.0)
            va = _with_last(*heads_first(rebuilt(2, a, b)), 1.0)
            gs, outs = heads_first(g[a:b], out[a:b])
            ga = _with_last(gs, -(gs * outs).sum(axis=-1, keepdims=True))
            gqs, gks, gvs = heads_first(gq[a:b], gk[a:b], gv[a:b])
            for tile in tiles:
                s, e, _, t1 = tile
                # The forward's weights exp(S - lse), zero above the diagonal.
                ws = masked(np.matmul(qa[:, s:e], ka[:, :t1].transpose(0, 2, 1)), *tile)
                np.exp(ws, out=ws)
                gvs[:, :t1] += np.matmul(ws.transpose(0, 2, 1), gs[:, s:e])
                # d(scores) = w * (g v^T - rowsum(w * g v^T)), and that row sum is g . out.
                gw = np.matmul(ga[:, s:e], va[:, :t1].transpose(0, 2, 1))
                gw *= ws
                del ws
                np.matmul(gw, ka[:, :t1, :-1], out=gqs[:, s:e])
                gks[:, :t1] += np.matmul(gw.transpose(0, 2, 1), qa[:, s:e, :-1])
                del gw  # before the next tile is scored: two blocks at a time, not three
        gq *= scale
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
        # straight into theirs, and a token's sum runs in group order. A group
        # is walked in blocks of _BLOCK rows, the blocks _times sums a weight
        # gradient over, and each temporary is dropped once read, so backward
        # holds one block's workspace at a time.
        gx, g_gates = np.zeros_like(x_data), np.zeros_like(gate_data)
        grads = [None] * (3 * len(weights))
        for a, b, i, wgt, wut, wdt in saved:
            w_gate, w_up, w_down = weights[i]
            for start in range(a, b, _BLOCK):
                tokens = order[start:min(start + _BLOCK, b)]
                rows, go = x_data[tokens], g[tokens]
                pre, s, up = _gated_hidden(rows, wgt, wut, w_gate.shape[0])
                hidden = pre * s * up
                g_gates[tokens, i] = (go * _times(hidden, wdt, d)).sum(axis=1)
                go *= gate_data[tokens, i, None]
                g_down = _times(go.T, hidden)
                del hidden
                g_pre, g_up, _ = _gated_hidden_grads(_x_grad(go, w_down.data), pre, s, up)
                del pre, s, up
                gx[tokens] += _x_grad(g_pre, w_gate.data) + _x_grad(g_up, w_up.data)
                parts = (_times(g_pre.T, rows), _times(g_up.T, rows), g_down)
                del rows, go, g_pre, g_up
                if start > a:
                    parts = [held + part for held, part in zip(grads[3 * i: 3 * i + 3], parts)]
                grads[3 * i: 3 * i + 3] = parts
        return (gx, g_gates, *grads)

    return _finish("mixture", out, inputs, vjp)

