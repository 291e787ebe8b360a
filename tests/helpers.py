"""Shared verification utilities: finite differences, error metrics and
slow reference kernels that fast paths are checked against."""

import csv
import itertools
import json
import math
import struct
from pathlib import Path

import numpy as np

from sparsecast import tensor as T
from sparsecast.data import (STORE_DTYPE, CleanSeries, CsvSchema, FormatError, LoadedCsv,
                             PackedBatch, SeriesOrigin, _resolve_splits, draw_domain,
                             normalize_weights, sample_batch)
from sparsecast.heads import plan_horizons
from sparsecast.model import Forecaster, ModelConfig, segment_bounds
from sparsecast.moe import RouterOutput, load_stats, topk_indices
from sparsecast.synthetic import build_regime_store
from sparsecast.tensor import (ATTENTION_TILE, _FUTURE, Graph, NumericError, ShapeError, Tensor,
                               _active_graph, _as_operand, _check_distinct_per_row, _finish,
                               _graph_stack, _is_scalar, _recording, _segment_spans, _sigmoid)
from sparsecast.train import ADAM_EPS, TrainingError, head_targets


class ReferenceGraph:
    """Execution-ordered tape of recorded ops.

    Replaying the recorded adjoints in reverse execution order yields the
    gradient of a scalar loss for every requires_grad leaf. One graph per
    forward pass; backward() consumes and drops the tape.

    This is the tape that held every op's output and keyed gradients by
    id(), which tensor.Graph's serial node keys replaced, kept as its oracle.
    """

    def __init__(self):
        self._nodes: list[tuple[Tensor, tuple[Tensor, ...], object]] = []

    def __enter__(self) -> "ReferenceGraph":
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
        nodes = self._nodes
        produced = {id(out) for out, _, _ in nodes}
        grads: dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        leaves: dict[int, Tensor] = {}
        if loss.requires_grad and id(loss) not in produced:
            leaves[id(loss)] = loss
        # Each node leaves the tape as its vjp runs, so what the vjp saved is
        # freed as backward goes rather than all at the end.
        while nodes:
            out, inputs, vjp = nodes.pop()
            g_out = grads.pop(id(out), None)
            del out  # no Tensor is made from here on, so its id cannot recur
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


def central_diff_grad(forward, x: np.ndarray, h: float = 1e-4) -> np.ndarray:
    """Central-difference gradient of scalar forward() w.r.t. x, in place.

    forward must re-read x on every call; x is restored before returning.
    """
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = forward()
        flat[i] = orig - h
        down = forward()
        flat[i] = orig
        gflat[i] = (up - down) / (2.0 * h)
    return grad


def max_rel_err(a: np.ndarray, b: np.ndarray, floor: float = 1e-3) -> float:
    """max_i |a-b| / max(|a|, |b|, floor); floor guards near-zero entries."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0


def check_against_fd(leaves: dict, forward, h: float = 1e-4, tol: float = 1e-4,
                     floor: float = 1e-3, allow_unused: bool = False) -> None:
    """Assert autodiff grads of forward() match central differences per leaf.

    allow_unused treats a missing gradient as zeros (e.g. experts no token
    selected); otherwise an unreached leaf is itself a failure.
    """
    for t in leaves.values():
        t.grad = None
    with Graph() as g:
        loss = forward()
    g.backward(loss)
    for name, t in leaves.items():
        if t.grad is None and allow_unused:
            t.grad = np.zeros_like(t.data)
        assert t.grad is not None, f"no gradient reached leaf {name}"
        ad = t.grad.copy()
        fd = central_diff_grad(lambda: forward().item(), t.data, h=h)
        err = max_rel_err(ad, fd, floor=floor)
        assert err < tol, f"leaf {name}: autodiff vs finite differences rel err {err:.3g}"


def reference_attention(q: Tensor, k: Tensor, v: Tensor, bias: np.ndarray) -> Tensor:
    """Scaled dot-product attention over [T, heads, d_head] with an additive mask.

    bias is a constant [T, T] array of 0 / -inf; -inf entries are unreachable
    (the causal/packing mask always admits the diagonal). This is the dense
    einsum kernel that segment-blocked attention replaced, kept as its oracle.
    """
    if q.data.ndim != 3 or q.shape != k.shape or q.shape != v.shape:
        raise ShapeError(f"attention expects matching [T, heads, d_head], got {q.shape}, {k.shape}, {v.shape}")
    t, _, d_head = q.shape
    if bias.shape != (t, t):
        raise ShapeError(f"attention mask must be [T, T], got {bias.shape}")
    bias = bias.astype(q.data.dtype, copy=False)
    scale = float(1.0 / np.sqrt(d_head))
    scores = np.einsum("ihd,jhd->ihj", q.data, k.data) * scale + bias[:, None, :]
    w = np.exp(scores - scores.max(axis=-1, keepdims=True))
    w = w / w.sum(axis=-1, keepdims=True)
    out = np.einsum("ihj,jhd->ihd", w, v.data)
    q_data, k_data, v_data = q.data, k.data, v.data

    def vjp(g):
        gw = np.einsum("ihd,jhd->ihj", g, v_data)
        gs = w * (gw - (w * gw).sum(axis=-1, keepdims=True))
        gq = scale * np.einsum("ihj,jhd->ihd", gs, k_data)
        gk = scale * np.einsum("ihj,ihd->jhd", gs, q_data)
        gv = np.einsum("ihj,ihd->jhd", w, g)
        return gq, gk, gv

    return _finish("attention", out, (q, k, v), vjp)


def reference_tiled_attention(q: Tensor, k: Tensor, v: Tensor, segments) -> Tensor:
    """Causal scaled dot-product attention, blocked by segment and tiled by query.

    This is the kernel that keeps, per segment, q * scale, k and v with
    their augmented last columns (-lse, 1 and 1) and every tile's softmax
    weights exp(S - lse) for the vjp, which tensor.masked_attention's replay
    of q, k, v and the weights from one log-sum-exp per row replaced, kept
    as its oracle. Its tile math and vjp products are masked_attention's,
    and its contract too.
    """
    if (q.data.ndim != 3 or k.shape != v.shape or k.data.ndim != 3
            or q.shape[1:] != k.shape[1:] or q.shape[0] > k.shape[0]):
        raise ShapeError(f"attention expects q [n_q, heads, d_head] and k, v [n_k >= n_q, heads, "
                         f"d_head], got {q.shape}, {k.shape}, {v.shape}")
    n_q, heads, d_head = q.shape
    n_k = k.shape[0]
    prefix = n_k - n_q
    k, v = _as_operand(k, q), _as_operand(v, q)
    keep = _active_graph() is not None and any(x.requires_grad for x in (q, k, v))
    scale = float(1.0 / np.sqrt(d_head))
    out = np.empty_like(q.data)

    def heads_first(a):
        return a.transpose(1, 0, 2)

    def masked_block(ws, s, e, t0, t1):
        m = t1 - t0
        np.copyto(ws[:, :, t0:], -np.inf, where=_FUTURE[m - (e - s):m, :m])
        return ws

    # Per segment with a query: (a, b, tiles, q * scale | -lse, k | 1, v | 1,
    # each tile's weights), tiles (s, e, t0, t1) holding query rows s:e and
    # key positions t0:t1, both counted from the segment's first query and key.
    kept = []
    for a, b in _segment_spans(segments, n_k):
        if b <= prefix:
            continue
        p0 = max(prefix - a, 0)  # the first query's key position, counted from a
        q0 = a + p0 - prefix
        qh = heads_first(q.data[q0:b - prefix] * scale)
        kh, vh = heads_first(k.data[a:b]), heads_first(v.data[a:b])
        oh = heads_first(out[q0:b - prefix])
        ones = np.ones((heads, b - a, 1), dtype=q.dtype)
        lse = np.empty((heads, b - a - p0, 1), dtype=q.dtype)
        tiles = []
        for t0 in range(p0 // ATTENTION_TILE * ATTENTION_TILE, b - a, ATTENTION_TILE):
            t1 = min(t0 + ATTENTION_TILE, b - a)
            s, e = max(t0, p0) - p0, t1 - p0
            ws = masked_block(np.matmul(qh[:, s:e], kh[:, :t1].transpose(0, 2, 1)), s, e, t0, t1)
            row_max = np.fmax.reduce(ws, axis=-1, keepdims=True)
            ws -= row_max
            np.exp(ws, out=ws)
            row_sum = np.matmul(ws, ones[0, :t1])
            np.matmul(ws, vh[:, :t1], out=oh[:, s:e])
            oh[:, s:e] /= row_sum
            lse[:, s:e] = np.log(row_sum) + row_max
            tiles.append((s, e, t0, t1))
        if keep:
            qa = np.concatenate((qh, -lse), axis=-1)
            k1, v1 = (np.concatenate((x, ones), axis=-1) for x in (kh, vh))
            weights = [np.exp(masked_block(np.matmul(qa[:, s:e], k1[:, :t1].transpose(0, 2, 1)),
                                           s, e, t0, t1))
                       for s, e, t0, t1 in tiles]
            kept.append((a, b, tiles, qa, k1, v1, weights))

    def vjp(g):
        # Tiles add into the key and value gradients; keys no query reaches get 0.
        gq, gk, gv = np.empty_like(g), np.zeros_like(k.data), np.zeros_like(v.data)
        for a, b, tiles, qa, k1, v1, weights in kept:
            gh, oh = heads_first(g[a:b]), heads_first(out[a:b])
            ga = np.concatenate((gh, -(gh * oh).sum(axis=-1, keepdims=True)), axis=-1)
            gqh, gkh, gvh = heads_first(gq[a:b]), heads_first(gk[a:b]), heads_first(gv[a:b])
            for (s, e, _, t1), ws in zip(tiles, weights):
                gvh[:, :t1] += np.matmul(ws.transpose(0, 2, 1), gh[:, s:e])
                # d(scores) = w * (g v^T - g . out): [g | -g . out] [v | 1]^T.
                gw = np.matmul(ga[:, s:e], v1[:, :t1].transpose(0, 2, 1))
                gw *= ws
                np.matmul(gw, k1[:, :t1, :-1], out=gqh[:, s:e])
                gkh[:, :t1] += np.matmul(gw.transpose(0, 2, 1), qa[:, s:e, :-1])
        gq *= scale
        return gq, gk, gv

    return _finish("attention", out, (q, k, v), vjp)


def attention_from_rows(kernel, x: Tensor, weights: list, heads: int,
                        n_q: int | None = None) -> Tensor:
    """kernel(q, k, v, source) on q, k and v projected from the rows x [T, D]
    as model.causal_self_attention projects them: linear by the pairs
    (wq, bq), (wk, bk) and (wv, bv) of weights, a reshape to
    [T, heads, D / heads], and rope at positions 0..T-1 for q and k.

    q comes from the last n_q rows only (every row by default), as a cached
    decode step's does. source is (x, the pairs, the rope tables) when q
    has every row and None otherwise, as the model passes it without and
    with a cache.
    """
    t, d = x.shape
    n_q = t if n_q is None else n_q
    pairs = list(zip(weights[0::2], weights[1::2]))
    cos, sin = T.rope_tables(np.arange(t), heads, d // heads, dtype=x.dtype)
    x_q = x if n_q == t else T.constant(x.data[t - n_q:], x.dtype)
    q, k, v = (T.reshape(T.linear(rows, w, b), (rows.shape[0], heads, d // heads))
               for rows, (w, b) in zip((x_q, x, x), pairs))
    q = T.rope(q, (cos[t - n_q:], sin[t - n_q:]))
    k = T.rope(k, (cos, sin))
    return kernel(q, k, v, (x, pairs, (cos, sin)) if n_q == t else None)


def reference_rollout(model, context, h: int, ensemble: bool = False) -> np.ndarray:
    """Forecast h future points of a univariate context.

    Per plan pick p: run the model on the current context, read head p's
    prediction at the last position, and append those p values. The context
    slides (oldest points dropped) whenever it would exceed max_context.

    With ensemble=True each predicted offset is averaged over every head
    whose horizon reaches it, instead of trusting the scheduled head alone.

    This is the full-recompute rollout that the KV-cached one replaced,
    kept as its oracle.
    """
    context = np.asarray(context, dtype=np.float64).reshape(-1)
    if context.size < 1:
        raise ValueError("cannot forecast from an empty context")
    horizons = model.config.head_horizons
    plan = plan_horizons(h, horizons)
    window = np.array(context, copy=True)
    out = np.empty(0, dtype=np.float64)
    for p in plan:
        if window.size > model.config.max_context:
            window = window[-model.config.max_context:]
        result = model.forward(window)
        head_idx = horizons.index(p)
        if ensemble:
            votes = []
            for j, pj in enumerate(horizons):
                if pj >= p:
                    votes.append(result.head_outputs[j].data[-1, :p])
            step = np.mean(votes, axis=0)
        else:
            step = result.head_outputs[head_idx].data[-1, :]
        step = np.asarray(step, dtype=np.float64)
        window = np.concatenate([window, step])
        out = np.concatenate([out, step])
    assert out.size == h
    return out


def reference_head_targets(tokens: np.ndarray, seq_ids: np.ndarray, pad_mask: np.ndarray,
                           horizon: int) -> tuple:
    """(targets [L, p], valid [L]) by walking every position for its run end and
    filling targets one offset at a time: the loop that train.head_targets
    replaced, kept as its oracle."""
    length = len(tokens)
    run_end = np.empty(length, dtype=np.int64)
    end = length
    for t in range(length - 1, -1, -1):
        if t + 1 < length and seq_ids[t + 1] != seq_ids[t]:
            end = t + 1
        run_end[t] = end
    remaining = run_end - np.arange(length)
    valid = (~pad_mask) & (remaining > horizon)
    targets = np.zeros((length, horizon), dtype=tokens.dtype)
    for o in range(horizon):
        targets[: length - (o + 1), o] = tokens[o + 1:]
    targets[~valid] = 0.0
    return targets, valid


def reference_load_csv(path, schema: CsvSchema | None = None) -> LoadedCsv:
    """Read a header-first numeric CSV into [rows, channels], plus split sizes.

    A non-numeric first column (timestamps) is dropped. Any other non-numeric
    cell is a hard error naming the row and column.

    This is the cell-by-cell parser that the np.loadtxt one replaced, kept
    as its oracle.
    """
    schema = schema or CsvSchema()
    path = Path(path)
    if not path.exists():
        raise FormatError(f"no such file: {path}")
    with open(path, newline="") as f:
        reader = csv.reader(f)
        try:
            header = next(reader)
        except StopIteration:
            raise FormatError(f"{path}: empty file") from None
        rows = list(reader)
    if not rows:
        raise FormatError(f"{path}: no data rows")

    def numeric(cell: str) -> bool:
        try:
            float(cell)
            return True
        except ValueError:
            return False

    start_col = 0
    if header and rows and not numeric(rows[0][0]):
        start_col = 1
    columns = [h.strip() for h in header[start_col:]]
    if schema.columns is not None:
        missing = [c for c in schema.columns if c not in columns]
        if missing:
            raise FormatError(f"{path}: columns {missing} not present (have {columns})")
        keep = [columns.index(c) for c in schema.columns]
        columns = list(schema.columns)
    else:
        keep = list(range(len(columns)))

    values = np.empty((len(rows), len(keep)), dtype=np.float64)
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise FormatError(f"{path}: row {i + 2} has {len(row)} cells, header has {len(header)}")
        for j, col in enumerate(keep):
            cell = row[start_col + col]
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise FormatError(
                    f"{path}: non-numeric cell {cell!r} at row {i + 2}, column "
                    f"{columns[j]!r}") from None
    return LoadedCsv(values=values, columns=columns,
                     splits=_resolve_splits(schema.splits, len(rows)), path=str(path))


def reference_write_csv(path, values: np.ndarray, columns: list | None = None) -> None:
    """Header plus float rows, one csv.writer row at a time: the writer that
    data.write_csv's joined body replaced, kept as its oracle."""
    values = np.asarray(values)
    if values.ndim == 1:
        values = values[:, None]
    columns = columns or [f"c{j}" for j in range(values.shape[1])]
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(columns)
        for row in values:
            writer.writerow([repr(float(v)) for v in row])


def benchmark_model_and_batch(tmp_path):
    """The benchmark's model and a batch of its shape (4 x 256)."""
    cfg = ModelConfig(d_model=32, num_layers=2, num_heads=4, num_experts=4, top_k=2,
                      d_expert=32, head_horizons=(1, 8, 32, 64))
    store = build_regime_store(tmp_path, np.random.default_rng(1), per_regime=2, length=400)
    return Forecaster.init(cfg, seed=0), sample_batch(store, np.random.default_rng(2), 4, 256)


# --- the sampler that indexed the store and read each crop's whole sequence
# from its file on every call, kept as the oracle of sample_batch. It parses
# <name>.idx field by field with struct, not through sparsecast.data ----------


def reference_index(store) -> list:
    """(offset, length, domain) of each sequence of the store's <name>.idx,
    whose sequences tile <name>.bin in index order."""
    raw = (store.directory / f"{store.name}.idx").read_bytes()
    magic, version, names_size, count = struct.unpack_from("<8sIIQ", raw)
    assert (magic, version) == (b"SPCSTIDX", 2), (magic, version)
    names = json.loads(raw[24:24 + names_size])
    lengths = struct.unpack_from(f"<{count}Q", raw, 24 + names_size)
    domain_ids = struct.unpack_from(f"<{count}I", raw, 24 + names_size + 8 * count)
    return list(zip(itertools.accumulate(lengths, initial=0), lengths,
                    [names[d] for d in domain_ids]))


def indices_by_domain(index: list) -> dict:
    out: dict[str, list] = {}
    for i, (_, _, domain) in enumerate(index):
        out.setdefault(domain, []).append(i)
    return out


def reference_read(store, index: list, i: int) -> CleanSeries:
    if not 0 <= i < len(index):
        raise IndexError(f"sequence index {i} out of range [0, {len(index)})")
    offset, length, domain = index[i]
    path = store.directory / f"{store.name}.bin"
    with open(path, "rb") as f:
        f.seek(offset * 4)
        buf = f.read(length * 4)
    if len(buf) != length * 4:
        raise FormatError(f"short read for sequence {i} in {path.name}")
    values = np.frombuffer(buf, dtype=STORE_DTYPE).copy()
    return CleanSeries(values=values, domain=domain, origin=SeriesOrigin(source=str(path)))


def reference_sample_batch(store, rng: np.random.Generator, batch_size: int,
                           context_len: int, domain_weights: dict | None = None) -> PackedBatch:
    """Pack random crops into batch rows, domains drawn by weight.

    Crops are drawn by domain (per weights), then uniformly among that
    domain's sequences, with a uniform start; each crop fills as much of the
    row as remains. Sequences shorter than two points are skipped. Leftover
    positions carry a fresh sequence id and the pad flag.
    """
    index = reference_index(store)
    by_domain = {d: [i for i in idxs if index[i][1] >= 2]
                 for d, idxs in indices_by_domain(index).items()}
    by_domain = {d: idxs for d, idxs in by_domain.items() if idxs}
    if not by_domain:
        raise ValueError("store has no sequences of length >= 2")
    present = sorted(by_domain)
    if domain_weights is None:
        domain_weights = {d: 1.0 for d in present}
    names, probs = normalize_weights(domain_weights, present)

    tokens = np.zeros((batch_size, context_len, 1), dtype=np.float32)
    seq_ids = np.zeros((batch_size, context_len), dtype=np.int64)
    pad_mask = np.zeros((batch_size, context_len), dtype=bool)
    for b in range(batch_size):
        pos = 0
        sid = 0
        while context_len - pos >= 2:
            domain = draw_domain(rng, names, probs)
            seq_index = by_domain[domain][rng.integers(len(by_domain[domain]))]
            values = reference_read(store, index, seq_index).values
            start = int(rng.integers(0, len(values) - 1))  # start <= len - 2
            crop = values[start: start + (context_len - pos)]
            tokens[b, pos: pos + len(crop), 0] = crop
            seq_ids[b, pos: pos + len(crop)] = sid
            pos += len(crop)
            sid += 1
        if pos < context_len:
            seq_ids[b, pos:] = sid
            pad_mask[b, pos:] = True
    return PackedBatch(tokens=tokens, seq_ids=seq_ids, pad_mask=pad_mask)


# --- ops no model path uses, kept for the tests and oracles -----------------


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


def sum_all(a: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    shape = a.data.shape
    dtype = a.data.dtype

    def vjp(g):
        return (np.full(shape, g.reshape(()), dtype=dtype),)

    return _finish("sum", a.data.sum().reshape(()), (a,), vjp)


def mean_all(a: Tensor) -> Tensor:
    """Mean of all entries, as a scalar tensor."""
    return mul(sum_all(a), 1.0 / a.data.size)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise a * b under the same shape rules as add."""
    b = _as_operand(b, a)
    scalar = _is_scalar(a.shape, b.shape)
    a_data, b_data = a.data, b.data

    def vjp(g):
        gb = g * a_data
        return g * b_data, gb.sum().reshape(b_data.shape) if scalar else gb

    return _finish("mul", a_data * b_data, (a, b), vjp)


def sigmoid(x: Tensor) -> Tensor:
    s = _sigmoid(x.data)

    def vjp(g):
        return (g * s * (1.0 - s),)

    return _finish("sigmoid", s, (x,), vjp)


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


def gather_rows(x: Tensor, rows: np.ndarray) -> Tensor:
    """Select rows of x (leading axis); adjoint scatter-adds back."""
    rows = np.asarray(rows, dtype=np.intp)
    in_shape = x.data.shape

    def vjp(g):
        acc = np.zeros(in_shape, dtype=g.dtype)
        np.add.at(acc, rows, g)
        return (acc,)

    return _finish("gather_rows", x.data[rows], (x,), vjp)


def concat_rows(parts: list) -> Tensor:
    """Concatenate tensors along the leading axis."""
    if not parts:
        raise ShapeError("concat_rows of nothing")
    sizes = [p.data.shape[0] for p in parts]
    bounds = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(g[bounds[i]:bounds[i + 1]] for i in range(len(sizes)))

    return _finish("concat_rows", np.concatenate([p.data for p in parts], axis=0), tuple(parts), vjp)


def silu(x: Tensor) -> Tensor:
    """x * sigmoid(x) (the gate activation used throughout the model)."""
    s = _sigmoid(x.data)
    x_data = x.data

    def vjp(g):
        return (g * (s + x_data * s * (1.0 - s)),)

    return _finish("silu", x_data * s, (x,), vjp)


def reference_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) in float64, the oracle of tensor._sigmoid's tanh form;
    exp overflows to inf, and the quotient to 0, far below zero."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x.astype(np.float64)))


# --- grouped dispatch as a copy of the routed rows plus a swiglu that keeps
# every group's activations: the expert path that tensor.mixture's own row
# gathers and activation-free tape replaced, kept as its oracle ---------------


def _check_distinct(rows: np.ndarray, size: int, what: str) -> None:
    """rows must index distinct entries of range(size)."""
    flat = rows.reshape(-1)
    if flat.size and (flat.min() < 0 or flat.max() >= size
                      or np.bincount(flat, minlength=size).max() > 1):
        raise ShapeError(f"{what} must be distinct indices into {size} rows")


def dispatch_rows(x: Tensor, slots: np.ndarray) -> Tensor:
    """Copy row t of x[T, ...] to rows slots[t, 0], ..., slots[t, K-1] of a
    [T * K, ...] result; slots is [T, K] and holds every row index once.

    The adjoint sums each token's K copies in grouped-row order, which is
    the order of their expert groups, as tensor.mixture's vjp does, with no
    scatter-add.
    """
    slots = np.asarray(slots, dtype=np.intp)
    t = x.data.shape[0]
    if slots.ndim != 2 or slots.shape[0] != t:
        raise ShapeError(f"slots must be [{t}, K], got {slots.shape}")
    _check_distinct(slots, slots.size, "slots")
    out = np.empty((slots.size,) + x.data.shape[1:], dtype=x.data.dtype)
    out[slots] = x.data[:, None]

    def vjp(g):
        return (g[np.sort(slots, axis=1)].sum(axis=1),)

    return _finish("dispatch_rows", out, (x,), vjp)


def rule_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b by tensor's product rule, written out as its oracle: a one-row
    a as the first row of a call on a and a zero row; otherwise the partial
    products over 256-wide blocks of the contraction, added in order (one
    block up to 256)."""
    if a.shape[0] == 1:
        pair = np.zeros((2, a.shape[1]), dtype=a.dtype)
        pair[0] = a[0]
        return rule_product(pair, b)[:1]
    parts = [a[:, j:j + 256] @ b[j:j + 256] for j in range(0, a.shape[1], 256)]
    out = parts[0]
    for part in parts[1:]:
        out = out + part
    return out


def rule_forward(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """x @ w.T by tensor's product rule for a forward product: by w's
    transposed copy with zero columns up to a multiple of 16, the padding
    sliced off again."""
    n, k = w.shape
    wt = np.concatenate((w.T, np.zeros((k, -n % 16), dtype=w.dtype)), axis=1)
    return rule_product(x, wt)[:, :n]


def rule_x_grad(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """g @ w by tensor's product rule for an x-gradient: by w with zero
    columns up to a multiple of 16, the padding sliced off again."""
    n, k = w.shape
    wp = np.concatenate((w, np.zeros((n, -k % 16), dtype=w.dtype)), axis=1)
    return rule_product(g, wp)[:, :k]


def reference_swiglu(x: Tensor, experts: list, bounds) -> Tensor:
    """Gated feed-forward nets down(silu(gate(x)) * up(x)), one per group of rows.

    experts[i] is (w_gate [hidden, D], w_up [hidden, D], w_down [D, hidden])
    and applies to rows bounds[i]:bounds[i+1] of x[R, D], bounds running
    from 0 to R. An empty group is skipped, and its weights get no gradient.
    Each product and gradient is by rule_forward, rule_x_grad or
    rule_product, so a row comes out bit for bit the same whatever else
    shares the call. While a graph records, each group keeps gate(x), its
    sigmoid and up(x), and the vjp rebuilds the gated product from them by
    the forward's ops.
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
    inputs = (x, *(w for ws in weights for w in ws))
    keep = _recording(inputs) is not None
    out = np.empty_like(x.data)
    saved = []
    for i, (w_gate, w_up, w_down) in enumerate(weights):
        a, b = bounds[i], bounds[i + 1]
        if a == b:
            continue
        rows = x.data[a:b]
        pre = rule_forward(rows, w_gate.data)
        s = _sigmoid(pre)
        up = rule_forward(rows, w_up.data)
        out[a:b] = rule_forward(pre * s * up, w_down.data)
        if keep:
            saved.append((a, b, i, pre, s, up))

    def vjp(g):
        gx = np.empty_like(x.data)
        grads = [None] * (3 * len(weights))
        for a, b, i, pre, s, up in saved:
            w_gate, w_up, w_down = weights[i]
            rows, go = x.data[a:b], g[a:b]
            gate = pre * s
            g_hidden = rule_x_grad(go, w_down.data)
            g_up = g_hidden * gate
            g_pre = g_hidden * up * (s + pre * s * (1.0 - s))
            gx[a:b] = rule_x_grad(g_pre, w_gate.data) + rule_x_grad(g_up, w_up.data)
            grads[3 * i: 3 * i + 3] = (rule_product(g_pre.T, rows), rule_product(g_up.T, rows),
                                       rule_product(go.T, gate * up))
        return (gx, *grads)

    return _finish("swiglu", out, inputs, vjp)


# --- the combine op that kept its expert outputs: with dispatch_rows and
# reference_swiglu, the expert path that tensor.mixture replaced, kept as its
# oracle ------------------------------------------------------------------------


def combine_rows(y: Tensor, gates: Tensor, slots: np.ndarray, cols: np.ndarray) -> Tensor:
    """sum over j of gates[t, cols[t, j]] * y[slots[t, j]] for each token t,
    the terms added j ascending.

    y is [R, D] and gates [T, C]; slots and cols are [T, K], each slots
    entry a distinct row of y and each row of cols distinct columns. The
    adjoint writes every gradient row once, with no scatter-add.
    """
    slots = np.asarray(slots, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    t = gates.data.shape[0]
    if slots.ndim != 2 or slots.shape != cols.shape or slots.shape[0] != t or slots.shape[1] < 1:
        raise ShapeError(f"slots {slots.shape} and cols {cols.shape} must both be [{t}, K >= 1]")
    gates = _as_operand(gates, y)
    _check_distinct(slots, y.data.shape[0], "slots")
    _check_distinct_per_row(cols, "cols")
    tokens = np.arange(t)
    picked = [gates.data[tokens, cols[:, j]][:, None] for j in range(slots.shape[1])]
    out = y.data[slots[:, 0]] * picked[0]
    for j in range(1, len(picked)):
        out += y.data[slots[:, j]] * picked[j]

    def vjp(g):
        gy = np.zeros_like(y.data) if slots.size < y.data.shape[0] else np.empty_like(y.data)
        g_gates = np.zeros_like(gates.data)
        for j, w in enumerate(picked):
            gy[slots[:, j]] = g * w
            g_gates[tokens, cols[:, j]] = (g * y.data[slots[:, j]]).sum(axis=1)
        return gy, g_gates

    return _finish("combine_rows", out, (y, gates), vjp)


def reference_mixture(x: Tensor, experts: list, cols: np.ndarray, gates: Tensor) -> Tensor:
    """tensor.mixture's result as reference_swiglu's rows of dispatch_rows'
    copy, summed by combine_rows, each row scaled by its expert's column of
    gates. The grouping is its own: a stable sort of cols by expert gives
    each term's grouped row, and a count per expert the group bounds."""
    cols = np.asarray(cols, dtype=np.intp)
    slots = np.empty(cols.size, dtype=np.intp)
    slots[np.argsort(cols.reshape(-1), kind="stable")] = np.arange(cols.size)
    slots = slots.reshape(cols.shape)
    bounds = np.concatenate(([0], np.cumsum(np.bincount(cols.reshape(-1),
                                                        minlength=len(experts)))))
    return combine_rows(reference_swiglu(dispatch_rows(x, slots), experts, bounds), gates,
                        slots, cols)


def routed_gates(routing) -> np.ndarray:
    """[T, N]: each token's routed scores on its selected experts, zero
    elsewhere (the gate table that RouterOutput no longer carries)."""
    routed = routing.scores.data[:, :len(routing.f)]
    mask = np.zeros_like(routed)
    np.put_along_axis(mask, routing.selected, 1.0, axis=-1)
    return routed * mask


# --- the per-expert, per-row training path that grouped dispatch, linear and
# the one-row batch replaced, kept as their oracle ----------------------------


def scalar_huber(x: float, x_hat: float, delta: float = 1.0) -> float:
    """Scalar robust loss: quadratic inside |r| <= delta, linear outside. The
    loss runs tensor.head_loss; this one-value form is kept as its oracle."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    r = abs(x - x_hat)
    return 0.5 * r * r if r <= delta else delta * (r - 0.5 * delta)


def reference_huber(r: np.ndarray, delta: float) -> tuple:
    """(values, slope) of the Huber loss at residuals r: the where/sign chain
    that tensor.head_loss's clipped slope and in-place values replaced, kept as
    their oracle."""
    small = np.abs(r) <= delta
    values = np.where(small, 0.5 * r * r, delta * (np.abs(r) - 0.5 * delta))
    return values, np.where(small, r, delta * np.sign(r))


def huber(pred: Tensor, targets: np.ndarray, delta: float) -> Tensor:
    """Elementwise Huber loss of pred against constant targets by
    reference_huber: with linear before it and weighted_sum after it, the
    chain that tensor.head_loss runs as one op, kept as its oracle."""
    values, slope = reference_huber(pred.data - np.asarray(targets, pred.data.dtype), delta)

    def vjp(g):
        return (g * slope,)

    return _finish("huber", values, (pred,), vjp)


def reference_head_loss(hidden: Tensor, w: Tensor, targets: np.ndarray, weights: np.ndarray,
                        delta: float) -> Tensor:
    """tensor.head_loss as the three ops it replaced: the head's linear, the
    Huber loss and a weighted sum."""
    return T.weighted_sum(huber(T.linear(hidden, w), targets, delta), weights)


def reference_gather_entries(x: Tensor, rows: np.ndarray, cols: np.ndarray) -> Tensor:
    """x[rows[i], cols[i]] as a 1-D tensor."""
    rows = np.asarray(rows, dtype=np.intp)
    cols = np.asarray(cols, dtype=np.intp)
    in_shape = x.data.shape

    def vjp(g):
        acc = np.zeros(in_shape, dtype=g.dtype)
        np.add.at(acc, (rows, cols), g)
        return (acc,)

    return _finish("gather_entries", x.data[rows, cols], (x,), vjp)


def reference_scatter_rows(x: Tensor, rows: np.ndarray, num_rows: int) -> Tensor:
    """Place rows of x at the given indices of a zero [num_rows, ...] tensor."""
    rows = np.asarray(rows, dtype=np.intp)
    if len(rows) != x.data.shape[0]:
        raise ShapeError("one target row index per input row")
    out = np.zeros((num_rows,) + x.data.shape[1:], dtype=x.data.dtype)
    np.add.at(out, rows, x.data)

    def vjp(g):
        return (g[rows],)

    return _finish("scatter_rows", out, (x,), vjp)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose needs a 2-D tensor, got {a.shape}")

    def vjp(g):
        return (g.T.copy(),)

    return _finish("transpose", a.data.T.copy(), (a,), vjp)


def row_scale(x: Tensor, s: Tensor) -> Tensor:
    """Scale row i of x[T, D] by s[i]."""
    if s.data.ndim != 1 or s.shape[0] != x.shape[0]:
        raise ShapeError(f"row_scale needs s[T] matching x{x.shape}, got {s.shape}")
    s = _as_operand(s, x)
    x_data, s_data = x.data, s.data

    def vjp(g):
        return g * s_data[:, None], (g * x_data).sum(axis=1)

    return _finish("row_scale", x_data * s_data[:, None], (x, s), vjp)


def reference_expert_ffn(x: Tensor, ffn) -> Tensor:
    """Apply one gated FFN to x[T, D]."""
    gate = silu(matmul(x, transpose(ffn.w_gate)))
    up = matmul(x, transpose(ffn.w_up))
    return matmul(mul(gate, up), transpose(ffn.w_down))


def reference_route_topk(u_norm: Tensor, params, k: int) -> tuple:
    """(routing, shared_gate) by the router's five ops: linear, two column
    slices, a softmax over the routed logits and a sigmoid of the shared
    one, reshaped to [T]. routing is a RouterOutput whose scores are the
    [T, N] routed softmax alone.

    This is the router chain that tensor.router_scores replaced, kept as
    its oracle.
    """
    n = params.num_experts
    if not 1 <= k <= n:
        raise ValueError(f"top-k must satisfy 1 <= K <= {n}, got {k}")
    logits = T.linear(u_norm, params.router)  # [T, N+1]
    scores = softmax_lastdim(slice_cols(logits, 0, n))
    shared_gate = T.reshape(sigmoid(slice_cols(logits, n, n + 1)), (u_norm.shape[0],))
    selected = topk_indices(scores.data, k)
    f, r = load_stats(selected, scores.data, k)
    return RouterOutput(scores=scores, selected=selected, f=f, r=r), shared_gate


def reference_moe_forward(u_norm: Tensor, params, routing) -> Tensor:
    """Gated sum of the shared expert and each token's selected routed experts.

    Experts that no token selected are never evaluated; each token touches
    exactly K + 1 expert FFNs.
    """
    t = u_norm.shape[0]
    shared_gate = reference_gather_entries(routing.scores, np.arange(t),
                                           np.full(t, params.num_experts))
    out = row_scale(reference_expert_ffn(u_norm, params.shared), shared_gate)
    for i in range(params.num_experts):
        rows = np.nonzero((routing.selected == i).any(axis=1))[0]
        if rows.size == 0:
            continue
        tokens = gather_rows(u_norm, rows)
        gates = reference_gather_entries(routing.scores, rows, np.full(rows.size, i))
        contribution = row_scale(reference_expert_ffn(tokens, params.experts[i]), gates)
        out = T.add(out, reference_scatter_rows(contribution, rows, t))
    return out


def reference_balance_loss(per_layer_routings: list) -> tuple:
    """Differentiable balance penalty averaged over mixture layers, from
    several RouterOutputs per layer (one per batch row)."""
    terms = []
    f_layers = []
    for routings in per_layer_routings:
        n = len(routings[0].f)
        scores = slice_cols(concat_rows([r.scores for r in routings]), 0, n)
        total = scores.shape[0]
        f = sum(r.f * (r.scores.shape[0] / total) for r in routings)
        f_layers.append(f)
        ones = T.constant(np.full((1, total), 1.0 / total), scores.dtype)
        r_mean = matmul(ones, scores)  # [1, N]
        weighted = mul(r_mean, T.constant(f[None, :], scores.dtype))
        terms.append(mul(sum_all(weighted), float(n)))
    acc = terms[0]
    for term in terms[1:]:
        acc = T.add(acc, term)
    mean_f = np.mean(np.stack(f_layers), axis=0)
    return mul(acc, 1.0 / len(terms)), mean_f


def masked_head_loss(pred: Tensor, targets: np.ndarray, valid: np.ndarray,
                     delta: float) -> tuple:
    """(sum of Huber over valid cells as a tensor, number of valid cells)."""
    horizon = pred.shape[1]
    cells = valid[:, None] & np.ones((1, horizon), dtype=bool)
    elementwise = huber(pred, targets, delta)
    masked = mul(elementwise, T.constant(cells.astype(pred.data.dtype), pred.dtype))
    return sum_all(masked), int(cells.sum())


def reference_batch_loss(model, batch, config) -> tuple:
    """Forward every packed row and combine into one scalar loss: the
    per-row loop, with mask, sum and mean chains, that train.batch_loss's
    one packed forward and weighted sums replaced, kept as its oracle.

    Head sums and counts aggregate across rows before averaging, so every
    valid position in the batch carries equal weight. A head with no valid
    cell in the batch drops out of the head average; when every head is
    empty the batch is degenerate and raises TrainingError. Returns (loss
    tensor, info dict of float diagnostics).
    """
    horizons = model.config.head_horizons
    sums = [None] * len(horizons)
    counts = [0] * len(horizons)
    layer_routings: list[list] = [[] for _ in range(model.config.num_layers)]
    for b in range(batch.rows):
        result = model.forward(batch.tokens[b], seq_ids=batch.seq_ids[b])
        tokens = batch.tokens[b, :, 0]
        bounds = segment_bounds(batch.seq_ids[b])
        for j, horizon in enumerate(horizons):
            targets, valid = head_targets(tokens, bounds, batch.pad_mask[b], horizon)
            if not valid.any():
                continue
            head_sum, count = masked_head_loss(result.head_outputs[j], targets, valid,
                                               config.delta)
            sums[j] = head_sum if sums[j] is None else T.add(sums[j], head_sum)
            counts[j] += count
        for layer, routing in enumerate(result.routing):
            layer_routings[layer].append(routing)

    parts = [mul(s, 1.0 / c) for s, c in zip(sums, counts) if s is not None and c]
    if not parts:
        raise TrainingError("degenerate batch: every position is masked for every head")
    acc = parts[0]
    for part in parts[1:]:
        acc = T.add(acc, part)
    loss_ar = mul(acc, 1.0 / len(parts))

    info = {"loss_ar": float(loss_ar.data)}
    loss = loss_ar
    if model.config.use_moe and layer_routings[0]:
        balance, mean_f = reference_balance_loss(layer_routings)
        info["loss_aux"] = float(balance.data)
        info["f_min"] = float(mean_f.min())
        info["f_max"] = float(mean_f.max())
        if config.alpha > 0:
            loss = T.add(loss_ar, mul(balance, config.alpha))
    else:
        info["loss_aux"] = 0.0
        info["f_min"] = None
        info["f_max"] = None
    info["loss"] = float(loss.data)
    return loss, info


def clip_global_norm(model, max_norm: float) -> float:
    """Scale every gradient by max_norm / norm when the global norm exceeds
    max_norm; returns the norm before clipping. With reference_adamw_step,
    the two passes over the gradients that AdamW.step's one norm replaced,
    kept as its oracle."""
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


def reference_adamw_step(self, lr: float) -> None:
    """AdamW.step as a finite check over every gradient, then the update
    loop; self is the train.AdamW whose state it moves."""
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


def reference_optimizer_step(model, optimizer, lr: float) -> float:
    """What train_step ran after backward before AdamW.step took the norm:
    clip_global_norm at the optimizer's grad_clip (inf when unset), then
    the two-loop step. Returns the norm before clipping."""
    clip = optimizer.config.grad_clip
    norm = clip_global_norm(model, math.inf if clip is None else clip)
    reference_adamw_step(optimizer, lr)
    return norm


def corruption_cases(path: Path, masks=(0x01, 0x80, 0xFF)):
    """(label, bytes) of path with each byte XORed by each mask, and of path
    cut at every offset."""
    raw = path.read_bytes()
    for i in range(len(raw)):
        for mask in masks:
            yield f"flip {i} ^ {mask:#x}", raw[:i] + bytes([raw[i] ^ mask]) + raw[i + 1:]
    for i in range(len(raw)):
        yield f"cut at {i}", raw[:i]


def reference_count_params(config: ModelConfig) -> dict:
    """count_params as a closed form per layer: QKV with bias plus a bias-free
    output projection, two norm gains, and either the mixture (router of
    (N+1) x D, N routed plus one shared gated FFN at d_expert) or a dense
    gated FFN at d_ff. The embedding adds 2 D, the final norm D, and each
    head p_j x D; activated drops the (N - K) routed experts per layer."""
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


def reference_flops_per_token(config: ModelConfig, context_len: int = 1024) -> float:
    """flops_per_token as a closed form: the embedding, per layer the attention
    projections and score/value products and the mixture (router plus K
    routed and one shared expert) or dense FFN, and the heads, each x2."""
    d = config.d_model
    embed = 2 * 2 * d
    attn = 2 * 4 * d * d + 2 * 2 * context_len * d
    if config.use_moe:
        mixture = 2 * (config.num_experts + 1) * d \
            + (config.top_k + 1) * 2 * 3 * d * config.d_expert
    else:
        mixture = 2 * 3 * d * config.d_ff
    heads = 2 * d * sum(config.head_horizons)
    return float(embed + config.num_layers * (attn + mixture) + heads)


def reference_match_dense_config(moe_config: ModelConfig) -> ModelConfig:
    """match_dense_config as a closed form: the dense FFN width whose total
    count is nearest the mixture's activated count, at least 1."""
    target = reference_count_params(moe_config)["activated"]
    doc = {**moe_config.to_dict(), "use_moe": False}
    base = ModelConfig.from_dict({**doc, "d_ff": 1})
    per_width = moe_config.num_layers * 3 * moe_config.d_model
    without_ffn = reference_count_params(base)["total"] - per_width
    d_ff = round((target - without_ffn) / per_width)
    return ModelConfig.from_dict({**doc, "d_ff": max(1, int(d_ff))})
