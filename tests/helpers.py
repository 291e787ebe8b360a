"""Shared verification utilities: finite differences, error metrics and
slow reference kernels that fast paths are checked against."""

import csv
from pathlib import Path

import numpy as np

from sparsecast import tensor as T
from sparsecast.data import CsvSchema, FormatError, LoadedCsv, _resolve_splits
from sparsecast.heads import plan_horizons
from sparsecast.tensor import Graph, ShapeError, Tensor, _finish
from sparsecast.train import TrainingError, head_targets, masked_head_loss


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


def mean_all(a: Tensor) -> Tensor:
    """Mean of all entries, as a scalar tensor."""
    return T.mul(T.sum_all(a), 1.0 / a.data.size)


def reference_sigmoid(x: np.ndarray) -> np.ndarray:
    """The boolean-mask sigmoid that tensor._sigmoid's branch-free form
    replaced, kept as its oracle."""
    # Branch on sign so exp never overflows.
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


# --- the per-expert, per-row training path that grouped dispatch and the
# one-row batch replaced, kept as their oracle --------------------------------


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


def reference_expert_ffn(x: Tensor, ffn) -> Tensor:
    """Apply one gated FFN to x[T, D]."""
    gate = T.silu(T.matmul(x, T.transpose(ffn.w_gate)))
    up = T.matmul(x, T.transpose(ffn.w_up))
    return T.matmul(T.mul(gate, up), T.transpose(ffn.w_down))


def reference_moe_forward(u_norm: Tensor, params, routing) -> Tensor:
    """Gated sum of the shared expert and each token's selected routed experts.

    Experts that no token selected are never evaluated; each token touches
    exactly K + 1 expert FFNs.
    """
    t = u_norm.shape[0]
    out = T.row_scale(reference_expert_ffn(u_norm, params.shared), routing.shared_gate)
    for i in range(params.num_experts):
        rows = np.nonzero((routing.selected == i).any(axis=1))[0]
        if rows.size == 0:
            continue
        tokens = T.gather_rows(u_norm, rows)
        gates = reference_gather_entries(routing.scores, rows, np.full(rows.size, i))
        contribution = T.row_scale(reference_expert_ffn(tokens, params.experts[i]), gates)
        out = T.add(out, reference_scatter_rows(contribution, rows, t))
    return out


def reference_balance_loss(per_layer_routings: list) -> tuple:
    """Differentiable balance penalty averaged over mixture layers, from
    several RouterOutputs per layer (one per batch row)."""
    terms = []
    f_layers = []
    for routings in per_layer_routings:
        scores = T.concat_rows([r.scores for r in routings])
        total, n = scores.shape
        f = sum(r.f * (r.scores.shape[0] / total) for r in routings)
        f_layers.append(f)
        ones = T.constant(np.full((1, total), 1.0 / total), scores.dtype)
        r_mean = T.matmul(ones, scores)  # [1, N]
        weighted = T.mul(r_mean, T.constant(f[None, :], scores.dtype))
        terms.append(T.mul(T.sum_all(weighted), float(n)))
    acc = terms[0]
    for term in terms[1:]:
        acc = T.add(acc, term)
    mean_f = np.mean(np.stack(f_layers), axis=0)
    return T.mul(acc, 1.0 / len(terms)), mean_f


def reference_batch_loss(model, batch, config) -> tuple:
    """Forward every packed row and combine into one scalar loss.

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
        for j, horizon in enumerate(horizons):
            targets, valid = head_targets(tokens, batch.seq_ids[b], batch.pad_mask[b], horizon)
            if not valid.any():
                continue
            head_sum, count = masked_head_loss(result.head_outputs[j], targets, valid,
                                               config.delta)
            sums[j] = head_sum if sums[j] is None else T.add(sums[j], head_sum)
            counts[j] += count
        for layer, routing in enumerate(result.routing):
            layer_routings[layer].append(routing)

    parts = [T.mul(s, 1.0 / c) for s, c in zip(sums, counts) if s is not None and c]
    if not parts:
        raise TrainingError("degenerate batch: every position is masked for every head")
    acc = parts[0]
    for part in parts[1:]:
        acc = T.add(acc, part)
    loss_ar = T.mul(acc, 1.0 / len(parts))

    info = {"loss_ar": float(loss_ar.data)}
    loss = loss_ar
    if model.config.use_moe and layer_routings[0]:
        balance, mean_f = reference_balance_loss(layer_routings)
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
