"""Shared verification utilities: finite differences, error metrics and
slow reference kernels that fast paths are checked against."""

import numpy as np

from sparsecast.tensor import Graph, ShapeError, Tensor, _finish


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
