"""Sparse mixture layer: softmax top-K routing plus a sigmoid-gated shared expert.

Per token, the router produces a softmax distribution over the N routed
experts; the K largest scores are kept verbatim as gates (no renormalization)
and every other expert is skipped entirely. A single shared expert processes
all tokens, weighted by a per-token sigmoid gate read from row N of the
router matrix. Ties in the top-K are broken toward the lower expert index.

Dispatch is dropless and expert-sorted: each token's K picks are sorted
ascending and the (token, pick) pairs are stable-sorted by expert into a
slot table. One swiglu op takes the token rows and that table, gathers
each expert's group of rows itself and runs every selected expert on its
group; while a graph records it keeps only each group's sigmoid, and no
routed copy of the rows. One combine op scales the shared expert's output
by its gate and adds each token's K gated rows to it in ascending expert
order. No expert capacity, no dropped tokens, and the tape holds the same
few nodes whatever the number of experts. The router is one linear node;
the gates are a constant read off the scores, since the combine op takes
its gradient through the scores themselves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Tensor


@dataclass
class ExpertFFN:
    """Gated feed-forward net: down(silu(gate(x)) * up(x)), all bias-free.

    gate/up are [hidden, D]; down is [D, hidden].
    """

    w_gate: Tensor
    w_up: Tensor
    w_down: Tensor

    @property
    def hidden(self) -> int:
        return self.w_gate.shape[0]


@dataclass
class MoeParams:
    """N routed experts, one shared expert, and the (N+1) x D router matrix.

    Router rows 0..N-1 score the routed experts; row N drives the shared
    expert's sigmoid gate.
    """

    router: Tensor
    experts: list = field(default_factory=list)
    shared: ExpertFFN | None = None

    @property
    def num_experts(self) -> int:
        return len(self.experts)


@dataclass
class RouterOutput:
    """Routing decisions and load statistics for one token batch.

    scores: [T, N] row-stochastic softmax; gates: [T, N] constant, equal to
    scores on the selected experts and zero elsewhere; selected: [T, K]
    expert indices; shared_gate: [T] in (0, 1); f/r: per-expert selection
    fraction and mean score, each summing to 1.
    """

    scores: Tensor
    gates: Tensor
    selected: np.ndarray
    shared_gate: Tensor
    f: np.ndarray
    r: np.ndarray


def expert_ffn(x: Tensor, ffn: ExpertFFN) -> Tensor:
    """Apply one gated FFN to x[T, D]."""
    t = x.shape[0]
    return T.swiglu(x, [(ffn.w_gate, ffn.w_up, ffn.w_down)], [0, t], np.arange(t)[:, None])


def topk_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Per-row indices of the k largest entries, lower index winning ties."""
    # Stable sort on -scores keeps ascending index order among equal values.
    order = np.argsort(-scores, axis=-1, kind="stable")
    return order[:, :k]


def route_topk(u_norm: Tensor, params: MoeParams, k: int) -> RouterOutput:
    """Score all routed experts for each token of u_norm[T, D] and keep the top K."""
    n = params.num_experts
    if not 1 <= k <= n:
        raise ValueError(f"top-k must satisfy 1 <= K <= {n}, got {k}")
    logits = T.linear(u_norm, params.router)  # [T, N+1]
    scores = T.softmax_lastdim(T.slice_cols(logits, 0, n))
    shared_gate = T.reshape(T.sigmoid(T.slice_cols(logits, n, n + 1)), (u_norm.shape[0],))
    selected = topk_indices(scores.data, k)
    mask = np.zeros_like(scores.data)
    np.put_along_axis(mask, selected, 1.0, axis=-1)
    gates = T.constant(scores.data * mask, scores.dtype)
    f, r = load_stats(selected, scores.data, k)
    return RouterOutput(scores=scores, gates=gates, selected=selected,
                        shared_gate=shared_gate, f=f, r=r)


def load_stats(selected: np.ndarray, scores: np.ndarray, k: int) -> tuple:
    """(f, r): selection fraction per expert and mean routing score per expert.

    f_i counts each of a token's K selections as 1/(K*T); r_i averages the
    softmax scores over tokens. Both sum to 1.
    """
    t, n = scores.shape
    f = np.bincount(selected.reshape(-1), minlength=n).astype(np.float64) / (k * t)
    r = scores.mean(axis=0).astype(np.float64)
    return f, r


def moe_forward(u_norm: Tensor, params: MoeParams, routing: RouterOutput) -> Tensor:
    """Gated sum of the shared expert and each token's selected routed experts.

    Experts that no token selected are never evaluated and get no gradient;
    each token touches exactly K + 1 expert FFNs, and its output equals
    adding the K gated expert rows one expert at a time, lowest index first.
    """
    t, k = routing.selected.shape
    picks = np.sort(routing.selected, axis=1)
    # slots[t, j]: the grouped row of token t's j-th pick; a stable sort by
    # expert keeps each group's tokens ascending.
    slots = np.empty(t * k, dtype=np.intp)
    slots[np.argsort(picks.reshape(-1), kind="stable")] = np.arange(t * k)
    slots = slots.reshape(t, k)
    counts = np.bincount(picks.reshape(-1), minlength=params.num_experts)
    grouped = T.swiglu(u_norm, [(e.w_gate, e.w_up, e.w_down) for e in params.experts],
                       np.concatenate(([0], np.cumsum(counts))), slots)
    return T.combine_rows(expert_ffn(u_norm, params.shared), routing.shared_gate, grouped,
                          routing.scores, slots, picks)
