"""Sparse mixture layer: softmax top-K routing plus a sigmoid-gated shared expert.

Per token, the router produces a softmax distribution over the N routed
experts; the K largest scores are kept verbatim as gates (no renormalization)
and every other expert is skipped entirely. A single shared expert processes
all tokens, weighted by a per-token sigmoid gate read from row N of the
router matrix. Ties in the top-K are broken toward the lower expert index.

The shared expert is expert N, which every token selects. The router is one
linear node and one router_scores node, whose [T, N+1] scores hold the
routed softmax in columns 0..N-1 and the shared gate in column N. Dispatch
is dropless: one mixture op takes the token rows, each token's K + 1
experts (the shared one, then its K picks ascending) and the scores. It
groups the tokens by expert itself, runs every selected expert on its
group, scales each output row by its expert's column of the scores and
adds each token's K + 1 rows, the shared expert's first. While a graph
records it keeps only the experts' transposed weight copies; its vjp
rebuilds every activation and output row. No expert capacity, no dropped
tokens, and three tape nodes whatever the number of experts.
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

    scores: [T, N+1], a row-stochastic softmax over the routed experts in
    columns 0..N-1 and the shared expert's gate, in (0, 1), in column N;
    selected: [T, K] expert indices, each row ascending; f/r: per-expert
    selection fraction and mean score, each summing to 1.
    """

    scores: Tensor
    selected: np.ndarray
    f: np.ndarray
    r: np.ndarray


def expert_ffn(x: Tensor, ffn: ExpertFFN) -> Tensor:
    """Apply one gated FFN to x[T, D]."""
    t = x.shape[0]
    return T.mixture(x, [(ffn.w_gate, ffn.w_up, ffn.w_down)], np.zeros((t, 1), dtype=np.intp),
                     T.constant(np.ones((t, 1)), x.dtype))


def topk_indices(scores: np.ndarray, k: int) -> np.ndarray:
    """Per-row indices of the k largest entries, lower index winning ties."""
    # Stable sort on -scores keeps ascending index order among equal values.
    order = np.argsort(-scores, axis=-1, kind="stable")
    return order[:, :k]


def route_topk(u_norm: Tensor, params: MoeParams, k: int) -> RouterOutput:
    """Score all experts for each token of u_norm[T, D] and keep the top K
    routed ones, each token's picks in ascending expert order."""
    n = params.num_experts
    if not 1 <= k <= n:
        raise ValueError(f"top-k must satisfy 1 <= K <= {n}, got {k}")
    scores = T.router_scores(T.linear(u_norm, params.router))  # [T, N+1]
    routed = scores.data[:, :n]
    picked = np.zeros(routed.shape, dtype=bool)
    np.put_along_axis(picked, topk_indices(routed, k), True, axis=-1)
    # Read row-major, the mask lists each token's picks ascending: no sort.
    selected = np.nonzero(picked)[1].reshape(-1, k)
    f, r = load_stats(selected, routed, k)
    return RouterOutput(scores=scores, selected=selected, f=f, r=r)


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
    each token touches exactly K + 1 expert FFNs, and its output adds its
    gated rows one at a time: the shared expert's, then its picks in
    routing.selected's order, ascending.
    """
    t, n = routing.selected.shape[0], params.num_experts
    # Token t's terms: the shared expert N first, then its picks ascending.
    cols = np.concatenate((np.full((t, 1), n), routing.selected), axis=1)
    experts = [(e.w_gate, e.w_up, e.w_down) for e in params.experts + [params.shared]]
    return T.mixture(u_norm, experts, cols, routing.scores)
