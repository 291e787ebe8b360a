"""Routing, gating, sparse dispatch, and load statistics."""

import numpy as np
import pytest

from sparsecast import moe
from sparsecast import tensor as T
from sparsecast.moe import ExpertFFN, MoeParams, expert_ffn, load_stats, moe_forward, route_topk
from sparsecast.tensor import Graph, Tensor

from helpers import mul, reference_moe_forward, reference_route_topk, routed_gates, sum_all


def make_moe_params(rng, d_model=8, n_experts=4, d_expert=16, dtype=np.float64):
    def ffn():
        return ExpertFFN(
            w_gate=Tensor(rng.normal(scale=0.3, size=(d_expert, d_model)), dtype=dtype),
            w_up=Tensor(rng.normal(scale=0.3, size=(d_expert, d_model)), dtype=dtype),
            w_down=Tensor(rng.normal(scale=0.3, size=(d_model, d_expert)), dtype=dtype),
        )

    return MoeParams(
        router=Tensor(rng.normal(size=(n_experts + 1, d_model)), dtype=dtype),
        experts=[ffn() for _ in range(n_experts)],
        shared=ffn(),
    )


def dense_mixture_oracle(u: np.ndarray, params: MoeParams, routing) -> np.ndarray:
    """Evaluate ALL experts and weight by the (mostly zero) gate matrix."""
    out = np.zeros_like(u)
    shared = expert_ffn(Tensor(u, dtype=u.dtype), params.shared).data
    out += routing.scores.data[:, params.num_experts, None] * shared
    gates = routed_gates(routing)
    for i, exp in enumerate(params.experts):
        y = expert_ffn(Tensor(u, dtype=u.dtype), exp).data
        out += gates[:, i:i + 1] * y
    return out


def test_full_selection_gates_equal_scores():
    rng = np.random.default_rng(0)
    params = make_moe_params(rng)
    u = Tensor(rng.normal(size=(16, 8)), dtype=np.float64)
    routing = route_topk(u, params, k=4)
    np.testing.assert_array_equal(routed_gates(routing), routing.scores.data[:, :4])


def test_topk_monotone_under_softmax():
    rng = np.random.default_rng(1)
    params = make_moe_params(rng)
    # Router built so token 0's routed logits are exactly [2, 1, 0, -1].
    d = 8
    router = np.zeros((5, d))
    router[0, 0] = 2.0
    router[1, 0] = 1.0
    router[2, 0] = 0.0
    router[3, 0] = -1.0
    params.router = Tensor(router, dtype=np.float64)
    u = Tensor(np.eye(1, d), dtype=np.float64)
    routing = route_topk(u, params, k=2)
    assert set(routing.selected[0]) == {0, 1}


def test_topk_matches_full_sort_oracle():
    rng = np.random.default_rng(2)
    params = make_moe_params(rng, d_model=8, n_experts=6)
    u = Tensor(rng.normal(size=(64, 8)), dtype=np.float64)
    k = 3
    routing = route_topk(u, params, k=k)
    scores = routing.scores.data
    gates = routed_gates(routing)
    for t in range(64):
        ranked = sorted(range(6), key=lambda i: (-scores[t, i], i))
        assert set(routing.selected[t]) == set(ranked[:k])
        for i in range(6):
            expect = scores[t, i] if i in ranked[:k] else 0.0
            assert gates[t, i] == pytest.approx(expect, abs=0)


def test_topk_tie_breaks_toward_lower_index():
    scores = np.array([[0.25, 0.25, 0.25, 0.25]])
    idx = moe.topk_indices(scores, 2)
    assert list(idx[0]) == [0, 1]


def test_router_invariants_random_batch():
    rng = np.random.default_rng(3)
    params = make_moe_params(rng)
    u = Tensor(rng.normal(size=(128, 8)), dtype=np.float64)
    routing = route_topk(u, params, k=2)
    np.testing.assert_allclose(routing.scores.data[:, :4].sum(axis=1), 1.0, atol=1e-6)
    nonzero = (routed_gates(routing) != 0).sum(axis=1)
    np.testing.assert_array_equal(nonzero, np.full(128, 2))
    assert routing.f.sum() == pytest.approx(1.0, abs=1e-6)
    assert routing.r.sum() == pytest.approx(1.0, abs=1e-6)
    shared_gate = routing.scores.data[:, 4]
    assert np.all((shared_gate > 0) & (shared_gate < 1))


def test_moe_forward_matches_dense_sum_oracle():
    rng = np.random.default_rng(4)
    params = make_moe_params(rng)
    u_arr = rng.normal(size=(32, 8))
    u = Tensor(u_arr, dtype=np.float64)
    routing = route_topk(u, params, k=2)
    sparse = moe_forward(u, params, routing).data
    dense = dense_mixture_oracle(u_arr, params, routing)
    np.testing.assert_allclose(sparse, dense, atol=1e-6)


def test_moe_forward_zero_experts_leaves_shared_path():
    rng = np.random.default_rng(5)
    params = make_moe_params(rng)
    for exp in params.experts:
        exp.w_down = Tensor(np.zeros_like(exp.w_down.data), dtype=np.float64)
    u = Tensor(rng.normal(size=(8, 8)), dtype=np.float64)
    routing = route_topk(u, params, k=2)
    out = moe_forward(u, params, routing).data
    shared_only = routing.scores.data[:, 4, None] * expert_ffn(u, params.shared).data
    np.testing.assert_allclose(out, shared_only, atol=1e-12)


def test_identical_experts_make_selection_irrelevant():
    rng = np.random.default_rng(6)
    params = make_moe_params(rng)
    clone = params.experts[0]
    params.experts = [clone] * 4
    u = Tensor(rng.normal(size=(5, 8)), dtype=np.float64)

    def routing_with(selected):
        # Routed scores 0.25 each, and the shared expert's gate 0.5.
        scores = Tensor(np.hstack([np.full((5, 4), 0.25), np.full((5, 1), 0.5)]),
                        dtype=np.float64)
        return moe.RouterOutput(
            scores=scores,
            selected=selected,
            f=np.full(4, 0.25), r=np.full(4, 0.25),
        )

    # Uniform scores mean any K-subset carries the same gate mass; with one
    # weight set shared by all experts the selection cannot matter.
    out_a = moe_forward(u, params, routing_with(np.tile([0, 1], (5, 1)))).data
    out_b = moe_forward(u, params, routing_with(np.tile([2, 3], (5, 1)))).data
    np.testing.assert_allclose(out_a, out_b, atol=1e-12)


def test_unselected_experts_not_evaluated(monkeypatch):
    rng = np.random.default_rng(7)
    params = make_moe_params(rng)
    for ffn in params.experts + [params.shared]:
        for w in (ffn.w_gate, ffn.w_up, ffn.w_down):
            w.requires_grad = True
    # Expert 3 scores exactly as expert 0 and loses every tie, so it stays idle.
    params.router.data[3] = params.router.data[0]
    u = Tensor(rng.normal(size=(16, 8)), dtype=np.float64)
    routing = route_topk(u, params, k=1)
    unselected = set(range(4)) - set(np.unique(routing.selected).tolist())
    assert unselected == {3}
    calls = []
    original = T.mixture

    def counting(x, experts, cols, gates):
        rows = np.bincount(np.asarray(cols).reshape(-1), minlength=len(experts))
        calls.append([(id(w_gate), int(n)) for (w_gate, _, _), n in zip(experts, rows)])
        return original(x, experts, cols, gates)

    monkeypatch.setattr(T, "mixture", counting)
    with Graph() as g:
        out = moe_forward(u, params, routing)
        loss = sum_all(mul(out, T.constant(np.ones((16, 8)), np.float64)))
    g.backward(loss)
    shared_id = id(params.shared.w_gate)
    # One grouped call runs the routed experts and, as its last group, the
    # shared one; only the routed experts some token selected get rows, and
    # the op skips an empty group.
    assert len(calls) == 1
    *groups, shared = calls[0]
    selected_ids = {id(params.experts[i].w_gate) for i in np.unique(routing.selected)}
    assert {w for w, rows in groups if rows} == selected_ids
    # Every token is processed once by the shared expert and K times by routed ones.
    assert sum(rows for _, rows in groups) == 16 * 1
    assert shared == (shared_id, 16)
    # An idle expert gets no gradient; a selected one does.
    for i, ffn in enumerate(params.experts):
        grads = [w.grad for w in (ffn.w_gate, ffn.w_up, ffn.w_down)]
        assert all((g is None) == (i in unselected) for g in grads), i


@pytest.mark.parametrize("k", [1, 2, 3])
def test_moe_forward_matches_per_expert_oracle_bitwise(k):
    """Grouped dispatch computes bit for bit what the per-expert loop did, in
    float32 at 1024 tokens."""
    rng = np.random.default_rng(11)
    params = make_moe_params(rng, d_model=32, n_experts=4, d_expert=32, dtype=np.float32)
    u = Tensor(rng.normal(size=(1024, 32)), dtype=np.float32)
    routing = route_topk(u, params, k=k)
    got = moe_forward(u, params, routing).data
    want = reference_moe_forward(u, params, routing).data
    assert got.dtype == np.float32
    assert got.tobytes() == want.tobytes()


def test_moe_gradients_match_per_expert_oracle():
    rng = np.random.default_rng(12)
    params = make_moe_params(rng, d_model=8, n_experts=5, d_expert=8)
    leaves = {"router": params.router}
    for i, ffn in enumerate(params.experts + [params.shared]):
        leaves.update({f"{i}.gate": ffn.w_gate, f"{i}.up": ffn.w_up, f"{i}.down": ffn.w_down})
    u = Tensor(rng.normal(size=(40, 8)), dtype=np.float64, requires_grad=True)
    leaves["u"] = u
    weight = T.constant(rng.normal(size=(40, 8)), np.float64)
    for t in leaves.values():
        t.requires_grad = True

    def grads(mixture):
        for t in leaves.values():
            t.grad = None
        with Graph() as g:
            routing = route_topk(u, params, k=2)
            loss = sum_all(mul(mixture(u, params, routing), weight))
        g.backward(loss)
        return {name: t.grad for name, t in leaves.items()}

    got, want = grads(moe_forward), grads(reference_moe_forward)
    for name in leaves:
        assert (got[name] is None) == (want[name] is None), name
        if want[name] is not None:
            np.testing.assert_allclose(got[name], want[name], rtol=1e-10, atol=1e-12,
                                       err_msg=name)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_route_topk_matches_five_op_router_oracle_bitwise(dtype):
    # router_scores replaced the router's column slices, routed softmax,
    # shared sigmoid and reshape: the scores, the picks, the gates, f and r,
    # and the router's and the input's gradients keep their bits.
    rng = np.random.default_rng(13)
    tokens, d, n, k = 1024, 32, 4, 2
    params = make_moe_params(rng, d_model=d, n_experts=n, dtype=dtype)
    params.router.requires_grad = True
    u_arr, g = (rng.normal(size=shape).astype(dtype) for shape in ((tokens, d), (tokens, n + 1)))

    def new(u):
        routing = route_topk(u, params, k)
        scores = routing.scores
        return routing, scores.data[:, :n], scores.data[:, n], T.weighted_sum(scores, g)

    def old(u):
        routing, shared_gate = reference_route_topk(u, params, k)
        loss = T.add(T.weighted_sum(routing.scores, g[:, :n]), T.weighted_sum(shared_gate, g[:, n]))
        return routing, routing.scores.data, shared_gate.data, loss

    runs = []
    for route in (new, old):
        u = Tensor(u_arr.copy(), requires_grad=True)
        params.router.grad = None
        with Graph() as graph:
            routing, routed, shared_gate, loss = route(u)
        graph.backward(loss)
        # route_topk lists a token's picks ascending, the oracle by score.
        runs.append({"routed": routed, "shared_gate": shared_gate, "gates": routed_gates(routing),
                     "selected": np.sort(routing.selected, axis=1), "f": routing.f, "r": routing.r,
                     "d_router": params.router.grad, "du": u.grad})
    got, want = runs
    for name in want:
        assert got[name].dtype == want[name].dtype, name
        assert got[name].tobytes() == want[name].tobytes(), name
    assert got["routed"].dtype == dtype


def test_load_stats_uniform_symmetry():
    n, k, t = 4, 2, 8
    scores = np.full((t, n), 1.0 / n)
    selected = np.stack([np.arange(t) % n, (np.arange(t) + 1) % n], axis=1)
    f, r = load_stats(selected, scores, k)
    np.testing.assert_allclose(f, np.full(n, 0.25), atol=1e-12)
    np.testing.assert_allclose(r, np.full(n, 0.25), atol=1e-12)


def test_load_stats_total_collapse():
    scores = np.zeros((10, 4))
    scores[:, 0] = 1.0
    selected = np.zeros((10, 1), dtype=int)
    f, _ = load_stats(selected, scores, k=1)
    np.testing.assert_array_equal(f, np.array([1.0, 0, 0, 0]))


def test_load_stats_matches_counting_oracle():
    rng = np.random.default_rng(8)
    params = make_moe_params(rng, n_experts=5)
    u = Tensor(rng.normal(size=(40, 8)), dtype=np.float64)
    k = 2
    routing = route_topk(u, params, k=k)
    counts = np.zeros(5)
    for t in range(40):
        for i in routing.selected[t]:
            counts[i] += 1
    np.testing.assert_array_equal(routing.f, counts / (k * 40))
    expect_r = np.zeros(5)
    for t in range(40):
        expect_r += routing.scores.data[t, :5]
    np.testing.assert_allclose(routing.r, expect_r / 40, atol=1e-12)


def test_route_topk_rejects_bad_k():
    rng = np.random.default_rng(9)
    params = make_moe_params(rng)
    u = Tensor(rng.normal(size=(4, 8)), dtype=np.float64)
    with pytest.raises(ValueError):
        route_topk(u, params, k=0)
    with pytest.raises(ValueError):
        route_topk(u, params, k=5)


def test_routing_gradients_flow_to_router():
    from helpers import check_against_fd

    rng = np.random.default_rng(10)
    params = make_moe_params(rng, d_model=4, n_experts=3, d_expert=4)
    u = Tensor(rng.normal(size=(6, 4)), dtype=np.float64, requires_grad=True)
    leaves = {"u": u, "router": params.router,
              "w_gate0": params.experts[0].w_gate, "shared_down": params.shared.w_down}
    for t in leaves.values():
        t.requires_grad = True

    def forward():
        routing = route_topk(u, params, k=2)
        return sum_all(mul(moe_forward(u, params, routing),
                               T.constant(np.ones((6, 4)), np.float64)))

    check_against_fd(leaves, forward, h=1e-5, tol=1e-4)
