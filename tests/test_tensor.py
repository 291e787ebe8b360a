"""Autodiff core: op semantics, stability, and gradient correctness."""

import math
import zlib

import numpy as np
import pytest

from helpers import (
    check_against_fd,
    max_rel_err,
    mean_all,
    reference_attention,
    reference_gather_entries,
    reference_sigmoid,
)
from sparsecast.model import attention_bias
from sparsecast.tensor import (
    Graph,
    NumericError,
    ShapeError,
    Tensor,
    _sigmoid,
    add,
    combine_rows,
    concat_rows,
    constant,
    dispatch_rows,
    gather_rows,
    huber,
    masked_attention,
    matmul,
    mul,
    reshape,
    rmsnorm,
    rope,
    row_scale,
    sigmoid,
    silu,
    slice_cols,
    softmax_lastdim,
    sum_all,
    swiglu,
    transpose,
)


def t64(arr, requires_grad=False):
    return Tensor(np.asarray(arr), dtype=np.float64, requires_grad=requires_grad)


# --- matmul -------------------------------------------------------------------


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 3)).astype(np.float32)
    out = matmul(Tensor(np.eye(3, dtype=np.float32)), Tensor(a))
    np.testing.assert_array_equal(out.data, a)


def test_matmul_zero_annihilates():
    rng = np.random.default_rng(1)
    a = Tensor(rng.normal(size=(4, 4)).astype(np.float32))
    zero = Tensor(np.zeros((4, 2), dtype=np.float32))
    np.testing.assert_array_equal(matmul(a, zero).data, np.zeros((4, 2), dtype=np.float32))


def test_matmul_matches_triple_loop():
    rng = np.random.default_rng(2)
    a = rng.uniform(-1, 1, size=(4, 5)).astype(np.float32)
    b = rng.uniform(-1, 1, size=(5, 3)).astype(np.float32)
    # Scalar triple-loop reference in float64.
    expect = np.zeros((4, 3), dtype=np.float64)
    for i in range(4):
        for j in range(3):
            acc = 0.0
            for k in range(5):
                acc += float(a[i, k]) * float(b[k, j])
            expect[i, j] = acc
    got = matmul(Tensor(a), Tensor(b)).data
    assert np.max(np.abs(got - expect)) < 1e-6


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeError):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))


def test_matmul_identity_associativity_distributivity():
    rng = np.random.default_rng(3)
    a = Tensor(rng.normal(size=(8, 8)).astype(np.float32))
    b = Tensor(rng.normal(size=(8, 8)).astype(np.float32))
    c = Tensor(rng.normal(size=(8, 8)).astype(np.float32))
    eye = Tensor(np.eye(8, dtype=np.float32))
    np.testing.assert_allclose(matmul(a, eye).data, a.data, atol=1e-5)
    left = matmul(matmul(a, b), c).data
    right = matmul(a, matmul(b, c)).data
    np.testing.assert_allclose(left, right, atol=1e-5)
    dist_l = matmul(a, add(b, c)).data
    dist_r = add(matmul(a, b), matmul(a, c)).data
    np.testing.assert_allclose(dist_l, dist_r, atol=1e-5)


# --- softmax ------------------------------------------------------------------


def test_softmax_uniform_on_equal_logits():
    out = softmax_lastdim(Tensor(np.zeros(4, dtype=np.float32)))
    np.testing.assert_allclose(out.data, np.full(4, 0.25), atol=1e-7)


def test_softmax_no_overflow_on_large_logits():
    out = softmax_lastdim(Tensor(np.array([1000.0, 0.0], dtype=np.float32)))
    assert out.data[0] > 0.999999
    assert out.data[1] < 1e-6


def test_softmax_matches_float64_reference():
    x = np.array([2.0, 1.0, 0.0, -1.0])
    # Independent high-precision evaluation.
    exps = [math.exp(v) for v in x]
    total = sum(exps)
    expect = np.array([e / total for e in exps])
    got = softmax_lastdim(t64(x)).data
    assert np.max(np.abs(got - expect)) < 1e-7


def test_softmax_rows_sum_to_one_and_in_range():
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(scale=5, size=(32, 9)).astype(np.float32))
    y = softmax_lastdim(x).data
    assert np.all(y >= 0) and np.all(y <= 1)
    np.testing.assert_allclose(y.sum(axis=-1), np.ones(32), atol=1e-6)


def test_softmax_rejects_nan():
    with pytest.raises(NumericError):
        softmax_lastdim(Tensor(np.array([0.0, np.nan], dtype=np.float32)))


# --- activations ----------------------------------------------------------------


def test_sigmoid_and_silu_fixed_points():
    assert sigmoid(Tensor(np.array(0.0))).item() == pytest.approx(0.5)
    assert silu(Tensor(np.array(0.0))).item() == 0.0
    assert sigmoid(Tensor(np.array(50.0))).item() == pytest.approx(1.0, abs=1e-7)


def test_silu_at_one_matches_float64_formula():
    expect = 1.0 / (1.0 + math.exp(-1.0))  # x * sigmoid(x) at x = 1
    got = silu(t64(np.array(1.0))).item()
    assert abs(got - expect) < 1e-7


def test_sigmoid_extreme_negative_stays_finite():
    out = sigmoid(Tensor(np.array([-500.0, 500.0], dtype=np.float32)))
    assert np.all(np.isfinite(out.data))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_branch_free_sigmoid_matches_masked_form_bitwise(dtype):
    info = np.finfo(dtype)
    edges = [0.0, -0.0, 1e-30, 0.5, 1.0, 17.0, 88.0, 88.7, 89.0, 700.0, 709.0, 710.0, 1e4,
             float(info.tiny), float(info.max), float(np.nextafter(info.max, 0, dtype=dtype))]
    grid = np.concatenate([edges, np.linspace(-100, 100, 20001), np.geomspace(1e-6, 1e6, 501)])
    x = np.concatenate([grid, -grid]).astype(dtype)
    got, want = _sigmoid(x), reference_sigmoid(x)
    assert got.dtype == dtype
    assert got.tobytes() == want.tobytes()


# --- elementwise rules -----------------------------------------------------------


def test_elementwise_shape_rules():
    a = Tensor(np.ones((3, 4), dtype=np.float32))
    add(a, Tensor(np.ones((3, 4), dtype=np.float32)))
    add(a, Tensor(np.ones(4, dtype=np.float32)))
    add(a, 2.0)
    with pytest.raises(ShapeError):
        add(a, Tensor(np.ones((3, 1), dtype=np.float32)))
    with pytest.raises(ShapeError):
        mul(a, Tensor(np.ones(3, dtype=np.float32)))


def test_mixed_precision_rejected():
    a = Tensor(np.ones(3, dtype=np.float32))
    b = Tensor(np.ones(3), dtype=np.float64)
    with pytest.raises(TypeError):
        add(a, b)


@pytest.mark.filterwarnings("ignore:overflow")
def test_nonfinite_result_raises():
    big = Tensor(np.array([3e38], dtype=np.float32))
    with pytest.raises(NumericError):
        add(big, big)


@pytest.mark.filterwarnings("error")
def test_finite_result_whose_sum_overflows_is_accepted():
    big = Tensor(np.array([1.5e38, 1.5e38], dtype=np.float32))
    out = add(big, big)  # [3e38, 3e38]: finite, though its sum is not
    assert np.all(np.isfinite(out.data))


def test_dispatch_ops_reject_bad_indices():
    x = Tensor(np.ones((3, 2), dtype=np.float32))
    with pytest.raises(ShapeError):
        dispatch_rows(x, np.array([[0, 1], [1, 2], [3, 4]]))  # row 1 twice, row 5 never
    w = [tuple(Tensor(np.ones(shape, dtype=np.float32)) for shape in ((4, 2), (4, 2), (2, 4)))]
    with pytest.raises(ShapeError):
        swiglu(x, w, [0, 2])  # groups must cover all three rows
    y = Tensor(np.ones((6, 2), dtype=np.float32))
    gates = Tensor(np.ones((3, 4), dtype=np.float32))
    with pytest.raises(ShapeError):
        combine_rows(x, y, gates, np.array([[0, 1], [2, 3], [4, 5]]),
                     np.array([[0, 1], [2, 2], [0, 3]]))  # token 1 names column 2 twice


# --- backward basics -------------------------------------------------------------


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6, dtype=np.float32).reshape(2, 3), requires_grad=True)
    with Graph() as g:
        loss = sum_all(x)
    g.backward(loss)
    np.testing.assert_array_equal(x.grad, np.ones((2, 3), dtype=np.float32))


def test_backward_square_closed_form():
    x = Tensor(np.array(3.0, dtype=np.float32), requires_grad=True)
    with Graph() as g:
        loss = mul(x, x)
    g.backward(loss)
    assert x.grad == pytest.approx(6.0)


def test_backward_rejects_nonscalar():
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with Graph() as g:
        y = mul(x, 2.0)
    with pytest.raises(ShapeError):
        g.backward(y)


def test_backward_accumulates_across_calls():
    x = Tensor(np.array(2.0, dtype=np.float32), requires_grad=True)
    for _ in range(2):
        with Graph() as g:
            loss = mul(x, x)
        g.backward(loss)
    assert x.grad == pytest.approx(8.0)


def test_no_recording_without_graph():
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    y = mul(x, 3.0)
    assert not y.requires_grad


def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(99)
        x = Tensor(rng.normal(size=(16, 8)).astype(np.float32))
        w = Tensor(rng.normal(size=(8, 8)).astype(np.float32))
        return softmax_lastdim(matmul(silu(x), w)).data.tobytes()

    assert run() == run()


# --- gradient correctness of every differentiable op ------------------------------


def _rand(rng, shape):
    return rng.normal(size=shape)


def _leafify(rng, shapes):
    return {name: t64(_rand(rng, shape), requires_grad=True) for name, shape in shapes.items()}


OP_CASES = {}


def op_case(name):
    def deco(fn):
        OP_CASES[name] = fn
        return fn
    return deco


@op_case("add_same")
def _(rng):
    leaves = _leafify(rng, {"a": (3, 4), "b": (3, 4)})
    w = constant(_rand(rng, (3, 4)), np.float64)
    return leaves, lambda: sum_all(mul(add(leaves["a"], leaves["b"]), w))


@op_case("add_trailing")
def _(rng):
    leaves = _leafify(rng, {"a": (3, 4), "b": (4,)})
    w = constant(_rand(rng, (3, 4)), np.float64)
    return leaves, lambda: sum_all(mul(add(leaves["a"], leaves["b"]), w))


@op_case("add_scalar")
def _(rng):
    leaves = _leafify(rng, {"a": (3, 4), "b": ()})
    w = constant(_rand(rng, (3, 4)), np.float64)
    return leaves, lambda: sum_all(mul(add(leaves["a"], leaves["b"]), w))


@op_case("mul_same")
def _(rng):
    leaves = _leafify(rng, {"a": (3, 4), "b": (3, 4)})
    return leaves, lambda: sum_all(mul(leaves["a"], leaves["b"]))


@op_case("mul_trailing")
def _(rng):
    leaves = _leafify(rng, {"a": (3, 4), "b": (4,)})
    w = constant(_rand(rng, (3, 4)), np.float64)
    return leaves, lambda: sum_all(mul(mul(leaves["a"], leaves["b"]), w))


@op_case("matmul")
def _(rng):
    leaves = _leafify(rng, {"a": (3, 4), "b": (4, 2)})
    w = constant(_rand(rng, (3, 2)), np.float64)
    return leaves, lambda: sum_all(mul(matmul(leaves["a"], leaves["b"]), w))


@op_case("transpose")
def _(rng):
    leaves = _leafify(rng, {"a": (3, 4)})
    w = constant(_rand(rng, (4, 3)), np.float64)
    return leaves, lambda: sum_all(mul(transpose(leaves["a"]), w))


@op_case("reshape")
def _(rng):
    leaves = _leafify(rng, {"a": (3, 4)})
    w = constant(_rand(rng, (12,)), np.float64)
    return leaves, lambda: sum_all(mul(reshape(leaves["a"], (12,)), w))


@op_case("mean")
def _(rng):
    leaves = _leafify(rng, {"a": (5, 2)})
    return leaves, lambda: mean_all(mul(leaves["a"], leaves["a"]))


@op_case("sigmoid")
def _(rng):
    leaves = _leafify(rng, {"a": (6,)})
    w = constant(_rand(rng, (6,)), np.float64)
    return leaves, lambda: sum_all(mul(sigmoid(leaves["a"]), w))


@op_case("silu")
def _(rng):
    leaves = _leafify(rng, {"a": (6,)})
    w = constant(_rand(rng, (6,)), np.float64)
    return leaves, lambda: sum_all(mul(silu(leaves["a"]), w))


@op_case("softmax")
def _(rng):
    leaves = _leafify(rng, {"a": (4, 5)})
    w = constant(_rand(rng, (4, 5)), np.float64)
    return leaves, lambda: sum_all(mul(softmax_lastdim(leaves["a"]), w))


@op_case("rmsnorm")
def _(rng):
    leaves = _leafify(rng, {"x": (4, 6), "w": (6,)})
    w = constant(_rand(rng, (4, 6)), np.float64)
    return leaves, lambda: sum_all(mul(rmsnorm(leaves["x"], leaves["w"]), w))


@op_case("rope")
def _(rng):
    leaves = _leafify(rng, {"x": (5, 2, 4)})
    pos = np.arange(5)
    w = constant(_rand(rng, (5, 2, 4)), np.float64)
    return leaves, lambda: sum_all(mul(rope(leaves["x"], pos), w))


@op_case("attention")
def _(rng):
    leaves = _leafify(rng, {"q": (4, 2, 4), "k": (4, 2, 4), "v": (4, 2, 4)})
    segments = np.array([0, 1, 4])
    w = constant(_rand(rng, (4, 2, 4)), np.float64)
    return leaves, lambda: sum_all(
        mul(masked_attention(leaves["q"], leaves["k"], leaves["v"], segments), w)
    )


@op_case("huber")
def _(rng):
    # Residuals kept away from the |r| = delta knee so FD stays two-sided smooth.
    pred = _rand(rng, (8,))
    target = pred + np.where(rng.random(8) < 0.5, 0.4, 2.0) * np.sign(_rand(rng, (8,)))
    leaves = {"p": t64(pred, requires_grad=True)}
    tgt = constant(target, np.float64)
    return leaves, lambda: sum_all(huber(leaves["p"], tgt, delta=1.0))


@op_case("gather_rows")
def _(rng):
    leaves = _leafify(rng, {"x": (5, 3)})
    idx = np.array([0, 2, 2, 4])  # repeats exercise the scatter-add adjoint
    w = constant(_rand(rng, (4, 3)), np.float64)
    return leaves, lambda: sum_all(mul(gather_rows(leaves["x"], idx), w))


@op_case("gather_entries")
def _(rng):
    leaves = _leafify(rng, {"x": (5, 4)})
    rows = np.array([0, 1, 1, 4])
    cols = np.array([3, 0, 0, 2])
    w = constant(_rand(rng, (4,)), np.float64)
    return leaves, lambda: sum_all(mul(reference_gather_entries(leaves["x"], rows, cols), w))


@op_case("swiglu")
def _(rng):
    # Three groups of rows 0:2, (empty), 2:5; the empty group's weights are
    # never read, so they are constants here.
    leaves = _leafify(rng, {"x": (5, 4), "g0": (3, 4), "u0": (3, 4), "d0": (4, 3),
                            "g2": (2, 4), "u2": (2, 4), "d2": (4, 2)})
    idle = tuple(constant(_rand(rng, shape), np.float64) for shape in ((6, 4), (6, 4), (4, 6)))
    w = constant(_rand(rng, (5, 4)), np.float64)
    experts = [tuple(leaves[n] for n in ("g0", "u0", "d0")), idle,
               tuple(leaves[n] for n in ("g2", "u2", "d2"))]
    return leaves, lambda: sum_all(mul(swiglu(leaves["x"], experts, [0, 2, 2, 5]), w))


@op_case("dispatch_rows")
def _(rng):
    leaves = _leafify(rng, {"x": (4, 3)})
    slots = np.array([[5, 0], [2, 7], [1, 6], [3, 4]])
    w = constant(_rand(rng, (8, 3)), np.float64)
    return leaves, lambda: sum_all(mul(dispatch_rows(leaves["x"], slots), w))


@op_case("combine_rows")
def _(rng):
    leaves = _leafify(rng, {"base": (3, 2), "y": (7, 2), "gates": (3, 4)})
    slots = np.array([[4, 0], [6, 1], [2, 5]])  # row 3 of y is unused
    cols = np.array([[0, 3], [1, 2], [0, 1]])
    w = constant(_rand(rng, (3, 2)), np.float64)
    return leaves, lambda: sum_all(mul(combine_rows(leaves["base"], leaves["y"], leaves["gates"],
                                                    slots, cols), w))


@op_case("row_scale")
def _(rng):
    leaves = _leafify(rng, {"x": (4, 3), "s": (4,)})
    w = constant(_rand(rng, (4, 3)), np.float64)
    return leaves, lambda: sum_all(mul(row_scale(leaves["x"], leaves["s"]), w))


@op_case("slice_cols")
def _(rng):
    leaves = _leafify(rng, {"x": (4, 6)})
    w = constant(_rand(rng, (4, 3)), np.float64)
    return leaves, lambda: sum_all(mul(slice_cols(leaves["x"], 1, 4), w))


@op_case("concat_rows")
def _(rng):
    leaves = _leafify(rng, {"a": (2, 3), "b": (4, 3)})
    w = constant(_rand(rng, (6, 3)), np.float64)
    return leaves, lambda: sum_all(mul(concat_rows([leaves["a"], leaves["b"]]), w))


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_gradients_match_finite_differences(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    leaves, forward = OP_CASES[name](rng)
    check_against_fd(leaves, forward, h=1e-4, tol=1e-4)


# --- segment-blocked attention against the dense oracle -------------------------------


def _attention_and_grads(kernel, q, k, v, w, mask):
    leaves = [Tensor(x.copy(), requires_grad=True) for x in (q, k, v)]
    with Graph() as g:
        out = kernel(*leaves, mask)
        loss = sum_all(mul(out, constant(w, w.dtype)))
    g.backward(loss)
    return [out.data] + [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-10), (np.float32, 1e-5)])
@pytest.mark.parametrize("segments", [[0, 1], [0, 9], [0, 4, 9], [0, 1, 4, 5, 6, 11]],
                         ids=["T1", "one", "two", "five"])
def test_attention_matches_dense_oracle(segments, dtype, tol):
    segments = np.array(segments)
    t = int(segments[-1])
    ids = np.repeat(np.arange(len(segments) - 1), np.diff(segments))
    rng = np.random.default_rng(t)
    q, k, v, w = (rng.normal(size=(t, 3, 4)).astype(dtype) for _ in range(4))
    got = _attention_and_grads(masked_attention, q, k, v, w, segments)
    want = _attention_and_grads(reference_attention, q, k, v, w, attention_bias(ids))
    for name, a, b in zip(("out", "dq", "dk", "dv"), got, want):
        assert a.dtype == dtype, name
        np.testing.assert_allclose(a, b, rtol=tol, atol=tol, err_msg=name)


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-10), (np.float32, 1e-5)])
@pytest.mark.parametrize("segments, n_q", [([0, 9], 1), ([0, 9], 4), ([0, 4, 9], 5),
                                           ([0, 4, 9], 7), ([0, 1, 4, 5, 6, 11], 8)],
                         ids=["one-last", "one-4", "two-skip-first", "two-7", "five-8"])
def test_attention_with_kv_prefix_matches_last_rows_of_full_call(segments, n_q, dtype, tol):
    # Queries for the last n_q key positions only: the output and dq are the
    # last n_q rows of the full call's, and dk, dv are the full call's when
    # only those rows reach the loss.
    segments = np.array(segments)
    t = int(segments[-1])
    rng = np.random.default_rng([t, n_q])
    q, k, v, w = (rng.normal(size=(t, 3, 4)).astype(dtype) for _ in range(4))
    w[:t - n_q] = 0.0
    full = _attention_and_grads(masked_attention, q, k, v, w, segments)
    cached = _attention_and_grads(masked_attention, q[t - n_q:], k, v, w[t - n_q:], segments)
    for name, a, b in zip(("out", "dq"), cached[:2], full[:2]):
        assert a.shape == (n_q, 3, 4), name
        np.testing.assert_allclose(a, b[t - n_q:], rtol=tol, atol=tol, err_msg=name)
    for name, a, b in zip(("dk", "dv"), cached[2:], full[2:]):
        np.testing.assert_allclose(a, b, rtol=tol, atol=tol, err_msg=name)


def test_attention_rejects_more_queries_than_keys():
    x = Tensor(np.zeros((4, 1, 2), dtype=np.float32))
    with pytest.raises(ShapeError):
        masked_attention(x, Tensor(np.zeros((3, 1, 2), dtype=np.float32)),
                         Tensor(np.zeros((3, 1, 2), dtype=np.float32)), np.array([0, 3]))


@pytest.mark.parametrize("segments", [[0, 3], [1, 4], [0, 2, 2, 4], [0, 3, 2, 4], [0, 4.0],
                                      [[0, 4]]])
def test_attention_rejects_malformed_segments(segments):
    x = Tensor(np.zeros((4, 1, 2), dtype=np.float32))
    with pytest.raises(ShapeError):
        masked_attention(x, x, x, np.array(segments))


# --- rope geometry ----------------------------------------------------------------


def test_rope_identity_at_position_zero():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=(1, 2, 8)).astype(np.float32))
    out = rope(x, np.array([0]))
    np.testing.assert_allclose(out.data, x.data, atol=1e-7)


def test_rope_preserves_norm():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(16, 3, 8)).astype(np.float32))
    out = rope(x, np.arange(16))
    np.testing.assert_allclose(
        np.linalg.norm(out.data, axis=-1), np.linalg.norm(x.data, axis=-1), atol=1e-5
    )


def test_rope_odd_head_dim_rejected():
    with pytest.raises(ShapeError):
        rope(Tensor(np.zeros((2, 1, 3), dtype=np.float32)), np.arange(2))


def test_rope_dot_depends_only_on_offset():
    rng = np.random.default_rng(9)
    q = rng.normal(size=(1, 1, 8))
    k = rng.normal(size=(1, 1, 8))
    dots = {}
    for a in range(16):
        for b in range(16):
            qa = rope(t64(q), np.array([a])).data[0, 0]
            kb = rope(t64(k), np.array([b])).data[0, 0]
            dots[(a, b)] = float(qa @ kb)
    for (a, b), val in dots.items():
        for (c, d), other in dots.items():
            if a - b == c - d:
                assert abs(val - other) < 1e-9


# --- graph bookkeeping ---------------------------------------------------------------


def test_tape_cleared_after_backward():
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    with Graph() as g:
        loss = sum_all(mul(x, x))
    g.backward(loss)
    assert len(g) == 0


def test_shared_input_used_twice_gets_both_contributions():
    x = t64(np.array([1.5]), requires_grad=True)
    with Graph() as g:
        # x*x + 3x: derivative 2x + 3 = 6 at x = 1.5
        loss = sum_all(add(mul(x, x), mul(x, 3.0)))
    g.backward(loss)
    assert x.grad[0] == pytest.approx(6.0)


def test_independent_graphs_on_separate_threads():
    import threading

    results = {}

    def worker(seed):
        x = t64(np.full(4, float(seed)), requires_grad=True)
        with Graph() as g:
            loss = sum_all(mul(x, x))
        g.backward(loss)
        results[seed] = x.grad.copy()

    threads = [threading.Thread(target=worker, args=(s,)) for s in (2, 3, 5)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for seed, grad in results.items():
        np.testing.assert_allclose(grad, np.full(4, 2.0 * seed))
