"""Autodiff core: op semantics, stability, and gradient correctness."""

import ast
import math
import tracemalloc
import weakref
import zlib
from pathlib import Path

import numpy as np
import pytest

import sparsecast

from helpers import (
    attention_from_rows,
    benchmark_model_and_batch,
    check_against_fd,
    combine_rows,
    concat_rows,
    dispatch_rows,
    gather_rows,
    huber,
    matmul,
    max_rel_err,
    mean_all,
    mul,
    reference_attention,
    reference_gather_entries,
    reference_head_loss,
    reference_huber,
    reference_mixture,
    reference_sigmoid,
    reference_swiglu,
    reference_tiled_attention,
    row_scale,
    rule_forward,
    rule_product,
    rule_x_grad,
    scalar_huber,
    sigmoid,
    silu,
    slice_cols,
    softmax_lastdim,
    sum_all,
    transpose,
)
from sparsecast.model import attention_bias
from sparsecast.train import TrainConfig, batch_loss
from sparsecast.tensor import (
    ATTENTION_TILE,
    Graph,
    NumericError,
    ShapeError,
    Tensor,
    _sigmoid,
    add,
    constant,
    glu,
    head_loss,
    linear,
    masked_attention,
    mixture,
    reshape,
    rmsnorm,
    rope,
    rope_tables,
    router_scores,
    weighted_sum,
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


def _linear_and_grads(fn, x, w, g):
    leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, w)]
    with Graph() as graph:
        out = fn(*leaves)
        loss = sum_all(mul(out, constant(g, g.dtype)))
    graph.backward(loss)
    return [out.data] + [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("rows", [3, 1024])
def test_linear_matches_matmul_by_transposed_copy_bitwise(rows):
    # linear replaced matmul(x, transpose(w)); the output keeps its bits.
    # Both gradients follow the product rule: dx is g @ w whole (48 terms,
    # rule_x_grad), and dw is g.T @ x (rule_product), whole up to 256 rows
    # and summed over 256-row blocks in order above, whose bits do not
    # depend on the BLAS thread count. The matmul's g @ (transposed copy).T and
    # (x.T @ g).T round in other orders, so each gradient of both is held to
    # the float32 error bound of its dot products, which every order meets:
    # |got - exact| <= terms * eps * (|a| @ |b|), exact product in float64.
    rng = np.random.default_rng(rows)
    x, w, g = (rng.normal(size=shape).astype(np.float32)
               for shape in ((rows, 32), (48, 32), (rows, 48)))
    out, dx, dw = _linear_and_grads(linear, x, w, g)
    want_out, want_dx, want_dw = _linear_and_grads(lambda a, b: matmul(a, transpose(b)), x, w, g)
    assert out.tobytes() == want_out.tobytes()
    assert dx.tobytes() == rule_x_grad(g, w).tobytes()
    assert dw.tobytes() == rule_product(g.T, x).tobytes()
    eps = np.finfo(np.float32).eps
    for got, want, (a, b) in ((dx, want_dx, (g, w)), (dw, want_dw, (g.T, x))):
        bound = a.shape[1] * eps * (np.abs(a).astype(np.float64) @ np.abs(b))
        for grad in (got, want):
            assert np.all(np.abs(grad - a.astype(np.float64) @ b) <= bound)


def test_linear_row_does_not_depend_on_row_count():
    rng = np.random.default_rng(6)
    x, w = (rng.normal(size=shape).astype(np.float32) for shape in ((1024, 32), (32, 32)))
    b = Tensor(rng.normal(size=32).astype(np.float32))
    full = linear(Tensor(x), Tensor(w), b).data
    for rows in (slice(0, 1), slice(256, 512), slice(1000, 1024)):
        assert linear(Tensor(x[rows]), Tensor(w), b).data.tobytes() == full[rows].tobytes()


def test_one_column_linear_row_does_not_depend_on_row_count():
    # numpy multiplies by a one-column matrix (the horizon-1 head) with gemv,
    # whose rounding for a row depends on where the row falls in the call.
    rng = np.random.default_rng(6)
    x, w = (rng.normal(size=shape).astype(np.float32) for shape in ((1024, 32), (1, 32)))
    b = Tensor(rng.normal(size=1).astype(np.float32))
    full = linear(Tensor(x), Tensor(w), b).data
    for rows in (slice(0, 1), slice(0, 150), slice(256, 512), slice(1021, 1024)):
        assert linear(Tensor(x[rows]), Tensor(w), b).data.tobytes() == full[rows].tobytes()


@pytest.mark.parametrize("n", [5, 8, 16, 32, 33, 40, 48, 64])
@pytest.mark.parametrize("rows", [7, 517, 8192])
def test_narrow_linear_rows_match_single_row_calls_bitwise(n, rows):
    # On OpenBLAS, x @ w.T for a weight of 5 or 8 rows (the router, the
    # horizon-8 head) rounds a row by the call's row count and the row's
    # place in it, and so does the x-gradient g @ w.T-view at 8 to 48 rows.
    # linear pads a narrow weight with zero rows and takes g @ w instead,
    # whole: at 64 rows, the horizon-64 head, only a one-row g @ w rounds
    # differently, and the product rule runs it as two rows.
    rng = np.random.default_rng([n, rows])
    x, w, g = (rng.normal(size=shape).astype(np.float32)
               for shape in ((rows, 32), (n, 32), (rows, n)))
    out, dx, _ = _linear_and_grads(linear, x, w, g)
    singles = [_linear_and_grads(linear, x[i:i + 1], w, g[i:i + 1]) for i in range(rows)]
    assert np.concatenate([one[0] for one in singles]).tobytes() == out.tobytes()
    assert np.concatenate([one[1] for one in singles]).tobytes() == dx.tobytes()


@pytest.mark.parametrize("k", [48, 64, 96, 512])
@pytest.mark.parametrize("rows", [7, 517])
def test_wide_contraction_linear_rows_match_single_row_calls_bitwise(k, rows):
    # The product rule: a contraction of up to 256 (d_model 64 and 96) runs
    # whole, a wider one is summed in order over 256-wide blocks (whole,
    # a row of a 512-wide product rounds by the row count), and a one-row
    # call runs as two rows (numpy's one-row path rounds a 64-wide row
    # differently).
    rng = np.random.default_rng([k, rows])
    x, w, g = (rng.normal(size=shape).astype(np.float32)
               for shape in ((rows, k), (32, k), (rows, 32)))
    out, dx, _ = _linear_and_grads(linear, x, w, g)
    assert out.tobytes() == rule_forward(x, w).tobytes()
    singles = [_linear_and_grads(linear, x[i:i + 1], w, g[i:i + 1]) for i in range(rows)]
    assert np.concatenate([one[0] for one in singles]).tobytes() == out.tobytes()
    assert np.concatenate([one[1] for one in singles]).tobytes() == dx.tobytes()


def test_linear_rejects_mismatched_operands():
    x = Tensor(np.ones((3, 4), dtype=np.float32))
    with pytest.raises(ShapeError):
        linear(x, Tensor(np.ones((2, 3), dtype=np.float32)))
    with pytest.raises(ShapeError):
        linear(x, Tensor(np.ones((2, 4), dtype=np.float32)), Tensor(np.ones(4, dtype=np.float32)))


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
@pytest.mark.parametrize("dtype, tol", [(np.float32, 1.5e-7), (np.float64, 1e-15)],
                         ids=["float32", "float64"])
def test_tanh_sigmoid_is_within_tolerance_of_float64_and_saturates(dtype, tol):
    # 0.5 + 0.5 tanh(x / 2) on zeros of both signs, subnormals and magnitudes
    # far past exp's range: within tol of the float64 1 / (1 + exp(-x)), no
    # NaN and no warning, and exactly 0 and 1 once tanh saturates.
    info = np.finfo(dtype)
    edges = [0.0, -0.0, 1e-30, 0.5, 1.0, 17.0, 88.0, 88.7, 89.0, 700.0, 709.0, 710.0, 1e4, 1e30,
             float(info.smallest_subnormal), float(info.smallest_subnormal) * 3,
             float(info.tiny) / 2, float(info.tiny), float(info.max),
             float(np.nextafter(info.max, 0, dtype=dtype))]
    grid = np.concatenate([edges, np.linspace(-100, 100, 20001), np.geomspace(1e-6, 1e30, 721)])
    x = np.concatenate([grid, -grid]).astype(dtype)
    assert np.any((x != 0) & (np.abs(x) < info.tiny)), "no subnormal input"
    got = _sigmoid(x)
    assert got.dtype == dtype and not np.isnan(got).any()
    err = np.abs(got.astype(np.float64) - reference_sigmoid(x))
    assert err.max() <= tol, f"max error {err.max():.3g} at x = {x[err.argmax()]}"
    assert ((got >= 0) & (got <= 1)).all()
    far = np.abs(x) >= 100
    assert (got[far] == (x[far] > 0)).all(), "not saturated to exactly 0 and 1"
    assert _sigmoid(np.array([-0.0, 0.0], dtype=dtype)).tolist() == [0.5, 0.5]


def _head_loss_and_grads(kernel, hidden, w, targets, weights, delta):
    leaves = [Tensor(a.copy(), requires_grad=True) for a in (hidden, w)]
    with Graph() as graph:
        loss = kernel(*leaves, targets, weights, delta)
    graph.backward(loss)
    return [loss.data] + [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("horizon", [1, 64])
@pytest.mark.parametrize("t", [1, 255, 256, 257, 1024])
def test_head_loss_matches_linear_huber_weighted_sum_bitwise(t, horizon, dtype):
    # One op against the chain it replaced, linear, the where/sign Huber
    # chain and weighted_sum: the loss and the gradients of hidden and w
    # bit for bit, on both sides of a 256-row block and with a one-row
    # tail. Every third row is invalid (weight 0), as a masked anchor is,
    # and many residuals lie past delta.
    rng = np.random.default_rng([t, horizon])
    d = 32
    hidden = rng.normal(size=(t, d)).astype(dtype)
    w = rng.normal(scale=0.3, size=(horizon, d)).astype(dtype)
    targets = rng.normal(size=(t, horizon)).astype(dtype)
    column = np.where(np.arange(t) % 3 == 2, 0.0, 1.0 / t).astype(dtype)
    weights = np.broadcast_to(column[:, None], targets.shape)
    got, want = (_head_loss_and_grads(kernel, hidden, w, targets, weights, 1.0)
                 for kernel in (head_loss, reference_head_loss))
    for name, a, b in zip(("loss", "d_hidden", "d_w"), got, want):
        assert a.dtype == dtype, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("delta", [1.0, 0.1, 2.5])
def test_huber_matches_where_sign_chain_bitwise(dtype, delta):
    # head_loss's in-place Huber cells and clipped slope against the
    # where/sign chain at the knee and across magnitudes: a one-wide head of
    # weight 1, so each row's residual is its value.
    edge = float(dtype(delta))
    near = [edge, float(np.nextafter(dtype(edge), 0)), float(np.nextafter(dtype(edge), 10))]
    grid = np.concatenate([[0.0, 1e-40, 1e-30, 0.5], near, np.linspace(-50, 50, 20001),
                           np.geomspace(1e-6, 1e6, 501)])
    r = np.concatenate([grid, -grid]).astype(dtype)[:, None]
    got, want = (_head_loss_and_grads(kernel, r, np.ones((1, 1), dtype), np.zeros_like(r),
                                      np.ones_like(r), delta)
                 for kernel in (head_loss, reference_head_loss))
    for name, a, b in zip(("loss", "slope", "d_w"), got, want):
        assert a.dtype == dtype, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("delta", [1.0, 0.1, 2.5])
def test_huber_matches_scalar_huber_elementwise(delta):
    r = np.concatenate([[0.0, delta, float(np.nextafter(delta, 10))],
                        np.linspace(-50, 50, 2001), np.geomspace(1e-6, 1e6, 101)])
    one = Tensor(np.ones((1, 1)))
    values = [head_loss(Tensor([[x]]), one, [[0.0]], [[1.0]], delta).item() for x in r]
    assert values == [scalar_huber(x, 0.0, delta) for x in r]


def test_head_loss_rejects_bad_operands():
    hidden, w = Tensor(np.zeros((3, 2))), Tensor(np.zeros((4, 2)))
    cells = np.zeros((3, 4))
    for bad in ((hidden, Tensor(np.zeros((4, 3))), cells, cells),
                (hidden, w, np.zeros((3, 1)), cells), (hidden, w, cells, np.zeros((3, 1)))):
        with pytest.raises(ShapeError):
            head_loss(*bad, 1.0)
    for delta in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="delta"):
            head_loss(hidden, w, cells, cells, delta)


# --- elementwise rules -----------------------------------------------------------


def test_elementwise_shape_rules():
    a = Tensor(np.ones((3, 4), dtype=np.float32))
    add(a, Tensor(np.ones((3, 4), dtype=np.float32)))
    add(a, 2.0)
    with pytest.raises(ShapeError):
        add(a, Tensor(np.ones((3, 1), dtype=np.float32)))
    with pytest.raises(ShapeError):
        mul(a, Tensor(np.ones(3, dtype=np.float32)))


@pytest.mark.parametrize("op", [add, mul])
def test_trailing_vector_is_no_elementwise_operand(op):
    # Biases live inside linear; elementwise ops take equal shapes or a scalar.
    with pytest.raises(ShapeError):
        op(Tensor(np.ones((3, 4), dtype=np.float32)), Tensor(np.ones(4, dtype=np.float32)))


def test_weighted_sum_takes_weights_of_the_exact_shape():
    x = Tensor(np.ones((3, 4), dtype=np.float32))
    assert weighted_sum(x, np.full((3, 4), 0.5)).item() == 6.0
    for shape in ((4,), (1, 4), (3, 1), (4, 3), ()):
        with pytest.raises(ShapeError):
            weighted_sum(x, np.ones(shape))


def test_mixed_precision_rejected():
    a = Tensor(np.ones(3, dtype=np.float32))
    b = Tensor(np.ones(3), dtype=np.float64)
    with pytest.raises(TypeError):
        add(a, b)
    with pytest.raises(TypeError):
        rope(t64(np.ones((3, 1, 2))), rope_tables(np.arange(3), 1, 2, dtype=np.float32))


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
    one, two = (Tensor(np.ones((3, n), dtype=np.float32)) for n in (1, 2))
    for cols in (np.array([[0, 1], [1, 0], [1, 2]]),  # expert 2 of two
                 np.array([[0, 1], [1, -1], [1, 0]]),  # expert -1
                 np.array([0, 1, 0]),  # no K axis
                 np.array([[0, 1], [1, 0]]),  # one token short
                 np.array([[0, 1], [1, 1], [1, 0]])):  # token 1 names expert 1 twice
        with pytest.raises(ShapeError):
            mixture(x, w + w, cols, two)
    for gates in (one, Tensor(np.ones((2, 2), dtype=np.float32))):  # a column or a token short
        with pytest.raises(ShapeError):
            mixture(x, w + w, np.array([[0, 1], [1, 0], [0, 1]]), gates)
    y = Tensor(np.ones((6, 2), dtype=np.float32))
    gates = Tensor(np.ones((3, 4), dtype=np.float32))
    with pytest.raises(ShapeError):
        combine_rows(y, gates, np.array([[0, 1], [2, 3], [4, 5]]),
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


@op_case("add_scalar")
def _(rng):
    leaves = _leafify(rng, {"a": (3, 4), "b": ()})
    w = constant(_rand(rng, (3, 4)), np.float64)
    return leaves, lambda: sum_all(mul(add(leaves["a"], leaves["b"]), w))


@op_case("mul_same")
def _(rng):
    leaves = _leafify(rng, {"a": (3, 4), "b": (3, 4)})
    return leaves, lambda: sum_all(mul(leaves["a"], leaves["b"]))


@op_case("matmul")
def _(rng):
    leaves = _leafify(rng, {"a": (3, 4), "b": (4, 2)})
    w = constant(_rand(rng, (3, 2)), np.float64)
    return leaves, lambda: sum_all(mul(matmul(leaves["a"], leaves["b"]), w))


@op_case("linear")
def _(rng):
    leaves = _leafify(rng, {"x": (3, 4), "w": (2, 4)})
    w = constant(_rand(rng, (3, 2)), np.float64)
    return leaves, lambda: sum_all(mul(linear(leaves["x"], leaves["w"]), w))


@op_case("linear_bias")
def _(rng):
    leaves = _leafify(rng, {"x": (3, 4), "w": (2, 4), "b": (2,)})
    w = constant(_rand(rng, (3, 2)), np.float64)
    return leaves, lambda: sum_all(mul(linear(leaves["x"], leaves["w"], leaves["b"]), w))


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


@op_case("router_scores")
def _(rng):
    leaves = _leafify(rng, {"z": (4, 5)})
    w = constant(_rand(rng, (4, 5)), np.float64)
    return leaves, lambda: sum_all(mul(router_scores(leaves["z"]), w))


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
    tables = rope_tables(pos, 2, 4, dtype=np.float64)
    return leaves, lambda: sum_all(mul(rope(leaves["x"], tables), w))


@op_case("attention")
def _(rng):
    leaves = _leafify(rng, {"x": (4, 8), "wq": (8, 8), "bq": (8,), "wk": (8, 8), "bk": (8,),
                            "wv": (8, 8), "bv": (8,)})
    weights = [leaves[name] for name in _PROJECTIONS]
    w = constant(_rand(rng, (4, 2, 4)), np.float64)
    return leaves, lambda: sum_all(
        mul(attention_from_rows(_masked([0, 1, 4]), leaves["x"], weights, 2), w)
    )


@op_case("head_loss")
def _(rng):
    # Residuals kept away from the |r| = delta knee so FD stays two-sided smooth.
    leaves = _leafify(rng, {"hidden": (5, 3), "w": (4, 3)})
    pred = leaves["hidden"].data @ leaves["w"].data.T
    targets = pred + np.where(rng.random((5, 4)) < 0.5, 0.4, 2.0) * np.sign(_rand(rng, (5, 4)))
    weights = _rand(rng, (5, 4))
    weights[1] = 0.0
    return leaves, lambda: head_loss(leaves["hidden"], leaves["w"], targets, weights, delta=1.0)


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


@op_case("mixture")
def _(rng):
    # Three tokens, each naming the shared expert 3 first and then experts
    # 0 and 2; group 1 is empty, so its weights are constants here. The
    # gates are a leaf, and expert i reads column i.
    leaves = _leafify(rng, {"x": (3, 4), "gates": (3, 4), "g0": (3, 4), "u0": (3, 4),
                            "d0": (4, 3), "g2": (3, 4), "u2": (3, 4), "d2": (4, 3),
                            "g3": (2, 4), "u3": (2, 4), "d3": (4, 2)})
    idle = tuple(constant(_rand(rng, shape), np.float64) for shape in ((6, 4), (6, 4), (4, 6)))
    cols = np.array([[3, 0, 2]] * 3)
    w = constant(_rand(rng, (3, 4)), np.float64)
    experts = [tuple(leaves[f"{n}{i}"] for n in "gud") for i in (0,)] + [idle] + \
        [tuple(leaves[f"{n}{i}"] for n in "gud") for i in (2, 3)]
    return leaves, lambda: sum_all(mul(mixture(leaves["x"], experts, cols, leaves["gates"]), w))


@op_case("reference_swiglu")
def _(rng):
    leaves = _leafify(rng, {"x": (5, 4), "g0": (3, 4), "u0": (3, 4), "d0": (4, 3),
                            "g2": (2, 4), "u2": (2, 4), "d2": (4, 2)})
    idle = tuple(constant(_rand(rng, shape), np.float64) for shape in ((6, 4), (6, 4), (4, 6)))
    w = constant(_rand(rng, (5, 4)), np.float64)
    experts = [tuple(leaves[n] for n in ("g0", "u0", "d0")), idle,
               tuple(leaves[n] for n in ("g2", "u2", "d2"))]
    return leaves, lambda: sum_all(mul(reference_swiglu(leaves["x"], experts, [0, 2, 2, 5]), w))


@op_case("glu")
def _(rng):
    leaves = _leafify(rng, {"x": (5, 2), "w": (3, 2), "v": (3, 2)})
    w = constant(_rand(rng, (5, 3)), np.float64)
    return leaves, lambda: sum_all(mul(glu(leaves["x"], leaves["w"], leaves["v"]), w))


@op_case("dispatch_rows")
def _(rng):
    leaves = _leafify(rng, {"x": (4, 3)})
    slots = np.array([[5, 0], [2, 7], [1, 6], [3, 4]])
    w = constant(_rand(rng, (8, 3)), np.float64)
    return leaves, lambda: sum_all(mul(dispatch_rows(leaves["x"], slots), w))


@op_case("combine_rows")
def _(rng):
    leaves = _leafify(rng, {"y": (10, 2), "gates": (3, 5)})
    slots = np.array([[7, 4, 0], [8, 6, 1], [9, 2, 5]])  # row 3 of y is unused
    cols = np.array([[4, 0, 3], [4, 1, 2], [4, 0, 1]])
    w = constant(_rand(rng, (3, 2)), np.float64)
    return leaves, lambda: sum_all(mul(combine_rows(leaves["y"], leaves["gates"], slots, cols), w))


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


@op_case("weighted_sum")
def _(rng):
    leaves = _leafify(rng, {"x": (4, 3)})
    w = _rand(rng, (4, 3))
    return leaves, lambda: weighted_sum(silu(leaves["x"]), w)


@pytest.mark.parametrize("name", sorted(OP_CASES))
def test_gradients_match_finite_differences(name):
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    leaves, forward = OP_CASES[name](rng)
    check_against_fd(leaves, forward, h=1e-4, tol=1e-4)


# --- segment-blocked attention against the dense oracle -------------------------------


def _segment_ids(segments):
    return np.repeat(np.arange(len(segments) - 1), np.diff(segments))


# The projection weights attention_from_rows takes, in its order.
_PROJECTIONS = ("wq", "bq", "wk", "bk", "wv", "bv")
_ATTENTION_GRADS = ("out", "dx") + tuple(f"d{name}" for name in _PROJECTIONS)


def _masked(segments):
    """masked_attention as an attention_from_rows kernel."""
    return lambda q, k, v, source: masked_attention(q, k, v, np.array(segments), source=source)


def _dense(segments):
    """The dense oracle, reference_attention, as an attention_from_rows kernel."""
    bias = attention_bias(_segment_ids(segments))
    return lambda q, k, v, source: reference_attention(q, k, v, bias)


def _tiled(segments):
    """The kernel that keeps every tile's weights as an attention_from_rows kernel."""
    return lambda q, k, v, source: reference_tiled_attention(q, k, v, np.array(segments))


def _rows_and_weights(rng, t, heads, d_head, dtype):
    """Rows x [t, heads * d_head], the projection weights in _PROJECTIONS
    order, scaled so q, k and v are about unit normal, and loss weights
    [t, heads, d_head]."""
    d = heads * d_head
    x = rng.normal(size=(t, d)).astype(dtype)
    weights = [rng.normal(scale=d ** -0.5, size=shape).astype(dtype)
               for shape in ((d, d), (d,)) * 3]
    return x, weights, rng.normal(size=(t, heads, d_head)).astype(dtype)


def _attention_and_grads(kernel, x, weights, w):
    """The output of kernel on q, k and v projected from leaf copies of x and
    weights, then the gradients of x and each weight of sum(out * w)."""
    leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, *weights)]
    with Graph() as g:
        out = attention_from_rows(kernel, leaves[0], leaves[1:], w.shape[1])
        loss = sum_all(mul(out, constant(w, w.dtype)))
    g.backward(loss)
    return [out.data] + [leaf.grad for leaf in leaves]


def _attention(kernel, x, weights, heads, n_q=None):
    """The output of kernel on the last n_q queries, outside a graph."""
    return attention_from_rows(kernel, Tensor(x), [Tensor(a) for a in weights], heads, n_q).data


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-10), (np.float32, 1e-5)])
@pytest.mark.parametrize("segments", [[0, 1], [0, 9], [0, 4, 9], [0, 1, 4, 5, 6, 11],
                                      [0, 63], [0, 64], [0, 65], [0, 200], [0, 333],
                                      [0, 1, 64, 129, 329, 462]],
                         ids=["T1", "one", "two", "five", "63", "64", "65", "200", "333",
                              "mixed5"])
def test_attention_matches_dense_oracle(segments, dtype, tol):
    # Segments shorter than, equal to, one past and several times one query
    # tile: the output and the gradients of the rows and the projections.
    t = segments[-1]
    x, weights, w = _rows_and_weights(np.random.default_rng(t), t, 3, 4, dtype)
    got = _attention_and_grads(_masked(segments), x, weights, w)
    want = _attention_and_grads(_dense(segments), x, weights, w)
    for name, a, b in zip(_ATTENTION_GRADS, got, want):
        assert a.dtype == dtype, name
        np.testing.assert_allclose(a, b, rtol=tol, atol=tol, err_msg=name)


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-10), (np.float32, 1e-5)])
@pytest.mark.parametrize("segments, n_q", [([0, 9], 1), ([0, 9], 4), ([0, 4, 9], 5),
                                           ([0, 4, 9], 7), ([0, 1, 4, 5, 6, 11], 8)],
                         ids=["one-last", "one-4", "two-skip-first", "two-7", "five-8"])
def test_attention_with_kv_prefix_matches_last_rows_of_full_call(segments, n_q, dtype, tol):
    # Queries for the last n_q key positions only, as a cached decode step
    # projects them: the output is the last n_q rows of the full call's.
    t = segments[-1]
    x, weights, _ = _rows_and_weights(np.random.default_rng([t, n_q]), t, 3, 4, dtype)
    full = _attention(_masked(segments), x, weights, 3)
    cached = _attention(_masked(segments), x, weights, 3, n_q)
    assert cached.shape == (n_q, 3, 4)
    np.testing.assert_allclose(cached, full[t - n_q:], rtol=tol, atol=tol)


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-10), (np.float32, 1e-5)])
@pytest.mark.parametrize("segments, n_q", [([0, 200], 150), ([0, 70, 200], 140),
                                           ([0, 130], 3), ([0, 64, 200], 137)],
                         ids=["mid-first-tile", "straddle-segment-end", "straddle-128",
                              "one-before-segment"])
def test_tiled_attention_with_kv_prefix_matches_dense_oracle(segments, n_q, dtype, tol):
    # The first query sits inside a tile, so that tile scores only its last
    # rows: they match the queried rows of the dense oracle.
    t = segments[-1]
    x, weights, _ = _rows_and_weights(np.random.default_rng([t, n_q]), t, 3, 4, dtype)
    want = _attention(_dense(segments), x, weights, 3)[t - n_q:]
    got = _attention(_masked(segments), x, weights, 3, n_q)
    np.testing.assert_allclose(got, want, rtol=tol, atol=tol)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("segments, n_q", [([0, 63], 63), ([0, 64], 64), ([0, 65], 65),
                                           ([0, 128], 128), ([0, 1, 64, 129, 329, 462], 462),
                                           ([0, 200], 150), ([0, 70, 200], 140),
                                           ([0, 130], 3), ([0, 64, 200], 137)],
                         ids=["63", "64", "65", "128", "mixed5", "mid-first-tile",
                              "straddle-segment-end", "straddle-128", "one-before-segment"])
def test_attention_replay_matches_keep_the_weights_kernel_bitwise(segments, n_q, dtype):
    # The vjp rebuilds q, k and v from the source and each tile's weights
    # from the kept log-sum-exp by the products the keeping kernel ran, so
    # the output and the gradients of the rows and projections equal those
    # of the kernel that kept the weights, bit for bit, on tile edges. A
    # call with a cached prefix records nothing, so there the outputs alone.
    t = segments[-1]
    x, weights, w = _rows_and_weights(np.random.default_rng([t, n_q, 1]), t, 3, 8, dtype)
    if n_q == t:
        got, want = (_attention_and_grads(kernel(segments), x, weights, w)
                     for kernel in (_masked, _tiled))
    else:
        got, want = ([_attention(kernel(segments), x, weights, 3, n_q)]
                     for kernel in (_masked, _tiled))
    for name, a, b in zip(_ATTENTION_GRADS, got, want):
        assert a.dtype == dtype, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("segments", [[0, 200], [0, 64, 65, 200], [0, 300, 301, 401]])
def test_attention_given_its_source_rebuilds_q_k_v_bitwise_and_keeps_none(segments):
    # A recorded call keeps none of q, k and v: its vjp rebuilds them one
    # segment at a time by linear's, reshape's and rope's own ops, so the
    # output and every gradient equal, bit for bit, those of the kernel that
    # kept q, k, v and every tile's weights (reference_tiled_attention), a
    # one-row segment included.
    t, heads, d_head = segments[-1], 4, 8
    x, weights, w = _rows_and_weights(np.random.default_rng(t), t, heads, d_head, np.float32)
    held = []

    def kernel(q, k, v, source):
        held.extend(weakref.ref(a) for a in (q.data, k.data, v.data.base))
        return _masked(segments)(q, k, v, source)

    leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, *weights)]
    with Graph() as graph:
        out = attention_from_rows(kernel, leaves[0], leaves[1:], heads)
        loss = sum_all(mul(out, constant(w)))
    assert [ref() for ref in held] == [None] * 3
    graph.backward(loss)
    got = [out.data] + [leaf.grad for leaf in leaves]
    want = _attention_and_grads(_tiled(segments), x, weights, w)
    for name, a, b in zip(_ATTENTION_GRADS, got, want):
        assert a.tobytes() == b.tobytes(), name


def test_attention_source_must_fit_its_operands():
    x = Tensor(np.zeros((4, 1, 2), dtype=np.float32))
    rows = Tensor(np.zeros((3, 2), dtype=np.float32))
    w, b = Tensor(np.zeros((2, 2), dtype=np.float32)), Tensor(np.zeros(2, dtype=np.float32))
    tables = rope_tables(np.arange(4), 1, 2)
    for q, source in ((x, (rows, [(w, b)] * 3, tables)),  # rows are 3, not 4
                      (Tensor(np.zeros((3, 1, 2), dtype=np.float32)),  # a cached prefix
                       (rows, [(w, b)] * 3, tables))):
        with pytest.raises(ShapeError):
            masked_attention(q, x, x, np.array([0, 4]), source=source)


def test_recorded_attention_needs_its_source():
    # Outside a recording graph no source is needed; inside one, a call
    # without it has nothing to rebuild q, k and v from.
    x = Tensor(np.zeros((4, 1, 2), dtype=np.float32), requires_grad=True)
    masked_attention(x, x, x, np.array([0, 4]))
    with Graph(), pytest.raises(ShapeError, match="source"):
        masked_attention(x, x, x, np.array([0, 4]))


def test_recorded_attention_keeps_row_statistics_not_tile_weights():
    t, heads, d_head = 2048, 4, 8
    x, weights, _ = _rows_and_weights(np.random.default_rng(0), t, heads, d_head, np.float32)
    tile_bytes = heads * ATTENTION_TILE * t * 4
    stats_bytes = heads * t * 4  # one log-sum-exp per query and head
    traced = []

    def kernel(q, k, v, source):
        tracemalloc.start()
        try:
            out = masked_attention(q, k, v, np.array([0, t]), source=source)
            traced.extend(tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        return out

    with Graph():
        out = attention_from_rows(kernel, Tensor(x, requires_grad=True),
                                  [Tensor(a, requires_grad=True) for a in weights], heads)
    held, peak = traced
    # Kept tile weights would hold heads * T^2 / 2 floats: 33.6 MB, or 16 tiles.
    kept = held - out.data.nbytes
    assert kept < 2 * stats_bytes, \
        f"{kept / 1e6:.2f} MB kept, statistics {stats_bytes / 1e6:.2f} MB"
    assert peak < 2 * tile_bytes, f"peak {peak / 1e6:.1f} MB, one tile {tile_bytes / 1e6:.1f} MB"


def _unit_qkv(rng, n_q, n_k, heads=4, d_head=8):
    """Unit-normal float32 q [n_q, heads, d_head] and k, v [n_k, heads, d_head]."""
    return [rng.normal(size=(n, heads, d_head)).astype(np.float32) for n in (n_q, n_k, n_k)]


def _assert_within_1e_6_of_max(got, want, what):
    err, top = np.abs(got - want).max(), np.abs(want).max()
    assert err <= 1e-6 * top, f"{what}: error {err:.3g} against max |value| {top:.3g}"


@pytest.mark.parametrize("n_q, n_k", [(512, 512), (3072, 3072), (4096, 4096), (64, 3072)],
                         ids=["512", "3072", "4096", "push-64-on-3072"])
def test_long_context_attention_float32_tracks_float64(n_q, n_k):
    # One segment of n_k keys, or a 64-row decode push against 3072 keys
    # whose first 3008 are cached: the float32 output is within 1e-6 of its
    # largest entry of the float64 run on the same (exactly widened) inputs.
    q, k, v = _unit_qkv(np.random.default_rng(n_q + n_k), n_q, n_k)
    want = masked_attention(*(t64(a) for a in (q, k, v)), np.array([0, n_k])).data
    got = masked_attention(Tensor(q), Tensor(k), Tensor(v), np.array([0, n_k])).data
    assert got.dtype == np.float32 and want.dtype == np.float64
    _assert_within_1e_6_of_max(got, want, "out")


def test_long_context_attention_gradients_float32_track_float64():
    # A recorded 4096-point call: the gradients of q, k and v in float32 are
    # within 1e-6 of their largest entry of the float64 run, and no call
    # holds a dense [T, heads, T] block. q, k and v are leaves, and their
    # source selects them exactly from one row of [q | k | v] per token with
    # an identity rotation, so the vjp's rebuild gives them back bit for bit.
    t, heads, d_head = 4096, 4, 8
    d = heads * d_head
    q, k, v = _unit_qkv(np.random.default_rng(4096), t, t, heads, d_head)
    rows = np.concatenate([a.reshape(t, d) for a in (q, k, v)], axis=1)
    select = [np.eye(d, 3 * d, i * d, dtype=np.float32) for i in range(3)]
    w = np.random.default_rng(1).normal(size=(t, heads, d_head))
    grads, peaks = {}, {}
    for dtype in (np.float32, np.float64):
        leaves = [Tensor(a, dtype=dtype, requires_grad=True) for a in (q, k, v)]
        pairs = [(Tensor(s, dtype=dtype), Tensor(np.zeros(d), dtype=dtype)) for s in select]
        tables = (np.ones((t, heads, d_head // 2), dtype), np.zeros((t, heads, d_head // 2), dtype))
        tracemalloc.start()
        try:
            with Graph() as graph:
                out = masked_attention(*leaves, np.array([0, t]),
                                       source=(Tensor(rows, dtype=dtype), pairs, tables))
                loss = weighted_sum(out, w)
            graph.backward(loss)
            peaks[dtype] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        grads[dtype] = [leaf.grad for leaf in leaves]
        dense = heads * t * t * np.dtype(dtype).itemsize
        assert peaks[dtype] < dense / 8, f"{dtype.__name__} peak {peaks[dtype] / 1e6:.1f} MB"
    for name, got, want in zip("qkv", grads[np.float32], grads[np.float64]):
        assert got.dtype == np.float32
        _assert_within_1e_6_of_max(got, want, f"d{name}")


def test_mixture_outside_a_graph_keeps_no_group_workspace():
    rows, d, hidden, groups = 4096, 8, 64, 8
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(rows, d)).astype(np.float32))
    gates = Tensor(rng.random(size=(rows, groups)).astype(np.float32))
    experts = [tuple(Tensor(rng.normal(size=shape).astype(np.float32))
                     for shape in ((hidden, d), (hidden, d), (d, hidden)))
               for _ in range(groups)]
    group_bytes = rows // groups * hidden * 4
    tracemalloc.start()
    try:
        out = mixture(x, experts, (np.arange(rows) // (rows // groups))[:, None], gates)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One group's workspace is about ten [rows, hidden] arrays; saving five
    # per group for a vjp would hold forty by the last group.
    assert peak - out.data.nbytes < 12 * group_bytes, \
        f"peak {peak / 1e6:.2f} MB, one group's array {group_bytes / 1e6:.2f} MB"


def _routed(rng, tokens, experts, k, idle=()):
    """[tokens, k] random top-k picks, each row ascending, that leave the
    experts in idle unpicked."""
    live = [e for e in range(experts) if e not in idle]
    return np.sort([rng.choice(live, size=k, replace=False) for _ in range(tokens)], axis=1)


def _mixture_and_grads(kernel, x, experts, gates, g):
    x, gates = (Tensor(a.copy(), requires_grad=True) for a in (x, gates))
    weights = [tuple(Tensor(w.copy(), requires_grad=True) for w in ws) for ws in experts]
    with Graph() as graph:
        out = kernel(x, weights, gates)
        loss = sum_all(mul(out, constant(g, g.dtype)))
    graph.backward(loss)
    return [out.data, x.grad, gates.grad] + [w.grad for ws in weights for w in ws]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("k, idle, one_group", [(2, (), False), (2, (1,), False), (1, (), False),
                                                (1, (0, 3), False), (1, (), True), (1, (), None)],
                         ids=["K2", "K2-idle", "K1", "K1-two-idle", "one-group", "dense"])
def test_mixture_matches_swiglu_and_combine_rows_bitwise(dtype, k, idle, one_group):
    # One op against the expert path it replaced, dispatch_rows' copy fed to
    # reference_swiglu and summed by combine_rows: the output and the
    # gradients of x, the gates and every weight bit for bit, though mixture
    # keeps no activation and no expert output for its vjp. The reference
    # multiplies by the product rule as helpers.rule_product writes it out,
    # one-row groups and float64 included. The routed cases
    # put the shared expert 4 first, as moe_forward does; the dense case is
    # expert_ffn's one expert, zero column and ones column.
    rng = np.random.default_rng([k, len(idle), bool(one_group)])
    tokens, d, hidden, experts = 300, 16, 24, 4
    if one_group is None:
        experts, cols = 1, np.zeros((tokens, 1), dtype=np.intp)
        gates = np.ones((tokens, 1), dtype=dtype)
    else:
        if one_group:
            idle = (0, 1, 3)
        cols = np.concatenate((np.full((tokens, 1), experts),
                               _routed(rng, tokens, experts, k, idle)), axis=1)
        experts += 1
        gates = rng.random(size=(tokens, experts)).astype(dtype)
    x, g = (rng.normal(size=(tokens, d)).astype(dtype) for _ in range(2))
    weights = [tuple(rng.normal(scale=0.3, size=shape).astype(dtype)
                     for shape in ((hidden, d), (hidden, d), (d, hidden)))
               for _ in range(experts)]
    got, want = (_mixture_and_grads(lambda x, ws, gates: kernel(x, ws, cols, gates),
                                    x, weights, gates, g)
                 for kernel in (mixture, reference_mixture))
    names = ["out", "dx", "d_gates"] + [f"{n}{e}" for e in range(experts)
                                        for n in ("d_gate", "d_up", "d_down")]
    for name, a, b in zip(names, got, want):
        if b is None:
            assert a is None, name
            continue
        assert a.dtype == dtype, name
        assert a.tobytes() == b.tobytes(), name
    assert sum(a is None for a in got) == 3 * len(idle)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_mixture_walks_each_group_in_row_blocks_bitwise(dtype):
    # The vjp walks a group 256 rows at a time and sums its weight gradients
    # over the same blocks _times sums over. Groups of 513 (the shared
    # expert), 257 and 256 rows, the first two ending in a one-row block,
    # give the output and every gradient of the whole-group vjp
    # (reference_mixture) bit for bit.
    rng = np.random.default_rng(11)
    tokens, d, hidden = 513, 32, 32
    cols = np.stack((np.full(tokens, 2), (np.arange(tokens) >= 257).astype(np.intp)), axis=1)
    x, g = (rng.normal(size=(tokens, d)).astype(dtype) for _ in range(2))
    gates = rng.random(size=(tokens, 3)).astype(dtype)
    weights = [tuple(rng.normal(scale=0.3, size=shape).astype(dtype)
                     for shape in ((hidden, d), (hidden, d), (d, hidden)))
               for _ in range(3)]
    got, want = (_mixture_and_grads(lambda x, ws, gates: kernel(x, ws, cols, gates),
                                    x, weights, gates, g)
                 for kernel in (mixture, reference_mixture))
    names = ["out", "dx", "d_gates"] + [f"{n}{e}" for e in range(3)
                                        for n in ("d_gate", "d_up", "d_down")]
    for name, a, b in zip(names, got, want):
        assert a.dtype == dtype, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [24, 40])
def test_row_blocked_vjps_match_whole_calls_at_widths_off_16(d, dtype):
    # An x-gradient product multiplies by its weight zero-padded to 16
    # columns, so head_loss's and mixture's 256-row blocks give the whole
    # calls' bits at widths that are no multiple of 16 too. Unpadded,
    # OpenBLAS rounded float32 rows of g [m, 32 or 64] @ w [., 24 or 40] by
    # the row count.
    rng = np.random.default_rng([d, np.dtype(dtype).itemsize])
    t, hidden = 1025, 64
    x = rng.normal(size=(t, d)).astype(dtype)
    for horizon in (32, 64):
        w = rng.normal(scale=0.3, size=(horizon, d)).astype(dtype)
        targets = rng.normal(size=(t, horizon)).astype(dtype)
        weights = np.full(targets.shape, 1.0 / t, dtype=dtype)
        got, want = (_head_loss_and_grads(kernel, x, w, targets, weights, 1.0)
                     for kernel in (head_loss, reference_head_loss))
        for name, a, b in zip(("loss", "d_hidden", "d_w"), got, want):
            assert a.tobytes() == b.tobytes(), f"head_loss, horizon {horizon}: {name}"
    # The shared expert 2 takes every token, so its group runs four blocks and a one-row tail.
    cols = np.stack((np.full(t, 2), (np.arange(t) >= 300).astype(np.intp)), axis=1)
    gates = rng.random(size=(t, 3)).astype(dtype)
    experts = [tuple(rng.normal(scale=0.3, size=shape).astype(dtype)
                     for shape in ((hidden, d), (hidden, d), (d, hidden)))
               for _ in range(3)]
    g = rng.normal(size=(t, d)).astype(dtype)
    got, want = (_mixture_and_grads(lambda x, ws, gates: kernel(x, ws, cols, gates),
                                    x, experts, gates, g)
                 for kernel in (mixture, reference_mixture))
    names = ["out", "dx", "d_gates"] + [f"{n}{e}" for e in range(3)
                                        for n in ("d_gate", "d_up", "d_down")]
    for name, a, b in zip(names, got, want):
        assert a.tobytes() == b.tobytes(), f"mixture: {name}"


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [8, 32])
@pytest.mark.parametrize("x_grad", [False, True])
def test_glu_matches_silu_mul_of_linears_bitwise(dtype, n, x_grad):
    # One op against the embedding's old four: output and the weight
    # gradients bit for bit, with a constant x (the data) or a leaf x.
    rng = np.random.default_rng([n, x_grad])
    x, w, v, g = (rng.normal(size=shape).astype(dtype) for shape in ((700, 1), (n, 1), (n, 1),
                                                                     (700, n)))
    runs = []
    for fn in (glu, lambda x, w, v: mul(silu(linear(x, w)), linear(x, v))):
        leaves = [Tensor(x.copy(), requires_grad=x_grad)] + [Tensor(a.copy(), requires_grad=True)
                                                             for a in (w, v)]
        with Graph() as graph:
            out = fn(*leaves)
            loss = sum_all(mul(out, constant(g, g.dtype)))
        graph.backward(loss)
        runs.append([out.data] + [leaf.grad for leaf in leaves])
    for name, a, b in zip(("out", "dx", "dw", "dv"), *runs):
        if not x_grad and name == "dx":
            assert a is None and b is None
            continue
        assert a.dtype == dtype, name
        assert a.tobytes() == b.tobytes(), name


def test_recorded_gated_ops_keep_no_activation():
    # While a graph records, mixture keeps each group's three transposed
    # weight copies and its row-to-token table, and glu its two weight
    # copies: no sigmoid, pre-activation, up projection or expert output,
    # and no copy of the routed rows, outlives the forward.
    rng = np.random.default_rng(5)
    tokens, d, hidden, experts, k = 2048, 16, 32, 4, 2
    cols = _routed(rng, tokens, experts, k)
    x = Tensor(rng.normal(size=(tokens, d)).astype(np.float32), requires_grad=True)
    gates = Tensor(rng.random(size=(tokens, experts)).astype(np.float32), requires_grad=True)
    weights = [tuple(Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
                     for shape in ((hidden, d), (hidden, d), (d, hidden)))
               for _ in range(experts)]
    points = Tensor(rng.normal(size=(tokens, 1)).astype(np.float32))
    w, v = (Tensor(rng.normal(size=(hidden, 1)).astype(np.float32), requires_grad=True)
            for _ in range(2))
    for run, copy_bytes, sigmoid_bytes in (
            (lambda: mixture(x, weights, cols, gates),
             experts * 3 * hidden * d * 4 + tokens * k * 8, tokens * k * hidden * 4),
            (lambda: glu(points, w, v), 2 * hidden * 4, tokens * hidden * 4)):
        tracemalloc.start()
        try:
            with Graph() as graph:  # the tape lives as long as graph
                out = run()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        kept = held - out.data.nbytes
        # Keeping the sigmoids alone would add sigmoid_bytes (256 KB and 128 KB).
        assert copy_bytes <= kept < copy_bytes + 0.05 * sigmoid_bytes, \
            f"{kept / 1e3:.1f} KB kept, weight copies {copy_bytes / 1e3:.1f} KB"


def test_inference_attention_holds_one_tile_workspace():
    t, heads, d_head = 2048, 4, 8
    rng = np.random.default_rng(0)
    q, k, v = (Tensor(rng.normal(size=(t, heads, d_head)).astype(np.float32)) for _ in range(3))
    tile_bytes = heads * ATTENTION_TILE * t * 4
    tracemalloc.start()
    try:
        masked_attention(q, k, v, np.array([0, t]))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # A whole [heads, T, T] block would be 32 tiles.
    assert peak < 2 * tile_bytes, f"peak {peak / 1e6:.1f} MB, one tile {tile_bytes / 1e6:.1f} MB"


def test_recorded_attention_backpropagates_after_later_calls():
    # What a recorded call keeps for its vjp must survive the calls that follow it.
    segments = [0, 150, 333]
    rng = np.random.default_rng(7)
    x, weights, w = _rows_and_weights(rng, 333, 3, 4, np.float64)
    leaves = [Tensor(a.copy(), requires_grad=True) for a in (x, *weights)]
    with Graph() as g:
        out = attention_from_rows(_masked(segments), leaves[0], leaves[1:], 3)
        loss = sum_all(mul(out, constant(w, np.float64)))
    for _ in range(2):
        other = Tensor(rng.normal(size=(333, 3, 4)))
        masked_attention(other, other, other, np.array(segments))
    g.backward(loss)
    want = _attention_and_grads(_dense(segments), x, weights, w)
    for name, a, b in zip(_ATTENTION_GRADS, [out.data] + [leaf.grad for leaf in leaves], want):
        np.testing.assert_allclose(a, b, rtol=1e-10, atol=1e-10, err_msg=name)


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
    out = rope(x, rope_tables(np.array([0]), 2, 8))
    np.testing.assert_allclose(out.data, x.data, atol=1e-7)


def test_rope_preserves_norm():
    rng = np.random.default_rng(8)
    x = Tensor(rng.normal(size=(16, 3, 8)).astype(np.float32))
    out = rope(x, rope_tables(np.arange(16), 3, 8))
    np.testing.assert_allclose(
        np.linalg.norm(out.data, axis=-1), np.linalg.norm(x.data, axis=-1), atol=1e-5
    )


def test_rope_odd_head_dim_rejected():
    with pytest.raises(ShapeError):
        rope_tables(np.arange(2), 1, 3)
    with pytest.raises(ShapeError):
        rope(Tensor(np.zeros((2, 1, 3), dtype=np.float32)), rope_tables(np.arange(2), 1, 2))


def test_rope_dot_depends_only_on_offset():
    rng = np.random.default_rng(9)
    q = rng.normal(size=(1, 1, 8))
    k = rng.normal(size=(1, 1, 8))
    dots = {}
    for a in range(16):
        for b in range(16):
            qa = rope(t64(q), rope_tables(np.array([a]), 1, 8, dtype=np.float64)).data[0, 0]
            kb = rope(t64(k), rope_tables(np.array([b]), 1, 8, dtype=np.float64)).data[0, 0]
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


def test_an_output_no_vjp_reads_is_freed_before_backward():
    # A node holds its inputs' keys, not the Tensors an op produced: rope's
    # vjp reads only its tables and weighted_sum's only its weights, so the
    # projection and the Huber values go as soon as the forward drops them.
    rng = np.random.default_rng(0)
    x, w = (Tensor(rng.normal(size=shape).astype(np.float32), requires_grad=True)
            for shape in ((6, 8), (8, 8)))
    with Graph() as g:
        projected = linear(x, w)
        projection = weakref.ref(projected.data)
        rotated = rope(reshape(projected, (6, 2, 4)), rope_tables(np.arange(6), 2, 4))
        del projected
        values = huber(reshape(rotated, (6, 8)), np.zeros((6, 8)), 1.0)
        cells = weakref.ref(values.data)
        loss = weighted_sum(values, np.ones((6, 8)))
        del values
    assert projection() is None and cells() is None
    g.backward(loss)
    assert x.grad is not None and w.grad is not None


def test_an_output_of_an_earlier_graph_is_a_leaf_of_a_later_one():
    # y is node 0 of the first graph and the mul below is node 0 of the
    # second: keys are per graph, so y is a leaf there and gets its grad.
    x = t64(np.array([1.0, 2.0]), requires_grad=True)
    with Graph():
        y = mul(x, 3.0)
    with Graph() as g:
        loss = sum_all(mul(y, y))
    g.backward(loss)
    np.testing.assert_array_equal(y.grad, 2.0 * y.data)
    assert x.grad is None


def test_outputs_recorded_before_backward_are_leaves_after_it():
    x = t64(np.array([1.0, 2.0]), requires_grad=True)
    with Graph() as g:
        y = mul(x, 3.0)
        g.backward(sum_all(y))
        loss = sum_all(mul(y, y))
    g.backward(loss)
    np.testing.assert_array_equal(x.grad, [3.0, 3.0])
    np.testing.assert_array_equal(y.grad, 2.0 * y.data)


def test_a_leaf_loss_gets_grad_one():
    x = Tensor(np.array(3.0, dtype=np.float32), requires_grad=True)
    with Graph() as g:
        mul(x, 2.0)
    g.backward(x)
    assert x.grad == 1.0


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


# --- package hygiene -----------------------------------------------------------------


def _public_tensor_names() -> set:
    """The public functions and classes of sparsecast.tensor."""
    tree = ast.parse((Path(sparsecast.__file__).parent / "tensor.py").read_text())
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def test_every_public_tensor_op_has_a_caller_in_src():
    # Ops that only tests use live in tests/helpers.py: every public function
    # or class of sparsecast.tensor is reached from another module of the
    # package, as T.<name> or through `from .tensor import`.
    package = Path(sparsecast.__file__).parent
    public = _public_tensor_names()
    reached = set()
    for path in package.glob("*.py"):
        if path.name == "tensor.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "T":
                reached.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "tensor":
                reached.update(alias.name for alias in node.names)
    assert "head_loss" in public and "huber" not in public
    assert len(public) > 15
    assert sorted(public - reached) == []


def test_one_training_step_records_every_public_tensor_op(tmp_path):
    # Decoding records no tape, so an op is public only if training records
    # it: one batch_loss of the benchmark model at 4 x 256 records a vjp of
    # every public name but the types, the errors, and constant and
    # rope_tables, which record nothing.
    model, batch = benchmark_model_and_batch(tmp_path)
    with Graph() as graph:
        batch_loss(model, batch, TrainConfig(batch=4, context=256))
    recorded = {vjp.__qualname__.split(".")[0] for _, _, vjp in graph._nodes}
    exempt = {"Tensor", "Graph", "ShapeError", "NumericError", "constant", "rope_tables"}
    assert "head_loss" in recorded
    assert sorted(_public_tensor_names() - exempt - recorded) == []
