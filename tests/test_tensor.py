"""Primitive-level checks: forward examples, shape errors, and analytic
gradients against the central-difference oracle."""

import ast
import contextlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from dafed import tensor as tt
from conftest import TINY, edge_array, max_rel_error, numeric_grads


def _scalarize(build, tensors, seed=0):
    """Project an op output to a scalar with fixed random weights so every
    output coordinate influences the loss."""
    rng = np.random.default_rng(seed)
    w = None

    def scalar():
        nonlocal w
        out = build(*tensors)
        if w is None:
            w = rng.standard_normal(out.shape)
        return float((out.data * w).sum())

    scalar()  # fix w
    def loss_tensor():
        return tt.tsum(tt.mul(build(*tensors), tt.Tensor(w)))

    return scalar, loss_tensor


def _check_grad(build, arrays, tol=1e-6, h=1e-5, seed=0):
    tensors = [tt.Tensor(a) for a in arrays]
    scalar, loss_tensor = _scalarize(build, tensors, seed)
    analytic = tt.gradients(loss_tensor(), tensors)
    numeric = numeric_grads(scalar, [t.data for t in tensors], h=h)
    err = max_rel_error(analytic, numeric)
    assert err < tol, f"gradient mismatch: {err}"


def test_matmul_identity():
    a = tt.Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = tt.matmul(a, tt.Tensor(np.eye(2)))
    assert np.array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])


def test_softmax_symmetry():
    out = tt.softmax(tt.Tensor([[0.0, 0.0]]), axis=1)
    assert np.allclose(out.data, [[0.5, 0.5]], atol=0)


def test_softmax_rows_sum_to_one():
    x = tt.Tensor(np.random.default_rng(3).standard_normal((20, 7)) * 8)
    out = tt.softmax(x, axis=1)
    assert np.all(out.data >= 0)
    assert np.max(np.abs(out.data.sum(axis=1) - 1.0)) <= 1e-12


def test_softmax_empty_axis_rejected():
    with pytest.raises(tt.ShapeError):
        tt.softmax(tt.Tensor(np.zeros((3, 0))), axis=1)


def test_grad_reverse_forward_identity_backward_negated():
    x = tt.Tensor(np.random.default_rng(0).standard_normal((4, 3)))
    out = tt.grad_reverse(x, 0.7)
    assert np.array_equal(out.data, x.data)
    g = tt.gradients(tt.tsum(out), [x])[0]
    assert np.array_equal(g, -0.7 * np.ones((4, 3)))


def test_shape_mismatch_reports_shapes():
    with pytest.raises(tt.ShapeError) as exc:
        tt.matmul(tt.Tensor(np.zeros((2, 3))), tt.Tensor(np.zeros((4, 2))))
    assert "(2, 3)" in str(exc.value) and "(4, 2)" in str(exc.value)
    with pytest.raises(tt.ShapeError):
        tt.add(tt.Tensor(np.zeros((2, 3))), tt.Tensor(np.zeros((4,))))


def test_no_grad_same_values_no_graph():
    x = tt.Tensor(np.random.default_rng(1).standard_normal((3, 3)))
    with_tape = tt.softmax(tt.matmul(x, x), axis=1)
    with tt.no_grad():
        without = tt.softmax(tt.matmul(x, x), axis=1)
    assert np.array_equal(with_tape.data, without.data)
    assert without.parents == ()


def test_backward_sum_gives_ones():
    p = tt.Tensor(np.random.default_rng(2).standard_normal((3, 5)))
    g = tt.gradients(tt.tsum(p), [p])[0]
    assert np.array_equal(g, np.ones((3, 5)))


def test_backward_quadratic():
    p = tt.Tensor([1.0, 2.0, 3.0])
    g = tt.gradients(tt.tsum(tt.mul(p, p)), [p])[0]
    assert np.allclose(g, [2.0, 4.0, 6.0], atol=0)


def test_backward_rejects_nonscalar():
    p = tt.Tensor([1.0, 2.0])
    with pytest.raises(tt.ShapeError):
        tt.gradients(tt.mul(p, p), [p])


def test_unused_parameter_gets_zero_gradient():
    used = tt.Tensor([1.0, 2.0])
    unused = tt.Tensor([[5.0]])
    g = tt.gradients(tt.tsum(used), [used, unused])[1]
    assert np.array_equal(g, np.zeros((1, 1)))


def test_diamond_graph_accumulates_once_per_node():
    # loss = sum(x*x + x*x) must give 4x, not 8x
    x = tt.Tensor([3.0])
    sq = tt.mul(x, x)
    g = tt.gradients(tt.tsum(tt.add(sq, sq)), [x])[0]
    assert np.allclose(g, [12.0], atol=0)


def _gradients_keeping_every_adjoint(loss, wrt):
    """The reverse sweep that holds every node's adjoint to the end, the
    reference for the sweep that drops each adjoint once it is passed on."""
    grads = {id(loss): np.ones_like(loss.data)}
    for node in reversed(tt._topo_order(loss)):
        g = grads.get(id(node))
        if g is None:
            continue
        for parent, vjp in node.parents:
            pg = vjp(g)
            acc = grads.get(id(parent))
            grads[id(parent)] = pg if acc is None else acc + pg
    return [grads[id(t)] for t in wrt]


def _chain(x, n):
    """n elementwise ops on x, each a new array of x's size."""
    c = tt.Tensor(np.full(x.shape, 0.75))
    steps = (lambda y: tt.scale(y, 0.9), lambda y: tt.add(y, c), lambda y: tt.mul(y, c),
             lambda y: tt.leaky_relu(y, 0.1), lambda y: tt.clip(y, -3.0, 3.0))
    y = x
    for i in range(n):
        y = steps[i % len(steps)](y)
    return y


def test_backward_memory_does_not_grow_with_the_chain():
    # the tape holds each node's data; backward should hold only the
    # adjoints still to be passed on, so its peak is a few arrays at any depth
    x = tt.Tensor(np.random.default_rng(0).standard_normal(100_000))
    loss = tt.tsum(_chain(x, 20))
    tracemalloc.start()
    try:
        tt.gradients(loss, [x])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * x.data.nbytes


def test_requested_intermediate_gets_its_full_adjoint():
    # h feeds three children, and x reaches the loss only through h; both
    # adjoints must be the bits of the sweep that keeps every adjoint
    g = np.random.default_rng(1)
    x = tt.Tensor(g.standard_normal((6, 5)))
    w = tt.Tensor(g.standard_normal((5, 4)))
    h = tt.leaky_relu(tt.matmul(x, w), 0.1)
    loss = tt.tsum(tt.add(tt.mul(h, h), tt.add(tt.exp(tt.scale(h, 0.5)), _chain(h, 7))))
    got = tt.gradients(loss, [h, x, w])
    want = _gradients_keeping_every_adjoint(loss, [h, x, w])
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


RNG = np.random.default_rng(12345)


def _away_from_zero(shape, margin=1e-3):
    x = RNG.standard_normal(shape)
    return np.where(np.abs(x) < margin, x + np.sign(x + 0.5) * margin * 2, x)


@pytest.mark.parametrize("name,build,arrays", [
    ("matmul2d", lambda a, b: tt.matmul(a, b),
     [RNG.standard_normal((5, 7)), RNG.standard_normal((7, 6))]),
    ("matmul_batched", lambda a, b: tt.matmul(a, b),
     [RNG.standard_normal((3, 4, 5)), RNG.standard_normal((3, 5, 4))]),
    ("matmul_shared_rhs", lambda a, b: tt.matmul(a, b),
     [RNG.standard_normal((3, 4, 5)), RNG.standard_normal((5, 6))]),
    ("add_broadcast_bias", lambda a, b: tt.add(a, b),
     [RNG.standard_normal((6, 9)), RNG.standard_normal((9,))]),
    ("sub", lambda a, b: tt.sub(a, b),
     [RNG.standard_normal((8, 7)), RNG.standard_normal((8, 7))]),
    ("mul_broadcast", lambda a, b: tt.mul(a, b),
     [RNG.standard_normal((4, 5, 3)), RNG.standard_normal((4, 5, 1))]),
    ("scale", lambda a: tt.scale(a, -2.5), [RNG.standard_normal((9, 11))]),
    ("concat", lambda a, b: tt.concat([a, b], axis=1),
     [RNG.standard_normal((6, 5)), RNG.standard_normal((6, 8))]),
    ("mean_axis", lambda a: tt.mean(a, axis=1), [RNG.standard_normal((7, 8, 2))]),
    ("mean_all", lambda a: tt.reshape(tt.mean(a), (1,)), [RNG.standard_normal((10, 10))]),
    ("sum_axis", lambda a: tt.tsum(a, axis=0), [RNG.standard_normal((9, 12))]),
    ("amax", lambda a: tt.amax(a, axis=1), [RNG.standard_normal((10, 11))]),
    ("relu", lambda a: tt.relu(a), [_away_from_zero((10, 10))]),
    ("leaky_relu", lambda a: tt.leaky_relu(a, 0.01), [_away_from_zero((10, 10))]),
    ("softmax", lambda a: tt.softmax(a, axis=1), [RNG.standard_normal((8, 13))]),
    ("log", lambda a: tt.log(a), [RNG.random((9, 12)) + 0.5]),
    ("exp", lambda a: tt.exp(a), [RNG.standard_normal((9, 12))]),
    ("abs", lambda a: tt.absolute(a), [_away_from_zero((10, 10))]),
    ("clip", lambda a: tt.clip(a, -1.0, 1.0),
     [_away_from_zero((10, 10)) * 2]),
    ("transpose", lambda a: tt.transpose(a, (2, 0, 1)), [RNG.standard_normal((4, 5, 6))]),
    ("reshape", lambda a: tt.reshape(a, (6, 20)), [RNG.standard_normal((4, 5, 6))]),
    ("take_rows", lambda a: tt.take_rows(a, [0, 2, 2, 5, 1]), [RNG.standard_normal((7, 9))]),
    ("cosine", lambda a, b: tt.cosine_similarity(a, b),
     [RNG.standard_normal((12, 9)), RNG.standard_normal((12, 9))]),
])
def test_primitive_gradients_match_finite_differences(name, build, arrays):
    _check_grad(build, arrays)


def test_amax_tie_routes_to_first_index():
    x = tt.Tensor([[2.0, 5.0, 5.0, 1.0]])
    out = tt.amax(x, axis=1)
    assert out.data[0] == 5.0
    g = tt.gradients(tt.tsum(out), [x])[0]
    assert np.array_equal(g, [[0.0, 1.0, 0.0, 0.0]])


def test_clip_kills_gradient_outside_range():
    x = tt.Tensor([0.5, 3.0, -3.0])
    g = tt.gradients(tt.tsum(tt.clip(x, -1.0, 1.0)), [x])[0]
    assert np.array_equal(g, [1.0, 0.0, 0.0])


def test_dropout_train_scales_by_keep_probability():
    x = tt.Tensor(np.ones((4, 5)))
    mask = np.random.default_rng(6).random((4, 5)) >= 0.4
    out = tt.dropout(x, 0.4, mask)
    expect = np.where(mask, 1.0 / 0.6, 0.0)
    assert np.allclose(out.data, expect, atol=0)


def test_dropout_mask_must_match_the_input():
    x = tt.Tensor(np.ones((4, 5)))
    with pytest.raises(tt.ShapeError, match="mask shape"):
        tt.dropout(x, 0.4, np.ones((5, 4), dtype=bool))
    keep = np.ones((4, 5), dtype=bool)
    assert np.array_equal(tt.dropout(x, 0.0, keep).data, x.data)  # rate 0 keeps every value


def test_dropout_gradient_with_fixed_mask():
    mask = np.random.default_rng(7).random((6, 5)) >= 0.25
    _check_grad(lambda a: tt.dropout(a, 0.25, mask),
                [RNG.standard_normal((6, 5))])


def test_cosine_zero_norm_row_is_zero():
    a = tt.Tensor(np.vstack([np.zeros(3), np.ones(3)]))
    b = tt.Tensor(np.ones((2, 3)))
    out = tt.cosine_similarity(a, b)
    assert out.data[0] == 0.0
    assert np.isclose(out.data[1], 1.0)
    g = tt.gradients(tt.tsum(out), [a])[0]
    assert np.array_equal(g[0], np.zeros(3))


def test_batch_norm_train_gradients():
    gamma = RNG.standard_normal(6) + 1.5
    beta = RNG.standard_normal(6)
    rm = tt.Tensor(np.zeros(6))
    rv = tt.Tensor(np.ones(6))

    def build(x, g, b):
        return tt.batch_norm(x, g, b, rm, rv, train=True)

    _check_grad(build, [RNG.standard_normal((4, 6)), gamma, beta], tol=1e-4)


def test_batch_norm_eval_uses_running_stats():
    rm = tt.Tensor(np.array([1.0, -1.0]))
    rv = tt.Tensor(np.array([4.0, 0.25]))
    x = tt.Tensor([[3.0, 0.0]])
    out = tt.batch_norm(x, tt.Tensor(np.ones(2)), tt.Tensor(np.zeros(2)),
                        rm, rv, train=False)
    want = [[2.0 / np.sqrt(4.0 + tt.BN_EPS), 1.0 / np.sqrt(0.25 + tt.BN_EPS)]]
    assert np.allclose(out.data, want)


def test_batch_norm_updates_running_stats_with_momentum():
    rm = tt.Tensor(np.zeros(1))
    rv = tt.Tensor(np.ones(1))
    x = tt.Tensor([[1.0], [3.0]])
    with tt.hold_batch_stats() as held:
        tt.batch_norm(x, tt.Tensor(np.ones(1)), tt.Tensor(np.zeros(1)), rm, rv, train=True)
    tt.batch_norm(x, tt.Tensor(np.ones(1)), tt.Tensor(np.zeros(1)), rm, rv, train=True)
    assert rm.data.tolist() == [0.0] and rv.data.tolist() == [1.0]  # the forward writes nothing
    tt.fold_batch_stats(held)
    assert np.allclose(rm.data, [0.1 * 2.0])
    assert np.allclose(rv.data, [0.9 * 1.0 + 0.1 * 1.0])  # biased var of [1,3] is 1


def test_three_layer_mlp_matches_finite_differences():
    rng = np.random.default_rng(42)
    x = rng.standard_normal((4, 5))
    w1, b1 = rng.standard_normal((5, 8)), rng.standard_normal(8)
    w2, b2 = rng.standard_normal((8, 6)), rng.standard_normal(6)
    w3 = rng.standard_normal((6, 1))
    params = [w1, b1, w2, b2, w3]
    tensors = [tt.Tensor(p) for p in params]

    def forward():
        t1, tb1, t2, tb2, t3 = tensors
        h1 = tt.relu(tt.add(tt.matmul(tt.Tensor(x), t1), tb1))
        h2 = tt.relu(tt.add(tt.matmul(h1, t2), tb2))
        return tt.tsum(tt.matmul(h2, t3))

    # keep pre-activations away from relu kinks so the oracle is valid
    h1_pre = x @ w1 + b1
    h2_pre = np.maximum(h1_pre, 0) @ w2 + b2
    assert np.min(np.abs(h1_pre)) > 1e-4 and np.min(np.abs(h2_pre)) > 1e-4

    analytic = tt.gradients(forward(), tensors)
    numeric = numeric_grads(lambda: forward().item(), params)
    assert max_rel_error(analytic, numeric) < 1e-6


# ---------------------------------------------------------------------------
# evaluation fast paths: the same bytes as the recorded path and the formulas
# they replace, on the floating-point edge cases

def _eval_and_recorded(build, *arrays):
    with tt.no_grad():
        fast = build(*[tt.Tensor(a) for a in arrays])
    recorded = build(*[tt.Tensor(a) for a in arrays])
    assert fast.parents == () and recorded.parents
    return fast.data, recorded.data


def _old_relu(x):
    return np.where(x > 0, x, 0.0)


def _old_amax(x, axis):
    arg = np.argmax(x, axis=axis)
    return np.take_along_axis(x, np.expand_dims(arg, axis), axis=axis).squeeze(axis)


def _old_bn_eval(x, gamma, beta, mean, var, eps=1e-5):
    inv_std = 1.0 / np.sqrt(np.maximum(var, 0.0) + eps)
    return gamma * ((x - mean) * inv_std) + beta


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf and NaN inputs
@pytest.mark.parametrize("seed", range(4))
def test_relu_fast_path_is_bitwise(seed):
    x = edge_array((6, 5, 7), seed)
    # np.fmax returns -0.0 for (-0.0, 0.0) on some lanes and +0.0 on others
    for case in (x, np.full(9 + seed, -0.0)):
        fast, recorded = _eval_and_recorded(tt.relu, case)
        assert fast.tobytes() == recorded.tobytes() == _old_relu(case).tobytes()
    t = tt.Tensor(x)
    g = np.random.default_rng(seed).standard_normal(x.shape)
    (grad,) = tt.gradients(tt.tsum(tt.mul(tt.relu(t), tt.Tensor(g))), [t])
    assert grad.tobytes() == (g * (x > 0)).tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf and NaN inputs
@pytest.mark.parametrize("seed", range(4))
def test_amax_fast_path_is_bitwise(seed):
    # signed zeros tie: both paths must return the first maximal element
    x = edge_array((5, 9, 4), seed)
    x[0, :, 0] = [-0.0, 0.0, -1.0, -0.0, 0.0, -np.inf, -TINY, 0.0, -0.0]
    x[1, :, 1] = [0.0, -0.0, -1.0, 0.0, -0.0, -np.inf, -TINY, -0.0, 0.0]
    for axis in range(3):
        fast, recorded = _eval_and_recorded(lambda t: tt.amax(t, axis), x)
        assert fast.tobytes() == recorded.tobytes() == _old_amax(x, axis).tobytes()
    vec = np.array([-0.0, 0.0, -3.0])
    fast, recorded = _eval_and_recorded(lambda t: tt.amax(t, 0), vec)
    assert fast.shape == recorded.shape == ()
    assert fast.tobytes() == recorded.tobytes() == _old_amax(vec, 0).tobytes()
    finite = np.where(np.isfinite(x), x, 0.5)
    t = tt.Tensor(finite)
    g = np.random.default_rng(seed).standard_normal((5, 4))
    (grad,) = tt.gradients(tt.tsum(tt.mul(tt.amax(t, 1), tt.Tensor(g))), [t])
    expected = np.zeros_like(finite)
    np.put_along_axis(expected, np.argmax(finite, axis=1)[:, None], g[:, None], axis=1)
    assert grad.tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf and NaN inputs
@pytest.mark.parametrize("seed", range(4))
def test_batch_norm_eval_fast_path_is_bitwise(seed):
    c = 7
    x = edge_array((4, 5, c), seed)
    params = [edge_array((c,), seed + 10 + i) for i in range(3)]
    var = np.abs(edge_array((c,), seed + 20))
    var[0] = -0.5  # noise can push a running variance below zero

    def build(x, gamma, beta, mean):
        return tt.batch_norm(x, gamma, beta, mean, tt.Tensor(var), train=False)

    fast, recorded = _eval_and_recorded(build, x, *params)
    assert fast.tobytes() == recorded.tobytes() == _old_bn_eval(x, *params, var).tobytes()
    assert x.tobytes() == edge_array((4, 5, c), seed).tobytes()  # input untouched

    rng = np.random.default_rng(seed)
    x, gamma, beta, mean = (rng.standard_normal(s) for s in ((4, 5, c), c, c, c))
    tx, tg, tb = tt.Tensor(x), tt.Tensor(gamma), tt.Tensor(beta)
    g = rng.standard_normal(x.shape)
    out = tt.batch_norm(tx, tg, tb, tt.Tensor(mean), tt.Tensor(var), train=False)
    grads = tt.gradients(tt.tsum(tt.mul(out, tt.Tensor(g))), [tx, tg, tb])
    inv_std = 1.0 / np.sqrt(np.maximum(var, 0.0) + 1e-5)
    xhat = (x - mean) * inv_std
    expected = [g * gamma * inv_std, (g * xhat).sum(axis=(0, 1)), g.sum(axis=(0, 1))]
    for got, want in zip(grads, expected):
        assert got.tobytes() == want.tobytes()


def _old_bn_train(x, gamma, beta, rmean, rvar, eps=1e-5, momentum=0.9):
    """Train-mode batch norm as np.mean plus np.var: output, updated running
    statistics, and the VJPs into x, gamma and beta."""
    axes = tuple(range(x.ndim - 1))
    mu = x.mean(axis=axes)
    var = x.var(axis=axes)
    rmean = momentum * rmean + (1.0 - momentum) * mu
    rvar = momentum * rvar + (1.0 - momentum) * var
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std

    def vjps(g):
        gm = g.mean(axis=axes)
        gxm = (g * xhat).mean(axis=axes)
        return [(gamma * inv_std) * (g - gm - xhat * gxm), (g * xhat).sum(axis=axes), g.sum(axis=axes)]

    return gamma * xhat + beta, rmean, rvar, vjps


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and NaN inputs
@pytest.mark.parametrize("shape", [(4, 5, 7), (9, 7), (3, 2, 4, 7), (72, 32, 7)])
@pytest.mark.parametrize("seed", range(3))
def test_batch_norm_train_is_bitwise(shape, seed):
    c = shape[-1]
    rng = np.random.default_rng(seed)
    cases = [[edge_array(s, seed + i) for i, s in enumerate((shape, c, c, c, c, shape))],
             [rng.standard_normal(s) for s in (shape, c, c, c, c, shape)]]
    cases[1][4] = np.abs(cases[1][4])
    for x, gamma, beta, rmean, rvar, g in cases:
        rm, rv = tt.Tensor(rmean.copy()), tt.Tensor(rvar.copy())
        with tt.hold_batch_stats() as held:
            out = tt.batch_norm(tt.Tensor(x), tt.Tensor(gamma), tt.Tensor(beta), rm, rv, train=True)
        want, want_rm, want_rv, vjps = _old_bn_train(x, gamma, beta, rmean, rvar)
        assert out.data.tobytes() == want.tobytes()
        assert rm.data.tobytes() == rmean.tobytes() and rv.data.tobytes() == rvar.tobytes()
        tt.fold_batch_stats(held)
        assert rm.data.tobytes() == want_rm.tobytes()
        assert rv.data.tobytes() == want_rv.tobytes()
        for (_, vjp), expected in zip(out.parents, vjps(g)):
            assert vjp(g).tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and NaN inputs
@pytest.mark.parametrize("seed", range(3))
def test_batch_norm_train_is_bitwise_with_and_without_the_tape(seed):
    shape, c = (4, 5, 7), 7
    x, gamma, beta, rmean, rvar, g = [edge_array(s, seed + i)
                                      for i, s in enumerate((shape, c, c, c, c, shape))]
    want, want_rm, want_rv, vjps = _old_bn_train(x, gamma, beta, rmean, rvar)
    outs = []
    for recording in (True, False):
        rm, rv = tt.Tensor(rmean.copy()), tt.Tensor(rvar.copy())
        with contextlib.nullcontext() if recording else tt.no_grad(), tt.hold_batch_stats() as held:
            out = tt.batch_norm(tt.Tensor(x), tt.Tensor(gamma), tt.Tensor(beta), rm, rv, train=True)
        tt.fold_batch_stats(held)
        assert out.data.tobytes() == want.tobytes()
        assert rm.data.tobytes() == want_rm.tobytes()
        assert rv.data.tobytes() == want_rv.tobytes()
        outs.append(out)
    assert outs[1].parents == ()
    assert [vjp(g).tobytes() for _, vjp in outs[0].parents] == [v.tobytes() for v in vjps(g)]
    assert x.tobytes() == edge_array(shape, seed).tobytes()  # input untouched


def _old_leaky_relu(x, slope=0.01):
    mask = x > 0
    return np.where(mask, x, slope * x), lambda g: [g * np.where(mask, 1.0, slope)]


def _old_clip(x, lo=-1.0, hi=1.0):
    inside = (x > lo) & (x < hi)
    return np.clip(x, lo, hi), lambda g: [g * inside]


def _old_cosine(a, b):
    na, nb = np.linalg.norm(a, axis=1), np.linalg.norm(b, axis=1)
    denom = na * nb
    bad = denom == 0.0
    safe = np.where(bad, 1.0, denom)
    sim = np.where(bad, 0.0, (a * b).sum(axis=1) / safe)

    def vjps(g):
        g = np.where(bad, 0.0, g)[:, None]
        return [g * (b / safe[:, None] - sim[:, None] * a / np.where(bad, 1.0, na * na)[:, None]),
                g * (a / safe[:, None] - sim[:, None] * b / np.where(bad, 1.0, nb * nb)[:, None])]

    return sim, vjps


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and NaN inputs
@pytest.mark.parametrize("build,old,shapes", [
    (lambda a: tt.leaky_relu(a, 0.01), _old_leaky_relu, [(6, 5, 7)]),
    (lambda a: tt.clip(a, -1.0, 1.0), _old_clip, [(6, 5, 7)]),
    (tt.cosine_similarity, _old_cosine, [(9, 7), (9, 7)]),
], ids=["leaky_relu", "clip", "cosine_similarity"])
@pytest.mark.parametrize("seed", range(4))
def test_op_is_bitwise_with_and_without_the_tape(build, old, shapes, seed):
    rng = np.random.default_rng(seed)
    # edge values, and plain values, whose norms are finite
    for arrays in ([edge_array(s, seed + i) for i, s in enumerate(shapes)],
                   [rng.standard_normal(s) for s in shapes]):
        if build is tt.cosine_similarity:  # zero-norm rows
            arrays[0][0], arrays[1][1] = 0.0, -0.0
        want, vjps = old(*arrays)
        with tt.no_grad():
            untaped = build(*[tt.Tensor(a) for a in arrays])
        recorded = build(*[tt.Tensor(a) for a in arrays])
        assert untaped.parents == () and len(recorded.parents) == len(arrays)
        assert untaped.data.tobytes() == recorded.data.tobytes() == want.tobytes()
        g = edge_array(want.shape, seed + 10)
        assert [vjp(g).tobytes() for _, vjp in recorded.parents] == [v.tobytes() for v in vjps(g)]


@pytest.mark.parametrize("seed", range(3))
def test_held_batch_stats_fold_later_to_the_bits_of_an_in_place_fold(seed):
    # a target site trains on one model's running statistics and folds its
    # batch statistics into the central site's later; a nested hold (the
    # statistics network's marginal pass) drops its own
    rng = np.random.default_rng(seed)
    x, gamma, beta = rng.standard_normal((9, 7)), rng.standard_normal(7), rng.standard_normal(7)
    (mean0, var0), (mean1, var1) = [(rng.standard_normal(7), np.abs(rng.standard_normal(7)))
                                    for _ in range(2)]
    rm, rv = tt.Tensor(mean0.copy()), tt.Tensor(var0.copy())
    args = (tt.Tensor(x), tt.Tensor(gamma), tt.Tensor(beta))
    with tt.hold_batch_stats() as held:
        out = tt.batch_norm(*args, rm, rv, train=True)
        with tt.hold_batch_stats() as inner:
            tt.batch_norm(*args, rm, rv, train=True)
    assert len(held) == 1 and held[0][:2] == (rm, rv) and len(inner) == 1
    assert rm.data.tobytes() == mean0.tobytes() and rv.data.tobytes() == var0.tobytes()
    rm.data[...], rv.data[...] = mean1, var1
    tt.fold_batch_stats(held)
    want, want_rm, want_rv, _ = _old_bn_train(x, gamma, beta, mean1, var1)
    assert out.data.tobytes() == want.tobytes()
    assert rm.data.tobytes() == want_rm.tobytes()
    assert rv.data.tobytes() == want_rv.tobytes()
    assert not np.array_equal(want_rm, mean1)


def test_only_the_tape_switches_read_the_recording_flag():
    """One path per op: `_RECORDING` is read only by `no_grad`, which sets
    it, by `Tensor.__init__`, which drops the parents off the tape, and by
    `batch_norm`, whose output overwrites its normalized input off the tape."""
    tree = ast.parse(Path(tt.__file__).read_text())
    defs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    defs.update((f"{cls.name}.{node.name}", node) for cls in tree.body
                if isinstance(cls, ast.ClassDef) for node in cls.body
                if isinstance(node, ast.FunctionDef))

    def reads(node):
        return sum(isinstance(n, ast.Name) and n.id == "_RECORDING" and isinstance(n.ctx, ast.Load)
                   for n in ast.walk(node))

    readers = {name for name, node in defs.items() if reads(node)}
    assert readers <= {"Tensor.__init__", "no_grad", "batch_norm"}
    assert reads(tree) == sum(reads(defs[name]) for name in readers)  # none outside a function


def test_only_the_round_code_folds_batch_statistics():
    """A forward never writes the model: in the package only `fedsim` names
    `fold_batch_stats`, and only `tensor` names `_HELD`, the list a
    training-mode batch norm appends its statistics to."""
    namers = {"fold_batch_stats": set(), "_HELD": set()}
    fields = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}  # x, m.x, import x
    for path in sorted(Path(tt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            field = fields.get(type(node))
            if field and getattr(node, field) in namers:
                namers[getattr(node, field)].add(path.name)
    assert namers == {"fold_batch_stats": {"fedsim.py"}, "_HELD": {"tensor.py"}}
