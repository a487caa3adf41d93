"""ParamStore, Adam, learning-rate schedules, and the gradient checker."""

import numpy as np
import pytest

from conftest import edge_array
from dafed import tensor as tt
from dafed.optim import (Adam, GradCheckResult, LrProfile, ParamStore,
                         adam_step, grad_check, is_running_stat, lr_at)


def _store(**tensors):
    s = ParamStore()
    for name, val in tensors.items():
        s.add(name, np.asarray(val, dtype=np.float64))
    return s


def test_store_iterates_lexicographically():
    s = _store(zeta=[1.0], alpha=[2.0], mid=[3.0])
    assert s.names() == ["alpha", "mid", "zeta"]
    assert [n for n, _ in s.items()] == ["alpha", "mid", "zeta"]


def test_store_rejects_duplicates():
    s = _store(w=[1.0])
    with pytest.raises(ValueError):
        s.add("w", [2.0])


def test_store_copy_is_deep():
    s = _store(w=[1.0, 2.0])
    dup = s.copy()
    dup["w"].data[0] = 99.0
    assert s["w"].data[0] == 1.0


def test_adam_zero_gradients_is_identity():
    s = _store(a=[[1.0, -2.0]], b=[0.5])
    before = {n: t.data.copy() for n, t in s.items()}
    opt = Adam(names=tuple(s.names()))
    adam_step(s, opt, {"a": np.zeros((1, 2)), "b": np.zeros(1)}, lr=0.1)
    for n in s.names():
        assert np.array_equal(s[n].data, before[n])


def test_adam_single_step_hand_value():
    # theta=0, g=1, lr=1e-3: bias-corrected update is lr/(1 + eps)
    s = _store(theta=[0.0])
    opt = Adam(names=("theta",))
    adam_step(s, opt, {"theta": np.array([1.0])}, lr=0.001)
    expected = -0.001 / (1.0 + 1e-8)
    assert abs(s["theta"].data[0] - expected) < 1e-15


def test_adam_missing_gradient_treated_as_zero():
    s = _store(a=[3.0], b=[4.0])
    opt = Adam(names=tuple(s.names()))
    adam_step(s, opt, {"a": np.array([1.0])}, lr=0.01)
    assert s["b"].data[0] == 4.0
    assert s["a"].data[0] != 3.0


def test_adam_is_deterministic():
    results = []
    for _ in range(2):
        s = _store(w=np.linspace(-1, 1, 7))
        opt = Adam(names=("w",))
        for step in range(5):
            g = np.sin(np.arange(7, dtype=float) + step)
            adam_step(s, opt, {"w": g}, lr=0.05)
        results.append(s["w"].data.copy())
    assert np.array_equal(results[0], results[1])


def _old_adam_step(params, m, v, grads, step, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Adam with a fresh array per operation: (params, m, v) after `step`."""
    c1 = 1.0 - beta1 ** step
    c2 = 1.0 - beta2 ** step
    out = {}
    for name, p in params.items():
        g = grads.get(name, np.zeros(p.shape))
        m[name] = beta1 * m[name] + (1.0 - beta1) * g
        v[name] = beta2 * v[name] + (1.0 - beta2) * (g * g)
        out[name] = p - lr * (m[name] / c1) / (np.sqrt(v[name] / c2) + eps)
    return out, m, v


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and NaN inputs
@pytest.mark.parametrize("seed", range(4))
def test_adam_step_is_bitwise(seed):
    shapes = {"a": (4, 5), "b": (7,), "c": (2, 3, 2), "d": (3,)}
    params = {n: edge_array(shape, seed + i) for i, (n, shape) in enumerate(shapes.items())}
    s = _store(**{n: p.copy() for n, p in params.items()})
    opt = Adam(names=tuple(shapes))
    m = {n: np.zeros(shape) for n, shape in shapes.items()}
    v = {n: np.zeros(shape) for n, shape in shapes.items()}
    for n in ("a", "b", "c"):  # edge moments, negative v included; d's start at zero
        m[n], v[n] = edge_array(shapes[n], seed + 10), edge_array(shapes[n], seed + 20)
        opt.m[n], opt.v[n] = m[n].copy(), v[n].copy()
    for step in range(1, 4):
        grads = {n: edge_array(params[n].shape, 100 * seed + 10 * step + i)
                 for i, n in enumerate(params) if n != "b" or step != 2}  # b: no gradient
        lr = (1e-3, 0.5, 2.2e-308)[step - 1]
        adam_step(s, opt, grads, lr)
        params, m, v = _old_adam_step(params, m, v, grads, step, lr)
        for n in params:
            assert s[n].data.tobytes() == params[n].tobytes(), (step, n)
            assert opt.m[n].tobytes() == m[n].tobytes(), (step, n)
            assert opt.v[n].tobytes() == v[n].tobytes(), (step, n)


def test_running_stats_are_flagged():
    assert is_running_stat("stfg.l1.bn.running_mean")
    assert is_running_stat("clf.bn.running_var")
    assert not is_running_stat("clf.bn.gamma")


def test_lr_warmup_then_decay():
    p = LrProfile("warmup_decay", base=1e-4, decay_rate=0.99, warmup_rounds=10)
    assert lr_at(p, 0, 100) == 0.0
    assert lr_at(p, 5, 100) == pytest.approx(5e-5)
    assert lr_at(p, 10, 100) == pytest.approx(1e-4)
    assert lr_at(p, 12, 100) == pytest.approx(1e-4 * 0.99 ** 2)


def test_lr_decay_closed_form():
    p = LrProfile("decay", base=0.01, decay_rate=0.95)
    assert lr_at(p, 2, 50) == pytest.approx(0.009025, abs=1e-15)


def test_lr_warmup_default_is_ten_percent():
    p = LrProfile("warmup_decay", base=1.0, decay_rate=1.0)
    assert lr_at(p, 4, 50) == pytest.approx(4 / 5)
    assert lr_at(p, 5, 50) == pytest.approx(1.0)


def test_lr_profile_rejects_unknown_kind():
    with pytest.raises(ValueError):
        LrProfile("linear", base=1.0)


def test_lr_past_total_keeps_decaying():
    p = LrProfile("decay", base=1.0, decay_rate=0.5)
    assert lr_at(p, 60, 50) == pytest.approx(0.5 ** 60)


def test_grad_check_identity_sum():
    s = _store(w=np.linspace(0.5, 2.0, 6).reshape(2, 3))
    res = grad_check(lambda st: tt.tsum(st["w"]), s)
    assert res.ok
    assert res.max_rel_error < 1e-9


def test_grad_check_flags_wrong_rule():
    s = _store(w=np.array([0.7, 1.3]))

    def bad_square(st):
        w = st["w"]
        # custom node with a deliberately wrong vjp (factor 3 instead of 2)
        wrong = tt.Tensor(w.data * w.data, parents=[(w, lambda g: 3.0 * w.data * g)], op="bad_square")
        return tt.tsum(wrong)

    res = grad_check(bad_square, s)
    assert res.max_rel_error > 0.1
    assert res.worst_name == "w"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_grad_check_reports_nan_probe():
    s = _store(w=np.array([0.0]))

    def f(st):
        return tt.tsum(tt.log(st["w"]))  # log near 0 goes to NaN under probing

    res = grad_check(f, s)
    assert isinstance(res, GradCheckResult)
    assert res.nan_failures, "expected the NaN probe to be reported"


def test_grad_check_restores_store_state():
    s = _store(w=np.array([1.0, 2.0]))
    grad_check(lambda st: tt.tsum(tt.mul(st["w"], st["w"])), s)
    assert np.array_equal(s["w"].data, [1.0, 2.0])
