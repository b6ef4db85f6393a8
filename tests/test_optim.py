import numpy as np
import pytest

from dualgcn import optim, tape
from dualgcn.graph import add_self_loops, build_graph, sym_normalize
from dualgcn.optim import AdamState, adam_step, finite_diff_check, init_adam_states
from dualgcn.rng import RngStream
from dualgcn.tape import Parameter


def test_zero_gradient_zero_decay_leaves_params():
    p = Parameter(np.array([1.0, -2.0]))
    p.grad = np.zeros(2)
    states = init_adam_states([p])
    adam_step([p], states, lr=0.1, weight_decay=0.0)
    np.testing.assert_array_equal(p.value, [1.0, -2.0])


def test_rejects_nonpositive_lr():
    p = Parameter(np.zeros(1))
    with pytest.raises(ValueError):
        adam_step([p], init_adam_states([p]), lr=0.0)


def test_quadratic_converges():
    # minimize (theta - 3)^2 / 2 from 0
    p = Parameter(np.zeros(1))
    states = init_adam_states([p])
    for _ in range(500):
        p.grad = p.value - 3.0
        adam_step([p], states, lr=0.1)
    assert abs(p.value[0] - 3.0) < 1e-3


@pytest.mark.parametrize("g", [1e-6, 1e-2, 1.0, 1e4])
def test_first_step_magnitude_is_about_lr(g):
    lr = 0.05
    p = Parameter(np.zeros(1))
    states = init_adam_states([p])
    p.grad = np.array([g])
    adam_step([p], states, lr=lr)
    step = abs(p.value[0])
    assert 0.9 * lr <= step <= 1.0 * lr


def test_weight_decay_added_to_gradient():
    p = Parameter(np.array([10.0]))
    states = init_adam_states([p])
    p.grad = np.zeros(1)
    adam_step([p], states, lr=0.1, weight_decay=0.01)
    # decay alone moves the parameter toward zero by about lr on step one
    assert p.value[0] < 10.0


def test_grads_zeroed_after_step():
    p = Parameter(np.ones(3))
    p.grad = np.ones(3)
    adam_step([p], init_adam_states([p]), lr=0.01)
    assert p.grad is None


def test_step_counter_increases():
    p = Parameter(np.ones(1))
    st = AdamState(p)
    for t in range(1, 4):
        p.grad = np.ones(1)
        adam_step([p], [st], lr=0.01)
        assert st.t == t


def _adam_formula(value, m, v, grad, t, lr, weight_decay):
    """One Adam step as the out-of-place formula computes it: the oracle
    for adam_step's in-place update."""
    g = grad if grad is not None else np.zeros_like(value)
    if weight_decay:
        g = g + weight_decay * value
    m = optim._BETA1 * m + (1.0 - optim._BETA1) * g
    v = optim._BETA2 * v + (1.0 - optim._BETA2) * (g * g)
    m_hat = m / (1.0 - optim._BETA1**t)
    v_hat = v / (1.0 - optim._BETA2**t)
    return value - lr * m_hat / (np.sqrt(v_hat) + optim._EPS), m, v


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
def test_in_place_step_equals_the_formula_bit_for_bit(dtype, weight_decay):
    rng = RngStream(40, ("adam-formula",))
    params = [Parameter(rng.child("w", k).random(shape).astype(dtype) - 0.5, name=f"w{k}")
              for k, shape in enumerate([(4, 3), (5,)])]
    states = init_adam_states(params)
    expected = [(p.value.copy(), np.zeros_like(p.value), np.zeros_like(p.value)) for p in params]
    for t in range(1, 6):
        grads = [None if (t + k) % 3 == 0 else (rng.child("g", t, k).random(p.value.shape) - 0.5).astype(dtype)
                 for k, p in enumerate(params)]
        for p, g in zip(params, grads):
            p.grad = None if g is None else g.copy()
        adam_step(params, states, lr=0.01, weight_decay=weight_decay)
        expected = [_adam_formula(*e, g, t, 0.01, weight_decay) for e, g in zip(expected, grads)]
        for p, st, (value, m, v) in zip(params, states, expected):
            assert p.value.dtype == st.m.dtype == st.v.dtype == dtype
            assert np.array_equal(p.value, value) and np.array_equal(st.m, m) and np.array_equal(st.v, v)
    assert any(g is None for g in grads)


def test_adam_state_holds_only_the_moments_and_step():
    assert AdamState.__slots__ == ("m", "v", "t")


def test_finite_diff_linear_loss_is_exact():
    w = Parameter(RngStream(0).random((3, 2)), name="w")
    c = RngStream(1).random((3, 2))

    def loss_fn():
        return tape.vdot_const(w, c)

    report = finite_diff_check(loss_fn, [w], h=1e-5)
    assert report["w"]["max_rel_err"] <= 1e-9
    assert report["w"]["passed"]


def test_finite_diff_two_layer_gcn_on_k3():
    g = add_self_loops(build_graph([(0, 1), (1, 2), (0, 2)], n=3))
    op = tape.SparseConst.of(sym_normalize(g.adj))
    x = RngStream(2).random((3, 4))
    labels = np.array([0, 1, 0])
    w0 = Parameter(RngStream(3).random((4, 4)) - 0.5, name="w0")
    w1 = Parameter(RngStream(4).random((4, 2)) - 0.5, name="w1")

    def loss_fn():
        h = tape.relu(tape.matmul(op, tape.matmul(x, w0)))
        z = tape.row_softmax(tape.matmul(op, tape.matmul(h, w1)))
        return tape.masked_cross_entropy(z, labels, np.arange(3))

    report = finite_diff_check(loss_fn, [w0, w1], h=1e-5)
    assert all(entry["max_rel_err"] <= 1e-4 for entry in report.values())


def test_finite_diff_reports_no_grad_group():
    w = Parameter(np.ones((2, 2)), name="w")
    dead = Parameter(np.ones(2), name="dead")

    def loss_fn():
        return tape.sum_sq(w)

    report = finite_diff_check(loss_fn, [w, dead], h=1e-5)
    assert report["dead"]["status"] == "no-grad, skipped"
    assert report["w"]["passed"]


def test_finite_diff_catches_wrong_gradient():
    w = Parameter(np.array([1.0, 2.0]), name="w")

    def loss_fn():
        t = tape.sum_sq(w)
        # leak half the first coordinate outside the tape: finite
        # differences see the slope, the analytic gradient does not
        return tape.Tensor(t.value + 0.5 * float(w.value[0]), (t,), lambda g: (g,))

    report = finite_diff_check(loss_fn, [w], h=1e-5)
    assert not report["w"]["passed"]
