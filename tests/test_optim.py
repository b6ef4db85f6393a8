import numpy as np
import pytest

from dualgcn import tape
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
