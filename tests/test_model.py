import numpy as np
import pytest
import scipy.sparse as sp

from dualgcn import model, tape
from dualgcn.data import load_dataset
from dualgcn.errors import ConfigError, DataError, NumericError
from dualgcn.graph import Graph, add_self_loops, sym_normalize
from dualgcn.model import (
    ForwardCache,
    ModelConfig,
    accuracy,
    fit,
    forward,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
    total_loss,
    _GraphContext,
)
from dualgcn.ppmi import WalkConfig
from dualgcn.rng import RngStream
from conftest import constant, count_support_builds, make_random_graph, make_sbm_bundle, save_dataset


def _identity_op(n):
    return sp.identity(n, format="csr")


def _cfg(**kw):
    base = dict(hidden_gcn=4, hidden_gl=None, depth=2, dropout=0.0, epochs=5,
                walk=WalkConfig(q=2, w=2, gamma_walks=20), eval_every=1)
    base.update(kw)
    return ModelConfig(**base)


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(depth=1)
    with pytest.raises(ConfigError):
        ModelConfig(lambda1=-0.1)
    with pytest.raises(ConfigError):
        ModelConfig(dropout=1.0)
    with pytest.raises(ConfigError):
        ModelConfig(supervise="x")


def test_forward_identity_operators_reduce_to_mlp():
    rng = RngStream(0)
    n, p, k = 6, 5, 3
    x = rng.random((n, p))
    cfg = _cfg()
    params = init_params(p, k, cfg, RngStream(1))
    ident = _identity_op(n)
    cache = forward(x, ident, ident, params, cfg, mode="eval")
    w0, w1 = params.w_a[0].value, params.w_a[1].value
    logits = np.maximum(x @ w0, 0.0) @ w1
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    expected = e / e.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(cache.za.value, expected, rtol=1e-12)
    np.testing.assert_allclose(cache.zp.value, expected, rtol=1e-12)


def test_forward_zero_features_give_uniform_rows():
    n, p, k = 4, 3, 5
    cfg = _cfg()
    params = init_params(p, k, cfg, RngStream(2))
    cache = forward(np.zeros((n, p)), _identity_op(n), None, params, cfg, mode="eval")
    np.testing.assert_allclose(cache.za.value, np.full((n, k), 1 / k), atol=1e-15)


def test_forward_matches_dense_reimplementation():
    rng = RngStream(3)
    g = add_self_loops(make_random_graph(8, 0.35, seed=3))
    x = rng.random((8, 6))
    cfg = _cfg(hidden_gl=3, lambda2=0.01)
    params = init_params(6, 3, cfg, RngStream(4))
    ctx = _GraphContext(x, make_random_graph(8, 0.35, seed=3), cfg)
    s = ctx.build_affinity(params, cfg)
    p_dense = rng.random((8, 8))
    p_dense = (p_dense + p_dense.T) / 2
    p_op = sym_normalize(p_dense)
    cache = forward(x, s, p_op, params, cfg, mode="eval")

    # independent dense-path recomputation
    s_dense = s.matrix().toarray()
    d = s_dense.sum(axis=1)
    t_dense = s_dense / np.sqrt(np.outer(d, d))
    w0, w1 = params.w_a[0].value, params.w_a[1].value

    def softmax(m):
        e = np.exp(m - m.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    za = softmax(t_dense @ (np.maximum(t_dense @ (x @ w0), 0.0) @ w1))
    tp = p_op.toarray()
    zp = softmax(tp @ (np.maximum(tp @ (x @ w0), 0.0) @ w1))
    np.testing.assert_allclose(cache.za.value, za, atol=1e-10)
    np.testing.assert_allclose(cache.zp.value, zp, atol=1e-10)


def test_forward_outputs_row_stochastic_train_and_eval():
    g = make_random_graph(10, 0.3, seed=5)
    x = RngStream(6).random((10, 4))
    cfg = _cfg(dropout=0.5, hidden_gl=3)
    params = init_params(4, 3, cfg, RngStream(7))
    ctx = _GraphContext(x, g, cfg)
    s = ctx.build_affinity(params, cfg)
    p_op = sym_normalize(add_self_loops(g).adj)
    for mode, rng in (("train", RngStream(8)), ("eval", None)):
        cache = forward(x, ctx.build_affinity(params, cfg), p_op, params, cfg, mode, rng, epoch=0)
        np.testing.assert_allclose(cache.za.value.sum(axis=1), np.ones(10), atol=1e-12)
        np.testing.assert_allclose(cache.zp.value.sum(axis=1), np.ones(10), atol=1e-12)


def test_total_loss_reduces_to_plain_cross_entropy():
    n, k = 6, 3
    rng = RngStream(9)
    za = tape.row_softmax(constant(rng.random((n, k))))
    cache = ForwardCache(za=za, zp=None)
    labels = rng.integers(0, k, n)
    cfg = _cfg(lambda1=0.0, lambda2=0.0)
    loss, comps = total_loss(cache, labels, np.arange(n), None, cfg)
    expected = tape.masked_cross_entropy(za, labels, np.arange(n)).item()
    assert loss.item() == pytest.approx(expected, rel=1e-15)
    assert comps["lreg"] == 0.0 and comps["lgl"] == 0.0


def test_total_loss_zero_agreement_for_identical_branches():
    n, k = 5, 4
    z = tape.row_softmax(constant(RngStream(10).random((n, k))))
    cache = ForwardCache(za=z, zp=z)
    cfg = _cfg(lambda1=0.7)
    loss, comps = total_loss(cache, np.zeros(n, dtype=int), np.arange(n), None, cfg)
    assert comps["lreg"] == 0.0


def test_total_loss_components_sum():
    rng = RngStream(11)
    n, k = 8, 3
    za = tape.row_softmax(constant(rng.random((n, k))))
    zp = tape.row_softmax(constant(rng.random((n, k))))
    gl_term = constant(np.float64(1.234))
    cache = ForwardCache(za=za, zp=zp)
    cfg = _cfg(lambda1=0.3, lambda2=0.2)
    labels = rng.integers(0, k, n)
    loss, comps = total_loss(cache, labels, np.arange(n), gl_term, cfg)
    assert loss.item() == pytest.approx(
        comps["l0"] + 0.3 * comps["lreg"] + 0.2 * comps["lgl"], rel=1e-12)
    assert comps["lgl"] == pytest.approx(1.234)


def test_total_loss_empty_mask_errors():
    z = tape.row_softmax(constant(np.zeros((2, 2))))
    cache = ForwardCache(za=z, zp=None)
    with pytest.raises(DataError):
        total_loss(cache, np.zeros(2, dtype=int), np.array([], dtype=int), None, _cfg())


def test_fit_is_bit_reproducible(karate):
    cfg = _cfg(hidden_gl=8, dropout=0.4, epochs=12, seed=5,
               lambda1=0.01, lambda2=0.01, ppmi_refresh=5)
    r1 = fit(karate, cfg)
    r2 = fit(karate, cfg)
    assert len(r1.history) == len(r2.history)
    for a, b in zip(r1.history, r2.history):
        assert a == b
    for p1, p2 in zip(r1.params.all_parameters(), r2.params.all_parameters()):
        np.testing.assert_array_equal(p1.value, p2.value)


def test_fit_best_val_snapshot(karate):
    cfg = _cfg(hidden_gl=None, dropout=0.4, epochs=15, seed=2)
    res = fit(karate, cfg)
    vals = [row["val_acc"] for row in res.history]
    assert res.best_val_acc == max(vals)
    # ties between equal-validation epochs resolve to the latest one
    assert res.best_epoch == len(vals) - 1 - vals[::-1].index(max(vals))
    pred = predict(res.params, karate)
    val_idx = np.flatnonzero(karate.val_mask)
    assert accuracy(pred, karate.y, val_idx) == pytest.approx(res.best_val_acc)


@pytest.mark.parametrize("epochs,validated", [(7, (0, 3, 6)), (8, (0, 3, 6, 7))], ids=["7-epochs", "8-epochs"])
def test_fit_validates_every_eval_every_epochs_and_at_the_last(monkeypatch, karate, epochs, validated):
    evals = []
    scorer = model._eval_predictions

    def counted(*args):
        evals.append(len(evals))
        return scorer(*args)

    monkeypatch.setattr(model, "_eval_predictions", counted)
    res = fit(karate, _cfg(hidden_gl=8, dropout=0.4, epochs=epochs, seed=3, eval_every=3))
    monkeypatch.undo()
    assert len(evals) == len(validated)
    vals = [row["val_acc"] for row in res.history]
    assert len(vals) == epochs
    # between validations a row repeats the last score
    for epoch in set(range(1, epochs)) - set(validated):
        assert vals[epoch] == vals[epoch - 1]
    assert res.best_epoch in validated
    assert res.best_val_acc == max(vals[e] for e in validated)
    val_idx = np.flatnonzero(karate.val_mask)
    assert accuracy(predict(res.params, karate), karate.y, val_idx) == pytest.approx(res.best_val_acc)


def test_fit_nonfinite_loss_aborts(karate):
    # after one step the weights are ~1e160, so layer products overflow
    cfg = _cfg(lr1=1e160, lr2=1e160, epochs=10, dropout=0.0, hidden_gl=4)
    with np.errstate(all="ignore"), pytest.raises(NumericError):
        fit(karate, cfg)


def test_fit_nonfinite_parameter_aborts(karate, monkeypatch):
    # a NaN written by the last update never reaches a loss, only the parameters
    cfg = _cfg(epochs=3)
    real_step = model.adam_step
    conv_steps = []

    def poisoned_step(group, states, lr, weight_decay):
        real_step(group, states, lr, weight_decay)
        if group[0].name == "W.0":
            conv_steps.append(1)
            if len(conv_steps) == cfg.epochs:
                group[-1].value[0, 0] = np.nan

    monkeypatch.setattr(model, "adam_step", poisoned_step)
    with pytest.raises(NumericError, match="W.1"):
        fit(karate, cfg)


def test_fit_stop_threshold(karate):
    cfg = _cfg(lr1=1e-12, lr2=1e-12, epochs=50, stop_threshold=1e-5)
    res = fit(karate, cfg)
    assert res.epochs_run < 50


def test_fit_requires_masks(karate):
    from dataclasses import replace

    stripped = replace(karate, train_mask=None)
    with pytest.raises(DataError):
        fit(stripped, _cfg())


def test_predict_uniform_rows_tie_break_to_class_zero(karate):
    cfg = _cfg(hidden_gl=None)
    params = init_params(karate.p, 4, cfg, RngStream(0))
    for p in params.all_parameters():
        p.value[...] = 0.0
    pred = predict(params, karate)
    np.testing.assert_array_equal(pred, np.zeros(34, dtype=np.int64))


def test_predict_reuses_the_fits_support_and_a_new_graph_builds_its_own(monkeypatch, karate):
    from dataclasses import replace

    params = fit(karate, _cfg(epochs=4)).params
    builds = count_support_builds(monkeypatch)
    pred = predict(params, karate)
    assert predict(params, karate).tobytes() == pred.tobytes()
    assert builds == []  # the fit built karate's support
    fresh = replace(karate, graph=Graph(n=karate.n, adj=karate.graph.adj.copy()))
    assert predict(params, fresh).tobytes() == pred.tobytes()
    assert builds == [34]


def test_prediction_invariant_to_constant_logit_shift():
    rng = RngStream(12)
    logits = rng.random((6, 4))
    base = np.argmax(tape.row_softmax(constant(logits)).value, axis=1)
    shifted = np.argmax(tape.row_softmax(constant(logits + 123.456)).value, axis=1)
    np.testing.assert_array_equal(base, shifted)


def test_accuracy_trivials():
    y = np.array([0, 1, 2, 1])
    assert accuracy(np.array([0, 1, 2, 1]), y, np.ones(4, dtype=bool)) == 1.0
    assert accuracy(np.array([1, 0, 0, 0]), y, np.ones(4, dtype=bool)) == 0.0
    assert accuracy(np.array([0, 1, 2, 0]), y, np.ones(4, dtype=bool)) == 0.75
    with pytest.raises(DataError):
        accuracy(y, y, np.zeros(4, dtype=bool))


def test_checkpoint_roundtrip(tmp_path, karate):
    cfg = _cfg(hidden_gl=6, epochs=4, dropout=0.3, seed=3)
    res = fit(karate, cfg)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, res.params, cfg_echo={"seed": 3})
    params, meta = load_checkpoint(path)
    assert meta["cfg"]["seed"] == 3
    np.testing.assert_array_equal(predict(params, karate), predict(res.params, karate))


def test_checkpoint_roundtrip_unshared(tmp_path, karate):
    cfg = _cfg(share_weights=False, epochs=3, seed=4, lambda1=0.05, ppmi_refresh=0)
    res = fit(karate, cfg)
    path = tmp_path / "ckpt.npz"
    save_checkpoint(path, res.params)
    params, _ = load_checkpoint(path)
    for a, b in zip(params.all_parameters(), res.params.all_parameters()):
        np.testing.assert_array_equal(a.value, b.value)


def test_supervise_p_and_both_run(karate):
    for supervise in ("p", "both"):
        cfg = _cfg(supervise=supervise, epochs=3, hidden_gl=4, seed=1)
        res = fit(karate, cfg)
        assert len(res.history) == 3


def test_fit_learns_synthetic_blocks():
    bundle = make_sbm_bundle(n=160, k=4, seed=13)
    cfg = _cfg(hidden_gcn=16, hidden_gl=6, dropout=0.3, epochs=120, seed=0,
               lr1=0.01, lr2=0.01, weight_decay=5e-4, ppmi_refresh=30)
    res = fit(bundle, cfg)
    pred = predict(res.params, bundle)
    test_acc = accuracy(pred, bundle.y, bundle.test_mask)
    assert test_acc >= 0.8, f"synthetic block accuracy too low: {test_acc}"


def test_fit_dense_mode_without_graph():
    from dataclasses import replace

    bundle = make_sbm_bundle(n=60, k=3, seed=14, noise=0.15)
    no_graph = replace(bundle, graph=None)
    cfg = _cfg(hidden_gcn=8, hidden_gl=None, dropout=0.2, epochs=200, seed=0,
               lr1=0.02, lr2=0.02, weight_decay=1e-4, lambda1=0.01, lambda2=0.001)
    res = fit(no_graph, cfg)
    pred = predict(res.params, no_graph)
    assert accuracy(pred, no_graph.y, no_graph.test_mask) >= 0.7


# ---------------------------------------------------------------------------
# reduction: frozen affinity + lambda1 = lambda2 = 0 must track a standalone
# two-layer graph convolution trained the same way
# ---------------------------------------------------------------------------

def _oracle_gcn_trajectory(bundle, cfg, epochs):
    """Independent numpy implementation of the two-layer convolution net,
    sharing only the rng stream labels and the normalized operator."""
    rng = RngStream(cfg.seed)
    t_mat = sym_normalize(add_self_loops(bundle.graph).adj)
    x = bundle.x if not sp.issparse(bundle.x) else bundle.x.toarray()
    n, p = x.shape
    k = bundle.class_count
    widths = [p, cfg.hidden_gcn, k]

    def glorot(stream, fi, fo):
        limit = np.sqrt(6.0 / (fi + fo))
        return stream.uniform(-limit, limit, (fi, fo))

    w = [glorot(rng.child("init", "W", layer), widths[layer], widths[layer + 1])
         for layer in range(2)]
    m = [np.zeros_like(wi) for wi in w]
    v = [np.zeros_like(wi) for wi in w]
    t_step = 0
    train_idx = np.flatnonzero(bundle.train_mask)
    val_idx = np.flatnonzero(bundle.val_mask)
    trajectory = []
    val_accs = []

    def softmax(mat):
        e = np.exp(mat - mat.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    for epoch in range(epochs):
        keep0 = rng.child("dropout", epoch, "a", 0).random(x.shape) >= cfg.dropout
        x0 = np.where(keep0, x / (1 - cfg.dropout), 0.0)
        u0 = x0 @ w[0]
        v0 = t_mat @ u0
        h1 = np.maximum(v0, 0.0)
        keep1 = rng.child("dropout", epoch, "a", 1).random(h1.shape) >= cfg.dropout
        h1d = np.where(keep1, h1 / (1 - cfg.dropout), 0.0)
        u1 = h1d @ w[1]
        v1 = t_mat @ u1
        z = softmax(v1)
        # gradients of the summed cross-entropy on the train nodes
        dv1 = np.zeros_like(z)
        dv1[train_idx] = z[train_idx]
        dv1[train_idx, bundle.y[train_idx]] -= 1.0
        du1 = t_mat.T @ dv1
        dw1 = h1d.T @ du1
        dh1d = du1 @ w[1].T
        dh1 = np.where(keep1, dh1d / (1 - cfg.dropout), 0.0)
        dv0 = dh1 * (v0 > 0)
        du0 = t_mat.T @ dv0
        dw0 = x0.T @ du0
        t_step += 1
        for i, grad in enumerate((dw0, dw1)):
            g = grad + cfg.weight_decay * w[i]
            m[i] = 0.9 * m[i] + 0.1 * g
            v[i] = 0.999 * v[i] + 0.001 * g * g
            m_hat = m[i] / (1 - 0.9**t_step)
            v_hat = v[i] / (1 - 0.999**t_step)
            w[i] -= cfg.lr2 * m_hat / (np.sqrt(v_hat) + 1e-8)
        z_eval = softmax(t_mat @ (np.maximum(t_mat @ (x @ w[0]), 0.0) @ w[1]))
        pred = np.argmax(z_eval, axis=1)
        val_accs.append((pred[val_idx] == bundle.y[val_idx]).mean())
        trajectory.append([wi.copy() for wi in w])
    return trajectory, val_accs


def test_frozen_affinity_reduction_tracks_standalone_gcn(karate):
    epochs = 25
    cfg = _cfg(hidden_gcn=8, learn_graph=False, lambda1=0.0, lambda2=0.0,
               dropout=0.5, epochs=epochs, seed=11, weight_decay=5e-4, lr2=0.01)
    res = fit(karate, cfg)
    oracle_traj, oracle_vals = _oracle_gcn_trajectory(karate, cfg, epochs)
    fit_vals = [row["val_acc"] for row in res.history]
    np.testing.assert_allclose(fit_vals, oracle_vals, atol=1e-12)
    best = len(oracle_vals) - 1 - oracle_vals[::-1].index(max(oracle_vals))
    for wi, oi in zip((p.value for p in res.params.w_a), oracle_traj[best]):
        np.testing.assert_allclose(wi, oi, rtol=1e-7, atol=1e-10)


# ---------------------------------------------------------------------------
# validation on the depth-hop ball of the validation nodes
# ---------------------------------------------------------------------------

def _ball_bundle(weighted: bool):
    """A 30-node ring with chords, an isolated node (30), a two-node
    component (31-32) and a 7-node path (33-39); validation nodes sit in
    every part, so the depth-hop ball is a strict subset of the graph."""
    from dualgcn.data import DatasetBundle
    from dualgcn.graph import build_graph

    rng = RngStream(40, ("ball",))
    edges = [(i, (i + 1) % 30) for i in range(30)] + [(0, 7), (4, 15), (11, 23), (18, 27)]
    edges += [(31, 32)] + [(i, i + 1) for i in range(33, 39)]
    if weighted:
        edges = [(i, j, 0.5 + 2.5 * rng.random()) for i, j in edges]
    n = 40
    graph = build_graph(edges, n)
    y = np.arange(n) % 3
    val = np.zeros(n, dtype=bool)
    val[[0, 2, 30, 31, 36]] = True
    train = np.zeros(n, dtype=bool)
    train[[5, 9, 13, 20, 33]] = True
    test = ~(val | train)
    return DatasetBundle(name="ball", x=rng.child("x").random((n, 6)), y=y, graph=graph,
                         train_mask=train, val_mask=val, test_mask=test, class_count=3)


def _hop_ball_oracle(graph, seeds, hops):
    """Breadth-first search, one neighbour list at a time."""
    adj = graph.adj
    dist = {int(s): 0 for s in seeds}
    frontier = list(dist)
    for h in range(1, hops + 1):
        nxt = []
        for u in frontier:
            for v in adj.indices[adj.indptr[u]:adj.indptr[u + 1]]:
                if int(v) not in dist:
                    dist[int(v)] = h
                    nxt.append(int(v))
        frontier = nxt
    return np.array(sorted(dist))


def _eval_za(ctx, params, cfg):
    return forward(ctx.x, ctx.build_affinity(params, cfg), None, params, cfg, mode="eval").za.value


def _ball_case(learn_graph, depth, weighted):
    bundle = _ball_bundle(weighted)
    cfg = _cfg(depth=depth, hidden_gl=3, learn_graph=learn_graph, lambda2=0.01)
    params = init_params(bundle.p, bundle.class_count, cfg, RngStream(41))
    if params.gl is not None:
        # lift every pair score above the ReLU hinge so S is far from uniform
        params.gl.a.value[...] = np.abs(params.gl.a.value) + 0.5
    return bundle, cfg, params


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("depth", [2, 3])
@pytest.mark.parametrize("learn_graph", [True, False])
def test_ball_context_gives_the_full_graph_validation_rows(learn_graph, depth, weighted):
    bundle, cfg, params = _ball_case(learn_graph, depth, weighted)
    val_idx = np.flatnonzero(bundle.val_mask)
    ball = _hop_ball_oracle(bundle.graph, val_idx, depth)
    assert ball.size < bundle.n
    ctx, val_pos = model._validation_context(bundle, cfg)
    np.testing.assert_array_equal(ctx.x, bundle.x[ball])
    np.testing.assert_array_equal(ball[val_pos], val_idx)
    full = _GraphContext(bundle.x, bundle.graph, cfg)
    want = _eval_za(full, params, cfg)[val_idx]
    np.testing.assert_allclose(_eval_za(ctx, params, cfg)[val_pos], want, rtol=1e-12)
    np.testing.assert_array_equal(model._eval_predictions(ctx, params, cfg)[val_pos],
                                  model._eval_predictions(full, params, cfg)[val_idx])
    assert ctx.dist2 is None and full.dist2 is None  # scoring never builds the gl-loss distances


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("depth", [2, 3])
def test_frozen_operator_renormalized_on_the_ball_is_not_exact(depth, weighted):
    bundle, cfg, params = _ball_case(False, depth, weighted)
    val_idx = np.flatnonzero(bundle.val_mask)
    ball = _hop_ball_oracle(bundle.graph, val_idx, depth)
    sub = Graph(n=ball.size, adj=bundle.graph.adj[ball][:, ball])
    renormalized = _GraphContext(bundle.x[ball], sub, cfg)
    want = _eval_za(_GraphContext(bundle.x, bundle.graph, cfg), params, cfg)[val_idx]
    got = _eval_za(renormalized, params, cfg)[np.searchsorted(ball, val_idx)]
    assert not np.allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("learn_graph", [True, False])
def test_validation_context_of_a_ball_that_covers_the_graph_copies_nothing(karate, learn_graph):
    cfg = _cfg(depth=2, learn_graph=learn_graph)
    val_idx = np.flatnonzero(karate.val_mask)
    assert _hop_ball_oracle(karate.graph, val_idx, cfg.depth).size == karate.n
    ctx, val_pos = model._validation_context(karate, cfg)
    assert ctx.x is karate.x and ctx.graph is karate.graph
    np.testing.assert_array_equal(val_pos, val_idx)


def test_validation_context_rejects_an_empty_validation_mask():
    from dataclasses import replace

    bundle = _ball_bundle(False)
    with pytest.raises(DataError):
        model._validation_context(replace(bundle, val_mask=np.zeros(bundle.n, dtype=bool)), _cfg())


def test_graphless_fit_builds_the_complete_support_once(monkeypatch):
    from dataclasses import replace

    from dualgcn.graphlearn import SupportStructure

    sizes = []
    complete = SupportStructure.complete
    monkeypatch.setattr(SupportStructure, "complete", lambda n: sizes.append(n) or complete(n))
    bundle = replace(make_sbm_bundle(n=40, k=3, seed=15), graph=None)
    res = fit(bundle, _cfg(epochs=3, lambda2=0.01))
    assert sizes == [40]
    val_idx = np.flatnonzero(bundle.val_mask)
    assert accuracy(predict(res.params, bundle), bundle.y, val_idx) == pytest.approx(res.best_val_acc)


def test_graph_fit_builds_one_context_and_one_affinity_per_epoch(monkeypatch):
    contexts, builds = [], []
    init, build = _GraphContext.__init__, _GraphContext.build_affinity

    def counted_init(self, *args, **kwargs):
        contexts.append(1)
        init(self, *args, **kwargs)

    def counted_build(self, *args):
        builds.append(1)
        return build(self, *args)

    monkeypatch.setattr(_GraphContext, "__init__", counted_init)
    monkeypatch.setattr(_GraphContext, "build_affinity", counted_build)
    epochs = 5
    fit(make_sbm_bundle(n=40, k=3, seed=16), _cfg(epochs=epochs, hidden_gl=3, lambda1=0.1, lambda2=0.01))
    # validation is scored on the training context, and each step after the
    # first trains on the S that validation built
    assert len(contexts) == 1
    assert len(builds) == epochs + 1


def test_fit_losses_do_not_depend_on_how_often_validation_runs():
    bundle = make_sbm_bundle(n=40, k=3, seed=16)
    epochs = 6
    base = dict(epochs=epochs, hidden_gl=3, lambda1=0.1, lambda2=0.01, ppmi_refresh=2, dropout=0.3, seed=4)
    every_epoch, once = (fit(bundle, _cfg(eval_every=every, **base)).history for every in (1, epochs))
    assert all(row["lreg"] > 0 for row in once)  # the PPMI branch, built from S, trains
    for col in ("train_loss", "l0", "lreg", "lgl"):
        assert [row[col] for row in every_epoch] == [row[col] for row in once]


def test_step_tape_is_freed_before_validation(monkeypatch):
    import weakref

    from dualgcn.cluster import PartitionConfig, cluster_fit

    trained, alive = [], []
    fwd, scorer = model.forward, model._eval_predictions

    def tracked_forward(*args, **kwargs):
        cache = fwd(*args, **kwargs)
        if len(args) > 5 and args[5] == "train":
            trained.append(weakref.ref(cache.za.value))
        return cache

    def checked(*args):
        alive.append(trained[-1]() is not None)
        return scorer(*args)

    monkeypatch.setattr(model, "forward", tracked_forward)
    monkeypatch.setattr(model, "_eval_predictions", checked)
    bundle = make_sbm_bundle(n=40, k=3, seed=16)
    cfg = _cfg(epochs=3, hidden_gl=3, lambda1=0.1, lambda2=0.01)
    fit(bundle, cfg)
    cluster_fit(bundle, cfg, PartitionConfig(c=4, q=2, seed=0))
    assert alive == [False] * 6


@pytest.mark.parametrize("learn_graph", [True, False])
def test_best_val_acc_matches_full_graph_predictions(learn_graph):
    from dualgcn.cluster import PartitionConfig, cluster_fit

    bundle = _ball_bundle(True)
    cfg = _cfg(epochs=6, hidden_gl=3, learn_graph=learn_graph, seed=3, dropout=0.3)
    val_idx = np.flatnonzero(bundle.val_mask)
    for res in (fit(bundle, cfg), cluster_fit(bundle, cfg, PartitionConfig(c=4, q=2, seed=0))):
        assert accuracy(predict(res.params, bundle), bundle.y, val_idx) == pytest.approx(res.best_val_acc)


def test_fits_release_freed_heap_once_after_their_contexts_are_gone(monkeypatch):
    import weakref

    from dualgcn.cluster import PartitionConfig, cluster_fit

    contexts, live_at_release = [], []
    init = _GraphContext.__init__

    def tracked_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        contexts.append(weakref.ref(self))

    monkeypatch.setattr(_GraphContext, "__init__", tracked_init)
    monkeypatch.setattr(model, "_MALLOC_TRIM",
                        lambda pad: live_at_release.append(sum(r() is not None for r in contexts)))
    bundle = make_sbm_bundle(n=40, k=3, seed=16)
    cfg = _cfg(epochs=3, hidden_gl=3, lambda2=0.01)
    fit(bundle, cfg)
    cluster_fit(bundle, cfg, PartitionConfig(c=4, q=2, seed=0))
    assert len(contexts) > 2
    assert live_at_release == [0, 0]
    # without glibc there is nothing to call
    monkeypatch.setattr(model, "_MALLOC_TRIM", None)
    fit(bundle, cfg)


def test_fits_pin_both_heap_thresholds_before_their_first_epoch(monkeypatch):
    from dualgcn.cluster import PartitionConfig, cluster_fit

    calls, epochs = [], []

    def mallopt(param, value):
        calls.append((param, value, len(epochs)))  # with the epochs run so far
        return 1

    monkeypatch.setattr(model, "_MALLOPT", mallopt)
    bundle = make_sbm_bundle(n=40, k=3, seed=16)
    cfg = _cfg(epochs=2, hidden_gl=3)
    fit(bundle, cfg, on_epoch=epochs.append)
    cluster_fit(bundle, cfg, PartitionConfig(c=4, q=2, seed=0), on_epoch=epochs.append)
    # glibc's M_MMAP_THRESHOLD is -3 and M_TRIM_THRESHOLD -1
    assert calls == [(-3, 32 * 2**20, 0), (-1, 64 * 2**20, 0), (-3, 32 * 2**20, 2), (-1, 64 * 2**20, 2)]
    # without glibc there is nothing to call
    monkeypatch.setattr(model, "_MALLOPT", None)
    assert len(fit(bundle, cfg).history) == 2


def _float32_bundle(path, dense: bool):
    """An SBM dataset with small-integer features, written out and loaded
    back: its features load as float32."""
    from dataclasses import replace

    bundle = make_sbm_bundle(n=40, k=3, seed=16, noise=0.0)
    save_dataset(replace(bundle, x=bundle.x + 1.0) if dense else bundle, path)
    loaded = load_dataset(path)
    assert loaded.x.dtype == np.float32 and sp.issparse(loaded.x) != dense
    return loaded


def _tape_nodes(root):
    nodes, seen, stack = [], set(), [root]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def test_train_frees_the_step_before_adam(monkeypatch):
    """backward leaves no grad on an interior node of the step's tape, and no
    array of that tape is alive when _train enters adam_step: the tape is
    deleted before the update allocates."""
    import weakref

    bundle = make_sbm_bundle(n=60, k=3, seed=29)
    cfg = _cfg(hidden_gl=3, lambda2=0.01, dropout=0.3, epochs=4)
    backward, adam_step = tape.backward, model.adam_step
    step = {"refs": [], "adam": 0}

    def checked_backward(loss):
        interior = [node for node in _tape_nodes(loss) if node._vjp is not None]
        backward(loss)
        assert all(node.grad is None for node in interior)
        step["refs"] = [weakref.ref(node.value) for node in interior]

    def checked_adam(group, states, lr, weight_decay):
        assert step["refs"] and all(ref() is None for ref in step["refs"])
        adam_step(group, states, lr, weight_decay)
        step["adam"] += 1

    monkeypatch.setattr(tape, "backward", checked_backward)
    monkeypatch.setattr(model, "adam_step", checked_adam)
    fit(bundle, cfg)
    assert step["adam"] == 2 * cfg.epochs


@pytest.mark.parametrize("trainer,learn_graph,dense,hidden_gl", [
    ("fit", True, False, 3),
    ("fit", False, True, 3),
    ("cluster_fit", True, True, None),
    ("cluster_fit", False, False, 3),
])
def test_float32_features_train_in_float32_throughout(tmp_path, monkeypatch, trainer, learn_graph, dense, hidden_gl):
    from dualgcn.cluster import PartitionConfig, cluster_fit

    f32 = np.dtype(np.float32)
    bundle = _float32_bundle(tmp_path / "sbm", dense)
    seen = {"tape": 0, "adam": 0, "ppmi": 0, "affinity": 0}
    backward, adam_step, build_p, build_s = tape.backward, model.adam_step, model._build_ppmi_operator, \
        _GraphContext.build_affinity

    def float32_grads(vjp):
        def checked(g):
            grads = vjp(g)
            assert all(x is None or np.ndim(x) == 0 or x.dtype == f32 for x in grads)
            return grads
        return checked

    def checked_backward(loss):
        nodes = _tape_nodes(loss)
        assert {node.value.dtype for node in nodes if node.value.ndim} == {f32}  # loss scalars aside
        for node in nodes:
            if node._vjp is not None:
                node._vjp = float32_grads(node._vjp)
        backward(loss)
        for p in model_params:
            assert p.grad is None or p.grad.dtype == f32, p.name
        seen["tape"] += 1

    def checked_adam(group, states, lr, weight_decay):
        adam_step(group, states, lr, weight_decay)
        assert {a.dtype for st in states for a in (st.m, st.v)} | {p.value.dtype for p in group} == {f32}
        model_params.update(group)
        seen["adam"] += 1

    def checked_p(*args):
        op = build_p(*args)
        assert op.values.dtype == f32
        seen["ppmi"] += 1
        return op

    def checked_s(self, params, cfg):
        s = build_s(self, params, cfg)
        assert (s.values.value.dtype if learn_graph else s.values.dtype) == f32
        seen["affinity"] += 1
        return s

    model_params = set()
    monkeypatch.setattr(tape, "backward", checked_backward)
    monkeypatch.setattr(model, "adam_step", checked_adam)
    monkeypatch.setattr(model, "_build_ppmi_operator", checked_p)
    monkeypatch.setattr(_GraphContext, "build_affinity", checked_s)
    cfg = _cfg(epochs=4, hidden_gl=hidden_gl, learn_graph=learn_graph, lambda1=0.1, lambda2=0.01, dropout=0.3)
    if trainer == "fit":
        res = fit(bundle, cfg)
    else:
        res = cluster_fit(bundle, cfg, PartitionConfig(c=4, q=2, seed=0))
    assert min(seen.values()) > 0, seen
    assert {p.value.dtype for p in res.params.all_parameters()} == {f32}
    assert predict(res.params, bundle).shape == (bundle.n,)


def test_checkpoints_load_across_feature_dtypes(tmp_path):
    from dataclasses import replace

    b32 = _float32_bundle(tmp_path / "sbm", dense=False)
    b64 = replace(b32, x=b32.x.astype(np.float64))
    cfg = _cfg(epochs=3, hidden_gl=3, lambda1=0.1, lambda2=0.01, seed=2)
    loaded = {}
    for bundle in (b32, b64):
        res = fit(bundle, cfg)
        path = tmp_path / f"{bundle.x.dtype}.npz"
        save_checkpoint(path, res.params)
        params, _ = load_checkpoint(path)
        assert {p.value.dtype for p in params.all_parameters()} == {bundle.x.dtype}
        np.testing.assert_array_equal(predict(params, bundle), predict(res.params, bundle))
        loaded[bundle.x.dtype] = params
    # float64 parameters lift every product to float64, and the features are exact in both
    params64 = loaded[np.dtype(np.float64)]
    np.testing.assert_array_equal(predict(params64, b32), predict(params64, b64))
    assert predict(loaded[np.dtype(np.float32)], b64).shape == (b64.n,)


def test_karate_epochs_build_no_scipy_matrix(monkeypatch, karate):
    """Every sparse product runs scipy's kernels on its pattern's arrays:
    past the first epoch an epoch builds no CSR and no CSC matrix, the
    edge scorer's scatter included, which runs through a pattern over each
    chunk's pairs.  Unprojected
    features (the karate profile) are made dense once per context, not
    per epoch.  predict, which runs no backward, builds no transposed
    (CSC) matrix."""
    from dataclasses import replace

    from dualgcn.cli import merge_config, model_config_from

    built = {"csr": 0, "csc": 0, "toarray": 0}
    for kind, cls in (("csr", sp.csr_matrix), ("csc", sp.csc_matrix)):
        def counted(self, *args, _init=cls.__init__, _kind=kind, **kwargs):
            built[_kind] += 1
            _init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)

    def counted_toarray(self, *args, _toarray=sp.csr_matrix.toarray, **kwargs):
        built["toarray"] += 1
        return _toarray(self, *args, **kwargs)
    monkeypatch.setattr(sp.csr_matrix, "toarray", counted_toarray)
    # loaded from files, karate's one-hot features are a float32 CSR
    bundle = replace(karate, x=sp.csr_matrix(karate.x, dtype=np.float32))
    for profile, csc_per_epoch in (("karate", 0), ("cora", 0)):
        cfg = model_config_from(merge_config(profile, {}, {"epochs": "20", "ppmi_refresh": "0"}))
        per_epoch = []
        res = fit(bundle, cfg, on_epoch=lambda row: per_epoch.append(dict(built)))
        assert len(per_epoch) == 20
        steps = [{k: later[k] - earlier[k] for k in built} for earlier, later in zip(per_epoch, per_epoch[1:])]
        assert steps == [{"csr": 0, "csc": csc_per_epoch, "toarray": 0}] * 19, (profile, steps)
        before = dict(built)
        predict(res.params, bundle)
        assert built["csc"] == before["csc"]
        assert built["csr"] - before["csr"] <= 5


def test_karate_epochs_call_no_numpy_where(monkeypatch, karate):
    """relu and dropout select without np.where, which branches per
    element: past the first epoch a karate epoch calls it 0 times, with
    either profile.  PPMI refreshes are off (ppmi_refresh=0), as they are
    not per step."""
    from dualgcn.cli import merge_config, model_config_from

    calls = [0]

    def counted(*args, _where=np.where, **kwargs):
        calls[0] += 1
        return _where(*args, **kwargs)
    monkeypatch.setattr(np, "where", counted)
    for profile in ("karate", "cora"):
        cfg = model_config_from(merge_config(profile, {}, {"epochs": "20", "ppmi_refresh": "0"}))
        per_epoch = []
        fit(karate, cfg, on_epoch=lambda row: per_epoch.append(calls[0]))
        assert len(per_epoch) == 20
        assert np.diff(per_epoch).tolist() == [0] * 19, profile


def test_unprojected_sparse_features_score_as_their_dense_copy_made_once(monkeypatch):
    """Without a projection the scorer reads the features' rows: the context
    densifies CSR features once, and S and gl.a's gradient from them equal
    those from the same features given dense, bit for bit."""
    rng = RngStream(61, ("unprojected",))
    g = make_random_graph(9, 0.4, seed=61)
    x = rng.child("x").random((9, 5))
    x[x < 0.5] = 0.0
    cfg = _cfg(hidden_gl=None, lambda2=0.01)
    params = init_params(5, 3, cfg, rng.child("init"))
    params.gl.a.value[...] = np.abs(params.gl.a.value) + 0.05  # above the ReLU hinge
    calls = []

    def counted_toarray(self, *args, _toarray=sp.csr_matrix.toarray, **kwargs):
        calls.append(self.shape)
        return _toarray(self, *args, **kwargs)
    monkeypatch.setattr(sp.csr_matrix, "toarray", counted_toarray)
    got = []
    for feats in (sp.csr_matrix(x), x):
        ctx = _GraphContext(feats, g, cfg)
        for _ in range(3):
            params.gl.a.zero_grad()
            s = ctx.build_affinity(params, cfg)
            tape.backward(tape.vdot_const(s.values, rng.child("w").random(s.values.value.size)))
        got.append((s.values.value, params.gl.a.grad))
    assert calls == [(9, 5)]
    (s_sparse, ga_sparse), (s_dense, ga_dense) = got
    assert np.abs(ga_dense).max() > 0
    np.testing.assert_array_equal(s_sparse, s_dense)
    np.testing.assert_array_equal(ga_sparse, ga_dense)
