import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from dualgcn import graphlearn, tape
from dualgcn.graph import Graph, add_self_loops, build_graph
from dualgcn.graphlearn import (
    GlConfig,
    GraphLearnerParams,
    SupportStructure,
    gl_loss,
    init_graph_learner,
    learn_S_masked,
    support_distances,
)
from dualgcn.errors import ConfigError
from dualgcn.optim import finite_diff_check
from dualgcn.rng import RngStream
from dualgcn.tape import Parameter
from conftest import citation_graph, constant, make_random_graph, support_by_sort


def _params(a_values, proj=None):
    return GraphLearnerParams(a=Parameter(np.asarray(a_values, dtype=float), name="gl.a"),
                              proj=proj)


def _complete_graph(n):
    """The graph of every ordered pair, self-pairs included."""
    return Graph(n=n, adj=sp.csr_matrix(np.ones((n, n))))


def _complete_support(n):
    return SupportStructure(_complete_graph(n))


def _learn_complete(x, gl):
    """S over every node pair."""
    return learn_S_masked(x, gl, _complete_support(x.shape[0]))


def _learn(x, g, gl):
    """S on the support of g, which holds self-loops."""
    return learn_S_masked(x, gl, SupportStructure(g))


def _rows(sup):
    """The row id of every support entry, from its indptr."""
    return np.repeat(np.arange(sup.n), np.diff(sup.indptr))


def _gl_loss(x, s, cfg):
    """gl_loss with the feature distances taken on the support of s."""
    return gl_loss(s, cfg, support_distances(x, s.support))


def test_dense_zero_scorer_gives_uniform_rows():
    x = RngStream(0).random((5, 3))
    s = _learn_complete(x, _params(np.zeros(3)))
    np.testing.assert_allclose(s.matrix().toarray(), np.full((5, 5), 0.2), atol=1e-15)


def test_dense_identical_rows_give_uniform():
    x = np.tile(RngStream(1).random(4), (6, 1))
    s = _learn_complete(x, _params(RngStream(2).random(4)))
    np.testing.assert_allclose(s.matrix().toarray(), np.full((6, 6), 1 / 6), atol=1e-15)


def test_dense_crafted_scores_proportional():
    # a^T |x0 - x1| = ln 2, all other pair scores 0 -> row 0 ~ (1, 2, 1)
    x = np.array([[0.0], [np.log(2.0)], [0.0]])
    s = _learn_complete(x, _params([1.0]))
    row = s.matrix().toarray()[0]
    np.testing.assert_allclose(row, np.array([1.0, 2.0, 1.0]) / 4.0, rtol=1e-12)



def test_matrix_shares_s_values_and_the_support_arrays():
    """matrix() copies nothing, and the PPMI walks that read it leave S as it was."""
    from dualgcn.ppmi import WalkConfig, frequency_matrix

    g = add_self_loops(make_random_graph(9, 0.4, seed=15))
    s = _learn(RngStream(15).random((9, 4)), g, init_graph_learner(4, 3, RngStream(16)))
    before = [s.values.value.copy(), s.support.cols.copy(), s.support.indptr.copy()]
    m = s.matrix()
    for shared, own in zip((m.data, m.indices, m.indptr), (s.values.value, s.support.cols, s.support.indptr)):
        assert np.shares_memory(shared, own)
    frequency_matrix(m, WalkConfig(q=4, w=2, gamma_walks=3), RngStream(17))
    for was, now in zip(before, (s.values.value, s.support.cols, s.support.indptr)):
        np.testing.assert_array_equal(now, was)

def test_masked_zero_scorer_uniform_over_neighborhood():
    g = add_self_loops(build_graph([(0, 1), (1, 2)], n=3))
    x = RngStream(3).random((3, 2))
    s = _learn(x, g, _params(np.zeros(2)))
    dense = s.matrix().toarray()
    np.testing.assert_allclose(dense[0], [0.5, 0.5, 0.0], atol=1e-15)
    np.testing.assert_allclose(dense[1], [1 / 3, 1 / 3, 1 / 3], atol=1e-15)


def test_masked_star_center_row():
    star = add_self_loops(build_graph([(0, i) for i in range(1, 5)], n=5))
    x = RngStream(4).random((5, 3))
    s = _learn(x, star, _params(np.zeros(3)))
    center = s.matrix().toarray()[0]
    np.testing.assert_allclose(center, np.full(5, 0.2), atol=1e-15)


def test_masked_requires_self_loops():
    g = build_graph([(0, 1)], n=2)
    with pytest.raises(ValueError):
        SupportStructure(g)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 500))
def test_masked_rows_stochastic_on_support(seed):
    rng = RngStream(seed, ("gl",))
    g = add_self_loops(make_random_graph(8, 0.3, seed))
    x = rng.random((8, 4))
    a = rng.child("a").random(4) - 0.5
    s = _learn(x, g, _params(a))
    dense = s.matrix().toarray()
    np.testing.assert_allclose(dense.sum(axis=1), np.ones(8), atol=1e-10)
    assert (dense >= 0).all()
    support = (add_self_loops(make_random_graph(8, 0.3, seed)).adj.toarray() != 0)
    assert (dense[~support] == 0).all()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 500))
def test_dense_rows_stochastic(seed):
    rng = RngStream(seed, ("gld",))
    x = rng.random((7, 3)) * 3
    a = rng.child("a").random(3) - 0.5
    dense = _learn_complete(x, _params(a)).matrix().toarray()
    np.testing.assert_allclose(dense.sum(axis=1), np.ones(7), atol=1e-10)
    assert (dense >= 0).all()


def test_masked_complete_graph_equals_dense():
    n = 6
    complete = add_self_loops(build_graph(
        [(i, j) for i in range(n) for j in range(i + 1, n)], n))
    rng = RngStream(7)
    x = rng.random((n, 3))
    a = rng.child("a").random(3) - 0.5
    masked = _learn(x, complete, _params(a)).matrix().toarray()
    dense = _learn_complete(x, _params(a)).matrix().toarray()
    np.testing.assert_allclose(masked, dense, atol=1e-12)
    # the formula over all pairs: row softmax of ReLU(sum_f a_f |x_if - x_jf|)
    scores = np.maximum(np.abs(x[:, None, :] - x[None, :, :]) @ a, 0.0)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    np.testing.assert_allclose(dense, e / e.sum(axis=1, keepdims=True), rtol=1e-12)


def test_score_monotonicity_in_single_pair():
    """Raising one pair's score raises S_ij and lowers S_ik for k != j."""
    scores = np.array([0.3, 0.7, 0.1, 0.4])
    indptr = np.array([0, 4])
    base = tape.segment_softmax(constant(scores), indptr).value.copy()
    bumped_scores = scores.copy()
    bumped_scores[1] += 0.25
    bumped = tape.segment_softmax(constant(bumped_scores), indptr).value
    assert bumped[1] > base[1]
    for k in (0, 2, 3):
        assert bumped[k] < base[k]


def test_gl_loss_identical_features_zero():
    x = np.ones((4, 3))
    s = _learn_complete(x, _params(np.zeros(3)))
    loss = _gl_loss(x, s, GlConfig(gamma_reg=0.0, beta=0.0))
    assert loss.item() == pytest.approx(0.0, abs=1e-12)


def test_gl_loss_uniform_three_node_hand_value():
    # unit-distance features, uniform S: sum term = 6 pairs * 1 * (1/3) = 2,
    # frobenius term = gamma * 9 * (1/9) = gamma
    gamma = 0.37
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    d2 = np.ones((3, 3)) - np.eye(3)  # unit squared distance between every pair
    s = _learn_complete(x, _params(np.zeros(2)))
    loss = gl_loss(s, GlConfig(gamma_reg=gamma, beta=0.0), d2.ravel())
    assert loss.item() == pytest.approx(2.0 + gamma, rel=1e-12)


def test_gl_loss_masked_fidelity_term_zero_when_s_matches_binary():
    # beta term is ||S - 1||^2 over the support; with distances zero and
    # gamma zero the minimum of the remaining objective is S = support ones
    g = add_self_loops(build_graph([(0, 1)], n=2))
    x = np.zeros((2, 2))
    s = _learn(x, g, _params(np.zeros(2)))
    cfg = GlConfig(gamma_reg=0.0, beta=1.0)
    loss = _gl_loss(x, s, cfg)
    # S rows are (0.5, 0.5): ||S - 1||^2 = 4 * 0.25 = 1.0
    assert loss.item() == pytest.approx(1.0, rel=1e-12)


def test_support_distances_match_dense_oracle(monkeypatch):
    g = add_self_loops(make_random_graph(7, 0.4, seed=9))
    x = RngStream(10).random((7, 5))
    sup = SupportStructure(g)
    d2 = support_distances(x, sup)
    for k in range(sup.nnz):
        i, j = _rows(sup)[k], sup.cols[k]
        expected = ((x[i] - x[j]) ** 2).sum()
        assert d2[k] == pytest.approx(expected, rel=1e-10, abs=1e-12)
    xs = sp.csr_matrix(np.where(x > 0.5, x, 0.0))
    d2s = support_distances(xs, sup)
    # blocking over entries leaves every per-entry sum bit-identical
    monkeypatch.setattr(graphlearn, "entry_block", lambda p: 4)
    np.testing.assert_array_equal(support_distances(x, sup), d2)
    np.testing.assert_array_equal(support_distances(xs, sup), d2s)


def _distances_as_appended(x, support):
    """support_distances as it was before its in-place form: one dots
    array, whole-array temporaries and np.append.  Its reference."""
    sparse = sp.issparse(x)
    dtype = tape._value_dtype(x.dtype)
    if sparse:
        sq = np.asarray(x.multiply(x).sum(axis=1)).ravel()
    else:
        x = np.asarray(x, dtype=dtype)
        sq = (x * x).sum(axis=1)
    block = graphlearn.entry_block(x.shape[1]) if sparse else tape.cache_block(x.shape[1])
    rows, cols = support.pair_rows, support.pair_cols
    dots = np.empty(support.npairs, dtype=dtype)
    for lo in range(0, support.npairs, block):
        r, c = rows[lo:lo + block], cols[lo:lo + block]
        prod = x[r].multiply(x[c]) if sparse else x[r] * x[c]
        dots[lo:lo + block] = np.asarray(prod.sum(axis=1)).ravel()
    d2 = np.maximum(sq[rows] + sq[cols] - 2.0 * dots, 0.0)
    return np.append(d2, np.zeros(1, dtype))[support.pair_of]


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_support_distances_are_byte_equal_to_the_appended_form(monkeypatch, dtype, block):
    if block is not None:  # many blocks, and a short last one
        monkeypatch.setattr(graphlearn, "entry_block", lambda p: block)
        monkeypatch.setattr(graphlearn, "dense_block", lambda p, itemsize: block)
        monkeypatch.setattr(tape, "cache_block", lambda p: block)
    sup = SupportStructure(add_self_loops(make_random_graph(40, 0.2, seed=21)))
    x = RngStream(22).random((40, 6)).astype(dtype)
    xs = sp.csr_matrix(np.where(x > 0.6, x, 0).astype(dtype))
    for feats in (x, xs):
        got, want = support_distances(feats, sup), _distances_as_appended(feats, sup)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dense_support_distances_do_not_depend_on_the_block_size(monkeypatch, dtype):
    """Blocks of one pair, of a few, of the byte-sized default and of every
    pair at once give the same bytes: each pair's dot is summed on its own."""
    sup = SupportStructure(add_self_loops(make_random_graph(60, 0.15, seed=25)))
    x = RngStream(26).random((60, 300)).astype(dtype)
    want = support_distances(x, sup)
    for block in (1, 3, 22, 45, sup.npairs):
        monkeypatch.setattr(graphlearn, "dense_block", lambda p, itemsize: block)
        got = support_distances(x, sup)
        assert got.dtype == want.dtype == dtype
        assert got.tobytes() == want.tobytes(), block


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_support_distances_peak_near_what_they_return(dtype):
    import tracemalloc

    n = 20_000
    edges = RngStream(23).integers(0, n, (100_000, 2))
    sup = SupportStructure(add_self_loops(build_graph(edges[edges[:, 0] != edges[:, 1]], n)))
    assert sup.npairs > 99_000
    x = RngStream(24).random((n, 4)).astype(dtype)
    tracemalloc.start()
    try:
        d2 = support_distances(x, sup)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # whole-array temporaries and np.append peaked at 2.57x (float32) and 2.52x (float64)
    assert peak <= 1.6 * d2.nbytes, peak / d2.nbytes


def test_gl_gradients_match_finite_differences():
    rng = RngStream(11)
    g = add_self_loops(make_random_graph(6, 0.4, seed=11))
    x = rng.random((6, 4))
    gl = init_graph_learner(4, 3, rng)
    cfg = GlConfig(gamma_reg=0.05, beta=0.2)

    def loss_fn():
        s = _learn(x, g, gl)
        return _gl_loss(x, s, cfg)

    report = finite_diff_check(loss_fn, gl.parameters(), h=1e-5)
    assert all(entry["max_rel_err"] <= 1e-4 for entry in report.values())


def test_gl_dense_gradients_match_finite_differences():
    rng = RngStream(12)
    x = rng.random((5, 3))
    gl = init_graph_learner(3, None, rng)
    cfg = GlConfig(gamma_reg=0.02, beta=0.0)

    def loss_fn():
        s = _learn_complete(x, gl)
        return _gl_loss(x, s, cfg)

    report = finite_diff_check(loss_fn, gl.parameters(), h=1e-5)
    assert all(entry["max_rel_err"] <= 1e-4 for entry in report.values())


def test_glconfig_rejects_negative():
    with pytest.raises(ConfigError):
        GlConfig(gamma_reg=-0.1)


def test_entry_blocking_leaves_loss_and_gradients_unchanged(monkeypatch):
    rng = RngStream(13)
    x = rng.random((6, 4))
    gl = init_graph_learner(4, 3, rng)
    w = Parameter(rng.child("w").random((4, 2)), name="w")
    params = gl.parameters() + [w]

    def loss_and_grads():
        for p in params:
            p.zero_grad()
        s = _learn_complete(x, gl)
        h = tape.spmm_values(s.values, s.support.pattern, tape.matmul(constant(x), w))
        loss = tape.add(tape.sum_sq(h), _gl_loss(x, s, GlConfig(beta=0.0)))
        tape.backward(loss)
        return loss.item(), [p.grad.copy() for p in params]

    whole_loss, whole_grads = loss_and_grads()
    monkeypatch.setattr(graphlearn, "entry_block", lambda p: 5)  # 36 entries in 8 blocks
    blocked_loss, blocked_grads = loss_and_grads()
    assert blocked_loss == pytest.approx(whole_loss, rel=1e-13)
    for a, b in zip(whole_grads, blocked_grads):
        np.testing.assert_allclose(b, a, rtol=1e-12, atol=1e-15)


def _pair_supports():
    adj = add_self_loops(make_random_graph(9, 0.35, seed=14)).adj
    # the same pattern with every row's column indices reversed
    flipped = np.concatenate([adj.indices[lo:hi][::-1] for lo, hi in zip(adj.indptr[:-1], adj.indptr[1:])])
    unsorted = sp.csr_matrix((adj.data, flipped, adj.indptr), shape=adj.shape)
    return {"graph": SupportStructure(Graph(n=9, adj=adj)),
            "unsorted": SupportStructure(Graph(n=9, adj=unsorted)),
            "complete": _complete_support(7)}


@pytest.mark.parametrize("kind", ["graph", "unsorted", "complete"])
def test_pair_scores_spread_to_every_entry(kind, monkeypatch):
    sup = _pair_supports()[kind]
    rows, cols = _rows(sup), sup.cols
    assert (sup.pair_rows < sup.pair_cols).all()
    off = rows != cols
    assert sup.npairs * 2 == off.sum()
    np.testing.assert_array_equal(sup.pair_of[~off], sup.npairs)
    lo, hi = np.minimum(rows, cols)[off], np.maximum(rows, cols)[off]
    np.testing.assert_array_equal(sup.pair_rows[sup.pair_of[off]], lo)
    np.testing.assert_array_equal(sup.pair_cols[sup.pair_of[off]], hi)

    rng = RngStream(15, (kind,))
    x = rng.random((sup.n, 4))
    a = rng.child("a").random(4) - 0.3
    seen = {}
    real = tape.segment_softmax

    def spy(scores, indptr):
        seen["scores"] = scores.value.copy()
        return real(scores, indptr)

    monkeypatch.setattr(tape, "segment_softmax", spy)
    learn_S_masked(x, _params(a), sup)
    scores = seen["scores"]
    expected = np.maximum(np.abs(x[rows] - x[cols]) @ a, 0.0)
    np.testing.assert_allclose(scores, expected, rtol=1e-12, atol=0.0)
    assert (scores[~off] == 0.0).all()
    dense = sp.csr_matrix((scores, cols, sup.indptr), shape=(sup.n, sup.n)).toarray()
    np.testing.assert_array_equal(dense, dense.T)


def test_support_rejects_asymmetric_pattern():
    def support(pairs):
        rows, cols = zip(*pairs)
        adj = sp.csr_matrix((np.ones(len(pairs)), (rows, cols)), shape=(3, 3))
        return SupportStructure(Graph(n=3, adj=adj))

    loops = [(0, 0), (1, 1), (2, 2)]
    support(loops + [(0, 1), (1, 0)])
    with pytest.raises(ValueError, match="symmetric"):
        support(loops + [(0, 1)])
    with pytest.raises(ValueError, match="symmetric"):
        support(loops + [(0, 1), (2, 1)])


@pytest.mark.parametrize("kind", ["graph", "unsorted", "complete"])
def test_support_holds_at_most_12_bytes_per_entry(kind):
    sup = _pair_supports()[kind]
    arrays = [v for v in vars(sup).values() if isinstance(v, np.ndarray)]
    assert not hasattr(sup, "rows")
    assert sum(a.nbytes for a in arrays) <= 12 * sup.nnz + 4 * (sup.n + 1)
    # the adjacency's indices are int32, so no support array is int64
    assert sup.cols.dtype == np.int32
    assert all(a.dtype != np.int64 for a in arrays)


def _ring_support(n, extra=()):
    """A ring that steps by 3 over n nodes (n not a multiple of 3), with self-loops and one-way extras."""
    ring = np.arange(n)
    step = (ring + 3) % n
    rows = np.concatenate([ring, ring, step] + [np.array([r]) for r, _ in extra])
    cols = np.concatenate([ring, step, ring] + [np.array([c]) for _, c in extra])
    adj = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, n))
    return SupportStructure(Graph(n=n, adj=adj))


def test_support_pairs_past_2_31_keys():
    n = 50_000
    sup = _ring_support(n)
    rows, cols = _rows(sup), sup.cols
    assert sup.nnz == 3 * n
    assert (rows * n + cols).max() >= 2**31
    off = rows != cols
    np.testing.assert_array_equal(sup.pair_rows[sup.pair_of[off]], np.minimum(rows, cols)[off])
    np.testing.assert_array_equal(sup.pair_cols[sup.pair_of[off]], np.maximum(rows, cols)[off])
    # nodes 0 and n - 1 are not neighbours on this ring
    with pytest.raises(ValueError, match="symmetric"):
        _ring_support(n, extra=[(0, n - 1)])
    # past n = 65,536 the one-way pairs (0, 20,000) and (61,356, 67,296) have
    # keys 2^32 apart, which 32-bit keys would take for mirrors of each other
    n = 70_000
    assert 61_356 * n + 67_296 - 20_000 == 2**32
    with pytest.raises(ValueError, match="symmetric"):
        _ring_support(n, extra=[(0, 20_000), (67_296, 61_356)])


def _assert_support_is(sup, want):
    for name, array in want.items():
        got = getattr(sup, name)
        assert got.dtype == array.dtype, name
        np.testing.assert_array_equal(got, array, err_msg=name)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 40), density=st.floats(0.0, 1.0), seed=st.integers(0, 2**16), reverse=st.booleans())
def test_support_pairs_equal_the_sort_reference(n, density, seed, reverse):
    """The transpose pairs every entry as the sort did; rows given in reverse
    order are sorted on entry (density 1 is the complete pattern)."""
    upper = np.triu(RngStream(seed, ("support-pattern",)).random((n, n)) < density, 1)
    adj = sp.csr_matrix((upper | upper.T | np.eye(n, dtype=bool)).astype(np.float64))
    want = support_by_sort(adj)
    if reverse:
        flipped = np.concatenate([adj.indices[lo:hi][::-1] for lo, hi in zip(adj.indptr[:-1], adj.indptr[1:])])
        adj = sp.csr_matrix((adj.data, flipped, adj.indptr), shape=adj.shape)
    _assert_support_is(SupportStructure(Graph(n=n, adj=adj)), want)


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 120))
def test_complete_support_equals_the_sort_reference(n):
    _assert_support_is(_complete_support(n), support_by_sort(sp.csr_matrix(np.ones((n, n)))))


@pytest.mark.parametrize("kind", ["pubmed", "complete"])
def test_support_build_peaks_under_28_bytes_per_entry(kind):
    import tracemalloc

    g = add_self_loops(citation_graph(1, 19717, 3)) if kind == "pubmed" else _complete_graph(1500)  # 98,585 entries
    tracemalloc.start()
    try:
        sup = SupportStructure(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 12 B per entry are kept; sorting int64 keys peaked at 31.8 (pubmed) and 49.5 (complete)
    assert peak <= 28 * sup.nnz, peak / sup.nnz


@pytest.mark.parametrize("kind", ["graph", "unsorted", "complete"])
def test_pair_distances_match_per_entry_formula(kind):
    sup = _pair_supports()[kind]
    x = RngStream(16, (kind,)).random((sup.n, 5))
    xs = sp.csr_matrix(np.where(x > 0.5, x, 0.0))
    for feats, dense in ((x, x), (xs, xs.toarray())):
        d2 = support_distances(feats, sup)
        expected = ((dense[_rows(sup)] - dense[sup.cols]) ** 2).sum(axis=1)
        np.testing.assert_allclose(d2, expected, rtol=1e-10, atol=1e-12)
        assert (d2[_rows(sup) == sup.cols] == 0.0).all()
        square = sp.csr_matrix((d2, sup.cols, sup.indptr), shape=(sup.n, sup.n)).toarray()
        np.testing.assert_array_equal(square, square.T)
