import itertools
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from dualgcn.graph import build_graph
from dualgcn.ppmi import (
    FrequencyMatrix,
    WalkConfig,
    exact_frequency_matrix,
    frequency_matrix,
    ppmi,
    ppmi_operator,
    random_walk,
)
from dualgcn.rng import RngStream
from conftest import make_random_graph


def test_walk_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(q=0)
    with pytest.raises(ValueError):
        WalkConfig(q=2, w=3)
    with pytest.raises(ValueError):
        WalkConfig(gamma_walks=0)


def test_random_walk_single_edge_alternates():
    g = build_graph([(0, 1)], n=2)
    walk = random_walk(g.adj, 0, 3, RngStream(0))
    assert walk == [0, 1, 0, 1]


def test_random_walk_self_loop_constant():
    g = build_graph([(0, 0, 1.0)], n=1)
    walk = random_walk(g.adj, 0, 4, RngStream(1))
    assert walk == [0, 0, 0, 0, 0]


def test_random_walk_truncates_at_dead_end():
    m = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))  # directed into a sink
    walk = random_walk(m, 0, 5, RngStream(2))
    assert walk == [0, 1]


def test_random_walk_k3_transition_split():
    g = build_graph([(0, 1), (1, 2), (0, 2)], n=3)
    rng = RngStream(3, ("k3",))
    counts = {1: 0, 2: 0}
    trials = 100_000
    starts = np.zeros(trials, dtype=np.int64)
    from dualgcn.ppmi import _batch_walks

    walks = _batch_walks(g.adj, starts, 1, rng)
    vals, cnts = np.unique(walks[:, 1], return_counts=True)
    freq = dict(zip(vals.tolist(), cnts.tolist()))
    for node in (1, 2):
        assert abs(freq[node] / trials - 0.5) < 0.01


def test_frequency_single_self_loop_node():
    # one walk [0,0,0]: adjacent position pairs (0,1),(1,2) each add 1 to
    # F[0,0] twice, giving 4
    g = build_graph([(0, 0, 1.0)], n=1)
    freq = frequency_matrix(g.adj, WalkConfig(q=2, w=1, gamma_walks=1, seed=0))
    assert freq.F[0, 0] == 4.0


def test_frequency_empty_graph_is_zero():
    g = build_graph([], n=4)
    freq = frequency_matrix(g.adj, WalkConfig(q=3, w=2, gamma_walks=5, seed=0))
    assert freq.F.nnz == 0


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 400))
def test_frequency_symmetric_nonnegative(seed):
    g = make_random_graph(int(RngStream(seed).integers(2, 10)), 0.4, seed)
    cfg = WalkConfig(q=3, w=2, gamma_walks=4, seed=seed)
    f = frequency_matrix(g.adj, cfg).F
    assert (f.data >= 0).all()
    assert abs(f - f.T).nnz == 0


def test_exact_two_node_single_edge_offdiagonal():
    g = build_graph([(0, 1)], n=2)
    f = exact_frequency_matrix(g.adj, q=1, w=1).F.toarray()
    assert f[0, 0] == 0 and f[1, 1] == 0
    assert f[0, 1] == 2.0 and f[1, 0] == 2.0


def test_exact_identity_transition_diagonal_only():
    m = np.eye(3)
    f = exact_frequency_matrix(m, q=3, w=2).F.toarray()
    assert (f == np.diag(np.diag(f))).all()
    assert (np.diag(f) > 0).all()


def _brute_force_expected_counts(adj: np.ndarray, q: int, w: int) -> np.ndarray:
    """Enumerate every walk with its probability; sum pair contributions."""
    n = adj.shape[0]
    rowsum = adj.sum(axis=1)
    trans = np.divide(adj, rowsum[:, None], out=np.zeros_like(adj), where=rowsum[:, None] > 0)
    f = np.zeros((n, n))

    def extend(path, prob):
        if prob == 0.0:
            return
        if len(path) == q + 1 or trans[path[-1]].sum() == 0:
            for s, t in itertools.combinations(range(len(path)), 2):
                if t - s <= w:
                    f[path[s], path[t]] += prob
                    f[path[t], path[s]] += prob
            return
        for nxt in range(n):
            if trans[path[-1], nxt] > 0:
                extend(path + [nxt], prob * trans[path[-1], nxt])

    for start in range(n):
        extend([start], 1.0)
    return f


def test_exact_matches_brute_force_on_path_graph():
    g = build_graph([(0, 1), (1, 2)], n=3)
    expected = _brute_force_expected_counts(g.adj.toarray(), q=2, w=2)
    got = exact_frequency_matrix(g.adj, q=2, w=2).F.toarray()
    np.testing.assert_allclose(got, expected, rtol=1e-12)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 200))
def test_exact_matches_brute_force_random(seed):
    rng = RngStream(seed, ("bf",))
    n = int(rng.integers(2, 6))
    g = make_random_graph(n, 0.5, seed)
    q = int(rng.integers(1, 4))
    w = int(rng.integers(1, q + 1))
    expected = _brute_force_expected_counts(g.adj.toarray(), q=q, w=w)
    got = exact_frequency_matrix(g.adj, q=q, w=w).F.toarray()
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)


def test_sampled_frequency_converges_to_exact():
    g = build_graph([(0, 1)], n=2)
    exact = exact_frequency_matrix(g.adj, q=3, w=3).F.toarray()
    exact_dist = exact / exact.sum()
    cfg = WalkConfig(q=3, w=3, gamma_walks=10_000, seed=5)
    sampled = frequency_matrix(g.adj, cfg).F.toarray()
    sampled_dist = sampled / sampled.sum()
    assert np.abs(sampled_dist - exact_dist).max() <= 0.05


def test_ppmi_rank_one_independence_is_zero():
    u = np.array([1.0, 2.0, 4.0])
    f = FrequencyMatrix(F=sp.csr_matrix(np.outer(u, u)))
    p = ppmi(f)
    assert p.P.nnz == 0


def test_ppmi_identity_two_by_two():
    f = FrequencyMatrix(F=sp.csr_matrix(np.eye(2)))
    p = ppmi(f)
    assert p.P[0, 0] == pytest.approx(np.log(2), rel=1e-12)
    assert p.P[1, 1] == pytest.approx(np.log(2), rel=1e-12)
    assert p.P[0, 1] == 0.0 and p.P[1, 0] == 0.0


def test_ppmi_zero_where_f_zero_and_nonnegative(karate):
    cfg = WalkConfig(q=3, w=3, gamma_walks=10, seed=0)
    f = frequency_matrix(karate.graph.adj, cfg)
    p = ppmi(f)
    assert (p.P.data >= 0).all()
    f_dense = f.F.toarray()
    p_dense = p.P.toarray()
    assert (p_dense[f_dense == 0] == 0).all()


def test_ppmi_rejects_all_zero():
    with pytest.raises(ValueError):
        ppmi(FrequencyMatrix(F=sp.csr_matrix((3, 3))))


def test_ppmi_operator_diagonal():
    p = ppmi(FrequencyMatrix(F=sp.csr_matrix(np.eye(2))))
    op = ppmi_operator(p)
    np.testing.assert_allclose(op.toarray(), np.eye(2))


def test_ppmi_operator_equal_symmetric_entries():
    from dualgcn.ppmi import PpmiMatrix

    val = 0.7
    mat = sp.csr_matrix(np.full((2, 2), val))
    p = PpmiMatrix(P=mat)
    op = ppmi_operator(p)
    np.testing.assert_allclose(op.toarray(), np.full((2, 2), 0.5))


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 300))
def test_ppmi_operator_symmetric(seed):
    g = make_random_graph(int(RngStream(seed).integers(3, 9)), 0.5, seed)
    f = frequency_matrix(g.adj, WalkConfig(q=3, w=2, gamma_walks=6, seed=seed))
    op = ppmi_operator(ppmi(f))
    asym = abs(op - op.T)
    assert (asym.max() if asym.nnz else 0.0) <= 1e-12


def test_frequency_runtime_scales_linearly_in_gamma():
    g = make_random_graph(60, 0.1, seed=4)

    def timed(gamma):
        cfg = WalkConfig(q=3, w=3, gamma_walks=gamma, seed=0)
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            frequency_matrix(g.adj, cfg)
            best = min(best, time.perf_counter() - t0)
        return best

    timed(400)  # warm up
    t1 = timed(400)
    t2 = timed(800)
    assert t2 <= 2.3 * t1 + 0.01
