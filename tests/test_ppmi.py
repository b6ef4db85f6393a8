import itertools
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from dualgcn.graph import build_graph
from dualgcn.ppmi import (
    _batch_walks,
    WalkConfig,
    frequency_matrix,
    ppmi,
    ppmi_operator,
)
from dualgcn.rng import RngStream
from conftest import exact_frequency_matrix, make_random_graph


def test_walk_config_validation():
    with pytest.raises(ValueError):
        WalkConfig(q=0)
    with pytest.raises(ValueError):
        WalkConfig(q=2, w=3)
    with pytest.raises(ValueError):
        WalkConfig(gamma_walks=0)


def test_random_walk_single_edge_alternates():
    g = build_graph([(0, 1)], n=2)
    walks = _batch_walks(g.adj, np.array([0, 1]), 3, RngStream(0))
    np.testing.assert_array_equal(walks, [[0, 1, 0, 1], [1, 0, 1, 0]])


def test_random_walk_self_loop_constant():
    g = build_graph([(0, 0, 1.0)], n=1)
    walks = _batch_walks(g.adj, np.zeros(3, dtype=np.int64), 4, RngStream(1))
    np.testing.assert_array_equal(walks, np.zeros((3, 5)))


def test_random_walk_truncates_at_dead_end():
    m = sp.csr_matrix(np.array([[0.0, 1.0], [0.0, 0.0]]))  # directed into a sink
    walks = _batch_walks(m, np.array([0, 1, 0]), 5, RngStream(2))
    # -1 marks the positions after a walker stops
    np.testing.assert_array_equal(walks, [[0, 1, -1, -1, -1, -1], [1, -1, -1, -1, -1, -1],
                                          [0, 1, -1, -1, -1, -1]])


def test_random_walk_k3_transition_split():
    g = build_graph([(0, 1), (1, 2), (0, 2)], n=3)
    rng = RngStream(3, ("k3",))
    trials = 100_000
    starts = np.zeros(trials, dtype=np.int64)
    walks = _batch_walks(g.adj, starts, 1, rng)
    vals, cnts = np.unique(walks[:, 1], return_counts=True)
    freq = dict(zip(vals.tolist(), cnts.tolist()))
    for node in (1, 2):
        assert abs(freq[node] / trials - 0.5) < 0.01


def test_frequency_single_self_loop_node():
    # one walk [0,0,0]: adjacent position pairs (0,1),(1,2) each add 1 to
    # F[0,0] twice, giving 4
    g = build_graph([(0, 0, 1.0)], n=1)
    freq = frequency_matrix(g.adj, WalkConfig(q=2, w=1, gamma_walks=1), RngStream(0, ("ppmi",)))
    assert freq[0, 0] == 4.0


def test_frequency_empty_graph_is_zero():
    g = build_graph([], n=4)
    freq = frequency_matrix(g.adj, WalkConfig(q=3, w=2, gamma_walks=5), RngStream(0, ("ppmi",)))
    assert freq.nnz == 0


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 400))
def test_frequency_symmetric_nonnegative(seed):
    g = make_random_graph(int(RngStream(seed).integers(2, 10)), 0.4, seed)
    cfg = WalkConfig(q=3, w=2, gamma_walks=4)
    f = frequency_matrix(g.adj, cfg, RngStream(seed, ("ppmi",)))
    assert (f.data >= 0).all()
    assert abs(f - f.T).nnz == 0


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 400))
def test_frequency_matrix_is_canonical_csr(seed):
    rng = RngStream(seed)
    n = int(rng.integers(1, 12))
    g = make_random_graph(n, 0.4, seed, ensure_ring=bool(seed % 2))
    f = frequency_matrix(g.adj, WalkConfig(q=3, w=2, gamma_walks=3), RngStream(seed, ("ppmi",)))
    assert isinstance(f, sp.csr_matrix) and f.shape == (n, n)
    # columns strictly ascending inside each row: sorted, with no repeats
    rows = np.repeat(np.arange(n), np.diff(f.indptr))
    same_row = rows[1:] == rows[:-1]
    assert (np.diff(f.indices)[same_row] > 0).all()
    assert f.has_canonical_format


def test_exact_two_node_single_edge_offdiagonal():
    g = build_graph([(0, 1)], n=2)
    f = exact_frequency_matrix(g.adj, q=1, w=1)
    assert f[0, 0] == 0 and f[1, 1] == 0
    assert f[0, 1] == 2.0 and f[1, 0] == 2.0


def test_exact_identity_transition_diagonal_only():
    m = np.eye(3)
    f = exact_frequency_matrix(m, q=3, w=2)
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
    got = exact_frequency_matrix(g.adj, q=2, w=2)
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
    got = exact_frequency_matrix(g.adj, q=q, w=w)
    np.testing.assert_allclose(got, expected, rtol=1e-10, atol=1e-12)


def test_sampled_frequency_converges_to_exact():
    g = build_graph([(0, 1)], n=2)
    exact = exact_frequency_matrix(g.adj, q=3, w=3)
    exact_dist = exact / exact.sum()
    cfg = WalkConfig(q=3, w=3, gamma_walks=10_000)
    sampled = frequency_matrix(g.adj, cfg, RngStream(5, ("ppmi",))).toarray()
    sampled_dist = sampled / sampled.sum()
    assert np.abs(sampled_dist - exact_dist).max() <= 0.05


def test_ppmi_rank_one_independence_is_zero():
    u = np.array([1.0, 2.0, 4.0])
    f = sp.csr_matrix(np.outer(u, u))
    p = ppmi(f)
    assert p.P.nnz == 0


def test_ppmi_identity_two_by_two():
    f = sp.csr_matrix(np.eye(2))
    p = ppmi(f)
    assert p.P[0, 0] == pytest.approx(np.log(2), rel=1e-12)
    assert p.P[1, 1] == pytest.approx(np.log(2), rel=1e-12)
    assert p.P[0, 1] == 0.0 and p.P[1, 0] == 0.0


def test_ppmi_zero_where_f_zero_and_nonnegative(karate):
    cfg = WalkConfig(q=3, w=3, gamma_walks=10)
    f = frequency_matrix(karate.graph.adj, cfg, RngStream(0, ("ppmi",)))
    p = ppmi(f)
    assert (p.P.data >= 0).all()
    f_dense = f.toarray()
    p_dense = p.P.toarray()
    assert (p_dense[f_dense == 0] == 0).all()


def test_ppmi_rejects_all_zero():
    with pytest.raises(ValueError):
        ppmi(sp.csr_matrix((3, 3)))


def test_ppmi_operator_diagonal():
    p = ppmi(sp.csr_matrix(np.eye(2)))
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
    f = frequency_matrix(g.adj, WalkConfig(q=3, w=2, gamma_walks=6), RngStream(seed, ("ppmi",)))
    op = ppmi_operator(ppmi(f))
    asym = abs(op - op.T)
    assert (asym.max() if asym.nnz else 0.0) <= 1e-12


def test_frequency_runtime_scales_linearly_in_gamma():
    g = make_random_graph(60, 0.1, seed=4)

    def timed(gamma):
        cfg = WalkConfig(q=3, w=3, gamma_walks=gamma)
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            frequency_matrix(g.adj, cfg, RngStream(0, ("ppmi",)))
            best = min(best, time.perf_counter() - t0)
        return best

    timed(400)  # warm up
    t1 = timed(400)
    t2 = timed(800)
    assert t2 <= 2.3 * t1 + 0.01


# --- the whole-array kernels against the loop-level semantics they replace ---

def _walks_reference(m, starts, q, rng):
    """Global right-sided searchsorted over all cumulative weights, clipped to the row."""
    indptr, indices, data = m.indptr, m.indices, m.data
    cum = np.cumsum(data) if data.size else np.zeros(0)
    walks = np.full((starts.size, q + 1), -1, dtype=np.int64)
    walks[:, 0] = starts
    cur = starts.astype(np.int64, copy=True)
    alive = np.ones(starts.size, dtype=bool)
    for step in range(1, q + 1):
        idx = np.flatnonzero(alive)
        c = cur[idx]
        lo, hi = indptr[c], indptr[c + 1]
        base = np.zeros(idx.size)
        total = np.zeros(idx.size)
        ne = np.flatnonzero(hi > lo)
        base[ne] = cum[lo[ne]] - data[lo[ne]]
        total[ne] = cum[hi[ne] - 1] - base[ne]
        ok = (hi > lo) & (total > 0)
        alive[idx[~ok]] = False
        live = idx[ok]
        if live.size == 0:
            break
        target = base[ok] + rng.random(live.size) * total[ok]
        k = np.clip(np.searchsorted(cum, target, side="right"), lo[ok], hi[ok] - 1)
        cur[live] = indices[k]
        walks[live, step] = indices[k]
    return walks


def _dead_end_graph(seed, hub_len, n=80):
    """Weighted rows with zero-weight entries, empty rows, all-zero rows and
    one hub row; the last stored entry of every other row has weight >= 0.5."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        length = hub_len if i == 0 else (0 if i % 7 == 1 else int(rng.integers(1, 9)))
        cols = np.sort(rng.choice(n, size=length, replace=False))
        w = rng.random(length) + 0.5
        w[:-1][rng.random(max(length - 1, 0)) < 0.3] = 0.0
        if i % 7 == 2:
            w[:] = 0.0
        rows.append((cols, w))
    indptr = np.concatenate([[0], np.cumsum([c.size for c, _ in rows])])
    return sp.csr_matrix((np.concatenate([w for _, w in rows]), np.concatenate([c for c, _ in rows]), indptr),
                         shape=(n, n))


@pytest.mark.parametrize("hub_len", [16, 17, 32, 33, 64, 65])
@pytest.mark.parametrize("seed", range(3))
def test_batch_walks_match_global_searchsorted(seed, hub_len):
    from dualgcn.ppmi import _batch_walks

    m = _dead_end_graph(seed, hub_len)
    starts = np.repeat(np.arange(m.shape[0]), 40)
    got = _batch_walks(m, starts, 4, RngStream(seed, ("walk",)))
    want = _walks_reference(m, starts, 4, RngStream(seed, ("walk",)))
    np.testing.assert_array_equal(got, want)
    assert (got[:, 1:] >= 0).any() and (got[:, 1:] < 0).any()


@pytest.mark.parametrize("draw", [0.0, 1.0 - 2.0**-53])
def test_batch_walks_extreme_draws_land_on_row_ends(monkeypatch, draw):
    # a zero draw must skip the row's leading zero-weight entries; a draw
    # just below 1 puts the target at or past the row's last cumulative
    # weight, and the step must still take that row's last entry
    from dualgcn.ppmi import _batch_walks

    m = _dead_end_graph(5, 33)
    rng = RngStream(0)
    monkeypatch.setattr(rng, "random", lambda size: np.full(size, draw))
    walks = _batch_walks(m, np.arange(m.shape[0]), 3, rng)
    end = np.full(m.shape[0] + 1, -1)
    for i in range(m.shape[0]):
        row = slice(m.indptr[i], m.indptr[i + 1])
        positive = m.indices[row][m.data[row] > 0]
        if positive.size:
            end[i] = positive[0] if draw == 0.0 else positive[-1]
    stepped = 0
    for step in range(1, 4):
        moved = walks[:, step] >= 0
        np.testing.assert_array_equal(walks[moved, step], end[walks[moved, step - 1]])
        stepped += int(moved.sum())
    assert stepped > 0


def _pair_counts_oracle(walks, q, w, n):
    from collections import Counter

    counts = Counter()
    for row in walks.tolist():
        for s in range(q):
            for d in range(1, min(w, q - s) + 1):
                a, b = row[s], row[s + d]
                if a >= 0 and b >= 0:
                    counts[a, b] += 1
                    counts[b, a] += 1
    dense = np.zeros((n, n))
    for (a, b), c in counts.items():
        dense[a, b] = c
    return dense


@pytest.mark.parametrize("q,w", [(1, 1), (3, 2), (4, 4), (5, 3)])
def test_pair_counts_match_counter_oracle(q, w):
    from dualgcn.ppmi import _pair_counts

    rng = np.random.default_rng(q * 10 + w)
    n = 7
    walks = rng.integers(0, n, size=(300, q + 1))
    walks[:, 1] = walks[:, 0]  # repeated nodes: diagonal pairs
    cut = rng.integers(1, q + 2, size=walks.shape[0])
    walks[np.arange(q + 1)[None, :] >= cut[:, None]] = -1
    f = _pair_counts(walks, q, w, n)
    assert f.has_canonical_format
    np.testing.assert_array_equal(f.toarray(), _pair_counts_oracle(walks, q, w, n))
    assert f.diagonal().any()


def test_pair_counts_keys_past_int32_range():
    # n * n > 2**31: a key min * n + max of the high nodes would wrap in 32 bits
    from collections import Counter

    from dualgcn.ppmi import _pair_counts

    n = 50_000
    walks = np.array([[n - 1, n - 2, n - 1], [n - 2, n - 1, 3], [7, n - 1, -1]])
    f = _pair_counts(walks, 2, 2, n)
    want = Counter()
    for row in walks.tolist():
        for s, t in ((0, 1), (0, 2), (1, 2)):
            if row[s] >= 0 and row[t] >= 0:
                want[row[s], row[t]] += 1
                want[row[t], row[s]] += 1
    coo = f.tocoo()
    assert f.has_canonical_format
    assert dict(zip(zip(coo.row.tolist(), coo.col.tolist()), coo.data.tolist())) == dict(want)


@pytest.mark.parametrize("n", [46_340, 46_341])
def test_pair_counts_in_int32_and_int64_keys_match_a_unique_oracle(n):
    """46,340 is the largest n whose keys (up to n * n - 1) fit int32, 46,341
    the smallest that needs int64: walks of length 1 on a sparse ring whose
    last node also pairs with itself, so the largest key is there."""
    from dualgcn.ppmi import _pair_counts

    rng = np.random.default_rng(n)
    starts = np.repeat(np.arange(n, dtype=np.int32), 2)
    walks = np.column_stack([starts, (starts + rng.choice([-1, 1], starts.size)) % n]).astype(np.int32)
    walks[-1, 1] = n - 1
    keys = np.minimum(walks[:, 0], walks[:, 1]).astype(np.int64) * n + np.maximum(walks[:, 0], walks[:, 1])
    assert keys.max() == n * n - 1
    uniq, counts = np.unique(keys, return_counts=True)
    rows, cols = np.divmod(uniq, n)
    up = sp.csr_matrix((counts.astype(np.float64), (rows, cols)), shape=(n, n))
    want = up + up.T.tocsr()
    got = _pair_counts(walks, 1, 1, n)
    for name in ("data", "indices", "indptr"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("truncated", [False, True])
def test_pair_counts_peak_bytes_per_window_pair(truncated):
    # walks on a ring, whose window pairs repeat (~6% are distinct), as
    # walks on a sparse graph's do; the keys alone take 4 B per pair here
    # (int32, as n * n fits), 8 B in int64
    import tracemalloc

    from dualgcn.ppmi import _pair_counts

    n, gamma, q, w = 5000, 10, 3, 3
    steps = np.random.default_rng(31).choice([-1, 1], size=(n * gamma, q))
    walks = np.empty((n * gamma, q + 1), dtype=np.int32)
    walks[:, 0] = np.repeat(np.arange(n), gamma)
    walks[:, 1:] = (walks[:, :1] + np.cumsum(steps, axis=1)) % n
    if truncated:
        walks[::7, -1] = -1
    window_pairs = 6 * walks.shape[0]
    tracemalloc.start()
    try:
        _pair_counts(walks, q, w, n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # ~38 B per pair with whole-array int64 copies of both columns
    assert peak < 16 * window_pairs, peak / window_pairs


def _ppmi_coo(f):
    total = float(f.sum())
    rowsum = np.asarray(f.sum(axis=1)).ravel()
    colsum = np.asarray(f.sum(axis=0)).ravel()
    coo = f.tocoo()
    vals = np.log(coo.data * total / (rowsum[coo.row] * colsum[coo.col]))
    keep = vals > 0
    return sp.csr_matrix((vals[keep], (coo.row[keep], coo.col[keep])), shape=f.shape)


def test_ppmi_matches_coo_formula():
    g = make_random_graph(30, 0.15, seed=2)
    f = frequency_matrix(g.adj, WalkConfig(q=3, w=2, gamma_walks=5), RngStream(1, ("ppmi",)))
    got = ppmi(f).P
    want = _ppmi_coo(f)
    assert 0 < want.nnz < f.nnz
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data, want.data)


def test_ppmi_non_canonical_input_matches_and_is_kept():
    # the same counts stored with unsorted, repeated columns
    g = make_random_graph(30, 0.15, seed=2)
    f = frequency_matrix(g.adj, WalkConfig(q=3, w=2, gamma_walks=5), RngStream(1, ("ppmi",)))
    coo = f.tocoo()
    rows = np.concatenate([coo.row, coo.row])
    order = np.argsort(rows, kind="stable")
    cols = np.concatenate([coo.col, coo.col])[order]
    halves = np.concatenate([coo.data, coo.data])[order] / 2
    messy = sp.csr_matrix((halves, cols, np.searchsorted(rows[order], np.arange(f.shape[0] + 1))),
                          shape=f.shape)
    assert not messy.has_canonical_format
    before = (messy.data.copy(), messy.indices.copy(), messy.indptr.copy())
    got = ppmi(messy).P
    want = ppmi(f).P
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_allclose(got.data, want.data, rtol=1e-12)
    for kept, arr in zip(before, (messy.data, messy.indices, messy.indptr)):
        np.testing.assert_array_equal(arr, kept)
