import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from dualgcn.cluster import (
    Partition,
    PartitionConfig,
    _contract,
    _edge_cut,
    _enforce_balance,
    _refine,
    _strip_diagonal,
    cluster_fit,
    edge_cut_report,
    form_batch,
    partition_from_assign,
    partition_graph,
    random_balanced_partition,
    save_partition_cache,
    split_matrices,
)
from dualgcn.errors import ConfigError
from dualgcn.graph import add_self_loops, build_graph, sym_normalize
from dualgcn.model import ModelConfig, accuracy, fit, forward, predict, total_loss
from dualgcn.ppmi import WalkConfig
from dualgcn.rng import RngStream
from conftest import make_random_graph, make_sbm_bundle


def _p4():
    return build_graph([(0, 1), (1, 2), (2, 3)], n=4)


def test_partition_config_validation():
    with pytest.raises(ConfigError):
        PartitionConfig(c=0)
    with pytest.raises(ConfigError):
        PartitionConfig(c=2, q=3)
    with pytest.raises(ConfigError):
        PartitionConfig(c=2, balance_tolerance=0.5)


def test_partition_single_cluster():
    g = make_random_graph(12, 0.3, seed=0)
    part = partition_graph(g, PartitionConfig(c=1))
    assert part.edge_cut == 0
    assert part.sizes().tolist() == [12]
    np.testing.assert_array_equal(part.assign, np.zeros(12, dtype=np.int64))


def test_partition_singletons():
    g = _p4()
    part = partition_graph(g, PartitionConfig(c=4))
    assert part.edge_cut == g.num_edges == 3
    assert sorted(part.sizes().tolist()) == [1, 1, 1, 1]


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_partition_p4_is_optimal(seed):
    # brute force over balanced 2-partitions of the path shows cut 1 is
    # minimal, achieved only by {0,1} | {2,3}
    g = _p4()
    cuts = {}
    for combo in itertools.combinations(range(4), 2):
        assign = np.array([0 if i in combo else 1 for i in range(4)])
        cuts[combo] = partition_from_assign(g, assign, 2).edge_cut
    assert min(cuts.values()) == 1 and cuts[(0, 1)] == 1
    part = partition_graph(g, PartitionConfig(c=2, balance_tolerance=1.0, seed=seed))
    assert part.edge_cut == 1
    assert sorted(tuple(m) for m in part.members) == [(0, 1), (2, 3)]


def test_partition_rejects_too_many_clusters():
    g = _p4()
    with pytest.raises(ConfigError):
        partition_graph(g, PartitionConfig(c=5))


@pytest.mark.parametrize("n,c,tol", [(30, 3, 1.0), (50, 5, 1.1), (64, 8, 1.2)])
def test_partition_balance_bound(n, c, tol):
    g = make_random_graph(n, 0.15, seed=n + c)
    part = partition_graph(g, PartitionConfig(c=c, balance_tolerance=tol, seed=1))
    cap = tol * np.ceil(n / c)
    assert part.sizes().max() <= cap
    assert part.sizes().sum() == n
    assert (part.assign >= 0).all() and (part.assign < c).all()


def test_partition_deterministic():
    g = make_random_graph(40, 0.2, seed=7)
    cfg = PartitionConfig(c=4, seed=9)
    p1 = partition_graph(g, cfg)
    p2 = partition_graph(g, cfg)
    np.testing.assert_array_equal(p1.assign, p2.assign)


def test_partition_handles_disconnected_graph():
    # two 6-cliques with no cross edges
    edges = [(i, j) for i in range(6) for j in range(i + 1, 6)]
    edges += [(i + 6, j + 6) for i, j in edges]
    g = build_graph(edges, 12)
    part = partition_graph(g, PartitionConfig(c=2, balance_tolerance=1.0, seed=0))
    assert part.edge_cut == 0
    assert sorted(part.sizes().tolist()) == [6, 6]


def test_partition_beats_random_baseline_on_sbm():
    bundle = make_sbm_bundle(n=240, k=6, p_in=0.1, p_out=0.004, seed=3)
    g = bundle.graph
    for c in (4, 6):
        part = partition_graph(g, PartitionConfig(c=c, seed=0))
        rng = RngStream(0, ("baseline",))
        random_cuts = [random_balanced_partition(g, c, rng.child(i)).edge_cut for i in range(20)]
        assert part.edge_cut < np.mean(random_cuts), (part.edge_cut, np.mean(random_cuts))


def test_split_matrices_single_cluster_identity():
    g = make_random_graph(10, 0.4, seed=2)
    x = RngStream(0).random((10, 3))
    y = RngStream(1).integers(0, 2, 10)
    part = partition_graph(g, PartitionConfig(c=1))
    slices, delta = split_matrices(g, x, y, part)
    assert delta.nnz == 0
    assert (slices[0].adj != g.adj).nnz == 0
    np.testing.assert_array_equal(slices[0].x, x)


def test_split_matrices_p4():
    g = _p4()
    part = partition_from_assign(g, np.array([0, 0, 1, 1]), 2)
    x = np.arange(8.0).reshape(4, 2)
    slices, delta = split_matrices(g, x, np.arange(4), part)
    assert slices[0].adj.nnz == 2  # the single edge (0,1), stored twice
    assert slices[1].adj.nnz == 2
    assert delta.nnz == 2  # edge (1,2) in both directions
    assert delta[1, 2] == 1.0 and delta[2, 1] == 1.0


@pytest.mark.parametrize("seed", range(10))
def test_split_matrices_reconstruction_random(seed):
    rng = RngStream(seed, ("rec",))
    n = int(rng.integers(8, 64))
    c = int(rng.integers(2, min(6, n)))
    g = make_random_graph(n, 0.2, seed)
    x = rng.random((n, 3))
    y = rng.integers(0, 3, n)
    part = partition_graph(g, PartitionConfig(c=c, seed=seed))
    slices, delta = split_matrices(g, x, y, part)
    rebuilt = sp.lil_matrix((n, n))
    for sl in slices:
        rebuilt[np.ix_(sl.nodes, sl.nodes)] = sl.adj.toarray()
    rebuilt = rebuilt.tocsr() + delta
    assert (rebuilt != g.adj).nnz == 0
    nnz_blocks = sum(sl.adj.nnz for sl in slices)
    assert nnz_blocks + delta.nnz == g.adj.nnz


def test_form_batch_whole_graph_when_q_equals_c():
    g = make_random_graph(9, 0.4, seed=4)
    part = partition_graph(g, PartitionConfig(c=3, q=3, seed=0))
    batch = form_batch(part, 3, RngStream(5), g)
    np.testing.assert_array_equal(batch.nodes, np.arange(9))
    assert (batch.graph.adj != g.adj).nnz == 0


def test_form_batch_single_cluster_on_p4():
    g = _p4()
    part = partition_from_assign(g, np.array([0, 0, 1, 1]), 2)
    batch = form_batch(part, 1, RngStream(0, ("b",)), g)
    assert batch.nodes.size == 2
    assert batch.graph.num_edges == 1


def test_form_batch_includes_cross_cluster_edges():
    g = _p4()
    part = partition_from_assign(g, np.array([0, 0, 1, 1]), 2)
    batch = form_batch(part, 2, RngStream(1), g)
    # union is the whole path: edge (1,2) between the two clusters stays
    assert batch.graph.adj[1, 2] == 1.0


def test_form_batch_rejects_q_above_c():
    g = _p4()
    part = partition_graph(g, PartitionConfig(c=2))
    with pytest.raises(ConfigError):
        form_batch(part, 3, RngStream(0))


def test_form_batch_uniform_pair_frequencies():
    g = make_random_graph(16, 0.3, seed=6)
    part = partition_graph(g, PartitionConfig(c=4, seed=0))
    rng = RngStream(2, ("freq",))
    draws = 10_000
    counts: dict[tuple, int] = {}
    for i in range(draws):
        b = form_batch(part, 2, rng.child(i))
        counts[b.cluster_ids] = counts.get(b.cluster_ids, 0) + 1
    n_pairs = 6
    expected = draws / n_pairs
    sigma = np.sqrt(draws * (1 / n_pairs) * (1 - 1 / n_pairs))
    assert len(counts) == n_pairs
    for pair, cnt in counts.items():
        assert abs(cnt - expected) <= 3 * sigma, (pair, cnt)


def test_edge_cut_report_cases():
    g = make_random_graph(12, 0.3, seed=8)
    single = edge_cut_report(partition_graph(g, PartitionConfig(c=1)))
    assert single["edge_cut"] == 0
    singles = edge_cut_report(partition_graph(g, PartitionConfig(c=12)))
    assert singles["edge_cut"] == g.num_edges
    assert len(singles["cluster_sizes"]) == 12


def test_loss_additivity_over_clusters():
    """Unweighted per-cluster losses on the diagonal blocks equal the loss
    on the block-diagonal graph (cross-cluster edges discarded)."""
    bundle = make_sbm_bundle(n=48, k=3, seed=9)
    g = bundle.graph
    part = partition_graph(g, PartitionConfig(c=3, seed=1))
    cfg = ModelConfig(hidden_gcn=4, hidden_gl=None, dropout=0.0, learn_graph=False,
                      lambda1=0.0, lambda2=0.0, epochs=1,
                      walk=WalkConfig(q=2, w=2, gamma_walks=5, seed=0))
    from dualgcn.model import init_params

    params = init_params(bundle.p, bundle.class_count, cfg, RngStream(3))
    slices, _delta = split_matrices(g, bundle.x, bundle.y, part)
    total_blocks = 0.0
    from dualgcn.graph import graph_from_csr

    for sl in slices:
        train_local = np.flatnonzero(bundle.train_mask[sl.nodes])
        if train_local.size == 0:
            continue
        op = sym_normalize(add_self_loops(graph_from_csr(sl.adj)).adj)
        cache = forward(sl.x, op, None, params, cfg, mode="eval")
        loss, _ = total_loss(cache, sl.y, train_local, None, cfg)
        total_blocks += loss.item()
    # block-diagonal graph: original adjacency minus the cross edges
    coo = g.adj.tocoo()
    keep = part.assign[coo.row] == part.assign[coo.col]
    blockdiag = sp.csr_matrix((coo.data[keep], (coo.row[keep], coo.col[keep])), shape=g.adj.shape)
    op_full = sym_normalize(add_self_loops(graph_from_csr(blockdiag)).adj)
    cache_full = forward(bundle.x, op_full, None, params, cfg, mode="eval")
    loss_full, _ = total_loss(cache_full, bundle.y, np.flatnonzero(bundle.train_mask), None, cfg)
    assert total_blocks == pytest.approx(loss_full.item(), rel=1e-10)


def test_cluster_fit_c1_bit_identical_to_full_batch(karate):
    cfg = ModelConfig(hidden_gcn=8, hidden_gl=6, depth=2, dropout=0.4, epochs=20,
                      seed=6, lambda1=0.01, lambda2=0.01, ppmi_refresh=7,
                      walk=WalkConfig(q=3, w=2, gamma_walks=8, seed=0))
    full = fit(karate, cfg)
    clustered = cluster_fit(karate, cfg, PartitionConfig(c=1, q=1, seed=0))
    assert len(full.history) == len(clustered.history)
    for a, b in zip(full.history, clustered.history):
        assert a == b, (a, b)
    for p1, p2 in zip(full.params.all_parameters(), clustered.params.all_parameters()):
        np.testing.assert_array_equal(p1.value, p2.value)


def test_cluster_fit_close_to_full_batch_on_sbm():
    bundle = make_sbm_bundle(n=160, k=4, seed=13)
    cfg = ModelConfig(hidden_gcn=16, hidden_gl=6, dropout=0.3, epochs=140, seed=0,
                      lr1=0.01, lr2=0.01, weight_decay=5e-4, ppmi_refresh=30,
                      walk=WalkConfig(q=3, w=3, gamma_walks=10, seed=0))
    full = fit(bundle, cfg)
    clustered = cluster_fit(bundle, cfg, PartitionConfig(c=4, q=2, seed=0))
    acc_full = accuracy(predict(full.params, bundle), bundle.y, bundle.test_mask)
    acc_clu = accuracy(predict(clustered.params, bundle), bundle.y, bundle.test_mask)
    assert acc_clu >= acc_full - 0.1, (acc_full, acc_clu)


def test_cluster_fit_skips_batches_without_labels():
    bundle = make_sbm_bundle(n=60, k=3, seed=15, per_class_train=2)
    # concentrate all train labels in cluster 0's nodes
    train = np.zeros(60, dtype=bool)
    train[:4] = True
    from dataclasses import replace

    val = np.zeros(60, dtype=bool)
    val[30:45] = True
    test = np.zeros(60, dtype=bool)
    test[45:] = True
    bundle = replace(bundle, train_mask=train, val_mask=val, test_mask=test)
    cfg = ModelConfig(hidden_gcn=4, hidden_gl=None, dropout=0.0, epochs=12, seed=0,
                      lambda1=0.0, lambda2=0.0,
                      walk=WalkConfig(q=2, w=2, gamma_walks=5, seed=0))
    res = cluster_fit(bundle, cfg, PartitionConfig(c=6, q=1, seed=2))
    assert res.skipped_batches > 0
    assert len(res.history) == 12


def test_cluster_fit_stop_threshold(karate):
    cfg = ModelConfig(hidden_gcn=4, hidden_gl=None, dropout=0.0, epochs=50,
                      lr1=1e-12, lr2=1e-12, stop_threshold=1e-5,
                      lambda1=0.0, lambda2=0.0,
                      walk=WalkConfig(q=2, w=2, gamma_walks=4, seed=0))
    res = cluster_fit(karate, cfg, PartitionConfig(c=2, q=1, seed=0))
    assert res.epochs_run < 50


def test_partition_cache_roundtrip(tmp_path):
    g = make_random_graph(20, 0.3, seed=5)
    cfg = PartitionConfig(c=4, seed=3)
    part = partition_graph(g, cfg)
    path = tmp_path / "part.txt"
    with open(path, "wb") as fh:
        save_partition_cache(fh, part, cfg.seed)
    assert path.read_text().splitlines()[0] == "# partition n=20 c=4 seed=3"
    np.testing.assert_array_equal(np.loadtxt(path, dtype=np.int64), part.assign)


def _two_cliques():
    """Two K4s, {0..3} and {4..7}, joined by the edge 3-4."""
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    edges += [(i + 4, j + 4) for i, j in edges] + [(3, 4)]
    return _strip_diagonal(build_graph(edges, 8).adj)


def test_refine_swap_fixes_a_balance_locked_partition():
    # both clusters are at the cap, so no single move is allowed: only
    # swapping 3 and 4 lowers the cut (from 7 to 1)
    adj = _two_cliques()
    start = np.array([0, 0, 0, 1, 0, 1, 1, 1])
    assert _edge_cut(adj, start) == 7
    out = _refine(adj, np.ones(8), start.copy(), c=2, cap=4)
    assert _edge_cut(adj, out) == 1
    np.testing.assert_array_equal(out, [0, 0, 0, 0, 1, 1, 1, 1])


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 80), st.integers(2, 8), st.floats(1.0, 1.3), st.integers(0, 10_000))
def test_refine_properties_on_random_graphs(n, c, tol, seed):
    c = min(c, n)
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < rng.uniform(0.05, 0.4), 1)
    rows, cols = np.nonzero(upper)
    w = rng.integers(1, 4, rows.size).astype(float)
    adj = sp.csr_matrix((np.r_[w, w], (np.r_[rows, cols], np.r_[cols, rows])), shape=(n, n))
    cap = max(int(tol * np.ceil(n / c)), int(np.ceil(n / c)))
    start = np.empty(n, dtype=np.int64)
    for t, part in enumerate(np.array_split(rng.permutation(n), c)):
        start[part] = t
    before = adj.data[start[adj.tocoo().row] != start[adj.tocoo().col]].sum()
    out = _refine(adj, np.ones(n), start.copy(), c, cap)
    again = _refine(adj, np.ones(n), start.copy(), c, cap)
    np.testing.assert_array_equal(out, again)
    assert ((out >= 0) & (out < c)).all()
    sizes = np.bincount(out, minlength=c)
    assert sizes.max() <= cap
    assert sizes.min() >= 1
    after = adj.data[out[adj.tocoo().row] != out[adj.tocoo().col]].sum()
    assert after <= before


def test_enforce_balance_empties_an_over_cap_cluster_to_the_cap():
    g = make_random_graph(30, 0.2, seed=4)
    adj = _strip_diagonal(g.adj)
    start = np.r_[np.zeros(16), np.ones(7), np.full(7, 2)].astype(np.int64)  # cap 11
    out = _enforce_balance(adj, np.ones(30), start.copy(), 3, 11)
    again = _enforce_balance(adj, np.ones(30), start.copy(), 3, 11)
    np.testing.assert_array_equal(out, again)
    sizes = np.bincount(out, minlength=3)
    assert sizes.max() <= 11
    assert sizes.sum() == 30
    # only members of the over-cap cluster move
    assert (out[16:] == start[16:]).all()


@pytest.mark.parametrize("seed", range(5))
def test_partition_from_assign_members_match_the_per_cluster_scan(seed):
    rng = np.random.default_rng(seed)
    n, c = int(rng.integers(1, 200)), int(rng.integers(1, 12))
    assign = rng.integers(0, c, n)  # some clusters may be empty
    g = make_random_graph(n, 0.05, seed=seed)
    part = partition_from_assign(g, assign, c)
    assert len(part.members) == c
    for t in range(c):
        expected = np.flatnonzero(assign == t)
        assert np.array_equal(part.members[t], expected)
        assert part.members[t].dtype == expected.dtype


def _coarse_map_by_loop(match):
    """The per-node scan _contract replaced: ids in order of each pair's
    first node."""
    coarse_map = np.full(len(match), -1, dtype=np.int64)
    nxt = 0
    for v in range(len(match)):
        if coarse_map[v] >= 0:
            continue
        coarse_map[v] = nxt
        if match[v] >= 0:
            coarse_map[match[v]] = nxt
        nxt += 1
    return coarse_map


@pytest.mark.parametrize("seed", range(6))
def test_contract_matches_the_per_node_loop(seed):
    rng = np.random.default_rng(seed)
    n = [0, 1, 2, 7, 50, 300][seed]
    match = np.full(n, -1, dtype=np.int64)
    order = rng.permutation(n)
    pairs = order[: 2 * int(rng.integers(0, n // 2 + 1))].reshape(-1, 2)  # the rest stay unmatched
    match[pairs[:, 0]], match[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]
    adj = _strip_diagonal(make_random_graph(n, 0.1, seed=seed).adj) if n else sp.csr_matrix((0, 0))
    node_w = rng.integers(1, 5, n).astype(float)
    coarse_adj, coarse_w, coarse_map = _contract(adj, node_w, match)
    expected = _coarse_map_by_loop(match)
    np.testing.assert_array_equal(coarse_map, expected)
    m = int(expected.max(initial=-1)) + 1
    np.testing.assert_array_equal(coarse_w, np.bincount(expected, weights=node_w, minlength=m))
    coo = adj.tocoo()
    rows, cols = expected[coo.row], expected[coo.col]
    keep = rows != cols
    ref = sp.csr_matrix((coo.data[keep], (rows[keep], cols[keep])), shape=(m, m))
    assert coarse_adj.shape == (m, m)
    assert (coarse_adj != ref).nnz == 0
