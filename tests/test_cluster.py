import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from dualgcn import cluster
from dualgcn.cluster import (
    Partition,
    PartitionConfig,
    _connectivity,
    _contract,
    _edge_cut,
    _enforce_balance,
    _greedy_pairs,
    _heavy_edge_matching,
    _refine,
    _strip_diagonal,
    _swap_round,
    _trial_cut,
    cluster_fit,
    edge_cut_report,
    form_batch,
    partition_from_assign,
    partition_graph,
    random_balanced_partition,
)
from dualgcn.errors import ConfigError, DataError
from dualgcn.graph import Graph, add_self_loops, build_graph, sym_normalize
from dualgcn.graphlearn import SupportStructure, support_distances
from dualgcn.model import ModelConfig, _GraphContext, accuracy, fit, forward, predict, total_loss
from dualgcn.ppmi import WalkConfig
from dualgcn.rng import RngStream
from conftest import (
    citation_graph,
    cluster_blocks,
    contract_by_coo,
    make_random_graph,
    make_sbm_bundle,
    reassemble,
    refine_by_rebuild,
)


# the config of the whole contexts that form_batch cuts from in these tests
_CFG = ModelConfig()


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


@pytest.mark.parametrize("n,c", [(9, 4), (10, 6), (34, 20), (2708, 10), (5, 5)])
def test_random_balanced_partition_fills_every_cluster(n, c):
    g = build_graph([(i, (i + 1) % n) for i in range(n)], n=n)
    part = random_balanced_partition(g, c, RngStream(0, ("baseline",)))
    sizes = part.sizes()
    assert sizes.size == c
    assert sizes.min() == n // c
    assert sizes.max() == -(-n // c)


def test_cluster_blocks_of_one_cluster_are_the_whole_graph():
    # with one cluster, the one-cluster batch is the whole data
    g = make_random_graph(10, 0.4, seed=2)
    x = RngStream(0).random((10, 3))
    y = RngStream(1).integers(0, 2, 10)
    part = partition_graph(g, PartitionConfig(c=1))
    (batch,) = cluster_blocks(part, g, x, y)
    np.testing.assert_array_equal(batch.nodes, np.arange(10))
    assert batch.ctx.x is x  # the whole context itself: nothing is cut
    assert (reassemble([batch], part, g) != g.adj).nnz == 0
    np.testing.assert_array_equal(batch.y, y)


def test_cluster_blocks_drop_the_crossing_edge_of_p4():
    g = _p4()
    part = partition_from_assign(g, np.array([0, 0, 1, 1]), 2)
    x = np.arange(8.0).reshape(4, 2)
    blocks = cluster_blocks(part, g, x, np.arange(4))
    # the edges (0,1) and (2,3), stored twice, and each node's self-loop
    assert [b.ctx.support.nnz for b in blocks] == [4, 4]
    assert [b.ctx.support.npairs for b in blocks] == [1, 1]
    np.testing.assert_array_equal(blocks[1].ctx.x, x[2:])
    # edge (1,2) crosses the clusters and is in no block
    assert (reassemble(blocks, part, g) != g.adj).nnz == 0


@pytest.mark.parametrize("seed", range(10))
def test_cluster_blocks_reassemble_random_partitions(seed):
    rng = RngStream(seed, ("rec",))
    n = int(rng.integers(8, 64))
    c = int(rng.integers(2, min(6, n)))
    g = make_random_graph(n, 0.2, seed)
    x = rng.random((n, 3))
    y = rng.integers(0, 3, n)
    part = partition_graph(g, PartitionConfig(c=c, seed=seed))
    blocks = cluster_blocks(part, g, x, y)
    for t, b in enumerate(blocks):
        np.testing.assert_array_equal(b.nodes, part.members[t])
        np.testing.assert_array_equal(b.ctx.x, x[b.nodes])
        np.testing.assert_array_equal(b.y, y[b.nodes])
    rebuilt = reassemble(blocks, part, g)
    assert (rebuilt != g.adj).nnz == 0
    assert rebuilt.nnz == g.adj.nnz


def test_form_batch_whole_graph_when_q_equals_c():
    g = make_random_graph(9, 0.4, seed=4)
    part = partition_graph(g, PartitionConfig(c=3, q=3, seed=0))
    whole = _GraphContext(np.eye(9), g, _CFG)
    batch = form_batch(part, 3, RngStream(5), whole, _CFG, np.arange(9))
    np.testing.assert_array_equal(batch.nodes, np.arange(9))
    assert batch.ctx is whole


def test_form_batch_single_cluster_on_p4():
    g = _p4()
    part = partition_from_assign(g, np.array([0, 0, 1, 1]), 2)
    batch = form_batch(part, 1, RngStream(0, ("b",)), _GraphContext(np.eye(4), g, _CFG), _CFG, np.arange(4))
    assert batch.nodes.size == 2
    assert batch.ctx.support.npairs == 1


def test_form_batch_includes_cross_cluster_edges():
    g = _p4()
    part = partition_from_assign(g, np.array([0, 0, 1, 1]), 2)
    batch = form_batch(part, 2, RngStream(1), _GraphContext(np.eye(4), g, _CFG), _CFG, np.arange(4))
    # union is the whole path: edge (1,2) between the two clusters stays
    assert (1, 2) in zip(batch.ctx.support.pair_rows, batch.ctx.support.pair_cols)


def test_form_batch_rejects_q_above_c():
    g = _p4()
    part = partition_graph(g, PartitionConfig(c=2))
    with pytest.raises(ConfigError):
        form_batch(part, 3, RngStream(0), _GraphContext(np.eye(4), g, _CFG), _CFG, np.arange(4))


def test_form_batch_uniform_pair_frequencies():
    g = make_random_graph(16, 0.3, seed=6)
    part = partition_graph(g, PartitionConfig(c=4, seed=0))
    rng = RngStream(2, ("freq",))
    whole = _GraphContext(np.eye(16), g, _CFG)
    draws = 10_000
    counts: dict[tuple, int] = {}
    for i in range(draws):
        b = form_batch(part, 2, rng.child(i), whole, _CFG, np.arange(16))
        counts[b.cluster_ids] = counts.get(b.cluster_ids, 0) + 1
    n_pairs = 6
    expected = draws / n_pairs
    sigma = np.sqrt(draws * (1 / n_pairs) * (1 - 1 / n_pairs))
    assert len(counts) == n_pairs
    for pair, cnt in counts.items():
        assert abs(cnt - expected) <= 3 * sigma, (pair, cnt)


def _restriction_nodes(g: Graph, kind: str, rng: RngStream) -> np.ndarray:
    """A sorted node set of the given kind: one node, nodes with no edge
    among them (self-loops allowed), every node, or a random subset."""
    n = g.n
    if kind == "one":
        return np.array([int(rng.integers(0, n))])
    if kind == "all":
        return np.arange(n)
    if kind == "random":
        return np.sort(rng.choice(np.arange(n), size=int(rng.integers(1, n + 1)), replace=False))
    taken = []
    for v in rng.permutation(np.arange(n)):
        nbrs = g.adj.indices[g.adj.indptr[v]:g.adj.indptr[v + 1]]
        if not np.isin(nbrs[nbrs != v], taken).any():
            taken.append(int(v))
    return np.sort(np.array(taken))


def _assert_same_array(got, want):
    assert got.dtype == want.dtype, (got.dtype, want.dtype)
    np.testing.assert_array_equal(got, want)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 30), st.integers(0, 90), st.sampled_from(["one", "edgeless", "all", "random"]),
       st.booleans(), st.booleans(), st.integers(0, 10_000))
def test_restrict_equals_the_build_from_the_induced_subgraph(n, m, kind, sparse_x, float32, seed):
    """Every array a cut context holds, dtypes included, equals the one the
    per-batch build gives from g.adj[nodes][:, nodes]: the support and its
    pairing, dist2, the batch's renormalized operator and the ball's slice
    of the whole one."""
    rng = RngStream(seed, ("restrict",))
    # weighted edges, with repeats (their weights sum) and self-loops
    i, j = rng.integers(0, n, m), rng.integers(0, n, m)
    g = build_graph(np.column_stack([i, j, rng.random(m) + 0.5]), n)
    x = rng.random((n, 5)) * (rng.random((n, 5)) < 0.5)
    x = x.astype(np.float32 if float32 else np.float64)
    if sparse_x:
        x = sp.csr_matrix(x)
    nodes = _restriction_nodes(g, kind, rng.child("nodes"))
    cfg = ModelConfig(learn_graph=False)
    whole = _GraphContext(x, g, cfg)
    whole.dist2 = support_distances(x, whole.support)
    batch, ball = whole.restrict(nodes, cfg), whole.restrict(nodes, cfg, ball=True)

    sub = Graph(n=nodes.size, adj=g.adj[nodes][:, nodes])
    loops = add_self_loops(sub)
    want = SupportStructure(loops)
    dtype = np.float32 if float32 else np.float64
    for ctx in (batch, ball):
        got = ctx.support
        assert got.n == want.n == nodes.size
        for name in ("indptr", "cols", "pair_rows", "pair_cols", "pair_of"):
            _assert_same_array(getattr(got, name), getattr(want, name))
        _assert_same_array(ctx.dist2, support_distances(x[nodes], want))
        _assert_same_array(ctx.a_values, loops.adj.data)
        if sparse_x:
            assert (ctx.x != x[nodes]).nnz == 0
        else:
            _assert_same_array(ctx.x, x[nodes])
    for ctx, op in ((batch, sym_normalize(loops.adj)),
                    (ball, sym_normalize(add_self_loops(g).adj)[nodes][:, nodes])):
        op = op.astype(dtype)
        _assert_same_array(ctx.frozen_op.values, op.data)
        _assert_same_array(ctx.frozen_op.pattern.indices, op.indices)
        _assert_same_array(ctx.frozen_op.pattern.indptr, op.indptr)
    if kind == "all":
        assert batch is whole and ball is whole


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
                      walk=WalkConfig(q=2, w=2, gamma_walks=5))
    from dualgcn.model import init_params

    params = init_params(bundle.p, bundle.class_count, cfg, RngStream(3))
    total_blocks = 0.0
    for b in cluster_blocks(part, g, bundle.x, bundle.y, cfg):
        train_local = np.flatnonzero(bundle.train_mask[b.nodes])
        if train_local.size == 0:
            continue
        # the block's own normalized A + I, as restrict cuts it
        cache = forward(b.ctx.x, b.ctx.frozen_op, None, params, cfg, mode="eval")
        loss, _ = total_loss(cache, b.y, train_local, None, cfg)
        total_blocks += loss.item()
    # block-diagonal graph: original adjacency minus the cross edges
    coo = g.adj.tocoo()
    keep = part.assign[coo.row] == part.assign[coo.col]
    blockdiag = sp.csr_matrix((coo.data[keep], (coo.row[keep], coo.col[keep])), shape=g.adj.shape)
    op_full = sym_normalize(add_self_loops(Graph(n=g.n, adj=blockdiag)).adj)
    cache_full = forward(bundle.x, op_full, None, params, cfg, mode="eval")
    loss_full, _ = total_loss(cache_full, bundle.y, np.flatnonzero(bundle.train_mask), None, cfg)
    assert total_blocks == pytest.approx(loss_full.item(), rel=1e-10)


def test_cluster_fit_c1_bit_identical_to_full_batch(karate):
    cfg = ModelConfig(hidden_gcn=8, hidden_gl=6, depth=2, dropout=0.4, epochs=20,
                      seed=6, lambda1=0.01, lambda2=0.01, ppmi_refresh=7,
                      walk=WalkConfig(q=3, w=2, gamma_walks=8))
    full = fit(karate, cfg)
    clustered = cluster_fit(karate, cfg, PartitionConfig(c=1, q=1, seed=0))
    assert len(full.history) == len(clustered.history)
    for a, b in zip(full.history, clustered.history):
        assert a == b, (a, b)
    for p1, p2 in zip(full.params.all_parameters(), clustered.params.all_parameters()):
        np.testing.assert_array_equal(p1.value, p2.value)



@pytest.mark.parametrize("n", [20, 40])
def test_cluster_fit_rejects_a_partition_of_another_node_count(karate, n):
    """A partition of 20 nodes would train on 20 of karate's 34, and one of
    40 would index past the features."""
    part_cfg = PartitionConfig(c=2, q=1, seed=0)
    part = partition_graph(make_random_graph(n, 0.2, seed=1), part_cfg)
    with pytest.raises(DataError, match=f"partition covers {n} nodes, the dataset has 34"):
        cluster_fit(karate, ModelConfig(epochs=2, seed=0), part_cfg, partition=part)


def test_cluster_fit_rejects_a_partition_of_another_cluster_count(karate):
    part = partition_graph(karate.graph, PartitionConfig(c=3, q=1, seed=0))
    with pytest.raises(ConfigError, match="partition has c=3 clusters, the config asks for c=2"):
        cluster_fit(karate, ModelConfig(epochs=2, seed=0), PartitionConfig(c=2, q=1, seed=0), partition=part)

def _record_ppmi_builds(monkeypatch):
    """Wrap model._build_ppmi_operator; each build is recorded as
    (epochs finished before it, labels of its walk stream)."""
    from dualgcn import model

    builds, rows = [], []
    real = model._build_ppmi_operator

    def spy(s, walk, rng):
        builds.append((len(rows), rng.labels))
        return real(s, walk, rng)

    monkeypatch.setattr(model, "_build_ppmi_operator", spy)
    return builds, rows.append


def test_cluster_fit_draws_fresh_walks_for_every_ppmi_build(monkeypatch):
    from dualgcn import cluster

    bundle = make_sbm_bundle(n=80, k=4, seed=2)
    cfg = ModelConfig(hidden_gcn=4, hidden_gl=4, dropout=0.0, epochs=30, seed=1,
                      lambda1=0.5, ppmi_refresh=10, walk=WalkConfig(q=2, w=2, gamma_walks=2))
    batches = []
    real_form_batch = cluster.form_batch

    def record_batch(*args):
        batch = real_form_batch(*args)
        batches.append(batch.cluster_ids)
        return batch

    monkeypatch.setattr(cluster, "form_batch", record_batch)
    builds, on_epoch = _record_ppmi_builds(monkeypatch)
    result = cluster_fit(bundle, cfg, PartitionConfig(c=4, q=2, seed=0), on_epoch=on_epoch)
    assert result.skipped_batches == 0
    # a build at every refresh and wherever the cluster set changes, and nowhere else
    expected = [e for e in range(cfg.epochs) if e % 10 == 0 or batches[e] != batches[e - 1]]
    assert [epoch for epoch, _ in builds] == expected
    assert len(expected) > 3  # more builds than refresh windows
    # each build walks on its own stream, keyed by its epoch
    assert [labels for _, labels in builds] == [("ppmi", e) for e in expected]


def test_fit_builds_ppmi_on_the_refresh_schedule_only(monkeypatch, karate):
    cfg = ModelConfig(hidden_gcn=4, hidden_gl=None, dropout=0.0, epochs=25, seed=1,
                      lambda1=0.5, ppmi_refresh=10, walk=WalkConfig(q=2, w=2, gamma_walks=2))
    builds, on_epoch = _record_ppmi_builds(monkeypatch)
    fit(karate, cfg, on_epoch=on_epoch)
    assert builds == [(0, ("ppmi", 0)), (10, ("ppmi", 10)), (20, ("ppmi", 20))]


def test_cluster_fit_close_to_full_batch_on_sbm():
    bundle = make_sbm_bundle(n=160, k=4, seed=13)
    cfg = ModelConfig(hidden_gcn=16, hidden_gl=6, dropout=0.3, epochs=140, seed=0,
                      lr1=0.01, lr2=0.01, weight_decay=5e-4, ppmi_refresh=30,
                      walk=WalkConfig(q=3, w=3, gamma_walks=10))
    full = fit(bundle, cfg)
    clustered = cluster_fit(bundle, cfg, PartitionConfig(c=4, q=2, seed=0))
    acc_full = accuracy(predict(full.params, bundle), bundle.y, bundle.test_mask)
    acc_clu = accuracy(predict(clustered.params, bundle), bundle.y, bundle.test_mask)
    assert acc_clu >= acc_full - 0.1, (acc_full, acc_clu)


def test_cluster_fit_skips_batches_without_labels(monkeypatch):
    cuts = []
    real_restrict = _GraphContext.restrict

    def counting_restrict(self, nodes, *args, **kwargs):
        cuts.append(nodes.size)
        return real_restrict(self, nodes, *args, **kwargs)

    monkeypatch.setattr(_GraphContext, "restrict", counting_restrict)
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
                      walk=WalkConfig(q=2, w=2, gamma_walks=5))
    res = cluster_fit(bundle, cfg, PartitionConfig(c=6, q=1, seed=2))
    assert res.skipped_batches > 0
    assert len(res.history) == 12
    # a cut per trained batch and one for the validation ball: none for a skipped batch
    assert len(cuts) == 12 - res.skipped_batches + 1


def test_cluster_fit_stop_threshold(karate):
    cfg = ModelConfig(hidden_gcn=4, hidden_gl=None, dropout=0.0, epochs=50,
                      lr1=1e-12, lr2=1e-12, stop_threshold=1e-5,
                      lambda1=0.0, lambda2=0.0,
                      walk=WalkConfig(q=2, w=2, gamma_walks=4))
    res = cluster_fit(karate, cfg, PartitionConfig(c=2, q=1, seed=0))
    assert res.epochs_run < 50


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


def _recount(adj, assign):
    coo = adj.tocoo()
    return coo.data[assign[coo.row] != assign[coo.col]].sum() / 2


def _assert_fresh(conn, adj, assign, c):
    """conn equals a fresh _connectivity of assign, up to the column order
    within each row."""
    fresh = _connectivity(adj, assign, c)
    mine, theirs = np.lexsort((conn[1], conn[0])), np.lexsort((fresh[1], fresh[0]))
    for got, want in zip(conn[:3], fresh[:3]):
        np.testing.assert_array_equal(got[mine], want[theirs])
    np.testing.assert_array_equal(conn[3], fresh[3])


@settings(max_examples=60, deadline=None)
@given(st.integers(4, 80), st.integers(2, 8), st.floats(0.05, 0.4), st.floats(1.0, 1.3), st.integers(0, 10_000))
def test_refine_keeps_connectivity_and_cut_current(n, c, density, tol, seed):
    c = min(c, n)
    rng = np.random.default_rng(seed)
    adj = _random_weighted(rng, n, density)
    node_w = rng.integers(1, 4, n).astype(float)
    cap = max(int(tol * np.ceil(node_w.sum() / c)), int(node_w.max()))
    start = rng.permutation(np.arange(n) % c)
    seen = {"rounds": 0, "trials": 0}

    def checked_round(real, at):  # at: where assign is in real's arguments
        def run(*args, **kwargs):
            _assert_fresh(args[0], adj, args[at], c)
            seen["rounds"] += 1
            return real(*args, **kwargs)
        return run

    def checked_cut(adj_, cut, assign, trial, moved):
        assert cut == _recount(adj, assign)
        np.testing.assert_array_equal(moved, np.flatnonzero(trial != assign))
        got = _trial_cut(adj_, cut, assign, trial, moved)
        assert got == _recount(adj, trial)
        seen["trials"] += 1
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cluster, "_move_round", checked_round(cluster._move_round, 2))
        mp.setattr(cluster, "_swap_round", checked_round(cluster._swap_round, 3))
        mp.setattr(cluster, "_trial_cut", checked_cut)
        out = _refine(adj, node_w, start.copy(), c, cap)
    assert seen["rounds"] >= 3
    # integer weights on a graph this small: the stop rule cannot fire
    assert adj.data.sum() / 2 < 10_000
    np.testing.assert_array_equal(out, refine_by_rebuild(adj, node_w, start.copy(), c, cap))


_ORACLE_CASES = [("cora", seed, c) for seed in range(3) for c in (5, 10, 20)] + [
    ("sbm", 200, 4), ("sbm", 240, 8), ("sbm", 300, 3)]


@pytest.mark.parametrize("kind,seed,c", _ORACLE_CASES)
def test_partition_matches_the_rebuilding_refinement(monkeypatch, kind, seed, c):
    if kind == "cora":
        g = citation_graph(seed, 2708, 7)  # the benchmark's cora-shaped graph
    else:
        g = make_sbm_bundle(n=seed, seed=seed).graph
    # every level's cut is at most the total weight: under 10,000, no
    # integer gain is below the stop fraction of it
    assert g.adj.data.sum() / 2 < 10_000
    part = partition_graph(g, PartitionConfig(c=c, seed=seed))
    monkeypatch.setattr(cluster, "_refine", refine_by_rebuild)
    ref = partition_graph(g, PartitionConfig(c=c, seed=seed))
    np.testing.assert_array_equal(part.assign, ref.assign)


def test_refine_stops_a_level_after_a_round_that_barely_pays(monkeypatch):
    # clusters {0..3} and {4..7}; the heavy edge 0-4 dominates a cut of
    # 20,006 that no move can lower (0 and 4 are tied to both sides).  The
    # first (upward) round moves only node 3 and gains 1, under 1e-4 of
    # the cut, so the level stops there; without the rule, later rounds
    # lower the cut further.
    heavy = 20_000
    edges = [(0, 1, heavy), (0, 4, heavy), (4, 5, heavy), (1, 2, 5), (2, 3, 1),
             (3, 6, 1), (3, 7, 1), (5, 6, 1), (5, 7, 3), (1, 6, 2), (2, 6, 2)]
    adj = build_graph(edges, 8).adj
    start = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    out = _refine(adj, np.ones(8), start.copy(), c=2, cap=6)
    np.testing.assert_array_equal(out, [0, 0, 0, 1, 1, 1, 1, 1])
    assert _recount(adj, start) == heavy + 6
    assert 0 < _recount(adj, start) - _recount(adj, out) < cluster._STOP_FRACTION * _recount(adj, start)
    monkeypatch.setattr(cluster, "_STOP_FRACTION", 0.0)
    assert _recount(adj, _refine(adj, np.ones(8), start.copy(), c=2, cap=6)) < _recount(adj, out)


def test_partition_keeps_its_cut_where_the_stop_rule_can_fire():
    g = citation_graph(0, 19717, 3)  # the benchmark's pubmed-shaped graph
    # cuts above 10,000, where an integer gain can fall under the stop fraction
    assert g.adj.data.sum() / 2 > 10_000
    part = partition_graph(g, PartitionConfig(c=50, seed=0))
    sizes = part.sizes()
    assert part.edge_cut <= 17_730  # 17,555 when the stop rule came in, +1%
    assert sizes.max() <= int(1.1 * np.ceil(g.n / 50))
    assert sizes.min() > 0


def _random_weighted(rng, n, density, loops=False):
    upper = np.triu(rng.random((n, n)) < density, 0 if loops else 1)
    rows, cols = np.nonzero(upper)
    w = rng.integers(1, 4, rows.size).astype(float)
    off = rows != cols
    return sp.csr_matrix((np.r_[w, w[off]], (np.r_[rows, cols[off]], np.r_[cols, rows[off]])), shape=(n, n))


@pytest.mark.parametrize("seed", range(5))
def test_edge_cut_matches_a_coo_count(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 60))
    adj = _random_weighted(rng, n, rng.uniform(0.05, 0.5), loops=True)
    assign = rng.integers(0, int(rng.integers(1, 6)), n)
    coo = adj.tocoo()
    off = coo.row != coo.col
    assert adj.diagonal().any()  # self-loops, which never cross
    assert _edge_cut(adj, assign) == int((assign[coo.row[off]] != assign[coo.col[off]]).sum()) // 2


@pytest.mark.parametrize("seed", range(5))
def test_refine_ignores_the_column_order_within_rows(seed):
    rng = np.random.default_rng(seed)
    n, c = 60, 4
    adj = _random_weighted(rng, n, 0.1)
    shuffled = adj.copy()
    rows = np.repeat(np.arange(n), np.diff(adj.indptr))
    order = np.lexsort((rng.random(adj.nnz), rows))  # a permutation inside each row
    shuffled.indices, shuffled.data = adj.indices[order], adj.data[order]
    shuffled.has_sorted_indices = False
    assert (shuffled != adj).nnz == 0
    node_w = rng.integers(1, 3, n).astype(float)
    start = rng.permutation(np.arange(n) % c)
    cap = int(np.ceil(node_w.sum() / c))  # tight: swaps carry the refinement
    out = _refine(adj, node_w, start.copy(), c, cap)
    np.testing.assert_array_equal(_refine(shuffled, node_w, start.copy(), c, cap), out)
    assert _edge_cut(adj, out) < _edge_cut(adj, start)


def test_swap_round_without_an_opposite_partner_returns_its_input():
    # node 0 gains by joining cluster 1, whose members gain by joining
    # cluster 0, but they weigh 2 and node 0 weighs 1: no pair swaps
    adj = build_graph([(0, 1), (0, 2)], 3).adj
    assign = np.array([0, 1, 1])
    weight_class = np.array([0, 1, 1])
    conn = _connectivity(adj, assign, 2)
    assert (conn[2] - conn[3][conn[0]] > 0).any()
    assert _swap_round(conn, adj, weight_class, assign, 2) is assign


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


@pytest.mark.parametrize("seed", range(6))
def test_strip_diagonal_matches_the_coo_round_trip(seed):
    rng = np.random.default_rng(seed)
    n = [0, 1, 5, 30, 60, 120][seed]
    adj = _random_weighted(rng, n, 0.2, loops=True) if n else sp.csr_matrix((0, 0))
    if seed % 2:  # columns out of order inside each row
        order = np.lexsort((rng.random(adj.nnz), np.repeat(np.arange(n), np.diff(adj.indptr))))
        adj = sp.csr_matrix((adj.data[order], adj.indices[order], adj.indptr), shape=adj.shape)
        adj.has_sorted_indices = False
    coo = adj.tocoo()
    keep = coo.row != coo.col
    ref = sp.csr_matrix((coo.data[keep], (coo.row[keep], coo.col[keep])), shape=adj.shape)
    out = _strip_diagonal(adj)
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(out, name), getattr(ref, name))


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


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from([np.int32, np.int64]))
def test_contract_equals_the_coo_round_trip(seed, index_dtype):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 80))
    adj = _strip_diagonal(_random_weighted(rng, n, rng.uniform(0.02, 0.5)))
    adj.indptr, adj.indices = adj.indptr.astype(index_dtype), adj.indices.astype(index_dtype)
    match = np.full(n, -1, dtype=np.int64)
    pairs = rng.permutation(n)[: 2 * int(rng.integers(0, n // 2 + 1))].reshape(-1, 2)
    match[pairs[:, 0]], match[pairs[:, 1]] = pairs[:, 1], pairs[:, 0]  # the rest stay unmatched
    node_w = rng.integers(1, 5, n).astype(float)
    got, want = _contract(adj, node_w, match), contract_by_coo(adj, node_w, match)
    assert got[0].shape == want[0].shape and got[0].has_canonical_format
    for name in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got[0], name), getattr(want[0], name))
    np.testing.assert_array_equal(got[1], want[1])
    np.testing.assert_array_equal(got[2], want[2])


def _greedy_pairs_by_loop(u, v, n):
    """Sequential greedy matching: take each pair unless a node is used."""
    used = np.zeros(n, dtype=bool)
    taken = np.zeros(len(u), dtype=bool)
    for i, (a, b) in enumerate(zip(u, v)):
        if not (used[a] or used[b]):
            taken[i] = used[a] = used[b] = True
    return taken


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40))))
def test_greedy_pairs_equals_the_sequential_loop(case):
    n, pairs = case  # pairs may repeat, share nodes or be empty
    u = np.array([a for a, _ in pairs], dtype=np.int64)
    v = np.array([b for _, b in pairs], dtype=np.int64)
    np.testing.assert_array_equal(_greedy_pairs(u, v, n), _greedy_pairs_by_loop(u, v, n))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 60), st.floats(0.05, 0.5), st.integers(2, 6), st.integers(0, 10_000))
def test_heavy_edge_matching_is_a_maximal_matching_under_the_cap(n, density, cap, seed):
    rng = np.random.default_rng(seed)
    adj = _random_weighted(rng, n, density, loops=True)  # self-loops never pair
    node_w = rng.integers(1, 4, n).astype(float)
    match = _heavy_edge_matching(adj, node_w, cap, RngStream(seed, ("match",)))
    np.testing.assert_array_equal(match, _heavy_edge_matching(adj, node_w, cap, RngStream(seed, ("match",))))
    v = np.flatnonzero(match >= 0)
    assert (match[match[v]] == v).all()
    assert (match[v] != v).all()
    assert (node_w[v] + node_w[match[v]] <= cap).all()
    coo = adj.tocoo()
    eligible = (coo.row != coo.col) & (node_w[coo.row] + node_w[coo.col] <= cap)
    assert not (eligible & (match[coo.row] < 0) & (match[coo.col] < 0)).any()


def test_partition_seed_breaks_weight_ties():
    g = make_random_graph(120, 0.03, seed=2)  # unit weights: every edge ties at the finest level
    first = partition_graph(g, PartitionConfig(c=4, seed=0)).assign
    assert not np.array_equal(first, partition_graph(g, PartitionConfig(c=4, seed=1)).assign)
