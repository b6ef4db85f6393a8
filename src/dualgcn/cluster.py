"""Graph partitioning and cluster-batched training.

The partitioner is a multilevel scheme standing in for a full METIS:
heavy-edge matching coarsens the graph, greedy growing seeds a balanced
partition on the coarsest level, and each uncoarsening step is refined by
size-constrained label propagation (Meyerhenke, Sanders & Schulz, SEA
2014) in rounds of whole-array work.  Every round reads each node's
connectivity to every cluster from one sparse product, adj @ onehot(assign),
and either moves nodes to better clusters with room under the balance cap
(upward in cluster id on even rounds, downward on odd ones) or swaps
equal-weight node pairs between two clusters; a round that would raise the
cut is dropped.  Training then samples q clusters per step, trains on
their induced subgraph (cross-cluster edges between chosen clusters stay
in), and scales the loss by the batch's node share.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError
from .graph import Graph, graph_from_csr
from .model import FitResult, ModelConfig, _GraphContext, _TrainBatch, _release_freed_heap, _train
# not called here: perfbench/layers.py wraps these names in both trainer modules
from .model import _build_ppmi_operator, _eval_predictions, forward, total_loss  # noqa: F401
from .optim import adam_step  # noqa: F401
from .rng import RngStream

__all__ = [
    "PartitionConfig",
    "Partition",
    "Batch",
    "partition_graph",
    "split_matrices",
    "form_batch",
    "edge_cut_report",
    "cluster_fit",
    "random_balanced_partition",
    "save_partition_cache",
]


@dataclass(frozen=True)
class PartitionConfig:
    """Target cluster count c, clusters per batch q, balance cap, seed."""

    c: int
    q: int = 1
    balance_tolerance: float = 1.1
    seed: int = 0

    def __post_init__(self):
        if self.c < 1:
            raise ConfigError(f"cluster count must be >= 1, got {self.c}")
        if not 1 <= self.q <= self.c:
            raise ConfigError(f"need 1 <= q <= c, got q={self.q}, c={self.c}")
        if self.balance_tolerance < 1.0:
            raise ConfigError("balance_tolerance must be >= 1")


@dataclass(frozen=True)
class Partition:
    """Assignment of every node to one of c clusters."""

    c: int
    assign: np.ndarray = field(repr=False)
    members: tuple = field(repr=False)
    edge_cut: int = 0

    @property
    def n(self) -> int:
        return self.assign.shape[0]

    def sizes(self) -> np.ndarray:
        return np.array([m.size for m in self.members])


@dataclass(frozen=True)
class Batch:
    """Union of q clusters with its induced subgraph and local slices.

    nodes is the sorted global id array; local index i corresponds to
    global node nodes[i] (the local->global bijection).
    """

    cluster_ids: tuple
    nodes: np.ndarray = field(repr=False)
    graph: Graph | None = field(default=None, repr=False)
    x: object = field(default=None, repr=False)
    y: np.ndarray | None = field(default=None, repr=False)


def _edge_cut(adj: sp.csr_matrix, assign: np.ndarray) -> int:
    coo = adj.tocoo()
    off = coo.row != coo.col
    cross = assign[coo.row[off]] != assign[coo.col[off]]
    return int(cross.sum()) // 2


def partition_from_assign(g: Graph, assign: np.ndarray, c: int) -> Partition:
    assign = np.array(assign, dtype=np.int64)
    # one stable sort: each cluster's members come out in ascending id order
    order = np.argsort(assign, kind="stable")
    members = tuple(np.split(order, np.cumsum(np.bincount(assign, minlength=c))[:c - 1]))
    return Partition(c=c, assign=assign, members=members, edge_cut=_edge_cut(g.adj, assign))


def random_balanced_partition(g: Graph, c: int, rng: RngStream) -> Partition:
    """Uniformly shuffled nodes chopped into c nearly-equal clusters."""
    order = rng.permutation(np.arange(g.n))
    assign = np.empty(g.n, dtype=np.int64)
    size = int(np.ceil(g.n / c))
    for t in range(c):
        assign[order[t * size : (t + 1) * size]] = t
    return partition_from_assign(g, assign, c)


# ---------------------------------------------------------------------------
# multilevel partitioner
# ---------------------------------------------------------------------------

def _strip_diagonal(adj: sp.csr_matrix) -> sp.csr_matrix:
    coo = adj.tocoo()
    keep = coo.row != coo.col
    return sp.csr_matrix((coo.data[keep], (coo.row[keep], coo.col[keep])), shape=adj.shape)


def _heavy_edge_matching(adj: sp.csr_matrix, node_w: np.ndarray, cap: int, rng: RngStream):
    """Greedy matching preferring heavy edges; respects the weight cap."""
    n = adj.shape[0]
    order = rng.permutation(np.arange(n))
    match = np.full(n, -1, dtype=np.int64)
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    for v in order:
        if match[v] >= 0:
            continue
        best = -1
        best_w = 0.0
        for k in range(indptr[v], indptr[v + 1]):
            u = indices[k]
            if u == v or match[u] >= 0:
                continue
            if node_w[v] + node_w[u] > cap:
                continue
            w = data[k]
            if w > best_w or (w == best_w and (best == -1 or u < best)):
                best = u
                best_w = w
        if best >= 0:
            match[v] = best
            match[best] = v
    return match


def _contract(adj: sp.csr_matrix, node_w: np.ndarray, match: np.ndarray):
    n = adj.shape[0]
    # coarse ids follow the lower end of each pair (or the unmatched node)
    v = np.arange(n)
    head = (match < 0) | (v < match)
    rep = np.where(head, v, match)
    coarse_map = (np.cumsum(head) - 1)[rep]
    nxt = int(head.sum())
    coo = adj.tocoo()
    rows = coarse_map[coo.row]
    cols = coarse_map[coo.col]
    keep = rows != cols
    coarse_adj = sp.csr_matrix((coo.data[keep], (rows[keep], cols[keep])), shape=(nxt, nxt))
    coarse_adj.sum_duplicates()
    coarse_w = np.bincount(coarse_map, weights=node_w, minlength=nxt)
    return coarse_adj, coarse_w, coarse_map


def _greedy_grow(adj: sp.csr_matrix, node_w: np.ndarray, c: int, cap: int, total: float):
    """Seed c clusters and grow them by connectivity up to the ideal size."""
    n = adj.shape[0]
    ideal = total / c
    assign = np.full(n, -1, dtype=np.int64)
    weights = np.zeros(c)
    indptr, indices, data = adj.indptr, adj.indices, adj.data
    unassigned = n
    for t in range(c):
        if unassigned == 0:
            break
        free = np.flatnonzero(assign == -1)
        seed = free[np.argmax(node_w[free])]
        assign[seed] = t
        weights[t] += node_w[seed]
        unassigned -= 1
        conn: dict[int, float] = {}
        for k in range(indptr[seed], indptr[seed + 1]):
            u = indices[k]
            if assign[u] == -1:
                conn[u] = conn.get(u, 0.0) + data[k]
        while weights[t] < ideal and unassigned > (c - t - 1):
            pick = -1
            pick_conn = -1.0
            for u, w in conn.items():
                if assign[u] != -1 or weights[t] + node_w[u] > cap:
                    continue
                if w > pick_conn or (w == pick_conn and u < pick):
                    pick = u
                    pick_conn = w
            if pick < 0:
                break
            assign[pick] = t
            weights[t] += node_w[pick]
            unassigned -= 1
            conn.pop(pick, None)
            for k in range(indptr[pick], indptr[pick + 1]):
                u = indices[k]
                if assign[u] == -1:
                    conn[u] = conn.get(u, 0.0) + data[k]
    # pack leftovers: prefer the most-connected cluster with room, else lightest
    for v in sorted(np.flatnonzero(assign == -1), key=lambda v: -node_w[v]):
        conn = np.zeros(c)
        for k in range(indptr[v], indptr[v + 1]):
            t = assign[indices[k]]
            if t >= 0:
                conn[t] += data[k]
        room = weights + node_w[v] <= cap
        if room.any():
            cand = np.flatnonzero(room)
            best = cand[np.lexsort((cand, weights[cand], -conn[cand]))[0]]
        else:
            best = int(np.argmin(weights))
        assign[v] = best
        weights[best] += node_w[v]
    return assign


def _connectivity(adj: sp.csr_matrix, assign: np.ndarray, c: int):
    """Every node's edge weight into every cluster, as one sparse product.

    Returns the entries of ``adj @ onehot(assign)`` (n x c, kept sparse)
    that point into another cluster as ``(node, cluster, weight)`` arrays,
    plus each node's weight into its own cluster.
    """
    n = adj.shape[0]
    onehot = sp.csr_matrix((np.ones(n), assign, np.arange(n + 1)), shape=(n, c))
    conn = adj @ onehot
    rows = np.repeat(np.arange(n), np.diff(conn.indptr))
    cols = conn.indices.astype(np.int64)
    mine = cols == assign[rows]
    own = np.zeros(n)
    own[rows[mine]] = conn.data[mine]
    other = ~mine
    return rows[other], cols[other], conn.data[other], own


def _group_starts(keys: np.ndarray) -> np.ndarray:
    """For a sorted key array, the index where each entry's run begins."""
    start = np.ones(keys.size, dtype=bool)
    start[1:] = keys[1:] != keys[:-1]
    return np.maximum.accumulate(np.where(start, np.arange(keys.size), 0))


def _move_round(conn, node_w, assign, c: int, cap: int, upward: bool) -> np.ndarray:
    """One label-propagation round; returns the new assignment.

    A node's candidates are the clusters it gains by joining, plus those
    it joins at no loss that are lighter than its own even after the
    move.  It picks the best (highest gain, then lowest cluster id) and
    moves if that points in this round's direction.  Each target admits
    movers by gain, then node id, while its room lasts; no source cluster
    is emptied.
    """
    rows, cols, vals, own = conn
    gain = vals - own[rows]
    weights = np.bincount(assign, weights=node_w, minlength=c)
    eligible = (gain > 0) | ((gain == 0) & (weights[cols] + node_w[rows] < weights[assign[rows]]))
    rows, cols, gain = rows[eligible], cols[eligible], gain[eligible]
    order = np.lexsort((cols, -gain, rows))
    best = order[_group_starts(rows[order]) == np.arange(order.size)]
    v, t, gain = rows[best], cols[best], gain[best]
    s = assign[v]
    keep = (t > s) if upward else (t < s)
    v, t, s, gain = v[keep], t[keep], s[keep], gain[keep]
    if v.size == 0:
        return assign
    order = np.lexsort((v, -gain, t))
    v, t, s, gain = v[order], t[order], s[order], gain[order]
    w = node_w[v]
    filled = np.cumsum(w)
    head = _group_starts(t)
    filled -= filled[head] - w[head]
    ok = filled <= cap - weights[t]
    v, t, s, gain = v[ok], t[ok], s[ok], gain[ok]
    # a source losing every member keeps its weakest mover
    emptied = np.bincount(s, minlength=c) >= np.bincount(assign, minlength=c)
    if emptied.any():
        order = np.lexsort((-v, gain, s))
        weakest = order[_group_starts(s[order]) == np.arange(s.size)]
        drop = np.zeros(v.size, dtype=bool)
        drop[weakest[emptied[s[weakest]]]] = True
        v, t = v[~drop], t[~drop]
    out = assign.copy()
    out[v] = t
    return out


def _swap_round(conn, adj, weight_class, assign, c: int, edge_key: np.ndarray) -> np.ndarray:
    """One balance-preserving swap round; returns the new assignment.

    Candidates are every (node, other cluster) entry of the connectivity.
    Within each cluster pair and node weight, each s->t mover is paired
    with the t->s movers of its own gain rank and the ranks next to it; a
    pair (u, v) is worth g_u + g_v - 2 w_uv.  Positive pairs are taken
    best first, each node in at most one.
    """
    n = adj.shape[0]
    rows, cols, vals, own = conn
    gain = vals - own[rows]
    if gain.size == 0 or gain.max() <= 0:
        return assign
    src = assign[rows]
    pair = np.minimum(src, cols) * c + np.maximum(src, cols)
    # a positive pair has a half that gains, by at most max(gain): only
    # cluster pairs with a gaining entry can swap, and in them only entries
    # with gain > -max(gain); what goes is a tail of each rank order, so
    # no kept entry changes rank
    live = np.zeros(c * c, dtype=bool)
    live[pair[gain > 0]] = True
    keep = live[pair] & (gain > -gain.max())
    rows, gain, src, pair = rows[keep], gain[keep], src[keep], pair[keep]
    upward = src < cols[keep]
    # each (cluster pair, node weight) block holds its hi->lo movers, then
    # its lo->hi ones, each by gain; rows ascend, so ties go to lower ids
    block = pair * (weight_class.max() + 1) + weight_class[rows]
    order = np.lexsort((-gain, 2 * block + upward))
    rows, gain, upward = rows[order], gain[order], upward[order]
    head = _group_starts(block[order])
    n_down = np.bincount(head, weights=~upward, minlength=rows.size).astype(np.int64)
    n_up = np.bincount(head, weights=upward, minlength=rows.size).astype(np.int64)
    down = np.flatnonzero(~upward)
    rank, h = down - head[down], head[down]
    first, partner = [], []
    for shift in (-1, 0, 1):
        ok = (rank + shift >= 0) & (rank + shift < n_up[h])
        first.append(down[ok])
        partner.append(h[ok] + n_down[h[ok]] + rank[ok] + shift)
    first, partner = np.concatenate(first), np.concatenate(partner)
    u, v = rows[first], rows[partner]
    key = u * n + v
    pos = np.minimum(np.searchsorted(edge_key, key), edge_key.size - 1)
    w_uv = np.where(edge_key[pos] == key, adj.data[pos], 0.0)
    pair_gain = gain[first] + gain[partner] - 2.0 * w_uv
    good = pair_gain > 0
    u, v, pair_gain = u[good], v[good], pair_gain[good]
    order = np.lexsort((v, u, -pair_gain))
    u, v = u[order], v[order]
    # best-first greedy matching as rounds of locally dominant pairs: a
    # pair is taken when it is the best one left at both of its nodes
    taken = np.zeros(u.size, dtype=bool)
    alive = np.ones(u.size, dtype=bool)
    used = np.zeros(n, dtype=bool)
    while alive.any():
        idx = np.flatnonzero(alive)
        best = np.full(n, u.size)
        np.minimum.at(best, u[idx], idx)
        np.minimum.at(best, v[idx], idx)
        win = idx[(best[u[idx]] == idx) & (best[v[idx]] == idx)]
        taken[win] = True
        used[u[win]] = used[v[win]] = True
        alive &= ~(used[u] | used[v])
    u, v = u[taken], v[taken]
    out = assign.copy()
    out[u], out[v] = assign[v], assign[u]
    return out


def _refine(adj: sp.csr_matrix, node_w: np.ndarray, assign: np.ndarray, c: int, cap: int,
            max_rounds: int = 32):
    """Size-constrained label propagation with pair-swap rounds.

    Move rounds (even ones upward in cluster id, odd ones downward)
    alternate with swap rounds.  A round is kept only if it lowers the
    (weighted) cut, or keeps it and evens out the cluster weights (their
    sum of squares falls), so the cut never grows.  Moves keep every
    cluster at or under cap and swaps exchange equal weights.  Refinement
    stops when an upward move, a downward move and a swap all leave the
    assignment as it is, or after max_rounds move-and-swap rounds.
    """
    n = adj.shape[0]
    if not adj.has_sorted_indices:
        adj = adj.sorted_indices()
    src = np.repeat(np.arange(n, dtype=np.int64), np.diff(adj.indptr))
    dst = adj.indices.astype(np.int64)
    edge_key = src * n + dst  # ascending: w_uv lookups search it
    weight_class = np.unique(node_w, return_inverse=True)[1]

    def score(a):
        cut = adj.data[a[src] != a[dst]].sum()
        return cut, (np.bincount(a, weights=node_w, minlength=c) ** 2).sum()

    best, conn = score(assign), None
    idle = set()  # the round kinds that left the current assignment as it is
    for step in range(2 * max_rounds):
        kind = "swap" if step % 2 else ("up" if step % 4 == 0 else "down")
        if kind in idle:
            continue
        if conn is None:
            conn = _connectivity(adj, assign, c)
        if kind == "swap":
            trial = _swap_round(conn, adj, weight_class, assign, c, edge_key)
        else:
            trial = _move_round(conn, node_w, assign, c, cap, upward=kind == "up")
        got = score(trial) if trial is not assign else best
        if got < best:
            assign, best, conn = trial, got, None
            idle.clear()
        else:
            idle.add(kind)
            if len(idle) == 3:
                break
    return assign


def _enforce_balance(adj, node_w, assign, c: int, cap: int):
    """Move least-internal members out of over-cap clusters, one at a time,
    into the lightest cluster with room."""
    weights = np.bincount(assign, weights=node_w, minlength=c)
    if weights.max() <= cap:
        return assign
    own = _connectivity(adj, assign, c)[3]
    guard = 0
    while weights.max() > cap and guard < 10 * assign.size:
        guard += 1
        s = int(np.argmax(weights))
        members = np.flatnonzero(assign == s)
        best_v = members[np.argmin(own[members])]
        room = np.flatnonzero(weights + node_w[best_v] <= cap)
        t = int(room[np.argmin(weights[room])]) if room.size else int(np.argmin(weights))
        if t == s:
            break
        assign[best_v] = t
        weights[s] -= node_w[best_v]
        weights[t] += node_w[best_v]
        # only best_v and its neighbours change their own-cluster weight
        span = slice(adj.indptr[best_v], adj.indptr[best_v + 1])
        nbrs, w = adj.indices[span], adj.data[span]
        into_t = assign[nbrs] == t
        own[nbrs] += np.where(into_t, w, 0.0) - np.where(assign[nbrs] == s, w, 0.0)
        own[best_v] = w[into_t].sum()
    return assign


def partition_graph(g: Graph, cfg: PartitionConfig) -> Partition:
    """Balanced low-cut partition; deterministic for a fixed seed.

    Post: max cluster size <= balance_tolerance * ceil(n / c).
    """
    n, c = g.n, cfg.c
    if c > n:
        raise ConfigError(f"cannot split {n} nodes into {c} clusters")
    if c == 1:
        return partition_from_assign(g, np.zeros(n, dtype=np.int64), 1)
    if c == n:
        return partition_from_assign(g, np.arange(n, dtype=np.int64), n)
    cap = max(int(cfg.balance_tolerance * np.ceil(n / c)), int(np.ceil(n / c)))
    rng = RngStream(cfg.seed, ("partition",))
    adj = _strip_diagonal(g.adj)
    node_w = np.ones(n)
    levels = []
    level = 0
    while adj.shape[0] > max(4 * c, 16):
        match = _heavy_edge_matching(adj, node_w, cap, rng.child("match", level))
        coarse_adj, coarse_w, coarse_map = _contract(adj, node_w, match)
        if coarse_adj.shape[0] >= 0.95 * adj.shape[0] or coarse_adj.shape[0] < c:
            break
        levels.append((adj, node_w, coarse_map))
        adj, node_w = coarse_adj, coarse_w
        level += 1
    assign = _greedy_grow(adj, node_w, c, cap, float(n))
    assign = _refine(adj, node_w, assign, c, cap)
    for fine_adj, fine_w, coarse_map in reversed(levels):
        assign = assign[coarse_map]
        assign = _refine(fine_adj, fine_w, assign, c, cap)
    assign = _enforce_balance(_strip_diagonal(g.adj), np.ones(n), assign, c, cap)
    return partition_from_assign(g, assign, c)


# ---------------------------------------------------------------------------
# block extraction and batching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterSlice:
    nodes: np.ndarray = field(repr=False)
    adj: sp.csr_matrix = field(repr=False)
    x: object = field(repr=False)
    y: np.ndarray = field(repr=False)


def split_matrices(g: Graph, x, y, part: Partition):
    """Per-cluster (A_tt, X_t, Y_t) blocks plus the off-diagonal remainder.

    The block-diagonal matrix assembled from the A_tt plus the returned
    delta equals the original adjacency entry for entry.
    """
    if part.n != g.n:
        raise DataError("partition size does not match graph")
    slices = []
    for nodes in part.members:
        sub = g.adj[nodes][:, nodes].tocsr()
        slices.append(ClusterSlice(nodes=nodes, adj=sub, x=x[nodes], y=np.asarray(y)[nodes]))
    coo = g.adj.tocoo()
    cross = part.assign[coo.row] != part.assign[coo.col]
    delta = sp.csr_matrix((coo.data[cross], (coo.row[cross], coo.col[cross])), shape=g.adj.shape)
    return slices, delta


def form_batch(part: Partition, q: int, rng: RngStream, g: Graph | None = None,
               x=None, y=None) -> Batch:
    """Sample q distinct clusters uniformly and induce their subgraph.

    Edges between the chosen clusters are inside the union and are kept.
    """
    if q > part.c:
        raise ConfigError(f"q={q} exceeds cluster count c={part.c}")
    chosen = np.sort(rng.choice(np.arange(part.c), size=q, replace=False))
    nodes = np.sort(np.concatenate([part.members[t] for t in chosen]))
    sub_graph = None
    x_local = None
    y_local = None
    if g is not None:
        sub = g.adj[nodes][:, nodes].tocsr()
        sub_graph = graph_from_csr(sub, is_weighted=g.is_weighted)
    if x is not None:
        x_local = x[nodes]
    if y is not None:
        y_local = np.asarray(y)[nodes]
    return Batch(cluster_ids=tuple(int(t) for t in chosen), nodes=nodes,
                 graph=sub_graph, x=x_local, y=y_local)


def edge_cut_report(part: Partition) -> dict:
    sizes = part.sizes()
    ideal = int(np.ceil(part.n / part.c))
    return {
        "edge_cut": int(part.edge_cut),
        "cluster_sizes": [int(s) for s in sizes],
        "balance": float(sizes.max() / ideal) if part.n else 0.0,
    }


# ---------------------------------------------------------------------------
# training over cluster batches
# ---------------------------------------------------------------------------

def cluster_fit(dataset, cfg: ModelConfig, part_cfg: PartitionConfig,
                partition: Partition | None = None, weighted_loss: bool = True,
                on_epoch=None) -> FitResult:
    """Mini-batch training over sampled cluster unions.

    Each epoch draws one batch of q clusters, learns the affinity on the
    batch subgraph, builds the batch PPMI operator (cached per cluster
    set between refreshes), and takes one Adam step on the batch loss
    scaled by |batch| / n.  Batches with no training labels are skipped
    and counted.  Validation accuracy is scored on the depth-hop ball of
    the validation nodes (see model._validation_context).
    """
    if dataset.graph is None:
        raise DataError("cluster training requires a dataset with a graph")
    if not dataset.has_masks():
        raise DataError("dataset has no train/val/test masks; apply a split first")
    if partition is None:
        partition = partition_graph(dataset.graph, part_cfg)

    def next_batch(epoch, rng):
        batch = form_batch(partition, part_cfg.q, rng.child("batch", epoch),
                           dataset.graph, dataset.x, dataset.y)
        train_local = np.flatnonzero(dataset.train_mask[batch.nodes])
        ctx = _GraphContext(batch.x, batch.graph, cfg) if train_local.size else None
        share = batch.nodes.size / dataset.n if weighted_loss else 1.0
        return _TrainBatch(ctx, batch.y, train_local, share, ppmi_key=batch.cluster_ids)

    result = _train(dataset, cfg, next_batch, on_epoch)
    _release_freed_heap()
    return result


# ---------------------------------------------------------------------------
# partition file: "# partition n=<n> c=<c> seed=<seed>" + one index per line
# ---------------------------------------------------------------------------

def save_partition_cache(fh, part: Partition, seed: int) -> None:
    """Write the partition file to a binary file object."""
    lines = [f"# partition n={part.n} c={part.c} seed={seed}\n"] + [f"{t}\n" for t in part.assign]
    fh.write("".join(lines).encode())
