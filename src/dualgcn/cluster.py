"""Graph partitioning and cluster-batched training.

The partitioner is a multilevel scheme standing in for a full METIS:
heavy-edge matching coarsens the graph, by a greedy matcher that takes
rounds of locally dominant edges (each the heaviest left at both ends);
greedy growing seeds a balanced partition on the coarsest level, and each
uncoarsening step is refined by size-constrained label propagation
(Meyerhenke, Sanders & Schulz, SEA 2014) in rounds of whole-array work.
Every round reads each node's connectivity to every cluster and either
moves nodes to better clusters with room under the balance cap (upward
in cluster id on even rounds, downward on odd ones) or swaps equal-weight
node pairs between two clusters, paired by the same matcher; a round that
would raise the cut is dropped.  A round's cut is scored from the moved
nodes' rows, and each kept round rebuilds the connectivity by the sparse
product adj @ onehot(assign); like KaMinPar (Gottesbueren et al., ESA
2021) a level runs only the rounds that still pay, stopping after a kept
round that lowers the cut by less than _STOP_FRACTION of it.  Training
then samples q clusters per step, trains on their induced subgraph
(cross-cluster edges between chosen clusters stay in), and scales the
loss by the batch's node share.  The whole graph's context (the support
of A + I, dist2 and A + I's values) is built once per fit, and each batch
is cut from it by whole-array gathers (_GraphContext.restrict), so no
step slices the adjacency or measures distances again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError
from .graph import Graph
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
    "form_batch",
    "edge_cut_report",
    "cluster_fit",
    "random_balanced_partition",
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
    """Union of q clusters and the context of its induced subgraph.

    nodes is the sorted global id array; local index i corresponds to
    global node nodes[i] (the local->global bijection).  ctx holds the
    batch's features (ctx.x), its support of A + I (ctx.support) and, as
    the config asks, its dist2 and frozen operator, all cut from the whole
    data's context; it is None for a batch that form_batch found without
    training labels.
    """

    cluster_ids: tuple
    nodes: np.ndarray = field(repr=False)
    ctx: _GraphContext | None = field(repr=False)
    y: np.ndarray = field(repr=False)


def _crossing(adj: sp.csr_matrix, assign: np.ndarray) -> np.ndarray:
    """Mask of adj's stored entries, in storage order, that join two clusters."""
    return np.repeat(assign, np.diff(adj.indptr)) != assign[adj.indices]


def _edge_cut(adj: sp.csr_matrix, assign: np.ndarray) -> int:
    return int(_crossing(adj, assign).sum()) // 2


def partition_from_assign(g: Graph, assign: np.ndarray, c: int) -> Partition:
    assign = np.array(assign, dtype=np.int64)
    # one stable sort: each cluster's members come out in ascending id order
    order = np.argsort(assign, kind="stable")
    members = tuple(np.split(order, np.cumsum(np.bincount(assign, minlength=c))[:c - 1]))
    return Partition(c=c, assign=assign, members=members, edge_cut=_edge_cut(g.adj, assign))


def random_balanced_partition(g: Graph, c: int, rng: RngStream) -> Partition:
    """Uniformly shuffled nodes chopped into c clusters of floor(n/c) or
    ceil(n/c) nodes each."""
    order = rng.permutation(np.arange(g.n))
    assign = np.empty(g.n, dtype=np.int64)
    assign[order] = np.arange(g.n) * c // g.n
    return partition_from_assign(g, assign, c)


# ---------------------------------------------------------------------------
# multilevel partitioner
# ---------------------------------------------------------------------------

def _strip_diagonal(adj: sp.csr_matrix) -> sp.csr_matrix:
    """adj without its diagonal, masked in CSR order."""
    n = adj.shape[0]
    # row ids in the index dtype: the largest transient is one index array
    loop = adj.indices == np.repeat(np.arange(n, dtype=adj.indices.dtype), np.diff(adj.indptr))
    dropped = np.zeros(n + 1, dtype=adj.indptr.dtype)
    np.cumsum(np.bincount(adj.indices[loop], minlength=n), out=dropped[1:])
    keep = ~loop
    out = sp.csr_matrix((adj.data[keep], adj.indices[keep], adj.indptr - dropped), shape=adj.shape)
    if not adj.has_canonical_format:
        out.sum_duplicates()
    return out


def _greedy_pairs(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """Mask of the pairs (u[i], v[i]), listed best first, that sequential
    greedy matching over nodes 0..n-1 takes, found in rounds of locally
    dominant pairs: a pair is taken when it is the best one left at both of
    its nodes (Birn, Osipov, Sanders, Schulz & Sitchinava, Euro-Par 2013).
    """
    taken = np.zeros(u.size, dtype=bool)
    used = np.zeros(n, dtype=bool)
    best = np.full(n, u.size)
    idx = np.arange(u.size)  # the live pairs: each round keeps only these
    while idx.size:
        a, b = u[idx], v[idx]
        best[a] = best[b] = u.size
        np.minimum.at(best, a, idx)
        np.minimum.at(best, b, idx)
        win = (best[a] == idx) & (best[b] == idx)
        taken[idx[win]] = True
        used[a[win]] = used[b[win]] = True
        idx = idx[~(used[a] | used[b])]
    return taken


def _heavy_edge_matching(adj: sp.csr_matrix, node_w: np.ndarray, cap: int, rng: RngStream):
    """Maximal matching under the weight cap, heaviest edges first; equal
    weights go to the lower sum of a random key drawn for each end."""
    n = adj.shape[0]
    u = np.repeat(np.arange(n), np.diff(adj.indptr))
    v = adj.indices
    ok = (u < v) & (node_w[u] + node_w[v] <= cap)
    u, v, w = u[ok], v[ok], adj.data[ok]
    key = rng.random(n)
    order = np.lexsort((key[u] + key[v], -w))
    u, v = u[order], v[order]
    taken = _greedy_pairs(u, v, n)
    match = np.full(n, -1, dtype=np.int64)
    match[u[taken]], match[v[taken]] = v[taken], u[taken]
    return match


def _onehot(assign: np.ndarray, c: int) -> sp.csr_matrix:
    """The n x c indicator matrix of assign, one unit entry per row."""
    n = assign.size
    return sp.csr_matrix((np.ones(n), assign, np.arange(n + 1)), shape=(n, c))


def _contract(adj: sp.csr_matrix, node_w: np.ndarray, match: np.ndarray):
    n = adj.shape[0]
    # coarse ids follow the lower end of each pair (or the unmatched node)
    v = np.arange(n)
    head = (match < 0) | (v < match)
    rep = np.where(head, v, match)
    coarse_map = (np.cumsum(head) - 1)[rep]
    nxt = int(head.sum())
    onehot = _onehot(coarse_map, nxt)
    # coarse edge weights; each pair's own edge lands on the dropped diagonal
    coarse_adj = _strip_diagonal(onehot.T.tocsr() @ adj @ onehot)
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
    that point into another cluster as ``(node, cluster, weight)`` arrays
    in node order, plus each node's weight into its own cluster.
    """
    conn = adj @ _onehot(assign, c)
    node = np.repeat(np.arange(conn.shape[0]), np.diff(conn.indptr))
    cols = conn.indices.astype(np.int64)
    mine = cols == assign[node]
    own = np.zeros(conn.shape[0])
    own[node[mine]] = conn.data[mine]
    other = ~mine
    return node[other], cols[other], conn.data[other], own


def _row_entries(indptr: np.ndarray, nodes: np.ndarray):
    """Positions of the stored entries of the given rows, row after row,
    and the row each belongs to."""
    start = indptr[nodes]
    lens = indptr[nodes + 1] - start
    pos = np.repeat(start - np.cumsum(lens) + lens, lens) + np.arange(lens.sum())
    return pos, np.repeat(nodes, lens)


def _trial_cut(adj: sp.csr_matrix, cut: float, assign: np.ndarray, trial: np.ndarray,
               moved: np.ndarray) -> float:
    """The weighted cut of trial, from assign's cut and the moved nodes' rows.

    An edge between two moved nodes is in both rows; only its entry in
    the lower row counts.
    """
    pos, v = _row_entries(adj.indptr, moved)
    u = adj.indices[pos]
    is_moved = np.zeros(assign.size, dtype=bool)
    is_moved[moved] = True
    once = ~is_moved[u] | (v < u)
    w, v, u = adj.data[pos[once]], v[once], u[once]
    return cut + w[trial[v] != trial[u]].sum() - w[assign[v] != assign[u]].sum()


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


def _swap_round(conn, adj, weight_class, assign, c: int) -> np.ndarray:
    """One balance-preserving swap round; returns the new assignment.

    Candidates are every (node, other cluster) entry of the connectivity.
    Within each cluster pair and node weight, each s->t mover is paired
    with the t->s movers of its own gain rank and the ranks next to it; a
    pair (u, v) is worth g_u + g_v - 2 w_uv.  Positive pairs are taken
    best first by the coarsening's greedy matcher, each node in at most one.
    """
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
    if first.size == 0:
        return assign
    u, v = rows[first], rows[partner]
    # scipy finds each pair inside u's row; a pair with no edge reads 0
    pair_gain = gain[first] + gain[partner] - 2.0 * np.asarray(adj[u, v]).ravel()
    good = pair_gain > 0
    u, v, pair_gain = u[good], v[good], pair_gain[good]
    order = np.lexsort((v, u, -pair_gain))
    u, v = u[order], v[order]
    taken = _greedy_pairs(u, v, assign.size)
    u, v = u[taken], v[taken]
    out = assign.copy()
    out[u], out[v] = assign[v], assign[u]
    return out


# move-and-swap rounds per level at most
_MAX_ROUNDS = 32
# a level stops after a kept round that lowers its cut by less than this
# share of it (never while an integer-weighted cut is under 10,000)
_STOP_FRACTION = 1e-4


def _refine(adj: sp.csr_matrix, node_w: np.ndarray, assign: np.ndarray, c: int, cap: int):
    """Size-constrained label propagation with pair-swap rounds.

    Move rounds (even ones upward in cluster id, odd ones downward)
    alternate with swap rounds.  A round is kept only if it lowers the
    (weighted) cut, or keeps it and evens out the cluster weights (their
    sum of squares falls), so the cut never grows.  Moves keep every
    cluster at or under cap and swaps exchange equal weights.  A trial's
    cut is scored from the moved nodes' rows alone, and a kept round
    rebuilds the connectivity by one sparse product.  Refinement stops
    after a kept round that lowers the cut by less than _STOP_FRACTION of
    it, when an upward move, a downward move and a swap all leave the
    assignment as it is, or after _MAX_ROUNDS move-and-swap rounds.
    """
    weight_class = np.unique(node_w, return_inverse=True)[1]
    conn = _connectivity(adj, assign, c)
    best = conn[2].sum() / 2, (np.bincount(assign, weights=node_w, minlength=c) ** 2).sum()
    idle = set()  # the round kinds that left the current assignment as it is
    for step in range(2 * _MAX_ROUNDS):
        kind = "swap" if step % 2 else ("up" if step % 4 == 0 else "down")
        if kind in idle:
            continue
        if kind == "swap":
            trial = _swap_round(conn, adj, weight_class, assign, c)
        else:
            trial = _move_round(conn, node_w, assign, c, cap, upward=kind == "up")
        moved = np.flatnonzero(trial != assign)
        got = best
        if moved.size:
            # node weights are integer sums, so this sum of squares is exact
            got = (_trial_cut(adj, best[0], assign, trial, moved),
                   (np.bincount(trial, weights=node_w, minlength=c) ** 2).sum())
        if got < best:
            small = 0 < best[0] - got[0] < _STOP_FRACTION * best[0]
            assign, best = trial, got
            if small:
                break
            conn = _connectivity(adj, assign, c)
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
    adj = fine = _strip_diagonal(g.adj)
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
    assign = _enforce_balance(fine, np.ones(n), assign, c, cap)
    return partition_from_assign(g, assign, c)


# ---------------------------------------------------------------------------
# batching
# ---------------------------------------------------------------------------

def form_batch(part: Partition, q: int, rng: RngStream, whole: _GraphContext, cfg: ModelConfig, y,
               train_mask=None) -> Batch:
    """Sample q distinct clusters uniformly and cut their induced subgraph's
    context from whole, the whole data's context (see _GraphContext.restrict).

    Edges between the chosen clusters are inside the union and are kept.
    A batch that covers the graph trains on whole itself.  When train_mask
    is given and marks none of the union's nodes, no context is cut and
    ctx is None, as the batch trains nothing.
    """
    if q > part.c:
        raise ConfigError(f"q={q} exceeds cluster count c={part.c}")
    chosen = np.sort(rng.choice(np.arange(part.c), size=q, replace=False))
    nodes = np.sort(np.concatenate([part.members[t] for t in chosen]))
    labelled = train_mask is None or train_mask[nodes].any()
    return Batch(cluster_ids=tuple(int(t) for t in chosen), nodes=nodes,
                 ctx=whole.restrict(nodes, cfg) if labelled else None, y=np.asarray(y)[nodes])


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
    batch subgraph, and takes one Adam step on the batch loss scaled by
    |batch| / n.  The batch's PPMI operator is rebuilt when a refresh is
    due or the cluster set differs from the one it was built for, so a
    run with q = c builds on fit's schedule.  Batches with no training
    labels are skipped and counted, and no context is cut for them.  The
    whole graph's context is built once, dist2 included when the
    objective reads it, and every batch is cut from it (form_batch), as
    is the depth-hop ball of the validation nodes, cut once per run with
    the rows of it that validation accuracy is scored on (see
    model._validation_context and _GraphContext.layer_rows); only
    cluster_fit cuts them, as fit validates on its whole-graph training
    context.  The whole context is freed before the heap is trimmed; its
    support and frozen operator are the graph's own (Graph.support,
    Graph.frozen_op), kept for later fits and predicts.
    """
    if not dataset.has_masks():
        raise DataError("dataset has no train/val/test masks; apply a split first")
    if partition is None:
        partition = partition_graph(dataset.graph, part_cfg)
    elif partition.n != dataset.n:
        raise DataError(f"partition covers {partition.n} nodes, the dataset has {dataset.n}")
    elif partition.c != part_cfg.c:
        raise ConfigError(f"partition has c={partition.c} clusters, the config asks for c={part_cfg.c}")

    whole = _GraphContext(dataset.x, dataset.graph, cfg)
    whole.distances(cfg)  # built once, for every batch to gather

    def next_batch(epoch, rng):
        batch = form_batch(partition, part_cfg.q, rng.child("batch", epoch), whole, cfg, dataset.y,
                           dataset.train_mask)
        train_local = np.flatnonzero(dataset.train_mask[batch.nodes])
        share = batch.nodes.size / dataset.n if weighted_loss else 1.0
        return _TrainBatch(batch.ctx, batch.y, train_local, share, ppmi_key=batch.cluster_ids)

    result = _train(dataset, cfg, next_batch, on_epoch, whole, ball=True)
    del whole  # so the whole graph's context is freed before the trim
    _release_freed_heap()
    return result
