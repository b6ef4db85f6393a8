"""Graph partitioning and cluster-batched training.

The partitioner is a multilevel scheme standing in for a full METIS:
heavy-edge matching coarsens the graph, greedy growing seeds a balanced
partition on the coarsest level, and move/swap refinement under the
balance cap cleans up each uncoarsening step.  Training then samples q
clusters per step, trains on their induced subgraph (cross-cluster edges
between chosen clusters stay in), and scales the loss by the batch's
node share.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as dc_replace

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError
from .graph import Graph, graph_from_csr
from .model import FitResult, ModelConfig, _GraphContext, _TrainBatch, _train
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
    "load_partition_cache",
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
    members = tuple(np.flatnonzero(assign == t) for t in range(c))
    return Partition(c=c, assign=assign.astype(np.int64), members=members,
                     edge_cut=_edge_cut(g.adj, assign))


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
    coarse_map = np.full(n, -1, dtype=np.int64)
    nxt = 0
    for v in range(n):
        if coarse_map[v] >= 0:
            continue
        coarse_map[v] = nxt
        m = match[v]
        if m >= 0:
            coarse_map[m] = nxt
        nxt += 1
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


def _node_conn(adj, v: int, assign: np.ndarray, c: int) -> np.ndarray:
    conn = np.zeros(c)
    for k in range(adj.indptr[v], adj.indptr[v + 1]):
        conn[assign[adj.indices[k]]] += adj.data[k]
    return conn


def _refine(adj: sp.csr_matrix, node_w: np.ndarray, assign: np.ndarray, c: int, cap: int,
            max_rounds: int = 4, swap_limit: int = 2000):
    """Greedy boundary moves plus balance-preserving pair swaps."""
    weights = np.bincount(assign, weights=node_w, minlength=c)
    counts = np.bincount(assign, minlength=c)
    n = adj.shape[0]
    for _ in range(max_rounds):
        moved = 0
        for _pass in range(8):
            pass_moves = 0
            for v in range(n):
                s = assign[v]
                conn = _node_conn(adj, v, assign, c)
                own = conn[s]
                conn[s] = -np.inf
                t = int(np.argmax(conn))
                gain = conn[t] - own
                if gain <= 0:
                    continue
                if weights[t] + node_w[v] > cap or counts[s] <= 1:
                    continue
                assign[v] = t
                weights[s] -= node_w[v]
                weights[t] += node_w[v]
                counts[s] -= 1
                counts[t] += 1
                pass_moves += 1
            moved += pass_moves
            if pass_moves == 0:
                break
        if n > swap_limit:
            break
        # balance-locked improvements need swaps: equal-weight boundary pairs
        swapped = 0
        boundary = [v for v in range(n)
                    if any(assign[adj.indices[k]] != assign[v]
                           for k in range(adj.indptr[v], adj.indptr[v + 1]))]
        for u in boundary:
            s = assign[u]
            conn_u = _node_conn(adj, u, assign, c)
            for v in boundary:
                t = assign[v]
                if t == s or node_w[u] != node_w[v]:
                    continue
                conn_v = _node_conn(adj, v, assign, c)
                w_uv = 0.0
                for k in range(adj.indptr[u], adj.indptr[u + 1]):
                    if adj.indices[k] == v:
                        w_uv = adj.data[k]
                        break
                gain = (conn_u[t] - conn_u[s]) + (conn_v[s] - conn_v[t]) - 2.0 * w_uv
                if gain > 0:
                    assign[u], assign[v] = t, s
                    swapped += 1
                    break
        if moved == 0 and swapped == 0:
            break
    return assign


def _enforce_balance(adj, node_w, assign, c: int, cap: int):
    weights = np.bincount(assign, weights=node_w, minlength=c)
    guard = 0
    while weights.max() > cap and guard < 10 * assign.size:
        guard += 1
        s = int(np.argmax(weights))
        members = np.flatnonzero(assign == s)
        # move the member with least internal connectivity
        best_v, best_int = members[0], np.inf
        for v in members:
            internal = _node_conn(adj, v, assign, c)[s]
            if internal < best_int:
                best_v, best_int = v, internal
        room = np.flatnonzero(weights + node_w[best_v] <= cap)
        t = int(room[np.argmin(weights[room])]) if room.size else int(np.argmin(weights))
        if t == s:
            break
        assign[best_v] = t
        weights[s] -= node_w[best_v]
        weights[t] += node_w[best_v]
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
    and counted.  Validation accuracy is scored on the full graph.
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

    eval_ctx = _GraphContext(dataset.x, dataset.graph, dc_replace(cfg, lambda2=0.0))
    return _train(dataset, cfg, eval_ctx, next_batch, on_epoch)


# ---------------------------------------------------------------------------
# partition cache: "# partition n=<n> c=<c> seed=<seed>" + one index per line
# ---------------------------------------------------------------------------

def save_partition_cache(path, part: Partition, seed: int) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# partition n={part.n} c={part.c} seed={seed}\n")
        for t in part.assign:
            fh.write(f"{t}\n")


def load_partition_cache(path, g: Graph, cfg: PartitionConfig) -> Partition | None:
    """Reload a cached partition; returns None when the header mismatches."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except FileNotFoundError:
        return None
    with fh:
        header = fh.readline().strip()
        if header != f"# partition n={g.n} c={cfg.c} seed={cfg.seed}":
            return None
        assign = np.array([int(line) for line in fh if line.strip()], dtype=np.int64)
    if assign.shape[0] != g.n:
        return None
    return partition_from_assign(g, assign, cfg.c)