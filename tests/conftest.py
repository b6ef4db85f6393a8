import os

import numpy as np
import pytest
import scipy.sparse as sp

from dualgcn.data import DatasetBundle, load_dataset
from dualgcn.graph import Graph, build_graph
from dualgcn.rng import RngStream
from dualgcn.tape import Tensor


def constant(value) -> Tensor:
    """An array as a tape value that never receives a gradient, for the
    ops whose inputs must be Tensors."""
    return Tensor(np.asarray(value, dtype=np.float64), needs_grad=False)


def make_random_graph(n: int, p_edge: float, seed: int, ensure_ring: bool = True) -> Graph:
    """Erdos-Renyi graph, optionally with a ring so it is connected."""
    rng = RngStream(seed, ("test-graph",))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p_edge:
                edges.append((i, j))
    if ensure_ring:
        edges.extend((i, (i + 1) % n) for i in range(n))
    return build_graph(sorted(set(edges)), n)


def make_sbm_bundle(n: int = 200, k: int = 4, p_in: float = 0.08, p_out: float = 0.005,
                    noise: float = 0.4, seed: int = 0, per_class_train: int = 5) -> DatasetBundle:
    """Stochastic block model with noisy class-indicator features."""
    rng = RngStream(seed, ("sbm",))
    y = np.arange(n) % k
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            p = p_in if y[i] == y[j] else p_out
            if rng.random() < p:
                edges.append((i, j))
    edges.extend((i, (i + k) % n) for i in range(n) if y[i] == y[(i + k) % n])
    graph = build_graph(sorted(set(edges)), n)
    x = np.zeros((n, k + 4))
    x[np.arange(n), y] = 1.0
    x += noise * rng.child("feat").random((n, k + 4))
    train = np.zeros(n, dtype=bool)
    for c in range(k):
        members = np.flatnonzero(y == c)
        train[members[:per_class_train]] = True
    rest = np.flatnonzero(~train)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    val[rest[: len(rest) // 2]] = True
    test[rest[len(rest) // 2 :]] = True
    bundle = DatasetBundle(name="sbm", x=x, y=y, graph=graph, train_mask=train,
                           val_mask=val, test_mask=test, class_count=k)
    bundle.validate()
    return bundle


def make_citation_surrogate(n: int = 1354, k: int = 7, p: int = 1433, avg_deg: float = 4.0,
                            seed: int = 0) -> DatasetBundle:
    """Citation-shaped synthetic data: sparse binary bag-of-words features
    with class-biased vocabulary blocks and an assortative sparse graph.
    Used to exercise the dataset-scale code paths without the real corpora."""
    import scipy.sparse as sp

    from dualgcn.data import SplitSpec, with_split

    rng = RngStream(seed, ("surrogate",))
    y = rng.integers(0, k, n).astype(np.int64)
    m = int(n * avg_deg / 2)
    edges = set()
    attempts = 0
    while len(edges) < m and attempts < 40 * m:
        attempts += 1
        i = int(rng.integers(0, n))
        if rng.random() < 0.8:
            members = np.flatnonzero(y == y[i])
            j = int(members[rng.integers(0, len(members))])
        else:
            j = int(rng.integers(0, n))
        if i != j:
            edges.add((min(i, j), max(i, j)))
    graph = build_graph(sorted(edges), n)
    rows, cols = [], []
    block = p // k
    for i in range(n):
        base = y[i] * block
        own = rng.integers(0, block, 14) + base
        other = rng.integers(0, p, 6)
        for c in set(own.tolist() + other.tolist()):
            rows.append(i)
            cols.append(c)
    x = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, p))
    bundle = DatasetBundle(name="citation-surrogate", x=x, y=y, graph=graph, class_count=k)
    val = min(500, (n - 20 * k) // 3)
    test = min(1000, (n - 20 * k) - val - 10)
    return with_split(bundle, SplitSpec(20, val, test, seed=0))


def citation_graph(seed: int, n: int, k: int, avg_deg: float = 4.0) -> Graph:
    """The graph of the benchmark's citation-shaped surrogate (the edges
    of perfbench/gen.py's citation at the same seed), drawn whole-array:
    each edge joins two nodes of one class with probability 0.8, else two
    uniform nodes; self-pairs and repeats are dropped."""
    rng = np.random.default_rng([seed, 1])
    y = rng.integers(0, k, n)
    by_class = np.argsort(y, kind="stable")
    class_start = np.searchsorted(y[by_class], np.arange(k))
    class_size = np.bincount(y, minlength=k)
    m = int(n * avg_deg / 2)
    i = rng.integers(0, n, int(m * 1.3) + 64)
    same = rng.random(i.size) < 0.8
    pick = rng.random(i.size)
    j_same = by_class[class_start[y[i]] + (pick * class_size[y[i]]).astype(np.int64)]
    j = np.where(same, j_same, (pick * n).astype(np.int64))
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    keys = (lo * n + hi)[lo != hi]
    _, first = np.unique(keys, return_index=True)
    keys = keys[np.sort(first)][:m]
    return build_graph(np.stack([keys // n, keys % n], axis=1), n)


def count_support_builds(monkeypatch) -> list:
    """Record the node count of every SupportStructure built from a graph
    from here on (restrict's cuts build none)."""
    from dualgcn.graphlearn import SupportStructure

    builds = []
    real = SupportStructure.__init__

    def counting(self, g):
        builds.append(g.n)
        real(self, g)

    monkeypatch.setattr(SupportStructure, "__init__", counting)
    return builds


def support_by_sort(adj) -> dict:
    """SupportStructure's arrays for a symmetric CSR pattern with self-loops,
    paired by sorting: an int64 key row * n + col for each upper entry and
    col * n + row for each lower one, one stable argsort of each, and the
    k-th smallest mirrored key matched to the k-th smallest pair key.
    Rows keep the order adj gives them.  The reference for the transpose."""
    n = adj.shape[0]
    indptr, cols = adj.indptr.copy(), adj.indices.copy()
    rows = np.repeat(np.arange(n, dtype=cols.dtype), np.diff(indptr))
    upper = rows < cols
    lower = (rows > cols).nonzero()[0]
    pair_rows, pair_cols = rows[upper], cols[upper]
    keys = pair_rows.astype(np.int64) * n + pair_cols
    mirror = cols[lower].astype(np.int64) * n + rows[lower]
    by_key, by_mirror = keys.argsort(kind="stable"), mirror.argsort(kind="stable")
    assert mirror.size == keys.size and (keys[by_key] == mirror[by_mirror]).all(), "asymmetric pattern"
    pair_of = np.full(cols.size, pair_rows.size, dtype=cols.dtype)
    pair_of[upper] = np.arange(pair_rows.size)
    pair_of[lower[by_mirror]] = by_key
    return {"indptr": indptr, "cols": cols, "pair_rows": pair_rows, "pair_cols": pair_cols, "pair_of": pair_of}


def refine_by_rebuild(adj, node_w, assign, c: int, cap: int):
    """The refinement of cluster._refine with nothing kept between rounds:
    every trial is scored by a pass over all of adj, every kept round
    rebuilds the whole connectivity, and only idle round kinds or
    _MAX_ROUNDS stop a level.  The oracle for cluster._refine, which must
    return the same assignment whenever its stop rule cannot fire."""
    from dualgcn.cluster import _MAX_ROUNDS, _connectivity, _crossing, _move_round, _swap_round

    weight_class = np.unique(node_w, return_inverse=True)[1]

    def score(a):
        cut = adj.data[_crossing(adj, a)].sum()
        return cut, (np.bincount(a, weights=node_w, minlength=c) ** 2).sum()

    best, conn = score(assign), None
    idle = set()
    for step in range(2 * _MAX_ROUNDS):
        kind = "swap" if step % 2 else ("up" if step % 4 == 0 else "down")
        if kind in idle:
            continue
        if conn is None:
            conn = _connectivity(adj, assign, c)
        if kind == "swap":
            trial = _swap_round(conn, adj, weight_class, assign, c)
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


def contract_by_coo(adj, node_w, match):
    """The contraction of cluster._contract through a COO round trip: every
    fine entry mapped to its coarse ends, loops dropped, duplicates summed.
    The oracle for cluster._contract, which builds the same coarse graph
    as a sparse product."""
    n = adj.shape[0]
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


def cluster_blocks(part, g: Graph, x, y, cfg=None) -> list:
    """Every cluster's batch as form_batch cuts it with q = 1, in cluster order,
    from the whole context of (x, g) under cfg (default: a frozen operator,
    so each block carries its support and its normalized A + I)."""
    from dualgcn.cluster import form_batch
    from dualgcn.model import ModelConfig, _GraphContext

    cfg = cfg or ModelConfig(learn_graph=False)
    whole = _GraphContext(x, g, cfg)
    rng = RngStream(0, ("cluster-blocks",))
    found = {}
    draw = 0
    while len(found) < part.c:
        batch = form_batch(part, 1, rng.child(draw), whole, cfg, y)
        found.setdefault(batch.cluster_ids[0], batch)
        draw += 1
    return [found[t] for t in range(part.c)]


def reassemble(blocks, part, g: Graph) -> sp.csr_matrix:
    """The cluster blocks' A + I values without the identity, placed on the
    diagonal, plus the edges that cross clusters: blocks cut under a frozen
    operator (learn_graph=False) carry A + I's values on their supports."""
    coo = g.adj.tocoo()
    cross = part.assign[coo.row] != part.assign[coo.col]
    parts = [(coo.row[cross], coo.col[cross], coo.data[cross])]
    for b in blocks:
        sup = b.ctx.support
        rows = np.repeat(np.arange(sup.n), np.diff(sup.indptr))
        vals = b.ctx.a_values - (rows == sup.cols)
        parts.append((b.nodes[rows], b.nodes[sup.cols], vals))
    rows, cols, vals = (np.concatenate(p) for p in zip(*parts))
    out = sp.csr_matrix((vals, (rows, cols)), shape=(g.n, g.n))
    out.eliminate_zeros()
    return out


def dataset_dir(name: str):
    root = os.environ.get("GLDGCN_DATA_DIR")
    if not root:
        return None
    path = os.path.join(root, name)
    return path if os.path.isdir(path) else None


def load_or_skip(name: str) -> DatasetBundle:
    path = dataset_dir(name)
    if path is None:
        pytest.skip(f"dataset '{name}' not available (set GLDGCN_DATA_DIR to a root "
                    f"containing {name}/features.csv, labels.txt, edges.tsv)")
    return load_dataset(path)


@pytest.fixture
def karate():
    from dualgcn.data import builtin_karate

    return builtin_karate()


def karate_with_train_seed(seed: int) -> DatasetBundle:
    """The builtin karate graph with one seeded random train node per class
    and a seeded 15/15 val/test split of the other 30 nodes."""
    from dataclasses import replace

    from dualgcn.data import builtin_karate

    bundle = builtin_karate()
    train = np.zeros(34, dtype=bool)
    for c in range(4):
        train[RngStream(seed, ("karate-train", c)).choice(np.flatnonzero(bundle.y == c))] = True
    order = RngStream(seed, ("karate-split",)).permutation(np.flatnonzero(~train))
    val = np.zeros(34, dtype=bool)
    test = np.zeros(34, dtype=bool)
    val[order[:15]] = True
    test[order[15:]] = True
    return replace(bundle, train_mask=train, val_mask=val, test_mask=test)


def exact_frequency_matrix(m, q: int, w: int) -> np.ndarray:
    """Expected co-occurrence counts per walk-per-node (gamma = 1), dense.

    The oracle for the walk sampler: it uses the substochastic transition
    matrix (rows of dead-end nodes are zero), so truncated walks contribute
    exactly their realized prefix pairs, as sampled walks do.
    """
    mat = sp.csr_matrix(m, dtype=np.float64).toarray()
    n = mat.shape[0]
    rowsum = mat.sum(axis=1)
    trans = np.divide(mat, rowsum[:, None], out=np.zeros_like(mat), where=rowsum[:, None] > 0)
    powers = [np.eye(n)]
    for _ in range(q):
        powers.append(powers[-1] @ trans)
    occupancy = [np.ones(n)]
    for _ in range(1, q):
        occupancy.append(occupancy[-1] @ trans)
    acc = np.zeros((n, n))
    for s in range(q):
        for d in range(1, min(w, q - s) + 1):
            acc += occupancy[s][:, None] * powers[d]
    return acc + acc.T


def write_edge_list(g: Graph, path) -> None:
    """Write the upper triangle (plus self-loops) in the edges.tsv format,
    with a weight column unless every weight is 1."""
    coo = sp.triu(g.adj).tocoo()
    weighted = bool((coo.data != 1.0).any())
    with open(path, "w", encoding="utf-8") as fh:
        for i, j, w in zip(coo.row, coo.col, coo.data):
            if weighted:
                fh.write(f"{i}\t{j}\t{w:.17g}\n")
            else:
                fh.write(f"{i}\t{j}\n")


def save_dataset(bundle: DatasetBundle, path) -> None:
    """Write a bundle out in the canonical directory layout."""
    os.makedirs(path, exist_ok=True)
    x = bundle.x.toarray() if sp.issparse(bundle.x) else np.asarray(bundle.x)
    with open(os.path.join(path, "features.csv"), "w", encoding="utf-8") as fh:
        for row in x:
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    with open(os.path.join(path, "labels.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(str(int(v)) for v in bundle.y) + "\n")
    if bundle.graph is not None:
        write_edge_list(bundle.graph, os.path.join(path, "edges.tsv"))
    for part, mask in (("train", bundle.train_mask), ("val", bundle.val_mask), ("test", bundle.test_mask)):
        if mask is not None:
            ids = np.flatnonzero(mask)
            with open(os.path.join(path, f"{part}.txt"), "w", encoding="utf-8") as fh:
                fh.write("\n".join(str(int(v)) for v in ids) + "\n")
    with open(os.path.join(path, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"n={bundle.n}, classes={bundle.class_count}\n")


def edge_scores_grads_by_selectors(x, a, rows, cols, g, block=None):
    """The gradients of tape.edge_scores' pair scores, taken with two one-hot
    selectors per block: sign(d_k) * a * g_k per pair, scattered to rows_k
    through one (block x n) selector's transpose and subtracted at cols_k
    through the other's.  Blocks hold block pairs (default: a (block, p)
    float64 array of ~32 MB); d and a's gradient are taken over chunks of
    tape.cache_block pairs read at the call, as edge_scores takes them.
    The oracle for edge_scores' scatter through its chunks' patterns.
    Returns (gx, ga)."""
    from dualgcn import tape

    n, p = x.shape
    block = block or max(1, 2**22 // p)
    chunk = tape.cache_block(p)
    nnz = rows.size
    dtype = np.result_type(x.dtype, a.dtype)
    gx = np.zeros_like(x)
    ga = np.zeros_like(a)
    gs = np.empty((nnz, p), dtype=dtype)
    for lo in range(0, nnz, chunk):
        d = x[rows[lo:lo + chunk]]
        d -= x[cols[lo:lo + chunk]]
        part = np.sign(d, out=gs[lo:lo + chunk])
        part *= a
        part *= g[lo:lo + chunk, None]
        ga += np.abs(d, out=d).T @ g[lo:lo + chunk]
    for lo in range(0, nnz, block):
        hi = min(lo + block, nnz)
        ones = np.ones(hi - lo, dtype=dtype)
        ptr = np.arange(hi - lo + 1)
        gx += sp.csc_matrix((ones, rows[lo:hi], ptr), shape=(n, hi - lo)) @ gs[lo:hi]
        gx -= sp.csc_matrix((ones, cols[lo:hi], ptr), shape=(n, hi - lo)) @ gs[lo:hi]
    return gx, ga
