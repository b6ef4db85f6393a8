"""Learned affinity graph: pair scorer, row-softmax normalization, loss.

The learner scores node pairs by a^T |x_i - x_j| (optionally after a
linear projection of the features), passes the scores through ReLU and
normalizes each row with a softmax, so S is non-negative and
row-stochastic.  The scores are restricted to a support: that of A + I
when the data has a graph, otherwise the complete graph with self-pairs,
so every pair participates (memory grows as n^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .graph import Graph
from .rng import RngStream
from . import tape
from .tape import Parameter, Tensor

__all__ = [
    "GlConfig",
    "GraphLearnerParams",
    "SupportStructure",
    "LearnedGraph",
    "init_graph_learner",
    "learn_S_masked",
    "gl_loss",
    "support_distances",
    "entry_block",
    "dense_block",
]


@dataclass(frozen=True)
class GlConfig:
    """Sparsity weight gamma_reg and adjacency-fidelity weight beta."""

    gamma_reg: float = 0.01
    beta: float = 0.1

    def __post_init__(self):
        if self.gamma_reg < 0 or self.beta < 0:
            raise ConfigError("gamma_reg and beta must be non-negative")


@dataclass
class GraphLearnerParams:
    """Learnable scorer vector a and optional feature projection."""

    a: Parameter
    proj: Parameter | None = None

    def parameters(self) -> list[Parameter]:
        out = []
        if self.proj is not None:
            out.append(self.proj)
        out.append(self.a)
        return out


def init_graph_learner(p_features: int, hidden: int | None, rng: RngStream) -> GraphLearnerParams:
    """Uniform +-1/sqrt(dim) scorer; glorot projection when hidden is set."""
    proj = None
    dim = p_features
    if hidden is not None:
        limit = np.sqrt(6.0 / (p_features + hidden))
        proj = Parameter(rng.child("init", "proj").uniform(-limit, limit, (p_features, hidden)), name="gl.proj")
        dim = hidden
    bound = 1.0 / np.sqrt(dim)
    a = Parameter(rng.child("init", "a").uniform(-bound, bound, dim), name="gl.a")
    return GraphLearnerParams(a=a, proj=proj)


class SupportStructure:
    """Frozen CSR pattern (of A + I) shared by S, its operator and losses.

    The pattern must be symmetric.  Pair scores and distances are symmetric
    and vanish on self-pairs, so they are computed once per unordered pair:
    pair_rows/pair_cols hold the entries with row < col in CSR order, and
    pair_of maps every entry to its pair's index (self-pairs to npairs).
    All keep the adjacency's CSR index dtype (12 B per entry for int32); indptr gives row ids.
    pattern, over indptr and cols, is what S's products run through, and
    the edge scorer reads pair_rows/pair_cols a cache-sized chunk at a time.
    n counts the rows.  The pattern is square but for rect's cuts, whose
    columns and pair nodes are numbered over a column set of their own.

    Rows are sorted on entry.  One transpose of pair_of (the pair id on
    upper entries, npairs elsewhere) moves each value to its mirror's slot
    in O(nnz), with no sort: the pattern is symmetric exactly when it is
    its own transpose, and each lower entry then finds its pair id there.
    The build peaks near 22 B per entry.
    """

    def __init__(self, g: Graph):
        adj = g.adj
        if (adj.diagonal() == 0).any():
            raise ValueError("support graph must carry self-loops on every node")
        if not adj.has_sorted_indices:
            adj = adj.sorted_indices()
        self.n = g.n
        self.indptr = adj.indptr.copy()
        self.cols = adj.indices.copy()
        self.pattern = tape.Pattern(self.indptr, self.cols, (self.n, self.n))
        rows = np.repeat(np.arange(self.n, dtype=self.cols.dtype), np.diff(self.indptr))
        upper = rows < self.cols
        self.pair_rows = rows[upper]
        del rows
        self.pair_cols = self.cols[upper]
        self.pair_of = np.full(self.nnz, self.npairs, dtype=self.cols.dtype)
        self.pair_of[upper] = np.arange(self.npairs, dtype=self.cols.dtype)
        del upper
        transposed, mirror = self.pattern.transpose(self.pair_of)
        if not (np.array_equal(transposed.indptr, self.indptr) and np.array_equal(transposed.indices, self.cols)):
            raise ValueError("support pattern must be symmetric")
        del transposed
        # an upper entry's mirror is lower (npairs); a lower entry's is its pair's upper entry
        np.minimum(self.pair_of, mirror, out=self.pair_of)

    def _row_entries(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The positions of the rows at nodes' entries, row after row, and
        the cumulative entry count at each row's end."""
        start = self.indptr[nodes]
        lens = self.indptr[nodes + 1] - start
        ends = np.cumsum(lens)
        return np.repeat(start - ends + lens, lens) + np.arange(ends[-1] if nodes.size else 0), ends

    def restrict(self, nodes: np.ndarray) -> tuple["SupportStructure", np.ndarray]:
        """The support of the subgraph of A + I induced by nodes (sorted,
        distinct), and the ids of its entries in this support.

        Whole-array gathers only, with no sort and no transpose.  Sorted
        nodes keep every row's order, so each row's columns stay sorted and
        an entry is upper exactly when its whole entry is.  The kept upper
        entries then list the kept pairs in the order of their whole ids, so
        a pair's local id is its rank among them, which a map over the whole
        pair ids, left unset where no kept entry reads it, hands to each
        kept entry.  The arrays equal those this class builds from the
        induced subgraph, dtypes included.
        """
        idx = self.cols.dtype
        k = nodes.size
        local = np.full(self.n, -1, dtype=idx)
        local[nodes] = np.arange(k, dtype=idx)
        pos, ends = self._row_entries(nodes)
        cols = local[self.cols[pos]]
        keep = cols >= 0
        indptr = np.zeros(k + 1, dtype=self.indptr.dtype)
        # every row keeps its self-loop, so each row end has a kept entry before it
        indptr[1:] = np.cumsum(keep)[ends - 1]
        # masks select by index lists: a boolean index takes ~4x longer here
        kept = np.flatnonzero(keep)
        entries, cols = pos[kept], cols[kept]
        rows = np.repeat(np.arange(k, dtype=idx), np.diff(indptr))
        upper = np.flatnonzero(rows < cols)
        whole_pair = self.pair_of[entries]
        # whole pair id -> local id, written only where a kept pair or the
        # self-pair id reads it
        local_pair = np.empty(self.npairs + 1, dtype=idx)
        local_pair[whole_pair[upper]] = np.arange(upper.size, dtype=idx)
        local_pair[self.npairs] = upper.size
        sub = SupportStructure._of((k, k), indptr, cols, rows[upper], cols[upper], local_pair[whole_pair])
        return sub, entries

    def rect(self, rows: np.ndarray, cols: np.ndarray) -> tuple["SupportStructure", np.ndarray]:
        """The rows at rows over the columns at cols (both sorted, distinct),
        and the ids of their entries in this support.

        Every entry of those rows must have its column in cols: each row
        keeps all its entries, so its softmax stays exact.  These are the
        rows of a (d-1)-hop ball over the d-hop ball, or, cut from such a
        rectangle, one layer's rows over the rows the layer before gives.
        As each row holds its self-loop, both nodes of every pair are
        columns, and pair_rows/pair_cols number them as cols does.

        Whole-array gathers only, with no sort and no transpose.  A pair
        may be read from one entry alone, where its other node's row is not
        kept, so the kept pairs are the distinct pair ids of the kept
        entries, marked in one map over this support's pair ids and
        numbered in their order, as restrict numbers them.
        """
        idx = self.cols.dtype
        local = np.full(self.pattern.shape[1], -1, dtype=idx)
        local[cols] = np.arange(cols.size, dtype=idx)
        entries, ends = self._row_entries(rows)
        rect_cols = local[self.cols[entries]]
        if (rect_cols < 0).any():
            raise ValueError("a kept row reads a column outside cols")
        indptr = np.zeros(rows.size + 1, dtype=self.indptr.dtype)
        indptr[1:] = ends
        pair_of = self.pair_of[entries]
        read = np.zeros(self.npairs + 1, dtype=bool)
        read[pair_of] = True
        pairs = np.flatnonzero(read[:-1])
        local_pair = np.empty(self.npairs + 1, dtype=idx)
        local_pair[pairs] = np.arange(pairs.size, dtype=idx)
        local_pair[self.npairs] = pairs.size
        sub = SupportStructure._of((rows.size, cols.size), indptr, rect_cols, local[self.pair_rows[pairs]],
                                   local[self.pair_cols[pairs]], local_pair[pair_of])
        return sub, entries

    def hops(self, nodes: np.ndarray, depth: int) -> list[np.ndarray]:
        """The sorted nodes within 0, 1, ..., depth hops of nodes (sorted,
        distinct) on this square pattern, each ball one array."""
        balls = [nodes]
        near = np.zeros(self.n, dtype=bool)
        near[nodes] = True
        for _ in range(depth):
            near[self.cols[self._row_entries(balls[-1])[0]]] = True
            balls.append(np.flatnonzero(near))
        return balls

    @classmethod
    def _of(cls, shape, indptr, cols, pair_rows, pair_cols, pair_of) -> "SupportStructure":
        """A support over arrays already paired, as restrict and rect cut them."""
        self = cls.__new__(cls)
        self.n, self.indptr, self.cols = shape[0], indptr, cols
        self.pattern = tape.Pattern(indptr, cols, shape)
        self.pair_rows, self.pair_cols, self.pair_of = pair_rows, pair_cols, pair_of
        return self

    @classmethod
    def complete(cls, n: int) -> "SupportStructure":
        """Every ordered pair, self-pairs included: the support for data without a graph."""
        cols = np.tile(np.arange(n, dtype=np.int32), n)
        ones = sp.csr_matrix((np.ones(n * n, dtype=np.int8), cols, np.arange(0, n * n + 1, n)), shape=(n, n))
        return cls(Graph(n=n, adj=ones))

    @property
    def nnz(self) -> int:
        return self.cols.size

    @property
    def npairs(self) -> int:
        return self.pair_rows.size


@dataclass
class LearnedGraph:
    """Row-stochastic learned affinity: softmax values on a CSR support."""

    values: Tensor = field(repr=False)
    support: SupportStructure

    @property
    def pattern(self) -> tape.Pattern:
        return self.support.pattern

    def matrix(self) -> sp.csr_matrix:
        """S as scipy holds it, over S's values and the support's arrays, for
        the PPMI walks, which only read it."""
        s = self.support
        return sp.csr_matrix((self.values.value, s.cols, s.indptr), shape=s.pattern.shape)


def learn_S_masked(x, gl: GraphLearnerParams, support: SupportStructure) -> LearnedGraph:
    """Affinity restricted to the support (that of A + I, or the complete graph).

    S_ij = A~_ij exp(ReLU(a^T |x_i - x_j|)) / sum_j A~_ij exp(...), so each
    row is a softmax over the node's closed neighborhood.  The score is
    symmetric and 0 on self-pairs, so each unordered pair is scored once
    and spread to both of its entries.  x is dense, or a tape.SparseConst
    when gl projects it.
    """
    xp = x if gl.proj is None else tape.matmul(x, gl.proj)
    pair = tape.relu(tape.edge_scores(xp, gl.a, support.pair_rows, support.pair_cols))
    scores = tape.take_or_zero(pair, support.pair_of)
    values = tape.segment_softmax(scores, support.indptr)
    return LearnedGraph(values=values, support=support)


def entry_block(p: int) -> int:
    """Pairs per block of a sparse x's row products: 2,048, or fewer when one
    block's (block, p) rows would pass ~32 MB dense (~16 MB in float32).

    A cluster fit builds the whole graph's distances once, and 2,048 pairs
    keep that build's transient within a batch's memory: the whole-fit
    memory test (p=300) peaks at 3.8 MB at n=1,000 and 4.1 MB at n=4,000,
    against 7.4 MB at n=4,000 with 8,192-pair or uncapped blocks.
    """
    return max(1, min(2048, 2**22 // p))


def dense_block(p: int, itemsize: int) -> int:
    """Pairs per block of a dense x's row products: as many as fill ~256 KB
    of gathered rows, so a block's two gathers and their product stay in
    cache: 45 pairs at p=1433 in float32, 22 in float64.  The rows' bytes
    set the count, not p alone, as float32 rows take half the room."""
    return max(1, 2**18 // (p * itemsize))


def support_distances(x, support: SupportStructure) -> np.ndarray:
    """||x_i - x_j||^2 per support entry (constant wrt parameters).

    Taken once per unordered pair and spread to both entries, with 0 on
    self-pairs.  The per-pair dot products are taken over blocks of pairs,
    so no (npairs, p) array is built: dense_block(p, itemsize) pairs for
    dense x, entry_block(p) for sparse x, as indexing rows of a sparse x
    costs ~0.25 ms per block whatever its size.  Each pair's dot is summed on
    its own, so the block size does not change the result, nor does the
    row set: a pair's value is the same in the whole graph's support and
    in any restriction of it.  A sparse x's squared norms square its
    values over its own index arrays, copying neither.  Each block's pair
    values go straight into one npairs + 1 array, which the final gather
    reads, so the build peaks near 1.5x the array it returns.
    """
    sparse = sp.issparse(x)
    dtype = tape._value_dtype(x.dtype)
    if sparse:
        x = x.tocsr()
        squares = sp.csr_matrix((x.data * x.data, x.indices, x.indptr), shape=x.shape)
        sq = np.asarray(squares.sum(axis=1), dtype=dtype).ravel()
        del squares
    else:
        x = np.asarray(x, dtype=dtype)
        sq = (x * x).sum(axis=1)
    block = entry_block(x.shape[1]) if sparse else dense_block(x.shape[1], x.itemsize)
    rows, cols = support.pair_rows, support.pair_cols
    # the pairs' values, then the self-pairs' 0, which the gather reads
    d2 = np.empty(support.npairs + 1, dtype=dtype)
    for lo in range(0, support.npairs, block):
        r, c = rows[lo:lo + block], cols[lo:lo + block]
        prod = x[r].multiply(x[c]) if sparse else x[r] * x[c]
        dots = np.asarray(prod.sum(axis=1), dtype=dtype).ravel()
        np.maximum(sq[r] + sq[c] - 2.0 * dots, 0.0, out=d2[lo:lo + r.size])
        del prod, dots  # so the last block's are not held through the gather
    d2[-1] = 0.0
    del sq  # freed before the gather, which sets the peak
    return d2[support.pair_of]


def gl_loss(s: LearnedGraph, a_graph: Graph | None, cfg: GlConfig, dist2: np.ndarray) -> Tensor:
    """Graph-learning objective.

    sum_ij ||x_i - x_j||^2 S_ij + gamma ||S||_F^2, plus (when a graph is
    given) beta ||S - A~||_F^2 against the binary support of A + I, which
    is exactly the support S is stored on.  dist2 holds ||x_i - x_j||^2
    per support entry, as support_distances gives it.
    """
    loss = tape.add(tape.vdot_const(s.values, dist2), tape.scale(tape.sum_sq(s.values), cfg.gamma_reg))
    if a_graph is not None and cfg.beta > 0:
        loss = tape.add(loss, tape.scale(tape.sum_sq_diff(s.values, 1.0), cfg.beta))
    return loss
