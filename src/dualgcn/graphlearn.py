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
    pattern, over indptr and cols, is what S's products run through.
    pairs holds pair_rows/pair_cols for the edge scorer, whose first
    backward builds their interleaved node array there (8 B per pair for
    int32), so it lives as long as the support and eval never builds it.
    """

    def __init__(self, g: Graph):
        adj = g.adj
        if (adj.diagonal() == 0).any():
            raise ValueError("support graph must carry self-loops on every node")
        self.n = g.n
        self.indptr = adj.indptr.copy()
        self.cols = adj.indices.copy()
        rows = np.repeat(np.arange(self.n, dtype=self.cols.dtype), np.diff(self.indptr))
        upper = rows < self.cols
        lower = (rows > self.cols).nonzero()[0]
        self.pair_rows = rows[upper]
        self.pair_cols = self.cols[upper]
        # the k-th smallest mirrored key is the k-th smallest pair key; int64, as n^2 > 2^31 past n = 46,341
        keys = self.pair_rows.astype(np.int64) * self.n + self.pair_cols
        mirror = self.cols[lower].astype(np.int64) * self.n + rows[lower]
        del rows
        by_key, by_mirror = keys.argsort(kind="stable"), mirror.argsort(kind="stable")
        if mirror.size != keys.size or (keys[by_key] != mirror[by_mirror]).any():
            raise ValueError("support pattern must be symmetric")
        del keys, mirror
        self.pair_of = np.full(self.nnz, self.npairs, dtype=self.cols.dtype)
        self.pair_of[upper] = np.arange(self.npairs)
        self.pair_of[lower[by_mirror]] = by_key
        self.pattern = tape.Pattern(self.indptr, self.cols, (self.n, self.n))
        self.pairs = tape.Pairs(self.pair_rows, self.pair_cols)

    @classmethod
    def complete(cls, n: int) -> "SupportStructure":
        """Every ordered pair, self-pairs included: the support for data without a graph."""
        ones = sp.csr_matrix((np.ones(n * n), np.tile(np.arange(n), n), np.arange(0, n * n + 1, n)), shape=(n, n))
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
        """Detached copy of S as a concrete matrix, for the PPMI walks."""
        s = self.support
        return sp.csr_matrix((self.values.value.copy(), s.cols.copy(), s.indptr.copy()), shape=(s.n, s.n))


def learn_S_masked(x, gl: GraphLearnerParams, support: SupportStructure) -> LearnedGraph:
    """Affinity restricted to the support (that of A + I, or the complete graph).

    S_ij = A~_ij exp(ReLU(a^T |x_i - x_j|)) / sum_j A~_ij exp(...), so each
    row is a softmax over the node's closed neighborhood.  The score is
    symmetric and 0 on self-pairs, so each unordered pair is scored once
    and spread to both of its entries.  x is dense, or a tape.SparseConst
    when gl projects it.
    """
    xp = x if gl.proj is None else tape.matmul(x, gl.proj)
    pair = tape.relu(tape.edge_scores(xp, gl.a, support.pairs))
    scores = tape.take_or_zero(pair, support.pair_of)
    values = tape.segment_softmax(scores, support.indptr)
    return LearnedGraph(values=values, support=support)


def support_distances(x, support: SupportStructure) -> np.ndarray:
    """||x_i - x_j||^2 per support entry (constant wrt parameters).

    Taken once per unordered pair and spread to both entries, with 0 on
    self-pairs.  The per-pair dot products are taken over blocks of pairs
    (tape.entry_block, ~32 MB), so no (npairs, p) array is
    built.  Not the smaller tape.cache_block: indexing rows of a sparse x
    costs ~0.25 ms per block whatever its size.
    """
    sparse = sp.issparse(x)
    dtype = tape._value_dtype(x.dtype)
    if not sparse:
        x = np.asarray(x, dtype=dtype)
    sq = np.asarray(x.multiply(x).sum(axis=1)).ravel() if sparse else (x * x).sum(axis=1)
    block = tape.entry_block(x.shape[1])
    rows, cols = support.pair_rows, support.pair_cols
    dots = np.empty(support.npairs, dtype=dtype)
    for lo in range(0, support.npairs, block):
        r, c = rows[lo:lo + block], cols[lo:lo + block]
        prod = x[r].multiply(x[c]) if sparse else x[r] * x[c]
        dots[lo:lo + block] = np.asarray(prod.sum(axis=1)).ravel()
    d2 = np.maximum(sq[rows] + sq[cols] - 2.0 * dots, 0.0)
    return np.append(d2, np.zeros(1, dtype))[support.pair_of]


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
