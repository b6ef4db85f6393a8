"""Sparse undirected graphs and the symmetric propagation operator.

A Graph wraps a CSR adjacency that is exactly symmetric, deduplicated
(duplicate input edges sum their weights) and strictly positive.  The
propagation operator D^{-1/2} M D^{-1/2} is built from any non-negative
square matrix; zero-degree rows map to zero rows rather than NaN so
isolated nodes survive real datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Graph",
    "build_graph",
    "add_self_loops",
    "sym_normalize",
    "read_edge_list",
    "write_edge_list",
]


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph with weighted CSR adjacency."""

    n: int
    adj: sp.csr_matrix = field(repr=False)
    is_weighted: bool = False

    @property
    def num_edges(self) -> int:
        """Undirected edge count (self-loops count once)."""
        nnz = self.adj.nnz
        diag = int((self.adj.diagonal() != 0).sum())
        return (nnz - diag) // 2 + diag


def build_graph(edge_list, n: int, is_weighted: bool | None = None) -> Graph:
    """Build a symmetric Graph from (i, j) or (i, j, w) tuples.

    Duplicate (i, j) entries collapse by summing weights; self-edges are
    kept as given (not doubled by symmetrization).
    """
    n = int(n)
    if n < 0:
        raise ValueError("node count must be non-negative")
    rows, cols, vals = [], [], []
    weighted = False
    for e in edge_list:
        if len(e) == 2:
            i, j = e
            w = 1.0
        else:
            i, j, w = e
            weighted = True
        i, j, w = int(i), int(j), float(w)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i},{j}) out of range for n={n}")
        if w <= 0:
            raise ValueError(f"edge ({i},{j}) has non-positive weight {w}")
        rows.append(i)
        cols.append(j)
        vals.append(w)
        if i != j:
            rows.append(j)
            cols.append(i)
            vals.append(w)
    adj = sp.coo_matrix(
        (np.asarray(vals, dtype=np.float64), (np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64))),
        shape=(n, n),
    ).tocsr()
    adj.sum_duplicates()
    if is_weighted is None:
        is_weighted = weighted
    return Graph(n=n, adj=adj, is_weighted=bool(is_weighted))


def graph_from_csr(adj: sp.spmatrix, is_weighted: bool = True) -> Graph:
    """Wrap an already-symmetric sparse adjacency (no re-symmetrization)."""
    adj = sp.csr_matrix(adj, dtype=np.float64)
    adj.sum_duplicates()
    return Graph(n=adj.shape[0], adj=adj, is_weighted=is_weighted)


def add_self_loops(g: Graph) -> Graph:
    """Return the graph of A + I; existing self-loops are incremented."""
    adj = (g.adj + sp.eye(g.n, format="csr", dtype=np.float64)).tocsr()
    adj.sum_duplicates()
    return Graph(n=g.n, adj=adj, is_weighted=g.is_weighted)


def sym_normalize(m) -> sp.csr_matrix:
    """D^{-1/2} m D^{-1/2} with D the row-sum degrees of m.

    Zero-degree rows (and columns) map to zero: 0^{-1/2} * 0 is defined
    as 0 here, so isolated nodes never produce NaN.
    """
    if sp.issparse(m):
        mat = sp.csr_matrix(m, dtype=np.float64)
    else:
        mat = sp.csr_matrix(np.asarray(m, dtype=np.float64))
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("sym_normalize expects a square matrix")
    if mat.nnz and mat.data.min() < 0:
        raise ValueError("sym_normalize expects a non-negative matrix")
    d = np.asarray(mat.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        dinv = np.where(d > 0, d, 1.0) ** -0.5
    dinv[d <= 0] = 0.0
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    data = mat.data * dinv[rows] * dinv[mat.indices]
    # fresh index arrays: mat may share them with m, and summing
    # duplicates sorts them in place
    out = sp.csr_matrix((data, mat.indices.copy(), mat.indptr.copy()), shape=mat.shape)
    if not mat.has_canonical_format:
        out.sum_duplicates()
    return out


def read_edge_list(path, n: int | None = None):
    """Parse the tab-separated edge-list text format.

    One edge per line: "i<TAB>j" or "i<TAB>j<TAB>w" with 0-based decimal
    indices.  '#'-prefixed comment lines and blank lines are ignored.
    Returns (edges, n) where n is max index + 1 unless given.
    """
    edges = []
    max_idx = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t") if "\t" in line else line.split()
            if len(parts) == 2:
                i, j = int(parts[0]), int(parts[1])
                edges.append((i, j))
            elif len(parts) == 3:
                i, j = int(parts[0]), int(parts[1])
                edges.append((i, j, float(parts[2])))
            else:
                raise ValueError(f"{path}:{lineno}: expected 2 or 3 fields, got {len(parts)}")
            max_idx = max(max_idx, i, j)
    if n is None:
        n = max_idx + 1
    return edges, n


def write_edge_list(g: Graph, path) -> None:
    """Write the upper triangle (plus self-loops) in the edge-list format."""
    coo = sp.triu(g.adj).tocoo()
    with open(path, "w", encoding="utf-8") as fh:
        for i, j, w in zip(coo.row, coo.col, coo.data):
            if g.is_weighted:
                fh.write(f"{i}\t{j}\t{w:.17g}\n")
            else:
                fh.write(f"{i}\t{j}\n")
