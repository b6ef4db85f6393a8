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

from .errors import DataError

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


def build_graph(edges, n: int) -> Graph:
    """Build a symmetric Graph from an (m, 2) array of (i, j) rows or an
    (m, 3) array of (i, j, w) rows (a list of such tuples will do).

    Duplicate (i, j) entries collapse by summing weights; self-edges are
    kept as given (not doubled by symmetrization).  Three columns make the
    graph weighted.
    """
    n = int(n)
    if n < 0:
        raise ValueError("node count must be non-negative")
    edges = np.asarray(edges)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] not in (2, 3):
        raise ValueError(f"edges must be (m, 2) or (m, 3), got shape {edges.shape}")
    i, j = edges[:, 0].astype(np.int64), edges[:, 1].astype(np.int64)
    w = edges[:, 2].astype(np.float64) if edges.shape[1] == 3 else np.ones(len(edges))
    bad = np.flatnonzero((i < 0) | (i >= n) | (j < 0) | (j >= n))
    if bad.size:
        k = bad[0]
        raise ValueError(f"edge ({i[k]},{j[k]}) out of range for n={n}")
    bad = np.flatnonzero(~(w > 0))
    if bad.size:
        k = bad[0]
        raise ValueError(f"edge ({i[k]},{j[k]}) has non-positive weight {w[k]}")
    off = i != j
    adj = sp.coo_matrix(
        (np.concatenate([w, w[off]]), (np.concatenate([i, j[off]]), np.concatenate([j, i[off]]))),
        shape=(n, n),
    ).tocsr()
    adj.sum_duplicates()
    return Graph(n=n, adj=adj, is_weighted=edges.shape[1] == 3)


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


def _parse_decimal(b: np.ndarray, first: np.ndarray, stop: np.ndarray):
    """Values of the tokens b[first:stop] read as decimal integers, and a
    mask of the tokens that are not 1 to 18 ASCII digits."""
    length = stop - first
    invalid = length > 18
    value = np.zeros(len(first), dtype=np.int64)
    for k in range(min(int(length.max(initial=0)), 18)):
        live = length > k
        d = b[np.where(live, first + k, 0)].astype(np.int64) - ord("0")
        invalid |= live & ((d < 0) | (d > 9))
        value = np.where(live, value * 10 + d, value)
    return value, invalid


def _parse_reals(b: np.ndarray, first: np.ndarray, stop: np.ndarray):
    """The tokens b[first:stop] read as float64, and the index of the first
    one that is not a number (None when every one is)."""
    width = int((stop - first).max(initial=1))
    at = first[:, None] + np.arange(width)
    padded = np.where(at < stop[:, None], b[np.minimum(at, len(b) - 1)], 0).astype(np.uint8)
    tokens = padded.view(f"S{width}").ravel()
    try:
        return tokens.astype(np.float64), None
    except ValueError:
        pass
    # NumPy does not say which token it rejected
    values = np.empty(len(tokens))
    for k, token in enumerate(tokens):
        try:
            values[k] = float(token)
        except ValueError:
            return values, k
    return values, None


def read_edge_list(path, n: int | None = None):
    """Parse the edge-list text format.

    One edge per line: "i j" or "i j w", fields separated by tabs or
    spaces, with 0-based decimal node ids and a positive weight.  Lines
    whose first non-blank character is '#', and blank lines, are skipped.
    Returns (edges, n): edges is an (m, 2) int64 array, or, when any line
    has a weight, an (m, 3) float64 array with w = 1 on the two-field
    lines.  n is max index + 1 unless given; given, ids are checked
    against it.  A malformed line raises DataError naming the file and
    its line number.
    """
    with open(path, "rb") as fh:
        raw = fh.read() + b"\n"
    if b"\r" in raw:  # universal newlines, as a text-mode read splits them
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    b = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(b == ord("\n"))
    blank = np.isin(b, np.frombuffer(b" \t\n\v\f", dtype=np.uint8))
    first = np.flatnonzero(~blank & np.concatenate(([True], blank[:-1])))
    stop = np.flatnonzero(~blank & np.concatenate((blank[1:], [True]))) + 1
    line = np.searchsorted(ends, first)  # 0-based line of each token
    lead = np.diff(line, prepend=-1) != 0  # first token of its line
    keep = ~np.isin(line, line[lead & (b[first] == ord("#"))])  # drop comment lines
    first, stop, line, lead = first[keep], stop[keep], line[keep], lead[keep]

    def fail(token, message):
        raise DataError(f"{path}:{line[token] + 1}: {message}")

    def text(token):
        return b[first[token]:stop[token]].tobytes().decode("utf-8", "replace")

    fields = np.bincount(line, minlength=len(ends))[line]
    bad = np.flatnonzero((fields != 2) & (fields != 3))
    if bad.size:
        fail(bad[0], f"expected 2 or 3 fields, got {fields[bad[0]]}")
    column = np.arange(len(first)) - np.flatnonzero(lead)[np.cumsum(lead) - 1]
    id_tokens = np.flatnonzero(column < 2)
    ids, invalid = _parse_decimal(b, first[id_tokens], stop[id_tokens])
    if invalid.any():
        k = id_tokens[np.argmax(invalid)]
        fail(k, f"node id {text(k)!r} is not a decimal number of at most 18 digits")
    if n is None:
        n = int(ids.max(initial=-1)) + 1
    elif ids.size and ids.max() >= n:
        k = np.argmax(ids >= n)
        fail(id_tokens[k], f"node id {ids[k]} out of range for n={n}")
    edges = ids.reshape(-1, 2)
    w_tokens = np.flatnonzero(column == 2)
    if w_tokens.size:
        w, bad = _parse_reals(b, first[w_tokens], stop[w_tokens])
        if bad is not None:
            fail(w_tokens[bad], f"weight {text(w_tokens[bad])!r} is not a number")
        if not (w > 0).all():
            k = w_tokens[np.argmin(w > 0)]
            fail(k, f"weight {text(k)!r} is not positive")
        weighted = np.ones((len(edges), 3))
        weighted[:, :2] = edges
        weighted[np.cumsum(lead)[w_tokens] - 1, 2] = w
        edges = weighted
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
