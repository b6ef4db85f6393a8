"""Sparse undirected graphs and the symmetric propagation operator.

A Graph wraps a CSR adjacency that is exactly symmetric, deduplicated
(duplicate input edges sum their weights) and strictly positive.  The
propagation operator D^{-1/2} M D^{-1/2} is built from any non-negative
square matrix; zero-degree rows map to zero rows rather than NaN so
isolated nodes survive real datasets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import DataError

# dataset text is parsed this many bytes at a time: a few byte-sized masks
# of one block are the parse's transient, on top of the arrays it builds
_BLOCK_BYTES = 1 << 19

__all__ = [
    "Graph",
    "build_graph",
    "add_self_loops",
    "sym_normalize",
    "read_edge_list",
]


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph with weighted CSR adjacency.

    support, the SupportStructure of A + I, is built on first read and kept
    for the graph's lifetime, so every fit and predict on the graph shares
    one; its arrays are read-only, as a write would reach all of them, and
    so are loop_values' and frozen_op's.  A new Graph (dataclasses.replace
    included) builds its own.
    """

    n: int
    adj: sp.csr_matrix = field(repr=False)

    @cached_property
    def support(self):
        """The SupportStructure of A + I (~12 B per entry with int32 indices)."""
        from .graphlearn import SupportStructure  # graphlearn imports this module

        s = SupportStructure(add_self_loops(self))
        for a in (s.indptr, s.cols, s.pair_rows, s.pair_cols, s.pair_of):
            a.flags.writeable = False
        return s

    @cached_property
    def loop_values(self) -> np.ndarray:
        """A + I's values on support's entries, read-only."""
        values = add_self_loops(self).adj.data
        values.flags.writeable = False
        return values

    @cached_property
    def frozen_op(self) -> sp.csr_matrix:
        """D^{-1/2} (A + I) D^{-1/2} on support's pattern: the frozen affinity."""
        s = self.support
        op = sym_normalize(sp.csr_matrix((self.loop_values, s.cols, s.indptr), shape=(self.n, self.n)))
        for a in (op.data, op.indices, op.indptr):
            a.flags.writeable = False
        return op

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
    kept as given (not doubled by symmetrization).  Without a weight
    column every edge weighs 1.
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
    return Graph(n=n, adj=adj)


def add_self_loops(g: Graph) -> Graph:
    """Return the graph of A + I; existing self-loops are incremented."""
    adj = (g.adj + sp.eye(g.n, format="csr", dtype=np.float64)).tocsr()
    adj.sum_duplicates()
    return Graph(n=g.n, adj=adj)


def sym_normalize(m) -> sp.csr_matrix:
    """D^{-1/2} m D^{-1/2} with D the row-sum degrees of m.

    Zero-degree rows (and columns) map to zero: 0^{-1/2} * 0 is defined
    as 0 here, so isolated nodes never produce NaN.
    """
    mat = sp.csr_matrix(m, dtype=np.float64)
    if mat.shape[0] != mat.shape[1]:
        raise ValueError("sym_normalize expects a square matrix")
    if mat.nnz and mat.data.min() < 0:
        raise ValueError("sym_normalize expects a non-negative matrix")
    d = np.asarray(mat.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        dinv = np.where(d > 0, d, 1.0) ** -0.5
    dinv[d <= 0] = 0.0
    # row ids in the index dtype, and the products taken in place: the
    # transient is one float64 gather on top of data
    data = dinv[np.repeat(np.arange(mat.shape[0], dtype=mat.indices.dtype), np.diff(mat.indptr))]
    data *= mat.data
    data *= dinv[mat.indices]
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


def _universal_newlines(raw: bytes) -> bytes:
    """raw with CR LF and a lone CR turned into LF, as a text-mode read splits lines."""
    if b"\r" in raw:
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return raw


def _line_blocks(path, block_bytes: int):
    """Yield a file as bytes of whole lines, block_bytes at a time; every
    block ends in a newline, a missing final one added, and CR LF and a
    lone CR end lines as a text-mode read splits them."""
    with open(path, "rb") as fh:
        tail = b""
        while chunk := fh.read(block_bytes):
            # a chunk's final CR may be the first half of a CR LF
            cut = (chunk.rfind(b"\n") + 1) or (chunk.rfind(b"\r", 0, len(chunk) - 1) + 1)
            if not cut:
                tail += chunk
                continue
            block, tail = tail + memoryview(chunk)[:cut], chunk[cut:]
            del chunk  # one copy of the text stays alive while a block is parsed
            yield _universal_newlines(block)
        if tail:
            yield _universal_newlines(tail + b"\n")


def _edge_block(raw: bytes, path, first_line: int, n: int) -> np.ndarray:
    """One block of edge-list lines as read_edge_list returns them: (m, 2)
    int64, or (m, 3) float64 when a line has a weight; first_line is the
    file line the block starts on."""
    b = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(b == ord("\n"))
    blank = np.isin(b, np.frombuffer(b" \t\n\v\f", dtype=np.uint8))
    first = np.flatnonzero(~blank & np.concatenate(([True], blank[:-1])))
    stop = np.flatnonzero(~blank & np.concatenate((blank[1:], [True]))) + 1
    line = np.searchsorted(ends, first)  # 0-based line of each token
    lead = np.diff(line, prepend=-1) != 0  # first token of its line
    keep = ~np.isin(line, line[lead & (b[first] == ord("#"))])  # drop comment lines
    first, stop, line, lead = first[keep], stop[keep], line[keep], lead[keep]

    def text(token):
        return b[first[token]:stop[token]].tobytes().decode("utf-8", "replace")

    fails = []  # each check's first bad token: the lowest line is named
    fields = np.bincount(line, minlength=len(ends))[line]
    bad = np.flatnonzero((fields != 2) & (fields != 3))
    if bad.size:
        fails.append((bad[0], f"expected 2 or 3 fields, got {fields[bad[0]]}"))
    column = np.arange(len(first)) - np.flatnonzero(lead)[np.cumsum(lead) - 1]
    id_tokens = np.flatnonzero(column < 2)
    ids, invalid = _parse_decimal(b, first[id_tokens], stop[id_tokens])
    if invalid.any():
        k = id_tokens[np.argmax(invalid)]
        fails.append((k, f"node id {text(k)!r} is not a decimal number of at most 18 digits"))
    out = (ids >= n) & ~invalid
    if out.any():
        k = np.argmax(out)
        fails.append((id_tokens[k], f"node id {ids[k]} out of range for n={n}"))
    w_tokens = np.flatnonzero(column == 2)
    w, bad = _parse_reals(b, first[w_tokens], stop[w_tokens])
    if bad is not None:
        fails.append((w_tokens[bad], f"weight {text(w_tokens[bad])!r} is not a number"))
    if not (w[:bad] > 0).all():
        k = w_tokens[np.argmin(w[:bad] > 0)]
        fails.append((k, f"weight {text(k)!r} is not positive"))
    if fails:
        token, message = min(fails, key=lambda fail: line[fail[0]])
        raise DataError(f"{path}:{first_line + line[token]}: {message}")
    edges = ids.reshape(-1, 2)
    if w_tokens.size:
        weighted = np.ones((len(edges), 3))
        weighted[:, :2] = edges
        weighted[np.cumsum(lead)[w_tokens] - 1, 2] = w
        edges = weighted
    return edges


def read_edge_list(path, n: int) -> np.ndarray:
    """Parse the edge-list text format of a graph on nodes 0..n-1.

    One edge per line: "i j" or "i j w", fields separated by tabs or
    spaces, with 0-based decimal node ids below n and a positive weight.
    Lines whose first non-blank character is '#', and blank lines, are
    skipped.  Returns an (m, 2) int64 array, or, when any line has a
    weight, an (m, 3) float64 array with w = 1 on the two-field lines.
    A malformed line raises DataError naming the file and its line number.
    The file is parsed _BLOCK_BYTES of lines at a time, so the transient
    is one block's tokens, not the whole file's.
    """
    blocks, line = [], 1
    for raw in _line_blocks(path, _BLOCK_BYTES):
        blocks.append(_edge_block(raw, path, line, n))
        line += raw.count(b"\n")
    if not blocks:
        return np.empty((0, 2), dtype=np.int64)
    if any(e.shape[1] == 3 for e in blocks):
        blocks = [e if e.shape[1] == 3 else np.column_stack((e, np.ones(len(e)))) for e in blocks]
    return np.concatenate(blocks)
