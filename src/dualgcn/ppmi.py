"""Random-walk co-occurrence counting and the positive PMI transform.

The frequency matrix counts node pairs that co-occur within a window
along sampled walks.  PPMI entries use the natural log; the base only
rescales the matrix uniformly and is absorbed by the weights.

The sampled build works in whole arrays: a walk step bisects each
walker's row of the cumulative weights, O(walkers * q * log max row
length) in all, and counting is one sort of the window pairs' keys.
Every matrix stays in CSR order, so no COO round-trip re-sorts it.

Training is the only producer of PPMI: it builds the operator of the
learned affinity S at each refresh (``model._build_ppmi_operator``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError
from .graph import sym_normalize
from .rng import RngStream

__all__ = [
    "WalkConfig",
    "PpmiMatrix",
    "frequency_matrix",
    "ppmi",
    "ppmi_operator",
]


@dataclass(frozen=True)
class WalkConfig:
    """Walk length q, co-occurrence window w, walks per start node."""

    q: int = 3
    w: int = 3
    gamma_walks: int = 10

    def __post_init__(self):
        if self.q < 1:
            raise ConfigError(f"walk length q must be >= 1, got {self.q}")
        if not 1 <= self.w <= self.q:
            raise ConfigError(f"window w must be in [1, q], got w={self.w}, q={self.q}")
        if self.gamma_walks < 1:
            raise ConfigError(f"gamma_walks must be >= 1, got {self.gamma_walks}")


@dataclass(frozen=True)
class PpmiMatrix:
    """Non-negative PPMI matrix."""

    P: sp.csr_matrix = field(repr=False)


def _batch_walks(m: sp.csr_matrix, starts: np.ndarray, q: int, rng: RngStream) -> np.ndarray:
    """Advance all walkers together; -1 marks positions after truncation.

    Transition i -> j is drawn with probability m_ij / sum_j m_ij; a
    walker at a node with zero out-weight truncates (recorded, not fatal).
    Each step bisects the walker's own row of the cumulative weights, so a
    step costs O(log max row length) per walker.  The walks are in m's
    index dtype (int32 here, 4 B per slot).
    """
    indptr, indices, data = m.indptr, m.indices, m.data
    n = m.shape[0]
    cum = np.cumsum(data) if data.size else np.zeros(0)
    lo_n = indptr[:-1].astype(np.int64)
    hi_n = indptr[1:].astype(np.int64)
    nonempty = hi_n > lo_n
    base_n = np.zeros(n)
    total_n = np.zeros(n)
    ne = np.flatnonzero(nonempty)
    base_n[ne] = cum[lo_n[ne]] - data[lo_n[ne]]
    total_n[ne] = cum[hi_n[ne] - 1] - base_n[ne]
    can_step = nonempty & (total_n > 0)
    rounds = int((hi_n - lo_n).max(initial=0)).bit_length()
    walks = np.full((starts.size, q + 1), -1, dtype=indices.dtype)
    walks[:, 0] = starts
    live = np.arange(starts.size)
    cur = walks[:, 0].copy()
    for step in range(1, q + 1):
        ok = can_step[cur]
        live, cur = live[ok], cur[ok]
        if live.size == 0:
            break
        target = base_n[cur] + rng.random(live.size) * total_n[cur]
        # first k in [lo, hi-1] with cum[k] > target, as a right-sided
        # searchsorted over all of cum finds it; a target at or past the
        # row's last cumulative weight ends at hi and is clipped to hi-1
        last = hi_n[cur] - 1
        l, h = lo_n[cur], last
        for _ in range(rounds):
            mid = (l + h) >> 1
            right = cum[mid] <= target
            # integer selects: np.where branches per walker on a coin flip
            l = l + right * (mid + 1 - l)
            h = mid + right * (h - mid)
        cur = indices[np.minimum(l, last)]
        walks[live, step] = cur
    return walks


def _pair_counts(walks: np.ndarray, q: int, w: int, n: int) -> sp.csr_matrix:
    """Window co-occurrence counts of the walks, symmetric with a doubled diagonal.

    Each pair is keyed once as min * n + max, in int32 when every key fits
    (keys reach n * n - 1, so up to n = 46,340) and in int64 above that,
    written column pair by column pair into one preallocated array: 4 or
    8 B per window pair, and a column's keys are its only other transient.
    One sort of the keys gives the upper triangle's entries in CSR order
    and their counts.  Only when a walker truncated are a column pair's
    slots masked to the ones whose two nodes are both set.
    """
    col_pairs = [(s, s + d) for s in range(q) for d in range(1, min(w, q - s) + 1)]
    truncated = walks.min(initial=0) < 0
    key_dtype = np.int32 if n * n - 1 <= np.iinfo(np.int32).max else np.int64
    keys = np.empty(len(col_pairs) * walks.shape[0], dtype=key_dtype)
    end = 0
    for s, t in col_pairs:
        a, b = walks[:, s], walks[:, t]
        if truncated:
            valid = (a >= 0) & (b >= 0)
            a, b = a[valid], b[valid]
        k = slice(end, end + a.size)
        np.minimum(a, b, out=keys[k])
        keys[k] *= n
        keys[k] += np.maximum(a, b)
        end += a.size
    keys = keys[:end]
    keys.sort()
    head = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    del head
    counts = np.diff(starts, append=keys.size).astype(np.float64)
    rows, cols = np.divmod(keys[starts], n)
    del keys, starts
    indptr = np.searchsorted(rows, np.arange(n + 1))
    up = sp.csr_matrix((counts, cols, indptr), shape=(n, n))
    return up + up.T.tocsr()


def frequency_matrix(m, cfg: WalkConfig, rng: RngStream) -> sp.csr_matrix:
    """Sampled co-occurrence counts: gamma_walks walks of length q per node,
    drawn from rng, as a symmetric canonical CSR matrix.

    Every position pair within window distance <= w adds 1 to both
    F[a, b] and F[b, a].  The walks cost O(n * gamma * q * log max row
    length); counting sorts the O(n * gamma * q * w) window pairs once.
    """
    mat = sp.csr_matrix(m, dtype=np.float64)
    n = mat.shape[0]
    starts = np.repeat(np.arange(n, dtype=mat.indices.dtype), cfg.gamma_walks)
    walks = _batch_walks(mat, starts, cfg.q, rng)
    return _pair_counts(walks, cfg.q, cfg.w, n)


def ppmi(freq: sp.spmatrix) -> PpmiMatrix:
    """Positive pointwise mutual information of the sparse co-occurrence counts.

    Entries with F[i, j] = 0 are exactly zero (no log of zero is taken);
    positive entries are max(ln(p_ij / (p_i* p_*j)), 0).
    """
    f = freq.tocsr()
    if not f.has_canonical_format:  # the entries are read in canonical CSR order
        f = f.copy()
        f.sum_duplicates()
    total = float(f.sum())
    if total <= 0:
        raise ValueError("ppmi: all-zero frequency matrix")
    rowsum = np.asarray(f.sum(axis=1)).ravel()
    colsum = np.asarray(f.sum(axis=0)).ravel()
    rows = np.repeat(np.arange(f.shape[0], dtype=f.indices.dtype), np.diff(f.indptr))
    ratio = f.data * total / (rowsum[rows] * colsum[f.indices])
    vals = np.log(ratio)
    keep = vals > 0
    indptr = np.zeros_like(f.indptr)
    np.cumsum(np.bincount(rows[keep], minlength=f.shape[0]), out=indptr[1:])
    p = sp.csr_matrix((vals[keep], f.indices[keep], indptr), shape=f.shape)
    return PpmiMatrix(P=p)


def ppmi_operator(p: PpmiMatrix) -> sp.csr_matrix:
    """Symmetric normalization of the PPMI matrix."""
    return sym_normalize(p.P)
