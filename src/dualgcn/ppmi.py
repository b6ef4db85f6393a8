"""Random-walk co-occurrence counting and the positive PMI transform.

The frequency matrix counts node pairs that co-occur within a window
along sampled walks; an exact-expectation oracle computes the same
quantity from powers of the (substochastic) transition matrix so the
sampler can be validated.  PPMI entries use the natural log; the base
only rescales the matrix uniformly and is absorbed by the weights.
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
    "FrequencyMatrix",
    "PpmiMatrix",
    "random_walk",
    "frequency_matrix",
    "exact_frequency_matrix",
    "ppmi",
    "ppmi_operator",
    "save_ppmi_cache",
]


@dataclass(frozen=True)
class WalkConfig:
    """Walk length q, co-occurrence window w, walks per start node, seed."""

    q: int = 3
    w: int = 3
    gamma_walks: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.q < 1:
            raise ConfigError(f"walk length q must be >= 1, got {self.q}")
        if not 1 <= self.w <= self.q:
            raise ConfigError(f"window w must be in [1, q], got w={self.w}, q={self.q}")
        if self.gamma_walks < 1:
            raise ConfigError(f"gamma_walks must be >= 1, got {self.gamma_walks}")


@dataclass(frozen=True)
class FrequencyMatrix:
    """Symmetric non-negative pair-count matrix (sparse)."""

    F: sp.csr_matrix = field(repr=False)

    @property
    def n(self) -> int:
        return self.F.shape[0]


@dataclass(frozen=True)
class PpmiMatrix:
    """Non-negative PPMI matrix."""

    P: sp.csr_matrix = field(repr=False)

    @property
    def n(self) -> int:
        return self.P.shape[0]


def _as_csr(m) -> sp.csr_matrix:
    if sp.issparse(m):
        return sp.csr_matrix(m, dtype=np.float64)
    return sp.csr_matrix(np.asarray(m, dtype=np.float64))


def _batch_walks(m: sp.csr_matrix, starts: np.ndarray, q: int, rng: RngStream) -> np.ndarray:
    """Advance all walkers together; -1 marks positions after truncation.

    Transition i -> j is drawn with probability m_ij / sum_j m_ij; a
    walker at a node with zero out-weight truncates (recorded, not fatal).
    """
    indptr, indices, data = m.indptr, m.indices, m.data
    cum = np.cumsum(data) if data.size else np.zeros(0)
    walks = np.full((starts.size, q + 1), -1, dtype=np.int64)
    walks[:, 0] = starts
    cur = starts.astype(np.int64, copy=True)
    alive = np.ones(starts.size, dtype=bool)
    for step in range(1, q + 1):
        idx = np.flatnonzero(alive)
        if idx.size == 0:
            break
        c = cur[idx]
        lo = indptr[c]
        hi = indptr[c + 1]
        nonempty = hi > lo
        base = np.zeros(idx.size)
        total = np.zeros(idx.size)
        ne = np.flatnonzero(nonempty)
        if ne.size:
            base[ne] = cum[lo[ne]] - data[lo[ne]]
            total[ne] = cum[hi[ne] - 1] - base[ne]
        ok = nonempty & (total > 0)
        dead = idx[~ok]
        alive[dead] = False
        live = idx[ok]
        if live.size == 0:
            continue
        u = rng.random(live.size)
        target = base[ok] + u * total[ok]
        k = np.searchsorted(cum, target, side="right")
        k = np.clip(k, lo[ok], hi[ok] - 1)
        nxt = indices[k]
        cur[live] = nxt
        walks[live, step] = nxt
    return walks


def random_walk(m, start: int, q: int, rng: RngStream) -> list[int]:
    """One walk of up to q steps from start; truncates at dead ends."""
    mat = _as_csr(m)
    if not 0 <= start < mat.shape[0]:
        raise ValueError(f"start node {start} out of range")
    row = _batch_walks(mat, np.array([start], dtype=np.int64), q, rng)[0]
    return [int(v) for v in row if v >= 0]


def _pair_counts(walks: np.ndarray, q: int, w: int, n: int) -> sp.csr_matrix:
    rows, cols = [], []
    for s in range(q):
        for d in range(1, min(w, q - s) + 1):
            a = walks[:, s]
            b = walks[:, s + d]
            valid = (a >= 0) & (b >= 0)
            if not valid.any():
                continue
            rows.append(a[valid])
            rows.append(b[valid])
            cols.append(b[valid])
            cols.append(a[valid])
    if not rows:
        return sp.csr_matrix((n, n), dtype=np.float64)
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    f = sp.coo_matrix((np.ones(r.size), (r, c)), shape=(n, n)).tocsr()
    f.sum_duplicates()
    return f


def frequency_matrix(m, cfg: WalkConfig, rng: RngStream | None = None) -> FrequencyMatrix:
    """Sampled co-occurrence counts: gamma_walks walks of length q per node.

    Every position pair within window distance <= w adds 1 to both
    F[a, b] and F[b, a].  Runtime is O(n * gamma * q^2) plus the walk cost.
    """
    mat = _as_csr(m)
    n = mat.shape[0]
    if rng is None:
        rng = RngStream(cfg.seed, ("ppmi",))
    starts = np.repeat(np.arange(n, dtype=np.int64), cfg.gamma_walks)
    walks = _batch_walks(mat, starts, cfg.q, rng)
    return FrequencyMatrix(F=_pair_counts(walks, cfg.q, cfg.w, n))


def exact_frequency_matrix(m, q: int, w: int) -> FrequencyMatrix:
    """Expected co-occurrence counts per walk-per-node (gamma = 1).

    Uses the substochastic transition matrix (rows of dead-end nodes are
    zero), so truncated walks contribute exactly their realized prefix
    pairs, mirroring the sampler.  Dense in n; intended as an oracle for
    small graphs.
    """
    if q < 1 or not 1 <= w <= q:
        raise ValueError("invalid q/w")
    mat = _as_csr(m).toarray()
    n = mat.shape[0]
    rowsum = mat.sum(axis=1)
    trans = np.divide(mat, rowsum[:, None], out=np.zeros_like(mat), where=rowsum[:, None] > 0)
    powers = [np.eye(n)]
    for _ in range(q):
        powers.append(powers[-1] @ trans)
    occupancy = [np.ones(n)]
    for s in range(1, q):
        occupancy.append(occupancy[-1] @ trans)
    acc = np.zeros((n, n))
    for s in range(q):
        for d in range(1, min(w, q - s) + 1):
            acc += occupancy[s][:, None] * powers[d]
    full = acc + acc.T
    return FrequencyMatrix(F=sp.csr_matrix(full))


def ppmi(freq: FrequencyMatrix) -> PpmiMatrix:
    """Positive pointwise mutual information of the co-occurrence counts.

    Entries with F[i, j] = 0 are exactly zero (no log of zero is taken);
    positive entries are max(ln(p_ij / (p_i* p_*j)), 0).
    """
    f = freq.F
    total = float(f.sum())
    if total <= 0:
        raise ValueError("ppmi: all-zero frequency matrix")
    rowsum = np.asarray(f.sum(axis=1)).ravel()
    colsum = np.asarray(f.sum(axis=0)).ravel()
    coo = f.tocoo()
    ratio = coo.data * total / (rowsum[coo.row] * colsum[coo.col])
    vals = np.log(ratio)
    keep = vals > 0
    p = sp.csr_matrix((vals[keep], (coo.row[keep], coo.col[keep])), shape=f.shape)
    return PpmiMatrix(P=p)


def ppmi_operator(p: PpmiMatrix) -> sp.csr_matrix:
    """Symmetric normalization of the PPMI matrix."""
    return sym_normalize(p.P)


# ---------------------------------------------------------------------------
# cache file: "# ppmi n=<n> q=<q> w=<w> gamma=<g> seed=<s>" then i<TAB>j<TAB>v
# ---------------------------------------------------------------------------

def save_ppmi_cache(fh, p: PpmiMatrix, cfg: WalkConfig) -> None:
    """Write the cache file to a binary file object."""
    coo = p.P.tocoo()
    lines = [f"# ppmi n={p.n} q={cfg.q} w={cfg.w} gamma={cfg.gamma_walks} seed={cfg.seed}\n"]
    lines += [f"{i}\t{j}\t{v:.17g}\n" for i, j, v in zip(coo.row, coo.col, coo.data)]
    fh.write("".join(lines).encode())
