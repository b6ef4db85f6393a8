"""Seeded input generator for the benchmark workloads.

Writes the canonical dataset layout that ``dualgcn.data.load_dataset``
reads (features.csv, labels.txt, edges.tsv, train/val/test.txt) and
returns the facts of what it wrote.  Everything is vectorised NumPy, so a
pubmed-sized surrogate (n=19717) takes well under a second to build.
Only NumPy is used; the program under test is never imported here.
"""

from __future__ import annotations

import os

import numpy as np

# Zachary's karate club (34 nodes, 78 edges) with the 4-class modularity
# labels the program ships as its builtin dataset.
KARATE_EDGES = (
    "0-1 0-2 0-3 0-4 0-5 0-6 0-7 0-8 0-10 0-11 0-12 0-13 0-17 0-19 0-21 0-31 "
    "1-2 1-3 1-7 1-13 1-17 1-19 1-21 1-30 2-3 2-7 2-8 2-9 2-13 2-27 2-28 2-32 "
    "3-7 3-12 3-13 4-6 4-10 5-6 5-10 5-16 6-16 8-30 8-32 8-33 9-33 13-33 14-32 "
    "14-33 15-32 15-33 18-32 18-33 19-33 20-32 20-33 22-32 22-33 23-25 23-27 "
    "23-29 23-32 23-33 24-25 24-27 24-31 25-31 26-29 26-33 27-33 28-31 28-33 "
    "29-32 29-33 30-32 30-33 31-32 31-33 32-33"
)
KARATE_LABELS = (0, 0, 0, 0, 1, 1, 1, 0, 2, 2, 1, 0, 0, 0, 2, 2, 1,
                 0, 2, 0, 2, 0, 2, 3, 3, 3, 2, 3, 3, 2, 2, 3, 2, 2)


def karate(seed: int):
    """Karate graph, one-hot features, one training node per class.

    The split is drawn once from a fixed stream, not from the seed (which
    still seeds the model): with 15 test nodes, accuracy would otherwise
    move in steps of 1/15 with the split rather than with the program.
    """
    rng = np.random.default_rng([0, 0])
    y = np.asarray(KARATE_LABELS, dtype=np.int64)
    edges = np.array([tuple(map(int, e.split("-"))) for e in KARATE_EDGES.split()], dtype=np.int64)
    x = np.eye(34, dtype=np.uint8)
    train = np.array([rng.choice(np.flatnonzero(y == c)) for c in range(4)])
    rest = rng.permutation(np.setdiff1d(np.arange(34), train))
    return x, y, edges, (np.sort(train), np.sort(rest[:15]), np.sort(rest[15:]))


def citation(seed: int, n: int, p: int, k: int, avg_deg: float = 4.0,
             p_same: float = 0.8, own_words: int = 14, other_words: int = 6,
             per_class_train: int = 20, val: int = 500, test: int = 1000):
    """Citation-shaped surrogate: class-assortative sparse graph and binary
    bag-of-words features drawn mostly from a class-specific vocabulary
    block, with the standard per-class train / val / test split."""
    rng = np.random.default_rng([seed, 1])
    y = rng.integers(0, k, n).astype(np.int64)
    by_class = np.argsort(y, kind="stable")
    class_start = np.searchsorted(y[by_class], np.arange(k))
    class_size = np.bincount(y, minlength=k)

    m = int(n * avg_deg / 2)
    draws = int(m * 1.3) + 64
    i = rng.integers(0, n, draws)
    same = rng.random(draws) < p_same
    pick = rng.random(draws)
    j_same = by_class[class_start[y[i]] + (pick * class_size[y[i]]).astype(np.int64)]
    j_any = (pick * n).astype(np.int64)
    j = np.where(same, j_same, j_any)
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    keys = (lo * n + hi)[lo != hi]
    _, first = np.unique(keys, return_index=True)
    keys = keys[np.sort(first)][:m]
    edges = np.stack([keys // n, keys % n], axis=1)

    block = p // k
    own = rng.integers(0, block, (n, own_words)) + (y * block)[:, None]
    other = rng.integers(0, p, (n, other_words))
    x = np.zeros((n, p), dtype=np.uint8)
    x[np.arange(n)[:, None], np.concatenate([own, other], axis=1)] = 1

    train = np.concatenate([rng.permutation(np.flatnonzero(y == c))[:per_class_train] for c in range(k)])
    rest = rng.permutation(np.setdiff1d(np.arange(n), train))
    return x, y, edges, (np.sort(train), np.sort(rest[:val]), np.sort(rest[val:val + test]))


def write_dataset(path, x, y, edges, split) -> dict:
    """Write the canonical layout and return the input facts."""
    os.makedirs(path, exist_ok=True)
    n, p = x.shape
    # 0/1 features as text without a per-row Python loop: digits
    # interleaved with commas, the last comma of each row a newline
    text = np.full((n, 2 * p), ord(","), dtype=np.uint8)
    text[:, 0::2] = x + ord("0")
    text[:, -1] = ord("\n")
    text.tofile(os.path.join(path, "features.csv"))
    np.savetxt(os.path.join(path, "labels.txt"), y, fmt="%d")
    np.savetxt(os.path.join(path, "edges.tsv"), edges, fmt="%d", delimiter="\t")
    for name, ids in zip(("train", "val", "test"), split):
        np.savetxt(os.path.join(path, f"{name}.txt"), ids, fmt="%d")
    return {
        "n": int(n),
        "p": int(p),
        "undirected_edges": int(len(edges)),
        "feature_nnz": int(np.count_nonzero(x)),
        "class_sizes": np.bincount(y).tolist(),
        "split_sizes": [int(len(ids)) for ids in split],
    }
