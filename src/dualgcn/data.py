"""Dataset loading, the standard transductive split, and built-in data.

Canonical on-disk layout (plain text, one directory per dataset):

    features.csv   comma-separated reals, one node per row
    labels.txt     one integer class per line
    edges.tsv      optional; "i<TAB>j[<TAB>w]", '#' comments allowed
    train.txt / val.txt / test.txt   optional node-id lists
    manifest.txt   optional "n=..., classes=..." assertions

Features are stored sparse when they are mostly zeros, which is the
normal case for bag-of-words citation data.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError
from .graph import Graph, build_graph, read_edge_list, write_edge_list
from .rng import RngStream

__all__ = [
    "DatasetBundle",
    "SplitSpec",
    "load_dataset",
    "save_dataset",
    "make_planetoid_split",
    "builtin_karate",
    "resolve_dataset",
]

_SPARSE_DENSITY_CUTOFF = 0.25
_FEATURE_CHUNK_ROWS = 256


@dataclass(frozen=True)
class SplitSpec:
    """Per-class train count plus validation/test pool sizes."""

    per_class_train: int = 20
    val_size: int = 500
    test_size: int = 1000
    seed: int = 0

    def __post_init__(self):
        if self.per_class_train < 1:
            raise ConfigError("per_class_train must be >= 1")
        if self.val_size < 0 or self.test_size < 0:
            raise ConfigError("val_size and test_size must be >= 0")


@dataclass(frozen=True)
class DatasetBundle:
    """Features, labels, optional graph and train/val/test masks."""

    name: str
    x: object  # (n, p) ndarray or CSR matrix
    y: np.ndarray
    graph: Graph | None = None
    train_mask: np.ndarray | None = None
    val_mask: np.ndarray | None = None
    test_mask: np.ndarray | None = None
    class_count: int = 0

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def has_masks(self) -> bool:
        return self.train_mask is not None and self.val_mask is not None and self.test_mask is not None

    def validate(self) -> None:
        if self.y.shape[0] != self.n:
            raise DataError(f"labels rows ({self.y.shape[0]}) != feature rows ({self.n})")
        if self.graph is not None and self.graph.n != self.n:
            raise DataError(f"graph nodes ({self.graph.n}) != feature rows ({self.n})")
        if self.y.min() < 0 or self.y.max() >= self.class_count:
            raise DataError(f"label outside [0, {self.class_count})")
        masks = [m for m in (self.train_mask, self.val_mask, self.test_mask) if m is not None]
        for m in masks:
            if m.shape != (self.n,):
                raise DataError("mask length mismatch")
        for i in range(len(masks)):
            for j in range(i + 1, len(masks)):
                if (masks[i] & masks[j]).any():
                    raise DataError("masks overlap")


def _load_features(path) -> np.ndarray | sp.csr_matrix:
    """Parse features.csv _FEATURE_CHUNK_ROWS data rows at a time into CSR
    blocks, so the text is never held as one dense array; the result is
    densified when at least _SPARSE_DENSITY_CUTOFF of it is nonzero."""
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError:
        raise DataError(f"missing features file: {path}")
    blocks, width, nonzero = [], None, 0
    with fh:
        while raw := list(itertools.islice(fh, _FEATURE_CHUNK_ROWS)):
            # blank and comment-only lines would make a chunk of no data
            lines = [line for line in raw if line.split("#", 1)[0].strip()]
            if not lines:
                continue
            try:
                chunk = np.loadtxt(lines, delimiter=",", dtype=np.float64, ndmin=2)
            except ValueError as exc:
                raise DataError(f"{path}: {exc}")
            if width is not None and chunk.shape[1] != width:
                raise DataError(f"{path}: rows have {width} and {chunk.shape[1]} columns")
            width = chunk.shape[1]
            nonzero += np.count_nonzero(chunk)
            # -0.0 is stored too, so a dense result keeps its sign bit
            r, c = np.nonzero((chunk != 0) | np.signbit(chunk))
            blocks.append(sp.csr_matrix((chunk[r, c], (r, c)), shape=chunk.shape))
    if not blocks:
        return np.empty((0, 1))
    x = sp.vstack(blocks, format="csr")
    if nonzero / (x.shape[0] * width) < _SPARSE_DENSITY_CUTOFF:
        x.eliminate_zeros()
        return x
    # assigned, not summed into zeros as toarray() does, which turns -0.0 into 0.0
    dense = np.zeros(x.shape)
    dense[np.repeat(np.arange(x.shape[0]), np.diff(x.indptr)), x.indices] = x.data
    return dense


def _load_ids(path, n: int) -> np.ndarray:
    with open(path, "r", encoding="utf-8") as fh:
        ids = np.array([int(line) for line in fh if line.strip()], dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        raise DataError(f"{path}: node id out of range")
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return mask


def _parse_manifest(path) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            for token in raw.replace(",", " ").split():
                if "=" in token:
                    k, v = token.split("=", 1)
                    out[k.strip()] = int(v)
    return out


def load_dataset(path, name: str | None = None) -> DatasetBundle:
    """Load a dataset directory; validates counts against manifest.txt."""
    if not os.path.isdir(path):
        raise DataError(f"dataset directory not found: {path}")
    name = name or os.path.basename(os.path.normpath(path))
    feat_path = os.path.join(path, "features.csv")
    label_path = os.path.join(path, "labels.txt")
    if not os.path.isfile(feat_path):
        raise DataError(f"missing features.csv in {path}")
    if not os.path.isfile(label_path):
        raise DataError(f"missing labels.txt in {path}")
    x = _load_features(feat_path)
    y = np.loadtxt(label_path, dtype=np.int64, ndmin=1)
    n = x.shape[0]
    if y.shape[0] != n:
        raise DataError(f"labels.txt has {y.shape[0]} rows, features.csv has {n}")
    class_count = int(y.max()) + 1 if y.size else 0

    graph = None
    edge_path = os.path.join(path, "edges.tsv")
    if os.path.isfile(edge_path):
        edges, _ = read_edge_list(edge_path, n=n)
        graph = build_graph(edges, n)

    manifest_path = os.path.join(path, "manifest.txt")
    if os.path.isfile(manifest_path):
        manifest = _parse_manifest(manifest_path)
        checks = {"n": n, "classes": class_count, "features": x.shape[1]}
        if graph is not None:
            checks["edges"] = graph.num_edges
        for key, expected in manifest.items():
            if key in checks and checks[key] != expected:
                raise DataError(f"manifest mismatch: {key}={expected} but dataset has {checks[key]}")

    masks = {}
    for part in ("train", "val", "test"):
        part_path = os.path.join(path, f"{part}.txt")
        if os.path.isfile(part_path):
            masks[part] = _load_ids(part_path, n)
    bundle = DatasetBundle(
        name=name,
        x=x,
        y=y,
        graph=graph,
        train_mask=masks.get("train"),
        val_mask=masks.get("val"),
        test_mask=masks.get("test"),
        class_count=class_count,
    )
    bundle.validate()
    return bundle


def save_dataset(bundle: DatasetBundle, path) -> None:
    """Write a bundle back out in the canonical directory layout."""
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


def make_planetoid_split(bundle: DatasetBundle, spec: SplitSpec):
    """Standard transductive split: fixed per-class train, then val/test.

    Train takes the first per_class_train nodes of each class under a
    seeded shuffle; val and test are drawn from the remainder without
    overlap.  Returns (train_mask, val_mask, test_mask).
    """
    y = bundle.y
    n = bundle.n
    rng = RngStream(spec.seed, ("split",))
    train = np.zeros(n, dtype=bool)
    for c in range(bundle.class_count):
        members = np.flatnonzero(y == c)
        if members.size < spec.per_class_train:
            raise DataError(f"class {c} has {members.size} nodes, needs {spec.per_class_train}")
        chosen = rng.child("class", c).permutation(members)[: spec.per_class_train]
        train[chosen] = True
    rest = np.flatnonzero(~train)
    if rest.size < spec.val_size + spec.test_size:
        raise DataError(
            f"need {spec.val_size + spec.test_size} non-train nodes for val+test, have {rest.size}"
        )
    order = rng.child("rest").permutation(rest)
    val = np.zeros(n, dtype=bool)
    test = np.zeros(n, dtype=bool)
    val[order[: spec.val_size]] = True
    test[order[spec.val_size : spec.val_size + spec.test_size]] = True
    return train, val, test


def with_split(bundle: DatasetBundle, spec: SplitSpec) -> DatasetBundle:
    train, val, test = make_planetoid_split(bundle, spec)
    out = replace(bundle, train_mask=train, val_mask=val, test_mask=test)
    out.validate()
    return out


def builtin_karate(train_seed: int | None = None) -> DatasetBundle:
    """The 34-node karate social network with 4-class modularity labels.

    Features are one-hot node ids (the source network defines none).
    Train holds one node per class: the lowest-index member by default,
    or a seeded random member when train_seed is given.  The remaining
    30 nodes are split 15/15 into val and test.
    """
    assets = resources.files("dualgcn") / "assets"
    with resources.as_file(assets / "karate_edges.tsv") as p:
        edges, _ = read_edge_list(p, n=34)
    with resources.as_file(assets / "karate_labels.txt") as p:
        y = np.loadtxt(p, dtype=np.int64)
    graph = build_graph(edges, 34)
    x = np.eye(34)
    train = np.zeros(34, dtype=bool)
    for c in range(4):
        members = np.flatnonzero(y == c)
        if train_seed is None:
            pick = members[0]
        else:
            pick = RngStream(train_seed, ("karate-train", c)).choice(members)
        train[pick] = True
    rest = np.flatnonzero(~train)
    order = RngStream(0 if train_seed is None else train_seed, ("karate-split",)).permutation(rest)
    val = np.zeros(34, dtype=bool)
    test = np.zeros(34, dtype=bool)
    val[order[:15]] = True
    test[order[15:]] = True
    bundle = DatasetBundle(
        name="karate",
        x=x,
        y=y,
        graph=graph,
        train_mask=train,
        val_mask=val,
        test_mask=test,
        class_count=4,
    )
    bundle.validate()
    return bundle


def resolve_dataset(name_or_path: str, data_dir: str | None = None) -> DatasetBundle:
    """Resolve a CLI dataset argument: builtin name, path, or name under
    the data root (argument or GLDGCN_DATA_DIR)."""
    if name_or_path == "karate":
        return builtin_karate()
    if os.path.isdir(name_or_path):
        return load_dataset(name_or_path)
    root = data_dir or os.environ.get("GLDGCN_DATA_DIR")
    if root:
        candidate = os.path.join(root, name_or_path)
        if os.path.isdir(candidate):
            return load_dataset(candidate)
    raise DataError(
        f"dataset '{name_or_path}' not found (not a directory, not under GLDGCN_DATA_DIR, not builtin)"
    )
