"""Dataset loading, the standard transductive split, and built-in data.

Canonical on-disk layout (plain text, one directory per dataset):

    features.csv   comma-separated reals, one node per row
    labels.txt     one integer class per line
    edges.tsv      optional; "i j [w]" separated by tabs or spaces, '#' comments allowed
    train.txt / val.txt / test.txt   optional node-id lists
    manifest.txt   optional "n=..., classes=..." assertions

Features are stored sparse when they are mostly zeros, which is the
normal case for bag-of-words citation data.
"""

from __future__ import annotations

import os
import warnings
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
# features.csv is parsed this many bytes at a time: a few byte-sized masks
# of one block are the parse's transient, on top of the CSR it builds
_FEATURE_BLOCK_BYTES = 1 << 19


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


def _feature_blocks(path):
    """Yield features.csv as bytes of whole lines, _FEATURE_BLOCK_BYTES at
    a time; every block ends in a newline, a missing final one added."""
    try:
        fh = open(path, "rb")
    except OSError:
        raise DataError(f"missing features file: {path}")
    with fh:
        tail = b""
        while chunk := fh.read(_FEATURE_BLOCK_BYTES):
            cut = chunk.rfind(b"\n") + 1
            if not cut:
                tail += chunk
                continue
            block, tail = tail + memoryview(chunk)[:cut], chunk[cut:]
            del chunk  # one copy of the text stays alive while a block is parsed
            yield block
        if tail:
            yield tail + b"\n"


def _parse_feature_block(raw: bytes, path):
    """One block of lines as CSR parts, one row per data line: the entries
    of each row, their columns and their values, and the row width; None
    when the block holds no data line.

    A line of one-byte fields (a digit between commas) is decoded straight
    from the bytes; any other line goes to np.loadtxt, and blank and
    comment lines make no row.  Entries are stored for nonzero values and
    for -0.0, so a dense result keeps its sign bit.
    """
    if b"\r" in raw:  # universal newlines, as a text-mode read splits them
        raw = raw.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    b = np.frombuffer(raw, dtype=np.uint8)
    ends = np.flatnonzero(b == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts
    lead = b[starts]
    zero = np.uint8(ord("0"))
    # a line's first, second and last bytes rule out most lines that are not
    # one-byte fields, every real-valued one among them, before a byte-wise pass
    second = b[np.minimum(starts + 1, len(b) - 1)]
    fast = ((lengths % 2 == 1) & (lead - zero < 10) & (b[ends - 1] - zero < 10)
            & ((lengths == 1) | (second == ord(","))))
    if fast.any():
        digit = b - zero < 10
        # a one-byte-field line alternates digit and non-digit from its first
        # byte (a digit) to its newline (a non-digit); the byte before a line
        # start is a newline, so the shifted array restarts at each line
        bad = np.empty_like(digit)
        bad[0] = not digit[0]
        np.equal(digit[1:], digit[:-1], out=bad[1:])
        bad |= ~digit & (b != ord(",")) & (b != ord("\n"))
        fast &= ~np.logical_or.reduceat(bad, starts)
    # any other line holds data unless it is blank or a comment; one led by
    # anything but printable ASCII gets a closer look
    slow = ~fast & (lead != ord("#")) & (lead != ord("\n"))
    for k in np.flatnonzero(slow & ((lead <= ord(" ")) | (lead > ord("~")))):
        slow[k] = raw[starts[k]:ends[k]].decode("utf-8", "replace").lstrip()[:1] not in ("", "#")
    has_row = fast | slow
    row_of_line = np.cumsum(has_row) - 1
    rows, cols, vals, widths = [], [], [], set()
    if fast.any():
        widths.update(np.unique((lengths[fast] + 1) // 2).tolist())
        nonzero = digit & (b != zero)
        if not fast.all():
            nonzero &= np.repeat(fast, lengths + 1)
        pos = np.flatnonzero(nonzero)
        line = np.searchsorted(ends, pos)
        rows.append(row_of_line[line])
        cols.append((pos - starts[line]) // 2)
        vals.append((b[pos] - zero).astype(np.float64))
    if slow.any():
        try:  # a UnicodeDecodeError is a ValueError too
            text = raw.decode("utf-8").split("\n")
            chunk = np.loadtxt([text[k] for k in np.flatnonzero(slow)], delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise DataError(f"{path}: {exc}")
        widths.add(chunk.shape[1])
        r, c = np.nonzero(chunk.view(np.int64))  # every value but +0.0 has a set bit
        rows.append(row_of_line[slow][r])
        cols.append(c)
        vals.append(chunk[r, c])
    if len(widths) > 1:
        raise DataError(f"{path}: rows have {min(widths)} and {max(widths)} columns")
    if not widths:
        return None
    mixed = len(rows) > 1
    # int32 columns, as scipy stores them: a row is far narrower than 2**31
    rows, cols, vals = np.concatenate(rows), np.concatenate(cols).astype(np.int32), np.concatenate(vals)
    if mixed:  # fast and slow rows interleave: sort the entries by row
        order = np.argsort(rows, kind="stable")
        cols, vals = cols[order], vals[order]
    return np.bincount(rows, minlength=int(has_row.sum())), cols, vals, widths.pop()


def _load_features(path) -> np.ndarray | sp.csr_matrix:
    """Parse features.csv one block of lines at a time into CSR, so the text
    is never held as one dense array; the result is densified when at least
    _SPARSE_DENSITY_CUTOFF of it is nonzero."""
    counts, cols, vals, width = [], [], [], None
    for raw in _feature_blocks(path):
        block = _parse_feature_block(raw, path)
        if block is None:
            continue
        if width is not None and block[3] != width:
            raise DataError(f"{path}: rows have {width} and {block[3]} columns")
        width = block[3]
        for parts, part in zip((counts, cols, vals), block):
            parts.append(part)
    if width is None:
        raise DataError(f"{path}: no feature rows")
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    x = sp.csr_matrix((np.concatenate(vals), np.concatenate(cols), indptr), shape=(len(indptr) - 1, width))
    if np.count_nonzero(x.data) / (x.shape[0] * x.shape[1]) < _SPARSE_DENSITY_CUTOFF:
        x.eliminate_zeros()
        return x
    # assigned, not summed into zeros as toarray() does, which turns -0.0 into 0.0
    dense = np.zeros(x.shape)
    dense[np.repeat(np.arange(x.shape[0]), np.diff(x.indptr)), x.indices] = x.data
    return dense


def _load_ints(path) -> np.ndarray:
    """One integer per line; '#' comments and blank lines are skipped."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty file is no error here
            values = np.loadtxt(path, dtype=np.int64, ndmin=1)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}")
    if values.ndim != 1:
        raise DataError(f"{path}: expected one integer per line")
    return values


def _load_ids(path, n: int) -> np.ndarray:
    ids = _load_ints(path)
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
    y = _load_ints(label_path)
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
        y = _load_ints(p)
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
