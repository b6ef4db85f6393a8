"""Dataset loading, the standard transductive split, and built-in data.

Canonical on-disk layout (plain text, one directory per dataset):

    features.csv   comma-separated reals, one node per row
    labels.txt     one integer class per line
    edges.tsv      "i j [w]" separated by tabs or spaces, '#' comments allowed
    train.txt / val.txt / test.txt   optional node-id lists
    manifest.txt   optional "n=..., classes=..." assertions

Features are stored sparse when they are mostly zeros, which is the
normal case for bag-of-words citation data.  They are float32 when every
value in the file is exact in float32, as 0/1 bag-of-words always is, and
float64 otherwise; the tape keeps that dtype, so such data trains in
float32.  The builtin karate dataset stays float64.
"""

from __future__ import annotations

import itertools
import os
import re
import warnings
from dataclasses import dataclass, replace
from importlib import resources

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError
from .graph import _BLOCK_BYTES as _FEATURE_BLOCK_BYTES
from .graph import Graph, _line_blocks, _universal_newlines, build_graph, read_edge_list
from .rng import RngStream

__all__ = [
    "DatasetBundle",
    "SplitSpec",
    "load_dataset",
    "make_planetoid_split",
    "builtin_karate",
    "resolve_dataset",
]

_SPARSE_DENSITY_CUTOFF = 0.25
# np.loadtxt's row index in its messages; an error names the file line instead
_ROW_INDEX = re.compile(r" at row \d+,")


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
    """Features, labels, graph and train/val/test masks."""

    name: str
    x: object  # (n, p) ndarray or CSR matrix
    y: np.ndarray
    graph: Graph
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
        if self.graph.n != self.n:
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


def _line_values(line: bytes, path, lineno: int, **loadtxt) -> np.ndarray:
    """One file line as np.loadtxt reads it alone, with no rows for a blank
    or comment line; a line it rejects raises DataError naming the line.
    With delimiter=",", a line of blanks, or of blanks then a '#' comment,
    does not parse: callers skip those lines first."""
    try:  # a UnicodeDecodeError is a ValueError too
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a line with no data
            return np.loadtxt([line.decode("utf-8")], ndmin=2, **loadtxt)
    except ValueError as exc:
        raise DataError(f"{path}:{lineno}: {_ROW_INDEX.sub(' at', str(exc))}") from None


def _bad_feature_line(raw: bytes, width, path, first_line) -> DataError:
    """The error for a block that failed to parse as a whole: the first data
    line np.loadtxt rejects on its own, or whose width differs from the
    rows before it (width, from earlier blocks, or None), by its file line."""
    for lineno, line in enumerate(raw.split(b"\n")[:-1], start=first_line):
        if line.lstrip()[:1] in (b"", b"#"):
            continue
        row = _line_values(line, path, lineno, delimiter=",", dtype=np.float64)
        if width is not None and row.shape[1] != width:
            return DataError(f"{path}:{lineno}: {row.shape[1]} columns, the rows before have {width}")
        width = row.shape[1]
    return DataError(f"{path}: the rows from line {first_line} on do not parse")


def _parse_feature_block(raw: bytes, path, first_line: int, width: int | None):
    """One block of lines as CSR parts, one row per data line: the entries
    of each row, their columns and their values, and the row width; None
    when the block holds no data line.  first_line is the file line the
    block starts on, and width that of the rows before it (None if none).

    A block whose bytes alternate digit and comma-or-newline, every line of
    bag-of-words text, is decoded straight from the bytes; any other block
    goes to one np.loadtxt call, its blank and comment lines dropped first.
    Entries are stored for nonzero values and for -0.0, so a dense result
    keeps its sign bit.
    """
    b = np.frombuffer(raw, dtype=np.uint8)
    # one-digit fields read as one little-endian uint16 each, the digit then
    # a comma or newline; less 0x0A30 ("0\n"), such a field is its digit's
    # value when a newline ends it and 0x2200 more when a comma does
    v = b.view("<u2") - np.uint16(0x0A30) if len(b) % 2 == 0 else None
    if v is not None and ((v < 10) | (v - np.uint16(0x2200) < 10)).all():
        last = np.flatnonzero(v < 10)  # each line's last field
        w = int(last[0]) + 1
        if (np.diff(last) != w).any():
            raise _bad_feature_line(raw, width, path, first_line)
        nz = np.flatnonzero((v & 0xFF) != 0)
        r, c = np.divmod(nz, w)
        nrows, vals = len(last), (v[nz] & 0xFF).astype(np.float64)
    else:
        ends = np.flatnonzero(b == ord("\n"))
        starts = np.concatenate(([0], ends[:-1] + 1))
        # each line's first non-blank byte, its newline when it has none
        first, blanks = starts.copy(), np.frombuffer(b" \t\v\f", dtype=np.uint8)
        led = np.isin(b[starts], blanks)
        if led.any():
            ink = np.flatnonzero(~np.isin(b, blanks) & np.repeat(led, ends - starts + 1))
            first[led] = ink[np.searchsorted(ink, starts[led])]
        data = (b[first] != ord("\n")) & (b[first] != ord("#"))
        if not data.any():
            return None
        try:  # a UnicodeDecodeError is a ValueError too
            text = raw if data.all() else b[np.repeat(data, ends - starts + 1)].tobytes()
            grid = np.loadtxt(text.decode("utf-8").split("\n")[:-1], delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError:
            raise _bad_feature_line(raw, width, path, first_line) from None
        nrows, w = grid.shape
        r, c = np.nonzero(grid.view(np.int64))  # every value but +0.0 has a set bit
        vals = grid[r, c]
    if width not in (None, w):
        raise _bad_feature_line(raw, width, path, first_line)
    # int32 columns, as scipy stores them: a row is far narrower than 2**31
    return np.bincount(r, minlength=nrows), c.astype(np.int32), vals, w


def _load_features(path) -> np.ndarray | sp.csr_matrix:
    """Parse features.csv one block of lines at a time into CSR, so the text
    is never held as one dense array; the result is densified when at least
    _SPARSE_DENSITY_CUTOFF of it is nonzero.  It is float32 when every value
    survives the cast to float32 unchanged (-0.0 too), else float64."""
    counts, cols, vals, width = [], [], [], None
    line = 1
    for raw in _line_blocks(path, _FEATURE_BLOCK_BYTES):
        block = _parse_feature_block(raw, path, line, width)
        line += raw.count(b"\n")
        if block is None:
            continue
        width = block[3]
        for parts, part in zip((counts, cols, vals), block):
            parts.append(part)
    if width is None:
        raise DataError(f"{path}: no feature rows")
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    vals = np.concatenate(vals)
    with np.errstate(over="ignore"):  # a value past float32's range reads inf, which differs
        narrow = vals.astype(np.float32)
    if (narrow == vals).all():
        vals = narrow
    del narrow
    x = sp.csr_matrix((vals, np.concatenate(cols), indptr), shape=(len(indptr) - 1, width))
    if np.count_nonzero(x.data) / (x.shape[0] * x.shape[1]) < _SPARSE_DENSITY_CUTOFF:
        x.eliminate_zeros()
        return x
    # assigned, not summed into zeros as toarray() does, which turns -0.0 into 0.0
    dense = np.zeros(x.shape, dtype=x.dtype)
    dense[np.repeat(np.arange(x.shape[0]), np.diff(x.indptr)), x.indices] = x.data
    return dense


def _int_lines(path):
    """Yield (file line, its values) for each line of an integer file that holds data."""
    with open(path, "rb") as fh:
        lines = _universal_newlines(fh.read()).split(b"\n")
    for k, line in enumerate(lines, start=1):
        values = _line_values(line, path, k, dtype=np.int64)
        if values.size:
            yield k, values


def _load_ints(path) -> np.ndarray:
    """One integer per line; '#' comments and blank lines are skipped.

    The file is parsed whole; only when that fails are its lines parsed
    one at a time, so the error names the file line at fault.
    """
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # an empty file is no error here
            values = np.loadtxt(path, dtype=np.int64, ndmin=2)
        if values.shape[1] == 1:
            return values[:, 0]
    except ValueError:
        pass
    for line, values in _int_lines(path):
        if values.size != 1:
            raise DataError(f"{path}:{line}: expected one integer per line, got {values.size}")
    raise DataError(f"{path}: does not parse as one integer per line")


def _load_ids(path, n: int) -> np.ndarray:
    ids = _load_ints(path)
    bad = np.flatnonzero((ids < 0) | (ids >= n))
    if bad.size:
        line, _ = next(itertools.islice(_int_lines(path), int(bad[0]), None))
        raise DataError(f"{path}:{line}: node id {ids[bad[0]]} out of range for n={n}")
    mask = np.zeros(n, dtype=bool)
    mask[ids] = True
    return mask


def _parse_manifest(path) -> dict:
    out = {}
    with open(path, "rb") as fh:
        lines = _universal_newlines(fh.read()).split(b"\n")
    for lineno, line in enumerate(lines, start=1):
        if line.lstrip().startswith(b"#"):
            continue
        for token in line.replace(b",", b" ").split():
            if b"=" in token:
                k, v = token.decode("utf-8", "replace").split("=", 1)
                if not re.fullmatch(r"[+-]?\d+", v):
                    raise DataError(f"{path}:{lineno}: {k}={v!r} is not an integer")
                out[k] = int(v)
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

    edge_path = os.path.join(path, "edges.tsv")
    if not os.path.isfile(edge_path):
        raise DataError(f"missing edges.tsv in {path}")
    graph = build_graph(read_edge_list(edge_path, n), n)

    manifest_path = os.path.join(path, "manifest.txt")
    if os.path.isfile(manifest_path):
        manifest = _parse_manifest(manifest_path)
        checks = {"n": n, "classes": class_count, "features": x.shape[1], "edges": graph.num_edges}
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


def builtin_karate() -> DatasetBundle:
    """The 34-node karate social network with 4-class modularity labels.

    Features are one-hot node ids (the source network defines none).
    Train holds the lowest-index member of each class; the remaining 30
    nodes are split 15/15 into val and test.
    """
    assets = resources.files("dualgcn") / "assets"
    with resources.as_file(assets / "karate_edges.tsv") as p:
        edges = read_edge_list(p, 34)
    with resources.as_file(assets / "karate_labels.txt") as p:
        y = _load_ints(p)
    graph = build_graph(edges, 34)
    x = np.eye(34)
    train = np.zeros(34, dtype=bool)
    for c in range(4):
        train[np.flatnonzero(y == c)[0]] = True
    order = RngStream(0, ("karate-split",)).permutation(np.flatnonzero(~train))
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
