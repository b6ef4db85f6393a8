"""The block parsers of features.csv and edges.tsv against line-by-line
reference readers, on generated files: every block size from one byte to
the default, LF, CRLF and lone-CR line ends.  A well-formed file must give
equal values; a malformed one must be rejected naming the same file line."""

from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from dualgcn import data, graph
from dualgcn.errors import DataError

BLOCK_BYTES = st.one_of(st.integers(1, 64), st.integers(1, 1 << 19), st.just(1 << 19))
LINE_END = st.sampled_from(["\n", "\r\n", "\r"])
FUZZ = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

_DIGIT = [str(d) for d in range(10)]
_FEATURE_FIELD = _DIGIT + ["10", "255", "-3", "+2", "-0.0", "0.25", "1e-3", "2E+5", "0.1", "16777217",
                           "1e40", "inf", " 1", "0 "]
_BAD_FIELD = ["x", "", "1.2.3", "1e", "--1", "0x10", " "]
_N = 20
_NODE = [str(i) for i in range(_N)] + ["007"]
_BAD_NODE = [str(_N), "-1", "x", "1.5", "+1", "9" * 19]
_WEIGHT = ["1", "0.5", "2e3", "+1.5", "inf", "1e-3"]
_BAD_WEIGHT = ["0", "-1", "nan", "x", "-0.0", "1e"]


def _text_lines(path) -> list[str]:
    """The file's lines as a text-mode read splits them: LF, CRLF and lone CR."""
    with open(path, encoding="utf-8", newline=None) as fh:
        return fh.read().split("\n")


def reference_features(path):
    """features.csv read one line at a time: the values as float64, or the
    file line of the first row that does not parse or has another width."""
    rows, width = [], None
    for lineno, line in enumerate(_text_lines(path), start=1):
        fields = line.split("#", 1)[0]
        if not fields.strip():
            continue
        try:
            row = [float(field) for field in fields.split(",")]
        except ValueError:
            return lineno
        if width not in (None, len(row)):
            return lineno
        width = len(row)
        rows.append(row)
    return np.array(rows)


def reference_edges(path, n: int):
    """edges.tsv read one line at a time, as read_edge_list returns it, or
    the file line of the first malformed edge."""
    rows, weighted = [], False
    for lineno, line in enumerate(_text_lines(path), start=1):
        tokens = line.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if len(tokens) not in (2, 3):
            return lineno
        ids = tokens[:2]
        if not all(t.isascii() and t.isdigit() and len(t) <= 18 and int(t) < n for t in ids):
            return lineno
        w = 1.0
        if len(tokens) == 3:
            weighted = True
            try:
                w = float(tokens[2])
            except ValueError:
                return lineno
            if not w > 0:
                return lineno
        rows.append((int(ids[0]), int(ids[1]), w))
    if not weighted:
        return np.array([r[:2] for r in rows], dtype=np.int64).reshape(-1, 2)
    return np.array(rows, dtype=np.float64)


@st.composite
def feature_files(draw):
    """Rows of one width, one-digit fields only in about half the files, with
    padding, trailing comments, comment and blank lines; at most one row
    broken by a bad field or another width."""
    width = draw(st.integers(1, 6))
    fields = st.sampled_from(_DIGIT) if draw(st.booleans()) else st.sampled_from(_FEATURE_FIELD)
    lines = []
    for _ in range(draw(st.integers(1, 12))):
        lines.append(",".join(draw(st.lists(fields, min_size=width, max_size=width))))
        extra = draw(st.sampled_from([None] * 6 + ["", "   ", "# note", "  # note", "\t# note", "tail"]))
        if extra == "tail":
            lines[-1] += " # after the data"
        elif extra is not None:
            lines.append(extra)
    if draw(st.booleans()):
        rows = [k for k, line in enumerate(lines) if line and line.lstrip()[:1] not in ("", "#")]
        k = draw(st.sampled_from(rows))
        if draw(st.booleans()):
            parts = lines[k].split(",")
            parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from(_BAD_FIELD))
            lines[k] = ",".join(parts)
        else:
            lines[k] = lines[k] + ",1" if draw(st.booleans()) or width == 1 else lines[k].rsplit(",", 1)[0]
    return _join(draw, lines)


@st.composite
def edge_files(draw):
    """Edge lines of two or three fields, separated and padded by spaces and
    tabs, with comment and blank lines; at most one broken line."""
    blanks = st.sampled_from([" ", "\t", "  ", " \t"])
    lines = []
    for _ in range(draw(st.integers(0, 12))):
        tokens = [draw(st.sampled_from(_NODE)), draw(st.sampled_from(_NODE))]
        if draw(st.booleans()):
            tokens.append(draw(st.sampled_from(_WEIGHT)))
        lead = draw(st.sampled_from(["", "", " ", "\t"]))
        lines.append(lead + "".join(t + draw(blanks) for t in tokens[:-1]) + tokens[-1])
        extra = draw(st.sampled_from([None] * 6 + ["", "  ", "# note", " \t# note 1 2"]))
        if extra is not None:
            lines.append(extra)
    if lines and draw(st.booleans()):
        k = draw(st.integers(0, len(lines) - 1))
        tokens = lines[k].split() or ["0", "1"]
        what = draw(st.sampled_from(["node", "weight", "fields"]))
        if what == "node":
            tokens[draw(st.integers(0, 1)) % len(tokens)] = draw(st.sampled_from(_BAD_NODE))
        elif what == "weight":
            tokens = tokens[:2] + [draw(st.sampled_from(_BAD_WEIGHT))]
        else:
            tokens = tokens[:1] if draw(st.booleans()) else tokens[:2] + ["1", "1"]
        lines[k] = "\t".join(tokens)
    return _join(draw, lines)


def _join(draw, lines) -> bytes:
    text = "".join(line + draw(LINE_END) for line in lines)
    if text and draw(st.booleans()):
        text = text[:-1] if not text.endswith("\r\n") else text[:-2]  # no final line end
    return text.encode()


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(raw=feature_files(), block_bytes=BLOCK_BYTES)
def test_feature_loader_matches_the_line_reader(scratch, raw, block_bytes):
    path = scratch / "features.csv"
    path.write_bytes(raw)
    ref = reference_features(path)
    with mock.patch.object(data, "_FEATURE_BLOCK_BYTES", block_bytes):
        if isinstance(ref, int):
            with pytest.raises(DataError, match=rf"features\.csv:{ref}: "):
                data._load_features(path)
            return
        if ref.size == 0:  # only blank and comment lines: a whole-file error, with no line
            with pytest.raises(DataError, match=r"features\.csv: no feature rows"):
                data._load_features(path)
            return
        x = data._load_features(path)
    with np.errstate(over="ignore"):
        exact = (ref.astype(np.float32) == ref).all()
    assert x.dtype == (np.float32 if exact else np.float64)
    got = x.toarray() if sp.issparse(x) else x
    np.testing.assert_array_equal(got, ref)  # a sparse result drops -0.0, as a zero
    if not sp.issparse(x):
        assert x.astype(np.float64).tobytes() == ref.tobytes()  # -0.0 included


@FUZZ
@given(raw=edge_files(), block_bytes=BLOCK_BYTES)
def test_edge_reader_matches_the_line_reader(scratch, raw, block_bytes):
    path = scratch / "edges.tsv"
    path.write_bytes(raw)
    ref = reference_edges(path, _N)
    with mock.patch.object(graph, "_BLOCK_BYTES", block_bytes):
        if isinstance(ref, int):
            with pytest.raises(DataError, match=rf"edges\.tsv:{ref}: "):
                graph.read_edge_list(path, _N)
            return
        edges = graph.read_edge_list(path, _N)
    assert edges.dtype == ref.dtype and edges.shape == ref.shape
    np.testing.assert_array_equal(edges, ref)
