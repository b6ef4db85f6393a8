import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from dualgcn import tape
from dualgcn.errors import DataError
from dualgcn.graph import (
    Graph,
    add_self_loops,
    build_graph,
    read_edge_list,
    sym_normalize,
)
from dualgcn.graphlearn import SupportStructure
from dualgcn.rng import RngStream
from conftest import count_support_builds, make_random_graph, write_edge_list


def test_build_triangle_degrees():
    g = build_graph([(0, 1), (1, 2), (0, 2)], n=3)
    assert g.n == 3
    np.testing.assert_array_equal(np.asarray(g.adj.sum(axis=1)).ravel(), [2, 2, 2])


def test_build_empty_graph():
    g = build_graph([], n=5)
    assert g.adj.nnz == 0
    np.testing.assert_array_equal(np.asarray(g.adj.sum(axis=1)).ravel(), np.zeros(5))


def test_build_karate_edge_file(tmp_path, karate):
    path = tmp_path / "karate.tsv"
    write_edge_list(karate.graph, path)
    g = build_graph(read_edge_list(path, 34), 34)
    assert g.n == 34
    assert g.num_edges == 78
    assert (g.adj != karate.graph.adj).nnz == 0


def test_build_graph_rejects_bad_input():
    with pytest.raises(ValueError):
        build_graph([(0, 3)], n=3)
    with pytest.raises(ValueError):
        build_graph([(0, 1, -2.0)], n=3)
    with pytest.raises(ValueError):
        build_graph([(0, 1, 0.0)], n=3)


def test_duplicate_edges_sum():
    g = build_graph([(0, 1, 1.0), (0, 1, 2.5)], n=2)
    assert g.adj[0, 1] == pytest.approx(3.5)
    assert g.adj[1, 0] == pytest.approx(3.5)


def test_self_edge_preserved_not_doubled():
    g = build_graph([(1, 1, 2.0)], n=2)
    assert g.adj[1, 1] == pytest.approx(2.0)


def test_add_self_loops_k3():
    g = add_self_loops(build_graph([(0, 1), (1, 2), (0, 2)], n=3))
    np.testing.assert_array_equal(np.asarray(g.adj.sum(axis=1)).ravel(), [3, 3, 3])


def test_add_self_loops_empty():
    g = add_self_loops(build_graph([], n=2))
    np.testing.assert_array_equal(g.adj.toarray(), np.eye(2))
    np.testing.assert_array_equal(np.asarray(g.adj.sum(axis=1)).ravel(), [1, 1])


def test_add_self_loops_increments_existing():
    g = add_self_loops(build_graph([(0, 0, 1.0)], n=1))
    assert g.adj[0, 0] == pytest.approx(2.0)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 25), st.floats(0.0, 0.6), st.floats(0.0, 1.0), st.booleans(), st.integers(0, 10_000))
def test_add_self_loops_is_a_plus_i_in_canonical_csr(n, density, loop_share, shuffle, seed):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < density, 1)
    upper |= np.diag(rng.random(n) < loop_share)  # some existing loops; empty rows stay isolated
    rows, cols = np.nonzero(upper)
    w = rng.integers(1, 4, rows.size).astype(float)
    off = rows != cols
    adj = sp.csr_matrix((np.r_[w, w[off]], (np.r_[rows, cols[off]], np.r_[cols, rows[off]])), shape=(n, n))
    dense = adj.toarray()
    if shuffle:  # the same matrix with its columns out of order inside each row
        order = np.lexsort((rng.random(adj.nnz), np.repeat(np.arange(n), np.diff(adj.indptr))))
        adj = sp.csr_matrix((adj.data[order], adj.indices[order], adj.indptr), shape=(n, n))
        adj.has_sorted_indices = False
    out = add_self_loops(Graph(n=n, adj=adj)).adj
    assert out.data.dtype == np.float64
    np.testing.assert_array_equal(out.toarray(), dense + np.eye(n))
    assert out.nnz == np.count_nonzero(dense + np.eye(n))
    # canonical: columns strictly ascending inside every row
    out_rows = np.repeat(np.arange(n), np.diff(out.indptr))
    assert ((out_rows[1:] != out_rows[:-1]) | (out.indices[1:] > out.indices[:-1])).all()


def test_degree_sum_after_self_loops(karate):
    g = add_self_loops(karate.graph)
    assert np.asarray(g.adj.sum(axis=1)).ravel().sum() == pytest.approx(2 * 78 + 34)


def test_sym_normalize_identity():
    op = sym_normalize(np.eye(3))
    np.testing.assert_allclose(op.toarray(), np.eye(3))


def test_sym_normalize_single_edge():
    g = build_graph([(0, 1)], n=2)
    op = sym_normalize(g.adj)
    np.testing.assert_allclose(op.toarray(), [[0, 1], [1, 0]])


def test_sym_normalize_k3_with_loops():
    g = add_self_loops(build_graph([(0, 1), (1, 2), (0, 2)], n=3))
    op = sym_normalize(g.adj)
    # direct arithmetic: every degree is 3 so every entry is 1/3
    dense = g.adj.toarray()
    d = dense.sum(axis=1)
    expected = dense / np.sqrt(np.outer(d, d))
    np.testing.assert_allclose(op.toarray(), np.full((3, 3), 1 / 3))
    np.testing.assert_allclose(op.toarray(), expected)


def test_sym_normalize_zero_rows_map_to_zero():
    m = np.zeros((3, 3))
    m[0, 1] = m[1, 0] = 1.0
    out = sym_normalize(m).toarray()
    assert np.isfinite(out).all()
    np.testing.assert_array_equal(out[2], 0.0)


def test_sym_normalize_rejects_negative():
    with pytest.raises(ValueError):
        sym_normalize(np.array([[0.0, -1.0], [-1.0, 0.0]]))


def _sym_normalize_coo(m):
    """Reference: scale every stored entry, then let COO -> CSR sum duplicates."""
    d = np.asarray(m.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        dinv = np.where(d > 0, d, 1.0) ** -0.5
    dinv[d <= 0] = 0.0
    coo = m.tocoo()
    data = coo.data * dinv[coo.row] * dinv[coo.col]
    return sp.csr_matrix((data, (coo.row, coo.col)), shape=m.shape)


@pytest.mark.parametrize("seed", range(6))
def test_sym_normalize_non_canonical_matches_coo_and_keeps_input(seed):
    # rows keep their order, columns are unsorted and repeat; row 0 is empty
    rng = np.random.default_rng(seed)
    n, nnz = 12, 60
    rows = np.sort(rng.integers(1, n, nnz))
    m = sp.csr_matrix((rng.random(nnz), rng.integers(0, n, nnz), np.searchsorted(rows, np.arange(n + 1))),
                      shape=(n, n))
    assert not m.has_canonical_format
    before = (m.data.copy(), m.indices.copy(), m.indptr.copy())
    out = sym_normalize(m)
    ref = _sym_normalize_coo(m)
    assert out.has_canonical_format
    np.testing.assert_array_equal(out.indptr, ref.indptr)
    np.testing.assert_array_equal(out.indices, ref.indices)
    np.testing.assert_array_equal(out.data, ref.data)
    for kept, arr in zip(before, (m.data, m.indices, m.indptr)):
        np.testing.assert_array_equal(arr, kept)


# the normalized operator propagates as a sparse constant of tape.matmul

def _propagate(op, h):
    return tape.matmul(tape.SparseConst.of(op), h).value


def test_spmm_identity_and_zero():
    h = RngStream(0).random((4, 3))
    ident = sym_normalize(np.eye(4))
    np.testing.assert_allclose(_propagate(ident, h), h)
    zero = sym_normalize(np.zeros((4, 4)))
    np.testing.assert_array_equal(_propagate(zero, h), np.zeros((4, 3)))


def test_spmm_matches_dense_oracle():
    g = make_random_graph(6, 0.5, seed=1)
    op = sym_normalize(add_self_loops(g).adj)
    h = RngStream(2).random((6, 4))
    dense = op.toarray() @ h
    np.testing.assert_allclose(_propagate(op, h), dense, rtol=1e-12, atol=0)


def test_spmm_dimension_mismatch():
    op = sym_normalize(np.eye(3))
    with pytest.raises(ValueError):
        _propagate(op, np.zeros((4, 2)))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1000))
def test_built_graphs_exactly_symmetric(seed):
    rng = RngStream(seed, ("sym",))
    n = int(rng.integers(2, 12))
    edges = []
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.4:
                edges.append((i, j, float(rng.random()) + 0.1))
    g = build_graph(edges, n)
    diff = (g.adj - g.adj.T)
    assert abs(diff).max() if diff.nnz else 0 == 0


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 1000))
def test_sym_normalize_preserves_symmetry(seed):
    g = make_random_graph(int(RngStream(seed).integers(2, 20)), 0.3, seed)
    out = sym_normalize(add_self_loops(g).adj)
    asym = abs(out - out.T)
    rel = asym.max() / max(out.max(), 1e-30) if asym.nnz else 0.0
    assert rel <= 1e-12


def test_sym_normalize_peak_is_one_gather_above_its_output():
    import tracemalloc

    m = add_self_loops(build_graph(np.random.default_rng(0).integers(0, 20_000, (200_000, 2)), 20_000)).adj
    tracemalloc.start()
    try:
        sym_normalize(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the output holds 12 B per entry (float64 values, int32 indices) and the
    # transient is one float64 gather; int64 row ids and two gathers made 24
    assert peak / m.nnz < 20


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 500))
def test_spmm_dense_oracle_small_graphs(seed):
    rng = RngStream(seed, ("spmm",))
    n = int(rng.integers(2, 32))
    g = make_random_graph(n, 0.3, seed)
    op = sym_normalize(add_self_loops(g).adj)
    h = rng.random((n, 5))
    expected = op.toarray() @ h
    got = _propagate(op, h)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-15)


def _edges_by_line(text):
    """The per-line reader read_edge_list replaced: one tuple per edge."""
    edges = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t") if "\t" in line else line.split()
        edges.append((int(parts[0]), int(parts[1])) + ((float(parts[2]),) if len(parts) == 3 else ()))
    return edges


def _adjacency_by_tuple(edges, n):
    """The per-tuple build_graph loop: both directions of each edge, one
    entry for a self-loop, duplicates summed."""
    rows, cols, vals = [], [], []
    for e in edges:
        i, j, w = e if len(e) == 3 else (*e, 1.0)
        rows.append(i)
        cols.append(j)
        vals.append(w)
        if i != j:
            rows.append(j)
            cols.append(i)
            vals.append(w)
    adj = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    adj.sum_duplicates()
    return adj


def test_edge_list_comments_and_blank_lines(tmp_path):
    path = tmp_path / "edges.tsv"
    for text, weighted in [
        ("# comment\n\n0\t1\n1\t2\t2.5\n", True),
        ("0 1\n  # indented comment\n2   3\n\t\n1\t0\n0\t1\n3 3\n", False),  # duplicates, a self-loop
        ("4\t0\t0.5\r\n0 4\n4 4 3\n\n0\t4\t1.25\n2 1", True),  # mixed fields, CRLF, no final newline
    ]:
        path.write_bytes(text.encode())
        expected = _edges_by_line(text)
        n = max(max(e[:2]) for e in expected) + 1
        edges = read_edge_list(path, n)
        rows = [e if len(e) == 3 else (*e, 1.0) for e in expected] if weighted else expected
        assert edges.tolist() == [list(e) for e in rows]
        g = build_graph(edges, n)
        ref = _adjacency_by_tuple(expected, n)
        np.testing.assert_array_equal(g.adj.indptr, ref.indptr)
        np.testing.assert_array_equal(g.adj.indices, ref.indices)
        assert g.adj.data.tobytes() == ref.data.tobytes()
    path.write_text("0 1\n1 2 # only a whole line is a comment\n")
    with pytest.raises(DataError, match=":2:"):
        read_edge_list(path, 3)


def _edge_lines(rng):
    """Unweighted lines, then a weighted one far down the file: blank and
    comment lines, tabs and spaces, CRLF, and no final newline."""
    lines = [f"{i}\t{j}" if k % 3 else f"{i} {j}" for k, (i, j) in enumerate(rng.integers(0, 40, (300, 2)))]
    lines[17] = "  # an indented comment"
    lines[60] = ""
    lines[250] = "3 5 2.5"
    return "\r\n".join(lines)


@pytest.mark.parametrize("block_bytes", [5, 13, 64, 1 << 19])
def test_edge_list_read_in_blocks_equals_the_line_reader(tmp_path, monkeypatch, block_bytes):
    from dualgcn import graph

    monkeypatch.setattr(graph, "_BLOCK_BYTES", block_bytes)
    text = _edge_lines(np.random.default_rng(0))
    path = tmp_path / "edges.tsv"
    path.write_bytes(text.encode())
    edges = read_edge_list(path, 40)
    assert edges.dtype == np.float64  # one weighted line weights the whole file
    assert edges.tolist() == [list(e) if len(e) == 3 else [*e, 1.0] for e in _edges_by_line(text)]
    path.write_bytes(text.replace("2.5", "").encode())
    assert read_edge_list(path, 40).tolist() == [list(e) for e in _edges_by_line(text.replace("2.5", ""))]
    path.write_bytes(text.replace("2.5", "-1").encode())
    with pytest.raises(DataError, match=r"edges.tsv:251: weight '-1' is not positive"):
        read_edge_list(path, 40)


def test_edge_list_memory_is_bounded_by_the_block_not_the_file(tmp_path):
    import tracemalloc

    from dualgcn import graph

    path = tmp_path / "edges.tsv"
    np.savetxt(path, np.random.default_rng(0).integers(0, 100_000, (300_000, 2)), fmt="%d", delimiter="\t")
    tracemalloc.start()
    try:
        edges = read_edge_list(path, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert edges.shape == (300_000, 2)
    # the blocks' arrays and their concatenation, plus one block's tokens;
    # a whole-file parse of this 3.5 MB text peaks near 70 MB
    assert peak < 2 * edges.nbytes + 20 * graph._BLOCK_BYTES


@pytest.mark.parametrize("block_bytes", [5, 13, 64, 1 << 19])
def test_lone_cr_lines_read_as_lf_lines(tmp_path, monkeypatch, block_bytes):
    from dualgcn import graph

    monkeypatch.setattr(graph, "_BLOCK_BYTES", block_bytes)
    text = _edge_lines(np.random.default_rng(1)).replace("\r\n", "\n")
    path = tmp_path / "edges.tsv"
    for weight in ("", "2.5"):
        got = []
        for ending in ("\n", "\r"):
            path.write_bytes(text.replace("2.5", weight).replace("\n", ending).encode())
            got.append(read_edge_list(path, 40).tolist())
        assert got[0] == got[1]
    for ending in ("\n", "\r"):
        path.write_bytes(text.replace("2.5", "-1").replace("\n", ending).encode())
        with pytest.raises(DataError, match=r"edges.tsv:251: weight '-1' is not positive"):
            read_edge_list(path, 40)


def test_lone_cr_memory_is_bounded_by_the_block_not_the_file(tmp_path):
    import tracemalloc

    lf = tmp_path / "lf.tsv"
    np.savetxt(lf, np.random.default_rng(0).integers(0, 100_000, (300_000, 2)), fmt="%d", delimiter="\t")
    cr = tmp_path / "cr.tsv"
    cr.write_bytes(lf.read_bytes().replace(b"\n", b"\r"))
    peaks, results = [], []
    for path in (lf, cr):
        tracemalloc.start()
        try:
            results.append(read_edge_list(path, 100_000))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert results[0].tobytes() == results[1].tobytes()
    # a CR file parsed as one block peaks near 70 MB, against ~14 MB
    assert peaks[1] < 1.25 * peaks[0]


@pytest.mark.parametrize("block_bytes", [5, 13, 64, 1 << 19])
@pytest.mark.parametrize("text,where,message", [
    (b"x\t1\r\n0\t1\r\n0\t1\t2\t3\r\n0\t1\r\n0\t1\r\n", 1, "node id 'x' is not a decimal number"),
    (b"0\t1\r\n0\t1\t-1\r\n0\t9\r\n0\t1\t2\t3\r\n", 2, "weight '-1' is not positive"),
    (b"0 1\n0 7\n0 1 y\n", 2, "node id 7 out of range for n=5"),
    (b"0 1 z\n0 x\n", 1, "weight 'z' is not a number"),
], ids=["id-before-fields", "weight-before-range", "range-before-weight", "weight-before-id"])
def test_edge_list_error_names_the_first_bad_line(tmp_path, monkeypatch, block_bytes, text, where, message):
    from dualgcn import graph

    monkeypatch.setattr(graph, "_BLOCK_BYTES", block_bytes)
    path = tmp_path / "edges.tsv"
    path.write_bytes(text)
    with pytest.raises(DataError, match=f"edges.tsv:{where}: {message}"):
        read_edge_list(path, 5)


def test_graph_support_is_built_once_and_read_only(monkeypatch):
    from dataclasses import replace

    g = make_random_graph(9, 0.3, seed=4)
    want = SupportStructure(add_self_loops(g))
    builds = count_support_builds(monkeypatch)
    sup = g.support
    assert g.support is sup and builds == [9]
    for name in ("indptr", "cols", "pair_rows", "pair_cols", "pair_of"):
        arr = getattr(sup, name)
        np.testing.assert_array_equal(arr, getattr(want, name))
        assert arr.dtype == getattr(want, name).dtype
        # shared by every fit and predict on g: a write must fail, not leak into them
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]
    # a new Graph, though equal, builds its own
    assert replace(g, adj=g.adj.copy()).support is not sup and builds == [9, 9]


def test_graph_frozen_operator_is_built_once_and_read_only(monkeypatch):
    from dualgcn import graph

    g = make_random_graph(9, 0.3, seed=5)
    loops = add_self_loops(g).adj
    want = sym_normalize(loops)
    calls = []
    monkeypatch.setattr(graph, "sym_normalize", lambda m: calls.append(1) or sym_normalize(m))
    op = g.frozen_op
    assert g.frozen_op is op and g.loop_values is g.loop_values and calls == [1]
    np.testing.assert_array_equal(g.loop_values, loops.data)
    for got, array in ((op.data, want.data), (op.indices, want.indices), (op.indptr, want.indptr)):
        np.testing.assert_array_equal(got, array)
    for arr in (g.loop_values, op.data, op.indices, op.indptr):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]
