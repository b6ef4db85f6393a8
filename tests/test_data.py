import numpy as np
import pytest
import scipy.sparse as sp

from dualgcn.data import (
    DatasetBundle,
    SplitSpec,
    load_dataset,
    make_planetoid_split,
    resolve_dataset,
    with_split,
)
from dualgcn.errors import DataError
from conftest import karate_with_train_seed, make_sbm_bundle, save_dataset


def test_karate_shape(karate):
    assert karate.n == 34
    assert karate.p == 34
    assert karate.class_count == 4
    assert karate.graph.num_edges == 78
    np.testing.assert_array_equal(karate.x, np.eye(34))


def test_karate_train_mask_one_per_class(karate):
    assert karate.train_mask.sum() == 4
    labels = karate.y[karate.train_mask]
    np.testing.assert_array_equal(np.sort(labels), [0, 1, 2, 3])
    # default picks the lowest-index member of each class
    for c in range(4):
        members = np.flatnonzero(karate.y == c)
        assert karate.train_mask[members[0]]


def test_karate_seeded_train_mask_differs():
    a = karate_with_train_seed(1)
    b = karate_with_train_seed(2)
    assert a.train_mask.sum() == b.train_mask.sum() == 4
    assert (a.y[a.train_mask] == np.arange(4)).all()
    assert not np.array_equal(a.train_mask, b.train_mask) or True  # may coincide
    c = karate_with_train_seed(1)
    np.testing.assert_array_equal(a.train_mask, c.train_mask)


def test_save_load_roundtrip(tmp_path):
    bundle = make_sbm_bundle(n=40, k=4, seed=1)
    out = tmp_path / "sbm"
    save_dataset(bundle, out)
    loaded = load_dataset(out)
    np.testing.assert_allclose(np.asarray(loaded.x.toarray() if sp.issparse(loaded.x) else loaded.x),
                               bundle.x, rtol=1e-15)
    np.testing.assert_array_equal(loaded.y, bundle.y)
    assert (loaded.graph.adj != bundle.graph.adj).nnz == 0
    np.testing.assert_array_equal(loaded.train_mask, bundle.train_mask)
    np.testing.assert_array_equal(loaded.val_mask, bundle.val_mask)
    np.testing.assert_array_equal(loaded.test_mask, bundle.test_mask)
    assert loaded.class_count == bundle.class_count


def test_load_without_edges_gives_graphless_bundle(tmp_path):
    out = tmp_path / "tabular"
    out.mkdir()
    (out / "features.csv").write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    (out / "labels.txt").write_text("0\n1\n0\n")
    bundle = load_dataset(out)
    assert bundle.graph is None
    assert bundle.n == 3 and bundle.p == 2
    assert not bundle.has_masks()


def test_load_missing_files(tmp_path):
    with pytest.raises(DataError):
        load_dataset(tmp_path / "nope")
    d = tmp_path / "partial"
    d.mkdir()
    (d / "features.csv").write_text("1.0\n")
    with pytest.raises(DataError):
        load_dataset(d)


def test_load_row_count_mismatch(tmp_path):
    d = tmp_path / "bad"
    d.mkdir()
    (d / "features.csv").write_text("1.0\n2.0\n")
    (d / "labels.txt").write_text("0\n")
    with pytest.raises(DataError):
        load_dataset(d)


def test_manifest_mismatch(tmp_path):
    bundle = make_sbm_bundle(n=20, k=2, seed=2)
    out = tmp_path / "m"
    save_dataset(bundle, out)
    (out / "manifest.txt").write_text("n=21, classes=2\n")
    with pytest.raises(DataError):
        load_dataset(out)


def test_split_train_histogram_exact():
    bundle = make_sbm_bundle(n=120, k=4, seed=3)
    spec = SplitSpec(per_class_train=7, val_size=30, test_size=40, seed=5)
    train, val, test = make_planetoid_split(bundle, spec)
    hist = np.bincount(bundle.y[train], minlength=4)
    np.testing.assert_array_equal(hist, [7, 7, 7, 7])
    assert val.sum() == 30 and test.sum() == 40
    assert not (train & val).any() and not (train & test).any() and not (val & test).any()


def test_split_deterministic_per_seed():
    bundle = make_sbm_bundle(n=100, k=4, seed=4)
    spec = SplitSpec(per_class_train=5, val_size=20, test_size=20, seed=9)
    a = make_planetoid_split(bundle, spec)
    b = make_planetoid_split(bundle, spec)
    for m1, m2 in zip(a, b):
        np.testing.assert_array_equal(m1, m2)
    other = make_planetoid_split(bundle, SplitSpec(5, 20, 20, seed=10))
    assert any(not np.array_equal(m1, m2) for m1, m2 in zip(a, other))


def test_split_all_in_train_when_sizes_zero():
    bundle = make_sbm_bundle(n=40, k=4, seed=6)
    counts = np.bincount(bundle.y)
    spec = SplitSpec(per_class_train=int(counts.min()), val_size=0, test_size=0, seed=0)
    train, val, test = make_planetoid_split(bundle, spec)
    assert train.sum() == int(counts.min()) * 4
    assert val.sum() == 0 and test.sum() == 0


def test_split_errors():
    bundle = make_sbm_bundle(n=24, k=4, seed=7)
    with pytest.raises(DataError):
        make_planetoid_split(bundle, SplitSpec(per_class_train=1000, val_size=1, test_size=1))
    with pytest.raises(DataError):
        make_planetoid_split(bundle, SplitSpec(per_class_train=1, val_size=100, test_size=100))


def test_resolve_dataset(tmp_path, monkeypatch):
    assert resolve_dataset("karate").name == "karate"
    bundle = make_sbm_bundle(n=20, k=2, seed=8)
    save_dataset(bundle, tmp_path / "toy")
    assert resolve_dataset(str(tmp_path / "toy")).n == 20
    monkeypatch.setenv("GLDGCN_DATA_DIR", str(tmp_path))
    assert resolve_dataset("toy").n == 20
    with pytest.raises(DataError):
        resolve_dataset("missing-dataset")


def test_bundle_validate_rejects_overlapping_masks():
    bundle = make_sbm_bundle(n=30, k=3, seed=9)
    bad = DatasetBundle(name="bad", x=bundle.x, y=bundle.y, graph=bundle.graph,
                        train_mask=bundle.train_mask, val_mask=bundle.train_mask,
                        test_mask=None, class_count=bundle.class_count)
    with pytest.raises(DataError):
        bad.validate()


def test_with_split_returns_valid_bundle():
    bundle = make_sbm_bundle(n=80, k=4, seed=10)
    from dataclasses import replace

    stripped = replace(bundle, train_mask=None, val_mask=None, test_mask=None)
    out = with_split(stripped, SplitSpec(per_class_train=4, val_size=16, test_size=16, seed=1))
    assert out.has_masks()
    out.validate()


def test_sparse_feature_storage(tmp_path):
    d = tmp_path / "sparse"
    d.mkdir()
    rows = ["0," * 39 + "1"] * 6
    (d / "features.csv").write_text("\n".join(rows) + "\n")
    (d / "labels.txt").write_text("\n".join("01" * 3) + "\n")
    bundle = load_dataset(d)
    assert sp.issparse(bundle.x)
    assert bundle.x.shape == (6, 40)


def _write_features(d, rows):
    d.mkdir()
    (d / "features.csv").write_text("".join(rows))
    (d / "labels.txt").write_text("".join(f"{i % 2}\n" for i in range(len(rows))))


def _feature_lines(rng, density):
    """Every line form features.csv allows: reals, one-byte digit fields,
    both on one line, -0.0 and exponents, padding, CRLF and CR, a trailing
    comment, blank and comment lines; seven fields each."""
    dense = np.where(rng.random((10, 7)) < density, rng.normal(size=(10, 7)), 0.0)
    dense[0, 0] = -0.0 if density > 0.5 else dense[0, 0]
    lines = [",".join(f"{v:.17g}" for v in row) + "\n" for row in dense]
    digits = np.where(rng.random((24, 7)) < density, rng.integers(1, 10, (24, 7)), 0)
    lines += [",".join(map(str, row)) + "\n" for row in digits]
    lines += [
        "0,12,3,0.25,0,7,100\n",
        "-0.0,1e-3,0,2E+5,-0,5e0,0\n",
        " 1, 0 ,3,0 , 0,1,  0\n",
        "1,0,0,1,0,0,1 # a comment after data\n",
        "0,1,0,0,0,0,0\r\n",
        "0,0,0,2.5,0,0,0\r\n",
    ]
    order = rng.permutation(len(lines))
    lines = [lines[k] for k in order]
    lines.insert(4, "\n")
    lines.insert(9, "# a comment line\n")
    lines.insert(20, "\r\n")
    lines.insert(15, "0,0,1,0,0,0,0\r")  # a lone CR ends a line too
    lines[-1] = lines[-1].rstrip("\r\n")  # no final newline
    return lines


@pytest.mark.parametrize("density", [0.9, 0.1])
def test_chunked_feature_parse_equals_one_shot_parse(tmp_path, monkeypatch, density):
    import warnings

    from dualgcn import data

    _write_features(tmp_path / "x", _feature_lines(np.random.default_rng(3), density))
    path = tmp_path / "x" / "features.csv"
    one_shot = np.loadtxt(path, delimiter=",", ndmin=2)
    # the default block, and blocks that end inside lines and fields
    for block_bytes in (data._FEATURE_BLOCK_BYTES, 7, 64):
        monkeypatch.setattr(data, "_FEATURE_BLOCK_BYTES", block_bytes)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = data._load_features(path)
        if density > 0.5:
            assert isinstance(x, np.ndarray)
            assert x.tobytes() == one_shot.tobytes()  # bit-identical, -0.0 included
        else:
            assert sp.issparse(x)
            ref = sp.csr_matrix(one_shot)
            assert x.shape == ref.shape
            np.testing.assert_array_equal(x.indptr, ref.indptr)
            np.testing.assert_array_equal(x.indices, ref.indices)
            assert x.data.tobytes() == ref.data.tobytes()


@pytest.mark.parametrize("bad_row", [1, 9])
def test_chunked_feature_parse_rejects_a_ragged_row(tmp_path, monkeypatch, bad_row):
    from dualgcn import data

    monkeypatch.setattr(data, "_FEATURE_BLOCK_BYTES", 13)  # about two rows a block
    for k, bad in enumerate(["1,0\n", "1,,0\n", "1,x,2\n", "1,0,2,3\n"]):
        rows = ["1,0,2\n"] * 10
        rows[bad_row] = bad  # inside the first block, or alone in the last one
        _write_features(tmp_path / f"x{k}", rows)
        with pytest.raises(DataError):
            load_dataset(tmp_path / f"x{k}")


@pytest.mark.parametrize("block_bytes", [1 << 19, 5, 13])
@pytest.mark.parametrize("lines,where,message", [
    (["1,0,2", "0.5,0,1", "# a note", "1,,2", "0,1,0"], 4, "could not convert string '' to float64 at column 2"),
    (["1,0,2", "0.5,0,1", "", "0,1,0", "1,0,0", "1,x,0.5"], 6, "could not convert string 'x' to float64 at column 2"),
    (["1,0,2", "0.5,0,1", "0,1,0", "0,1"], 4, "2 columns, the rows before have 3"),
    (["1,0,2", "0.5,0,1", "0,1,0", "0.5,1"], 4, "2 columns, the rows before have 3"),
    (["0.5,0,1", "1,0,2", "1,0,2,3", "1,0,2"], 3, "4 columns, the rows before have 3"),
], ids=["empty-field", "bad-token", "narrow-digits", "narrow-reals", "wide-digits"])
def test_feature_errors_name_the_file_line(tmp_path, monkeypatch, block_bytes, lines, where, message):
    # the bad line sits in the first block, or in a later one when blocks are small
    from dualgcn import data

    monkeypatch.setattr(data, "_FEATURE_BLOCK_BYTES", block_bytes)
    _write_features(tmp_path / "x", [line + "\n" for line in lines])
    with pytest.raises(DataError) as err:
        load_dataset(tmp_path / "x")
    text = str(err.value)
    assert text.startswith(f"{tmp_path / 'x' / 'features.csv'}:{where}: {message}"), text
    assert " row " not in text  # numpy's index within the parsed lines is dropped


@pytest.mark.parametrize("name,text,where,message", [
    ("labels.txt", b"0\n# note\n1\nx\n", 4, "could not convert string 'x' to int64 at column 1"),
    ("labels.txt", b"0 1 0 1\n", 1, "expected one integer per line, got 4"),
    ("labels.txt", b"0\r\n1\r\n\r\n0 1\r\n1\r\n", 4, "expected one integer per line, got 2"),
    ("train.txt", b"0\n\n9\n", 3, "node id 9 out of range for n=4"),
    ("val.txt", b"1\r# a note\r-1\r", 3, "node id -1 out of range for n=4"),
    ("test.txt", b"2\n# \xff\n3\n", 2, "'utf-8' codec can't decode byte 0xff"),
    ("manifest.txt", b"n=4\r\n# \xff\r\nclasses=two\r\n", 3, "classes='two' is not an integer"),
    ("manifest.txt", b"# made by gen.py, x=abc\n  # n=x\nn=4\nclasses=two\n", 4, "classes='two' is not an integer"),
], ids=["bad-token", "one-line", "crlf-wide", "id-too-large", "cr-negative-id", "not-utf8", "manifest",
        "manifest-comment"])
def test_int_file_errors_name_the_file_line(tmp_path, name, text, where, message):
    d = tmp_path / "x"
    _write_features(d, ["1,0\n", "0,1\n", "1,1\n", "0,0\n"])
    (d / name).write_bytes(text)
    with pytest.raises(DataError) as err:
        load_dataset(d)
    got = str(err.value)
    assert got.startswith(f"{d / name}:{where}: {message}"), got
    assert " row " not in got  # numpy's index within the parsed lines is dropped


def test_feature_parse_memory_is_bounded_by_the_block_not_the_dense_array(tmp_path):
    import tracemalloc

    from dualgcn import data

    n, p = 6000, 400
    x = (np.random.default_rng(0).random((n, p)) < 0.02).astype(np.uint8)
    text = np.full((n, 2 * p), ord(","), dtype=np.uint8)
    text[:, 0::2] = x + ord("0")
    text[:, -1] = ord("\n")
    text.tofile(tmp_path / "features.csv")
    tracemalloc.start()
    try:
        got = data._load_features(tmp_path / "features.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (got != sp.csr_matrix(x.astype(np.float64))).nnz == 0
    assert peak < n * p * 8 / 4


@pytest.mark.parametrize("block_bytes", [1 << 19, 7, 64])
def test_blank_led_comment_and_blank_lines_are_skipped_in_any_block(tmp_path, monkeypatch, block_bytes):
    # np.loadtxt with delimiter="," rejects "  # note" and "   ": the loader drops them first
    from dualgcn import data

    monkeypatch.setattr(data, "_FEATURE_BLOCK_BYTES", block_bytes)
    rows = ["0,1,0", "1,0,1", "0,0,1", "1,1,0", "0,1,1", "1,0,0"]
    lines = ["# header", rows[0], "  # note", rows[1], "   ", rows[2], "\t# tab note", rows[3], "", rows[4], rows[5]]
    _write_features(tmp_path / "x", [line + "\r\n" for line in lines])
    x = data._load_features(tmp_path / "x" / "features.csv")
    assert x.tobytes() == np.loadtxt(rows, delimiter=",", ndmin=2).astype(np.float32).tobytes()
    lines[-1] = "1,0"
    _write_features(tmp_path / "y", [line + "\n" for line in lines])
    with pytest.raises(DataError, match=r"features.csv:11: 2 columns, the rows before have 3"):
        load_dataset(tmp_path / "y")


@pytest.mark.parametrize("dense", [True, False], ids=["dense", "sparse"])
@pytest.mark.parametrize("odd,dtype", [
    (None, np.float32),
    ("-0.0", np.float32),
    ("16777216", np.float32),  # 2**24, the last integer every smaller one of is exact
    ("0.1", np.float64),
    ("16777217", np.float64),  # 2**24 + 1 rounds in float32
    ("1e40", np.float64),  # past float32's range
])
def test_features_are_float32_only_when_every_value_is_exact_in_float32(tmp_path, dense, odd, dtype):
    from dualgcn import data

    grid = np.diag(np.arange(1.0, 9.0))  # one small integer per row: the sparse branch
    if dense:
        grid += 1.0
    lines = [[f"{v:g}" for v in row] for row in grid]
    if odd is not None:
        lines[3][5] = odd
    _write_features(tmp_path / "x", [",".join(row) + "\n" for row in lines])
    ref = np.loadtxt([",".join(row) for row in lines], delimiter=",", ndmin=2)
    x = data._load_features(tmp_path / "x" / "features.csv")
    assert x.dtype == dtype
    assert sp.issparse(x) != dense
    if dense:
        assert x.tobytes() == ref.astype(dtype).tobytes()  # -0.0 keeps its sign bit
        assert x.astype(np.float64).tobytes() == ref.tobytes()
    else:
        np.testing.assert_array_equal(x.toarray(), ref)  # a stored -0.0 is dropped with the zeros
