import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from dualgcn import tape
from dualgcn.rng import RngStream
from dualgcn.tape import Parameter, backward
from conftest import constant


def test_matmul_identity_and_zero():
    b = Parameter(RngStream(0).random((3, 4)))
    out = tape.matmul(constant(np.eye(3)), b)
    np.testing.assert_allclose(out.value, b.value)
    out = tape.matmul(constant(np.zeros((2, 3))), b)
    np.testing.assert_array_equal(out.value, np.zeros((2, 4)))


def test_matmul_matches_triple_loop_oracle():
    rng = RngStream(1)
    a = rng.random((3, 4))
    b = rng.random((4, 2))
    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expected[i, j] += a[i, k] * b[k, j]
    got = tape.matmul(constant(a), constant(b)).value
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        tape.matmul(constant(np.zeros((2, 3))), constant(np.zeros((2, 3))))


def test_relu_cases():
    x = constant(np.array([[-1.0, 0.0, 2.0]]))
    np.testing.assert_array_equal(tape.relu(x).value, [[0.0, 0.0, 2.0]])
    neg = constant(-np.ones((2, 2)))
    np.testing.assert_array_equal(tape.relu(neg).value, np.zeros((2, 2)))
    pos = constant(np.full((2, 2), 3.0))
    np.testing.assert_array_equal(tape.relu(pos).value, np.full((2, 2), 3.0))


def test_row_softmax_uniform_rows():
    out = tape.row_softmax(constant(np.zeros((2, 5)))).value
    np.testing.assert_allclose(out, np.full((2, 5), 0.2))


def test_row_softmax_stabilized_large_inputs():
    out = tape.row_softmax(constant(np.array([[1000.0, 1000.0]]))).value
    np.testing.assert_allclose(out, [[0.5, 0.5]])
    assert np.isfinite(out).all()


def test_row_softmax_closed_form():
    out = tape.row_softmax(constant(np.array([[0.0, np.log(3.0)]]))).value
    np.testing.assert_allclose(out, [[0.25, 0.75]], rtol=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 1000))
def test_row_softmax_rows_sum_to_one(seed):
    rng = RngStream(seed, ("softmax",))
    x = (rng.random((4, 6)) - 0.5) * 2000.0
    out = tape.row_softmax(constant(x)).value
    np.testing.assert_allclose(out.sum(axis=1), np.ones(4), atol=1e-12)
    # extreme magnitudes may underflow to exactly 0; bounds stay closed
    assert (out >= 0).all() and (out <= 1).all()
    moderate = tape.row_softmax(constant(rng.random((4, 6)))).value
    assert (moderate > 0).all() and (moderate < 1).all()


def test_dropout_rate_zero_and_eval_are_identity():
    x = constant(RngStream(0).random((5, 5)))
    assert tape.dropout(x, 0.0, RngStream(1), True) is x
    assert tape.dropout(x, 0.9, RngStream(1), False) is x


def test_dropout_rejects_bad_rate():
    x = constant(np.ones((2, 2)))
    with pytest.raises(ValueError):
        tape.dropout(x, 1.0, RngStream(0), True)
    with pytest.raises(ValueError):
        tape.dropout(x, -0.1, RngStream(0), True)


def test_dropout_law_of_large_numbers():
    x = constant(np.ones((1000, 1000)))
    out = tape.dropout(x, 0.6, RngStream(7, ("drop",)), True).value
    zero_frac = (out == 0).mean()
    assert abs(zero_frac - 0.6) < 0.01 * 0.6 + 0.005
    assert abs(out.mean() - 1.0) < 0.01


def test_dropout_of_a_constant_stays_a_constant_of_its_kind():
    dense = RngStream(0).random((6, 5)) + 0.5
    out = tape.dropout(dense, 0.5, RngStream(3, ("drop",)), True)
    as_tensor = tape.dropout(constant(dense), 0.5, RngStream(3, ("drop",)), True)
    assert isinstance(out, np.ndarray)
    np.testing.assert_array_equal(out, as_tensor.value)  # the same draws
    mat = sp.random(6, 5, density=0.4, format="csr", random_state=1) + sp.eye(6, 5, format="csr")
    const = tape.SparseConst.of(mat)
    out = tape.dropout(const, 0.5, RngStream(3, ("drop",)), True)  # sparse features drop their values
    assert isinstance(out, tape.SparseConst) and out.pattern is const.pattern
    keep = RngStream(3, ("drop",)).random(mat.nnz) >= 0.5  # one draw per stored entry
    np.testing.assert_array_equal(out.values, np.where(keep, mat.data * 2.0, 0.0))


def _same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint8), want.view(np.uint8))


def _special_values(dtype, shape, seed):
    """Normal draws with -0.0, +0.0, NaN, +-inf and +-subnormals planted at random."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(shape).astype(dtype)
    tiny = np.finfo(dtype).smallest_subnormal
    special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, tiny, -tiny, 7 * tiny, -3 * tiny],
                       dtype=dtype)
    flat = v.reshape(-1)
    flat[rng.choice(flat.size, 4 * special.size, replace=False)] = np.tile(special, 4)
    return v


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_relu_and_dropout_equal_the_where_forms_byte_for_byte(dtype):
    """relu and dropout select without np.where; forward and VJP keep the
    bytes np.where gave, signed zeros, NaN payloads and subnormals included,
    also for a VJP whose g has the other float dtype."""
    other = np.float64 if dtype == np.float32 else np.float32
    x = Parameter(_special_values(dtype, (40, 7), 1))
    g = _special_values(dtype, (40, 7), 2)
    full = tape.Pattern(np.arange(0, x.value.size + 1, 7), np.tile(np.arange(7), 40), x.shape)
    short = Parameter(np.array([[-0.0, np.nan, -1.0]], dtype))  # below numpy's SIMD width fmax keeps -0.0
    _same_bytes(tape.relu(short).value, np.where(short.value > 0, short.value, 0.0))
    out = tape.relu(x)
    _same_bytes(out.value, np.where(x.value > 0, x.value, 0.0))
    with np.errstate(invalid="ignore"):  # NaN * 0 and inf * 0
        _same_bytes(out._vjp(g)[0], g * (x.value > 0))
    for rate in (0.3, 0.5):
        scale = 1.0 / (1.0 - rate)
        keep = RngStream(3, ("drop",)).random(x.shape) >= rate
        out = tape.dropout(x, rate, RngStream(3, ("drop",)), True)
        _same_bytes(out.value, np.where(keep, x.value * scale, 0.0))
        for grad in (g, g.astype(other)):
            _same_bytes(out._vjp(grad)[0], np.where(keep, grad * scale, 0.0))
        values = tape.dropout(tape.SparseConst(x.value.ravel(), full), rate, RngStream(3, ("drop",)), True).values
        _same_bytes(values, np.where(keep.ravel(), x.value.ravel() * scale, 0.0))


def _softmax_reference(v):
    shifted = v - v.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", range(1, 8))
def test_row_softmax_equals_the_row_order_form_byte_for_byte_below_8_columns(dtype, width):
    """Below 8 columns a reduce over a Fortran-order copy adds in numpy's own
    order, so forward and VJP keep the bytes of the C-order reduces.  A row
    holding a NaN comes out all NaN either way; only the sign of the max's
    NaN may differ (the C-order reduce returns numpy's default NaN)."""
    v = _special_values(dtype, (300, width), width) * 30
    g = _special_values(dtype, (300, width), 10 + width)
    nan_rows = np.isnan(v).any(axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        assert np.isnan(tape.row_softmax(Parameter(v)).value[nan_rows]).all()
        v[np.isnan(v)] = 1.0
        out = tape.row_softmax(Parameter(v))
        want = _softmax_reference(v)
        _same_bytes(out.value, want)
        inner = (g * want).sum(axis=1, keepdims=True)
        _same_bytes(out._vjp(g)[0], want * (g - inner))


@pytest.mark.parametrize("dtype,rtol", [(np.float32, 1e-6), (np.float64, 1e-14)])
@pytest.mark.parametrize("width", [8, 16])
def test_row_softmax_from_8_columns_is_close_and_rows_sum_to_one(dtype, rtol, width):
    """From 8 columns the column-order sums round differently from numpy's
    pairwise ones, within a few units in the last place."""
    rng = np.random.default_rng(width)
    v = (rng.standard_normal((300, width)) * 5).astype(dtype)
    g = rng.standard_normal((300, width)).astype(dtype)
    out = tape.row_softmax(Parameter(v))
    want = _softmax_reference(v)
    np.testing.assert_allclose(out.value, want, rtol=rtol)
    np.testing.assert_allclose(out.value.sum(axis=1), 1.0, rtol=4 * rtol)
    inner = (g * want).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(out._vjp(g)[0], want * (g - inner), rtol=rtol, atol=rtol * np.abs(g).max())


def test_matmul_takes_dense_and_sparse_constants_on_either_side():
    rng = RngStream(5)
    w = Parameter(rng.random((4, 3)), name="w")
    x = rng.random((5, 4))
    g = rng.random((5, 3))
    for const in (x, tape.SparseConst.of(sp.csr_matrix(x))):
        w.zero_grad()
        out = tape.matmul(const, w)
        np.testing.assert_allclose(out.value, x @ w.value, rtol=1e-14)
        backward(tape.vdot_const(out, g))
        np.testing.assert_allclose(w.grad, x.T @ g, rtol=1e-14)
    # a sparse constant enters only on the left; on the right a constant is dense
    h = Parameter(rng.random((5, 4)), name="h")
    out = tape.matmul(h, w.value)
    backward(tape.vdot_const(out, g))
    np.testing.assert_allclose(h.grad, g @ w.value.T, rtol=1e-14)
    with pytest.raises(ValueError):
        tape.matmul(tape.SparseConst.of(sp.csr_matrix(x)), Parameter(np.ones((3, 2))))


def test_masked_cross_entropy_perfect_predictions():
    n, k = 4, 3
    z = np.full((n, k), 1e-9)
    labels = np.array([0, 1, 2, 0])
    z[np.arange(n), labels] = 1.0 - 2e-9
    loss = tape.masked_cross_entropy(constant(z), labels, np.arange(n))
    assert 0.0 <= loss.item() <= n * 1e-7


def test_masked_cross_entropy_uniform_rows():
    m, k = 5, 7
    z = np.full((m, k), 1.0 / k)
    loss = tape.masked_cross_entropy(constant(z), np.zeros(m, dtype=int), np.arange(m))
    assert loss.item() == pytest.approx(m * np.log(k), rel=1e-12)


def test_masked_cross_entropy_direct_arithmetic():
    z = np.array([[0.5, 0.5], [0.25, 0.75]])
    labels = np.array([0, 0])
    loss = tape.masked_cross_entropy(constant(z), labels, np.array([0, 1]))
    assert loss.item() == pytest.approx(np.log(2) + np.log(4), rel=1e-12)


def test_masked_cross_entropy_errors():
    z = constant(np.full((2, 2), 0.5))
    with pytest.raises(ValueError):
        tape.masked_cross_entropy(z, np.array([0, 1]), np.array([], dtype=int))
    with pytest.raises(ValueError):
        tape.masked_cross_entropy(z, np.array([0, 5]), np.array([0, 1]))


def test_masked_cross_entropy_non_negative_random():
    rng = RngStream(3)
    z = tape.row_softmax(constant(rng.random((6, 4)))).value
    loss = tape.masked_cross_entropy(constant(z), rng.integers(0, 4, 6), np.arange(6))
    assert loss.item() >= 0.0


def test_branch_agreement_zero_for_identical():
    z = constant(RngStream(0).random((4, 3)))
    assert tape.branch_agreement_loss(z, z).item() == 0.0


def test_branch_agreement_single_entry():
    n = 5
    a = np.zeros((n, 3))
    b = np.zeros((n, 3))
    b[2, 1] = 1.0
    loss = tape.branch_agreement_loss(constant(a), constant(b))
    assert loss.item() == pytest.approx(1.0 / n, rel=1e-12)


def test_branch_agreement_matches_elementwise_oracle():
    rng = RngStream(9)
    zp, za = rng.random((5, 3)), rng.random((5, 3))
    expected = 0.0
    for i in range(5):
        for f in range(3):
            expected += (zp[i, f] - za[i, f]) ** 2
    expected /= 5
    loss = tape.branch_agreement_loss(constant(zp), constant(za))
    assert loss.item() == pytest.approx(expected, rel=1e-12)


def test_branch_agreement_shape_mismatch():
    with pytest.raises(ValueError):
        tape.branch_agreement_loss(constant(np.zeros((2, 2))), constant(np.zeros((3, 2))))


def test_backward_requires_scalar():
    w = Parameter(np.ones((2, 2)))
    out = tape.matmul(constant(np.eye(2)), w)
    with pytest.raises(ValueError):
        backward(out)


def test_backward_sum_gives_ones():
    w = Parameter(RngStream(0).random((3, 2)))
    loss = tape.vdot_const(w, np.ones((3, 2)))
    backward(loss)
    np.testing.assert_array_equal(w.grad, np.ones((3, 2)))


def test_backward_half_norm_gives_value():
    w = Parameter(RngStream(1).random((3, 2)))
    loss = tape.scale(tape.sum_sq(w), 0.5)
    backward(loss)
    np.testing.assert_allclose(w.grad, w.value, rtol=1e-15)


def test_grad_accumulates_over_shared_parameter():
    w = Parameter(np.array([[2.0]]))
    a = tape.matmul(constant(np.array([[3.0]])), w)
    b = tape.matmul(constant(np.array([[4.0]])), w)
    loss = tape.vdot_const(tape.add(a, b), np.ones((1, 1)))
    backward(loss)
    assert w.grad[0, 0] == pytest.approx(7.0)


def test_matmul_sparse_constant_gradient():
    mat = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    h = Parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
    out = tape.matmul(tape.SparseConst.of(mat), h)
    loss = tape.vdot_const(out, np.array([[1.0, 0.0], [0.0, 1.0]]))
    backward(loss)
    np.testing.assert_allclose(h.grad, mat.T @ np.array([[1.0, 0.0], [0.0, 1.0]]))


def test_segment_softmax_rows_sum_to_one():
    scores = constant(np.array([0.0, 1.0, 2.0, -1.0, 0.5]))
    indptr = np.array([0, 3, 5])
    out = tape.segment_softmax(scores, indptr).value
    assert out[:3].sum() == pytest.approx(1.0, abs=1e-12)
    assert out[3:].sum() == pytest.approx(1.0, abs=1e-12)


def test_segment_softmax_rejects_empty_segment():
    with pytest.raises(ValueError):
        tape.segment_softmax(constant(np.array([1.0])), np.array([0, 0, 1]))


def _segment_softmax_by_reduceat(v, indptr):
    """segment_softmax's values with each row's max from np.maximum.reduceat."""
    counts, starts = np.diff(indptr), indptr[:-1]
    e = np.exp(v - np.repeat(np.maximum.reduceat(v, starts), counts))
    return e / np.repeat(np.add.reduceat(e, starts), counts)


_EDGE_SCORES = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -2.5, 1e30, 1e-45, -5e-324]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.one_of(st.sampled_from(_EDGE_SCORES), st.floats(-50, 50)), min_size=1, max_size=6),
                min_size=1, max_size=12),
       st.sampled_from([np.float32, np.float64]))
def test_segment_softmax_is_byte_equal_to_the_reduceat_max(rows, dtype):
    """One-entry rows, NaN of either sign, +-inf, signed zeros and
    subnormals: the max from -inf by np.maximum.at gives
    np.maximum.reduceat's bits.  One exception: reduceat turns a row's
    leading -NaN into numpy's default +NaN (np.maximum.at keeps it), so a
    row holding a NaN, all NaN either way, may differ in the NaN's sign."""
    v = np.array([s for row in rows for s in row], dtype=dtype)
    indptr = np.concatenate([[0], np.cumsum([len(row) for row in rows])])
    got = tape.segment_softmax(tape.Tensor(v, needs_grad=False), indptr).value
    want = _segment_softmax_by_reduceat(v, indptr)
    assert got.dtype == want.dtype == dtype
    if not (np.isnan(v) & np.signbit(v)).any():
        assert got.tobytes() == want.tobytes()
    nan = np.isnan(want)
    np.testing.assert_array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


def test_tape_nbytes_counts_reachable_values():
    w = Parameter(np.ones((10, 10)))
    out = tape.relu(w)
    assert tape.tape_nbytes(out) == 2 * 10 * 10 * 8


@pytest.mark.parametrize("kind", ["tape", "dense"])
def test_edge_scores_blocked_gradients_match_finite_differences(kind, monkeypatch):
    from dualgcn.optim import finite_diff_check

    rng = RngStream(21, ("edge-scores",))
    n, p, nnz = 6, 4, 23
    rows = rng.child("rows").integers(0, n, nnz)
    cols = rng.child("cols").integers(0, n, nnz)
    rows[:n] = cols[:n] = np.arange(n)  # self-pairs score zero
    x = rng.child("x").random((n, p))
    x[x < 0.3] = 0.0
    a = Parameter(rng.child("a").random(p) - 0.5, name="a")
    weights = rng.child("w").random(nnz) - 0.5
    xp = {"tape": Parameter(x, name="xp"), "dense": x}[kind]

    expected = np.abs(x[rows] - x[cols]) @ a.value
    np.testing.assert_allclose(tape.edge_scores(xp, a, rows, cols).value, expected, rtol=1e-12)
    monkeypatch.setattr(tape, "cache_block", lambda p: 5)  # 23 pairs in chunks of 5
    np.testing.assert_allclose(tape.edge_scores(xp, a, rows, cols).value, expected, rtol=1e-12)

    def loss_fn():
        return tape.vdot_const(tape.edge_scores(xp, a, rows, cols), weights)

    params = [a, xp] if kind == "tape" else [a]
    report = finite_diff_check(loss_fn, params, h=1e-6)
    assert all(entry["status"] == "checked" and entry["passed"] for entry in report.values()), report


@pytest.mark.parametrize("kind", ["tape", "dense"])
@pytest.mark.parametrize("block", [5, None])
def test_edge_scores_cache_chunks_match_oracle_and_finite_differences(kind, block, monkeypatch):
    """29 pairs in chunks of 3, which divide neither the pair count nor the
    oracle's blocks of 5 (block=None: one block of all 29)."""
    from conftest import edge_scores_grads_by_selectors
    from dualgcn.optim import finite_diff_check

    rng = RngStream(23, ("edge-chunks",))
    n, p, nnz = 7, 4, 29
    rows = rng.child("rows").integers(0, n, nnz)
    cols = rng.child("cols").integers(0, n, nnz)
    rows[:n] = cols[:n] = np.arange(n)
    x = rng.child("x").random((n, p))
    x[x < 0.3] = 0.0
    a = Parameter(rng.child("a").random(p) - 0.5, name="a")
    weights = rng.child("w").random(nnz) - 0.5
    xp = {"tape": Parameter(x, name="xp"), "dense": x}[kind]
    monkeypatch.setattr(tape, "cache_block", lambda p: 3)

    expected = np.abs(x[rows] - x[cols]) @ a.value
    np.testing.assert_allclose(tape.edge_scores(xp, a, rows, cols).value, expected, rtol=1e-12)
    backward(tape.vdot_const(tape.edge_scores(xp, a, rows, cols), weights))
    gx, ga = edge_scores_grads_by_selectors(x, a.value, rows, cols, weights, block=block)
    np.testing.assert_allclose(a.grad, ga, rtol=1e-12)
    if kind == "tape":
        np.testing.assert_allclose(xp.grad, gx, rtol=1e-12)

    def loss_fn():
        return tape.vdot_const(tape.edge_scores(xp, a, rows, cols), weights)

    params = [a, xp] if kind == "tape" else [a]
    report = finite_diff_check(loss_fn, params, h=1e-6)
    assert all(entry["status"] == "checked" and entry["passed"] for entry in report.values()), report


@pytest.mark.parametrize("dtype,rtol", [(np.float64, 1e-12), (np.float32, 1e-6)])
@pytest.mark.parametrize("block,chunk", [(None, None), (5, 3)])
def test_edge_scores_scatter_matches_two_selector_oracle(dtype, rtol, block, chunk, monkeypatch):
    """Backward scatters sign(d) once per chunk through the chunk's pattern,
    with +-g as the values, into one accumulator and multiplies by a once:
    gx and ga equal the two-selector scatter's to rounding.  Self-pairs, a
    repeated pair and a pair of identical feature rows have sign 0 or count
    twice; (5, 3) scores in chunks of 3 against the oracle's seven blocks
    of 5, which the chunks do not divide."""
    from conftest import edge_scores_grads_by_selectors

    rng = RngStream(27, ("edge-oracle",))
    n, p, nnz = 8, 6, 31
    rows = rng.child("rows").integers(0, n, nnz)
    cols = rng.child("cols").integers(0, n, nnz)
    rows[:n] = cols[:n] = np.arange(n)
    rows[n:n + 3], cols[n:n + 3] = [1, 1, 4], [4, 4, 1]
    rows[n + 3], cols[n + 3] = 2, 5
    x = rng.child("x").random((n, p))
    x[x < 0.3] = 0.0
    x[5] = x[2]
    x = x.astype(dtype)
    a = Parameter((rng.child("a").random(p) - 0.5).astype(dtype), name="a")
    xp = Parameter(x, name="xp")
    g = (rng.child("g").random(nnz) - 0.5).astype(dtype)
    if chunk is not None:
        monkeypatch.setattr(tape, "cache_block", lambda p: chunk)

    backward(tape.vdot_const(tape.edge_scores(xp, a, rows, cols), g))
    gx, ga = edge_scores_grads_by_selectors(x, a.value, rows, cols, g, block=block)
    assert xp.grad.dtype == a.grad.dtype == dtype
    np.testing.assert_allclose(xp.grad, gx, rtol=rtol)
    np.testing.assert_allclose(a.grad, ga, rtol=rtol)


def test_backward_consumes_the_tape():
    """backward drops every interior node's grad and VJP once it has run and
    leaves the Parameters' grads; a second backward that reaches the
    consumed tape raises before it changes a grad, and a rebuilt tape works."""
    w = Parameter(RngStream(28).random((3, 2)) - 0.5, name="w")

    def loss_fn():
        return tape.sum_sq(tape.relu(tape.matmul(constant(np.eye(3)), w)))

    loss = loss_fn()
    h = loss._parents[0]
    backward(loss)
    expected = 2.0 * np.maximum(w.value, 0.0)
    np.testing.assert_allclose(w.grad, expected, rtol=1e-15)
    assert loss.grad is None and h.grad is None
    for again in (loss, tape.sum_sq(h)):
        with pytest.raises(ValueError, match="consumed"):
            backward(again)
    np.testing.assert_allclose(w.grad, expected, rtol=1e-15)
    w.zero_grad()
    backward(loss_fn())
    np.testing.assert_allclose(w.grad, expected, rtol=1e-15)


def test_spmm_values_cache_chunks_leave_gradients_unchanged(monkeypatch):
    rng = RngStream(24, ("spmm-chunks",))
    n, width = 6, 3
    dense = rng.child("pattern").random((n, n)) < 0.5
    np.fill_diagonal(dense, True)
    pattern = sp.csr_matrix(dense.astype(np.float64))
    t_vals = Parameter(rng.child("t").random(pattern.nnz), name="t")
    h = Parameter(rng.child("h").random((n, width)), name="h")
    weights = rng.child("w").random((n, width)) - 0.5

    def grads():
        t_vals.zero_grad()
        h.zero_grad()
        out = tape.spmm_values(t_vals, tape.Pattern.of(pattern), h)
        backward(tape.vdot_const(out, weights))
        return t_vals.grad.copy(), h.grad.copy()

    whole = grads()
    monkeypatch.setattr(tape, "cache_block", lambda p: 4)  # nnz entries in chunks of 4
    chunked = grads()
    for w, c in zip(whole, chunked):
        np.testing.assert_allclose(c, w, rtol=1e-12)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_pattern_products_equal_scipy_exactly(dtype):
    rng = RngStream(28, ("pattern",))
    n, p, width = 7, 5, 3
    # rows 0 and 4 are empty, and rows 1, 2, 5 and 6 list their columns out of order
    indptr = np.array([0, 0, 3, 6, 8, 8, 10, 12])
    indices = np.array([4, 0, 2, 3, 1, 0, 2, 4, 1, 0, 4, 3])
    a, b = (rng.child(name).random(indices.size).astype(dtype) for name in ("a", "b"))
    h = rng.child("h").random((p, width)).astype(dtype)
    g = rng.child("g").random((n, width)).astype(dtype)
    pattern = tape.Pattern(indptr, indices, (n, p))

    def scipy_matrix(v):
        return sp.csr_matrix((v, indices, indptr), shape=(n, p))

    # two value arrays on one pattern, in a training step's order: both
    # branches' forward products, then both backward products
    got = [pattern.product(a, h), pattern.product(b, h), pattern.t_product(a, g), pattern.t_product(b, g)]
    want = [scipy_matrix(a) @ h, scipy_matrix(b) @ h, scipy_matrix(a).T @ g, scipy_matrix(b).T @ g]
    for x, y in zip(got, want):
        assert x.dtype == y.dtype == dtype
        assert np.array_equal(x, y)


@pytest.mark.parametrize("dtype", [np.int32, np.float64])
def test_pattern_transpose_equals_scipys_and_checks_the_values(dtype):
    # the 7 x 5 pattern above: rows 0 and 4 empty, and four rows out of order
    indptr = np.array([0, 0, 3, 6, 8, 8, 10, 12], dtype=np.int32)
    indices = np.array([4, 0, 2, 3, 1, 0, 2, 4, 1, 0, 4, 3], dtype=np.int32)
    values = (RngStream(29, ("transpose",)).random(indices.size) * 100).astype(dtype)
    pattern = tape.Pattern(indptr, indices, (7, 5))
    got, got_values = pattern.transpose(values)
    want = sp.csr_matrix((values, indices, indptr), shape=(7, 5)).T.tocsr()
    assert got.shape == want.shape == (5, 7)
    for x, y in ((got.indptr, want.indptr), (got.indices, want.indices), (got_values, want.data)):
        assert x.dtype == y.dtype
        assert np.array_equal(x, y)
    with pytest.raises(ValueError, match="values for a pattern of 12 entries"):
        pattern.transpose(values[:-1])
    with pytest.raises(ValueError, match="values for a pattern of 12 entries"):
        pattern.transpose(values.reshape(3, 4))


def test_edge_scores_forward_memory_is_one_cache_chunk():
    import tracemalloc

    rng = RngStream(25, ("edge-memory",))
    n, p, nnz = 400, 200, 20_000
    x = rng.child("x").random((n, p))
    rows = rng.child("rows").integers(0, n, nnz)
    cols = rng.child("cols").integers(0, n, nnz)
    a = Parameter(rng.child("a").random(p) - 0.5, name="a")
    tracemalloc.start()
    try:
        tape.edge_scores(x, a, rows, cols)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a whole (nnz, p) difference would be 32 MB; the output itself is 160 KB
    assert peak < 4 * 2**20, peak


def test_edge_scores_backward_memory_is_one_accumulator_and_chunks():
    import tracemalloc

    rng = RngStream(25, ("edge-backward-memory",))
    # 50,000 pairs: more than 2**22 // p = 20,971, what a 32 MB block of differences holds
    n, p, nnz = 4000, 200, 50_000
    xp = Parameter(rng.child("x").random((n, p)), name="xp")
    rows = rng.child("rows").integers(0, n, nnz)
    cols = rng.child("cols").integers(0, n, nnz)
    a = Parameter(rng.child("a").random(p) - 0.5, name="a")
    loss = tape.vdot_const(tape.edge_scores(xp, a, rows, cols), rng.child("g").random(nnz) - 0.5)
    tracemalloc.start()
    try:
        backward(loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the one (n, p) accumulator is 6.4 MB, and the rest is the incoming g
    # (0.4 MB) and a chunk's differences and signs (~0.26 MB each); a
    # second accumulator, or 24 B per pair, would break the bound
    assert peak < 1.25 * n * p * 8, peak
    assert xp.grad.shape == (n, p) and a.grad.shape == (p,)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_edge_scores_x_gradient_does_not_depend_on_the_chunk_size(dtype, monkeypatch):
    """The scatter adds pair by pair, in order, into one accumulator, so
    xp's gradient is the same bit for bit in chunks of 1, of 3 (which do
    not divide the 31 pairs) and of the default size (one chunk)."""
    rng = RngStream(32, ("edge-chunk-size",))
    n, p, nnz = 8, 6, 31
    rows = rng.child("rows").integers(0, n, nnz)
    cols = rng.child("cols").integers(0, n, nnz)
    x = rng.child("x").random((n, p)).astype(dtype)
    a = Parameter((rng.child("a").random(p) - 0.5).astype(dtype), name="a")
    g = (rng.child("g").random(nnz) - 0.5).astype(dtype)

    def x_grad():
        xp = Parameter(x, name="xp")
        backward(tape.vdot_const(tape.edge_scores(xp, a, rows, cols), g))
        return xp.grad

    whole = x_grad()
    for chunk in (1, 3):
        monkeypatch.setattr(tape, "cache_block", lambda p, chunk=chunk: chunk)
        assert np.array_equal(x_grad(), whole), chunk


@pytest.mark.parametrize("vdtype,hdtype", [(np.float32, np.float32), (np.float64, np.float64),
                                           (np.float32, np.float64), (np.float64, np.float32)])
@pytest.mark.parametrize("width", [1, 3])
def test_pattern_products_add_into_out_as_scipy_does(vdtype, hdtype, width):
    """Without out a product is scipy's, dtype included; with out it is
    added, entry by entry in storage order, to what out holds.  Small
    integers keep every sum exact, so out0 + scipy's product is the
    oracle for the second."""
    rng = RngStream(29, ("pattern-out",))
    n, p = 7, 5
    indptr = np.array([0, 0, 3, 6, 8, 8, 10, 12])
    indices = np.array([4, 0, 2, 3, 1, 0, 2, 4, 1, 0, 4, 3])
    values = rng.child("v").integers(-3, 4, indices.size).astype(vdtype)
    h = rng.child("h").integers(-3, 4, (p, width)).astype(hdtype)
    g = rng.child("g").integers(-3, 4, (n, width)).astype(hdtype)
    m = sp.csr_matrix((values, indices, indptr), shape=(n, p))
    pattern = tape.Pattern(indptr, indices, (n, p))
    for got, want, operand in ((pattern.product, m @ h, h), (pattern.t_product, m.T @ g, g)):
        plain = got(values, operand)
        assert plain.dtype == want.dtype and np.array_equal(plain, want)
        start = rng.child("out").integers(-5, 6, want.shape).astype(want.dtype)
        out = start.copy()
        assert got(values, operand, out=out) is out
        assert np.array_equal(out, start + want)
        with pytest.raises(ValueError):
            got(values, operand, out=np.zeros((want.shape[0] + 1, width), want.dtype))
    with pytest.raises(ValueError):
        pattern.product(values, g)  # n rows where the pattern has p columns
    with pytest.raises(ValueError):
        pattern.product(values[:-1], h)


def test_a_gradient_shared_by_two_parents_is_not_changed_through_the_other():
    # add hands its one g to both parents; x then takes a second gradient
    # through the relu, which must not reach y's grad
    x = Parameter(np.array([1.0, -2.0, 3.0]), name="x")
    y = Parameter(np.array([0.5, 0.5, 0.5]), name="y")
    weights = np.array([1.0, 2.0, 3.0])
    backward(tape.add(tape.vdot_const(tape.add(x, y), weights), tape.sum_sq(tape.relu(x))))
    np.testing.assert_array_equal(y.grad, weights)
    np.testing.assert_array_equal(x.grad, weights + 2.0 * np.maximum(x.value, 0.0))
    assert x.grad is not y.grad


def test_a_float64_gradient_rounds_into_a_float32_grad_as_in_place_add_does():
    # the first gradient is kept as it is; the second, float64 with bits
    # below float32's, is added out of place and rounded once, as += does
    rng = RngStream(30, ("round",))
    first = rng.child("a").random(64).astype(np.float32)
    kept = first.copy()
    second = rng.child("b").random(64) * 1e-3
    node = Parameter(np.zeros(64, dtype=np.float32), name="node")
    tape._accumulate(node, first)
    assert node.grad is first
    tape._accumulate(node, second)
    want = kept.copy()
    want += second
    assert node.grad.dtype == np.float32
    assert np.array_equal(node.grad, want)
    assert np.array_equal(first, kept)


def test_take_or_zero_gradients_match_finite_differences():
    from dualgcn.optim import finite_diff_check

    rng = RngStream(22, ("take-or-zero",))
    v = Parameter(rng.child("v").random(4) - 0.5, name="v")
    idx = np.array([2, 0, 4, 2, 3, 4, 0, 2])  # repeats, and 4 == len(v) reads the zero slot
    weights = rng.child("w").random(idx.size) - 0.5
    vals = v.value
    expected = [vals[2], vals[0], 0.0, vals[2], vals[3], 0.0, vals[0], vals[2]]
    np.testing.assert_array_equal(tape.take_or_zero(v, idx).value, expected)

    def loss_fn():
        spread = tape.take_or_zero(v, idx)
        return tape.add(tape.sum_sq(spread), tape.vdot_const(spread, weights))

    report = finite_diff_check(loss_fn, [v], h=1e-6)
    assert all(entry["status"] == "checked" and entry["passed"] for entry in report.values()), report


def _weighted(out, rng):
    """A scalar of a tape value: its dot with fixed random weights."""
    return tape.vdot_const(out, rng.child("weights").random(out.shape) - 0.5)


def _param(rng, name, shape, low=-1.0):
    return Parameter(rng.child(name).uniform(low, 1.0, shape), name=name)


def _case_matmul(rng):
    a, b = _param(rng, "a", (3, 4)), _param(rng, "b", (4, 2))
    c = tape.SparseConst.of(sp.csr_matrix(rng.child("c").random((5, 3)) * (rng.child("mask").random((5, 3)) < 0.5)))
    return lambda: _weighted(tape.matmul(c, tape.matmul(a, b)), rng), [a, b]


def _case_relu(rng):
    x = _param(rng, "x", (3, 4))
    x.value[np.abs(x.value) < 0.1] = 0.5  # keep every entry off the kink
    return lambda: _weighted(tape.relu(x), rng), [x]


def _case_dropout(rng):
    x = _param(rng, "x", (4, 5))
    return lambda: _weighted(tape.dropout(x, 0.4, RngStream(5, ("drop",)), True), rng), [x]


def _case_masked_cross_entropy(rng):
    z = _param(rng, "z", (5, 3), low=0.2)
    labels = np.array([0, 2, 1, 1, 0])
    return lambda: tape.masked_cross_entropy(z, labels, np.array([0, 1, 3])), [z]


def _case_edge_scores(rng):
    xp, a = _param(rng, "xp", (5, 3)), _param(rng, "a", 3)
    rows, cols = np.array([0, 1, 1, 2, 4, 3, 0]), np.array([1, 0, 2, 4, 3, 1, 4])
    return lambda: _weighted(tape.edge_scores(xp, a, rows, cols), rng), [xp, a]


def _case_spmm_values(rng):
    pattern = sp.csr_matrix(np.array([[1, 1, 0, 0], [0, 1, 1, 1], [1, 0, 1, 0], [0, 0, 1, 1.0]]))
    t, h = _param(rng, "t", pattern.nnz), _param(rng, "h", (4, 2))
    return lambda: _weighted(tape.spmm_values(t, tape.Pattern.of(pattern), h), rng), [t, h]


def _two_params(op):
    def case(rng):
        a, b = _param(rng, "a", (3, 4)), _param(rng, "b", (3, 4))
        return lambda: _weighted(op(a, b), rng), [a, b]
    return case


def _one_param(op, shape=(3, 4), scalar=False):
    def case(rng):
        x = _param(rng, "x", shape)
        return (lambda: op(x) if scalar else _weighted(op(x), rng)), [x]
    return case


_C = RngStream(31, ("const",)).random((3, 4))
# one small loss per differentiable op in tape.__all__: name -> rng -> (loss_fn, params)
_OP_CASES = {
    "matmul": _case_matmul,
    "add": _two_params(tape.add),
    "scale": _one_param(lambda x: tape.scale(x, -1.7)),
    "relu": _case_relu,
    "row_softmax": _one_param(tape.row_softmax),
    "dropout": _case_dropout,
    "masked_cross_entropy": _case_masked_cross_entropy,
    "branch_agreement_loss": _two_params(tape.branch_agreement_loss),
    "vdot_const": _one_param(lambda x: tape.vdot_const(x, _C), scalar=True),
    "sum_sq": _one_param(tape.sum_sq, scalar=True),
    "sum_sq_diff": _one_param(lambda x: tape.sum_sq_diff(x, _C), scalar=True),
    "edge_scores": _case_edge_scores,
    # repeats, and 4 == len(x) reads the zero slot
    "take_or_zero": _one_param(lambda x: tape.take_or_zero(x, np.array([2, 0, 4, 2, 3, 4])), shape=4),
    "segment_softmax": _one_param(lambda x: tape.segment_softmax(x, np.array([0, 3, 4, 9])), shape=9),
    "spmm_values": _case_spmm_values,
}
_NOT_OPS = {"Tensor", "Parameter", "Pattern", "SparseConst", "backward", "tape_nbytes", "no_grad", "cache_block"}


def test_every_op_gradient_matches_finite_differences():
    from dualgcn.optim import finite_diff_check

    assert set(tape.__all__) - _NOT_OPS == set(_OP_CASES), "every differentiable op needs a case"
    for name, case in _OP_CASES.items():
        loss_fn, params = case(RngStream(30, ("op", name)))
        report = finite_diff_check(loss_fn, params, h=1e-6)
        assert all(e["status"] == "checked" and e["passed"] for e in report.values()), (name, report)


def test_all_lists_every_public_function():
    import inspect

    for name in tape.__all__:
        assert hasattr(tape, name), name
    public = {name for name, obj in vars(tape).items()
              if inspect.isfunction(obj) and obj.__module__ == tape.__name__ and not name.startswith("_")}
    assert public <= set(tape.__all__), sorted(public - set(tape.__all__))


def test_no_grad_records_no_parents_and_no_closures():
    from conftest import make_random_graph
    from dualgcn.model import ModelConfig, _GraphContext, forward, init_params

    x = RngStream(26).random((9, 5))
    cfg = ModelConfig(hidden_gcn=4, hidden_gl=3, dropout=0.0)
    params = init_params(5, 3, cfg, RngStream(27))
    ctx = _GraphContext(x, make_random_graph(9, 0.3, seed=26), cfg)
    with tape.no_grad():
        za = forward(x, ctx.build_affinity(params, cfg), None, params, cfg, mode="eval").za
    assert tape.tape_nbytes(za) == za.value.nbytes
    assert za._parents == () and za._vjp is None and not za.needs_grad
    # an eval-mode forward outside no_grad still records, as a training forward does
    recorded = forward(x, ctx.build_affinity(params, cfg), None, params, cfg, mode="eval").za
    np.testing.assert_array_equal(recorded.value, za.value)
    assert tape.tape_nbytes(recorded) > 10 * za.value.nbytes
    backward(tape.sum_sq(recorded))
    assert all(p.grad is not None and np.abs(p.grad).sum() > 0 for p in params.all_parameters())


def test_no_grad_restores_recording_after_an_exception():
    w = Parameter(np.ones((2, 2)), name="w")
    with pytest.raises(RuntimeError):
        with tape.no_grad():
            with tape.no_grad():
                pass
            assert not tape.matmul(constant(np.eye(2)), w).needs_grad
            raise RuntimeError("inside no_grad")
    out = tape.matmul(constant(np.eye(2)), w)
    assert out.needs_grad and out._parents
    # parameters made inside no_grad stay trainable leaves
    with tape.no_grad():
        assert Parameter(np.zeros(2)).needs_grad
