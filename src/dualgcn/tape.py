"""Recorded-tape reverse-mode gradients over dense and masked-sparse values.

This is not a general autodiff system: the op set below is exactly what
the two-branch convolution network with a learned affinity graph needs,
which keeps the surface small enough to verify entry-by-entry against
central finite differences (see optim.finite_diff_check).

Conventions
-----------
* Values are float32 or float64 numpy arrays, and every op keeps its
  inputs' dtype: float32 inputs give float32 values, buffers and grads.
  Any other dtype (ints, float16, longdouble) is cast to float64 on entry
  (see _value_dtype).  Loss scalars are float64 either way.  Constants
  enter as plain arrays and never receive gradients.  A sparse constant
  (a fixed propagation operator, sparse features) enters as a
  SparseConst: its 1-D values array on a Pattern that its owner builds
  once and keeps.  No op takes a scipy matrix.
* Sparse products call scipy's csr_matvecs/csc_matvecs kernels on a
  Pattern's arrays, the ones scipy's own products run, so they match
  scipy bit for bit.  The kernels add into a caller-owned output when one
  is given, so a backward scatters chunk by chunk into one accumulator,
  term by term in the same order whatever the chunk size: backward
  scratch is cache-sized chunks plus the gradients themselves.
* Masked selects and row reductions run without a branch or a call per
  row: numpy's np.where branches on every element, which a random
  dropout mask mispredicts about half the time, and a reduce along the
  rows of a narrow C-order array makes one inner-loop call per row.  So
  relu is fmax(x, 0) plus 0.0, dropout ANDs each value's bits with -keep,
  and row_softmax reduces a Fortran-order copy, one call per column.
  relu and dropout are byte-equal to the np.where forms for every input
  (-0.0, NaN, inf and subnormals included).  The max is exact at any
  width (a row holding a NaN is all NaN either way, though the NaN's sign
  may differ); a Fortran-order sum adds 0 + c0 + c1 + ... in column
  order, which is numpy's own order below 8 columns, and rounds otherwise
  (numpy sums 8 or more contiguous values pairwise).
* Gradients are not copied.  A node's first gradient of its dtype and
  shape becomes its grad as it is, so one array may be the grad of two
  nodes; later gradients are added out of place, and no VJP writes its
  incoming g.
* A forward pass builds a DAG of Tensor nodes; ``backward(loss)``
  accumulates d loss / d leaf into every reachable Parameter's ``grad``
  and consumes the tape: each interior node drops its grad, its VJP
  closure and its parents once the VJP has run, and a second backward
  through it raises.
  Under ``no_grad()`` nothing is recorded: each op returns a bare value.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

__all__ = [
    "Tensor",
    "Parameter",
    "Pattern",
    "SparseConst",
    "backward",
    "matmul",
    "add",
    "scale",
    "relu",
    "row_softmax",
    "dropout",
    "masked_cross_entropy",
    "branch_agreement_loss",
    "vdot_const",
    "sum_sq",
    "sum_sq_diff",
    "tape_nbytes",
    "no_grad",
    "cache_block",
    "edge_scores",
    "take_or_zero",
    "segment_softmax",
    "spmm_values",
]

LOG_CLAMP = 1e-12  # floor for ln arguments; keeps early-training losses finite

_recording = True  # False inside no_grad()


def _value_dtype(dtype) -> np.dtype:
    """The dtype the tape computes in for inputs of this dtype: float32 stays
    float32, and everything else is float64."""
    return np.dtype(np.float32) if dtype == np.float32 else np.dtype(np.float64)


class Tensor:
    """A node of the recorded computation graph."""

    __slots__ = ("value", "grad", "_parents", "_vjp", "needs_grad")

    def __init__(self, value, parents=(), vjp=None, needs_grad=None):
        self.value = value if isinstance(value, np.ndarray) else np.asarray(value, dtype=np.float64)
        self.grad = None
        if parents and not _recording:
            parents, vjp, needs_grad = (), None, False
        self._parents = tuple(parents)
        self._vjp = vjp
        if needs_grad is None:
            needs_grad = any(p.needs_grad for p in self._parents)
        self.needs_grad = needs_grad

    @property
    def shape(self):
        return self.value.shape

    def item(self) -> float:
        return float(self.value)


class Parameter(Tensor):
    """A trainable leaf; gradient accumulates across a backward pass."""

    __slots__ = ("name",)

    def __init__(self, value, name: str = ""):
        value = np.asarray(value)
        super().__init__(np.array(value, dtype=_value_dtype(value.dtype), copy=True), needs_grad=True)
        self.name = name

    def zero_grad(self):
        self.grad = None


def _accumulate(node: Tensor, g):
    """Add g into node.grad, which may share its array with another node's.

    A first gradient of the node's dtype and shape is kept as it is, with
    no copy: a VJP may hand one array to two parents (add does), and no
    VJP writes its incoming g.  So a later gradient is added out of place,
    into a new array; numpy picks the loop from the operands, so a float64
    g rounds into a float32 grad exactly as ``grad += g`` would.
    """
    if node.grad is None:
        keep = isinstance(g, np.ndarray) and g.dtype == node.value.dtype and g.shape == node.value.shape
        node.grad = g if keep else np.array(g, dtype=node.value.dtype, copy=True)
    else:
        node.grad = np.add(node.grad, g, out=np.empty_like(node.grad))


def _consumed(g):
    """The VJP a node keeps once backward has run it."""
    raise ValueError("backward through a consumed tape: build the loss again")


def backward(loss: Tensor) -> None:
    """Reverse pass from a scalar loss; accumulates into Parameter.grad.

    The pass consumes the tape: once a node's VJP has run, the node drops
    its grad, its VJP closure (with the arrays the closure kept) and its
    links to its parents, so a gradient lives only until its parents have
    taken it, and a value no caller holds is freed once every node that
    reads it has run.  Leaves keep their grads.  A later backward that
    reaches any node of a consumed tape raises ValueError before it
    changes a grad.
    """
    if loss.value.size != 1:
        raise ValueError("backward expects a scalar loss")
    # topological order by depth-first post-order
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        if node._vjp is _consumed:
            _consumed(None)
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p.needs_grad:
                stack.append((p, False))
    loss.grad = np.ones_like(loss.value)
    while order:
        node = order.pop()
        vjp, g = node._vjp, node.grad
        if vjp is None:
            continue  # a leaf keeps its grad
        parents = node._parents
        node.grad, node._vjp, node._parents = None, _consumed, ()
        if g is not None:
            for parent, pg in zip(parents, vjp(g)):
                if pg is not None and parent.needs_grad:
                    _accumulate(parent, pg)
            pg = None  # the last gradient handed on is freed before the next VJP runs


@contextmanager
def no_grad():
    """Record nothing while inside: new Tensors keep no parents and no VJP.

    Their values are computed as usual, but each one drops the inputs it
    was made from, so the arrays behind a forward pass are freed as it
    goes and backward cannot reach a parameter through them.
    """
    global _recording
    before = _recording
    _recording = False
    try:
        yield
    finally:
        _recording = before


def tape_nbytes(root: Tensor) -> int:
    """Total bytes of values recorded on the tape reachable from root."""
    total = 0
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        total += node.value.nbytes
        stack.extend(node._parents)
    return total


# ---------------------------------------------------------------------------
# dense kernels
# ---------------------------------------------------------------------------

def _value(v):
    """The array behind a tape value; a constant cast to its _value_dtype."""
    if isinstance(v, Tensor):
        return v.value
    v = np.asarray(v)
    return v.astype(_value_dtype(v.dtype), copy=False)


def matmul(a, b) -> Tensor:
    """a @ b; either operand may be a dense constant, and a may be a
    SparseConst, which is multiplied through spmm_values."""
    if isinstance(a, SparseConst):
        return spmm_values(a.values, a.pattern, b)
    av, bv = _value(a), _value(b)
    if av.shape[-1] != bv.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {av.shape} @ {bv.shape}")
    out = av @ bv
    parents = tuple(t for t in (a, b) if isinstance(t, Tensor))

    def vjp(g):
        grads = []
        if isinstance(a, Tensor):
            grads.append(g @ bv.T if a.needs_grad else None)
        if isinstance(b, Tensor):
            grads.append(av.T @ g if b.needs_grad else None)
        return grads

    return Tensor(np.asarray(out), parents, vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    out = a.value + b.value

    def vjp(g):
        return g, g

    return Tensor(out, (a, b), vjp)


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    out = a.value * c

    def vjp(g):
        return (g * c,)

    return Tensor(out, (a,), vjp)


def relu(x: Tensor) -> Tensor:
    out = np.fmax(x.value, 0.0)  # NaN -> 0, as x > 0 is false for it
    out += 0.0  # -0.0 -> +0.0

    def vjp(g):
        return (g * (out > 0),)

    return Tensor(out, (x,), vjp)


def row_softmax(x: Tensor) -> Tensor:
    v = x.value
    shifted = v - np.asfortranarray(v).max(axis=1, keepdims=True)
    e = np.exp(shifted)
    out = e / np.asfortranarray(e).sum(axis=1, keepdims=True)

    def vjp(g):
        inner = np.asfortranarray(g * out).sum(axis=1, keepdims=True)
        return (out * (g - inner),)

    return Tensor(out, (x,), vjp)


def dropout(x, rate: float, rng, training: bool):
    """Inverted dropout; eval mode (or rate 0) is the identity.

    A constant comes back as a constant: a SparseConst is dropped as its
    stored values, one draw per entry, on the same Pattern.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    sparse = isinstance(x, SparseConst)
    scale_ = 1.0 / (1.0 - rate)
    v = _value(x.values if sparse else x)
    keep = rng.random(v.shape) >= rate
    out = _keep_or_zero(v * scale_, keep)
    if sparse:
        return SparseConst(out, x.pattern)
    if not isinstance(x, Tensor):
        return out

    def vjp(g):
        return (_keep_or_zero(g * scale_, keep),)

    return Tensor(out, (x,), vjp)


def _keep_or_zero(v, keep):
    """np.where(keep, v, 0.0) for a new float array v, written into v.

    Each element's bits are ANDed with -keep in the integer type of v's
    width: all ones where kept, zero (+0.0) where dropped.
    """
    bits = v.view(f"i{v.itemsize}")
    bits &= np.negative(keep, dtype=bits.dtype)
    return v


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def masked_cross_entropy(z: Tensor, labels, mask_idx) -> Tensor:
    """Negative log likelihood of the true class, summed over the masked nodes.

    ``z`` holds row-softmax outputs; ln arguments are clamped below at
    LOG_CLAMP so the loss stays finite.
    """
    mask_idx = np.asarray(mask_idx, dtype=np.int64)
    if mask_idx.size == 0:
        raise ValueError("masked_cross_entropy: empty mask")
    labels = np.asarray(labels, dtype=np.int64)
    y = labels[mask_idx]
    if y.min() < 0 or y.max() >= z.value.shape[1]:
        raise ValueError("label out of class range")
    zt = z.value[mask_idx, y]
    clamped = np.maximum(zt, LOG_CLAMP)
    out = -np.log(clamped).sum()

    def vjp(g):
        gz = np.zeros_like(z.value)
        live = zt > LOG_CLAMP
        gz[mask_idx[live], y[live]] = -float(g) / zt[live]
        return (gz,)

    return Tensor(np.float64(out), (z,), vjp)


def branch_agreement_loss(zp: Tensor, za: Tensor) -> Tensor:
    """Squared Frobenius distance between the two branches' softmax
    outputs, divided by the row count."""
    if zp.value.shape != za.value.shape:
        raise ValueError(f"shape mismatch: {zp.value.shape} vs {za.value.shape}")
    diff = zp.value - za.value
    coef = 1.0 / zp.value.shape[0]
    out = coef * float((diff * diff).sum())

    def vjp(g):
        base = (2.0 * coef * float(g)) * diff
        gp = base if zp.needs_grad else None
        ga = -base if za.needs_grad else None
        return gp, ga

    return Tensor(np.float64(out), (zp, za), vjp)


def vdot_const(t: Tensor, c) -> Tensor:
    """<t, c> for a constant c of the same shape."""
    c = np.asarray(c, dtype=t.value.dtype)  # a float64 c would upcast t's gradient
    out = float((t.value * c).sum())

    def vjp(g):
        return (float(g) * c,)

    return Tensor(np.float64(out), (t,), vjp)


def sum_sq(t: Tensor) -> Tensor:
    out = float((t.value * t.value).sum())

    def vjp(g):
        return (2.0 * float(g) * t.value,)

    return Tensor(np.float64(out), (t,), vjp)


def sum_sq_diff(t: Tensor, c) -> Tensor:
    c = np.asarray(c, dtype=t.value.dtype)
    diff = t.value - c
    out = float((diff * diff).sum())

    def vjp(g):
        return (2.0 * float(g) * diff,)

    return Tensor(np.float64(out), (t,), vjp)


# ---------------------------------------------------------------------------
# masked-sparse ops: values live on a fixed CSR support (cols, indptr)
# ---------------------------------------------------------------------------

def cache_block(p: int) -> int:
    """Support entries per chunk so one chunk's (chunk, p) float64 array is ~256 KB
    (~128 KB in float32: the count does not depend on the dtype).

    A chunk stays in L2 cache while it is gathered, subtracted, taken
    absolute and reduced; a 32 MB block streams through memory at each of
    those steps, which made the edge scorer ~3x slower on pubmed's support.
    """
    return max(1, 2**15 // p)


def edge_scores(xp, a: Tensor, rows, cols) -> Tensor:
    """s_k = a . |xp[rows_k] - xp[cols_k]| per pair k, shape (len(rows),).

    xp is a tape value or a dense constant.  The (len(rows), p) difference
    is formed over chunks of at most cache_block(p) pairs, so the transient
    memory is one cache-sized chunk rather than O(nnz * p); backward
    recomputes it the same way.
    Backward takes sign(difference) of each chunk in a chunk-sized buffer
    and scatters it at once into one (n, p) accumulator, through the
    (chunk, n) pattern whose row k holds pair k's nodes, rows_k at 2k and
    cols_k at 2k + 1, with the values +g_k and -g_k; a multiplies the
    result once.  The kernel adds pair by pair in order into the one
    accumulator, so xp's gradient does not depend on the chunk size.
    """
    tracked = isinstance(xp, Tensor)
    x = xp.value if tracked else xp
    n, p = x.shape
    chunk = cache_block(p)
    nnz = rows.size
    dtype = np.result_type(x.dtype, a.value.dtype)

    out = np.empty(nnz, dtype=dtype)
    for lo in range(0, nnz, chunk):
        d = x[rows[lo:lo + chunk]]
        d -= x[cols[lo:lo + chunk]]
        out[lo:lo + chunk] = np.abs(d, out=d) @ a.value

    def vjp(g):
        scatter = tracked and xp.needs_grad
        gx = np.zeros((n, p), dtype=dtype) if scatter else None
        ga = np.zeros_like(a.value) if a.needs_grad else None
        if scatter:
            width = min(chunk, nnz)
            ptr = np.arange(0, 2 * width + 1, 2, dtype=rows.dtype)
            # a chunk's pair k has its nodes and its values +g_k, -g_k at 2k and 2k + 1
            nodes = np.empty((width, 2), dtype=rows.dtype)
            weights = np.empty((width, 2), dtype=dtype)
            signs = np.empty((width, p), dtype=dtype)
        for lo in range(0, nnz, chunk):
            hi = min(lo + chunk, nnz)
            d = x[rows[lo:hi]]
            d -= x[cols[lo:hi]]
            if scatter:
                size = hi - lo
                nodes[:size, 0], nodes[:size, 1] = rows[lo:hi], cols[lo:hi]
                weights[:size, 0] = g[lo:hi]
                np.negative(g[lo:hi], out=weights[:size, 1])
                np.sign(d, out=signs[:size])
                # one product per chunk; np.add.at is ~10x slower
                Pattern(ptr[:size + 1], nodes[:size].ravel(), (size, n)).t_product(
                    weights[:size].ravel(), signs[:size], out=gx)
            if ga is not None:
                ga += np.abs(d, out=d).T @ g[lo:hi]
        if scatter:
            gx *= a.value
        return (gx, ga) if tracked else (ga,)

    return Tensor(out, (xp, a) if tracked else (a,), vjp)


def take_or_zero(t: Tensor, idx) -> Tensor:
    """out_k = t[idx_k], reading 0 where idx_k == len(t).

    Spreads per-pair values to the support entries: both entries of a pair
    read its value and self-pairs read the extra zero slot.
    """
    m = t.value.size
    dtype = t.value.dtype
    out = np.append(t.value, np.zeros(1, dtype))[idx]

    def vjp(g):
        # bincount sums its weights in float64
        return (np.bincount(idx, weights=g, minlength=m + 1)[:m].astype(dtype, copy=False),)

    return Tensor(out, (t,), vjp)


def segment_softmax(scores: Tensor, indptr) -> Tensor:
    """Softmax within each CSR row segment of a flat score vector.

    Each row's max is taken by np.maximum.at over the entries' row ids,
    from -inf, in entry order.  The max of -inf and v is v, so each row
    then folds its entries as np.maximum.reduceat does and gets its bits,
    signed zeros and NaN included, in ~0.4x its time (0.55 against 1.31
    ms on the pubmed-shaped support's 98,585 entries).  The one exception:
    reduceat turns a row's leading -NaN into +NaN, which this keeps.
    """
    counts = np.diff(indptr)
    if (counts == 0).any():
        raise ValueError("segment_softmax: empty row segment")
    starts = indptr[:-1]
    v = scores.value
    seg_max = np.full(counts.size, -np.inf, dtype=v.dtype)
    np.maximum.at(seg_max, np.repeat(np.arange(counts.size), counts), v)
    e = np.exp(v - np.repeat(seg_max, counts))
    sums = np.add.reduceat(e, starts)
    out = e / np.repeat(sums, counts)

    def vjp(g):
        inner = np.add.reduceat(g * out, starts)
        return (out * (g - np.repeat(inner, counts)),)

    return Tensor(out, (scores,), vjp)


class Pattern:
    """A fixed CSR pattern whose products take their values at each call.

    Holds indptr, indices and shape, and no values, so it keeps no tape
    value alive past the call that used it.  product runs scipy's
    csr_matvecs, t_product its csc_matvecs and transpose its csr_tocsc on
    these arrays: the kernels that scipy's own m @ h, m.T @ g and
    m.T.tocsr() run (m.T is the CSC matrix over m's arrays), so the
    results are scipy's bit for bit and no scipy matrix is built.  The
    products add into their output: without out a product lands in new
    zeros of the operands' common dtype, as scipy's does; a caller that
    passes out owns it and gets the product added, term by term in
    storage order, to what it holds.
    """

    __slots__ = ("indptr", "indices", "shape")

    def __init__(self, indptr, indices, shape):
        self.indptr = indptr
        self.indices = indices
        self.shape = (int(shape[0]), int(shape[1]))

    @classmethod
    def of(cls, m: sp.csr_matrix) -> "Pattern":
        """The pattern of a CSR matrix, sharing its index arrays."""
        return cls(m.indptr, m.indices, m.shape)

    def product(self, values, h, out=None):
        """m @ h for the matrix m with these values, added into out if given."""
        return self._matvecs(_sparsetools.csr_matvecs, self.shape, values, h, out)

    def t_product(self, values, g, out=None):
        """m.T @ g for the matrix m with these values, added into out if given."""
        return self._matvecs(_sparsetools.csc_matvecs, self.shape[::-1], values, g, out)

    def transpose(self, values):
        """(pattern, values) of m.T for the matrix m with these values, in
        scipy's m.T.tocsr() form: csr_tocsc, a counting sort, lists each
        row's columns in ascending order and moves every value to its
        mirror's slot.  Outputs keep the index and value dtypes."""
        if values.shape != self.indices.shape:
            raise ValueError(f"{values.shape} values for a pattern of {self.indices.size} entries")
        rows, cols = self.shape
        indptr = np.empty(cols + 1, dtype=self.indices.dtype)
        indices = np.empty_like(self.indices)
        out = np.empty_like(values)
        _sparsetools.csr_tocsc(rows, cols, self.indptr, self.indices, values, indptr, indices, out)
        return Pattern(indptr, indices, (cols, rows)), out

    def _matvecs(self, kernel, shape, values, h, out):
        # the kernels index raw memory: every shape is checked before the call
        rows, cols = shape
        if h.ndim != 2 or h.shape[0] != cols:
            raise ValueError(f"sparse product dimension mismatch: {shape} @ {h.shape}")
        if values.shape != self.indices.shape:
            raise ValueError(f"{values.shape} values for a pattern of {self.indices.size} entries")
        if out is None:
            out = np.zeros((rows, h.shape[1]), dtype=np.result_type(values.dtype, h.dtype))
        elif out.shape != (rows, h.shape[1]) or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous {(rows, h.shape[1])} array, got {out.shape}")
        kernel(rows, cols, h.shape[1], self.indptr, self.indices, values, h.ravel(), out.ravel())
        return out


class SparseConst:
    """A constant sparse matrix: its 1-D values on a Pattern.

    The features, the frozen operator and the PPMI operator each take this
    form once, from the owner that keeps them for as long as they live, and
    each product runs on the pattern's arrays: no scipy matrix is built.
    """

    __slots__ = ("values", "pattern")

    def __init__(self, values, pattern: Pattern):
        self.values = values
        self.pattern = pattern

    @classmethod
    def of(cls, m) -> "SparseConst":
        """A scipy matrix's values on its CSR pattern, sharing its arrays."""
        m = m.tocsr()
        return cls(m.data, Pattern.of(m))

    def matrix(self) -> sp.csr_matrix:
        """The matrix as scipy holds it, over the same arrays."""
        p = self.pattern
        return sp.csr_matrix((self.values, p.indices, p.indptr), shape=p.shape)


def spmm_values(values, pattern: Pattern, h) -> Tensor:
    """m @ h for the matrix m with these values on pattern.

    values is a tape value (the learned S) or a constant 1-D array; h is a
    tape value or a constant.  Backward takes h's gradient as m.T @ g
    through the pattern; the values' gradient derives the row ids from
    indptr, then takes the per-entry dots g_i . h_j over chunks of
    cache_block(width) entries: each chunk's gathered rows live only until
    its dots are summed, so a cache-sized chunk is all the memory they need.
    """
    tracked = isinstance(values, Tensor)
    v = values.value if tracked else values
    hv = _value(h)
    out = pattern.product(v, hv)
    parents = tuple(t for t in (values, h) if isinstance(t, Tensor))

    def vjp(g):
        grads = []
        if tracked:
            gt = None
            if values.needs_grad:
                indptr, cols = pattern.indptr, pattern.indices
                rows = np.repeat(np.arange(pattern.shape[0], dtype=cols.dtype), np.diff(indptr))
                gt = np.empty(rows.size, dtype=g.dtype)
                chunk = cache_block(g.shape[1])
                for lo in range(0, rows.size, chunk):
                    prod = g[rows[lo:lo + chunk]]
                    prod *= hv[cols[lo:lo + chunk]]
                    gt[lo:lo + chunk] = prod.sum(axis=1)
            grads.append(gt)
        if isinstance(h, Tensor):
            grads.append(pattern.t_product(v, g) if h.needs_grad else None)
        return grads

    return Tensor(out, parents, vjp)
