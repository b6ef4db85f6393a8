"""The two-branch network: learned-affinity convolution branch, PPMI
convolution branch, combined objective and the epoch loop shared by the
full-batch trainer here and the cluster trainer in ``cluster``.

Branch A propagates through the learned affinity S (or a frozen
normalized adjacency); branch P propagates through the normalized PPMI
matrix of S, rebuilt on a fixed epoch schedule and whenever a cluster
batch other than the one it was built for trains.  Both branches end in
a row softmax; the objective is

    L = L_ce + lambda1 * L_agree + lambda2 * L_graphlearn

with supervision attached to branch A by default.  fit scores validation
on its training context, and the next step trains on the S that
validation built.  cluster_fit scores it on a cut of the depth-hop ball
around the validation nodes that holds only the rows a depth-layer
forward reads: S on the (depth-1)-hop ball's rows, over the whole ball,
and each layer's output only on the nodes the next layer reads, down to
the validation rows alone.  The cut fixes their outputs exactly.
predict scores every node.
"""

from __future__ import annotations

import ctypes
import json
import logging
import os
import zipfile
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DataError, NumericError
from .graph import Graph, add_self_loops, sym_normalize
from .graphlearn import (
    GlConfig,
    GraphLearnerParams,
    LearnedGraph,
    SupportStructure,
    gl_loss,
    init_graph_learner,
    learn_S_masked,
    support_distances,
)
from .optim import adam_step, init_adam_states
from .ppmi import WalkConfig, frequency_matrix, ppmi, ppmi_operator
from .rng import RngStream
from . import tape
from .tape import Parameter, Tensor

__all__ = [
    "ModelConfig",
    "ModelParams",
    "ForwardCache",
    "FitResult",
    "init_params",
    "forward",
    "total_loss",
    "fit",
    "predict",
    "accuracy",
    "save_checkpoint",
    "load_checkpoint",
    "HISTORY_COLUMNS",
]

_log = logging.getLogger(__name__)

HISTORY_COLUMNS = ("epoch", "train_loss", "l0", "lreg", "lgl", "val_acc")

# largest node count of data without a graph, whose S spans all n^2 pairs
DENSE_LIMIT = 20000

# a graphless fit's peak traced memory per node pair, by the dtype it trains in:
# under tracemalloc (default config, 50 features, 3 epochs) 52.9 B at n=2,000
# and 52.6 at 3,000 in float32, 70.1 and 69.4 in float64 (one epoch at n=1,000:
# 53.0 and 70.3); rounded up
_PAIR_BYTES = {np.dtype(np.float32): 54, np.dtype(np.float64): 71}


@dataclass(frozen=True)
class ModelConfig:
    hidden_gcn: int = 16
    hidden_gl: int | None = 200  # None scores raw features
    depth: int = 2
    share_weights: bool = True
    supervise: str = "a"  # which branch carries the cross-entropy: a | p | both
    lambda1: float = 0.01
    lambda2: float = 0.01
    dropout: float = 0.6
    lr1: float = 0.005
    lr2: float = 0.005
    weight_decay: float = 5e-3
    epochs: int = 1000
    seed: int = 0
    ppmi_refresh: int = 25  # recompute P every R epochs (0: at epoch 0 only) and when the batch changes
    walk: WalkConfig = field(default_factory=WalkConfig)
    gl: GlConfig = field(default_factory=GlConfig)
    learn_graph: bool = True  # False freezes S to the normalized adjacency
    stop_threshold: float = 0.0  # stop when max-abs param change falls below; 0 disables
    eval_every: int = 1
    init: str = "glorot"  # "he" keeps gradients alive through deep ReLU stacks

    @property
    def needs_ppmi(self) -> bool:  # whether the objective reads the PPMI branch
        return self.lambda1 > 0 or self.supervise in ("p", "both")

    def __post_init__(self):
        if self.depth < 2:
            raise ConfigError(f"depth must be >= 2, got {self.depth}")
        if self.init not in ("glorot", "he"):
            raise ConfigError("init must be glorot|he")
        if self.hidden_gcn < 1 or (self.hidden_gl is not None and self.hidden_gl < 1):
            raise ConfigError("hidden widths must be >= 1")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ConfigError("lambda1 and lambda2 must be non-negative")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")
        if self.lr1 <= 0 or self.lr2 <= 0:
            raise ConfigError(f"lr1 and lr2 must be positive, got {self.lr1} and {self.lr2}")
        if self.weight_decay < 0 or self.ppmi_refresh < 0 or self.stop_threshold < 0:
            raise ConfigError("weight_decay, ppmi_refresh and stop_threshold must be non-negative")
        if self.supervise not in ("a", "p", "both"):
            raise ConfigError(f"supervise must be a|p|both, got {self.supervise}")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be >= 1")


@dataclass
class ModelParams:
    """Graph-learner parameters plus per-layer weights for both branches.

    When weights are shared, w_a and w_p hold the same Parameter objects.
    gl is None when the affinity is frozen to the normalized adjacency.
    """

    gl: GraphLearnerParams | None
    w_a: list[Parameter]
    w_p: list[Parameter]
    share_weights: bool

    def gl_parameters(self) -> list[Parameter]:
        return self.gl.parameters() if self.gl is not None else []

    def conv_parameters(self) -> list[Parameter]:
        params = list(self.w_a)
        if not self.share_weights:
            params.extend(self.w_p)
        return params

    def all_parameters(self) -> list[Parameter]:
        return self.gl_parameters() + self.conv_parameters()

    def state_dict(self) -> dict[str, np.ndarray]:
        return {p.name: p.value.copy() for p in self.all_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        for p in self.all_parameters():
            p.value[...] = state[p.name]


def _glorot(rng: RngStream, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, (fan_in, fan_out))


def _he(rng: RngStream, fan_in: int, fan_out: int) -> np.ndarray:
    # doubled-variance fan-in init: one sqrt(2) gain for ReLU, one for the
    # averaging propagation operator, both of which attenuate deep stacks
    limit = np.sqrt(12.0 / fan_in)
    return rng.uniform(-limit, limit, (fan_in, fan_out))


def init_params(p_in: int, n_classes: int, cfg: ModelConfig, rng: RngStream) -> ModelParams:
    widths = [p_in] + [cfg.hidden_gcn] * (cfg.depth - 1) + [n_classes]
    draw = _he if cfg.init == "he" else _glorot
    w_a = [
        Parameter(draw(rng.child("init", "W", layer), widths[layer], widths[layer + 1]), name=f"W.{layer}")
        for layer in range(cfg.depth)
    ]
    if cfg.share_weights:
        w_p = list(w_a)
    else:
        w_p = [
            Parameter(draw(rng.child("init", "WP", layer), widths[layer], widths[layer + 1]), name=f"WP.{layer}")
            for layer in range(cfg.depth)
        ]
    gl = init_graph_learner(p_in, cfg.hidden_gl, rng) if cfg.learn_graph else None
    return ModelParams(gl=gl, w_a=w_a, w_p=w_p, share_weights=cfg.share_weights)


@dataclass(frozen=True)
class _LayerCut:
    """The operators a layer_rows cut propagates through, one per layer: S
    (a LearnedGraph or tape.SparseConst) on the rows the first layer reads,
    then each later layer's rows of it, as tape.SparseConst.  values are
    S's, read as S's own are."""

    ops: list

    @property
    def values(self):
        return self.ops[0].values


@dataclass
class ForwardCache:
    """Branch outputs after softmax."""

    za: Tensor
    zp: Tensor | None


def _branch(x, s, weights, tag: str, cfg: ModelConfig, rng, training: bool, epoch: int) -> Tensor:
    """One branch's softmax output: each layer drops its input, multiplies
    by its weight and propagates through s's values on its pattern, or
    through its own operator when s is a _LayerCut."""
    h = x
    last = len(weights) - 1
    ops = s.ops if isinstance(s, _LayerCut) else [s] * len(weights)
    for layer, (w, op) in enumerate(zip(weights, ops)):
        drop_rng = rng.child("dropout", epoch, tag, layer) if training else None
        u = tape.matmul(tape.dropout(h, cfg.dropout, drop_rng, training), w)
        # the paper propagates through D_s^{-1/2} S D_s^{-1/2}; a learned S is a
        # row softmax, so D_s = I and S is used as it is
        v = tape.spmm_values(op.values, op.pattern, u)
        h = tape.relu(v) if layer < last else v
    return tape.row_softmax(h)


def forward(x, s, p_op, params: ModelParams, cfg: ModelConfig,
            mode: str = "train", rng: RngStream | None = None, epoch: int = 0) -> ForwardCache:
    """Run both branches; p_op None skips the PPMI branch entirely.

    s is either a LearnedGraph (tape-tracked affinity) or a fixed sparse
    propagation matrix, or a _LayerCut of one such operator per layer, each
    over the rows the layer before gives (_GraphContext.layer_rows).  A
    sparse x, s or p_op comes as a tape.SparseConst, whose pattern its
    owner keeps, or as a scipy matrix, whose pattern is built for this
    call.  ReLU sits between layers, none after the last; dropout is
    applied to every layer input in training mode.
    """
    if mode not in ("train", "eval"):
        raise ConfigError(f"mode must be train|eval, got {mode}")
    training = mode == "train"
    if training and rng is None:
        raise ConfigError("training forward needs an RngStream for dropout")
    x, s, p_op = (tape.SparseConst.of(m) if sp.issparse(m) else m for m in (x, s, p_op))
    if not isinstance(s, (LearnedGraph, tape.SparseConst, _LayerCut)):
        raise ConfigError(f"unsupported affinity object: {type(s)!r}")
    if isinstance(s, _LayerCut) and len(s.ops) != len(params.w_a):
        raise ConfigError(f"{len(s.ops)} per-layer operators for {len(params.w_a)} layers")
    za = _branch(x, s, params.w_a, "a", cfg, rng, training, epoch)
    zp = None
    if p_op is not None:
        zp = _branch(x, p_op, params.w_p, "p", cfg, rng, training, epoch)
    return ForwardCache(za=za, zp=zp)


def total_loss(cache: ForwardCache, labels, train_idx, gl_term: Tensor | None, cfg: ModelConfig):
    """Combined objective; returns (loss tensor, float components)."""
    train_idx = np.asarray(train_idx)
    if train_idx.dtype == bool:
        train_idx = np.flatnonzero(train_idx)
    if train_idx.size == 0:
        raise DataError("empty training mask")
    if cfg.supervise != "a" and cache.zp is None:
        raise ConfigError(f"supervise={cfg.supervise!r} requires the PPMI branch")
    if cfg.supervise == "a":
        l0 = tape.masked_cross_entropy(cache.za, labels, train_idx)
    elif cfg.supervise == "p":
        l0 = tape.masked_cross_entropy(cache.zp, labels, train_idx)
    else:
        l0 = tape.scale(
            tape.add(
                tape.masked_cross_entropy(cache.za, labels, train_idx),
                tape.masked_cross_entropy(cache.zp, labels, train_idx),
            ),
            0.5,
        )
    total = l0
    lreg_val = 0.0
    if cache.zp is not None and cfg.lambda1 > 0:
        lreg = tape.branch_agreement_loss(cache.zp, cache.za)
        total = tape.add(total, tape.scale(lreg, cfg.lambda1))
        lreg_val = lreg.item()
    lgl_val = 0.0
    if gl_term is not None and cfg.lambda2 > 0:
        total = tape.add(total, tape.scale(gl_term, cfg.lambda2))
        lgl_val = gl_term.item()
    components = {"total": total.item(), "l0": l0.item(), "lreg": lreg_val, "lgl": lgl_val}
    return total, components


# ---------------------------------------------------------------------------
# training
# ---------------------------------------------------------------------------

@dataclass
class FitResult:
    params: ModelParams
    history: list[dict]
    best_epoch: int
    best_val_acc: float
    skipped_batches: int = 0

    @property
    def epochs_run(self) -> int:
        return len(self.history)


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the OS does not say."""
    try:
        have = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None
    return have if have > 0 else None


class _GraphContext:
    """Prebuilt per-graph structures shared by train and eval passes.

    graph is the data's graph, or None: the learned affinity then lives on
    the complete graph, built here, and the loss has no adjacency-fidelity
    term.  With a graph the support is graph.support, that of A + I, built
    once per graph and shared by every context on it, whatever
    cfg.learn_graph is, so restrict can cut a context from the whole
    data's one.  With learn_graph=False, a_values holds A + I's values
    on the support and frozen_op, which replaces S, their normalized form,
    cast to the tape's dtype for x.  x_in is x as forward takes it: sparse
    features, like the frozen operator, are held as a tape.SparseConst, so
    both patterns live as long as the context.  x_gl is x as the graph
    learner's scorer takes it, set by the first build_affinity: x_in, or,
    when the learner has no projection, sparse features made dense once,
    as the scorer indexes their rows.  dist2 is built by the first gl_term
    call, or up front by distances.

    support, a_values, frozen_op and dist2, when given, are cut from the
    whole data's context, as restrict passes them; graph is then the whole
    data's, read only for the fidelity term.  layers is None but in
    layer_rows' cuts, whose S build_affinity hands out one operator per
    layer.
    """

    def __init__(self, x, graph: Graph | None, cfg: ModelConfig, *,
                 support: SupportStructure | None = None, a_values: np.ndarray | None = None,
                 frozen_op: sp.csr_matrix | None = None, dist2: np.ndarray | None = None):
        self.x = x
        self.x_in = tape.SparseConst.of(x) if sp.issparse(x) else x
        self.x_gl = None
        self.graph = graph
        self.support = support
        self.a_values = a_values
        self.frozen_op = None
        self.dist2 = dist2
        self.layers = None
        if graph is None:
            if not cfg.learn_graph:
                raise ConfigError("learn_graph=False requires a dataset with a graph")
            n = x.shape[0]
            if n > DENSE_LIMIT:
                raise ConfigError(f"without a graph S spans all n^2 pairs: n={n} > {DENSE_LIMIT}")
            need = _PAIR_BYTES[tape._value_dtype(x.dtype)] * n * n
            have = _physical_memory()
            if have is not None and need > have:
                raise ConfigError(f"without a graph a fit peaks at ~{need / 1e9:.1f} GB at n={n}, "
                                  f"more than this machine's {have / 1e9:.1f} GB of memory")
            _log.warning("no graph: S spans all %d^2 node pairs; a fit peaks at ~%.0f MB", n, need / 1e6)
            self.support = SupportStructure.complete(n)
            return
        if support is None:
            self.support = graph.support
            if not cfg.learn_graph:
                self.a_values = add_self_loops(graph).adj.data
        if not cfg.learn_graph:
            if frozen_op is None:
                s = self.support
                frozen_op = sym_normalize(sp.csr_matrix((self.a_values, s.cols, s.indptr), shape=(s.n, s.n)))
            # a float64 operator times float32 activations would upcast the branch
            self.frozen_op = tape.SparseConst.of(frozen_op.astype(tape._value_dtype(x.dtype), copy=False))

    def restrict(self, nodes: np.ndarray, cfg: ModelConfig, ball: bool = False) -> "_GraphContext":
        """The context of the subgraph induced by the sorted nodes, cut from
        this whole data's context with no scipy slice.

        The support is SupportStructure.restrict's, and a_values and dist2
        are gathered at its entry ids.  A batch's frozen operator
        normalizes its own A + I; a validation ball's (ball=True) gathers
        the whole normalized operator, as its boundary nodes keep their
        whole-graph degrees.  Each array equals the one built from the
        induced subgraph itself.  Nodes that cover the graph give this
        context itself.
        """
        if nodes.size == self.support.n:
            return self
        support, entries = self.support.restrict(nodes)
        a_values = frozen = None
        if not cfg.learn_graph:
            a_values = self.a_values[entries]
            if ball:
                frozen = sp.csr_matrix((self.frozen_op.values[entries], support.cols, support.indptr),
                                       shape=(support.n, support.n))
        dist2 = None if self.dist2 is None else self.dist2[entries]
        return _GraphContext(self.x[nodes], self.graph, cfg, support=support, a_values=a_values,
                             frozen_op=frozen, dist2=dist2)

    def build_affinity(self, params: ModelParams, cfg: ModelConfig):
        """S, or the frozen operator, on the support; for a layer_rows cut,
        the _LayerCut of it."""
        if not cfg.learn_graph:
            s = self.frozen_op
        else:
            if self.x_gl is None:
                unprojected = sp.issparse(self.x) and params.gl.proj is None
                self.x_gl = self.x.toarray() if unprojected else self.x_in
            s = learn_S_masked(self.x_gl, params.gl, self.support)
        if self.layers is None:
            return s
        values = tape._value(s.values)
        return _LayerCut([s] + [tape.SparseConst(values[take], pattern) for pattern, take in self.layers])

    def layer_rows(self, seeds: np.ndarray, cfg: ModelConfig) -> "_GraphContext":
        """The cut of this context that a cfg.depth-layer forward reads to
        score the sorted nodes seeds, whose depth-hop ball this context
        holds: a validation ball, or the whole data's context.

        Layer l's output is read only within depth - 1 - l hops of the
        seeds (Hamilton, Ying & Leskovec, NeurIPS 2017, Algorithm 2), so
        the last layer runs on the seeds' rows alone.  S is built on the
        rows of the (depth-1)-hop ball over all of this context's nodes,
        which the first layer reads (SupportStructure.rect): each of those
        rows keeps its whole closed neighbourhood, so its softmax is exact.
        Every later layer's rows are cut from that rectangle in turn:
        layers holds each one's pattern over the rows the layer before
        gives and its entries' positions in S's values.  x and graph are
        this context's, and a frozen operator is this one's values at the
        rectangle's entries.  The cut holds no dist2 and no A + I values:
        it scores, and never trains.  Its forward gives the seeds' rows,
        in order, each summed over the same entries in the same order as in
        this context, so they are this context's rows; only a one-row dense
        product, which BLAS runs as gemv, may round its last bit otherwise.
        """
        balls = self.support.hops(seeds, cfg.depth - 1)
        inner = balls[-1]
        support, entries = self.support.rect(inner, np.arange(self.support.n))
        frozen = None
        if not cfg.learn_graph:
            frozen = sp.csr_matrix((self.frozen_op.values[entries], support.cols, support.indptr),
                                   shape=support.pattern.shape)
        cut = _GraphContext(self.x, self.graph, cfg, support=support, frozen_op=frozen)
        # layer l reads balls[depth - 1 - l]'s rows over balls[depth - l]
        cut.layers = [(sub.pattern, take) for sub, take in
                      (support.rect(np.searchsorted(inner, rows), cols)
                       for rows, cols in zip(balls[-2::-1], balls[:0:-1]))]
        return cut

    def distances(self, cfg: ModelConfig) -> np.ndarray | None:
        """dist2, built on the first call, or None when the objective has no
        graph-learning term."""
        if not cfg.learn_graph or cfg.lambda2 <= 0:
            return None
        if self.dist2 is None:
            self.dist2 = support_distances(self.x, self.support)
        return self.dist2

    def gl_term(self, s, cfg: ModelConfig):
        dist2 = self.distances(cfg)
        return None if dist2 is None else gl_loss(s, self.graph, cfg.gl, dist2)


def _build_ppmi_operator(s, walk: WalkConfig, rng: RngStream) -> tape.SparseConst:
    """The normalized PPMI operator of the affinity s (a LearnedGraph or a
    tape.SparseConst), in s's dtype; the counts and PMI are taken in float64."""
    trans = s.matrix()
    try:
        freq = frequency_matrix(trans, walk, rng)
        return tape.SparseConst.of(ppmi_operator(ppmi(freq)).astype(trans.dtype, copy=False))
    except ValueError as exc:
        raise DataError(f"PPMI construction failed: {exc}") from exc


def _eval_predictions(ctx: _GraphContext, params: ModelParams, cfg: ModelConfig, s=None) -> np.ndarray:
    """Branch A's class per row its forward gives: per node of ctx, or per
    seed of a layer_rows cut, whose argmax reads those rows alone.  s, when
    given, is ctx's S for params."""
    with tape.no_grad():
        if s is None:
            s = ctx.build_affinity(params, cfg)
        cache = forward(ctx.x_in, s, None, params, cfg, mode="eval")
    return np.argmax(cache.za.value, axis=1)


def _validation_context(dataset, cfg: ModelConfig, whole: _GraphContext | None = None, ball: bool = True):
    """The context validation is scored on, and the validation nodes' rows in it.

    whole is the whole data's context, built here when not given.  fit
    passes its training context with ball=False and validates on it, so a
    fit holds one support.  Otherwise (cluster_fit passes the context its
    batches are cut from) this is the subgraph induced by the cfg.depth-hop
    ball around the validation nodes, cut from whole by restrict.  The
    ball is exact: a depth-layer output reads only nodes within depth hops,
    and every node within depth - 1 hops keeps its whole closed
    neighbourhood in the ball, so its softmax row of S is complete.  The
    frozen operator is the whole graph's, cut to the ball, since its
    boundary nodes need their full-graph degrees.  A ball that covers the
    graph is whole itself, built on dataset.x and dataset.graph, not on a
    copy.  Wherever validation's S is not the next step's, _train scores
    on the ball's layer_rows cut instead, which holds only the rows that
    the validation nodes' outputs depend on.
    """
    val_idx = np.flatnonzero(dataset.val_mask)
    if val_idx.size == 0:
        raise DataError("empty validation mask")
    if whole is None:
        whole = _GraphContext(dataset.x, dataset.graph, cfg)
    if not ball:
        return whole, val_idx
    nodes = whole.support.hops(val_idx, cfg.depth)[-1]
    return whole.restrict(nodes, cfg, ball=True), np.searchsorted(nodes, val_idx)


def accuracy(pred, labels, mask) -> float:
    """Fraction of correct predictions over a non-empty node subset."""
    mask = np.asarray(mask)
    idx = np.flatnonzero(mask) if mask.dtype == bool else mask.astype(np.int64)
    if idx.size == 0:
        raise DataError("accuracy over an empty mask")
    pred = np.asarray(pred)
    labels = np.asarray(labels)
    return float((pred[idx] == labels[idx]).mean())


def predict(params: ModelParams, dataset) -> np.ndarray:
    """Class index per node from branch A (za), as validation reads it,
    whichever branch carried the cross-entropy; ties break low.

    The context is built per call, but its support is the graph's own
    (Graph.support): a predict after a fit, or after another predict, on
    the same graph builds no support.
    """
    width = params.w_a[0].value.shape[0]
    if width != dataset.p:
        raise DataError(f"parameters expect {width} features per node, dataset has {dataset.p}")
    gl = params.gl
    if gl is None and dataset.graph is None:
        raise DataError("parameters without a graph learner need a dataset with a graph")
    proj = gl.proj if gl is not None else None
    cfg = ModelConfig(learn_graph=gl is not None, hidden_gl=None if proj is None else proj.value.shape[1])
    ctx = _GraphContext(dataset.x, dataset.graph, cfg)
    return _eval_predictions(ctx, params, cfg)


@dataclass(frozen=True)
class _TrainBatch:
    """One epoch's training graph, as a batch source hands it to the loop."""

    ctx: _GraphContext | None  # None when the batch holds no train labels
    y: np.ndarray
    train_idx: np.ndarray  # local indices of the labelled nodes
    share: float  # the loss is scaled by this factor
    ppmi_key: object  # a batch whose key differs from the last build's rebuilds P


def _batch_loss(batch: _TrainBatch, s, p_op, params: ModelParams, cfg: ModelConfig, rng: RngStream, epoch: int):
    """One step's objective on batch, scaled by batch.share: the training
    forward (dropout drawn from rng for epoch), the graph-learning term on
    s and total_loss.  Returns (loss tensor, float components)."""
    cache = forward(batch.ctx.x_in, s, p_op, params, cfg, "train", rng, epoch)
    gl_term = batch.ctx.gl_term(s, cfg)
    loss, comps = total_loss(cache, batch.y, batch.train_idx, gl_term, cfg)
    if batch.share != 1.0:
        loss = tape.scale(loss, batch.share)
        comps["total"] = comps["total"] * batch.share
    return loss, comps


def _train(dataset, cfg: ModelConfig, next_batch, on_epoch, whole: _GraphContext, ball: bool) -> FitResult:
    """The epoch loop behind fit and cluster_fit.

    Per epoch: take the batch next_batch(epoch, rng) gives, build the
    PPMI operator when a refresh is due or the batch's ppmi_key differs
    from the one it was built for (its walks draw from rng.child("ppmi",
    epoch); one operator is alive at a time), take one Adam step on the
    batch loss (graph-learner group at lr1, convolution group at lr2),
    then score the validation set on the context _validation_context
    gives once per fit: whole itself, or with ball the ball cut from it.
    When that context is the one just trained and another step follows,
    validation builds S tape-tracked on it and the next step trains on
    it, as S depends only on the parameters.  Otherwise, with ball,
    validation scores on the ball's layer_rows cut, also made once per
    fit: S on the rows the first layer reads, and each layer on the rows
    the next reads, down to the validation rows, whose predictions equal
    the whole graph's.  A batch without train labels is
    skipped and counted.  Aborts on a non-finite loss or parameter;
    returns the best-validation parameter snapshot.

    _batch_loss, forward, total_loss, adam_step, _eval_predictions,
    _build_ppmi_operator and tape.backward are looked up on their modules
    at each call, never bound to locals, so wrappers installed on the
    modules see every call.
    glibc's heap thresholds are pinned first (_pin_heap_thresholds).
    """
    _pin_heap_thresholds()
    rng = RngStream(cfg.seed)
    params = init_params(dataset.p, dataset.class_count, cfg, rng)
    # drawn in float64, so the features' dtype leaves the random numbers unchanged
    dtype = tape._value_dtype(dataset.x.dtype)
    for p in params.all_parameters():
        p.value = p.value.astype(dtype, copy=False)
    eval_ctx, val_pos = _validation_context(dataset, cfg, whole, ball)
    # where validation's S is not the next step's: the rows it reads, or fit's whole context
    scored, scored_pos = (eval_ctx.layer_rows(val_pos, cfg), slice(None)) if ball else (eval_ctx, val_pos)
    val_y = np.asarray(dataset.y)[np.flatnonzero(dataset.val_mask)]
    groups = [(group, init_adam_states(group), lr)
              for group, lr in ((params.gl_parameters(), cfg.lr1), (params.conv_parameters(), cfg.lr2))
              if group]

    p_key = p_op = None  # the one live PPMI operator and the batch key it was built for
    s_next = None  # eval_ctx's S, built by validation for the next step
    best_val = -1.0
    best_epoch = -1
    best_state = None
    last_val = float("nan")
    history: list[dict] = []
    skipped = 0

    for epoch in range(cfg.epochs):
        batch = next_batch(epoch, rng)
        if cfg.ppmi_refresh > 0 and epoch % cfg.ppmi_refresh == 0:
            p_op = None  # a refresh is due: the next trained batch rebuilds
        trains = batch.train_idx.size > 0
        # skipped batches leave parameters untouched and must not stop training
        prev = params.state_dict() if cfg.stop_threshold > 0 and trains else None
        if not trains:
            skipped += 1
            comps = dict.fromkeys(("total", "l0", "lreg", "lgl"), float("nan"))
        else:
            s = s_next if s_next is not None and batch.ctx is eval_ctx else batch.ctx.build_affinity(params, cfg)
            s_next = None  # the step below changes the parameters it was built from
            if cfg.needs_ppmi and (p_op is None or batch.ppmi_key != p_key):
                p_op = None  # freed before its successor is built
                p_op = _build_ppmi_operator(s, cfg.walk, rng.child("ppmi", epoch))
                p_key = batch.ppmi_key
            loss, comps = _batch_loss(batch, s, p_op, params, cfg, rng, epoch)
            if not np.isfinite(comps["total"]):
                raise NumericError(f"non-finite loss at epoch {epoch}: {comps}")
            tape.backward(loss)
            del s, loss  # free the step's tape before Adam allocates
            for group, states, lr in groups:
                adam_step(group, states, lr, cfg.weight_decay)
            for p in params.all_parameters():
                if not np.isfinite(p.value).all():
                    raise NumericError(f"non-finite parameter {p.name} after the update at epoch {epoch}")

        if epoch % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
            if epoch < cfg.epochs - 1 and batch.ctx is eval_ctx:
                s_next = eval_ctx.build_affinity(params, cfg)
                pred = _eval_predictions(eval_ctx, params, cfg, s_next)[val_pos]
            else:
                pred = _eval_predictions(scored, params, cfg)[scored_pos]
            last_val = float((pred == val_y).mean())
            # ties go to the later epoch: more training at equal validation
            if last_val >= best_val:
                best_val = last_val
                best_epoch = epoch
                best_state = params.state_dict()
        row = {
            "epoch": epoch,
            "train_loss": comps["total"],
            "l0": comps["l0"],
            "lreg": comps["lreg"],
            "lgl": comps["lgl"],
            "val_acc": last_val,
        }
        history.append(row)
        if on_epoch is not None:
            on_epoch(row)
        if prev is not None:
            delta = max(np.abs(p.value - prev[p.name]).max() for p in params.all_parameters())
            if delta < cfg.stop_threshold:
                break

    if best_state is not None:
        params.load_state_dict(best_state)
    return FitResult(params=params, history=history, best_epoch=best_epoch,
                     best_val_acc=best_val, skipped_batches=skipped)


try:
    _LIBC = ctypes.CDLL(None)
    _MALLOC_TRIM, _MALLOPT = _LIBC.malloc_trim, _LIBC.mallopt
    _MALLOC_TRIM.argtypes = [ctypes.c_size_t]  # pad: bytes left untrimmed at the heap top
    _MALLOC_TRIM.restype = ctypes.c_int
    _MALLOPT.argtypes = [ctypes.c_int, ctypes.c_int]  # (param, value)
    _MALLOPT.restype = ctypes.c_int
except (AttributeError, OSError, TypeError):  # a C library other than glibc
    _MALLOC_TRIM = _MALLOPT = None

# glibc's malloc.h parameter numbers, and the values the epoch loop pins
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 * 2**20  # the most glibc's own rule ever raises it to
_TRIM_THRESHOLD = 2 * _MMAP_THRESHOLD  # what glibc's rule pairs with it


def _pin_heap_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds for the epoch loop (a no-op elsewhere).

    By default glibc serves each block above its mmap threshold with a
    fresh mapping and raises the threshold (and the trim threshold, to
    twice it) to the size of the largest such block freed so far, up to
    32 MiB.  So where a step's arrays land, and how many pages each epoch
    faults in again, depends on the largest array any step happened to
    free: on the cora-shaped benchmark, a backward without its 14 MB
    buffer left the thresholds low, and each epoch faulted ~1,450 pages
    in again.  Pinned at glibc's own ceiling, blocks below 32 MiB come
    from the heap, which keeps up to 64 MiB free at its top for the next
    step.  Setting one threshold alone turns glibc's rule off for both, so
    both are set.  _release_freed_heap hands the free pages back after
    the loop.
    """
    if _MALLOPT is not None:
        _MALLOPT(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
        _MALLOPT(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


def _release_freed_heap() -> None:
    """Hand the heap pages a fit freed back to the OS (glibc; a no-op elsewhere).

    The epoch loop allocates and frees batch contexts, tapes and PPMI
    operators of many sizes.  glibc keeps freed heap pages resident
    unless they end up at the top of the heap, and where each block lands
    differs between runs with the address layout and string hashing:
    after the same pubmed-cluster fit the process kept anywhere from 84
    to 113 MB resident, and a predict after it raised the peak RSS by that
    difference.  fit and cluster_fit call this once, after the epoch loop
    has returned and its arrays are freed.
    """
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


def fit(dataset, cfg: ModelConfig, on_epoch=None) -> FitResult:
    """Full-batch training: the one-batch case of the epoch loop.

    Every epoch trains on the whole graph with an unscaled loss, and
    validation is scored on this same context, so a fit holds one support
    and builds one S per epoch.  The support is the graph's (Graph.support),
    built by the first fit or predict on the graph and reused by later
    ones; for data without a graph each fit builds the O(n^2) complete one.
    """
    if not dataset.has_masks():
        raise DataError("dataset has no train/val/test masks; apply a split first")
    ctx = _GraphContext(dataset.x, dataset.graph, cfg)
    batch = _TrainBatch(ctx, dataset.y, np.flatnonzero(dataset.train_mask), share=1.0, ppmi_key=None)
    if batch.train_idx.size == 0:
        raise DataError("empty training mask")
    result = _train(dataset, cfg, lambda epoch, rng: batch, on_epoch, ctx, ball=False)
    del ctx, batch  # so the training context's pages are freed before the trim
    _release_freed_heap()
    return result


# ---------------------------------------------------------------------------
# checkpoint container (versioned npz: meta json + parameter tensors)
# ---------------------------------------------------------------------------

CHECKPOINT_FORMAT = 1


def save_checkpoint(path, params: ModelParams, cfg_echo: dict | None = None) -> None:
    meta = {
        "format": CHECKPOINT_FORMAT,
        "share_weights": params.share_weights,
        "layers": len(params.w_a),
        "has_gl": params.gl is not None,
        "has_proj": params.gl is not None and params.gl.proj is not None,
        "cfg": cfg_echo or {},
    }
    arrays = {f"param/{k}": v for k, v in params.state_dict().items()}
    np.savez(path, meta=json.dumps(meta, sort_keys=True), **arrays)


def _check_chain(w_a: list, w_p: list, gl) -> None:
    """DataError naming the first parameter whose shape breaks the chain
    X @ W.0 @ W.1 ..., the WP.l twins or the graph learner's X @ proj @ a."""
    if not w_a:
        raise DataError("no layer weights")
    for group in (w_a, w_p):
        for layer, w in enumerate(group):
            if w.value.ndim != 2:
                raise DataError(f"{w.name} is {w.value.ndim}-D, not a matrix")
            prev = group[layer - 1]
            if layer and w.value.shape[0] != prev.value.shape[1]:
                raise DataError(f"{w.name} has shape {w.value.shape}; {prev.name} gives "
                                f"{prev.value.shape[1]} columns")
    for a, p in zip(w_a, w_p):
        if p.value.shape != a.value.shape:
            raise DataError(f"{p.name} has shape {p.value.shape}, {a.name} {a.value.shape}")
    if gl is None:
        return
    width = w_a[0].value.shape[0]
    why = f"{w_a[0].name} has {width} rows"
    if gl.proj is not None:
        proj = gl.proj.value
        if proj.ndim != 2 or proj.shape[0] != width:
            raise DataError(f"gl.proj has shape {proj.shape}; {why}")
        width = proj.shape[1]
        why = f"gl.proj has {width} columns"
    if gl.a.value.ndim != 1 or gl.a.value.size != width:
        raise DataError(f"gl.a has shape {gl.a.value.shape}; {why}")


def load_checkpoint(path) -> tuple[ModelParams, dict]:
    """Read a save_checkpoint file; DataError names a path that holds none."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            meta = json.loads(str(archive["meta"]))
            state = {k[len("param/"):]: archive[k] for k in archive.files if k.startswith("param/")}
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise DataError(f"unsupported checkpoint format: {meta.get('format')}")
        layers = meta["layers"]
        w_a = [Parameter(state[f"W.{layer}"], name=f"W.{layer}") for layer in range(layers)]
        if meta["share_weights"]:
            w_p = list(w_a)
        else:
            w_p = [Parameter(state[f"WP.{layer}"], name=f"WP.{layer}") for layer in range(layers)]
        gl = None
        if meta["has_gl"]:
            proj = Parameter(state["gl.proj"], name="gl.proj") if meta["has_proj"] else None
            gl = GraphLearnerParams(a=Parameter(state["gl.a"], name="gl.a"), proj=proj)
        _check_chain(w_a, w_p, gl)
    # a .npy file loads as an array (TypeError on `with`); JSON meta that is
    # not an object has no .get (AttributeError); DataError is a ValueError
    except (OSError, ValueError, zipfile.BadZipFile, KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"{path}: not a readable checkpoint: {exc}") from exc
    params = ModelParams(gl=gl, w_a=w_a, w_p=w_p, share_weights=meta["share_weights"])
    return params, meta


def format_history_row(row: dict) -> str:
    vals = []
    for col in HISTORY_COLUMNS:
        v = row[col]
        vals.append(str(v) if isinstance(v, (int, np.integer)) else f"{v:.12g}")
    return ",".join(vals)
