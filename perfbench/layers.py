"""Where the traced run hooks into the program, and how it sums the spans.

``model`` and ``cluster`` import ``forward``, ``total_loss``,
``adam_step``, ``_build_ppmi_operator`` and friends by name, so each is
wrapped in every module that looks it up; ``tape.backward`` is called as
a module attribute and ``_GraphContext`` methods are patched on the class.
A name a later change removes is left out and its metrics read null.
"""

from __future__ import annotations

from dualgcn import cluster, model, tape

from tracer import Tracer, self_times

_MB = 1.0 / (1024.0 * 1024.0)


def _mode(args, kwargs) -> str:
    mode = args[5] if len(args) > 5 else kwargs.get("mode", "train")
    return f"model.forward_{mode}"


def install() -> Tracer:
    t = Tracer()

    def affinity(args, kwargs):
        return "graphlearn.affinity_eval" if t.inside("model.eval") else "graphlearn.affinity_train"

    def eval_bytes(cache, args, kwargs):
        if _mode(args, kwargs) == "model.forward_eval" and t.inside("fit"):
            t.sample("tape.bytes_eval", tape.tape_nbytes(cache.za)
                     + (tape.tape_nbytes(cache.zp) if cache.zp is not None else 0))

    def train_bytes(args, kwargs):
        if t.inside("fit"):
            t.sample("tape.bytes_train", tape.tape_nbytes(args[0]))

    def pmi_nnz(p, args, kwargs):
        if t.inside("fit"):
            t.sample("ppmi.nnz", p.P.nnz)

    def batch_nodes(batch, args, kwargs):
        t.sample("cluster.batch_nodes", batch.nodes.size)

    for mod in (model, cluster):
        t.wrap(mod, "forward", _mode, after=eval_bytes)
        t.wrap(mod, "total_loss", "model.loss")
        t.wrap(mod, "adam_step", "optim.adam")
        t.wrap(mod, "_eval_predictions", "model.eval")
        t.wrap(mod, "_build_ppmi_operator", "ppmi.build")
    t.wrap(model, "frequency_matrix", "ppmi.walks")
    t.wrap(model, "ppmi", "ppmi.pmi", after=pmi_nnz)
    t.wrap(model, "ppmi_operator", "ppmi.pmi")
    t.wrap(tape, "backward", "tape.backward", before=train_bytes)
    t.wrap(cluster, "form_batch", "cluster.form_batch", after=batch_nodes)
    ctx = model._GraphContext
    t.wrap(ctx, "__init__", "graph.context")
    t.wrap(ctx, "build_affinity", affinity)
    t.wrap(ctx, "gl_term", "graphlearn.gl_loss")
    return t


# per-epoch self time of each span name inside the fit, in ms
_SELF_MS = {
    "graph.context_ms": "graph.context",
    "cluster.form_batch_ms": "cluster.form_batch",
    "graphlearn.affinity_train_ms": "graphlearn.affinity_train",
    "graphlearn.gl_loss_ms": "graphlearn.gl_loss",
    "graphlearn.affinity_eval_ms": "graphlearn.affinity_eval",
    "model.forward_train_ms": "model.forward_train",
    "model.loss_ms": "model.loss",
    "model.forward_eval_ms": "model.forward_eval",
    "ppmi.walks_ms": "ppmi.walks",
    "ppmi.pmi_ms": "ppmi.pmi",
    "tape.backward_ms": "tape.backward",
    "optim.adam_ms": "optim.adam",
}

# the wrapped names each metric depends on
_NEEDS = {
    "graph.context_ms": ["graph.context"],
    "cluster.form_batch_ms": ["cluster.form_batch"],
    "cluster.batch_nodes_mean": ["cluster.form_batch"],
    "cluster.ppmi_cache_hit_ratio": ["ppmi.build"],
    "graphlearn.affinity_train_ms": ["build_affinity"],
    "graphlearn.affinity_eval_ms": ["build_affinity", "model.eval"],
    "graphlearn.gl_loss_ms": ["graphlearn.gl_loss"],
    "model.forward_train_ms": ["forward"],
    "model.forward_eval_ms": ["forward"],
    "model.loss_ms": ["model.loss"],
    "model.eval_ms": ["model.eval"],
    "tape.bytes_eval_mb": ["forward"],
    "ppmi.walks_ms": ["ppmi.walks"],
    "ppmi.pmi_ms": ["ppmi.pmi"],
    "ppmi.builds": ["ppmi.build"],
    "ppmi.nnz_mean": ["ppmi.pmi"],
    "tape.backward_ms": ["tape.backward"],
    "tape.bytes_train_mb": ["tape.backward"],
    "optim.adam_ms": ["optim.adam"],
}


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def summarise(t: Tracer, fit_span: int, result, part) -> dict:
    """Per-layer metrics of one traced run.

    Times are per epoch: a layer's self time summed over the fit divided
    by the epochs run.  The self times, ``epoch.unlisted_ms`` (spans with
    no metric of their own: the argmax in eval, the copy of S before the
    walks, the tracer's counting) and ``epoch.other_ms`` (the fit's own
    self time) add up to ``epoch.mean_ms``.  ``model.eval_ms`` alone is
    inclusive: the whole validation pass, whose parts are the ``*_eval``
    and context times.
    """
    spans = t.spans
    selfs = self_times(spans)
    epochs = result.epochs_run
    fit_ms = 1000.0 * (spans[fit_span][2] - spans[fit_span][1])
    self_ms: dict[str, float] = {}
    incl_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i in t.within(fit_span):
        name = spans[i][0]
        self_ms[name] = self_ms.get(name, 0.0) + 1000.0 * selfs[i]
        incl_ms[name] = incl_ms.get(name, 0.0) + 1000.0 * (spans[i][2] - spans[i][1])
        calls[name] = calls.get(name, 0) + 1
    builds = calls.get("ppmi.build", 0)
    trained = epochs - result.skipped_batches
    metrics = {key: self_ms.get(name, 0.0) / epochs for key, name in _SELF_MS.items()}

    def total_s(name):
        return sum(end - start for n, start, end, _ in spans if n == name)

    metrics.update({
        "data.load_ms": 1000.0 * total_s("data.load"),
        "cluster.partition_s": total_s("cluster.partition"),
        "cluster.edge_cut": part.edge_cut if part is not None else 0,
        "cluster.batch_nodes_mean": _mean(t.samples["cluster.batch_nodes"]),
        "cluster.skipped_batches": result.skipped_batches,
        "cluster.ppmi_cache_hit_ratio": (trained - builds) / trained if part is not None and trained else 0.0,
        "model.eval_ms": incl_ms.get("model.eval", 0.0) / epochs,
        "ppmi.builds": builds,
        "ppmi.nnz_mean": _mean(t.samples["ppmi.nnz"]),
        "tape.bytes_train_mb": _mean(t.samples["tape.bytes_train"]) * _MB,
        "tape.bytes_eval_mb": _mean(t.samples["tape.bytes_eval"]) * _MB,
        "epoch.unlisted_ms": sum(ms for name, ms in self_ms.items()
                                 if name not in _SELF_MS.values()) / epochs,
        "epoch.other_ms": 1000.0 * selfs[fit_span] / epochs,
        "epoch.mean_ms": fit_ms / epochs,
    })
    for key, needs in _NEEDS.items():
        gone = [t.missing[n] for n in needs if n in t.missing]
        if gone:
            metrics[key] = None
            t.missing[key] = "; ".join(gone)
    return {
        "metrics": metrics,
        "missing": dict(t.missing),
        "self_ms_total": self_ms,
        "calls": calls,
        "trace_count_ms": self_ms.get("trace.count", 0.0) / epochs,
        "fit_ms": fit_ms,
        # layer self times plus the fit's own: equals fit_ms up to rounding
        "self_sum_ms": sum(self_ms.values()) + 1000.0 * selfs[fit_span],
        "epochs": epochs,
    }
