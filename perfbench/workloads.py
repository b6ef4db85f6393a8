"""The benchmark's workloads and the layer metrics each should move.

Each workload is one generated input plus the config ``dualgcn train``
would merge for it: ``profile`` is the dataset name whose CLI profile
applies, ``overrides`` are the ``--set``/``--cluster`` keys on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generator: str  # function name in gen.py
    shape: dict = field(default_factory=dict)
    profile: str | None = None
    overrides: dict = field(default_factory=dict)
    predict_reps: int = 5
    min_children: int = 2  # fresh interpreters per untraced run
    # a single-run workload retrains this many epochs in the same process
    # and checks the rows match: its determinism check
    refit_epochs: int = 0
    acc_floor: float = 0.5

    @property
    def cluster(self) -> bool:
        return "cluster_c" in self.overrides


CORA = {"n": 2708, "p": 1433, "k": 7}
PUBMED = {"n": 19717, "p": 500, "k": 3}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "karate-full",
            "34-node karate, full batch, CLI profile: per-call overhead in tape and the loop, "
            "PPMI walks; control that bypasses the edge scorer and the partitioner",
            "karate", profile="karate", predict_reps=300, min_children=3, acc_floor=0.8,
        ),
        Workload(
            "cora-full",
            "cora-shaped surrogate (n=2708, p=1433), full batch, defaults: the nnz x 200 edge "
            "scorer, backward and Adam dominate; no partitioner",
            "citation", CORA, profile="cora", overrides={"epochs": 30}, predict_reps=30,
        ),
        Workload(
            "pubmed-cluster",
            "pubmed-shaped surrogate (n=19717, p=500), cluster c=50 q=5: full-graph eval dominates "
            "each epoch and peak memory, and the PPMI cache never hits",
            "citation", PUBMED, profile="pubmed",
            overrides={"epochs": 40, "cluster_c": 50, "cluster_q": 5},
            predict_reps=15, min_children=1, refit_epochs=5,
        ),
    )
}

# Runnable by hand (run.py --workload cora-cluster) but not in BENCHMARK.json:
# its set-up alone, the partitioner's O(boundary^2) swap pass on a graph
# below swap_limit, takes 20-45 s on a 2-core machine, which 22 runs per
# workload cannot afford.  It is the workload whose cluster sets repeat,
# so the PPMI cache hits, and whose partition dominates set-up.
BY_HAND = {
    "cora-cluster": Workload(
        "cora-cluster",
        "same graph, cluster c=10 q=2: the partitioner's O(boundary^2) swap pass dominates "
        "set-up and repeated cluster sets hit the PPMI cache",
        "citation", CORA, profile="cora",
        overrides={"epochs": 60, "cluster_c": 10, "cluster_q": 2},
        predict_reps=10, min_children=1, refit_epochs=10,
    ),
}

ALL = {**WORKLOADS, **BY_HAND}

# (unit, better) of every metric the benchmark prints
END_TO_END = {
    "setup_s": ("s", "lower"),
    "train_s": ("s", "lower"),
    "epoch_ms_p50": ("ms", "lower"),
    "predict_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "test_acc": ("ratio", "higher"),
}

PER_LAYER = {
    "data.load_ms": ("ms", "lower"),
    "graph.context_ms": ("ms", "lower"),
    "cluster.partition_s": ("s", "lower"),
    "cluster.edge_cut": ("count", "lower"),
    "cluster.form_batch_ms": ("ms", "lower"),
    "cluster.batch_nodes_mean": ("count", "lower"),
    "cluster.skipped_batches": ("count", "lower"),
    "cluster.ppmi_cache_hit_ratio": ("ratio", "higher"),
    "graphlearn.affinity_train_ms": ("ms", "lower"),
    "graphlearn.gl_loss_ms": ("ms", "lower"),
    "graphlearn.affinity_eval_ms": ("ms", "lower"),
    "model.forward_train_ms": ("ms", "lower"),
    "model.loss_ms": ("ms", "lower"),
    "model.forward_eval_ms": ("ms", "lower"),
    "model.eval_ms": ("ms", "lower"),
    "ppmi.walks_ms": ("ms", "lower"),
    "ppmi.pmi_ms": ("ms", "lower"),
    "ppmi.builds": ("count", "lower"),
    "ppmi.nnz_mean": ("count", "lower"),
    "tape.backward_ms": ("ms", "lower"),
    "tape.bytes_train_mb": ("MB", "lower"),
    "tape.bytes_eval_mb": ("MB", "lower"),
    "optim.adam_ms": ("ms", "lower"),
    "epoch.unlisted_ms": ("ms", "lower"),
    "epoch.other_ms": ("ms", "lower"),
    "epoch.mean_ms": ("ms", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# which end-to-end metric a layer metric should move, and on which workloads
LAYER_TO_END_TO_END = {
    "data.load_ms": (["setup_s"], ["pubmed-cluster", "cora-full", "cora-cluster"]),
    "graph.context_ms": (["epoch_ms_p50", "predict_ms"], ["cora-cluster", "pubmed-cluster"]),
    "cluster.partition_s": (["setup_s"], ["cora-cluster", "pubmed-cluster"]),
    "cluster.edge_cut": (["setup_s"], ["cora-cluster", "pubmed-cluster"]),
    "cluster.form_batch_ms": (["epoch_ms_p50"], ["cora-cluster", "pubmed-cluster"]),
    "cluster.batch_nodes_mean": (["epoch_ms_p50"], ["cora-cluster", "pubmed-cluster"]),
    "cluster.skipped_batches": (["epoch_ms_p50"], ["cora-cluster", "pubmed-cluster"]),
    "cluster.ppmi_cache_hit_ratio": (["train_s"], ["cora-cluster", "pubmed-cluster"]),
    "graphlearn.affinity_train_ms": (["epoch_ms_p50"], ["cora-full", "cora-cluster"]),
    "graphlearn.gl_loss_ms": (["epoch_ms_p50"], ["cora-full", "cora-cluster"]),
    "graphlearn.affinity_eval_ms": (["epoch_ms_p50", "predict_ms", "peak_rss_mb"], ["pubmed-cluster", "cora-full"]),
    "model.forward_eval_ms": (["epoch_ms_p50", "predict_ms", "peak_rss_mb"], ["pubmed-cluster", "cora-full"]),
    "model.eval_ms": (["epoch_ms_p50", "predict_ms", "peak_rss_mb"], ["pubmed-cluster", "cora-full"]),
    "tape.bytes_eval_mb": (["peak_rss_mb"], ["pubmed-cluster", "cora-full"]),
    "ppmi.walks_ms": (["train_s"], ["karate-full", "cora-cluster", "pubmed-cluster"]),
    "ppmi.pmi_ms": (["train_s"], ["karate-full", "cora-cluster", "pubmed-cluster"]),
    "ppmi.builds": (["train_s"], ["karate-full", "cora-cluster", "pubmed-cluster"]),
    "ppmi.nnz_mean": (["train_s"], ["karate-full", "cora-cluster", "pubmed-cluster"]),
    "model.forward_train_ms": (["epoch_ms_p50"], list(ALL)),
    "model.loss_ms": (["epoch_ms_p50"], list(ALL)),
    "tape.backward_ms": (["epoch_ms_p50"], ["cora-full", "karate-full"]),
    "tape.bytes_train_mb": (["peak_rss_mb"], ["cora-full", "karate-full"]),
    "optim.adam_ms": (["epoch_ms_p50"], ["cora-full"]),
    "epoch.other_ms": (["epoch_ms_p50"], ["karate-full"]),
}
