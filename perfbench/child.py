"""One measured run in a fresh interpreter: set up, train, predict.

Usage: python3 perfbench/child.py '<json spec>'

The spec names the checkout root, the generated dataset directory, the
workload, the seed, whether to trace, whether to train a second time
and where to write the result.  The run drives the library the way
``dualgcn train`` does: config from ``cli.merge_config`` and
``cli.model_config_from``, ``load_dataset``, ``partition_graph`` for
cluster workloads, ``fit``/``cluster_fit`` with an ``on_epoch`` callback,
then ``predict``.  Untraced runs never import the tracer.
"""

import dataclasses
import hashlib
import json
import math
import os
import resource
import statistics
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))


def history_digest(history) -> str:
    rows = [repr(sorted((k, float(v)) for k, v in row.items())) for row in history]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def loss_problem(history, skipped: int):
    """Losses must be finite except on skipped batches, which log NaN."""
    bad = sum(1 for row in history if not math.isfinite(row["train_loss"]))
    return None if bad == skipped else f"{bad} non-finite losses but {skipped} skipped batches"


def machine_facts() -> dict:
    import numpy as np
    import scipy

    a = np.ones((512, 512))
    float((a @ a).sum())  # a warm BLAS call starts its thread pool
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "threads_after_blas": len(os.listdir("/proc/self/task")),
    }


def main(spec: dict) -> int:
    src = os.path.realpath(os.path.join(spec["root"], "src"))
    sys.path.insert(0, HERE)
    sys.path.insert(0, src)
    import numpy as np

    import dualgcn
    from dualgcn import cli
    from dualgcn.cluster import PartitionConfig, cluster_fit, partition_graph
    from dualgcn.data import load_dataset
    from dualgcn.model import accuracy, fit, predict

    from workloads import ALL

    if not os.path.realpath(dualgcn.__file__).startswith(src + os.sep):
        print(f"dualgcn imported from {dualgcn.__file__}, not from {src}", file=sys.stderr)
        return 2
    w = ALL[spec["workload"]]
    tracer = None
    if spec["trace"]:
        import layers

        tracer = layers.install()

    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    merged = cli.merge_config(w.profile, {}, dict(w.overrides, seed=spec["seed"]))
    cfg = cli.model_config_from(merged)
    t0 = time.perf_counter()
    with span("data.load"):
        bundle = load_dataset(spec["data_dir"], name=w.profile)
    load_s = time.perf_counter() - t0
    part_cfg = part = None
    partition_s = 0.0
    if w.cluster:
        # the PartitionConfig cmd_train builds from the merged config
        part_cfg = PartitionConfig(c=merged["cluster_c"], q=merged.get("cluster_q", 1),
                                   balance_tolerance=merged["cluster_balance"],
                                   seed=merged.get("cluster_seed", merged["seed"]))
        t0 = time.perf_counter()
        with span("cluster.partition"):
            part = partition_graph(bundle.graph, part_cfg)
        partition_s = time.perf_counter() - t0

    def train(cfg):
        stamps = []
        t_start = time.perf_counter()
        if part_cfg is not None:
            result = cluster_fit(bundle, cfg, part_cfg, partition=part,
                                 weighted_loss=merged["cluster_weighted"],
                                 on_epoch=lambda row: stamps.append(time.perf_counter()))
        else:
            result = fit(bundle, cfg, on_epoch=lambda row: stamps.append(time.perf_counter()))
        return result, time.perf_counter() - t_start, stamps

    setup_s = time.time() - spec["t_spawn"]
    with span("fit") as fit_span:
        result, train_s, stamps = train(cfg)

    pred = predict(result.params, bundle)
    test_acc = accuracy(pred, bundle.y, bundle.test_mask)
    predict_ms = []
    for _ in range(w.predict_reps):
        t0 = time.perf_counter()
        with span("model.predict"):
            predict(result.params, bundle)
        predict_ms.append(1000.0 * (time.perf_counter() - t0))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    problem = loss_problem(result.history, result.skipped_batches)
    if problem:
        problems.append(problem)
    if test_acc < w.acc_floor:
        problems.append(f"test_acc {test_acc:.4f} below floor {w.acc_floor}")
    digest = history_digest(result.history)
    out = {
        "setup_s": setup_s,
        "load_s": load_s,
        "partition_s": partition_s,
        "train_s": train_s,
        "epoch_ms_p50": 1000.0 * statistics.median(np.diff(stamps)),
        "predict_ms": statistics.median(predict_ms),
        "peak_rss_mb": peak_rss_mb,
        "test_acc": test_acc,
        "epochs": len(result.history),
        "skipped_batches": result.skipped_batches,
        "history_digest": digest,
    }
    if tracer:
        tracer.close()
        out["layers"] = layers.summarise(tracer, fit_span, result, part)
        tracer = None  # free the spans so they do not slow the retrain's GC
    # untraced retrain with the same seed and partition: its rows must
    # match the first ones, and after a traced fit (retrained in full) its
    # time gives the tracing overhead
    k = cfg.epochs if spec["trace"] else min(w.refit_epochs, cfg.epochs)
    if k:
        again, out["refit_train_s"], _ = train(dataclasses.replace(cfg, epochs=k))
        if history_digest(again.history) != history_digest(result.history[:k]):
            problems.append(f"the first {k} history rows differ between two fits with the same seed")
    out["problems"] = problems
    out["machine"] = machine_facts()
    with open(spec["out"], "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
