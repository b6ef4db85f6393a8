"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Criteria that need the real citation datasets (cora, citeseer, pubmed) look
for them under GLDGCN_DATA_DIR and skip loudly when absent; everything else
runs self-contained.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time

import numpy as np
import pytest
import scipy.sparse as sp

from dualgcn.cli import main as cli_main, merge_config, model_config_from
from dualgcn.cluster import (
    PartitionConfig,
    cluster_fit,
    partition_graph,
    random_balanced_partition,
)
from dualgcn.data import SplitSpec, builtin_karate, with_split
from dualgcn.graph import build_graph
from dualgcn.model import ModelConfig, accuracy, fit, predict
from dualgcn.ppmi import WalkConfig, frequency_matrix, ppmi
from dualgcn.rng import RngStream
from conftest import exact_frequency_matrix, karate_with_train_seed, load_or_skip, make_random_graph

pytestmark = pytest.mark.acceptance


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def _profile_config(dataset: str, seed: int, **overrides) -> ModelConfig:
    merged = merge_config(dataset, {}, {k: str(v) for k, v in overrides.items()})
    merged["seed"] = seed
    return model_config_from(merged)


def _planetoid(bundle):
    if bundle.has_masks():
        return bundle
    return with_split(bundle, SplitSpec(per_class_train=20, val_size=500, test_size=1000, seed=0))


def _ram_gb() -> float:
    with open("/proc/meminfo") as fh:
        for line in fh:
            if line.startswith("MemTotal"):
                return int(line.split()[1]) / 1e6
    return 0.0


# -- 1. Cora accuracy --------------------------------------------------------

@pytest.mark.slow
def test_criterion_1_cora_accuracy():
    bundle = _planetoid(load_or_skip("cora"))
    assert (bundle.n, bundle.p, bundle.class_count) == (2708, 1433, 7), \
        "converted cora directory does not match the published shape"
    accs = []
    t0 = time.time()
    for seed in (0, 1, 2):
        res = fit(bundle, _profile_config("cora", seed))
        accs.append(accuracy(predict(res.params, bundle), bundle.y, bundle.test_mask))
    elapsed = time.time() - t0
    ok = np.median(accs) >= 0.80 and min(accs) >= 0.78 and elapsed <= 15 * 60 * 3
    _report("1 cora", ok, f"accs={[round(a, 4) for a in accs]}, {elapsed:.0f}s")
    assert np.median(accs) >= 0.80, accs
    assert min(accs) >= 0.78, accs
    assert elapsed <= 15 * 60 * 3


# -- 2. Citeseer accuracy ----------------------------------------------------

@pytest.mark.slow
def test_criterion_2_citeseer_accuracy():
    bundle = _planetoid(load_or_skip("citeseer"))
    assert (bundle.n, bundle.p, bundle.class_count) == (3327, 3703, 6), \
        "converted citeseer directory does not match the published shape"
    accs = []
    for seed in (0, 1, 2):
        res = fit(bundle, _profile_config("citeseer", seed))
        accs.append(accuracy(predict(res.params, bundle), bundle.y, bundle.test_mask))
    ok = np.median(accs) >= 0.69
    _report("2 citeseer", ok, f"accs={[round(a, 4) for a in accs]}")
    assert np.median(accs) >= 0.69, accs


# -- 3. Karate Club ----------------------------------------------------------

def test_criterion_3_karate_perfect_classification():
    t0 = time.time()
    corrects = []
    for seed in range(5):
        bundle = karate_with_train_seed(seed)
        res = fit(bundle, _profile_config("karate", seed))
        pred = predict(res.params, bundle)
        corrects.append(int((pred == bundle.y).sum()))
    elapsed = time.time() - t0
    ok = max(corrects) == 34 and np.median(corrects) >= 33 and elapsed <= 30
    _report("3 karate", ok, f"correct={sorted(corrects)}/34, {elapsed:.1f}s")
    assert max(corrects) == 34, corrects
    assert np.median(corrects) >= 33, corrects
    assert elapsed <= 30, elapsed


# -- 4. Frozen-affinity reduction baseline ------------------------------------

@pytest.mark.slow
def test_criterion_4_gcn_reduction_cora():
    bundle = _planetoid(load_or_skip("cora"))
    cfg = _profile_config("cora", 0, learn_graph="false", lambda1=0, lambda2=0)
    res = fit(bundle, cfg)
    acc = accuracy(predict(res.params, bundle), bundle.y, bundle.test_mask)
    ok = acc >= 0.78
    _report("4 gcn-reduction", ok, f"acc={acc:.4f}")
    assert acc >= 0.78, acc


# -- 5. Gradient correctness ---------------------------------------------------

def test_criterion_5_gradient_check():
    t0 = time.time()
    rc = cli_main(["gradcheck", "--seed", "0"])
    elapsed = time.time() - t0
    ok = rc == 0 and elapsed <= 10
    _report("5 gradcheck", ok, f"exit={rc}, {elapsed:.1f}s")
    assert rc == 0
    assert elapsed <= 10


# -- 6. PPMI sampler vs exact-expectation oracle -------------------------------

def _small_graph_family():
    for n in range(2, 11):
        yield build_graph([(i, i + 1) for i in range(n - 1)], n)  # path
        yield build_graph([(i, (i + 1) % n) for i in range(n)], n)  # cycle
        if n <= 7:
            yield build_graph([(i, j) for i in range(n) for j in range(i + 1, n)], n)
        yield build_graph([(0, i) for i in range(1, n)], n)  # star
    for seed in (0, 1):
        yield make_random_graph(8, 0.35, seed)


def test_criterion_6_ppmi_oracle_equivalence():
    worst = 0.0
    for g in _small_graph_family():
        for q in (1, 2, 3):
            exact = exact_frequency_matrix(g.adj, q=q, w=q)
            total = exact.sum()
            if total == 0:
                continue
            exact_dist = exact / total
            devs = []
            for seed in (0, 1, 2):
                cfg = WalkConfig(q=q, w=q, gamma_walks=10_000)
                f = frequency_matrix(g.adj, cfg, RngStream(seed, ("ppmi",))).toarray()
                devs.append(np.abs(f / f.sum() - exact_dist).max())
            worst = max(worst, float(np.mean(devs)))
    # property sweep: symmetry, non-negativity, exact-independence zero
    g = make_random_graph(9, 0.4, seed=5)
    fq = frequency_matrix(g.adj, WalkConfig(q=3, w=3, gamma_walks=50), RngStream(0, ("ppmi",)))
    sym_ok = abs(fq - fq.T).nnz == 0
    p = ppmi(fq)
    nonneg_ok = bool((p.P.data >= 0).all()) if p.P.nnz else True
    u = np.array([1.0, 2.0, 4.0, 8.0])
    indep = ppmi(sp.csr_matrix(np.outer(u, u)))
    indep_ok = indep.P.nnz == 0
    ok = worst <= 0.05 and sym_ok and nonneg_ok and indep_ok
    _report("6 ppmi-oracle", ok,
            f"max mean-dev={worst:.4f}, sym={sym_ok}, nonneg={nonneg_ok}, indep-zero={indep_ok}")
    assert worst <= 0.05
    assert sym_ok and nonneg_ok and indep_ok


# -- 7. Cluster-training equivalence and fidelity ------------------------------

def test_criterion_7a_cluster_c1_bit_identical():
    # any batch spanning the whole graph (q = c) is the full batch
    bundle = builtin_karate()
    cfg = _profile_config("karate", 3, epochs=60)
    full = fit(bundle, cfg)
    for c in (1, 4):
        clustered = cluster_fit(bundle, cfg, PartitionConfig(c=c, q=c, seed=0))
        rows_equal = all(a == b for a, b in zip(full.history, clustered.history))
        params_equal = all(
            np.array_equal(p1.value, p2.value)
            for p1, p2 in zip(full.params.all_parameters(), clustered.params.all_parameters())
        )
        ok = rows_equal and params_equal and len(full.history) == len(clustered.history)
        _report("7a cluster-c1-identity", ok,
                f"c=q={c}: rows_equal={rows_equal}, params_equal={params_equal}")
        assert ok, c


def test_criterion_7b_block_reconstruction_exact():
    from conftest import cluster_blocks, reassemble

    rng = RngStream(0, ("accept7",))
    checked = 0
    for trial in range(100):
        n = int(rng.integers(4, 65))
        c = int(rng.integers(2, min(8, n) + 1))
        g = make_random_graph(n, 0.15, seed=trial, ensure_ring=bool(trial % 2))
        part = partition_graph(g, PartitionConfig(c=c, seed=trial))
        blocks = cluster_blocks(part, g, np.zeros((n, 1)), np.zeros(n, dtype=int))
        exact = (reassemble(blocks, part, g) != g.adj).nnz == 0
        if not exact:
            _report("7b block-reconstruction", False, f"trial {trial} mismatch")
            assert exact
        checked += 1
    _report("7b block-reconstruction", True, f"{checked} random graphs exact")


@pytest.mark.slow
def test_criterion_7c_cora_cluster_fidelity():
    bundle = _planetoid(load_or_skip("cora"))
    diffs = []
    for seed in (0, 1, 2):
        cfg = _profile_config("cora", seed)
        full = fit(bundle, cfg)
        clustered = cluster_fit(bundle, cfg, PartitionConfig(c=10, q=2, seed=seed))
        acc_full = accuracy(predict(full.params, bundle), bundle.y, bundle.test_mask)
        acc_clu = accuracy(predict(clustered.params, bundle), bundle.y, bundle.test_mask)
        diffs.append(acc_clu - acc_full)
    mean_abs = float(np.mean([abs(d) for d in diffs]))
    ok = mean_abs <= 0.02
    _report("7c cora-cluster-fidelity", ok, f"paired diffs={[round(d, 4) for d in diffs]}")
    assert mean_abs <= 0.02, diffs


# -- 8. Deep cluster training and memory scaling -------------------------------

@pytest.mark.slow
def test_criterion_8a_pubmed_deep_cluster():
    if _ram_gb() < 16:
        pytest.skip(f"desk check optional below 16 GB RAM (have {_ram_gb():.1f} GB)")
    bundle = _planetoid(load_or_skip("pubmed"))
    # the deep-stack recipe: he init keeps gradients alive through ten ReLU
    # layers and the input dropout is eased (0.6 compounds over ten layers)
    cfg = _profile_config("pubmed", 0, depth=10, dropout=0.3, init="he")
    res = cluster_fit(bundle, cfg, PartitionConfig(c=8, q=1, seed=0))
    acc = accuracy(predict(res.params, bundle), bundle.y, bundle.test_mask)
    ok = acc >= 0.77
    _report("8a pubmed-deep", ok, f"acc={acc:.4f}")
    assert acc >= 0.77, acc


def test_criterion_8b_memory_tracks_batch_not_graph():
    from dualgcn import tape
    from dualgcn.cluster import form_batch
    from dualgcn.model import _batch_loss, _build_ppmi_operator, _GraphContext, _TrainBatch, init_params
    from conftest import make_sbm_bundle

    def batch_bytes(n, c, seed):
        """The tape bytes of the first step cluster_fit trains (q=1), built as that step builds it."""
        bundle = make_sbm_bundle(n=n, k=4, seed=seed)
        cfg = ModelConfig(hidden_gcn=8, hidden_gl=4, dropout=0.0, epochs=1, seed=0,
                          lambda1=0.01, lambda2=0.01,
                          walk=WalkConfig(q=2, w=2, gamma_walks=4))
        part = partition_graph(bundle.graph, PartitionConfig(c=c, seed=0))
        rng = RngStream(cfg.seed)
        params = init_params(bundle.p, bundle.class_count, cfg, rng)
        whole = _GraphContext(bundle.x, bundle.graph, cfg)
        whole.distances(cfg)
        epoch = 0
        while True:  # cluster_fit skips batches without train labels
            batch = form_batch(part, 1, rng.child("batch", epoch), whole, cfg, bundle.y)
            train_local = np.flatnonzero(bundle.train_mask[batch.nodes])
            if train_local.size:
                break
            epoch += 1
        step = _TrainBatch(batch.ctx, batch.y, train_local,
                           batch.nodes.size / bundle.n, ppmi_key=batch.cluster_ids)
        s = step.ctx.build_affinity(params, cfg)
        p_op = _build_ppmi_operator(s, cfg.walk, rng.child("ppmi", epoch)) if cfg.needs_ppmi else None
        loss, _ = _batch_loss(step, s, p_op, params, cfg, rng, epoch)
        return tape.tape_nbytes(loss), batch.nodes.size

    small, small_nodes = batch_bytes(256, 8, 31)
    big, big_nodes = batch_bytes(512, 16, 32)
    full, _ = batch_bytes(512, 1, 32)
    ok = big < 1.6 * small and full > 4 * big
    _report("8b memory-scaling", ok,
            f"batch(256/8)={small}B, batch(512/16)={big}B, full(512)={full}B")
    # similar batch sizes, double the graph: memory should not double
    assert 0.5 <= big_nodes / small_nodes <= 2.0
    assert big < 1.6 * small
    assert full > 4 * big


def test_criterion_8b_whole_cluster_fit_memory_tracks_batch_not_graph():
    import tracemalloc

    from conftest import make_citation_surrogate

    def run_peak(n):
        bundle = with_split(make_citation_surrogate(n=n, k=4, p=300), SplitSpec(20, 40, 200, seed=0))
        part_cfg = PartitionConfig(c=n // 100, q=1, seed=0)
        part = partition_graph(bundle.graph, part_cfg)
        tracemalloc.start()
        try:
            cluster_fit(bundle, ModelConfig(epochs=3, seed=0), part_cfg, partition=part)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small, big = run_peak(1000), run_peak(4000)
    ok = big < 1.5 * small
    _report("8b whole-run memory", ok, f"peak n=1000: {small / 2**20:.2f} MB, n=4000: {big / 2**20:.2f} MB")
    # same batch size (n / c = 100 nodes), four times the graph: the run's
    # peak, validation included, must not grow with it
    assert ok, (small, big)


# -- 9. Partition quality -------------------------------------------------------

@pytest.mark.slow
def test_criterion_9_partition_quality_cora():
    bundle = load_or_skip("cora")
    g = bundle.graph
    results = {}
    for c in (5, 10, 20):
        part = partition_graph(g, PartitionConfig(c=c, seed=0))
        rng = RngStream(0, ("accept9", c))
        baseline = np.mean([random_balanced_partition(g, c, rng.child(i)).edge_cut
                            for i in range(20)])
        results[c] = (part.edge_cut, baseline)
    ok = all(cut < base for cut, base in results.values())
    _report("9 partition-quality", ok, f"{results}")
    for c, (cut, base) in results.items():
        assert cut < base, (c, cut, base)


# -- 10. Determinism -------------------------------------------------------------

def test_criterion_10_train_determinism(tmp_path):
    args = ["train", "--dataset", "karate", "--seed", "11",
            "--set", "epochs=25", "--set", "walk_gamma=8"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert cli_main(args + ["--out", str(out1)]) == 0
    assert cli_main(args + ["--out", str(out2)]) == 0
    h1 = (out1 / "history.csv").read_bytes()
    h2 = (out2 / "history.csv").read_bytes()
    ok = h1 == h2
    _report("10 determinism", ok, f"history bytes equal={ok}, {len(h1)}B")
    assert ok
