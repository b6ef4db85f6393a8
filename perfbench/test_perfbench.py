"""Tests of the benchmark's own parts: generator, span arithmetic, smoke runs."""

import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402
from workloads import ALL, END_TO_END, LAYER_TO_END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402


def _same(a, b):
    return all(np.array_equal(u, v) for u, v in zip(a[:3], b[:3])) and all(
        np.array_equal(u, v) for u, v in zip(a[3], b[3]))


def test_citation_generator_is_deterministic_per_seed():
    a = gen.citation(3, n=400, p=70, k=7, val=100, test=150)
    b = gen.citation(3, n=400, p=70, k=7, val=100, test=150)
    c = gen.citation(4, n=400, p=70, k=7, val=100, test=150)
    assert _same(a, b)
    assert not _same(a, c)


def test_citation_generator_shape(tmp_path):
    x, y, edges, (train, val, test) = gen.citation(0, n=400, p=70, k=7, val=100, test=150)
    assert x.shape == (400, 70) and set(np.unique(x)) <= {0, 1}
    assert len(edges) == 800 and (edges[:, 0] < edges[:, 1]).all()
    assert len({tuple(e) for e in edges.tolist()}) == len(edges)
    assert np.bincount(y[train]).tolist() == [20] * 7
    assert not (set(train) & set(val) or set(train) & set(test) or set(val) & set(test))
    same = (y[edges[:, 0]] == y[edges[:, 1]]).mean()
    assert same > 0.6  # class-assortative
    facts = gen.write_dataset(tmp_path, x, y, edges, (train, val, test))
    assert facts["undirected_edges"] == 800 and facts["feature_nnz"] == int(x.sum())
    assert facts["split_sizes"] == [140, 100, 150]
    back = np.loadtxt(tmp_path / "features.csv", delimiter=",")
    assert np.array_equal(back, x)


def test_karate_generator_matches_the_builtin_graph():
    from dualgcn.data import builtin_karate

    builtin = builtin_karate()
    x, y, edges, (train, val, test) = gen.karate(0)
    assert np.array_equal(y, builtin.y) and x.shape == (34, 34)
    coo = builtin.graph.adj.tocoo()
    assert {tuple(e) for e in edges.tolist()} == {(i, j) for i, j in zip(coo.row, coo.col) if i < j}
    assert np.bincount(y[train]).tolist() == [1, 1, 1, 1]
    assert len(val) == len(test) == 15
    assert _same((x, y, edges, (train, val, test)), gen.karate(9))


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_times_subtract_direct_children_only():
    # fit [0, 10] > a [1, 6] > b [2, 3]; fit > c [7, 9]
    t = Tracer(clock=_fake_clock([0, 1, 2, 3, 6, 7, 9, 10]))
    with t.span("fit") as root:
        with t.span("a"):
            with t.span("b"):
                pass
        with t.span("c"):
            pass
    selfs = self_times(t.spans)
    assert selfs == [10 - 5 - 2, 5 - 1, 1, 2]
    assert sum(selfs) == 10
    assert t.within(root) == [1, 2, 3]


def test_wrap_records_spans_and_close_restores():
    mod = types.ModuleType("fake")
    mod.f = lambda x: x + 1
    original = mod.f
    t = Tracer()
    t.wrap(mod, "f", "layer.f", after=lambda r, a, k: t.sample("out", r))
    t.wrap(mod, "gone", "layer.gone")
    with t.span("fit"):
        assert mod.f(1) == 2
    t.close()
    assert mod.f is original
    assert [s[0] for s in t.spans] == ["fit", "layer.f", "trace.count"]
    assert t.samples["out"] == [2]
    assert "layer.gone" in t.missing


def test_metric_tables_are_consistent():
    assert set(LAYER_TO_END_TO_END) <= set(PER_LAYER)
    for targets, workloads in LAYER_TO_END_TO_END.values():
        assert set(targets) <= set(END_TO_END) and set(workloads) <= set(ALL)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == PER_LAYER
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}


def _run(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "karate-full",
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.slow
def test_smoke_untraced_run_reports_every_end_to_end_metric():
    out = _run(0)
    assert out["correct"] and out["failed"] == 0
    assert out["attempted"] == WORKLOADS["karate-full"].min_children
    assert set(out["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.slow
def test_smoke_traced_run_splits_the_epoch():
    out = _run(1)
    assert out["correct"] and set(out["metrics"]) == set(PER_LAYER)
    with open(os.path.join(ROOT, ".perfbench", "results", "karate-full-seed0-trace1.json"),
              encoding="utf-8") as fh:
        layers = json.load(fh)["runs"][0]["layers"]
    assert layers["self_sum_ms"] == pytest.approx(layers["fit_ms"], rel=1e-9)
    m = {k: v["value"] for k, v in out["metrics"].items()}
    parts = [v for k, v in m.items() if k.endswith("_ms") and k not in (
        "data.load_ms", "model.eval_ms", "epoch.mean_ms")]
    assert sum(parts) == pytest.approx(m["epoch.mean_ms"], rel=1e-9)
    assert layers["missing"] == {}
    assert out["metrics"]["ppmi.builds"]["value"] == 50  # 500 epochs, refresh every 10
    assert out["metrics"]["cluster.partition_s"]["value"] == 0  # bypassed in full batch
