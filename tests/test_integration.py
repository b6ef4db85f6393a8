"""End-to-end runs at citation-dataset shape (sparse bag-of-words features,
planetoid-style split) on synthetic data, exercising the exact code paths the
dataset-gated acceptance criteria use."""

from dataclasses import replace

import numpy as np
import pytest

from dualgcn.cli import merge_config, model_config_from
from dualgcn.cluster import PartitionConfig, cluster_fit
from dualgcn.model import accuracy, fit, predict
from conftest import make_citation_surrogate

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def surrogate():
    return make_citation_surrogate(n=1354)


def _cora_profile(**overrides):
    merged = merge_config("cora", {}, {k: str(v) for k, v in overrides.items()})
    return model_config_from(merged)


def test_default_profile_learns_at_citation_scale(surrogate):
    cfg = _cora_profile(epochs=150)
    res = fit(surrogate, cfg)
    acc = accuracy(predict(res.params, surrogate), surrogate.y, surrogate.test_mask)
    assert acc >= 0.75, acc
    assert res.epochs_run == 150
    lgl = [row["lgl"] for row in res.history]
    lreg = [row["lreg"] for row in res.history]
    assert all(v >= 0 for v in lgl) and all(v >= 0 for v in lreg)


def test_frozen_reduction_learns_at_citation_scale(surrogate):
    cfg = _cora_profile(epochs=150, learn_graph="false", lambda1=0, lambda2=0)
    res = fit(surrogate, cfg)
    acc = accuracy(predict(res.params, surrogate), surrogate.y, surrogate.test_mask)
    assert acc >= 0.75, acc


def test_cluster_profile_close_to_full_batch(surrogate):
    cfg = _cora_profile(epochs=150)
    full = fit(surrogate, cfg)
    clustered = cluster_fit(surrogate, cfg, PartitionConfig(c=10, q=2, seed=0))
    a_full = accuracy(predict(full.params, surrogate), surrogate.y, surrogate.test_mask)
    a_clu = accuracy(predict(clustered.params, surrogate), surrogate.y, surrogate.test_mask)
    assert a_clu >= a_full - 0.05, (a_full, a_clu)


def test_deep_cluster_stack_runs(surrogate):
    cfg = _cora_profile(epochs=40, depth=6)
    res = cluster_fit(surrogate, cfg, PartitionConfig(c=8, q=1, seed=0))
    assert res.epochs_run == 40
    assert np.isfinite([row["train_loss"] for row in res.history if not np.isnan(row["train_loss"])]).all()


def _deep_cluster_recipe_accuracy(data):
    # ten layers with he init and eased dropout must stay near the shallow model
    cfg = _cora_profile(epochs=700, depth=10, dropout=0.3, init="he")
    res = cluster_fit(data, cfg, PartitionConfig(c=8, q=1, seed=0))
    return accuracy(predict(res.params, data), data.y, data.test_mask)


def test_deep_cluster_recipe_learns(surrogate):
    acc = _deep_cluster_recipe_accuracy(surrogate)
    assert acc >= 0.75, acc


def test_deep_cluster_recipe_learns_in_float32(surrogate):
    # 0/1 features as the loader returns them: the whole fit runs in float32
    acc = _deep_cluster_recipe_accuracy(replace(surrogate, x=surrogate.x.astype(np.float32)))
    assert acc >= 0.75, acc
