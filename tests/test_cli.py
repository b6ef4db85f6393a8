import json
import os
import sys
from pathlib import Path

import numpy as np
import pytest

from dualgcn import cli
from dualgcn.cli import main, merge_config, read_config_file
from dualgcn.errors import ConfigError
from conftest import make_sbm_bundle

FAST_TRAIN = ["--set", "epochs=8", "--set", "hidden_gl=4", "--set", "walk_gamma=4",
              "--set", "ppmi_refresh=4"]


def run(args):
    return main(args)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nepochs = 12\nlr2=0.003\nhidden_gl = none\n")
    cfg = read_config_file(path)
    assert cfg == {"epochs": "12", "lr2": "0.003", "hidden_gl": "none"}
    merged = merge_config(None, cfg, {})
    assert merged["epochs"] == 12
    assert merged["lr2"] == 0.003
    assert merged["hidden_gl"] is None


def test_unknown_config_key_is_hard_error():
    with pytest.raises(ConfigError):
        merge_config(None, {"not_a_key": "1"}, {})


def test_precedence_defaults_file_flags(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs = 12\nlr2 = 0.003\n")
    merged = merge_config(None, read_config_file(path), {"epochs": "5"})
    assert merged["epochs"] == 5  # flag wins
    assert merged["lr2"] == 0.003  # file wins over default
    assert merged["dropout"] == 0.6  # default


def test_citeseer_profile_defaults():
    merged = merge_config("citeseer", {}, {})
    assert merged["hidden_gcn"] == 30
    assert merged["lr2"] == 0.001


def test_train_karate_smoke(tmp_path):
    out = tmp_path / "run"
    rc = run(["train", "--dataset", "karate", "--seed", "7", "--out", str(out)] + FAST_TRAIN)
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["command"] == "train"
    assert summary["seed"] == 7
    assert 0.0 <= summary["test_acc"] <= 1.0
    assert (out / "history.csv").exists()
    assert (out / "checkpoint.npz").exists()
    header = (out / "history.csv").read_text().splitlines()[0]
    assert header == "epoch,train_loss,l0,lreg,lgl,val_acc"


EXPECTED_SUMMARY_KEYS = {
    "command", "dataset", "n", "classes", "seed", "threads", "config", "cluster_mode",
    "best_val_acc", "best_epoch", "test_acc", "final_train_loss", "epochs_run",
    "skipped_batches", "artifacts", "wall_time_sec",
}


def test_summary_documented_key_set(tmp_path):
    out = tmp_path / "run"
    assert run(["train", "--dataset", "karate", "--out", str(out)] + FAST_TRAIN) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary.keys()) == EXPECTED_SUMMARY_KEYS


def test_train_determinism_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["train", "--dataset", "karate", "--seed", "3"] + FAST_TRAIN
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    h1 = (out1 / "history.csv").read_bytes()
    h2 = (out2 / "history.csv").read_bytes()
    assert h1 == h2
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    s1.pop("wall_time_sec")
    s2.pop("wall_time_sec")
    s1["artifacts"] = s2["artifacts"] = None
    assert s1 == s2


def test_train_cluster_routing(tmp_path):
    out = tmp_path / "run"
    rc = run(["train", "--dataset", "karate", "--cluster", "c=2", "q=1",
              "--out", str(out)] + FAST_TRAIN)
    assert rc == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["cluster_mode"] is True
    assert summary["config"]["cluster_c"] == 2


def test_failed_artifact_write_keeps_the_earlier_artifact(tmp_path, monkeypatch):
    out = tmp_path / "run"
    assert run(["train", "--dataset", "karate", "--out", str(out)] + FAST_TRAIN) == 0
    before = {name: (out / name).read_bytes() for name in ("checkpoint.npz", "summary.json")}

    def broken_save(fh, params, cfg_echo=None):
        fh.write(b"half a checkpoint")
        raise OSError("disk full")

    monkeypatch.setattr(cli, "save_checkpoint", broken_save)
    with pytest.raises(OSError, match="disk full"):
        run(["train", "--dataset", "karate", "--out", str(out)] + FAST_TRAIN)
    # a summary that cannot be serialized
    with pytest.raises(TypeError):
        cli._write_summary(str(out), {"command": "train", "config": object()})
    assert {name: (out / name).read_bytes() for name in before} == before
    assert sorted(os.listdir(out)) == ["checkpoint.npz", "history.csv", "summary.json"]


def test_train_unknown_key_exit_2(tmp_path):
    rc = run(["train", "--dataset", "karate", "--set", "bogus=1", "--out", str(tmp_path)])
    assert rc == 2


def _save_unsplit(path):
    """An SBM dataset directory with no train/val/test.txt."""
    from dataclasses import replace
    from dualgcn.data import save_dataset

    bundle = replace(make_sbm_bundle(n=30, k=3, seed=5), train_mask=None, val_mask=None, test_mask=None)
    save_dataset(bundle, path)
    return path


@pytest.mark.parametrize("setting", ["walk_w=9", "epochs=abc", "dropout=x", "split_per_class=0", "split_val=-1"])
def test_train_bad_config_value_exit_2(tmp_path, capsys, setting):
    # the split keys are read only when the dataset ships no split
    dataset = str(_save_unsplit(tmp_path / "toy")) if setting.startswith("split_") else "karate"
    rc = run(["train", "--dataset", dataset, "--set", setting, "--out", str(tmp_path / "run")])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_readme_documents_every_config_key():
    import re

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Configuration", 1)[1].split("\n## ", 1)[0]
    documented = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            documented.update(re.findall(r"`(\w+)`", line.split("|")[1]))
    assert documented == set(cli._KEY_PARSERS)


def test_thread_cap_not_applied_is_recorded_as_zero(tmp_path, monkeypatch):
    # without threadpoolctl BLAS is already loaded and the cap cannot take effect
    monkeypatch.setitem(sys.modules, "threadpoolctl", None)
    out = tmp_path / "run"
    assert run(["train", "--dataset", "karate", "--threads", "2", "--out", str(out)] + FAST_TRAIN) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["threads"] == 0
    assert summary["config"]["threads"] == 2


def test_train_missing_dataset_exit_3(tmp_path):
    rc = run(["train", "--dataset", str(tmp_path / "nope"), "--out", str(tmp_path)])
    assert rc == 3


def _append(name, line):
    def corrupt(d):
        with open(d / name, "a", encoding="utf-8") as fh:
            fh.write(line)
    return corrupt


def _relabel(d):
    lines = (d / "labels.txt").read_text().splitlines()
    lines[2] = "z"
    (d / "labels.txt").write_text("\n".join(lines) + "\n")


def _empty_features_and_labels(d):
    (d / "features.csv").write_text("")
    (d / "labels.txt").write_text("")


@pytest.mark.parametrize("corrupt, where", [
    (_append("edges.tsv", "1\tq\n"), "edges.tsv:"),
    (_append("edges.tsv", "0\t30\n"), "edges.tsv:"),  # n = 30
    (_append("edges.tsv", "0\t1\t-2\n"), "edges.tsv:"),
    (_relabel, "labels.txt"),
    (_append("val.txt", "x\n"), "val.txt"),
    (_empty_features_and_labels, "features.csv"),
], ids=["edge-token", "edge-range", "edge-weight", "label", "val-id", "empty"])
def test_train_malformed_dataset_file_exit_3(tmp_path, capsys, corrupt, where):
    from dualgcn.data import save_dataset

    d = tmp_path / "toy"
    save_dataset(make_sbm_bundle(n=30, k=3, seed=5), d)
    corrupt(d)
    capsys.readouterr()
    rc = run(["train", "--dataset", str(d), "--out", str(tmp_path / "run")] + FAST_TRAIN)
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("data error:") and where in err
    if where == "edges.tsv:":
        lines = (d / "edges.tsv").read_text().count("\n")
        assert f"edges.tsv:{lines}:" in err  # the appended line


def test_train_numeric_failure_exit_4(tmp_path):
    with np.errstate(all="ignore"):
        rc = run(["train", "--dataset", "karate", "--out", str(tmp_path),
                  "--set", "lr1=1e160", "--set", "lr2=1e160", "--set", "epochs=10",
                  "--set", "hidden_gl=4", "--set", "dropout=0", "--set", "walk_gamma=4"])
    assert rc == 4


def test_eval_checkpoint(tmp_path):
    out = tmp_path / "run"
    assert run(["train", "--dataset", "karate", "--out", str(out)] + FAST_TRAIN) == 0
    rc = run(["eval", "--dataset", "karate", "--checkpoint", str(out / "checkpoint.npz"),
              "--out", str(tmp_path / "eval")])
    assert rc == 0
    summary = json.loads((tmp_path / "eval" / "summary.json").read_text())
    assert summary["command"] == "eval"
    assert 0.0 <= summary["test_acc"] <= 1.0


def test_eval_splits_as_the_checkpoint_was_trained(tmp_path, capsys):
    data = str(_save_unsplit(tmp_path / "toy"))
    out = tmp_path / "run"
    assert run(["train", "--dataset", data, "--out", str(out),
                "--set", "epochs=4", "--set", "hidden_gl=none", "--set", "walk_gamma=4",
                "--set", "split_per_class=3", "--set", "split_val=6", "--set", "split_test=6"]) == 0
    trained = json.loads((out / "summary.json").read_text())
    capsys.readouterr()
    assert run(["eval", "--dataset", data, "--checkpoint", str(out / "checkpoint.npz")]) == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["val_acc"] == trained["best_val_acc"]


def test_eval_checkpoint_of_another_feature_width_exit_3(tmp_path, capsys):
    from dataclasses import replace
    from dualgcn.data import builtin_karate, save_dataset

    out = tmp_path / "run"
    assert run(["train", "--dataset", "karate", "--out", str(out)] + FAST_TRAIN) == 0
    narrow = replace(builtin_karate(), x=np.eye(34)[:, :5])
    save_dataset(narrow, tmp_path / "narrow")
    capsys.readouterr()
    rc = run(["eval", "--dataset", str(tmp_path / "narrow"), "--checkpoint", str(out / "checkpoint.npz")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "data error" in err and "34" in err and "5" in err


def test_gradcheck_exit_codes():
    assert run(["gradcheck", "--seed", "0"]) == 0
    assert run(["gradcheck", "--seed", "0", "--sabotage", "convolution"]) == 5
    assert run(["gradcheck", "--seed", "0", "--sabotage", "graph-learner"]) == 5


def test_gradcheck_lambda2_zero_skips_learner(capsys):
    assert run(["gradcheck", "--seed", "1", "--set", "lambda2=0"]) == 0
    out = capsys.readouterr().out
    assert "graph-learner: no-grad, skipped" in out


def test_ppmi_command_deterministic(tmp_path):
    out1 = tmp_path / "p1.tsv"
    out2 = tmp_path / "p2.tsv"
    args = ["ppmi", "--dataset", "karate", "--q", "3", "--w", "3", "--gamma", "10", "--seed", "1"]
    assert run(args + ["--out", str(out1)]) == 0
    assert run(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_ppmi_gamma_growth_improves_oracle_distance(tmp_path, karate):
    from dualgcn.ppmi import WalkConfig, exact_frequency_matrix, frequency_matrix

    exact = exact_frequency_matrix(karate.graph.adj, q=3, w=3).F.toarray()
    exact_dist = exact / exact.sum()

    def deviation(gamma, seed):
        f = frequency_matrix(karate.graph.adj,
                             WalkConfig(q=3, w=3, gamma_walks=gamma, seed=seed)).F.toarray()
        return np.abs(f / f.sum() - exact_dist).max()

    for seed in (0, 1, 2):
        lo = deviation(20, seed)
        hi = deviation(200, seed)
        assert hi <= lo, (seed, lo, hi)


def test_ppmi_empty_graph_exit_3(tmp_path):
    from dualgcn.data import save_dataset
    from dataclasses import replace
    from dualgcn.graph import build_graph

    bundle = make_sbm_bundle(n=10, k=2, seed=0)
    empty = replace(bundle, graph=build_graph([], 10))
    save_dataset(empty, tmp_path / "empty")
    rc = run(["ppmi", "--dataset", str(tmp_path / "empty"), "--out", str(tmp_path / "p.tsv")])
    assert rc == 3


def test_partition_command(tmp_path, capsys):
    out = tmp_path / "part.txt"
    rc = run(["partition", "--dataset", "karate", "--c", "4", "--seed", "2",
              "--out", str(out)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["edge_cut"] < report["random_baseline_mean_cut"]
    assert out.exists()
    header = out.read_text().splitlines()[0]
    assert header == "# partition n=34 c=4 seed=2"


@pytest.mark.parametrize("command,writer", [
    (["partition", "--dataset", "karate", "--c", "4"], "save_partition_cache"),
    (["ppmi", "--dataset", "karate", "--gamma", "4"], "save_ppmi_cache"),
])
def test_failed_cache_write_keeps_the_earlier_file(tmp_path, monkeypatch, command, writer):
    out = tmp_path / "cache.txt"
    assert run(command + ["--out", str(out)]) == 0
    before = out.read_bytes()

    def broken(fh, *args):
        fh.write(b"half a file")
        raise OSError("disk full")

    monkeypatch.setattr(cli, writer, broken)
    with pytest.raises(OSError, match="disk full"):
        run(command + ["--out", str(out)])
    assert out.read_bytes() == before
    assert os.listdir(tmp_path) == ["cache.txt"]


def test_partition_c_above_n_exit_2(tmp_path):
    rc = run(["partition", "--dataset", "karate", "--c", "35", "--out", str(tmp_path / "p.txt")])
    assert rc == 2


def test_partition_c1_zero_cut(tmp_path, capsys):
    rc = run(["partition", "--dataset", "karate", "--c", "1", "--out", str(tmp_path / "p.txt")])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["edge_cut"] == 0


def test_dataset_dir_env_fallback(tmp_path, monkeypatch):
    _save_unsplit(tmp_path / "toy")
    monkeypatch.setenv("GLDGCN_DATA_DIR", str(tmp_path))
    real_split, drawn = cli.with_split, []

    def recording_split(bundle, spec):
        drawn.append(real_split(bundle, spec))
        return drawn[-1]

    monkeypatch.setattr(cli, "with_split", recording_split)
    out = tmp_path / "run"
    rc = run(["train", "--dataset", "toy", "--out", str(out),
              "--set", "epochs=4", "--set", "hidden_gl=none", "--set", "walk_gamma=4",
              "--set", "split_per_class=3", "--set", "split_val=6", "--set", "split_test=6"])
    assert rc == 0
    assert len(drawn) == 1 and drawn[0].val_mask.sum() == 6
