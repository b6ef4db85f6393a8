import argparse
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from dualgcn import cli
from dualgcn.cli import main, merge_config, read_config_file
from dualgcn.errors import ConfigError
from dualgcn.tape import Tensor
from conftest import count_support_builds, exact_frequency_matrix, make_sbm_bundle, save_dataset

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


def test_every_config_field_is_set_by_exactly_one_key():
    from dataclasses import fields, is_dataclass
    from typing import get_type_hints

    from dualgcn.cluster import PartitionConfig
    from dualgcn.data import SplitSpec
    from dualgcn.graphlearn import GlConfig
    from dualgcn.model import ModelConfig
    from dualgcn.ppmi import WalkConfig

    owners = (ModelConfig, WalkConfig, GlConfig, SplitSpec, PartitionConfig)
    for cls in owners:
        hints = get_type_hints(cls)
        for f in fields(cls):
            if is_dataclass(hints[f.name]):
                continue  # a nested config: its own fields are checked
            keys = [key for key, target in cli._FIELDS.items() if target == (cls, f.name)]
            assert len(keys) == 1, f"{cls.__name__}.{f.name} is set by {keys}"


def test_readme_quick_start_commands_parse():
    import shlex

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Quick start\n", 1)[1].split("```", 2)[1]
    commands = [line for line in block.splitlines() if line.startswith("dualgcn ")]
    assert len(commands) >= 5
    parser = cli.build_parser()
    for line in commands:
        argv = shlex.split(line, comments=True)[1:]
        try:
            args = parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: {line}")
        assert args.command == argv[0]


def test_readme_quick_start_shows_every_subcommand():
    import shlex

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## Quick start\n", 1)[1].split("```", 2)[1]
    shown = {shlex.split(line)[1] for line in block.splitlines() if line.startswith("dualgcn ")}
    sub = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    missing = set(sub.choices) - shown
    assert not missing, f"subcommands with no README quick-start line: {sorted(missing)}"


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
    "command", "dataset", "n", "classes", "seed", "config", "cluster_mode", "feature_dtype",
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


@pytest.mark.parametrize("cluster,effective", [
    (["c=4"], {"cluster_q": 1, "cluster_seed": 3}),  # q's default, seed's fallback
    (["c=4", "q=2", "seed=9"], {"cluster_q": 2, "cluster_seed": 9}),
])
def test_cluster_run_records_the_settings_that_took_effect(tmp_path, cluster, effective):
    from dualgcn.model import load_checkpoint

    out = tmp_path / "run"
    assert run(["train", "--dataset", "karate", "--seed", "3", "--cluster", *cluster,
                "--out", str(out)] + FAST_TRAIN) == 0
    config = json.loads((out / "summary.json").read_text())["config"]
    want = {"cluster_c": 4, "cluster_balance": 1.1, "cluster_weighted": True, **effective}
    assert {k: v for k, v in config.items() if k.startswith("cluster_")} == want
    _, meta = load_checkpoint(str(out / "checkpoint.npz"))
    assert {k: v for k, v in meta["cfg"].items() if k.startswith("cluster_")} == want


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


def test_failed_train_keeps_the_earlier_run(tmp_path):
    out = tmp_path / "run"
    assert run(["train", "--dataset", "karate", "--set", "epochs=20", "--out", str(out)]) == 0
    names = ("checkpoint.npz", "history.csv", "summary.json")
    before = {name: (out / name).read_bytes() for name in names}
    assert len(before["history.csv"].splitlines()) == 21
    # diverges at epoch 1: exit 4 after one history row
    with np.errstate(all="ignore"):
        assert run(["train", "--dataset", "karate", "--set", "lr2=1e308", "--out", str(out)]) == 4
    assert {name: (out / name).read_bytes() for name in names} == before
    assert not list(out.glob("*.tmp"))


def test_train_unknown_key_exit_2(tmp_path):
    rc = run(["train", "--dataset", "karate", "--set", "bogus=1", "--out", str(tmp_path)])
    assert rc == 2


def test_train_cluster_settings_without_c_exit_2(tmp_path, capsys):
    """Any cluster key without cluster_c, from --set or a config file, is a
    config error: none trains full batch and records the key as set."""
    config = tmp_path / "cluster.cfg"
    config.write_text("cluster_balance = 1.5\n")
    out = tmp_path / "run"
    for given in (["--set", "cluster_q=2", "--set", "cluster_seed=5"],
                  ["--set", "cluster_balance=1.5", "--set", "cluster_weighted=false"],
                  ["--set", "cluster_weighted=true"],
                  ["--config", str(config)]):
        rc = run(["train", "--dataset", "karate", *given, "--out", str(out)] + FAST_TRAIN)
        assert rc == 2, given
        assert "cluster training requires c" in capsys.readouterr().err
        assert not (out / "summary.json").exists()


def _save_unsplit(path):
    """An SBM dataset directory with no train/val/test.txt."""
    from dataclasses import replace
    bundle = replace(make_sbm_bundle(n=30, k=3, seed=5), train_mask=None, val_mask=None, test_mask=None)
    save_dataset(bundle, path)
    return path


@pytest.mark.parametrize("setting", ["walk_w=9", "epochs=abc", "dropout=x", "split_per_class=0", "split_val=-1",
                                     "lr1=0", "lr2=-0.01", "weight_decay=-1", "ppmi_refresh=-3",
                                     "stop_threshold=-1"])
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


def test_train_predict_and_eval_build_each_bundles_support_once(tmp_path, monkeypatch):
    from dualgcn.data import builtin_karate
    from dualgcn.model import load_checkpoint, predict

    bundle = builtin_karate()
    monkeypatch.setattr(cli, "resolve_dataset", lambda name, data_dir=None: bundle)
    builds = count_support_builds(monkeypatch)
    out = tmp_path / "run"
    assert run(["train", "--dataset", "karate", "--out", str(out)] + FAST_TRAIN) == 0
    params, _ = load_checkpoint(out / "checkpoint.npz")
    preds = [predict(params, bundle).tobytes() for _ in range(3)]
    # the fit's support serves its closing predict and the three after it
    assert builds == [34] and len(set(preds)) == 1
    bundle = builtin_karate()
    assert run(["eval", "--dataset", "karate", "--checkpoint", str(out / "checkpoint.npz")]) == 0
    assert builds == [34, 34]


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


def test_checkpoints_evaluate_across_feature_dtypes(tmp_path, capsys):
    from dualgcn.data import builtin_karate

    save_dataset(builtin_karate(), tmp_path / "karate")  # its one-hot features load as float32
    on_disk = str(tmp_path / "karate")
    runs = {}
    for dataset in ("karate", on_disk):
        out = tmp_path / f"run{len(runs)}"
        assert run(["train", "--dataset", dataset, "--out", str(out)] + FAST_TRAIN) == 0
        runs[dataset] = (out, json.loads((out / "summary.json").read_text()))
    assert runs["karate"][1]["feature_dtype"] == "float64"
    assert runs[on_disk][1]["feature_dtype"] == "float32"
    with np.load(runs[on_disk][0] / "checkpoint.npz") as ckpt:
        assert {ckpt[k].dtype for k in ckpt.files if k.startswith("param/")} == {np.dtype(np.float32)}
    for checkpoint_of, dataset in (("karate", on_disk), (on_disk, "karate")):
        capsys.readouterr()
        out, trained = runs[checkpoint_of]
        assert run(["eval", "--dataset", dataset, "--checkpoint", str(out / "checkpoint.npz")]) == 0
        report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        if checkpoint_of == "karate":  # float64 parameters take every product in float64
            assert report["test_acc"] == trained["test_acc"]


def test_eval_checkpoint_of_another_feature_width_exit_3(tmp_path, capsys):
    from dataclasses import replace
    from dualgcn.data import builtin_karate

    out = tmp_path / "run"
    assert run(["train", "--dataset", "karate", "--out", str(out)] + FAST_TRAIN) == 0
    narrow = replace(builtin_karate(), x=np.eye(34)[:, :5])
    save_dataset(narrow, tmp_path / "narrow")
    capsys.readouterr()
    rc = run(["eval", "--dataset", str(tmp_path / "narrow"), "--checkpoint", str(out / "checkpoint.npz")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "data error" in err and "34" in err and "5" in err


def test_eval_checkpoint_without_graph_learner_on_graphless_data_exit_3(tmp_path, capsys):
    from dataclasses import replace
    from dualgcn.data import builtin_karate

    out = tmp_path / "run"
    assert run(["train", "--dataset", "karate", "--set", "learn_graph=false", "--out", str(out)] + FAST_TRAIN) == 0
    save_dataset(replace(builtin_karate(), graph=None), tmp_path / "graphless")
    capsys.readouterr()
    rc = run(["eval", "--dataset", str(tmp_path / "graphless"), "--checkpoint", str(out / "checkpoint.npz")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "data error" in err and "graph" in err


def _write_bad_checkpoint(path, case):
    """Write what case names at path; "missing" writes nothing."""
    from dualgcn.model import CHECKPOINT_FORMAT

    meta = {"format": CHECKPOINT_FORMAT, "share_weights": True, "layers": 2, "has_gl": False,
            "has_proj": False, "cfg": {}}
    if case == "not_npz":
        path.write_text("not an archive\n")
    elif case == "no_meta":
        np.savez(path, **{"param/W.0": np.zeros((34, 16))})
    elif case == "no_param":  # meta names W.0 and W.1; only W.0 is stored
        np.savez(path, meta=json.dumps(meta), **{"param/W.0": np.zeros((34, 16))})
    elif case == "list_meta":
        np.savez(path, meta=json.dumps([meta]))
    elif case == "npy":
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))


@pytest.mark.parametrize("case", ["missing", "not_npz", "no_meta", "no_param", "list_meta", "npy"])
def test_eval_unreadable_checkpoint_exit_3(tmp_path, capsys, case):
    path = tmp_path / "checkpoint.npz"
    _write_bad_checkpoint(path, case)
    rc = run(["eval", "--dataset", "karate", "--checkpoint", str(path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(path) in err


@pytest.mark.parametrize("name,value", [("W.1", np.zeros((5, 4))), ("gl.a", np.zeros(3)),
                                        ("gl.proj", np.zeros((34, 3)))])
def test_eval_checkpoint_whose_shapes_do_not_chain_exit_3(tmp_path, capsys, name, value):
    out = tmp_path / "run"
    assert run(["train", "--dataset", "karate", "--out", str(out)] + FAST_TRAIN) == 0
    with np.load(out / "checkpoint.npz") as ckpt:
        arrays = {k: ckpt[k] for k in ckpt.files}
    assert arrays[f"param/{name}"].shape != value.shape
    arrays[f"param/{name}"] = value
    path = tmp_path / "checkpoint.npz"
    np.savez(path, **arrays)
    capsys.readouterr()
    rc = run(["eval", "--dataset", "karate", "--checkpoint", str(path)])
    assert rc == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(path) in err and name in err


def test_eval_checkpoint_without_layers_exit_3(tmp_path, capsys):
    from dualgcn.model import CHECKPOINT_FORMAT

    path = tmp_path / "checkpoint.npz"
    meta = {"format": CHECKPOINT_FORMAT, "share_weights": True, "layers": 0, "has_gl": False,
            "has_proj": False, "cfg": {}}
    np.savez(path, meta=json.dumps(meta))
    assert run(["eval", "--dataset", "karate", "--checkpoint", str(path)]) == 3
    err = capsys.readouterr().err
    assert "data error" in err and str(path) in err


def _leak_first_parameter(monkeypatch, prefix):
    """Make gradcheck's loss read the first parameter of the group whose
    names start with prefix outside the tape, so finite differences see a
    slope the analytic gradient lacks."""
    check = cli.finite_diff_check

    def leaky_check(loss_fn, params, **kwargs):
        if params[0].name.startswith(prefix):
            def leaky_loss():
                t = loss_fn()
                return Tensor(t.value + 0.5 * float(params[0].value.ravel()[0]), (t,), lambda g: (g,))

            return check(leaky_loss, params, **kwargs)
        return check(loss_fn, params, **kwargs)

    monkeypatch.setattr(cli, "finite_diff_check", leaky_check)


def test_gradcheck_exit_codes(monkeypatch):
    assert run(["gradcheck", "--seed", "0"]) == 0
    with monkeypatch.context() as m:
        _leak_first_parameter(m, "W.")
        assert run(["gradcheck", "--seed", "0"]) == 5
    with monkeypatch.context() as m:
        _leak_first_parameter(m, "gl.")
        assert run(["gradcheck", "--seed", "0"]) == 5


def test_gradcheck_lambda2_zero_checks_learner(capsys):
    # without the graph-learning term the cross-entropy still trains the learner
    assert run(["gradcheck", "--seed", "1", "--set", "lambda2=0"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^graph-learner: max_rel_err=\S+ PASS$", out, re.M), out
    assert run(["gradcheck", "--seed", "1", "--set", "learn_graph=false"]) == 0
    out = capsys.readouterr().out
    assert "graph-learner: no-grad, skipped" in out
    assert re.search(r"^convolution: max_rel_err=\S+ PASS$", out, re.M), out


def test_gradcheck_fails_a_group_that_compared_no_entry(capsys):
    # at this rate and seed dropout zeroes every convolution gradient
    assert run(["gradcheck", "--seed", "0", "--set", "dropout=0.99"]) == 5
    out = capsys.readouterr().out
    assert re.search(r"^graph-learner: max_rel_err=\S+ PASS$", out, re.M), out
    assert re.search(r"^convolution: compared no entry FAIL$", out, re.M), out


def test_gradcheck_widens_the_hidden_layers_of_a_deeper_stack(capsys):
    # 4-wide hidden layers at this seed and depth compared no convolution entry
    assert run(["gradcheck", "--seed", "0", "--set", "depth=4"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^convolution: max_rel_err=\S+ PASS$", out, re.M), out


def test_gradcheck_refuses_the_widths_it_sets_itself(tmp_path, capsys):
    # it checks widths 4 (8 past depth 2) and 3 whatever is asked, so asking is refused
    assert run(["gradcheck", "--seed", "0", "--set", "hidden_gcn=16", "--set", "hidden_gl=9"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error" in captured.err and "hidden_gcn and hidden_gl" in captured.err
    cfg = tmp_path / "widths.cfg"
    cfg.write_text("hidden_gl = 9\n")
    assert run(["gradcheck", "--seed", "0", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "hidden_gl" in err and "hidden_gcn" not in err


@pytest.mark.parametrize("lambda1", ["0", "0.01"])
@pytest.mark.parametrize("supervise", ["a", "p", "both"])
def test_gradcheck_passes_for_every_supervised_branch(supervise, lambda1, capsys):
    # the objective fit trains: supervise=p with lambda1=0 still builds the PPMI branch
    assert run(["gradcheck", "--seed", "0", "--set", f"supervise={supervise}", "--set", f"lambda1={lambda1}"]) == 0
    out = capsys.readouterr().out
    for group in ("graph-learner", "convolution"):
        assert re.search(rf"^{group}: max_rel_err=\S+ PASS$", out, re.M), out


def test_ppmi_gamma_growth_improves_oracle_distance(tmp_path, karate):
    from dualgcn.ppmi import WalkConfig, frequency_matrix
    from dualgcn.rng import RngStream

    exact = exact_frequency_matrix(karate.graph.adj, q=3, w=3)
    exact_dist = exact / exact.sum()

    def deviation(gamma, seed):
        f = frequency_matrix(karate.graph.adj, WalkConfig(q=3, w=3, gamma_walks=gamma),
                             RngStream(seed, ("ppmi",))).toarray()
        return np.abs(f / f.sum() - exact_dist).max()

    for seed in (0, 1, 2):
        lo = deviation(20, seed)
        hi = deviation(200, seed)
        assert hi <= lo, (seed, lo, hi)


def test_partition_command(capsys):
    rc = run(["partition", "--dataset", "karate", "--c", "4", "--seed", "2"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["edge_cut"] < report["random_baseline_mean_cut"]


def test_partition_c_above_n_exit_2(capsys):
    rc = run(["partition", "--dataset", "karate", "--c", "35"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def test_partition_c1_zero_cut(capsys):
    rc = run(["partition", "--dataset", "karate", "--c", "1"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert report["edge_cut"] == 0


def test_commands_without_out_write_nothing_into_the_working_directory(tmp_path, monkeypatch):
    run_dir = tmp_path / "run"
    assert run(["train", "--dataset", "karate", "--out", str(run_dir)] + FAST_TRAIN) == 0
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert run(["partition", "--dataset", "karate", "--c", "4"]) == 0
    assert run(["gradcheck", "--seed", "0"]) == 0
    assert run(["eval", "--dataset", "karate", "--checkpoint", str(run_dir / "checkpoint.npz")]) == 0
    assert os.listdir(cwd) == []


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
