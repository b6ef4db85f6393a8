"""Batch command line: train, eval, gradcheck, partition.

Config precedence is built-in defaults < per-dataset profile < config
file < command-line flags; unknown keys are hard errors and the fully
merged config is echoed into summary.json.  Exit codes: 0 success,
2 config error, 3 data error, 4 numeric failure, 5 gradcheck failure.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import fields
from typing import get_type_hints

import numpy as np

from .cluster import (
    PartitionConfig,
    cluster_fit,
    edge_cut_report,
    partition_graph,
    random_balanced_partition,
)
from .data import SplitSpec, resolve_dataset, with_split
from .errors import ConfigError, DataError, NumericError
from .graph import build_graph
from .model import (
    ModelConfig,
    accuracy,
    fit,
    format_history_row,
    HISTORY_COLUMNS,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
    _GraphContext,
    _TrainBatch,
    _batch_loss,
    _build_ppmi_operator,
)
from .optim import finite_diff_check
from .ppmi import WalkConfig
from .rng import RngStream
from .graphlearn import GlConfig

_EXIT_OK = 0
_EXIT_CONFIG = 2
_EXIT_DATA = 3
_EXIT_NUMERIC = 4
_EXIT_GRADCHECK = 5


def _parse_bool(s: str) -> bool:
    v = s.strip().lower()
    if v in ("1", "true", "yes", "on"):
        return True
    if v in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {s!r}")


def _parse_opt_int(s: str):
    return None if s.strip().lower() in ("none", "null") else int(s)


# config key -> (dataclass, field); ModelConfig's own scalar fields keep their names
_FIELDS = {
    **{f.name: (ModelConfig, f.name) for f in fields(ModelConfig) if f.name not in ("walk", "gl")},
    "walk_q": (WalkConfig, "q"),
    "walk_w": (WalkConfig, "w"),
    "walk_gamma": (WalkConfig, "gamma_walks"),
    "gl_gamma": (GlConfig, "gamma_reg"),
    "gl_beta": (GlConfig, "beta"),
    "split_per_class": (SplitSpec, "per_class_train"),
    "split_val": (SplitSpec, "val_size"),
    "split_test": (SplitSpec, "test_size"),
    "split_seed": (SplitSpec, "seed"),
    "cluster_c": (PartitionConfig, "c"),
    "cluster_q": (PartitionConfig, "q"),
    "cluster_balance": (PartitionConfig, "balance_tolerance"),
    "cluster_seed": (PartitionConfig, "seed"),
}

_TYPE_PARSERS = {int: int, float: float, str: str, bool: _parse_bool, int | None: _parse_opt_int}

_HINTS = {cls: get_type_hints(cls) for cls in (ModelConfig, WalkConfig, GlConfig, SplitSpec, PartitionConfig)}

_KEY_PARSERS = {
    **{key: _TYPE_PARSERS[_HINTS[cls][name]] for key, (cls, name) in _FIELDS.items()},
    "cluster_weighted": _parse_bool,
}

# unset unless given: a cluster run needs cluster_c, and cluster_seed falls back to seed
_UNSET = ("cluster_c", "cluster_q", "cluster_seed")

_DEFAULTS = {
    **{key: getattr(cls, name) for key, (cls, name) in _FIELDS.items() if key not in _UNSET},
    "cluster_weighted": True,
}

# dataset-specific defaults, applied on top of the globals above
_PROFILES = {
    "cora": {},
    "pubmed": {},
    "citeseer": {"hidden_gcn": 30, "lr2": 0.001},
    "karate": {
        "hidden_gl": None,
        "epochs": 500,
        "dropout": 0.1,
        "weight_decay": 5e-4,
        "lr2": 0.01,
        "lambda1": 1.0,
        "supervise": "both",
        "walk_q": 5,
        "walk_w": 5,
        "walk_gamma": 20,
        "ppmi_refresh": 10,
    },
}


def _parse_kv(token: str) -> tuple[str, str]:
    if "=" not in token:
        raise ConfigError(f"expected key=value, got {token!r}")
    k, v = token.split("=", 1)
    return k.strip(), v.strip()


def read_config_file(path) -> dict:
    """Flat "key = value" text; '#' comments and blank lines ignored."""
    raw = {}
    try:
        fh = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    with fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            k, v = line.split("=", 1)
            raw[k.strip()] = v.strip()
    return raw


def merge_config(dataset_name: str | None, file_cfg: dict, overrides: dict) -> dict:
    """Typed, validated merge; unknown keys are hard errors."""
    merged = dict(_DEFAULTS)
    if dataset_name in _PROFILES:
        merged.update(_PROFILES[dataset_name])
    for source in (file_cfg, overrides):
        for key, value in source.items():
            if key not in _KEY_PARSERS:
                raise ConfigError(f"unknown config key: {key!r}")
            try:
                merged[key] = _KEY_PARSERS[key](value) if isinstance(value, str) else value
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r}: {exc}") from exc
    return merged


def _from_merged(cls, merged: dict, **fallback):
    """cls built from the merged keys aliased to its fields; fallback fills absent ones."""
    given = {name: merged[key] for key, (owner, name) in _FIELDS.items() if owner is cls and key in merged}
    return cls(**{**fallback, **given})


def model_config_from(merged: dict) -> ModelConfig:
    return _from_merged(ModelConfig, merged,
                        walk=_from_merged(WalkConfig, merged),
                        gl=_from_merged(GlConfig, merged))


def _write_atomic(path, write):
    """write(fh) into a temp file beside path, rename it over path and return what write returned.

    A failed write leaves any earlier file at path intact.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            out = write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        return out
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def _write_summary(out_dir, summary: dict) -> None:
    path = os.path.join(out_dir, "summary.json")
    _write_atomic(path, lambda fh: fh.write((json.dumps(summary, sort_keys=True, indent=2) + "\n").encode()))


def _ensure_masks(bundle, merged: dict):
    if bundle.has_masks():
        return bundle
    return with_split(bundle, _from_merged(SplitSpec, merged))


def _config_sources(args) -> tuple[dict, dict]:
    """The --config file's keys, and the --set pairs with --seed applied on top."""
    file_cfg = read_config_file(args.config) if args.config else {}
    overrides = dict(_parse_kv(t) for t in args.set or [])
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
    return file_cfg, overrides


def cmd_train(args) -> int:
    t0 = time.time()
    file_cfg, overrides = _config_sources(args)
    overrides.update((f"cluster_{k}", v) for k, v in map(_parse_kv, args.cluster or []))
    dataset_name = args.dataset if args.dataset in _PROFILES else os.path.basename(os.path.normpath(args.dataset))
    merged = merge_config(dataset_name, file_cfg, overrides)
    use_cluster = args.cluster is not None or any(key.startswith("cluster_") for key in {**file_cfg, **overrides})
    if use_cluster and "cluster_c" not in merged:
        raise ConfigError("cluster training requires c (e.g. --cluster c=10 q=2)")
    bundle = resolve_dataset(args.dataset, args.data_dir)
    bundle = _ensure_masks(bundle, merged)
    cfg = model_config_from(merged)
    if use_cluster:
        part_cfg = _from_merged(PartitionConfig, merged, seed=merged["seed"])
        # echo the settings that took effect, q's default and seed's fallback included
        merged["cluster_q"], merged["cluster_seed"] = part_cfg.q, part_cfg.seed
    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    history_path = os.path.join(out_dir, "history.csv")
    checkpoint_path = os.path.join(out_dir, "checkpoint.npz")

    def fit_streaming(fh):
        fh.write((",".join(HISTORY_COLUMNS) + "\n").encode())

        def on_epoch(row):
            fh.write((format_history_row(row) + "\n").encode())
            fh.flush()

        if use_cluster:
            return cluster_fit(bundle, cfg, part_cfg, weighted_loss=merged["cluster_weighted"], on_epoch=on_epoch)
        return fit(bundle, cfg, on_epoch=on_epoch)

    result = _write_atomic(history_path, fit_streaming)

    pred = predict(result.params, bundle)
    test_acc = accuracy(pred, bundle.y, bundle.test_mask)
    _write_atomic(checkpoint_path, lambda fh: save_checkpoint(fh, result.params, cfg_echo=merged))
    final_loss = result.history[-1]["train_loss"] if result.history else float("nan")
    summary = {
        "command": "train",
        "dataset": bundle.name,
        "n": bundle.n,
        "classes": bundle.class_count,
        "seed": merged["seed"],
        "config": merged,
        "cluster_mode": use_cluster,
        "feature_dtype": result.params.w_a[0].value.dtype.name,  # the precision the fit trained in
        "best_val_acc": result.best_val_acc,
        "best_epoch": result.best_epoch,
        "test_acc": test_acc,
        "final_train_loss": final_loss,
        "epochs_run": result.epochs_run,
        "skipped_batches": result.skipped_batches,
        "artifacts": {"history": history_path, "checkpoint": checkpoint_path},
        "wall_time_sec": round(time.time() - t0, 3),
    }
    _write_summary(out_dir, summary)
    print(f"test_acc={test_acc:.4f} best_val_acc={result.best_val_acc:.4f} "
          f"best_epoch={result.best_epoch} epochs={result.epochs_run}")
    return _EXIT_OK


def cmd_eval(args) -> int:
    t0 = time.time()
    params, meta = load_checkpoint(args.checkpoint)
    # a dataset without a shipped split is split as it was for training
    trained = meta.get("cfg", {})
    merged = merge_config(None, {}, {k: v for k, v in trained.items() if k.startswith("split_")})
    bundle = resolve_dataset(args.dataset, args.data_dir)
    bundle = _ensure_masks(bundle, merged)
    pred = predict(params, bundle)
    out = {
        "command": "eval",
        "dataset": bundle.name,
        "checkpoint": args.checkpoint,
        "n": bundle.n,
        "classes": bundle.class_count,
        "train_acc": accuracy(pred, bundle.y, bundle.train_mask),
        "val_acc": accuracy(pred, bundle.y, bundle.val_mask),
        "test_acc": accuracy(pred, bundle.y, bundle.test_mask),
        "wall_time_sec": round(time.time() - t0, 3),
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_summary(args.out, out)
    print(json.dumps(out, sort_keys=True))
    return _EXIT_OK


def _gradcheck_instance(seed: int):
    """Small deterministic instance: 8 nodes, 5 features, 3 classes."""
    rng = RngStream(seed, ("gradcheck",))
    n, p, k = 8, 5, 3
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = [pairs[i] for i in np.flatnonzero(rng.child("edges").random(len(pairs)) < 0.45)]
    chosen += [(i, (i + 1) % n) for i in range(n)]  # ring keeps it connected
    g = build_graph(sorted(set(chosen)), n)
    x = rng.child("features").random((n, p))
    y = rng.child("labels").integers(0, k, n).astype(np.int64)
    train_idx = np.arange(0, n, 2)
    return g, x, y, train_idx


def cmd_gradcheck(args) -> int:
    file_cfg, overrides = _config_sources(args)
    widths = sorted({"hidden_gcn", "hidden_gl"}.intersection({**file_cfg, **overrides}))
    if widths:
        raise ConfigError(f"gradcheck sets the hidden widths itself; drop {' and '.join(widths)}")
    merged = merge_config(None, file_cfg, overrides)
    # dropout can zero every gradient through 4-wide hidden layers stacked deeper
    merged.update({"hidden_gcn": 4 if merged["depth"] <= 2 else 8, "hidden_gl": 3})
    cfg = model_config_from(merged)
    g, x, y, train_idx = _gradcheck_instance(merged["seed"])
    rng = RngStream(merged["seed"])
    params = init_params(x.shape[1], 3, cfg, rng)
    if params.gl is not None:
        # a random scorer can land every pair below the ReLU hinge, which
        # zeroes the learner gradients; shift into the active region so the
        # group is genuinely exercised
        params.gl.a.value[...] = np.abs(params.gl.a.value) + 0.05
    batch = _TrainBatch(_GraphContext(x, g, cfg), y, train_idx, 1.0, None)
    s0 = batch.ctx.build_affinity(params, cfg)
    p_op = _build_ppmi_operator(s0, cfg.walk, rng.child("ppmi", 0)) if cfg.needs_ppmi else None

    def loss_fn():  # epoch 0's training loss, whose dropout masks the seed fixes
        s = batch.ctx.build_affinity(params, cfg)
        return _batch_loss(batch, s, p_op, params, cfg, rng, 0)[0]

    groups = {"graph-learner": params.gl_parameters(), "convolution": params.conv_parameters()}
    all_ok = True
    for name, group in groups.items():
        if not group:
            print(f"{name}: no-grad, skipped")
            continue
        report = finite_diff_check(loss_fn, group, h=1e-5, tolerance=1e-4)
        if not any(entry["compared"] for entry in report.values()):
            print(f"{name}: compared no entry FAIL")
            all_ok = False
            continue
        worst = max(entry["max_rel_err"] for entry in report.values())
        passed = all(entry["passed"] for entry in report.values())
        print(f"{name}: max_rel_err={worst:.3e} {'PASS' if passed else 'FAIL'}")
        all_ok &= passed
    return _EXIT_OK if all_ok else _EXIT_GRADCHECK


def cmd_partition(args) -> int:
    bundle = resolve_dataset(args.dataset, args.data_dir)
    part_cfg = PartitionConfig(c=args.c, q=1, seed=args.seed,
                               balance_tolerance=args.balance)
    t0 = time.perf_counter()
    part = partition_graph(bundle.graph, part_cfg)
    partition_s = time.perf_counter() - t0
    report = edge_cut_report(part)
    baseline_rng = RngStream(args.seed, ("partition-baseline",))
    cuts = [random_balanced_partition(bundle.graph, args.c, baseline_rng.child(i)).edge_cut
            for i in range(20)]
    report["random_baseline_mean_cut"] = float(np.mean(cuts))
    report["n"] = bundle.n
    report["c"] = args.c
    report["seed"] = args.seed
    report["partition_s"] = partition_s
    print(json.dumps(report, sort_keys=True))
    return _EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dualgcn",
                                     description="dual-branch graph convolution trainer")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--dataset", required=True, help="builtin name, directory, or name under GLDGCN_DATA_DIR")
        p.add_argument("--data-dir", default=None, help="dataset root (overrides GLDGCN_DATA_DIR)")

    p_train = sub.add_parser("train", help="train a model and write artifacts")
    add_common(p_train)
    p_train.add_argument("--config", default=None, help="flat key = value config file")
    p_train.add_argument("--set", action="append", metavar="KEY=VALUE", help="config override")
    p_train.add_argument("--cluster", nargs="+", metavar="KEY=VALUE",
                         help="cluster-training options, e.g. c=10 q=2")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", default=None, help="artifact directory (default: cwd)")
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="score a checkpoint on a dataset")
    add_common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of epoch 0's training-loss gradients, "
                                                "dropout included (learn_graph=false: convolution group alone)")
    p_grad.add_argument("--config", default=None)
    p_grad.add_argument("--set", action="append", metavar="KEY=VALUE")
    p_grad.add_argument("--seed", type=int, default=None)
    p_grad.set_defaults(func=cmd_gradcheck)

    p_part = sub.add_parser("partition", help="partition a dataset graph and report the cut")
    add_common(p_part)
    p_part.add_argument("--c", type=int, required=True)
    p_part.add_argument("--seed", type=int, default=PartitionConfig.seed)
    p_part.add_argument("--balance", type=float, default=PartitionConfig.balance_tolerance)
    p_part.set_defaults(func=cmd_partition)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return _EXIT_DATA
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
