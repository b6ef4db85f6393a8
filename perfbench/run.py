"""Benchmark entry point: generate a workload's input, run it, check it.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cora-full --seed 1 --seconds 10 --trace 0

The input comes from the seeded generator in gen.py and is written in the
canonical dataset layout before anything is timed.  Each measured run is
a fresh interpreter (child.py), started one at a time with the BLAS
thread variables set before NumPy loads.  Untraced: runs repeat until
``--seconds`` have passed (at least the workload's minimum) and the
end-to-end metrics are their medians.  Traced: one run under the tracer,
then an untraced retrain in the same process; the per-layer metrics come
from the first and the tracing overhead from the difference.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record, with every
sample, the input facts and the machine facts, goes to
``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_TIMEOUT_S = 170
# One BLAS thread: the program is mostly single-threaded Python and SciPy
# sparse code, and on a small shared machine a second BLAS thread adds
# more run-to-run noise than speed.
BLAS_THREADS = 1

sys.path.insert(0, HERE)

from workloads import ALL, END_TO_END, LAYER_TO_END_TO_END, PER_LAYER  # noqa: E402


def blas_env(threads: int) -> dict:
    """The child's environment: BLAS reads these once, when NumPy loads."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def run_child(spec: dict, env: dict) -> dict:
    """One fresh interpreter; returns its record or the reason it failed."""
    spec = dict(spec, t_spawn=time.time())
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
                              env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": [f"run exceeded {CHILD_TIMEOUT_S} s"]}
    if proc.returncode != 0 or not os.path.isfile(spec["out"]):
        return {"problems": [f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    with open(spec["out"], encoding="utf-8") as fh:
        return json.load(fh)


def judge(records: list[dict]) -> int:
    """Mark each run whose history differs from the first finished run's; return failures."""
    digests = [r.get("history_digest") for r in records]
    first = next((d for d in digests if d is not None), None)
    for r, d in zip(records, digests):
        if d is not None and d != first:
            r["problems"].append("history differs from the first run with the same seed")
    return sum(1 for r in records if r["problems"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ALL))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dualgcn", "__init__.py")):
        print(f"no dualgcn sources under {ROOT}/src", file=sys.stderr)
        return 2
    w = ALL[args.workload]
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(ROOT, ".perfbench", "work", tag)
    results_dir = os.path.join(ROOT, ".perfbench", "results")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(results_dir, exist_ok=True)

    import gen

    data_dir = os.path.join(work, "data")
    inputs = gen.write_dataset(data_dir, *getattr(gen, w.generator)(args.seed, **w.shape))
    threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    env = blas_env(threads)
    spec = {"root": ROOT, "data_dir": data_dir, "workload": w.name, "seed": args.seed,
            "trace": bool(args.trace)}

    records = []
    start = time.perf_counter()
    least = 1 if args.trace else w.min_children
    while len(records) < least or (not args.trace and time.perf_counter() - start < args.seconds):
        spec["out"] = os.path.join(work, f"run{len(records)}.json")
        records.append(run_child(spec, env))
    failed = judge(records)
    ok = [r for r in records if not r["problems"]]

    metrics = {}
    if ok and args.trace:
        r = ok[0]
        layer = dict(r["layers"]["metrics"], **{"trace.overhead_s": r["train_s"] - r["refit_train_s"]})
        metrics = {k: {"value": layer[k], "unit": PER_LAYER[k][0]} for k in PER_LAYER}
    elif ok:
        metrics = {k: {"value": statistics.median(r[k] for r in ok), "unit": END_TO_END[k][0]}
                   for k in END_TO_END}
    correct = failed == 0 and bool(metrics)
    record = {
        "workload": w.name, "why": w.why, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "blas_threads": threads, "inputs": inputs,
        "correct": correct, "attempted": len(records), "failed": failed, "metrics": metrics,
        "runs": records, "layer_to_end_to_end": LAYER_TO_END_TO_END,
    }
    with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    shutil.rmtree(data_dir, ignore_errors=True)
    for r in records:
        for problem in r["problems"]:
            print(f"{w.name}: {problem}", file=sys.stderr)
    print(f"{w.name} seed={args.seed} trace={args.trace}: {len(records)} run(s), "
          f"{failed} failed, inputs {inputs}")
    if "machine" in records[0]:
        print(f"  machine {records[0]['machine']}")
    for k, m in metrics.items():
        print(f"  {k} = {m['value']} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
