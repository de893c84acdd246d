"""Benchmark command for capnet: one workload, set-up probes plus one measured run.

    python3 capnet_bench/run.py --workload desk-train --seed 1 --seconds 12 --trace 0

Each workload runs in fresh processes of child.py with BLAS pinned to one
thread. `--trace 0` reports the end-to-end metrics: set-up time is the
median over SETUP_PROBES extra processes that only set up, plus the measured
one. `--trace 1` skips the probes and reports the per-layer metrics of a run
whose rounds alternate untraced and traced. Every metric is printed as
"name value unit"; the last stdout line is the JSON result. A failed check
or a missing program exits non-zero without a result.

    python3 capnet_bench/run.py --write-benchmark-json

rewrites BENCHMARK.json at the repository root from the declarations below.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

from child import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".capnet_bench_out")
RUN_SECONDS = 12
SETUP_PROBES = 2
# a run must end within 180 s; leave room for start-up and clean-up
DEADLINE_S = 170.0

WORKLOADS = {
    "desk-train": "US bags of 5 at the acceptance shape; autodiff-bound training of C-GRU and GRU",
    "interpret-long": "WTri bags of 10-40; deep recurrences and a long audit with the O(n^2) oracle decomposition",
    "image-sweep": "whole CLI on 784-pixel IDX pools; BLAS, IDX parsing, checkpoints, sweep --jobs 2",
}

# name: (unit, better, bound)
# Rates get the widest bound allowed: on a shared 2-core host the same run
# drifts by more than that over tens of minutes, so a tighter bound would
# measure the host. Peak memory varies a little with the seed's bag-size mix
# and allocator reuse.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "train_bags_per_s": ("bags/s", "higher", 0.25),
    "eval_bags_per_s": ("bags/s", "higher", 0.25),
    "audit_bags_per_s": ("bags/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.2),
}

# name: (unit, better); 0 where a workload never calls the function
PER_LAYER = {
    "autodiff.backward.ms_per_batch": ("ms", "lower"),
    "autodiff.adam_step.ms_per_batch": ("ms", "lower"),
    "autodiff.nodes_per_batch": ("count", "lower"),
    "autodiff.save_checkpoint.s": ("s", "lower"),
    "autodiff.load_checkpoint.s": ("s", "lower"),
    "models.batch_forward.train_ms_per_batch": ("ms", "lower"),
    "models.batch_forward.eval_ms_per_batch": ("ms", "lower"),
    "models.decode_state.calls": ("count", "lower"),
    "data.generate_dataset.s": ("s", "lower"),
    "data.save_dataset.s": ("s", "lower"),
    "data.load_dataset.s": ("s", "lower"),
    "data.build_pool.s": ("s", "lower"),
    "data.load_dataset.round_s": ("s", "lower"),
    "data.position_features.ms_per_batch": ("ms", "lower"),
    "data.group_by_size.calls": ("count", "lower"),
    "oracle.eval_task.calls": ("count", "lower"),
    "oracle.decompose.calls": ("count", "lower"),
    "oracle.decompose.s": ("s", "lower"),
    "train.train_run.s": ("s", "lower"),
    "train.batch_loss.ms_per_batch": ("ms", "lower"),
    "train.loop_self_ms_per_batch": ("ms", "lower"),
    "train.val_eval.s": ("s", "lower"),
    "evaluate.split_mse_and_penalty.s": ("s", "lower"),
    "evaluate.intermediate_mae.s": ("s", "lower"),
    "evaluate.pseudo_report.s": ("s", "lower"),
    "evaluate.permutation_sensitivity.s": ("s", "lower"),
    "evaluate.rounded_accuracy.s": ("s", "lower"),
    "evaluate.audit_self_s": ("s", "lower"),
    "cli.generate.s": ("s", "lower"),
    "cli.train.s": ("s", "lower"),
    "cli.eval.s": ("s", "lower"),
    "cli.sweep.s": ("s", "lower"),
    "cli.sweep.cpu_per_wall": ("s/s", "higher"),
    **{f"layer.{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "trace.overhead_pct": ("%", "lower"),
}


def benchmark_json() -> dict:
    return {
        "command": ["python3", "capnet_bench/run.py"],
        "paths": ["capnet_bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, (u, b) in PER_LAYER.items()],
    }


def spawn(args, phase: str, name: str, work: str, deadline: float, trace_out=None) -> dict:
    """Run one child process to completion and return its result."""
    result_path = os.path.join(work, f"{name}-result.json")
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--phase", phase, "--work", os.path.join(work, name),
           "--result", result_path, "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RuntimeError("out of time before the measured run")
    cmd += ["--t0", repr(time.monotonic())]
    # capnet prints progress on stdout; keep ours for the result
    proc = subprocess.run(cmd, stdout=sys.stderr, timeout=remaining, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{phase} process exited {proc.returncode}")
    with open(result_path) as f:
        return json.load(f)


def run(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT_DIR, exist_ok=True)
    work = os.path.join(OUT_DIR, f"work-{args.workload}-{os.getpid()}")
    try:
        if args.trace:
            trace_out = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.jsonl")
            measured = spawn(args, "measure", "measure", work, deadline, trace_out)
            metrics = measured["per_layer"]
            declared = PER_LAYER
            print(f"spans written to {os.path.relpath(trace_out, ROOT)}", file=sys.stderr)
        else:
            setups = [spawn(args, "setup", f"probe{i}", work, deadline)["setup_s"]
                      for i in range(SETUP_PROBES)]
            measured = spawn(args, "measure", "measure", work, deadline)
            setups.append(measured["setup_s"])
            rates = measured["rates"]
            for phase, samples in measured["samples"].items():
                print(f"{phase} bags/s per sample: " + " ".join(f"{v:.1f}" for v in samples),
                      file=sys.stderr)
            metrics = {
                "setup_s": statistics.median(setups),
                "train_bags_per_s": rates["train"],
                "eval_bags_per_s": rates["eval"],
                "audit_bags_per_s": rates["audit"],
                "peak_rss_mb": measured["peak_rss_mb"],
            }
            declared = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if set(metrics) != set(declared):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(declared))} do not match the declaration")
    print(f"environment {json.dumps(measured['environment'], sort_keys=True)}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed}: {measured['rounds']} rounds, "
          f"{measured['attempted']} operations")
    for name in declared:
        print(f"{name} {metrics[name]!r} {declared[name][0]}")
    return {
        "correct": True,
        "attempted": measured["attempted"],
        "failed": 0,
        "metrics": {n: {"value": metrics[n], "unit": declared[n][0]} for n in declared},
    }


def main(argv=None) -> int:
    # turn SIGTERM into SystemExit so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=RUN_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--write-benchmark-json", action="store_true")
    args = p.parse_args(argv)
    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(benchmark_json(), f, indent=2)
            f.write("\n")
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "capnet", "__init__.py")):
        print(f"error: no capnet sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
