"""One workload process: set-up, timed rounds, checks, and the traced run.

run.py starts this file once per set-up probe (`--phase setup`) and once to
measure (`--phase measure`). BLAS and OpenMP are pinned to one thread here,
before numpy is first imported, because OpenBLAS reads them only at load.
The result goes to `--result` as JSON; stdout is free for capnet's own
output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYERS = ("autodiff", "models", "data", "oracle", "train", "evaluate", "cli")
AUDITS = ("evaluate.intermediate_mae", "evaluate.pseudo_report",
          "evaluate.permutation_sensitivity", "evaluate.rounded_accuracy")


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--phase", choices=("setup", "measure"), required=True)
    p.add_argument("--t0", type=float, required=True, help="time.monotonic() at spawn")
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out", default=None)
    return p.parse_args(argv)


def environment() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "pinned_threads": {v: os.environ.get(v) for v in PINNED},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; children counts the largest waited-for child
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def per_layer(tracer, setup_window, rounds, cpu_per_wall, overhead_pct) -> dict:
    """Per-layer metrics from the spans of the traced set-up and rounds.

    `rounds` holds (start, end, counts) of each traced round. Quantities
    "per round" are means over traced rounds; "per batch" ones are means
    over every call in them; set-up ones come from the set-up window.
    """
    import tracing

    spans = tracer.spans
    selfs = tracing.self_times(spans)
    setup = [s for s in spans if setup_window[0] <= s.start <= setup_window[1]]
    inside = [s for s in spans if any(a <= s.start <= b for a, b, _ in rounds)]
    k = len(rounds)

    def named(pool, name, keep=lambda s: True):
        return [s for s in pool if s.name == name and keep(s)]

    def per_round(name, keep=lambda s: True):
        return sum(s.seconds for s in named(inside, name, keep)) / k

    def calls(name):
        return len(named(inside, name)) / k

    def ms_each(name, keep=lambda s: True):
        got = named(inside, name, keep)
        return 1e3 * sum(s.seconds for s in got) / len(got) if got else 0.0

    def in_setup(name):
        return float(sum(s.seconds for s in named(setup, name)))

    def parent_is(name):
        return lambda s: s.parent is not None and s.parent.name == name

    train_batches = named(inside, "train.batch_loss", parent_is("train.train_run"))
    counted = {}
    for _, _, counts in rounds:
        for name, n in counts.items():
            counted[name] = counted.get(name, 0) + n / k
    audit_self = sum(selfs[id(s)] for s in inside
                     if s.layer == "evaluate" and any(s.under(a) for a in AUDITS))
    loop_self = sum(selfs[id(s)] for s in named(inside, "train.train_run"))

    out = {
        "autodiff.backward.ms_per_batch": ms_each("autodiff.backward"),
        "autodiff.adam_step.ms_per_batch": ms_each("autodiff.adam_step"),
        "autodiff.nodes_per_batch": (sum(s.tensors for s in train_batches) / len(train_batches)
                                     if train_batches else 0.0),
        "autodiff.save_checkpoint.s": per_round("autodiff.save_checkpoint"),
        "autodiff.load_checkpoint.s": per_round("autodiff.load_checkpoint"),
        "models.batch_forward.train_ms_per_batch":
            ms_each("models.batch_forward", parent_is("train.batch_loss")),
        "models.batch_forward.eval_ms_per_batch":
            ms_each("models.batch_forward", lambda s: not s.under("train.batch_loss")),
        "models.decode_state.calls": calls("models.decode_state"),
        "data.generate_dataset.s": in_setup("data.generate_dataset"),
        "data.save_dataset.s": in_setup("data.save_dataset"),
        "data.load_dataset.s": in_setup("data.load_dataset"),
        "data.build_pool.s": in_setup("data.build_pool"),
        "data.load_dataset.round_s": per_round("data.load_dataset"),
        "data.position_features.ms_per_batch":
            ms_each("data.position_features", parent_is("train.train_run")),
        "data.group_by_size.calls": calls("data.group_by_size"),
        "oracle.eval_task.calls": counted.get("oracle.eval_task", 0.0),
        "oracle.decompose.calls": calls("oracle.decompose"),
        "oracle.decompose.s": per_round("oracle.decompose"),
        "train.train_run.s": per_round("train.train_run"),
        "train.batch_loss.ms_per_batch": ms_each("train.batch_loss"),
        "train.loop_self_ms_per_batch": 1e3 * loop_self / len(train_batches) if train_batches else 0.0,
        "train.val_eval.s": per_round("evaluate.split_mse_and_penalty", parent_is("train.train_run")),
        "evaluate.split_mse_and_penalty.s":
            per_round("evaluate.split_mse_and_penalty", lambda s: not s.under("train.train_run")),
        "evaluate.intermediate_mae.s": per_round("evaluate.intermediate_mae"),
        "evaluate.pseudo_report.s": per_round("evaluate.pseudo_report"),
        "evaluate.permutation_sensitivity.s": per_round("evaluate.permutation_sensitivity"),
        "evaluate.rounded_accuracy.s": per_round("evaluate.rounded_accuracy"),
        "evaluate.audit_self_s": audit_self / k,
        "cli.generate.s": in_setup("cli.generate"),
        "cli.train.s": per_round("cli.train"),
        "cli.eval.s": per_round("cli.eval"),
        "cli.sweep.s": per_round("cli.sweep"),
        "cli.sweep.cpu_per_wall": cpu_per_wall,
        "trace.overhead_pct": overhead_pct,
    }
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(selfs[id(s)] for s in inside if s.layer == layer) / k
    return out


def measure(args, workload, tracer, setup_window) -> dict:
    from workloads import PHASES, Tally

    walls = {False: [], True: []}
    rates = {phase: [] for phase in PHASES}
    traced_rounds = []
    cpu_per_wall = []
    attempted = 0
    r = 0
    # whole rounds until the measured time is spent; a traced run alternates
    # untraced and traced rounds and always ends on a traced one
    while r == 0 or sum(walls[False]) + sum(walls[True]) < args.seconds or (args.trace and r % 2):
        traced = bool(args.trace) and r % 2 == 1
        tally = Tally()
        gc.collect()
        if traced:
            before = tracer.counts()
            tracer.install()
        start = time.perf_counter()
        outputs = workload.run_round(tally)
        end = time.perf_counter()
        if traced:
            tracer.uninstall()
            after = tracer.counts()
            traced_rounds.append((start, end, {n: after[n] - before.get(n, 0) for n in after}))
            cpu_per_wall.append(getattr(workload, "cpu_per_wall", 0.0))
        walls[traced].append(end - start)
        for phase, samples in tally.samples.items():
            rates[phase] += [s.bags / s.seconds for s in samples]
        attempted += tally.operations
        workload.check_round(outputs)
        outputs = None
        r += 1
    result = {"attempted": attempted, "rounds": r}
    if args.trace:
        plain, with_trace = statistics.median(walls[False]), statistics.median(walls[True])
        result["per_layer"] = per_layer(tracer, setup_window, traced_rounds,
                                        statistics.median(cpu_per_wall),
                                        100.0 * (with_trace - plain) / plain)
        if args.trace_out:
            tracer.write(args.trace_out, {"workload": args.workload, "seed": args.seed,
                                          "environment": environment(),
                                          "per_layer": result["per_layer"]})
    else:
        result["rates"] = {p: statistics.median(v) for p, v in rates.items()}
        result["samples"] = rates
    return result


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in PINNED:
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))

    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.work)
    os.makedirs(args.work, exist_ok=True)
    start = time.perf_counter()
    workload.write_inputs()
    inputs_s = time.perf_counter() - start
    tracer = tracing.Tracer() if args.trace and args.phase == "measure" else None
    if tracer:
        tracer.install()
    setup_start = time.perf_counter()
    workload.setup()
    setup_end = time.perf_counter()
    setup_s = time.monotonic() - args.t0 - inputs_s
    if tracer:
        tracer.uninstall()
    result = {"setup_s": setup_s, "environment": environment()}
    if args.phase == "measure":
        workload.check_setup()
        result.update(measure(args, workload, tracer, (setup_start, setup_end)))
        result["peak_rss_mb"] = peak_rss_mb()
    with open(args.result, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
