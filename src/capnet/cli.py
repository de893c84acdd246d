"""Command line entry point.

Subcommands: generate | train | eval | sweep | report. Anything that affects
numbers lives in a JSON config file; flags only select paths, parallelism,
and which metrics to emit. Exit codes: 0 success, 2 usage or validation
error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import os
import sys
from dataclasses import replace

from . import __version__, data, evaluate, fileio, models, train


class UsageError(ValueError):
    pass


def _load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        raise UsageError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config file {path} is not valid JSON: {exc}")


_POOL_ENTRY = fileio.obj({"images": fileio.STR, "labels": fileio.STR,
                          "offset": fileio.optional(fileio.COUNT),
                          "count": fileio.optional(fileio.COUNT)})
_DATASET_SCHEMA = {**data.SPEC_SCHEMA, "pools": fileio.optional(data.per_split(_POOL_ENTRY))}


def _load_pools(entries: dict) -> dict:
    """Build the pools a checked dataset config's `pools` entry names."""
    return {split: data.build_pool(
        data.resolve_path(entry["images"]), data.resolve_path(entry["labels"]),
        split, offset=entry.get("offset", 0), count=entry.get("count"))
        for split, entry in entries.items()}


def cmd_generate(args) -> int:
    config = fileio.check_fields(_load_json(args.config), _DATASET_SCHEMA, args.config)
    spec = data.DatasetSpec.from_json(config)
    pools = _load_pools(config.get("pools", {})) if spec.mode == "image" else None
    ds = data.generate_dataset(spec, pools=pools)
    manifest = data.save_dataset(ds, args.out)
    print(f"wrote dataset to {args.out}")
    for split in data.SPLITS:
        stats = data.label_stats(ds.splits[split])
        print(f"  {split}: {stats['count']} bags, label mean {stats['mean']:.2f}, "
              f"stdev {stats['stdev']:.2f}")
    print(f"  checksums: {', '.join(manifest['checksums'][s][:12] for s in data.SPLITS)}")
    return 0


def _run_config(path, seed_override=None) -> train.RunConfig:
    cfg = train.RunConfig.from_json(_load_json(path), path)
    if seed_override is not None:
        cfg = replace(cfg, seed=seed_override)
    if cfg.reg_lambda > 0 and not cfg.model.capacity:
        raise UsageError("reg_lambda > 0 requires a capacity model; "
                         "baselines have no intermediate values to penalize")
    dataset_dir = data.resolve_path(cfg.dataset)
    if not os.path.exists(os.path.join(dataset_dir, "manifest.json")):
        raise UsageError(f"dataset not found at {dataset_dir}")
    return cfg


def _write_experiment_manifest(out_dir, cfg: train.RunConfig, seeds, outputs):
    ds_manifest = os.path.join(data.resolve_path(cfg.dataset), "manifest.json")
    manifest = {
        "tool_version": __version__,
        "config_hash": cfg.config_hash(),
        "config": cfg.to_json(),
        "seeds": list(seeds),
        "dataset_manifest": ds_manifest,
        "outputs": sorted(outputs),
    }
    fileio.write_files({os.path.join(out_dir, "experiment.json"): fileio.json_bytes(manifest)})


def cmd_train(args) -> int:
    cfg = _run_config(args.config, args.seed)
    result = train.train_run(cfg, out_dir=args.out)
    _write_experiment_manifest(args.out, cfg, [cfg.seed],
                               ["metrics.csv", "timing.csv", "checkpoint.capn", "checkpoint.json"])
    print(f"final val mse {result.final_val_mse:.6f} "
          f"(penalty {result.final_val_penalty:.6f}) after {cfg.epochs} epochs")
    return 0


_METRICS = ("mse", "intermediates", "permsens", "accuracy")


def cmd_eval(args) -> int:
    """Score a checkpoint on `--split` with the requested metrics. It reads
    that split's file and pool only, plus a split whose pool window overlaps
    it, for the purity check; a damaged file of another split does not stop
    it."""
    metrics = [m.strip() for m in (args.metric or "").split(",") if m.strip()]
    if not metrics:
        raise UsageError(f"no metrics requested; choose from {', '.join(_METRICS)}")
    for m in metrics:
        if m not in _METRICS:
            raise UsageError(f"unknown metric {m!r}; choose from {', '.join(_METRICS)}")
    try:
        params = train.load_params(args.checkpoint)
    except FileNotFoundError as exc:
        raise UsageError(f"checkpoint not readable: {exc}")
    ds = data.load_dataset(data.resolve_path(args.dataset), splits=(args.split,))
    if params.spec.input_dim != ds.feature_dim():
        raise UsageError(f"checkpoint expects {params.spec.input_dim}-dim features "
                         f"but dataset provides {ds.feature_dim()}-dim")
    os.makedirs(args.out, exist_ok=True)
    split = args.split

    if "mse" in metrics:
        rows = [(s, evaluate.evaluate_mse(params, ds, s)) for s in (split,)]
        _write_csv(os.path.join(args.out, "mse.csv"), ["split", "mse"],
                   [[s, repr(v)] for s, v in rows])
        for s, v in rows:
            print(f"mse[{s}] = {v:.6f}")

    if "intermediates" in metrics:
        if params.spec.capacity:
            report = evaluate.intermediate_mae(params, ds, split)
        else:
            report = evaluate.pseudo_report(params, ds, split)
        out_path = os.path.join(args.out, "intermediates.jsonl")
        evaluate.write_intermediate_jsonl(out_path, report)
        _write_csv(os.path.join(args.out, "intermediates.csv"),
                   ["kind", "split", "mae"], [[report.kind, split, repr(report.mae)]])
        print(f"{report.kind} intermediate mae[{split}] = {report.mae:.6f}")

    if "permsens" in metrics:
        sens = evaluate.permutation_sensitivity(params, ds, split, k=args.k, seed=args.seed or 0)
        rows = [[i, repr(v)] for i, v in enumerate(sens["mse"])]
        rows.append(["mean", repr(sens["mean"])])
        rows.append(["median", repr(sens["median"])])
        rows.append(["stdev", repr(sens["stdev"])])
        rows.append(["spread", repr(sens["spread"])])
        _write_csv(os.path.join(args.out, "permsens.csv"), ["pass", "mse"], rows)
        print(f"permutation sensitivity[{split}]: mean {sens['mean']:.6f}, "
              f"spread {sens['spread']:.3g} over {args.k} passes")

    if "accuracy" in metrics:
        acc = evaluate.rounded_accuracy(params, ds, split)
        _write_csv(os.path.join(args.out, "accuracy.csv"), ["split", "accuracy"],
                   [[split, repr(acc)]])
        print(f"rounded accuracy[{split}] = {acc:.4f}")
    return 0


def _write_csv(path, header, rows):
    fileio.write_files({path: fileio.csv_bytes([header] + rows)})


def _family_spec(label: str, base: dict) -> models.ModelSpec:
    label = label.lower()
    capacity = label.startswith("c-")
    family = label[2:] if capacity else label
    return models.ModelSpec(family=family, capacity=capacity, **base)


# a sweep's `train` and `model` sections set every field of its runs but the
# ones that the sweep itself varies or names
_SWEEP_SCHEMA = {
    "dataset": fileio.STR, "families": fileio.STRS, "seeds": fileio.INTS,
    "train_sizes": fileio.optional(fileio.INTS),
    "train": fileio.optional(fileio.obj({k: v for k, v in train.RUN_SCHEMA.items()
                                         if k not in ("dataset", "model")})),
    "model": fileio.optional(fileio.obj({k: v for k, v in models.MODEL_SCHEMA.items()
                                         if k not in ("family", "capacity")})),
}


def cmd_sweep(args) -> int:
    config = fileio.check_fields(_load_json(args.config), _SWEEP_SCHEMA, args.config)
    base_train = config.get("train", {})
    base_model = config.get("model", {})
    seeds = config["seeds"]
    train_sizes = config.get("train_sizes")

    ds_path = data.resolve_path(config["dataset"])
    if not os.path.exists(os.path.join(ds_path, "manifest.json")):
        raise UsageError(f"dataset not found at {ds_path}")
    full = data.load_dataset(ds_path)

    cells = []
    for size in (train_sizes or [None]):
        if size is None:
            ds = full
        elif size > len(full.splits["train"]):
            raise UsageError(f"train size {size} exceeds dataset train split "
                             f"{len(full.splits['train'])}")
        else:
            ds = data.Dataset(full.spec, full.task,
                              {"train": full.splits["train"][:size],
                               "val": full.splits["val"], "test": full.splits["test"]},
                              pools=full.pools, manifest=full.manifest)
        for label in config["families"]:
            spec = _family_spec(label, base_model)
            lam = base_train.get("reg_lambda", 0.0)
            if lam > 0 and not spec.capacity:
                raise UsageError("reg_lambda > 0 requires capacity models in the sweep")
            cfg = train.RunConfig(dataset=config["dataset"], model=spec, **base_train)
            cells.append({"label": label.lower(), "size": size or len(full.splits["train"]),
                          "config": cfg, "dataset": ds})

    jobs = max(1, args.jobs)
    if jobs == 1:
        results = [train.multi_seed(c["config"], seeds, dataset=c["dataset"]) for c in cells]
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(train.multi_seed, c["config"], seeds, dataset=c["dataset"])
                       for c in cells]
            results = [f.result() for f in futures]

    os.makedirs(args.out, exist_ok=True)
    header = ["family", "train_size", "seeds",
              "val_mse_mean", "val_mse_median", "val_mse_stdev",
              "test_mse_mean", "test_mse_median", "test_mse_stdev", "delta_median"]
    by_key = {}
    for cell, agg in zip(cells, results):
        by_key[(cell["label"], cell["size"])] = agg
    rows = []
    for cell, agg in zip(cells, results):
        label = cell["label"]
        # capacity-minus-baseline gap on test medians, when both cells exist
        delta = ""
        if label.startswith("c-"):
            base = by_key.get((label[2:], cell["size"]))
            if base is not None:
                delta = repr(agg["test_mse"]["median"] - base["test_mse"]["median"])
        rows.append([label, cell["size"], ";".join(str(s) for s in seeds),
                     repr(agg["val_mse"]["mean"]), repr(agg["val_mse"]["median"]),
                     repr(agg["val_mse"]["stdev"]),
                     repr(agg["test_mse"]["mean"]), repr(agg["test_mse"]["median"]),
                     repr(agg["test_mse"]["stdev"]), delta])
    _write_csv(os.path.join(args.out, "sweep.csv"), header, rows)
    for row in rows:
        gap = f", delta {float(row[9]):+.4f}" if row[9] else ""
        print(f"{row[0]:<10} n={row[1]:<7} test mse median {float(row[7]):.4f}{gap}")
    return 0


def cmd_report(args) -> int:
    path = args.path
    if not os.path.exists(path):
        raise UsageError(f"no such file: {path}")
    with open(path, newline="") as f:
        reader = csv.reader(f)
        table = list(reader)
    if not table:
        raise UsageError(f"{path} is empty")
    widths = [max(len(row[i]) if i < len(row) else 0 for row in table)
              for i in range(len(table[0]))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capnet",
        description="Set-regression experiments: exact per-instance value decompositions "
                    "and the networks that learn them.")
    parser.add_argument("--version", action="version", version=f"capnet {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate an oracle-labelled dataset")
    p.add_argument("--config", required=True, help="dataset spec JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train one model from a run config")
    p.add_argument("--config", required=True, help="run config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--metric", default="mse",
                   help=f"comma-separated list from: {','.join(_METRICS)}")
    p.add_argument("--split", default="test", choices=data.SPLITS)
    p.add_argument("--k", type=int, default=5, help="permutation passes for permsens")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="train a families x seeds (x sizes) grid")
    p.add_argument("--config", required=True, help="sweep matrix JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=1, help="concurrent sweep cells")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("report", help="pretty-print an emitted CSV")
    p.add_argument("--path", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, IsADirectoryError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except train.TrainingDiverged as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - last-resort runtime failure
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
