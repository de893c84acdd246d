"""Deterministic training: shuffled mini-batches, Adam, optional penalty on
oversized intermediate values, CSV metrics logging.

Everything that affects numbers flows from (config, seed): batch order,
per-epoch instance permutations, and parameter initialization all use
seeded generator streams, so a rerun reproduces the metrics history
bit for bit. Wall-clock timings are kept out of metrics.csv for that
reason; they go to a separate timing.csv.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import data, evaluate, fileio, models


@dataclass(frozen=True)
class RunConfig:
    dataset: str
    model: models.ModelSpec
    lr: float = 0.001
    batch_size: int = 1000
    epochs: int = 50
    seed: int = 0
    reg_lambda: float = 0.0
    reg_threshold: float = 1.0
    shuffle_instances_per_epoch: bool = True

    def __post_init__(self):
        if self.reg_lambda < 0:
            raise ValueError("reg_lambda must be >= 0")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")

    def to_json(self) -> dict:
        obj = {
            "dataset": self.dataset, "model": self.model.to_json(), "lr": self.lr,
            "batch_size": self.batch_size, "epochs": self.epochs, "seed": self.seed,
            "reg_lambda": self.reg_lambda, "reg_threshold": self.reg_threshold,
            "shuffle_instances_per_epoch": self.shuffle_instances_per_epoch,
        }
        return obj

    @classmethod
    def from_json(cls, obj, where: str = "run config") -> "RunConfig":
        """The config a `to_json` object describes; a field that is missing,
        unknown or of the wrong kind raises ValueError naming `where`."""
        fileio.check_fields(obj, RUN_SCHEMA, where)
        return cls(**{**obj, "model": models.ModelSpec(**obj["model"])})

    def config_hash(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


RUN_SCHEMA = fileio.spec_schema(RunConfig, model=fileio.obj(models.MODEL_SCHEMA))


@dataclass
class MetricsRecord:
    epoch: int
    split: str
    mse: float
    penalty: float
    seconds: float


class TrainingDiverged(RuntimeError):
    pass


def batch_loss(params, feats, labels: np.ndarray, reg_lambda: float, reg_threshold: float):
    """Differentiable mean loss over a batch of same-size bags.

    Returns (loss tensor, mse value, penalty value); loss equals
    mse + reg_lambda * penalty in exact float arithmetic.
    """
    out = models.batch_forward(params, feats)
    mse = ad.mse_loss(out.prediction, labels)
    if reg_lambda > 0 and out.intermediates:
        pen = None
        for v in out.intermediates:
            h = ad.relu(v - reg_threshold)
            sq = h * h
            pen = sq if pen is None else pen + sq
        pen_mean = ad.reduce_sum(pen) * (1.0 / labels.size)
        loss = mse + reg_lambda * pen_mean
        return loss, float(mse.data), float(pen_mean.data)
    return mse, float(mse.data), 0.0


def _epoch_batches(groups: dict, noise: np.ndarray, config: RunConfig, epoch: int) -> list:
    """Assemble this epoch's mini-batches: shuffled bag order, freshly
    permuted instance order per bag, same-size bags per batch."""
    rng = np.random.default_rng(np.random.SeedSequence((config.seed, 7, epoch)))
    batches = []
    for n, (idx, classes, img_idx, labels) in groups.items():
        order = rng.permutation(len(idx))
        classes_e = classes[order]
        img_e = img_idx[order]
        labels_e = labels[order]
        noise_e = noise[idx[order]][:, :n, :] if noise is not None else None
        if config.shuffle_instances_per_epoch and n > 1:
            classes_e, img_e, noise_e = data.permute_instances(rng, classes_e, img_e, noise_e)
        for s in range(0, len(idx), config.batch_size):
            sl = slice(s, s + config.batch_size)
            batches.append((classes_e[sl], img_e[sl], labels_e[sl],
                            noise_e[sl] if noise_e is not None else None))
    order = rng.permutation(len(batches))
    return [batches[i] for i in order]


@dataclass
class TrainResult:
    config: RunConfig
    history: list
    params: ad.ParamStore
    final_val_mse: float
    final_val_penalty: float
    out_dir: str = None


def train_run(config: RunConfig, out_dir=None, dataset: data.Dataset = None) -> TrainResult:
    """Train one model; optionally write metrics.csv, timing.csv, checkpoint.

    Without a `dataset`, it loads `config.dataset`'s train and val splits
    only. Aborts with TrainingDiverged naming the offending batch if the loss
    goes non-finite.
    """
    ds = dataset if dataset is not None else data.load_dataset(
        data.resolve_path(config.dataset), splits=("train", "val"))
    train_bags = ds.splits["train"]
    if config.batch_size > len(train_bags):
        raise ValueError(f"batch_size {config.batch_size} exceeds train set size {len(train_bags)}")

    spec = replace(config.model, input_dim=ds.feature_dim())
    params = models.init_model(spec, config.seed)
    opt = ad.Adam(params, lr=config.lr)

    groups = data.group_by_size(train_bags)
    noise = data.split_noise(ds, "train")
    pool = ds.pools["train"] if ds.pools else None
    lam, tau = config.reg_lambda, config.reg_threshold

    history = []
    for epoch in range(1, config.epochs + 1):
        t0 = time.perf_counter()
        mse_sum = 0.0
        pen_sum = 0.0
        seen = 0
        for batch_id, (classes, img_idx, labels, bnoise) in enumerate(
                _epoch_batches(groups, noise, config, epoch)):
            feats = data.position_features(classes, img_idx, ds.spec.mode, pool, bnoise)
            loss, mse, pen = batch_loss(params, feats, labels, lam, tau)
            if not np.isfinite(loss.data):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch} batch {batch_id}")
            params.zero_grad()
            loss.backward()
            opt.step()
            b = labels.size
            mse_sum += mse * b
            pen_sum += pen * b
            seen += b
        train_seconds = time.perf_counter() - t0

        t0 = time.perf_counter()
        val_mse, val_pen = evaluate.split_mse_and_penalty(params, ds, "val", lam, tau)
        val_seconds = time.perf_counter() - t0
        history.append(MetricsRecord(epoch, "train", mse_sum / seen, pen_sum / seen, train_seconds))
        history.append(MetricsRecord(epoch, "val", val_mse, val_pen, val_seconds))

    if history:
        final_mse, final_pen = history[-1].mse, history[-1].penalty
    else:
        final_mse, final_pen = evaluate.split_mse_and_penalty(params, ds, "val", lam, tau)
    result = TrainResult(config, history, params,
                         final_val_mse=final_mse, final_val_penalty=final_pen,
                         out_dir=out_dir)
    if out_dir is not None:
        write_outputs(result)
    return result


def write_outputs(result: TrainResult):
    """Write metrics.csv, timing.csv and checkpoint.capn/.json to the run's
    directory; all four are written in full before any is renamed into place."""
    out_dir = result.out_dir
    os.makedirs(out_dir, exist_ok=True)
    history = result.history
    metrics = [["epoch", "split", "mse", "penalty"]] + [
        [rec.epoch, rec.split, repr(rec.mse), repr(rec.penalty)] for rec in history]
    timing = [["epoch", "split", "seconds"]] + [
        [rec.epoch, rec.split, f"{rec.seconds:.6f}"] for rec in history]
    meta = {
        "model": result.params.spec.to_json(),
        "dataset": result.config.dataset,
        "seed": result.config.seed,
        "config_hash": result.config.config_hash(),
    }
    ad.save_checkpoint(os.path.join(out_dir, "checkpoint.capn"), result.params.state_dict(),
                       sidecars={
                           os.path.join(out_dir, "metrics.csv"): fileio.csv_bytes(metrics),
                           os.path.join(out_dir, "timing.csv"): fileio.csv_bytes(timing),
                           os.path.join(out_dir, "checkpoint.json"): fileio.json_bytes(meta),
                       })


_CHECKPOINT_SCHEMA = {"model": fileio.obj(models.MODEL_SCHEMA), "dataset": fileio.STR,
                      "seed": fileio.INT, "config_hash": fileio.STR}


def load_params(checkpoint_path) -> ad.ParamStore:
    """Rebuild a ParamStore from checkpoint.capn plus its .json sidecar, whose
    fields are checked first; a bad one raises ValueError naming it."""
    meta_path = os.path.splitext(checkpoint_path)[0] + ".json"
    with open(meta_path) as f:
        meta = fileio.check_fields(json.load(f), _CHECKPOINT_SCHEMA, meta_path)
    params = models.init_model(models.ModelSpec(**meta["model"]), meta["seed"])
    params.load_state_dict(ad.load_checkpoint(checkpoint_path))
    return params


def _aggregate(values: list) -> dict:
    arr = np.array(values, dtype=np.float64)
    return {
        "per_seed": [float(v) for v in arr],
        "mean": float(arr.mean()),
        "median": float(np.median(arr)),
        "stdev": float(arr.std()),
    }


def multi_seed(config: RunConfig, seeds: list, out_dir=None,
               dataset: data.Dataset = None) -> dict:
    """Run the same config under several seeds; aggregate final val and test
    MSE as mean/median/stdev."""
    if not seeds:
        raise ValueError("multi_seed needs at least one seed")
    ds = dataset if dataset is not None else data.load_dataset(data.resolve_path(config.dataset))
    runs = []
    val_mse = []
    test_mse = []
    for seed in seeds:
        cfg = replace(config, seed=int(seed))
        run_dir = os.path.join(out_dir, f"seed{seed}") if out_dir else None
        res = train_run(cfg, out_dir=run_dir, dataset=ds)
        runs.append(res)
        val_mse.append(res.final_val_mse)
        test_mse.append(evaluate.evaluate_mse(res.params, ds, "test"))
    return {
        "seeds": [int(s) for s in seeds],
        "val_mse": _aggregate(val_mse),
        "test_mse": _aggregate(test_mse),
        "runs": runs,
    }
