"""Measurement procedures over trained models.

All split-level routines walk the bags through `split_batches`, batched by
size in a fixed order, so repeated evaluation of the same model on the same
split reproduces results bit for bit. Instance order is the stored order
unless a routine explicitly permutes it (permutation sensitivity). Every
routine runs on `params.detached()`, so evaluation builds no autodiff graph
and leaves the live parameters' gradients alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import data, fileio, models, oracle

EVAL_BATCH = 1000


def split_batches(ds: data.Dataset, split: str, rng=None, groups: dict = None):
    """Yield (rows, classes, feats, labels) for each evaluation batch.

    Bags are grouped by size, smallest first, and cut into batches of
    EVAL_BATCH in stored order; `rows` are the bags' positions in the split.
    With an `rng`, each size group's instance orders are reshuffled first,
    one `data.permute_instances` draw per group. A caller that walks the
    split more than once passes its `data.group_by_size` as `groups`.
    """
    bags = ds.splits[split]
    if not bags:
        raise ValueError(f"split {split!r} is empty")
    if groups is None:
        groups = data.group_by_size(bags)
    noise = data.split_noise(ds, split)
    pool = ds.pools[split] if ds.pools else None
    for n, (idx, classes, img_idx, labels) in groups.items():
        gnoise = noise[idx][:, :n, :] if noise is not None else None
        if rng is not None:
            classes, img_idx, gnoise = data.permute_instances(rng, classes, img_idx, gnoise)
        for s in range(0, len(idx), EVAL_BATCH):
            sl = slice(s, s + EVAL_BATCH)
            feats = data.position_features(classes[sl], img_idx[sl], ds.spec.mode, pool,
                                           gnoise[sl] if gnoise is not None else None)
            yield idx[sl], classes[sl], feats, labels[sl]


def split_mse_and_penalty(params, ds: data.Dataset, split: str,
                          reg_lambda: float = 0.0, reg_threshold: float = 1.0):
    """Mean squared error and mean intermediate penalty over one split."""
    params = params.detached()
    sq_sum = 0.0
    pen_sum = 0.0
    for _, _, feats, labels in split_batches(ds, split):
        out = models.batch_forward(params, feats)
        err = out.prediction.data - labels
        sq_sum += float(err @ err)
        if reg_lambda > 0 and out.intermediates:
            for v in out.intermediates:
                over = np.maximum(0.0, v.data - reg_threshold)
                pen_sum += float(over @ over)
    count = len(ds.splits[split])
    return sq_sum / count, pen_sum / count


def evaluate_mse(params, ds: data.Dataset, split: str) -> float:
    """MSE over the split using each bag's stored instance order."""
    mse, _ = split_mse_and_penalty(params, ds, split)
    return mse


def split_predictions(params, ds: data.Dataset, split: str) -> np.ndarray:
    """Model predictions aligned with the split's bag order."""
    params = params.detached()
    preds = np.empty(len(ds.splits[split]))
    for rows, _, feats, _ in split_batches(ds, split):
        preds[rows] = models.batch_forward(params, feats).prediction.data
    return preds


def predict_mean_baseline(ds: data.Dataset, split: str) -> float:
    """MSE of always predicting the train-split label mean."""
    mean = float(np.mean([b.label for b in ds.splits["train"]]))
    labels = np.array([b.label for b in ds.splits[split]], dtype=np.float64)
    return float(np.mean((mean - labels) ** 2))


# -- intermediate results ---------------------------------------------------

@dataclass
class IntermediateEntry:
    classes: list
    expected: list
    predicted: list

    @property
    def deltas(self) -> list:
        return [abs(e - p) for e, p in zip(self.expected, self.predicted)]


@dataclass
class IntermediateReport:
    entries: list = field(default_factory=list)
    mae: float = 0.0
    kind: str = "capacity"


def _report_from(entries: list, kind: str) -> IntermediateReport:
    deltas = [d for e in entries for d in e.deltas]
    mae = float(np.mean(deltas)) if deltas else 0.0
    return IntermediateReport(entries=entries, mae=mae, kind=kind)


def _step_report(params, ds: data.Dataset, split: str, kind: str, step_values):
    """Score per-step values against the oracle's exact decomposition of
    each label in stored instance order; `step_values(params, feats)` gives
    a batch's [B, n] values."""
    params = params.detached()
    entries = [None] * len(ds.splits[split])
    for rows, classes, feats, _ in split_batches(ds, split):
        predicted = step_values(params, feats)
        for row, bag_i in enumerate(rows):
            cls = [int(c) for c in classes[row]]
            expected = oracle.decompose(ds.task, cls)
            entries[bag_i] = IntermediateEntry(cls, [float(v) for v in expected],
                                               [float(v) for v in predicted[row]])
    return _report_from(entries, kind)


def intermediate_mae(params, ds: data.Dataset, split: str) -> IntermediateReport:
    """Compare a capacity model's per-instance outputs against the exact
    sequential decomposition of the label, in stored instance order."""
    if not params.spec.capacity:
        raise ValueError("intermediate_mae needs a capacity model; "
                         "use pseudo_report for baselines")
    return _step_report(params, ds, split, "capacity", lambda p, feats: np.stack(
        [v.data for v in models.batch_forward(p, feats).intermediates], axis=1))


def _prefix_predictions(params, feats: list) -> np.ndarray:
    """decode(prefix_i) for i = 1..n; returns [n, batch]."""
    spec = params.spec
    if spec.family in models.SEQUENTIAL:
        out = models.batch_forward(params, feats)
        return np.stack([models.decode_state(params, h) for h in out.latents], axis=0)
    return np.stack(
        [models.batch_forward(params, feats[:i + 1]).prediction.data
         for i in range(len(feats))], axis=0)


def pseudo_report(params, ds: data.Dataset, split: str) -> IntermediateReport:
    """Prefix-difference attribution for a non-capacity model, scored
    against the oracle like `intermediate_mae`.

    A bag's i-th value is decode(prefix of i instances) minus decode(prefix
    of i-1), so its values telescope to the full-bag prediction.
    """
    if params.spec.capacity:
        raise ValueError("pseudo_report is for non-capacity models")
    return _step_report(params, ds, split, "pseudo", lambda p, feats: np.diff(
        _prefix_predictions(p, feats), axis=0, prepend=0.0).T)


def write_intermediate_jsonl(path, report: IntermediateReport):
    fileio.write_files({path: "".join(
        json.dumps({"classes": e.classes, "expected": e.expected, "predicted": e.predicted},
                   sort_keys=True, separators=(",", ":")) + "\n"
        for e in report.entries).encode()})


# -- order sensitivity and accuracy ----------------------------------------

def permutation_sensitivity(params, ds: data.Dataset, split: str,
                            k: int = 5, seed: int = 0) -> dict:
    """Re-evaluate the split MSE under k fresh instance orderings per bag."""
    if k < 2:
        raise ValueError("permutation sensitivity needs k >= 2 passes")
    params = params.detached()
    groups = data.group_by_size(ds.splits[split])
    mses = []
    for pass_idx in range(k):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 13, pass_idx)))
        sq_sum = 0.0
        for _, _, feats, labels in split_batches(ds, split, rng, groups):
            err = models.batch_forward(params, feats).prediction.data - labels
            sq_sum += float(err @ err)
        mses.append(sq_sum / len(ds.splits[split]))
    arr = np.array(mses)
    spread = float(arr.max() - arr.min())
    return {
        "mse": [float(v) for v in arr],
        "mean": float(arr.mean()),
        "median": float(np.median(arr)),
        "stdev": float(arr.std()),
        "spread": spread,
        "relative_spread": spread / max(1.0, float(arr.mean())),
    }


def rounded_accuracy(params, ds: data.Dataset, split: str) -> float:
    """Fraction of bags whose prediction, rounded half away from zero,
    equals the integer label."""
    preds = split_predictions(params, ds, split)
    rounded = np.sign(preds) * np.floor(np.abs(preds) + 0.5)
    labels = np.array([b.label for b in ds.splits[split]], dtype=np.float64)
    return float(np.mean(rounded == labels))
