"""Measurement procedures over trained models.

All split-level routines walk the bags through `split_batches`, batched by
size in a fixed order; permutation orders are drawn on the calling thread
before any batch starts. That thread and, on more than one CPU, a helper
each run a batch at a time, costliest first, and build its features;
results are reduced in batch order, so figures are bit-identical to a
one-thread walk. Instance order is the stored order unless a routine
explicitly permutes it (permutation sensitivity). Routines run on
`params.detached()`: no autodiff graph, and live gradients are left alone.

On image datasets a routine call embeds each distinct image its split uses
once, into a table, and every forward pass (each permuted pass included)
gathers embedded rows from it instead of embedding pixels per position.
A table is built afresh for every call: training updates the parameter
arrays in place.
"""

from __future__ import annotations

import json
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import data, models, oracle

EVAL_BATCH = 1000


def split_batches(params, ds: data.Dataset, split: str, work, rngs=(None,)):
    """Yield (pass, rows, classes, work(classes, feats, labels)) for every
    evaluation batch of `split`, once per entry of `rngs`, in batch order.

    The batches are `data.batches` of EVAL_BATCH bags in stored order, with
    `rows` the bags' positions in the split; with an rng, each size group's
    instance orders are reshuffled first. All passes are laid out on the
    calling thread before any batch starts, and hold only index slices and
    permuted arrays; on image datasets the image indices are rows of one
    `models.embed` table of the split's distinct images. The thread that
    runs a batch (`_in_order`, costliest first) builds its feats in
    `prepare`: instance features, or the table's rows (`params` should be
    detached). Results are reduced in batch order; `work` must not walk a
    split itself.
    """
    bags = ds.splits[split]
    if not bags:
        raise ValueError(f"split {split!r} is empty")
    groups, table = data.group_by_size(bags), None
    if ds.spec.mode == "image":
        used = bags.images()
        table = models.embed(params, ds.pools[split].scaled(used)).data
        groups = {n: (idx, classes, np.searchsorted(used, img_idx), labels)
                  for n, (idx, classes, img_idx, labels) in groups.items()}
    noise = data.split_noise(ds, split)
    batches = [(p, *batch) for p, rng in enumerate(rngs)
               for batch in data.batches(groups, noise, EVAL_BATCH, permute=rng)]

    def prepare(p, rows, classes, img_idx, gnoise, labels):
        feats = (data.position_features(classes, img_idx, ds.spec.mode, noise=gnoise)
                 if table is None else [table[img_idx[:, pos]] for pos in range(classes.shape[1])])
        return lambda: (p, rows, classes, work(classes, feats, labels))

    return _in_order(prepare, batches, lambda p, rows, classes, *_: classes.size)


def _in_order(prepare, items, cost):
    """Yield prepare(*item)() for each of `items`, in item order. With more
    than one CPU and item, a helper thread, then the calling thread once the
    helper has prepared its first, each take the costliest item left
    (`cost(*item)`, ties in item order) when free; else the caller runs all
    in order. Once one raises, none starts, and the helper is joined."""
    helped = len(items) > 1 and len(os.sched_getaffinity(0)) > 1
    waiting = iter(sorted(range(len(items)), key=lambda i: -cost(*items[i]))
                   if helped else range(len(items)))
    results, lock, begun = [Future() for _ in items], threading.Lock(), threading.Event()

    def run_waiting(until=None):
        while until is None or not until.done():
            with lock:
                i = next(waiting, None)
            if i is None:
                return
            try:
                run = prepare(*items[i])
                begun.set()
                results[i].set_result(run())
            except BaseException as exc:  # raised again on the calling thread
                begun.set()
                with lock:  # no item starts after this one
                    for j in [i, *waiting]:
                        results[j].set_exception(exc)

    with ThreadPoolExecutor(1) as helper:
        if helped:
            helper.submit(run_waiting)
            begun.wait()
        try:
            for future in results:
                run_waiting(until=future)
                yield future.result()
        finally:
            waiting = iter(())  # the helper starts nothing more


def _forward(params, ds: data.Dataset, feats: list) -> models.BatchOutput:
    """`models.batch_forward` on one `split_batches` batch of `ds`. Image
    feats are embedded already; symbolic feats take the same call as in
    training."""
    if ds.spec.mode == "image":
        return models.batch_forward(params, feats, embedded=True)
    return models.batch_forward(params, feats)


def split_mse_and_penalty(params, ds: data.Dataset, split: str,
                          reg_lambda: float = 0.0, reg_threshold: float = 1.0):
    """Mean squared error and mean intermediate penalty over one split."""
    params = params.detached()
    sq_sum = 0.0
    pen_sum = 0.0
    for *_, (sq, pens) in split_batches(params, ds, split, _squared_errors(
            params, ds, reg_lambda, reg_threshold)):
        sq_sum += sq
        for pen in pens:
            pen_sum += pen
    count = len(ds.splits[split])
    return sq_sum / count, pen_sum / count


def _squared_errors(params, ds: data.Dataset, reg_lambda=0.0, reg_threshold=1.0):
    """`split_batches` work: a batch's summed squared error, and with
    reg_lambda > 0 each intermediate's summed squared hinge."""
    def work(classes, feats, labels):
        out = _forward(params, ds, feats)
        err = out.prediction.data - labels
        overs = [np.maximum(0.0, v.data - reg_threshold)
                 for v in (out.intermediates if reg_lambda > 0 else ())]
        return float(err @ err), [float(o @ o) for o in overs]
    return work


def evaluate_mse(params, ds: data.Dataset, split: str) -> float:
    """MSE over the split using each bag's stored instance order."""
    mse, _ = split_mse_and_penalty(params, ds, split)
    return mse


def split_predictions(params, ds: data.Dataset, split: str) -> np.ndarray:
    """Model predictions aligned with the split's bag order."""
    params = params.detached()
    preds = np.empty(len(ds.splits[split]))
    for _, rows, _, pred in split_batches(params, ds, split, lambda classes, feats, labels:
                                          _forward(params, ds, feats).prediction.data):
        preds[rows] = pred
    return preds


def predict_mean_baseline(ds: data.Dataset, split: str) -> float:
    """MSE of always predicting the train-split label mean."""
    mean = float(np.mean(ds.splits["train"].labels().astype(np.float64)))
    labels = ds.splits[split].labels().astype(np.float64)
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


def _step_report(params, ds: data.Dataset, split: str, kind: str, step_values):
    """Score per-step values against the oracle's exact decomposition of
    each label in stored instance order; `step_values(params, ds, feats)`
    gives a batch's [B, n] values.

    The MAE is the mean of every |expected - predicted| laid out flat in bag
    order, the same array a per-bag list of deltas would give.
    """
    params = params.detached()
    bags = ds.splits[split]
    entries = [None] * len(bags)
    sizes = np.empty(len(bags), dtype=np.int64)
    for n, (rows, *_) in bags.groups.items():
        sizes[rows] = n
    starts = np.cumsum(sizes) - sizes
    deltas = np.empty(int(sizes.sum()))
    for _, rows, classes, (predicted, expected) in split_batches(
            params, ds, split, lambda cls, feats, labels: (
                step_values(params, ds, feats),
                oracle.decompose_batch(ds.task, cls).astype(np.float64))):
        deltas[starts[rows][:, None] + np.arange(classes.shape[1])] = np.abs(expected - predicted)
        for bag_i, cls, exp, pred in zip(rows.tolist(), classes.tolist(),
                                         expected.tolist(), predicted.tolist()):
            entries[bag_i] = IntermediateEntry(cls, exp, pred)
    return IntermediateReport(entries=entries, mae=float(np.mean(deltas)), kind=kind)


def intermediate_mae(params, ds: data.Dataset, split: str) -> IntermediateReport:
    """Compare a capacity model's per-instance outputs against the exact
    sequential decomposition of the label, in stored instance order."""
    if not params.spec.capacity:
        raise ValueError("intermediate_mae needs a capacity model; "
                         "use pseudo_report for baselines")
    return _step_report(params, ds, split, "capacity", lambda p, d, feats: np.stack(
        [v.data for v in _forward(p, d, feats).intermediates], axis=1))


def _prefix_predictions(params, ds: data.Dataset, feats: list) -> np.ndarray:
    """decode(prefix_i) for i = 1..n; returns [n, batch]."""
    spec = params.spec
    if spec.family in models.SEQUENTIAL:
        out = _forward(params, ds, feats)
        return np.stack([models.decode_state(params, h) for h in out.latents], axis=0)
    return np.stack(
        [_forward(params, ds, feats[:i + 1]).prediction.data
         for i in range(len(feats))], axis=0)


def pseudo_report(params, ds: data.Dataset, split: str) -> IntermediateReport:
    """Prefix-difference attribution for a non-capacity model, scored
    against the oracle like `intermediate_mae`.

    A bag's i-th value is decode(prefix of i instances) minus decode(prefix
    of i-1), so its values telescope to the full-bag prediction.
    """
    if params.spec.capacity:
        raise ValueError("pseudo_report is for non-capacity models")
    return _step_report(params, ds, split, "pseudo", lambda p, d, feats: np.diff(
        _prefix_predictions(p, d, feats), axis=0, prepend=0.0).T)


def intermediate_jsonl(report: IntermediateReport) -> bytes:
    """The report as `intermediates.jsonl`: one compact, key-sorted line per bag."""
    return "".join(
        json.dumps({"classes": e.classes, "expected": e.expected, "predicted": e.predicted},
                   sort_keys=True, separators=(",", ":")) + "\n"
        for e in report.entries).encode()


# -- order sensitivity and accuracy ----------------------------------------

def permutation_sensitivity(params, ds: data.Dataset, split: str,
                            k: int = 5, seed: int = 0) -> dict:
    """Re-evaluate the split MSE under k fresh instance orderings per bag."""
    if k < 2:
        raise ValueError("permutation sensitivity needs k >= 2 passes")
    params = params.detached()
    rngs = [np.random.default_rng(np.random.SeedSequence((seed, 13, p))) for p in range(k)]
    sq_sums = [0.0] * k
    for p, _, _, (sq, _) in split_batches(params, ds, split, _squared_errors(params, ds), rngs):
        sq_sums[p] += sq
    mses = [sq_sum / len(ds.splits[split]) for sq_sum in sq_sums]
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
    return float(np.mean(rounded == ds.splits[split].labels().astype(np.float64)))
