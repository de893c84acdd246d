"""The three benchmark workloads and the checks on their outputs.

A workload sets up its dataset through the program, then runs rounds: each
round makes the same timed calls into capnet's public functions (or its CLI)
and tallies bags and wall seconds per phase (train, eval, audit). The first
round's outputs are checked against the numpy reference in `reference.py`
and against properties the method must have; every later round must
reproduce the first bit for bit. Checks are never timed.
"""

from __future__ import annotations

import csv
import json
import math
import os
import time

import numpy as np

from capnet import cli, data, evaluate, models, train

import idx_pools
import reference

PHASES = ("train", "eval", "audit")
SCORED_SPLITS = ("val", "test")
FORWARD_CHUNK = 500


class CheckFailed(RuntimeError):
    pass


def require(condition, message: str):
    if not condition:
        raise CheckFailed(message)


def close(a, b, rtol=1e-9) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    scale = max(1.0, float(np.max(np.abs(b), initial=0.0)))
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * scale))


class Sample:
    """One unit of a phase's work: bags handled over the seconds its calls took."""

    def __init__(self):
        self.bags = 0
        self.seconds = 0.0
        self.operations = 0

    def call(self, bags: int, fn, *args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.seconds += time.perf_counter() - start
        self.bags += bags
        self.operations += 1
        return out


class Tally:
    """The samples of one round, by phase."""

    def __init__(self):
        self.samples = {p: [] for p in PHASES}

    def sample(self, phase: str) -> Sample:
        s = Sample()
        self.samples[phase].append(s)
        return s

    @property
    def operations(self) -> int:
        return sum(s.operations for samples in self.samples.values() for s in samples)


def model_spec(label: str, input_dim: int) -> models.ModelSpec:
    """Spec for a sweep-style family label such as "gru" or "c-gru" (hidden 32)."""
    capacity = label.startswith("c-")
    return models.ModelSpec(label[2:] if capacity else label, capacity=capacity,
                            input_dim=input_dim)


# -- independent recomputation ----------------------------------------------

def bag_arrays(bags) -> dict:
    """size -> (bag indices, [B, n] classes, [B, n] image indices)."""
    sizes = np.array([b.size for b in bags])
    out = {}
    for n in np.unique(sizes):
        idx = np.flatnonzero(sizes == n)
        out[int(n)] = (idx, np.array([bags[i].classes for i in idx], dtype=np.int64),
                       np.array([bags[i].img_idx for i in idx], dtype=np.int64))
    return out


def features(classes: np.ndarray, img_idx: np.ndarray, pool) -> list:
    if pool is None:
        return [np.eye(reference.NUM_CLASSES)[classes[:, p]] for p in range(classes.shape[1])]
    return [pool.images[img_idx[:, p]] for p in range(classes.shape[1])]


def stored_labels(bags) -> np.ndarray:
    return np.array([b.label for b in bags], dtype=np.float64)


class SplitForward:
    """Predictions and per-instance values of one model on one split.

    `steps[i]` holds bag i's per-step values: the capacity model's own
    intermediates, or for a baseline the prefix differences of the decoded
    per-step states.
    """

    def __init__(self, params, ds, split):
        bags = ds.splits[split]
        pool = ds.pools[split] if ds.pools else None
        spec = params.spec
        self.pred = np.empty(len(bags))
        self.steps = [None] * len(bags)
        for n, (idx, classes, img_idx) in bag_arrays(bags).items():
            for s in range(0, len(idx), FORWARD_CHUNK):
                rows = idx[s:s + FORWARD_CHUNK]
                out = models.batch_forward(params, features(classes[s:s + FORWARD_CHUNK],
                                                            img_idx[s:s + FORWARD_CHUNK], pool))
                pred = out.prediction.data
                self.pred[rows] = pred
                if spec.capacity:
                    steps = np.stack([v.data for v in out.intermediates], axis=1)
                    require(np.allclose(steps.sum(axis=1), pred, rtol=1e-12, atol=1e-9),
                            f"{spec.label}: per-step values do not sum to the prediction")
                elif spec.family in models.SEQUENTIAL:
                    prefix = np.stack([models.decode_state(params, h) for h in out.latents], axis=1)
                    require(close(prefix[:, -1], pred),
                            f"{spec.label}: last decoded state differs from the prediction")
                    steps = np.diff(prefix, axis=1, prepend=0.0)
                else:
                    continue
                for row, bag_i in enumerate(rows):
                    self.steps[bag_i] = steps[row]

    def mse(self, labels: np.ndarray) -> float:
        return float(np.mean((self.pred - labels) ** 2))

    def accuracy_bounds(self, labels: np.ndarray) -> tuple:
        """Rounded accuracy, widened by predictions within 1e-9 of a .5 boundary."""
        rounded = np.sign(self.pred) * np.floor(np.abs(self.pred) + 0.5)
        frac = np.abs(self.pred) - np.floor(np.abs(self.pred))
        ambiguous = np.abs(frac - 0.5) < 1e-9
        hits = (rounded == labels) & ~ambiguous
        return hits.mean(), (hits | ambiguous).mean()


def check_labels(ds, where: str):
    """Stored labels equal the reference's, split by split."""
    for split, bags in ds.splits.items():
        labels = stored_labels(bags)
        for n, (idx, classes, _) in bag_arrays(bags).items():
            ref = reference.labels(ds.task.kind, classes, ds.task.pair_set)
            require(np.array_equal(ref.astype(np.float64), labels[idx]),
                    f"{where}: {split} labels of size-{n} bags differ from the reference")


def check_same_bags(a, b, where: str):
    for split in data.SPLITS:
        x, y = a.splits[split], b.splits[split]
        require(len(x) == len(y), f"{where}: {split} bag counts differ")
        for i, (p, q) in enumerate(zip(x, y)):
            require(p.classes == q.classes and p.img_idx == q.img_idx and p.label == q.label,
                    f"{where}: {split} bag {i} differs after the round trip")


def check_added_values(ds, split: str, expected: list):
    """The oracle's added values equal the reference's prefix differences,
    are non-negative and sum to the stored label."""
    bags = ds.splits[split]
    for n, (idx, classes, _) in bag_arrays(bags).items():
        ref = reference.added_values(ds.task.kind, classes, ds.task.pair_set)
        got = np.array([expected[i] for i in idx], dtype=np.float64)
        require(np.array_equal(got, ref.astype(np.float64)),
                f"{split}: oracle added values of size-{n} bags differ from the reference")
        require(np.all(got >= 0), f"{split}: negative oracle added value")
        require(np.array_equal(got.sum(axis=1), stored_labels(bags)[idx]),
                f"{split}: oracle added values do not sum to the label")


def check_audit(fwd: SplitForward, ds, split: str, expected: list, predicted: list,
                mae: float, accuracy: float, permutation_mses: list):
    """The audit's values against the benchmark's recomputation from predictions."""
    label = f"{split} audit"
    check_added_values(ds, split, expected)
    for i, values in enumerate(predicted):
        require(close(values, fwd.steps[i]), f"{label}: bag {i} per-step values differ")
    errors = np.concatenate([np.abs(np.asarray(e, dtype=np.float64) - s)
                             for e, s in zip(expected, fwd.steps)])
    require(close(mae, errors.mean()), f"{label}: MAE {mae} != recomputed {errors.mean()}")
    low, high = fwd.accuracy_bounds(stored_labels(ds.splits[split]))
    require(low - 1e-12 <= accuracy <= high + 1e-12,
            f"{label}: accuracy {accuracy} outside recomputed [{low}, {high}]")
    require(len(permutation_mses) >= 2 and all(math.isfinite(v) and v >= 0 for v in permutation_mses),
            f"{label}: permutation MSEs {permutation_mses} not finite and non-negative")


def check_learned(spec, seed: int, ds, val_mse: float, beat_mean: bool):
    """Finite val MSE below the model's own at initialisation and, when
    asked, below predicting the train-label mean."""
    labels = stored_labels(ds.splits["val"])
    init_mse = SplitForward(models.init_model(spec, seed), ds, "val").mse(labels)
    require(math.isfinite(val_mse) and val_mse < init_mse,
            f"{spec.label}: val MSE {val_mse} not below its initial {init_mse}")
    if beat_mean:
        mean_mse = float(np.mean((labels - stored_labels(ds.splits["train"]).mean()) ** 2))
        require(val_mse < mean_mse, f"{spec.label}: val MSE {val_mse} not below mean predictor {mean_mse}")


def gradient_check(params, ds, seed: int, coords: int = 2, h: float = 1e-6):
    """Central finite differences of train.batch_loss against its gradients.

    Uses four train bags of the smallest size and `coords` random entries per
    parameter. An entry whose one-sided slopes differ by over 10% sits on a
    kink (relu or |.|) and is skipped; at most a third may be skipped.
    """
    bags = ds.splits["train"]
    n, (idx, classes, img_idx) = next(iter(bag_arrays(bags).items()))
    take = slice(0, 4)
    feats = features(classes[take], img_idx[take], ds.pools["train"] if ds.pools else None)
    labels = stored_labels(bags)[idx[take]]

    def loss():
        return float(train.batch_loss(params, feats, labels, 0.0, 1.0)[0].data)

    value, _, _ = train.batch_loss(params, feats, labels, 0.0, 1.0)
    params.zero_grad()
    value.backward()
    rng = np.random.default_rng(np.random.SeedSequence((seed, 17)))
    checked = skipped = 0
    for path, t in params.items():
        grad = t.grad.copy()
        for _ in range(coords):
            i = tuple(int(rng.integers(d)) for d in t.data.shape)
            x = t.data[i]
            f0 = loss()
            t.data[i] = x + h
            fp = loss()
            t.data[i] = x - h
            fm = loss()
            t.data[i] = x
            # rounding error of a difference quotient: a few ulps of the loss over h
            noise = 1e-14 * max(1.0, abs(f0)) / h
            right, left = (fp - f0) / h, (f0 - fm) / h
            if abs(right - left) > 0.1 * max(abs(right), abs(left)) + 10 * noise:
                skipped += 1
                continue
            fd = (fp - fm) / (2 * h)
            require(abs(fd - grad[i]) <= 1e-5 * max(abs(fd), abs(grad[i])) + noise,
                    f"{params.spec.label}: d loss / d {path}{list(i)} is {grad[i]}, "
                    f"finite differences give {fd}")
            checked += 1
    params.zero_grad()
    require(skipped * 2 <= checked, f"{params.spec.label}: {skipped} of "
            f"{checked + skipped} gradient entries sat on kinks")


# -- workloads -------------------------------------------------------------

class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: str):
        self.seed = seed
        self.work = work_dir
        self.ds_dir = os.path.join(work_dir, "dataset")
        self.ds = None
        self.first = None

    def write_inputs(self):
        """Inputs the benchmark itself writes; not part of set-up time."""

    def setup(self):
        raise NotImplementedError

    def check_setup(self):
        raise NotImplementedError

    def run_round(self, tally: Tally):
        """Make the round's timed calls; return what the checks need."""
        raise NotImplementedError

    def check_first(self, outputs):
        raise NotImplementedError

    def check_round(self, outputs):
        if self.first is None:
            self.check_first(outputs)
            self.first = self.fingerprint(outputs)
        else:
            require(self.fingerprint(outputs) == self.first,
                    f"{self.name}: a later round did not reproduce the first")

    def fingerprint(self, outputs):
        raise NotImplementedError


class InProcess(Workload):
    """Symbolic workloads that call train, evaluate and the oracle directly."""

    task = ""
    set_size = 5
    counts = (0, 0, 0)
    families = ("c-gru", "gru")
    batch_size = 200
    epochs = 1
    lr = 0.001
    eval_passes = 1
    beat_mean = False

    def setup(self):
        spec = data.DatasetSpec(task=self.task, set_size=self.set_size,
                                counts=self.counts, seed=self.seed)
        self.generated = data.generate_dataset(spec)
        data.save_dataset(self.generated, self.ds_dir)
        self.ds = data.load_dataset(self.ds_dir)

    def check_setup(self):
        check_labels(self.generated, self.name)
        check_same_bags(self.generated, self.ds, self.name)
        self.generated = None

    def run_round(self, tally: Tally):
        ds = self.ds
        n = {s: len(ds.splits[s]) for s in data.SPLITS}
        fit = tally.sample("train")
        results = {}
        for label in self.families:
            cfg = train.RunConfig(dataset=self.ds_dir, model=model_spec(label, ds.feature_dim()),
                                  lr=self.lr, batch_size=self.batch_size, epochs=self.epochs,
                                  seed=self.seed)
            results[label] = fit.call(self.epochs * n["train"], train.train_run, cfg, dataset=ds)
        mse = {}
        for _ in range(self.eval_passes):
            for split in SCORED_SPLITS:
                scored = tally.sample("eval")
                for label, result in results.items():
                    mse[label, split] = scored.call(n[split], evaluate.evaluate_mse,
                                                    result.params, ds, split)
        audits = {}
        for split in SCORED_SPLITS:
            audited = tally.sample("audit")
            for label, result in results.items():
                params = result.params
                report_fn = evaluate.intermediate_mae if params.spec.capacity else evaluate.pseudo_report
                report = audited.call(n[split], report_fn, params, ds, split)
                sens = audited.call(0, evaluate.permutation_sensitivity, params, ds, split,
                                    k=5, seed=self.seed)
                acc = audited.call(0, evaluate.rounded_accuracy, params, ds, split)
                audits[label, split] = (report, sens, acc)
        return results, mse, audits

    def check_first(self, outputs):
        ds = self.ds
        results, mse, audits = outputs
        for label, result in results.items():
            params = result.params
            check_learned(params.spec, self.seed, ds, result.final_val_mse, self.beat_mean)
            for split in SCORED_SPLITS:
                fwd = SplitForward(params, ds, split)
                labels = stored_labels(ds.splits[split])
                require(close(mse[label, split], fwd.mse(labels)),
                        f"{label}: {split} MSE {mse[label, split]} != recomputed {fwd.mse(labels)}")
                report, sens, acc = audits[label, split]
                check_audit(fwd, ds, split, [e.expected for e in report.entries],
                            [e.predicted for e in report.entries], report.mae, acc, sens["mse"])
            require(close(result.final_val_mse, mse[label, "val"]),
                    f"{label}: final val MSE differs from evaluate_mse")
            gradient_check(params, ds, self.seed)

    def fingerprint(self, outputs):
        results, mse, audits = outputs
        return ({label: r.final_val_mse for label, r in results.items()}, mse,
                {key: (r.mae, sens["mse"], acc) for key, (r, sens, acc) in audits.items()})


class DeskTrain(InProcess):
    """Acceptance shape: US, bags of 5, 20k/2k/2k, batch 200, hidden 32."""

    name = "desk-train"
    task = "US"
    set_size = 5
    counts = (20000, 2000, 2000)
    # the GRU leaves the predict-the-mean plateau around epoch 5 or 6
    epochs = 8
    # one pass over 2k bags is ~40 ms; repeat so the eval phase has weight
    eval_passes = 5
    beat_mean = True


class InterpretLong(InProcess):
    """WTri on mixed bags of 10, 20 and 40: deep recurrences, O(n^2) oracle audit."""

    name = "interpret-long"
    task = "WTri"
    set_size = (10, 20, 40)
    counts = (2000, 2200, 2200)
    batch_size = 100
    epochs = 2
    # labels reach the hundreds; at lr 0.001 two epochs barely move the GRU
    lr = 0.003


class ImageSweep(Workload):
    """The whole CLI over synthetic MNIST-format pools."""

    name = "image-sweep"
    families = ("deepset", "attention", "gru", "c-gru")
    cell = "c-gru"
    pool_sizes = (10000, 2000, 2000)
    counts = (4000, 1000, 2000)
    epochs = 3
    lr = 0.003
    batch_size = 200

    def write_inputs(self):
        # relative to the working directory: capnet guesses each labels path by
        # replacing every "images" in the images path, so keep the checkout's
        # own location out of it
        pools = idx_pools.write_pools(os.path.relpath(os.path.join(self.work, "pools")),
                                      self.seed, *self.pool_sizes)
        self.pools = pools["pools"]
        self.file_labels = pools["labels_by_file"]
        self.config_path = self._write_json("dataset.json", {
            "task": "US", "mode": "image", "set_size": 5, "counts": list(self.counts),
            "seed": self.seed, "pools": self.pools})
        train_cfg = {"batch_size": self.batch_size, "epochs": self.epochs, "lr": self.lr}
        self.sweep_path = self._write_json("sweep.json", {
            "dataset": self.ds_dir, "families": list(self.families), "seeds": [self.seed],
            "train": train_cfg})
        self.train_path = self._write_json("train.json", {
            "dataset": self.ds_dir, "seed": self.seed, **train_cfg,
            "model": {"family": self.cell[2:], "capacity": True}})

    def _write_json(self, name, obj) -> str:
        path = os.path.join(self.work, name)
        with open(path, "w") as f:
            json.dump(obj, f)
        return path

    def _cli(self, *argv):
        code = cli.main(list(argv))
        require(code == 0, f"capnet {' '.join(argv)} exited {code}")

    def setup(self):
        self._cli("generate", "--config", self.config_path, "--out", self.ds_dir)
        self.ds = data.load_dataset(self.ds_dir)

    def check_setup(self):
        ds = self.ds
        check_labels(ds, self.name)
        used = {}
        for split, bags in ds.splits.items():
            window = self.pools[split]
            pool = ds.pools[split]
            require(pool.offset == window["offset"] and len(pool.images) == window["count"],
                    f"{split}: pool is not the configured window")
            idx = np.concatenate([b.img_idx for b in bags])
            require(idx.min() >= 0 and idx.max() < window["count"],
                    f"{split}: an image index lies outside the split's window")
            file_labels = self.file_labels[window["images"]]
            classes = np.concatenate([b.classes for b in bags])
            require(np.array_equal(file_labels[window["offset"] + idx], classes),
                    f"{split}: an instance's image is of another class")
            used[split] = {(window["images"], window["offset"] + int(i)) for i in np.unique(idx)}
        for a, b in ((x, y) for x in used for y in used if x < y):
            require(not used[a] & used[b], f"an image is used by both {a} and {b}")
        again = data.generate_dataset(ds.spec, pools=ds.pools)
        check_same_bags(again, ds, self.name)

    def _out(self, name) -> str:
        return os.path.join(self.work, "runs", name)

    def run_round(self, tally: Tally):
        n = {s: len(self.ds.splits[s]) for s in data.SPLITS}
        fit = tally.sample("train")
        cpu = os.times()
        start = time.perf_counter()
        fit.call(len(self.families) * self.epochs * n["train"], self._cli, "sweep",
                 "--config", self.sweep_path, "--out", self._out("sweep"), "--jobs", "2")
        wall = time.perf_counter() - start
        used = os.times()
        # process plus child CPU seconds over the sweep's wall seconds
        self.cpu_per_wall = sum(b - a for a, b in zip(cpu[:4], used[:4])) / wall
        fit.call(self.epochs * n["train"], self._cli,
                 "train", "--config", self.train_path, "--out", self._out("train"))
        checkpoint = os.path.join(self._out("train"), "checkpoint.capn")
        scored = tally.sample("eval")
        for split in SCORED_SPLITS:
            scored.call(n[split], self._cli, "eval", "--checkpoint", checkpoint,
                        "--dataset", self.ds_dir, "--out", self._out(f"eval-{split}"),
                        "--metric", "mse", "--split", split)
        for split in SCORED_SPLITS:
            tally.sample("audit").call(
                n[split], self._cli, "eval", "--checkpoint", checkpoint,
                "--dataset", self.ds_dir, "--out", self._out(f"audit-{split}"),
                "--metric", "intermediates,permsens,accuracy", "--split", split,
                "--seed", str(self.seed))
        return None

    def _rows(self, name, file):
        with open(os.path.join(self._out(name), file), newline="") as f:
            return list(csv.DictReader(f))

    def check_first(self, outputs):
        ds = self.ds
        sweep = {row["family"]: row for row in self._rows("sweep", "sweep.csv")}
        require(sorted(sweep) == sorted(self.families), f"sweep rows {sorted(sweep)}")
        for label, row in sweep.items():
            spec = model_spec(label, ds.feature_dim())
            check_learned(spec, self.seed, ds, float(row["val_mse_mean"]), beat_mean=False)
            gradient_check(models.init_model(spec, self.seed), ds, self.seed)
        val_rows = [r for r in self._rows("train", "metrics.csv") if r["split"] == "val"]
        require(val_rows[-1]["mse"] == sweep[self.cell]["val_mse_mean"],
                f"capnet train val MSE {val_rows[-1]['mse']} does not reproduce the sweep "
                f"cell's {sweep[self.cell]['val_mse_mean']}")
        params = train.load_params(os.path.join(self._out("train"), "checkpoint.capn"))
        gradient_check(params, ds, self.seed)
        fwd = {s: SplitForward(params, ds, s) for s in SCORED_SPLITS}
        for split in SCORED_SPLITS:
            reported = float(self._rows(f"eval-{split}", "mse.csv")[0]["mse"])
            mine = fwd[split].mse(stored_labels(ds.splits[split]))
            require(close(reported, mine), f"{split} MSE {reported} != recomputed {mine}")
            audit = f"audit-{split}"
            with open(os.path.join(self._out(audit), "intermediates.jsonl")) as f:
                entries = [json.loads(line) for line in f]
            check_audit(fwd[split], ds, split, [e["expected"] for e in entries],
                        [e["predicted"] for e in entries],
                        float(self._rows(audit, "intermediates.csv")[0]["mae"]),
                        float(self._rows(audit, "accuracy.csv")[0]["accuracy"]),
                        [float(r["mse"]) for r in self._rows(audit, "permsens.csv")
                         if r["pass"].isdigit()])

    def fingerprint(self, outputs):
        files = [("sweep", "sweep.csv"), ("train", "metrics.csv")]
        for split in SCORED_SPLITS:
            files += [(f"eval-{split}", "mse.csv"), (f"audit-{split}", "intermediates.csv"),
                      (f"audit-{split}", "accuracy.csv"), (f"audit-{split}", "permsens.csv")]
        out = {}
        for name, file in files:
            with open(os.path.join(self._out(name), file), "rb") as f:
                out[(name, file)] = f.read()
        return out


WORKLOADS = {w.name: w for w in (DeskTrain, InterpretLong, ImageSweep)}
