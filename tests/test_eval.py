"""Checks for the measurement routines in capnet.evaluate.

Split-level numbers are validated against naive per-bag loops written here,
and the intermediate-value comparisons against stubbed forwards whose outputs
are known by construction.
"""

import hashlib
import pickle
import sys
import threading
import time
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from capnet import data, evaluate, models, oracle, train
from test_data import synth_pool

VARIANTS = [(f, False) for f in models.FAMILIES] + [(f, True) for f in models.SEQUENTIAL]


def small(family, capacity=False, seed=0, input_dim=10):
    spec = models.ModelSpec(family, capacity=capacity, input_dim=input_dim,
                            embed_dim=8, hidden_dim=6, enc_layers=2, dec_layers=2)
    return models.init_model(spec, seed)


def bag_features(bag):
    """A stored symbolic bag as the per-position features of a batch of one."""
    return data.position_features(np.array([bag.classes]), np.array([bag.img_idx]), "symbolic")


def predict(params, bag) -> float:
    return float(models.batch_forward(params, bag_features(bag)).prediction.data[0])


@pytest.fixture(scope="module")
def us_ds():
    return data.generate_dataset(
        data.DatasetSpec(task="US", set_size=5, counts=(300, 60, 60), seed=3))


@pytest.fixture(scope="module")
def mixed_ds():
    # two bag sizes so the grouped/batched path has to reassemble results
    return data.generate_dataset(
        data.DatasetSpec(task="WTri", set_size=(2, 6), counts=(200, 80, 80), seed=4))


def image_dataset(set_size=(2, 4), counts=(60, 30, 30), pool_size=200):
    """Image bags over 16-pixel pools of `pool_size` images; with the
    defaults each eval split uses fewer images than its pool holds."""
    pools = {s: synth_pool(s, count=pool_size, seed=i) for i, s in enumerate(data.SPLITS)}
    return data.generate_dataset(data.DatasetSpec(task="US", mode="image", set_size=set_size,
                                                  counts=counts, seed=5), pools=pools)


@pytest.fixture(scope="module")
def img_ds():
    return image_dataset()


# -- split-level MSE --------------------------------------------------------

@pytest.mark.parametrize("family,capacity", [("gru", False), ("lstm", True)])
def test_evaluate_mse_matches_naive_loop(mixed_ds, family, capacity):
    params = small(family, capacity=capacity)
    batched = evaluate.evaluate_mse(params, mixed_ds, "val")
    sq = [
        (predict(params, bag) - bag.label) ** 2
        for bag in mixed_ds.splits["val"]
    ]
    naive = float(np.mean(sq))
    assert abs(batched - naive) <= 1e-12 * max(1.0, abs(naive))


def test_split_predictions_align_with_bag_order(mixed_ds):
    params = small("rnn")
    preds = evaluate.split_predictions(params, mixed_ds, "val")
    bags = mixed_ds.splits["val"]
    assert preds.shape == (len(bags),)
    for i in range(0, len(bags), 17):
        direct = predict(params, bags[i])
        assert preds[i] == pytest.approx(direct, rel=1e-12)
    labels = np.array([b.label for b in bags], dtype=np.float64)
    mse = evaluate.evaluate_mse(params, mixed_ds, "val")
    assert mse == pytest.approx(float(np.mean((preds - labels) ** 2)), rel=1e-12)


def constant_model(value, family="gru", capacity=False):
    """All-zero weights with the decoder's output bias set, so every bag
    (capacity: every instance step) yields the same value."""
    params = small(family, capacity=capacity)
    st = params.state_dict()
    for k in st:
        st[k][:] = 0.0
    st["dec/1/b"][:] = value
    params.load_state_dict(st)
    return params


def test_constant_predictor_mse(us_ds):
    params = constant_model(7.0)
    labels = np.array([b.label for b in us_ds.splits["test"]], dtype=np.float64)
    expected = float(np.mean((7.0 - labels) ** 2))
    assert evaluate.evaluate_mse(params, us_ds, "test") == pytest.approx(expected, rel=1e-12)


def test_predict_mean_baseline(us_ds):
    train_labels = np.array([b.label for b in us_ds.splits["train"]], dtype=np.float64)
    mean = train_labels.mean()
    val_labels = np.array([b.label for b in us_ds.splits["val"]], dtype=np.float64)
    got = evaluate.predict_mean_baseline(us_ds, "val")
    assert got == pytest.approx(float(np.mean((mean - val_labels) ** 2)), rel=1e-12)
    # on the train split itself the baseline MSE is the label variance
    assert evaluate.predict_mean_baseline(us_ds, "train") == pytest.approx(
        float(train_labels.var()), rel=1e-12)


def test_evaluation_deterministic_with_feature_noise():
    ds = data.generate_dataset(
        data.DatasetSpec(task="US", set_size=4, counts=(50, 20, 20), seed=6, noise=0.1))
    params = small("gru")
    a = evaluate.evaluate_mse(params, ds, "val")
    b = evaluate.evaluate_mse(params, ds, "val")
    assert a == b


def test_empty_split_rejected():
    ds = data.generate_dataset(
        data.DatasetSpec(task="US", set_size=3, counts=(20, 5, 5), seed=7))
    ds.splits["val"] = data.Split({})
    with pytest.raises(ValueError, match="empty"):
        evaluate.evaluate_mse(small("deepset"), ds, "val")


# -- forward-only evaluation -------------------------------------------------

def record_forwards(monkeypatch, fn="batch_forward"):
    """Wrap models.`fn`; returns the list its outputs are appended to."""
    seen = []
    real = getattr(models, fn)

    def recording(params, feats, **kwargs):
        out = real(params, feats, **kwargs)
        seen.append(out)
        return out
    monkeypatch.setattr(models, fn, recording)
    return seen


@pytest.mark.parametrize("family,capacity", [("gru", True), ("lstm", False), ("attention", False)])
def test_every_eval_routine_is_forward_only(us_ds, img_ds, monkeypatch, family, capacity):
    """On symbolic and image datasets alike; image evaluation embeds its
    split up front, and that table must not record a graph either."""
    seen = record_forwards(monkeypatch)
    embedded = record_forwards(monkeypatch, "embed")
    for ds in (us_ds, img_ds):
        params = small(family, capacity=capacity, input_dim=ds.feature_dim())
        routines = [
            lambda: evaluate.evaluate_mse(params, ds, "val"),
            lambda: evaluate.split_mse_and_penalty(params, ds, "val", 0.5, 0.1),
            lambda: evaluate.split_predictions(params, ds, "val"),
            lambda: evaluate.permutation_sensitivity(params, ds, "val", k=2),
            lambda: evaluate.rounded_accuracy(params, ds, "val"),
        ]
        if capacity:
            routines.append(lambda: evaluate.intermediate_mae(params, ds, "val"))
        else:
            routines.append(lambda: evaluate.pseudo_report(params, ds, "val"))
        for run in routines:
            seen.clear()
            embedded.clear()
            run()
            assert seen and embedded
            for out in seen:
                assert not out.prediction.requires_grad and out.prediction._parents == ()
                assert not any(v.requires_grad for v in out.intermediates)
            assert not any(x.requires_grad or x._parents for x in embedded)
            assert all(t.grad is None and t.requires_grad for _, t in params.items())


def test_train_run_val_eval_is_forward_only(monkeypatch):
    symbolic = data.generate_dataset(
        data.DatasetSpec(task="US", set_size=3, counts=(200, 40, 40), seed=2))
    image = image_dataset(set_size=3, counts=(200, 40, 40), pool_size=60)
    real_eval = evaluate.split_mse_and_penalty
    seen = record_forwards(monkeypatch)
    tracked = {}

    def val_eval(params, *args, **kwargs):
        grads = {p: t.grad for p, t in params.items()}
        tracked["train"] += [out.prediction.requires_grad for out in seen]
        seen.clear()
        result = real_eval(params, *args, **kwargs)
        tracked["eval"] += [out.prediction.requires_grad for out in seen]
        seen.clear()
        assert all(t.grad is grads[p] for p, t in params.items())
        return result
    monkeypatch.setattr(evaluate, "split_mse_and_penalty", val_eval)
    model = models.ModelSpec("gru", capacity=True, embed_dim=8, hidden_dim=6,
                             enc_layers=2, dec_layers=2)
    cfg = train.RunConfig(dataset="mem", model=model, batch_size=50, epochs=2, seed=0)
    for ds in (symbolic, image):
        tracked.update(train=[], eval=[])
        train.train_run(cfg, dataset=ds)
        # training keeps its graph; the per-epoch val eval builds none
        assert len(tracked["train"]) == 8 and all(tracked["train"])
        assert len(tracked["eval"]) == 2 and not any(tracked["eval"])
        # with no epochs, the final val eval is the only pass and leaves no gradient
        res = train.train_run(replace(cfg, epochs=0), dataset=ds)
        assert all(t.grad is None for _, t in res.params.items())


# -- image datasets: one embedding table per routine call -------------------

def reference_outputs(params, ds, split, rng=None):
    """Predictions and per-step values ([n] per bag) of the split, each size
    group run as one batch through `models.batch_forward` on
    `data.position_features`: pixels embedded per position and per pass."""
    bags = ds.splits[split]
    preds, steps = np.empty(len(bags)), [None] * len(bags)
    spec = params.spec
    for idx, classes, img_idx, _ in data.group_by_size(bags).values():
        if rng is not None:
            classes, img_idx, _ = data.permute_instances(rng, classes, img_idx)
        feats = data.position_features(classes, img_idx, "image", ds.pools[split])
        out = models.batch_forward(params, feats)
        preds[idx] = out.prediction.data
        if spec.capacity:
            values = np.stack([v.data for v in out.intermediates], axis=1)
        elif spec.family in models.SEQUENTIAL:
            values = np.diff([models.decode_state(params, h) for h in out.latents],
                             axis=0, prepend=0.0).T
        else:
            values = np.diff([models.batch_forward(params, feats[:i + 1]).prediction.data
                              for i in range(len(feats))], axis=0, prepend=0.0).T
        for i, row in zip(idx, values):
            steps[i] = row
    return preds, steps


def assert_close(got, want):
    # pseudo values are differences of prefix predictions, so their error is
    # relative to the predictions' scale, not to each small difference
    want = np.asarray(want, dtype=np.float64)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("family,capacity", VARIANTS)
def test_image_eval_agrees_with_per_position_embedding(img_ds, family, capacity):
    params = small(family, capacity=capacity, seed=3, input_dim=img_ds.feature_dim())
    bags = img_ds.splits["val"]
    labels = np.array([b.label for b in bags], dtype=np.float64)
    preds, steps = reference_outputs(params, img_ds, "val")

    assert_close(evaluate.split_predictions(params, img_ds, "val"), preds)
    assert_close(evaluate.evaluate_mse(params, img_ds, "val"), np.mean((preds - labels) ** 2))
    rounded = np.sign(preds) * np.floor(np.abs(preds) + 0.5)
    assert evaluate.rounded_accuracy(params, img_ds, "val") == np.mean(rounded == labels)

    report = (evaluate.intermediate_mae if capacity else evaluate.pseudo_report)(
        params, img_ds, "val")
    for entry, want in zip(report.entries, steps, strict=True):
        assert_close(entry.predicted, want)
    expected = [oracle.decompose(img_ds.task, b.classes) for b in bags]
    assert_close(report.mae, np.mean(np.abs(np.concatenate(expected) - np.concatenate(steps))))

    res = evaluate.permutation_sensitivity(params, img_ds, "val", k=3, seed=2)
    mses = []
    for pass_idx in range(3):
        rng = np.random.default_rng(np.random.SeedSequence((2, 13, pass_idx)))
        mses.append(np.mean((reference_outputs(params, img_ds, "val", rng)[0] - labels) ** 2))
    assert_close(res["mse"], mses)


def test_image_eval_embeds_each_distinct_split_image_once(img_ds, monkeypatch):
    """Every routine call embeds exactly the images its split uses, once,
    whatever its number of forward passes."""
    for split in ("val", "test"):
        used = np.unique([i for b in img_ds.splits[split] for i in b.img_idx])
        assert len(used) < len(img_ds.pools[split].labels)
        for family, capacity in (("gru", True), ("lstm", False), ("deepset", False)):
            params = small(family, capacity=capacity, input_dim=img_ds.feature_dim())
            report = evaluate.intermediate_mae if capacity else evaluate.pseudo_report
            for routine in (evaluate.evaluate_mse, evaluate.split_predictions, report,
                            lambda p, d, s: evaluate.permutation_sensitivity(p, d, s, k=5),
                            evaluate.rounded_accuracy):
                rows = record_forwards(monkeypatch, "embed")
                routine(params, img_ds, split)
                monkeypatch.undo()
                assert [len(x.data) for x in rows] == [len(used)]


def test_permutation_sensitivity_orders_are_pinned(monkeypatch):
    """The instance orders of the k passes, as bytes of the features fed to
    the model, are fixed by (seed, pass); this digest pins them. It is
    taken on one CPU, where batches start in batch order; with the helper
    the same batches are fed, costliest first."""
    ds = data.generate_dataset(data.DatasetSpec(
        task="WTri", set_size=(2, 5), counts=(120, 30, 30), seed=11, noise=0.1))
    fed = []

    def fake(params, feats):
        fed.append(b"".join(np.ascontiguousarray(x).tobytes() for x in feats))
        return SimpleNamespace(prediction=SimpleNamespace(data=np.zeros(len(feats[0]))),
                               intermediates=[])
    monkeypatch.setattr(models, "batch_forward", fake)
    helped = evaluate.permutation_sensitivity(small("gru"), ds, "val", k=3, seed=4)
    with_helper = sorted(fed)
    fed.clear()
    one_cpu(monkeypatch)
    res = evaluate.permutation_sensitivity(small("gru"), ds, "val", k=3, seed=4)
    assert res["mse"] == [440.0, 440.0, 440.0] and helped == res
    assert hashlib.sha256(b"".join(fed)).hexdigest() == \
        "4876dc887ee50e5945b7cafbafe5013b0871aae20b43a36bf965a808f6031bfc"
    assert sorted(fed) == with_helper


def test_permutation_sensitivity_groups_the_split_once(us_ds, monkeypatch):
    calls = []
    real = data.group_by_size
    monkeypatch.setattr(data, "group_by_size", lambda bags: calls.append(1) or real(bags))
    evaluate.permutation_sensitivity(small("gru"), us_ds, "val", k=4)
    assert len(calls) == 1


# -- intermediate values ----------------------------------------------------

def stub_forward(task, offset=0.0):
    """batch_forward stand-in that reads the classes back out of the one-hot
    features and emits the exact decomposition values plus an offset."""
    def fake(params, feats):
        classes = np.stack([np.argmax(f, axis=1) for f in feats], axis=1)
        nus = np.array([oracle.decompose(task, row) for row in classes], dtype=np.float64)
        nus += offset
        cols = [SimpleNamespace(data=nus[:, i]) for i in range(nus.shape[1])]
        return SimpleNamespace(prediction=SimpleNamespace(data=nus.sum(axis=1)),
                               intermediates=cols, latents=[], weights=None)
    return fake


def test_intermediate_mae_zero_for_exact_outputs(us_ds, monkeypatch):
    params = small("gru", capacity=True)
    monkeypatch.setattr(models, "batch_forward", stub_forward(us_ds.task))
    report = evaluate.intermediate_mae(params, us_ds, "val")
    assert report.kind == "capacity"
    assert report.mae == 0.0
    assert len(report.entries) == len(us_ds.splits["val"])
    assert report.entries[0].classes == us_ds.splits["val"][0].classes


def test_intermediate_mae_tracks_uniform_offset(us_ds, monkeypatch):
    params = small("gru", capacity=True)
    monkeypatch.setattr(models, "batch_forward", stub_forward(us_ds.task, offset=0.5))
    report = evaluate.intermediate_mae(params, us_ds, "val")
    assert report.mae == pytest.approx(0.5, rel=1e-12)


def test_intermediate_mae_sums_deltas_flat_in_bag_order(monkeypatch):
    """The MAE is bit for bit the mean of every entry's deltas, taken in bag
    order; irrational per-step values spread over six decades make the
    float sum depend on that order."""
    ds = data.generate_dataset(
        data.DatasetSpec(task="WTri", set_size=(3, 7, 12), counts=(20, 200, 20), seed=4))

    def fake(params, feats):
        cols = [SimpleNamespace(data=np.sqrt(np.argmax(f, axis=1) + 2.0) * 10.0 ** (i % 7 - 2))
                for i, f in enumerate(feats)]
        return SimpleNamespace(prediction=SimpleNamespace(data=sum(c.data for c in cols)),
                               intermediates=cols, latents=[], weights=None)
    monkeypatch.setattr(models, "batch_forward", fake)
    report = evaluate.intermediate_mae(small("gru", capacity=True), ds, "val")
    assert report.mae == float(np.mean([d for e in report.entries for d in e.deltas]))


def test_intermediate_mae_rejects_baseline(us_ds):
    with pytest.raises(ValueError, match="capacity"):
        evaluate.intermediate_mae(small("gru"), us_ds, "val")


@pytest.mark.parametrize("family", models.FAMILIES)
def test_pseudo_values_telescope(us_ds, family):
    params = small(family, seed=2)
    report = evaluate.pseudo_report(params, us_ds, "val")
    for bag, entry in zip(us_ds.splits["val"], report.entries, strict=True):
        assert entry.classes == bag.classes
        assert len(entry.predicted) == len(bag.classes)
        assert sum(entry.predicted) == pytest.approx(predict(params, bag), rel=1e-9, abs=1e-9)
        assert entry.expected == [float(v) for v in oracle.decompose(us_ds.task, bag.classes)]
        assert len(entry.deltas) == len(bag.classes)


def test_pseudo_single_instance():
    ds = data.generate_dataset(
        data.DatasetSpec(task="US", set_size=(1, 3), counts=(20, 30, 5), seed=8))
    params = small("lstm")
    report = evaluate.pseudo_report(params, ds, "val")
    singles = [(b, e) for b, e in zip(ds.splits["val"], report.entries) if b.size == 1]
    assert singles
    for bag, entry in singles:
        assert entry.predicted == [pytest.approx(predict(params, bag))]
        assert entry.deltas == [abs(bag.label - entry.predicted[0])]


def test_audit_scores_whole_batches_without_the_per_bag_oracle(mixed_ds, monkeypatch):
    bags = mixed_ds.splits["val"]
    want = [[float(v) for v in oracle.decompose(mixed_ds.task, b.classes)] for b in bags]

    def per_bag(*args):
        raise AssertionError("the audit called the per-bag oracle")
    monkeypatch.setattr(oracle, "decompose", per_bag)
    monkeypatch.setattr(oracle, "eval_task", per_bag)
    capacity = evaluate.intermediate_mae(small("gru", capacity=True), mixed_ds, "val")
    pseudo = evaluate.pseudo_report(small("deepset"), mixed_ds, "val")
    for report in (capacity, pseudo):
        assert [e.expected for e in report.entries] == want
        assert [e.classes for e in report.entries] == [b.classes for b in bags]


def test_pseudo_rejections(us_ds):
    with pytest.raises(ValueError, match="capacity"):
        evaluate.pseudo_report(small("gru", capacity=True), us_ds, "val")
    empty = data.Dataset(us_ds.spec, us_ds.task, dict(us_ds.splits, val=data.Split({})))
    with pytest.raises(ValueError, match="empty"):
        evaluate.pseudo_report(small("gru"), empty, "val")


@pytest.mark.parametrize("family", models.FAMILIES)
def test_pseudo_report_matches_per_bag(us_ds, family):
    """Reference: the full forward pass on each prefix of a bag, as a batch
    of one; a bag's i-th pseudo value is prefix i's prediction minus
    prefix i-1's."""
    params = small(family, seed=1)
    report = evaluate.pseudo_report(params, us_ds, "val")
    assert report.kind == "pseudo"
    deltas = []
    for i in (0, 7, 31):
        bag = us_ds.splits["val"][i]
        feats = bag_features(bag)
        prefix = [float(models.batch_forward(params, feats[:k + 1]).prediction.data[0])
                  for k in range(len(feats))]
        expected = np.diff(prefix, prepend=0.0)
        assert report.entries[i].predicted == pytest.approx(expected, rel=1e-9, abs=1e-9)
    for e in report.entries:
        deltas.extend(e.deltas)
    assert report.mae == pytest.approx(float(np.mean(deltas)), rel=1e-12)


def test_intermediate_jsonl_bytes_are_pinned(tmp_path):
    """Digest of intermediates.jsonl as written before it went through a
    temp file; the on-disk bytes must not change."""
    report = evaluate.IntermediateReport(
        [evaluate.IntermediateEntry([1, 2], [1.0, 2.0], [0.5, 1 / 3])], 0.25, "pseudo")
    evaluate.write_intermediate_jsonl(tmp_path / "i.jsonl", report)
    assert hashlib.sha256((tmp_path / "i.jsonl").read_bytes()).hexdigest() == \
        "862011144502161bc8fede2a24889466bf3fc77bf37db181ca1c032e16cf4f35"


def test_pseudo_report_rejects_capacity(us_ds):
    with pytest.raises(ValueError):
        evaluate.pseudo_report(small("gru", capacity=True), us_ds, "val")


# -- order sensitivity ------------------------------------------------------

def test_permutation_sensitivity_sum_pool_invariant(us_ds):
    res = evaluate.permutation_sensitivity(small("deepset"), us_ds, "val", k=4, seed=9)
    assert len(res["mse"]) == 4
    assert res["relative_spread"] <= 1e-9
    assert res["spread"] <= 1e-9 * max(1.0, res["mean"])


def test_permutation_sensitivity_detects_order_dependence(us_ds):
    res = evaluate.permutation_sensitivity(small("gru"), us_ds, "val", k=3, seed=9)
    assert res["spread"] > 0.0
    assert min(res["mse"]) <= res["median"] <= max(res["mse"])


def test_permutation_sensitivity_deterministic(us_ds):
    params = small("rnn")
    a = evaluate.permutation_sensitivity(params, us_ds, "val", k=3, seed=5)
    b = evaluate.permutation_sensitivity(params, us_ds, "val", k=3, seed=5)
    assert a == b
    c = evaluate.permutation_sensitivity(params, us_ds, "val", k=3, seed=6)
    assert c["mse"] != a["mse"]


def test_permutation_sensitivity_needs_two_passes(us_ds):
    with pytest.raises(ValueError, match="k >= 2"):
        evaluate.permutation_sensitivity(small("gru"), us_ds, "val", k=1)


# -- rounded accuracy -------------------------------------------------------

def test_rounded_accuracy_boundaries(us_ds, monkeypatch):
    labels = np.array([b.label for b in us_ds.splits["val"]], dtype=np.float64)
    assert np.all(labels >= 0)
    params = small("gru")

    def patched(values):
        monkeypatch.setattr(evaluate, "split_predictions", lambda p, d, s: values)
        return evaluate.rounded_accuracy(params, us_ds, "val")

    assert patched(labels + 0.49) == 1.0
    assert patched(labels - 0.49) == 1.0
    # ties round away from zero, so +0.5 always lands one integer high
    assert patched(labels + 0.51) == 0.0
    assert patched(labels + 0.5) == 0.0


def test_rounded_accuracy_constant_predictor(us_ds):
    params = constant_model(0.4)
    labels = np.array([b.label for b in us_ds.splits["val"]], dtype=np.float64)
    expected = float(np.mean(labels == 0.0))
    assert evaluate.rounded_accuracy(params, us_ds, "val") == pytest.approx(expected)


# -- the split iterator: the calling thread and one helper -----------------

def one_cpu(monkeypatch):
    monkeypatch.setattr(evaluate.os, "sched_getaffinity", lambda pid: {0})


def every_routine(ds):
    cap = small("gru", capacity=True, input_dim=ds.feature_dim())
    gru = small("gru", input_dim=ds.feature_dim())
    deepset = small("deepset", input_dim=ds.feature_dim())
    return {
        "mse_and_penalty": lambda: evaluate.split_mse_and_penalty(cap, ds, "val", 0.5, 0.0),
        "predictions": lambda: evaluate.split_predictions(gru, ds, "val"),
        "intermediate_mae": lambda: evaluate.intermediate_mae(cap, ds, "val"),
        "pseudo_gru": lambda: evaluate.pseudo_report(gru, ds, "val"),
        "pseudo_deepset": lambda: evaluate.pseudo_report(deepset, ds, "val"),
        "permsens": lambda: evaluate.permutation_sensitivity(gru, ds, "val", k=3, seed=1),
        "accuracy": lambda: evaluate.rounded_accuracy(cap, ds, "val"),
    }


def record_threads(monkeypatch) -> set:
    """Wrap models.batch_forward; returns the set of threads that call it."""
    seen = set()
    real = models.batch_forward

    def recording(params, feats, **kwargs):
        seen.add(threading.get_ident())
        return real(params, feats, **kwargs)
    monkeypatch.setattr(models, "batch_forward", recording)
    return seen


@pytest.mark.parametrize("mode", ["symbolic", "image"])
def test_the_helper_thread_changes_no_bit_of_any_figure(monkeypatch, mode):
    """Sizes 2, 3 and 5 cut into batches of 7 give size groups of odd and
    even batch counts; every routine reports the same bits with the helper
    as with every batch on the calling thread, and leaves no thread behind."""
    if mode == "image":
        ds = image_dataset(set_size=(2, 3, 5), counts=(30, 61, 30))
    else:
        ds = data.generate_dataset(data.DatasetSpec(
            task="WTri", set_size=(2, 3, 5), counts=(30, 61, 30), seed=8, noise=0.1))
    monkeypatch.setattr(evaluate, "EVAL_BATCH", 7)
    threads = record_threads(monkeypatch)
    before = set(threading.enumerate())
    with_helper = {}
    for name, run in every_routine(ds).items():
        with_helper[name] = pickle.dumps(run())
        assert set(threading.enumerate()) == before
    assert threads - {threading.get_ident()}
    one_cpu(monkeypatch)
    threads.clear()
    inline = {name: pickle.dumps(run()) for name, run in every_routine(ds).items()}
    assert threads == {threading.get_ident()}
    assert with_helper == inline
    assert pickle.loads(inline["mse_and_penalty"])[1] > 0


def symbolic_batches(ds, split):
    """Feature bytes of each `split_batches` batch of a noise-free symbolic
    split and its cost (rows x set size), in batch order."""
    out = []
    for rows, classes, img_idx, _ in data.group_by_size(ds.splits[split]).values():
        for s in range(0, len(rows), evaluate.EVAL_BATCH):
            sl = slice(s, s + evaluate.EVAL_BATCH)
            feats = data.position_features(classes[sl], img_idx[sl], "symbolic")
            out.append((b"".join(x.tobytes() for x in feats), classes[sl].size))
    return out


def record_starts(monkeypatch, barrier=None) -> list:
    """Wrap models.batch_forward; returns the feature bytes of each call in
    the order the calls begin. With a barrier, the first two calls wait
    there, so both threads have begun their first batch before either
    can take a third."""
    started, lock = [], threading.Lock()
    real = models.batch_forward

    def recording(params, feats, **kwargs):
        with lock:
            started.append(b"".join(x.tobytes() for x in feats))
            first_two = len(started) <= 2
        if barrier is not None and first_two:
            barrier.wait(timeout=10)
        return real(params, feats, **kwargs)
    monkeypatch.setattr(models, "batch_forward", recording)
    return started


def test_the_two_threads_start_the_costliest_batches_first(monkeypatch):
    """Sizes 2, 3 and 5 in batches of 7. The val split's costliest batch is
    its full size-5 one; next come two full size-3 batches at equal cost,
    both above the size-5 remainder. So the size-5 batch and the first
    size-3 batch start first. On one CPU every batch starts in batch
    order."""
    ds = data.generate_dataset(data.DatasetSpec(
        task="WTri", set_size=(2, 3, 5), counts=(30, 40, 30), seed=3))
    monkeypatch.setattr(evaluate, "EVAL_BATCH", 7)
    batches = symbolic_batches(ds, "val")
    assert [cost for _, cost in batches] == [14, 14, 21, 21, 9, 35, 10]

    monkeypatch.setattr(evaluate.os, "sched_getaffinity", lambda pid: {0, 1})
    started = record_starts(monkeypatch, threading.Barrier(2))
    evaluate.evaluate_mse(small("gru"), ds, "val")
    assert sorted(started) == sorted(key for key, _ in batches)
    assert set(started[:2]) == {batches[5][0], batches[2][0]}

    monkeypatch.undo()
    monkeypatch.setattr(evaluate, "EVAL_BATCH", 7)
    one_cpu(monkeypatch)
    started = record_starts(monkeypatch)
    evaluate.evaluate_mse(small("gru"), ds, "val")
    assert started == [key for key, _ in batches]


@pytest.mark.parametrize("count", [0, 1, 2, 7, 8])
def test_in_order_yields_results_in_item_order(monkeypatch, count):
    """Later items cost more and start first: the helper takes the last
    item and holds it until a later-started one has finished. Results still
    come in item order."""
    monkeypatch.setattr(evaluate.os, "sched_getaffinity", lambda pid: {0, 1})
    threads, finished = {}, []
    one_finished = threading.Event()

    def work(i):
        threads[i] = threading.get_ident()
        if i == count - 1 and count > 1:
            assert one_finished.wait(timeout=10)
        finished.append(i)
        one_finished.set()
        return i * i
    got = list(evaluate._in_order(lambda i: lambda: work(i), [(i,) for i in range(count)],
                                  lambda i: i))
    assert got == [i * i for i in range(count)]
    assert sorted(finished) == list(range(count))
    if count > 1:
        assert threads[count - 1] != threading.get_ident() and finished[0] != count - 1


def test_in_order_runs_every_item_once_under_fast_thread_switching(monkeypatch):
    monkeypatch.setattr(evaluate.os, "sched_getaffinity", lambda pid: {0, 1})
    ran = []

    def work(i):
        ran.append(i)
        return -i
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = list(evaluate._in_order(lambda i: lambda: work(i), [(i,) for i in range(3000)],
                                      lambda i: i % 7))
    finally:
        sys.setswitchinterval(interval)
    assert got == [-i for i in range(3000)] and sorted(ran) == list(range(3000))


class Boom(Exception):
    pass


@pytest.mark.parametrize("where", ["helper", "caller"])
def test_a_batch_exception_reaches_the_caller_with_its_type(us_ds, monkeypatch, where):
    """The helper takes the costliest batch and the calling thread the next
    costliest; a batch run by `where` raises, while the other thread's
    batches sleep."""
    monkeypatch.setattr(evaluate, "EVAL_BATCH", 7)
    real = models.batch_forward
    main = threading.get_ident()

    def forward(params, feats, **kwargs):
        if (threading.get_ident() == main) == (where == "caller"):
            raise Boom(where)
        time.sleep(0.05)
        return real(params, feats, **kwargs)
    monkeypatch.setattr(models, "batch_forward", forward)
    before = set(threading.enumerate())
    with pytest.raises(Boom, match=where):
        evaluate.evaluate_mse(small("gru"), us_ds, "val")
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("where", ["helper", "caller"])
def test_no_batch_starts_after_a_failure(us_ds, monkeypatch, where):
    """Both threads begin a batch; then the one run by `where` raises while
    the other's is still in work. That batch finishes, and neither thread
    starts another of the nine."""
    monkeypatch.setattr(evaluate, "EVAL_BATCH", 7)
    monkeypatch.setattr(evaluate.os, "sched_getaffinity", lambda pid: {0, 1})
    real = models.batch_forward
    main = threading.get_ident()
    both_begun, failed = threading.Barrier(2), threading.Event()
    starts_after_failure = []

    def forward(params, feats, **kwargs):
        starts_after_failure.append(failed.is_set())
        if len(starts_after_failure) <= 2:
            both_begun.wait(timeout=10)
        if (threading.get_ident() == main) == (where == "caller"):
            failed.set()
            raise Boom(where)
        time.sleep(0.05)
        return real(params, feats, **kwargs)
    monkeypatch.setattr(models, "batch_forward", forward)
    before = set(threading.enumerate())
    with pytest.raises(Boom, match=where):
        evaluate.evaluate_mse(small("gru"), us_ds, "val")
    assert set(threading.enumerate()) == before
    assert starts_after_failure == [False, False]


def test_one_cpu_starts_no_thread(us_ds, monkeypatch):
    one_cpu(monkeypatch)
    monkeypatch.setattr(evaluate, "EVAL_BATCH", 7)

    def start(thread):
        raise AssertionError("a thread started")
    monkeypatch.setattr(threading.Thread, "start", start)
    for run in every_routine(us_ds).values():
        run()
