"""Checks for the measurement routines in capnet.evaluate.

Split-level numbers are validated against naive per-bag loops written here,
and the intermediate-value comparisons against stubbed forwards whose outputs
are known by construction.
"""

import hashlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from capnet import data, evaluate, models, oracle, train


def small(family, capacity=False, seed=0):
    spec = models.ModelSpec(family, capacity=capacity, input_dim=10,
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
    ds.splits["val"] = []
    with pytest.raises(ValueError, match="empty"):
        evaluate.evaluate_mse(small("deepset"), ds, "val")


# -- forward-only evaluation -------------------------------------------------

def record_forwards(monkeypatch):
    """Wrap models.batch_forward; returns the list its outputs are appended to."""
    seen = []
    real = models.batch_forward

    def recording(params, feats):
        out = real(params, feats)
        seen.append(out)
        return out
    monkeypatch.setattr(models, "batch_forward", recording)
    return seen


@pytest.mark.parametrize("family,capacity", [("gru", True), ("lstm", False), ("attention", False)])
def test_every_eval_routine_is_forward_only(us_ds, monkeypatch, family, capacity):
    params = small(family, capacity=capacity)
    seen = record_forwards(monkeypatch)
    routines = [
        lambda: evaluate.evaluate_mse(params, us_ds, "val"),
        lambda: evaluate.split_mse_and_penalty(params, us_ds, "val", 0.5, 0.1),
        lambda: evaluate.split_predictions(params, us_ds, "val"),
        lambda: evaluate.permutation_sensitivity(params, us_ds, "val", k=2),
        lambda: evaluate.rounded_accuracy(params, us_ds, "val"),
    ]
    if capacity:
        routines.append(lambda: evaluate.intermediate_mae(params, us_ds, "val"))
    else:
        routines.append(lambda: evaluate.pseudo_report(params, us_ds, "val"))
    for run in routines:
        seen.clear()
        run()
        assert seen
        for out in seen:
            assert not out.prediction.requires_grad and out.prediction._parents == ()
            assert not any(v.requires_grad for v in out.intermediates)
        assert all(t.grad is None and t.requires_grad for _, t in params.items())


def test_train_run_val_eval_is_forward_only(monkeypatch):
    ds = data.generate_dataset(
        data.DatasetSpec(task="US", set_size=3, counts=(200, 40, 40), seed=2))
    real_eval = evaluate.split_mse_and_penalty
    seen = record_forwards(monkeypatch)
    tracked = {"train": [], "eval": []}

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
    train.train_run(cfg, dataset=ds)
    # training keeps its graph; the per-epoch val eval builds none
    assert len(tracked["train"]) == 8 and all(tracked["train"])
    assert len(tracked["eval"]) == 2 and not any(tracked["eval"])
    # with no epochs, the final val eval is the only pass and leaves no gradient
    res = train.train_run(replace(cfg, epochs=0), dataset=ds)
    assert all(t.grad is None for _, t in res.params.items())


def test_permutation_sensitivity_orders_are_pinned(monkeypatch):
    """The instance orders of the k passes, as bytes of the features fed to
    the model, are fixed by (seed, pass); this digest pins them."""
    ds = data.generate_dataset(data.DatasetSpec(
        task="WTri", set_size=(2, 5), counts=(120, 30, 30), seed=11, noise=0.1))
    digest = hashlib.sha256()

    def fake(params, feats):
        for x in feats:
            digest.update(np.ascontiguousarray(x).tobytes())
        return SimpleNamespace(prediction=SimpleNamespace(data=np.zeros(len(feats[0]))),
                               intermediates=[])
    monkeypatch.setattr(models, "batch_forward", fake)
    res = evaluate.permutation_sensitivity(small("gru"), ds, "val", k=3, seed=4)
    assert res["mse"] == [440.0, 440.0, 440.0]
    assert digest.hexdigest() == \
        "4876dc887ee50e5945b7cafbafe5013b0871aae20b43a36bf965a808f6031bfc"


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


def test_pseudo_rejections(us_ds):
    with pytest.raises(ValueError, match="capacity"):
        evaluate.pseudo_report(small("gru", capacity=True), us_ds, "val")
    empty = data.Dataset(us_ds.spec, us_ds.task, dict(us_ds.splits, val=[]))
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
