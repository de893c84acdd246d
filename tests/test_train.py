"""Training loop: loss arithmetic, determinism, divergence handling,
aggregation, and emitted files."""

import hashlib

import numpy as np
import pytest

from capnet import autodiff as ad
from capnet import data, fileio, models, train


def tiny_dataset(task="US", n=3, counts=(400, 80, 80), seed=0, **kw):
    return data.generate_dataset(data.DatasetSpec(task=task, set_size=n,
                                                  counts=counts, seed=seed, **kw))


def tiny_config(ds_name="mem", family="deepset", capacity=False, **kw):
    base = dict(batch_size=100, epochs=2, seed=0)
    base.update(kw)
    model = models.ModelSpec(family=family, capacity=capacity,
                             embed_dim=16, hidden_dim=8, enc_layers=2, dec_layers=2)
    return train.RunConfig(dataset=ds_name, model=model, **base)


def test_batch_loss_hand_cases(monkeypatch):
    def loss(prediction, intermediates, label, lam, tau=1.0):
        out = models.BatchOutput(ad.Tensor(np.array([prediction])),
                                 [ad.Tensor(np.array([v])) for v in intermediates], [])
        monkeypatch.setattr(models, "batch_forward", lambda params, feats: out)
        return float(train.batch_loss(None, None, np.array([label]), lam, tau)[0].data)

    assert loss(3.0, [0.5, 1.5], 5.0, 0.0) == pytest.approx(4.0)
    assert loss(3.0, [0.5, 1.5], 3.0, 2.0) == pytest.approx(2 * 0.25)
    assert loss(2.0, [0.2, 0.9], 2.0, 7.0) == 0.0
    # penalty ignores models without intermediates
    assert loss(2.0, [], 1.0, 50.0) == pytest.approx(1.0)


def test_batch_loss_decomposes_exactly():
    ds = tiny_dataset(counts=(120, 20, 20))
    params = models.init_model(
        models.ModelSpec(family="gru", capacity=True, embed_dim=16, hidden_dim=8), 0)
    groups = data.group_by_size(ds.splits["train"])
    idx, classes, img_idx, labels = groups[3]
    feats = data.position_features(classes[:50], img_idx[:50], "symbolic")
    lam, tau = 2.5, 0.2
    loss, mse, pen = train.batch_loss(params, feats, labels[:50], lam, tau)
    assert abs(float(loss.data) - (mse + lam * pen)) <= 1e-12
    loss0, mse0, pen0 = train.batch_loss(params, feats, labels[:50], 0.0, tau)
    assert pen0 == 0.0
    assert float(loss0.data) == pytest.approx(mse0, rel=1e-15)


def test_training_history_is_bit_for_bit_deterministic(tmp_path):
    ds = tiny_dataset()
    cfg = tiny_config(family="gru", capacity=True, epochs=3)
    a = train.train_run(cfg, out_dir=tmp_path / "a", dataset=ds)
    b = train.train_run(cfg, out_dir=tmp_path / "b", dataset=ds)
    assert [(r.epoch, r.split, r.mse, r.penalty) for r in a.history] == \
        [(r.epoch, r.split, r.mse, r.penalty) for r in b.history]
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
        (tmp_path / "b" / "metrics.csv").read_bytes()
    # deterministic parameters too
    sa, sb = a.params.state_dict(), b.params.state_dict()
    assert all(np.array_equal(sa[k], sb[k]) for k in sa)


def test_history_rows_are_ordered_and_finite():
    ds = tiny_dataset()
    res = train.train_run(tiny_config(epochs=3), dataset=ds)
    keys = [(r.epoch, r.split) for r in res.history]
    assert keys == sorted(keys)
    assert keys == [(e, s) for e in (1, 2, 3) for s in ("train", "val")]
    assert all(np.isfinite(r.mse) and r.mse >= 0 for r in res.history)


def test_constant_labels_are_fit_within_five_epochs():
    bags = {
        split: [data.Bag([2, 5, 7], 3.0) for _ in range(count)]
        for split, count in (("train", 2000), ("val", 40), ("test", 40))
    }
    spec = data.DatasetSpec(task="UC", set_size=3, counts=(2000, 40, 40), seed=0)
    ds = data.Dataset(spec, __import__("capnet").oracle.TaskSpec("UC"), bags)
    res = train.train_run(tiny_config(epochs=5, batch_size=20), dataset=ds)
    assert res.final_val_mse < 0.1


def test_strong_regularization_caps_intermediates():
    ds = tiny_dataset(task="UC", n=4, counts=(2000, 200, 200))
    cfg = tiny_config(family="gru", capacity=True, epochs=12, batch_size=100,
                      reg_lambda=100.0, reg_threshold=1.0)
    res = train.train_run(cfg, dataset=ds)
    bags = ds.splits["val"][:100]
    feats = data.position_features(np.array([b.classes for b in bags]),
                                   np.array([b.img_idx for b in bags]), "symbolic")
    out = models.batch_forward(res.params, feats)
    assert np.mean(np.abs([v.data for v in out.intermediates])) <= 1.1


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_divergent_run_aborts_with_batch_id():
    ds = tiny_dataset(counts=(200, 40, 40))
    # a label beyond float range overflows the squared error to inf
    ds.splits["train"][7].label = 1e200
    cfg = tiny_config(epochs=3, batch_size=50)
    with pytest.raises(train.TrainingDiverged, match=r"epoch \d+ batch \d+"):
        train.train_run(cfg, dataset=ds)


def test_batch_size_cannot_exceed_train_split():
    ds = tiny_dataset(counts=(50, 10, 10))
    with pytest.raises(ValueError, match="batch_size"):
        train.train_run(tiny_config(batch_size=200), dataset=ds)


def test_config_validation_and_json_round_trip():
    cfg = tiny_config(reg_lambda=0.5, epochs=7)
    again = train.RunConfig.from_json(cfg.to_json())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()
    with pytest.raises(ValueError):
        tiny_config(reg_lambda=-1.0)
    assert tiny_config(seed=1).config_hash() != cfg.config_hash()


def test_instance_shuffling_flag_changes_batches_only_when_sizes_allow():
    ds = tiny_dataset(n=4, counts=(100, 20, 20))
    groups = data.group_by_size(ds.splits["train"])
    cfg_on = tiny_config(shuffle_instances_per_epoch=True)
    cfg_off = tiny_config(shuffle_instances_per_epoch=False)
    on = train._epoch_batches(groups, None, cfg_on, epoch=1)
    off = train._epoch_batches(groups, None, cfg_off, epoch=1)
    flat_on = np.concatenate([b[0] for b in on])
    flat_off = np.concatenate([b[0] for b in off])
    # same bags, different within-bag order for at least one bag
    assert np.array_equal(np.sort(flat_on, axis=1), np.sort(flat_off, axis=1)) is False \
        or not np.array_equal(flat_on, flat_off)
    # multisets per row agree: shuffling never moves instances across bags
    ref = {tuple(sorted(row)) for row in flat_on.tolist()}
    other = {tuple(sorted(row)) for row in flat_off.tolist()}
    assert ref == other


def test_epoch_batches_are_pinned():
    """Bag order, instance orders and noise rows of an epoch's batches are
    fixed by (seed, epoch); this digest of their bytes pins them."""
    ds = tiny_dataset(task="WTri", n=(2, 5), counts=(120, 30, 30), seed=11, noise=0.1)
    cfg = train.RunConfig(dataset="mem", model=models.ModelSpec("gru"), batch_size=25, seed=3)
    digest = hashlib.sha256()
    for batch in train._epoch_batches(data.group_by_size(ds.splits["train"]),
                                      data.split_noise(ds, "train"), cfg, 2):
        for arr in batch:
            digest.update(np.ascontiguousarray(arr).tobytes())
    assert digest.hexdigest() == \
        "43ca288590c3f10eb3218c112d3c97adac2c11fc42e040ed48535180489384d3"


def test_checkpoint_round_trip_reproduces_predictions(tmp_path):
    ds = tiny_dataset()
    res = train.train_run(tiny_config(family="lstm", capacity=True),
                          out_dir=tmp_path, dataset=ds)
    params = train.load_params(tmp_path / "checkpoint.capn")
    bag = ds.splits["test"][0]
    feats = data.position_features(np.array([bag.classes]), np.array([bag.img_idx]), "symbolic")
    assert models.batch_forward(params, feats).prediction.data[0] == \
        pytest.approx(models.batch_forward(res.params, feats).prediction.data[0], rel=1e-15)
    assert params.spec == res.params.spec


def test_metrics_csv_format(tmp_path):
    ds = tiny_dataset()
    train.train_run(tiny_config(epochs=2), out_dir=tmp_path, dataset=ds)
    lines = (tmp_path / "metrics.csv").read_text().splitlines()
    assert lines[0] == "epoch,split,mse,penalty"
    assert len(lines) == 1 + 2 * 2
    for line in lines[1:]:
        epoch, split, mse, pen = line.split(",")
        assert split in ("train", "val")
        assert np.isfinite(float(mse)) and np.isfinite(float(pen))
    timing = (tmp_path / "timing.csv").read_text().splitlines()
    assert timing[0] == "epoch,split,seconds"


def pinned_result(out_dir):
    spec = models.ModelSpec("gru", capacity=True, input_dim=10, embed_dim=8, hidden_dim=6,
                            enc_layers=2, dec_layers=2)
    cfg = train.RunConfig(dataset="/data/wtri", model=spec, epochs=2, seed=0)
    history = [train.MetricsRecord(1, "train", 2.5, 0.125, 0.5),
               train.MetricsRecord(1, "val", 1.0 / 3, 0.0, 0.25),
               train.MetricsRecord(2, "train", 0.1, 1e-17, 1.0 / 7),
               train.MetricsRecord(2, "val", 123456.789, 2.0, 3.0)]
    return train.TrainResult(cfg, history, models.init_model(spec, 0), 123456.789, 2.0,
                             out_dir=str(out_dir))


def test_run_output_bytes_are_pinned(tmp_path):
    """Digests of a run's files as written before they went through temp
    files; the on-disk bytes must not change."""
    train.write_outputs(pinned_result(tmp_path))
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
               for f in ("metrics.csv", "timing.csv", "checkpoint.capn", "checkpoint.json")}
    assert digests == {
        "metrics.csv": "e5768f02fb643ef678b274fa2ce9fe8717c682050eca2329077673d61f90cc93",
        "timing.csv": "d00251a1af671bfbdefe02f3a68a523516046d5ffe83ac4e52df0480d07522f4",
        "checkpoint.capn": "4bfe86268059bb6e6161d8ca49a84fba659254098f33947ded4e9a3011b257a5",
        "checkpoint.json": "687c375d0dd95102dca40eefd74cf3e6fb0b03c1d1de4973c0e8db340022374e",
    }


def test_failed_write_keeps_previous_run_files(tmp_path, monkeypatch):
    """A write that fails on the last of a run's four files changes none of
    them and leaves no temp file."""
    ds = tiny_dataset(counts=(100, 20, 20))
    train.train_run(tiny_config(epochs=1, batch_size=50), out_dir=tmp_path, dataset=ds)
    names = ("metrics.csv", "timing.csv", "checkpoint.capn", "checkpoint.json")
    before = {f: (tmp_path / f).read_bytes() for f in names}

    def refuse(path, *args, **kwargs):
        if str(path).endswith("checkpoint.json.tmp"):
            raise OSError("disk full")
        return open(path, *args, **kwargs)
    monkeypatch.setattr(fileio, "open", refuse, raising=False)
    with pytest.raises(OSError, match="disk full"):
        train.train_run(tiny_config(epochs=2, batch_size=50, seed=1), out_dir=tmp_path,
                        dataset=ds)
    monkeypatch.undo()
    assert {f: (tmp_path / f).read_bytes() for f in names} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)


def test_multi_seed_aggregates():
    ds = tiny_dataset(counts=(150, 30, 30))
    cfg = tiny_config(epochs=1, batch_size=50)
    single = train.multi_seed(cfg, [4], dataset=ds)
    assert single["val_mse"]["mean"] == single["val_mse"]["median"] == \
        single["val_mse"]["per_seed"][0]
    assert single["val_mse"]["stdev"] == 0.0

    repeated = train.multi_seed(cfg, [4, 4], dataset=ds)
    assert repeated["val_mse"]["stdev"] == 0.0
    assert repeated["test_mse"]["per_seed"][0] == repeated["test_mse"]["per_seed"][1]

    three = train.multi_seed(cfg, [0, 1, 2], dataset=ds)
    assert len(three["runs"]) == 3
    assert three["val_mse"]["median"] in three["val_mse"]["per_seed"]
    with pytest.raises(ValueError):
        train.multi_seed(cfg, [], dataset=ds)
