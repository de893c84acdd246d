"""End-to-end checks of the command line interface, run in process."""

import csv
import hashlib
import json
import os

import numpy as np
import pytest

from capnet import autodiff, cli, data, models, train
from test_data import make_idx_images, make_idx_labels


def write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f)
    return str(path)


SMALL_MODEL = {"family": "gru", "capacity": True,
               "embed_dim": 8, "hidden_dim": 6, "enc_layers": 2, "dec_layers": 2}


def dataset_dir(tmp_path, name="ds", task="US", counts=(200, 40, 40), size=3, seed=1):
    cfg = write_json(tmp_path / f"{name}.json",
                     {"task": task, "set_size": size, "counts": list(counts), "seed": seed})
    out = str(tmp_path / name)
    assert cli.main(["generate", "--config", cfg, "--out", out]) == 0
    return out


def train_config(tmp_path, ds_path, name="run", model=None, **overrides):
    obj = {"dataset": ds_path, "model": dict(model or SMALL_MODEL),
           "batch_size": 50, "epochs": 2, "seed": 0}
    obj.update(overrides)
    return write_json(tmp_path / f"{name}.json", obj)


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


# -- generate ---------------------------------------------------------------

def test_generate_writes_loadable_dataset(tmp_path, capsys):
    out = dataset_dir(tmp_path)
    assert os.path.exists(os.path.join(out, "manifest.json"))
    ds = data.load_dataset(out)
    assert len(ds.splits["train"]) == 200
    text = capsys.readouterr().out
    assert "train: 200 bags" in text


def test_generate_deterministic(tmp_path):
    a = dataset_dir(tmp_path, "a", seed=5)
    b = dataset_dir(tmp_path, "b", seed=5)
    for fname in ("train.jsonl", "val.jsonl", "test.jsonl"):
        with open(os.path.join(a, fname), "rb") as fa, open(os.path.join(b, fname), "rb") as fb:
            assert fa.read() == fb.read()


def test_generate_rejects_bad_config(tmp_path, capsys):
    cfg = write_json(tmp_path / "bad.json", {"task": "XX", "set_size": 3})
    assert cli.main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli.main(["generate", "--config", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "o")]) == 2
    cfg2 = write_json(tmp_path / "extra.json", {"task": "US", "bogus_key": 1})
    assert cli.main(["generate", "--config", cfg2, "--out", str(tmp_path / "o")]) == 2


def image_config(tmp_path, windows, pool_dir="images"):
    """Dataset config over one 60-image IDX pair; windows maps split -> (offset, count)."""
    root = tmp_path / pool_dir
    root.mkdir()
    ipath, lpath = root / "train-images-idx3-ubyte", root / "train-labels-idx1-ubyte"
    pixels = np.random.default_rng(0).integers(0, 256, size=(60, 2, 2))
    ipath.write_bytes(make_idx_images(pixels))
    lpath.write_bytes(make_idx_labels(np.arange(60) % 10))
    pools = {s: {"images": str(ipath), "labels": str(lpath), "offset": o, "count": c}
             for s, (o, c) in windows.items()}
    return write_json(tmp_path / "image.json", {
        "task": "US", "mode": "image", "set_size": 3, "counts": [30, 10, 10], "seed": 1,
        "pools": pools})


def test_generate_image_pools_under_images_dir_round_trip(tmp_path):
    cfg = image_config(tmp_path, {"train": (0, 30), "val": (30, 15), "test": (45, 15)})
    out = str(tmp_path / "ds")
    assert cli.main(["generate", "--config", cfg, "--out", out]) == 0
    ds = data.load_dataset(out)
    assert ds.pools["val"].offset == 30 and len(ds.pools["val"].images) == 15
    assert ds.pools["val"].labels_source.endswith("train-labels-idx1-ubyte")
    assert [b.img_idx for b in ds.splits["test"]] == \
        [b.img_idx for b in data.generate_dataset(ds.spec, pools=ds.pools).splits["test"]]


def test_generate_rejects_overlapping_pool_windows(tmp_path, capsys):
    cfg = image_config(tmp_path, {"train": (0, 30), "val": (10, 20), "test": (45, 15)})
    out = str(tmp_path / "ds")
    assert cli.main(["generate", "--config", cfg, "--out", out]) == 2
    assert "used by both train and val" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "manifest.json"))


# -- train ------------------------------------------------------------------

def test_train_outputs_and_reproducibility(tmp_path):
    ds = dataset_dir(tmp_path)
    cfg = train_config(tmp_path, ds)
    out1, out2 = str(tmp_path / "r1"), str(tmp_path / "r2")
    assert cli.main(["train", "--config", cfg, "--out", out1]) == 0
    for fname in ("metrics.csv", "timing.csv", "checkpoint.capn",
                  "checkpoint.json", "experiment.json"):
        assert os.path.exists(os.path.join(out1, fname)), fname
    rows = read_csv(os.path.join(out1, "metrics.csv"))
    assert rows[0] == ["epoch", "split", "mse", "penalty"]
    assert len(rows) == 1 + 2 * 2  # header + (train, val) x epochs

    assert cli.main(["train", "--config", cfg, "--out", out2]) == 0
    with open(os.path.join(out1, "metrics.csv"), "rb") as f1, \
         open(os.path.join(out2, "metrics.csv"), "rb") as f2:
        assert f1.read() == f2.read()


def test_train_seed_override(tmp_path):
    ds = dataset_dir(tmp_path)
    cfg = train_config(tmp_path, ds)
    out = str(tmp_path / "seeded")
    assert cli.main(["train", "--config", cfg, "--out", out, "--seed", "7"]) == 0
    with open(os.path.join(out, "checkpoint.json")) as f:
        assert json.load(f)["seed"] == 7
    with open(os.path.join(out, "experiment.json")) as f:
        manifest = json.load(f)
    assert manifest["seeds"] == [7]
    assert manifest["dataset_manifest"].endswith("manifest.json")


def test_train_missing_dataset(tmp_path, capsys):
    cfg = train_config(tmp_path, str(tmp_path / "nowhere"))
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "dataset not found" in capsys.readouterr().err


def test_train_rejects_penalty_on_baseline(tmp_path, capsys):
    ds = dataset_dir(tmp_path)
    model = dict(SMALL_MODEL, capacity=False)
    cfg = train_config(tmp_path, ds, model=model, reg_lambda=1.0)
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "capacity" in capsys.readouterr().err


def test_train_diverged_exit_code(tmp_path, monkeypatch, capsys):
    ds = dataset_dir(tmp_path)
    cfg = train_config(tmp_path, ds)

    def boom(config, out_dir=None, dataset=None):
        raise train.TrainingDiverged("non-finite loss at epoch 1 batch 0")

    monkeypatch.setattr(train, "train_run", boom)
    assert cli.main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 3
    assert "run failed" in capsys.readouterr().err


def test_runtime_failure_exit_code(tmp_path):
    ds = dataset_dir(tmp_path)
    cfg = train_config(tmp_path, ds)
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    assert cli.main(["train", "--config", cfg, "--out", str(blocker)]) == 3


def test_experiment_manifest_and_csv_bytes_are_pinned(tmp_path):
    """Digests of experiment.json and of a CSV as written before they went
    through temp files; the on-disk bytes must not change."""
    model = models.ModelSpec("gru", capacity=True, input_dim=10, embed_dim=8, hidden_dim=6,
                             enc_layers=2, dec_layers=2)
    cfg = train.RunConfig(dataset="/data/wtri", model=model, epochs=2, seed=0)
    cli._write_experiment_manifest(str(tmp_path), cfg, [0, 3], ["b.csv", "a.csv"])
    cli._write_csv(str(tmp_path / "x.csv"), ["pass", "mse"],
                   [[0, repr(0.1)], ["mean", repr(1 / 3)], ["", "a,b"]])
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
               for f in ("experiment.json", "x.csv")}
    assert digests == {
        "experiment.json": "63fcded3772adc61d2369fad2c907ddde731783a06337b50ac3ee9e4f7f5b9a0",
        "x.csv": "ddb28b903cfffc0f0574b715bddae620f59192cd8dd6a55404326b8fbc3bc440",
    }


# -- eval -------------------------------------------------------------------

@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("trained")
    ds = dataset_dir(tmp_path)
    cfg = train_config(tmp_path, ds)
    run = str(tmp_path / "run")
    assert cli.main(["train", "--config", cfg, "--out", run]) == 0
    return ds, os.path.join(run, "checkpoint.capn"), tmp_path


def test_eval_all_metrics(trained, capsys):
    ds, ckpt, tmp_path = trained
    out = str(tmp_path / "eval_all")
    code = cli.main(["eval", "--checkpoint", ckpt, "--dataset", ds, "--out", out,
                     "--metric", "mse,intermediates,permsens,accuracy",
                     "--split", "val", "--k", "3"])
    assert code == 0
    mse_rows = read_csv(os.path.join(out, "mse.csv"))
    assert mse_rows[0] == ["split", "mse"] and mse_rows[1][0] == "val"
    float(mse_rows[1][1])

    inter = read_csv(os.path.join(out, "intermediates.csv"))
    assert inter[1][0] == "capacity"
    with open(os.path.join(out, "intermediates.jsonl")) as f:
        lines = f.readlines()
    assert len(lines) == 40
    first = json.loads(lines[0])
    assert set(first) == {"classes", "expected", "predicted"}

    sens = read_csv(os.path.join(out, "permsens.csv"))
    # 3 pass rows plus mean/median/stdev/spread
    assert [r[0] for r in sens[1:]] == ["0", "1", "2", "mean", "median", "stdev", "spread"]

    acc = read_csv(os.path.join(out, "accuracy.csv"))
    assert 0.0 <= float(acc[1][1]) <= 1.0
    assert "rounded accuracy" in capsys.readouterr().out


def test_eval_baseline_reports_pseudo_kind(tmp_path):
    ds = dataset_dir(tmp_path)
    model = {"family": "deepset", "embed_dim": 8, "hidden_dim": 6,
             "enc_layers": 2, "dec_layers": 2}
    cfg = train_config(tmp_path, ds, model=model, epochs=1)
    run = str(tmp_path / "run")
    assert cli.main(["train", "--config", cfg, "--out", run]) == 0
    out = str(tmp_path / "ev")
    assert cli.main(["eval", "--checkpoint", os.path.join(run, "checkpoint.capn"),
                     "--dataset", ds, "--out", out, "--metric", "intermediates"]) == 0
    assert read_csv(os.path.join(out, "intermediates.csv"))[1][0] == "pseudo"


def test_eval_metric_validation(trained, capsys):
    ds, ckpt, tmp_path = trained
    out = str(tmp_path / "ev_bad")
    assert cli.main(["eval", "--checkpoint", ckpt, "--dataset", ds,
                     "--out", out, "--metric", ""]) == 2
    assert cli.main(["eval", "--checkpoint", ckpt, "--dataset", ds,
                     "--out", out, "--metric", "bogus"]) == 2
    assert "unknown metric" in capsys.readouterr().err


def test_eval_missing_checkpoint(trained):
    ds, _, tmp_path = trained
    assert cli.main(["eval", "--checkpoint", str(tmp_path / "no.capn"),
                     "--dataset", ds, "--out", str(tmp_path / "o"), "--metric", "mse"]) == 2


def test_eval_truncated_checkpoint(trained, tmp_path, capsys):
    ds, ckpt, _ = trained
    short = tmp_path / "short.capn"
    short.write_bytes(b"CAPN\x01\x00")
    (tmp_path / "short.json").write_bytes(open(ckpt[:-len(".capn")] + ".json", "rb").read())
    assert cli.main(["eval", "--checkpoint", str(short), "--dataset", ds,
                     "--out", str(tmp_path / "o"), "--metric", "mse"]) == 2
    assert "truncated checkpoint at byte 6" in capsys.readouterr().err


def test_eval_feature_dim_mismatch(trained, tmp_path):
    ds, _, _ = trained
    # checkpoint whose model wants 7-dim features against a 10-dim dataset
    spec = models.ModelSpec("gru", input_dim=7, embed_dim=8, hidden_dim=6,
                            enc_layers=2, dec_layers=2)
    params = models.init_model(spec, 0)
    ckpt = str(tmp_path / "narrow.capn")
    autodiff.save_checkpoint(ckpt, params.state_dict())
    with open(tmp_path / "narrow.json", "w") as f:
        json.dump({"model": spec.to_json(), "dataset": ds, "seed": 0,
                   "config_hash": "0" * 16}, f)
    assert cli.main(["eval", "--checkpoint", ckpt, "--dataset", ds,
                     "--out", str(tmp_path / "o"), "--metric", "mse"]) == 2


# -- sweep ------------------------------------------------------------------

def sweep_config(tmp_path, ds, **extra):
    obj = {
        "dataset": ds,
        "families": ["gru", "c-gru"],
        "seeds": [0],
        "train": {"batch_size": 50, "epochs": 1},
        "model": {"embed_dim": 8, "hidden_dim": 6, "enc_layers": 2, "dec_layers": 2},
    }
    obj.update(extra)
    return write_json(tmp_path / "sweep.json", obj)


def test_sweep_grid_and_delta(tmp_path):
    ds = dataset_dir(tmp_path)
    cfg = sweep_config(tmp_path, ds)
    out = str(tmp_path / "sw")
    assert cli.main(["sweep", "--config", cfg, "--out", out]) == 0
    rows = read_csv(os.path.join(out, "sweep.csv"))
    assert rows[0][0] == "family" and len(rows) == 3
    by_family = {r[0]: r for r in rows[1:]}
    assert set(by_family) == {"gru", "c-gru"}
    gap = float(by_family["c-gru"][9])
    assert gap == pytest.approx(float(by_family["c-gru"][7]) - float(by_family["gru"][7]))
    assert by_family["gru"][9] == ""


def test_sweep_jobs_parallel_identical(tmp_path):
    ds = dataset_dir(tmp_path)
    cfg = sweep_config(tmp_path, ds)
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert cli.main(["sweep", "--config", cfg, "--out", out1, "--jobs", "1"]) == 0
    assert cli.main(["sweep", "--config", cfg, "--out", out2, "--jobs", "2"]) == 0
    with open(os.path.join(out1, "sweep.csv"), "rb") as f1, \
         open(os.path.join(out2, "sweep.csv"), "rb") as f2:
        assert f1.read() == f2.read()


def test_sweep_train_sizes(tmp_path):
    ds = dataset_dir(tmp_path)
    cfg = sweep_config(tmp_path, ds, train_sizes=[100, 200], families=["deepset"])
    out = str(tmp_path / "sw")
    assert cli.main(["sweep", "--config", cfg, "--out", out]) == 0
    rows = read_csv(os.path.join(out, "sweep.csv"))
    assert [(r[0], r[1]) for r in rows[1:]] == [("deepset", "100"), ("deepset", "200")]


def test_sweep_config_validation(tmp_path, capsys):
    ds = dataset_dir(tmp_path)
    cfg = write_json(tmp_path / "s.json", {"dataset": ds, "seeds": [0]})
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "families" in capsys.readouterr().err
    cfg2 = sweep_config(tmp_path, ds, train_sizes=[999])
    assert cli.main(["sweep", "--config", cfg2, "--out", str(tmp_path / "o")]) == 2
    cfg3 = sweep_config(tmp_path, ds, families=["warp-drive"])
    assert cli.main(["sweep", "--config", cfg3, "--out", str(tmp_path / "o")]) == 2


# -- report -----------------------------------------------------------------

def test_report_alignment(tmp_path, capsys):
    path = tmp_path / "t.csv"
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows([["name", "value"], ["alpha", "1.5"], ["b", "22"]])
    assert cli.main(["report", "--path", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("name ") and "value" in out[0]
    assert out[1].startswith("alpha")


def test_report_missing_file(tmp_path):
    assert cli.main(["report", "--path", str(tmp_path / "no.csv")]) == 2
