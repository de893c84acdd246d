"""End-to-end checks of the command line interface, run in process."""

import csv
import hashlib
import json
import os
import re
import shutil
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capnet import autodiff, cli, data, evaluate, fileio, models, train
from test_data import (JSON_VALUES, LAYOUT, damaged, make_idx_images, make_idx_labels,
                       record_reads, rewrite_line, write_split)


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


def damage_splits(ds):
    """`ds` with a byte added to each split file: a command that reads a
    split fails its checksum."""
    for split in data.SPLITS:
        with open(os.path.join(ds, f"{split}.jsonl"), "ab") as f:
            f.write(b"\n")
    return ds


def train_config(tmp_path, ds_path, name="run", model=None, **overrides):
    obj = {"dataset": ds_path, "model": dict(model or SMALL_MODEL),
           "batch_size": 50, "epochs": 2, "seed": 0}
    obj.update(overrides)
    return write_json(tmp_path / f"{name}.json", obj)


def checkpoint_for(tmp_path, ds):
    """A checkpoint trained for one epoch on `ds`."""
    run = str(tmp_path / "ckpt")
    cfg = train_config(tmp_path, ds, name="ckpt", epochs=1, batch_size=10)
    assert cli.main(["train", "--config", cfg, "--out", run]) == 0
    return os.path.join(run, "checkpoint.capn")


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
    assert "extra.json has unknown field 'bogus_key'" in capsys.readouterr().err
    assert cli.main(["generate", "--config", str(tmp_path), "--out", str(tmp_path / "o")]) == 2
    assert "Is a directory" in capsys.readouterr().err


def test_generate_rejects_noise_whose_draw_range_overflows(tmp_path, capsys):
    for noise, code in ((1e308, 2), (float("8e307"), 0)):
        cfg = write_json(tmp_path / "noisy.json", {"task": "US", "set_size": 3,
                                                   "counts": [20, 5, 5], "noise": noise})
        assert cli.main(["generate", "--config", cfg, "--out", str(tmp_path / "o")]) == code
    assert "noise must be >= 0 with 2 * noise finite, got 1e+308" in capsys.readouterr().err


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


@pytest.mark.parametrize("edit, why", [
    (lambda c: c["pools"].update(val="val-images"),
     "image.json field 'pools.val' is 'val-images', expected an object"),
    (lambda c: c["pools"]["val"].update(offset="5"), "image.json field 'pools.val.offset' is '5'"),
    (lambda c: c["pools"]["test"].update(count=2.5), "image.json field 'pools.test.count' is 2.5"),
    (lambda c: c["pools"]["train"].update(offset=-1),
     "image.json field 'pools.train.offset' is -1, expected an int >= 0"),
    (lambda c: c["pools"]["train"].update(images=3), "image.json field 'pools.train.images' is 3"),
    (lambda c: c.update(pools=[1]), "image.json field 'pools' is [1], expected an object"),
    (lambda c: [c], "image.json holds list, not an object"),
    (lambda c: c.update(counts=[True, 10, 10]),
     "image.json field 'counts' is [True, 10, 10], expected a list of ints"),
    (lambda c: c.update(counts=[40.5, 10, 10]), "image.json field 'counts' is [40.5, 10, 10]"),
    (lambda c: c.update(set_size=[3, 4.5]),
     "image.json field 'set_size' is [3, 4.5], expected an int or a non-empty list of ints"),
    (lambda c: c.update(set_size="3"), "image.json field 'set_size' is '3'"),
    (lambda c: c.update(seed=1.5), "image.json field 'seed' is 1.5, expected an int"),
    (lambda c: c.update(pair_count="2"), "image.json field 'pair_count' is '2', expected an int"),
    (lambda c: c["pools"]["val"].update(images="."), "Is a directory: '.'"),
])
def test_malformed_dataset_configs_name_the_field_and_exit_2(tmp_path, capsys, edit, why):
    path = image_config(tmp_path, {"train": (0, 30), "val": (30, 15), "test": (45, 15)})
    with open(path) as f:
        config = json.load(f)
    edited = edit(config)
    write_json(path, config if edited is None else edited)
    assert cli.main(["generate", "--config", path, "--out", str(tmp_path / "ds")]) == 2
    assert why in capsys.readouterr().err


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


def test_train_seed_override(tmp_path, capsys):
    ds = dataset_dir(tmp_path)
    cfg = train_config(tmp_path, ds)
    out = str(tmp_path / "seeded")
    assert cli.main(["train", "--config", cfg, "--out", out, "--seed", "-1"]) == 2
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not os.path.exists(out)
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


@pytest.mark.parametrize("line, why", [
    ("[1,2]", LAYOUT),
    ('"str"', LAYOUT),
    ('{"classes":5,"img_idx":[-1,-1,-1],"label":3}', LAYOUT),
    ('{"classes":[1,2,3],"img_idx":[-1,-1,-1]}', LAYOUT),
    ('{"classes":[30,1,2],"img_idx":[-1,-1,-1],"label":33}', r"classes \[30, 1, 2\] hold an id outside"),
    ('{"classes":[-1,1,2],"img_idx":[-1,-1,-1],"label":3}', r"outside range\(0, 10\)"),
    ('{"classes":[1,"2",3],"img_idx":[-1,-1,-1],"label":6}', LAYOUT),
    ('{"classes":[1,[2],3],"img_idx":[-1,-1,-1],"label":6}', LAYOUT),
    ('{"classes":[1,2.5,3],"img_idx":[-1,-1,-1],"label":6}', LAYOUT),
    ('{"classes":[1,2],"img_idx":[-1,-1],"label":3}', r"set size 2 is not one of \(3,\)"),
    ('{"classes":[1,2,3],"img_idx":[-1,-1,4],"label":6}', r"img_idx \[-1, -1, 4\]"),
    ('{"classes":[1,2,3],"img_idx":[-1,-1,-1],"label":6.5}', LAYOUT),
    ('{"classes":[1,2,3],"img_idx":[-1,-1,-1],"label":NaN}', LAYOUT),
    ('{"classes":[1,2,3],"img_idx":[-1,-1,-1],"label":null}', LAYOUT),
    ('{"classes":[1,2,3],"img_idx":[-1,-1,-1],"label":9007199254740993}', "label 9007"),
    ('{"classes":[true,3,3],"img_idx":[-1,-1,-1],"label":4}', LAYOUT),
    ('{"classes":[1,0,0],"img_idx":[-1,-1,-1],"label":true}', LAYOUT),
])
def test_malformed_records_name_their_line_and_exit_2(tmp_path, capsys, line, why):
    ds = dataset_dir(tmp_path, counts=(20, 5, 5))
    rewrite_line(ds, "val", 3, line)
    with pytest.raises(ValueError, match=f"^val.jsonl line 3: .*{why}"):
        data.load_dataset(ds)
    assert cli.main(["train", "--config", train_config(tmp_path, ds),
                     "--out", str(tmp_path / "o")]) == 2
    assert "val.jsonl line 3" in capsys.readouterr().err


def test_non_utf8_split_file_names_its_line_and_exits_2(tmp_path, capsys):
    ds = dataset_dir(tmp_path, counts=(20, 5, 5))
    with open(os.path.join(ds, "val.jsonl"), "rb") as f:
        lines = f.read().splitlines(keepends=True)
    for lineno, bad in [(1, b"\xc3("), (5, b"\xe2\x82"), (3, b"\xff")]:
        edited = list(lines)
        edited[lineno - 1] = edited[lineno - 1].replace(b"label", b"lab" + bad)
        write_split(ds, "val", b"".join(edited))
        with pytest.raises(ValueError, match=f"^val.jsonl line {lineno}: {LAYOUT}$"):
            data.load_dataset(ds)
    assert cli.main(["train", "--config", train_config(tmp_path, ds),
                     "--out", str(tmp_path / "o")]) == 2
    assert f"val.jsonl line 3: {LAYOUT}" in capsys.readouterr().err
    # an earlier line that is not JSON is named first
    write_split(ds, "val", b"".join([b'{"classes": [1, 2],\n'] + edited[1:]))
    with pytest.raises(ValueError, match=f"^val.jsonl line 1: {LAYOUT}$"):
        data.load_dataset(ds)


def test_edited_label_with_a_fixed_checksum_exits_2(tmp_path, capsys):
    ds = dataset_dir(tmp_path, counts=(20, 5, 5))
    with open(os.path.join(ds, "train.jsonl")) as f:
        record = json.loads(f.read().splitlines()[3])
    record["label"] += 1
    rewrite_line(ds, "train", 4, json.dumps(record, sort_keys=True, separators=(",", ":")))
    assert cli.main(["train", "--config", train_config(tmp_path, ds, batch_size=10),
                     "--out", str(tmp_path / "o")]) == 2
    assert re.search(r"train.jsonl line 4: stored label \d+ != oracle \d+",
                     capsys.readouterr().err)
    assert not os.path.exists(tmp_path / "o" / "metrics.csv")


def test_split_with_missing_bags_exits_2(tmp_path, capsys):
    ds = dataset_dir(tmp_path, counts=(20, 5, 5))
    ckpt = checkpoint_for(tmp_path, ds)
    path = os.path.join(ds, "test.jsonl")
    with open(path) as f:
        first = f.readline()
    with open(path, "w") as f:
        f.write(first)
    rewrite_line(ds, "test", 1, first.strip())  # fixes the checksum; the manifest still counts 5
    with pytest.raises(ValueError, match="test.jsonl holds 1 bags, the manifest says 5"):
        data.load_dataset(ds)
    assert cli.main(["eval", "--checkpoint", ckpt, "--dataset", ds, "--out", str(tmp_path / "o"),
                     "--metric", "mse", "--split", "test"]) == 2
    assert "test.jsonl holds 1 bags" in capsys.readouterr().err


@pytest.mark.parametrize("field, value, named", [
    ("counts", 5, "counts"), ("counts", {"train": 20, "val": "5", "test": 5}, "counts.val"),
    ("set_size", None, "set_size"), ("set_size", [], "set_size"),
    ("set_size", [3, "4"], "set_size"),
    ("pair_set", 7, "pair_set"), ("pair_set", [[1, 2, 3]], "pair_set"),
    ("checksums", [], "checksums"), ("checksums", {"train": 1}, "checksums.train"),
    ("noise", "a", "noise"), ("noise", True, "noise"), ("seed", "x", "seed"),
    ("seed", 1.5, "seed"), ("pair_count", None, "pair_count"), ("pools", 3, "pools"),
    ("pools", {"train": {"source": 1, "offset": 0, "count": 5}}, "pools.train.source"),
    ("class_range", [0, 3], "class_range"), ("class_range", [7], "class_range"),
])
def test_wrong_type_manifest_fields_name_the_field_and_exit_2(tmp_path, capsys, field, value,
                                                              named):
    ds = dataset_dir(tmp_path, counts=(20, 5, 5))
    manifest_path = os.path.join(ds, "manifest.json")
    with open(manifest_path) as f:
        manifest = json.load(f)
    manifest[field] = value
    write_json(manifest_path, manifest)
    with pytest.raises(ValueError, match=f"^manifest.json field '{named}' is "):
        data.load_dataset(ds)
    assert cli.main(["train", "--config", train_config(tmp_path, ds),
                     "--out", str(tmp_path / "o")]) == 2
    assert f"manifest.json field '{named}' is " in capsys.readouterr().err


@pytest.mark.parametrize("edit, why", [
    (lambda text: text[:-3], "is not valid JSON: Expecting"),
    (lambda text: text.replace(b'"task"', b'"t\xffask"'),
     "is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
    (lambda text: text.replace(b'"seed": 1', b'"seed": 1, "seed": 2'),
     "is not valid JSON: the key 'seed' appears twice in one object"),
])
def test_unparsable_manifest_names_its_path_and_exits_2(trained, tmp_path, monkeypatch, capsys,
                                                        edit, why):
    """`capnet train` and `capnet eval` refuse the manifest before a split
    file is read and before `--out` is made."""
    ds, ckpt, _ = trained
    copy = str(tmp_path / "ds")
    shutil.copytree(ds, copy)
    manifest = Path(copy) / "manifest.json"
    manifest.write_bytes(edit(manifest.read_bytes()))
    reads = record_reads(monkeypatch)
    with pytest.raises(ValueError, match=f"^{re.escape(str(manifest))} {re.escape(why)}"):
        data.load_dataset(copy)
    out = tmp_path / "o"
    assert cli.main(["train", "--config", train_config(tmp_path, copy), "--out", str(out)]) == 2
    assert f"{manifest} {why}" in capsys.readouterr().err
    assert cli.main(["eval", "--checkpoint", ckpt, "--dataset", copy, "--out", str(out),
                     "--metric", "mse"]) == 2
    assert f"{manifest} {why}" in capsys.readouterr().err
    assert reads == [] and not out.exists()


def test_manifest_must_be_an_object_with_every_field(tmp_path):
    ds = dataset_dir(tmp_path, counts=(20, 5, 5))
    manifest_path = os.path.join(ds, "manifest.json")
    with open(manifest_path) as f:
        manifest = json.load(f)
    write_json(manifest_path, [manifest])
    with pytest.raises(ValueError, match="manifest.json holds list, not an object"):
        data.load_dataset(ds)
    del manifest["seed"]
    write_json(manifest_path, manifest)
    with pytest.raises(ValueError, match="manifest.json lacks the 'seed' field"):
        data.load_dataset(ds)


def test_image_manifest_without_pools_is_rejected(tmp_path):
    cfg = image_config(tmp_path, {"train": (0, 30), "val": (30, 15), "test": (45, 15)})
    ds = str(tmp_path / "ds")
    assert cli.main(["generate", "--config", cfg, "--out", ds]) == 0
    manifest_path = os.path.join(ds, "manifest.json")
    with open(manifest_path) as f:
        manifest = json.load(f)
    manifest["pools"] = None
    write_json(manifest_path, manifest)
    with pytest.raises(ValueError, match="'pools' is empty in image mode"):
        data.load_dataset(ds)


def test_image_index_outside_its_pool_is_rejected(tmp_path):
    cfg = image_config(tmp_path, {"train": (0, 30), "val": (30, 15), "test": (45, 15)})
    ds = str(tmp_path / "ds")
    assert cli.main(["generate", "--config", cfg, "--out", ds]) == 0
    with open(os.path.join(ds, "val.jsonl")) as f:
        record = json.loads(f.readline())
    record["img_idx"][0] = 15  # the val pool holds rows 0..14
    rewrite_line(ds, "val", 1, json.dumps(record, sort_keys=True, separators=(",", ":")))
    with pytest.raises(ValueError, match=r"^val.jsonl line 1: img_idx \[15, .*range\(0, 15\)"):
        data.load_dataset(ds)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_damaged_split_files_load_or_exit_2(tmp_path, draw):
    """Fuzz the JSONL split parser: a damaged dataset either loads or raises
    ValueError, and `capnet train` on it exits 0 or 2, never 3."""
    base = tmp_path / "base"
    if not base.exists():
        dataset_dir(tmp_path, name="base", counts=(20, 5, 5))
    ds, out = tmp_path / "ds", tmp_path / "run"
    shutil.rmtree(ds, ignore_errors=True)
    shutil.rmtree(out, ignore_errors=True)
    shutil.copytree(base, ds)
    split = draw.draw(st.sampled_from(data.SPLITS))
    lineno = draw.draw(st.integers(1, 5))
    with open(ds / f"{split}.jsonl") as f:
        line = f.read().splitlines()[lineno - 1]
    text = draw.draw(damaged(line))
    fix_checksum = draw.draw(st.booleans())
    rewrite_line(ds, split, lineno, text, fix_checksum=fix_checksum)
    try:
        data.load_dataset(ds)
    except ValueError as exc:
        assert text == line or fix_checksum or "checksum" in str(exc)
    else:
        assert text == line or fix_checksum
    cfg = train_config(tmp_path, str(ds), epochs=1, batch_size=10)
    assert cli.main(["train", "--config", cfg, "--out", str(out)]) in (0, 2)


def _fold_ints(value):
    """`value` with every int folded into -4..36, so that a draw of the right
    kinds asks for a run of a few small bags; how far a run scales is not
    what the config fuzz checks."""
    if type(value) is int:
        return value % 41 - 4
    if type(value) is list:
        return [_fold_ints(v) for v in value]
    if type(value) is dict:
        return {k: _fold_ints(v) for k, v in value.items()}
    return value


def _field_paths(config: dict, prefix=()) -> list:
    paths = []
    for key, value in config.items():
        paths.append(prefix + (key,))
        if type(value) is dict:
            paths += _field_paths(value, prefix + (key,))
    return paths


@st.composite
def damaged_config(draw, config: dict) -> dict:
    """`config` with one field, at any depth, dropped or replaced by
    arbitrary JSON."""
    config = json.loads(json.dumps(config))
    *parents, key = draw(st.sampled_from(_field_paths(config)))
    holder = config
    for name in parents:
        holder = holder[name]
    if draw(st.booleans()):
        del holder[key]
    else:
        holder[key] = _fold_ints(draw(JSON_VALUES))
    return config


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_damaged_configs_exit_0_or_2(tmp_path, monkeypatch, capsys, draw):
    """Fuzz the config readers: `generate`, `train` and `sweep` on a config
    with one field dropped or replaced exit 0 or 2, never 3, except when
    training diverges, a runtime failure by design. A dataset that
    `generate` writes loads."""
    monkeypatch.chdir(tmp_path)  # a drawn relative path resolves in here
    monkeypatch.delenv("CAPNET_DATA_DIR", raising=False)
    if not (tmp_path / "base").exists():
        image_config(tmp_path, {"train": (0, 30), "val": (30, 15), "test": (45, 15)})
        dataset_dir(tmp_path, name="base", counts=(20, 5, 5))
    with open(tmp_path / "image.json") as f:
        dataset = dict(json.load(f), noise=0.0, pair_count=5)
    ds = str(tmp_path / "base")
    run = {"dataset": ds, "model": SMALL_MODEL, "lr": 0.001, "batch_size": 10, "epochs": 1,
           "seed": 0, "reg_lambda": 0.0, "reg_threshold": 1.0,
           "shuffle_instances_per_epoch": True}
    sweep = {"dataset": ds, "families": ["gru", "c-gru"], "seeds": [0], "train_sizes": [10],
             "train": {"batch_size": 10, "epochs": 1},
             "model": {"embed_dim": 8, "hidden_dim": 6, "enc_layers": 2, "dec_layers": 2}}
    command, config = draw.draw(st.sampled_from(
        [("generate", dataset), ("train", run), ("sweep", sweep)]))
    path = write_json(tmp_path / "fuzzed.json", draw.draw(damaged_config(config)))
    out = tmp_path / "out"
    shutil.rmtree(out, ignore_errors=True)
    capsys.readouterr()
    code = cli.main([command, "--config", path, "--out", str(out)])
    err = capsys.readouterr().err
    assert code in (0, 2) or (code == 3 and "run failed: non-finite loss" in err), err
    if command == "generate" and code == 0:
        data.load_dataset(out)


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
    fileio.write_files({str(tmp_path / "x.csv"): fileio.csv_bytes(
        [["pass", "mse"], [0, repr(0.1)], ["mean", repr(1 / 3)], ["", "a,b"]])})
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
    assert cli.main(["eval", "--checkpoint", ckpt, "--dataset", ds, "--out", out,
                     "--metric", "mse,intermediates,permsens", "--k", "1"]) == 2
    assert "k >= 2" in capsys.readouterr().err
    assert cli.main(["eval", "--checkpoint", ckpt, "--dataset", ds, "--out", out,
                     "--metric", "mse,permsens", "--seed", "-1"]) == 2
    assert "--seed must be >= 0" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_eval_writes_no_file_when_a_later_metric_fails(trained, tmp_path, monkeypatch, capsys):
    """`mse` runs, `accuracy` raises: `capnet eval` writes its files only
    once every metric has run, so `--out` is never made."""
    ds, ckpt, _ = trained

    def rounded_accuracy(params, ds, split):
        raise RuntimeError("accuracy failed")
    monkeypatch.setattr(evaluate, "rounded_accuracy", rounded_accuracy)
    out = tmp_path / "o"
    assert cli.main(["eval", "--checkpoint", ckpt, "--dataset", ds, "--out", str(out),
                     "--metric", "mse,accuracy"]) == 3
    assert "RuntimeError: accuracy failed" in capsys.readouterr().err
    assert not out.exists()


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


@pytest.mark.parametrize("edit, field", [
    (lambda m: m.update(model={"family": 5}),
     "c.json field 'model.family' is 5, expected a string"),
    (lambda m: m["model"].update(hidden_dim="4"), "c.json field 'model.hidden_dim' is '4'"),
    (lambda m: m["model"].update(capacity=1),
     "c.json field 'model.capacity' is 1, expected a bool"),
    (lambda m: m["model"].update(depth=2), "c.json has unknown field 'model.depth'"),
    (lambda m: m.update(model=[1]), "c.json field 'model' is [1], expected an object"),
    (lambda m: m.update(seed="x"), "c.json field 'seed' is 'x', expected an int"),
    (lambda m: [m], "c.json holds list, not an object"),
    (lambda m: fileio.json_bytes(m)[:-3], "c.json is not valid JSON: Expecting"),
    (lambda m: fileio.json_bytes(m).replace(b'"seed": 0', b'"seed": 0, "seed": 1'),
     "c.json is not valid JSON: the key 'seed' appears twice in one object"),
])
def test_malformed_checkpoint_json_names_the_field_and_exit_2(trained, tmp_path, capsys,
                                                              edit, field):
    ds, ckpt, _ = trained
    shutil.copy(ckpt, tmp_path / "c.capn")
    with open(ckpt[:-len(".capn")] + ".json") as f:
        meta = json.load(f)
    edited = edit(meta)
    if type(edited) is bytes:
        (tmp_path / "c.json").write_bytes(edited)
    else:
        write_json(tmp_path / "c.json", meta if edited is None else edited)
    with pytest.raises(ValueError, match=re.escape(field)):
        train.load_params(str(tmp_path / "c.capn"))
    assert cli.main(["eval", "--checkpoint", str(tmp_path / "c.capn"), "--dataset", ds,
                     "--out", str(tmp_path / "o"), "--metric", "mse"]) == 2
    assert field in capsys.readouterr().err


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


# -- eval reads only its split -------------------------------------------

def image_dataset(tmp_path):
    """Generated image dataset over disjoint windows of `image_config`'s one
    IDX pair."""
    cfg = image_config(tmp_path, {"train": (0, 30), "val": (30, 15), "test": (45, 15)})
    out = str(tmp_path / "ids")
    assert cli.main(["generate", "--config", cfg, "--out", out]) == 0
    return out


def eval_files(ckpt, ds, out, split):
    assert cli.main(["eval", "--checkpoint", ckpt, "--dataset", ds, "--out", out,
                     "--metric", "mse,intermediates,permsens,accuracy", "--split", split,
                     "--k", "3", "--seed", "4"]) == 0
    return {path.name: path.read_bytes() for path in Path(out).iterdir()}


@pytest.mark.parametrize("mode", ["symbolic", "image"])
@pytest.mark.parametrize("split", ["val", "test"])
def test_eval_of_one_split_writes_the_bytes_of_a_full_load(tmp_path, monkeypatch, mode, split):
    ds = dataset_dir(tmp_path, counts=(30, 10, 10)) if mode == "symbolic" \
        else image_dataset(tmp_path)
    ckpt = checkpoint_for(tmp_path, ds)
    alone = eval_files(ckpt, ds, str(tmp_path / "alone"), split)
    real_load = data.load_dataset
    monkeypatch.setattr(data, "load_dataset", lambda path, splits=None: real_load(path))
    full = eval_files(ckpt, ds, str(tmp_path / "full"), split)
    assert sorted(alone) == ["accuracy.csv", "intermediates.csv", "intermediates.jsonl",
                             "mse.csv", "permsens.csv"]
    assert alone == full


@pytest.mark.parametrize("split", ["val", "test"])
def test_eval_reads_only_its_split_file_and_pool(tmp_path, monkeypatch, split):
    ds = image_dataset(tmp_path)
    ckpt = checkpoint_for(tmp_path, ds)
    reads = record_reads(monkeypatch)
    assert cli.main(["eval", "--checkpoint", ckpt, "--dataset", ds,
                     "--out", str(tmp_path / "o"), "--metric", "mse", "--split", split]) == 0
    assert reads == [f"pool:{split}", f"{split}.jsonl"]


def test_eval_reads_an_overlapping_split_to_check_purity(tmp_path, monkeypatch, capsys):
    """Val's window is moved onto train's rows of the one images file, and
    val's first instance is pointed at train's lowest image."""
    ds = image_dataset(tmp_path)
    ckpt = checkpoint_for(tmp_path, ds)
    manifest_path = os.path.join(ds, "manifest.json")
    with open(manifest_path) as f:
        manifest = json.load(f)
    manifest["pools"]["val"].update(offset=0, count=45)  # overlaps train's [0, 30)
    write_json(manifest_path, manifest)
    with open(os.path.join(ds, "train.jsonl")) as f:
        shared = min(i for line in f for i in json.loads(line)["img_idx"])
    with open(os.path.join(ds, "val.jsonl")) as f:
        record = json.loads(f.readline())
    record["img_idx"][0] = shared
    rewrite_line(ds, "val", 1, json.dumps(record, sort_keys=True, separators=(",", ":")))

    reads = record_reads(monkeypatch)
    source = manifest["pools"]["train"]["source"]
    with pytest.raises(ValueError, match=re.escape(f"image ({source!r}, {shared}) used by "
                                                   f"both train and val")):
        data.load_dataset(ds, splits=("val",))
    assert reads == ["pool:train", "pool:val", "train.jsonl", "val.jsonl"]
    assert cli.main(["eval", "--checkpoint", ckpt, "--dataset", ds,
                     "--out", str(tmp_path / "o"), "--metric", "mse", "--split", "val"]) == 2
    assert f"image ({source!r}, {shared}) used by both train and val" in capsys.readouterr().err
    # test's window lies on another file; it is neither read nor checked
    assert set(data.load_dataset(ds, splits=("test",)).splits) == {"test"}


def test_image_run_bytes_are_pinned(tmp_path):
    """Digests of an image-mode training run and its evaluation; they must
    not move when the way pools hold or scale their pixels changes."""
    ds = image_dataset(tmp_path)
    run, out = tmp_path / "run", tmp_path / "eval"
    cfg = train_config(tmp_path, ds, batch_size=10, epochs=2)
    assert cli.main(["train", "--config", cfg, "--out", str(run)]) == 0
    assert cli.main(["eval", "--checkpoint", str(run / "checkpoint.capn"), "--dataset", ds,
                     "--out", str(out), "--metric", "mse,intermediates"]) == 0
    files = [run / "metrics.csv", run / "checkpoint.capn", out / "mse.csv",
             out / "intermediates.jsonl"]
    digests = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in files}
    assert digests == {
        "metrics.csv": "8cdeca25021cdd45f7e6088c8c190073a50c6dc9045f243d665bf6d8ad3219c1",
        "checkpoint.capn": "e3c7f20d715022378960753b7df2965eedddfee756f07a70c28c13d6df9ca242",
        "mse.csv": "2203560ede3e2a17681a3d2922b953a77bdd0640b28a2fb409246832fd7d682b",
        "intermediates.jsonl": "76c4fdabf8904c8c5c00554d026b4b473e8cbf6b663884cd9491a67b474d1e3f",
    }


def test_train_reads_train_and_val_only_and_writes_the_same_files(tmp_path, monkeypatch):
    ds = dataset_dir(tmp_path, counts=(40, 10, 10))
    cfg = train.RunConfig(dataset=ds, model=models.ModelSpec(**SMALL_MODEL), batch_size=10,
                          epochs=2)
    full = train.train_run(cfg, out_dir=str(tmp_path / "full"), dataset=data.load_dataset(ds))
    reads = record_reads(monkeypatch)
    alone = train.train_run(cfg, out_dir=str(tmp_path / "alone"))
    assert reads == ["train.jsonl", "val.jsonl"]
    assert alone.final_val_mse == full.final_val_mse
    for name in ("metrics.csv", "checkpoint.capn", "checkpoint.json"):
        assert (tmp_path / "alone" / name).read_bytes() == (tmp_path / "full" / name).read_bytes()


@pytest.mark.parametrize("fix_checksum, why", [(True, "test.jsonl line 2: "),
                                               (False, "checksum failure for test.jsonl")])
def test_damaged_split_stops_only_the_commands_that_read_it(trained, tmp_path, capsys,
                                                            fix_checksum, why):
    ds = str(tmp_path / "ds")
    shutil.copytree(trained[0], ds)
    rewrite_line(ds, "test", 2, '{"classes":[1,2]', fix_checksum=fix_checksum)
    args = ["eval", "--checkpoint", trained[1], "--dataset", ds, "--metric", "mse"]
    assert cli.main(args + ["--out", str(tmp_path / "v"), "--split", "val"]) == 0
    assert cli.main(args + ["--out", str(tmp_path / "t"), "--split", "test"]) == 2
    assert why in capsys.readouterr().err
    assert cli.main(["train", "--config", train_config(tmp_path, ds),
                     "--out", str(tmp_path / "r")]) == 0


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


@pytest.mark.parametrize("mode", ["symbolic", "image"])
def test_sweep_jobs_parallel_identical(tmp_path, mode):
    """Threads of `--jobs 2` share one dataset, image pools included."""
    if mode == "symbolic":
        cfg = sweep_config(tmp_path, dataset_dir(tmp_path))
    else:  # 30 train bags: batches of 10
        cfg = sweep_config(tmp_path, image_dataset(tmp_path), train={"batch_size": 10, "epochs": 1})
    out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    assert cli.main(["sweep", "--config", cfg, "--out", out1, "--jobs", "1"]) == 0
    assert cli.main(["sweep", "--config", cfg, "--out", out2, "--jobs", "2"]) == 0
    with open(os.path.join(out1, "sweep.csv"), "rb") as f1, \
         open(os.path.join(out2, "sweep.csv"), "rb") as f2:
        assert f1.read() == f2.read()


def test_sweep_rejects_penalty_on_a_baseline_family(tmp_path, capsys):
    cfg = sweep_config(tmp_path, dataset_dir(tmp_path), train={"batch_size": 50, "epochs": 1,
                                                               "reg_lambda": 0.5})
    assert cli.main(["sweep", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "capacity" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_failing_sweep_cell_starts_no_other(tmp_path, monkeypatch, capsys, jobs):
    """Every cell fails once all `jobs` running cells have started and the
    caller waits on them; the queued third cell never starts."""
    started, running = [], threading.Barrier(jobs, timeout=10)

    def multi_seed(config, seeds, out_dir=None, dataset=None):
        started.append(config.model.label)
        running.wait()
        time.sleep(0.05)
        raise train.TrainingDiverged("non-finite loss at epoch 1 batch 0")
    monkeypatch.setattr(train, "multi_seed", multi_seed)
    cfg = sweep_config(tmp_path, dataset_dir(tmp_path), families=["gru", "c-gru", "deepset"])
    out = str(tmp_path / "o")
    assert cli.main(["sweep", "--config", cfg, "--out", out, "--jobs", str(jobs)]) == 3
    assert sorted(started) == sorted(["gru", "c-gru"][:jobs])
    assert "non-finite loss" in capsys.readouterr().err


def test_sweep_train_sizes(tmp_path):
    ds = dataset_dir(tmp_path)
    cfg = sweep_config(tmp_path, ds, train_sizes=[100, 200], families=["deepset"])
    out = str(tmp_path / "sw")
    assert cli.main(["sweep", "--config", cfg, "--out", out]) == 0
    rows = read_csv(os.path.join(out, "sweep.csv"))
    assert [(r[0], r[1]) for r in rows[1:]] == [("deepset", "100"), ("deepset", "200")]


def test_sweep_config_validation(tmp_path, monkeypatch, capsys):
    """Every sweep config fault exits 2 with its own error and creates no
    `--out`. Only a train size's range, and a batch larger than a train
    size, need the dataset; both are checked for every size before a cell
    trains. Every other fault is tried on a dataset whose split files are
    all damaged, so a check that ran after a split was read would report
    the checksum failure instead."""
    out = str(tmp_path / "o")
    ds = dataset_dir(tmp_path)
    for size in (999, 0, -5):
        cfg = sweep_config(tmp_path, ds, train_sizes=[size])
        assert cli.main(["sweep", "--config", cfg, "--out", out]) == 2
        assert f"train size {size} is outside 1..200" in capsys.readouterr().err
    trained_sizes, real_multi_seed = [], train.multi_seed

    def multi_seed(config, seeds, dataset):
        trained_sizes.append(len(dataset.splits["train"]))
        return real_multi_seed(config, seeds, dataset)
    monkeypatch.setattr(train, "multi_seed", multi_seed)
    cfg = sweep_config(tmp_path, ds, train_sizes=[200, 10])
    assert cli.main(["sweep", "--config", cfg, "--out", out]) == 2
    assert "batch_size 50 exceeds train set size 10" in capsys.readouterr().err
    assert trained_sizes == []
    damaged = damage_splits(dataset_dir(tmp_path, name="damaged", counts=(20, 5, 5)))
    missing = str(tmp_path / "no_dataset")
    for edit, why in [
        ({"families": ["warp-drive"]}, "unknown family 'warp-drive'"),
        ({"families": ["gru", "c-deepset"]}, "capacity variant exists only for"),
        ({"families": ["gru", "C-"]}, "unknown family ''"),
        ({"model": {"hidden_dim": 0}}, "hidden_dim must be >= 1"),
        ({"train": {"batch_size": 0}}, "batch_size must be >= 1"),
        ({"families": ["gru", "c-gru", "GRU"]}, "field 'families' is ['gru', 'c-gru', 'GRU'], "
         "expected a list of strings, at least one, none twice in any case"),
        ({"dataset": missing}, f"dataset not found at {missing}"),
    ]:
        cfg = sweep_config(tmp_path, damaged, **edit)
        assert cli.main(["sweep", "--config", cfg, "--out", out]) == 2
        assert why in capsys.readouterr().err
    cfg = write_json(tmp_path / "s.json", {"dataset": damaged, "seeds": [0]})
    assert cli.main(["sweep", "--config", cfg, "--out", out]) == 2
    assert "s.json lacks the 'families' field" in capsys.readouterr().err
    cfg = write_json(tmp_path / "list.json", [{"dataset": damaged}])
    assert cli.main(["sweep", "--config", cfg, "--out", out]) == 2
    assert "holds list, not an object" in capsys.readouterr().err
    for jobs in ("0", "-3"):
        assert cli.main(["sweep", "--config", sweep_config(tmp_path, damaged),
                         "--out", out, "--jobs", jobs]) == 2
        assert f"--jobs must be >= 1, got {jobs}" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command, edit, why", [
    ("train", {"dataset": 5}, "run.json field 'dataset' is 5, expected a string"),
    ("train", {"model": "gru"}, "run.json field 'model' is 'gru', expected an object"),
    ("train", {"model": None}, "run.json field 'model' is None, expected an object"),
    ("train", {"lr": "0.001"}, "run.json field 'lr' is '0.001', expected a finite number"),
    ("train", {"lr": float("nan")}, "run.json field 'lr' is nan, expected a finite number"),
    ("train", {"batch_size": True}, "run.json field 'batch_size' is True, expected an int"),
    ("train", {"epochs": 1.5}, "run.json field 'epochs' is 1.5, expected an int"),
    ("train", {"seed": "x"}, "run.json field 'seed' is 'x', expected an int"),
    ("train", {"reg_lambda": "1"}, "run.json field 'reg_lambda' is '1', expected a finite number"),
    ("train", {"reg_threshold": None},
     "run.json field 'reg_threshold' is None, expected a finite number"),
    ("train", {"shuffle_instances_per_epoch": "no"},
     "run.json field 'shuffle_instances_per_epoch' is 'no', expected a bool"),
    ("train", {"depth": 3}, "run.json has unknown field 'depth'"),
    ("sweep", {"seeds": "01"}, "sweep.json field 'seeds' is '01', expected a list of ints"),
    ("sweep", {"seeds": [1.7]}, "sweep.json field 'seeds' is [1.7], expected a list of ints"),
    ("sweep", {"train_sizes": [20.5]},
     "sweep.json field 'train_sizes' is [20.5], expected a list of ints"),
    ("sweep", {"families": [5]}, "sweep.json field 'families' is [5], expected a list of strings"),
    ("sweep", {"train": {"lr": "0.1"}},
     "sweep.json field 'train.lr' is '0.1', expected a finite number"),
    ("sweep", {"train": {"dataset": "x"}}, "sweep.json has unknown field 'train.dataset'"),
    ("sweep", {"train": {"seed": 5}}, "sweep.json has unknown field 'train.seed'"),
    ("sweep", {"model": {"hidden_dim": "4"}},
     "sweep.json field 'model.hidden_dim' is '4', expected an int"),
    ("sweep", {"model": {"family": "gru"}}, "sweep.json has unknown field 'model.family'"),
    ("train", {"seed": -1}, "seed must be >= 0, got -1"),
    ("sweep", {"seeds": [-2]}, "sweep.json field 'seeds' is [-2], expected a list of ints >= 0"),
    ("sweep", {"seeds": [1, 1]}, "sweep.json field 'seeds' is [1, 1], expected a list of ints "
     ">= 0, at least one, none twice"),
    ("sweep", {"seeds": []}, "sweep.json field 'seeds' is [], expected a list of ints >= 0, "
     "at least one"),
    ("sweep", {"train_sizes": [10, 10]}, "sweep.json field 'train_sizes' is [10, 10], expected "
     "a list of ints, at least one, none twice"),
    ("sweep", {"train_sizes": []}, "sweep.json field 'train_sizes' is [], expected a list of "
     "ints, at least one"),
    ("sweep", {"families": []}, "sweep.json field 'families' is [], expected a list of strings, "
     "at least one"),
    ("sweep", {"model": {"input_dim": 784}}, "sweep.json has unknown field 'model.input_dim'"),
    ("train", lambda text: text[:-1], "run.json is not valid JSON: Expecting"),
    ("train", lambda text: text[:-1] + b', "seed": 0, "seed": 3}',
     "run.json is not valid JSON: the key 'seed' appears twice in one object"),
    ("train", lambda text: text.replace(b'"epochs"', b'"epochs\xff"'),
     "run.json is not valid JSON: 'utf-8' codec can't decode byte 0xff"),
    ("sweep", lambda text: text.replace(b'"hidden_dim": 6', b'"hidden_dim": 6, "hidden_dim": 7'),
     "sweep.json is not valid JSON: the key 'hidden_dim' appears twice in one object"),
])
def test_malformed_run_and_sweep_configs_name_the_field_and_exit_2(tmp_path, capsys, command,
                                                                   edit, why):
    """Every RunConfig field, and the sweep config's own fields and
    sections, with a value of the wrong kind, and a config file edited as
    bytes that does not parse. Each is refused before a split is read, so
    the dataset's damaged split files do not mask it."""
    ds = damage_splits(dataset_dir(tmp_path, counts=(20, 5, 5)))
    fields = edit if type(edit) is dict else {}
    if command == "train":
        cfg = write_json(tmp_path / "run.json", {"dataset": ds, "model": SMALL_MODEL,
                                                 "batch_size": 10, "epochs": 1, **fields})
    else:
        cfg = sweep_config(tmp_path, ds, **fields)
    if callable(edit):
        Path(cfg).write_bytes(edit(Path(cfg).read_bytes()))
    assert cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert why in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


@pytest.mark.parametrize("command", ["generate", "train", "sweep"])
def test_a_missing_config_file_is_named_and_exits_2(tmp_path, capsys, command):
    path = str(tmp_path / "missing.json")
    assert cli.main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert path in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "o")


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
