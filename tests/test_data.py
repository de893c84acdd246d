"""Dataset layer: IDX parsing, generation, persistence, batch assembly."""

import hashlib
import io
import json
import os
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capnet import data, evaluate, fileio, models, oracle


def make_idx_images(arrays) -> bytes:
    arr = np.asarray(arrays, dtype=np.uint8)
    n, r, c = arr.shape
    return struct.pack(">IIII", 0x803, n, r, c) + arr.tobytes()


def make_idx_labels(labels) -> bytes:
    arr = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", 0x801, len(arr)) + arr.tobytes()


def partition_pool(images_path, labels_path, counts: dict) -> dict:
    """Carve one IDX pair into disjoint per-split pools, in SPLITS order."""
    pools = {}
    offset = 0
    for split in data.SPLITS:
        pools[split] = data.build_pool(images_path, labels_path, split,
                                       offset=offset, count=counts[split])
        offset += counts[split]
    return pools


def write_idx(tmp_path, images: bytes, labels: bytes):
    ipath, lpath = tmp_path / "imgs", tmp_path / "labs"
    ipath.write_bytes(images)
    lpath.write_bytes(labels)
    return ipath, lpath


def test_build_pool_scales_images_and_reads_int_labels(tmp_path):
    imgs = np.arange(2 * 3 * 3, dtype=np.uint8).reshape(2, 3, 3)
    pool = data.build_pool(*write_idx(tmp_path, make_idx_images(imgs), make_idx_labels([3, 1])),
                           "train")
    assert pool.images.shape == (2, 9)
    assert pool.images.dtype == np.float64
    assert pool.images.max() <= 1.0
    assert pool.images[1, 8] == pytest.approx(17 / 255)
    assert pool.labels.tolist() == [3, 1]
    assert pool.labels.dtype == np.int64


def test_idx_header_error_reporting(tmp_path):
    labels = make_idx_labels([0, 1])
    payload = make_idx_images(np.zeros((2, 3, 3), dtype=np.uint8))
    for images, why in [(struct.pack(">I", 0x12345678) + b"\x00" * 8, "magic"),
                        (b"\x00\x00", "byte"),
                        (payload[:-5], "ends at byte"),
                        (payload + b"\x00", "ends at byte"),
                        (struct.pack(">IIII", 0x803, 2**31, 2**31, 4), "overflow")]:
        with pytest.raises(ValueError, match=why):
            data.build_pool(*write_idx(tmp_path, images, labels), "train")


def _truncations(payload: bytes):
    return st.integers(0, len(payload) - 1).map(lambda n: payload[:n])


_VALID_IDX = [make_idx_images(np.arange(2 * 3 * 2, dtype=np.uint8).reshape(2, 3, 2)),
              make_idx_labels([3, 1, 4])]


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.binary(max_size=64),
                 *[_truncations(p) for p in _VALID_IDX],
                 *[st.binary(max_size=16).map(lambda tail, p=p: p[:8] + tail) for p in _VALID_IDX],
                 st.binary(max_size=24).map(lambda tail: struct.pack(">I", 0x803) + tail)))
def test_build_pool_rejects_garbage_with_value_error(tmp_path, payload):
    """Garbage as the images file, then as the labels file, raises
    ValueError; the rare random payload that is well formed loads the rows
    it declares."""
    images, labels = _VALID_IDX
    try:
        pool = data.build_pool(*write_idx(tmp_path, payload, labels), "train", count=2)
    except ValueError:
        pass
    else:
        assert pool.pixels.tobytes() == payload[16:16 + pool.pixels.nbytes]
    try:
        pool = data.build_pool(*write_idx(tmp_path, images, payload), "train", count=2)
    except ValueError:
        pass
    else:
        assert pool.labels.tolist() == list(payload[8:10])


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_build_pool_rejects_bad_files_with_value_error(tmp_path, draw):
    images, labels = _VALID_IDX
    ipath, lpath = tmp_path / "imgs", tmp_path / "labs"
    ipath.write_bytes(images)
    lpath.write_bytes(labels)
    with pytest.raises(ValueError, match="magic"):  # images and labels swapped
        data.build_pool(lpath, ipath, "train")
    path, payload = draw.draw(st.sampled_from([(ipath, images), (lpath, labels)]))
    path.write_bytes(draw.draw(_truncations(payload)))
    with pytest.raises(ValueError):
        data.build_pool(ipath, lpath, "train")


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_pool_window_is_bit_identical_to_eager_parse(tmp_path, draw):
    n = draw.draw(st.integers(1, 30))
    rows, cols = draw.draw(st.integers(1, 4)), draw.draw(st.integers(1, 4))
    pixels = np.frombuffer(draw.draw(st.binary(min_size=n * rows * cols, max_size=n * rows * cols)),
                           dtype=np.uint8).reshape(n, rows, cols)
    labels = np.array(draw.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)))
    offset = draw.draw(st.integers(0, n))
    count = draw.draw(st.one_of(st.none(), st.integers(0, n - offset)))
    ipath, lpath = tmp_path / "imgs", tmp_path / "labs"
    ipath.write_bytes(make_idx_images(pixels))
    lpath.write_bytes(make_idx_labels(labels))
    pool = data.build_pool(ipath, lpath, "train", offset=offset, count=count)
    stop = n if count is None else offset + count
    want_images = np.frombuffer(ipath.read_bytes(), dtype=np.uint8, offset=16).reshape(
        n, rows * cols)[offset:stop] / 255.0
    want_labels = np.frombuffer(lpath.read_bytes(), dtype=np.uint8, offset=8)[offset:stop].astype(
        np.int64)
    assert pool.images.dtype == want_images.dtype and pool.images.shape == want_images.shape
    assert pool.images.tobytes() == want_images.tobytes()
    assert pool.labels.dtype == want_labels.dtype and np.array_equal(pool.labels, want_labels)


def test_pool_reads_only_its_window(tmp_path, monkeypatch):
    """A pool reads the IDX headers and its own rows, never the whole file."""
    pixels = np.arange(40 * 3 * 2, dtype=np.uint8).reshape(40, 3, 2)
    ipath, lpath = tmp_path / "imgs", tmp_path / "labs"
    ipath.write_bytes(make_idx_images(pixels))
    lpath.write_bytes(make_idx_labels(np.arange(40) % 10))
    read = []

    class CountingReader(io.BufferedReader):
        def read(self, size=-1):
            out = super().read(size)
            read.append(len(out))
            return out

        def readinto(self, buffer):
            got = super().readinto(buffer)
            read.append(got)
            return got
    monkeypatch.setattr(data, "open", lambda path, mode: CountingReader(io.FileIO(path, mode)),
                        raising=False)
    pool = data.build_pool(ipath, lpath, "val", offset=30, count=5)
    # each file's header read asks for 16 bytes, the longer (image) header
    assert sum(read) == (16 + 5 * 6) + (16 + 5)
    assert pool.pixels.tobytes() == pixels[30:35].tobytes()
    assert np.array_equal(pool.labels, [0, 1, 2, 3, 4])
    with pytest.raises(ValueError, match="outside its 40 rows"):
        data.build_pool(ipath, lpath, "val", offset=30, count=11)


def synth_pool(split, count=60, dim=4, seed=0, offset=0):
    """Tiny image pool covering every class."""
    rng = np.random.default_rng(seed)
    labels = np.concatenate([np.arange(10)] * (count // 10 + 1))[:count]
    images = rng.integers(0, 256, size=(count, dim * dim), dtype=np.uint8)
    return data.ImagePool(images, labels, split, source=f"synth-{seed}", offset=offset)


def test_image_pool_class_index_and_validation():
    pool = synth_pool("train")
    for c in range(10):
        idxs = pool.indices_for_class(c)
        assert np.all(pool.labels[idxs] == c)
    with pytest.raises(ValueError):
        data.ImagePool(np.zeros((3, 4), dtype=np.uint8), np.zeros(2, dtype=int), "train")


def test_dataset_spec_validation():
    with pytest.raises(ValueError, match="task"):
        data.DatasetSpec(task="Nope")
    with pytest.raises(ValueError, match="mode"):
        data.DatasetSpec(task="US", mode="audio")
    with pytest.raises(ValueError, match="counts"):
        data.DatasetSpec(task="US", counts=(10, 0, 10))
    with pytest.raises(ValueError, match="size"):
        data.DatasetSpec(task="US", set_size=0)
    with pytest.raises(ValueError, match="noise"):
        data.DatasetSpec(task="US", mode="image", noise=0.1)


def test_mult_set_size_limited_to_exact_float_labels():
    # 9^16 < 2^53 < 9^17: larger Mult labels would not survive as float64 targets
    data.DatasetSpec(task="Mult", set_size=16)
    data.DatasetSpec(task="US", set_size=17)
    with pytest.raises(ValueError, match="2\\^53"):
        data.DatasetSpec(task="Mult", set_size=17)
    with pytest.raises(ValueError, match="2\\^53"):
        data.DatasetSpec(task="Mult", set_size=(3, 17))


def test_generation_is_deterministic_and_labels_check_out():
    spec = data.DatasetSpec(task="WTri", set_size=4, counts=(300, 50, 50), seed=5)
    a = data.generate_dataset(spec)
    b = data.generate_dataset(spec)
    for split in data.SPLITS:
        assert [x.classes for x in a.splits[split]] == [x.classes for x in b.splits[split]]
        assert [x.label for x in a.splits[split]] == [x.label for x in b.splits[split]]
    data.validate_labels(a)

    c = data.generate_dataset(data.DatasetSpec(task="WTri", set_size=4,
                                               counts=(300, 50, 50), seed=6))
    assert [x.classes for x in a.splits["train"]] != [x.classes for x in c.splits["train"]]


def test_generation_shards_do_not_depend_on_total_count():
    # the first bags are identical regardless of how many follow
    small = data.generate_dataset(data.DatasetSpec(task="US", set_size=3,
                                                   counts=(100, 10, 10), seed=2))
    large = data.generate_dataset(data.DatasetSpec(task="US", set_size=3,
                                                   counts=(1500, 10, 10), seed=2))
    assert [x.classes for x in small.splits["train"]] == \
        [x.classes for x in large.splits["train"][:100]]


def test_product_task_never_samples_class_zero():
    ds = data.generate_dataset(data.DatasetSpec(task="Mult", set_size=3,
                                                counts=(300, 30, 30), seed=1))
    for bags in ds.splits.values():
        for bag in bags:
            assert all(c >= 1 for c in bag.classes)
    data.validate_labels(ds)


def test_validate_labels_names_the_first_bad_bag():
    ds = data.generate_dataset(data.DatasetSpec(task="WTri", set_size=(2, 5),
                                                counts=(40, 30, 30), seed=4))
    data.validate_labels(ds)
    val = ds.splits["val"]
    first = next(i for i, b in enumerate(val) if b.size == 5)
    later = next(i for i, b in enumerate(val) if i > first and b.size == 2)
    truth = oracle.eval_task(ds.task, val[first].classes)
    # the size-2 group is checked first, but the error names the earlier bag
    val[later].label += 1
    val[first].label = truth + 2
    with pytest.raises(ValueError, match=f"val bag {first}: stored label {truth + 2} != oracle {truth}$"):
        data.validate_labels(ds)
    val[first].label = truth + 0.5  # a non-integer label is wrong too
    with pytest.raises(ValueError, match=f"val bag {first}: stored label"):
        data.validate_labels(ds)
    val[first].classes[0] = 10
    with pytest.raises(ValueError, match="outside"):
        data.validate_labels(ds)


def test_pair_task_records_pairs_in_manifest():
    spec = data.DatasetSpec(task="USS", set_size=4, counts=(100, 20, 20), seed=9)
    ds = data.generate_dataset(spec)
    assert len(ds.task.pair_set) == 5
    assert ds.manifest["pair_set"] == [list(p) for p in ds.task.pair_set]
    data.validate_labels(ds)


def test_mixed_set_sizes():
    ds = data.generate_dataset(data.DatasetSpec(task="UC", set_size=(2, 5),
                                                counts=(400, 40, 40), seed=3))
    sizes = {b.size for b in ds.splits["train"]}
    assert sizes == {2, 5}
    data.validate_labels(ds)


def test_save_load_round_trip(tmp_path):
    spec = data.DatasetSpec(task="US", set_size=5, counts=(200, 40, 40), seed=8)
    ds = data.generate_dataset(spec)
    data.save_dataset(ds, tmp_path)
    loaded = data.load_dataset(tmp_path)
    assert loaded.spec == spec
    assert loaded.task == ds.task
    for split in data.SPLITS:
        assert [b.classes for b in loaded.splits[split]] == \
            [b.classes for b in ds.splits[split]]
        assert [b.label for b in loaded.splits[split]] == \
            [b.label for b in ds.splits[split]]


def test_save_is_byte_identical_across_runs(tmp_path):
    spec = data.DatasetSpec(task="TriC", set_size=4, counts=(150, 30, 30), seed=4)
    data.save_dataset(data.generate_dataset(spec), tmp_path / "a")
    data.save_dataset(data.generate_dataset(spec), tmp_path / "b")
    for name in ("train.jsonl", "val.jsonl", "test.jsonl", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_saved_bytes_are_pinned(tmp_path):
    """Digest of the four files as written before saves went through temp
    files; the on-disk bytes must not change."""
    ds = data.generate_dataset(data.DatasetSpec(task="WTri", set_size=(2, 5), counts=(40, 10, 10),
                                                seed=2))
    data.save_dataset(ds, tmp_path)
    digest = hashlib.sha256()
    for name in ("train.jsonl", "val.jsonl", "test.jsonl", "manifest.json"):
        digest.update((tmp_path / name).read_bytes())
    assert digest.hexdigest() == \
        "15456f08ae356c24700956f43e2705423cd7cc0f7a372ce532074ba25955f2de"


_PINNED_SPECS = {
    "US": data.DatasetSpec(task="US", set_size=5, counts=(2500, 300, 300), seed=3),
    "Mult": data.DatasetSpec(task="Mult", set_size=4, counts=(2100, 200, 200), seed=7),
    "USS": data.DatasetSpec(task="USS", set_size=6, counts=(2200, 200, 200), seed=9),
    "mixed": data.DatasetSpec(task="WTri", set_size=(3, 7), counts=(2100, 100, 100), seed=5),
    "image": data.DatasetSpec(task="WTri", mode="image", set_size=3, counts=(2100, 40, 40),
                              seed=11),
}


@pytest.mark.parametrize("name, digest", [
    ("US", "3ae4f76fe5eec207166671ad97b0a49b07a185b1c39206605fbcba0d88f38710"),
    ("Mult", "267aad7627c9361b82185146e4e1bf73b4a0630efa469119ac58baeee8cd4b9e"),
    ("USS", "00a16f08bd5e4226f09f86943e359e33ad37c7b2882762c43b0248e712449575"),
    ("mixed", "47aaf7407619d8bfe673baade04f6eab450ed3f8fc2a71a23b8c3fdf6b04f1e3"),
    ("image", "d30f3bbcff40073b4a5a6574f136dcfdfe310f9cfc3b382590fdc84e281ba24d"),
])
def test_multi_shard_bytes_are_pinned(tmp_path, name, digest):
    """Digests of datasets that span several generation shards, written
    when every bag was drawn and labelled one at a time. The image manifest
    names its temporary IDX files, so only its split files are pinned."""
    spec = _PINNED_SPECS[name]
    pools = image_pools(tmp_path) if spec.mode == "image" else None
    data.save_dataset(data.generate_dataset(spec, pools=pools), tmp_path / "ds")
    names = ["train.jsonl", "val.jsonl", "test.jsonl"] + ([] if pools else ["manifest.json"])
    sha = hashlib.sha256()
    for f in names:
        sha.update((tmp_path / "ds" / f).read_bytes())
    assert sha.hexdigest() == digest


def test_generation_labels_without_the_per_bag_oracle(tmp_path, monkeypatch):
    def per_bag(*args):
        raise AssertionError("generation called the per-bag oracle")
    monkeypatch.setattr(oracle, "eval_task", per_bag)
    monkeypatch.setattr(oracle, "decompose", per_bag)
    pools = image_pools(tmp_path)
    for spec in _PINNED_SPECS.values():
        ds = data.generate_dataset(spec, pools=pools if spec.mode == "image" else None)
        # Python ints, so the line writer prints them as json.dumps would
        assert all(type(b.label) is int for bags in ds.splits.values() for b in bags)


_JSON_INTS = st.one_of(st.integers(-10, 10), st.integers(-2**70, 2**70))


@settings(max_examples=300, deadline=None)
@given(st.lists(_JSON_INTS, max_size=6).flatmap(
           lambda classes: st.tuples(st.just(classes),
                                     st.lists(_JSON_INTS, min_size=len(classes),
                                              max_size=len(classes)))),
       st.one_of(_JSON_INTS, st.floats(allow_nan=False, allow_infinity=False)))
def test_bag_line_matches_sorted_json_dumps(lists, label):
    classes, img_idx = lists
    record = {"classes": classes, "img_idx": img_idx, "label": label}
    assert data._bag_line(data.Bag(classes, label, img_idx)) == \
        json.dumps(record, sort_keys=True, separators=(",", ":"))


def test_failed_save_keeps_previous_dataset(tmp_path, monkeypatch):
    old = data.generate_dataset(data.DatasetSpec(task="US", set_size=3, counts=(20, 5, 5), seed=0))
    data.save_dataset(old, tmp_path)
    new = data.generate_dataset(data.DatasetSpec(task="US", set_size=4, counts=(30, 6, 6), seed=1))
    real_open = open

    class HalfWriter:
        """Writes half of the payload, then fails like a full disk."""

        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, payload):
            self.f.write(payload[:len(payload) // 2])
            raise OSError("no space left on device")

    def failing_open(path, mode="r", *args, **kwargs):
        f = real_open(path, mode, *args, **kwargs)
        return HalfWriter(f) if str(path).endswith("manifest.json.tmp") else f

    monkeypatch.setattr(fileio, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="no space"):
        data.save_dataset(new, tmp_path)
    monkeypatch.undo()
    assert not list(tmp_path.glob("*.tmp"))
    loaded = data.load_dataset(tmp_path)
    for split in data.SPLITS:
        assert [(b.classes, b.label) for b in loaded.splits[split]] == \
            [(b.classes, b.label) for b in old.splits[split]]


def test_load_rejects_tampering_and_version_skew(tmp_path):
    spec = data.DatasetSpec(task="US", set_size=3, counts=(50, 10, 10), seed=0)
    data.save_dataset(data.generate_dataset(spec), tmp_path)

    val = tmp_path / "val.jsonl"
    original = val.read_bytes()
    val.write_bytes(original.replace(b'"label":', b'"label": ', 1))
    with pytest.raises(ValueError, match="checksum"):
        data.load_dataset(tmp_path)
    val.write_bytes(original)

    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["format_version"] = 99
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="version"):
        data.load_dataset(tmp_path)


def test_load_reports_line_numbers(tmp_path):
    spec = data.DatasetSpec(task="US", set_size=3, counts=(5, 5, 5), seed=0)
    ds = data.generate_dataset(spec)
    data.save_dataset(ds, tmp_path)
    test_file = tmp_path / "test.jsonl"
    lines = test_file.read_text().splitlines()
    lines[2] = '{"classes": [1, 2],'  # truncated JSON
    payload = "\n".join(lines) + "\n"
    test_file.write_text(payload)
    manifest_path = tmp_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    import hashlib
    manifest["checksums"]["test"] = hashlib.sha256(payload.encode()).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match="line 3"):
        data.load_dataset(tmp_path)


def test_image_mode_draws_from_matching_class(tmp_path):
    pools = {s: synth_pool(s, seed=i) for i, s in enumerate(data.SPLITS)}
    spec = data.DatasetSpec(task="US", mode="image", set_size=3,
                            counts=(60, 20, 20), seed=5)
    ds = data.generate_dataset(spec, pools=pools)
    for split in data.SPLITS:
        pool = pools[split]
        for bag in ds.splits[split]:
            for c, idx in zip(bag.classes, bag.img_idx):
                assert pool.labels[idx] == c
    data.check_split_purity(ds)

    with pytest.raises(ValueError, match="pool"):
        data.generate_dataset(spec)


def test_split_purity_detects_shared_images():
    pools = {s: synth_pool(s, seed=0) for s in data.SPLITS}
    for s, p in pools.items():
        p.source = f"file-{s}"
    spec = data.DatasetSpec(task="US", mode="image", set_size=3,
                            counts=(30, 10, 10), seed=5)
    ds = data.generate_dataset(spec, pools=pools)
    for p in pools.values():
        p.source = "same-file"  # now every split draws from one window of one file
    with pytest.raises(ValueError, match="both"):
        data.check_split_purity(ds)
    with pytest.raises(ValueError, match="both"):
        data.generate_dataset(spec, pools=pools)


def test_split_purity_agrees_with_per_image_loop():
    spec = data.DatasetSpec(task="US", mode="image", set_size=3, counts=(2, 2, 2))
    rng = np.random.default_rng(0)
    for _ in range(40):
        pools = {s: synth_pool(s, count=20, offset=int(rng.integers(0, 40))) for s in data.SPLITS}
        splits = {s: [data.Bag([0, 0, 0], 0, [int(i) for i in rng.integers(-1, 20, size=3)])
                      for _ in range(2)] for s in data.SPLITS}
        ds = data.Dataset(spec, oracle.TaskSpec("US"), splits, pools=pools)
        used = {s: {pools[s].offset + i for b in bags for i in b.img_idx if i >= 0}
                for s, bags in splits.items()}
        shared = used["train"] & used["val"] or used["train"] & used["test"] \
            or used["val"] & used["test"]
        if shared:
            with pytest.raises(ValueError, match="both"):
                data.check_split_purity(ds)
        else:
            data.check_split_purity(ds)


def test_partition_pool_keeps_global_offsets(tmp_path):
    imgs = np.arange(40, dtype=np.uint8).reshape(40, 1, 1) % 200
    labels = np.concatenate([np.arange(10)] * 4).astype(np.uint8)
    ipath, lpath = tmp_path / "imgs", tmp_path / "labels"
    ipath.write_bytes(make_idx_images(imgs.reshape(40, 1, 1)))
    lpath.write_bytes(make_idx_labels(labels))
    pools = partition_pool(ipath, lpath, {"train": 20, "val": 10, "test": 10})
    assert pools["train"].offset == 0
    assert pools["val"].offset == 20
    assert pools["test"].offset == 30
    assert len(pools["val"].images) == 10
    spec = data.DatasetSpec(task="UC", mode="image", set_size=2,
                            counts=(30, 10, 10), seed=1)
    ds = data.generate_dataset(spec, pools=pools)
    data.check_split_purity(ds)


def test_image_manifest_records_labels_file(tmp_path):
    imgs = (np.arange(40, dtype=np.uint8) % 200).reshape(40, 1, 1)
    labels = np.concatenate([np.arange(10)] * 4).astype(np.uint8)
    ipath, lpath = tmp_path / "imgs", tmp_path / "labs"
    ipath.write_bytes(make_idx_images(imgs))
    lpath.write_bytes(make_idx_labels(labels))
    pools = partition_pool(ipath, lpath, {"train": 20, "val": 10, "test": 10})
    spec = data.DatasetSpec(task="UC", mode="image", set_size=2, counts=(30, 10, 10), seed=1)
    manifest = data.save_dataset(data.generate_dataset(spec, pools=pools), tmp_path / "ds")
    assert manifest["pools"]["val"] == {"source": str(ipath), "labels": str(lpath),
                                        "offset": 20, "count": 10}
    assert data.load_dataset(tmp_path / "ds").pools["val"].labels_source == str(lpath)

    path = tmp_path / "ds" / "manifest.json"
    stale = json.loads(path.read_text())
    del stale["pools"]["train"]["labels"]
    path.write_text(json.dumps(stale))
    with pytest.raises(ValueError, match="manifest.json lacks the 'pools.train.labels' field"):
        data.load_dataset(tmp_path / "ds")


def image_pools(tmp_path, n=60, side=3):
    """One IDX pair of n images carved into train/val/test windows."""
    pixels = np.random.default_rng(1).integers(0, 256, size=(n, side, side))
    ipath, lpath = tmp_path / "imgs", tmp_path / "labs"
    ipath.write_bytes(make_idx_images(pixels))
    lpath.write_bytes(make_idx_labels(np.arange(n) % 10))
    return partition_pool(ipath, lpath, {"train": n // 2, "val": n // 4, "test": n // 4})


def scaled(pools) -> dict:
    return {s: p.pixels.dtype == np.float64 for s, p in pools.items()}


def test_pool_holds_only_its_window_until_first_read(tmp_path):
    pools = image_pools(tmp_path, n=60, side=3)
    val = pools["val"]
    # a uint8 copy of its 15 rows, not a view into the 60-image file
    assert val.pixels.dtype == np.uint8 and val.pixels.shape == (15, 9)
    assert val.pixels.base is None and val.pixels.nbytes == 15 * 9
    images = val.images
    assert val.pixels is images and val.images is images
    raw = np.frombuffer((tmp_path / "imgs").read_bytes(), dtype=np.uint8, offset=16)
    assert images.tobytes() == (raw.reshape(60, 9)[30:45] / 255.0).tobytes()
    assert scaled(pools) == {"train": False, "val": True, "test": False}


def test_generate_load_and_eval_scale_only_what_they_read(tmp_path):
    pools = image_pools(tmp_path)
    spec = data.DatasetSpec(task="US", mode="image", set_size=3, counts=(20, 8, 8), seed=2)
    ds = data.generate_dataset(spec, pools=pools)
    data.save_dataset(ds, tmp_path / "ds")
    assert not any(scaled(pools).values())

    loaded = data.load_dataset(tmp_path / "ds")
    assert loaded.feature_dim() == 9
    assert not any(scaled(loaded.pools).values())
    params = models.init_model(models.ModelSpec("gru", capacity=True, input_dim=9,
                                                embed_dim=4, hidden_dim=4), 0)
    evaluate.evaluate_mse(params, loaded, "val")
    assert scaled(loaded.pools) == {"train": False, "val": True, "test": False}


def record_reads(monkeypatch) -> list:
    """Record every split file `data` opens and every pool it builds."""
    reads = []
    real_open, real_build = open, data.build_pool

    def recording_open(path, *args, **kwargs):
        if str(path).endswith(".jsonl"):
            reads.append(os.path.basename(path))
        return real_open(path, *args, **kwargs)

    def recording_build(images, labels, split, **kwargs):
        reads.append(f"pool:{split}")
        return real_build(images, labels, split, **kwargs)

    monkeypatch.setattr(data, "open", recording_open, raising=False)
    monkeypatch.setattr(data, "build_pool", recording_build)
    return reads


def test_load_reads_a_split_whose_given_pool_overlaps_a_named_one(tmp_path, monkeypatch):
    pools = image_pools(tmp_path)
    spec = data.DatasetSpec(task="US", mode="image", set_size=3, counts=(20, 8, 8), seed=2)
    data.save_dataset(data.generate_dataset(spec, pools=pools), tmp_path / "ds")
    # val's rows 25..44 of the file overlap train's 0..29
    wide = dict(pools, val=data.build_pool(tmp_path / "imgs", tmp_path / "labs", "val",
                                           offset=25, count=20))
    reads = record_reads(monkeypatch)
    assert set(data.load_dataset(tmp_path / "ds", pools=pools, splits=("val",)).splits) == {"val"}
    assert reads == ["val.jsonl"]
    reads.clear()
    try:
        data.load_dataset(tmp_path / "ds", pools=wide, splits=("val",))
    except ValueError as exc:
        assert "used by both train and val" in str(exc)
    assert reads == ["train.jsonl", "val.jsonl"]


def test_concurrent_first_reads_scale_a_pool_once(tmp_path, monkeypatch):
    pool = image_pools(tmp_path, n=400, side=8)["train"]
    calls = []
    real_scale = data._scale

    def counting_scale(raw):
        calls.append(1)
        return real_scale(raw)

    monkeypatch.setattr(data, "_scale", counting_scale)
    results = []
    start = threading.Barrier(8)

    def read():
        start.wait(timeout=10)
        results.append(pool.images)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(calls) == 1
    assert len(results) == 8 and all(r is results[0] for r in results)


def test_group_by_size_and_position_features():
    bags = [data.Bag([1, 2], 3.0), data.Bag([4], 4.0), data.Bag([2, 2], 4.0)]
    groups = data.group_by_size(bags)
    assert sorted(groups) == [1, 2]
    idx, classes, img_idx, labels = groups[2]
    assert idx.tolist() == [0, 2]
    assert classes.tolist() == [[1, 2], [2, 2]]
    feats = data.position_features(classes, img_idx, "symbolic")
    assert len(feats) == 2
    assert feats[0].tolist() == [[0, 1, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0, 0, 0]]
    assert feats[1].tolist() == [[0, 0, 1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0, 0, 0]]


def test_position_features_symbolic_image_and_noise():
    classes = np.array([[7, 0], [3, 7]])
    img_idx = np.array([[5, 12], [41, 8]])
    feats = data.position_features(classes, img_idx, "symbolic")
    assert feats[0][0].tolist() == [0, 0, 0, 0, 0, 0, 0, 1, 0, 0]
    assert feats[1][1].tolist() == [0, 0, 0, 0, 0, 0, 0, 1, 0, 0]
    # noise is added to the one-hots, position by position
    noise = np.random.default_rng(0).uniform(-0.05, 0.05, size=(2, 2, 10))
    noisy = data.position_features(classes, img_idx, "symbolic", noise=noise)
    for pos in range(2):
        assert np.array_equal(noisy[pos], feats[pos] + noise[:, pos, :])
        assert 0 < np.abs(noisy[pos] - feats[pos]).max() <= 0.05
    # image mode returns the pool's pixel rows, whatever the classes say
    pool = synth_pool("train")
    imgs = data.position_features(classes, img_idx, "image", pool=pool)
    for pos in range(2):
        assert np.array_equal(imgs[pos], pool.images[img_idx[:, pos]])


def test_split_noise_is_deterministic_and_bounded():
    spec = data.DatasetSpec(task="US", set_size=4, counts=(50, 10, 10),
                            seed=2, noise=0.1)
    ds = data.generate_dataset(spec)
    a = data.split_noise(ds, "train")
    b = data.split_noise(ds, "train")
    assert np.array_equal(a, b)
    assert a.shape == (50, 4, 10)
    assert np.abs(a).max() <= 0.1
    assert data.split_noise(ds, "val") is not None
    quiet = data.generate_dataset(data.DatasetSpec(task="US", set_size=4,
                                                   counts=(50, 10, 10), seed=2))
    assert data.split_noise(quiet, "train") is None


def test_data_root_env(tmp_path, monkeypatch):
    monkeypatch.setenv("CAPNET_DATA_DIR", str(tmp_path))
    assert data.resolve_path("sub/ds") == str(tmp_path / "sub" / "ds")
    absolute = str(tmp_path / "abs")
    assert data.resolve_path(absolute) == absolute
