"""Dataset layer: IDX parsing, generation, persistence, batch assembly."""

import hashlib
import io
import json
import os
import re
import shutil
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capnet import data, evaluate, fileio, models, oracle, train


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


def label_fault(ds, split):
    """The first bag of a symbolic `split` of `ds` that `load_dataset`'s bag
    check refuses, as (row, why), or None."""
    low, high = ds.task.class_range
    return data._first_fault(split, ds.spec.sizes(), range(low, high + 1), range(-1, 0), ds.task)


def labels_check_out(ds) -> bool:
    return all(label_fault(ds, split) is None for split in ds.splits.values())


def test_generation_is_deterministic_and_labels_check_out():
    spec = data.DatasetSpec(task="WTri", set_size=4, counts=(300, 50, 50), seed=5)
    a = data.generate_dataset(spec)
    b = data.generate_dataset(spec)
    for split in data.SPLITS:
        assert [x.classes for x in a.splits[split]] == [x.classes for x in b.splits[split]]
        assert [x.label for x in a.splits[split]] == [x.label for x in b.splits[split]]
    assert labels_check_out(a)

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
        [x.classes for x in large.splits["train"].head(100)]


def test_product_task_never_samples_class_zero():
    ds = data.generate_dataset(data.DatasetSpec(task="Mult", set_size=3,
                                                counts=(300, 30, 30), seed=1))
    for bags in ds.splits.values():
        for bag in bags:
            assert all(c >= 1 for c in bag.classes)
    assert labels_check_out(ds)


def write_split(path, split: str, payload: bytes, fix_checksum=True):
    """Write a saved split file's bytes; unless told not to, update the
    manifest's checksum so they reach the record parser."""
    path = Path(path)
    (path / f"{split}.jsonl").write_bytes(payload)
    if fix_checksum:
        manifest = json.loads((path / "manifest.json").read_text())
        manifest["checksums"][split] = hashlib.sha256(payload).hexdigest()
        (path / "manifest.json").write_text(json.dumps(manifest))


def rewrite_split(path, split: str, edits: dict, fix_checksum=True):
    """Replace lines (1-based) of a saved split file and, unless told not
    to, its checksum."""
    lines = (Path(path) / f"{split}.jsonl").read_text().splitlines()
    for lineno, text in edits.items():
        lines[lineno - 1] = text
    write_split(path, split, ("\n".join(lines) + "\n").encode(), fix_checksum)


LAYOUT = "not in the layout save_dataset writes"


def rewrite_line(ds_path, split, lineno, text, fix_checksum=True):
    """Put `text` in place of one line of a split file; unless told not to,
    update the manifest's checksum so the line reaches the record parser."""
    rewrite_split(ds_path, split, {lineno: text}, fix_checksum)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**70, 2**70) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=6)


@st.composite
def damaged(draw, line: str) -> str:
    """A record line cut short, replaced, or with one key, field or element
    swapped for arbitrary JSON."""
    kind = draw(st.sampled_from(["cut", "record", "drop", "field", "element"]))
    if kind == "cut":
        return line[:draw(st.integers(0, len(line) - 1))]
    if kind == "record":
        return json.dumps(draw(JSON_VALUES))
    record = json.loads(line)
    key = draw(st.sampled_from(sorted(record)))
    if kind == "drop":
        del record[key]
    elif kind == "field":
        record[key] = draw(JSON_VALUES)
    else:
        values = record[draw(st.sampled_from(["classes", "img_idx"]))]
        values[draw(st.integers(0, len(values) - 1))] = draw(JSON_VALUES)
    return json.dumps(record)


def test_load_names_the_first_bag_whose_label_is_not_the_oracles(tmp_path):
    ds = data.generate_dataset(data.DatasetSpec(task="WTri", set_size=(2, 5),
                                                counts=(40, 30, 30), seed=4))
    data.save_dataset(ds, tmp_path)
    val = list(ds.splits["val"])
    first = next(i for i, b in enumerate(val) if b.size == 5)
    later = next(i for i, b in enumerate(val) if i > first and b.size == 2)
    truth = oracle.eval_task(ds.task, val[first].classes)

    def record(bag, **fields):
        return json.dumps({**bag._asdict(), **fields}, sort_keys=True, separators=(",", ":"))
    # the size-2 group is checked first, but the error names the earlier bag
    rewrite_split(tmp_path, "val", {later + 1: record(val[later], label=val[later].label + 1),
                                    first + 1: record(val[first], label=truth + 2)})
    with pytest.raises(ValueError, match=f"^val.jsonl line {first + 1}: "
                                         f"stored label {truth + 2} != oracle {truth}$"):
        data.load_dataset(tmp_path)
    # a non-integer label is not in the layout, and neither is an integral float
    for label in (truth + 0.5, float(truth)):
        rewrite_split(tmp_path, "val", {first + 1: record(val[first], label=label)})
        with pytest.raises(ValueError, match=f"^val.jsonl line {first + 1}: {LAYOUT}$"):
            data.load_dataset(tmp_path)
    rewrite_split(tmp_path, "val", {first + 1: record(val[first], classes=[10] * 5)})
    with pytest.raises(ValueError, match=f"^val.jsonl line {first + 1}: .*outside"):
        data.load_dataset(tmp_path)


def test_the_label_check_finds_a_wrong_label_in_every_size_group():
    ds = data.generate_dataset(data.DatasetSpec(task="WTri", set_size=(2, 5),
                                                counts=(40, 30, 30), seed=4))
    assert labels_check_out(ds)
    for n in (2, 5):
        groups = dict(ds.splits["val"].groups)
        rows, classes, img_idx, labels = groups[n]
        groups[n] = (rows, classes, img_idx, labels + (np.arange(len(rows)) == len(rows) - 1))
        row, why = label_fault(ds, data.Split(groups))
        assert row == rows[-1] and why.startswith("stored label")


def test_pair_task_records_pairs_in_manifest():
    spec = data.DatasetSpec(task="USS", set_size=4, counts=(100, 20, 20), seed=9)
    ds = data.generate_dataset(spec)
    assert len(ds.task.pair_set) == 5
    assert ds.manifest["pair_set"] == [list(p) for p in ds.task.pair_set]
    assert labels_check_out(ds)


def test_mixed_set_sizes():
    ds = data.generate_dataset(data.DatasetSpec(task="UC", set_size=(2, 5),
                                                counts=(400, 40, 40), seed=3))
    sizes = {b.size for b in ds.splits["train"]}
    assert sizes == {2, 5}
    assert labels_check_out(ds)


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


_INT64 = st.one_of(st.integers(-10, 10), st.integers(-2**63, 2**63 - 1))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 5), st.lists(_INT64, min_size=10, max_size=10), _INT64),
                max_size=6))
def test_split_lines_match_sorted_json_dumps(bags):
    """Each line is what `json.dumps` gives for the bag's record, in stored
    order, for bags of several sizes holding any int64 values."""
    records = [{"classes": v[:n], "img_idx": v[n:2 * n], "label": y} for n, v, y in bags]
    groups = data._grouped(*([r[k] for r in records] for k in ("classes", "img_idx")))
    labels = np.array([r["label"] for r in records], dtype=np.int64)
    split = data.Split({n: (*group, labels[group[0]]) for n, group in groups.items()})
    assert data._split_lines(split) == "".join(
        json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in records)


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


@pytest.mark.parametrize("edits, why", [
    ({3: '{"classes": [1, 2],'}, "test.jsonl line 3: "),  # truncated JSON
    # a value fault before a line that does not parse is the first bad line
    ({2: '{"classes":[30,1,2],"img_idx":[-1,-1,-1],"label":33}', 5: '{"classes": [1, 2],'},
     r"test.jsonl line 2: classes \[30, 1, 2\] hold an id outside range\(0, 10\)$"),
], ids=["parse-error", "value-fault-first"])
def test_load_reports_line_numbers(tmp_path, edits, why):
    spec = data.DatasetSpec(task="US", set_size=3, counts=(5, 5, 5), seed=0)
    data.save_dataset(data.generate_dataset(spec), tmp_path)
    rewrite_split(tmp_path, "test", edits)
    with pytest.raises(ValueError, match=why):
        data.load_dataset(tmp_path)


def test_load_refuses_json_booleans(tmp_path):
    """A JSON boolean is not an int of the layout, though numpy would read
    one as 0 or 1; a split file holding one in its classes, image indices or
    label is refused at its line."""
    spec = data.DatasetSpec(task="US", set_size=3, counts=(20, 5, 5), seed=0)
    data.save_dataset(data.generate_dataset(spec), tmp_path / "us")
    rewrite_line(tmp_path / "us", "val", 1, '{"classes":[true,3,3],"img_idx":[-1,-1,-1],"label":4}')
    with pytest.raises(ValueError, match=f"^val.jsonl line 1: {LAYOUT}$"):
        data.load_dataset(tmp_path / "us")
    # in image mode 0 is a row of the pool, so `false` passes every range check
    spec = data.DatasetSpec(task="US", mode="image", set_size=3, counts=(20, 8, 8), seed=2)
    data.save_dataset(data.generate_dataset(spec, pools=image_pools(tmp_path)), tmp_path / "im")
    record = json.loads((tmp_path / "im" / "val.jsonl").read_text().splitlines()[0])
    rewrite_line(tmp_path / "im", "val", 1, json.dumps(
        dict(record, img_idx=[False] + record["img_idx"][1:]), sort_keys=True, separators=(",", ":")))
    with pytest.raises(ValueError, match=f"^val.jsonl line 1: {LAYOUT}$"):
        data.load_dataset(tmp_path / "im")


def save_kinds(tmp_path):
    """Save a single-size symbolic, a mixed-size (2, 3, 5) and an image
    dataset under `tmp_path`, as single/, mixed/ and image/."""
    specs = {"single": data.DatasetSpec(task="USS", set_size=4, counts=(20, 6, 6), seed=3),
             "mixed": data.DatasetSpec(task="WTri", set_size=(2, 3, 5), counts=(20, 6, 6), seed=1),
             "image": data.DatasetSpec(task="US", mode="image", set_size=3, counts=(20, 8, 8),
                                       seed=2)}
    pools = image_pools(tmp_path)
    for name, spec in specs.items():
        ds = data.generate_dataset(spec, pools=pools if spec.mode == "image" else None)
        data.save_dataset(ds, tmp_path / name)


@st.composite
def revalued(draw, line: str) -> str:
    """A record line, in the layout, with one class, image index or label
    set to a small int."""
    record = json.loads(line)
    key = draw(st.sampled_from(["classes", "img_idx", "label"]))
    if key == "label":
        record[key] = draw(st.integers(-2, 60))
    else:
        record[key][draw(st.integers(0, len(record[key]) - 1))] = draw(st.integers(-2, 12))
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_a_file_with_one_edited_line_loads_or_names_that_line(tmp_path, draw):
    """A split file with one damaged or revalued line, its checksum
    recomputed, either loads, writing back as the file, or raises a
    ValueError naming that line. A revalued line is in the layout, so its
    value reaches the bag checks."""
    if not (tmp_path / "single").exists():
        save_kinds(tmp_path)
    base = tmp_path / draw.draw(st.sampled_from(["single", "mixed", "image"]))
    ds = tmp_path / "ds"
    shutil.rmtree(ds, ignore_errors=True)
    shutil.copytree(base, ds)
    split = draw.draw(st.sampled_from(data.SPLITS))
    lines = (ds / f"{split}.jsonl").read_text().splitlines()
    lineno = draw.draw(st.integers(1, len(lines)))
    rewrite_line(ds, split, lineno,
                 draw.draw(st.one_of(damaged(lines[lineno - 1]), revalued(lines[lineno - 1]))))
    try:
        loaded = data.load_dataset(ds)
    except ValueError as exc:
        assert str(exc).startswith(f"{split}.jsonl line {lineno}: "), exc
    else:
        assert data._split_lines(loaded.splits[split]).encode() == \
            (ds / f"{split}.jsonl").read_bytes()


def _edit_line(payload: bytes, lineno: int, edit) -> bytes:
    lines = payload.splitlines(keepends=True)
    lines[lineno - 1] = edit(lines[lineno - 1])
    return b"".join(lines)


def _with_first(payload: bytes, key: str, text: str) -> bytes:
    """Line 2 with the first value of `key` written as `text`."""
    def edit(line):
        head, tail = line.split(f'"{key}":'.encode())
        if key == "label":
            return head + f'"label":{text}}}\n'.encode()
        return head + f'"{key}":[{text},'.encode() + tail.split(b",", 1)[1]
    return _edit_line(payload, 2, edit)


def _reordered(line: bytes) -> bytes:
    record = json.loads(line)
    return json.dumps(dict(reversed(record.items())), separators=(",", ":")).encode() + b"\n"


def _zero_class(payload: bytes) -> bytes:
    """Line 2 with its first class 0, relabelled, and the 0 written as -0."""
    record = json.loads(payload.splitlines()[1])
    record["classes"][0] = 0
    record["label"] = oracle.eval_task(oracle.TaskSpec("WTri"), record["classes"])
    line = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return _edit_line(payload, 2, lambda _: line.replace("[0,", "[-0,").encode() + b"\n")


# each edit of a 6-line val file, and the error it gives
_NEAR_CANONICAL = {
    "blank line": (lambda p: _edit_line(p, 2, lambda line: line + b"\n"), f"line 3: {LAYOUT}"),
    "no trailing newline": (lambda p: p[:-1], f"line 6: {LAYOUT}"),
    "CRLF": (lambda p: p.replace(b"\n", b"\r\n"), f"line 1: {LAYOUT}"),
    "reordered keys": (lambda p: _edit_line(p, 2, _reordered), f"line 2: {LAYOUT}"),
    "extra key": (lambda p: _edit_line(p, 2, lambda line: line[:-2] + b',"note":7}\n'),
                  f"line 2: {LAYOUT}"),
    "-0": (_zero_class, f"line 2: {LAYOUT}"),
    "01": (lambda p: _with_first(p, "classes", "01"), f"line 2: {LAYOUT}"),
    "17-digit label": (lambda p: _with_first(p, "label", "12345678901234567"),
                       "line 2: label 12345678901234567 is not an integer within +-2^53"),
    "past int64 label": (lambda p: _with_first(p, "label", "-99999999999999999999"),
                         f"line 2: {LAYOUT}"),
    "4.0": (lambda p: _with_first(p, "label", "4.0"), f"line 2: {LAYOUT}"),
    "-1.0 image index": (lambda p: _with_first(p, "img_idx", "-1.0"), f"line 2: {LAYOUT}"),
}


@pytest.mark.parametrize("name", list(_NEAR_CANONICAL))
def test_files_near_the_layout_name_their_line(tmp_path, name):
    """A file that differs from the written layout in one small way is
    refused at the first line outside it; a 17-digit label is in the layout
    but past exact float64 integers."""
    edit, why = _NEAR_CANONICAL[name]
    spec = data.DatasetSpec(task="WTri", set_size=(2, 5), counts=(20, 6, 6), seed=1)
    data.save_dataset(data.generate_dataset(spec), tmp_path)
    write_split(tmp_path, "val", edit((tmp_path / "val.jsonl").read_bytes()))
    with pytest.raises(ValueError, match=f"^{re.escape(f'val.jsonl {why}')}$"):
        data.load_dataset(tmp_path)


def test_saved_files_parse_once(tmp_path, monkeypatch):
    """Every split file `save_dataset` writes, of any kind, loads with one
    parse and no bisection, as C-contiguous int64 arrays, and single-size
    symbolic generation never groups lists."""
    def refuse(*args):
        raise AssertionError("grouped lists")
    pools = image_pools(tmp_path)
    generated = {}
    for name, spec in _PINNED_SPECS.items():
        with monkeypatch.context() as mp:
            if spec.mode == "symbolic" and len(spec.sizes()) == 1:
                mp.setattr(data, "_grouped", refuse)
            generated[name] = data.generate_dataset(spec, pools=pools if spec.mode == "image"
                                                    else None)
        data.save_dataset(generated[name], tmp_path / name)
    parses, real_read = [], data._read_canonical
    monkeypatch.setattr(data, "_read_canonical",
                        lambda payload: parses.append(payload) or real_read(payload))
    for name, ds in generated.items():
        parses.clear()
        loaded = data.load_dataset(tmp_path / name)
        assert parses == [(tmp_path / name / f"{s}.jsonl").read_bytes() for s in data.SPLITS]
        for split in data.SPLITS:
            assert loaded.splits[split].groups.keys() == ds.splits[split].groups.keys()
            for n, group in ds.splits[split].groups.items():
                for a, b in zip(loaded.splits[split].groups[n], group):
                    assert a.dtype == np.int64 and a.flags.c_contiguous and np.array_equal(a, b)


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
        splits = {s: data.Split({3: (np.arange(2), np.zeros((2, 3), dtype=np.int64),
                                     rng.integers(-1, 20, size=(2, 3)),
                                     np.zeros(2, dtype=np.int64))})
                  for s in data.SPLITS}
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


def test_no_command_changes_a_pool(tmp_path):
    """Generation, saving, loading, training and every evaluation routine
    leave each pool's uint8 window as the same object with the same bytes."""
    pools = image_pools(tmp_path, n=60, side=3)
    val = pools["val"]
    # a uint8 copy of its 15 rows, not a view into the 60-image file
    assert val.pixels.dtype == np.uint8 and val.pixels.shape == (15, 9)
    assert val.pixels.base is None and val.pixels.nbytes == 15 * 9
    raw = np.frombuffer((tmp_path / "imgs").read_bytes(), dtype=np.uint8, offset=16)
    idx = np.array([3, 0, 14, 3])
    assert val.scaled(idx).tobytes() == (raw.reshape(60, 9)[30:45][idx] / 255.0).tobytes()
    assert val.images.tobytes() == (raw.reshape(60, 9)[30:45] / 255.0).tobytes()

    watched = {}

    def unchanged(ds_pools):
        """Remember `ds_pools`' windows, then check every one remembered so far."""
        for p in ds_pools.values():
            watched.setdefault(id(p), (p, p.pixels, p.pixels.tobytes()))
        assert all(p.pixels is pixels and pixels.dtype == np.uint8
                   and pixels.tobytes() == payload for p, pixels, payload in watched.values())

    spec = data.DatasetSpec(task="US", mode="image", set_size=3, counts=(20, 8, 8), seed=2)
    ds = data.generate_dataset(spec, pools=pools)
    unchanged(pools)
    data.save_dataset(ds, tmp_path / "ds")
    unchanged(pools)
    loaded = data.load_dataset(tmp_path / "ds")
    unchanged(loaded.pools)
    unchanged(data.load_dataset(tmp_path / "ds", splits=("val",)).pools)
    assert loaded.feature_dim() == 9
    small = {"input_dim": 9, "embed_dim": 4, "hidden_dim": 4}
    config = train.RunConfig(dataset=str(tmp_path / "ds"), batch_size=8, epochs=1,
                             model=models.ModelSpec("gru", capacity=True, **small))
    params = train.train_run(config, dataset=loaded).params
    unchanged(loaded.pools)
    baseline = models.init_model(models.ModelSpec("gru", **small), 0)
    for routine in (lambda: evaluate.evaluate_mse(params, loaded, "val"),
                    lambda: evaluate.split_mse_and_penalty(params, loaded, "val", 0.5, 0.1),
                    lambda: evaluate.split_predictions(params, loaded, "val"),
                    lambda: evaluate.intermediate_mae(params, loaded, "val"),
                    lambda: evaluate.pseudo_report(baseline, loaded, "val"),
                    lambda: evaluate.permutation_sensitivity(params, loaded, "val", k=2),
                    lambda: evaluate.rounded_accuracy(params, loaded, "val")):
        routine()
        unchanged(loaded.pools)


def test_group_by_size_and_position_features():
    split = data.Split({2: (np.array([0, 2]), np.array([[1, 2], [2, 2]]), np.full((2, 2), -1),
                            np.array([3, 4])),
                        1: (np.array([1]), np.array([[4]]), np.array([[-1]]), np.array([4]))})
    groups = data.group_by_size(split)
    assert list(groups) == [1, 2]
    idx, classes, img_idx, labels = groups[2]
    assert idx.tolist() == [0, 2]
    assert classes.tolist() == [[1, 2], [2, 2]]
    feats = data.position_features(classes, img_idx, "symbolic")
    assert len(feats) == 2
    assert feats[0].tolist() == [[0, 1, 0, 0, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0, 0, 0]]
    assert feats[1].tolist() == [[0, 0, 1, 0, 0, 0, 0, 0, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0, 0, 0]]


def test_split_per_bag_view_reads_bags_in_stored_order():
    split = data.Split({3: (np.array([1, 3]), np.array([[1, 2, 3], [4, 5, 6]]),
                            np.array([[7, 8, 9], [0, 1, 2]]), np.array([6, 15])),
                        1: (np.array([0, 2, 4]), np.array([[0], [9], [5]]),
                            np.array([[-1], [-1], [3]]), np.array([0, 9, 5]))})
    bags = [([0], 0, [-1]), ([1, 2, 3], 6, [7, 8, 9]), ([9], 9, [-1]), ([4, 5, 6], 15, [0, 1, 2]),
            ([5], 5, [3])]
    assert len(split) == 5
    assert [tuple(b) for b in split] == bags
    assert [tuple(split[i]) for i in range(5)] == bags
    assert all(type(b.label) is int for b in split)
    assert [b.size for b in split] == [1, 3, 1, 3, 1]
    with pytest.raises(IndexError):
        split[5]
    assert [tuple(b) for b in split.head(4)] == bags[:4]
    assert list(split.head(1).groups) == [1] and len(split.head(0)) == 0
    assert split.labels().tolist() == [0, 6, 9, 15, 5]
    assert split.images().tolist() == [-1, 0, 1, 2, 3, 7, 8, 9]


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
