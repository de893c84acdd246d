"""Bag datasets: IDX image ingestion, oracle-labelled generation, persistence.

A dataset is three splits (train/val/test) of `Bag`s plus a manifest that
records everything needed to regenerate or re-validate it: task, pair set,
seed, per-split checksums. Bags are stored as JSON Lines, one per line:

    {"classes": [8, 5, 8], "img_idx": [-1, -1, -1], "label": 13}

Features are not stored; they are derived from the classes (symbolic
one-hots) or fetched from an image pool (image mode) at batch time.

Generation runs in shards of 1024 bags, each with its own seeded stream.
A symbolic shard of one set size draws its classes in one [shard, n] call;
mixed set sizes and image mode draw bag by bag. Each shard is labelled by
one `oracle.decompose_batch` pass per set size, summed over positions.
Loading checks versions and checksums, then each split's records: bag
count, set sizes, class ids, image indices and labels. A caller names the
splits it uses, and only those are read.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import struct
import threading
from dataclasses import dataclass

import numpy as np

from . import fileio, oracle

FORMAT_VERSION = 1
ORACLE_VERSION = 1
SPLITS = ("train", "val", "test")
_GENERATION_SHARD = 1024

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801
_MAX_IDX_ELEMENTS = 1 << 34
# labels are carried as float64 training targets; integers above this lose precision
_EXACT_LABEL_MAX = 1 << 53


# -- IDX files -------------------------------------------------------------

def _idx_header(head: bytes, size: int) -> tuple:
    """Validate an IDX header against the payload's length. `head` is the
    payload's first 16 bytes (all of it when shorter) and `size` its length
    in bytes; returns the magic, the dims and the header's length."""
    if size < 4:
        raise ValueError(f"IDX header truncated at byte {size}: need 4-byte magic")
    (magic,) = struct.unpack(">I", head[:4])
    if magic == IDX_MAGIC_IMAGES:
        rank = 3
    elif magic == IDX_MAGIC_LABELS:
        rank = 1
    else:
        raise ValueError(f"bad IDX magic 0x{magic:08x} at byte 0")
    header = 4 + 4 * rank
    if size < header:
        raise ValueError(f"IDX header truncated at byte {size}: need {header} bytes")
    dims = struct.unpack(f">{rank}I", head[4:header])
    count = math.prod(dims)
    if count > _MAX_IDX_ELEMENTS:
        raise ValueError(f"IDX dimensions {dims} overflow at byte 4")
    if size != header + count:
        raise ValueError(
            f"IDX payload ends at byte {size}, header at byte 4 promises {header + count}"
        )
    return magic, dims, header


def _scale(raw: np.ndarray) -> np.ndarray:
    return raw.astype(np.float64) / 255.0


def _read_idx_window(path, magic: int, offset: int, count) -> np.ndarray:
    """uint8 rows `offset` to `offset + count` of an IDX file (to its end
    when `count` is None), N x (rows*cols) for images and N for labels.
    Reads the header and that window only; the file's size is checked
    against the header."""
    with open(path, "rb") as f:
        found, dims, header = _idx_header(f.read(16), os.fstat(f.fileno()).st_size)
        if found != magic:
            raise ValueError(f"{path}: IDX magic 0x{found:08x}, expected 0x{magic:08x}")
        rows, row = dims[0], math.prod(dims[1:])
        if count is None:
            count = rows - offset
        if offset < 0 or count < 0 or offset + count > rows:
            raise ValueError(f"{path}: window of {count} rows from row {offset} "
                             f"is outside its {rows} rows")
        f.seek(header + offset * row)
        window = np.empty((count, row) if magic == IDX_MAGIC_IMAGES else count, dtype=np.uint8)
        got = f.readinto(window)
    if got != window.nbytes:
        raise ValueError(f"{path}: IDX payload ends inside the window at byte "
                         f"{header + offset * row + got}")
    return window


# Serialises the first scaling of every pool: `sweep --jobs N` threads share
# a dataset, and a pool must be scaled once, not once per thread.
_SCALE_LOCK = threading.Lock()


class ImagePool:
    """Images of one split; `offset` keeps indices global when one IDX file
    is partitioned across splits, so leakage checks stay meaningful.

    `images` is raw uint8 IDX rows, and `pixels` is the buffer the pool
    holds. The rows stay uint8 until `images` is first read; that read
    scales them to float64 in [0, 1] and keeps the result in `pixels`, so a
    pool no model reads costs one byte per pixel.
    """

    def __init__(self, images: np.ndarray, labels: np.ndarray, split: str,
                 source: str = "", offset: int = 0, labels_source: str = ""):
        if len(images) != len(labels):
            raise ValueError(f"{len(images)} images but {len(labels)} labels")
        self.pixels = images
        self.labels = labels
        self.split = split
        self.source = source
        self.offset = offset
        self.labels_source = labels_source
        self._by_class = {c: np.flatnonzero(labels == c) for c in range(oracle.NUM_CLASSES)}

    @property
    def images(self) -> np.ndarray:
        """Float pixels in [0, 1], one row per image."""
        if self.pixels.dtype == np.uint8:
            with _SCALE_LOCK:
                if self.pixels.dtype == np.uint8:
                    self.pixels = _scale(self.pixels)
        return self.pixels

    def indices_for_class(self, c: int) -> np.ndarray:
        return self._by_class[int(c)]


def build_pool(images_path, labels_path, split, offset=0, count=None) -> ImagePool:
    """Pool of the `count` images from `offset` on in an IDX pair. It reads
    only that window's raw bytes, not the whole file, and scales them on
    first use."""
    images = _read_idx_window(images_path, IDX_MAGIC_IMAGES, offset, count)
    labels = _read_idx_window(labels_path, IDX_MAGIC_LABELS, offset, len(images))
    return ImagePool(images, labels.astype(np.int64), split,
                     source=str(images_path), offset=offset, labels_source=str(labels_path))


# -- bags and specs --------------------------------------------------------

@dataclass
class Bag:
    classes: list
    label: float
    img_idx: list = None

    def __post_init__(self):
        if self.img_idx is None:
            self.img_idx = [-1] * len(self.classes)
        if len(self.img_idx) != len(self.classes):
            raise ValueError("img_idx length differs from classes length")

    @property
    def size(self) -> int:
        return len(self.classes)


@dataclass(frozen=True)
class DatasetSpec:
    task: str
    mode: str = "symbolic"
    set_size: object = 10
    counts: tuple = (100000, 10000, 10000)
    seed: int = 0
    noise: float = 0.0
    pair_count: int = 5

    def __post_init__(self):
        if self.task not in oracle.TASK_KINDS:
            raise ValueError(f"unknown task {self.task!r}; expected one of {oracle.TASK_KINDS}")
        if self.mode not in ("symbolic", "image"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if len(self.counts) != 3 or any(c <= 0 for c in self.counts):
            raise ValueError(f"counts must be three positive integers, got {self.counts}")
        for n in self.sizes():
            if n < 1:
                raise ValueError(f"set size {n} < 1")
        if self.noise < 0:
            raise ValueError("noise must be >= 0")
        if self.mode == "image" and self.noise > 0:
            raise ValueError("feature noise applies to symbolic mode only")
        if self.task == "Mult":
            n = max(self.sizes(), default=0)
            high = oracle.TaskSpec("Mult").class_range[1]
            if high ** n > _EXACT_LABEL_MAX:
                raise ValueError(f"Mult labels of set size {n} reach {high}^{n} > 2^53, "
                                 f"past exact float64 integers")

    def sizes(self) -> tuple:
        if isinstance(self.set_size, int):
            return (self.set_size,)
        return tuple(int(n) for n in self.set_size)

    @classmethod
    def from_json(cls, obj: dict) -> "DatasetSpec":
        """The spec in the `SPEC_SCHEMA` of a checked dataset config or
        manifest, with its lists as tuples."""
        return cls(**{name: tuple(v) if isinstance(v, list) else v
                      for name, v in obj.items() if name in SPEC_SCHEMA})


def per_split(kind: fileio.Kind) -> fileio.Kind:
    """An object holding a value of `kind` for each split."""
    return fileio.obj({s: kind for s in SPLITS})


# DatasetSpec's JSON fields, declared once for dataset configs and manifests;
# a config lists `counts` in SPLITS order, and a manifest holds one per split
SPEC_SCHEMA = fileio.spec_schema(DatasetSpec, counts=fileio.INTS, set_size=fileio.Kind(
    "an int or a non-empty list of ints",
    lambda v: fileio.INT.ok(v) or (fileio.INTS.ok(v) and len(v) > 0)))


@dataclass
class Dataset:
    spec: DatasetSpec
    task: oracle.TaskSpec
    splits: dict
    pools: dict = None
    manifest: dict = None

    def feature_dim(self) -> int:
        if self.spec.mode == "symbolic":
            return oracle.NUM_CLASSES
        return next(iter(self.pools.values())).pixels.shape[1]


def generate_dataset(spec: DatasetSpec, pools: dict = None) -> Dataset:
    """Generate oracle-labelled bags for all three splits.

    Classes are i.i.d. uniform over the task's class range; in image mode
    each instance's image is drawn uniformly from its class within the
    split's own pool. Deterministic given the spec's seed; generation runs
    in fixed-size shards with independently seeded streams, so shards could
    be produced concurrently without changing the output.

    A symbolic shard of one set size draws all its classes in one
    [shard, n] call, which consumes the stream exactly as one call per bag
    does. Mixed set sizes and image mode interleave other draws between
    bags, so they draw bag by bag. Every shard is labelled with one
    `oracle.decompose_batch` pass per set size.
    """
    if spec.mode == "image":
        if pools is None or any(s not in pools for s in SPLITS):
            raise ValueError("image mode requires a pool for every split")
    if spec.task == "USS":
        pair_set = oracle.sample_pair_set(spec.seed, spec.pair_count)
    else:
        pair_set = ()
    task = oracle.TaskSpec(spec.task, pair_set=pair_set)
    low, high = task.class_range
    sizes = spec.sizes()

    splits = {}
    for split_idx, split in enumerate(SPLITS):
        count = spec.counts[split_idx]
        pool = pools[split] if spec.mode == "image" else None
        bags = []
        for shard_start in range(0, count, _GENERATION_SHARD):
            shard_len = min(_GENERATION_SHARD, count - shard_start)
            rng = np.random.default_rng(
                np.random.SeedSequence((spec.seed, split_idx, shard_start // _GENERATION_SHARD))
            )
            if pool is None and len(sizes) == 1:
                classes = rng.integers(low, high + 1, size=(shard_len, sizes[0]))
                labels = oracle.decompose_batch(task, classes).sum(axis=1).tolist()
                bags += map(Bag, classes.tolist(), labels)
            else:
                shard = _draw_bags(rng, shard_len, sizes, low, high, pool, split)
                _label_bags(task, shard)
                bags += shard
        splits[split] = bags

    ds = Dataset(spec, task, splits, pools=pools)
    check_split_purity(ds)
    ds.manifest = _build_manifest(ds)
    return ds


def _draw_bags(rng, count: int, sizes: tuple, low: int, high: int, pool, split: str) -> list:
    """`count` unlabelled bags drawn one at a time: the set size when there
    are several, the classes, then each instance's image."""
    bags = []
    for _ in range(count):
        n = sizes[rng.integers(len(sizes))] if len(sizes) > 1 else sizes[0]
        classes = rng.integers(low, high + 1, size=n).tolist()
        if pool is not None:
            img_idx = []
            for c in classes:
                candidates = pool.indices_for_class(c)
                if len(candidates) == 0:
                    raise ValueError(f"class {c} absent from {split} pool")
                img_idx.append(int(candidates[rng.integers(len(candidates))]))
        else:
            img_idx = None
        bags.append(Bag(classes, 0, img_idx))
    return bags


def _label_bags(task: oracle.TaskSpec, bags: list):
    """Set every bag's label, one batch oracle pass per set size."""
    by_size = {}
    for bag in bags:
        by_size.setdefault(bag.size, []).append(bag)
    for group in by_size.values():
        labels = oracle.decompose_batch(task, [b.classes for b in group]).sum(axis=1)
        for bag, label in zip(group, labels.tolist()):
            bag.label = label


def validate_labels(ds: Dataset):
    """Re-check every stored label against the oracle (exact integers), one
    size group at a time; an error names the split's first bad bag."""
    for split, bags in ds.splits.items():
        first = None
        for idx, classes, _, labels in group_by_size(bags).values():
            expected = oracle.decompose_batch(ds.task, classes).sum(axis=1)
            bad = np.flatnonzero(labels != expected)
            if bad.size and (first is None or idx[bad[0]] < first[0]):
                first = (int(idx[bad[0]]), int(expected[bad[0]]))
        if first is not None:
            i, expected = first
            raise ValueError(f"{split} bag {i}: stored label {bags[i].label} != oracle {expected}")


def check_split_purity(ds: Dataset):
    """No image (global index within its source file) may appear in two splits."""
    if not ds.pools:
        return
    used = {}
    for split, bags in ds.splits.items():
        pool = ds.pools[split]
        idx = np.fromiter(itertools.chain.from_iterable(b.img_idx for b in bags), dtype=np.int64)
        mine = pool.offset + np.flatnonzero(np.bincount(idx[idx >= 0]))  # sorted, unique
        for owner, (source, theirs) in used.items():
            if source != pool.source:
                continue
            shared = np.intersect1d(mine, theirs, assume_unique=True)
            if shared.size:
                raise ValueError(f"image {(pool.source, int(shared[0]))} "
                                 f"used by both {owner} and {split}")
        used[split] = (pool.source, mine)


def label_stats(bags) -> dict:
    labels = np.array([bag.label for bag in bags], dtype=np.float64)
    return {
        "count": len(labels),
        "mean": float(labels.mean()),
        "median": float(np.median(labels)),
        "variance": float(labels.var()),
        "stdev": float(labels.std()),
    }


# -- persistence -----------------------------------------------------------

def _build_manifest(ds: Dataset) -> dict:
    spec = ds.spec
    manifest = {
        "format_version": FORMAT_VERSION,
        "oracle_version": ORACLE_VERSION,
        "task": spec.task,
        "pair_set": [list(p) for p in ds.task.pair_set],
        "class_range": list(ds.task.class_range),
        "mode": spec.mode,
        "set_size": spec.set_size if isinstance(spec.set_size, int) else list(spec.sizes()),
        "counts": {s: spec.counts[i] for i, s in enumerate(SPLITS)},
        "seed": spec.seed,
        "noise": spec.noise,
        "pair_count": spec.pair_count,
        "checksums": {},
        "pools": None,
    }
    if ds.pools:
        manifest["pools"] = {
            s: {"source": p.source, "labels": p.labels_source, "offset": p.offset,
                "count": len(p.labels)}
            for s, p in ds.pools.items()
        }
    return manifest


def _bag_line(bag: Bag) -> str:
    """One JSONL record, the bytes `json.dumps(record, sort_keys=True,
    separators=(",", ":"))` gives for int lists and a finite label,
    formatted directly."""
    return (f'{{"classes":[{",".join(map(str, bag.classes))}],'
            f'"img_idx":[{",".join(map(str, bag.img_idx))}],"label":{bag.label}}}')


def save_dataset(ds: Dataset, out_dir) -> dict:
    """Write {train,val,test}.jsonl plus manifest.json; returns the manifest.

    All four files are written in full before any is renamed into place,
    and the manifest last, so a failed save leaves the previous dataset in
    `out_dir` loadable."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = dict(ds.manifest or _build_manifest(ds))
    manifest["checksums"] = {}
    payloads = {}
    for split in SPLITS:
        payload = "".join(_bag_line(bag) + "\n" for bag in ds.splits[split]).encode()
        manifest["checksums"][split] = hashlib.sha256(payload).hexdigest()
        payloads[os.path.join(out_dir, f"{split}.jsonl")] = payload
    payloads[os.path.join(out_dir, "manifest.json")] = fileio.json_bytes(manifest)
    fileio.write_files(payloads)
    ds.manifest = manifest
    return manifest


# every field `save_dataset` writes, each required; the versions come first,
# so a manifest of another format fails on its version, not on its fields
_MANIFEST_SCHEMA = {name: kind._replace(required=True) for name, kind in {
    "format_version": fileio.Kind(f"{FORMAT_VERSION}, the format this build reads",
                                  lambda v: fileio.INT.ok(v) and v == FORMAT_VERSION),
    "oracle_version": fileio.Kind(f"{ORACLE_VERSION}, the oracle this build labels with",
                                  lambda v: fileio.INT.ok(v) and v == ORACLE_VERSION),
    **SPEC_SCHEMA,
    "counts": per_split(fileio.INT),
    "pair_set": fileio.list_of(fileio.Kind("a pair", lambda v: fileio.INTS.ok(v) and len(v) == 2),
                               "a list of class pairs"),
    "class_range": fileio.INTS,
    "checksums": per_split(fileio.STR),
    "pools": fileio.nullable(per_split(fileio.obj({"source": fileio.STR, "labels": fileio.STR,
                                                   "offset": fileio.COUNT,
                                                   "count": fileio.COUNT}))),
}.items()}


def _overlapping(windows: dict, wanted) -> set:
    """The splits whose pool window shares rows of one images file with the
    window of a split in `wanted`; `windows` maps split -> (source, offset,
    count)."""
    out = set()
    for split, (source, offset, count) in windows.items():
        for other in wanted:
            o_source, o_offset, o_count = windows.get(other, (None, 0, 0))
            if (other != split and source == o_source
                    and offset < o_offset + o_count and o_offset < offset + count):
                out.add(split)
    return out


def load_dataset(path, pools: dict = None, splits=SPLITS) -> Dataset:
    """Load a saved dataset, verifying versions, the manifest's fields, and
    the checksum and records of each split in `splits`.

    Only the named splits' files are read and, in image mode, only their
    pools are built. A split whose pool window shares rows of an images file
    with a named split's window is read too, because only then can the two
    splits share an image; disjoint windows need no extra read. The returned
    dataset holds every split read, and split purity is checked over them.
    """
    with open(os.path.join(path, "manifest.json")) as f:
        manifest = fileio.check_fields(json.load(f), _MANIFEST_SCHEMA, "manifest.json")
    spec = DatasetSpec.from_json({**manifest,
                                  "counts": [manifest["counts"][s] for s in SPLITS]})
    task = oracle.TaskSpec(manifest["task"], pair_set=tuple(tuple(p) for p in manifest["pair_set"]))

    read = set(splits)
    if spec.mode == "image" and pools is None:
        entries = manifest["pools"]
        if entries is None:
            raise ValueError("manifest.json field 'pools' is empty in image mode")
        read |= _overlapping({s: (entries[s]["source"], entries[s]["offset"],
                                  entries[s]["count"]) for s in SPLITS}, splits)
        pools = {s: build_pool(entries[s]["source"], entries[s]["labels"], s,
                               offset=entries[s]["offset"], count=entries[s]["count"])
                 for s in SPLITS if s in read}
    elif pools:
        read |= _overlapping({s: (p.source, p.offset, len(p.labels))
                              for s, p in pools.items()}, splits)

    loaded = {}
    for split in (s for s in SPLITS if s in read):
        file_path = os.path.join(path, f"{split}.jsonl")
        with open(file_path, "rb") as f:
            payload = f.read()
        digest = hashlib.sha256(payload).hexdigest()
        if digest != manifest["checksums"][split]:
            raise ValueError(f"checksum failure for {split}.jsonl")
        bags = []
        lines = payload.decode().splitlines()
        for lineno, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                bags.append(Bag(record["classes"], record["label"], record["img_idx"]))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(f"{split}.jsonl line {lineno}: {exc}") from exc
        _check_records(split, bags, lines, spec, task, pools[split] if pools else None)
        loaded[split] = bags

    ds = Dataset(spec, task, loaded, pools=pools, manifest=manifest)
    check_split_purity(ds)
    return ds


def _within(lists: list, allowed: range) -> bool:
    """Whether every value in `lists` is an int in `allowed`, checked on the
    set of distinct values."""
    try:
        values = set().union(*lists)
    except TypeError:  # an unhashable value, such as a nested list
        return False
    return not values or (set(map(type, values)) <= {int}
                          and allowed.start <= min(values) and max(values) < allowed.stop)


def _record_fault(bag: Bag, sizes: tuple, class_ids: range, rows: range) -> str:
    """Why a loaded bag is not a record of its dataset, or "" when it is."""
    if bag.size not in sizes:
        return f"set size {bag.size} is not one of {sizes}"
    if not all(c in class_ids for c in bag.classes):
        return f"classes {bag.classes!r} hold an id outside {class_ids}"
    if not all(i in rows for i in bag.img_idx):
        return f"img_idx {bag.img_idx!r} hold an index outside {rows}"
    y = bag.label
    if not (isinstance(y, (int, float)) and -_EXACT_LABEL_MAX <= y <= _EXACT_LABEL_MAX
            and y % 1 == 0):
        return f"label {y!r} is not an integer within +-2^53"
    return ""


def _check_records(split: str, bags: list, lines: list, spec: DatasetSpec,
                   task: oracle.TaskSpec, pool: ImagePool):
    """Reject a loaded split whose records parse but are not bags of this
    dataset: a bag count other than the manifest's, a set size the spec
    does not list, class ids outside the task's range, image indices other
    than -1 (symbolic) or a row of the split's pool (image mode), or a label
    that is not an integer of magnitude at most 2^53. A split passes on
    whole-split summaries: its set of sizes, the types, min and max of its
    distinct class ids and image indices, and those of its labels. Only a
    split that fails them is scanned bag by bag, so the error names its
    first bad line."""
    count = spec.counts[SPLITS.index(split)]
    if len(bags) != count:
        raise ValueError(f"{split}.jsonl holds {len(bags)} bags, the manifest says {count}")
    classes = [b.classes for b in bags]
    img_idx = [b.img_idx for b in bags]
    labels = [b.label for b in bags]
    class_ids = range(task.class_range[0], task.class_range[1] + 1)
    if pool is None:  # every symbolic img_idx is all -1; counting those lists is cheapest
        rows = range(-1, 0)
        images_ok = sum(map(img_idx.count, ([-1] * n for n in spec.sizes()))) == len(bags)
    else:
        rows = range(len(pool.labels))
        images_ok = _within(img_idx, rows)
    if (images_ok and set(map(len, classes)) <= set(spec.sizes())
            and _within(classes, class_ids) and set(map(type, labels)) <= {int}
            and (not labels or -_EXACT_LABEL_MAX <= min(labels)
                 and max(labels) <= _EXACT_LABEL_MAX)):
        return
    for i, bag in enumerate(bags):
        fault = _record_fault(bag, spec.sizes(), class_ids, rows)
        if fault:
            lineno = [n for n, line in enumerate(lines, start=1) if line.strip()][i]
            raise ValueError(f"{split}.jsonl line {lineno}: {fault}")


def data_root() -> str:
    """Default root for pools and datasets (CAPNET_DATA_DIR, else cwd)."""
    return os.environ.get("CAPNET_DATA_DIR", ".")


def resolve_path(path) -> str:
    path = str(path)
    if os.path.isabs(path) or os.path.exists(path):
        return path
    return os.path.join(data_root(), path)


# -- batch assembly --------------------------------------------------------

def group_by_size(bags) -> dict:
    """Indices of bags grouped by bag size, each with classes/img_idx arrays."""
    groups = {}
    for i, bag in enumerate(bags):
        groups.setdefault(bag.size, []).append(i)
    out = {}
    for n, idxs in sorted(groups.items()):
        idx_arr = np.array(idxs, dtype=np.int64)
        classes = np.array([bags[i].classes for i in idxs], dtype=np.int64)
        img_idx = np.array([bags[i].img_idx for i in idxs], dtype=np.int64)
        labels = np.array([bags[i].label for i in idxs], dtype=np.float64)
        out[n] = (idx_arr, classes, img_idx, labels)
    return out


def permute_instances(rng, classes: np.ndarray, img_idx: np.ndarray, noise: np.ndarray = None):
    """Shuffle the instance order of every bag in a [B, n] block with one
    `rng.permuted` draw; image indices and [B, n, 10] noise move along."""
    order = np.broadcast_to(np.arange(classes.shape[1]), classes.shape)
    perms = rng.permuted(order.copy(), axis=1)
    classes = np.take_along_axis(classes, perms, axis=1)
    img_idx = np.take_along_axis(img_idx, perms, axis=1)
    if noise is not None:
        noise = np.take_along_axis(noise, perms[:, :, None], axis=1)
    return classes, img_idx, noise


_EYE = np.eye(oracle.NUM_CLASSES)


def position_features(classes: np.ndarray, img_idx: np.ndarray, mode: str,
                      pool: ImagePool = None, noise: np.ndarray = None) -> list:
    """Per-position feature matrices for a [B, n] block of bags.

    Returns n arrays of shape [B, feature_dim], one per instance position.
    `noise` (symbolic mode only) is a [B, n, 10] additive perturbation.
    """
    b, n = classes.shape
    feats = []
    for pos in range(n):
        if mode == "symbolic":
            x = _EYE[classes[:, pos]].copy()
            if noise is not None:
                x += noise[:, pos, :]
        else:
            x = pool.images[img_idx[:, pos]]
        feats.append(x)
    return feats


def split_noise(ds: Dataset, split: str) -> np.ndarray:
    """Deterministic per-instance feature noise for a whole split (or None)."""
    if ds.spec.noise <= 0.0:
        return None
    bags = ds.splits[split]
    sizes = ds.spec.sizes()
    rng = np.random.default_rng(np.random.SeedSequence((ds.spec.seed, SPLITS.index(split), 991)))
    max_n = max(sizes)
    return rng.uniform(-ds.spec.noise, ds.spec.noise,
                       size=(len(bags), max_n, oracle.NUM_CLASSES))
