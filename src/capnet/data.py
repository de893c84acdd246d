"""Bag datasets: IDX image ingestion, oracle-labelled generation, persistence.

A dataset is three splits (train/val/test) of `Bag`s plus a manifest that
records everything needed to regenerate or re-validate it: task, pair set,
seed, per-split checksums. Bags are stored as JSON Lines, one per line:

    {"classes": [8, 5, 8], "img_idx": [-1, -1, -1], "label": 13}

Features are not stored; they are derived from the classes (symbolic
one-hots) or fetched from an image pool (image mode) at batch time.
"""

from __future__ import annotations

import hashlib
import itertools
import json
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

def _idx_payload(data: bytes) -> tuple:
    """Validate an IDX byte payload; return its magic and its uint8 values,
    a view of `data` shaped N x (rows*cols) for images and N for labels."""
    if len(data) < 4:
        raise ValueError(f"IDX header truncated at byte {len(data)}: need 4-byte magic")
    (magic,) = struct.unpack(">I", data[:4])
    if magic == IDX_MAGIC_IMAGES:
        rank = 3
    elif magic == IDX_MAGIC_LABELS:
        rank = 1
    else:
        raise ValueError(f"bad IDX magic 0x{magic:08x} at byte 0")
    header = 4 + 4 * rank
    if len(data) < header:
        raise ValueError(f"IDX header truncated at byte {len(data)}: need {header} bytes")
    dims = struct.unpack(f">{rank}I", data[4:header])
    count = 1
    for d in dims:
        count *= d
    if count > _MAX_IDX_ELEMENTS:
        raise ValueError(f"IDX dimensions {dims} overflow at byte 4")
    if len(data) != header + count:
        raise ValueError(
            f"IDX payload ends at byte {len(data)}, header at byte 4 promises {header + count}"
        )
    raw = np.frombuffer(data, dtype=np.uint8, offset=header)
    if magic == IDX_MAGIC_IMAGES:
        raw = raw.reshape(dims[0], dims[1] * dims[2])
    return magic, raw


def _scale(raw: np.ndarray) -> np.ndarray:
    return raw.astype(np.float64) / 255.0


def parse_idx(data: bytes) -> np.ndarray:
    """Parse an IDX byte payload.

    Returns float images scaled to [0, 1] and flattened to N x (rows*cols)
    for the rank-3 image magic, or an int vector for the rank-1 label magic.
    """
    magic, raw = _idx_payload(data)
    if magic == IDX_MAGIC_LABELS:
        return raw.astype(np.int64)
    return _scale(raw)


def _read_idx(path, magic: int) -> np.ndarray:
    with open(path, "rb") as f:
        found, raw = _idx_payload(f.read())
    if found != magic:
        raise ValueError(f"{path}: IDX magic 0x{found:08x}, expected 0x{magic:08x}")
    return raw


# Serialises the first scaling of every pool: `sweep --jobs N` threads share
# a dataset, and a pool must be scaled once, not once per thread.
_SCALE_LOCK = threading.Lock()


class ImagePool:
    """Images of one split; `offset` keeps indices global when one IDX file
    is partitioned across splits, so leakage checks stay meaningful.

    `images` is float pixels in [0, 1] or raw uint8 IDX rows. `pixels` is
    the buffer the pool holds. Raw rows stay uint8 until `images` is first
    read; that read scales them to float64 exactly as `parse_idx` does and
    keeps the result in `pixels`, so a pool no model reads costs one byte
    per pixel.
    """

    def __init__(self, images: np.ndarray, labels: np.ndarray, split: str,
                 source: str = "", offset: int = 0, labels_source: str = ""):
        if len(images) != len(labels):
            raise ValueError(f"{len(images)} images but {len(labels)} labels")
        if images.dtype != np.uint8 and images.size and (images.min() < 0.0 or images.max() > 1.0):
            raise ValueError("pixel values outside [0, 1]")
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
    """Pool of the `count` images from `offset` on in an IDX pair. It keeps a
    copy of that window's raw bytes, not the whole file, and scales them on
    first use."""
    images = _read_idx(images_path, IDX_MAGIC_IMAGES)
    labels = _read_idx(labels_path, IDX_MAGIC_LABELS)
    if count is None:
        count = len(images) - offset
    sel = slice(offset, offset + count)
    return ImagePool(images[sel].copy(), labels[sel].astype(np.int64), split,
                     source=str(images_path), offset=offset, labels_source=str(labels_path))


def partition_pool(images_path, labels_path, counts: dict) -> dict:
    """Carve one IDX pair into disjoint per-split pools, in SPLITS order."""
    pools = {}
    offset = 0
    for split in SPLITS:
        if split not in counts:
            continue
        pools[split] = build_pool(images_path, labels_path, split, offset=offset, count=counts[split])
        offset += counts[split]
    return pools


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
            for _ in range(shard_len):
                n = sizes[rng.integers(len(sizes))] if len(sizes) > 1 else sizes[0]
                classes = rng.integers(low, high + 1, size=n)
                if pool is not None:
                    img_idx = []
                    for c in classes:
                        candidates = pool.indices_for_class(c)
                        if len(candidates) == 0:
                            raise ValueError(f"class {c} absent from {split} pool")
                        img_idx.append(int(candidates[rng.integers(len(candidates))]))
                else:
                    img_idx = [-1] * n
                label = oracle.eval_task(task, classes)
                bags.append(Bag([int(c) for c in classes], label, img_idx))
        splits[split] = bags

    ds = Dataset(spec, task, splits, pools=pools)
    check_split_purity(ds)
    ds.manifest = _build_manifest(ds)
    return ds


def validate_labels(ds: Dataset):
    """Re-check every stored label against the oracle (exact integers)."""
    for split, bags in ds.splits.items():
        for i, bag in enumerate(bags):
            expected = oracle.eval_task(ds.task, bag.classes)
            if int(bag.label) != expected:
                raise ValueError(f"{split} bag {i}: stored label {bag.label} != oracle {expected}")


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
    record = {"classes": bag.classes, "img_idx": bag.img_idx, "label": bag.label}
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


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


def load_dataset(path, pools: dict = None) -> Dataset:
    """Load a saved dataset, verifying versions and per-split checksums."""
    with open(os.path.join(path, "manifest.json")) as f:
        manifest = json.load(f)
    if manifest.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"unsupported dataset format version {manifest.get('format_version')}")
    if manifest.get("oracle_version") != ORACLE_VERSION:
        raise ValueError(f"dataset was labelled by oracle version {manifest.get('oracle_version')}, "
                         f"this build expects {ORACLE_VERSION}")

    spec = DatasetSpec(
        task=manifest["task"],
        mode=manifest["mode"],
        set_size=manifest["set_size"] if isinstance(manifest["set_size"], int)
        else tuple(manifest["set_size"]),
        counts=tuple(manifest["counts"][s] for s in SPLITS),
        seed=manifest["seed"],
        noise=manifest.get("noise", 0.0),
        pair_count=manifest.get("pair_count", 0),
    )
    task = oracle.TaskSpec(manifest["task"], pair_set=tuple(tuple(p) for p in manifest["pair_set"]))

    if spec.mode == "image" and pools is None:
        pools = {}
        for split, info in manifest["pools"].items():
            if "labels" not in info:
                raise ValueError(f"manifest pool entry for {split!r} lacks the 'labels' key "
                                 f"naming its labels file; regenerate the dataset")
            pools[split] = build_pool(info["source"], info["labels"], split,
                                      offset=info["offset"], count=info["count"])

    splits = {}
    for split in SPLITS:
        file_path = os.path.join(path, f"{split}.jsonl")
        with open(file_path, "rb") as f:
            payload = f.read()
        digest = hashlib.sha256(payload).hexdigest()
        if digest != manifest["checksums"][split]:
            raise ValueError(f"checksum failure for {split}.jsonl")
        bags = []
        for lineno, line in enumerate(payload.decode().splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                bags.append(Bag(record["classes"], record["label"], record["img_idx"]))
            except (ValueError, KeyError) as exc:
                raise ValueError(f"{split}.jsonl line {lineno}: {exc}") from exc
        splits[split] = bags

    ds = Dataset(spec, task, splits, pools=pools, manifest=manifest)
    check_split_purity(ds)
    return ds


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
