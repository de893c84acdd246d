"""Bag datasets: IDX image ingestion, oracle-labelled generation, persistence.

A dataset is three splits (train/val/test) plus a manifest that records
everything needed to regenerate or re-validate it: task, pair set, seed,
per-split checksums. In memory a split is a `Split` of per-size int64
arrays; on disk it is JSON Lines, one bag per line:

    {"classes":[8,5,8],"img_idx":[-1,-1,-1],"label":13}

Features are not stored; they are derived from the classes (symbolic
one-hots) or fetched from an image pool (image mode) at batch time. A pool
holds its window's raw uint8 rows and never changes them; a batch scales
only the rows it gathers.

Generation runs in shards of 1024 bags, each with its own seeded stream.
A symbolic shard of one set size draws its classes in one [shard, n] call;
mixed set sizes and image mode draw bag by bag. Labels come from
`oracle.decompose_batch`, summed over positions, in chunks of 1024 rows.
Loading checks versions and checksums and reads only the splits its caller
names. The layout saving writes is the file format: a split file parses
straight into arrays, and every bag is checked, its label against the
oracle. A file in any other layout is refused at its first line outside it.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import fileio, oracle

FORMAT_VERSION = 1
ORACLE_VERSION = 1
SPLITS = ("train", "val", "test")
_GENERATION_SHARD = 1024
_LABEL_CHUNK = 1024

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801
_MAX_IDX_ELEMENTS = 1 << 34
# labels are carried as float64 training targets; integers above this lose precision
_EXACT_LABEL_MAX = 1 << 53
_INT_BYTES = bytes(b if chr(b) in "-0123456789" else 32 for b in range(256))  # others: spaces


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


class ImagePool:
    """Images of one split; `offset` keeps indices global when one IDX file
    is partitioned across splits, so leakage checks stay meaningful.

    `pixels` is the window's raw uint8 IDX rows, held unchanged for the
    pool's lifetime, so threads may share a pool. `scaled(idx)` gathers rows
    as float64 in [0, 1]; only the rows a batch uses are ever scaled.
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

    def scaled(self, idx) -> np.ndarray:
        """Rows `idx` of the window as float pixels in [0, 1]."""
        return self.pixels[idx].astype(np.float64) / 255.0

    @property
    def images(self) -> np.ndarray:
        """The whole window as float pixels in [0, 1], one row per image: a
        fresh copy on every read, which the pool does not keep."""
        return self.scaled(slice(None))

    def indices_for_class(self, c: int) -> np.ndarray:
        return self._by_class[int(c)]


def build_pool(images_path, labels_path, split, offset=0, count=None) -> ImagePool:
    """Pool of the `count` images from `offset` on in an IDX pair. It reads
    only that window's raw bytes, not the whole file."""
    images = _read_idx_window(images_path, IDX_MAGIC_IMAGES, offset, count)
    labels = _read_idx_window(labels_path, IDX_MAGIC_LABELS, offset, len(images))
    return ImagePool(images, labels.astype(np.int64), split,
                     source=str(images_path), offset=offset, labels_source=str(labels_path))


# -- bags, splits and specs -------------------------------------------------

class Bag(NamedTuple):
    """One bag as plain values: the per-bag view of a `Split`."""
    classes: list
    label: int
    img_idx: list

    @property
    def size(self) -> int:
        return len(self.classes)


class Split:
    """The bags of one split as per-size arrays.

    `groups` maps each set size n, ascending, to (rows[B], classes[B, n],
    img_idx[B, n], labels[B]), all int64. `rows` are the bags' stored
    positions, ascending within a group; image indices are -1 in symbolic
    mode. `len` and `split[i]`, and so iteration, give a read-only per-bag
    view, `Bag` records in stored order, for checks and tests.
    """

    def __init__(self, groups: dict):
        self.groups = dict(sorted(groups.items()))

    def __len__(self) -> int:
        return sum(len(group[0]) for group in self.groups.values())

    def __getitem__(self, i: int) -> Bag:
        for rows, classes, img_idx, labels in self.groups.values():
            j = np.searchsorted(rows, i)
            if j < len(rows) and rows[j] == i:
                return Bag(classes[j].tolist(), int(labels[j]), img_idx[j].tolist())
        raise IndexError(f"no bag {i} in a split of {len(self)}")

    def head(self, count: int) -> "Split":
        """The first `count` bags in stored order."""
        cuts = {n: np.searchsorted(group[0], count) for n, group in self.groups.items()}
        return Split({n: tuple(a[:cuts[n]] for a in group)
                      for n, group in self.groups.items() if cuts[n]})

    def labels(self) -> np.ndarray:
        """Every bag's label, in stored order."""
        out = np.empty(len(self), dtype=np.int64)
        for rows, _, _, labels in self.groups.values():
            out[rows] = labels
        return out

    def images(self) -> np.ndarray:
        """The distinct image indices the bags use, ascending (-1 included)."""
        used = np.concatenate([group[2].ravel() for group in self.groups.values()])
        return np.flatnonzero(np.bincount(used + 1)) - 1


def _grouped(classes: list, img_idx: list) -> dict:
    """Per-bag int lists in stored order as `Split` groups, without labels."""
    sizes = np.fromiter(map(len, classes), dtype=np.int64, count=len(classes))
    groups = {}
    for n in np.flatnonzero(np.bincount(sizes)).tolist():
        rows = np.flatnonzero(sizes == n)
        groups[n] = (rows, *(np.array(col if len(rows) == len(col) else
                                      [col[i] for i in rows.tolist()])
                             for col in (classes, img_idx)))
    return groups


def _oracle_labels(task: oracle.TaskSpec, classes: np.ndarray) -> np.ndarray:
    """The oracle label of each row of a [B, n] class array, as int64, one
    `oracle.decompose_batch` call per 1024 rows to bound its temporaries."""
    return np.concatenate([np.empty(0, dtype=np.int64)] + [
        oracle.decompose_batch(task, classes[s:s + _LABEL_CHUNK]).sum(axis=1)
        for s in range(0, len(classes), _LABEL_CHUNK)])


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
        if not (self.noise >= 0 and math.isfinite(2 * self.noise)):
            raise ValueError(f"noise must be >= 0 with 2 * noise finite, got {self.noise}")
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
    splits: dict  # split name -> Split
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
    bags, so they draw bag by bag. `_oracle_labels` labels each size group.
    """
    if spec.mode == "image" and (pools is None or any(s not in pools for s in SPLITS)):
        raise ValueError("image mode requires a pool for every split")
    pair_set = oracle.sample_pair_set(spec.seed, spec.pair_count) if spec.task == "USS" else ()
    task = oracle.TaskSpec(spec.task, pair_set=pair_set)
    low, high = task.class_range
    sizes = spec.sizes()
    one_draw = spec.mode == "symbolic" and len(sizes) == 1

    splits = {}
    for split_idx, split in enumerate(SPLITS):
        count = spec.counts[split_idx]
        pool = pools[split] if spec.mode == "image" else None
        classes, img_idx = [], []
        for shard_start in range(0, count, _GENERATION_SHARD):
            shard_len = min(_GENERATION_SHARD, count - shard_start)
            rng = np.random.default_rng(np.random.SeedSequence(
                (spec.seed, split_idx, shard_start // _GENERATION_SHARD)))
            if one_draw:
                classes.append(rng.integers(low, high + 1, size=(shard_len, sizes[0])))
            else:
                _draw_bags(rng, shard_len, sizes, low, high, pool, split, classes, img_idx)
        groups = _grouped(classes, img_idx) if not one_draw else {sizes[0]: (
            np.arange(count), np.concatenate(classes), np.full((count, sizes[0]), -1))}
        splits[split] = Split({n: (*group, _oracle_labels(task, group[1]))
                               for n, group in groups.items()})

    ds = Dataset(spec, task, splits, pools=pools)
    check_split_purity(ds)
    ds.manifest = _build_manifest(ds)
    return ds


def _draw_bags(rng, count: int, sizes: tuple, low: int, high: int, pool, split: str,
               classes: list, img_idx: list):
    """Append `count` bags, drawn one at a time, to `classes` and `img_idx`:
    the set size when there are several, the classes, then each image."""
    for _ in range(count):
        n = sizes[rng.integers(len(sizes))] if len(sizes) > 1 else sizes[0]
        drawn = rng.integers(low, high + 1, size=n).tolist()
        images = [-1] * n
        if pool is not None:
            for pos, c in enumerate(drawn):
                candidates = pool.indices_for_class(c)
                if len(candidates) == 0:
                    raise ValueError(f"class {c} absent from {split} pool")
                images[pos] = int(candidates[rng.integers(len(candidates))])
        classes.append(drawn)
        img_idx.append(images)


def check_split_purity(ds: Dataset):
    """No image (global index within its source file) may appear in two splits."""
    if not ds.pools:
        return
    used = {}
    for split, bags in ds.splits.items():
        pool = ds.pools[split]
        idx = bags.images()
        mine = pool.offset + idx[idx >= 0]
        for owner, (source, theirs) in used.items():
            if source != pool.source:
                continue
            shared = np.intersect1d(mine, theirs, assume_unique=True)
            if shared.size:
                raise ValueError(f"image {(pool.source, int(shared[0]))} "
                                 f"used by both {owner} and {split}")
        used[split] = (pool.source, mine)


def label_stats(split: Split) -> dict:
    labels = split.labels().astype(np.float64)
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


def _split_lines(split: Split) -> str:
    """The split as JSONL, each line the bytes `json.dumps(record,
    sort_keys=True, separators=(",", ":"))` gives, from one template per size."""
    lines = [None] * len(split)
    for n, (rows, classes, img_idx, labels) in split.groups.items():
        ids = ",".join(["%d"] * n)
        template = f'{{"classes":[{ids}],"img_idx":[{ids}],"label":%d}}\n'
        values = np.concatenate([classes, img_idx, labels[:, None]], axis=1).tolist()
        for i, line in zip(rows.tolist(), map(template.__mod__, map(tuple, values))):
            lines[i] = line
    return "".join(lines)


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
        payload = _split_lines(ds.splits[split]).encode()
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
    window of a split in `wanted`; `windows` is the manifest's "pools"."""
    out = set()
    for split, mine in windows.items():
        for other in wanted:
            theirs = windows[other]
            if (other != split and mine["source"] == theirs["source"]
                    and mine["offset"] < theirs["offset"] + theirs["count"]
                    and theirs["offset"] < mine["offset"] + mine["count"]):
                out.add(split)
    return out


def load_dataset(path, splits=SPLITS) -> Dataset:
    """Load a saved dataset, verifying versions, the manifest's fields (its
    class range is the task's), and the checksum and bags of each split in
    `splits`, its labels against the oracle included. A directory without a
    manifest raises ValueError "dataset not found". A split file must be in exactly the layout
    `save_dataset` writes; any other layout is refused at its first line
    outside it.

    Only the named splits' files are read and, in image mode, only their
    pools are built, from the manifest's windows. A split whose pool window
    shares rows of an images file with a named split's window is read too,
    because only then can the two splits share an image; disjoint windows need no extra read. The returned
    dataset holds every split read, and split purity is checked over them.
    """
    try:
        manifest = fileio.check_fields(fileio.read_json(os.path.join(path, "manifest.json")),
                                       _MANIFEST_SCHEMA, "manifest.json")
    except (FileNotFoundError, NotADirectoryError):
        raise ValueError(f"dataset not found at {path}") from None
    spec = DatasetSpec.from_json({**manifest,
                                  "counts": [manifest["counts"][s] for s in SPLITS]})
    task = oracle.TaskSpec(manifest["task"], pair_set=tuple(tuple(p) for p in manifest["pair_set"]))
    if manifest["class_range"] != list(task.class_range):
        raise ValueError(f"manifest.json field 'class_range' is {manifest['class_range']!r}, "
                         f"expected {list(task.class_range)}, the range of {task.kind}")

    read, pools = set(splits), None
    if spec.mode == "image":
        entries = manifest["pools"]
        if entries is None:
            raise ValueError("manifest.json field 'pools' is empty in image mode")
        read |= _overlapping(entries, splits)
        pools = {s: build_pool(entries[s]["source"], entries[s]["labels"], s,
                               offset=entries[s]["offset"], count=entries[s]["count"])
                 for s in SPLITS if s in read}

    class_ids = range(task.class_range[0], task.class_range[1] + 1)
    loaded = {}
    for split in (s for s in SPLITS if s in read):
        with open(os.path.join(path, f"{split}.jsonl"), "rb") as f:
            payload = f.read()
        if hashlib.sha256(payload).hexdigest() != manifest["checksums"][split]:
            raise ValueError(f"checksum failure for {split}.jsonl")
        rows = range(len(pools[split].labels)) if pools else range(-1, 0)
        loaded[split] = _read_split(split, payload, spec.counts[SPLITS.index(split)],
                                    spec.sizes(), class_ids, rows, task)

    ds = Dataset(spec, task, loaded, pools=pools, manifest=manifest)
    check_split_purity(ds)
    return ds


def _read_canonical(payload: bytes):
    """The `Split` of a file in exactly the layout `_split_lines` writes, or
    None. A line of n instances holds 2n commas and 2n + 1 ints, parsed in one
    numpy call; the result stands only if it writes back as `payload`."""
    buf = np.frombuffer(payload, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    sizes = np.diff(np.searchsorted(np.flatnonzero(buf == ord(",")), ends), prepend=0) // 2
    starts = np.concatenate([[0], np.cumsum(2 * sizes + 1)])
    with warnings.catch_warnings():  # older numpy warns on a partial parse, newer raises
        warnings.simplefilter("ignore", DeprecationWarning)
        try:
            values = np.fromstring(payload.translate(_INT_BYTES), dtype=np.int64, sep=" ")
        except ValueError:
            return None
    if len(values) != starts[-1]:
        return None
    groups = {}
    for n in np.flatnonzero(np.bincount(sizes)).tolist():
        rows = np.flatnonzero(sizes == n)
        at = starts[rows, None] + np.arange(n)
        groups[n] = (rows, values[at], values[at + n], values[starts[rows] + 2 * n])
    return parsed if _split_lines(parsed := Split(groups)).encode() == payload else None


def _read_split(split: str, payload: bytes, count: int, sizes: tuple, class_ids: range,
                rows: range, task: oracle.TaskSpec) -> Split:
    """The `Split` of a split file. A ValueError names the first line that
    holds a bag `_first_fault` refuses, else the first line outside the
    layout, else a bag count other than `count`. Only a file
    `_read_canonical` refuses is bisected: a prefix of a file in the layout
    is in the layout, so the longest such prefix ends just before the first
    line outside it."""
    parsed, outside = _read_canonical(payload), None
    if parsed is None:
        cuts = np.flatnonzero(np.frombuffer(payload, dtype=np.uint8) == ord("\n")) + 1
        good, outside, parsed = 0, len(cuts) + (not payload.endswith(b"\n")), Split({})
        while outside - good > 1:
            mid = (good + outside) // 2
            prefix = _read_canonical(payload[:cuts[mid - 1]])
            if prefix is None:
                outside = mid
            else:
                good, parsed = mid, prefix
    fault = _first_fault(parsed, sizes, class_ids, rows, task)
    if fault:
        raise ValueError(f"{split}.jsonl line {fault[0] + 1}: {fault[1]}")
    if outside:
        raise ValueError(f"{split}.jsonl line {outside}: not in the layout save_dataset writes")
    if len(parsed) != count:
        raise ValueError(f"{split}.jsonl holds {len(parsed)} bags, the manifest says {count}")
    return parsed


def _first_fault(split: Split, sizes: tuple, class_ids: range, rows: range,
                 task: oracle.TaskSpec):
    """(row, why) for the first bag in stored order that is not a record of
    its dataset, or None. Each group is checked as arrays. A bag's reason is
    the first of set size, classes, image indices and label range that
    fails, else a label other than the oracle's; the oracle sees only the
    bags every range check passes."""
    first = None
    for n, (at, classes, img_idx, labels) in split.groups.items():
        faults = np.stack([
            np.full(len(at), n not in sizes),
            ((classes < class_ids.start) | (classes >= class_ids.stop)).any(axis=1),
            ((img_idx < rows.start) | (img_idx >= rows.stop)).any(axis=1),
            (labels < -_EXACT_LABEL_MAX) | (labels > _EXACT_LABEL_MAX)])
        ranged = ~faults.any(axis=0)
        wrong = np.zeros_like(ranged)
        wrong[ranged] = labels[ranged] != _oracle_labels(task, classes[ranged])
        bad = np.flatnonzero(~ranged | wrong)
        if bad.size and (first is None or at[bad[0]] < first[0]):
            j = bad[0]
            first = at[j], (
                f"stored label {labels[j]} != oracle {_oracle_labels(task, classes[j:j + 1])[0]}"
                if wrong[j] else
                (f"set size {n} is not one of {sizes}",
                 f"classes {classes[j].tolist()} hold an id outside {class_ids}",
                 f"img_idx {img_idx[j].tolist()} hold an index outside {rows}",
                 f"label {labels[j]} is not an integer within +-2^53")[np.argmax(faults[:, j])])
    return first


def data_root() -> str:
    """Default root for pools and datasets (CAPNET_DATA_DIR, else cwd)."""
    return os.environ.get("CAPNET_DATA_DIR", ".")


def resolve_path(path) -> str:
    path = str(path)
    if os.path.isabs(path) or os.path.exists(path):
        return path
    return os.path.join(data_root(), path)


# -- batch assembly --------------------------------------------------------

def group_by_size(split: Split) -> dict:
    """The split's size groups: {n: (rows, classes, img_idx, labels)}."""
    return split.groups


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


def batches(groups: dict, noise: np.ndarray, size: int, order=None, permute=None) -> list:
    """Cut `group_by_size` groups into (rows, classes, img_idx, noise,
    labels) batches of up to `size` bags, group by group in the groups'
    ascending size order; `noise` is the split's [bags, n_max, 10] array or
    None. With an rng `order`, a group's bags are shuffled first (one
    `permutation`); with an rng `permute`, their instance orders are
    reshuffled next (one `permute_instances` draw per group)."""
    out = []
    for n, (rows, classes, img_idx, labels) in groups.items():
        if order is not None:
            shuffled = order.permutation(len(rows))
            rows, classes, img_idx, labels = (a[shuffled] for a in (rows, classes, img_idx, labels))
        gnoise = noise[rows][:, :n, :] if noise is not None else None
        if permute is not None:
            classes, img_idx, gnoise = permute_instances(permute, classes, img_idx, gnoise)
        for s in range(0, len(rows), size):
            sl = slice(s, s + size)
            out.append((rows[sl], classes[sl], img_idx[sl],
                        gnoise[sl] if gnoise is not None else None, labels[sl]))
    return out


_EYE = np.eye(oracle.NUM_CLASSES)


def position_features(classes: np.ndarray, img_idx: np.ndarray, mode: str,
                      pool: ImagePool = None, noise: np.ndarray = None) -> list:
    """Per-position feature matrices for a [B, n] block of bags.

    Returns n arrays of shape [B, feature_dim], one per instance position.
    `noise` (symbolic mode only) is a [B, n, 10] additive perturbation.
    """
    feats = []
    for pos in range(classes.shape[1]):
        if mode == "symbolic":
            x = _EYE[classes[:, pos]].copy()
            if noise is not None:
                x += noise[:, pos, :]
        else:
            x = pool.scaled(img_idx[:, pos])
        feats.append(x)
    return feats


def split_noise(ds: Dataset, split: str) -> np.ndarray:
    """Deterministic per-instance feature noise for a whole split (or None)."""
    if ds.spec.noise <= 0.0:
        return None
    rng = np.random.default_rng(np.random.SeedSequence((ds.spec.seed, SPLITS.index(split), 991)))
    return rng.uniform(-ds.spec.noise, ds.spec.noise,
                       size=(len(ds.splits[split]), max(ds.spec.sizes()), oracle.NUM_CLASSES))
