"""Seeded synthetic image pools in the MNIST IDX format.

Each class has a 28x28 template: a random 7x7 stroke pattern upsampled by 4.
An image is its class template scaled to 0..200 plus Gaussian pixel noise,
clipped to 0..255. Labels are balanced inside every split window (every
window of at least ten images holds all ten classes) and shuffled within the
window, so each split's pool can serve bags of any class.

Nothing is downloaded; the same seed writes byte-identical files.
"""

from __future__ import annotations

import os
import struct

import numpy as np

ROWS = COLS = 28
NUM_CLASSES = 10
IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801


def class_templates(rng: np.random.Generator) -> np.ndarray:
    """[10, 28, 28] float templates in [0, 1], one stroke pattern per class."""
    coarse = (rng.random((NUM_CLASSES, 7, 7)) < 0.35).astype(np.float64)
    return np.kron(coarse, np.ones((4, 4)))


def window_labels(rng: np.random.Generator, count: int) -> np.ndarray:
    """Balanced, shuffled labels for one split window of `count` images."""
    if count < NUM_CLASSES:
        raise ValueError(f"a window of {count} images cannot hold all {NUM_CLASSES} classes")
    return rng.permutation(np.arange(count) % NUM_CLASSES).astype(np.uint8)


def render(rng: np.random.Generator, templates: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """uint8 images [N, 28, 28] for the given labels."""
    noise = rng.normal(0.0, 40.0, size=(len(labels), ROWS, COLS))
    pixels = templates[labels] * 200.0 + noise
    return np.clip(np.rint(pixels), 0, 255).astype(np.uint8)


def write_images(path, images: np.ndarray):
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGES_MAGIC, n, rows, cols))
        f.write(np.ascontiguousarray(images, dtype=np.uint8).tobytes())


def write_labels(path, labels: np.ndarray):
    with open(path, "wb") as f:
        f.write(struct.pack(">II", LABELS_MAGIC, len(labels)))
        f.write(np.ascontiguousarray(labels, dtype=np.uint8).tobytes())


def write_pools(out_dir, seed: int, train: int, val: int, test: int) -> dict:
    """Write MNIST-style train/t10k IDX pairs and return the pool config.

    The train file holds the train window [0, train) followed by the val
    window [train, train + val); the t10k file holds the test window. The
    returned dict is the `pools` entry of a capnet image dataset config,
    plus the label array of every file under `labels_by_file` for checks.
    """
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 28)))
    templates = class_templates(rng)
    files = {
        "train": np.concatenate([window_labels(rng, train), window_labels(rng, val)]),
        "t10k": window_labels(rng, test),
    }
    paths = {}
    for prefix, labels in files.items():
        images_path = os.path.join(out_dir, f"{prefix}-images-idx3-ubyte")
        labels_path = os.path.join(out_dir, f"{prefix}-labels-idx1-ubyte")
        write_images(images_path, render(rng, templates, labels))
        write_labels(labels_path, labels)
        paths[prefix] = (images_path, labels_path)
    windows = {"train": ("train", 0, train), "val": ("train", train, val), "test": ("t10k", 0, test)}
    pools = {}
    for split, (prefix, offset, count) in windows.items():
        images_path, labels_path = paths[prefix]
        pools[split] = {"images": images_path, "labels": labels_path,
                        "offset": offset, "count": count}
    return {"pools": pools,
            "labels_by_file": {paths[p][0]: labels for p, labels in files.items()}}
