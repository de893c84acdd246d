"""Task labels and added values recomputed with numpy, without capnet.oracle.

Bags are [B, n] integer class arrays of one size. Prefix counts come from a
cumulative one-hot sum, each task's label is a closed form over those
counts, and the added values are the differences of consecutive prefix
labels, with the empty prefix valued at 0 for every task. Mult works in
Python integers (object arrays), so its labels stay exact beyond 2^63.
"""

from __future__ import annotations

import numpy as np

NUM_CLASSES = 10
TASKS = ("US", "WTri", "USS", "UC", "TriC", "Mult")
_CLASS_VALUES = np.arange(NUM_CLASSES)


def prefix_counts(classes) -> np.ndarray:
    """[B, n, 10] class counts of each prefix of each bag."""
    classes = np.asarray(classes, dtype=np.int64)
    if classes.ndim != 2:
        raise ValueError(f"bags must be a [B, n] class array, got shape {classes.shape}")
    if classes.size and (classes.min() < 0 or classes.max() >= NUM_CLASSES):
        raise ValueError("class ids must lie in 0..9")
    one_hot = classes[..., None] == _CLASS_VALUES
    return np.cumsum(one_hot, axis=1, dtype=np.int64)


def label_of_counts(task: str, counts: np.ndarray, pair_set=()) -> np.ndarray:
    """Label of every count vector in `counts` ([..., 10])."""
    present = counts > 0
    tri = counts * (counts + 1) // 2
    if task == "US":
        return present @ _CLASS_VALUES
    if task == "UC":
        return present.sum(axis=-1)
    if task == "WTri":
        return tri @ _CLASS_VALUES
    if task == "TriC":
        return tri.sum(axis=-1)
    if task == "USS":
        bonus = sum(present[..., a] & present[..., b] for a, b in pair_set)
        return present @ _CLASS_VALUES + 10 * np.asarray(bonus, dtype=np.int64)
    if task == "Mult":
        if counts[..., 0].any():
            raise ValueError("Mult is undefined for bags holding class 0")
        powers = np.arange(NUM_CLASSES, dtype=object) ** counts.astype(object)
        return np.prod(powers[..., 1:], axis=-1)
    raise ValueError(f"unknown task {task!r}")


def prefix_labels(task: str, classes, pair_set=()) -> np.ndarray:
    """[B, n] label of the first i+1 instances of each bag."""
    return label_of_counts(task, prefix_counts(classes), pair_set)


def labels(task: str, classes, pair_set=()) -> np.ndarray:
    """[B] label of each whole bag."""
    return prefix_labels(task, classes, pair_set)[:, -1]


def added_values(task: str, classes, pair_set=()) -> np.ndarray:
    """[B, n] added value of each instance given the instances before it."""
    prefix = prefix_labels(task, classes, pair_set)
    return np.diff(prefix, axis=1, prepend=np.zeros_like(prefix[:, :1]))
