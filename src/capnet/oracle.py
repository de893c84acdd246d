"""Exact set-function oracles and their sequential decomposition.

Each task maps a bag of class ids (0..9) to an integer label:

* US    unique sum: each class counts once, weighted by its value
* WTri  weighted triangular: class value times the triangular number of its count
* USS   unique sum plus a bonus of 10 for every pair in P with both classes present
* UC    number of distinct classes
* TriC  sum of triangular numbers of the counts
* Mult  product of all instance classes (classes 0 excluded; empty bag -> 1)

All of them are monotone over classes >= 1, so every instance has a
non-negative added value with respect to the instances seen before it.
`decompose` computes exactly those added values: the i-th entry is the label
of the first i instances minus the label of the first i-1, with the empty
prefix valued at 0 for every task. The entries always telescope back to the
full-bag label. `decompose_batch` gives the same values for a [B, n] block
of bags in one numpy pass; the scalar `eval_task` and `decompose` stay as
the specification it is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TASK_KINDS = ("US", "WTri", "USS", "UC", "TriC", "Mult")
NUM_CLASSES = 10


def triangular(m: int) -> int:
    """m-th triangular number m(m+1)/2."""
    if m < 0:
        raise ValueError(f"triangular number undefined for m={m}")
    return m * (m + 1) // 2


@dataclass(frozen=True)
class ClassMultiset:
    """Per-class instance counts of a bag."""

    counts: tuple

    def __post_init__(self):
        if len(self.counts) != NUM_CLASSES:
            raise ValueError(f"need {NUM_CLASSES} counts, got {len(self.counts)}")
        if any(c < 0 for c in self.counts):
            raise ValueError(f"negative count in {self.counts}")

    @classmethod
    def from_classes(cls, classes) -> "ClassMultiset":
        counts = [0] * NUM_CLASSES
        for c in classes:
            c = int(c)
            if not 0 <= c < NUM_CLASSES:
                raise ValueError(f"class id {c} outside 0..{NUM_CLASSES - 1}")
            counts[c] += 1
        return cls(tuple(counts))

    @property
    def size(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class TaskSpec:
    """Task kind plus the pair set P it needs (USS)."""

    kind: str
    pair_set: tuple = ()

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}; expected one of {TASK_KINDS}")
        pairs = tuple(tuple(int(c) for c in p) for p in self.pair_set)
        for a, b in pairs:
            if not (0 <= a < b <= NUM_CLASSES - 1):
                raise ValueError(f"pair {(a, b)} is not an unordered class pair with a < b")
        if len(set(pairs)) != len(pairs):
            raise ValueError("pair set contains duplicates")
        if pairs and self.kind != "USS":
            raise ValueError(f"pair set only applies to USS, not {self.kind}")
        object.__setattr__(self, "pair_set", pairs)

    @property
    def class_range(self) -> tuple:
        """The (low, high) class ids a bag of this task draws from; Mult
        skips class 0, which would break monotonicity."""
        return (1 if self.kind == "Mult" else 0, NUM_CLASSES - 1)


def _to_multiset(bag) -> ClassMultiset:
    if isinstance(bag, ClassMultiset):
        return bag
    return ClassMultiset.from_classes(bag)


def eval_task(task: TaskSpec, bag) -> int:
    """Integer label of `bag` (a ClassMultiset or iterable of class ids)."""
    ms = _to_multiset(bag)
    counts = ms.counts
    if task.kind == "US":
        return sum(c for c in range(NUM_CLASSES) if counts[c] > 0)
    if task.kind == "WTri":
        return sum(c * triangular(counts[c]) for c in range(NUM_CLASSES))
    if task.kind == "USS":
        base = sum(c for c in range(NUM_CLASSES) if counts[c] > 0)
        bonus = sum(10 for a, b in task.pair_set if counts[a] > 0 and counts[b] > 0)
        return base + bonus
    if task.kind == "UC":
        return sum(1 for c in range(NUM_CLASSES) if counts[c] > 0)
    if task.kind == "TriC":
        return sum(triangular(counts[c]) for c in range(NUM_CLASSES))
    if task.kind == "Mult":
        if counts[0] > 0:
            raise ValueError("Mult is undefined for class 0 (non-monotone)")
        value = 1
        for c in range(1, NUM_CLASSES):
            value *= c ** counts[c]
        return value
    raise AssertionError(task.kind)


def decompose(task: TaskSpec, sequence) -> list:
    """Added value of each instance with respect to its predecessors.

    Entry i is label(first i instances) - label(first i-1 instances), the
    empty prefix counting as 0 for every task (so the first entry is the
    label of a singleton bag). The sum of the entries equals the label of
    the whole bag.
    """
    counts = [0] * NUM_CLASSES
    previous = 0
    added = []
    for c in sequence:
        c = int(c)
        if not 0 <= c < NUM_CLASSES:
            raise ValueError(f"class id {c} outside 0..{NUM_CLASSES - 1}")
        counts[c] += 1
        current = eval_task(task, ClassMultiset(tuple(counts)))
        added.append(current - previous)
        previous = current
    return added


_ONE_HOT = np.eye(NUM_CLASSES, dtype=np.int64)
_CLASS_VALUES = np.arange(NUM_CLASSES, dtype=np.int64)
# Mult prefixes are products of at most 9s; a float64 estimate at or above
# 2^62 could be a true product past int64's 2^63 - 1, so it is refused.
_MULT_LIMIT = 2.0 ** 62


def decompose_batch(task: TaskSpec, classes) -> np.ndarray:
    """`decompose` for every row of a [B, n] class array, as [B, n] int64.

    Prefix class counts come from a cumulative one-hot sum, each prefix is
    labelled in closed form, and the added values are the differences of
    those labels with the empty prefix counted as 0.
    """
    classes = np.asarray(classes, dtype=np.int64)
    if classes.ndim != 2:
        raise ValueError(f"need a [B, n] class array, got shape {classes.shape}")
    bad = (classes < 0) | (classes >= NUM_CLASSES)
    if bad.any():
        raise ValueError(f"class id {classes[bad][0]} outside 0..{NUM_CLASSES - 1}")
    if task.kind == "Mult":
        if (classes == 0).any():
            raise ValueError("Mult is undefined for class 0 (non-monotone)")
        if classes.size and np.prod(classes, axis=1, dtype=np.float64).max() >= _MULT_LIMIT:
            raise ValueError("Mult prefix products could overflow int64")
        prefix = np.cumprod(classes, axis=1)
    else:
        counts = np.cumsum(_ONE_HOT[classes], axis=1)  # [B, n, 10]
        if task.kind in ("WTri", "TriC"):
            tri = counts * (counts + 1) // 2
            prefix = tri @ _CLASS_VALUES if task.kind == "WTri" else tri.sum(axis=2)
        else:
            present = (counts > 0).astype(np.int64)
            if task.kind == "UC":
                prefix = present.sum(axis=2)
            else:
                prefix = present @ _CLASS_VALUES
                for a, b in task.pair_set:
                    prefix += 10 * (present[:, :, a] & present[:, :, b])
    return np.diff(prefix, axis=1, prepend=0)


MAX_PAIRS = NUM_CLASSES * (NUM_CLASSES - 1) // 2


def sample_pair_set(seed: int, count: int) -> tuple:
    """Draw `count` distinct unordered class pairs, uniformly, without replacement."""
    if not 0 <= count <= MAX_PAIRS:
        raise ValueError(f"pair count {count} outside 0..{MAX_PAIRS}")
    all_pairs = [(a, b) for a in range(NUM_CLASSES) for b in range(a + 1, NUM_CLASSES)]
    rng = np.random.default_rng(seed)
    chosen = rng.choice(len(all_pairs), size=count, replace=False)
    return tuple(sorted(all_pairs[i] for i in chosen))
