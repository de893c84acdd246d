"""Task oracles: labels, sequential decomposition, pair sampling.

Expected values come from independent reimplementations inside this file
(Counter-based label formulas) or from hand-worked sequences, never from the
code under test.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capnet import oracle
from capnet.oracle import (ClassMultiset, TaskSpec, decompose, decompose_batch, eval_task,
                           sample_pair_set)


def brute_label(kind, classes, pairs=()):
    """Straight-line reimplementation of every task on a plain list."""
    cnt = Counter(int(c) for c in classes)
    tri = lambda m: m * (m + 1) // 2
    if kind == "US":
        return sum(set(cnt))
    if kind == "WTri":
        return sum(v * tri(m) for v, m in cnt.items())
    if kind == "USS":
        return sum(set(cnt)) + 10 * sum(1 for a, b in pairs if cnt[a] and cnt[b])
    if kind == "UC":
        return len(cnt)
    if kind == "TriC":
        return sum(tri(m) for m in cnt.values())
    if kind == "Mult":
        return math.prod(classes) if classes else 1
    raise AssertionError(kind)


def random_task(kind, rng):
    if kind == "USS":
        return TaskSpec(kind, pair_set=sample_pair_set(int(rng.integers(1000)), 5))
    return TaskSpec(kind)


def random_bag(task, rng, max_size=10):
    low, high = task.class_range
    n = int(rng.integers(1, max_size + 1))
    return [int(c) for c in rng.integers(low, high + 1, size=n)]


ALL_PAIRS = [(a, b) for a in range(10) for b in range(a + 1, 10)]


@st.composite
def class_blocks(draw, max_n=24):
    """A task and a [B, n] block of bags from its class range; USS gets a
    drawn pair set, Mult bags stay at or under the datasets' cap of 16."""
    kind = draw(st.sampled_from(oracle.TASK_KINDS))
    pairs = ()
    if kind == "USS":
        pairs = tuple(sorted(draw(st.lists(st.sampled_from(ALL_PAIRS), unique=True, max_size=10))))
    task = TaskSpec(kind, pair_set=pairs)
    low, high = task.class_range
    n = draw(st.integers(1, 16 if kind == "Mult" else max_n))
    b = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(st.integers(low, high), min_size=n, max_size=n),
                         min_size=b, max_size=b))
    return task, np.array(rows, dtype=np.int64).reshape(b, n)


def test_triangular_small_values():
    assert [oracle.triangular(m) for m in range(6)] == [0, 1, 3, 6, 10, 15]
    with pytest.raises(ValueError):
        oracle.triangular(-1)


def test_labels_match_brute_force_reimplementation():
    rng = np.random.default_rng(7)
    for kind in oracle.TASK_KINDS:
        task = random_task(kind, rng)
        for _ in range(300):
            bag = random_bag(task, rng)
            assert eval_task(task, bag) == brute_label(kind, bag, task.pair_set)


def test_empty_bag_labels():
    for kind in ("US", "WTri", "USS", "UC", "TriC"):
        assert eval_task(TaskSpec(kind), []) == 0
    # empty product
    assert eval_task(TaskSpec("Mult"), []) == 1


def test_decomposition_telescopes_to_label_exactly():
    rng = np.random.default_rng(11)
    for kind in oracle.TASK_KINDS:
        task = random_task(kind, rng)
        for _ in range(200):
            bag = random_bag(task, rng)
            added = decompose(task, bag)
            assert len(added) == len(bag)
            assert sum(added) == eval_task(task, bag)  # exact ints


def test_added_values_are_never_negative():
    rng = np.random.default_rng(13)
    for kind in oracle.TASK_KINDS:
        task = random_task(kind, rng)
        for _ in range(200):
            for v in decompose(task, random_bag(task, rng)):
                assert v >= 0


def test_labels_are_monotone_under_instance_insertion():
    rng = np.random.default_rng(17)
    for kind in oracle.TASK_KINDS:
        task = random_task(kind, rng)
        low, high = task.class_range
        for _ in range(200):
            bag = random_bag(task, rng)
            extra = int(rng.integers(low, high + 1))
            assert eval_task(task, bag + [extra]) >= eval_task(task, bag)


@settings(max_examples=300, deadline=None)
@given(class_blocks())
def test_batch_decomposition_matches_scalar(block):
    task, classes = block
    added = decompose_batch(task, classes)
    assert added.dtype == np.int64 and added.shape == classes.shape
    for row, values in zip(classes.tolist(), added.tolist(), strict=True):
        assert values == decompose(task, row)


@settings(max_examples=200, deadline=None)
@given(class_blocks())
def test_batch_prefix_sums_are_labels_and_added_values_nonnegative(block):
    task, classes = block
    added = decompose_batch(task, classes)
    assert (added >= 0).all()
    prefix = np.cumsum(added, axis=1)
    for row, labels in zip(classes.tolist(), prefix.tolist()):
        # telescoping: every prefix, the whole bag included, sums to its label
        assert labels == [brute_label(task.kind, row[:i + 1], task.pair_set)
                          for i in range(len(row))]


@settings(max_examples=200, deadline=None)
@given(class_blocks(), st.data())
def test_batch_labels_are_monotone_under_instance_insertion(block, draw):
    task, classes = block
    low, high = task.class_range
    extra = draw.draw(st.integers(low, high))
    at = draw.draw(st.integers(0, classes.shape[1]))
    grown = np.insert(classes, at, extra, axis=1)
    before = decompose_batch(task, classes).sum(axis=1)
    after = decompose_batch(task, grown).sum(axis=1)
    assert (after >= before).all()


def test_batch_decomposition_edge_shapes():
    us = TaskSpec("US")
    assert decompose_batch(us, np.zeros((0, 5), dtype=np.int64)).shape == (0, 5)
    assert decompose_batch(TaskSpec("Mult"), np.zeros((0, 3), dtype=np.int64)).shape == (0, 3)
    assert decompose_batch(us, [[8], [0]]).tolist() == [[8], [0]]
    assert decompose_batch(us, [[8, 5, 8], [7, 7, 1]]).tolist() == [[8, 5, 0], [7, 0, 1]]
    with pytest.raises(ValueError, match="B, n"):
        decompose_batch(us, [8, 5, 8])


@pytest.mark.parametrize("kind", oracle.TASK_KINDS)
@pytest.mark.parametrize("bad", [10, -1])
def test_batch_decomposition_rejects_unknown_classes(kind, bad):
    task = TaskSpec(kind)
    with pytest.raises(ValueError, match=f"class id {bad} outside"):
        decompose_batch(task, [[3, 3, 3], [2, bad, 1]])


def test_batch_product_rejects_class_zero_and_int64_overflow():
    task = TaskSpec("Mult")
    with pytest.raises(ValueError, match="class 0"):
        decompose_batch(task, [[3, 2, 1], [3, 0, 2]])
    # 9^19 < 2^62 is exact; 9^20 > 2^63 - 1 would wrap, so it is refused
    assert decompose_batch(task, np.full((1, 19), 9)).sum() == 9 ** 19
    assert decompose_batch(task, np.ones((1, 200), dtype=np.int64)).sum() == 1
    with pytest.raises(ValueError, match="overflow"):
        decompose_batch(task, np.vstack([np.ones(20, dtype=np.int64), np.full(20, 9)]))


def test_unique_sum_ignores_repeats():
    task = TaskSpec("US")
    assert eval_task(task, [8, 5, 8]) == 13
    assert decompose(task, [8, 5, 8]) == [8, 5, 0]
    assert decompose(task, [7, 8, 6, 7, 8]) == [7, 8, 6, 0, 0]


def test_product_task_added_values_grow_multiplicatively():
    task = TaskSpec("Mult")
    assert eval_task(task, [6, 5, 4]) == 120
    # prefix labels 6, 30, 120 -> differences 6, 24, 90
    assert decompose(task, [6, 5, 4]) == [6, 24, 90]


def test_triangular_weighting_rewards_repeats():
    task = TaskSpec("WTri")
    seq = [2, 2, 3, 6, 3]
    assert decompose(task, seq) == [2, 4, 3, 6, 6]
    assert eval_task(task, seq) == 21


def test_pair_bonus_counts_each_present_pair_once():
    task = TaskSpec("USS", pair_set=((1, 2), (3, 4)))
    assert eval_task(task, [1, 2, 3]) == 6 + 10
    assert eval_task(task, [1, 2, 3, 4]) == 10 + 20
    assert eval_task(task, [1, 1, 2, 2]) == 3 + 10  # duplicates add nothing
    assert eval_task(task, [5, 6]) == 11


def test_distinct_count_and_triangular_count():
    assert eval_task(TaskSpec("UC"), [4, 4, 9, 1]) == 3
    assert eval_task(TaskSpec("TriC"), [4, 4, 9, 1]) == 3 + 1 + 1


def test_product_task_rejects_class_zero():
    task = TaskSpec("Mult")
    with pytest.raises(ValueError):
        eval_task(task, [3, 0, 2])


def test_multiset_validation():
    ms = ClassMultiset.from_classes([3, 3, 7])
    assert ms.counts[3] == 2 and ms.counts[7] == 1 and ms.size == 3
    with pytest.raises(ValueError):
        ClassMultiset.from_classes([10])
    with pytest.raises(ValueError):
        ClassMultiset((1,) * 9)
    with pytest.raises(ValueError):
        ClassMultiset((-1,) + (0,) * 9)


def test_task_validation():
    with pytest.raises(ValueError):
        TaskSpec("NotATask")
    with pytest.raises(ValueError):
        TaskSpec("USS", pair_set=((2, 1),))      # not ordered a < b
    with pytest.raises(ValueError):
        TaskSpec("USS", pair_set=((1, 2), (1, 2)))
    with pytest.raises(ValueError):
        TaskSpec("US", pair_set=((1, 2),))       # pair set only for USS


def test_pair_sampling_is_deterministic_and_valid():
    a = sample_pair_set(5, 5)
    b = sample_pair_set(5, 5)
    assert a == b
    assert a == tuple(sorted(a))
    assert len(set(a)) == 5
    for x, y in a:
        assert 0 <= x < y <= 9
    assert sample_pair_set(5, 0) == ()
    assert len(sample_pair_set(0, oracle.MAX_PAIRS)) == 45
    with pytest.raises(ValueError):
        sample_pair_set(0, 46)


def test_decompose_accepts_numpy_sequences():
    task = TaskSpec("US")
    seq = np.array([8, 5, 8])
    assert decompose(task, seq) == [8, 5, 0]
