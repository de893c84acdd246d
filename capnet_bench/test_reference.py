"""Hand-worked checks of the numpy reference, the IDX writer and span self times.

Run from the repository root: PYTHONPATH=src python3 -m pytest -q capnet_bench
"""

import numpy as np
import pytest

import idx_pools
import reference
import tracing

# (task, pair set, bag, label, added values), worked by hand from the task table
HAND_WORKED = [
    # unique sum: the second 8 adds nothing
    ("US", (), [8, 5, 8], 13, [8, 5, 0]),
    # 3*T(2) + 1*T(1) = 9 + 1; the second 3 adds 3*(T(2) - T(1)) = 6
    ("WTri", (), [3, 3, 1], 10, [3, 6, 1]),
    # 1 + 2 + 10 for the pair (1, 2); the bonus arrives with the 2
    ("USS", ((1, 2),), [1, 2, 1], 13, [1, 12, 0]),
    # pair (2, 7) never completes: no bonus
    ("USS", ((2, 7),), [2, 9, 9], 11, [2, 9, 0]),
    # two distinct classes
    ("UC", (), [4, 4, 7], 2, [1, 0, 1]),
    # T(3) = 6, one more per repeat
    ("TriC", (), [2, 2, 2], 6, [1, 2, 3]),
    # T(1) + T(2) for classes 0 and 5; class 0 counts in TriC
    ("TriC", (), [0, 5, 5], 4, [1, 1, 2]),
    # product 2*3*2; prefixes 2, 6, 12
    ("Mult", (), [2, 3, 2], 12, [2, 4, 6]),
    # a singleton: the empty prefix is valued 0, not the empty product 1
    ("Mult", (), [7], 7, [7]),
]


@pytest.mark.parametrize("task,pairs,bag,label,added", HAND_WORKED)
def test_hand_worked_examples(task, pairs, bag, label, added):
    classes = np.array([bag])
    assert reference.labels(task, classes, pairs).tolist() == [label]
    assert reference.added_values(task, classes, pairs).tolist() == [added]


def test_mult_stays_exact_beyond_int64():
    classes = np.full((1, 25), 9)
    assert reference.labels("Mult", classes)[0] == 9 ** 25
    assert reference.added_values("Mult", classes).sum() == 9 ** 25


def test_rejects_out_of_range_classes_and_class_zero_for_mult():
    with pytest.raises(ValueError):
        reference.labels("US", np.array([[10]]))
    with pytest.raises(ValueError):
        reference.labels("Mult", np.array([[0, 3]]))


@pytest.mark.parametrize("task", reference.TASKS)
def test_agrees_with_capnet_oracle_on_random_bags(task):
    oracle = pytest.importorskip("capnet.oracle")
    rng = np.random.default_rng(5)
    low = 1 if task == "Mult" else 0
    pairs = ((0, 3), (2, 9), (4, 5)) if task == "USS" else ()
    spec = oracle.TaskSpec(task, pair_set=pairs)
    classes = rng.integers(low, 10, size=(50, 12))
    added = reference.added_values(task, classes, pairs)
    for row, bag in enumerate(classes):
        assert added[row].tolist() == oracle.decompose(spec, bag)
        assert reference.labels(task, classes[row:row + 1], pairs)[0] == oracle.eval_task(spec, bag)


def test_idx_writer_balances_windows_and_round_trips(tmp_path):
    written = idx_pools.write_pools(tmp_path, seed=3, train=40, val=20, test=30)
    again = idx_pools.write_pools(tmp_path / "again", seed=3, train=40, val=20, test=30)
    pools = written["pools"]
    for split, info in pools.items():
        labels = written["labels_by_file"][info["images"]]
        window = labels[info["offset"]:info["offset"] + info["count"]]
        assert sorted(set(window.tolist())) == list(range(10)), split
        with open(info["images"], "rb") as f, open(again["pools"][split]["images"], "rb") as g:
            assert f.read() == g.read()
    with open(pools["train"]["labels"], "rb") as f:
        raw = f.read()
    assert raw[:8] == bytes([0, 0, 8, 1, 0, 0, 0, 60])
    assert list(raw[8:]) == written["labels_by_file"][pools["train"]["images"]].tolist()
    with open(pools["test"]["images"], "rb") as f:
        assert len(f.read()) == 16 + 30 * 28 * 28


def test_self_time_subtracts_the_union_of_child_intervals():
    parent = tracing.Span("a.outer", 0.0, 10.0, None)
    children = [tracing.Span("b.x", 1.0, 4.0, parent),
                tracing.Span("b.y", 3.0, 6.0, parent),   # overlaps x: another thread
                tracing.Span("c.z", 8.0, 9.0, parent)]
    assert tracing.self_times([parent] + children)[id(parent)] == pytest.approx(10.0 - 5.0 - 1.0)
