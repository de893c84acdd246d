"""The benchmark's traced run (`capnet_bench/run.py --trace 1`) wraps capnet
functions by module and name; renaming or deleting one of them breaks it.
This installs and removes its tracer over the real package, and checks that
its Tensor count is the size of the training graph and that it times
evaluation forwards on image datasets and sees one dataset load per
`capnet eval`. The benchmark's checks read splits bag by bag; they run here
on the per-bag view of a `data.Split`."""

import importlib
import importlib.util
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from capnet import autodiff as ad
from capnet import cli, data, evaluate, models, train
from test_data import image_pools, synth_pool

BENCH = Path(__file__).resolve().parents[1] / "capnet_bench"
TRACING = BENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("capnet_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def load_workloads(monkeypatch):
    """`capnet_bench/workloads.py`, with `capnet_bench` on sys.path for its
    bare imports of `idx_pools` and `reference`."""
    monkeypatch.syspath_prepend(str(BENCH))
    spec = importlib.util.spec_from_file_location("capnet_bench_workloads", BENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def lookup(module: str, path: str):
    owner = importlib.import_module(f"capnet.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_bench_tracer_wraps_and_restores_every_traced_function():
    tracing = load_tracing()
    targets = [(m, p) for m, p, _ in tracing.SPANNED + tracing.COUNTED]
    targets.append(("autodiff", "Tensor.__init__"))
    before = {t: lookup(*t) for t in targets}
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert [t for t in targets if lookup(*t) is before[t]] == []
    finally:
        tracer.uninstall()
    assert [t for t in targets if lookup(*t) is not before[t]] == []


@pytest.mark.parametrize("family,capacity", [("gru", True), ("gru", False), ("lstm", True),
                                             ("deepset", False), ("attention", False)])
def test_tensor_count_is_the_training_graph_size(monkeypatch, family, capacity):
    """`autodiff.nodes_per_batch` counts `Tensor.__init__` calls inside
    `batch_loss`; every one of them must be a node of the loss's graph."""
    ds = data.generate_dataset(data.DatasetSpec(task="US", set_size=5, counts=(20, 5, 5), seed=1))
    _, classes, img_idx, labels = data.group_by_size(ds.splits["train"])[5]
    feats = data.position_features(classes, img_idx, "symbolic")
    params = models.init_model(models.ModelSpec(family, capacity=capacity), 0)
    built = 0
    init = ad.Tensor.__init__

    def counted(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)
    monkeypatch.setattr(ad.Tensor, "__init__", counted)
    loss = train.batch_loss(params, feats, labels, 0.5, 0.0)[0]
    monkeypatch.undo()

    leaves = {id(t) for _, t in params.items()}
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen and id(node) not in leaves:
            seen.add(id(node))
            stack.extend(node._parents)
    assert built == len(seen)


def test_image_eval_forwards_are_traced_as_batch_forward():
    """`models.batch_forward.eval_ms_per_batch` times the forwards under
    evaluation spans; on image datasets they take embedded rows and must
    still go through `models.batch_forward`."""
    pools = {s: synth_pool(s, seed=i) for i, s in enumerate(data.SPLITS)}
    ds = data.generate_dataset(data.DatasetSpec(task="US", mode="image", set_size=(2, 3),
                                                counts=(20, 10, 10), seed=1), pools=pools)
    params = models.init_model(models.ModelSpec("gru", capacity=True,
                                                input_dim=ds.feature_dim()), 0)
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        evaluate.evaluate_mse(params, ds, "val")
    finally:
        tracer.uninstall()
    forwards = [s for s in tracer.spans if s.name == "models.batch_forward"]
    assert len(forwards) == 2  # one batch per set size
    assert all(s.parent.name == "evaluate.split_mse_and_penalty"
               and s.under("evaluate.evaluate_mse") for s in forwards)


def test_image_eval_makes_one_traced_dataset_load(tmp_path):
    """`data.load_dataset.round_s` sums the CLI's `data.load_dataset` spans;
    an image `capnet eval` must load its split in exactly one such call."""
    ds = data.generate_dataset(data.DatasetSpec(task="US", mode="image", set_size=3,
                                                counts=(20, 8, 8), seed=2),
                               pools=image_pools(tmp_path))
    data.save_dataset(ds, tmp_path / "ds")
    cfg = train.RunConfig(dataset=str(tmp_path / "ds"), epochs=1, batch_size=10,
                          model=models.ModelSpec("gru", capacity=True, embed_dim=4, hidden_dim=4))
    train.train_run(cfg, out_dir=str(tmp_path / "run"))
    tracer = load_tracing().Tracer()
    try:
        tracer.install()
        assert cli.main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.capn"),
                         "--dataset", str(tmp_path / "ds"), "--out", str(tmp_path / "ev"),
                         "--metric", "mse,intermediates", "--split", "val"]) == 0
    finally:
        tracer.uninstall()
    loads = [s for s in tracer.spans if s.name == "data.load_dataset"]
    assert len(loads) == 1 and loads[0].parent.name == "cli.eval"
    pools = [s for s in tracer.spans if s.name == "data.build_pool"]
    assert len(pools) == 1 and pools[0].parent is loads[0]


@pytest.mark.parametrize("mode", ["symbolic", "image"])
def test_bench_checks_pass_on_generated_and_loaded_splits(tmp_path, monkeypatch, mode):
    """The benchmark's label, round-trip and audit checks read a split by
    `len`, iteration, `split[i]` and the `Bag` fields; they pass on a
    mixed-size dataset, generated and loaded, and catch a changed one."""
    workloads = load_workloads(monkeypatch)
    pools = image_pools(tmp_path) if mode == "image" else None
    spec = data.DatasetSpec(task="WTri", mode=mode, set_size=(2, 3, 5), counts=(30, 20, 20),
                            seed=3)
    generated = data.generate_dataset(spec, pools=pools)
    data.save_dataset(generated, tmp_path / "ds")
    ds = data.load_dataset(tmp_path / "ds")
    workloads.check_labels(generated, mode)
    workloads.check_labels(ds, mode)
    workloads.check_same_bags(generated, ds, mode)
    other = data.generate_dataset(replace(spec, seed=4), pools=pools)
    with pytest.raises(workloads.CheckFailed, match="differs after the round trip"):
        workloads.check_same_bags(other, ds, mode)
    labels = workloads.stored_labels(ds.splits["val"])
    for family, capacity in (("gru", True), ("lstm", False)):
        params = models.init_model(models.ModelSpec(family, capacity=capacity, embed_dim=4,
                                                    hidden_dim=4, input_dim=ds.feature_dim()), 0)
        fwd = workloads.SplitForward(params, ds, "val")
        assert workloads.close(evaluate.evaluate_mse(params, ds, "val"), fwd.mse(labels))
        report = (evaluate.intermediate_mae if capacity else evaluate.pseudo_report)(
            params, ds, "val")
        workloads.check_audit(fwd, ds, "val", [e.expected for e in report.entries],
                              [e.predicted for e in report.entries], report.mae,
                              evaluate.rounded_accuracy(params, ds, "val"),
                              evaluate.permutation_sensitivity(params, ds, "val", k=2)["mse"])
