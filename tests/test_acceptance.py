"""Acceptance suite: the eleven contract checks, one test per criterion.

Each test prints a "[criterion N] PASS/FAIL" line with the measured numbers.
The desk-scale trainings are expensive, so they run once in session fixtures:
twelve runs (US and WTri, C-GRU and GRU, three seeds) shared by criteria 7,
9, and 10, plus six UC runs for criterion 8. Each fixture trains its runs on
two worker processes; every run is seeded and self-contained, so its result
is the same as in-process, and criterion 7's runtime budget is charged the
sum of the runs' own wall times, as if they had run one after another.
"""

import math
import multiprocessing
import statistics
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from capnet import autodiff, cli, data, evaluate, models, oracle, train

SEEDS = (0, 1, 2)
DESK_COUNTS = (20000, 2000, 2000)
# val-MSE threshold for the regularization-speed comparison; mid-descent on
# the UC learning curves, well above converged noise
UC_THRESHOLD = 0.1


def _rows(bag):
    """One [n, features] bag as the per-position matrices of a batch of one."""
    return [bag[i:i + 1] for i in range(len(bag))]


def report(num, ok, detail):
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def desk_config(capacity, seed, reg_lambda=0.0):
    spec = models.ModelSpec("gru", capacity=capacity, hidden_dim=32)
    return train.RunConfig(dataset="desk", model=spec, lr=0.001, batch_size=200,
                           epochs=50, seed=seed, reg_lambda=reg_lambda)


TRAIN_WORKERS = 2


def _timed_run(config, ds):
    t0 = time.perf_counter()
    result = train.train_run(config, dataset=ds)
    return result, time.perf_counter() - t0


def _train_all(jobs):
    """Train (config, dataset) jobs on worker processes; returns the results
    in job order and the summed wall time of the runs themselves.

    Workers get one BLAS thread each: the variables must be set before a
    worker imports numpy, and two processes that each run a second BLAS
    thread on this suite's small matmuls train slower than one process.
    """
    ctx = multiprocessing.get_context("spawn")
    with pytest.MonkeyPatch.context() as env:
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env.setenv(var, "1")
        with ProcessPoolExecutor(TRAIN_WORKERS, mp_context=ctx) as pool:
            done = list(pool.map(_timed_run, *zip(*jobs)))
    return [r for r, _ in done], sum(sec for _, sec in done)


@pytest.fixture(scope="session")
def desk_runs():
    out = {}
    t0 = time.perf_counter()
    jobs, keys = [], []
    for task in ("US", "WTri"):
        ds = data.generate_dataset(
            data.DatasetSpec(task=task, set_size=5, counts=DESK_COUNTS, seed=0))
        out[task] = ds
        for label, capacity in (("c-gru", True), ("gru", False)):
            keys.append((task, label))
            jobs += [(desk_config(capacity, seed), ds) for seed in SEEDS]
    generation = time.perf_counter() - t0
    results, train_seconds = _train_all(jobs)
    for i, key in enumerate(keys):
        out[key] = results[i * len(SEEDS):(i + 1) * len(SEEDS)]
    out["elapsed"] = generation + train_seconds
    return out


@pytest.fixture(scope="session")
def uc_runs():
    ds = data.generate_dataset(
        data.DatasetSpec(task="UC", set_size=5, counts=DESK_COUNTS, seed=0))
    out = {"ds": ds}
    lams = (0.0, 1.0)
    results, _ = _train_all([(desk_config(True, seed, reg_lambda=lam), ds)
                             for lam in lams for seed in SEEDS])
    for i, lam in enumerate(lams):
        out[lam] = results[i * len(SEEDS):(i + 1) * len(SEEDS)]
    return out


# -- 1: oracle identity -----------------------------------------------------

def test_criterion_01_oracle_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(12345)
    checked = 0
    for kind in oracle.TASK_KINDS:
        task = oracle.TaskSpec(kind, pair_set=oracle.sample_pair_set(0, 5)
                               if kind == "USS" else ())
        low, high = task.class_range
        for _ in range(1000):
            n = int(rng.integers(1, 11))
            classes = [int(c) for c in rng.integers(low, high + 1, size=n)]
            nu = oracle.decompose(task, classes)
            assert sum(nu) == oracle.eval_task(task, classes)
            assert all(isinstance(v, int) for v in nu)
            running = 0
            for v in nu:
                assert v >= 0  # monotone: each added value is non-negative
                running += v
            checked += 1
    elapsed = time.perf_counter() - t0
    report(1, elapsed < 5.0,
           f"{checked} bags across {len(oracle.TASK_KINDS)} tasks, "
           f"exact identity + monotonicity, {elapsed:.2f}s (< 5s)")


# -- 2: worked examples -----------------------------------------------------

def test_criterion_02_worked_examples():
    us = oracle.decompose(oracle.TaskSpec("US"), [8, 5, 8])
    mult = oracle.decompose(oracle.TaskSpec("Mult"), [6, 5, 4])
    wtri = oracle.decompose(oracle.TaskSpec("WTri"), [2, 2, 3, 6, 3])
    ok = us == [8, 5, 0] and mult == [6, 24, 90] and wtri == [2, 4, 3, 6, 6]
    report(2, ok, f"US (8,5,8)->{tuple(us)}, Mult (6,5,4)->{tuple(mult)}, "
                  f"WTri (2,2,3,6,3)->{tuple(wtri)}")


# -- 3: gradient checks -----------------------------------------------------

def _fd_grad(params, path, predict, eps=1e-6):
    arr = params[path].data
    grad = np.empty_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        hi = predict()
        flat[i] = keep - eps
        lo = predict()
        flat[i] = keep
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def _grad_check(spec, seed=0):
    """Max over parameter tensors of the vector-norm relative error between
    backprop and central differences."""
    rng = np.random.default_rng(seed)
    params = models.init_model(spec, seed)
    bag = rng.normal(scale=0.5, size=(3, spec.input_dim))
    feats = _rows(bag)

    if spec.capacity:
        # keep every per-instance value away from the |.| kink
        for bump in range(20):
            out = models.batch_forward(params, feats)
            vals = [abs(float(v.data[0])) for v in out.intermediates]
            if min(vals) > 1e-3:
                break
            bag = rng.normal(scale=0.5, size=(3, spec.input_dim))
            feats = _rows(bag)

    def predict():
        return float(models.batch_forward(params, feats).prediction.data[0])

    out = models.batch_forward(params, feats)
    params.zero_grad()
    out.prediction.backward()
    worst = 0.0
    for path, tensor in params.items():
        fd = _fd_grad(params, path, predict)
        grad = tensor.grad if tensor.grad is not None else np.zeros_like(fd)
        num = np.linalg.norm(grad - fd)
        den = max(np.linalg.norm(grad), np.linalg.norm(fd), 1e-8)
        worst = max(worst, num / den)
    return worst


def test_criterion_03_gradient_checks():
    t0 = time.perf_counter()
    specs = []
    for family in models.FAMILIES:
        specs.append(models.ModelSpec(family, embed_dim=4, hidden_dim=4))
        if family in models.SEQUENTIAL:
            specs.append(models.ModelSpec(family, capacity=True, embed_dim=4, hidden_dim=4))
    worst = {}
    for spec in specs:
        worst[spec.label] = _grad_check(spec)
    elapsed = time.perf_counter() - t0
    bad = {k: v for k, v in worst.items() if not v < 1e-5}
    overall = max(worst.values())
    report(3, not bad and elapsed < 30.0,
           f"{len(specs)} families, max relative error {overall:.2e} (< 1e-5), "
           f"{elapsed:.1f}s (< 30s)" + (f"; failing: {bad}" if bad else ""))


# -- 4: parameter parity ----------------------------------------------------

def test_criterion_04_parameter_parity():
    pairs = []
    for family in models.SEQUENTIAL:
        base = models.ModelSpec(family, embed_dim=64, hidden_dim=32,
                                enc_layers=3, dec_layers=3)
        cap = models.ModelSpec(family, capacity=True, embed_dim=64, hidden_dim=32,
                               enc_layers=3, dec_layers=3)
        pairs.append((family,
                      models.init_model(base, 0).param_count(),
                      models.init_model(cap, 0).param_count()))
    ok = all(b == c for _, b, c in pairs)
    report(4, ok, "; ".join(f"{f}: {b} == {c}" for f, b, c in pairs))


# -- 5: structural invariants -----------------------------------------------

def test_criterion_05_structural_invariants():
    rng = np.random.default_rng(7)
    msgs = []

    # capacity sum identity and non-negativity
    worst_rel = 0.0
    for family in models.SEQUENTIAL:
        spec = models.ModelSpec(family, capacity=True, embed_dim=8, hidden_dim=6)
        for seed in range(3):
            params = models.init_model(spec, seed)
            for n in (1, 3, 6):
                out = models.batch_forward(params, _rows(rng.normal(size=(n, 10))))
                pred = out.prediction.data[0]
                nus = [v.data[0] for v in out.intermediates]
                assert all(v >= 0.0 for v in nus)
                gap = abs(pred - sum(nus))
                worst_rel = max(worst_rel, gap / max(1.0, abs(pred)))
    assert worst_rel <= 1e-9
    msgs.append(f"capacity sum identity rel {worst_rel:.1e}")

    # deepset permutation invariance over 10 permutations
    params = models.init_model(models.ModelSpec("deepset", embed_dim=8, hidden_dim=6), 0)
    bag = rng.normal(size=(6, 10))
    preds = []
    for _ in range(10):
        preds.append(models.batch_forward(params, _rows(bag[rng.permutation(6)]))
                     .prediction.data[0])
    spread = (max(preds) - min(preds)) / max(1.0, abs(preds[0]))
    assert spread <= 1e-9
    msgs.append(f"deepset perm spread {spread:.1e}")

    # attention weights on the simplex
    params = models.init_model(models.ModelSpec("attention", embed_dim=8, hidden_dim=6), 0)
    for n in (1, 4, 7):
        w = models.batch_forward(params, _rows(rng.normal(size=(n, 10)))).weights[0]
        assert abs(w.sum() - 1.0) <= 1e-12
        assert np.all(w >= -1e-12) and np.all(w <= 1 + 1e-12)
    msgs.append("attention weights on simplex")
    report(5, True, "; ".join(msgs))


# -- 6: generator statistics ------------------------------------------------

def test_criterion_06_generator_statistics():
    us = data.generate_dataset(
        data.DatasetSpec(task="US", set_size=10, counts=(50000, 1, 1), seed=0))
    s = data.label_stats(us.splits["train"])
    mean_ok = abs(s["mean"] - 29.34) <= 0.5
    stdev_ok = abs(s["stdev"] - 6.32) <= 0.5

    wtri = data.generate_dataset(
        data.DatasetSpec(task="WTri", set_size=40, counts=(50000, 1, 1), seed=0))
    var = data.label_stats(wtri.splits["train"])["variance"]
    var_ok = abs(var - 9805.65) <= 0.05 * 9805.65
    report(6, mean_ok and stdev_ok and var_ok,
           f"US10 mean {s['mean']:.2f} (29.34+/-0.5), stdev {s['stdev']:.2f} "
           f"(6.32+/-0.5); WTri40 variance {var:.2f} (9805.65+/-5%)")


# -- 7: desk-scale learning -------------------------------------------------

def _median_final(runs):
    return statistics.median(r.final_val_mse for r in runs)


def test_criterion_07_desk_scale_learning(desk_runs):
    us = desk_runs["US"]
    cap_med = _median_final(desk_runs[("US", "c-gru")])
    gru_med = _median_final(desk_runs[("US", "gru")])
    cap_med_w = _median_final(desk_runs[("WTri", "c-gru")])
    gru_med_w = _median_final(desk_runs[("WTri", "gru")])
    baseline = evaluate.predict_mean_baseline(us, "val")

    a_ok = cap_med <= 0.5 and cap_med <= 0.1 * baseline
    b_ok = cap_med <= gru_med and cap_med_w <= gru_med_w
    maes = [evaluate.intermediate_mae(r.params, us, "val").mae
            for r in desk_runs[("US", "c-gru")]]
    c_mae = statistics.median(maes)
    c_ok = c_mae <= 1.0
    budget_ok = desk_runs["elapsed"] <= 1800.0

    detail = (f"(a) {'PASS' if a_ok else 'FAIL'}: C-GRU US val {cap_med:.4f} "
              f"(<= 0.5, predict-mean {baseline:.2f}); "
              f"(b) {'PASS' if b_ok else 'FAIL'}: US {cap_med:.4f} vs GRU {gru_med:.4f}, "
              f"WTri {cap_med_w:.4f} vs GRU {gru_med_w:.4f}; "
              f"(c) {'PASS' if c_ok else 'FAIL'}: intermediate MAE {c_mae:.3f} (<= 1.0); "
              f"runtime {desk_runs['elapsed']:.0f}s (<= 1800s)")
    report(7, a_ok and b_ok and c_ok and budget_ok, detail)


# -- 8: regularization trend ------------------------------------------------

def _first_crossing(run, threshold):
    for rec in run.history:
        if rec.split == "val" and rec.mse <= threshold:
            return rec.epoch
    return math.inf


def test_criterion_08_regularization_trend(uc_runs):
    epochs = {lam: statistics.median(_first_crossing(r, UC_THRESHOLD)
                                     for r in uc_runs[lam])
              for lam in (0.0, 1.0)}
    finals = {lam: _median_final(uc_runs[lam]) for lam in (0.0, 1.0)}
    speed_ok = epochs[1.0] <= epochs[0.0]
    final_ok = finals[1.0] <= finals[0.0]
    report(8, speed_ok and final_ok,
           f"epochs to val <= {UC_THRESHOLD}: lambda=1 {epochs[1.0]} vs "
           f"lambda=0 {epochs[0.0]}; final val: {finals[1.0]:.5f} vs {finals[0.0]:.5f}")


# -- 9: pseudo-intermediate gap ---------------------------------------------

def test_criterion_09_pseudo_gap(desk_runs):
    ds = desk_runs["WTri"]
    pseudo = statistics.median(
        evaluate.pseudo_report(r.params, ds, "val").mae
        for r in desk_runs[("WTri", "gru")])
    real = statistics.median(
        evaluate.intermediate_mae(r.params, ds, "val").mae
        for r in desk_runs[("WTri", "c-gru")])
    ratio = pseudo / real if real > 0 else math.inf
    report(9, ratio >= 5.0,
           f"GRU pseudo MAE {pseudo:.3f} vs C-GRU MAE {real:.3f}, "
           f"ratio {ratio:.1f}x (>= 5x)")


# -- 10: permutation sensitivity --------------------------------------------

def test_criterion_10_permutation_sensitivity(desk_runs):
    ds = desk_runs["US"]
    deepset = models.init_model(models.ModelSpec("deepset", hidden_dim=32), 0)
    ds_spread = evaluate.permutation_sensitivity(deepset, ds, "val", k=5)["relative_spread"]

    cap = statistics.median(
        evaluate.permutation_sensitivity(r.params, ds, "val", k=5)["spread"]
        for r in desk_runs[("US", "c-gru")])
    gru = statistics.median(
        evaluate.permutation_sensitivity(r.params, ds, "val", k=5)["spread"]
        for r in desk_runs[("US", "gru")])
    report(10, ds_spread <= 1e-9 and cap <= gru,
           f"deepset relative spread {ds_spread:.1e} (<= 1e-9); "
           f"C-GRU spread {cap:.2e} vs GRU {gru:.2e} (k=5, median of 3 seeds)")


# -- 11: end-to-end reproducibility -----------------------------------------

def test_criterion_11_reproducibility(tmp_path):
    import json
    cfg_path = tmp_path / "ds.json"
    with open(cfg_path, "w") as f:
        json.dump({"task": "US", "set_size": 3, "counts": [300, 50, 50], "seed": 2}, f)
    ds_dir = str(tmp_path / "ds")
    assert cli.main(["generate", "--config", str(cfg_path), "--out", ds_dir]) == 0

    run_cfg = tmp_path / "run.json"
    with open(run_cfg, "w") as f:
        json.dump({"dataset": ds_dir, "batch_size": 50, "epochs": 3, "seed": 0,
                   "model": {"family": "gru", "capacity": True, "embed_dim": 8,
                             "hidden_dim": 6, "enc_layers": 2, "dec_layers": 2}}, f)
    outs = []
    for name in ("r1", "r2"):
        out = str(tmp_path / name)
        assert cli.main(["train", "--config", str(run_cfg), "--out", out]) == 0
        with open(f"{out}/metrics.csv", "rb") as f:
            outs.append(f.read())
    report(11, outs[0] == outs[1],
           f"two executions, metrics.csv byte-identical ({len(outs[0])} bytes)")
