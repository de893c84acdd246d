"""Architectures: initialization, parameter parity, forward semantics,
capacity identities, gradient checks against finite differences.

Reference values come from plain-numpy reimplementations in this file."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from capnet import models
from capnet.models import ModelSpec, init_model

from test_autodiff import fd_grad, max_rel_err


def small_spec(family, capacity=False, **kw):
    base = dict(input_dim=6, embed_dim=8, hidden_dim=4, enc_layers=2, dec_layers=2)
    base.update(kw)
    return ModelSpec(family=family, capacity=capacity, **base)


def rand_bag(rng, n, dim=6):
    return rng.normal(size=(n, dim))


def rows(bag):
    """One [n, features] bag as the per-position matrices of a batch of one."""
    return [bag[i:i + 1] for i in range(len(bag))]


def predict(params, bag) -> float:
    return float(models.batch_forward(params, rows(bag)).prediction.data[0])


# -- plain-numpy references -------------------------------------------------

def np_mlp(params, prefix, layers, x):
    for i in range(layers):
        x = x @ params[f"{prefix}/{i}/W"].data + params[f"{prefix}/{i}/b"].data
        if i < layers - 1:
            x = np.maximum(x, 0.0)
    return x


def np_embed(params, x):
    return x @ params["embed/W"].data + params["embed/b"].data


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def test_spec_validation():
    with pytest.raises(ValueError):
        ModelSpec(family="transformer")
    with pytest.raises(ValueError):
        ModelSpec(family="deepset", capacity=True)
    with pytest.raises(ValueError):
        ModelSpec(family="rnn", hidden_dim=0)
    assert ModelSpec(family="GRU").family == "gru"
    assert ModelSpec(family="gru", capacity=True).label == "c-gru"


def test_init_is_deterministic_per_seed():
    spec = small_spec("lstm", capacity=True)
    a = init_model(spec, seed=3).state_dict()
    b = init_model(spec, seed=3).state_dict()
    c = init_model(spec, seed=4).state_dict()
    assert sorted(a) == sorted(b) == sorted(c)
    for k in a:
        assert np.array_equal(a[k], b[k])
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_init_bounds_follow_fan_in():
    params = init_model(small_spec("rnn"), seed=0)
    w = params["cell/h/W"].data
    bound = 1.0 / np.sqrt(w.shape[0])
    assert np.abs(w).max() <= bound
    assert np.abs(params["cell/h/b"].data).max() <= bound


def hand_param_count(spec: ModelSpec) -> int:
    """Closed-form per-layer (in*out + out) sum, written independently."""
    d, e = spec.hidden_dim, spec.embed_dim
    total = spec.input_dim * e + e
    if spec.family in ("deepset", "attention"):
        widths = [e] + [d] * spec.enc_layers
        total += sum(a * b + b for a, b in zip(widths, widths[1:]))
    if spec.family == "attention":
        total += (e * d + d) + (d * 1 + 1)
    gates = {"rnn": 1, "lstm": 4, "gru": 3}.get(spec.family, 0)
    total += gates * ((d + e) * d + d)
    dec_widths = [d] * spec.dec_layers + [1]
    total += sum(a * b + b for a, b in zip(dec_widths, dec_widths[1:]))
    return total


def test_param_count_matches_closed_form():
    for family in models.FAMILIES:
        spec = small_spec(family)
        assert init_model(spec, 0).param_count() == hand_param_count(spec)


def test_capacity_baseline_parameter_parity():
    for family in models.SEQUENTIAL:
        base = ModelSpec(family=family, input_dim=10, embed_dim=64,
                         hidden_dim=32, enc_layers=3, dec_layers=3)
        cap = ModelSpec(family=family, capacity=True, input_dim=10, embed_dim=64,
                        hidden_dim=32, enc_layers=3, dec_layers=3)
        pb, pc = init_model(base, 0), init_model(cap, 0)
        assert pb.param_count() == pc.param_count()
        assert pb.paths() == pc.paths()


def test_capacity_and_baseline_run_the_same_cell():
    """A C-GRU and a GRU from one seed step through bit-identical latents,
    and the GRU's prediction is the decoder applied to its last one."""
    feats = list(np.random.default_rng(3).normal(size=(4, 7, 6)))
    cap = models.batch_forward(init_model(small_spec("gru", capacity=True), 5), feats)
    base_params = init_model(small_spec("gru"), 5)
    base = models.batch_forward(base_params, feats)
    assert len(base.latents) == len(cap.latents) == 4
    for a, b in zip(base.latents, cap.latents):
        assert np.array_equal(a, b)
    assert np.array_equal(base.prediction.data, models.decode_state(base_params, base.latents[-1]))


def test_lstm_gru_gap_is_one_gate_block():
    lstm = init_model(small_spec("lstm"), 0).param_count()
    gru = init_model(small_spec("gru"), 0).param_count()
    d, e = 4, 8
    assert lstm - gru == (d + e) * d + d


def test_doubling_hidden_dim_tracks_closed_form():
    for family in ("gru", "deepset"):
        wide = small_spec(family, hidden_dim=8)
        assert init_model(wide, 0).param_count() == hand_param_count(wide)


def test_deepset_is_permutation_invariant_and_additive():
    rng = np.random.default_rng(1)
    params = init_model(small_spec("deepset"), 2)
    bag = rand_bag(rng, 7)
    ref = predict(params, bag)
    for _ in range(10):
        perm = rng.permutation(7)
        out = predict(params, bag[perm])
        assert abs(out - ref) <= 1e-9 * max(1.0, abs(ref))

    # duplicate instance contributes its encoding twice to the pooled vector
    x, y = rand_bag(rng, 2)
    z_xxy = np_mlp(params, "enc", 2, np_embed(params, np.stack([x, x, y]))).sum(axis=0)
    two_x = 2 * np_mlp(params, "enc", 2, np_embed(params, x[None]))[0]
    z_other = np_mlp(params, "enc", 2, np_embed(params, y[None]))[0]
    assert np.allclose(z_xxy, two_x + z_other, atol=1e-12)


def test_deepset_single_instance_equals_decode_of_encoding():
    rng = np.random.default_rng(3)
    params = init_model(small_spec("deepset"), 5)
    x = rand_bag(rng, 1)
    expected = np_mlp(params, "dec", 2, np_mlp(params, "enc", 2, np_embed(params, x)))[0, 0]
    assert predict(params, x) == pytest.approx(expected, rel=1e-12)


def pooling_weights(params, bag):
    return models.batch_forward(params, rows(bag)).weights[0]


def test_attention_pooling_weights_form_a_simplex():
    rng = np.random.default_rng(4)
    params = init_model(small_spec("attention"), 1)
    for n in (1, 2, 5, 9):
        w = pooling_weights(params, rand_bag(rng, n))
        assert w.shape == (n,)
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) <= 1e-12
    assert pooling_weights(params, rand_bag(rng, 1))[0] == pytest.approx(1.0, abs=1e-15)


def test_attention_identical_instances_get_uniform_weights():
    params = init_model(small_spec("attention"), 6)
    x = np.tile(np.linspace(0, 1, 6), (4, 1))
    w = pooling_weights(params, x)
    assert np.allclose(w, 0.25, atol=1e-12)


def test_rnn_single_step_matches_numpy():
    rng = np.random.default_rng(7)
    params = init_model(small_spec("rnn"), 8)
    x = rand_bag(rng, 1)
    e = np_embed(params, x)
    h = np.tanh(np.concatenate([np.zeros((1, 4)), e], axis=1)
                @ params["cell/h/W"].data + params["cell/h/b"].data)
    expected = np_mlp(params, "dec", 2, h)[0, 0]
    assert predict(params, x) == pytest.approx(expected, rel=1e-12)


def test_zero_weight_rnn_predicts_a_constant():
    params = init_model(small_spec("rnn"), 9)
    state = params.state_dict()
    state["cell/h/W"][:] = 0.0
    params.load_state_dict(state)
    rng = np.random.default_rng(0)
    preds = {predict(params, rand_bag(rng, n)) for n in (1, 3, 6)}
    h = np.tanh(params["cell/h/b"].data)[None, :]
    expected = np_mlp(params, "dec", 2, h)[0, 0]
    for p in preds:
        assert p == pytest.approx(expected, rel=1e-12)


def test_lstm_gate_arithmetic_on_tiny_cell():
    spec = ModelSpec(family="lstm", input_dim=2, embed_dim=2, hidden_dim=2,
                     enc_layers=1, dec_layers=1)
    params = init_model(spec, 0)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(1, 2))
    e = np_embed(params, x)
    hx = np.concatenate([np.zeros((1, 2)), e], axis=1)
    gates = {g: hx @ params[f"cell/{g}/W"].data + params[f"cell/{g}/b"].data
             for g in ("i", "f", "g", "o")}
    c = sigmoid(gates["f"]) * 0 + sigmoid(gates["i"]) * np.tanh(gates["g"])
    h = sigmoid(gates["o"]) * np.tanh(c)
    expected = np_mlp(params, "dec", 1, h)[0, 0]
    assert predict(params, x) == pytest.approx(expected, rel=1e-12)


def test_gru_gate_arithmetic_on_tiny_cell():
    spec = ModelSpec(family="gru", input_dim=2, embed_dim=2, hidden_dim=2,
                     enc_layers=1, dec_layers=1)
    params = init_model(spec, 0)
    rng = np.random.default_rng(6)
    xs = rng.normal(size=(2, 2))
    h = np.zeros((1, 2))
    for x in xs:
        e = np_embed(params, x[None])
        hx = np.concatenate([h, e], axis=1)
        r = sigmoid(hx @ params["cell/r/W"].data + params["cell/r/b"].data)
        z = sigmoid(hx @ params["cell/z/W"].data + params["cell/z/b"].data)
        n = np.tanh(np.concatenate([r * h, e], axis=1)
                    @ params["cell/n/W"].data + params["cell/n/b"].data)
        h = z * h + (1 - z) * n
    expected = np_mlp(params, "dec", 1, h)[0, 0]
    assert predict(params, xs) == pytest.approx(expected, rel=1e-12)


def test_capacity_sum_identity_and_nonnegativity():
    rng = np.random.default_rng(11)
    for family in models.SEQUENTIAL:
        for trial in range(25):
            params = init_model(small_spec(family, capacity=True), trial)
            out = models.batch_forward(params, rows(rand_bag(rng, int(rng.integers(1, 8)))))
            pred = out.prediction.data[0]
            nus = [v.data[0] for v in out.intermediates]
            assert abs(pred - sum(nus)) <= 1e-9 * max(1.0, abs(pred))
            assert all(v >= 0 for v in nus)


def test_capacity_without_abs_can_go_negative():
    rng = np.random.default_rng(12)
    seen_negative = False
    for trial in range(30):
        params = init_model(small_spec("gru", capacity=True, use_abs=False), trial)
        out = models.batch_forward(params, rows(rand_bag(rng, 6)))
        nus = [v.data[0] for v in out.intermediates]
        assert abs(out.prediction.data[0] - sum(nus)) <= 1e-9
        seen_negative = seen_negative or any(v < 0 for v in nus)
    assert seen_negative


def test_capacity_prefix_monotonicity_under_abs():
    rng = np.random.default_rng(13)
    params = init_model(small_spec("lstm", capacity=True), 3)
    bag = rand_bag(rng, 6)
    preds = [predict(params, bag[:k]) for k in range(1, 7)]
    assert all(b >= a - 1e-12 for a, b in zip(preds, preds[1:]))


def test_empty_bag_handling():
    cap = init_model(small_spec("gru", capacity=True), 0)
    out = models.batch_forward(cap, rows(np.zeros((0, 6))))
    assert out.prediction.data.shape == (0,)
    assert out.intermediates == []
    for family in models.FAMILIES:
        params = init_model(small_spec(family), 0)
        with pytest.raises(ValueError, match="empty"):
            models.batch_forward(params, rows(np.zeros((0, 6))))


VARIANTS = [("deepset", False), ("attention", False), ("rnn", False), ("lstm", False),
            ("gru", False), ("rnn", True), ("lstm", True), ("gru", True)]


def assert_close(batched, single):
    np.testing.assert_allclose(batched, single, rtol=1e-9, atol=1e-12)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(VARIANTS), st.integers(1, 7), st.integers(1, 6), st.integers(0, 2**32 - 1))
def test_batch_equals_each_row_run_alone(variant, batch, n, seed):
    family, capacity = variant
    rng = np.random.default_rng(seed)
    params = init_model(small_spec(family, capacity=capacity), seed % 7)
    feats = [rng.normal(size=(batch, 6)) for _ in range(n)]
    out = models.batch_forward(params, feats)
    assert out.prediction.data.shape == (batch,)
    assert len(out.intermediates) == (n if capacity else 0)
    assert len(out.latents) == (1 if family in ("deepset", "attention") else n)
    for i in range(batch):
        alone = models.batch_forward(params, [x[i:i + 1] for x in feats])
        assert_close(out.prediction.data[i], alone.prediction.data[0])
        for a, b in zip(out.intermediates, alone.intermediates, strict=True):
            assert_close(a.data[i], b.data[0])
        for a, b in zip(out.latents, alone.latents, strict=True):
            assert_close(a[i], b[0])
        if family == "attention":
            assert_close(out.weights[i], alone.weights[0])
    assert (out.weights is not None) == (family == "attention")
    if capacity:
        total = sum(v.data for v in out.intermediates)
        assert np.all(np.abs(out.prediction.data - total)
                      <= 1e-9 * np.maximum(1.0, np.abs(out.prediction.data)))


@pytest.mark.parametrize("family,capacity", VARIANTS)
def test_detached_forward_equals_live_forward(family, capacity):
    rng = np.random.default_rng(21)
    params = init_model(small_spec(family, capacity=capacity), 3)
    feats = [rng.normal(size=(7, 6)) for _ in range(5)]
    live = models.batch_forward(params, feats)
    view = models.batch_forward(params.detached(), feats)
    assert live.prediction.requires_grad and not view.prediction.requires_grad
    assert view.prediction._parents == ()
    assert np.array_equal(live.prediction.data, view.prediction.data)
    assert len(live.intermediates) == len(view.intermediates) == (5 if capacity else 0)
    for a, b in zip(live.intermediates, view.intermediates):
        assert np.array_equal(a.data, b.data)
    for a, b in zip(live.latents, view.latents, strict=True):
        assert np.array_equal(a, b)
    if family == "attention":
        assert np.array_equal(live.weights, view.weights)


def grad_check_model(spec, seed, rng, tol=1e-5):
    params = init_model(spec, seed)
    bag = rand_bag(rng, 3, dim=spec.input_dim)
    label = 2.0

    def loss_value():
        return (predict(params, bag) - label) ** 2

    def loss_tensor():
        from capnet import autodiff as ad
        out = models.batch_forward(params, rows(bag))
        return ad.mse_loss(out.prediction, np.array([label]))

    # keep pre-abs decodes away from the kink; re-seed if a draw lands close
    if spec.capacity and spec.use_abs:
        out = models.batch_forward(params, rows(bag))
        if any(abs(v.data[0]) < 1e-3 for v in out.intermediates):
            return grad_check_model(spec, seed + 100, rng, tol)

    loss = loss_tensor()
    params.zero_grad()
    loss.backward()
    worst = 0.0
    for path, t in params.items():
        fd = fd_grad(loss_value, t.data)
        analytic = t.grad if t.grad is not None else np.zeros_like(t.data)
        # norm-level relative error per tensor; elementwise comparison drowns
        # in finite-difference roundoff on near-zero components
        num = np.linalg.norm(analytic - fd)
        den = max(np.linalg.norm(analytic), np.linalg.norm(fd), 1e-8)
        worst = max(worst, num / den)
    assert worst < tol, f"{spec.label}: max rel err {worst}"
    return worst


def test_gradients_match_finite_differences_spot_checks():
    rng = np.random.default_rng(21)
    grad_check_model(small_spec("attention"), 2, rng)
    grad_check_model(small_spec("gru", capacity=True), 3, rng)
