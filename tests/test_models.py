"""Architectures: initialization, parameter parity, forward semantics,
capacity identities, gradient checks against finite differences.

Reference values come from plain-numpy reimplementations in this file."""

import numpy as np
import pytest

from capnet import models
from capnet.models import ModelSpec, init_model

from test_autodiff import fd_grad, max_rel_err


def small_spec(family, capacity=False, **kw):
    base = dict(input_dim=6, embed_dim=8, hidden_dim=4, enc_layers=2, dec_layers=2)
    base.update(kw)
    return ModelSpec(family=family, capacity=capacity, **base)


def rand_bag(rng, n, dim=6):
    return rng.normal(size=(n, dim))


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
        assert models.param_count(init_model(spec, 0)) == hand_param_count(spec)


def test_capacity_baseline_parameter_parity():
    for family in models.SEQUENTIAL:
        base = ModelSpec(family=family, input_dim=10, embed_dim=64,
                         hidden_dim=32, enc_layers=3, dec_layers=3)
        cap = ModelSpec(family=family, capacity=True, input_dim=10, embed_dim=64,
                        hidden_dim=32, enc_layers=3, dec_layers=3)
        pb, pc = init_model(base, 0), init_model(cap, 0)
        assert models.param_count(pb) == models.param_count(pc)
        assert pb.paths() == pc.paths()


def test_lstm_gru_gap_is_one_gate_block():
    lstm = models.param_count(init_model(small_spec("lstm"), 0))
    gru = models.param_count(init_model(small_spec("gru"), 0))
    d, e = 4, 8
    assert lstm - gru == (d + e) * d + d


def test_doubling_hidden_dim_tracks_closed_form():
    for family in ("gru", "deepset"):
        wide = small_spec(family, hidden_dim=8)
        assert models.param_count(init_model(wide, 0)) == hand_param_count(wide)


def test_deepset_is_permutation_invariant_and_additive():
    rng = np.random.default_rng(1)
    params = init_model(small_spec("deepset"), 2)
    bag = rand_bag(rng, 7)
    ref = models.forward(params, bag).prediction
    for _ in range(10):
        perm = rng.permutation(7)
        out = models.forward(params, bag[perm]).prediction
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
    assert models.forward(params, x).prediction == pytest.approx(expected, rel=1e-12)


def test_attention_weights_form_a_simplex():
    rng = np.random.default_rng(4)
    params = init_model(small_spec("attention"), 1)
    for n in (1, 2, 5, 9):
        w = models.attention_weights(params, rand_bag(rng, n))
        assert w.shape == (n,)
        assert np.all(w >= 0)
        assert abs(w.sum() - 1.0) <= 1e-12
    assert models.attention_weights(params, rand_bag(rng, 1))[0] == pytest.approx(1.0, abs=1e-15)


def test_attention_identical_instances_get_uniform_weights():
    params = init_model(small_spec("attention"), 6)
    x = np.tile(np.linspace(0, 1, 6), (4, 1))
    w = models.attention_weights(params, x)
    assert np.allclose(w, 0.25, atol=1e-12)


def test_rnn_single_step_matches_numpy():
    rng = np.random.default_rng(7)
    params = init_model(small_spec("rnn"), 8)
    x = rand_bag(rng, 1)
    e = np_embed(params, x)
    h = np.tanh(np.concatenate([np.zeros((1, 4)), e], axis=1)
                @ params["cell/h/W"].data + params["cell/h/b"].data)
    expected = np_mlp(params, "dec", 2, h)[0, 0]
    assert models.forward(params, x).prediction == pytest.approx(expected, rel=1e-12)


def test_zero_weight_rnn_predicts_a_constant():
    params = init_model(small_spec("rnn"), 9)
    state = params.state_dict()
    state["cell/h/W"][:] = 0.0
    params.load_state_dict(state)
    rng = np.random.default_rng(0)
    preds = {models.forward(params, rand_bag(rng, n)).prediction for n in (1, 3, 6)}
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
    assert models.forward(params, x).prediction == pytest.approx(expected, rel=1e-12)


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
    assert models.forward(params, xs).prediction == pytest.approx(expected, rel=1e-12)


def test_capacity_sum_identity_and_nonnegativity():
    rng = np.random.default_rng(11)
    for family in models.SEQUENTIAL:
        for trial in range(25):
            params = init_model(small_spec(family, capacity=True), trial)
            out = models.forward(params, rand_bag(rng, int(rng.integers(1, 8))))
            total = sum(out.intermediates)
            assert abs(out.prediction - total) <= 1e-9 * max(1.0, abs(out.prediction))
            assert all(v >= 0 for v in out.intermediates)


def test_capacity_without_abs_can_go_negative():
    rng = np.random.default_rng(12)
    seen_negative = False
    for trial in range(30):
        params = init_model(small_spec("gru", capacity=True, use_abs=False), trial)
        out = models.forward(params, rand_bag(rng, 6))
        assert abs(out.prediction - sum(out.intermediates)) <= 1e-9
        seen_negative = seen_negative or any(v < 0 for v in out.intermediates)
    assert seen_negative


def test_capacity_prefix_monotonicity_under_abs():
    rng = np.random.default_rng(13)
    params = init_model(small_spec("lstm", capacity=True), 3)
    bag = rand_bag(rng, 6)
    preds = [models.forward(params, bag[:k]).prediction for k in range(1, 7)]
    assert all(b >= a - 1e-12 for a, b in zip(preds, preds[1:]))


def test_empty_bag_handling():
    cap = init_model(small_spec("gru", capacity=True), 0)
    out = models.forward(cap, np.zeros((0, 6)))
    assert out.prediction == 0.0
    assert out.intermediates == []
    for family in models.FAMILIES:
        params = init_model(small_spec(family), 0)
        with pytest.raises(ValueError):
            models.forward(params, np.zeros((0, 6)))


def test_dispatch_wrappers_enforce_family():
    ds = init_model(small_spec("deepset"), 0)
    seq = init_model(small_spec("rnn"), 0)
    cap = init_model(small_spec("rnn", capacity=True), 0)
    bag = np.ones((2, 6))
    assert models.forward_deepset(ds, bag).prediction == models.forward(ds, bag).prediction
    with pytest.raises(ValueError):
        models.forward_deepset(seq, bag)
    with pytest.raises(ValueError):
        models.forward_sequential(cap, bag)
    with pytest.raises(ValueError):
        models.forward_capacity(seq, bag)
    with pytest.raises(ValueError):
        models.attention_weights(seq, bag)


def test_batched_forward_matches_per_bag():
    rng = np.random.default_rng(14)
    for family, capacity in (("deepset", False), ("attention", False),
                             ("gru", False), ("lstm", True)):
        params = init_model(small_spec(family, capacity=capacity), 1)
        bags = [rand_bag(rng, 4) for _ in range(6)]
        feats = [np.stack([b[p] for b in bags]) for p in range(4)]
        batched = models.batch_forward(params, feats)
        for i, bag in enumerate(bags):
            single = models.forward(params, bag)
            assert batched.prediction.data[i] == pytest.approx(single.prediction, rel=1e-9)
            for p, v in enumerate(single.intermediates):
                assert batched.intermediates[p].data[i] == pytest.approx(v, rel=1e-9)


@pytest.mark.parametrize("family,capacity", [
    ("deepset", False), ("attention", False), ("rnn", False), ("lstm", False),
    ("gru", False), ("rnn", True), ("lstm", True), ("gru", True)])
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
        out = models.forward(params, bag)
        return (out.prediction - label) ** 2

    def loss_tensor():
        from capnet import autodiff as ad
        out = models.batch_forward(params, [bag[i:i + 1] for i in range(3)])
        return ad.mse_loss(out.prediction, np.array([label]))

    # keep pre-abs decodes away from the kink; re-seed if a draw lands close
    if spec.capacity and spec.use_abs:
        out = models.forward(params, bag)
        if any(abs(v) < 1e-3 for v in out.intermediates):
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
