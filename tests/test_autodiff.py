"""Autodiff engine: gradients against central finite differences, graph
mechanics, the optimizer, and the checkpoint format."""

import hashlib
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from capnet import autodiff as ad
from capnet import fileio, models


def fd_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f() with respect to array x,
    perturbing x in place."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + eps
        fp = f()
        x[idx] = orig - eps
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2.0 * eps)
    return g


def max_rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return float(np.max(np.abs(a - b) / denom))


def check_grads(build, arrays, tol=1e-7):
    """build(*tensors) must return a scalar Tensor; every input's backward
    gradient is compared against finite differences on a fresh graph."""
    tensors = [ad.Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()
    for i, t in enumerate(tensors):
        def scalar():
            fresh = [ad.Tensor(u.data) for u in tensors]
            return build(*fresh).item()
        expected = fd_grad(scalar, tensors[i].data)
        assert t.grad is not None
        assert max_rel_err(t.grad, expected) < tol, f"input {i}"


RNG = np.random.default_rng(0)


def test_add_mul_with_broadcasting():
    x = RNG.normal(size=(3, 4))
    b = RNG.normal(size=(4,))
    check_grads(lambda t, u: ad.reduce_sum((t + u) * t), [x, b])
    check_grads(lambda t, u: ad.reduce_sum(t * 2.0 - u + 1.5), [x, b])


def test_sub_neg_rsub():
    x = RNG.normal(size=(5,))
    check_grads(lambda t: ad.reduce_sum(1.0 - t - t * 0.5), [x])


def test_matmul_and_linear():
    x = RNG.normal(size=(4, 3))
    w = RNG.normal(size=(3, 2))
    b = RNG.normal(size=(2,))
    zero = ad.Tensor(np.zeros(2))
    check_grads(lambda t, u: ad.reduce_sum(ad.linear(t, u, zero)), [x, w])
    check_grads(lambda t, u, v: ad.reduce_sum(ad.linear(t, u, v)), [x, w, b])
    # a constant input (the embedding's case) and a constant bias
    check_grads(lambda u, v: ad.reduce_sum(ad.tanh(ad.linear(ad.Tensor(x), u, v))), [w, b])
    check_grads(lambda t, u: ad.reduce_sum(ad.tanh(ad.linear(t, u, ad.Tensor(b)))), [x, w])
    with pytest.raises(ValueError, match="bias shape"):
        ad.linear(ad.Tensor(x), ad.Tensor(w), ad.Tensor(np.zeros(3)))
    with pytest.raises(ValueError, match="weight expects"):
        ad.linear(ad.Tensor(x), ad.Tensor(w.T), ad.Tensor(b))
    with pytest.raises(ValueError, match="2-D"):
        ad.linear(ad.Tensor(x[0]), ad.Tensor(w), ad.Tensor(b))


def test_linear_is_one_node():
    x, w, b = (ad.Tensor(RNG.normal(size=s), requires_grad=True) for s in ((4, 3), (3, 2), (2,)))
    y = ad.linear(x, w, b)
    assert len(y._parents) == 3
    assert all(p is q for p, q in zip(y._parents, (x, w, b)))
    assert np.array_equal(y.data, x.data @ w.data + b.data)


def test_first_gradients_are_private_copies():
    # `+` hands the same gradient array to both inputs; each must own its copy
    a = ad.Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
    b = ad.Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
    ad.reduce_sum((a + b) * 3.0).backward()
    assert a.grad is not b.grad
    assert np.array_equal(a.grad, np.full((3, 2), 3.0))
    a.grad[0, 0] = 99.0
    assert np.array_equal(b.grad, np.full((3, 2), 3.0))
    # the same tensor on both sides still collects both contributions
    x = ad.Tensor(RNG.normal(size=(3, 2)), requires_grad=True)
    ad.reduce_sum((x + x) * 3.0).backward()
    assert np.array_equal(x.grad, np.full((3, 2), 6.0))


def test_activations_match_finite_differences():
    # keep inputs away from the relu/abs kinks
    x = RNG.normal(size=(3, 5))
    x[np.abs(x) < 0.05] = 0.2
    for kind in ("tanh", "sigmoid", "relu", "abs"):
        check_grads(lambda t, k=kind: ad.reduce_sum(ad.activation(k, t)), [x])
    with pytest.raises(ValueError):
        ad.activation("softplus", ad.Tensor(x))


def test_abs_uses_zero_subgradient_at_kink():
    t = ad.Tensor(np.array([0.0, -2.0, 3.0]), requires_grad=True)
    ad.reduce_sum(ad.absolute(t)).backward()
    assert np.array_equal(t.grad, [0.0, -1.0, 1.0])


def test_concat_slice_and_sum_axes():
    a = RNG.normal(size=(3, 2))
    b = RNG.normal(size=(3, 4))
    check_grads(lambda t, u: ad.reduce_sum(ad.concat(t, u) * 1.7), [a, b])
    check_grads(lambda t: ad.reduce_sum(ad.slice_cols(t, 1, 3)), [b])
    check_grads(lambda t: ad.reduce_sum(ad.reduce_sum(t, axis=0) * np.arange(4.0)), [b])
    check_grads(lambda t: ad.reduce_sum(ad.reduce_sum(t, axis=1) * np.arange(3.0)), [b])
    with pytest.raises(ValueError):
        ad.concat(ad.Tensor(a), ad.Tensor(np.zeros((2, 2))))


def test_softmax_weights_properties_and_gradient():
    s = RNG.normal(size=(4, 6))
    w = ad.softmax_weights(ad.Tensor(s)).data
    assert np.all(w >= 0)
    assert np.allclose(w.sum(axis=-1), 1.0, atol=1e-12)
    # invariant to shifting scores
    w2 = ad.softmax_weights(ad.Tensor(s + 100.0)).data
    assert np.allclose(w, w2, atol=1e-12)
    coef = RNG.normal(size=(4, 6))
    check_grads(lambda t: ad.reduce_sum(ad.softmax_weights(t) * coef), [s])


def test_mse_loss_value_and_gradient():
    pred = RNG.normal(size=(8,))
    target = RNG.normal(size=(8,))
    loss = ad.mse_loss(ad.Tensor(pred), target)
    assert loss.item() == pytest.approx(np.mean((pred - target) ** 2), rel=1e-12)
    check_grads(lambda t: ad.mse_loss(t, target), [pred])
    with pytest.raises(ValueError):
        ad.mse_loss(ad.Tensor(pred), np.zeros(4))


def test_shared_node_accumulates_both_paths():
    # y = x*x + x: dy/dx = 2x + 1; x feeds two consumers
    x = ad.Tensor(np.array([1.5, -2.0]), requires_grad=True)
    y = ad.reduce_sum(x * x + x)
    y.backward()
    assert np.allclose(x.grad, 2 * x.data + 1, atol=1e-12)


def test_deep_chain_does_not_recurse():
    x = ad.Tensor(np.array([0.01]), requires_grad=True)
    y = x
    for _ in range(5000):
        y = y + 0.001
    ad.reduce_sum(y).backward()
    assert x.grad[0] == pytest.approx(1.0)


def test_backward_guards():
    x = ad.Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError):
        x.backward()  # non-scalar
    y = ad.reduce_sum(x)
    y.backward()
    with pytest.raises(RuntimeError):
        y.backward()


def test_constant_graph_skips_gradient_tracking():
    x = ad.Tensor(np.ones((2, 2)))
    y = ad.reduce_sum(ad.tanh(x) * 3.0)
    assert not y.requires_grad
    assert y._parents == ()


def test_param_store_paths_and_freeze():
    store = ad.ParamStore(seed=0)
    store.add("b/x", np.zeros(2))
    store.add("a/y", np.zeros((2, 2)))
    assert store.paths() == ["a/y", "b/x"]
    assert store.param_count() == 6
    with pytest.raises(ValueError):
        store.add("a/y", np.zeros(1))
    store.freeze()
    with pytest.raises(RuntimeError):
        store.add("c/z", np.zeros(1))


def test_detached_view_shares_arrays_and_records_no_graph():
    store = ad.ParamStore(seed=0)
    w = store.add("w", np.array([[1.0, -2.0], [0.5, 3.0]]))
    store.freeze()
    view = store.detached()
    assert view is not store and view.paths() == store.paths()
    assert view["w"].data is w.data and not view["w"].requires_grad
    assert view.detached() is view
    with pytest.raises(RuntimeError):
        view.add("c", np.zeros(1))
    zero = ad.Tensor(np.zeros(2))
    y = ad.reduce_sum(ad.tanh(ad.linear(ad.Tensor(np.ones((3, 2))), view["w"], zero)))
    assert not y.requires_grad and y._parents == () and y._backprop is None
    # an optimizer step on the live store shows through the view
    live = ad.reduce_sum(ad.linear(ad.Tensor(np.ones((1, 2))), w, zero))
    live.backward()
    ad.Adam(store, lr=0.1).step()
    assert np.array_equal(view["w"].data, w.data)
    assert view["w"].grad is None


def test_state_dict_round_trip_and_mismatches():
    store = ad.ParamStore(seed=0)
    t = store.add("w", np.arange(6.0).reshape(2, 3))
    state = store.state_dict()
    state["w"] += 1  # copies, not views
    assert t.data[0, 0] == 0.0
    store.load_state_dict({"w": np.full((2, 3), 9.0)})
    assert t.data[1, 2] == 9.0
    with pytest.raises(ValueError):
        store.load_state_dict({"w": np.zeros((3, 2))})
    with pytest.raises(ValueError):
        store.load_state_dict({"v": np.zeros((2, 3))})


def test_adam_first_step_has_learning_rate_magnitude():
    # with constant gradient g, bias correction makes step one ~= lr * sign(g)
    store = ad.ParamStore(seed=0)
    theta = store.add("theta", np.zeros(1))
    opt = ad.Adam(store, lr=0.001)
    theta.grad = np.array([0.5])
    opt.step()
    assert theta.data[0] == pytest.approx(-0.001, rel=1e-6)


def test_adam_requires_gradients_and_is_deterministic():
    def run():
        store = ad.ParamStore(seed=0)
        store.add("w", np.ones(3))
        opt = ad.Adam(store, lr=0.01)
        rng = np.random.default_rng(4)
        for _ in range(25):
            store["w"].grad = rng.normal(size=3)
            opt.step()
        return store["w"].data.copy()

    a, b = run(), run()
    assert np.array_equal(a, b)

    store = ad.ParamStore(seed=0)
    store.add("w", np.ones(3))
    with pytest.raises(ValueError):
        ad.Adam(store).step()


def test_adam_converges_on_quadratic():
    store = ad.ParamStore(seed=0)
    w = store.add("w", np.array([5.0, -3.0]))
    opt = ad.Adam(store, lr=0.05)
    for _ in range(600):
        store.zero_grad()
        loss = ad.mse_loss(w, np.array([1.0, 2.0]))
        loss.backward()
        opt.step()
    assert np.allclose(w.data, [1.0, 2.0], atol=1e-3)


def test_checkpoint_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(9)
    state = {
        "embed/W": rng.normal(size=(10, 64)),
        "cell/h/W": rng.normal(size=(96, 32)),
        "dec/0/b": rng.normal(size=(32,)),
    }
    path = tmp_path / "model.capn"
    ad.save_checkpoint(path, state)
    loaded = ad.load_checkpoint(path)
    assert sorted(loaded) == sorted(state)
    for k in state:
        assert np.array_equal(loaded[k], state[k])


def test_checkpoint_records_are_sorted_and_little_endian(tmp_path):
    path = tmp_path / "model.capn"
    ad.save_checkpoint(path, {"zz": np.zeros(1), "aa": np.ones(2)})
    blob = path.read_bytes()
    assert blob[:4] == b"CAPN"
    (version,) = struct.unpack_from("<I", blob, 4)
    assert version == 1
    (plen,) = struct.unpack_from("<I", blob, 8)
    assert blob[12:12 + plen].decode() == "aa"  # sorted order


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.capn"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ValueError, match="magic"):
        ad.load_checkpoint(path)

    ad.save_checkpoint(path, {"w": np.arange(5.0)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="byte"):
        ad.load_checkpoint(path)

    path.write_bytes(b"CAPN" + struct.pack("<I", 99))
    with pytest.raises(ValueError, match="version"):
        ad.load_checkpoint(path)

    # magic followed by half a version field
    path.write_bytes(b"CAPN\x01\x00")
    with pytest.raises(ValueError, match="truncated checkpoint at byte 6"):
        ad.load_checkpoint(path)


_CKPT_SPEC = models.ModelSpec("gru", capacity=True, input_dim=3, embed_dim=2, hidden_dim=2,
                              enc_layers=1, dec_layers=1)
_CKPT_STATE = models.init_model(_CKPT_SPEC, 0).state_dict()


def _checkpoint_blob(tmp_path) -> bytes:
    path = tmp_path / "valid.capn"
    ad.save_checkpoint(path, _CKPT_STATE)
    return path.read_bytes()


def _record_ends() -> set:
    """Byte offsets at which a record of the valid checkpoint ends."""
    ends, offset = {8}, 8
    for name in sorted(_CKPT_STATE):
        arr = _CKPT_STATE[name]
        offset += 8 + len(name.encode()) + 4 * arr.ndim + 8 * arr.size
        ends.add(offset)
    return ends


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_checkpoint_damage_raises_value_error(tmp_path, draw):
    """Every truncation of a valid checkpoint, and every random tail after
    its magic (or magic and version), fails to load with ValueError. A
    truncation between records parses and is caught by the parameter set."""
    blob = _checkpoint_blob(tmp_path)
    payload = draw.draw(st.one_of(
        st.integers(0, len(blob) - 1).map(lambda k: blob[:k]),
        st.binary(max_size=80).map(lambda tail: b"CAPN" + tail),
        st.binary(max_size=80).map(lambda tail: blob[:8] + tail)))
    path = tmp_path / "damaged.capn"
    path.write_bytes(payload)
    store = models.init_model(_CKPT_SPEC, 1)
    if payload == blob[:len(payload)] and len(payload) in _record_ends():
        state = ad.load_checkpoint(path)
        with pytest.raises(ValueError, match="parameter set mismatch"):
            store.load_state_dict(state)
        return
    with pytest.raises(ValueError):
        store.load_state_dict(ad.load_checkpoint(path))


def test_checkpoint_bytes_are_pinned(tmp_path):
    """Digest of a checkpoint as written before saves went through a temp
    file; the on-disk bytes must not change."""
    spec = models.ModelSpec("gru", capacity=True, input_dim=10, embed_dim=8, hidden_dim=6,
                            enc_layers=2, dec_layers=2)
    path = tmp_path / "c.capn"
    ad.save_checkpoint(path, models.init_model(spec, 0).state_dict())
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "4bfe86268059bb6e6161d8ca49a84fba659254098f33947ded4e9a3011b257a5"


def test_failed_checkpoint_save_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "model.capn"
    ad.save_checkpoint(path, {"w": np.arange(5.0)})

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(fileio.os, "replace", refuse)
    with pytest.raises(OSError, match="refused"):
        ad.save_checkpoint(path, {"w": np.ones(7)})
    monkeypatch.undo()
    assert [p.name for p in tmp_path.iterdir()] == ["model.capn"]
    assert np.array_equal(ad.load_checkpoint(path)["w"], np.arange(5.0))
