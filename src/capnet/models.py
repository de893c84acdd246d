"""Set-regression architectures behind one forward interface.

Five families share a learned linear embedding of the raw instance features:

* deepset    - sum-pool encoded instances, decode the pooled vector once
* attention  - softmax-weighted pooling with a small scoring head
* rnn/lstm/gru - run a recurrent cell over the instances, decode the final
  hidden state once

Each sequential family also has a capacity variant (capacity=True): the same
cell, but the decoder is applied at every step and the prediction is the sum
of the per-step values |delta(z_i)|. Those per-step values are the model's
intermediate outputs. Baseline and capacity variants of a family share the
exact same parameter set, so their trainable parameter counts are equal by
construction.

Forward passes are batched: a batch of same-size bags is processed as a list
of per-position [batch, features] matrices; one bag is a batch of one.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import fileio

FAMILIES = ("deepset", "attention", "rnn", "lstm", "gru")
SEQUENTIAL = ("rnn", "lstm", "gru")


@dataclass(frozen=True)
class ModelSpec:
    family: str
    capacity: bool = False
    use_abs: bool = True
    input_dim: int = 10
    embed_dim: int = 64
    hidden_dim: int = 32
    enc_layers: int = 3
    dec_layers: int = 3

    def __post_init__(self):
        object.__setattr__(self, "family", self.family.lower())
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.capacity and self.family not in SEQUENTIAL:
            raise ValueError(f"capacity variant exists only for {SEQUENTIAL}, not {self.family!r}")
        for name in ("input_dim", "embed_dim", "hidden_dim", "enc_layers", "dec_layers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @classmethod
    def from_label(cls, label: str, **fields) -> "ModelSpec":
        """The spec whose `label` is `label`, in any case: `c-<family>` is the
        capacity variant of <family>, any other label a baseline family."""
        capacity = label.lower().startswith("c-")
        return cls(family=label[2:] if capacity else label, capacity=capacity, **fields)

    @property
    def label(self) -> str:
        if self.capacity:
            return "c-" + self.family
        return self.family

    def to_json(self) -> dict:
        return asdict(self)


# a model spec's JSON fields, as run configs and checkpoint.json hold them
MODEL_SCHEMA = fileio.spec_schema(ModelSpec)


def _add_linear(store: ad.ParamStore, rng, path: str, fan_in: int, fan_out: int):
    # uniform +-1/sqrt(fan_in), biases included; draw order fixes determinism
    bound = 1.0 / math.sqrt(fan_in)
    store.add(path + "/W", rng.uniform(-bound, bound, size=(fan_in, fan_out)))
    store.add(path + "/b", rng.uniform(-bound, bound, size=(fan_out,)))


_LSTM_GATES = ("i", "f", "g", "o")
_GRU_GATES = ("r", "z", "n")


def init_model(spec: ModelSpec, seed: int) -> ad.ParamStore:
    """Build and initialize the parameter store for `spec`.

    Deterministic given the seed: parameters are registered in a fixed order
    and their initial values drawn from a single stream in that order.
    """
    rng = np.random.default_rng(seed)
    store = ad.ParamStore(spec)
    d = spec.hidden_dim

    _add_linear(store, rng, "embed", spec.input_dim, spec.embed_dim)

    if spec.family in ("deepset", "attention"):
        width = spec.embed_dim
        for i in range(spec.enc_layers):
            out = d
            _add_linear(store, rng, f"enc/{i}", width, out)
            width = out
    if spec.family == "attention":
        _add_linear(store, rng, "att/score0", spec.embed_dim, d)
        _add_linear(store, rng, "att/score1", d, 1)
    if spec.family == "rnn":
        _add_linear(store, rng, "cell/h", d + spec.embed_dim, d)
    elif spec.family == "lstm":
        for gate in _LSTM_GATES:
            _add_linear(store, rng, f"cell/{gate}", d + spec.embed_dim, d)
    elif spec.family == "gru":
        for gate in _GRU_GATES:
            _add_linear(store, rng, f"cell/{gate}", d + spec.embed_dim, d)

    for i in range(spec.dec_layers):
        out = 1 if i == spec.dec_layers - 1 else d
        _add_linear(store, rng, f"dec/{i}", d, out)

    store.freeze()
    return store


# -- forward pass ------------------------------------------------------------

def embed(params, x: np.ndarray) -> ad.Tensor:
    """The first layer: raw instance features [rows, input_dim] to
    embedded rows [rows, embed_dim]."""
    return ad.linear(ad.Tensor(x), params["embed/W"], params["embed/b"])


def _mlp(params, prefix: str, layers: int, x: ad.Tensor) -> ad.Tensor:
    for i in range(layers):
        x = ad.linear(x, params[f"{prefix}/{i}/W"], params[f"{prefix}/{i}/b"])
        if i < layers - 1:
            x = ad.relu(x)
    return x


def _cell_step(params, family: str, h: ad.Tensor, c, x: ad.Tensor):
    """One recurrent step; returns (h, c). State vectors are [batch, d]."""
    hx = ad.concat(h, x)
    if family == "rnn":
        h = ad.tanh(ad.linear(hx, params["cell/h/W"], params["cell/h/b"]))
        return h, None
    if family == "lstm":
        i = ad.sigmoid(ad.linear(hx, params["cell/i/W"], params["cell/i/b"]))
        f = ad.sigmoid(ad.linear(hx, params["cell/f/W"], params["cell/f/b"]))
        g = ad.tanh(ad.linear(hx, params["cell/g/W"], params["cell/g/b"]))
        o = ad.sigmoid(ad.linear(hx, params["cell/o/W"], params["cell/o/b"]))
        c = f * c + i * g
        h = o * ad.tanh(c)
        return h, c
    if family == "gru":
        r = ad.sigmoid(ad.linear(hx, params["cell/r/W"], params["cell/r/b"]))
        z = ad.sigmoid(ad.linear(hx, params["cell/z/W"], params["cell/z/b"]))
        n = ad.tanh(ad.linear(ad.concat(r * h, x), params["cell/n/W"], params["cell/n/b"]))
        h = z * h + (1.0 - z) * n
        return h, None
    raise ValueError(f"not a sequential family: {family!r}")


def _as_batch_col(x: ad.Tensor) -> ad.Tensor:
    # [batch, 1] -> [batch]
    return ad.reduce_sum(x, axis=1)


@dataclass
class BatchOutput:
    """Differentiable batch forward result.

    prediction is a [batch] tensor; intermediates (capacity models only) is
    one [batch] tensor per instance position; latents are detached per-step
    hidden states [batch, d].
    """
    prediction: ad.Tensor
    intermediates: list
    latents: list
    weights: object = None


def batch_forward(params: ad.ParamStore, feats: list, embedded: bool = False) -> BatchOutput:
    """Run a batch of same-size bags given per-position feature matrices.

    With `embedded`, each matrix is already through `embed` ([batch,
    embed_dim]) and the network runs from its second layer on. A sequential
    family runs one loop over the positions: step the cell, keep the
    latent, and for a capacity model decode the state and add its value;
    a baseline decodes the last state once, after the loop.
    """
    spec = params.spec
    if not feats:
        if spec.capacity:
            return BatchOutput(ad.Tensor(np.zeros(0)), [], [])
        raise ValueError(f"{spec.label} rejects empty bags")
    batch = feats[0].shape[0]
    # a sequential family embeds each position when its step runs
    xs = (ad.Tensor(x) if embedded else embed(params, x) for x in feats)
    if spec.family not in SEQUENTIAL:
        xs = list(xs)

    if spec.family == "deepset":
        z = _mlp(params, "enc", spec.enc_layers, xs[0])
        for x in xs[1:]:
            z = z + _mlp(params, "enc", spec.enc_layers, x)
        pred = _as_batch_col(_mlp(params, "dec", spec.dec_layers, z))
        return BatchOutput(pred, [], [z.data])

    if spec.family == "attention":
        scores = None
        for x in xs:
            s = ad.linear(ad.tanh(ad.linear(x, params["att/score0/W"], params["att/score0/b"])),
                          params["att/score1/W"], params["att/score1/b"])
            scores = s if scores is None else ad.concat(scores, s)
        weights = ad.softmax_weights(scores)
        z = None
        for pos, x in enumerate(xs):
            term = ad.slice_cols(weights, pos, pos + 1) * _mlp(params, "enc", spec.enc_layers, x)
            z = term if z is None else z + term
        pred = _as_batch_col(_mlp(params, "dec", spec.dec_layers, z))
        return BatchOutput(pred, [], [z.data], weights=weights.data)

    # sequential families
    d = spec.hidden_dim
    h = ad.Tensor(np.zeros((batch, d)))
    c = ad.Tensor(np.zeros((batch, d))) if spec.family == "lstm" else None
    latents, nus, pred = [], [], None
    for x in xs:
        h, c = _cell_step(params, spec.family, h, c, x)
        latents.append(h.data)
        if spec.capacity:
            v = _as_batch_col(_mlp(params, "dec", spec.dec_layers, h))
            if spec.use_abs:
                v = ad.absolute(v)
            nus.append(v)
            pred = v if pred is None else pred + v
    if not spec.capacity:
        pred = _as_batch_col(_mlp(params, "dec", spec.dec_layers, h))
    return BatchOutput(pred, nus, latents)


def decode_state(params: ad.ParamStore, h: np.ndarray) -> np.ndarray:
    """Apply the decoder head to a [batch, d] state; builds no graph."""
    params = params.detached()
    out = _mlp(params, "dec", params.spec.dec_layers, ad.Tensor(h))
    return out.data[:, 0]
