"""Dense-tensor reverse-mode automatic differentiation.

Small numpy-backed engine: every operation builds a graph node holding a
closure that propagates adjoints to its inputs. `Tensor.backward()` runs a
topological sweep over that graph's interior nodes. Everything is float64;
graphs are rebuilt per forward pass, so variable bag sizes are
unproblematic. Operations whose inputs all track no gradient keep no parents
and no closure, so a forward pass over `ParamStore.detached()` builds no
graph at all.

`linear` (x @ w + b) is one node, not a product node and a sum node. A
node's first gradient is stored as a float64 copy of the array it is handed,
never that array itself, because several closures pass one array to more
than one input; later gradients are added into that copy.
"""

from __future__ import annotations

import copy
import struct

import numpy as np

from . import fileio


def _as_array(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    # ascontiguousarray would promote 0-d scalars to shape (1,)
    return arr if arr.ndim == 0 else np.ascontiguousarray(arr)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Node of the differentiation record.

    Leaf tensors hold inputs or parameters; interior tensors remember their
    parents and a closure that adds this node's adjoint contribution to them.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backprop", "_backward_done")

    def __init__(self, data, requires_grad=False, _parents=(), _backprop=None):
        self.data = _as_array(data)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self._parents = _parents if self.requires_grad else ()
        self._backprop = _backprop if self.requires_grad else None
        self._backward_done = False

    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return self.data.item()

    def _accum(self, grad):
        if self.grad is None and grad.shape == self.data.shape:
            # A copy, never the array itself: `+`, `concat` slices and
            # `_unbroadcast` hand one gradient array to several nodes.
            self.grad = np.array(grad, dtype=np.float64, order="C")
            return
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def backward(self):
        """Run reverse-mode accumulation from this (scalar) node.

        A second call on the same node is rejected; the graph's adjoints
        would double-accumulate. Rebuild the forward pass instead.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar node, got shape {self.data.shape}")
        if self._backward_done:
            raise RuntimeError("backward() already ran on this node; re-run the forward pass")
        self._backward_done = True

        # Iterative postorder over interior nodes only: recurrences produce
        # graphs deeper than the default recursion limit, and leaves have no
        # closure to run. A `None` is pushed above each expanded node; when
        # it comes off the stack, the node's parents are done. This order
        # fixes the order in which gradients are summed, so changing it
        # changes the bits of every trained model.
        topo = []
        visited = set()
        stack = [self] if self._backprop is not None else []
        while stack:
            node = stack.pop()
            if node is None:
                topo.append(stack.pop())
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append(node)
            stack.append(None)
            for parent in node._parents:
                if parent._backprop is not None and id(parent) not in visited:
                    stack.append(parent)

        self._accum(np.ones_like(self.data))
        for node in reversed(topo):
            node._backprop(node.grad)

    # -- operator sugar ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            out = Tensor(self.data + other.data, _parents=(self, other))
            def backprop(g):
                if self.requires_grad:
                    self._accum(_unbroadcast(g, self.data.shape))
                if other.requires_grad:
                    other._accum(_unbroadcast(g, other.data.shape))
        else:
            out = Tensor(self.data + other, _parents=(self,))
            def backprop(g):
                self._accum(g)
        out._backprop = backprop if out.requires_grad else None
        return out

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Tensor):
            out = Tensor(self.data - other.data, _parents=(self, other))
            def backprop(g):
                if self.requires_grad:
                    self._accum(_unbroadcast(g, self.data.shape))
                if other.requires_grad:
                    other._accum(_unbroadcast(-g, other.data.shape))
        else:
            out = Tensor(self.data - other, _parents=(self,))
            def backprop(g):
                self._accum(g)
        out._backprop = backprop if out.requires_grad else None
        return out

    def __rsub__(self, other):
        # other is a plain number: out = other - self
        out = Tensor(other - self.data, _parents=(self,))
        def backprop(g):
            self._accum(-g)
        out._backprop = backprop if out.requires_grad else None
        return out

    def __mul__(self, other):
        if isinstance(other, Tensor):
            out = Tensor(self.data * other.data, _parents=(self, other))
            def backprop(g):
                if self.requires_grad:
                    self._accum(_unbroadcast(g * other.data, self.data.shape))
                if other.requires_grad:
                    other._accum(_unbroadcast(g * self.data, other.data.shape))
        else:
            out = Tensor(self.data * other, _parents=(self,))
            def backprop(g):
                self._accum(g * other)
        out._backprop = backprop if out.requires_grad else None
        return out

    __rmul__ = __mul__


# -- primitive operations -------------------------------------------------

def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Row-wise affine map y = x @ w + b, recorded as one node."""
    if x.data.ndim != 2 or w.data.ndim != 2:
        raise ValueError(f"linear: needs 2-D input and weight (x {x.data.shape}, w {w.data.shape})")
    if x.data.shape[1] != w.data.shape[0]:
        raise ValueError(
            f"linear: input has {x.data.shape[1]} columns but weight expects "
            f"{w.data.shape[0]} (x {x.data.shape}, w {w.data.shape})"
        )
    if b.data.shape != (w.data.shape[1],):
        raise ValueError(f"linear: bias shape {b.data.shape} != ({w.data.shape[1]},)")
    y = x.data @ w.data
    y += b.data
    out = Tensor(y, _parents=(x, w, b))
    def backprop(g):
        if x.requires_grad:
            x._accum(g @ w.data.T)
        if w.requires_grad:
            w._accum(x.data.T @ g)
        if b.requires_grad:
            b._accum(g.sum(axis=0))
    out._backprop = backprop if out.requires_grad else None
    return out


_ACTIVATIONS = ("tanh", "sigmoid", "relu", "abs")


def activation(kind: str, x: Tensor) -> Tensor:
    """Elementwise nonlinearity; `abs` uses subgradient 0 at the kink."""
    if kind == "tanh":
        y = np.tanh(x.data)
        out = Tensor(y, _parents=(x,))
        def backprop(g):
            x._accum(g * (1.0 - y * y))
    elif kind == "sigmoid":
        y = 1.0 / (1.0 + np.exp(-x.data))
        out = Tensor(y, _parents=(x,))
        def backprop(g):
            x._accum(g * y * (1.0 - y))
    elif kind == "relu":
        out = Tensor(np.maximum(x.data, 0.0), _parents=(x,))
        def backprop(g):
            x._accum(g * (x.data > 0.0))
    elif kind == "abs":
        out = Tensor(np.abs(x.data), _parents=(x,))
        def backprop(g):
            x._accum(g * np.sign(x.data))
    else:
        raise ValueError(f"unknown activation kind {kind!r}; expected one of {_ACTIVATIONS}")
    out._backprop = backprop if out.requires_grad else None
    return out


def tanh(x):
    return activation("tanh", x)


def sigmoid(x):
    return activation("sigmoid", x)


def relu(x):
    return activation("relu", x)


def absolute(x):
    return activation("abs", x)


def concat(a: Tensor, b: Tensor) -> Tensor:
    """Column-wise concatenation of two [batch, *] tensors."""
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[0] != b.data.shape[0]:
        raise ValueError(f"concat batch mismatch: {a.data.shape} vs {b.data.shape}")
    na = a.data.shape[1]
    out = Tensor(np.concatenate([a.data, b.data], axis=1), _parents=(a, b))
    def backprop(g):
        if a.requires_grad:
            a._accum(g[:, :na])
        if b.requires_grad:
            b._accum(g[:, na:])
    out._backprop = backprop if out.requires_grad else None
    return out


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    out = Tensor(x.data[:, start:stop], _parents=(x,))
    def backprop(g):
        full = np.zeros_like(x.data)
        full[:, start:stop] = g
        x._accum(full)
    out._backprop = backprop if out.requires_grad else None
    return out


def reduce_sum(x: Tensor, axis=None) -> Tensor:
    if axis is not None and not (-x.data.ndim <= axis < x.data.ndim):
        raise ValueError(f"reduce_sum: axis {axis} invalid for shape {x.data.shape}")
    out = Tensor(x.data.sum(axis=axis), _parents=(x,))
    def backprop(g):
        if axis is None:
            x._accum(np.broadcast_to(g, x.data.shape).copy())
        else:
            x._accum(np.broadcast_to(np.expand_dims(g, axis), x.data.shape).copy())
    out._backprop = backprop if out.requires_grad else None
    return out


def softmax_weights(scores: Tensor) -> Tensor:
    """Softmax along the last axis, computed with the usual max shift.

    Accepts a score vector or a [batch, n] matrix of per-row scores.
    """
    if scores.data.size == 0:
        raise ValueError("softmax_weights: need at least one score")
    shifted = scores.data - scores.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    w = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(w, _parents=(scores,))
    def backprop(g):
        # dL/ds = w * (g - sum(g * w)) along the softmax axis
        dot = (g * w).sum(axis=-1, keepdims=True)
        scores._accum(w * (g - dot))
    out._backprop = backprop if out.requires_grad else None
    return out


def mse_loss(pred: Tensor, target) -> Tensor:
    """Mean of squared differences; `target` is a constant array."""
    t = _as_array(target)
    if pred.data.shape != t.shape:
        raise ValueError(f"mse_loss length mismatch: pred {pred.data.shape} vs target {t.shape}")
    diff = pred.data - t
    n = diff.size
    out = Tensor(np.float64((diff * diff).sum() / n), _parents=(pred,))
    def backprop(g):
        pred._accum((2.0 / n) * diff * g)
    out._backprop = backprop if out.requires_grad else None
    return out


# -- parameters and optimizer ---------------------------------------------

class ParamStore:
    """Named parameter tensors; the set is fixed once the model is built."""

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._params: dict[str, Tensor] = {}
        self._frozen = False

    def add(self, path: str, data) -> Tensor:
        if self._frozen:
            raise RuntimeError("ParamStore is frozen; no parameters may be added after model construction")
        if path in self._params:
            raise ValueError(f"duplicate parameter path {path!r}")
        t = Tensor(data, requires_grad=True)
        self._params[path] = t
        return t

    def freeze(self):
        self._frozen = True

    def __getitem__(self, path: str) -> Tensor:
        return self._params[path]

    def paths(self):
        return sorted(self._params)

    def items(self):
        return [(p, self._params[p]) for p in self.paths()]

    def param_count(self) -> int:
        return sum(t.data.size for t in self._params.values())

    def detached(self) -> "ParamStore":
        """This store with every parameter as a constant leaf over the same
        array: no copy, and forward passes on it record no graph.

        In-place updates (Adam) show through the view; `load_state_dict`
        replaces arrays, so take a fresh view after it. A store with no
        gradient-tracking parameter is its own view.
        """
        if not any(t.requires_grad for t in self._params.values()):
            return self
        view = copy.copy(self)
        view._params = {p: Tensor(t.data) for p, t in self._params.items()}
        view._frozen = True
        return view

    def zero_grad(self):
        for t in self._params.values():
            t.grad = None

    def state_dict(self) -> dict[str, np.ndarray]:
        return {p: t.data.copy() for p, t in self.items()}

    def load_state_dict(self, state: dict[str, np.ndarray]):
        if set(state) != set(self._params):
            missing = set(self._params) - set(state)
            extra = set(state) - set(self._params)
            raise ValueError(f"parameter set mismatch: missing {sorted(missing)}, unexpected {sorted(extra)}")
        for path, arr in state.items():
            t = self._params[path]
            arr = _as_array(arr)
            if arr.shape != t.data.shape:
                raise ValueError(f"shape mismatch for {path!r}: {arr.shape} vs {t.data.shape}")
            t.data = arr.copy()


class Adam:
    """Adam with bias correction (lr 0.001, betas 0.9/0.999 by default)."""

    def __init__(self, store: ParamStore, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.store = store
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = {p: np.zeros_like(t.data) for p, t in store.items()}
        self.v = {p: np.zeros_like(t.data) for p, t in store.items()}

    def step(self):
        for path, t in self.store.items():
            if t.grad is None:
                raise ValueError(f"adam step: parameter {path!r} has no gradient")
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for path, t in self.store.items():
            g = t.grad
            m = self.m[path]
            v = self.v[path]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            t.data -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


# -- checkpoint format -----------------------------------------------------
#
# Flat binary file: magic "CAPN", version u32, then per-parameter records of
# (path length u32, UTF-8 path, rank u32, dims u32[], values f64[]); all
# integers and floats little-endian. Records are sorted by path.

CHECKPOINT_MAGIC = b"CAPN"
CHECKPOINT_VERSION = 1


def save_checkpoint(path, state: dict[str, np.ndarray], sidecars: dict = None):
    """Write `state` to `path`; `sidecars` ({path: bytes}) are files that
    land with it, written in full before any of them is renamed into place."""
    parts = [CHECKPOINT_MAGIC, struct.pack("<I", CHECKPOINT_VERSION)]
    for name in sorted(state):
        arr = np.ascontiguousarray(state[name], dtype=np.float64)
        encoded = name.encode("utf-8")
        parts.append(struct.pack("<I", len(encoded)))
        parts.append(encoded)
        parts.append(struct.pack("<I", arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.astype("<f8").tobytes())
    fileio.write_files({path: b"".join(parts), **(sidecars or {})})


def load_checkpoint(path) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        blob = f.read()
    if blob[:4] != CHECKPOINT_MAGIC:
        raise ValueError(f"not a checkpoint file: bad magic {blob[:4]!r}")
    if len(blob) < 8:
        raise ValueError(f"truncated checkpoint at byte {len(blob)}")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    state = {}
    offset = 8
    total = len(blob)
    while offset < total:
        if offset + 4 > total:
            raise ValueError(f"truncated checkpoint at byte {offset}")
        (plen,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if offset + plen + 4 > total:
            raise ValueError(f"truncated checkpoint at byte {offset}")
        name = blob[offset:offset + plen].decode("utf-8")
        offset += plen
        (rank,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if offset + 4 * rank > total:
            raise ValueError(f"truncated checkpoint at byte {offset}")
        dims = struct.unpack_from(f"<{rank}I", blob, offset)
        offset += 4 * rank
        count = 1
        for d in dims:
            count *= d
        nbytes = 8 * count
        if offset + nbytes > total:
            raise ValueError(f"truncated checkpoint at byte {offset}: {name!r} promises {count} values")
        state[name] = np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(dims).copy()
        offset += nbytes
    return state
