"""Spans and counts around capnet's public functions, recorded from outside.

`Tracer.install()` replaces the functions and methods named in SPANNED with
wrappers that record one span per call (name, start, end, parent span,
thread) and `uninstall()` puts the originals back, so untraced code runs
unmodified. Calls too frequent for a span (COUNTED, and Tensor construction)
only bump per-thread counters. Spans stay in memory until `write()`.

Span names are "<layer>.<function>", the layer being the capnet module.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from dataclasses import dataclass

# (module, attribute path, span name)
SPANNED = (
    ("autodiff", "Tensor.backward", "autodiff.backward"),
    ("autodiff", "Adam.step", "autodiff.adam_step"),
    ("autodiff", "save_checkpoint", "autodiff.save_checkpoint"),
    ("autodiff", "load_checkpoint", "autodiff.load_checkpoint"),
    ("models", "batch_forward", "models.batch_forward"),
    ("models", "decode_state", "models.decode_state"),
    ("data", "generate_dataset", "data.generate_dataset"),
    ("data", "save_dataset", "data.save_dataset"),
    ("data", "load_dataset", "data.load_dataset"),
    ("data", "build_pool", "data.build_pool"),
    ("data", "group_by_size", "data.group_by_size"),
    ("data", "position_features", "data.position_features"),
    ("oracle", "decompose", "oracle.decompose"),
    ("train", "train_run", "train.train_run"),
    ("train", "batch_loss", "train.batch_loss"),
    ("evaluate", "evaluate_mse", "evaluate.evaluate_mse"),
    ("evaluate", "split_mse_and_penalty", "evaluate.split_mse_and_penalty"),
    ("evaluate", "split_predictions", "evaluate.split_predictions"),
    ("evaluate", "intermediate_mae", "evaluate.intermediate_mae"),
    ("evaluate", "pseudo_report", "evaluate.pseudo_report"),
    ("evaluate", "permutation_sensitivity", "evaluate.permutation_sensitivity"),
    ("evaluate", "rounded_accuracy", "evaluate.rounded_accuracy"),
    ("cli", "cmd_generate", "cli.generate"),
    ("cli", "cmd_train", "cli.train"),
    ("cli", "cmd_eval", "cli.eval"),
    ("cli", "cmd_sweep", "cli.sweep"),
)
COUNTED = (("oracle", "eval_task", "oracle.eval_task"),)
# batch_loss spans also record how many Tensors the call constructed
TENSOR_COUNTED = "train.batch_loss"


@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float
    parent: "Span | None"
    thread: int = 0
    tensors: int = -1

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def under(self, name: str) -> bool:
        """True when this span or one of its ancestors is named `name`."""
        span = self
        while span is not None:
            if span.name == name:
                return True
            span = span.parent
        return False


class _ThreadState(threading.local):
    def __init__(self, registry: list, lock: threading.Lock):
        self.stack = []
        self.counts = {}
        self.tensors = 0
        with lock:
            registry.append(self.counts)


def _resolve(module: str, path: str):
    owner = importlib.import_module(f"capnet.{module}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans = []
        self._counters = []
        self._tls = _ThreadState(self._counters, threading.Lock())
        self._main_stack = None
        self._originals = []

    def install(self):
        if self._originals:
            raise RuntimeError("tracer already installed")
        self._main_stack = self._tls.stack
        for module, path, name in SPANNED:
            self._patch(module, path, lambda fn, name=name: self._spanned(name, fn))
        for module, path, name in COUNTED:
            self._patch(module, path, lambda fn, name=name: self._counted(name, fn))
        self._patch("autodiff", "Tensor.__init__", self._tensor_counted)

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals = []

    def counts(self) -> dict:
        """Calls counted so far, summed over threads; read while no worker runs."""
        total = {}
        for counts in self._counters:
            for name, n in counts.items():
                total[name] = total.get(name, 0) + n
        return total

    def write(self, path, extra: dict = None):
        """JSON lines: one header record (`extra`), then one record per span."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w") as f:
            f.write(json.dumps({"header": extra or {}, "counts": self.counts()}) + "\n")
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s.name, "start": s.start, "end": s.end,
                    "parent": index.get(id(s.parent)), "thread": s.thread,
                    **({"tensors": s.tensors} if s.tensors >= 0 else {}),
                }) + "\n")

    # -- wrappers ----------------------------------------------------------

    def _patch(self, module, path, make_wrapper):
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        self._originals.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))

    def _spanned(self, name, fn):
        tls, spans, clock = self._tls, self.spans, time.perf_counter
        count_tensors = name == TENSOR_COUNTED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tls.stack
            if stack:
                parent = stack[-1]
            else:
                # a worker thread's first span was caused by whatever the
                # main thread is running (for example cli.sweep)
                main = self._main_stack
                parent = main[-1] if main and stack is not main else None
            span = Span(name, clock(), 0.0, parent, threading.get_ident())
            before = tls.tensors
            stack.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if count_tensors:
                    span.tensors = tls.tensors - before
                spans.append(span)
        return traced

    def _counted(self, name, fn):
        tls = self._tls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts = tls.counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)
        return counted

    def _tensor_counted(self, init):
        tls = self._tls

        @functools.wraps(init)
        def counting_init(tensor, *args, **kwargs):
            tls.tensors += 1
            init(tensor, *args, **kwargs)
        return counting_init


def _covered(intervals: list) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def self_times(spans: list) -> dict:
    """id(span) -> the span's duration minus the part its children cover.

    Children of one span can overlap when they run on several threads, so
    the union of their intervals is subtracted, not the sum.
    """
    children = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append(s)
    out = {}
    for s in spans:
        kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children.get(id(s), ())]
        out[id(s)] = s.seconds - _covered([k for k in kids if k[1] > k[0]])
    return out
