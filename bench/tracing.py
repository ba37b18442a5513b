"""Spans recorded around dctl's public functions, from outside the package.

A :class:`Tracer` replaces each traced function under the name its caller
looks it up by (``dctl.model.projected_newton_coeffs`` is what ``train``
calls, ``dctl.cli.write_csv`` is what the encode command calls) with a
wrapper that records one span per call: name, start, end, parent, and a
few attributes read from the arguments or the result.  The wrappers
return the wrapped function's result unchanged.  Spans stay in memory;
the benchmark writes them out when the run ends.  The originals are put
back when :meth:`Tracer.installed` exits.
"""

import functools
import importlib
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    parent: int | None  # index into Tracer.spans
    root: int  # index of the benchmark step span this call ran under
    start: float
    end: float = 0.0
    group: str | None = None  # set on root spans only
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self):
        return self.end - self.start


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _newton(args, kwargs, result):
    return {"converged": bool(result.converged), "iterations": int(result.iterations)}


def _dense(args, kwargs, result):
    # bytes of the dense N x N matrix the call built, computed from its shape
    return {"dense_bytes": int(result.nbytes)}


def _train(args, kwargs, result):
    return {"outer_iters": int(result.training_trace[-1][0])}


def _kmeans(args, kwargs, result):
    return {"init": kwargs["init"], "iters": len(result.inertia_trace) - 1}


# (module, attribute the caller looks up, span name, attribute reader)
TRACE_POINTS = (
    ("dctl.model", "train", "model.train", _train),
    ("dctl.model", "projected_newton_coeffs", "prox.projected_newton_coeffs", _newton),
    ("dctl.model", "update_transform", "prox.update_transform", None),
    ("dctl.model", "conv_same_matrix", "conv.conv_same_matrix", _dense),
    ("dctl.prox", "conv_same_matrix", "conv.conv_same_matrix", _dense),
    ("dctl.model", "toeplitz_stack", "conv.toeplitz_stack", None),
    ("dctl.cli", "encode", "model.encode", None),
    ("dctl.cli", "load_model", "persistence.load_model", None),
    ("dctl.cli", "load_matrix", "data.load_matrix", _file_bytes),
    ("dctl.cli", "write_csv", "data.write_csv", _file_bytes),
    ("dctl.data", "load_matrix", "data.load_matrix", _file_bytes),
    ("dctl.persistence", "save_model", "persistence.save_model", _file_bytes),
    ("dctl.evaluation", "knn_classify", "evaluation.knn_classify", None),
    ("dctl.evaluation", "nearest_centroid_classify", "evaluation.nearest_centroid_classify", None),
    ("dctl.evaluation", "kmeans", "evaluation.kmeans", _kmeans),
    ("dctl.evaluation", "adjusted_rand_index", "evaluation.adjusted_rand_index", None),
)


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def _open(self, name, group=None):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        root = self.spans[parent].root if parent is not None else index
        self.spans.append(Span(name, parent, root, time.perf_counter(), group=group))
        self._stack.append(index)
        return self.spans[index]

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def root(self, name, group):
        """Span of one benchmark step; ``group`` names the operation it belongs to."""
        span = self._open(name, group)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, fn, name, reader):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if reader is not None:
                span.attrs.update(reader(args, kwargs, result))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every trace point for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, reader in TRACE_POINTS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, reader))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def to_json(self):
        return [
            {
                "name": s.name,
                "parent": s.parent,
                "group": self.spans[s.root].group,
                "start": s.start,
                "end": s.end,
                **s.attrs,
            }
            for s in self.spans
        ]


def _total(spans, name, key=None):
    return sum((s.attrs.get(key, 0) if key else s.seconds) for s in spans if s.name == name)


def _self_seconds(tracer, span_index, spans):
    span = tracer.spans[span_index]
    children = sum(s.seconds for s in spans if s.parent == span_index)
    return span.seconds - children


def layer_metrics(tracer, groups):
    """Per-layer numbers for one pipeline: the root spans whose group is in ``groups``.

    Busy time of a layer is the summed duration of its spans; self time of
    a step is its duration minus the spans directly under it.
    """
    indexed = [(i, s) for i, s in enumerate(tracer.spans) if tracer.spans[s.root].group in groups]
    spans = [s for _, s in indexed]
    roots = {s.name: i for i, s in indexed if s.group is not None}
    train_root = tracer.spans[roots["train"]]
    train_calls = [i for i, s in indexed if s.name == "model.train"]
    newton = [s for s in spans if s.name == "prox.projected_newton_coeffs"]
    newton_s = sum(s.seconds for s in newton)
    out = {
        "prox.projected_newton_coeffs.calls": len(newton),
        "prox.projected_newton_coeffs.s": newton_s,
        "prox.projected_newton_coeffs.share": newton_s / train_root.seconds,
        "prox.projected_newton_coeffs.unconverged": sum(not s.attrs["converged"] for s in newton),
        "prox.projected_newton_coeffs.max_iters": max(
            (s.attrs["iterations"] for s in newton), default=0
        ),
        "model.train.self_s": sum(_self_seconds(tracer, i, spans) for i in train_calls),
        "model.train.outer_iters": sum(tracer.spans[i].attrs["outer_iters"] for i in train_calls),
        "conv.dense_bytes_computed": _total(spans, "conv.conv_same_matrix", "dense_bytes"),
        "cli.self_s": _self_seconds(tracer, roots["encode_cmd"], spans),
    }
    for name in (
        "prox.update_transform",
        "conv.conv_same_matrix",
        "conv.toeplitz_stack",
    ):
        out[f"{name}.calls"] = sum(s.name == name for s in spans)
        out[f"{name}.s"] = _total(spans, name)
    for name in (
        "model.encode",
        "persistence.load_model",
        "evaluation.knn_classify",
        "evaluation.nearest_centroid_classify",
        "evaluation.adjusted_rand_index",
    ):
        out[f"{name}.s"] = _total(spans, name)
    for name in ("data.write_csv", "data.load_matrix", "persistence.save_model"):
        seconds = _total(spans, name)
        out[f"{name}.s"] = seconds
        out[f"{name}.bytes"] = _total(spans, name, "bytes")
        if name.startswith("data."):
            out[f"{name}.mb_per_s"] = out[f"{name}.bytes"] / 1e6 / seconds
    for s in spans:
        if s.name == "evaluation.kmeans":
            out[f"{s.name}.{s.attrs['init']}.s"] = s.seconds
            out[f"{s.name}.{s.attrs['init']}.iters"] = s.attrs["iters"]
    return out
