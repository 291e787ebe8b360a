"""Span tracing for the traced benchmark run, applied from outside the library.

`Tracer.install` replaces chosen functions at the module or class attribute
their callers look up (for example `sparsecast.tensor.masked_attention`) by
a wrapper that records one span per call; `Tracer.uninstall` puts the
originals back. Nothing under `src/` knows about tracing, and an untraced
run never installs a wrapper.

A span is `[name, start, end, parent, size]`: perf_counter seconds, the
index of the enclosing span (-1 at the root) and an optional size read from
the call's arguments (tokens, rows, bytes, tape nodes, points). Spans stay
in memory until `write` dumps them as JSON lines. Self time is a span's
duration minus the durations of its direct children; the program is single
threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import json
import time


def _rows(x) -> int:
    return int(x.shape[0]) if hasattr(x, "shape") else len(x)


def _attention_score_bytes(args, kwargs) -> float:
    q = args[0]
    t, heads, _ = q.shape
    return float(t * heads * t * q.data.dtype.itemsize)


def _horizon(args, kwargs) -> float:
    return float(kwargs["h"] if "h" in kwargs else args[2])


# (module path, attribute owner inside it or None, attribute, span name, size fn).
# Each entry is the attribute a caller inside the package (or the benchmark)
# resolves at call time; a function imported by name into another module is
# wrapped where that module looks it up.
TRACE_POINTS = [
    ("sparsecast.tensor", None, "masked_attention", "tensor.attention", _attention_score_bytes),
    ("sparsecast.tensor", None, "rope", "tensor.rope", None),
    ("sparsecast.tensor", None, "rmsnorm", "tensor.rmsnorm", None),
    ("sparsecast.tensor", "Graph", "backward", "tensor.backward",
     lambda args, kwargs: float(len(args[0]))),
    ("sparsecast.model", "Forecaster", "forward", "model.forward",
     lambda args, kwargs: float(_rows(args[1]))),
    ("sparsecast.model", None, "embed_points", "model.embed", None),
    ("sparsecast.model", None, "causal_self_attention", "model.self_attention", None),
    ("sparsecast.model", None, "attention_bias", "model.attention_bias", None),
    ("sparsecast.model", None, "packing_positions", "model.packing_positions", None),
    ("sparsecast.model", None, "route_topk", "moe.route", None),
    ("sparsecast.model", None, "moe_forward", "moe.dispatch", None),
    ("sparsecast.moe", None, "expert_ffn", "moe.expert_ffn",
     lambda args, kwargs: float(_rows(args[0]))),
    ("sparsecast.model", None, "head_forward", "heads.head_forward", None),
    ("sparsecast.evaluate", None, "autoregressive_forecast", "heads.rollout", _horizon),
    ("sparsecast.train", None, "sample_batch", "data.sample_batch", None),
    ("sparsecast.data", "SequenceStore", "read", "data.store_read", None),
    ("sparsecast.data", "SequenceStore", "write", "data.store_write", None),
    ("sparsecast.evaluate", None, "load_csv", "data.load_csv", None),
    ("sparsecast.train", None, "batch_loss", "train.batch_loss", None),
    ("sparsecast.train", None, "head_targets", "train.head_targets", None),
    ("sparsecast.train", "AdamW", "step", "train.optimizer", None),
    ("sparsecast.evaluate", None, "eval_model", "evaluate.eval_model", None),
]


class Tracer:
    """In-memory span recorder plus the attribute patches that feed it."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []
        self._patches: list = []

    # --- recording -------------------------------------------------------------

    def begin(self, name: str, size: float = 0.0) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, size])
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed while span {popped} was open")

    def _wrap(self, fn, name: str, size_fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name, size_fn(args, kwargs) if size_fn else 0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)
        return traced

    # --- patching --------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, owner_name, attr, name, size_fn in TRACE_POINTS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, name, size_fn))
            else:
                patched = self._wrap(raw, name, size_fn)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # --- reading ---------------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


class SpanSummary:
    """Totals, self times, counts and sizes per span name, restricted to the
    spans that descend from the given root spans.

    `nested[(outer, name)]` is the (count, summed size) of `name` spans that
    run somewhere inside an `outer` span.
    """

    def __init__(self, spans: list, roots: list):
        self.roots = len(roots)
        root_set = set(roots)
        inside = [False] * len(spans)
        ancestors = [frozenset()] * len(spans)
        child_time = [0.0] * len(spans)
        for i, (_, start, end, parent, _) in enumerate(spans):
            inside[i] = i in root_set or (parent >= 0 and inside[parent])
            if parent >= 0:
                ancestors[i] = ancestors[parent] | {spans[parent][0]}
                child_time[parent] += end - start
        self.total: dict = {}
        self.self_time: dict = {}
        self.count: dict = {}
        self.size: dict = {}
        self.nested: dict = {}
        for i, (name, start, end, _, size) in enumerate(spans):
            if not inside[i]:
                continue
            self.total[name] = self.total.get(name, 0.0) + (end - start)
            self.self_time[name] = self.self_time.get(name, 0.0) + (end - start - child_time[i])
            self.count[name] = self.count.get(name, 0) + 1
            self.size[name] = self.size.get(name, 0.0) + size
            for outer in ancestors[i]:
                count, total = self.nested.get((outer, name), (0, 0.0))
                self.nested[(outer, name)] = (count + 1, total + size)

    def per_root_ms(self, name: str, self_only: bool = False) -> float:
        table = self.self_time if self_only else self.total
        return 1000.0 * table.get(name, 0.0) / self.roots

    def per_root_count(self, name: str, within: str | None = None) -> float:
        if within is None:
            return self.count.get(name, 0) / self.roots
        return self.nested.get((within, name), (0, 0.0))[0] / self.roots

    def per_root_size(self, name: str) -> float:
        return self.size.get(name, 0.0) / self.roots

    def mean_size(self, name: str) -> float:
        calls = self.count.get(name, 0)
        return self.size.get(name, 0.0) / calls if calls else 0.0
