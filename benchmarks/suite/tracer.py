"""Wrapper-based tracer for the benchmark suite.

The tracer times calls into each layer's public functions from outside
the program.  ``install`` replaces a function where its caller binds it
(``repro.core.sdad.partition_median``) or a method on its class with a
timing wrapper; ``uninstall`` puts every original back.  Nothing under
``src/`` is edited.

Every wrapped call is a span ``(layer, trace_id, span_id, parent_id,
start, end)``.  A per-thread stack of open spans supplies the parent and
the self time (a span's duration minus what its direct children cover).
A span opened on an empty stack starts a new trace, so each mine and
each handled request is one trace.  Totals are folded in as spans close,
which keeps memory bounded however long the run; the raw spans of the
first ``keep_traces`` traces (at most ``MAX_SPANS`` per thread) are kept
for ``spans.json``.

A span nested inside an open span of the same layer (a
``group_counts_batch`` fallback calling ``group_counts``) adds its self
time but no second call, busy interval or counter, so a layer is never
counted twice.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

__all__ = ["Target", "Tracer", "mining_targets", "serve_targets"]

MAX_SPANS = 100_000


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``attr`` is ``name`` or ``Class.method``."""

    module: str
    attr: str
    layer: str
    counters: tuple[tuple[str, Callable], ...] = ()
    """``(name, fn)`` pairs: ``fn(result)`` is added to the layer's
    counter ``name`` on each outermost call (each yield, for a
    generator)."""
    generator: bool = False
    """Time each ``next()`` of the returned generator instead of the
    call that creates it."""


def _backend_targets() -> tuple[Target, ...]:
    """Counting and cover methods on every backend class that defines
    them (subclasses override, so each definition gets its wrapper)."""
    classes = (
        ("repro.counting.base", "CountingBackendBase"),
        ("repro.counting.mask", "MaskBackend"),
        ("repro.counting.bitmap", "BitmapBackend"),
        ("repro.counting.chunked", "ChunkedBackend"),
    )
    count = ("group_counts", "group_counts_batch", "cover_group_counts",
             "mask_group_counts")
    # ``cover`` is left out: the search reaches it only through
    # ``cover_of`` (or inside a count), so its time is already there.
    cover = ("cover_of", "full_cover")
    itemsets = (("itemsets", lambda r: r.shape[0] if r.ndim == 2 else 1),)
    targets = []
    for module, cls_name in classes:
        cls = getattr(importlib.import_module(module), cls_name)
        for method in count:
            if method in cls.__dict__:
                targets.append(Target(module, f"{cls_name}.{method}",
                                      "counting.count", itemsets))
        for method in cover:
            if method in cls.__dict__:
                targets.append(Target(module, f"{cls_name}.{method}",
                                      "counting.cover"))
    return tuple(targets)


def mining_targets() -> tuple[Target, ...]:
    """Every mining layer boundary the per-layer table reports."""
    return (
        Target("repro.core.sdad", "partition_median", "partition.split"),
        Target("repro.core.sdad", "find_combinations", "partition.combine"),
        Target("repro.core.sdad", "are_contiguous", "partition.merge"),
        Target("repro.core.sdad", "merged_space", "partition.merge"),
        Target("repro.core.search", "sdad_cs", "sdad"),
        Target("repro.dataset.chunked", "ChunkedView.iter_chunk_columns",
               "dataset.chunked.read",
               (("mb", lambda a: a.nbytes / 1e6),), generator=True),
        *_backend_targets(),
        # score_spaces only delegates to score_frames, so wrapping
        # score_frames covers both.
        Target("repro.core.batch", "BatchEvaluator.score_frames",
               "batch.score"),
        Target("repro.core.batch", "BatchEvaluator.process_categorical_combo",
               "batch.score"),
        Target("repro.core.pipeline", "PruningPipeline.evaluate_batch",
               "pipeline.prune", (("candidates", lambda r: r.size),)),
        Target("repro.core.pipeline", "PruningPipeline.evaluate",
               "pipeline.prune", (("candidates", lambda r: 1),)),
        # __init__ rather than __post_init__: the frozen-field assignment
        # is part of what building a pattern costs.
        Target("repro.core.contrast", "ContrastPattern.__init__",
               "contrast.materialize"),
        Target("repro.core.topk", "TopKList.add", "topk.offer",
               (("accepted", lambda r: 1 if r else 0),)),
        Target("repro.core.miner", "classify_patterns", "meaningful.filter"),
    )


def serve_targets() -> tuple[Target, ...]:
    """Every serving layer boundary the per-layer table reports."""
    return (
        Target("repro.serve.server", "PatternServer.handle", "serve.handle"),
        Target("repro.serve.index", "PatternIndex.match_batch", "index.match",
               (("rows", len), ("matches", lambda r: sum(map(len, r))))),
        Target("repro.serve.plan", "MatcherPlan.validate_rows",
               "plan.validate"),
        Target("repro.serve.plan", "MatcherPlan.match_mask", "plan.eval"),
        Target("repro.serve.index", "PatternIndex.rendered_entry",
               "index.render"),
        Target("repro.serve.store", "PatternStore.put", "store.put"),
        Target("repro.serve.server", "PatternServer.publish_run",
               "serve.publish"),
    )


class _ThreadState:
    __slots__ = ("stack", "ids", "totals", "spans", "roots", "root_s",
                 "trace_id", "keep")

    def __init__(self) -> None:
        # Child seconds of each open span, innermost last.  Plain floats:
        # a GC-tracked object per span would make the collector run more
        # often inside the traced program and inflate what it measures.
        self.stack: list[float] = []
        self.ids: list[int] = []  # open span ids, kept traces only
        # layer -> [calls, busy_s, self_s, {counter: total}, open depth]
        self.totals: dict[str, list] = {}
        self.spans: list[tuple] = []
        self.roots = 0
        self.root_s = 0.0
        self.trace_id = -1
        self.keep = False


class Tracer:
    """Span recorder installed by wrapping functions (see module doc)."""

    def __init__(self, keep_traces: int = 1) -> None:
        self.keep_traces = keep_traces
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._states_lock = threading.Lock()
        self._trace_ids = itertools.count()
        self._span_ids = itertools.count()
        self._saved: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def install(self, targets) -> None:
        for target in targets:
            module = importlib.import_module(target.module)
            *owner_path, name = target.attr.split(".")
            owner = module
            for part in owner_path:
                owner = getattr(owner, part)
            original = (
                owner.__dict__[name] if isinstance(owner, type)
                else getattr(owner, name)
            )
            wrap = self._wrap_generator if target.generator else self._wrap
            self._saved.append((owner, name, original))
            setattr(owner, name, wrap(original, target.layer, target.counters))

    def uninstall(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def wrap(self, layer: str, fn):
        """``fn`` as a span of ``layer``: the root of one trace when
        called outside any other span (one mine)."""
        return self._wrap(fn, layer, ())

    # -- span bookkeeping --------------------------------------------------

    def _new_state(self) -> _ThreadState:
        state = self._local.state = _ThreadState()
        with self._states_lock:
            self._states.append(state)
        return state

    def _wrap(self, fn, layer: str, counters):
        # The hot path, kept in one frame: a call into this wrapper
        # costs well under a microsecond on top of the wrapped call.
        local, new_state = self._local, self._new_state
        trace_ids, span_ids = self._trace_ids, self._span_ids
        keep_traces = self.keep_traces

        def traced(*args, **kwargs):
            state = getattr(local, "state", None) or new_state()
            stack = state.stack
            if not stack:
                state.trace_id = next(trace_ids)
                state.keep = state.trace_id < keep_traces
            keep = state.keep
            if keep:
                ids = state.ids
                span_id = next(span_ids)
                parent_id = ids[-1] if ids else None
                ids.append(span_id)
            totals = state.totals.get(layer)
            if totals is None:
                totals = state.totals[layer] = [0, 0.0, 0.0, {}, 0]
            depth = totals[4]
            totals[4] = depth + 1
            stack.append(0.0)
            returned = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                # Every span adds self time; calls, busy time and
                # counters come from the outermost span of a layer, and
                # only when the call returned.
                end = perf_counter()
                child_s = stack.pop()
                totals[4] = depth
                duration = end - start
                if stack:
                    stack[-1] += duration
                else:
                    state.roots += 1
                    state.root_s += duration
                totals[2] += duration - child_s
                if returned and not depth:
                    totals[0] += 1
                    totals[1] += duration
                    for name, count in counters:
                        extra = totals[3]
                        extra[name] = extra.get(name, 0) + count(result)
                if keep:
                    ids.pop()
                    if len(state.spans) < MAX_SPANS:
                        state.spans.append((layer, state.trace_id, span_id,
                                            parent_id, start, end))

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, fn, layer: str, counters):
        wrap = self._wrap

        def traced(*args, **kwargs):
            step = wrap(fn(*args, **kwargs).__next__, layer, counters)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        traced.__wrapped__ = fn
        return traced

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Per-layer totals over every thread, plus root-span totals.

        ``layers[name]`` holds ``calls`` and ``busy_s`` (outermost spans
        only), ``self_s`` (every span) and the layer's counters.
        ``roots`` and ``root_s`` count the spans opened outside any
        other span and their summed duration.
        """
        with self._states_lock:
            states = list(self._states)
        layers: dict[str, dict] = {}
        roots, root_s = 0, 0.0
        for state in states:
            roots += state.roots
            root_s += state.root_s
            for layer, (calls, busy, self_s, extra, _) in list(
                state.totals.items()
            ):
                entry = layers.setdefault(
                    layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
                )
                entry["calls"] += calls
                entry["busy_s"] += busy
                entry["self_s"] += self_s
                for name, value in list(extra.items()):
                    entry[name] = entry.get(name, 0) + value
        return {"layers": layers, "roots": roots, "root_s": root_s}

    def write_spans(self, path) -> None:
        """The kept spans, ordered by span id, and the snapshot."""
        with self._states_lock:
            states = list(self._states)
        spans = sorted((span for state in states for span in state.spans),
                       key=lambda span: span[2])
        payload = {
            "fields": ["layer", "trace_id", "span_id", "parent_id",
                       "start", "end"],
            "kept_traces": self.keep_traces,
            "spans": spans,
            **self.snapshot(),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
