"""Spans around the package's public entry points, recorded from outside.

The traced run installs wrappers on the public functions and methods each
layer exposes, records one span per call, and keeps every span in memory
until the job ends.  Nothing inside the package is instrumented: a span's
self time is its duration minus the time its child spans cover, so e.g.
the merge's self time excludes the MRT decode it pulls from.

Entry points that return iterators are timed per ``next()``, which charges
decode and merge time to the producer rather than to the kernel that
consumes the batches.  Spans are recorded on the main thread of the
traced process only; forked workers inherit the wrappers but their spans
die with them, so their work shows up in the parent only as the duration
of the call that waited for them.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    """An in-memory span recorder: ``(name, start, end, parent)`` tuples."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def _open(self, name: str) -> int | None:
        if threading.get_ident() != self._thread:
            return None
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._stack.append(index)
        return index

    def _close(self, index: int | None) -> None:
        if index is None:
            return
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    # -- wrappers ---------------------------------------------------------- #
    def call(self, name: str, function):
        """Wrap ``function`` so each call is one span."""
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                return function(*args, **kwargs)
            finally:
                tracer._close(index)

        traced.__wrapped__ = function
        return traced

    def iterator(self, name: str, function):
        """Wrap an iterator-returning ``function``: one span per ``next()``."""
        tracer = self

        def traced(*args, **kwargs):
            inner = iter(function(*args, **kwargs))

            def timed():
                while True:
                    index = tracer._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(index)
                    yield item

            return timed()

        traced.__wrapped__ = function
        return traced

    # -- summaries --------------------------------------------------------- #
    def self_times(self) -> dict[str, float]:
        """Self time per span name: duration minus direct children's."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            duration = end - start
            totals[name] += duration
            if parent is not None:
                totals[self.spans[parent][0]] -= duration
        return dict(totals)

    def inclusive(self, prefix: str) -> float:
        """Wall time covered by spans named ``prefix*`` (outermost only)."""
        total = 0.0
        for name, start, end, parent in self.spans:
            if not name.startswith(prefix):
                continue
            outer = parent
            while outer is not None and not self.spans[outer][0].startswith(prefix):
                outer = self.spans[outer][3]
            if outer is None:
                total += end - start
        return total

    def root_time(self) -> float:
        """Wall time covered by top-level spans (those with no parent)."""
        return sum(end - start for _, start, end, parent in self.spans if parent is None)


def _patch(owner, attribute: str, wrapper) -> None:
    setattr(owner, attribute, wrapper(getattr(owner, attribute)))


def _patch_function(original, wrapped) -> None:
    """Rebind every loaded ``repro`` module name that refers to ``original``."""
    for name, module in list(sys.modules.items()):
        if name == "repro" or name.startswith("repro."):
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, wrapped)


def install(tracer: Tracer) -> None:
    """Wrap every traced public entry point of the package (not undoable).

    Call it only in a process that is thrown away after the traced job.
    """
    from repro.analysis import registry
    from repro.core.cleaning import BgpCleaner
    from repro.core.grouping import GroupingAccumulator
    from repro.core.inference import BlackholingInferenceEngine
    from repro.core.report import InferenceReport
    from repro.dataplane.traceroute import TracerouteCampaign
    from repro.dictionary.builder import DictionaryBuilder
    from repro.dictionary.inference import CommunityUsageStats, ExtendedDictionaryInference
    from repro.exec import distrib
    from repro.exec.plan import ExecutionPlan
    from repro.exec.store import DiskStore
    from repro.mrt.reader import MrtReader
    from repro.stream import batch
    from repro.stream.batch import ColumnBuilder
    from repro.stream.merger import BgpStream

    call, iterator = tracer.call, tracer.iterator
    _patch(MrtReader, "row_specs", lambda f: iterator("mrt.decode", f))
    _patch(MrtReader, "messages", lambda f: iterator("mrt.decode", f))
    _patch(BgpStream, "row_specs", lambda f: iterator("stream.merge", f))
    _patch_function(batch.batch_specs, iterator("stream.build", batch.batch_specs))
    _patch(ColumnBuilder, "build", lambda f: call("stream.build", f))
    _patch(BlackholingInferenceEngine, "process_batch", lambda f: call("core.kernel", f))
    _patch(BgpCleaner, "verdict_column", lambda f: call("core.cleaning", f))
    _patch(GroupingAccumulator, "add", lambda f: call("core.grouping", f))
    _patch(GroupingAccumulator, "events", lambda f: call("core.grouping", f))
    _patch(InferenceReport, "__init__", lambda f: call("core.report", f))
    _patch(DictionaryBuilder, "build", lambda f: call("dictionary.build", f))
    _patch(
        DictionaryBuilder,
        "build_non_blackhole_dictionary",
        lambda f: call("dictionary.build", f),
    )
    _patch(CommunityUsageStats, "observe_batch", lambda f: call("dictionary.usage_stats", f))
    _patch(ExtendedDictionaryInference, "as_dictionary", lambda f: call("dictionary.infer", f))
    _patch(TracerouteCampaign, "run", lambda f: call("dataplane.traceroute", f))
    for method in ("run_inference", "run_inference_many", "run_usage_stats"):
        _patch(ExecutionPlan, method, lambda f: call("exec.plan.run", f))
    _patch(distrib, "run_distributed", lambda f: call("exec.distrib.fleet", f))

    compute = registry.compute

    def traced_compute(name, result):
        index = tracer._open(f"analysis.{name}")
        try:
            return compute(name, result)
        finally:
            tracer._close(index)

    registry.compute = traced_compute

    _patch(DiskStore, "store", lambda f: call("exec.store.put", f))
    traced_lookup = call("exec.store.get", DiskStore.lookup)

    def counted_lookup(self, key):
        found = traced_lookup(self, key)
        tracer.counts["exec.store.hits" if found is not None else "exec.store.misses"] += 1
        return found

    DiskStore.lookup = counted_lookup
