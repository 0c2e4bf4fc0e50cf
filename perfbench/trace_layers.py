"""Outside-in layer spans: timing wrappers around the names cumuldyn.cli calls.

:func:`install` replaces the module attributes ``cumuldyn.cli`` looks up
(``load_corpus``, ``build_graph``, ``measure_checkpoints``, ``simulate``,
``fit_series``, ``geometric_gof``, ``pathlength_gof``, ``rate_predictions``)
and ``ReportBundle.write`` with wrappers that record one span per call: name,
start, end, thread and parent.  The ``build_graph`` wrapper also times the
first access to ``graph.backward_lists`` as its own span.  In the peak pass
each call of a layer in :data:`PEAK_LAYERS` holds one lock and traces
allocations with ``tracemalloc`` from its start to its end, reporting the
peak; the rest of the run goes untraced.  Counters (rows, edges, cells, bytes)
are taken in the peak pass only, after the span closes and under the same
lock, so the timed pass runs no counting code and counting allocates nothing
inside another thread's traced span.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
import time
import tracemalloc

PEAK_LAYERS = frozenset({"ingest.load_corpus", "ingest.build_graph", "measures.dp", "growth.simulate"})


class Recorder:
    """Spans in memory; parents come from a per-thread stack.

    A span opened on a worker thread with an empty stack takes the running
    command's span as its parent, so sweep's worker calls nest under it.
    """

    def __init__(self, peak: bool = False):
        self.spans: list[dict] = []
        self.peak = peak
        self._local = threading.local()
        self._append = threading.Lock()
        self._serial = threading.RLock()
        self._command: int | None = None
        self.iteration = 0  # set by the caller before each iteration

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = {
            "name": name,
            "thread": threading.get_ident(),
            "parent": stack[-1] if stack else self._command,
            "iteration": self.iteration,
            "counts": {},
        }
        with self._append:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        peak = self.peak and name in PEAK_LAYERS
        with self._serial if peak else contextlib.nullcontext():
            if peak:
                tracemalloc.start()
            record["start"] = time.perf_counter()
            try:
                yield record["counts"]
            finally:
                record["end"] = time.perf_counter()
                if peak:
                    record["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                stack.pop()

    def count(self, record: dict, counts) -> None:
        """Add ``counts()`` to a closed span's counters, in the peak pass only."""
        if self.peak:
            with self._serial:
                record.update(counts())

    @contextlib.contextmanager
    def command(self, label: str):
        with self.span(f"cli.{label}"):
            self._command = self._stack()[-1]
            try:
                yield
            finally:
                self._command = None


def edge_cells(backward) -> int:
    """Sum over edges of the cited node's path-vector length in the DP.

    A node's vector spans path lengths from one more than the shortest of its
    cited nodes' spans to one more than the longest; an initial node's vector
    holds length 0 only.
    """
    low = [0] * len(backward)
    high = [0] * len(backward)
    total = 0
    for i, cited in enumerate(backward):
        if cited:
            total += sum(high[j] - low[j] + 1 for j in cited)
            low[i] = min(low[j] for j in cited) + 1
            high[i] = max(high[j] for j in cited) + 1
    return total


def install(rec: Recorder, cli) -> None:
    """Wrap the layer entry points that ``cli`` looks up."""

    def wrap(name, func, counts=None):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with rec.span(name) as record:
                result = func(*args, **kwargs)
            if counts is not None:
                rec.count(record, lambda: counts(args, result))
            return result

        return wrapper

    def corpus_counts(args, corpus):
        return {
            "rows": len(corpus.nodes) + len(corpus.citations) + corpus.self_citations_dropped,
            "bytes_in": sum(os.path.getsize(path) for path in args[:2]),
        }

    def dp_counts(args, checkpoints):
        graph = args[0]
        mipls = [cp.path_dist.mipl for cp in checkpoints]
        return {
            "edges": len(graph.internal_edges),
            "checkpoints": len(checkpoints),
            "max_len": max(mipls) + 1,
            "snapshot_cells": sum(mipls) + len(mipls),
            "edge_cells": edge_cells(graph.backward_lists),
        }

    build_graph = cli.build_graph

    def build_graph_wrapper(*args, **kwargs):
        with rec.span("ingest.build_graph") as record:
            graph, diagnostics = build_graph(*args, **kwargs)
        rec.count(record, lambda: {
            "citations_scanned": len(args[0].citations),
            "internal_edges": diagnostics.internal_edges,
        })
        with rec.span("core.backward_lists") as record:
            graph.backward_lists
        rec.count(record, lambda: {"edges": diagnostics.internal_edges})
        return graph, diagnostics

    write = cli.ReportBundle.write

    def write_wrapper(bundle, out_dir):
        with rec.span("cli.write") as record:
            write(bundle, out_dir)
        names = [*bundle.tables, "meta.json"]
        rec.count(record, lambda: {
            "rows": sum(len(rows) for _, rows in bundle.tables.values()),
            "bytes_out": sum(os.path.getsize(out_dir / name) for name in names),
        })

    cli.load_corpus = wrap("ingest.load_corpus", cli.load_corpus, corpus_counts)
    cli.build_graph = functools.wraps(build_graph)(build_graph_wrapper)
    cli.measure_checkpoints = wrap("measures.dp", cli.measure_checkpoints, dp_counts)
    cli.simulate = wrap(
        "growth.simulate", cli.simulate, lambda args, graph: {"edges": len(graph.internal_edges)}
    )
    cli.fit_series = wrap("fitting.fit_series", cli.fit_series)
    cli.geometric_gof = wrap("fitting.geometric_gof", cli.geometric_gof)
    cli.pathlength_gof = wrap(
        "fitting.pathlength_gof",
        cli.pathlength_gof,
        lambda args, fit: {"support_points": len(fit.plot_points)},
    )
    cli.rate_predictions = wrap("predictions.rate_predictions", cli.rate_predictions)
    cli.ReportBundle.write = functools.wraps(write)(write_wrapper)
