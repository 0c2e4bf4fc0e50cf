"""Cumulativeness indicators on knowledge-graph prefixes.

:func:`measure_checkpoints` measures every indicator at n = stride,
2*stride, ..., N in one sweep, one :class:`Checkpoint` per prefix size.
:func:`measure_series` runs the same sweep and returns only its series, the
checkpoints' points bit for bit, with no histogram or distribution.  The
transversal indicators (internal dependence ``id``, external dependence
``ed``, the backlink histogram) are running counts.  The longitudinal
indicators (internal path length ``ipl``, maximum path length ``mipl``)
require the full distribution of path lengths, where a path starts at an
invention without internal backward links and follows links forward in
time.  One engine counts them level by level: the paths of length k ending
at a node sum, over the nodes it cites, their paths of length k-1, one
``bincount`` over the edges whose cited node's longest path reaches k-1.
Its results are exact integers (mode "exact", the default up to
:data:`EXACT_MODE_LIMIT` nodes) or floats (mode "float").  Both modes climb
one arithmetic ladder: each level is summed in float64 until one's total
reaches a bound.  Float mode's, 2^1000, leaves headroom under the float
range; past it, each node's cited counts are summed in natural logs, shifted
by their maximum, so relative error stays near machine precision per level.
Exact mode's, 2^53, is where float64 sums of integers stop being exact; past
it, each node's remaining levels are packed into one Python int, all summed
in one pass.
"""

from __future__ import annotations

import math
from itertools import count, islice, repeat
from operator import mul, truediv
from typing import Iterator, Literal, NamedTuple, Sequence

import numpy as np

from .core import BacklinkDistribution, KnowledgeGraph, PathLengthDistribution, SeriesPoint

__all__ = [
    "EXACT_MODE_LIMIT",
    "measure_checkpoints",
    "measure_series",
    "resolve_mode",
    "Checkpoint",
]

# Above this node count, mode="auto" switches to float mode: total path
# counts grow like r*(1+q)^n/q and can overflow even arbitrary-precision
# printing budgets.
EXACT_MODE_LIMIT = 50_000

Mode = Literal["auto", "exact", "float"]


def resolve_mode(mode: Mode, n: int) -> str:
    """The arithmetic ``mode`` runs in on an ``n``-node graph: 'exact' or 'float'."""
    if mode == "auto":
        return "exact" if n <= EXACT_MODE_LIMIT else "float"
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    return mode


def _log_segment_sum(logs: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Log of the summed counts of ``logs[bounds[i]:bounds[i + 1]]`` for each i.

    ``bounds`` must rise strictly.  Each segment is shifted by its own
    maximum, clipped at 0 (the least log of a positive count), so no segment
    over- or underflows; an all-zero segment sums to ``-inf``.
    """
    starts = bounds[:-1]
    shift = np.maximum.reduceat(logs, starts)
    np.maximum(shift, 0.0, out=shift)
    terms = np.exp(logs - shift.repeat(bounds[1:] - starts))
    with np.errstate(divide="ignore"):
        return np.log(np.add.reduceat(terms, starts)) + shift


# A level leaves plain float64 once its total reaches the bound of its mode:
# exact mode's, as float64 sums of non-negative integers are exact below
# 2^53; float mode's, with headroom under the float range.
_INT_BOUND = 2.0**53
_LOG_BOUND = 2.0**1000


def _depths(graph: KnowledgeGraph, n: int) -> np.ndarray:
    """The depth (longest path ending there) of each of the first n nodes, in node order.

    A node's is one more than the deepest node it cites.  Per block of nodes,
    edges into earlier blocks take one scatter-max, those inside a Python loop.
    """
    ends = graph.indptr[: n + 1]
    citing = np.repeat(np.arange(n), np.diff(ends))
    depth = np.zeros(n, np.intp)
    block = 64 + n // 64
    for a in range(0, n, block):
        edges = slice(ends[a], ends[min(a + block, n)])
        into, out = citing[edges], graph.indices[edges]
        earlier = out < a
        np.maximum.at(depth, into[earlier], depth[out[earlier]] + 1)
        local = depth[a : a + block].tolist()
        for i, j in zip((into[~earlier] - a).tolist(), (out[~earlier] - a).tolist()):
            if local[j] >= local[i]:
                local[i] = local[j] + 1
        depth[a : a + block] = local
    return depth


def _path_levels(graph: KnowledgeGraph, depth: np.ndarray, mode: str) -> Iterator[tuple]:
    """Yield ``(counts, escalated)`` per path length k = 0, 1, ..., max(depth).

    ``counts`` holds the number of length-k paths ending at each node of
    ``depth`` (:func:`_depths`).  Level k+1 sums level k over the edges whose
    cited node has depth k or more: a prefix of the edges sorted, stably, by
    cited depth, descending.  Levels are summed in float64 until one's total
    reaches the bound of ``mode``.  Float mode sums that level, from the
    previous one, and every later one in natural logs (``escalated``).  Exact
    mode returns before that level, so it never escalates; the levels from
    there on are :func:`_packed_tail`'s.
    """
    n = len(depth)
    bound = _INT_BOUND if mode == "exact" else _LOG_BOUND
    degree = np.diff(graph.indptr[: n + 1])
    cited = graph.indices[: graph.indptr[n]]
    top = int(depth.max())
    # Keys rise as the cited depth falls; 16-bit keys take numpy's radix sort.
    keys = (top - depth[cited]).astype(np.uint16 if top < 2**16 else np.intp)
    order = np.argsort(keys, kind="stable")
    lives = keys[order].searchsorted(top - np.arange(top), "right").tolist()
    into, out = np.repeat(np.arange(n), degree)[order], cited[order]
    del keys, order
    counts = (degree == 0).astype(np.float64)
    escalated = False
    for m in lives:
        yield counts, escalated
        if not escalated:
            level = np.bincount(into[:m], counts[out[:m]], n)
            if level.sum() < bound:
                counts = level
                continue
            if mode == "exact":
                return
            escalated = True
            with np.errstate(divide="ignore"):
                counts = np.log(counts)
        logs = counts[out[:m]]
        shift = np.zeros(n)  # each node's largest cited log, clipped at 0
        np.maximum.at(shift, into[:m], logs)
        with np.errstate(divide="ignore"):
            counts = np.log(np.bincount(into[:m], np.exp(logs - shift[into[:m]]), n)) + shift
    yield counts, escalated


def _packed_tail(
    graph: KnowledgeGraph, depth: np.ndarray, k: int, value: np.ndarray, sizes: list
) -> list[list[int]]:
    """Each prefix's path totals of lengths k+1, k+2, ..., up to its longest.

    ``value`` holds the length-k counts of the nodes of ``depth``; node
    ``nodes[i]`` cites ``cited[bounds[i]:bounds[i + 1]]``, those of depth k
    or more.  Node h's int is ``value[h] + (p << W)``: ``p``, the sum of the
    ints h cites, packs its counts of lengths k+1, ... W bits each.  The sum
    of each ``p`` is read at each prefix size.  W, in whole bytes, spans the
    number of paths longer than k (the same pass at W = 0), which bounds
    every field and sum, so no field carries into the next.  Each int is
    dropped after its last citing node.
    """
    n = len(depth)
    cited = graph.indices[: graph.indptr[n]]
    live = depth[cited] >= k  # in node order
    citing = np.repeat(np.arange(n), np.diff(graph.indptr[: n + 1]))[live]
    cited = cited[live]
    bounds = np.flatnonzero(np.concatenate(([True], citing[1:] != citing[:-1], [True])))
    nodes = citing[bounds[:-1]]
    last = np.arange(n)  # the last node citing each node, or the node itself
    targets = last.astype(object)[cited].tolist()  # one int object per node
    np.maximum.at(last, cited, citing)
    order = np.argsort(last).tolist()
    ends = [0, *last[order].searchsorted(nodes, side="right").tolist()]

    def sums(width: int, steps_between: list[int]) -> list[int]:
        packed, running, totals = value.astype(np.int64).tolist(), 0, []
        steps = zip(nodes.tolist(), bounds.tolist(), bounds[1:].tolist(), ends, ends[1:])
        for length in steps_between:
            for h, start, end, first, stop in islice(steps, length):
                p = sum([packed[j] for j in targets[start + 1 : end]], packed[targets[start]])
                running += p
                packed[h] = (p << width) + packed[h] if packed[h] else p << width
                for j in order[first:stop]:
                    packed[j] = 0
            totals.append(running)
        return totals

    w = -(-sums(0, [len(nodes)])[0].bit_length() // 8)  # W, in bytes
    totals = sums(8 * w, np.diff(nodes.searchsorted(sizes), prepend=0).tolist())
    raws = [t.to_bytes(-(-t.bit_length() // (8 * w)) * w, "little") for t in totals]
    return [[int.from_bytes(r[i : i + w], "little") for i in range(0, len(r), w)] for r in raws]


def _path_totals(graph: KnowledgeGraph, sizes: Sequence[int], mode: str) -> list:
    """Each prefix's path totals by length, k = 0..mipl, for the prefixes of
    ``sizes`` (ascending): a list of counts, or an array of their natural
    logs where float mode summed the prefix's levels in logs.  Exact mode's
    levels past those of :func:`_path_levels` come from :func:`_packed_tail`."""
    exact = mode == "exact"
    depth = _depths(graph, sizes[-1])
    bounds = np.array([0, *sizes])
    last = bounds[1:] - 1  # each prefix's last node
    levels = (np.maximum.accumulate(depth)[last] + 1).tolist()  # up to each longest path
    columns = []  # per level: its total over each prefix size
    plain = 0  # the number of levels summed in float64
    for counts, escalated in _path_levels(graph, depth, mode):
        if escalated:
            columns.append(np.logaddexp.accumulate(_log_segment_sum(counts, bounds)).tolist())
            continue
        plain += 1
        column = counts.cumsum()[last]
        # Exact mode's go to Python ints, before any sum across levels.
        columns.append((column.astype(np.int64) if exact else column).tolist())
    tails = [[]] * len(sizes)  # exact mode: each prefix's totals past those levels
    if exact and plain < levels[-1]:
        tails = _packed_tail(graph, depth, plain - 1, counts, sizes)
    return [
        [*row[:m], *tail] if exact or m <= plain
        else np.concatenate((np.log(row[:plain]), row[plain:m]))
        for row, m, tail in zip(zip(*columns), levels, tails)
    ]


def _ipl(totals: list | np.ndarray, total: int | float | None) -> float:
    """The mean length of one prefix's path totals, given their sum (None for logs)."""
    if total is None:
        return PathLengthDistribution.log_normalized(totals)[1]
    return sum(map(mul, count(), totals)) / total


def _series(graph: KnowledgeGraph, stride: int, mode: Mode) -> tuple[tuple, list, list, str]:
    """The prefixes' :class:`SeriesPoint` fields by column, their path totals
    (see :func:`_path_totals`), the sum of each list of them (None for logs)
    and the mode they were counted in (see :func:`resolve_mode`)."""
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if graph.n_nodes == 0:
        raise ValueError("cannot measure an empty graph")
    sizes = [*range(stride, graph.n_nodes, stride), graph.n_nodes]
    mode = resolve_mode(mode, graph.n_nodes)
    rows = _path_totals(graph, sizes, mode)
    sums = [None if isinstance(row, np.ndarray) else sum(row) for row in rows]
    edge_totals = graph.indptr[sizes].tolist()
    external_totals = np.cumsum(graph.external_backlink_counts)[np.subtract(sizes, 1)].tolist()
    columns = (
        sizes,
        list(map(truediv, edge_totals, sizes)),
        list(map(_ipl, rows, sums)),
        [len(row) - 1 for row in rows],
        list(map(truediv, external_totals, sizes)),
    )
    return columns, rows, sums, mode


def _count_distribution(
    n: int, totals: list, total: int | float, ipl: float, mipl: int, logs: bool
) -> PathLengthDistribution:
    return PathLengthDistribution(
        n=n,
        counts=dict(enumerate(totals)),
        normalized=dict(enumerate(map(truediv, totals, repeat(total)))),
        ipl=ipl,
        mipl=mipl,
        log_counts=dict(enumerate(map(math.log, totals))) if logs else None,
    )


class Checkpoint(NamedTuple):
    """All measurements of one prefix, produced by one sweep over the graph."""

    n: int
    id: float
    ed: float
    path_dist: PathLengthDistribution
    backlink_dist: BacklinkDistribution

    @property
    def point(self) -> SeriesPoint:
        return SeriesPoint(self.n, self.id, self.path_dist.ipl, self.path_dist.mipl, self.ed)


def measure_checkpoints(
    graph: KnowledgeGraph, stride: int, mode: Mode = "auto"
) -> list[Checkpoint]:
    """Measure every indicator at n = stride, 2*stride, ..., N in one sweep.

    Each checkpoint equals ``measure_checkpoints(g, n)[0]`` for ``g``, the
    graph truncated to its first n nodes, in the same mode: earlier nodes
    never gain backward links, so each prefix total is a running sum over
    the nodes below it.  The match is bit-exact in exact mode, and in float
    mode unless a level passes the float bound over the whole graph but not
    over the prefix; its logs then agree within 1e-9.
    """
    columns, rows, sums, mode = _series(graph, stride, mode)
    links = graph.backlink_counts
    histogram = np.zeros(int(links.max()) + 1, np.int64)
    checkpoints = []
    for start, n, id_, ipl, mipl, ed, totals, total in zip([0, *columns[0]], *columns, rows, sums):
        histogram += np.bincount(links[start:n], minlength=len(histogram))
        counts = {m: c for m, c in enumerate(histogram.tolist()) if c}
        if total is None:
            path_dist = PathLengthDistribution.from_logs(n, totals)
        else:
            path_dist = _count_distribution(n, totals, total, ipl, mipl, mode == "float")
        checkpoints.append(Checkpoint(n, id_, ed, path_dist, BacklinkDistribution(n, counts)))
    return checkpoints


def measure_series(
    graph: KnowledgeGraph, stride: int, mode: Mode = "auto"
) -> tuple[SeriesPoint, ...]:
    """``tuple(cp.point for cp in measure_checkpoints(graph, stride, mode))``,
    bit for bit, from the same sweep but without building the distributions."""
    return tuple(map(SeriesPoint, *_series(graph, stride, mode)[0]))
