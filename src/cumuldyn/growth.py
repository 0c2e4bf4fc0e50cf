"""Synthetic knowledge graphs from the search-process growth model.

Inventing is modeled as repeated search: with ``n`` inventions present, each
search round ends the invention with probability ``rho(n) = 1/(q*n + m1)``
and otherwise picks up one backward link, so the number of backward links
per new invention is geometric with mean ``q*n + m0``.  Link targets are
drawn uniformly among existing inventions.

All randomness comes from the PCG64 word stream of
``numpy.random.default_rng(seed)``, seeded with a single non-negative
integer, which :mod:`cumuldyn.pcg64` makes without numpy.random.
:func:`simulate` replays, in Python integers, what ``Generator.random()``
and ``Generator.integers(0, i)`` make of those words: a uniform from the top
53 bits of one word, and an integer below ``i`` from 32-bit halves of words
by Lemire's multiply-shift rejection (Lemire, *Fast Random Integer
Generation in an Interval*, ACM TOMACS 2019).  The geometric draw is the
inversion of a single uniform.  A (params, N, seed) triple therefore gives
the same graph bit for bit on any platform.

Note on measured series: because the *latest* invention's expected link
count is ``q*n + m0``, the running average over all inventions (the id of
the simulated technology at size n) grows at rate ``q/2``, not ``q``.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .core import KnowledgeGraph, ModelParams

__all__ = ["GENERATOR_NAME", "rho", "simulate"]

# The documented random source; a seed fully determines the word stream.
GENERATOR_NAME = "numpy.random PCG64"

_LOW32 = 0xFFFFFFFF
_TWO_POW_32 = 1 << 32


def rho(n: int, params: ModelParams) -> float:
    """Probability of completing an invention per search round at size n.

    Always in [0, 1/m1]; decreases toward 0 as the knowledge base grows, and
    is 0 once ``q*n`` overflows a float.
    """
    return 1.0 / (params.q * n + params.m1)


def _inverse_count(p: float, u: float) -> int | None:
    """``floor(log(u) / log(1 - p))`` for u in (0, 1], or None if that is infinite.

    It is 0 for ``p >= 1`` (a search that always ends at once), and infinite
    for a zero ``p`` (a search that never ends) and for a quotient too large
    for a float.
    """
    if p == 0.0:
        return None
    if p >= 1.0:
        return 0
    count = math.log(u) / math.log1p(-p)
    return int(count) if count < math.inf else None


def _distinct_below(
    i: int, m: int, words: Iterator[int], half: int
) -> tuple[list[int], int]:
    """``m`` distinct integers in [0, i), ascending, and the 32-bit half kept after them.

    They are the distinct values of ``Generator.integers(0, i)`` called until
    ``m`` have appeared.  Each call is a 32-bit draw ``x``: the kept high
    half ``half`` of the last word split (-1 when none is kept), else the low
    half of the next word, whose high half is then kept.  ``x * i`` is drawn
    again while its low 32 bits fall below ``(2**32 - i) % i``; the value is
    its high 32 bits.  For ``i == 1`` the value is 0 and nothing is drawn.
    """
    if i == 1:
        return [0], half
    threshold = (_TWO_POW_32 - i) % i
    chosen: set[int] = set()
    while len(chosen) < m:
        while True:
            if half < 0:
                word = next(words)
                product = (word & _LOW32) * i
                half = word >> 32
            else:
                product = half * i
                half = -1
            if product & _LOW32 >= threshold:
                break
        chosen.add(product >> 32)
    return sorted(chosen), half


def simulate(params: ModelParams, n_nodes: int, seed: int) -> KnowledgeGraph:
    """Grow a knowledge graph of ``n_nodes`` inventions from the search model.

    Each new invention draws its backward-link count at the current size,
    capped at the number of existing inventions (so node 0 never links), and
    cites that many distinct earlier inventions chosen uniformly without
    replacement.  The result always passes :func:`core.validate_graph`.

    The draws are those of one ``Generator.random()`` per invention and
    ``Generator.integers(0, i)`` per target candidate, replayed from the raw
    word stream.  numpy makes a 64-bit draw for ranges beyond 2**32, which is
    not replayed: ``n_nodes`` above 2**32 raises ValueError, as does a
    negative or non-integer ``seed``.
    """
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    if n_nodes > _TWO_POW_32:
        raise ValueError(f"n_nodes must be <= 2**32, got {n_nodes}")
    # Imported here, not at the top, so that no other command compiles the
    # stream's code or builds its jump-ahead table.
    from .pcg64 import words as pcg64_words

    words = pcg64_words(seed)  # words made past the last one used are discarded
    half = -1
    q, m1 = params.q, params.m1
    counts = [0] * n_nodes
    indices: list[int] = []
    for i in range(n_nodes):
        # rho(i, params), and Generator.random() from the top 53 bits of a word.
        count = _inverse_count(1.0 / (q * i + m1), 1.0 - (next(words) >> 11) * 2.0**-53)
        m = i if count is None else min(count, i)
        if m:
            counts[i] = m
            targets, half = _distinct_below(i, m, words, half)
            indices += targets
    width = len(str(n_nodes - 1))
    return KnowledgeGraph(
        node_ids=tuple([f"S{i:0{width}d}" for i in range(n_nodes)]),
        years=(None,) * n_nodes,
        indptr=np.concatenate(([0], np.cumsum(counts))),
        indices=np.array(indices, np.int64),
        external_backlink_counts=np.zeros(n_nodes, np.int64),
    )
