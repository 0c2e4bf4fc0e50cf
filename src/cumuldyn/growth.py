"""Synthetic knowledge graphs from the search-process growth model.

Inventing is modeled as repeated search: with ``n`` inventions present, each
search round ends the invention with probability ``rho(n) = 1/(q*n + m1)``
and otherwise picks up one backward link, so the number of backward links
per new invention is geometric with mean ``q*n + m0``.  Link targets are
drawn uniformly among existing inventions.

All randomness comes from NumPy's PCG64 generator seeded with a single
64-bit integer, and the geometric draw uses inversion of a single uniform,
so a (params, N, seed) triple reproduces the same graph bit for bit on any
platform.

Note on measured series: because the *latest* invention's expected link
count is ``q*n + m0``, the running average over all inventions (the id of
the simulated technology at size n) grows at rate ``q/2``, not ``q``.
"""

from __future__ import annotations

import math

import numpy as np

from .core import KnowledgeGraph, ModelParams

__all__ = ["GENERATOR_NAME", "rho", "sample_backlink_count", "simulate"]

# The documented random source; a seed fully determines the uniform stream.
GENERATOR_NAME = "numpy.random PCG64"


def rho(n: int, params: ModelParams) -> float:
    """Probability of completing an invention per search round at size n.

    Always in (0, 1/m1]; decreases toward 0 as the knowledge base grows.
    """
    return 1.0 / (params.q * n + params.m1)


def sample_backlink_count(n: int, params: ModelParams, rng: np.random.Generator) -> int:
    """Draw a backward-link count m with P(m) = (1 - rho(n))^m * rho(n).

    Sampled by inversion, ``floor(log(u) / log(1 - rho))`` with u uniform in
    (0, 1], so reproducibility depends only on the generator's uniform
    stream and not on any library's geometric sampler.
    """
    p = rho(n, params)
    if p >= 1.0:
        return 0
    u = 1.0 - rng.random()
    return int(math.log(u) / math.log1p(-p))


def simulate(params: ModelParams, n_nodes: int, seed: int) -> KnowledgeGraph:
    """Grow a knowledge graph of ``n_nodes`` inventions from the search model.

    Each new invention draws its backward-link count at the current size,
    capped at the number of existing inventions (so node 0 never links), and
    cites that many distinct earlier inventions chosen uniformly without
    replacement.  The result always passes :func:`core.validate_graph`.
    """
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    for i in range(n_nodes):
        m = min(sample_backlink_count(i, params, rng), i)
        if m == 0:
            continue
        # Rejection keeps targets distinct while consuming only the plain
        # integer stream; m stays well below i except at tiny prefixes.
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(int(rng.integers(0, i)))
        edges.extend((i, target) for target in sorted(chosen))
    width = len(str(n_nodes - 1))
    return KnowledgeGraph.from_edges([f"S{i:0{width}d}" for i in range(n_nodes)], edges)
