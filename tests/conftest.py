"""Shared fixtures: graph builders and independent brute-force oracles."""

from __future__ import annotations

import csv
from collections import Counter, defaultdict

import numpy as np
import pytest

from cumuldyn.core import InventionNode, KnowledgeGraph
from cumuldyn.ingest import CitationRecord, CorpusError, CorpusNode, TechnologyQuery


def make_graph(
    n_nodes: int,
    edges: list[tuple[int, int]],
    external: list[int] | None = None,
    years: list[int | None] | None = None,
) -> KnowledgeGraph:
    """Build a graph directly from ordinals, for fixtures."""
    nodes = tuple(
        InventionNode(
            node_id=f"n{i}",
            ordinal=i,
            year=None if years is None else years[i],
        )
        for i in range(n_nodes)
    )
    return KnowledgeGraph(
        nodes=nodes,
        internal_edges=tuple(edges),
        external_backlink_counts=tuple(external or [0] * n_nodes),
    )


def brute_force_path_counts(graph: KnowledgeGraph, n: int) -> dict[int, int]:
    """Enumerate every path over the first n nodes by forward DFS.

    Deliberately independent of the production dynamic program: walks every
    chain explicitly from every node without backward links.
    """
    forward: dict[int, list[int]] = defaultdict(list)
    has_backlink = [False] * n
    for citing, cited in graph.internal_edges:
        if citing < n:
            forward[cited].append(citing)
            has_backlink[citing] = True
    counts: Counter[int] = Counter()

    def walk(node: int, length: int) -> None:
        counts[length] += 1
        for nxt in forward[node]:
            walk(nxt, length + 1)

    for start in range(n):
        if not has_backlink[start]:
            walk(start, 0)
    return dict(counts)


def reference_load_corpus(
    node_file: str, edge_file: str
) -> tuple[tuple[CorpusNode, ...], tuple[CitationRecord, ...], int]:
    """Read a corpus row by row: the nodes, the kept citations, the self-citations.

    Deliberately independent of the columnar reader: one ``csv.DictReader``
    row at a time, each field parsed and checked where it is read, so the
    first bad row raises with its own line number.
    """

    def rows(path, required):
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.DictReader(handle)
            missing = [c for c in required if c not in (reader.fieldnames or [])]
            if missing:
                raise CorpusError(f"{path}: missing required column(s) {', '.join(missing)}")
            for row in reader:
                yield f"{path}:{reader.line_num}", row

    nodes, seen = [], set()
    for where, row in rows(node_file, ("node_id", "year", "classes")):
        node_id = (row.get("node_id") or "").strip()
        if not node_id:
            raise CorpusError(f"{where}: empty node_id")
        if node_id in seen:
            raise CorpusError(f"{where}: duplicate node id {node_id!r}")
        seen.add(node_id)
        raw_year = (row.get("year") or "").strip()
        try:
            year = int(raw_year) if raw_year else None
        except ValueError:
            raise CorpusError(f"{where}: invalid year {raw_year!r}") from None
        if row.get("classes") is None:
            raise CorpusError(f"{where}: missing classes column value")
        classes = tuple(c.strip() for c in row["classes"].split(";") if c.strip())
        raw_granted = row.get("granted") or ""
        if raw_granted.strip().lower() not in ("", "true", "1", "yes", "false", "0", "no"):
            raise CorpusError(f"{where}: invalid boolean {raw_granted!r}")
        granted = raw_granted.strip().lower() in ("", "true", "1", "yes")
        nodes.append(CorpusNode(node_id, year, classes, granted))

    citations, self_dropped = [], 0
    origins = {"APP": "APP", "EXA": "EXA", "": "UNKNOWN"}
    for where, row in rows(edge_file, ("citing_id", "cited_id")):
        citing = (row.get("citing_id") or "").strip()
        cited = (row.get("cited_id") or "").strip()
        if not citing or not cited:
            raise CorpusError(f"{where}: citation row needs citing_id and cited_id")
        origin = (row.get("origin") or "").strip().upper()
        if origin not in origins:
            raise CorpusError(f"{where}: invalid origin {origin!r}")
        if citing == cited:
            self_dropped += 1
        else:
            citations.append(CitationRecord(citing, cited, origins[origin]))
    return tuple(nodes), tuple(citations), self_dropped


def reference_build_graph(
    nodes: tuple[CorpusNode, ...],
    citations: tuple[CitationRecord, ...],
    query: TechnologyQuery,
    origin: str = "all",
    granted_only: bool = False,
) -> tuple[KnowledgeGraph, dict[str, int]]:
    """Carve a technology citation by citation, with sets for the pairs seen.

    Deliberately independent of the array carve; returns the graph and the
    ingest diagnostics as a dict.
    """
    selected = sorted(
        (
            node
            for node in nodes
            if (not granted_only or node.granted)
            and query.matches(node.classes)
            and (
                query.year_cutoff is None
                or (node.year is not None and node.year <= query.year_cutoff)
            )
        ),
        key=lambda node: (node.year is None, node.year or 0, node.node_id),
    )
    if not selected:
        raise ValueError(f"query {query.name!r} matches zero nodes")
    ordinal_of = {node.node_id: i for i, node in enumerate(selected)}
    internal, external = set(), set()
    duplicates = non_backward = ignored = 0
    for citation in citations:
        if origin == "app" and citation.origin != "APP":
            continue
        citing = ordinal_of.get(citation.citing_id)
        if citing is None:
            ignored += 1
            continue
        cited = ordinal_of.get(citation.cited_id)
        if cited is not None and cited >= citing:
            non_backward += 1
            continue
        pair = (citing, citation.cited_id if cited is None else cited)
        seen = external if cited is None else internal
        duplicates += pair in seen
        seen.add(pair)
    external_counts = [0] * len(selected)
    for citing, _ in external:
        external_counts[citing] += 1
    graph = KnowledgeGraph(
        nodes=tuple(
            InventionNode(node.node_id, i, node.year, frozenset(node.classes))
            for i, node in enumerate(selected)
        ),
        internal_edges=tuple(sorted(internal)),
        external_backlink_counts=tuple(external_counts),
    )
    diagnostics = {
        "matched_nodes": len(selected),
        "internal_edges": len(internal),
        "external_links": len(external),
        "duplicates_collapsed": duplicates,
        "dropped_non_backward": non_backward,
        "ignored_citations": ignored,
    }
    return graph, diagnostics


def random_dag(rng: np.random.Generator, n_max: int = 12, density: float = 0.5) -> KnowledgeGraph:
    """Random backward-edge DAG with n <= n_max and edge density <= `density`."""
    n = int(rng.integers(1, n_max + 1))
    d = float(rng.uniform(0.0, density))
    edges = [
        (i, j) for i in range(n) for j in range(i) if rng.random() < d
    ]
    return make_graph(n, edges)


@pytest.fixture
def example_graph() -> KnowledgeGraph:
    """Four nodes a,b,c,d with c->a, d->a, d->c: the worked example graph."""
    return make_graph(4, [(2, 0), (3, 0), (3, 2)])
