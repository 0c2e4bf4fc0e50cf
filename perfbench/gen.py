"""Seeded benchmark inputs and the ground truth they plant.

Every corpus comes from the benchmark's own numpy PCG64 generator, never from
``cumuldyn.simulate``, so a change to the package cannot shift the inputs.
Besides the two CSV files, each corpus gets a ``truth.json`` sidecar that
holds, per technology, what ``cumuldyn measure`` must report: the ingest
diagnostics, every node's internal link count in chronological order, the
invention rate, and the input row and byte counts.  The diagnostics come from
:func:`carve`, a vectorised reading of the documented ingest rules written
here, independent of ``cumuldyn.ingest``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ORIGINS = np.array(["APP", "EXA", ""])
FIRST_YEAR, YEARS = 1980, 40


@dataclass(frozen=True)
class Tech:
    name: str
    prefix: str  # query prefix; labels carry a space the query leaves out
    size: int
    q: float
    m1: float = 3.0
    # Every node also cites its chronological predecessor, and its link count
    # is the model mean instead of a geometric draw, so all seeds give the
    # same number of edges.
    chain: bool = False

    def label(self, digit: int) -> str:
        head, tail = self.prefix[:4], self.prefix[4:]
        return f"{head} {tail}{digit}"


INGEST_TECHS = tuple(
    Tech(f"T{k}", f"Y02E{10 + k}/5", int(size), q, m1=2.5)
    for k, (size, q) in enumerate(
        zip(
            np.round(np.geomspace(50, 250, 8), -1),
            (8e-3, 1.6e-3, 6.4e-3, 4e-3, 4.8e-3, 3.2e-3, 2.4e-3, 2e-3),
        )
    )
)
DEEP_TECH = Tech("deep", "Y02E10/5", 200, 0.2, chain=True)
BACKGROUND_LABELS = ("H01L 31/0", "H02J 3/3", "Y02E 10/4", "G06F 17/1")


def model_edges(rng: np.random.Generator, n: int, q: float, m1: float, chain: bool = False):
    """Backward edges of the search model, by chronological position.

    Position i draws a geometric link count with mean ``q*i + m1 - 1`` (capped
    at i) and cites that many distinct earlier positions chosen uniformly.
    With ``chain``, position i cites i - 1 and, instead of the draw, the mean
    rounded (capped at i - 1) of uniform earlier positions: the longest path
    ending at i has length i, and the edge count does not depend on the seed.
    Returns (citing, cited) arrays sorted by citing, then cited.
    """
    pos = np.arange(n)
    u = 1.0 - rng.random(n)
    links = np.floor(np.log(u) / np.log1p(-1.0 / (q * pos + m1))).astype(np.int64)
    if chain:
        links = np.rint(q * pos + m1 - 1).astype(np.int64)
    citing = np.repeat(pos, np.minimum(links, np.maximum(pos - chain, 0)))
    cited = np.floor(rng.random(len(citing)) * citing).astype(np.int64)
    if chain:  # first, so the redraw below never moves them
        citing = np.concatenate([pos[1:], citing])
        cited = np.concatenate([pos[:-1], cited])
    while True:  # redraw repeated targets until every node's targets are distinct
        _, first = np.unique(citing * n + cited, return_index=True)
        if len(first) == len(citing):
            break
        again = np.ones(len(citing), dtype=bool)
        again[first] = False
        cited[again] = np.floor(rng.random(int(again.sum())) * citing[again]).astype(np.int64)
    order = np.lexsort((cited, citing))
    return citing[order], cited[order]


def carve(member, rank, citing, cited):
    """Diagnostics of one technology, following ``build_graph``'s rules.

    ``member`` and ``rank`` cover every id (corpus nodes, then unknown
    citation targets); ``rank`` is the chronological (year, node_id) order.
    The citation rows exclude self-citations, as ``load_corpus`` drops them.
    Returns the diagnostics, the member ids in chronological order, and each
    member's internal link count in that order.
    """
    members = np.flatnonzero(member)
    members = members[np.argsort(rank[members])]
    ordinal = np.full(len(member), -1, dtype=np.int64)
    ordinal[members] = np.arange(len(members))
    inside = member[citing]
    c, d = citing[inside], cited[inside]
    internal = member[d]
    ext_pairs = np.unique(c[~internal] * len(member) + d[~internal])
    ci, di = ordinal[c[internal]], ordinal[d[internal]]
    backward = di < ci
    int_pairs = np.unique(ci[backward] * len(members) + di[backward])
    links = np.bincount(int_pairs // len(members), minlength=len(members))
    n_external = int((~internal).sum())
    diagnostics = {
        "matched_nodes": int(len(members)),
        "internal_edges": int(len(int_pairs)),
        "external_links": int(len(ext_pairs)),
        "duplicates_collapsed": n_external - len(ext_pairs) + int(backward.sum()) - len(int_pairs),
        "dropped_non_backward": int((~backward).sum()),
        "ignored_citations": int((~inside).sum()),
    }
    return diagnostics, members, links


@dataclass
class Corpus:
    """Generated corpus by integer id; ids past ``len(years)`` are unknown targets."""

    ids: np.ndarray
    years: np.ndarray
    classes: list[str]
    granted: np.ndarray | None
    citing: np.ndarray
    cited: np.ndarray
    origin: np.ndarray
    members: dict[str, np.ndarray]  # technology name -> membership over ids


def _csv_bytes(header: str, columns) -> bytes:
    lines = [header] + [",".join(row) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def write_corpus(out: Path, corpus: Corpus, techs, rng: np.random.Generator) -> dict:
    """Write nodes.csv (rows shuffled), edges.csv and truth.json; return the truth."""
    out.mkdir(parents=True, exist_ok=True)
    n_nodes = len(corpus.years)
    rows = rng.permutation(n_nodes)
    columns = [corpus.ids[rows], corpus.years[rows].astype(str), np.array(corpus.classes)[rows]]
    header = "node_id,year,classes"
    if corpus.granted is not None:
        columns.append(corpus.granted[rows])
        header += ",granted"
    nodes = _csv_bytes(header, columns)
    edges = _csv_bytes(
        "citing_id,cited_id,origin",
        [corpus.ids[corpus.citing], corpus.ids[corpus.cited], corpus.origin],
    )
    (out / "nodes.csv").write_bytes(nodes)
    (out / "edges.csv").write_bytes(edges)

    rank = np.full(len(corpus.ids), n_nodes, dtype=np.int64)
    rank[np.lexsort((corpus.ids[:n_nodes], corpus.years))] = np.arange(n_nodes)
    keep = corpus.citing != corpus.cited
    truth = {
        "node_rows": n_nodes,
        "citation_rows": len(corpus.citing),
        "bytes_in": len(nodes) + len(edges),
        "self_citations": int((~keep).sum()),
        "techs": {},
    }
    for tech in techs:
        diagnostics, order, links = carve(
            corpus.members[tech.name], rank, corpus.citing[keep], corpus.cited[keep]
        )
        years = corpus.years[order]
        truth["techs"][tech.name] = {
            "prefix": tech.prefix,
            "diagnostics": diagnostics,
            "node_ids": corpus.ids[order].tolist(),
            "links": links.tolist(),
            "rate": len(order) / int(years.max() - years.min() + 1),
        }
    (out / "truth.json").write_text(json.dumps(truth))
    return truth


def _node_ids(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.array([f"P{i:07d}" for i in rng.permutation(n)])


def _chronological(ids: np.ndarray, years: np.ndarray) -> np.ndarray:
    return np.lexsort((ids, years))


def deep_corpus(out: Path, seed: int, tech: Tech = DEEP_TECH) -> dict:
    """One search-model technology and nothing else: ingest stays a minority."""
    rng = np.random.default_rng(seed)
    ids = _node_ids(rng, tech.size)
    years = FIRST_YEAR + rng.integers(0, YEARS, tech.size)
    order = _chronological(ids, years)
    c, d = model_edges(rng, tech.size, tech.q, tech.m1, tech.chain)
    perm = rng.permutation(len(c))
    corpus = Corpus(
        ids=ids,
        years=years,
        classes=[tech.label(digit) for digit in rng.integers(0, 10, tech.size)],
        granted=None,
        citing=order[c][perm],
        cited=order[d][perm],
        origin=ORIGINS[rng.integers(0, 3, len(c))],
        members={tech.name: np.ones(tech.size, dtype=bool)},
    )
    return write_corpus(out, corpus, (tech,), rng)


def ingest_corpus(
    out: Path, seed: int, techs=INGEST_TECHS, background: int = 600, unknown: int = 800
) -> dict:
    """Patent-like corpus of overlapping technologies in a background.

    Each technology grows by the search model in its own chronological
    order.  20% of nodes carry a second class (another technology's label on
    technology nodes).  Every node cites Poisson(2) targets outside its own
    technology: unknown ids (40%), background nodes (40%) or other
    technologies' nodes (20%).  0.5% of technology nodes also cite a later
    node of their own technology, 0.5% of rows are self-citations and 2%
    repeat an earlier row.  Rows of both files are shuffled.
    """
    rng = np.random.default_rng(seed)
    sizes = np.array([t.size for t in techs])
    n_nodes = int(sizes.sum()) + background
    home = np.concatenate([np.repeat(np.arange(len(techs)), sizes), np.full(background, -1)])
    ids = np.concatenate(
        [_node_ids(rng, n_nodes), [f"X{i:07d}" for i in rng.permutation(10 * unknown)[:unknown]]]
    )
    years = FIRST_YEAR + rng.integers(0, YEARS, n_nodes)
    position = np.empty(n_nodes, dtype=np.int64)
    position[_chronological(ids[:n_nodes], years)] = np.arange(n_nodes)

    digits = rng.integers(0, 10, n_nodes)
    background_pick = rng.integers(0, len(BACKGROUND_LABELS), n_nodes)
    two = rng.random(n_nodes) < 0.2
    other = rng.integers(0, len(techs) - 1, n_nodes)
    second = np.where(two & (home >= 0), other + (other >= home), -1)
    classes = []
    for node in range(n_nodes):
        t, digit = home[node], int(digits[node])
        pick = background_pick[node]
        labels = [techs[t].label(digit) if t >= 0 else BACKGROUND_LABELS[pick] + str(digit)]
        if second[node] >= 0:
            labels.append(techs[second[node]].label((digit + 3) % 10))
        elif two[node]:
            labels.append(BACKGROUND_LABELS[(pick + 1) % len(BACKGROUND_LABELS)] + str(digit))
        if digit % 2:
            labels.reverse()
        classes.append(";".join(labels))

    citing_parts, cited_parts = [], []
    for t, tech in enumerate(techs):
        nodes = np.flatnonzero(home == t)
        nodes = nodes[np.argsort(position[nodes])]
        c, d = model_edges(rng, len(nodes), tech.q, tech.m1)
        pos = np.flatnonzero(rng.random(len(nodes) - 1) < 0.005)
        later = pos + 1 + np.floor(rng.random(len(pos)) * (len(nodes) - 1 - pos)).astype(np.int64)
        citing_parts += [nodes[c], nodes[pos]]
        cited_parts += [nodes[d], nodes[later]]

    src = np.repeat(np.arange(n_nodes), rng.poisson(2.0, n_nodes))
    kind = rng.random(len(src))
    background_nodes = np.flatnonzero(home < 0)
    tech_nodes = np.flatnonzero(home >= 0)
    target = np.where(
        kind < 0.4,
        n_nodes + rng.integers(0, unknown, len(src)),
        background_nodes[rng.integers(0, len(background_nodes), len(src))],
    )
    cross = np.flatnonzero(kind >= 0.8)
    pick = tech_nodes[rng.integers(0, len(tech_nodes), len(cross))]
    pick[home[pick] == home[src[cross]]] = -1  # same technology: fall back to background
    target[cross[pick >= 0]] = pick[pick >= 0]
    citing_parts.append(src)
    cited_parts.append(target)

    citing = np.concatenate(citing_parts)
    cited = np.concatenate(cited_parts)
    selfs = rng.integers(0, n_nodes, int(round(0.005 * len(citing))))
    repeats = rng.integers(0, len(citing), int(round(0.02 * len(citing))))
    citing = np.concatenate([citing, selfs, citing[repeats]])
    cited = np.concatenate([cited, selfs, cited[repeats]])
    perm = rng.permutation(len(citing))

    members = {}
    for t, tech in enumerate(techs):
        member = np.zeros(len(ids), dtype=bool)
        member[:n_nodes] = (home == t) | (second == t)
        members[tech.name] = member
    corpus = Corpus(
        ids=ids,
        years=years,
        classes=classes,
        granted=np.where(rng.random(n_nodes) < 0.9, "true", "false"),
        citing=citing[perm],
        cited=cited[perm],
        origin=ORIGINS[rng.integers(0, 3, len(citing))],
        members=members,
    )
    return write_corpus(out, corpus, techs, rng)
