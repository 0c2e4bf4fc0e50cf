"""Shared fixtures: graph builders and independent brute-force oracles."""

from __future__ import annotations

import csv
import io
import math
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np
import pytest

from cumuldyn.core import (
    BacklinkDistribution,
    KnowledgeGraph,
    ModelParams,
    PathLengthDistribution,
    SeriesPoint,
)
from cumuldyn.growth import rho
from cumuldyn.ingest import CitationRecord, CorpusError, CorpusNode, TechnologyQuery
from cumuldyn.fitting import _chi_square_tail
from cumuldyn.predictions import binomial_path_pmf, log_factorials


def make_graph(
    n_nodes: int,
    edges: list[tuple[int, int]],
    external: list[int] | None = None,
    years: list[int | None] | None = None,
) -> KnowledgeGraph:
    """Build a graph directly from ordinals, for fixtures."""
    return KnowledgeGraph.from_edges([f"n{i}" for i in range(n_nodes)], edges, external, years)


def truncated(graph: KnowledgeGraph, n: int) -> KnowledgeGraph:
    """The first n nodes of ``graph`` alone: its CSR columns sliced at node n."""
    return KnowledgeGraph(
        node_ids=graph.node_ids[:n],
        years=graph.years[:n],
        indptr=graph.indptr[: n + 1],
        indices=graph.indices[: graph.indptr[n]],
        external_backlink_counts=graph.external_backlink_counts[:n],
    )


def reference_validate_graph(
    n: int,
    edges: list[tuple[int, int]],
    external: list[int],
    years: list[int | None],
) -> list[str]:
    """Every KnowledgeGraph invariant violation of a graph given as plain lists.

    Deliberately independent of the CSR columns: checks one node and one
    edge at a time, in the order given, with a set of the edges seen.
    """
    violations: list[str] = []
    last_year: int | None = None
    for i, year in enumerate(years):
        if year is None:
            continue
        if last_year is not None and year < last_year:
            violations.append(
                f"node {i} has year {year} before an earlier node's year {last_year}"
            )
        last_year = year
    if len(external) != n:
        violations.append(f"external_backlink_counts has {len(external)} entries for {n} nodes")
    for i, count in enumerate(external):
        if count < 0:
            violations.append(f"negative external backlink count at node {i}")
    seen: set[tuple[int, int]] = set()
    for citing, cited in edges:
        if not (0 <= citing < n and 0 <= cited < n):
            violations.append(f"edge ({citing}, {cited}) references missing node")
            continue
        if citing <= cited:
            violations.append(
                f"forward edge ({citing}, {cited}): citing ordinal must exceed cited ordinal"
            )
        if (citing, cited) in seen:
            violations.append(f"duplicate edge ({citing}, {cited})")
        seen.add((citing, cited))
    return violations


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


def node_path_counts(graph: KnowledgeGraph, n: int) -> list[dict[int, int]]:
    """Per node of the first n, its number of paths of each length that has any.

    Deliberately independent of the production engine: one Python-int
    recurrence per node, in ordinal order.  A node without internal backward
    links ends one path, of length 0; any other node ends, for each k, the
    sum over the nodes it cites of their paths of length k - 1.
    """
    indptr, indices = graph.indptr.tolist(), graph.indices.tolist()
    vectors: list[dict[int, int]] = []
    for i in range(n):
        vector: Counter[int] = Counter()
        for j in indices[indptr[i] : indptr[i + 1]]:
            for k, c in vectors[j].items():
                vector[k + 1] += c
        vectors.append(dict(vector) if indptr[i + 1] > indptr[i] else {0: 1})
    return vectors


def _undecodable(path: str) -> tuple[int, str] | None:
    """The line of the first byte of ``path`` that is not UTF-8 and the
    decoder's reason, or None."""
    data = Path(path).read_bytes()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # Counted as csv counts lines: a line ends at \n, \r or \r\n.
        head = data[: exc.start].decode("utf-8")
        return sum(1 for _ in io.StringIO(head + "_", newline="")), exc.reason
    return None


@contextmanager
def open_csv(path: str) -> Iterator[Iterator[list[str]]]:
    """A ``csv.reader`` streaming over a UTF-8 file, skipping a leading byte-order mark.

    A file holding a byte that is not UTF-8 raises :class:`CorpusError`
    naming the line of the first one before any row is read, whatever the
    file's size.  A csv error raises it naming ``file:line``.
    """
    bad = _undecodable(path)
    if bad is not None:
        raise CorpusError(f"{path}:{bad[0]}: not UTF-8 ({bad[1]})")
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            yield reader
        except csv.Error as exc:
            raise CorpusError(f"{path}:{reader.line_num}: {exc}") from None


def reference_read_columns(
    path: str, required: tuple[str, ...], optional: str | None, what: str = "required column(s)"
) -> list[list[str | None]]:
    """``ingest._read_columns`` as ``csv.reader`` gives it, for every file.

    Deliberately without the reader's plain-text split and its whole-file
    decode: every row comes from one ``csv.reader`` streaming over the file,
    so its values and errors are csv's own.
    """
    with open_csv(path) as reader:
        index = {name: i for i, name in enumerate(next(reader, None) or [])}
        missing = [c for c in required if c not in index]
        if missing:
            raise CorpusError(f"{path}: missing {what} {', '.join(missing)}")
        rows = [row for row in reader if row]
    wanted = [index.get(name) for name in (*required, optional) if name is not None]
    width = max(i for i in wanted if i is not None) + 1
    if min(map(len, rows), default=width) < width:
        rows = [row + [None] * (width - len(row)) for row in rows]
    return [[None] * len(rows) if i is None else list(map(itemgetter(i), rows)) for i in wanted]


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


def reference_matches(query: TechnologyQuery, class_labels) -> bool:
    """Whether any label, whitespace removed, starts with one of the query's prefixes."""
    return any(
        "".join(label.split()).startswith(prefix)
        for label in class_labels
        for prefix in query.class_prefixes
    )


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
            and reference_matches(query, node.classes)
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
    graph = KnowledgeGraph.from_edges(
        [node.node_id for node in selected],
        sorted(internal),
        external_counts,
        [node.year for node in selected],
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


def binomial_path_dist(n_prime: int) -> dict[int, float]:
    """Binomial-type path-length distribution: C(n', k+1) / (2^n' - 1)."""
    return dict(enumerate(binomial_path_pmf(n_prime).tolist()))


def binomial_path_dist_np(n: int, p: float) -> dict[int, float]:
    """Binomial-type distribution parameterized by n and the rate p.

    Evaluates ``C(2pn, k+1)`` with the real-argument (log-gamma) binomial
    coefficient over k = 0 .. ceil(2pn) - 1 and normalizes by the sum of
    those terms, which equals ``4^(p*n) - 1`` whenever 2pn is an integer.
    Truncating at the last positive term keeps the result a probability
    distribution for non-integral 2pn as well.
    """
    from scipy.special import gammaln

    x = 2.0 * p * n
    if x <= 0:
        raise ValueError(f"2*p*n must be positive, got {x}")
    ks = np.arange(math.ceil(x)) + 1.0
    logs = gammaln(x + 1.0) - gammaln(ks + 1.0) - gammaln(x - ks + 1.0)
    peak = float(np.max(logs))
    log_z = peak + math.log(float(np.sum(np.exp(logs - peak))))
    return {int(k): float(v) for k, v in enumerate(np.exp(logs - log_z))}


# The CLI's table readers as they were row by row: each row parsed and
# checked where it is read, so the first bad row raises with its own line.


def _reference_read_table(path: str, columns, parse_row) -> tuple[list, list[int]]:
    """What ``parse_row`` returns for each non-blank row, and each such row's line."""
    with open_csv(path) as reader:
        header = next(reader, None) or []
        index = {name: i for i, name in enumerate(header)}
        missing = [c for c in columns if c not in index]
        if missing:
            raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
        positions = [index[c] for c in columns]
        width = max(positions) + 1
        parsed, lines = [], []
        for fields in filter(None, reader):
            try:
                if len(fields) < width:
                    raise ValueError("too few fields")
                parsed.append(parse_row(*(fields[i] for i in positions)))
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
            lines.append(reader.line_num)
    return parsed, lines


def _finite(column: str, value: float) -> float:
    if not math.isfinite(value):
        raise ValueError(f"{column} must be finite, got {value}")
    return value


def _in_range(column: str, value, low: float = 0, high: float = math.inf):
    if not low <= value <= high:  # also rejects nan
        raise ValueError(f"{column} must lie in [{low}, {high}], got {value}")
    return value


def reference_load_series(path: str) -> tuple[SeriesPoint, ...]:
    last = 0

    def point(n: str, id_: str, ipl: str, mipl: str, ed: str) -> SeriesPoint:
        nonlocal last
        size = _in_range("n", int(n), 1)
        if size > 2**53:
            raise ValueError(f"n must be at most 2**53, got {size}")
        if size <= last:
            raise ValueError(f"n must rise from row to row, got {size} after {last}")
        last = size
        id_, ipl, mipl, ed = (
            _finite(name, float(cell))
            for name, cell in zip(("id", "ipl", "mipl", "ed"), (id_, ipl, mipl, ed))
        )
        if mipl != int(mipl) or not 0 <= mipl <= size - 1:
            raise ValueError(f"mipl must be a whole number in [0, {size - 1}], got {mipl}")
        for name, value in (("id", id_), ("ed", ed)):
            if value < 0:
                raise ValueError(f"{name} must not be negative, got {value}")
        if id_ > (size - 1) / 2:
            raise ValueError(f"id must be at most (n - 1)/2 = {(size - 1) / 2}, got {id_}")
        if not 0 <= ipl <= mipl:
            raise ValueError(f"ipl must lie in [0, {mipl}], got {ipl}")
        return SeriesPoint(size, id_, ipl, int(mipl), ed)

    points, _ = _reference_read_table(path, ("n", "id", "ipl", "mipl", "ed"), point)
    if len(points) < 3:
        raise ValueError(f"{path}: need at least 3 rows to fit, got {len(points)}")
    return tuple(points)


def reference_load_backlinks(path: str, n: int) -> list[int]:
    backlinks: list[int | None] = [None] * n

    def place(ordinal: str, m: str) -> None:
        i = _in_range("ordinal", int(ordinal), 0, n - 1)
        if backlinks[i] is not None:
            raise ValueError(f"duplicate ordinal {i}")
        backlinks[i] = _in_range("m", int(m), 0, n - 1)
        if backlinks[i] > i:
            raise ValueError(f"m must be at most ordinal {i}, got {backlinks[i]}")

    _reference_read_table(path, ("ordinal", "m"), place)
    missing = backlinks.count(None)
    if missing:
        raise ValueError(
            f"{path}: no row for ordinal {backlinks.index(None)} "
            f"({missing} of ordinals 0..{n - 1} missing)"
        )
    return backlinks


def _parse_count(raw: str):
    try:
        value = int(raw)
    except ValueError:
        value = float(raw)
    return _in_range("count", value)


def _prefix_key(grouped: dict, n: str, name: str, key: str) -> tuple[dict, int]:
    size = _in_range("n", int(n), 1)
    value = _in_range(name, int(key))
    if value > size - 1:
        raise ValueError(f"{name} must be at most n - 1 = {size - 1}, got {value}")
    entries = grouped.setdefault(size, {})
    if value in entries:
        raise ValueError(f"repeated row for n={size}, {name}={value}")
    return entries, value


def _read_grouped(path: str, columns, place) -> tuple[dict, dict[int, int]]:
    """The rows grouped by n, in the order each n first appears, and the line of that row."""
    grouped: dict[int, dict] = {}

    def row(n: str, key: str, *cells: str) -> int:
        place(*_prefix_key(grouped, n, columns[1], key), *cells)
        return int(n)

    sizes, lines = _reference_read_table(path, columns, row)
    if not grouped:
        raise ValueError(f"{path}: no rows")
    first_lines: dict[int, int] = {}
    for size, line in zip(sizes, lines):
        first_lines.setdefault(size, line)
    return grouped, first_lines


def reference_load_backlink_dists(path: str) -> dict[int, BacklinkDistribution]:
    def place(entries: dict, links: int, count: str) -> None:
        entries[links] = _in_range("count", int(count))

    grouped, lines = _read_grouped(path, ("n", "m", "count"), place)
    for n, counts in grouped.items():
        total = sum(counts.values())
        if total != n:
            raise ValueError(f"{path}:{lines[n]}: histogram total {total} != prefix size {n}")
    return {n: BacklinkDistribution(n=n, counts=counts) for n, counts in grouped.items()}


def reference_load_pathlen_dists(path: str) -> dict[int, PathLengthDistribution]:
    def place(entries: dict, length: int, count: str, normalized: str) -> None:
        entries[length] = (
            _parse_count(count), _in_range("normalized", float(normalized), 0, 1)
        )

    grouped, lines = _read_grouped(path, ("n", "k", "count", "normalized"), place)
    dists = {}
    for n, entries in grouped.items():
        counts = {k: c for k, (c, _) in entries.items()}
        normalized = {k: w for k, (_, w) in entries.items()}
        positive = [k for k, c in counts.items() if c > 0]
        if not positive:
            raise ValueError(f"{path}:{lines[n]}: distribution at n={n} has no paths")
        for k, (c, w) in entries.items():
            if w > 0 and not c > 0:
                raise ValueError(
                    f"{path}:{lines[n]}: normalized value at n={n}, k={k} is positive "
                    "where its count is 0"
                )
        total = math.fsum(normalized.values())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(
                f"{path}:{lines[n]}: normalized values at n={n} sum to {total!r}, not 1"
            )
        dists[n] = PathLengthDistribution(
            n=n,
            counts=counts,
            normalized=normalized,
            ipl=sum(k * w for k, w in normalized.items()),
            mipl=max(positive),
        )
    return dists


class ReferenceFit(NamedTuple):
    """One fit as the per-row oracles below give it: the row of a ``DistributionFits``."""

    family: str
    params: dict[str, float]
    plot_points: tuple[tuple[float, float], ...]
    plot_correlation: float
    chi_square: tuple[float, int, float]


def _reference_plot_correlation(points, context: str) -> float:
    if len(points) < 2:
        warnings.warn(
            f"{context}: degenerate distribution with a single support point; "
            "probability-plot correlation reported as 1"
        )
        return 1.0
    emp = np.array([p[0] for p in points])
    mod = np.array([p[1] for p in points])
    if emp.std() == 0.0 or mod.std() == 0.0:
        matched = bool(np.allclose(emp, mod))
        warnings.warn(
            f"{context}: constant probabilities on one axis; correlation "
            f"reported as {1.0 if matched else 0.0}"
        )
        return 1.0 if matched else 0.0
    return float(np.corrcoef(emp, mod)[0, 1])


class Special(NamedTuple):
    """The special functions an oracle takes, from cumuldyn or from scipy."""

    log_factorial: Callable[[np.ndarray], np.ndarray]  # log(k!) of integer ks
    chi_square_tail: Callable[[float, int], float]  # P(X > statistic) at dof
    binomial_pmf: Callable[[int], np.ndarray]  # binomial-type pmf over k < n'


# cumuldyn's own primitives, so the oracles match the batched kernels bit for bit.
PACKAGE_SPECIAL = Special(
    lambda ks: log_factorials(int(np.max(ks)))[ks],
    lambda statistic, dof: float(_chi_square_tail(np.array([statistic]), np.array([dof]))[0]),
    binomial_path_pmf,
)


def scipy_special() -> Special:
    """The same functions from scipy.special, to cross-check the package's."""
    from scipy.special import chdtrc, gammaln

    def binomial_pmf(n_prime: int) -> np.ndarray:
        ks = np.arange(n_prime) + 1.0
        log_z = n_prime * math.log(2.0) + math.log1p(-(2.0**-n_prime))
        return np.exp(
            gammaln(n_prime + 1.0) - gammaln(ks + 1.0) - gammaln(n_prime - ks + 1.0) - log_z
        )

    return Special(
        lambda ks: gammaln(ks + 1.0),
        lambda statistic, dof: float(chdtrc(dof, statistic)),
        binomial_pmf,
    )


def _reference_chi_square(
    observed, expected, special: Special = PACKAGE_SPECIAL
) -> tuple[float, int, float]:
    obs_pooled: list[float] = []
    exp_pooled: list[float] = []
    acc_obs = acc_exp = 0.0
    for o, e in zip(observed[::-1], expected[::-1]):
        acc_obs += float(o)
        acc_exp += float(e)
        if acc_exp >= 5.0:
            obs_pooled.append(acc_obs)
            exp_pooled.append(acc_exp)
            acc_obs = acc_exp = 0.0
    if acc_exp > 0.0 or acc_obs > 0.0:
        if obs_pooled:
            obs_pooled[-1] += acc_obs
            exp_pooled[-1] += acc_exp
        else:
            obs_pooled.append(acc_obs)
            exp_pooled.append(acc_exp)
    obs_arr = np.array(obs_pooled)
    exp_arr = np.array(exp_pooled)
    dof = len(obs_arr) - 1
    if dof < 1 or np.any(exp_arr <= 0.0):
        return math.nan, max(dof, 0), math.nan
    with np.errstate(over="ignore"):
        statistic = float(np.sum((obs_arr - exp_arr) ** 2 / exp_arr))
    if not math.isfinite(statistic):
        return math.inf, dof, 0.0
    return statistic, dof, special.chi_square_tail(statistic, dof)


def reference_chi_squares(
    observed: np.ndarray, expected: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> list[tuple[float, int, float]]:
    """``fitting._chi_squares``, one row at a time with the sequential pooling above."""
    return [
        _reference_chi_square(observed[lo:lo + size], expected[lo:lo + size])
        for lo, size in zip(starts.tolist(), lengths.tolist())
    ]


def reference_geometric_gof(
    hist: BacklinkDistribution, params: ModelParams, n: int, special: Special = PACKAGE_SPECIAL
) -> ReferenceFit:
    """Geometric fit one numpy scalar at a time, with ``np.corrcoef``.

    Deliberately independent of the array kernels in ``cumuldyn.fitting``:
    plot points built pair by pair, chi-square bins pooled element-wise.
    """
    if not hist.counts:
        raise ValueError("empty backlink histogram")
    p = rho(n, params)
    max_m = max(hist.counts)
    ms = np.arange(max_m + 1)
    model = np.exp(ms * math.log1p(-p)) * p if p < 1.0 else (ms == 0).astype(float)
    observed = np.array([hist.counts.get(int(m), 0) for m in ms], dtype=float)
    empirical = observed / hist.n
    points = tuple((float(e), float(mo)) for e, mo in zip(empirical, model))
    correlation = _reference_plot_correlation(points, "geometric fit")
    tail = hist.n * math.exp((max_m + 1) * math.log1p(-p)) if p < 1.0 else 0.0
    chi = _reference_chi_square(
        np.append(observed, 0.0), np.append(hist.n * model, tail), special
    )
    return ReferenceFit("geometric", {"rho": p}, points, correlation, chi)


def _reference_pathlength_model(dist, family, ks, special: Special):
    mean = dist.ipl
    if family == "binomial-type":
        n_prime = max(dist.mipl, 1)
        pmf = dict(enumerate(special.binomial_pmf(n_prime).tolist()))
        return {"n_prime": float(n_prime)}, np.array([pmf.get(int(k), 0.0) for k in ks])
    if family == "poisson":
        if mean <= 0:
            return {"rate": mean}, (ks == 0).astype(float)
        return {"rate": mean}, np.exp(ks * math.log(mean) - mean - special.log_factorial(ks))
    if family == "normal":
        var = sum(k * k * w for k, w in dist.normalized.items()) - mean * mean
        if var <= 0:
            return {"mean": mean, "var": var}, (ks == round(mean)).astype(float)
        model = np.exp(-((ks - mean) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)
        return {"mean": mean, "var": var}, model
    if family == "binomial":
        size = max(dist.mipl, 1)
        prob = min(max(mean / size, 0.0), 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = (
                special.log_factorial(np.full(len(ks), size))
                - special.log_factorial(ks)
                - special.log_factorial(size - ks)
                + ks * np.log(prob)
                + (size - ks) * np.log1p(-prob)
            )
        model = np.nan_to_num(np.exp(logs), nan=0.0)
        return {"n": float(size), "p": prob}, model
    raise ValueError(f"unknown path-length family {family!r}")


def reference_pathlength_gof(
    dist: PathLengthDistribution, family: str = "binomial-type",
    special: Special = PACKAGE_SPECIAL,
) -> ReferenceFit:
    """Path-length fit one numpy scalar at a time, with ``np.corrcoef``.

    Deliberately independent of the array kernels in ``cumuldyn.fitting``:
    the empirical and binomial-type probabilities looked up one k at a time,
    plot points built pair by pair, chi-square bins pooled element-wise.
    """
    total = sum(dist.counts.values())
    if not dist.counts or total <= 0:
        raise ValueError("path-length distribution has no paths")
    if sum(1 for w in dist.normalized.values() if w > 0.0) < 2:
        warnings.warn(
            "degenerate path-length distribution with a single length; "
            "correlation reported as 1"
        )
        params, _ = _reference_pathlength_model(dist, family, np.arange(1), special)
        return ReferenceFit(family, params, ((1.0, 1.0),), 1.0, (math.nan, 0, math.nan))
    ks = np.arange(dist.mipl + 1)
    empirical = np.array([dist.normalized.get(int(k), 0.0) for k in ks])
    params, model = _reference_pathlength_model(dist, family, ks, special)
    points = tuple((float(e), float(mo)) for e, mo in zip(empirical, model))
    correlation = _reference_plot_correlation(points, f"{family} path-length fit")
    try:
        sample = float(total)
    except OverflowError:
        sample = math.inf
    if math.isfinite(sample):
        chi = _reference_chi_square(sample * empirical, sample * model, special)
    else:
        chi = (math.inf, len(ks) - 1, 0.0)
    return ReferenceFit(family, params, points, correlation, chi)


def reference_simulate(params: ModelParams, n_nodes: int, seed: int) -> KnowledgeGraph:
    """The search-process graph grown by calls into numpy's ``Generator``.

    Deliberately independent of the word-stream replay in ``simulate``: one
    ``Generator.random()`` per invention, inverted to a geometric count
    capped at the number of earlier inventions, then
    ``Generator.integers(0, i)`` until that many distinct targets appeared.
    """
    rng = np.random.default_rng(seed)
    edges: list[tuple[int, int]] = []
    for i in range(n_nodes):
        p = rho(i, params)
        m = 0 if p >= 1.0 else int(math.log(1.0 - rng.random()) / math.log1p(-p))
        m = min(m, i)
        chosen: set[int] = set()
        while len(chosen) < m:
            chosen.add(int(rng.integers(0, i)))
        edges.extend((i, target) for target in sorted(chosen))
    width = len(str(n_nodes - 1))
    return KnowledgeGraph.from_edges([f"S{i:0{width}d}" for i in range(n_nodes)], edges)


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
