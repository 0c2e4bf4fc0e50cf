"""Loading citation corpora and carving technology graphs out of them.

A corpus is a pair of CSV files: nodes (``node_id,year,classes`` with an
optional ``granted`` boolean column, classes ``;``-separated) and citations
(``citing_id,cited_id,origin`` with origin APP, EXA or empty for unknown).
Files are UTF-8; a leading byte-order mark is skipped.  Node ids are opaque
strings, assumed pre-aggregated to one node per invention (e.g. one patent
family).

A technology is selected by class-prefix match (whitespace-insensitive, so
the query "Y02E10/5" matches the label "Y02E 10/50").  Selected nodes are
ordered by (year, node_id) — undated nodes sort last — and citations among
them become internal edges; citations leaving the selection only bump the
citing node's external count.

A :class:`Corpus` is held by column.  Each id is interned once: the node
rows get codes 0…n−1 in file order and ids that only occur in citations get
the codes after that, so the citations are three integer arrays (citing,
cited, origin).  Years, class lists, ``granted`` flags and origins are parsed
once per distinct raw value, since patent data repeats them heavily.
:func:`build_graph` is array code over these columns: a class mask matched
once per distinct class list, one ``np.lexsort`` for the chronological
order, and a sort of (citing, cited) pair keys to collapse duplicate
citations, which leaves the internal edges in the graph's CSR order.
"""

from __future__ import annotations

import bisect
import csv
import io
from contextlib import contextmanager
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .core import KnowledgeGraph

__all__ = [
    "CorpusError",
    "TechnologyQuery",
    "CitationRecord",
    "CorpusNode",
    "Corpus",
    "IngestDiagnostics",
    "open_csv",
    "load_corpus",
    "build_graph",
]

ORIGINS = ("APP", "EXA", "UNKNOWN")
_ORIGIN_CODES = {"APP": 0, "EXA": 1, "": 2}


class CorpusError(ValueError):
    """Malformed corpus input, reported with file and line number."""


def _strip_spaces(code: str) -> str:
    return "".join(code.split())


class TechnologyQuery(
    NamedTuple(
        "TechnologyQuery",
        [("name", str), ("class_prefixes", frozenset[str]), ("year_cutoff", int | None)],
    )
):
    """Selects one technology: nodes whose class matches any prefix, whitespace removed."""

    __slots__ = ()

    def __new__(
        cls, name: str, class_prefixes: Iterable[str], year_cutoff: int | None = None
    ) -> TechnologyQuery:
        cleaned = frozenset(_strip_spaces(p) for p in class_prefixes)
        if not cleaned or any(not p for p in cleaned):
            raise ValueError("query needs at least one non-empty class prefix")
        return super().__new__(cls, name, cleaned, year_cutoff)


class CitationRecord(NamedTuple):
    """One directed citation between two distinct inventions."""

    citing_id: str
    cited_id: str
    origin: str = "UNKNOWN"


class CorpusNode(NamedTuple):
    """One invention as loaded from the nodes file."""

    node_id: str
    year: int | None
    classes: tuple[str, ...]
    granted: bool = True


class Corpus(NamedTuple):
    """A parsed corpus, held by column in read-only arrays, plus load-time diagnostics.

    ``ids[code]`` is the id of each code: the ``n_nodes`` node rows in file
    order, then the ids that occur only in citations.  Per node row,
    ``year_rank`` indexes ``years`` (the distinct years in ascending order,
    then ``None`` for undated nodes), ``id_rank`` is its place in the string
    order of the node ids, ``class_code`` indexes ``class_lists`` and
    ``granted`` is the flag.  Label ``j`` of the class lists, list by list,
    is ``labels[label_code[j]]`` (whitespace removed) of list ``label_owner[j]``.
    The citations, self-citations dropped, are the code arrays ``citing``
    and ``cited`` and ``origin``, an index into :data:`ORIGINS`.  ``nodes``
    and ``citations`` are record views, which no command reads; they remain
    for the benchmark's layer counters.
    """

    ids: tuple[str, ...]
    n_nodes: int
    years: tuple[int | None, ...]
    year_rank: np.ndarray
    id_rank: np.ndarray
    class_lists: tuple[tuple[str, ...], ...]
    class_code: np.ndarray
    labels: tuple[str, ...]
    label_code: np.ndarray
    label_owner: np.ndarray
    granted: np.ndarray
    citing: np.ndarray
    cited: np.ndarray
    origin: np.ndarray
    self_citations_dropped: int

    @property
    def nodes(self) -> tuple[CorpusNode, ...]:
        """The node rows as records."""
        return tuple(
            CorpusNode(node_id, self.years[rank], self.class_lists[code], granted)
            for node_id, rank, code, granted in zip(
                self.ids,
                self.year_rank.tolist(),
                self.class_code.tolist(),
                self.granted.tolist(),
            )
        )

    @property
    def citations(self) -> tuple[CitationRecord, ...]:
        """The kept citation rows as records."""
        ids = self.ids
        return tuple(
            CitationRecord(ids[citing], ids[cited], ORIGINS[origin])
            for citing, cited, origin in zip(
                self.citing.tolist(), self.cited.tolist(), self.origin.tolist()
            )
        )

    def class_mask(self, query: TechnologyQuery) -> np.ndarray:
        """Which nodes ``query`` selects by class, matched once per distinct label."""
        prefixes = tuple(query.class_prefixes)
        hit = np.array([text.startswith(prefixes) for text in self.labels], dtype=bool)
        owners = self.label_owner[hit[self.label_code]]
        matched = np.bincount(owners, minlength=len(self.class_lists)) > 0
        return matched[self.class_code]


class IngestDiagnostics(NamedTuple):
    """What happened while carving a technology graph from a corpus."""

    matched_nodes: int
    internal_edges: int
    external_links: int
    duplicates_collapsed: int
    dropped_non_backward: int
    ignored_citations: int

    def as_dict(self) -> dict[str, int]:
        return self._asdict()


def _undecodable_line(path: str) -> int:
    """Line number of the first byte of ``path`` that is not UTF-8."""
    data = Path(path).read_bytes()
    end = len(data)
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        end = exc.start
    # Counted as csv counts lines: a line ends at \n, \r or \r\n.
    return sum(1 for _ in io.StringIO(data[:end].decode("utf-8") + "_", newline=""))


@contextmanager
def open_csv(path: str) -> Iterator[Iterator[list[str]]]:
    """A ``csv.reader`` over a UTF-8 file, skipping a leading byte-order mark.

    Bytes that are not UTF-8 or a field longer than csv's field size limit
    raise :class:`CorpusError` naming ``file:line``.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            yield reader
        except csv.Error as exc:
            raise CorpusError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise CorpusError(
                f"{path}:{_undecodable_line(path)}: not UTF-8 ({exc.reason})"
            ) from None


def _read_columns(
    path: str, required: tuple[str, ...], optional: str | None, what: str = "required column(s)"
) -> list[list[str | None]]:
    """The ``required`` columns and the ``optional`` one of a CSV file.

    Blank lines are skipped and extra fields ignored.  A field missing from a
    short row reads as None, and so does every field of an absent optional
    column.  A header naming a column twice takes the later one.  A missing
    required column raises :class:`CorpusError` naming the file and ``what``.
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


def _intern(
    values: list, parse: Callable
) -> tuple[np.ndarray, list, tuple[int, str] | None]:
    """Number the distinct values by first appearance and parse each once.

    Returns each row's code, the parsed value per code and, if ``parse``
    rejected a value with ValueError, the row where the first rejected value
    first appears and the message.  Codes follow first appearance, so that
    row is the earliest row holding any rejected value.
    """
    table: dict = {}
    codes = np.array([table.setdefault(v, len(table)) for v in values], dtype=np.int64)
    parsed = []
    for code, value in enumerate(table):
        try:
            parsed.append(parse(value))
        except ValueError as exc:
            return codes, parsed, (int(np.argmax(codes == code)), str(exc))
    return codes, parsed, None


def _raise_earliest(path: str, errors: list[tuple[int, str] | None]) -> None:
    """Raise the error of the earliest data row (0-based, blank lines not
    counted), the first one listed on a tie, naming the row's line."""
    found = [(e[0], order, e[1]) for order, e in enumerate(errors) if e is not None]
    if found:
        row, _, message = min(found)
        with open_csv(path) as reader:
            next(reader)
            lines = (reader.line_num for fields in reader if fields)
            raise CorpusError(f"{path}:{next(islice(lines, row, None))}: {message}")


def _parse_year(raw: str | None) -> int | None:
    value = (raw or "").strip()
    if not value:
        return None
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"invalid year {value!r}") from None


def _parse_classes(raw: str | None) -> tuple[str, ...]:
    if raw is None:
        raise ValueError("missing classes column value")
    return tuple(c.strip() for c in raw.split(";") if c.strip())


def _parse_bool(raw: str | None) -> bool:
    raw = raw or ""
    value = raw.strip().lower()
    if value in ("", "true", "1", "yes"):
        return True
    if value in ("false", "0", "no"):
        return False
    raise ValueError(f"invalid boolean {raw!r}")


def _parse_origin(raw: str | None) -> int:
    value = (raw or "").strip().upper()
    if value not in _ORIGIN_CODES:
        raise ValueError(f"invalid origin {value!r}")
    return _ORIGIN_CODES[value]


def load_corpus(node_file: str, edge_file: str) -> Corpus:
    """Parse node and citation CSVs, rejecting malformed rows by line number.

    Duplicate node ids and rows with missing or unparsable fields raise
    :class:`CorpusError` naming the earliest bad row.  Self-citations are
    dropped (with a count) because a node cannot build on itself.
    """
    raw_ids, raw_years, raw_classes, raw_granted = _read_columns(
        node_file, ("node_id", "year", "classes"), "granted"
    )
    node_ids = [(v or "").strip() for v in raw_ids]
    n_nodes = len(node_ids)
    code = {node_id: i for i, node_id in enumerate(node_ids)}
    year_code, year_values, year_error = _intern(raw_years, _parse_year)
    class_code, class_lists, class_error = _intern(raw_classes, _parse_classes)
    granted_code, granted_values, granted_error = _intern(raw_granted, _parse_bool)
    empty = (node_ids.index(""), "empty node_id") if "" in code else None
    duplicate = None
    if len(code) < n_nodes:
        first: dict[str, int] = {}
        row = next(i for i, v in enumerate(node_ids) if first.setdefault(v, i) != i)
        duplicate = (row, f"duplicate node id {node_ids[row]!r}")
    _raise_earliest(node_file, [empty, duplicate, year_error, class_error, granted_error])
    years = (*sorted({y for y in year_values if y is not None}), None)
    rank_of = {year: rank for rank, year in enumerate(years)}
    id_rank = np.empty(n_nodes, dtype=np.int64)
    id_rank[sorted(range(n_nodes), key=node_ids.__getitem__)] = np.arange(n_nodes)
    labels: dict[str, int] = {}
    pairs = [
        (labels.setdefault(_strip_spaces(label), len(labels)), owner)
        for owner, classes in enumerate(class_lists)
        for label in classes
    ]
    label_code, label_owner = np.array(pairs, dtype=np.int64).reshape(-1, 2).T

    raw_citing, raw_cited, raw_origins = _read_columns(
        edge_file, ("citing_id", "cited_id"), "origin"
    )
    citing_ids = [(v or "").strip() for v in raw_citing]
    cited_ids = [(v or "").strip() for v in raw_cited]
    origin_code, origin_values, origin_error = _intern(raw_origins, _parse_origin)
    empty = None
    if "" in citing_ids or "" in cited_ids:
        row = next(i for i, pair in enumerate(zip(citing_ids, cited_ids)) if "" in pair)
        empty = (row, "citation row needs citing_id and cited_id")
    _raise_earliest(edge_file, [empty, origin_error])
    citing = np.array([code.setdefault(i, len(code)) for i in citing_ids], dtype=np.int64)
    cited = np.array([code.setdefault(i, len(code)) for i in cited_ids], dtype=np.int64)
    keep = citing != cited
    corpus = Corpus(
        ids=tuple(code),
        n_nodes=n_nodes,
        years=years,
        year_rank=np.array([rank_of[y] for y in year_values], dtype=np.int64)[year_code],
        id_rank=id_rank,
        class_lists=tuple(class_lists),
        class_code=class_code,
        labels=tuple(labels),
        label_code=label_code,
        label_owner=label_owner,
        granted=np.array(granted_values, dtype=bool)[granted_code],
        citing=citing[keep],
        cited=cited[keep],
        origin=np.array(origin_values, dtype=np.int8)[origin_code][keep],
        self_citations_dropped=int(len(keep) - keep.sum()),
    )
    for column in corpus:
        if isinstance(column, np.ndarray):
            column.flags.writeable = False
    return corpus


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of non-negative ``keys``, ascending.

    ``np.unique`` would do, but its first call imports ``numpy.ma``, which
    costs a one-shot command about 15 ms and 1 MB.
    """
    keys = np.sort(keys)
    return keys[np.diff(keys, prepend=-1) != 0]


def build_graph(
    corpus: Corpus,
    query: TechnologyQuery,
    *,
    origin: str = "all",
    granted_only: bool = False,
) -> tuple[KnowledgeGraph, IngestDiagnostics]:
    """Carve the technology selected by ``query`` out of a corpus.

    Citations between two selected nodes become internal edges, deduplicated
    per ordered pair; citations from a selected node to anything outside the
    selection increment its external count (also deduplicated per pair).
    Citations whose cited node does not precede the citing node in the
    resolved ordering (a later year, or a same-year tie resolved against the
    citation) are dropped and counted.  ``origin='app'`` keeps only
    applicant-added citations; ``granted_only`` skips nodes flagged as not
    granted.
    """
    if origin not in ("all", "app"):
        raise ValueError(f"origin filter must be 'all' or 'app', got {origin!r}")
    member = corpus.class_mask(query)
    if granted_only:
        member &= corpus.granted
    if query.year_cutoff is not None:
        dated = len(corpus.years) - 1
        member &= corpus.year_rank < bisect.bisect_right(corpus.years, query.year_cutoff, 0, dated)
    selected = np.flatnonzero(member)
    if not len(selected):
        raise ValueError(f"query {query.name!r} matches zero nodes")
    year_rank = corpus.year_rank[selected]
    order = np.lexsort((corpus.id_rank[selected], year_rank))
    selected, year_rank = selected[order], year_rank[order]
    n, n_codes = len(selected), len(corpus.ids)
    ordinal = np.full(n_codes, -1, dtype=np.int64)
    ordinal[selected] = np.arange(n)

    citing, cited = corpus.citing, corpus.cited
    if origin == "app":
        applicant = corpus.origin == _ORIGIN_CODES["APP"]
        citing, cited = citing[applicant], cited[applicant]
    source = ordinal[citing]
    inside = source >= 0
    source, cited = source[inside], cited[inside]
    target = ordinal[cited]
    leaving = target < 0
    external = _distinct(source[leaving] * n_codes + cited[leaving])
    source, target = source[~leaving], target[~leaving]
    backward = target < source
    internal = _distinct(source[backward] * n + target[backward])
    n_backward = int(backward.sum())

    graph = KnowledgeGraph(
        node_ids=tuple(map(corpus.ids.__getitem__, selected.tolist())),
        years=tuple(map(corpus.years.__getitem__, year_rank.tolist())),
        indptr=np.searchsorted(internal // n, np.arange(n + 1)),
        indices=internal % n,
        external_backlink_counts=np.bincount(external // n_codes, minlength=n),
    )
    diagnostics = IngestDiagnostics(
        matched_nodes=n,
        internal_edges=len(internal),
        external_links=len(external),
        duplicates_collapsed=int(leaving.sum()) - len(external) + n_backward - len(internal),
        dropped_non_backward=len(backward) - n_backward,
        ignored_citations=len(inside) - int(inside.sum()),
    )
    return graph, diagnostics
