"""Corpus loading, technology selection and graph construction."""

from __future__ import annotations

import builtins
import csv
import tempfile
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cumuldyn import ingest
from cumuldyn.core import validate_graph
from cumuldyn.ingest import (
    CorpusError,
    TechnologyQuery,
    _read_columns,
    build_graph,
    load_corpus,
)
from cumuldyn.measures import measure_checkpoints

from conftest import (
    reference_build_graph,
    reference_load_corpus,
    reference_matches,
    reference_read_columns,
)


def write(path, text):
    path.write_text(textwrap.dedent(text).lstrip(), encoding="utf-8")
    return str(path)


@pytest.fixture
def small_corpus(tmp_path):
    nodes = write(
        tmp_path / "nodes.csv",
        """
        node_id,year,classes
        A,2000,X12 3/00
        B,2001,X12 3/02;Z09 5/00
        C,1999,Z09 5/00
        """,
    )
    edges = write(
        tmp_path / "edges.csv",
        """
        citing_id,cited_id,origin
        B,A,APP
        B,C,EXA
        """,
    )
    return load_corpus(nodes, edges)


class TestLoadCorpus:
    def test_small_fixture(self, small_corpus):
        assert len(small_corpus.nodes) == 3
        assert len(small_corpus.citations) == 2
        assert small_corpus.citations[0].origin == "APP"

    def test_empty_edge_file(self, tmp_path):
        nodes = write(tmp_path / "n.csv", "node_id,year,classes\nA,2000,X\n")
        edges = write(tmp_path / "e.csv", "citing_id,cited_id,origin\n")
        corpus = load_corpus(nodes, edges)
        assert len(corpus.citations) == 0

    def test_missing_column_reports_file(self, tmp_path):
        nodes = write(tmp_path / "n.csv", "node_id,classes\nA,X\n")
        edges = write(tmp_path / "e.csv", "citing_id,cited_id,origin\n")
        with pytest.raises(CorpusError, match="year"):
            load_corpus(nodes, edges)

    def test_malformed_year_reports_line(self, tmp_path):
        nodes = write(
            tmp_path / "n.csv",
            "node_id,year,classes\nA,2000,X\nB,twenty,X\n",
        )
        edges = write(tmp_path / "e.csv", "citing_id,cited_id,origin\n")
        with pytest.raises(CorpusError, match=r"n\.csv:3"):
            load_corpus(nodes, edges)

    def test_duplicate_node_id_rejected(self, tmp_path):
        nodes = write(
            tmp_path / "n.csv", "node_id,year,classes\nA,2000,X\nA,2001,Y\n"
        )
        edges = write(tmp_path / "e.csv", "citing_id,cited_id,origin\n")
        with pytest.raises(CorpusError, match="duplicate"):
            load_corpus(nodes, edges)

    def test_invalid_origin_rejected(self, tmp_path):
        nodes = write(tmp_path / "n.csv", "node_id,year,classes\nA,2000,X\nB,2001,X\n")
        edges = write(tmp_path / "e.csv", "citing_id,cited_id,origin\nB,A,SELF\n")
        with pytest.raises(CorpusError, match="origin"):
            load_corpus(nodes, edges)

    def test_self_citations_dropped_and_counted(self, tmp_path):
        nodes = write(tmp_path / "n.csv", "node_id,year,classes\nA,2000,X\n")
        edges = write(tmp_path / "e.csv", "citing_id,cited_id,origin\nA,A,\n")
        corpus = load_corpus(nodes, edges)
        assert corpus.citations == ()
        assert corpus.self_citations_dropped == 1

    @pytest.mark.parametrize(
        "node_bytes, edge_bytes, message",
        [
            (b"node_id,year,classes\nA,2000,X\nB,2001," + b"X" * 140_000 + b"\n",
             b"citing_id,cited_id\n", r"n\.csv:3: field larger than field limit"),
            (b"node_id,year,classes\nA,2000,X\n", b"citing_id,cited_id,origin\nA,B\xff,\n",
             r"e\.csv:2: not UTF-8"),
            (b"node_id,year,classes\n\nA,2000,X\xe9\n", b"citing_id,cited_id\n",
             r"n\.csv:3: not UTF-8"),
        ],
        ids=["overlong-field", "edges-not-utf8", "nodes-not-utf8"],
    )
    def test_unreadable_file_reports_line(self, tmp_path, node_bytes, edge_bytes, message):
        (tmp_path / "n.csv").write_bytes(node_bytes)
        (tmp_path / "e.csv").write_bytes(edge_bytes)
        with pytest.raises(CorpusError, match=message):
            load_corpus(str(tmp_path / "n.csv"), str(tmp_path / "e.csv"))

    @pytest.mark.parametrize(
        "bad, reason",
        [(b"\xff", "invalid start byte"), (b"\xc3", "unexpected end of data")],
        ids=["invalid-byte", "cut-sequence"],
    )
    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"], ids=["no-bom", "bom"])
    def test_first_undecodable_byte_is_reported_at_any_size(self, tmp_path, bad, reason, bom):
        # The header lacks classes, but the file's last byte is not UTF-8:
        # that byte is reported, at its line, whether or not the file is
        # longer than one 8 KB read chunk and whatever byte-order mark it has.
        edges = write(tmp_path / "e.csv", "citing_id,cited_id\n")
        nodes = tmp_path / "n.csv"
        for rows in (3, 2000):
            body = "".join(f"n{i:05d},2000\n" for i in range(rows)).encode()
            nodes.write_bytes(bom + b"node_id,year\n" + body + b"bad," + bad)
            assert (nodes.stat().st_size > 8192) == (rows == 2000)
            with pytest.raises(CorpusError) as raised:
                load_corpus(str(nodes), edges)
            assert str(raised.value) == f"{nodes}:{rows + 2}: not UTF-8 ({reason})"

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("A,2000,true,X\nA,x,maybe\n", ":3: duplicate node id 'A'"),
            ("A,2000,true,X\nB,x,maybe\n", ":3: invalid year 'x'"),
            ("A,2000,true,X\nB,2000,maybe\n", ":3: missing classes column value"),
            ("A,2000,true,X\nB,2000,maybe,X\nC,x,true,X\n", ":3: invalid boolean 'maybe'"),
        ],
        ids=["duplicate-id", "year", "classes", "granted"],
    )
    def test_first_failing_check_of_the_first_bad_row(self, tmp_path, rows, message):
        # The classes column comes last, so a short row misses it.
        nodes = write(tmp_path / "n.csv", "node_id,year,granted,classes\n" + rows)
        edges = write(tmp_path / "e.csv", "citing_id,cited_id,origin\n")
        with pytest.raises(CorpusError, match=f"n\\.csv{message}$"):
            load_corpus(nodes, edges)

    def test_byte_order_mark_is_skipped(self, tmp_path):
        nodes = write(tmp_path / "n.csv", "\ufeffnode_id,year,classes\nA,2000,X\n")
        edges = write(tmp_path / "e.csv", "\ufeffciting_id,cited_id,origin\nA,B,APP\n")
        corpus = load_corpus(nodes, edges)
        assert [n.node_id for n in corpus.nodes] == ["A"]
        assert corpus.citations[0].origin == "APP"

    def test_every_array_is_read_only(self, small_corpus):
        names = {
            "year_rank", "id_rank", "class_code", "label_code", "label_owner", "granted",
            "citing", "cited", "origin",
        }
        fields = small_corpus._asdict()
        assert {name for name, value in fields.items() if isinstance(value, np.ndarray)} == names
        for name in names:
            assert not fields[name].flags.writeable, name
            with pytest.raises(ValueError):
                fields[name][0] = 1

    def test_missing_year_allowed(self, tmp_path):
        nodes = write(tmp_path / "n.csv", "node_id,year,classes\nA,,X\n")
        edges = write(tmp_path / "e.csv", "citing_id,cited_id,origin\n")
        corpus = load_corpus(nodes, edges)
        assert corpus.nodes[0].year is None


class TestTechnologyQuery:
    def test_prefix_is_whitespace_insensitive(self, tmp_path):
        nodes = write(
            tmp_path / "n.csv",
            "node_id,year,classes\nA,2000,Y02E10/50\nB,2000,Y02E 10/541\nC,2000,Y02E 20/10\n",
        )
        corpus = load_corpus(nodes, write(tmp_path / "e.csv", "citing_id,cited_id,origin\n"))
        query = TechnologyQuery(name="t", class_prefixes=frozenset({"Y02E 10/5"}))
        assert corpus.class_mask(query).tolist() == [True, True, False]

    def test_needs_a_prefix(self):
        with pytest.raises(ValueError):
            TechnologyQuery(name="t", class_prefixes=frozenset())
        with pytest.raises(ValueError):
            TechnologyQuery(name="t", class_prefixes=frozenset({" "}))

    def test_value_equality_hash_and_immutability(self):
        query = TechnologyQuery("t", frozenset({"Y02E 10/5", "H01L"}), 2000)
        same = TechnologyQuery(name="t", class_prefixes={"H01L", "Y02E10/5"}, year_cutoff=2000)
        assert query == same
        assert query.class_prefixes == frozenset({"Y02E10/5", "H01L"})
        assert query != TechnologyQuery("t", frozenset({"H01L"}), 2000)
        assert hash(query) == hash(same)
        for name in ("name", "class_prefixes", "year_cutoff", "unknown"):
            with pytest.raises(AttributeError):
                setattr(query, name, None)


class TestBuildGraph:
    def test_classification_example(self, small_corpus):
        # B cites A (same technology) and C (outside): one internal edge,
        # one external link on B.
        query = TechnologyQuery(name="x", class_prefixes=frozenset({"X1"}))
        graph, diag = build_graph(small_corpus, query)
        assert [n.node_id for n in graph.nodes] == ["A", "B"]
        assert graph.internal_edges == ((1, 0),)
        assert graph.external_backlink_counts.tolist() == [0, 1]
        assert diag.matched_nodes == 2
        assert diag.internal_edges == 1
        assert diag.external_links == 1

    def test_duplicate_citation_collapses(self, tmp_path):
        nodes = write(
            tmp_path / "n.csv",
            "node_id,year,classes\nA,2000,X\nB,2001,X\n",
        )
        edges = write(
            tmp_path / "e.csv",
            "citing_id,cited_id,origin\nB,A,APP\nB,A,EXA\nB,A,\n",
        )
        corpus = load_corpus(nodes, edges)
        query = TechnologyQuery(name="x", class_prefixes=frozenset({"X"}))
        graph, diag = build_graph(corpus, query)
        assert graph.internal_edges == ((1, 0),)
        assert diag.duplicates_collapsed == 2

    def test_app_only_filter_never_increases_id(self, tmp_path):
        rng = np.random.default_rng(23)
        n = 40
        node_rows = ["node_id,year,classes"] + [
            f"P{i:02d},{2000 + i // 4},X" for i in range(n)
        ]
        edge_rows = ["citing_id,cited_id,origin"]
        for i in range(1, n):
            for j in range(i):
                if rng.random() < 0.15:
                    origin = "APP" if rng.random() < 0.5 else "EXA"
                    edge_rows.append(f"P{i:02d},P{j:02d},{origin}")
        nodes = write(tmp_path / "n.csv", "\n".join(node_rows) + "\n")
        edges = write(tmp_path / "e.csv", "\n".join(edge_rows) + "\n")
        corpus = load_corpus(nodes, edges)
        query = TechnologyQuery(name="x", class_prefixes=frozenset({"X"}))
        full, _ = build_graph(corpus, query)
        app_only, _ = build_graph(corpus, query, origin="app")
        assert validate_graph(full) == []
        assert validate_graph(app_only) == []
        assert set(app_only.internal_edges) <= set(full.internal_edges)
        assert measure_checkpoints(app_only, n)[0].id <= measure_checkpoints(full, n)[0].id

    def test_chronology_violation_dropped_and_counted(self, tmp_path):
        nodes = write(
            tmp_path / "n.csv",
            "node_id,year,classes\nA,2005,X\nB,2001,X\n",
        )
        edges = write(tmp_path / "e.csv", "citing_id,cited_id,origin\nB,A,\n")
        corpus = load_corpus(nodes, edges)
        query = TechnologyQuery(name="x", class_prefixes=frozenset({"X"}))
        graph, diag = build_graph(corpus, query)
        assert graph.internal_edges == ()
        assert diag.dropped_non_backward == 1

    def test_same_year_tie_resolved_against_citation_is_dropped(self, tmp_path):
        # A and B share a year; ordering breaks the tie by node_id, so the
        # citation A -> B would point forward and must be dropped.
        nodes = write(
            tmp_path / "n.csv",
            "node_id,year,classes\nA,2000,X\nB,2000,X\n",
        )
        edges = write(tmp_path / "e.csv", "citing_id,cited_id,origin\nA,B,\n")
        corpus = load_corpus(nodes, edges)
        query = TechnologyQuery(name="x", class_prefixes=frozenset({"X"}))
        graph, diag = build_graph(corpus, query)
        assert graph.internal_edges == ()
        assert diag.dropped_non_backward == 1
        assert validate_graph(graph) == []

    def test_granted_only_filter(self, tmp_path):
        nodes = write(
            tmp_path / "n.csv",
            "node_id,year,classes,granted\nA,2000,X,true\nB,2001,X,false\n",
        )
        edges = write(tmp_path / "e.csv", "citing_id,cited_id,origin\n")
        corpus = load_corpus(nodes, edges)
        query = TechnologyQuery(name="x", class_prefixes=frozenset({"X"}))
        graph, _ = build_graph(corpus, query, granted_only=True)
        assert [n.node_id for n in graph.nodes] == ["A"]
        graph_all, _ = build_graph(corpus, query)
        assert graph_all.n_nodes == 2

    def test_zero_match_query_rejected(self, small_corpus):
        query = TechnologyQuery(name="none", class_prefixes=frozenset({"Q99"}))
        with pytest.raises(ValueError, match="zero nodes"):
            build_graph(small_corpus, query)

    def test_year_cutoff_gives_prefix_of_full_graph(self, tmp_path):
        rng = np.random.default_rng(31)
        n = 50
        node_rows = ["node_id,year,classes"] + [
            f"P{i:02d},{2000 + i // 5},X" for i in range(n)
        ]
        edge_rows = ["citing_id,cited_id,origin"]
        for i in range(1, n):
            for j in range(i):
                if rng.random() < 0.1:
                    edge_rows.append(f"P{i:02d},P{j:02d},")
        nodes = write(tmp_path / "n.csv", "\n".join(node_rows) + "\n")
        edges = write(tmp_path / "e.csv", "\n".join(edge_rows) + "\n")
        corpus = load_corpus(nodes, edges)
        full, _ = build_graph(
            corpus, TechnologyQuery(name="x", class_prefixes=frozenset({"X"}))
        )
        cut, _ = build_graph(
            corpus,
            TechnologyQuery(name="x", class_prefixes=frozenset({"X"}), year_cutoff=2005),
        )
        m = cut.n_nodes
        assert m < n
        # Cutting by year removes a suffix of the ordering: node count, edge
        # count, id and ipl at matching prefixes never increase (they agree).
        assert [node.node_id for node in cut.nodes] == [
            node.node_id for node in full.nodes[:m]
        ]
        assert cut.internal_edges == tuple(
            e for e in full.internal_edges if e[0] < m
        )
        for probe in (m // 2, m):
            if probe >= 1:
                cut_cp = measure_checkpoints(cut, probe)[0]
                full_cp = measure_checkpoints(full, probe)[0]
                assert cut_cp.id == full_cp.id
                assert cut_cp.path_dist.ipl == full_cp.path_dist.ipl

    def test_deterministic(self, small_corpus):
        query = TechnologyQuery(name="x", class_prefixes=frozenset({"X1"}))
        a, _ = build_graph(small_corpus, query)
        b, _ = build_graph(small_corpus, query)
        assert a == b

    def test_undated_nodes_sort_last_and_cutoff_excludes_them(self, tmp_path):
        nodes = write(
            tmp_path / "n.csv",
            "node_id,year,classes\nLATE,,X\nA,2001,X\n",
        )
        edges = write(tmp_path / "e.csv", "citing_id,cited_id,origin\n")
        corpus = load_corpus(nodes, edges)
        query = TechnologyQuery(name="x", class_prefixes=frozenset({"X"}))
        graph, _ = build_graph(corpus, query)
        assert [n.node_id for n in graph.nodes] == ["A", "LATE"]
        cut, _ = build_graph(
            corpus,
            TechnologyQuery(name="x", class_prefixes=frozenset({"X"}), year_cutoff=2010),
        )
        assert [n.node_id for n in cut.nodes] == ["A"]

    def test_random_corpora_always_validate(self, tmp_path):
        rng = np.random.default_rng(77)
        for trial in range(5):
            n = int(rng.integers(5, 30))
            node_rows = ["node_id,year,classes"] + [
                f"N{i:02d},{2000 + int(rng.integers(0, 6))},X" for i in range(n)
            ]
            ids = [f"N{i:02d}" for i in range(n)]
            edge_rows = ["citing_id,cited_id,origin"]
            for _ in range(int(rng.integers(0, 60))):
                a, b = rng.integers(0, n, size=2)
                if a != b:
                    edge_rows.append(f"{ids[a]},{ids[b]},")
            nodes = write(tmp_path / f"n{trial}.csv", "\n".join(node_rows) + "\n")
            edges = write(tmp_path / f"e{trial}.csv", "\n".join(edge_rows) + "\n")
            corpus = load_corpus(nodes, edges)
            graph, _ = build_graph(
                corpus, TechnologyQuery(name="x", class_prefixes=frozenset({"X"}))
            )
            assert validate_graph(graph) == []


def class_match(corpus, *prefixes) -> set[str]:
    """The ids of the nodes whose class matches any of ``prefixes``."""
    mask = corpus.class_mask(TechnologyQuery(name="g", class_prefixes=frozenset(prefixes)))
    return {corpus.ids[i] for i in np.flatnonzero(mask)}


class TestClassGrouping:
    def test_union_counts_each_node_once(self, tmp_path):
        nodes = write(
            tmp_path / "n.csv",
            "node_id,year,classes\nA,2000,X01;X02\nB,2001,X01\n",
        )
        edges = write(tmp_path / "e.csv", "citing_id,cited_id,origin\n")
        corpus = load_corpus(nodes, edges)
        query = TechnologyQuery(name="g", class_prefixes=frozenset({"X01", "X02"}))
        assert corpus.class_mask(query).tolist() == [True, True]
        assert class_match(corpus, "X01", "X02") == {"A", "B"}

    def test_node_in_two_groups_appears_in_both(self, small_corpus):
        assert class_match(small_corpus, "X12") == {"A", "B"}
        assert class_match(small_corpus, "Z09") == {"B", "C"}

    def test_empty_corpus(self, tmp_path):
        nodes = write(tmp_path / "n.csv", "node_id,year,classes\n")
        edges = write(tmp_path / "e.csv", "citing_id,cited_id,origin\n")
        corpus = load_corpus(nodes, edges)
        assert class_match(corpus, "X") == set()

    def test_empty_group_rejected(self, small_corpus):
        with pytest.raises(ValueError, match="at least one non-empty class prefix"):
            TechnologyQuery(name="g", class_prefixes=frozenset())


NODE_IDS = ["P1", "P2", "P3", " P4", "P5 ", "Q6", "Q7"]
UNKNOWN_IDS = ["U1"]
FIELDS = {
    "year": ["2000", "2001", " 2001", "02000", "1999", ""],
    "classes": ["X1 2/0;Y2", "X1", " Y2 5 ; X9", "Y2", "", ";", "X1,7;Y2"],
    "granted": ["", "true", "False", "0", "yes", "NO"],
    "origin": ["", "APP", "EXA", " app", "exa "],
}
# One bad value per checked field; "node_id" also repeats an id.
DEFECTS = {
    "node_id": ["", " ", "P1"],
    "year": [" 20x0"],
    "granted": [" Maybe"],
    "citing_id": [""],
    "cited_id": [" "],
    "origin": [" self"],
}


@st.composite
def csv_text(draw, header: list[str], rows: list[dict[str, str]], defects: list[str]) -> str:
    """A CSV file of ``rows`` in a shuffled column order, with the quirks
    real exports have (blank lines, short rows, extra fields, ``\\r\\n`` line
    ends, quoted fields) and one bad value from DEFECTS in a random row for
    each of ``defects`` it has.  A field holding a comma is always quoted."""
    header = draw(st.permutations(header))
    for column in defects:
        if rows and column in header:
            row = rows[draw(st.integers(0, len(rows) - 1))]
            row[column] = draw(st.sampled_from(DEFECTS[column]))
    short = set()
    if rows and draw(st.integers(0, 3)) == 3:
        short.add(draw(st.integers(0, len(rows) - 1)))
    quote_all = draw(st.integers(0, 3)) == 3

    def line(fields: list[str]) -> str:
        return ",".join(f'"{f}"' if quote_all or "," in f else f for f in fields)

    lines = [line(header)]
    for i, row in enumerate(rows):
        fields = [row[c] for c in header]
        if i in short:
            fields = fields[: draw(st.integers(1, len(fields) - 1))]
        fields += draw(st.sampled_from([[]] * 4 + [["extra"]]))
        lines.append(line(fields))
        if draw(st.integers(0, 5)) == 5:
            lines.append("")
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    return end.join(lines) + end


@st.composite
def corpus_files(draw) -> tuple[str, str]:
    """Small node and citation files: duplicate, forward, self and unknown
    citations, and up to two defects."""
    defects = []
    if draw(st.booleans()):
        defects = draw(st.lists(st.sampled_from(sorted(DEFECTS)), max_size=2))
    ids = draw(st.lists(st.sampled_from(NODE_IDS), min_size=2, max_size=7, unique=True))
    node_header = ["node_id", "year", "classes"]
    if "granted" in defects or draw(st.booleans()):
        node_header.append("granted")
    node_rows = [
        {"node_id": node_id, **{c: draw(st.sampled_from(FIELDS[c])) for c in node_header[1:]}}
        for node_id in ids
    ]
    edge_header = ["citing_id", "cited_id"]
    if "origin" in defects or draw(st.booleans()):
        edge_header.append("origin")
    targets = st.sampled_from(ids + UNKNOWN_IDS)
    edge_rows = [
        {
            "citing_id": draw(targets),
            "cited_id": draw(targets),
            "origin": draw(st.sampled_from(FIELDS["origin"])),
        }
        for _ in range(draw(st.integers(0, 20)))
    ]
    return (
        draw(csv_text(node_header, node_rows, defects)),
        draw(csv_text(edge_header, edge_rows, defects)),
    )


# Derandomized and bounded, so every run checks the same few hundred corpora.
PROPERTY = settings(derandomize=True, database=None, max_examples=300, deadline=None)


@pytest.fixture
def paths_taken(monkeypatch) -> Counter:
    """Counts the texts ``_read_columns`` splits at commas and those it
    leaves to ``csv.reader``."""
    taken: Counter = Counter()
    plain_fields = ingest._plain_fields

    def spy(text):
        fields = plain_fields(text)
        taken["split" if fields is not None else "csv.reader"] += 1
        return fields

    monkeypatch.setattr(ingest, "_plain_fields", spy)
    return taken


class TestIngestProperties:
    def test_columnar_ingest_equals_row_by_row_reference(self, paths_taken):
        @PROPERTY
        @given(files=corpus_files())
        def check(files):
            with tempfile.TemporaryDirectory() as tmp:
                nodes, edges = str(Path(tmp) / "nodes.csv"), str(Path(tmp) / "edges.csv")
                Path(nodes).write_text(files[0], encoding="utf-8", newline="")
                Path(edges).write_text(files[1], encoding="utf-8", newline="")
                try:
                    records = reference_load_corpus(nodes, edges)
                except CorpusError as expected:
                    with pytest.raises(CorpusError) as got:
                        load_corpus(nodes, edges)
                    assert str(got.value) == str(expected)
                    return
                corpus = load_corpus(nodes, edges)
            self.assert_loads_alike(records, corpus)

        check()
        # Blank lines, short rows and extra fields send most files to csv.reader
        # (406 of 505 reads at this writing); the split still reads 99.
        assert paths_taken["split"] >= 50 and paths_taken["csv.reader"] >= 200, paths_taken

    def assert_loads_alike(self, records, corpus):
        assert (corpus.nodes, corpus.citations, corpus.self_citations_dropped) == records
        for prefixes in ({"X1"}, {"Y2", "X9"}):
            matched = class_match(corpus, *prefixes)
            for year_cutoff in (None, 2000):
                query = TechnologyQuery("t", frozenset(prefixes), year_cutoff)
                assert matched == {
                    n.node_id for n in records[0] if reference_matches(query, n.classes)
                }
                for origin in ("all", "app"):
                    for granted_only in (False, True):
                        self.assert_carves_alike(records, corpus, query, origin, granted_only)

    @staticmethod
    def assert_carves_alike(records, corpus, query, origin, granted_only):
        try:
            expected = reference_build_graph(records[0], records[1], query, origin, granted_only)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                build_graph(corpus, query, origin=origin, granted_only=granted_only)
            assert str(got.value) == str(exc)
            return
        graph, diagnostics = build_graph(corpus, query, origin=origin, granted_only=granted_only)
        assert (graph, diagnostics.as_dict()) == expected
        assert validate_graph(graph) == []


# Cells of adversarial CSV text.  Plain cells split at commas alone; each
# quirk is a rule of csv.reader's that a plain text must not need.
PLAIN_CELLS = ["", "a", "b", "c", "x", "yy", "1", " "]
QUIRK_CELLS = {
    "quote": ['"', '"q,r"', '"s""t"', 'u"v', '"w\nx"', '"y\r\nz"'],
    "lone-cr": ["\r", "a\rb"],
    "nul": ["\0", "a\0"],
    "long": ["zzzz", "zzzzzzzzz"],
    "bom": ["\ufeff", "\ufeffa"],
}
QUIRKS = [*QUIRK_CELLS, "crlf", "lone-cr-end", "blank", "ragged", "not-utf8"]


@st.composite
def adversarial_csv(draw) -> tuple[bytes, tuple[str, ...], str | None, int | None]:
    """A file's bytes, the required and optional columns to read from it, and
    a field size limit to read it under (None keeps csv's default).

    About half the files carry no quirk; the others carry up to three of
    QUIRKS: quoted fields, lone ``\\r``, NUL, long fields, byte-order marks,
    ``\\r\\n`` line ends, blank lines, ragged rows and bytes that are not UTF-8.
    """
    quirks = set()
    if draw(st.booleans()):
        quirks = set(draw(st.lists(st.sampled_from(QUIRKS), min_size=1, max_size=3)))
    header = draw(st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=1, max_size=4))
    cells = st.sampled_from(
        PLAIN_CELLS + [cell for quirk in quirks & set(QUIRK_CELLS) for cell in QUIRK_CELLS[quirk]]
    )
    lines = [header]
    for _ in range(draw(st.integers(0, 6))):
        width = draw(st.integers(0, len(header) + 1)) if "ragged" in quirks else len(header)
        lines.append(draw(st.lists(cells, min_size=width, max_size=width)))
    if "blank" in quirks:
        for _ in range(draw(st.integers(1, 3))):
            lines.insert(draw(st.integers(0, len(lines))), [])
    ends = ["\n"] + ["\r\n"] * ("crlf" in quirks) + ["\r"] * ("lone-cr-end" in quirks)
    text = "".join(",".join(line) + draw(st.sampled_from(ends)) for line in lines)
    if not draw(st.integers(0, 4)):
        text = text.rstrip("\r\n")
    if "bom" in quirks and draw(st.booleans()):
        text = "\ufeff" + text
    data = text.encode("utf-8")
    if "not-utf8" in quirks:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xe9", b"\xc3"])) + data[at:]
    # Mostly columns the header has, so that the rows get read.
    names = header + ["e"] * (not draw(st.integers(0, 5)))
    required = tuple(draw(st.lists(st.sampled_from(names), min_size=1, max_size=2)))
    optional = draw(st.sampled_from([None, "c", "d", "e"]))
    limit = draw(st.sampled_from([None] * 5 + [0, 1, 2, 3, 5]))
    return data, required, optional, limit


def _outcome(read, *args):
    """What ``read`` returns, or the message of the CorpusError it raises."""
    try:
        return read(*args)
    except CorpusError as exc:
        return f"CorpusError: {exc}"


class TestReadColumns:
    def test_equals_csv_reader_on_adversarial_text(self, tmp_path, paths_taken):
        path = str(tmp_path / "t.csv")
        not_utf8 = []

        @settings(derandomize=True, database=None, max_examples=600, deadline=None)
        @given(case=adversarial_csv())
        def check(case):
            data, required, optional, limit = case
            Path(path).write_bytes(data)
            default = csv.field_size_limit()
            try:
                if limit is not None:
                    csv.field_size_limit(limit)
                expected = _outcome(reference_read_columns, path, required, optional)
                got = _outcome(_read_columns, path, required, optional)
            finally:
                csv.field_size_limit(default)
            assert got == expected
            try:
                data.decode("utf-8")
            except UnicodeDecodeError:
                not_utf8.append(data)

        check()
        # Every decodable file is split or left to csv.reader, and the rest
        # fail to decode; no way is left untested.  At this writing the 600
        # files split 340 times, go to csv.reader 222 times and are not
        # UTF-8 38 times.
        assert paths_taken["split"] >= 250, paths_taken
        assert paths_taken["csv.reader"] >= 150, paths_taken
        assert len(not_utf8) >= 20, len(not_utf8)

    @pytest.mark.parametrize(
        "data",
        [b"a,b\n1,2\n3,4\n", b'a,b\n"1,5",2\n3,"4"\n', b"a,b\n1,2\n3,\xff\n"],
        ids=["plain", "quoted", "not-utf8"],
    )
    def test_each_file_is_opened_once(self, tmp_path, monkeypatch, data):
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return builtins.open(*args, **kwargs)

        expected = _outcome(reference_read_columns, str(path), ("a", "b"), None)
        monkeypatch.setattr(ingest, "open", counting_open, raising=False)
        assert _outcome(_read_columns, str(path), ("a", "b"), None) == expected
        assert opened == [str(path)]
