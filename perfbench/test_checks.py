"""Self-tests of the benchmark: correct outputs pass, deliberately wrong ones fail.

Run from the repository root with
``PYTHONPATH=src python3 -m pytest -q perfbench/test_checks.py``.
Inputs are small versions of the benchmark's corpora.
"""

from __future__ import annotations

import csv
import json
import shutil
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import trace_layers  # noqa: E402
import workloads  # noqa: E402
from cumuldyn.cli import main  # noqa: E402
from cumuldyn.ingest import TechnologyQuery, build_graph, load_corpus  # noqa: E402

TECHS = tuple(gen.Tech(f"T{k}", f"Y02E{10 + k}/5", 300 + 100 * k, 2e-3) for k in range(4))
DEEP = gen.Tech("deep", "Y02E10/5", 400, 2e-2)


def cli(*argv: str) -> None:
    assert main([str(a) for a in argv]) == 0


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One correct output of every command the benchmark checks."""
    root = tmp_path_factory.mktemp("bench")
    ingest = root / "ingest"
    truth = gen.ingest_corpus(ingest, 3, TECHS, background=2000, unknown=500)
    (ingest / "techs.csv").write_text(
        "group_name,prefix\n" + "".join(f"{t.name},{t.prefix}\n" for t in TECHS)
    )
    corpus = ("--nodes", ingest / "nodes.csv", "--edges", ingest / "edges.csv")
    cli("measure", *corpus, "--prefix", "Y02E13/5", "--stride", "50", "--out", root / "measure")
    cli("sweep", *corpus, "--tech-table", ingest / "techs.csv", "--stride", "50", "--out", root / "sweep")

    deep = root / "deep"
    deep_truth = gen.deep_corpus(deep, 3, DEEP)
    corpus = ("--nodes", deep / "nodes.csv", "--edges", deep / "edges.csv", "--prefix", DEEP.prefix)
    cli("measure", *corpus, "--stride", "50", "--out", root / "exact")
    cli("measure", *corpus, "--stride", "50", "--mode", "float", "--out", root / "float")

    cli("simulate", "--q", "0.01", "--m1", "3", "--n", "300", "--seed", "3", "--out", root / "simulate")
    sim = ("--nodes", root / "simulate/nodes.csv", "--edges", root / "simulate/edges.csv")
    cli("measure", *sim, "--prefix", "SIM", "--stride", "10", "--out", root / "sim_measure")
    cli("fit", "--series", root / "sim_measure/series.csv", "--out", root / "fit")
    cli(
        "gof", "--backlink-dist", root / "sim_measure/backlink_dist.csv",
        "--pathlen-dist", root / "sim_measure/pathlen_dist.csv", "--fits", root / "fit/fits.csv",
        "--families", workloads.FAMILIES, "--out", root / "gof",
    )
    return {"root": root, "truth": truth, "deep": deep_truth}


def edit_csv(path: Path, row: int, column: str, value: str | None) -> None:
    """Set one cell, or drop the row when value is None."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    header = list(rows[0])
    if value is None:
        del rows[row]
    else:
        rows[row][column] = value
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, header, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


@pytest.fixture
def copy(outputs, tmp_path):
    """A writable copy of one output directory."""

    def make(name: str) -> Path:
        return Path(shutil.copytree(outputs["root"] / name, tmp_path / name))

    return make


def test_carve_matches_build_graph(outputs):
    ingest = outputs["root"] / "ingest"
    corpus = load_corpus(str(ingest / "nodes.csv"), str(ingest / "edges.csv"))
    assert corpus.self_citations_dropped == outputs["truth"]["self_citations"] > 0
    for tech in TECHS:
        planted = outputs["truth"]["techs"][tech.name]
        graph, diagnostics = build_graph(corpus, TechnologyQuery(tech.name, frozenset([tech.prefix])))
        assert diagnostics.as_dict() == planted["diagnostics"]
        assert [n.node_id for n in graph.nodes] == planted["node_ids"]
        assert list(graph.backlink_counts) == planted["links"]
    diagnostics = outputs["truth"]["techs"]["T3"]["diagnostics"]
    assert min(diagnostics.values()) > 0, "every kind of citation is planted"


def test_generation_is_seeded(tmp_path):
    a = gen.deep_corpus(tmp_path / "a", 5, DEEP)
    b = gen.deep_corpus(tmp_path / "b", 5, DEEP)
    assert a == b
    assert (tmp_path / "a/edges.csv").read_bytes() == (tmp_path / "b/edges.csv").read_bytes()
    assert gen.deep_corpus(tmp_path / "c", 6, DEEP) != a


def test_chain_corpus_has_the_same_edges_at_every_seed(tmp_path):
    tech = gen.Tech("chain", "Y02E10/5", 60, 0.2, chain=True)
    truths = [gen.deep_corpus(tmp_path / str(seed), seed, tech)["techs"]["chain"] for seed in (1, 2)]
    assert truths[0]["links"] == truths[1]["links"]  # same link count per node
    assert truths[0]["node_ids"] != truths[1]["node_ids"]
    assert truths[0]["links"][1:] == [min(round(0.2 * i + 2) + 1, i) for i in range(1, 60)]


def test_correct_outputs_pass(outputs):
    root, truth = outputs["root"], outputs["truth"]
    t3 = truth["techs"]["T3"]
    assert checks.check_measure(root / "measure", t3, truth["self_citations"]) == []
    assert checks.check_sweep(root / "sweep", truth, root / "measure", "T3") == []
    deep = outputs["deep"]["techs"]["deep"]
    assert checks.check_measure(root / "exact", deep, 0) == []
    assert checks.check_measure(root / "float", deep, 0) == []
    assert checks.check_float_matches_exact(root / "exact", root / "float") == []
    assert checks.check_simulate(root / "simulate", 300) == []
    sim, problems = checks.simulated_truth(root / "simulate")
    assert problems == []
    assert checks.check_measure(root / "sim_measure", sim, 0) == []
    series = root / "sim_measure/series.csv"
    assert checks.check_fit(root / "fit", series) == []
    assert checks.check_gof(root / "gof", series, workloads.FAMILIES.split(",")) == []


@pytest.mark.parametrize(
    "table, row, column, value",
    [
        ("backlinks.csv", 40, "m", "99"),
        ("series.csv", 2, "id", "1.25"),
        ("series.csv", -1, None, None),
        ("pathlen_dist.csv", 3, "normalized", "0.5"),
    ],
)
def test_measure_check_rejects(outputs, copy, table, row, column, value):
    out = copy("measure")
    edit_csv(out / table, row, column, value)
    truth = outputs["truth"]
    assert checks.check_measure(out, truth["techs"]["T3"], truth["self_citations"])


def test_measure_check_rejects_diagnostics(outputs, copy):
    out = copy("measure")
    meta = json.loads((out / "meta.json").read_text())
    meta["diagnostics"]["duplicates_collapsed"] += 1
    (out / "meta.json").write_text(json.dumps(meta))
    truth = outputs["truth"]
    assert checks.check_measure(out, truth["techs"]["T3"], truth["self_citations"])


@pytest.mark.parametrize("column, scale", [("ipl", 1 + 1e-8), ("mipl", None)])
def test_float_check_rejects(outputs, copy, column, scale):
    out = copy("float")
    with open(out / "series.csv", newline="") as handle:
        cell = list(csv.DictReader(handle))[3][column]
    edit_csv(out / "series.csv", 3, column, repr(float(cell) * scale) if scale else str(int(cell) + 1))
    assert checks.check_float_matches_exact(outputs["root"] / "exact", out)


@pytest.mark.parametrize(
    "table, row, column, value",
    [
        ("sweep.csv", 0, "n", "1"),
        ("sweep.csv", 1, "id", "0.5"),
        ("sweep.csv", 2, "rate", "3.0"),
        ("sweep.csv", 3, "ipl", "1.0"),
        ("cross_fits.csv", 0, None, None),
    ],
)
def test_sweep_check_rejects(outputs, copy, table, row, column, value):
    out = copy("sweep")
    edit_csv(out / table, row, column, value)
    assert checks.check_sweep(out, outputs["truth"], outputs["root"] / "measure", "T3")


def repeat_a_citation(out: Path) -> None:
    lines = (out / "edges.csv").read_text().splitlines(keepends=True)
    (out / "edges.csv").write_text("".join(lines + lines[1:2]))


@pytest.mark.parametrize(
    "mutate",
    [
        lambda out: edit_csv(out / "nodes.csv", 5, None, None),
        lambda out: edit_csv(out / "edges.csv", 0, "cited_id", "S299"),
        repeat_a_citation,
    ],
    ids=["missing node", "forward citation", "repeated citation"],
)
def test_simulate_check_rejects(copy, mutate):
    out = copy("simulate")
    mutate(out)
    assert checks.check_simulate(out, 300)


@pytest.mark.parametrize("table, column", [("fits.csv", "slope"), ("rates.csv", "p")])
def test_fit_check_rejects(outputs, copy, table, column):
    out = copy("fit")
    edit_csv(out / table, 0, column, "0.125")
    assert checks.check_fit(out, outputs["root"] / "sim_measure/series.csv")


def test_gof_check_rejects(outputs, copy):
    out = copy("gof")
    edit_csv(out / "gof_summary.csv", 7, None, None)
    assert checks.check_gof(out, outputs["root"] / "sim_measure/series.csv", ["binomial-type"])
    assert checks.check_gof(out, outputs["root"] / "sim_measure/series.csv", workloads.FAMILIES.split(","))


def fake_run(root: Path, iterations: int, labels=("measure",)) -> dict:
    return {
        "iterations": [
            [{"label": label, "code": 0, "error": None, "out": str(root / str(i))} for label in labels]
            for i in range(iterations)
        ]
    }


def test_check_runs_counts_failures(outputs, tmp_path):
    deep = workloads.WORKLOADS["deep_paths"]
    for i in range(2):
        shutil.copytree(outputs["root"] / "exact", tmp_path / str(i) / "measure")
        shutil.copytree(outputs["root"] / "float", tmp_path / str(i) / "measure_float")
    result = fake_run(tmp_path, 2, ("measure", "measure_float"))
    exact = checks.exact_digests("deep_paths", tmp_path / "0")
    assert run.check_runs(deep, outputs["deep"], {"deep_paths": exact}, [result])[:3] == (4, 0, [])

    wrong = dict(exact, **{"measure/backlink_dist.csv": "0" * 64})
    attempted, failed, problems, _ = run.check_runs(deep, outputs["deep"], {"deep_paths": wrong}, [result])
    assert (attempted, failed) == (4, 1) and "reference" in problems[0]

    edit_csv(tmp_path / "1/measure_float/series.csv", 0, "ed", "1.0")
    result["iterations"][0][1]["code"] = 2
    attempted, failed, problems, _ = run.check_runs(deep, outputs["deep"], None, [result])
    assert (attempted, failed) == (4, 2)
    assert "exit code 2" in problems[0] and "differs from the first iteration" in problems[1]


def test_benchmark_json_declares_the_reported_metrics():
    run.check_declared(Path(__file__).resolve().parent.parent / "BENCHMARK.json")


def test_traced_run_fails_without_an_expected_layer():
    command = {"name": "cli.measure", "parent": None, "iteration": 0, "start": 0.0, "end": 1.0, "counts": {}}
    load = {"name": "ingest.load_corpus", "parent": 0, "iteration": 0, "start": 0.1, "end": 0.6,
            "counts": {"rows": 10, "bytes_in": 100}}
    plain = {"iterations": [[{"label": "measure", "wall_s": 1.0, "cpu_s": 1.0}]]}
    traced = {"iterations": plain["iterations"], "spans": [command, load]}
    with pytest.raises(run.BenchError, match="measures.dp"):
        run.per_layer(workloads.WORKLOADS["deep_paths"], plain, traced, {"spans": []})
    metrics, breakdown = run.layer_sample(traced["spans"], 0)
    assert metrics["ingest.load_corpus.s"] == pytest.approx(0.5)
    assert metrics["cli.self.s"] == pytest.approx(0.5)
    assert metrics["ingest.load_corpus.rows"] == 10


def test_counters_are_taken_in_the_peak_pass_only():
    for peak in (False, True):
        recorder = trace_layers.Recorder(peak=peak)
        with recorder.span("cli.write") as counts:
            pass
        recorder.count(counts, lambda: {"rows": 3})
        assert counts == ({"rows": 3} if peak else {})


def test_times_are_medians_of_calibrated_samples():
    # A host twice as slow doubles both the command and its calibration.
    assert run.calibrated([0.04, 0.08], [0.005, 0.01]) == pytest.approx([0.04, 0.04])
    commands = {"measure": [0.5, 0.4, 0.9], "fit": [0.2, 0.3, 0.25], "gof": [0.7, 0.6, 0.65]}
    metrics = run.end_to_end([1.0, 3.0, 2.0], commands, 100.0)
    assert metrics == {"setup_s": 2.0, "measure_s": 0.5, "others_s": pytest.approx(0.9), "peak_rss_mb": 100.0}


def test_covered_counts_overlaps_once():
    assert run.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == pytest.approx(4.0)
