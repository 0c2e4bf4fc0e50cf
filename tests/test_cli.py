"""End-to-end command-line tests: pipelines, exit codes, determinism."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cumuldyn.cli import (
    ReportBundle, _build_parser, _load_backlink_dists, _load_pathlen_dists, main,
)
from cumuldyn.core import BacklinkTable, KnowledgeGraph, ModelParams, PathLengthTable
from cumuldyn.fitting import PATHLENGTH_FAMILIES, geometric_gof, pathlength_gof
from cumuldyn.ingest import Corpus, TechnologyQuery, build_graph, load_corpus
from cumuldyn.measures import measure_checkpoints

from conftest import reference_load_backlink_dists, reference_load_pathlen_dists


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def run(*argv) -> int:
    return main(list(argv))


def two_predecessor_corpus(directory: Path, n: int) -> tuple[Path, Path]:
    """Nodes and edges files of n nodes of class FIB, node i citing i-1 and i-2,
    so path counts grow as Fibonacci numbers."""
    nodes, edges = directory / "nodes.csv", directory / "edges.csv"
    nodes.write_text("node_id,year,classes\n" + "".join(f"f{i:04d},,FIB\n" for i in range(n)))
    edges.write_text("citing_id,cited_id,origin\n" + "".join(
        f"f{i:04d},f{i - d:04d},\n" for i in range(1, n) for d in (1, 2) if i >= d
    ))
    return nodes, edges


@pytest.fixture
def sim_dir(tmp_path):
    out = tmp_path / "sim"
    code = run(
        "simulate", "--q", "0.002", "--m1", "3", "--n", "1500",
        "--seed", "7", "--out", str(out),
    )
    assert code == 0
    return out


@pytest.fixture
def measured_dir(tmp_path, sim_dir):
    out = tmp_path / "measured"
    code = run(
        "measure",
        "--nodes", str(sim_dir / "nodes.csv"),
        "--edges", str(sim_dir / "edges.csv"),
        "--name", "sim", "--prefix", "SIM",
        "--stride", "100", "--out", str(out),
    )
    assert code == 0
    return out


class TestParser:
    def test_repeated_parses_share_no_state(self):
        argv = ["measure", "--nodes", "n.csv", "--edges", "e.csv", "--out", "o"]
        first = _build_parser().parse_args([*argv, "--prefix", "A", "--granted-only"])
        second = _build_parser().parse_args([*argv, "--prefix", "B"])
        assert (first.prefix, first.granted_only) == (["A"], True)
        assert (second.prefix, second.granted_only) == (["B"], False)


class TestSimulate:
    def test_writes_loadable_corpus(self, sim_dir):
        nodes = read_csv(sim_dir / "nodes.csv")
        edges = read_csv(sim_dir / "edges.csv")
        assert len(nodes) == 1500
        assert all(r["classes"] == "SIM" for r in nodes[:5])
        assert edges, "expected some citations"
        meta = json.loads((sim_dir / "meta.json").read_text())
        assert meta["command"] == "simulate"
        assert meta["params"]["seed"] == 7

    def test_invalid_params_exit_2(self, tmp_path, capsys):
        assert run("simulate", "--q", "-1", "--m1", "3", "--n", "10",
                   "--out", str(tmp_path / "x")) == 2
        assert "q must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,message",
        [
            (("--q", "inf", "--m1", "2"), "q must be positive"),
            (("--q", "nan", "--m1", "2"), "q must be positive"),
            (("--q", "0.1", "--m1", "inf"), "m1 must exceed 1"),
            (
                ("--q", "0.1", "--m1", "2", "--seed", "-1"),
                "--seed must be a non-negative integer, got -1",
            ),
            (("--q", "0.1", "--m1", "2", "--n", str(2**32 + 1)), "n_nodes must be <= 2**32"),
            (("--q", "0.1", "--m1", "2", "--seed", "1.5"), "argument --seed: invalid int value: '1.5'"),
        ],
    )
    def test_non_finite_or_out_of_range_params_exit_2(self, tmp_path, capsys, flags, message):
        n = () if "--n" in flags else ("--n", "5")
        assert run("simulate", *flags, *n, "--out", str(tmp_path / "x")) == 2
        assert message in capsys.readouterr().err

    def test_overflowing_q_caps_every_count(self, tmp_path):
        # q * i overflows, so every search runs on: node i cites all i
        # earlier nodes, as any count above i is capped.
        out = tmp_path / "sim"
        assert run("simulate", "--q", "1e308", "--m1", "2", "--n", "5",
                   "--out", str(out)) == 0
        pairs = [(r["citing_id"], r["cited_id"]) for r in read_csv(out / "edges.csv")]
        assert pairs == [(f"S{i}", f"S{j}") for i in range(5) for j in range(i)]

    def test_byte_identical_reruns(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert run("simulate", "--q", "0.01", "--m1", "2", "--n", "300",
                       "--seed", "11", "--out", str(out)) == 0
        for name in ("nodes.csv", "edges.csv", "meta.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestMeasure:
    def test_series_schema_and_content(self, measured_dir):
        rows = read_csv(measured_dir / "series.csv")
        assert list(rows[0]) == ["n", "id", "ipl", "mipl", "ed"]
        assert [int(r["n"]) for r in rows] == list(range(100, 1501, 100))
        last = rows[-1]
        assert float(last["id"]) > 0
        assert float(last["ipl"]) > 0

    def test_distribution_tables(self, measured_dir):
        backlink = read_csv(measured_dir / "backlink_dist.csv")
        ns = {int(r["n"]) for r in backlink}
        assert ns == set(range(100, 1501, 100))
        pathlen = read_csv(measured_dir / "pathlen_dist.csv")
        at_final = [r for r in pathlen if r["n"] == "1500"]
        total = sum(float(r["normalized"]) for r in at_final)
        assert total == pytest.approx(1.0, abs=1e-9)
        backlinks = read_csv(measured_dir / "backlinks.csv")
        assert len(backlinks) == 1500

    @pytest.mark.parametrize(
        "flags, limit, mode",
        [((), None, "exact"), (("--mode", "float"), None, "float"), ((), 1499, "float")],
        ids=["auto-exact", "float", "auto-past-the-limit"],
    )
    def test_meta_records_the_resolved_mode(self, tmp_path, sim_dir, monkeypatch, flags, limit, mode):
        if limit is not None:
            monkeypatch.setattr("cumuldyn.measures.EXACT_MODE_LIMIT", limit)
        out = tmp_path / "measured"
        assert run(
            "measure", "--nodes", str(sim_dir / "nodes.csv"), "--edges", str(sim_dir / "edges.csv"),
            "--prefix", "SIM", "--stride", "500", *flags, "--out", str(out),
        ) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["engine"] == {"mode": mode}
        assert meta["params"]["mode"] == ("float" if flags else "auto")

    def test_float_mode_round_trips_through_gof(self, tmp_path, sim_dir):
        out = tmp_path / "float_measured"
        assert run(
            "measure", "--nodes", str(sim_dir / "nodes.csv"),
            "--edges", str(sim_dir / "edges.csv"),
            "--prefix", "SIM", "--mode", "float", "--out", str(out),
        ) == 0
        pathlen = read_csv(out / "pathlen_dist.csv")
        assert any("." in r["count"] or "e" in r["count"] for r in pathlen)
        gof_out = tmp_path / "float_gof"
        assert run(
            "gof", "--pathlen-dist", str(out / "pathlen_dist.csv"),
            "--q", "0.001", "--m0", "2.0", "--out", str(gof_out),
        ) == 0
        summary = read_csv(gof_out / "gof_summary.csv")
        assert all(-1.0 <= float(r["correlation"]) <= 1.0 for r in summary)

    def test_overflowing_float_counts_round_trip_through_gof(self, tmp_path, recwarn):
        # The longest lengths' path counts pass the float range and float mode
        # writes them as inf.
        nodes, edges = two_predecessor_corpus(tmp_path, 1600)
        out = tmp_path / "measured"
        assert run(
            "measure", "--nodes", str(nodes), "--edges", str(edges), "--prefix", "FIB",
            "--mode", "float", "--stride", "400", "--out", str(out),
        ) == 0
        assert any(r["count"] == "inf" for r in read_csv(out / "pathlen_dist.csv"))
        gof_out = tmp_path / "gof"
        assert run(
            "gof", "--pathlen-dist", str(out / "pathlen_dist.csv"),
            "--q", "0.5", "--m0", "1.0", "--out", str(gof_out),
        ) == 0
        assert len(read_csv(gof_out / "gof_summary.csv")) == 4
        # Its series, whose ipl comes from the log counts, loads back too.
        assert run("fit", "--series", str(out / "series.csv"), "--out", str(tmp_path / "fit")) == 0
        assert not recwarn.list

    def test_zero_match_query_exit_2(self, tmp_path, sim_dir, capsys):
        code = run(
            "measure", "--nodes", str(sim_dir / "nodes.csv"),
            "--edges", str(sim_dir / "edges.csv"),
            "--prefix", "NOPE", "--out", str(tmp_path / "m"),
        )
        assert code == 2
        assert "zero nodes" in capsys.readouterr().err

    def test_missing_file_exit_3(self, tmp_path):
        code = run(
            "measure", "--nodes", str(tmp_path / "absent.csv"),
            "--edges", str(tmp_path / "absent2.csv"),
            "--prefix", "SIM", "--out", str(tmp_path / "m"),
        )
        assert code == 3

    def test_deterministic(self, tmp_path, sim_dir):
        outs = []
        for name in ("m1", "m2"):
            out = tmp_path / name
            assert run(
                "measure", "--nodes", str(sim_dir / "nodes.csv"),
                "--edges", str(sim_dir / "edges.csv"),
                "--prefix", "SIM", "--out", str(out),
            ) == 0
            outs.append(out)
        assert (outs[0] / "series.csv").read_bytes() == (outs[1] / "series.csv").read_bytes()


class TestFit:
    def test_fit_table_and_rates(self, tmp_path, measured_dir):
        out = tmp_path / "fit"
        assert run("fit", "--series", str(measured_dir / "series.csv"),
                   "--out", str(out)) == 0
        fits = {r["quantity"]: r for r in read_csv(out / "fits.csv")}
        assert set(fits) == {"id", "ipl", "mipl"}
        assert float(fits["id"]["slope"]) > 0
        rates = read_csv(out / "rates.csv")[0]
        # backlinks.csv sibling was auto-detected, so the data-based
        # correction must be present.
        assert math.isfinite(float(rates["p_prime_a"]))
        assert float(rates["v"]) == pytest.approx(2 * float(rates["p"]))

    def test_chain_series_ipl_slope_half(self, tmp_path):
        series = tmp_path / "series.csv"
        rows = ["n,id,ipl,mipl,ed"]
        for n in range(10, 101, 10):
            rows.append(f"{n},{(n - 1) / n},{(n - 1) / 2},{n - 1},0.0")
        series.write_text("\n".join(rows) + "\n")
        out = tmp_path / "fit"
        assert run("fit", "--series", str(series), "--out", str(out)) == 0
        fits = {r["quantity"]: r for r in read_csv(out / "fits.csv")}
        assert float(fits["ipl"]["slope"]) == pytest.approx(0.5)

    def test_missing_series_exit_3(self, tmp_path):
        assert run("fit", "--series", str(tmp_path / "none.csv"),
                   "--out", str(tmp_path / "f")) == 3


class TestGof:
    def test_gof_from_measure_outputs(self, tmp_path, measured_dir):
        fit_dir = tmp_path / "fit"
        assert run("fit", "--series", str(measured_dir / "series.csv"),
                   "--out", str(fit_dir)) == 0
        out = tmp_path / "gof"
        code = run(
            "gof",
            "--backlink-dist", str(measured_dir / "backlink_dist.csv"),
            "--pathlen-dist", str(measured_dir / "pathlen_dist.csv"),
            "--fits", str(fit_dir / "fits.csv"),
            "--families", "binomial-type,normal",
            "--out", str(out),
        )
        assert code == 0
        summary = read_csv(out / "gof_summary.csv")
        targets = {(r["target"], r["family"]) for r in summary}
        assert ("backlinks", "geometric") in targets
        assert ("pathlengths", "binomial-type") in targets
        assert ("pathlengths", "normal") in targets
        geo_final = [
            r for r in summary
            if r["target"] == "backlinks" and r["n"] == "1500"
        ][0]
        assert float(geo_final["correlation"]) >= 0.99
        points = read_csv(out / "gof_points.csv")
        assert {"empirical", "model"} <= set(points[0])

    @pytest.mark.parametrize("family", PATHLENGTH_FAMILIES)
    def test_weight_where_the_count_is_0_exit_2_naming_the_line(self, tmp_path, capsys, family):
        # Half the weight lies past mipl = 0, where the fit's layout ends.
        path = tmp_path / "pathlen_dist.csv"
        path.write_text("n,k,count,normalized\n5,0,3,0.5\n5,1,0,0.5\n")
        assert run("gof", "--pathlen-dist", str(path), "--q", "0.1", "--m0", "1",
                   "--families", family, "--out", str(tmp_path / "out")) == 2
        message = "normalized value at n=5, k=1 is positive where its count is 0"
        assert f"{path}:2: {message}" in capsys.readouterr().err

    def test_perfect_model_fixture_correlation_one(self, tmp_path):
        # Histogram drawn exactly from the model pmf.
        from cumuldyn.growth import rho
        from cumuldyn.core import ModelParams

        q, m0, n = 0.001, 1.0, 1000
        p = rho(n, ModelParams(q=q, m1=m0 + 1))
        total = 1_000_000
        counts, remaining = {}, total
        for m in range(40):
            c = round(total * (1 - p) ** m * p)
            counts[m] = c
            remaining -= c
        counts[0] += remaining
        dist_file = tmp_path / "backlink_dist.csv"
        rows = ["n,m,count"] + [f"{total},{m},{c}" for m, c in counts.items()]
        dist_file.write_text("\n".join(rows) + "\n")
        out = tmp_path / "gof"
        # The histogram is over a prefix of `total` nodes; evaluate the model
        # at that same prefix size by shifting q to keep rho identical.
        code = run(
            "gof", "--backlink-dist", str(dist_file),
            "--q", repr(q * n / total), "--m0", repr(m0),
            "--out", str(out),
        )
        assert code == 0
        summary = read_csv(out / "gof_summary.csv")
        assert float(summary[0]["correlation"]) >= 0.9999

    def test_a_family_fits_alike_whatever_families_run_beside_it(self, tmp_path):
        # The fine_pipeline benchmark's tables: simulate, measure at stride 12, fit.
        sim, mea, fit = tmp_path / "sim", tmp_path / "mea", tmp_path / "fit"
        assert run(
            "simulate", "--q", "0.006", "--m1", "3", "--n", "600", "--seed", "1", "--out", str(sim)
        ) == 0
        assert run(
            "measure", "--nodes", str(sim / "nodes.csv"), "--edges", str(sim / "edges.csv"),
            "--name", "sim", "--prefix", "SIM", "--stride", "12", "--out", str(mea),
        ) == 0
        assert run("fit", "--series", str(mea / "series.csv"), "--out", str(fit)) == 0

        def lines(families: str) -> dict[str, list[str]]:
            out = tmp_path / families
            assert run(
                "gof", "--backlink-dist", str(mea / "backlink_dist.csv"),
                "--pathlen-dist", str(mea / "pathlen_dist.csv"), "--fits", str(fit / "fits.csv"),
                "--families", families, "--out", str(out),
            ) == 0
            return {
                name: (out / name).read_text(encoding="utf-8").splitlines(keepends=True)
                for name in ("gof_summary.csv", "gof_points.csv")
            }

        every = lines("binomial-type,normal,poisson,binomial")
        for family in PATHLENGTH_FAMILIES:
            alone = lines(family)
            for name, (header, *rows) in every.items():
                kept = [row for row in rows if row.split(",")[2] in ("geometric", family)]
                assert alone[name] == [header, *kept], (family, name)

    def test_missing_params_exit_2(self, tmp_path, measured_dir, capsys):
        code = run(
            "gof", "--backlink-dist", str(measured_dir / "backlink_dist.csv"),
            "--out", str(tmp_path / "g"),
        )
        assert code == 2
        assert "--fits" in capsys.readouterr().err

    def test_empty_distribution_exit_2(self, tmp_path):
        empty = tmp_path / "pathlen.csv"
        empty.write_text("n,k,count,normalized\n5,0,0,0.0\n")
        code = run(
            "gof", "--pathlen-dist", str(empty),
            "--q", "0.001", "--m0", "1.0",
            "--out", str(tmp_path / "g"),
        )
        assert code == 2


    def test_non_finite_q_exit_2(self, tmp_path, measured_dir, capsys):
        code = run(
            "gof", "--pathlen-dist", str(measured_dir / "pathlen_dist.csv"),
            "--q", "inf", "--m0", "1", "--out", str(tmp_path / "g"),
        )
        assert code == 2
        assert "q must be positive and finite, got inf" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize(
        "q, m0, message",
        [
            ("nan", "1", "--q must be positive and finite, got nan"),
            ("-0.5", "1", "--q must be positive and finite, got -0.5"),
            ("0.01", "-5", "--m0 must be positive and finite, got -5.0"),
            ("0.01", "inf", "--m0 must be positive and finite, got inf"),
            ("0.01", "1e-17", "--m0 must be large enough that m0 + 1 > 1, got 1e-17"),
        ],
    )
    def test_bad_param_flag_exit_2_naming_it(self, tmp_path, measured_dir, capsys, q, m0, message):
        code = run(
            "gof", "--pathlen-dist", str(measured_dir / "pathlen_dist.csv"),
            "--q", q, "--m0", m0, "--out", str(tmp_path / "g"),
        )
        assert code == 2
        assert f"cumuldyn: {message}\n" == capsys.readouterr().err
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize("flags", [["--q", "5", "--m0", "-3"], ["--q", "5"], ["--m0", "1"]])
    def test_fits_with_a_param_flag_exit_2_naming_both(self, tmp_path, capsys, flags):
        fits = tmp_path / "fits.csv"
        fits.write_text("quantity,slope,intercept\nid,0.01,1.0\n")
        dist = tmp_path / "backlink_dist.csv"
        dist.write_text("n,m,count\n2,0,1\n2,1,1\n")
        code = run(
            "gof", "--backlink-dist", str(dist), "--fits", str(fits), *flags,
            "--out", str(tmp_path / "g"),
        )
        assert code == 2
        assert capsys.readouterr().err == "cumuldyn: --fits and --q/--m0 exclude each other\n"
        assert not (tmp_path / "g").exists()

    @pytest.mark.parametrize(
        "families,message",
        [
            ("nosuch", "unknown family 'nosuch'"),
            ("poisson,Poisson", "unknown family 'Poisson'"),
            ("poisson,normal,poisson", "family 'poisson' given twice"),
            (" ,", "--families names no family: ' ,'"),
            ("", "--families names no family: ''"),
        ],
    )
    @pytest.mark.parametrize("target", ["--backlink-dist", "--pathlen-dist"])
    def test_bad_families_exit_2_before_reading_tables(
        self, tmp_path, capsys, families, message, target
    ):
        # The table does not exist: the list is checked before any read.
        code = run(
            "gof", target, str(tmp_path / "missing.csv"), "--fits", str(tmp_path / "none.csv"),
            "--families", families, "--out", str(tmp_path / "g"),
        )
        assert code == 2
        assert message in capsys.readouterr().err

    def test_points_match_each_fit(self, tmp_path, measured_dir):
        from cumuldyn.core import ModelParams
        from cumuldyn.fitting import PATHLENGTH_FAMILIES, geometric_gof, pathlength_gof

        out = tmp_path / "gof"
        assert run(
            "gof", "--backlink-dist", str(measured_dir / "backlink_dist.csv"),
            "--pathlen-dist", str(measured_dir / "pathlen_dist.csv"),
            "--q", "0.002", "--m0", "2.0", "--families", ",".join(PATHLENGTH_FAMILIES),
            "--out", str(out),
        ) == 0
        hists = reference_load_backlink_dists(str(measured_dir / "backlink_dist.csv"))
        dists = reference_load_pathlen_dists(str(measured_dir / "pathlen_dist.csv"))
        params = ModelParams(q=0.002, m1=3.0)
        fits = [
            (n, "backlinks", geometric_gof(BacklinkTable.from_hists([hist]), params))
            for n, hist in sorted(hists.items())
        ] + [
            (n, "pathlengths", pathlength_gof(PathLengthTable.from_dists([dist]), family))
            for n, dist in sorted(dists.items())
            for family in PATHLENGTH_FAMILIES
        ]
        expected = [
            [str(n), target, fit.family, str(k), repr(emp), repr(mod)]
            for n, target, fit in fits
            for k, (emp, mod) in enumerate(fit.plot_points)
        ]
        assert {row[1] for row in expected} == {"backlinks", "pathlengths"}
        with open(out / "gof_points.csv", newline="", encoding="utf-8") as handle:
            assert list(csv.reader(handle))[1:] == expected

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_point_lines_are_what_csv_writes(self, data):
        from cumuldyn.cli import _add_gof_rows
        from cumuldyn.core import DistributionFits
        from cumuldyn.fitting import PATHLENGTH_FAMILIES

        target, families = data.draw(st.one_of(
            st.just(("backlinks", ["geometric"])),
            st.tuples(
                st.just("pathlengths"),
                st.lists(st.sampled_from(PATHLENGTH_FAMILIES), min_size=1, max_size=4,
                         unique=True),
            ),
        ))
        # Single-support rows (size 1) among longer ones.
        sizes = data.draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
        ns = sorted(data.draw(st.lists(
            st.integers(1, 10**9), min_size=len(sizes), max_size=len(sizes), unique=True
        )))
        cells = st.one_of(
            st.sampled_from([math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, 1e16, 1e-5]),
            st.floats(allow_nan=True, allow_infinity=True),
        )
        total = sum(sizes)
        rows = range(len(sizes))

        def fit(family, empirical):
            # Rows of one size often repeat a block of model values, as
            # binomial-type rows of one n' do; 0.0 and -0.0 blocks differ.
            blocks = {
                size: [
                    *data.draw(st.lists(st.lists(cells, min_size=size, max_size=size),
                                        min_size=1, max_size=2)),
                    [0.0] * size, [-0.0] * size,
                ]
                for size in set(sizes)
            }
            model = [value for size in sizes for value in data.draw(st.sampled_from(blocks[size]))]
            return DistributionFits(
                family=family,
                params=tuple({} for _ in rows),
                bounds=(0, *np.cumsum(sizes).tolist()),
                empirical=tuple(empirical),
                model=tuple(model),
                plot_correlation=tuple(1.0 for _ in rows),
                chi_square=tuple((math.nan, 0, math.nan) for _ in rows),
                warnings=tuple(() for _ in rows),
            )

        empirical = data.draw(st.lists(cells, min_size=total, max_size=total))
        fits = [fit(family, empirical) for family in families]
        lines: list[str] = []
        _add_gof_rows(target, ns, fits, [], lines, [])
        assert len(lines) == len(sizes) * len(families)  # one block per checkpoint and family
        # The rows as csv.writer took them before lines: n, target, family,
        # the value, the empirical string and the model float.
        bounds = fits[0].bounds
        rendered = io.StringIO()
        csv.writer(rendered, lineterminator="\n").writerows(
            (n, target, f.family, k, str(f.empirical[lo + k]), f.model[lo + k])
            for n, lo, hi in zip(ns, bounds, bounds[1:])
            for f in fits
            for k in range(hi - lo)
        )
        assert "".join(lines) == rendered.getvalue()

    def test_warnings_are_deterministic_lines(self, tmp_path, capsys, recwarn):
        dist = tmp_path / "pathlen_dist.csv"
        dist.write_text("n,k,count,normalized\n5,0,3,1.0\n")
        message = (
            "degenerate path-length distribution with a single length; "
            "correlation reported as 1"
        )
        expected = [
            f"n=5 pathlengths binomial-type: {message}",
            f"n=5 pathlengths poisson: {message}",
        ]
        outs = [tmp_path / "a", tmp_path / "b"]
        for out in outs:
            assert run(
                "gof", "--pathlen-dist", str(dist), "--q", "0.01", "--m0", "1.0",
                "--families", "binomial-type,poisson", "--out", str(out),
            ) == 0
            err = capsys.readouterr().err
            assert err == "".join(f"cumuldyn: warning: {line}\n" for line in expected)
            assert json.loads((out / "meta.json").read_text())["warnings"] == expected
        assert not recwarn.list
        for name in ("gof_summary.csv", "gof_points.csv", "meta.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_warnings_follow_the_summary_table(self, tmp_path, capsys, recwarn):
        # Degenerate rows at two n of each table: a single backlink count at
        # n=3 and a uniform histogram at n=8; a single path length at n=2
        # and n=6.  n=4 and n=5 are regular rows between them.
        backlinks = tmp_path / "backlink_dist.csv"
        backlinks.write_text(
            "n,m,count\n8,0,2\n8,1,2\n8,2,2\n8,3,2\n3,0,3\n4,0,2\n4,1,1\n4,3,1\n"
        )
        pathlens = tmp_path / "pathlen_dist.csv"
        pathlens.write_text(
            "n,k,count,normalized\n6,2,4,1.0\n2,0,2,1.0\n"
            "5,0,3,0.5\n5,1,2,0.3333333333333333\n5,2,1,0.16666666666666666\n"
            "4,0,3,0.75\n4,1,1,0.25\n"
        )
        out = tmp_path / "gof"
        assert run(
            "gof", "--backlink-dist", str(backlinks), "--pathlen-dist", str(pathlens),
            "--q", "0.01", "--m0", "1.0", "--families", "poisson,binomial-type",
            "--out", str(out),
        ) == 0
        summary = read_csv(out / "gof_summary.csv")
        assert [(r["n"], r["target"], r["family"]) for r in summary] == [
            ("3", "backlinks", "geometric"), ("4", "backlinks", "geometric"),
            ("8", "backlinks", "geometric"),
            ("2", "pathlengths", "poisson"), ("2", "pathlengths", "binomial-type"),
            ("4", "pathlengths", "poisson"), ("4", "pathlengths", "binomial-type"),
            ("5", "pathlengths", "poisson"), ("5", "pathlengths", "binomial-type"),
            ("6", "pathlengths", "poisson"), ("6", "pathlengths", "binomial-type"),
        ]
        single = (
            "degenerate path-length distribution with a single length; "
            "correlation reported as 1"
        )
        expected = [
            "n=3 backlinks geometric: geometric fit: degenerate distribution with a single "
            "support point; probability-plot correlation reported as 1",
            "n=8 backlinks geometric: geometric fit: constant probabilities on one axis; "
            "correlation reported as 0.0",
            f"n=2 pathlengths poisson: {single}",
            f"n=2 pathlengths binomial-type: {single}",
            f"n=6 pathlengths poisson: {single}",
            f"n=6 pathlengths binomial-type: {single}",
        ]
        err = capsys.readouterr().err
        assert err == "".join(f"cumuldyn: warning: {line}\n" for line in expected)
        assert json.loads((out / "meta.json").read_text())["warnings"] == expected
        assert not recwarn.list
        flagged = [r["correlation"] for r in summary if r["n"] in ("2", "3", "6", "8")]
        assert flagged == ["1.0", "0.0", "1.0", "1.0", "1.0", "1.0"]

    def test_meta_lists_no_warnings_for_a_clean_run(self, tmp_path, measured_dir, capsys):
        out = tmp_path / "gof"
        assert run(
            "gof", "--backlink-dist", str(measured_dir / "backlink_dist.csv"),
            "--q", "0.002", "--m0", "2.0", "--out", str(out),
        ) == 0
        assert capsys.readouterr().err == ""
        assert json.loads((out / "meta.json").read_text())["warnings"] == []


ROOT = Path(__file__).resolve().parents[1]
# The benchmark's workloads, by the names perfbench/run.py checks against workloads.py.
BENCH_WORKLOADS = [
    workload["name"]
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
]


class TestTraceLayers:
    """The benchmark's layer wrappers still find every name the commands call.

    ``measures.dp`` wraps ``measure_checkpoints`` only.  ``sweep`` measures
    each technology with ``measure_series``, which no wrapper wraps, so on a
    traced ``ingest_sweep`` run its 8 engine calls count under ``cli.self.s``
    and ``measures.dp`` covers ``measure``'s one call.
    """

    LAYER_NAMES = (
        "load_corpus", "build_graph", "measure_checkpoints", "simulate", "fit_series",
        "geometric_gof", "pathlength_gof", "rate_predictions",
    )

    @pytest.mark.parametrize("name", BENCH_WORKLOADS)
    def test_every_layer_records_its_counters(self, tmp_path, monkeypatch, name):
        import cumuldyn.cli as cli

        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import trace_layers
        import workloads
        from run import LAYERS

        # install() rebinds these names; monkeypatch puts the originals back.
        for layer in self.LAYER_NAMES:
            monkeypatch.setattr(cli, layer, getattr(cli, layer))
        monkeypatch.setattr(cli.ReportBundle, "write", cli.ReportBundle.write)
        recorder = trace_layers.Recorder(peak=True)
        trace_layers.install(recorder, cli)
        workload = workloads.WORKLOADS[name]
        inputs, out = tmp_path / "in", tmp_path / "out"
        workload.make_inputs(inputs, 1)
        for command in workload.commands:
            argv = [
                token.replace("{in}", str(inputs)).replace("{out}", str(out)).replace("{seed}", "1")
                for token in command.argv
            ]
            with recorder.command(command.label):
                assert cli.main(argv) == 0
        for layer in workload.layers:
            spans = [span for span in recorder.spans if span["name"] == layer]
            # Derived or timed in every span, not counted: kept_ratio, s, calls, peak_mb.
            counters = set(LAYERS[layer]) - {"s", "calls", "kept_ratio", "peak_mb"}
            assert spans, layer
            for span in spans:
                assert span["parent"] is not None, layer
                assert counters <= set(span["counts"]), layer
                assert ("peak_mb" in span) == (layer in trace_layers.PEAK_LAYERS), layer
        support_points = sum(
            span["counts"]["support_points"]
            for span in recorder.spans
            if span["name"] == "fitting.pathlength_gof"
        )
        points = [row for path in out.glob("*/gof_points.csv") for row in read_csv(path)]
        assert support_points == sum(row["target"] == "pathlengths" for row in points)


def _old_fmt(value) -> str:
    """The writer's former per-cell formatting, kept as the reference."""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


class TestEmptyOut:
    """An empty --out names the working directory, so every command refuses it."""

    @pytest.mark.parametrize("command", ["simulate", "measure", "fit", "gof", "sweep"])
    def test_exit_2_naming_the_flag(self, tmp_path, measured_dir, capsys, monkeypatch, command):
        sim = tmp_path / "sim"
        corpus = ["--nodes", str(sim / "nodes.csv"), "--edges", str(sim / "edges.csv")]
        techs = tmp_path / "techs.csv"
        techs.write_text("group_name,prefix\nsim,SIM\n")
        argv = {
            "simulate": ["--q", "0.01", "--m1", "2", "--n", "5"],
            "measure": [*corpus, "--prefix", "SIM"],
            "fit": ["--series", str(measured_dir / "series.csv")],
            "gof": [
                "--pathlen-dist", str(measured_dir / "pathlen_dist.csv"), "--q", "0.01", "--m0", "2"
            ],
            "sweep": [*corpus, "--tech-table", str(techs)],
        }[command]
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert run(command, *argv, "--out", "") == 2
        assert "argument --out: expected a directory, got ''" in capsys.readouterr().err
        assert not any(work.iterdir())


class TestEmptyInputPath:
    """An empty input path is refused, never read as an absent optional input."""

    @pytest.mark.parametrize(
        "flag, argv",
        [
            ("--nodes", ["measure", "--edges", "e.csv", "--prefix", "A"]),
            ("--edges", ["measure", "--nodes", "n.csv", "--prefix", "A"]),
            ("--tech-table", ["sweep", "--nodes", "n.csv", "--edges", "e.csv"]),
            ("--series", ["fit"]),
            ("--backlinks", ["fit", "--series", "series.csv"]),
            ("--fits", ["gof", "--backlink-dist", "b.csv"]),
            ("--backlink-dist", ["gof", "--pathlen-dist", "p.csv", "--q", "0.01", "--m0", "2"]),
            ("--pathlen-dist", ["gof", "--backlink-dist", "b.csv", "--q", "0.01", "--m0", "2"]),
            ("--config", ["simulate", "--q", "0.01", "--m1", "2", "--n", "5"]),
        ],
    )
    @pytest.mark.parametrize("source", ["argv", "config"])
    def test_exit_2_naming_the_flag(self, tmp_path, capsys, monkeypatch, flag, argv, source):
        monkeypatch.chdir(tmp_path)
        if source == "argv":
            argv = [*argv, flag, ""]
        elif flag == "--config":
            argv = [*argv, f"{flag}="]
        else:  # as a config entry, "key=" with nothing after it
            Path("run.cfg").write_text(f"{flag[2:].replace('-', '_')}=\n")
            argv = [*argv, "--config", "run.cfg"]
        assert run(*argv, "--out", "o") == 2
        assert f"argument {flag}: expected a file, got ''" in capsys.readouterr().err
        assert not Path("o").exists()


class TestReportBundleWrite:
    CELLS = [
        0.1, 1 / 3, np.float64(0.1), np.float64(1 / 3), math.inf, -math.inf, math.nan,
        np.float64(math.inf), np.float64(-math.inf), np.float64(math.nan), -0.0,
        np.float64(-0.0), 1e16, np.float64(1e16), 1e-5, np.float64(1e-5), 5e-324,
        np.float64(5e-324), 1.7976931348623157e308, 0, -3, np.int64(7), np.int32(-7),
        np.uint64(2**64 - 1), 2**64, -(2**70) - 1, "text", "",
    ]

    def test_cells_read_as_the_old_format(self, tmp_path):
        rows = [self.CELLS, self.CELLS[::-1]]
        header = [f"c{i}" for i in range(len(self.CELLS))]
        bundle = ReportBundle(command="test", params={}, tables={"cells.csv": (header, rows)})
        bundle.write(tmp_path)
        with open(tmp_path / "cells.csv", newline="", encoding="utf-8") as handle:
            written = list(csv.reader(handle))[1:]
        assert written == [[_old_fmt(v) for v in row] for row in rows]
        meta = json.loads((tmp_path / "meta.json").read_text())
        assert "warnings" not in meta


class TestSweep:
    @pytest.fixture
    def multi_corpus(self, tmp_path):
        rng_rows = []
        node_rows = ["node_id,year,classes"]
        edge_rows = ["citing_id,cited_id,origin"]
        import numpy as np

        rng = np.random.default_rng(13)
        for t, (prefix, density, n) in enumerate(
            [("A01", 0.08, 60), ("B02", 0.02, 90), ("C03", 0.15, 40)]
        ):
            ids = [f"{prefix}N{i:03d}" for i in range(n)]
            for i in range(n):
                node_rows.append(f"{ids[i]},{2000 + i // 6},{prefix} 1/0{t}")
            for i in range(1, n):
                for j in range(i):
                    if rng.random() < density:
                        edge_rows.append(f"{ids[i]},{ids[j]},APP")
        nodes = tmp_path / "nodes.csv"
        edges = tmp_path / "edges.csv"
        nodes.write_text("\n".join(node_rows) + "\n")
        edges.write_text("\n".join(edge_rows) + "\n")
        table = tmp_path / "techs.csv"
        table.write_text(
            "group_name,prefix\nalpha,A01\nbeta,B02\ngamma,C03\n"
        )
        return nodes, edges, table

    def test_three_technologies(self, tmp_path, multi_corpus):
        nodes, edges, table = multi_corpus
        out = tmp_path / "sweep"
        code = run(
            "sweep", "--nodes", str(nodes), "--edges", str(edges),
            "--tech-table", str(table), "--stride", "10",
            "--out", str(out),
        )
        assert code == 0
        rows = read_csv(out / "sweep.csv")
        assert [r["tech"] for r in rows] == ["alpha", "beta", "gamma"]
        assert [int(r["n"]) for r in rows] == [60, 90, 40]
        assert all(r["cumulativeness"] in ("high", "low") for r in rows)
        assert all(math.isfinite(float(r["rate"])) for r in rows)
        cross = {r["relation"] for r in read_csv(out / "cross_fits.csv")}
        assert "id_on_ipl" in cross
        assert "rate_on_q_loglog" in cross

    # A fourth technology, FIB, has 150 nodes, node i citing i-1 and i-2:
    # past 2^53 paths, its exact and float ipl differ in the last bits, and
    # so do their slopes.  At a limit of 59 nodes, auto measures gamma (40
    # nodes) exactly and the others in float mode.
    @pytest.mark.parametrize("mode", [None, "exact", "float", "auto at limit 59"])
    def test_rows_equal_measure_then_fit(self, tmp_path, multi_corpus, monkeypatch, mode):
        nodes, edges, table = multi_corpus
        (tmp_path / "fib").mkdir()
        fib_nodes, fib_edges = two_predecessor_corpus(tmp_path / "fib", 150)
        for path, extra in ((nodes, fib_nodes), (edges, fib_edges)):
            path.write_text(path.read_text() + extra.read_text().split("\n", 1)[1])
        table.write_text(table.read_text() + "fib,FIB\n")
        corpus = ["--nodes", str(nodes), "--edges", str(edges), "--stride", "10"]
        if mode in ("exact", "float"):
            corpus += ["--mode", mode]
        if mode == "auto at limit 59":
            monkeypatch.setattr("cumuldyn.measures.EXACT_MODE_LIMIT", 59)
        sweep = tmp_path / "sweep"
        assert run("sweep", *corpus, "--tech-table", str(table), "--out", str(sweep)) == 0
        modes = json.loads((sweep / "meta.json").read_text())["diagnostics"]["technologies"]
        if mode == "auto at limit 59":
            assert [modes[t]["mode"] for t in sorted(modes)] == ["float", "float", "float", "exact"]
        rows = read_csv(sweep / "sweep.csv")
        for row, prefix in zip(rows, ["A01", "B02", "FIB", "C03"], strict=True):
            out = tmp_path / row["tech"]
            argv = ["--name", row["tech"], "--prefix", prefix, "--out", str(out)]
            assert run("measure", *corpus, *argv) == 0
            assert run("fit", "--series", str(out / "series.csv"), "--out", str(out)) == 0
            last = read_csv(out / "series.csv")[-1]
            slopes = {fit["quantity"]: fit["slope"] for fit in read_csv(out / "fits.csv")}
            assert [row[k] for k in ("n", "id", "ipl", "q", "p")] == [
                last["n"], last["id"], last["ipl"], slopes["id"], slopes["ipl"]
            ]

    def test_single_technology_skips_cross_fits(self, tmp_path, multi_corpus, capsys):
        nodes, edges, _ = multi_corpus
        table = tmp_path / "one.csv"
        table.write_text("group_name,prefix\nalpha,A01\n")
        out = tmp_path / "sweep1"
        code = run(
            "sweep", "--nodes", str(nodes), "--edges", str(edges),
            "--tech-table", str(table), "--stride", "10",
            "--out", str(out),
        )
        assert code == 0
        assert "fewer than 3 technologies" in capsys.readouterr().err
        assert read_csv(out / "cross_fits.csv") == []

    def test_sweep_recovers_power_law_rate_relation(self, tmp_path):
        # 24 constructed technologies whose invention rate scales like
        # q^-0.6 times lognormal noise; the sweep's cross fit must recover
        # the exponent.  Each technology is built so its id series has a
        # known slope: node i makes round(2*q*i + 1) backward links, making
        # the running average grow at about q.
        import numpy as np

        rng = np.random.default_rng(99)
        node_rows = ["node_id,year,classes"]
        edge_rows = ["citing_id,cited_id,origin"]
        table_rows = ["group_name,prefix"]
        n = 500
        for t in range(24):
            q_target = math.exp(rng.uniform(math.log(2e-4), math.log(5e-3)))
            rate_target = 0.5 * q_target**-0.6 * math.exp(rng.normal(0.0, 0.2))
            span = max(1, round(n / rate_target))
            prefix = f"T{t:02d}"
            table_rows.append(f"tech{t:02d},{prefix}")
            ids = [f"{prefix}N{i:03d}" for i in range(n)]
            total_links = 0
            for i in range(n):
                year = 2000 + (i * span) // n
                node_rows.append(f"{ids[i]},{year},{prefix} 1/00")
                # Cumulative rounding keeps the running link total on the
                # line q*i^2 + i, so the measured id slope is q_target even
                # when per-node increments are far below 1.
                links = min(i, round(q_target * i * i + float(i)) - total_links)
                total_links += links
                for j in range(i - links, i):
                    edge_rows.append(f"{ids[i]},{ids[j]},")
        nodes = tmp_path / "nodes.csv"
        edges = tmp_path / "edges.csv"
        table = tmp_path / "techs.csv"
        nodes.write_text("\n".join(node_rows) + "\n")
        edges.write_text("\n".join(edge_rows) + "\n")
        table.write_text("\n".join(table_rows) + "\n")
        out = tmp_path / "sweep"
        code = run(
            "sweep", "--nodes", str(nodes), "--edges", str(edges),
            "--tech-table", str(table), "--stride", "20", "--out", str(out),
        )
        assert code == 0
        cross = {r["relation"]: r for r in read_csv(out / "cross_fits.csv")}
        assert "rate_on_q_loglog" in cross
        exponent = float(cross["rate_on_q_loglog"]["exponent"])
        assert exponent == pytest.approx(-0.6, abs=0.15)

    def test_meta_records_each_technology_diagnostics(self, tmp_path, multi_corpus):
        nodes, edges, table = multi_corpus
        with open(edges, "a") as handle:
            handle.write("A01N001,A01N001,APP\nA01N002,A01N001,\nA01N002,A01N001,\n")
        out = tmp_path / "sweep"
        assert run(
            "sweep", "--nodes", str(nodes), "--edges", str(edges),
            "--tech-table", str(table), "--stride", "10", "--out", str(out),
        ) == 0
        diagnostics = json.loads((out / "meta.json").read_text())["diagnostics"]
        assert diagnostics["self_citations_dropped"] == 1
        techs = diagnostics["technologies"]
        assert sorted(techs) == ["alpha", "beta", "gamma"]
        rows = {r["tech"]: r for r in read_csv(out / "sweep.csv")}
        for name, diag in techs.items():
            assert diag["matched_nodes"] == int(rows[name]["n"])
            assert diag["internal_edges"] / diag["matched_nodes"] == float(rows[name]["id"])
            assert diag["ignored_citations"] > 0
        assert techs["alpha"]["duplicates_collapsed"] >= 1
        assert {diag["mode"] for diag in techs.values()} == {"exact"}

    def test_meta_records_each_technology_mode(self, tmp_path, multi_corpus, monkeypatch):
        nodes, edges, table = multi_corpus
        # Past a limit of 59 nodes, auto runs the 60- and 90-node technologies in float mode.
        monkeypatch.setattr("cumuldyn.measures.EXACT_MODE_LIMIT", 59)
        modes = {}
        for flags in ((), ("--mode", "exact"), ("--mode", "float")):
            out = tmp_path / "_".join(("sweep",) + flags)
            assert run(
                "sweep", "--nodes", str(nodes), "--edges", str(edges),
                "--tech-table", str(table), "--stride", "10", *flags, "--out", str(out),
            ) == 0
            techs = json.loads((out / "meta.json").read_text())["diagnostics"]["technologies"]
            modes[flags[1:]] = {name: diag["mode"] for name, diag in techs.items()}
        assert modes == {
            (): {"alpha": "float", "beta": "float", "gamma": "exact"},
            ("exact",): {"alpha": "exact", "beta": "exact", "gamma": "exact"},
            ("float",): {"alpha": "float", "beta": "float", "gamma": "float"},
        }

    def test_two_technologies_warn_on_stderr_and_in_meta(self, tmp_path, multi_corpus, capsys):
        nodes, edges, _ = multi_corpus
        table = tmp_path / "two.csv"
        table.write_text("group_name,prefix\nalpha,A01\ngamma,C03\n")
        expected = [
            "gamma: only 2 checkpoint(s) at stride 20; slopes reported as nan",
            "fewer than 3 technologies; cross-technology fits skipped",
        ]
        outs = []
        for name in ("first", "again"):
            out = tmp_path / name
            assert run(
                "sweep", "--nodes", str(nodes), "--edges", str(edges),
                "--tech-table", str(table), "--stride", "20", "--out", str(out),
            ) == 0
            lines = capsys.readouterr().err.splitlines()
            assert lines == [f"cumuldyn: warning: {w}" for w in expected]
            assert json.loads((out / "meta.json").read_text())["warnings"] == expected
            outs.append(out)
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == ["cross_fits.csv", "meta.json", "sweep.csv"]
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_cross_fit_warnings(self, tmp_path, capsys):
        # Three technologies with no citations: id and ipl are 0 everywhere,
        # so the pairwise fit has a constant design and neither the labels nor
        # the power law have 3 technologies to fit.
        node_rows = ["node_id,year,classes"]
        for prefix, n in (("A01", 30), ("B02", 40), ("C03", 50)):
            node_rows += [f"{prefix}N{i:02d},{2000 + i // 5},{prefix} 1/00" for i in range(n)]
        (tmp_path / "nodes.csv").write_text("\n".join(node_rows) + "\n")
        (tmp_path / "edges.csv").write_text("citing_id,cited_id,origin\n")
        (tmp_path / "techs.csv").write_text("group_name,prefix\na,A01\nb,B02\nc,C03\n")
        out = tmp_path / "sweep"
        assert run(
            "sweep", "--nodes", str(tmp_path / "nodes.csv"), "--edges", str(tmp_path / "edges.csv"),
            "--tech-table", str(tmp_path / "techs.csv"), "--stride", "10", "--out", str(out),
        ) == 0
        expected = [
            "pairwise id/ipl fit skipped: degenerate design: x is constant",
            "fewer than 3 technologies with positive id; relative-cumulativeness labels skipped",
            "fewer than 3 technologies with positive rate and q; power-law fit skipped",
        ]
        assert capsys.readouterr().err.splitlines() == [f"cumuldyn: warning: {w}" for w in expected]
        assert json.loads((out / "meta.json").read_text())["warnings"] == expected
        assert read_csv(out / "cross_fits.csv") == []

    def test_nan_slopes_and_rates_skip_only_the_fits_that_need_them(self, tmp_path, capsys):
        # delta has 2 checkpoints at stride 10, so nan slopes; one gamma node has
        # no year, so a nan rate.  The pairwise fit and the labels use all five
        # technologies, the power law only the three with a finite q and rate.
        rng = np.random.default_rng(5)
        node_rows = ["node_id,year,classes"]
        edge_rows = ["citing_id,cited_id,origin"]
        techs = {"alpha": ("A01", 60, 0.08), "beta": ("B02", 90, 0.02), "delta": ("D04", 15, 0.3),
                 "eps": ("E05", 50, 0.1), "gamma": ("C03", 40, 0.15)}
        for name, (prefix, n, density) in techs.items():
            ids = [f"{prefix}N{i:03d}" for i in range(n)]
            for i in range(n):
                year = "" if (name, i) == ("gamma", 7) else 2000 + i // (3 + len(name))
                node_rows.append(f"{ids[i]},{year},{prefix}")
                edge_rows += [f"{ids[i]},{ids[j]}," for j in range(i) if rng.random() < density]
        (tmp_path / "nodes.csv").write_text("\n".join(node_rows) + "\n")
        (tmp_path / "edges.csv").write_text("\n".join(edge_rows) + "\n")
        (tmp_path / "techs.csv").write_text(
            "group_name,prefix\n" + "".join(f"{name},{t[0]}\n" for name, t in techs.items())
        )
        out = tmp_path / "sweep"
        assert run(
            "sweep", "--nodes", str(tmp_path / "nodes.csv"), "--edges", str(tmp_path / "edges.csv"),
            "--tech-table", str(tmp_path / "techs.csv"), "--stride", "10", "--out", str(out),
        ) == 0
        expected = [
            "delta: only 2 checkpoint(s) at stride 10; slopes reported as nan",
            "gamma: missing years, invention rate reported as nan",
        ]
        assert capsys.readouterr().err.splitlines() == [f"cumuldyn: warning: {w}" for w in expected]
        assert json.loads((out / "meta.json").read_text())["warnings"] == expected
        rows = {r["tech"]: r for r in read_csv(out / "sweep.csv")}
        assert list(rows) == sorted(techs)
        nans = {name: [c for c in ("q", "p", "rate") if r[c] == "nan"] for name, r in rows.items()}
        assert nans == {"alpha": [], "beta": [], "delta": ["q", "p"], "eps": [], "gamma": ["rate"]}
        cross = {r["relation"]: r for r in read_csv(out / "cross_fits.csv")}
        assert list(cross) == ["id_on_ipl", "ipl_on_id", "id_on_n_loglog", "rate_on_q_loglog"]
        assert [cross[r]["n_obs"] for r in cross] == ["5", "5", "5", "3"]
        from cumuldyn.fitting import classify_relative_cumulativeness, power_law_fit

        labels, _ = classify_relative_cumulativeness(
            [(float(r["n"]), float(r["id"])) for r in rows.values()]
        )
        assert [r["cumulativeness"] for r in rows.values()] == labels
        exponent, prefactor, _ = power_law_fit(
            *zip(*[(float(rows[t]["q"]), float(rows[t]["rate"])) for t in ("alpha", "beta", "eps")])
        )
        assert cross["rate_on_q_loglog"]["exponent"] == repr(exponent)
        assert cross["rate_on_q_loglog"]["prefactor"] == repr(prefactor)

    def test_commands_read_only_the_graph_columns(self, tmp_path, multi_corpus, monkeypatch):
        def forbidden(columns):
            raise AssertionError(f"a command read a {type(columns).__name__} record view")

        for view in ("nodes", "internal_edges", "backward_lists"):
            monkeypatch.setattr(KnowledgeGraph, view, property(forbidden))
        for view in ("nodes", "citations"):
            monkeypatch.setattr(Corpus, view, property(forbidden))
        nodes, edges, table = multi_corpus
        corpus = ("--nodes", str(nodes), "--edges", str(edges))
        assert run(
            "simulate", "--q", "0.01", "--m1", "2", "--n", "300", "--out", str(tmp_path / "sim")
        ) == 0
        for mode in ("exact", "float"):
            assert run(
                "measure", *corpus, "--prefix", "A01", "--stride", "10", "--mode", mode,
                "--out", str(tmp_path / mode),
            ) == 0
        assert run(
            "sweep", *corpus, "--tech-table", str(table), "--stride", "10",
            "--out", str(tmp_path / "sweep"),
        ) == 0

    def test_byte_identical_reruns(self, tmp_path, multi_corpus):
        nodes, edges, table = multi_corpus
        outs = []
        for name in ("s1", "s2"):
            out = tmp_path / name
            assert run(
                "sweep", "--nodes", str(nodes), "--edges", str(edges),
                "--tech-table", str(table), "--stride", "10", "--out", str(out),
            ) == 0
            outs.append(out)
        names = sorted(path.name for path in outs[0].iterdir())
        assert names == ["cross_fits.csv", "meta.json", "sweep.csv"]
        assert sorted(path.name for path in outs[1].iterdir()) == names
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


class TestTableReaders:
    SERIES = "n,id,ipl,mipl,ed\n10,1.0,1.0,2,0.0\n20,1.5,2.0,3,0.0\n30,2.0,3.0,5,0.0\n"

    def _argv(self, tmp_path, reader, table):
        out = str(tmp_path / "out")
        if reader == "backlinks":
            series = tmp_path / "series.csv"
            series.write_text(self.SERIES)
            return ["fit", "--series", str(series), "--backlinks", str(table), "--out", out]
        if reader == "series":
            return ["fit", "--series", str(table), "--out", out]
        if reader == "fits":
            dist = tmp_path / "backlink_dist.csv"
            dist.write_text("n,m,count\n10,0,5\n10,1,5\n")
            return ["gof", "--backlink-dist", str(dist), "--fits", str(table), "--out", out]
        if reader == "nodes":
            edges = tmp_path / "edges.csv"
            edges.write_text("citing_id,cited_id,origin\n")
            return ["measure", "--nodes", str(table), "--edges", str(edges),
                    "--prefix", "X", "--out", out]
        if reader == "tech-table":
            # The table is read before the corpus, which need not exist.
            return ["sweep", "--nodes", "none.csv", "--edges", "none.csv",
                    "--tech-table", str(table), "--out", out]
        # Beside a valid table of the other kind, which gof reads too.
        other, text = {
            "backlink-dist": ("pathlen-dist", "n,k,count,normalized\n5,0,3,0.6\n5,1,2,0.4\n"),
            "pathlen-dist": ("backlink-dist", "n,m,count\n10,0,5\n10,1,5\n"),
        }[reader]
        (tmp_path / "other.csv").write_text(text)
        return ["gof", f"--{reader}", str(table), f"--{other}", str(tmp_path / "other.csv"),
                "--q", "0.01", "--m0", "1.0", "--out", out]

    @pytest.mark.parametrize(
        "reader, content, message",
        [
            ("series", "n,id,ipl,mipl\n10,1.0,1.0,2\n", ": missing column(s) ed"),
            ("series", SERIES.replace("20,", "2x,"), ":3: invalid literal"),
            ("series", SERIES.replace("20,1.5", "20,inf"), ":3: id must be finite, got inf"),
            ("series", SERIES.replace(",5,", ",nan,"), ":4: mipl must be finite, got nan"),
            ("series", SERIES.replace("30,", "5,"), ":4: n must rise from row to row, got 5 after 20"),
            ("series", SERIES.replace("30,", "20,"), ":4: n must rise from row to row, got 20 after 20"),
            ("series", SERIES.replace("10,", "-10,"), ":2: n must lie in [1, inf], got -10"),
            ("series", SERIES.replace("10,", "0,"), ":2: n must lie in [1, inf], got 0"),
            ("series", SERIES.replace(",2,", ",2.5,").replace(",3,", ",3.7,"),
             ":2: mipl must be a whole number in [0, 9], got 2.5"),
            ("series", SERIES.replace(",3,", ",-1,"),
             ":3: mipl must be a whole number in [0, 19], got -1.0"),
            ("series", SERIES.replace(",5,", ",30,"),
             ":4: mipl must be a whole number in [0, 29], got 30.0"),
            ("series", SERIES.replace("20,1.5", "20,-1.5"), ":3: id must not be negative, got -1.5"),
            ("series", SERIES.replace("5,0.0", "5,-0.5"), ":4: ed must not be negative, got -0.5"),
            ("series", SERIES.replace("2.0,3,", "4.0,3,"),
             ":3: ipl must lie in [0, 3.0], got 4.0"),
            ("series", SERIES.replace("1.0,1.0,", "1.0,-4.0,"),
             ":2: ipl must lie in [0, 2.0], got -4.0"),
            ("series", SERIES.rsplit("30,", 1)[0], ": need at least 3 rows to fit, got 2"),
            ("series", "n,id,ipl,mipl,ed\n", ": need at least 3 rows to fit, got 0"),
            ("series", SERIES.replace("20,1.5", "20,1e308"),
             ":3: id must be at most (n - 1)/2 = 9.5, got 1e+308"),
            ("series", SERIES.replace("20,1.5", "20,99999999999999999999999"),
             ":3: id must be at most (n - 1)/2 = 9.5, got 1e+23"),
            ("series", SERIES.replace("30,", f"{2**53 + 1},"),
             f":4: n must be at most 2**53, got {2**53 + 1}"),
            ("series", SERIES.replace("30,", f"{10**400},"),
             f":4: n must be at most 2**53, got {10**400}"),
            ("series", SERIES.replace("10,1.0", "10,2.0").replace("30,2.0", "30,1.0"),
             ": fitted id slope -0.05 is not positive"),
            ("fits", "quantity,intercept\nid,1.0\n", ": missing column(s) slope"),
            ("fits", "quantity,slope,intercept\nid,0.1,y\n", ":2: could not convert"),
            ("fits", "quantity,slope,intercept\nid,nan,1.0\n",
             ":2: id slope q must be positive and finite, got nan"),
            ("fits", "quantity,slope,intercept\nipl,-1,-1\nid,-0.5,1.0\n",
             ":3: id slope q must be positive and finite, got -0.5"),
            ("fits", "quantity,slope,intercept\nid,0.1,-5\n",
             ":2: id intercept m0 must be positive and finite, got -5.0"),
            ("fits", "quantity,slope,intercept\nid,0.1,1e-17\n",
             ":2: id intercept m0 must be large enough that m0 + 1 > 1, got 1e-17"),
            ("fits", "quantity,slope,intercept\nid,0.1,1.0\nipl,0.2,1.0\nid,0.2,2.0\n",
             ":4: repeated row for quantity id"),
            ("backlinks", "ordinal,node_id\n0,a\n", ": missing column(s) m"),
            ("backlinks", "ordinal,node_id,m\n0,a,0\n1,b,x\n", ":3: invalid literal"),
            ("backlinks", "ordinal,node_id,m\n0,a\n", ":2: too few fields"),
            ("backlinks", "ordinal,node_id,m\n0,a,0\n1,b,-3\n", ":3: m must lie in [0, 29]"),
            ("backlinks", f"ordinal,node_id,m\n0,a,0\n1,b,{10**400}\n",
             f":3: m must lie in [0, 29], got {10**400}"),
            ("backlinks", "ordinal,m\n0,0\n0,3\n5,1\n", ":3: duplicate ordinal 0"),
            ("backlinks", "ordinal,m\n0,0\n5,1\n", ": no row for ordinal 1 (28 of ordinals 0..29"),
            ("backlinks", "ordinal,m\n" + "".join(f"{i},{i % 2}\n" for i in range(30) if i != 17),
             ": no row for ordinal 17 (1 of ordinals 0..29 missing)"),
            ("backlinks", "ordinal,m\n0,0\n30,1\n", ":3: ordinal must lie in [0, 29], got 30"),
            ("backlinks", "ordinal,m\n-1,0\n", ":2: ordinal must lie in [0, 29], got -1"),
            ("backlinks", "ordinal,m\n1,1\n0,29\n", ":3: m must be at most ordinal 0, got 29"),
            ("backlink-dist", "n,m\n10,0\n", ": missing column(s) count"),
            ("backlink-dist", "n,m,count\n10,0,x\n", ":2: invalid literal"),
            ("backlink-dist", "n,m,count\n10,-1,5\n10,1,5\n", ":2: m must lie in [0, inf]"),
            ("backlink-dist", "n,m,count\n10,0,-5\n10,1,15\n", ":2: count must lie in [0, inf]"),
            ("backlink-dist", "n,m,count\n10,0,5\n10,1,4\n",
             ":2: histogram total 9 != prefix size 10"),
            ("backlink-dist", "n,m,count\n10,0,5\n4,0,3\n10,1,4\n4,1,2\n",
             ":2: histogram total 9 != prefix size 10"),
            ("backlink-dist", "n,m,count\n10,0,10\n\n4,0,3\n4,1,0\n",
             ":4: histogram total 3 != prefix size 4"),
            ("backlink-dist", f"n,m,count\n5,0,{10**400}\n",
             f":2: histogram total {10**400} != prefix size 5"),
            ("backlink-dist", "n,m,count\n5,0,4\n5,300000,1\n",
             ":3: m must be at most n - 1 = 4, got 300000"),
            ("backlink-dist", "n,m,count\n5,0,4\n5,5,1\n", ":3: m must be at most n - 1 = 4, got 5"),
            ("backlink-dist", "n,m,count\n0,0,0\n", ":2: n must lie in [1, inf], got 0"),
            ("backlink-dist", "n,m,count\n-2,0,1\n", ":2: n must lie in [1, inf], got -2"),
            ("backlink-dist", "n,m,count\n10,0,5\n10,1,5\n10,0,5\n",
             ":4: repeated row for n=10, m=0"),
            ("backlink-dist", "n,m,count\n", ": no rows"),
            ("pathlen-dist", "n,k,normalized\n5,0,1.0\n", ": missing column(s) count"),
            ("pathlen-dist", "n,k,count,normalized\n5,0,1,x\n", ":2: could not convert"),
            ("pathlen-dist", "n,k,count,normalized\n5,0,3,nan\n5,1,2,0.4\n",
             ":2: normalized must lie in [0, 1], got nan"),
            ("pathlen-dist", "n,k,count,normalized\n5,0,3,1.5\n",
             ":2: normalized must lie in [0, 1], got 1.5"),
            ("pathlen-dist", "n,k,count,normalized\n5,0,-3,0.6\n5,1,2,0.4\n",
             ":2: count must lie in [0, inf], got -3"),
            ("pathlen-dist", "n,k,count,normalized\n5,0,3,0.6\n5,1,nan,0.4\n",
             ":3: count must lie in [0, inf], got nan"),
            ("pathlen-dist", "n,k,count,normalized\n5,0,3,0.9\n5,1,2,0.9\n",
             ":2: normalized values at n=5 sum to 1.8, not 1"),
            ("pathlen-dist", "n,k,count,normalized\n5,0,3,0.6\n3,0,1,0.6\n5,1,2,0.4\n",
             ":3: normalized values at n=3 sum to 0.6, not 1"),
            ("pathlen-dist", "n,k,count,normalized\n5,0,3,0.6\n5,1,2,0.4\n3,1,0,1.0\n3,0,0,0.0\n",
             ":4: distribution at n=3 has no paths"),
            ("pathlen-dist", "n,k,count,normalized\n5,0,3,0.5\n5,3000000,3,0.5\n",
             ":3: k must be at most n - 1 = 4, got 3000000"),
            ("pathlen-dist", "n,k,count,normalized\n5,0,3,0.5\n5,5,3,0.5\n",
             ":3: k must be at most n - 1 = 4, got 5"),
            ("pathlen-dist", "n,k,count,normalized\n5,-1,3,0.5\n5,0,3,0.5\n",
             ":2: k must lie in [0, inf], got -1"),
            ("pathlen-dist", "n,k,count,normalized\n0,0,3,1.0\n", ":2: n must lie in [1, inf], got 0"),
            ("pathlen-dist", "n,k,count,normalized\n5,0,3,0.5\n5,1,3,0.5\n5,0,3,0.5\n",
             ":4: repeated row for n=5, k=0"),
            ("pathlen-dist", "n,k,count,normalized\n\n", ": no rows"),
            ("tech-table", "group_name\nalpha\n", ": missing column(s) prefix"),
            ("tech-table", "group_name,prefix\nalpha,A01\nbeta, \n", ":3: empty group_name"),
            ("series", SERIES + "40,2.0," + "9" * 140_000 + ",5,0.0\n",
             ":5: field larger than field limit"),
            ("nodes", "node_id,year,classes\nA,2000,X\nB,2001," + "X" * 140_000 + "\n",
             ":3: field larger than field limit"),
        ],
        ids=[
            "series-missing", "series-bad", "series-inf-id", "series-nan-mipl",
            "series-n-falls", "series-n-repeats", "series-n-negative", "series-n-zero",
            "series-fractional-mipl", "series-negative-mipl", "series-mipl-past-n",
            "series-negative-id", "series-negative-ed", "series-ipl-past-mipl",
            "series-negative-ipl", "series-two-rows", "series-no-rows",
            "series-id-past-bound", "series-id-past-int64", "series-n-past-2-53",
            "series-n-past-float", "series-id-falls",
            "fits-missing", "fits-bad", "fits-nan-slope", "fits-negative-slope",
            "fits-negative-intercept", "fits-tiny-intercept", "fits-repeated-id",
            "backlinks-missing", "backlinks-bad", "backlinks-short", "backlinks-negative-m",
            "backlinks-m-past-float",
            "backlinks-duplicate-ordinal", "backlinks-missing-ordinals",
            "backlinks-missing-ordinal",
            "backlinks-ordinal-past-series", "backlinks-negative-ordinal",
            "backlinks-m-past-ordinal",
            "backlink-dist-missing", "backlink-dist-bad",
            "backlink-dist-negative-m", "backlink-dist-negative-count", "backlink-dist-total",
            "backlink-dist-first-total-in-file", "backlink-dist-total-of-a-later-n",
            "backlink-dist-count-past-float",
            "backlink-dist-m-far-past-n", "backlink-dist-m-at-n", "backlink-dist-n-zero",
            "backlink-dist-n-negative", "backlink-dist-repeated", "backlink-dist-no-rows",
            "pathlen-dist-missing", "pathlen-dist-bad",
            "pathlen-dist-nan-normalized", "pathlen-dist-normalized-above-1",
            "pathlen-dist-negative-count", "pathlen-dist-nan-count",
            "pathlen-dist-normalized-sum", "pathlen-dist-sum-of-a-later-n",
            "pathlen-dist-no-paths", "pathlen-dist-k-far-past-n", "pathlen-dist-k-at-n",
            "pathlen-dist-k-negative",
            "pathlen-dist-n-zero", "pathlen-dist-repeated", "pathlen-dist-no-rows",
            "tech-table-missing", "tech-table-empty",
            "series-overlong-field", "nodes-overlong-field",
        ],
    )
    def test_bad_table_exit_2_naming_the_file(self, tmp_path, capsys, reader, content, message):
        table = tmp_path / "table.csv"
        table.write_text(content)
        assert run(*self._argv(tmp_path, reader, table)) == 2
        assert f"{table}{message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "reader, content",
        [
            ("series", SERIES.replace("20,1.5", "20,inf")),
            ("series", SERIES.replace(",5,", ",inf,")),
            ("series", SERIES.replace("20,1.5", "20,1e308")),
            ("series", SERIES.replace("20,1.5", "20,99999999999999999999999")),
            ("backlink-dist", "n,m,count\n10,-1,5\n10,1,5\n"),
            ("pathlen-dist", "n,k,count,normalized\n5,0,3,nan\n5,1,2,0.4\n"),
            ("pathlen-dist", "n,k,count,normalized\n5,0,3,0.9\n5,1,2,0.9\n"),
        ],
        ids=[
            "series-inf-id", "series-inf-mipl", "series-huge-id", "series-id-past-int64",
            "backlink-dist-negative-m", "pathlen-dist-nan",
            "pathlen-dist-normalized-sum",
        ],
    )
    def test_bad_value_raises_no_warning(self, tmp_path, capsys, recwarn, reader, content):
        table = tmp_path / "table.csv"
        table.write_text(content)
        assert run(*self._argv(tmp_path, reader, table)) == 2
        err = capsys.readouterr().err
        assert f"{table}:" in err
        assert "Warning" not in err
        assert not recwarn.list

    @pytest.mark.parametrize(
        "reader, content, message",
        [
            ("series", SERIES.encode() + b"40,2.5,\xff,6,0.0\n", ":5: not UTF-8"),
            ("tech-table", b"group_name,prefix\nalpha,A01\nbeta,B\xe90\n", ":3: not UTF-8"),
            ("nodes", b"node_id,year,classes\r\nA,2000,X\r\nB,2001,\xc3\n", ":3: not UTF-8"),
            # Past one 8 KB read chunk, and lacking the intercept column: the
            # bad byte is still the error reported.
            ("fits", b"quantity,slope\n" + b"ipl,0.5\n" * 2000 + b"id,0.\xff1\n",
             ":2002: not UTF-8 (invalid start byte)"),
        ],
        ids=["series", "tech-table", "nodes", "fits-past-8KB-missing-column"],
    )
    def test_undecodable_table_exit_2_naming_the_line(
        self, tmp_path, capsys, reader, content, message
    ):
        table = tmp_path / "table.csv"
        table.write_bytes(content)
        assert run(*self._argv(tmp_path, reader, table)) == 2
        assert f"{table}{message}" in capsys.readouterr().err

    def test_backlinks_error_names_the_series(self, tmp_path, capsys):
        table = tmp_path / "backlinks.csv"
        table.write_text("ordinal,m\n0,0\n30,1\n")
        assert run(*self._argv(tmp_path, "backlinks", table)) == 2
        assert capsys.readouterr().err == (
            f"cumuldyn: {table}:3: ordinal must lie in [0, 29], got 30 "
            f"(for {tmp_path / 'series.csv'}, which ends at n = 30)\n"
        )

    def test_byte_order_mark_is_skipped(self, tmp_path):
        table = tmp_path / "series.csv"
        table.write_text("\ufeff" + self.SERIES, encoding="utf-8")
        assert run(*self._argv(tmp_path, "series", table)) == 0
        fits = {r["quantity"]: r for r in read_csv(tmp_path / "out" / "fits.csv")}
        assert float(fits["id"]["slope"]) == pytest.approx(0.05)


# Cells a random table's faults are drawn from: text, blanks, values out of
# range, nan and infinities, a float past float range, an int past int64.
_TOKENS = [
    "x", "", "0", "-1", "-0", "1", "2", "99", "0.5", "1.5", "2.0", "nan", "inf",
    "-inf", "1e400", " 3 ", str(2**70),
]


@st.composite
def _tables(draw, reader):
    """A table for ``reader`` as text, and the n the backlinks reader takes.

    The table starts valid, rows of all prefix sizes interleaved; then up to
    two faults are injected (a cell replaced, a row repeated, dropped or cut
    short) and blank lines and a byte-order mark may be added.
    """
    finite = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    n_final = 0
    if reader == "series":
        header = "n,id,ipl,mipl,ed"
        steps = draw(st.lists(st.integers(1, 5), min_size=3, max_size=6))
        rate = st.floats(0, allow_infinity=False).map(repr)
        rows = []
        for n in np.cumsum(steps).tolist():
            # One row in ten has a mipl out of range or not whole, an id past
            # its bound or an ipl past its mipl; the others are valid.
            odd = draw(st.sampled_from([*[None] * 27, "mipl", "id", "ipl"]))
            mipl = draw(st.sampled_from([n, 2.5, -1]) if odd == "mipl" else st.integers(0, n - 1))
            id_ = draw(rate if odd == "id" else st.floats(0, (n - 1) / 2).map(repr))
            mean = finite if odd == "ipl" else st.floats(0, max(mipl, 0)).map(repr)
            # A valid whole mipl may be spelled as a float, which both readers take.
            spelled = str(mipl) if odd == "mipl" else draw(st.sampled_from([str(mipl), f"{mipl}.0"]))
            rows.append([str(n), id_, draw(mean), spelled, draw(rate)])
    elif reader == "backlinks":
        header = "ordinal,m"
        n_final = draw(st.integers(1, 8))
        ordinals = draw(st.permutations(range(n_final)))
        rows = [[str(i), str(draw(st.integers(0, i)))] for i in ordinals]
    else:
        ns = draw(st.lists(st.integers(1, 7), min_size=1, max_size=4, unique=True))
        rows = []
        for n in ns:
            if reader == "backlink-dist":
                links = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
                rows += [[str(n), str(m), str(links.count(m))] for m in sorted(set(links))]
                continue
            ks = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
            counts = draw(st.lists(
                st.one_of(st.integers(0, 50), st.just(2**70), st.floats(0, 1e300)),
                min_size=len(ks), max_size=len(ks),
            ))
            total = sum(counts) or 1
            rows += [[str(n), str(k), str(c), repr(c / total)] for k, c in zip(ks, counts)]
        header = "n,m,count" if reader == "backlink-dist" else "n,k,count,normalized"
        rows = draw(st.permutations(rows))
    for _ in range(draw(st.integers(0, 2))):
        if not rows:
            break
        row = draw(st.integers(0, len(rows) - 1))
        fault = draw(st.sampled_from(["cell", "cell", "repeat", "drop", "short"]))
        if not rows[row]:  # a row already cut to nothing reads as a blank line
            continue
        if fault == "cell":
            rows[row] = list(rows[row])
            rows[row][draw(st.integers(0, len(rows[row]) - 1))] = draw(st.sampled_from(_TOKENS))
        elif fault == "repeat":
            rows.insert(draw(st.integers(row + 1, len(rows))), rows[row])
        elif fault == "drop":
            del rows[row]
        else:
            rows[row] = rows[row][: draw(st.integers(0, len(rows[row]) - 1))]
    lines = [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), "")
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + "\n".join([header, *lines]) + "\n", n_final


class TestColumnarReadersMatchReference:
    """The columnar readers against the row-by-row ones they replaced."""

    @pytest.mark.parametrize("reader", ["series", "backlinks", "backlink-dist", "pathlen-dist"])
    @settings(max_examples=250, derandomize=True, database=None, deadline=None)
    @given(data=st.data())
    def test_same_values_or_same_error(self, reader, data, tmp_path_factory):
        from cumuldyn.cli import (
            _load_backlink_dists, _load_backlinks, _load_pathlen_dists, _load_series,
        )
        from conftest import reference_load_backlinks, reference_load_series

        text, n_final = data.draw(_tables(reader))
        path = tmp_path_factory.mktemp("table") / "table.csv"
        path.write_text(text, encoding="utf-8")
        load, reference = {
            "series": (_load_series, reference_load_series),
            "backlinks": (
                lambda p: _load_backlinks(p, n_final),
                lambda p: reference_load_backlinks(p, n_final),
            ),
            "backlink-dist": (_load_backlink_dists, reference_load_backlink_dists),
            "pathlen-dist": (_load_pathlen_dists, reference_load_pathlen_dists),
        }[reader]
        try:
            expected = reference(str(path))
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                load(str(path))
            assert str(raised.value) == str(exc)
            return
        found = load(str(path))
        if reader in ("series", "backlinks"):
            assert found == expected
            return
        records = [expected[n] for n in sorted(expected)]
        assert found.ns == sorted(expected)
        for row, record in enumerate(records):
            lo, hi = found.bounds[row], found.bounds[row + 1]
            values = found.counts if reader == "backlink-dist" else found.normalized
            keys = found.links if reader == "backlink-dist" else found.lengths
            entries = record.counts if reader == "backlink-dist" else record.normalized
            assert dict(zip(keys[lo:hi].tolist(), values[lo:hi].tolist())) == entries
        if reader == "backlink-dist":
            params = ModelParams(q=0.05, m1=2.0)
            expected = geometric_gof(BacklinkTable.from_hists(records), params)
            assert repr(geometric_gof(found, params)) == repr(expected)
            return
        # Every sum over an n's rows, and so every fit, to the last bit.
        table = PathLengthTable.from_dists(records)
        assert repr(found) == repr(table)
        for family in PATHLENGTH_FAMILIES:
            assert repr(pathlength_gof(found, family)) == repr(pathlength_gof(table, family))

    def test_first_short_row_is_reported(self, tmp_path):
        # Of two short rows, the later lacks more fields: the earlier is reported.
        from cumuldyn.cli import _load_backlink_dists

        path = tmp_path / "backlink_dist.csv"
        path.write_text("n,m,count\n2,0,1\n2,1\n2\n")
        with pytest.raises(ValueError) as raised:
            reference_load_backlink_dists(str(path))
        assert str(raised.value).endswith(":3: too few fields")
        with pytest.raises(ValueError, match=":3: too few fields"):
            _load_backlink_dists(str(path))


class TestTablesFromRecordsMatchTheFiles:
    """The tables built from measured checkpoints equal, to the last bit, the
    tables gof reads from the files measure writes for them."""

    @pytest.mark.parametrize(
        "graph, stride, mode",
        [
            ("simulated", 12, "exact"), ("simulated", 12, "float"),
            # 9e20 paths over 100 lengths: some length's count passes 2**53,
            # where exact mode goes on in the packed tail.
            ("fibonacci-100", 7, "exact"),
            ("fibonacci-1600", 400, "float"),  # inf counts
        ],
    )
    def test_same_tables(self, tmp_path, graph, stride, mode):
        if graph == "simulated":
            assert run("simulate", "--q", "0.006", "--m1", "3", "--n", "600", "--seed", "1",
                       "--out", str(tmp_path)) == 0
            nodes, edges, prefix = tmp_path / "nodes.csv", tmp_path / "edges.csv", "SIM"
        else:
            nodes, edges = two_predecessor_corpus(tmp_path, int(graph.split("-")[1]))
            prefix = "FIB"
        out = tmp_path / "measured"
        assert run("measure", "--nodes", str(nodes), "--edges", str(edges), "--prefix", prefix,
                   "--stride", str(stride), "--mode", mode, "--out", str(out)) == 0
        query = TechnologyQuery("t", [prefix])
        checkpoints = measure_checkpoints(
            build_graph(load_corpus(str(nodes), str(edges)), query)[0], stride, mode
        )
        hists = BacklinkTable.from_hists(cp.backlink_dist for cp in checkpoints)
        assert repr(hists) == repr(_load_backlink_dists(str(out / "backlink_dist.csv")))
        dists = PathLengthTable.from_dists(cp.path_dist for cp in checkpoints)
        assert repr(dists) == repr(_load_pathlen_dists(str(out / "pathlen_dist.csv")))
        if graph != "simulated":
            assert max(dists.samples) > 9e20 if mode == "exact" else math.inf in dists.samples


@pytest.fixture(scope="module")
def measured_tables(tmp_path_factory):
    """The text of each table that fit and gof read, as the commands write it."""
    root = tmp_path_factory.mktemp("measured")
    assert run("simulate", "--q", "0.05", "--m1", "2", "--n", "40", "--seed", "3",
               "--out", str(root / "sim")) == 0
    assert run("measure", "--nodes", str(root / "sim" / "nodes.csv"),
               "--edges", str(root / "sim" / "edges.csv"), "--prefix", "SIM", "--stride", "5",
               "--out", str(root / "measured")) == 0
    assert run("fit", "--series", str(root / "measured" / "series.csv"),
               "--out", str(root / "fit")) == 0
    tables = {path.name: path.read_text(encoding="utf-8") for path in (root / "measured").iterdir()
              if path.suffix == ".csv"}
    return {**tables, "fits.csv": (root / "fit" / "fits.csv").read_text(encoding="utf-8")}


# Faults a mutation test puts in one valid table: one cell set to one of
# these, or one row repeated, dropped or cut short.
MUTATED_CELLS = [
    "", "0", "nan", "inf", "-inf", "1e400", "1e308", "1e-320", str(10**23), str(10**400), "-1",
    "1.5", "x", "\ufeff",
]
MUTATIONS = st.sampled_from(["cell", "cell", "cell", "repeat", "drop", "short"])


def _mutate(text: str, fault: str, row: int, column: int, cell: str) -> str:
    """``text``, a CSV table, with ``fault`` at data row ``row`` (modulo the rows)."""
    header, *rows = (line.split(",") for line in text.splitlines())
    row %= len(rows)
    if fault == "cell":
        rows[row][column % len(header)] = cell
    elif fault == "repeat":
        rows.insert(row, rows[row])
    elif fault == "drop":
        del rows[row]
    else:
        del rows[row][1 + column % (len(header) - 1):]
    return "".join(",".join(cells) + "\n" for cells in [header, *rows])


def _run_capturing(argv: list[str]) -> tuple[int, str]:
    """``main(argv)``'s exit code and stderr, with every warning raised written to it.

    An exception out of main fails the test as the traceback it would print.
    """
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return code, err.getvalue()


class TestMutatedTables:
    """One fault in a valid table: exit 0, or exit 2 naming the table; never a
    traceback or a raw warning."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        name=st.sampled_from(
            ["series.csv", "backlinks.csv", "backlink_dist.csv", "pathlen_dist.csv", "fits.csv"]
        ),
        fault=MUTATIONS,
        row=st.integers(0, 1000),
        column=st.integers(0, 5),
        cell=st.sampled_from(MUTATED_CELLS),
    )
    # The series faults that once ended in raw warnings or an error naming no file.
    @example(name="series.csv", fault="cell", row=5, column=1, cell="1e308")
    @example(name="series.csv", fault="cell", row=5, column=1, cell=str(10**23))
    def test_exit_0_or_2_naming_the_table(
        self, measured_tables, tmp_path_factory, name, fault, row, column, cell
    ):
        directory = tmp_path_factory.mktemp("mutated")
        for table, text in measured_tables.items():
            (directory / table).write_text(text, encoding="utf-8")
        path = directory / name
        path.write_text(_mutate(measured_tables[name], fault, row, column, cell), encoding="utf-8")
        if name in ("series.csv", "backlinks.csv"):
            argv = ["fit", "--series", str(directory / "series.csv")]
        else:
            argv = [
                "gof", "--backlink-dist", str(directory / "backlink_dist.csv"),
                "--pathlen-dist", str(directory / "pathlen_dist.csv"),
                "--fits", str(directory / "fits.csv"),
                "--families", ",".join(PATHLENGTH_FAMILIES),
            ]
        code, stderr = _run_capturing([*argv, "--out", str(directory / "out")])
        assert code in (0, 2), stderr
        assert "Traceback" not in stderr and "Warning" not in stderr, stderr
        if code == 2:
            assert str(path) in stderr, stderr


@pytest.fixture(scope="module")
def corpus_tables():
    """The text of a corpus of three dated technologies, citing within and across
    them, and of the tech table that names them."""
    rng = np.random.default_rng(5)
    nodes, edges = ["node_id,year,classes,granted"], ["citing_id,cited_id,origin"]
    for i in range(60):
        nodes.append(f"N{i:02d},{2000 + i // 6},{'ABC'[i % 3]}0{i % 3} 1/{i % 4},{i % 5 > 0}")
        cited = np.flatnonzero(rng.random(i) < 0.15).tolist()
        edges += [f"N{i:02d},N{j:02d},{('APP', 'EXA', '')[j % 3]}" for j in cited]
    return {
        "nodes.csv": "\n".join(nodes) + "\n",
        "edges.csv": "\n".join(edges) + "\n",
        "techs.csv": "group_name,prefix\nalpha,A00\nbeta,B01\ngamma,C02\nab,A\nab,B\n",
    }


class TestMutatedCorpus:
    """One fault in a valid corpus or tech table: measure and sweep exit 0, or exit
    2 naming the file, or the query that then matches no node; never a traceback
    or a raw warning."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        command=st.sampled_from(["measure", "sweep"]),
        name=st.sampled_from(["nodes.csv", "edges.csv", "techs.csv"]),
        fault=MUTATIONS,
        row=st.integers(0, 1000),
        column=st.integers(0, 3),
        cell=st.sampled_from(MUTATED_CELLS),
    )
    def test_exit_0_or_2_naming_the_file(
        self, corpus_tables, tmp_path_factory, command, name, fault, row, column, cell
    ):
        directory = tmp_path_factory.mktemp("mutated")
        for table, text in corpus_tables.items():
            (directory / table).write_text(text, encoding="utf-8")
        path = directory / name
        path.write_text(_mutate(corpus_tables[name], fault, row, column, cell), encoding="utf-8")
        corpus = ["--nodes", str(directory / "nodes.csv"), "--edges", str(directory / "edges.csv")]
        if command == "measure" and name != "techs.csv":
            argv = ["measure", *corpus, "--name", "alpha", "--prefix", "A00", "--stride", "4"]
        else:
            argv = ["sweep", *corpus, "--tech-table", str(path.with_name("techs.csv")),
                    "--stride", "4"]
        code, stderr = _run_capturing([*argv, "--out", str(directory / "out")])
        assert code in (0, 2), stderr
        assert "Traceback" not in stderr and "Warning" not in stderr, stderr
        if code == 2:
            assert str(path) in stderr or "' matches zero nodes" in stderr, stderr


SIMULATE_CONFIG = ("q=0.01", "m1=2", "n=50", "seed=5")
# How simulate reads each of its config keys that meta.json records.
SIMULATE_KINDS = {"q": float, "m1": float, "n": int, "seed": int}


class TestMutatedConfig:
    """One fault in a valid simulate config: exit 0 with each config value in
    meta.json as read, 2 or 3; an exit 2 naming the config file and line or a
    flag, and the line of a key that is no flag of simulate; never a traceback,
    a raw warning or a file written outside --out."""

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(
        fault=st.sampled_from(
            ["value", "value", "value", "key", "add", "no equals", "repeat", "drop", "bom"]
        ),
        row=st.integers(0, 1000),
        key=st.sampled_from(["unknown", "config", "out", "help", "granted_only"]),
        value=st.sampled_from([*MUTATED_CELLS, "true", "false"]),
    )
    def test_exit_0_2_or_3_naming_the_file_or_flag(
        self, tmp_path_factory, fault, row, key, value
    ):
        lines = list(SIMULATE_CONFIG)
        row %= len(lines)
        name, _, old = lines[row].partition("=")
        if fault == "value":
            lines[row] = f"{name}={value}"
        elif fault == "key":
            lines[row] = f"{key}={old}"
        elif fault == "add":
            lines.insert(row, f"{key}={value}")
        elif fault == "no equals":
            lines[row] = name + old
        elif fault == "repeat":
            lines.insert(row, lines[row])
        elif fault == "drop":
            del lines[row]
        else:
            lines[row] = "\ufeff" + lines[row]
        directory = tmp_path_factory.mktemp("config")
        cfg = directory / "run.cfg"
        cfg.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        work = directory / "work"
        work.mkdir()
        with contextlib.chdir(work):
            code, stderr = _run_capturing(["simulate", "--config", str(cfg), "--out", "out"])
        assert code in (0, 2, 3), stderr
        assert "Traceback" not in stderr and "Warning" not in stderr, stderr
        assert [path.name for path in work.iterdir()] in ([], ["out"])
        # The lines as read: a byte-order mark opening the file is no part of them.
        read = [line.partition("=") for line in cfg.read_text(encoding="utf-8-sig").splitlines()]
        keys = [k for k, _, _ in read]
        foreign = [
            line for line, (k, eq, _) in enumerate(read, 1)
            if eq and k not in [*SIMULATE_KINDS, "out"]
        ]
        if foreign:
            assert code == 2 and f"{cfg}:{foreign[0]}: " in stderr, stderr
        elif code == 0:
            params = json.loads((work / "out" / "meta.json").read_text())["params"]
            for k, _, v in read:
                if k in SIMULATE_KINDS:
                    assert params[k] == SIMULATE_KINDS[k](v), (k, v)
        elif code == 2:
            flags = [f"--{key}" for key in [*keys, "q", "m1", "n", "seed", "out", "config"]]
            assert f"{cfg}:" in stderr or any(flag in stderr for flag in flags), stderr


class TestConfigFile:
    def test_config_supplies_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q=0.01\nm1=2\nn=50\nseed=5\n")
        out = tmp_path / "out"
        assert run("simulate", "--config", str(cfg), "--out", str(out)) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["params"]["q"] == 0.01
        assert meta["params"]["seed"] == 5

    def test_flags_win_over_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q=0.01\nm1=2\nn=50\nseed=5\n")
        out = tmp_path / "out"
        assert run(
            "simulate", "--config", str(cfg), "--seed", "9", "--out", str(out)
        ) == 0
        meta = json.loads((out / "meta.json").read_text())
        assert meta["params"]["seed"] == 9

    def test_prefix_flag_drops_the_config_prefix(self, tmp_path):
        nodes, edges = two_predecessor_corpus(tmp_path, 12)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"nodes={nodes}\nedges={edges}\nprefix=NONE\nstride=4\n")
        out = tmp_path / "out"
        assert run("measure", "--config", str(cfg), "--prefix", "FIB", "--out", str(out)) == 0
        assert json.loads((out / "meta.json").read_text())["params"]["prefixes"] == ["FIB"]

    def test_values_are_taken_as_written(self, tmp_path):
        # Only a switch reads true or false; any other flag takes the word itself.
        nodes, edges = two_predecessor_corpus(tmp_path, 12)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"nodes={nodes}\nedges={edges}\nprefix=FIB\nname=false\ngranted_only=false\n"
        )
        out = tmp_path / "out"
        assert run("measure", "--config", str(cfg), "--out", str(out)) == 0
        params = json.loads((out / "meta.json").read_text())["params"]
        assert (params["technology"], params["granted_only"]) == ("false", False)

    def test_non_integer_seed_exit_2_naming_the_flag(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q=0.01\nm1=2\nn=50\nseed=false\n")
        assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert "argument --seed: invalid int value: 'false'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("unknown=1", "unknown key 'unknown' for measure"),
            ("\ufeffedges=e.csv", "unknown key '\\ufeffedges' for measure"),
            ("help=true", "unknown key 'help' for measure"),
            ("config=x", "unknown key 'config' for measure"),
            ("granted_only=yes", "--granted-only is true or false, got 'yes'"),
        ],
    )
    def test_bad_key_or_switch_exit_2_naming_the_line(self, tmp_path, capsys, line, message):
        # The config is read before any table, so the corpus need not exist.
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"nodes=n.csv\n{line}\nprefix=A\n", encoding="utf-8")
        assert run("measure", "--config", str(cfg), "--edges", "e.csv",
                   "--out", str(tmp_path / "o")) == 2
        assert f"{cfg}:2: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_bad_config_line_exit_2(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n")
        assert run("simulate", "--config", str(cfg), "--q", "0.1", "--m1", "2",
                   "--n", "5", "--out", str(tmp_path / "o")) == 2

    def test_byte_order_mark_is_skipped(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xef\xbb\xbfq=0.01\nm1=2\nn=50\nseed=5\n")
        out = tmp_path / "out"
        assert run("simulate", "--config", str(cfg), "--out", str(out)) == 0
        assert json.loads((out / "meta.json").read_text())["params"]["q"] == 0.01

    def test_undecodable_config_exit_2_naming_the_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"q=0.01\r\nm1=2\r\nn=\xff50\r\n")
        assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert f"{cfg}:3: not UTF-8" in capsys.readouterr().err

    def test_undecodable_config_past_8kb_reports_the_byte_first(self, tmp_path, capsys):
        # The unknown key on line 1 would be reported first by a reader that
        # decodes the file in 8 KB chunks as it goes.
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"nosuchkey=1\n" + b"# padding\n" * 3000 + b"q=0.\xff01\n")
        assert cfg.stat().st_size > 8192
        assert run("simulate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert capsys.readouterr().err == (
            f"cumuldyn: {cfg}:3002: not UTF-8 (invalid start byte)\n"
        )

    @pytest.mark.parametrize("argv", [("--config", "--out", "o"), ("--out", "o", "--config")])
    def test_config_without_a_path_exit_2(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        assert run("simulate", *argv) == 2
        assert "argument --config: expected one argument" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("paths", [("-1",), ("a.cfg", "b.cfg")])
    def test_config_path_read_as_a_flag_or_given_twice_exit_2(
        self, tmp_path, capsys, monkeypatch, paths
    ):
        monkeypatch.chdir(tmp_path)
        for path in paths:
            (tmp_path / path).write_text("seed=5\n")
        configs = [token for path in paths for token in ("--config", path)]
        flags = ("--q", "0.01", "--m1", "2", "--n", "5", "--out", "o")
        assert run("simulate", *configs, *flags) == 2
        assert "--config takes one path" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_empty_out_exit_2(self, tmp_path, capsys, monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("q=0.01\nm1=2\nn=5\nout=\n")
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert run("simulate", "--config", str(cfg)) == 2
        assert "argument --out: expected a directory, got ''" in capsys.readouterr().err
        assert not any(work.iterdir())

    def test_missing_config_exit_3(self, tmp_path):
        assert run("simulate", "--config", str(tmp_path / "none.cfg"),
                   "--q", "0.1", "--m1", "2", "--n", "5",
                   "--out", str(tmp_path / "o")) == 3
