"""Pinned outputs: the SHA-256 of every table a small pipeline writes, and its meta.json files.

The digests were recorded from the row-by-row table readers that the
columnar ones replaced, so the tables ``fit`` and ``gof`` write from the
CLI's own tables must stay byte for byte the same.  The ``gof`` digests
were recorded once the very same tables matched scipy's special functions
cell by cell (``test_gof_tables_match_scipy``).
"""

from __future__ import annotations

import csv
import hashlib
import json
import warnings
from collections import defaultdict
from pathlib import Path

import pytest

from cumuldyn.cli import main
from cumuldyn.core import ModelParams

from conftest import (
    reference_geometric_gof,
    reference_load_backlink_dists,
    reference_load_pathlen_dists,
    reference_pathlength_gof,
    scipy_special,
)

FAMILIES = "binomial-type,poisson,normal,binomial"

# The float tables hold the same counts as the exact ones, written as
# floats, so both modes fit and check alike.
FIT = {
    "fits.csv": "57c5723b11e12fd387b4b9970c49ab4dcd9cc16d3b26383bc272e0e6f8549573",
    "rates.csv": "34ce3daa144cbd6659eaa3b4b3d1273c085ff63e192fe467b32d3084ae4288b0",
}
GOF = {
    "gof_points.csv": "4812fffab9d41fc127c05615cd409692dfdf7727363558c09b316bb34a43f383",
    "gof_summary.csv": "28f0454b94b5cb6bf2cdf264b07f85c90dfe07dbc123758c10076fc55e05f9c2",
}
MEASURED = {
    "backlink_dist.csv": "00944ab2d07d67e88f45b13ac601325eb2c30d0cf30c931a623f4bdbad6aa670",
    "backlinks.csv": "9930431c52d0b458586704d39c8b33e52c10df3342cdf496f91365b63f2d6655",
    "series.csv": "a0555402d1d7ec9d0edfe40430248f9594f971ddb7b5dcb084c63d1b1e7f7ea9",
}
PIPELINE = {
    "sim": {
        "edges.csv": "dae933b44a3c8ef362107e0e7bb541171d951ea2ccd7219a449717ac706df41e",
        "nodes.csv": "96e70372c74bb5a9dc94ff5b967e5aa680be7bfedbb913fbe5176035a4fe921f",
    },
    "measure-exact": {
        **MEASURED,
        "pathlen_dist.csv": "5d5374cca930fc1b664bfbbf0ff6b194e0d0c6f393e382dfe54ee9efec2255d9",
    },
    "measure-float": {
        **MEASURED,
        "pathlen_dist.csv": "66d87b2c5e8231bf4f0e432898db41eb90abf1a3e3af91b1f53ed483504ace2f",
    },
    "fit-exact": FIT,
    "fit-float": FIT,
    "gof-exact": GOF,
    "gof-float": GOF,
}

HAND_WRITTEN = {
    "gof_points.csv": "ef57d72aed7a81e49bb3696ded49c0ede7e4a8b26c7e5367312dc56844e9066f",
    "gof_summary.csv": "846b194aa844056578f7e8990b05796293439f5f8136e3f387b174d508ad5e74",
}

# Rows out of order, a gap in k (and m), a blank line and a byte-order mark.
# n=30 lists k=3 first: its ipl, 3 * 0.3 + 0.0 + 0.6, is summed in file order.
PATHLEN_DIST = (
    "\ufeffn,k,count,normalized\n"
    "20,2,300,0.25\n"
    "10,0,40,0.5\n"
    "30,3,30,0.3\n"
    "20,0,600,0.5\n"
    "\n"
    "10,1,40,0.5\n"
    "30,0,10,0.1\n"
    "20,3,300,0.25\n"
    "30,1,60,0.6\n"
)
BACKLINK_DIST = (
    "\ufeffn,m,count\n"
    "20,3,5\n"
    "10,0,6\n"
    "20,0,10\n"
    "\n"
    "10,1,4\n"
    "20,1,5\n"
)


def _digests(out: Path) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}


def _simulate(tmp_path: Path) -> Path:
    sim = tmp_path / "sim"
    assert main([
        "simulate", "--q", "0.006", "--m1", "3", "--n", "300", "--seed", "1", "--out", str(sim),
    ]) == 0
    return sim


def _measure_fit_gof(tmp_path: Path, sim: Path, mode: str) -> tuple[Path, Path, Path]:
    measured, fitted, checked = (tmp_path / f"{step}-{mode}" for step in ("measure", "fit", "gof"))
    assert main([
        "measure", "--nodes", str(sim / "nodes.csv"), "--edges", str(sim / "edges.csv"),
        "--prefix", "SIM", "--stride", "12", "--mode", mode, "--out", str(measured),
    ]) == 0
    assert main(["fit", "--series", str(measured / "series.csv"), "--out", str(fitted)]) == 0
    assert main([
        "gof", "--backlink-dist", str(measured / "backlink_dist.csv"),
        "--pathlen-dist", str(measured / "pathlen_dist.csv"),
        "--fits", str(fitted / "fits.csv"), "--families", FAMILIES, "--out", str(checked),
    ]) == 0
    return measured, fitted, checked


def _hand_written_gof(tmp_path: Path) -> Path:
    (tmp_path / "pathlen_dist.csv").write_text(PATHLEN_DIST, encoding="utf-8")
    (tmp_path / "backlink_dist.csv").write_text(BACKLINK_DIST, encoding="utf-8")
    out = tmp_path / "gof"
    assert main([
        "gof", "--backlink-dist", str(tmp_path / "backlink_dist.csv"),
        "--pathlen-dist", str(tmp_path / "pathlen_dist.csv"),
        "--q", "0.05", "--m0", "1.0", "--families", FAMILIES, "--out", str(out),
    ]) == 0
    return out


def test_pipeline_tables_are_pinned(tmp_path):
    sim = _simulate(tmp_path)
    found = {"sim": _digests(sim)}
    for mode in ("exact", "float"):
        for out in _measure_fit_gof(tmp_path, sim, mode):
            found[out.name] = _digests(out)
    assert found == PIPELINE


def test_hand_written_tables_are_pinned(tmp_path):
    assert _digests(_hand_written_gof(tmp_path)) == HAND_WRITTEN


# Each meta.json of the pinned pipeline, with the paths it records relative
# to the run's directory.
INGESTED = {
    "dropped_non_backward": 0, "duplicates_collapsed": 0, "external_links": 0,
    "ignored_citations": 0, "internal_edges": 818, "matched_nodes": 300,
}
CORPUS_PARAMS = {
    "nodes": "sim/nodes.csv", "edges": "sim/edges.csv", "year_cutoff": None, "origin": "all",
    "granted_only": False, "stride": 12,
}
RELEASE = {"package": "cumuldyn", "version": "0.1.0"}


def _pinned_meta(mode: str) -> dict[str, dict]:
    tables = ["backlink_dist.csv", "backlinks.csv", "pathlen_dist.csv", "series.csv"]
    return {
        f"measure-{mode}": {
            **RELEASE, "command": "measure", "tables": tables, "engine": {"mode": mode},
            "diagnostics": {**INGESTED, "self_citations_dropped": 0},
            "params": {
                **CORPUS_PARAMS, "mode": mode, "technology": "technology", "prefixes": ["SIM"]
            },
        },
        f"fit-{mode}": {
            **RELEASE, "command": "fit", "tables": ["fits.csv", "rates.csv"], "diagnostics": {},
            "params": {
                "series": f"measure-{mode}/series.csv",
                "backlinks": f"measure-{mode}/backlinks.csv",
                "n_final": 300,
            },
        },
        f"gof-{mode}": {
            **RELEASE, "command": "gof", "tables": ["gof_points.csv", "gof_summary.csv"],
            "diagnostics": {}, "warnings": [],
            "params": {
                "q": 0.003154433970095076, "m0": 1.8593159829211177,
                "backlink_dist": f"measure-{mode}/backlink_dist.csv",
                "pathlen_dist": f"measure-{mode}/pathlen_dist.csv",
                "families": FAMILIES.split(","),
            },
        },
    }


PIPELINE_META = {
    "sim": {
        **RELEASE, "command": "simulate", "tables": ["edges.csv", "nodes.csv"], "diagnostics": {},
        "params": {"q": 0.006, "m1": 3.0, "n": 300, "seed": 1, "rng": "numpy.random PCG64"},
    },
    **_pinned_meta("exact"),
    **_pinned_meta("float"),
    "sweep": {
        **RELEASE, "command": "sweep", "tables": ["cross_fits.csv", "sweep.csv"],
        "diagnostics": {
            "self_citations_dropped": 0,
            "technologies": {
                name: {**INGESTED, "mode": "exact"} for name in ("all", "sim")
            },
        },
        "params": {
            **CORPUS_PARAMS, "mode": "auto", "tech_table": "techs.csv",
            "technologies": ["all", "sim"],
        },
        "warnings": [
            "all: missing years, invention rate reported as nan",
            "sim: missing years, invention rate reported as nan",
            "fewer than 3 technologies; cross-technology fits skipped",
        ],
    },
}


def test_pipeline_meta_is_pinned(tmp_path):
    sim = _simulate(tmp_path)
    outs = [sim]
    for mode in ("exact", "float"):
        outs += _measure_fit_gof(tmp_path, sim, mode)
    (tmp_path / "techs.csv").write_text("group_name,prefix\nsim,SIM\nall,S\n", encoding="utf-8")
    outs.append(tmp_path / "sweep")
    assert main([
        "sweep", "--nodes", str(sim / "nodes.csv"), "--edges", str(sim / "edges.csv"),
        "--tech-table", str(tmp_path / "techs.csv"), "--stride", "12", "--out", str(outs[-1]),
    ]) == 0
    found = {
        out.name: json.loads((out / "meta.json").read_text("utf-8").replace(f"{tmp_path}/", ""))
        for out in outs
    }
    assert found == PIPELINE_META


def _read_rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def _assert_gof_matches_scipy(checked: Path, inputs: Path, params: ModelParams) -> None:
    """Every cell of ``checked``'s tables against the per-row oracles run on scipy."""
    special = scipy_special()
    hists = reference_load_backlink_dists(str(inputs / "backlink_dist.csv"))
    dists = reference_load_pathlen_dists(str(inputs / "pathlen_dist.csv"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fits = {
            (n, "backlinks", "geometric"): reference_geometric_gof(hist, params, n, special)
            for n, hist in hists.items()
        }
        for family in FAMILIES.split(","):
            for n, dist in dists.items():
                fits[n, "pathlengths", family] = reference_pathlength_gof(dist, family, special)
    summary = _read_rows(checked / "gof_summary.csv")
    assert len(summary) == len(fits)
    for row in summary:
        fit = fits[int(row["n"]), row["target"], row["family"]]
        statistic, dof, p_value = fit.chi_square
        assert int(row["dof"]) == dof
        assert float(row["correlation"]) == pytest.approx(
            fit.plot_correlation, rel=0.0, abs=1e-14, nan_ok=True
        )
        assert float(row["chi2"]) == pytest.approx(statistic, rel=1e-12, nan_ok=True)
        assert float(row["p_value"]) == pytest.approx(p_value, rel=1e-9, abs=1e-300, nan_ok=True)
    models = defaultdict(list)
    for row in _read_rows(checked / "gof_points.csv"):
        models[int(row["n"]), row["target"], row["family"]].append(float(row["model"]))
    assert models.keys() == fits.keys()
    for key, fit in fits.items():
        assert models[key] == pytest.approx([m for _, m in fit.plot_points], rel=0.0, abs=1e-13)


def test_gof_tables_match_scipy(tmp_path):
    checked = _hand_written_gof(tmp_path)
    _assert_gof_matches_scipy(checked, tmp_path, ModelParams(q=0.05, m1=2.0))
    measured, fitted, checked = _measure_fit_gof(tmp_path, _simulate(tmp_path), "exact")
    [fit_id] = [row for row in _read_rows(fitted / "fits.csv") if row["quantity"] == "id"]
    params = ModelParams(q=float(fit_id["slope"]), m1=float(fit_id["intercept"]) + 1.0)
    _assert_gof_matches_scipy(checked, measured, params)
