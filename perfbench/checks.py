"""Output checks: each command's tables against the planted truth.

Every check returns a list of problems; an empty list means the output is
correct.  The checks hold at every seed.  :func:`exact_digests` adds the
seed-specific part: digests of the exact integer tables, compared with
``reference.json`` at the default seed.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
from collections import defaultdict
from pathlib import Path

import numpy as np

import gen

CROSS_FITS = {"id_on_ipl", "ipl_on_id", "id_on_n_loglog", "rate_on_q_loglog"}


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def check_measure(out: Path, tech: dict, self_citations: int) -> list[str]:
    """Diagnostics, per-node links, id column and normalisation of one measure run."""
    problems = []
    planted = {**tech["diagnostics"], "self_citations_dropped": self_citations}
    reported = json.loads((out / "meta.json").read_text())["diagnostics"]
    if reported != planted:
        problems.append(f"meta.json diagnostics {reported} != planted {planted}")
    got = [(int(r["ordinal"]), r["node_id"], int(r["m"])) for r in read_rows(out / "backlinks.csv")]
    if got != list(zip(itertools.count(), tech["node_ids"], tech["links"])):
        problems.append("backlinks.csv differs from the planted per-node link counts")
    cumulative = list(itertools.accumulate(tech["links"]))
    series = read_rows(out / "series.csv")
    if not series or int(series[-1]["n"]) != len(cumulative):
        problems.append("series.csv does not end at the technology's size")
    for row in series:
        n = int(row["n"])
        if float(row["id"]) != cumulative[n - 1] / n:
            problems.append(f"series.csv id at n={n} is {row['id']}, planted {cumulative[n - 1] / n!r}")
            break
    weights = defaultdict(list)
    for row in read_rows(out / "pathlen_dist.csv"):
        weights[row["n"]].append(float(row["normalized"]))
    for n, column in weights.items():
        if abs(math.fsum(column) - 1.0) > 1e-12:
            problems.append(f"pathlen_dist.csv normalized at n={n} sums to {math.fsum(column)!r}")
            break
    return problems


def check_float_matches_exact(exact: Path, floating: Path) -> list[str]:
    """Float mode has the exact run's checkpoints and mipl, and ipl within 1e-9 relative."""
    a, b = read_rows(exact / "series.csv"), read_rows(floating / "series.csv")
    if [r["n"] for r in a] != [r["n"] for r in b]:
        return ["float and exact series have different checkpoints"]
    for x, y in zip(a, b):
        if x["mipl"] != y["mipl"]:
            return [f"mipl at n={x['n']}: exact {x['mipl']}, float {y['mipl']}"]
        if not math.isclose(float(x["ipl"]), float(y["ipl"]), rel_tol=1e-9, abs_tol=0.0):
            return [f"ipl at n={x['n']}: exact {x['ipl']}, float {y['ipl']}"]
    return []


def check_sweep(out: Path, truth: dict, measured: Path, measured_tech: str) -> list[str]:
    """Sizes, id, invention rate and cross-fits of sweep against the truth."""
    problems = []
    rows = {r["tech"]: r for r in read_rows(out / "sweep.csv")}
    if set(rows) != set(truth["techs"]):
        return [f"sweep.csv lists {sorted(rows)}, expected {sorted(truth['techs'])}"]
    for name, tech in truth["techs"].items():
        row, diag = rows[name], tech["diagnostics"]
        expected = {
            "n": str(diag["matched_nodes"]),
            "id": repr(diag["internal_edges"] / diag["matched_nodes"]),
            "rate": repr(tech["rate"]),
        }
        for column, value in expected.items():
            if row[column] != value:
                problems.append(f"sweep.csv {name} {column} is {row[column]}, planted {value}")
        if not (math.isfinite(float(row["q"])) and math.isfinite(float(row["p"]))):
            problems.append(f"sweep.csv {name} has a non-finite fitted rate")
        if row["cumulativeness"] not in ("high", "low"):
            problems.append(f"sweep.csv {name} has no cumulativeness label")
    ipl = read_rows(measured / "series.csv")[-1]["ipl"]
    if rows[measured_tech]["ipl"] != ipl:
        problems.append(f"sweep ipl of {measured_tech} is {rows[measured_tech]['ipl']}, measure gave {ipl}")
    relations = {r["relation"] for r in read_rows(out / "cross_fits.csv")}
    if relations != CROSS_FITS:
        problems.append(f"cross_fits.csv has {sorted(relations)}, expected {sorted(CROSS_FITS)}")
    return problems


def simulated_truth(out: Path) -> tuple[dict, list[str]]:
    """Planted truth of a simulate output, and the problems of that output.

    The nodes are undated, so the chronological order is the node-id order;
    every citation must point to an earlier node.
    """
    problems = []
    ids = np.array([r["node_id"] for r in read_rows(out / "nodes.csv")])
    edges = read_rows(out / "edges.csv")
    rank = np.empty(len(ids), dtype=np.int64)
    rank[np.argsort(ids, kind="stable")] = np.arange(len(ids))
    index = {node_id: i for i, node_id in enumerate(ids)}
    if len(index) != len(ids):
        problems.append("simulate nodes.csv repeats a node id")
    try:
        citing = np.array([index[r["citing_id"]] for r in edges], dtype=np.int64)
        cited = np.array([index[r["cited_id"]] for r in edges], dtype=np.int64)
    except KeyError as exc:
        return {}, problems + [f"simulate edges.csv cites unknown node {exc}"]
    if np.any(rank[cited] >= rank[citing]):
        problems.append("simulate edges.csv has a citation that does not point backward")
    if len(np.unique(citing * len(ids) + cited)) != len(edges):
        problems.append("simulate edges.csv repeats a citation")
    diagnostics, order, links = gen.carve(np.ones(len(ids), dtype=bool), rank, citing, cited)
    tech = {"diagnostics": diagnostics, "node_ids": ids[order].tolist(), "links": links.tolist()}
    return tech, problems


def check_simulate(out: Path, n_nodes: int) -> list[str]:
    """Node count, backward-only citations and no repeated citation."""
    rows = read_rows(out / "nodes.csv")
    problems = [] if len(rows) == n_nodes else [f"simulate wrote {len(rows)} nodes, expected {n_nodes}"]
    return problems + simulated_truth(out)[1]


def check_fit(out: Path, series: Path) -> list[str]:
    """Fitted slopes agree with a least-squares fit of the series; p = q/(q+1)."""
    problems = []
    rows = read_rows(series)
    ns = np.array([float(r["n"]) for r in rows])
    fits = {r["quantity"]: r for r in read_rows(out / "fits.csv")}
    for quantity in ("id", "ipl", "mipl"):
        if quantity not in fits:
            problems.append(f"fits.csv has no {quantity} row")
            continue
        slope = np.polyfit(ns, [float(r[quantity]) for r in rows], 1)[0]
        if not math.isclose(float(fits[quantity]["slope"]), slope, rel_tol=1e-9):
            problems.append(f"fits.csv {quantity} slope {fits[quantity]['slope']}, least squares {slope!r}")
    if "id" in fits:
        q = float(fits["id"]["slope"])
        p = float(read_rows(out / "rates.csv")[0]["p"])
        if not math.isclose(p, q / (q + 1), rel_tol=1e-12):
            problems.append(f"rates.csv p is {p!r}, expected q/(q+1) = {q / (q + 1)!r}")
    return problems


def check_gof(out: Path, series: Path, families: list[str]) -> list[str]:
    """One backlink fit and one fit per family at every checkpoint."""
    expected = sorted(
        (r["n"], target)
        for r in read_rows(series)
        for target in ["backlinks"] + [f"pathlengths:{f}" for f in families]
    )
    got = sorted(
        (r["n"], r["target"] if r["target"] == "backlinks" else f"{r['target']}:{r['family']}")
        for r in read_rows(out / "gof_summary.csv")
    )
    if got != expected:
        return [f"gof_summary.csv has {len(got)} fits, expected {len(expected)}"]
    return []


# Exact integer tables per workload: (file, columns) with None for the whole file.
EXACT_TABLES = {
    "ingest_sweep": [
        ("measure/pathlen_dist.csv", ("n", "k", "count")),
        ("measure/backlink_dist.csv", None),
    ],
    "deep_paths": [
        ("measure/pathlen_dist.csv", ("n", "k", "count")),
        ("measure/backlink_dist.csv", None),
    ],
    "fine_pipeline": [
        ("simulate/nodes.csv", None),
        ("simulate/edges.csv", None),
        ("measure/pathlen_dist.csv", ("n", "k", "count")),
        ("measure/backlink_dist.csv", None),
    ],
}


def exact_digests(workload: str, out: Path) -> dict[str, str]:
    """SHA-256 of each exact integer table of one iteration's outputs."""
    digests = {}
    for name, columns in EXACT_TABLES[workload]:
        if columns is None:
            data = (out / name).read_bytes()
        else:
            data = "\n".join(
                ",".join(r[c] for c in columns) for r in read_rows(out / name)
            ).encode("utf-8")
        digests[name] = hashlib.sha256(data).hexdigest()
    return digests
