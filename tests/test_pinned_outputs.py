"""Pinned outputs: the SHA-256 of every table a small pipeline writes.

The digests were recorded from the row-by-row table readers that the
columnar ones replaced, so the tables ``fit`` and ``gof`` write from the
CLI's own tables must stay byte for byte the same.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from cumuldyn.cli import main

FAMILIES = "binomial-type,poisson,normal,binomial"

# The float tables hold the same counts as the exact ones, written as
# floats, so both modes fit and check alike.
FIT = {
    "fits.csv": "57c5723b11e12fd387b4b9970c49ab4dcd9cc16d3b26383bc272e0e6f8549573",
    "rates.csv": "34ce3daa144cbd6659eaa3b4b3d1273c085ff63e192fe467b32d3084ae4288b0",
}
GOF = {
    "gof_points.csv": "6fe65f28a6116669254c51cad1c5e5dbc7c5b97df33cd4e8569168d4428b5285",
    "gof_summary.csv": "2e8884fc30c92e0d2f6050078ecb590370c8ddf344dfbb918444be0450fd7914",
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
    "gof_points.csv": "f0b9d18e0212af3dab0e58b2dc63bae443c75b3123f1c27b42608eaede366438",
    "gof_summary.csv": "77d09bd6e2f24747d9281c83fbfb30f37d5b9d76b55cd3720ecf2912454f95e6",
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


def test_pipeline_tables_are_pinned(tmp_path):
    sim = tmp_path / "sim"
    assert main([
        "simulate", "--q", "0.006", "--m1", "3", "--n", "300", "--seed", "1", "--out", str(sim),
    ]) == 0
    found = {"sim": _digests(sim)}
    for mode in ("exact", "float"):
        measured, fitted, checked = (
            tmp_path / f"{step}-{mode}" for step in ("measure", "fit", "gof")
        )
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
        for out in (measured, fitted, checked):
            found[out.name] = _digests(out)
    assert found == PIPELINE


def test_hand_written_tables_are_pinned(tmp_path):
    (tmp_path / "pathlen_dist.csv").write_text(PATHLEN_DIST, encoding="utf-8")
    (tmp_path / "backlink_dist.csv").write_text(BACKLINK_DIST, encoding="utf-8")
    out = tmp_path / "gof"
    assert main([
        "gof", "--backlink-dist", str(tmp_path / "backlink_dist.csv"),
        "--pathlen-dist", str(tmp_path / "pathlen_dist.csv"),
        "--q", "0.05", "--m0", "1.0", "--families", FAMILIES, "--out", str(out),
    ]) == 0
    assert _digests(out) == HAND_WRITTEN
