"""Which modules the command line loads.

Every CLI process pays for its imports before it does any work, so no
command may load scipy (gof's special functions are numpy and ``math``) or
``numpy.ma`` (which ``np.unique`` imports on first use, about 15 ms of a
one-shot run).  The check runs in a fresh interpreter, since this test
process has both loaded already.  It looks at ``sys.modules``, never at a
clock.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cumuldyn

SRC = str(Path(cumuldyn.__file__).resolve().parent.parent)

SCRIPT = textwrap.dedent(
    """
    import json, sys

    def unwanted_modules():
        return sorted(
            m for m in sys.modules if m in ("scipy", "numpy.ma") or m.startswith("scipy.")
        )

    import cumuldyn.cli
    from cumuldyn.cli import main

    loaded = {"import": unwanted_modules()}
    tmp = sys.argv[1]
    codes = [
        main(["simulate", "--q", "0.01", "--m1", "2", "--n", "200",
              "--seed", "3", "--out", f"{tmp}/sim"]),
        main(["measure", "--nodes", f"{tmp}/nodes.csv", "--edges", f"{tmp}/edges.csv",
              "--prefix", "A01", "--stride", "10", "--out", f"{tmp}/measured"]),
        main(["sweep", "--nodes", f"{tmp}/nodes.csv", "--edges", f"{tmp}/edges.csv",
              "--tech-table", f"{tmp}/techs.csv", "--stride", "10",
              "--out", f"{tmp}/sweep"]),
    ]
    loaded["simulate_measure_sweep"] = unwanted_modules()
    codes.append(main(["fit", "--series", f"{tmp}/measured/series.csv", "--out", f"{tmp}/fit"]))
    loaded["fit"] = unwanted_modules()
    codes.append(main(["gof", "--backlink-dist", f"{tmp}/measured/backlink_dist.csv",
                       "--pathlen-dist", f"{tmp}/measured/pathlen_dist.csv",
                       "--fits", f"{tmp}/fit/fits.csv",
                       "--families", "binomial-type,poisson,normal,binomial",
                       "--out", f"{tmp}/gof"]))
    loaded["gof"] = unwanted_modules()
    print(json.dumps({"codes": codes, "loaded": loaded}))
    """
)


def _write_corpus(tmp_path: Path) -> None:
    """Three dated technologies of 40 nodes, each node citing its two predecessors."""
    nodes = ["node_id,year,classes"]
    edges = ["citing_id,cited_id,origin"]
    for prefix in ("A01", "B02", "C03"):
        for i in range(40):
            nodes.append(f"{prefix}N{i:02d},{2000 + i // 5},{prefix} 1/00")
            edges.extend(
                f"{prefix}N{i:02d},{prefix}N{j:02d},APP" for j in range(max(0, i - 2), i)
            )
    (tmp_path / "nodes.csv").write_text("\n".join(nodes) + "\n")
    (tmp_path / "edges.csv").write_text("\n".join(edges) + "\n")
    (tmp_path / "techs.csv").write_text("group_name,prefix\na,A01\nb,B02\nc,C03\n")


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """Run every command once in a fresh interpreter; the unwanted modules after each step."""
    tmp_path = tmp_path_factory.mktemp("startup")
    _write_corpus(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0, 0, 0, 0, 0]
    assert list(report["loaded"]) == ["import", "simulate_measure_sweep", "fit", "gof"]
    return report["loaded"]


def test_commands_load_scipy_only_where_needed(loaded):
    # No command needs scipy: gof's special functions are numpy and math.
    assert {step: [m for m in mods if m != "numpy.ma"] for step, mods in loaded.items()} == {
        "import": [], "simulate_measure_sweep": [], "fit": [], "gof": [],
    }


def test_measure_and_sweep_load_no_numpy_ma(loaded):
    assert "numpy.ma" not in loaded["import"]
    assert "numpy.ma" not in loaded["simulate_measure_sweep"]


def test_fit_and_gof_load_no_numpy_ma(loaded):
    assert "numpy.ma" not in loaded["fit"]
    assert "numpy.ma" not in loaded["gof"]
