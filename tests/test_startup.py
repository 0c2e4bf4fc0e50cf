"""Which modules the command line loads.

Every CLI process pays for its imports before it does any work, so no
command may load scipy (gof's special functions are numpy and ``math``),
``numpy.ma`` (which ``np.unique`` imports on first use, about 15 ms of a
one-shot run) or ``numpy.random``.  ``simulate`` replays numpy's PCG64 word
stream itself: ``default_rng`` would load numpy.random's extension modules
and, through ``secrets``, ``hashlib`` and OpenSSL's ``_hashlib``, about
11 ms and 5.6 MB of a one-shot run.  The stream's own module,
``cumuldyn.pcg64``, is left to ``simulate`` as well, so other commands do
not compile it.  No command loads ``dataclasses`` either: the package's
types are named tuples and one slotted class.  The check runs in a fresh
interpreter, since this test process has all of them loaded already.  It
looks at ``sys.modules``, never at a clock.
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

    def watched_modules():
        return sorted(
            m for m in sys.modules
            if m in ("scipy", "numpy.ma", "numpy.random", "hashlib", "_hashlib", "secrets",
                     "cumuldyn.pcg64", "dataclasses")
            or m.startswith(("scipy.", "numpy.random."))
        )

    import cumuldyn.cli
    from cumuldyn.cli import main

    loaded = {"import": watched_modules()}
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
    loaded["simulate_measure_sweep"] = watched_modules()
    codes.append(main(["fit", "--series", f"{tmp}/measured/series.csv", "--out", f"{tmp}/fit"]))
    loaded["fit"] = watched_modules()
    codes.append(main(["gof", "--backlink-dist", f"{tmp}/measured/backlink_dist.csv",
                       "--pathlen-dist", f"{tmp}/measured/pathlen_dist.csv",
                       "--fits", f"{tmp}/fit/fits.csv",
                       "--families", "binomial-type,poisson,normal,binomial",
                       "--out", f"{tmp}/gof"]))
    loaded["gof"] = watched_modules()
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
    """Run every command once in a fresh interpreter; the watched modules after each step."""
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
    assert {step: [m for m in mods if "scipy" in m] for step, mods in loaded.items()} == {
        "import": [], "simulate_measure_sweep": [], "fit": [], "gof": [],
    }


def test_no_command_loads_numpy_random_or_hashlib(loaded):
    # simulate's words come from the package's own SeedSequence and PCG64.
    random_or_hashes = ("numpy.random", "hashlib", "_hashlib", "secrets")
    assert {
        step: [m for m in mods if m.startswith(random_or_hashes)] for step, mods in loaded.items()
    } == {"import": [], "simulate_measure_sweep": [], "fit": [], "gof": []}


def test_measure_and_sweep_load_no_numpy_ma(loaded):
    assert "numpy.ma" not in loaded["import"]
    assert "numpy.ma" not in loaded["simulate_measure_sweep"]


def test_fit_and_gof_load_no_numpy_ma(loaded):
    assert "numpy.ma" not in loaded["fit"]
    assert "numpy.ma" not in loaded["gof"]


def test_no_command_loads_dataclasses(loaded):
    assert {step: "dataclasses" in mods for step, mods in loaded.items()} == {
        "import": False, "simulate_measure_sweep": False, "fit": False, "gof": False,
    }


def test_only_simulate_loads_the_word_stream(loaded):
    assert "cumuldyn.pcg64" not in loaded["import"]
    assert "cumuldyn.pcg64" in loaded["simulate_measure_sweep"]
