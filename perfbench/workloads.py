"""The benchmark's workloads: seeded inputs plus the CLI commands run on them.

Command arguments name files with three placeholders: ``{in}`` is the
directory of generated inputs, ``{out}`` the output directory of one
iteration, and ``{seed}`` the benchmark seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import gen

FAMILIES = "binomial-type,normal,poisson,binomial"

# Layers the traced run must see called on each workload.
INGEST_LAYERS = ("ingest.load_corpus", "ingest.build_graph", "core.backward_lists", "measures.dp")


@dataclass(frozen=True)
class Command:
    label: str  # unique within the workload; "measure" is the auto-mode measure
    argv: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_inputs: Callable[[Path, int], dict]  # writes inputs, returns the planted truth
    commands: tuple[Command, ...]
    # (outputs of one iteration, truth) -> {command label: check returning problems}
    check: Callable[[Path, dict], dict[str, Callable[[], list[str]]]]
    layers: tuple[str, ...]


def _measure(nodes: str, edges: str, name: str, prefix: str, stride: int, out: str, *extra: str):
    return (
        "measure", "--nodes", nodes, "--edges", edges, "--name", name,
        "--prefix", prefix, "--stride", str(stride), *extra, "--out", out,
    )


def _ingest_inputs(directory: Path, seed: int) -> dict:
    truth = gen.ingest_corpus(directory, seed)
    rows = "".join(f"{name},{t['prefix']}\n" for name, t in truth["techs"].items())
    (directory / "techs.csv").write_text("group_name,prefix\n" + rows)
    return truth


LARGEST = max(gen.INGEST_TECHS, key=lambda t: t.size)


def _check_ingest(out: Path, truth: dict) -> dict:
    tech = truth["techs"][LARGEST.name]
    return {
        "measure": lambda: checks.check_measure(out / "measure", tech, truth["self_citations"]),
        "sweep": lambda: checks.check_sweep(out / "sweep", truth, out / "measure", LARGEST.name),
    }


def _check_deep(out: Path, truth: dict) -> dict:
    tech = truth["techs"][gen.DEEP_TECH.name]
    return {
        "measure": lambda: checks.check_measure(out / "measure", tech, truth["self_citations"]),
        "measure_float": lambda: (
            checks.check_measure(out / "measure_float", tech, truth["self_citations"])
            + checks.check_float_matches_exact(out / "measure", out / "measure_float")
        ),
    }


def _check_fine(out: Path, truth: dict) -> dict:
    series = out / "measure" / "series.csv"

    def measure():
        tech, problems = checks.simulated_truth(out / "simulate")
        return problems or checks.check_measure(out / "measure", tech, 0)

    return {
        "simulate": lambda: checks.check_simulate(out / "simulate", SIMULATED_NODES),
        "measure": measure,
        "fit": lambda: checks.check_fit(out / "fit", series),
        "gof": lambda: checks.check_gof(out / "gof", series, FAMILIES.split(",")),
    }


SIMULATED_NODES = 600

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ingest_sweep",
            why="patent-like corpus of 8 overlapping technologies: ingest is most of measure, "
            "and sweep repeats build_graph per technology on its default thread pool",
            make_inputs=_ingest_inputs,
            commands=(
                Command("measure", _measure(
                    "{in}/nodes.csv", "{in}/edges.csv", LARGEST.name, LARGEST.prefix, 10,
                    "{out}/measure",
                )),
                Command("sweep", (
                    "sweep", "--nodes", "{in}/nodes.csv", "--edges", "{in}/edges.csv",
                    "--tech-table", "{in}/techs.csv", "--stride", "10", "--out", "{out}/sweep",
                )),
            ),
            check=_check_ingest,
            layers=INGEST_LAYERS + ("fitting.fit_series", "cli.write"),
        ),
        Workload(
            name="deep_paths",
            why="one 200-node technology whose nodes also cite their predecessor (mipl 199): the "
            "path-count DP is the largest layer of exact measure; measure runs again in float mode",
            make_inputs=gen.deep_corpus,
            commands=(
                Command("measure", _measure(
                    "{in}/nodes.csv", "{in}/edges.csv", gen.DEEP_TECH.name, gen.DEEP_TECH.prefix,
                    20, "{out}/measure",
                )),
                Command("measure_float", _measure(
                    "{in}/nodes.csv", "{in}/edges.csv", gen.DEEP_TECH.name, gen.DEEP_TECH.prefix,
                    20, "{out}/measure_float", "--mode", "float",
                )),
            ),
            check=_check_deep,
            layers=INGEST_LAYERS + ("cli.write",),
        ),
        Workload(
            name="fine_pipeline",
            why="simulate, measure at 50 checkpoints, fit and gof: many cheap DP snapshots, "
            "table writing and reading, fitting, and the only run of growth.simulate",
            make_inputs=lambda directory, seed: {},
            commands=(
                Command("simulate", (
                    "simulate", "--q", "0.006", "--m1", "3", "--n", str(SIMULATED_NODES), "--seed", "{seed}",
                    "--out", "{out}/simulate",
                )),
                Command("measure", _measure(
                    "{out}/simulate/nodes.csv", "{out}/simulate/edges.csv", "sim", "SIM", 12,
                    "{out}/measure",
                )),
                Command("fit", ("fit", "--series", "{out}/measure/series.csv", "--out", "{out}/fit")),
                Command("gof", (
                    "gof", "--backlink-dist", "{out}/measure/backlink_dist.csv",
                    "--pathlen-dist", "{out}/measure/pathlen_dist.csv",
                    "--fits", "{out}/fit/fits.csv", "--families", FAMILIES, "--out", "{out}/gof",
                )),
            ),
            check=_check_fine,
            layers=INGEST_LAYERS + (
                "growth.simulate", "fitting.fit_series", "predictions.rate_predictions",
                "fitting.geometric_gof", "fitting.pathlength_gof", "cli.write",
            ),
        ),
    )
}
