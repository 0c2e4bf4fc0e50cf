"""Seeded benchmark of the cumuldyn command line, end to end and per layer.

Run from the repository root::

    python3 perfbench/run.py --workload ingest_sweep --seed 1 --seconds 35 --trace 0

This script writes the workload's inputs from ``--seed`` (outside any timing),
then starts one fresh interpreter at a time with ``src`` on ``PYTHONPATH``
and ``CUMULDYN_THREADS`` removed from its environment.  Each interpreter
times ``import cumuldyn.cli`` and runs the workload's commands through
``cumuldyn.cli.main``.  Every command's outputs are checked against the
planted truth; a non-zero exit, an exception or a failed check counts the
command as failed.

``--trace 0`` reports the end-to-end metrics.  Their times are calibrated:
each is timed next to a fixed piece of work (``child.calibrate``), divided
by that work's time, and multiplied by ``CALIBRATION_S``, which cancels the
speed of the shared host at that moment.  ``setup_s`` is the median
calibrated import time over several fresh interpreters spread across the
run; ``measure_s`` is the median calibrated time of the ``measure --mode
auto`` command, and ``others_s`` the sum of those of the workload's other
commands; ``peak_rss_mb`` is the largest ``ru_maxrss`` of the workload
processes.  The report also prints the plain wall times.  ``--trace 1``
runs plain and span-traced interpreters in turn (a third of ``--seconds``
each side), then one tracemalloc iteration, and reports the per-layer
metrics.
Every metric is printed by name with its unit, and the last line of standard
output is one JSON object.  A full record of the run (environment, samples,
per-command layer breakdown) goes to ``.perfbench/records/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
DEFAULT_SEED = 1
PLAIN_CHILDREN = 3  # workload interpreters in an untraced run, each after an import-only one
ROUNDS = 3  # plain/traced interpreter pairs in a traced run
MARGIN_S = 120  # a child still running this long past --seconds is killed
CALIBRATION_S = 0.005  # calibrated times are seconds on a host where child.calibrate takes this

END_TO_END = {"setup_s": "s", "measure_s": "s", "others_s": "s", "peak_rss_mb": "MB"}

# Layer -> metric -> unit, for the traced run.
LAYERS = {
    "ingest.load_corpus": {"s": "s", "calls": "count", "rows": "count", "bytes_in": "bytes", "peak_mb": "MB"},
    "ingest.build_graph": {
        "s": "s", "calls": "count", "citations_scanned": "count", "internal_edges": "count",
        "kept_ratio": "ratio", "peak_mb": "MB",
    },
    "core.backward_lists": {"s": "s", "edges": "count"},
    "measures.dp": {
        "s": "s", "calls": "count", "edges": "count", "checkpoints": "count", "max_len": "count",
        "edge_cells": "count", "snapshot_cells": "count", "peak_mb": "MB",
    },
    "fitting.pathlength_gof": {"s": "s", "calls": "count", "support_points": "count"},
    "fitting.geometric_gof": {"s": "s", "calls": "count"},
    "fitting.fit_series": {"s": "s", "calls": "count"},
    "predictions.rate_predictions": {"s": "s", "calls": "count"},
    "growth.simulate": {"s": "s", "edges": "count", "peak_mb": "MB"},
    "cli.write": {"s": "s", "rows": "count", "bytes_out": "bytes"},
    "cli.self": {"s": "s"},
    "cli.sweep": {"cpu_per_wall": "ratio", "technologies": "count"},
    "trace": {"overhead": "ratio"},
}
PER_LAYER = {f"{layer}.{m}": unit for layer, ms in LAYERS.items() for m, unit in ms.items()}


class BenchError(Exception):
    """The benchmark itself cannot produce a result."""


def check_declared(path: Path) -> None:
    """BENCHMARK.json must declare exactly the workloads and metrics reported here."""
    declared = json.loads(path.read_text())
    if [w["name"] for w in declared["workloads"]] != list(workloads.WORKLOADS):
        raise BenchError(f"{path.name} workloads do not match workloads.py")
    for key, ours in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        theirs = {m["name"]: m["unit"] for m in declared[key]}
        if theirs != ours:
            raise BenchError(f"{path.name} {key} does not match run.py's metrics")


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": commit(),
        "src_sha256": source_digest(),
    }


def commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).exists():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.exists() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_child(work: Path, name: str, spec: dict, deadline: float) -> dict:
    """Run one workload interpreter to completion and return its result."""
    env = dict(os.environ)
    env.pop("CUMULDYN_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    spec_path, result_path, log_path = (work / f"{name}.{ext}" for ext in ("spec", "result", "log"))
    spec_path.write_text(json.dumps(spec))
    with open(log_path, "w") as log:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(spec_path), str(result_path)],
                env=env, stdout=log, stderr=subprocess.STDOUT,
                timeout=max(deadline - time.perf_counter(), 1.0),
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{name} did not finish in time") from None
    if proc.returncode != 0 or not result_path.exists():
        tail = log_path.read_text()[-2000:]
        raise BenchError(f"{name} exited with code {proc.returncode}:\n{tail}")
    return json.loads(result_path.read_text())


def spec_for(workload, inputs: Path, out: Path, seed: int, pass_: str, seconds: float, iterations: int):
    commands = [
        {
            "label": c.label,
            "argv": [a.replace("{in}", str(inputs)).replace("{seed}", str(seed)) for a in c.argv],
        }
        for c in workload.commands
    ]
    return {"commands": commands, "pass": pass_, "seconds": seconds,
            "max_iterations": iterations, "out": str(out)}


def csv_digests(out: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.rglob("*.csv"))
    }


def guarded(check) -> list[str]:
    try:
        return check()
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return [f"outputs unreadable: {exc!r}"]


def check_runs(workload, truth: dict, reference: dict | None, results: list[dict]):
    """Check every command of every iteration; return attempted, failed, problems, digests.

    The first iteration is checked against the planted truth and, when a
    reference is given (at the default seed), against its exact-table
    digests; later iterations must write byte-identical tables.
    """
    attempted, failed, problems = 0, 0, []
    digests = exact = None
    for result in results:
        for iteration in result["iterations"]:
            out = Path(iteration[0]["out"])
            found = defaultdict(list)
            if digests is None:
                for label, check in workload.check(out, truth).items():
                    found[label] += guarded(check)
                exact = {}  # a missing table already fails its command's own check
                with contextlib.suppress(OSError, KeyError, ValueError, IndexError):
                    exact = checks.exact_digests(workload.name, out)
                if reference is not None:
                    stored = reference.get(workload.name)
                    for name, digest in (stored or {}).items():
                        if exact.get(name) != digest:
                            found[name.split("/")[0]].append(f"{name} differs from the stored reference")
                    if stored is None:
                        found[iteration[0]["label"]].append("no stored reference")
                digests = csv_digests(out)
            else:
                now = csv_digests(out)
                for name in set(now) | set(digests):
                    if now.get(name) != digests.get(name):
                        found[name.split("/")[0]].append(f"{name} differs from the first iteration")
            for command in iteration:
                attempted += 1
                bad = [f"exit code {command['code']}"] if command["code"] != 0 else []
                bad += [command["error"]] if command["error"] else []
                bad += found[command["label"]]
                if bad:
                    failed += 1
                    problems += [f"{out.name}/{command['label']}: {p}" for p in bad]
    return attempted, failed, problems, exact


def command_walls(result: dict, label: str, key: str = "wall_s") -> list[float]:
    """Per-iteration wall time of one command, or of the calibration timed just before it."""
    return [c[key] for it in result["iterations"] for c in it if c["label"] == label]


def calibrated(walls: list[float], calibrations: list[float]) -> list[float]:
    """Each time divided by the calibration timed next to it, in units of ``CALIBRATION_S``.

    The shared host runs at one speed or up to twice slower, in spells of
    seconds, and its best speed drifts by a quarter over tens of minutes.
    The calibration, timed a moment before, slows down with it, so the ratio
    moves with the code and hardly with the host.
    """
    return [CALIBRATION_S * wall / cal for wall, cal in zip(walls, calibrations)]


def end_to_end(setup: list[float], commands: dict[str, list[float]], maxrss: float) -> dict:
    """Medians of calibrated times: import (``setup_s``), ``measure`` and the other commands."""
    return {
        "setup_s": statistics.median(setup),
        "measure_s": statistics.median(commands["measure"]),
        "others_s": sum(statistics.median(t) for label, t in commands.items() if label != "measure"),
        "peak_rss_mb": maxrss,
    }


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_sample(spans: list[dict], iteration: int) -> tuple[dict, dict]:
    """Per-layer metrics and per-command breakdown of one traced iteration."""
    mine = {i: s for i, s in enumerate(spans) if s["iteration"] == iteration}
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    breakdown = {}
    for i, command in mine.items():
        if command["parent"] is not None:
            continue
        children = [s for s in mine.values() if s["parent"] == i]
        wall = command["end"] - command["start"]
        own = wall - covered([(s["start"], s["end"]) for s in children])
        metrics["cli.self.s"] += own
        shares = defaultdict(float)
        for s in children:
            shares[s["name"]] += s["end"] - s["start"]
        breakdown[command["name"]] = {"wall_s": wall, "self_s": own, **shares}
        if command["name"] == "cli.sweep":
            metrics["cli.sweep.technologies"] = sum(c["name"] == "ingest.build_graph" for c in children)
    for s in mine.values():
        layer = s["name"]
        if s["parent"] is None:
            continue
        metrics[f"{layer}.s"] += s["end"] - s["start"]
        if f"{layer}.calls" in metrics:
            metrics[f"{layer}.calls"] += 1
        for key, value in s["counts"].items():
            name = f"{layer}.{key}"
            metrics[name] = max(metrics[name], value) if key == "max_len" else metrics[name] + value
    scanned = metrics["ingest.build_graph.citations_scanned"]
    if scanned:
        metrics["ingest.build_graph.kept_ratio"] = metrics["ingest.build_graph.internal_edges"] / scanned
    return metrics, breakdown


def merge(results: list[dict]) -> dict:
    """One result out of several interpreters' results, renumbering spans."""
    merged = {"iterations": [], "spans": []}
    for result in results:
        base, shift = len(merged["spans"]), len(merged["iterations"])
        for s in result.get("spans", []):
            parent = None if s["parent"] is None else s["parent"] + base
            merged["spans"].append(dict(s, parent=parent, iteration=s["iteration"] + shift))
        merged["iterations"] += result["iterations"]
    return merged


def per_layer(workload, plain: dict, traced: dict, peak: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the three trace passes, plus a per-command breakdown.

    Times are medians over the traced iterations.  Counts repeat exactly, so
    they come from the one iteration of the peak pass, the only pass that
    takes them.
    """
    spans = traced["spans"]
    missing = [layer for layer in workload.layers if not any(s["name"] == layer for s in spans)]
    if missing:
        raise BenchError(f"traced run recorded no call of {', '.join(missing)} on {workload.name}")
    samples = [layer_sample(spans, k) for k in range(len(traced["iterations"]))]
    counted, _ = layer_sample(peak["spans"], 0)
    metrics = {
        name: statistics.median(m[name] for m, _ in samples) if name.endswith(".s") else counted[name]
        for name in PER_LAYER
    }
    breakdown = {
        command: {key: statistics.median(b[command][key] for _, b in samples) for key in parts}
        for command, parts in samples[0][1].items()
    }
    for s in peak["spans"]:
        name = f"{s['name']}.peak_mb"
        if "peak_mb" in s and name in metrics:
            metrics[name] = max(metrics[name], s["peak_mb"])
    sweeps = [c["cpu_s"] / c["wall_s"] for it in plain["iterations"] for c in it if c["label"] == "sweep"]
    if sweeps:
        metrics["cli.sweep.cpu_per_wall"] = statistics.median(sweeps)
    walls = [min(sum(c["wall_s"] for c in it) for it in r["iterations"]) for r in (plain, traced)]
    metrics["trace.overhead"] = walls[1] / walls[0] - 1.0
    return metrics, breakdown


def measure(args, workload, work: Path) -> tuple[dict, dict]:
    """Generate inputs, run the workload's interpreters and check their outputs."""
    started = time.perf_counter()
    deadline = started + args.seconds + MARGIN_S
    inputs = work / "in"
    inputs.mkdir(parents=True)
    truth = workload.make_inputs(inputs, args.seed)
    record = {"workload": workload.name, "trace": args.trace, "gen_s": time.perf_counter() - started}

    def child(name, pass_, seconds, iterations):
        spec = spec_for(workload, inputs, work / name, args.seed, pass_, seconds, iterations)
        return run_child(work, name, spec, deadline)

    if args.trace:
        # Alternate plain and traced interpreters so that drift in machine
        # speed falls on both sides of trace.overhead.
        share = args.seconds / 3 / ROUNDS
        rounds = [
            [child(f"{name}{r}", name, share, 1000) for name in ("plain", "trace")]
            for r in range(ROUNDS)
        ]
        results = [merge([r[k] for r in rounds]) for k in range(2)]
        results.append(child("peak", "peak", 0, 1))
        metrics, record["breakdown"] = per_layer(workload, *results)
        units = PER_LAYER
    else:
        # Import probes and workload interpreters alternate, so that set-up
        # is sampled across the whole run.
        begin = time.perf_counter()
        imports, results = [], []
        for k in range(PLAIN_CHILDREN):
            imports.append(child(f"setup{k}", "plain", 0, 0))
            share = (args.seconds - (time.perf_counter() - begin)) / (PLAIN_CHILDREN - k)
            results.append(child(f"plain{k}", "plain", share, 1000))
            imports.append(results[-1])
        merged = merge(results)
        record["setup"] = [r["import_s"] for r in imports]
        record["commands"] = {c.label: command_walls(merged, c.label) for c in workload.commands}
        record["calibrated"] = {
            label: calibrated(walls, command_walls(merged, label, "cal_s"))
            for label, walls in record["commands"].items()
        }
        setup = calibrated(record["setup"], [r["import_cal_s"] for r in imports])
        metrics = end_to_end(setup, record["calibrated"], max(r["maxrss_mb"] for r in results))
        units = END_TO_END
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads((HERE / "reference.json").read_text())
    attempted, failed, problems, record["exact_digests"] = check_runs(
        workload, truth, reference, results
    )
    record.update(metrics=metrics, attempted=attempted, failed=failed, problems=problems)
    return record, units


def report(record: dict, units: dict) -> None:
    print(f"cumuldyn benchmark: workload {record['workload']}, trace {record['trace']}")
    for key, value in record["environment"].items():
        print(f"  {key:<12} {value}")
    print(f"  {'inputs_s':<12} {record['gen_s']:.3f} (generation, not timed)")
    for name, value in record["metrics"].items():
        count = f"  median of {len(record['setup'])}" if name == "setup_s" else ""
        print(f"  {name:<36} {value:>14.6g} {units[name]}{count}")
    for label, walls in record.get("commands", {}).items():
        print(f"  command {label:<28} {statistics.median(record['calibrated'][label]):>14.6g} s "
              f"calibrated median of {len(walls)}; wall fastest {min(walls):.6g} s, "
              f"median {statistics.median(walls):.6g} s")
    if "setup" in record:
        print(f"  import wall median {statistics.median(record['setup']):.6g} s")
    for command, parts in record.get("breakdown", {}).items():
        wall = parts["wall_s"]
        shares = ", ".join(f"{k} {v / wall:.0%}" for k, v in parts.items() if k != "wall_s")
        print(f"  {command} {wall:.3f} s: {shares}")
    rate = record["failed"] / record["attempted"] if record["attempted"] else float("nan")
    print(f"  error_rate {rate:.4g} ({record['failed']} of {record['attempted']} commands failed)")
    for problem in record["problems"][:20]:
        print(f"  FAILED {problem}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cumuldyn" / "cli.py").is_file():
        print(f"perfbench: no cumuldyn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    # On SIGTERM, unwind: subprocess.run kills the running child, and the
    # work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    work = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        check_declared(ROOT / "BENCHMARK.json")
        record, units = measure(args, workload, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["environment"] = environment(args.seed)
    records = ROOT / ".perfbench" / "records"
    records.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (records / name).write_text(json.dumps(record, indent=1))
    report(record, units)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
