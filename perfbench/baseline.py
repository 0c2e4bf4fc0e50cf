"""Run the benchmark over several seeds and summarise each end-to-end metric.

Run from the repository root::

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

For every seed and every workload in BENCHMARK.json it runs ``run.py --trace
0``, one run at a time.  The runs are interleaved (seed 1 of each workload,
then seed 2 of each, ...), so that a slow spell of the machine falls on all
workloads rather than on one.  It then reports each metric's median, quartiles
and spread (interquartile range over median) across the seeds, next to the
metric's bound in BENCHMARK.json.  With ``--trace`` it adds one traced run per
workload at the first seed.  The summary, with the environment of the runs,
is written to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads(
        (Path(".perfbench/records") / f"{workload}-seed{seed}-trace{trace}.json").read_text()
    )
    return {"result": result, "record": record}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    summary = {"run_seconds": bench["run_seconds"], "seeds": args.seeds, "workloads": {}}
    by_workload = {name: [] for name in names}
    for seed in args.seeds:
        for name in names:
            by_workload[name].append(run(name, seed, bench["run_seconds"], 0))
    for name, runs in by_workload.items():
        entry = {
            "attempted": sum(r["result"]["attempted"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "metrics": {},
        }
        for metric in bench["end_to_end"]:
            values = [r["result"]["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            entry["metrics"][metric["name"]] = {
                "unit": metric["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / median, "bound": metric["bound"], "values": values,
            }
            print(f"{name:<14} {metric['name']:<12} median {median:10.4f} {metric['unit']:<3} "
                  f"spread {(q3 - q1) / median:6.3f} (bound {metric['bound']})", flush=True)
        if args.trace:
            traced = run(name, args.seeds[0], bench["run_seconds"], 1)
            entry["traced"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
            entry["breakdown"] = traced["record"]["breakdown"]
        summary["workloads"][name] = entry
        summary["environment"] = {k: v for k, v in runs[0]["record"]["environment"].items() if k != "seed"}
    args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
