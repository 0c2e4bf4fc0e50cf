"""One workload process: import cumuldyn.cli, then run the workload's commands.

Usage: ``python3 child.py SPEC.json RESULT.json``.  The spec names the
commands (argument lists with an ``{out}`` placeholder), the pass (``plain``,
``trace`` or ``peak``) and the time budget.  The import is the first thing
timed, so its wall time is what every CLI invocation pays at start-up.
Commands run as ``cumuldyn.cli.main(argv)``, as the console script does.
Each iteration writes to its own output directory, which ``run.py`` checks.
A fixed piece of work, :func:`calibrate`, is timed just before every command
and fifteen times right after the import, so that ``run.py`` can divide out
the host's speed at that moment.
"""

import gc
import json
import os
import resource
import sys
import time


CALIBRATION_CSV = "id,year,classes\n" + "".join(
    f"P{i:07d},{1980 + i % 40},Y02E {i % 10}/5;H01L 31/{i % 7}\n" for i in range(1500)
)


def calibrate() -> float:
    """Wall time of a fixed piece of work like the program's: CSV rows, dicts, integer sums.

    It uses only the standard library and never changes with the program,
    so its time measures the host alone.  It takes about 5 ms.  Its imports
    are local so that they are not paid before the timed import of the CLI,
    which loads them too.
    """
    import csv
    import io

    start = time.perf_counter()
    by_year: dict[str, list[int]] = {}
    for row in csv.DictReader(io.StringIO(CALIBRATION_CSV)):
        by_year.setdefault(row["year"], []).append(len(row["classes"]))
    acc = [0] * 64
    for counts in by_year.values():
        for t in range(64):
            for c in counts:
                acc[t] += c
    return time.perf_counter() - start


def main() -> None:
    with open(sys.argv[1], encoding="utf-8") as handle:
        spec = json.load(handle)
    start = time.perf_counter()
    import cumuldyn.cli as cli

    result = {"import_s": time.perf_counter() - start, "iterations": []}
    # The host changes speed in spells of seconds, so calibrate right after.
    result["import_cal_s"] = sorted(calibrate() for _ in range(15))[7]
    recorder = None
    if spec["pass"] != "plain":
        import trace_layers  # next to this script, so on sys.path

        recorder = trace_layers.Recorder(peak=spec["pass"] == "peak")
        trace_layers.install(recorder, cli)

    # Move what the import left to the permanent generation, so the full
    # collection before each command takes about a millisecond instead of
    # tens.  The commands themselves run only young-generation collections
    # (their explicit collection resets the count that would start a full
    # one), and those never scan frozen objects, so their cost is unchanged.
    gc.collect()
    gc.freeze()
    begin = time.perf_counter()
    while len(result["iterations"]) < spec["max_iterations"]:
        done = result["iterations"]
        elapsed = time.perf_counter() - begin
        if done and elapsed * (len(done) + 1) / len(done) > spec["seconds"]:
            break
        out = os.path.join(spec["out"], str(len(done)))
        if recorder is not None:
            recorder.iteration = len(done)
        iteration = []
        for command in spec["commands"]:
            argv = [token.replace("{out}", out) for token in command["argv"]]
            cal = calibrate()
            gc.collect()  # earlier garbage is not this command's cost
            cpu, wall = time.process_time(), time.perf_counter()
            error = None
            try:
                if recorder is None:
                    code = cli.main(argv)
                else:
                    with recorder.command(command["label"]):
                        code = cli.main(argv)
            except Exception as exc:  # a crash counts as a failed command
                code, error = None, repr(exc)
            iteration.append(
                {
                    "label": command["label"],
                    "wall_s": time.perf_counter() - wall,
                    "cal_s": cal,
                    "cpu_s": time.process_time() - cpu,
                    "code": code,
                    "error": error,
                    "out": out,
                }
            )
        done.append(iteration)
    result["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if recorder is not None:
        result["spans"] = recorder.spans
    with open(sys.argv[2], "w", encoding="utf-8") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
