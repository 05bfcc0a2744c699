"""Run one homopart benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 30 --trace 0

The workload (``analyze``, ``tower`` or ``files``, see workloads.py)
is set up several times, then run in whole passes until ``--seconds``
(by default ``run_seconds`` of BENCHMARK.json) have elapsed, and the
last pass's outputs are checked. The program is
imported from ``src/`` of the checkout. Standard output ends with two
JSON lines: a run record (seed, machine, passes, every metric with its
unit, check errors), and last the result object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".perfbench_out")

SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("analyze", "tower", "files"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=load_spec()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


def import_program() -> float:
    """Import homopart from the checkout's src/ and return the seconds."""
    if not os.path.isfile(os.path.join(SRC, "homopart", "__init__.py")):
        raise SystemExit(f"error: no homopart package under {SRC}")
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import homopart  # noqa: F401
    import homopart.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if not os.path.abspath(homopart.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: homopart imported from {homopart.__file__}")
    return elapsed


def start_program() -> float:
    """Seconds for a fresh interpreter to start and import homopart.

    This process imports the program only once, so the start-up share
    of the set-up time is taken from child interpreters that do just
    that and exit.
    """
    code = f"import sys; sys.path.insert(0, {SRC!r}); import homopart.cli"
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - start


def machine() -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def run(args) -> tuple:
    import_s = import_program()
    from spans import Tracer
    from workloads import WORKLOADS

    os.makedirs(OUT, exist_ok=True)
    work_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    workload = WORKLOADS[args.workload](args.seed, args.size, work_dir)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()

    setup_times = []
    for i in range(SETUP_REPEATS):
        if tracer:
            tracer.phase = f"setup{i}"
        start = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - start)

    # One start-up probe before each pass, so that the probes sample
    # the machine over the whole run, as the passes do, and not over
    # a few seconds at its start.
    start_times = []
    attempted = failed = 0
    pass_times = []
    stage_times = {stage: [] for stage in workload.stages}
    began = time.perf_counter()
    while not pass_times or time.perf_counter() - began < args.seconds:
        start_times.append(start_program())
        if tracer:
            tracer.phase = f"pass{len(pass_times)}"
        outputs = {}
        stages = dict.fromkeys(workload.stages, 0.0)
        start = time.perf_counter()
        for name, stage, fn in workload.operations():
            attempted += 1
            op_start = time.perf_counter()
            try:
                outputs[name] = fn(outputs)
            except Exception:
                failed += 1
                traceback.print_exc(file=sys.stderr)
            stages[stage] += time.perf_counter() - op_start
        pass_times.append(time.perf_counter() - start)
        for stage, value in stages.items():
            stage_times[stage].append(value)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    spec = load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record = {
        "setup_s": statistics.median(start_times)
        + statistics.median(setup_times),
        "wall_s": statistics.median(pass_times),
        "peak_rss_mb": peak_rss_mb,
        "start_s": statistics.median(start_times),
        "workload_setup_s": statistics.median(setup_times),
        "import_s": import_s,
    }
    for stage, values in stage_times.items():
        record[stage] = statistics.median(values)

    if tracer:
        tracer.uninstall()
        reported = tracer.layer_metrics(
            [m["name"] for m in spec["per_layer"]],
            [f"setup{i}" for i in range(SETUP_REPEATS)],
            [f"pass{i}" for i in range(len(pass_times))])
    else:
        reported = {m["name"]: record[m["name"]] for m in spec["end_to_end"]}

    try:
        errors = workload.check(outputs) if not failed else [
            f"{failed} operations raised"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine(),
        "passes": len(pass_times),
        "start_times_s": start_times,
        "setup_times_s": setup_times,
        "pass_times_s": pass_times,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "s")}
                    for name, value in record.items()},
        "check_errors": errors,
    }
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in reported.items()},
    }
    return detail, result


def main(argv=None) -> int:
    args = parse_args(argv)
    detail, result = run(args)
    for error in detail["check_errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
