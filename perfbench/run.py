"""Benchmark of ``newteig solve``, from config file to CSV, one child process per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

A run writes the workload's inputs from the seed (inputs.py), computes the
finest-level reference eigenvalues once with ``reference.direct_solve`` in a
child of its own, and then starts ``newteig solve`` in fresh child processes,
one after the other (a closed loop with one client), as many as fit in
``--seconds`` judging by the longest child so far (at least one).  The
reference child goes through the CLI's set-up path first, so it gives a
set-up sample too; set-up-only children follow until there are three, and
then as many more as fit in an eighth of ``--seconds``.  Every child runs
with the BLAS thread count pinned to 1, so the config's ``threads`` key is the
only parallelism.

End-to-end metrics are read from outside the program: wall time from spawn
to exit, the time stamp at which the mesh hierarchy is built, and the
child's peak RSS from ``wait4``.  With ``--trace 1`` every untraced run is
followed by a traced one (spans.py) and the per-layer metrics are printed
instead.  Each run's outputs pass through checks.py; a run failing any check
counts as failed.  The last line of standard output is one JSON object.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import checks
import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")

DEADLINE_S = 170                  # a run must end within 180 s
MIN_SETUP_SAMPLES = 3
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SMOKE_LEVELS = {"laplace_deep": 4, "example2_m6": 5, "custom_file": 3}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "dofs_per_s": "dof/s"}


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_exponent"):
        return "1"
    return "count"


def spawn(mode, run_dir, deadline):
    """Run child.py MODE in `run_dir`; return its exit code, timings, RSS and outputs."""
    for name in ("marks.json", "out_levels.csv", "out_summary.txt"):
        path = os.path.join(run_dir, name)
        if os.path.exists(path):
            os.remove(path)
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    with open(os.path.join(run_dir, "child.log"), "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, CHILD, mode, "run.cfg", "marks.json"],
                                cwd=run_dir, env=env, stdin=subprocess.DEVNULL,
                                stdout=log, stderr=log)
        timer = threading.Timer(max(deadline - start, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)

    def read(name, parse=None):
        path = os.path.join(run_dir, name)
        if not os.path.exists(path):
            return None
        with open(path, encoding="utf-8") as f:
            return parse(f) if parse else f.read()

    marks = read("marks.json", json.load) or {}
    log_tail = read("child.log").strip().splitlines()[-1:] if proc.returncode else []
    return {"mode": mode, "code": proc.returncode, "log_tail": log_tail,
            "wall_s": end - start, "rss_mb": usage.ru_maxrss / 1024.0, "marks": marks,
            "setup_s": marks["setup_done"] - start if "setup_done" in marks else None,
            "csv": read("out_levels.csv"), "summary": read("out_summary.txt")}


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def run(workload, seed, seconds, trace, levels=None):
    """One benchmark run; returns (result, report lines, first run's outputs)."""
    deadline = time.monotonic() + DEADLINE_S
    run_dir = os.path.join(RUNS_DIR, "{}-{}-{}".format(workload.name, seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        inputs.write_inputs(workload, seed, run_dir, levels)
        ref = spawn("reference", run_dir, deadline)
        reference = ref["marks"].get("values") if ref["code"] == 0 else None

        solves, probes = [], []
        modes = ("solve", "trace") if trace else ("solve",)
        loop_start = time.monotonic()
        while True:
            solves.extend(spawn(mode, run_dir, deadline) for mode in modes)
            round_s = max(s["wall_s"] for s in solves) * len(modes)
            now = time.monotonic()
            if now - loop_start + round_s > seconds or now + 1.2 * round_s > deadline:
                break
        setup_samples = [s["setup_s"] for s in [ref] + solves
                         if s["mode"] != "trace" and s["setup_s"]]
        # set-up is short and noisy next to a solve, so it gets more samples:
        # at least MIN_SETUP_SAMPLES, then as many as fit in an eighth of the window
        probe_end = time.monotonic() + seconds / 8
        while not trace:
            longest = max([s["wall_s"] for s in probes] + setup_samples + [1.0])
            now = time.monotonic()
            if now + 1.5 * longest > deadline or (
                    len(setup_samples) >= MIN_SETUP_SAMPLES and now + longest > probe_end):
                break
            probes.append(spawn("setup", run_dir, deadline))
            if not probes[-1]["setup_s"]:
                break
            setup_samples.append(probes[-1]["setup_s"])
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    expected = workload.expected_n_free(levels)
    problems = []
    for i, s in enumerate(solves):
        found = checks.check_run(s["code"], s["csv"], s["summary"], expected,
                                 workload.eigen_count, reference,
                                 solves[0]["csv"] if i else None)
        problems.append(["{} run {}: {}".format(s["mode"], i, p)
                         for p in found + s["log_tail"]])
    for i, s in enumerate(probes):
        problems.append([] if s["code"] == 0 and s["setup_s"] else
                        ["setup run {}: exit code {} before the hierarchy was built {}".format(
                            i, s["code"], s["log_tail"])])
    failed = sum(1 for p in problems if p)
    attempted = len(problems)

    untraced = [s for s in solves if s["mode"] == "solve"]
    wall = _median(s["wall_s"] for s in untraced)
    if trace:
        traced = [s for s in solves if s["mode"] == "trace"]
        per_run = [spans.layer_metrics(s["marks"].get("spans", []), s["wall_s"])
                   for s in traced]
        values = {name: _median(m[name] for m in per_run) for name in per_run[0]}
        values["trace.overhead_s"] = _median(s["wall_s"] for s in traced) - wall
        counted = len(traced)
        units = {name: layer_unit(name) for name in values}
        missing = sorted({n for s in traced for n in s["marks"].get("missing", [])})
    else:
        values = {
            "wall_s": wall,
            "setup_s": _median(setup_samples),
            "peak_rss_mb": _median(s["rss_mb"] for s in untraced),
            "dofs_per_s": expected[-1] / wall,
        }
        counted = len(untraced)
        units = END_TO_END_UNITS
        missing = []

    versions = ref["marks"].get("versions", {})
    lines = [
        "# workload={} seed={} seconds={} trace={} levels={}".format(
            workload.name, seed, seconds, trace, len(expected)),
        "# env python={} numpy={} scipy={} numpy_blas={} scipy_blas={} nproc={} {}".format(
            sys.version.split()[0], versions.get("numpy"), versions.get("scipy"),
            versions.get("numpy_blas"), versions.get("scipy_blas"), os.cpu_count(),
            " ".join("{}={}".format(k, v) for k, v in BLAS_ENV.items())),
        "# reference: direct_solve on {} free DOFs -> {}".format(
            ref["marks"].get("n_free"), reference),
    ]
    lines.append("# samples wall_s={} setup_s={}".format(
        [round(s["wall_s"], 4) for s in solves], [round(v, 4) for v in setup_samples]))
    for name, value in values.items():
        n = len(setup_samples) if name == "setup_s" else counted
        lines.append("{:<36} {:>16.6g} {:<6} median of {} runs".format(
            name, value, units[name], n))
    lines.append("{:<36} {:>16.6g} {:<6} {} of {} runs failed a check".format(
        "fail_ratio", failed / attempted, "ratio", failed, attempted))
    lines += ["# untraced function: {}".format(name) for name in missing]
    lines += ["# FAILED {}".format(p) for found in problems for p in found]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in values.items()}}
    first = dict(solves[0], reference=reference, expected=expected)
    return result, lines, first


def smoke():
    """Reduced-depth self-test: every workload once untraced and once traced.

    Checks that every metric of BENCHMARK.json is printed with its unit and
    that bad outputs injected into the checks count as failures.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        declared = json.load(f)
    wanted = {0: {m["name"]: m["unit"] for m in declared["end_to_end"]},
              1: {m["name"]: m["unit"] for m in declared["per_layer"]}}
    errors = []
    unknown = [w["name"] for w in declared["workloads"] if w["name"] not in inputs.WORKLOADS]
    if unknown:
        errors.append("BENCHMARK.json workloads {} are not in inputs.WORKLOADS".format(unknown))
    for name, workload in inputs.WORKLOADS.items():
        for trace in (0, 1):
            result, lines, first = run(workload, 1, 0, trace, SMOKE_LEVELS[name])
            print("\n".join(lines), flush=True)
            tag = "{} trace={}".format(name, trace)
            if not result["correct"]:
                errors.append("{}: {} of {} runs failed".format(
                    tag, result["failed"], result["attempted"]))
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != wanted[trace]:
                errors.append("{}: metrics {} differ from BENCHMARK.json {}".format(
                    tag, got, wanted[trace]))
            for metric, unit in dict(got, fail_ratio="ratio").items():
                if not any(line.split()[:1] == [metric] and line.split()[2] == unit
                           for line in lines):
                    errors.append("{}: {} not printed with unit {}".format(tag, metric, unit))
        errors += ["{}: {}".format(name, e) for e in _injected_failures(workload, first)]
    print("\n".join("SMOKE FAIL " + e for e in errors) or "SMOKE OK")
    return 1 if errors else 0


def _injected_failures(workload, first):
    """Feed corrupted copies of a good run's outputs to the checks."""
    csv = first["csv"]
    rows = csv.splitlines()
    finest = rows[-1].split(",")
    col = rows[0].split(",").index("lambda_1")
    nudged = finest[:col] + [repr(float(finest[col]) * (1 + 1e-6))] + finest[col + 1:]
    coarse = rows[1].split(",")
    flipped = coarse[:col] + [repr(math.nextafter(float(coarse[col]), math.inf))] \
        + coarse[col + 1:]
    cases = {
        "good": (0, csv, None),
        "exit code": (3, csv, "exit code"),
        "aborted": (0, csv + "# ABORTED level=1\n", "ABORTED"),
        "missing level": (0, "\n".join(rows[:-1]) + "\n", "n_free"),
        "non-finite": (0, "\n".join(rows[:-1] + [",".join(
            finest[:col] + ["nan"] + finest[col + 1:])]) + "\n", "non-finite"),
        "wrong value": (0, "\n".join(rows[:-1] + [",".join(nudged)]) + "\n", "direct solve"),
        "not repeated": (0, "\n".join(rows[:1] + [",".join(flipped)] + rows[2:]) + "\n",
                         "first run"),
    }
    if workload.eigen_count > 1:
        swapped = finest[:col] + [finest[col + 3], finest[col + 1], finest[col + 2],
                                  finest[col]] + finest[col + 4:]
        cases["not ascending"] = (0, "\n".join(rows[:-1] + [",".join(swapped)]) + "\n",
                                  "ascending")
    errors = []
    for case, (code, text, expect) in cases.items():
        found = checks.check_run(code, text, first["summary"], first["expected"],
                                 workload.eigen_count, first["reference"], csv)
        if expect is None and found:
            errors.append("good outputs rejected: {}".format(found))
        if expect is not None and not any(expect in p for p in found):
            errors.append("injected '{}' not detected (got {})".format(case, found))
    return errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(inputs.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-depth self-test of every workload")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "newteig", "__init__.py")):
        print("error: {} holds no newteig sources".format(SRC), file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    names = list(inputs.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, lines, _ = run(inputs.WORKLOADS[name], args.seed, args.seconds, args.trace)
        print("\n".join(lines), flush=True)
        results[name] = result
    if len(results) == 1:
        print(json.dumps(result))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {"{}.{}".format(name, k): v for name, r in results.items()
                        for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
