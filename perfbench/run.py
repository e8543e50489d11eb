#!/usr/bin/env python3
"""End-to-end benchmark of the drlstream scheduler stack.

Builds the benchmark program (perfbench/CMakeLists.txt, which compiles the
drlstream libraries from src/) into .bench_build/, runs one workload in its
own process, prints every metric by name, unit and sample count, runs the
output checks, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, measured
with tracing off; with --trace 1 they are its per_layer list, from a traced
pass run after the untraced one in the same process. The full record of a
run (all metrics, checks, exact outputs, host context, git commit) goes to
.bench_results/<workload>-seed<seed>-trace<t>.json.

An untraced run measures in five processes, one after another, each for a
fifth of --seconds, and reports every metric as the median over the five.
In each, the timed region repeats one fixed job on the seed's inputs, at
least twice and then while one more repeat still fits in its share of
--seconds: train_cq one training pipeline at a fixed budget (about 2 CPU
seconds on a 4-vCPU x86-64 host), scenario_day one 180-epoch day on a fresh
cluster (about 2.5 s), serve_ddpg one block of 1000 cycles per master
(about 1.2 s; at most five blocks). Every repeat must reproduce the first's
results, and every process the first process's outputs.

The gated times are CPU times, which leave out the time a shared host's
vCPUs are stolen and the time threads wait to be scheduled. job_cpu_raw_s
is the fastest repeat's CPU time: other load on the host only ever adds
time, and on a shared host it comes and goes within seconds, so the fastest
repeat is the steadiest estimate of the job's cost. The host's speed also
drifts, by up to a fifth over tens of minutes, so a fixed calibration loop
of the benchmark's own (L1-resident, no code of the program) runs before
every repeat, and job_cpu_s is job_cpu_raw_s times 0.1 s over the fastest
calibration loop: the job's CPU time on a host where that loop takes 0.1 s.
setup_s is the median, over the measuring processes and set-up-only
processes started before and after them, of the CPU time from the
program's first static initializer to the first timed call. The median
repeat and wall times are printed and saved too.

Usage, from the repository root:

    python3 perfbench/run.py --workload train_cq --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                  # every workload, tracing off
    python3 perfbench/run.py --selftest       # the benchmark's own test

Exit status: 0 when every check passed, 1 when a check failed, 2 when the
build or the run could not complete (nothing is printed on stdout then).
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS_DIR = os.path.join(ROOT, ".bench_results")
WORKLOADS = ("train_cq", "scenario_day", "serve_ddpg")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 150
# setup_s is the median over this many extra processes that stop after
# set-up, plus the measuring processes' own set-ups.
SETUP_SPAWNS = 19
# An untraced run measures in this many processes, one after another, each
# for an equal share of --seconds, and reports each metric's median over
# them: which physical pages back a process's memory moves its speed by up
# to a tenth, and no number of repeats inside one process averages that out.
MEASURE_PROCESSES = 5


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def load_contract():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def build(target):
    """Configures once, then brings `target` up to date (a no-op when it is)."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", SOURCE_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator)
    # The compiler's temporary files stay inside the checkout too.
    tmp = os.path.join(BUILD_DIR, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(build_log, "a") as out:
        for step in steps:
            try:
                done = subprocess.run(
                    step, stdout=out, stderr=subprocess.STDOUT, cwd=ROOT,
                    env=env, timeout=max(1.0, deadline - time.monotonic()))
            except (OSError, subprocess.TimeoutExpired) as e:
                raise BenchError(f"build step {step[:2]} failed: {e}")
            if done.returncode != 0:
                out.flush()
                with open(build_log) as f:
                    tail = f.read()[-3000:]
                if step[1] == "-S":  # a failed configure must not stick
                    shutil.rmtree(BUILD_DIR, ignore_errors=True)
                raise BenchError(f"build failed ({' '.join(step[:3])}):\n{tail}")
    return os.path.join(BUILD_DIR, target)


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return done.stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def spawn(binary, workload, seed, seconds, trace, setup_only=False):
    """Runs the program once; returns its JSON record."""
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}"]
    if setup_only:
        cmd.append("--setup-only")
    try:
        done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    if done.stderr.strip():
        log(done.stderr.rstrip()[-4000:])
    if done.returncode not in (0, 1):
        raise BenchError(f"{workload} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{workload} printed no result")


def combine(records):
    """One record from the measuring processes' records: each metric is the
    median over them, operations add up, and every process must pass its
    checks and reproduce the first one's outputs."""
    first = records[0]
    combined = dict(first, ok=all(r["ok"] for r in records),
                    ops=sum(r["ops"] for r in records),
                    ops_failed=sum(r["ops_failed"] for r in records))
    combined["metrics"] = {
        name: dict(m, value=statistics.median(
                       r["metrics"][name]["value"] for r in records),
                   samples=sum(r["metrics"][name]["samples"] for r in records))
        for name, m in first["metrics"].items()}
    checks = list(first["checks"])
    for i, r in enumerate(records[1:], 2):
        checks += [dict(c, name=f"process {i}: {c['name']}")
                   for c in r["checks"] if not c["ok"]]
    if len(records) > 1:
        same = all(r["outputs"] == first["outputs"] for r in records)
        checks.append({"name": "every measuring process reproduces the "
                               "first one's outputs",
                       "ok": same, "detail": f"{len(records)} processes"})
        combined["ok"] = combined["ok"] and same
    combined["checks"] = checks
    return combined


def run_workload(binary, workload, seed, seconds, trace):
    """The measuring processes between two halves of the set-up-only spawns.

    setup_s is the median over all of them, so it samples the host's load
    both before and after the run. A traced run is one process, with the
    same share of --seconds, and reports no setup_s, so it makes no
    set-up-only spawns.
    """
    def setups(count):
        return [spawn(binary, workload, seed, seconds, trace,
                      setup_only=True)["metrics"]["setup_s"]["value"]
                for _ in range(0 if trace else count)]

    share = seconds / MEASURE_PROCESSES
    before = setups(SETUP_SPAWNS // 2)
    records = [spawn(binary, workload, seed, share, trace)
               for _ in range(1 if trace else MEASURE_PROCESSES)]
    values = (before + setups(SETUP_SPAWNS - SETUP_SPAWNS // 2) +
              [r["metrics"]["setup_s"]["value"] for r in records])
    record = combine(records)
    record["metrics"]["setup_s"].update(value=statistics.median(values),
                                        samples=len(values))
    return record


def report(record, contract, trace):
    """Prints a run's metrics and checks; returns the contract's metrics."""
    name = record["workload"]
    print(f"== {name} (seed {record['seed']}, {'traced' if trace else 'untraced'})")
    for metric, m in sorted(record["metrics"].items()):
        print(f"  {metric:<20} {m['value']:>16.6g} {m['unit']:<6} "
              f"(n={m['samples']})")
    layers = record["layers"]
    if trace:
        unknown = set(layers) - {spec["name"] for spec in contract["per_layer"]}
        if unknown:
            raise BenchError(f"{name} reported layers BENCHMARK.json lacks: "
                             f"{sorted(unknown)}")
        for spec in contract["per_layer"]:
            print(f"  {spec['name']:<28} {layers.get(spec['name'], 0.0):>16.6g} "
                  f"{spec['unit']}")
    for check in record["checks"]:
        status = "ok  " if check["ok"] else "FAIL"
        detail = f" [{check['detail']}]" if check["detail"] else ""
        print(f"  check {status} {check['name']}{detail}")
    print(f"  ops {record['ops']}, failed {record['ops_failed']}")
    print("  host " + json.dumps(record["host"], sort_keys=True))

    if trace:
        # A layer the workload does not exercise reads 0.
        return {spec["name"]: {"value": layers.get(spec["name"], 0.0),
                               "unit": spec["unit"]}
                for spec in contract["per_layer"]}
    metrics = {}
    for spec in contract["end_to_end"]:
        got = record["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            raise BenchError(f"{name} did not report {spec['name']} in "
                             f"{spec['unit']}")
        metrics[spec["name"]] = {"value": got["value"], "unit": spec["unit"]}
    return metrics


def save(record, contract, name):
    os.makedirs(RESULTS_DIR, exist_ok=True)
    whys = {w["name"]: w["why"] for w in contract["workloads"]}
    record = dict(record, git_commit=git_commit(),
                  why=whys.get(record.get("workload"), ""))
    with open(os.path.join(RESULTS_DIR, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    try:
        if args.selftest:
            test = build("perfbench_selftest")
            return subprocess.run([test], cwd=ROOT).returncode
        contract = load_contract()
        seconds = args.seconds or contract["run_seconds"]
        binary = build("perfbench")
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        correct, attempted, failed, metrics = True, 0, 0, {}
        for workload in workloads:
            record = run_workload(binary, workload, args.seed, seconds,
                                  args.trace)
            got = report(record, contract, args.trace)
            save(record, contract,
                 f"{workload}-seed{args.seed}-trace{args.trace}.json")
            correct = correct and record["ok"]
            attempted += record["ops"]
            failed += record["ops_failed"]
            if len(workloads) == 1:
                metrics = got
            else:
                metrics.update({f"{workload}.{k}": v for k, v in got.items()})
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
