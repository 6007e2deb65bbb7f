#!/usr/bin/env python3
"""The repository benchmark: paper-le trial throughput (scalar and batched)
and open-loop election-service latency, plus a traced per-layer run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sim-scalar --seed 2012 --seconds 30 --trace 0

Workloads are listed in BENCHMARK.json; perfbench/README.md explains each
one, every metric, and the layer -> end-to-end metric -> workload
predictions (machine-readable in perfbench/layers.json).

Each run builds perfbench/ (the rts library plus the rts_perfbench driver)
into .bench_build/, checks the program's outputs, measures, writes a full
record (fingerprint, raw samples, check results) to .bench_out/, and prints
one JSON object as its last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics; --trace 1 reports the per-layer
metrics from a separate traced run, with spans written to .bench_out/.

    python3 perfbench/run.py --write-reference 0-63,2012

regenerates perfbench/reference/paper-le.json, the exact per-cell
statistics the sim workloads are checked against.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "rts_perfbench")
REFERENCE = os.path.join(HERE, "reference", "paper-le.json")
LAYERS = os.path.join(HERE, "layers.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# The presets' own seeds: paper-le (sim) and soak-smoke (soak).
DEFAULT_SEEDS = {"sim-scalar": 2012, "sim-batched": 2012, "soak": 2026}
SIM_WORKLOADS = ("sim-scalar", "sim-batched")
E2E_METRICS = ("trials_per_s", "p50_us", "setup_s", "peak_rss_mb")
REFERENCE_COLUMNS = ("trials_run", "error_runs", "incomplete_runs",
                     "violation_runs", "declared_registers", "max_steps_max",
                     "total_steps_sum", "regs_touched_sum")
SOAK_LAYER_SECONDS = 5.0  # 10k arrivals: ten samples beyond p999
BUILD_TIMEOUT = 850
RUN_TIMEOUT_SLACK = 120


class BenchError(Exception):
    """A failure that leaves no result to report (exit code != 0)."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def run_checked(argv, timeout, what):
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{what} timed out after {timeout}s") from exc
    if proc.returncode != 0:
        tail = "\n".join((proc.stdout + proc.stderr).splitlines()[-40:])
        raise BenchError(f"{what} failed (exit {proc.returncode}):\n{tail}")
    return proc.stdout


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError(f"no rts source tree at {ROOT}")
    cmake = shutil.which("cmake")
    if cmake is None:
        raise BenchError("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        run_checked([cmake, "-S", HERE, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT, "configure")
    run_checked([cmake, "--build", BUILD_DIR, "--target", "rts_perfbench",
                 "-j", jobs], BUILD_TIMEOUT, "build")


def run_driver(mode, args, timeout):
    """Runs one rts_perfbench mode in its own process; returns its JSON."""
    os.makedirs(OUT_DIR, exist_ok=True)
    out = os.path.join(OUT_DIR, f"{mode}-{os.getpid()}.json")
    run_checked([BINARY, mode, "--out", out] + args, timeout,
                f"rts_perfbench {mode}")
    with open(out) as f:
        result = json.load(f)
    os.remove(out)
    return result


def cpu_times():
    """(steal, total) jiffies over all CPUs, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:9]]
    except OSError:
        return None
    return fields[7], sum(fields)


def steal_share(before, after):
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


def source_digest():
    """sha256 over the library sources, root build file and benchmark."""
    digest = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            paths += [os.path.join(dirpath, name) for name in sorted(filenames)]
    for path in paths:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()


def git_commit():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint():
    build_info = json.loads(run_checked([BINARY, "fingerprint"], 30,
                                        "rts_perfbench fingerprint"))
    return {
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "kernel": platform.release(),
        **build_info,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def load_reference():
    try:
        with open(REFERENCE) as f:
            return json.load(f)
    except OSError:
        return {"columns": list(REFERENCE_COLUMNS), "seeds": {}}


def compact_cells(cells):
    return [[c["algorithm"], c["k"]] + [c[col] for col in REFERENCE_COLUMNS]
            for c in cells]


def check_sim(seed):
    """Fresh, scalar and batched grids agree, and match the checked-in
    reference when it has this seed.  Returns (ok, check, notes)."""
    check = run_driver("check", ["--seed", str(seed)], 300)
    notes = []
    ok = check["agree"]
    if not ok:
        notes.append("fresh/scalar/batched grids disagree")
    pinned = load_reference()["seeds"].get(str(seed))
    if pinned is None:
        notes.append(f"no reference for seed {seed}; cross-engine check only")
    elif (pinned["cells"] != compact_cells(check["cells"])
          or pinned["sim_steps"] != check["sim_steps"]):
        ok = False
        notes.append(f"per-cell statistics differ from the reference for "
                     f"seed {seed}")
    else:
        notes.append(f"matches the reference for seed {seed}")
    return ok, check, notes


def workload_pass(workload, seed, seconds, spans_path=None):
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", repr(float(seconds))]
    if spans_path is not None:
        args += ["--spans", spans_path]
    return run_driver("workload", args, seconds + RUN_TIMEOUT_SLACK)


def spec_metrics(kind):
    with open(SPEC) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[kind]]


def select(values, kind):
    """The metrics BENCHMARK.json lists under `kind`, every one of them."""
    missing = [name for name, _ in spec_metrics(kind) if name not in values]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in spec_metrics(kind)}


def print_layer_table(metrics):
    with open(LAYERS) as f:
        predictions = json.load(f)["metrics"]
    for name, entry in metrics.items():
        p = next((v for k, v in predictions.items()
                  if name == k
                  or (k.endswith(".*") and name.startswith(k[:-1]))), {})
        print(f"  {name:44s} {entry['value']:>14.6g} {entry['unit']:6s} "
              f"-> {p.get('moves', '?')} on {p.get('workloads', '?')}")


def run_benchmark(opts):
    workload = opts.workload
    seed = DEFAULT_SEEDS[workload] if opts.seed is None else opts.seed
    build()
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{workload}-seed{seed}-trace{opts.trace}")
    record = {"workload": workload, "seed": seed, "seconds": opts.seconds,
              "trace": opts.trace, "fingerprint": fingerprint()}
    before = cpu_times()

    correct = True
    check = None
    if workload in SIM_WORKLOADS:
        ok, check, notes = check_sim(seed)
        correct &= ok
        record["check"] = {"ok": ok, "notes": notes, "result": check}

    def consistent(result):
        # Every timed grid of the run must equal the checked grid.
        return check is None or (result["cells"] == check["cells"]
                                 and result["sim_steps"] == check["sim_steps"])

    if opts.trace == 0:
        e2e = workload_pass(workload, seed, opts.seconds)
        correct &= e2e["correct"] and consistent(e2e)
        attempted, failed = e2e["attempted"], e2e["failed"]
        record["workload_pass"] = e2e
        steal = steal_share(before, cpu_times())
        metrics = select(e2e, "end_to_end")
    else:
        half = max(1.0, opts.seconds / 2.0)
        untraced = workload_pass(workload, seed, half)
        traced = workload_pass(workload, seed, half, stem + ".spans.jsonl")
        layers = run_driver("layers", [
            "--seed", str(seed), "--soak-seconds", repr(SOAK_LAYER_SECONDS),
            "--spans", stem + ".layer-spans.jsonl"], 300)
        correct &= (untraced["correct"] and traced["correct"]
                    and consistent(untraced) and consistent(traced)
                    and layers["correct"])
        attempted = untraced["attempted"] + traced["attempted"]
        failed = untraced["failed"] + traced["failed"]
        record.update(untraced_pass=untraced, traced_pass=traced,
                      layers=layers)
        steal = steal_share(before, cpu_times())
        values = dict(layers["metrics"])
        for name in E2E_METRICS:
            values[f"trace.overhead_frac.{name}"] = (
                (traced[name] - untraced[name]) / untraced[name])
        values["host.steal_frac"] = steal
        metrics = select(values, "per_layer")

    record.update(host_steal_frac=steal, correct=correct,
                  attempted=attempted, failed=failed, metrics=metrics)
    with open(stem + ".json", "w") as f:
        json.dump(record, f, indent=1)

    fp = record["fingerprint"]
    print(f"perfbench {workload} seed={seed} trace={opts.trace}: "
          f"{fp['cpu']} x{fp['nproc']}, {fp['compiler']} {fp['build_type']} "
          f"lto={fp['lto']}, commit={fp['git_commit'] or 'n/a'}, "
          f"src={fp['source_sha256'][:12]}, steal={steal:.3f}")
    if check is not None:
        print("  check: " + "; ".join(record["check"]["notes"]))
    if opts.trace == 1:
        print_layer_table(metrics)
    print(f"  record: {os.path.relpath(stem + '.json', ROOT)}")
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))


def parse_seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def write_reference(text):
    build()
    reference = {
        "grid": "paper-le: logstar, cascade, ratrace-path, combined-sift x "
                "k in {64, 256, 1024}, uniform-random, 150 trials/cell",
        "columns": ["algorithm", "k"] + list(REFERENCE_COLUMNS),
        "seeds": {},
    }
    for seed in parse_seed_list(text):
        check = run_driver("check", ["--seed", str(seed)], 300)
        if not check["agree"]:
            raise BenchError(f"seed {seed}: fresh/scalar/batched disagree")
        reference["seeds"][str(seed)] = {
            "sim_steps": check["sim_steps"],
            "cells": compact_cells(check["cells"])}
        log(f"reference seed {seed}: {check['sim_steps']} steps")
    os.makedirs(os.path.dirname(REFERENCE), exist_ok=True)
    with open(REFERENCE, "w") as f:
        f.write("{\n")
        f.write(f' "grid": {json.dumps(reference["grid"])},\n')
        f.write(f' "columns": {json.dumps(reference["columns"])},\n')
        f.write(' "seeds": {\n')
        rows = [f'  "{s}": {json.dumps(v, separators=(",", ":"))}'
                for s, v in reference["seeds"].items()]
        f.write(",\n".join(rows) + "\n }\n}\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", metavar="SEEDS")
    opts = parser.parse_args()
    started = time.monotonic()
    try:
        if opts.write_reference:
            write_reference(opts.write_reference)
        elif opts.workload is None:
            parser.error("--workload is required")
        else:
            if opts.seed is not None and opts.seed < 0:
                parser.error("--seed must be non-negative")
            run_benchmark(opts)
    except BenchError as exc:
        log(str(exc))
        return 1
    log(f"done in {time.monotonic() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
