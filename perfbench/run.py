#!/usr/bin/env python3
"""MiniMALI end-to-end benchmark: solve and forecast runs, split by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the library and perfbench_runner from source (into .bench_build/
at the repository root), generates the workload's inputs from the seed,
looks up that seed's reference answer (refs.json, or computed and cached
for a held-out seed), runs the workload for S seconds, checks every sample,
and prints one JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (tracing off); --trace 1 reports
the per-layer metrics of a traced run, whose spans are written as Chrome
trace-event JSON under .bench_build/perfbench/traces/.

    python3 perfbench/run.py --write-refs

recomputes refs.json at the current commit; do it only when a change
means to move the answer.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD_DIR, "perfbench_runner")
RESULTS_DIR = os.path.join(BUILD_DIR, "results")
REFS = os.path.join(BENCH_DIR, "refs.json")
# refs.json holds the references of seeds 0 .. REF_SEEDS - 1.
REF_SEEDS = 32

# Every workload runs the paper's protocol: 8 damped-Newton steps, GMRES to
# a relative 1e-6, the answer checked at rtol 1e-5.  BENCHMARK.json says
# why each workload is in the set.
WORKLOADS = {
    "solve_assembled": {"kind": "solve", "dx-km": 160, "layers": 10,
                        "jacobian": "assembled", "scatter": "colored",
                        "simd": "auto", "precond": "amg", "smoother": "sgs"},
    "solve_matfree": {"kind": "solve", "dx-km": 224, "layers": 10,
                      "jacobian": "matrix-free", "scatter": "colored",
                      "simd": "auto", "precond": "amg",
                      "smoother": "chebyshev"},
    "solve_ranks4": {"kind": "dist", "dx-km": 128, "layers": 3,
                     "jacobian": "matrix-free", "scatter": "colored",
                     "simd": "auto", "precond": "block-jacobi", "ranks": 4},
    "forecast_thermal": {"kind": "forecast", "dx-km": 192, "layers": 5,
                         "years": 20, "jacobian": "assembled",
                         "scatter": "colored", "simd": "auto",
                         "precond": "amg", "smoother": "sgs"},
}

# Worker threads of each workload process (MALI_NUM_THREADS), at most the
# host's cores.  The pool hands every parallel loop to its workers and waits
# for the last one, so one stalled core stalls the loop.  On a shared 4-vCPU
# host, the wall time of solve_assembled samples varied by up to 25% within
# a run at 4 threads and by 5-10% at 1, and its ten-seed spread under host
# contention was 0.32 at 4 threads and 0.19 at 1.  solve_matfree keeps 4
# threads: it varied little there and runs 2.6x slower on 1.  The 4 ranks of
# solve_ranks4 are threads of their own, so its pool gets 1 worker.  The
# reference answer is always computed on one thread.
THREADS = {"solve_assembled": 1, "solve_matfree": 4, "solve_ranks4": 1,
           "forecast_thermal": 1}


def threads_for(workload):
    return max(1, min(THREADS[workload], os.cpu_count() or 1))


def one_core():
    return {max(os.sched_getaffinity(0))}


def cores_for(workload):
    """The CPUs a workload process may run on.

    A process with one pool worker and no ranks runs on one core.  Its main
    thread hands every parallel loop to the worker and sleeps until the loop
    ends; on one core the worker finds the data in that core's caches.  Left
    to move between vCPUs, forecast_thermal used 8-13% more CPU time in five
    interleaved pairs of runs.
    """
    if threads_for(workload) == 1 and "ranks" not in WORKLOADS[workload]:
        return one_core()
    return os.sched_getaffinity(0)


def metric_units(section):
    """Name -> unit of every metric of a BENCHMARK.json section."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[section]}


# Seeded geometry bands: seed 0 is the default IceGeometryConfig; any other
# seed scales each field by a uniform factor within these relative bands.
GEOMETRY_DEFAULTS = {"lobe-amplitude": 0.18, "bed-amplitude": 350.0,
                     "beta-stream": 100.0}
GEOMETRY_BANDS = {"lobe-amplitude": 0.02, "bed-amplitude": 0.05,
                  "beta-stream": 0.05}

RUNNER_TIMEOUT_S = 150.0


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def geometry_for_seed(seed):
    if seed == 0:
        return dict(GEOMETRY_DEFAULTS)
    rng = random.Random(seed)
    return {k: v * (1.0 + rng.uniform(-GEOMETRY_BANDS[k], GEOMETRY_BANDS[k]))
            for k, v in GEOMETRY_DEFAULTS.items()}


def runner_config(workload, seed):
    """The generated configuration: the only input the runner sees."""
    cfg = dict(WORKLOADS[workload])
    cfg.update(geometry_for_seed(seed))
    args = []
    for k, v in cfg.items():
        args += ["--" + k, repr(v) if isinstance(v, float) else str(v)]
    return args


def build(target):
    """Configures once, then builds `target` (a no-op when up to date)."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", target,
           "-j", str(os.cpu_count() or 1)]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def run_child(args, threads, cores, deadline):
    """Runs the runner on `cores` in the results directory; returns (exit
    code, rusage).

    The runner gets the same argv and environment in every checkout: where
    the checkout lives must not change its heap layout, and with it the
    peak RSS (glibc's heap moved a 37 MB peak to 44 MB when only the length
    of an output path changed).  MALLOC_MMAP_THRESHOLD_ pins glibc's mmap
    threshold at its 128 KiB default: left dynamic, it rises as large
    blocks are freed, and whether later large blocks then land in the heap
    depended on the seed (the solve_matfree peak was 36.5 MB on some seeds
    and 44-46 MB on others; pinned, 36-38 MB on all, solve time unchanged).
    Output files are named relative to the results directory.  wait4 gives
    the child's own peak RSS and CPU.  A child still running at the
    deadline is killed (and reaped) and reported as failed.
    """
    env = {"MALI_NUM_THREADS": str(threads),
           "MALLOC_MMAP_THRESHOLD_": str(128 * 1024)}
    proc = subprocess.Popen(["perfbench_runner"] + args, executable=RUNNER,
                            cwd=RESULTS_DIR, stdout=sys.stderr, env=env,
                            preexec_fn=lambda: os.sched_setaffinity(0, cores))
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    _, status, usage = os.wait4(proc.pid, 0)
    timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        log(f"perfbench: runner ended by signal {-proc.returncode}")
    return proc.returncode, usage


def source_hash(root=ROOT):
    """Hash of every source the reference solve is built from."""
    h = hashlib.sha256()
    for top in (os.path.join(root, "src"), os.path.join(root, "perfbench",
                                                        "cpp")):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def compute_reference(config, deadline):
    """Mean velocity of the reference solve of `config`, or None."""
    tmp = os.path.join(RESULTS_DIR, "reference.json")
    code, _ = run_child(["--mode", "reference", "--out", "reference.json"] +
                        config, 1, one_core(), deadline)
    if code != 0:
        return None
    with open(tmp) as f:
        return json.load(f)["mean_velocity"]


def reference(workload, seed, config, deadline):
    """Mean velocity the seed's samples are checked against.

    Seeds below REF_SEEDS take the committed value in refs.json, so every
    change is checked against the same answer.  A held-out seed's reference
    is computed with the current sources and cached under a key of its
    configuration and those sources.
    """
    if seed < REF_SEEDS:
        with open(REFS) as f:
            return json.load(f)[workload][str(seed)]
    key = hashlib.sha256((" ".join(config) + source_hash()).encode())
    path = os.path.join(BUILD_DIR, "refs",
                        f"{workload}-{seed}-{key.hexdigest()[:16]}.json")
    if os.path.exists(path):
        with open(path) as f:
            return json.load(f)["mean_velocity"]
    value = compute_reference(config, deadline)
    if value is not None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            json.dump({"mean_velocity": value}, f)
    return value


def median(values):
    return statistics.median(values) if values else 0.0


def host_record(workload, result):
    record = result.get("record", {})
    llc = result.get("llc_bytes", 0)
    # What one Krylov iteration streams, computed: one operator apply and
    # one preconditioner application.
    working_set = (record.get("operator_apply_bytes", 0.0) +
                   record.get("vcycle_bytes", 0.0))
    below = working_set < llc if llc > 0 else None
    return {
        "nproc": os.cpu_count(),
        "llc_mib": llc / 2**20 if llc > 0 else None,
        "threads": threads_for(workload),
        "cores": len(cores_for(workload)),
        "ranks": WORKLOADS[workload].get("ranks", 1),
        "cells": record.get("cells"),
        "dofs": record.get("dofs"),
        "matrix_nnz": record.get("nnz"),
        "krylov_iter_bytes_computed": working_set,
        "working_set_below_llc": below,
        "note": ("computed bytes, not measured traffic; the working set "
                 "fits in the LLC, so host-bandwidth claims stay out of "
                 "scope until a calibrated host roofline exists")
                if below else "computed bytes, not measured traffic",
    }


def summarize(trace, result):
    samples = result["samples"]
    untraced = [s for s in samples if not s["traced"]]
    traced = [s for s in samples if s["traced"]]
    correct = (result["failed"] == 0 and result["deterministic"]
               and result["trace_bit_identical"]
               and result["trace_well_nested"] and len(untraced) > 0)
    if trace == 0:
        metrics = {
            "solve_cpu_s": median([s["cpu_s"] for s in untraced]),
            "setup_s": median(result["setup_samples"] +
                              [s["setup_s"] for s in untraced]),
            "peak_rss_mb": result["warmup_peak_rss_kib"] / 1024.0,
        }
        units = metric_units("end_to_end")
    else:
        units = metric_units("per_layer")
        metrics = {}
        for name in units:
            values = [s["layers"].get(name) for s in traced]
            values = [v for v in values if v is not None]
            metrics[name] = median(values)
        metrics["process.cpu_s"] = median([s["cpu_s"] for s in untraced])
        metrics["process.wall_s"] = median([s["solve_s"] for s in untraced])
        metrics["process.threads"] = result["threads"]
        base = metrics["process.cpu_s"]
        metrics["trace_overhead_frac"] = (
            median([s["cpu_s"] for s in traced]) / base - 1.0
            if base > 0 and traced else 0.0)
        correct = correct and len(traced) > 0
    return correct, {k: {"value": v, "unit": units[k]}
                     for k, v in metrics.items()}


def failed_run(why):
    """A run that faulted: one attempted run, failed, no metrics to trust."""
    log("perfbench: " + why)
    print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                      "metrics": {}}))
    return 0


def run_workload(args):
    if not build("perfbench_runner"):
        log("perfbench: build failed")
        return 2
    deadline = time.monotonic() + RUNNER_TIMEOUT_S
    os.makedirs(RESULTS_DIR, exist_ok=True)
    os.makedirs(os.path.join(BUILD_DIR, "traces"), exist_ok=True)
    config = runner_config(args.workload, args.seed)
    ref = reference(args.workload, args.seed, config, deadline)
    if ref is None:
        return failed_run("the reference solve failed")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = os.path.join(RESULTS_DIR, "samples.json")
    cmd = ["--mode", "trace" if args.trace else "run",
           "--reference", repr(ref), "--seconds", str(args.seconds),
           "--out", "samples.json"] + config
    if args.trace:
        cmd += ["--trace-out", "trace.json"]
    for name in ("samples.json", "trace.json"):
        if os.path.exists(os.path.join(RESULTS_DIR, name)):
            os.remove(os.path.join(RESULTS_DIR, name))
    code, usage = run_child(cmd, threads_for(args.workload),
                            cores_for(args.workload), deadline)
    if code != 0 or not os.path.exists(out):
        return failed_run(f"the runner exited with {code}")
    os.replace(out, os.path.join(RESULTS_DIR, tag + ".samples.json"))
    if args.trace:
        os.replace(os.path.join(RESULTS_DIR, "trace.json"),
                   os.path.join(BUILD_DIR, "traces", tag + ".trace.json"))
    with open(os.path.join(RESULTS_DIR, tag + ".samples.json")) as f:
        result = json.load(f)
    correct, metrics = summarize(args.trace, result)
    record = host_record(args.workload, result)
    record.update({"workload": args.workload, "seed": args.seed,
                   "reference_mean_velocity": ref,
                   "samples": len(result["samples"]),
                   "run_peak_rss_mb": usage.ru_maxrss / 1024.0,
                   "fail_rate": result["failed"] / result["attempted"],
                   "errors": result["errors"][:5]})
    with open(os.path.join(RESULTS_DIR, tag + ".json"), "w") as f:
        json.dump({"record": record, "metrics": metrics}, f, indent=1)
    n = len([s for s in result["samples"] if not s["traced"]])
    n_traced = len(result["samples"]) - n
    n_setup = n + len(result["setup_samples"])
    how = {"solve_cpu_s": f"median of {n}",
           "setup_s": f"median of {n_setup}, CPU",
           "peak_rss_mb": "when the first solve ends",
           "process.cpu_s": f"median of {n}",
           "process.wall_s": f"median of {n}"}
    for name, m in metrics.items():
        print(f"{args.workload:16s} {name:38s} {m['value']:14.6g} "
              f"{m['unit']:6s} ({how.get(name, f'median of {n_traced}')})")
    print(f"{args.workload:16s} {'fail_rate':38s} "
          f"{record['fail_rate']:14.6g} {'frac':6s} "
          f"({result['failed']} of {result['attempted']} attempted)")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": bool(correct),
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    return 0


def write_refs():
    """Recomputes refs.json: every workload, seeds 0 .. REF_SEEDS - 1."""
    if not build("perfbench_runner"):
        log("perfbench: build failed")
        return 2
    os.makedirs(RESULTS_DIR, exist_ok=True)
    refs = {}
    for workload in WORKLOADS:
        refs[workload] = {}
        for seed in range(REF_SEEDS):
            value = compute_reference(runner_config(workload, seed),
                                      time.monotonic() + RUNNER_TIMEOUT_S)
            if value is None:
                log(f"perfbench: reference {workload} seed {seed} failed")
                return 1
            refs[workload][str(seed)] = value
    with open(REFS, "w") as f:
        json.dump(refs, f, indent=1)
        f.write("\n")
    return 0


def selftest():
    if not build("perfbench_selftest"):
        log("perfbench: build failed")
        return 2
    code = subprocess.run([os.path.join(BUILD_DIR, "perfbench_selftest")],
                          env=dict(os.environ, MALI_NUM_THREADS="2")
                          ).returncode
    py = subprocess.run([sys.executable, "-m", "unittest", "-q",
                         "test_run"], cwd=BENCH_DIR).returncode
    return 0 if code == 0 and py == 0 else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's own checks")
    p.add_argument("--write-refs", action="store_true",
                   help="recompute refs.json at the current commit")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if args.write_refs:
        return write_refs()
    if args.workload is None:
        p.error("--workload is required")
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
