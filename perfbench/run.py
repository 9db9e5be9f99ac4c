#!/usr/bin/env python3
"""End-to-end benchmark of the cloud-bursting simulator.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the simulator's src/ compiled as is, plus the benchmark
program) into .bench_build/, runs one workload from perfbench/workloads.json
for about --seconds of host time, checks the outputs and prints every
metric by name with its unit. The last line of stdout is one JSON object:
the end-to-end metrics with --trace 0, the per-layer metrics of a traced
run with --trace 1. Build logs and the simulator's own messages go to
stderr. See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# One invocation of the C++ program; a run is sized by --seconds plus one
# reference scenario run, far below this.
RUN_TIMEOUT_S = 150


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "world.hpp")):
        raise SystemExit("perfbench: simulator sources (src/) not found next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, *generator,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs], check=True,
                   stdout=sys.stderr)


def run_program(binary, spec, seed, seconds, quarter_only=False):
    """Runs the C++ program in its own process group and returns its JSON."""
    cmd = [os.path.join(BUILD, binary), "--mode", spec["mode"], "--seed", str(seed),
           "--seconds", repr(float(seconds))]
    if quarter_only:
        cmd.append("--quarter-only")
    if spec["mode"] == "grid":
        cmd += ["--grid-seeds", str(spec["grid_seeds"]),
                "--buckets", ",".join(spec["buckets"]),
                "--schedulers", ",".join(spec["schedulers"])]
    cmd += ["--", *spec["scenario_flags"]]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"perfbench: {binary} exceeded {RUN_TIMEOUT_S} s")
    finally:
        # Forked scenario runs are waited for by the program; make sure none
        # outlives it if it died abnormally.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {binary} exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def host_fingerprint(result):
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "compiler": result["compiler"],
            "build_type": result["build_type"]}


def pick(values, declared, source):
    """The declared metrics, in declared order, with the program's units."""
    metrics = {}
    for m in declared:
        got = values.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            raise SystemExit(f"perfbench: {source} did not report {m['name']} in {m['unit']}")
        metrics[m["name"]] = got
    return metrics


def show(metrics):
    for name, m in metrics.items():
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:30s} {value} {m['unit']}  (n={m['samples']})")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        workloads = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    if args.workload not in workloads:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    if args.seed < 0 or args.seconds <= 0:
        raise SystemExit("perfbench: --seed must be >= 0 and --seconds > 0")
    spec = workloads[args.workload]
    build()

    errors = []
    if args.trace == 0:
        # Measured run, then a short traced run of the quarter-length
        # scenario whose outputs must match the untraced ones.
        main_run = run_program("perfbench", spec, args.seed, args.seconds)
        check = run_program("perfbench_traced", spec, args.seed, 0, quarter_only=True)
        if check["quarter_digest"] != main_run["quarter_digest"]:
            errors.append("traced outputs differ from untraced outputs")
        runs = [main_run, check]
        metrics = pick(main_run["metrics"], declared["end_to_end"], "perfbench")
    else:
        # Traced and untraced quarters of the window, alternating so that a
        # drift in host speed hits both builds alike. The tracing overhead
        # is the ratio of their best jobs_per_s.
        order = ["perfbench_traced", "perfbench"] * 2
        chunks = [(b, run_program(b, spec, args.seed, args.seconds / 4)) for b in order]
        runs = [r for _, r in chunks]
        main_run = runs[1]
        if len({(r["digest"], r["quarter_digest"]) for r in runs}) != 1:
            errors.append("traced outputs differ from untraced outputs")
        traced = [r for b, r in chunks if b == "perfbench_traced"]
        layers = {}
        for name in traced[0]["layers"]:
            parts = [r["layers"][name] for r in traced]
            n = sum(p["samples"] for p in parts)
            layers[name] = {"value": sum(p["value"] * p["samples"] for p in parts) / n,
                            "unit": parts[0]["unit"], "samples": n}

        def best_jobs(binary):
            return max(r["metrics"]["jobs_per_s"]["value"] for b, r in chunks if b == binary)

        layers["trace.jobs_per_s_ratio"] = {
            "value": best_jobs("perfbench_traced") / best_jobs("perfbench"),
            "unit": "ratio", "samples": len(chunks)}
        metrics = pick(layers, declared["per_layer"], "perfbench_traced")

    for r in runs:
        errors += r["errors"]
    if any(m["value"] is None for m in metrics.values()):
        errors.append("a metric could not be measured (no successful run)")
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    if failed and "known_failures" not in spec:
        errors.append(f"{failed} run(s) failed on a workload that must not fail")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("host " + json.dumps(host_fingerprint(main_run)))
    show(metrics)
    extra = {n: m for n, m in main_run["metrics"].items() if n not in metrics}
    if args.trace == 0 and extra:
        print("  not gated (uncalibrated host times, and the step median):")
        show(extra)
    print(f"  fail_frac {failed / attempted:.6g} ({failed} of {attempted} runs)")
    for failure in main_run["failures"]:
        print(f"  failed: {failure}")
    for e in errors:
        print(f"  CHECK FAILED: {e}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": m["value"], "unit": m["unit"]} for n, m in metrics.items()},
    }))


if __name__ == "__main__":
    main()
