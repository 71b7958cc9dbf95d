#!/usr/bin/env python3
"""Run one perf_e2e workload and print its result.

    python3 perf_e2e/run.py --workload campaign|import_batch|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root. The first run configures and builds the
benchmark (and the lfm libraries it links) into .bench_build/perf_e2e;
later runs reuse that build. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics for --trace 0 and the per-layer metrics for
--trace 1, as listed in BENCHMARK.json. The line before it records the
run's context: seed, generated input sizes, sample counts and host
calibration. The full document, and with --trace 1 a Chrome trace of
the spans, are kept under .bench_build/results/.

Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perf_e2e")
RESULTS_DIR = os.path.join(ROOT, ".bench_build", "results")
BINARY = os.path.join(BUILD_DIR, "perf_e2e")
WORKLOADS = ("campaign", "import_batch", "serve")

# A run measures --seconds plus its set-up; anything near this bound is
# a hang, and the binary is killed (and waited for) instead.
RUN_TIMEOUT_S = 150
BUILD_JOBS = str(min(4, os.cpu_count() or 1))


def build():
    """Configure and build the benchmark; output goes to stderr."""
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, stderr=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "-j", BUILD_JOBS,
         "--target", "perf_e2e"],
        stdout=sys.stderr, stderr=sys.stderr, check=True)


def declared_metrics(trace):
    """The metric names BENCHMARK.json declares for this mode, if any."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perf_e2e: build failed: {err}", file=sys.stderr)
        return 1

    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out = os.path.join(RESULTS_DIR, stem + ".json")
    work = os.path.join(ROOT, ".bench_build", "work", f"{stem}-{os.getpid()}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--out", out]
    if args.trace:
        cmd += ["--chrome-trace", os.path.join(RESULTS_DIR, stem + ".trace.json")]
    if os.path.exists(out):
        os.remove(out)
    try:
        subprocess.run(cmd, stdout=sys.stderr, check=True, timeout=RUN_TIMEOUT_S)
        with open(out) as f:
            doc = json.load(f)
    except (OSError, ValueError, subprocess.SubprocessError) as err:
        print(f"perf_e2e: run failed: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = doc["metrics"]
    declared = declared_metrics(args.trace)
    if declared is not None and declared != set(metrics):
        print(f"perf_e2e: metrics differ from BENCHMARK.json: "
              f"{sorted(declared ^ set(metrics))}", file=sys.stderr)
        return 1

    context = {k: doc[k] for k in (
        "workload", "seed", "inputs", "untraced_pass", "setup_runs_s",
        "calibration")}
    if "traced_pass" in doc:
        context["traced_pass"] = doc["traced_pass"]
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": doc["failed"] == 0 and doc["attempted"] > 0,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
