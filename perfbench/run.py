#!/usr/bin/env python3
"""Entry point of the crowdtruth benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script

  1. builds the program from source with CMake in Release mode (the
     driver, plus the shipped crowdtruth_serve binary) into .bench_build
     (or $CARGO_TARGET_DIR when set), and refuses any other build type;
  2. generates the workload's inputs from --seed in a separate process, so
     the measured process receives only the generated inputs;
  3. runs the workload once (perfbench_driver run), which measures, checks
     the outputs against the workload's oracle and reports;
  4. prints a line with the machine shape and run details, then, as the
     last line of stdout, the result:
     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Every process the run starts is stopped before the script exits.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

WORKLOADS = ("batch_srel", "serve_ingest", "serve_mixed", "replay_shard4")
# A run must finish within 180 s; leave room for start-up and clean-up.
RUN_BUDGET_S = 170.0


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def root_dir():
    return os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def build_dir(root):
    return os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def cache_value(cache, key):
    try:
        with open(cache) as handle:
            for line in handle:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def compile_program(root, build):
    """Configures (once) and builds the driver and crowdtruth_serve."""
    for needed in ("CMakeLists.txt", "src", "tools/crowdtruth_serve.cc"):
        if not os.path.exists(os.path.join(root, needed)):
            fail("the program's sources are missing (%s); run from the root "
                 "of a full checkout" % needed)
    cache = os.path.join(build, "CMakeCache.txt")
    if not os.path.exists(cache):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    build_type = cache_value(cache, "CMAKE_BUILD_TYPE")
    if build_type != "Release":
        fail("refusing to run on a %r build; the benchmark measures Release "
             "builds only" % build_type)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build, "--target", "perfbench_driver",
         "crowdtruth_serve", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return cache


def machine_shape(cache):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache_value(cache, "CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, check=False).stdout.splitlines()
        compiler = version[0] if version else compiler
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "compiler": compiler,
        "build_type": cache_value(cache, "CMAKE_BUILD_TYPE"),
        "kernel": platform.release(),
    }


def run_driver(args, timeout):
    """Runs the driver in its own process group; kills the group after."""
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out" % " ".join(args[:2]))
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        fail("%s exited with %d" % (" ".join(args[:2]), proc.returncode))
    return out


def main():
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (the benchmark's own tests)")
    parser.add_argument("--flip", default="",
                        help="corrupt the named oracle's expected side "
                             "(negative tests)")
    args = parser.parse_args()

    root = root_dir()
    build = build_dir(root)
    cache = compile_program(root, build)
    driver = os.path.join(build, "perfbench_driver")
    server = os.path.join(build, "crowdtruth", "tools", "crowdtruth_serve")
    run_dir = os.path.join(root, ".bench_out", "%s-%d-%d" % (
        args.workload, args.seed, os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    # A traced run writes the benchmark's span log (Chrome trace_event
    # JSON) here; it outlives the run directory.
    spans = os.path.join(root, ".bench_out",
                         "spans_%s.json" % args.workload) if args.trace else ""
    common = ["--workload=" + args.workload, "--seed=%d" % args.seed,
              "--seconds=%d" % args.seconds, "--dir=" + run_dir]
    if args.smoke:
        common.append("--smoke")
    try:
        # The build does not count against the run's budget: the first run
        # in a checkout may take longer because it compiles.
        began = time.monotonic()
        run_driver([driver, "gen"] + common, RUN_BUDGET_S)
        out = run_driver(
            [driver, "run"] + common +
            ["--trace=%d" % args.trace, "--server=" + server,
             "--flip=" + args.flip, "--spans=" + spans],
            RUN_BUDGET_S - (time.monotonic() - began))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = [line for line in out.splitlines() if line.strip()]
    if not lines:
        fail("the driver printed no result")
    report = json.loads(lines[-1])
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine_shape": machine_shape(cache),
        "details": report.get("details", {}),
        "wall_s": round(time.monotonic() - started, 3),
    }))
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }), flush=True)


if __name__ == "__main__":
    main()
