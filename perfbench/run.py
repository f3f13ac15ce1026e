#!/usr/bin/env python3
"""End-to-end SGL benchmark: one command per workload run.

Builds the SGL library, the sgl_serve daemon and the benchmark driver
(perfbench/src) from this source tree, runs one workload, checks its
outputs, records the host and build next to the result, and prints the
result as the last line of standard output:

    python3 perfbench/run.py --workload learn-exact --seed 1 --seconds 12 --trace 0

    {"correct": true, "attempted": .., "failed": .., "metrics": {..}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones and
writes a span file. --smoke runs every workload and every check on tiny
inputs (a 24x24 grid, 20 measurements) in seconds and records nothing.
Results and span files go to <build>/results/; compare two sets with
perfbench/compare.py.
The build directory is $CARGO_TARGET_DIR/perfbench (default .bench_build).
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
WORKLOADS = ("learn-exact", "learn-auto", "serve-mix")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    """Configures (once) and builds; the build is incremental."""
    cmd = ["cmake", "-S", BENCH_DIR, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        cmd += ["-G", "Ninja"]
    steps = [] if os.path.exists(os.path.join(out, "CMakeCache.txt")) else [cmd]
    steps.append(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        subprocess.run(step, check=True, stdout=sys.stderr, stderr=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)


def read_file(path):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return ""


def host_info():
    model = ""
    for line in read_file("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = []
    base = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(base):
        for idx in sorted(os.listdir(base)):
            d = os.path.join(base, idx)
            if idx.startswith("index"):
                caches.append("L%s %s %s" % (read_file(d + "/level"),
                                             read_file(d + "/type"),
                                             read_file(d + "/size")))
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
            "caches": caches}


def build_info(out):
    cache = {}
    for line in read_file(os.path.join(out, "CMakeCache.txt")).splitlines():
        if ":" in line and "=" in line and not line.startswith(("//", "#")):
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    compiler = cache.get("CMAKE_CXX_COMPILER", "")
    version = ""
    if compiler:
        proc = subprocess.run([compiler, "--version"], capture_output=True,
                              text=True)
        version = proc.stdout.splitlines()[0] if proc.stdout else ""
    return {"build_type": cache.get("CMAKE_BUILD_TYPE", ""),
            "compiler": version or compiler}


def run_workload(out, workload, seed, seconds, trace, extra=(), record=True):
    """Runs sgl_perfbench once; returns (exit code, result dict or None).
    With `record`, writes the result with its host and build to
    <build>/results."""
    run_dir = os.path.join(out, "run-%s-%d" % (workload, os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    cmd = [os.path.join(out, "sgl_perfbench"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--serve-bin", os.path.join(out, "sgl", "tools", "sgl_serve"),
           # Relative, so the daemon's unix socket path stays short.
           "--run-dir", os.path.relpath(run_dir)] + list(extra)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None
    finally:
        # The driver's daemon dies with it; reap anything left in its group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = stdout.strip().splitlines()
    result = None
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        pass
    if result is None or set(result) != {"correct", "attempted", "failed",
                                         "metrics"}:
        log("perfbench: %s printed no result (exit %d)" % (workload,
                                                           proc.returncode))
        return proc.returncode or 1, None
    if record:
        results = os.path.join(out, "results")
        os.makedirs(results, exist_ok=True)
        stem = os.path.join(results, "%s-seed%s-trace%d" % (workload, seed,
                                                           trace))
        spans = os.path.join(run_dir, "spans.json")
        if os.path.exists(spans):
            os.replace(spans, stem + ".spans.json")
        with open(stem + ".json", "w") as f:
            json.dump({"host": host_info(), "build": build_info(out),
                       "args": {"workload": workload, "seed": seed,
                                "seconds": seconds, "trace": trace,
                                "extra": list(extra)},
                       "result": result}, f, indent=1)
    shutil.rmtree(run_dir, ignore_errors=True)
    return proc.returncode, result


def smoke(out):
    """Every workload and every check on tiny inputs; every declared
    metric must be present. Writes no result records, so smoke results
    never mix with real ones."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = {0: [m["name"] for m in spec["end_to_end"]],
              1: [m["name"] for m in spec["per_layer"]]}
    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result = run_workload(out, workload, 1, 1, trace,
                                        ["--grid", "24", "--measurements", "20"],
                                        record=False)
            missing = [m for m in wanted[trace]
                       if result is None or m not in result["metrics"]]
            ok = code == 0 and result is not None and result["correct"] \
                and not missing
            failures += 0 if ok else 1
            log("smoke %-11s trace=%d %s%s" % (
                workload, trace, "ok" if ok else "FAILED (exit %d)" % code,
                " missing " + ",".join(missing) if missing else ""))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required")

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "src", "sgl.hpp"))):
        log("perfbench: the SGL sources are not next to perfbench/")
        return 2
    out = build_dir()
    try:
        build(out)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        log("perfbench: build failed: %s" % e)
        return 2
    if args.smoke:
        return smoke(out)
    code, result = run_workload(out, args.workload, args.seed, args.seconds,
                                args.trace)
    if result is None:
        return code or 1
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
