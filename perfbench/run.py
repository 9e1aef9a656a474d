#!/usr/bin/env python3
"""Canonical benchmark of the online interval join: build, run, report.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ingest --seed 42 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all                # all three, one process
    python3 perfbench/run.py --smoke                       # the benchmark's self-test

The first call configures and builds perfbench/ (which compiles ../src as
a subproject) in Release mode under $CARGO_TARGET_DIR (default
.bench_build); later calls only re-check the build. The program prints
human-readable detail, a metadata line, and as its last line one JSON
object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list. See perfbench/README.md.
"""

import argparse
import glob
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ingest", "scan", "serve")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; "
             "run from a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "oij_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            # Build chatter goes to stderr: stdout ends with the result.
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as err:
            fail(f"build step {cmd[:2]} failed: {err}")
        if proc.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {proc.returncode}")
    return os.path.join(out, "oij_perfbench")


def build_type():
    cache = os.path.join(build_dir(), "CMakeCache.txt")
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout is not
    always a git repository, so this identifies the code measured)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted(glob.glob(os.path.join(ROOT, top, "**", "*"),
                                     recursive=True)):
            if os.path.isfile(path) and "__pycache__" not in path:
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def host_metadata():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    nodes = glob.glob("/sys/devices/system/node/node[0-9]*")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "numa_nodes": max(1, len(nodes)),
    }


def benchmark_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        return json.load(f)


def run_program(binary, args):
    """Runs the benchmark program; returns (detail lines, build info,
    per-workload reports)."""
    try:
        proc = subprocess.run([binary] + args, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark program exceeded {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"benchmark program exited {proc.returncode}")
    lines, build_info, reports = [], {}, []
    for line in proc.stdout.splitlines():
        if line.startswith("{"):
            record = json.loads(line)
            if "build" in record:
                build_info = record["build"]
            else:
                reports.append(record)
        else:
            lines.append(line)
    return lines, build_info, reports


def check_metrics(report, spec, trace):
    """The metric names and units must be exactly BENCHMARK.json's."""
    if spec is None:
        return []
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = report["metrics"]
    problems = []
    for metric in wanted:
        entry = got.get(metric["name"])
        if entry is None:
            problems.append(f"{report['workload']}: {metric['name']} missing")
        elif entry["unit"] != metric["unit"]:
            problems.append(f"{report['workload']}: {metric['name']} unit "
                            f"{entry['unit']} != {metric['unit']}")
    extra = set(got) - {m["name"] for m in wanted}
    problems += [f"{report['workload']}: unlisted metric {name}"
                 for name in sorted(extra)]
    return problems


def smoke(binary, scratch):
    """Every workload at a few thousand tuples, untraced and traced: every
    named metric printed, every check passed."""
    spec = benchmark_spec()
    problems = []
    for trace in (0, 1):
        lines, _, reports = run_program(binary, [
            "--workload", "all", "--smoke", "--seconds", "0",
            "--trace", str(trace), "--scratch", scratch])
        for line in lines:
            print(line)
        names = [r["workload"] for r in reports]
        if names != list(WORKLOADS):
            problems.append(f"trace {trace}: workloads {names}")
        for report in reports:
            problems += check_metrics(report, spec, trace)
            if not report["correct"] or report["failed"] != 0:
                problems.append(f"trace {trace}: {report['workload']} "
                                f"incorrect ({report['failed']} failed)")
            if report["attempted"] < 1:
                problems.append(f"trace {trace}: {report['workload']} "
                                "attempted nothing")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="self-test: all workloads at tiny scale")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")

    binary = build()
    scratch = os.path.join(os.path.dirname(build_dir()), "scratch")
    os.makedirs(scratch, exist_ok=True)
    if args.smoke:
        return smoke(binary, scratch)

    program_args = ["--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace",
                    str(args.trace), "--scratch", scratch]
    if args.trace:
        program_args += ["--spans",
                         os.path.join(os.path.dirname(build_dir()), "spans-")]
    lines, build_info, reports = run_program(binary, program_args)
    for line in lines:
        print(line)

    spec = benchmark_spec()
    problems = []
    for report in reports:
        problems += check_metrics(report, spec, args.trace)
    if not reports or problems:
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        fail("the program's metrics do not match BENCHMARK.json")

    meta = dict(host_metadata(), git_sha=git_sha(),
                source_digest=source_digest(), build_type=build_type(),
                build=build_info, seed=args.seed, seconds=args.seconds,
                trace=args.trace, workload=args.workload)
    print(json.dumps({"meta": meta}))

    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{name}": value
                   for r in reports for name, value in r["metrics"].items()}
    result = {
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
