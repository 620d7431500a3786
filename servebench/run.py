#!/usr/bin/env python3
"""The serving benchmark's entry point.

Builds the servebench package (CMake, Release) into .bench_build at the
root of the checkout, then runs one workload through the serving path:

  python3 servebench/run.py --workload men2-mixed --seed 1 --seconds 5 --trace 0
  python3 servebench/run.py --self-test

Workload rates and set-up counts come from
servebench/workloads.json. The last line of standard output is the JSON
result; a copy with the environment stamp is kept under
.bench_build/results/.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def log(message):
    print(f"servebench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the package; returns False on failure."""
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", BUILD,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    return subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                          stdout=sys.stderr).returncode == 0


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the library sources."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def workload_flags(config, name):
    spec = config["workloads"][name]
    rates = spec["rates"]
    return [
        "--nominal", str(rates["nominal_qps"]),
        "--peak", str(rates["peak_qps"]),
        "--capacity-cap", str(rates["capacity_cap_qps"]),
        "--trace-requests", str(spec["trace_requests"]),
        "--setups", str(spec["setups"]),
    ]


def run_binary(argv):
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"timed out after {RUN_TIMEOUT_S} s")
        return 1, ""
    return proc.returncode, proc.stdout


def self_test():
    scratch = os.path.join(BUILD, "selftest")
    os.makedirs(scratch, exist_ok=True)
    code, out = run_binary([os.path.join(BUILD, "servebench_test"), scratch])
    sys.stdout.write(out)
    return code


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    if not build():
        log("build failed")
        return 1
    if args.self_test:
        return self_test()

    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    if args.workload not in config["workloads"]:
        log(f"unknown workload {args.workload!r}; "
            f"known: {', '.join(config['workloads'])}")
        return 2

    work_dir = os.path.join(BUILD, "replay", args.workload)
    os.makedirs(work_dir, exist_ok=True)
    argv = [os.path.join(BUILD, "servebench"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--work-dir", work_dir, "--source-id", source_id()]
    argv += workload_flags(config, args.workload)
    code, out = run_binary(argv)
    lines = out.rstrip("\n").split("\n") if out else []
    sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
    if code != 0 or not lines:
        log(f"benchmark exited with {code}")
        return code or 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("the last output line is not a JSON result")
        return 1

    env = next((json.loads(line[len("# env "):]) for line in lines
                if line.startswith("# env ")), {})
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    record = os.path.join(
        results, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record, "w") as f:
        json.dump({"env": env, "result": result}, f, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
