#!/usr/bin/env python3
"""Build and run the socket-to-socket serving benchmark.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --smoke

Run from the root of a source tree. The first run configures and builds
e2ebench/CMakeLists.txt (the library sources under src/ plus the benchmark)
into $CARGO_TARGET_DIR/e2ebench, or .bench_build/e2ebench when that variable
is unset; later runs only rebuild what changed. Build output goes to stderr,
so the last line of stdout is the benchmark's JSON result.

--smoke is the benchmark's own test: a short run of every workload in both
modes must print every metric named in BENCHMARK.json with its unit and pass
the output check, and a run against a deliberately corrupted reference must
fail the output check and exit nonzero.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "e2ebench")


def build():
    out = build_dir()
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("e2ebench: build failed: " + " ".join(cmd))
    return os.path.join(out, "e2e_bench")


def source_id():
    """The commit when this is a git checkout, plus a digest of src/."""
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        got = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
        if got.returncode == 0:
            commit = got.stdout.strip()
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return f"{commit}/src-sha256:{digest.hexdigest()[:12]}"


def run(binary, workload, seed, seconds, trace, extra=(), capture=False):
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--commit", source_id(), *extra]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        sys.exit(f"e2ebench: {workload} did not finish within {RUN_TIMEOUT_S} s")


def smoke(binary):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            got = run(binary, w["name"], 1, 2, trace, capture=True)
            try:
                result = json.loads(got.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                problems.append(f"{w['name']} trace {trace}: no JSON result")
                continue
            if got.returncode != 0 or not result["correct"]:
                problems.append(f"{w['name']} trace {trace}: exit {got.returncode}, "
                                f"correct {result['correct']}")
            for m in spec[key]:
                printed = result["metrics"].get(m["name"])
                if printed is None or printed.get("unit") != m["unit"]:
                    problems.append(f"{w['name']} trace {trace}: {m['name']} [{m['unit']}] "
                                    f"printed as {printed}")
        bad = run(binary, w["name"], 1, 1, 0, extra=["--corrupt-reference"], capture=True)
        lines = bad.stdout.strip().splitlines()
        fired = bad.returncode != 0 and lines and not json.loads(lines[-1])["correct"]
        if not fired:
            problems.append(f"{w['name']}: corrupted reference did not fail the output check")
    for p in problems:
        print("SMOKE FAIL:", p)
    print("smoke:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    binary = build()
    if args.smoke:
        return smoke(binary)
    if not args.workload:
        parser.error("--workload is required")
    return run(binary, args.workload, args.seed, args.seconds, args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
