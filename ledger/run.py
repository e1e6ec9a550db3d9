#!/usr/bin/env python3
"""Builds the ledger benchmark from this checkout and runs one workload.

    python3 ledger/run.py --workload click_direct --seed 1 --seconds 30 --trace 0

The build goes to $CARGO_TARGET_DIR when set, else .bench_build/ at the
checkout root (CMake, Release, libraries from src/ plus ledger/*.cpp). Build
output goes to stderr; stdout carries the benchmark's own lines, the last
one being the JSON result. Each run's fingerprint (answer counts, digest,
snapshot bytes, and in traced runs the per-layer counts) is kept per binary,
workload, seed and mode; a later run that disagrees fails.
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


def build(build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "ledger_bench",
                    "-j2"], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "ledger_bench")


def check_fingerprint(build_dir, binary, lines):
    """True unless an earlier run of this binary and seed answered otherwise."""
    prints = [l for l in lines if l.startswith("fingerprint: ")]
    if not prints:
        return False
    fp = json.loads(prints[-1][len("fingerprint: "):])
    with open(binary, "rb") as f:
        digest = hashlib.sha256(f.read()).hexdigest()[:16]
    key = "%s:%s:%s:%s" % (digest, fp["workload"], fp["seed"], fp["trace"])
    path = os.path.join(build_dir, "fingerprints.json")
    seen = {}
    if os.path.isfile(path):
        with open(path) as f:
            seen = json.load(f)
    if key in seen:
        return seen[key] == fp
    seen[key] = fp
    with open(path + ".tmp", "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return True


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("ledger: no webppm sources beside ledger/, nothing to measure",
              file=sys.stderr)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                os.path.join(ROOT, ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print("ledger: build failed: %s" % e, file=sys.stderr)
        return 3
    run_dir = os.path.join(build_dir, "run-%d" % os.getpid())
    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", str(a.trace),
           "--dir", run_dir]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        print("ledger: benchmark timed out", file=sys.stderr)
        return 4
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        return proc.returncode or 5
    result = json.loads(lines[-1])
    code = proc.returncode
    if code == 0 and not check_fingerprint(build_dir, binary, lines):
        print("ledger: answers differ from an earlier run of this seed",
              file=sys.stderr)
        result["correct"] = False
        code = 6
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return code


if __name__ == "__main__":
    sys.exit(main())
