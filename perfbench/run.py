#!/usr/bin/env python3
"""asfsim benchmark entry point (see perfbench/README.md).

Builds the simulator library and the benchmark driver from source, runs one
workload in a single driver process, checks the driver's output against
BENCHMARK.json and prints one JSON result line as the last line of stdout.

  python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 25 --trace 0
  python3 perfbench/run.py --selftest       # the benchmark's own tests
  python3 perfbench/run.py --write-pins     # regenerate perfbench/pins.txt

Run it from the repository root. Build output goes to stderr; the build tree
is .bench_build/ (or $CARGO_TARGET_DIR when that names a relative directory).
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if os.path.isabs(target) or ".." in target.split(os.sep):
        target = ".bench_build"
    return os.path.join(ROOT, target, "perfbench")


def build(bdir):
    """Configure once, then build; prints nothing on stdout."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no asfsim sources next to the benchmark (src/ is missing)")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--parallel", "4"])
    for cmd in steps:
        res = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
        if res.returncode != 0:
            fail("build failed: " + " ".join(cmd))
    exe = os.path.join(bdir, "perfbench_driver")
    if not os.path.isfile(exe):
        fail("build produced no driver")
    return exe


def git_sha():
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def run_driver(exe, args, bdir):
    work = os.path.join(bdir, f"work-{os.getpid()}")
    cmd = [exe, "--pins", os.path.join(HERE, "pins.txt"), "--work-dir", work,
           "--git-sha", git_sha()] + args
    try:
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {DRIVER_TIMEOUT_S} s")
    sys.stderr.write(res.stderr)
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--write-pins", action="store_true")
    args = ap.parse_args()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json is missing")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.seed < 0:
        fail("--seed must be >= 0")
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    bdir = build_dir()

    if args.selftest or args.write_pins:
        exe = build(bdir)
        res = run_driver(exe, ["--selftest" if args.selftest else "--write-pins"],
                         bdir)
        sys.stdout.write(res.stdout)
        sys.exit(res.returncode)

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"--workload must be one of {', '.join(names)}")
    exe = build(bdir)
    res = run_driver(exe, ["--workload", args.workload, "--seed", str(args.seed),
                           "--seconds", str(seconds), "--trace", str(args.trace)],
                     bdir)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        fail(f"driver exited with {res.returncode}")
    try:
        out = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("driver printed no result line")

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    unknown = set(out["metrics"]) - {m["name"] for m in wanted}
    if unknown:
        fail(f"driver reported metrics BENCHMARK.json does not list: {sorted(unknown)}")
    metrics = {}
    for m in wanted:
        if m["name"] in out["metrics"]:
            value = out["metrics"][m["name"]]
        elif args.trace:
            value = 0  # a layer this workload does not exercise
        else:
            fail(f"driver did not report {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for line in lines[:-1]:
        print(line)
    print("# host " + json.dumps(out["host"], sort_keys=True))
    print(json.dumps({"correct": bool(out["correct"]),
                      "attempted": int(out["attempted"]),
                      "failed": int(out["failed"]),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
