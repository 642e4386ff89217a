#!/usr/bin/env python3
"""Builds and runs the end-to-end tuning benchmark.

    python3 perfbench/run.py --workload serve_net --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --selftest

Run from the repository root.  The first call configures and builds the
driver (perfbench/CMakeLists.txt, which compiles ../src) into .bench_build,
or into $CARGO_TARGET_DIR when set; later calls rebuild incrementally.

One workload prints a metric table, a `provenance:` line and, as the last
line, {"correct", "attempted", "failed", "metrics"}.  `--workload all` runs
every workload in BENCHMARK.json and prints one combined object whose
metrics are named <workload>.<metric>.  The exit code is non-zero when a
correctness gate fails.  Save the output of several seeds per side and
compare two sides with perfbench/compare.py.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build(target):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no library sources at {ROOT / 'src'}; nothing to benchmark")
        sys.exit(2)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 1)
    subprocess.run(["cmake", "--build", str(out), "--target", target,
                    "-j", jobs], check=True, stdout=sys.stderr)
    return out / target


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for p in sorted(base.rglob("*")):
            if p.is_file() and p.suffix in (".cc", ".h", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree-sha256:" + h.hexdigest()[:16]


def check_metrics(result, spec, trace):
    """The result must carry exactly the metrics BENCHMARK.json names."""
    want = {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        raise ValueError(f"metrics differ from BENCHMARK.json: "
                         f"missing {missing}, unexpected {extra}")


def run_one(binary, args, spec):
    """Runs one workload; returns (exit code, output lines, result)."""
    env = dict(os.environ, PERFBENCH_COMMIT=source_id())
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=RUN_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        check_metrics(result, spec, args.trace)
    except (IndexError, ValueError, KeyError) as ex:
        log(f"{args.workload}: no valid result ({ex})")
        return 1, lines[:-1], None
    return proc.returncode, lines, result


def run_all(binary, args, spec):
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for w in spec["workloads"]:
        one = argparse.Namespace(**vars(args))
        one.workload = w["name"]
        rc, lines, result = run_one(binary, one, spec)
        print(f"== {w['name']}")
        print("\n".join(lines))
        if result is None or rc != 0:
            code = 1
            combined["correct"] = False
        if result is None:
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{w['name']}.{k}"] = v
    print(json.dumps(combined))
    return code


def selftest():
    binary = build("perfbench_selftest")
    rc = subprocess.run([str(binary)]).returncode
    tests = subprocess.run([sys.executable, "-m", "unittest", "discover",
                            "-s", str(HERE / "tests"), "-p", "test_*.py"])
    return 1 if rc or tests.returncode else 0


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=names + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true",
                   help="run the benchmark's own tests and exit")
    args = p.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        p.error("--workload is required")
    binary = build("perfbench")
    if args.workload == "all":
        return run_all(binary, args, spec)
    rc, lines, result = run_one(binary, args, spec)
    print("\n".join(lines))
    return rc if result is not None else 1


if __name__ == "__main__":
    sys.exit(main())
