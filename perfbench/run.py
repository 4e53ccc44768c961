#!/usr/bin/env python3
"""Repository benchmark: builds the simulator from source and runs one seeded
workload, printing every metric by name and unit.

    python3 perfbench/run.py --workload steady_lan --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs the
workload twice (untraced, then traced with spans), checks that both agree on
every simulated-time value and count, and prints the per-layer metrics. The
last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A failed correctness gate (invariant violation, lost or reordered probe,
traced/untraced disagreement, unparseable output) names the metric on stderr
and exits 1. Build products go to .bench_build/ (or $CARGO_TARGET_DIR),
results and spans to .bench_out/, both under the checkout root.

Extra options for the benchmark's own tests: --scale mini (seconds-long
miniature of each workload), --inject violation (trips the invariant gate).
"""
import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("steady_lan", "churn_control", "failover")
RUN_TIMEOUT_S = 170
SETUPS = 9  # least set-ups per untraced run; setup_s is their median


def fail(message):
    print(message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def out_dir():
    path = os.path.join(ROOT, ".bench_out")
    os.makedirs(path, exist_ok=True)
    return path


def build():
    """Configures once and builds incrementally; returns the binary path."""
    bdir = build_dir()
    log_path = os.path.join(out_dir(), "build.log")
    with open(log_path, "w") as log:
        if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", bdir, "-DCMAKE_BUILD_TYPE=Release"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                shutil.rmtree(bdir, ignore_errors=True)
                fail(f"benchmark configure failed; see {log_path}")
        cmd = ["cmake", "--build", bdir, "-j", "4"]
        if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
            fail(f"benchmark build failed; see {log_path}")
    return os.path.join(bdir, "ftvod_perfbench")


def environment(args, result):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:
        cores = os.cpu_count()
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")) and shutil.which("git"):
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            sha = r.stdout.strip()
    digest = hashlib.sha256()
    for base in (os.path.join(ROOT, "src"), HERE):
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    with open(os.path.join(dirpath, name), "rb") as f:
                        digest.update(name.encode())
                        digest.update(f.read())
    return {
        "cpu": cpu,
        "online_cores": cores,
        "platform": platform.platform(),
        "compiler": result.get("compiler"),
        "build_type": result.get("build_type"),
        "git_sha": sha,
        "source_sha256": digest.hexdigest()[:16],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "scale": args.scale,
        "window_sim_s": result["metrics"].get("bench.window_sim_s", {}).get("value"),
    }


def run_once(binary, args, traced):
    """Runs the benchmark binary once; returns (parsed result, exit code)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if traced else "0",
           "--scale", args.scale,
           # setup_s is reported only untraced, so the traced mode sets up once.
           "--setups", "1" if args.trace else str(SETUPS)]
    if traced:
        cmd += ["--spans", os.path.join(
            out_dir(), f"{args.workload}-{args.seed}-spans.json")]
    if args.inject:
        cmd += ["--inject", args.inject]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"gate failed: bench.timeout ({args.workload} ran past {RUN_TIMEOUT_S} s)")
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        if not isinstance(result.get("metrics"), dict):
            raise ValueError("no metrics object")
    except (IndexError, ValueError) as e:
        sys.stderr.write(r.stderr[-2000:])
        fail(f"gate failed: json (benchmark output does not parse: {e})")
    return result, r.returncode


def trace_mismatches(untraced, traced):
    """Names of exact (simulated-time or count) results that differ."""
    bad = [name for name, m in untraced["metrics"].items()
           if m.get("exact")
           and traced["metrics"].get(name, {}).get("value") != m["value"]]
    bad += [key for key in ("attempted", "failed") if untraced[key] != traced[key]]
    return bad


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "mini"), default="full")
    p.add_argument("--inject", choices=("violation",))
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()

    started = time.time()
    base, code = run_once(binary, args, traced=False)
    gate = list(base.get("gate", []))
    if code != 0 and not gate:
        gate.append("bench.exit_code")
    runs = {"untraced": base}
    result, wanted = base, spec["end_to_end"]
    if args.trace:
        traced, code = run_once(binary, args, traced=True)
        runs["traced"] = traced
        gate += [g for g in traced.get("gate", []) if g not in gate]
        gate += [f"trace_mismatch:{n}" for n in trace_mismatches(base, traced)]
        traced["metrics"]["bench.trace_overhead"] = {
            "value": base["metrics"]["sim_s_per_wall_s"]["value"] /
                     traced["metrics"]["sim_s_per_wall_s"]["value"],
            "unit": "ratio", "exact": False}
        result, wanted = traced, spec["per_layer"]

    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            gate.append(f"missing:{m['name']}")
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    env = environment(args, base)
    record = {"env": env, "gate": gate, "elapsed_s": time.time() - started,
              "runs": runs}
    record_path = os.path.join(
        out_dir(), f"{args.workload}-{args.seed}-trace{args.trace}.json")
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    print("env " + json.dumps(env, sort_keys=True))
    for name, m in sorted(base["metrics"].items()):
        if "." not in name:  # viewer-facing metrics, including any that are 0
            print(f"  {name:<22} {m['value']:>14.6g} {m['unit']}")
    if base.get("violations"):
        print("violations: " + base["violations"].strip().replace("\n", " | "))
    if gate:
        print("gate failed: " + ", ".join(gate), file=sys.stderr)
    print(json.dumps({"correct": not gate, "attempted": base["attempted"],
                      "failed": base["failed"], "metrics": metrics}))
    sys.exit(1 if gate else 0)


if __name__ == "__main__":
    main()
