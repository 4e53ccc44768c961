#!/usr/bin/env python3
"""Self-test of tools/exact_diff.py.

    python3 tools/test_exact_diff.py committed
    python3 tools/test_exact_diff.py synthetic

`committed` runs it on the committed perfbench results: a file compared
with itself passes, and two seeds of one workload differ. `synthetic` runs
it on small hand-made records: a wall-time metric is ignored, while an
exact metric missing on one side or a changed operation count is a
difference, and two records that share no run are refused.
"""
import copy
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(os.path.dirname(HERE), "perfbench", "results")


def run(a, b):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "exact_diff.py"), a, b],
        capture_output=True, text=True)


def expect(failures, what, result, code, text):
    if result.returncode != code or text not in result.stdout + result.stderr:
        failures.append(f"{what}: exit {result.returncode}, want {code} and "
                        f"{text!r}\n{result.stdout}{result.stderr}")


def committed(failures):
    def path(name):
        return os.path.join(RESULTS, name)
    expect(failures, "a file against itself",
           run(path("steady_lan-seed1.json"), path("steady_lan-seed1.json")),
           0, "0 exact metric(s) differ")
    expect(failures, "seed 1 against seed 7919",
           run(path("steady_lan-seed1.json"),
               path("steady_lan-seed7919.json")),
           1, "sim.events_per_sim_s")


def synthetic(failures):
    base = {"runs": {"untraced": {
        "attempted": 100, "failed": 0,
        "metrics": {
            "sim.events": {"exact": True, "unit": "count", "value": 5000},
            "sim.frames": {"exact": True, "unit": "count", "value": 900},
            "bench.harness_s": {"exact": False, "unit": "s", "value": 1.5},
        }}}}
    wall = copy.deepcopy(base)
    wall["runs"]["untraced"]["metrics"]["bench.harness_s"]["value"] = 2.5
    missing = copy.deepcopy(base)
    del missing["runs"]["untraced"]["metrics"]["sim.frames"]
    ops = copy.deepcopy(base)
    ops["runs"]["untraced"]["attempted"] = 101
    other_run = {"runs": {"traced": base["runs"]["untraced"]}}

    with tempfile.TemporaryDirectory() as tmp:
        def path(name, record):
            p = os.path.join(tmp, name + ".json")
            with open(p, "w") as f:
                json.dump(record, f)
            return p
        a = path("base", base)
        expect(failures, "only a wall-time metric differs",
               run(a, path("wall", wall)), 0, "0 exact metric(s) differ")
        expect(failures, "an exact metric missing on one side",
               run(a, path("missing", missing)), 1, "900 != None")
        expect(failures, "a changed operation count",
               run(a, path("ops", ops)), 1, "attempted")
        expect(failures, "no shared run",
               run(a, path("other_run", other_run)), 2, "share no run")


def main(argv):
    cases = {"committed": committed, "synthetic": synthetic}
    if len(argv) != 2 or argv[1] not in cases:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    failures = []
    cases[argv[1]](failures)
    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
