#!/usr/bin/env python3
"""Lists the exact metrics that differ between two perfbench result files.

    python3 tools/exact_diff.py A.json B.json

A and B are records perfbench/run.py wrote (.bench_out/*.json or
perfbench/results/*.json). Every run present in both ("untraced", and
"traced" for --trace 1) is compared: each metric either file marks exact
(a simulated-time value or a count, identical for a seed on any machine),
plus the run's attempted and failed operations. Wall-time metrics are
ignored. Prints one line per difference and exits 1 if there is any, 0 if
there is none, and 2 if the files share no run.
"""
import json
import sys


def exact_values(run):
    """Name -> value of every exact result of one run."""
    values = {name: m["value"] for name, m in run["metrics"].items()
              if m.get("exact")}
    for key in ("attempted", "failed"):
        values[key] = run[key]
    return values


def differences(a, b):
    """(run, name, value in a, value in b) for every exact result that
    differs; a result missing from one side reads None there."""
    common = [r for r in ("untraced", "traced")
              if r in a["runs"] and r in b["runs"]]
    if not common:
        raise ValueError("the files share no run")
    out = []
    for run in common:
        va, vb = exact_values(a["runs"][run]), exact_values(b["runs"][run])
        for name in sorted(va.keys() | vb.keys()):
            if va.get(name) != vb.get(name):
                out.append((run, name, va.get(name), vb.get(name)))
    return out


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    with open(argv[1]) as fa, open(argv[2]) as fb:
        a, b = json.load(fa), json.load(fb)
    try:
        diffs = differences(a, b)
    except ValueError as e:
        print(f"exact_diff: {e}", file=sys.stderr)
        return 2
    for run, name, x, y in diffs:
        print(f"{run:<9} {name:<36} {x!r} != {y!r}")
    print(f"{len(diffs)} exact metric(s) differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
