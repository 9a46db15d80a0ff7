#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 sfibench/test.py          # unit tests + metric names
    python3 sfibench/test.py --run    # also one short run per trace mode

Builds the program like run.py does, then:
  - runs `sfibench --self-test` (capacity bisection on synthetic latency
    curves, Zipf determinism and first-time share, self-time arithmetic);
  - checks that every metric the program declares appears in
    BENCHMARK.json with the same unit and kind, and the reverse;
  - with --run, checks that the names a real run prints (trace 0 and 1)
    are exactly the BENCHMARK.json ones.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the source tree clean
import run  # noqa: E402

failures = 0


def expect(ok, what):
    global failures
    print("%s  %s" % ("ok  " if ok else "FAIL", what))
    failures += not ok


def main():
    binary = run.build()
    if binary is None:
        return 1
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }

    expect(subprocess.run([binary, "--self-test"]).returncode == 0,
           "sfibench self-tests")

    listed = {"end_to_end": {}, "per_layer": {}}
    out = subprocess.run([binary, "--list-metrics"], capture_output=True,
                         text=True, check=True).stdout
    for line in out.splitlines():
        kind, name, unit = line.split()
        listed[kind][name] = unit
    for kind in listed:
        missing = sorted(set(listed[kind]) - set(declared[kind]))
        extra = sorted(set(declared[kind]) - set(listed[kind]))
        units = sorted(n for n in listed[kind]
                       if n in declared[kind] and declared[kind][n] != listed[kind][n])
        expect(not missing, "%s: program metrics in BENCHMARK.json %s" % (kind, missing or ""))
        expect(not extra, "%s: BENCHMARK.json metrics the program prints %s" % (kind, extra or ""))
        expect(not units, "%s: units agree %s" % (kind, units or ""))
    expect(set(w["name"] for w in bench["workloads"]) == set(run.WORKLOADS),
           "workloads agree")

    if "--run" in sys.argv:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            r = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 "faas_capacity", "--seed", "3", "--seconds", "1", "--trace", trace],
                capture_output=True, text=True)
            expect(r.returncode == 0, "run with --trace %s exits 0" % trace)
            if r.returncode:
                continue
            result = json.loads(r.stdout.strip().splitlines()[-1])
            printed = {n: m["unit"] for n, m in result["metrics"].items()}
            expect(printed == declared[kind],
                   "--trace %s prints exactly the %s metrics" % (trace, kind))
            expect(result["correct"] and result["failed"] == 0,
                   "--trace %s run is correct" % trace)

    print("%d failure(s)" % failures)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
