#!/usr/bin/env python3
"""Self-test of the perfbench benchmark at a tiny scale (one round a run).

Usage, from the repository root:

    python3 perfbench/selftest.py

For every workload it checks that:
  * every metric BENCHMARK.json declares prints, with its unit, in the
    untraced (end_to_end) and traced (per_layer) runs;
  * failed_share is 0 and the result says correct;
  * a tampered reference record makes failed_share greater than 0;
  * in the traced run, each op's per-layer self times sum to no more than
    its wall time (recomputed here from the written spans);
  * every exact (modelled-clock) metric is identical between the traced and
    untraced runs.
Exits non-zero if any check fails.
"""

import collections
import json
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True
import run as bench  # noqa: E402  (after the bytecode switch)

SECONDS = "1"
TIMEOUT_S = 170
# Metrics of the untraced run's "exact" line that are host-clock, not exact.
NOT_EXACT = {"failed_share", "raw_ops_per_s", "raw_setup_s", "calibration_ms"}

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def measure(exe, workload, trace, reference, spans=None):
    cmd = [str(exe), "--workload", workload, "--seed", "1", "--seconds",
           SECONDS, "--trace", str(trace), "--reference", str(reference)]
    if spans:
        cmd += ["--spans-out", str(spans)]
    proc = subprocess.run(cmd, cwd=bench.ROOT, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: measurement exited {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    return lines[-1], lines


def values(metrics):
    return {k: v["value"] for k, v in metrics.items()}


def units_match(printed, declared):
    return {k: v["unit"] for k, v in printed.items()} == \
        {m["name"]: m["unit"] for m in declared}


def self_times_within_wall(spans_path):
    spans = [json.loads(line) for line in open(spans_path)]
    child = collections.Counter()
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end_ns"] - s["start_ns"]
    wall = {}
    self_sum = collections.Counter()
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        if s["parent"] < 0:
            wall[s["op"]] = dur
        # A span whose children overrun it has no self time; the overrun
        # then shows as self times summing past the op's wall time.
        self_sum[s["op"]] += max(0, dur - child[s["id"]])
    bad = [op for op in wall if self_sum[op] > wall[op]]
    return len(wall) > 0 and not bad


def tampered_reference(workload, input_set, work):
    """A copy of the reference with one record of the run's input set
    changed: the last digit of the record's first number."""
    src = bench.HERE / "reference"
    dst = work / "tampered"
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)
    path = dst / f"{workload}.ref"
    lines = path.read_text().splitlines(keepends=True)
    n = next(n for n, line in enumerate(lines)
             if input_set is None or
             line.split("\t", 1)[0].split()[0] == f"set={input_set}")
    key, record = lines[n].split("\t", 1)
    i = next(i for i, c in enumerate(record) if c.isdigit())
    while i + 1 < len(record) and record[i + 1].isdigit():
        i += 1
    record = record[:i] + str((int(record[i]) + 1) % 10) + record[i + 1:]
    lines[n] = key + "\t" + record
    path.write_text("".join(lines))
    return dst


def main():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    exe = bench.build()
    work = bench.build_dir() / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    reference = bench.HERE / "reference"
    for workload in bench.WORKLOADS:
        plain, lines = measure(exe, workload, 0, reference)
        check(units_match(plain["metrics"], spec["end_to_end"]),
              f"{workload}: every end_to_end metric printed with its unit")
        exact = values(lines[-2]["exact"])
        check(plain["correct"] and plain["failed"] == 0 and
              exact["failed_share"] == 0,
              f"{workload}: failed_share is 0")

        spans = work / f"spans-{workload}.jsonl"
        traced, _ = measure(exe, workload, 1, reference, spans)
        check(units_match(traced["metrics"], spec["per_layer"]),
              f"{workload}: every per_layer metric printed with its unit")
        layer = values(traced["metrics"])
        check(traced["correct"] and layer["failed_share"] == 0,
              f"{workload}: traced run correct, failed_share is 0")
        check(self_times_within_wall(spans),
              f"{workload}: each op's self times sum to at most its wall time")
        shared = [k for k in exact if k in layer and k not in NOT_EXACT]
        check(len(shared) > 10 and all(exact[k] == layer[k] for k in shared) and
              exact["modelled_cycles"] == layer["core.cycles"],
              f"{workload}: {len(shared)} exact metrics identical traced "
              "and untraced")

        input_set = lines[0]["context"]["input_set"]
        bad, lines = measure(exe, workload, 0,
                             tampered_reference(workload, input_set, work))
        check(not bad["correct"] and bad["failed"] > 0 and
              values(lines[-2]["exact"])["failed_share"] > 0,
              f"{workload}: a tampered reference record gives failed_share > 0")
    print("selftest:", "FAILED" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
