"""Self-test of the benchmark itself (about a minute on two cores).

Usage (from the repository root): python3 perfbench/selftest.py

Asserts that

* two traced passes of every workload give identical counts (every
  per-layer metric whose unit is not seconds), so a count may be quoted
  as evidence without a spread;
* every per-layer metric named in BENCHMARK.json is produced;
* the output checks reject a corrupted dataset, both by hash and, at an
  unpinned seed, by the batch invariants, and count empty output as a
  failure instead of raising;
* the benchmark exits non-zero without a result line when the checkout
  holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import checks
import run


def counts_repeat() -> None:
    definition = run.load_definition()
    count_names = [m["name"] for m in definition["per_layer"] if run.is_count(m["unit"])]
    wanted = [m["name"] for m in definition["per_layer"] if m["name"] != "trace.overhead_s"]
    deadline = time.monotonic() + 600
    for workload, jobs in run.WORKLOADS.items():
        first, second = (run.run_pass(jobs, 1, True, deadline) for _ in range(2))
        for records in (first, second):
            errors = [(r["job"], r["error"]) for r in records if r["error"]]
            assert not errors, errors
        a, b = run.layer_metrics(first), run.layer_metrics(second)
        assert not set(wanted) - set(a), f"unmeasured: {set(wanted) - set(a)}"
        diff = {n: (a[n], b[n]) for n in count_names if a[n] != b[n]}
        assert not diff, f"{workload}: counts differ between traced passes: {diff}"
        print(f"ok  {workload}: {len(count_names)} counts repeat exactly")


def checks_reject_corruption() -> None:
    deadline = time.monotonic() + 120
    job = run.WORKLOADS["batching"][0]  # batch-e1, CSV
    for seed in (checks.PINNED["seed"], 1):
        record = run.run_job(job, seed, False, deadline)
        assert record["error"] is None, record["error"]
        path = os.path.join(run.WORK, job.name + ".out")
        with open(path) as fh:
            lines = fh.read().splitlines(keepends=True)
        fields = lines[2].split(",")
        fields[3] = "0.5"  # eps' above epsilon = 0.1
        lines[2] = ",".join(fields)
        with open(path, "w") as fh:
            fh.writelines(lines)
        reason = checks.check(job, 0, path, seed)
        assert reason is not None, f"corrupted output accepted at seed {seed}"
        print(f"ok  corrupted batch output rejected at seed {seed}: {reason}")
    # Empty output with exit code 0 makes the parsers raise; it must count
    # as a failed job, not abort the run.
    path = os.path.join(run.WORK, "empty.out")
    open(path, "w").close()
    for empty_job, code in ((job, 0), (run.WORKLOADS["dense-oracle"][0], 1)):
        reason = run.check_output(empty_job, code, path, 1)
        assert reason is not None, f"empty {empty_job.name} output accepted"
        print(f"ok  empty {empty_job.name} output rejected: {reason}")


def bare_checkout_fails() -> None:
    bare = os.path.join(run.WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "batching",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "bare checkout exited 0"
    assert not any(line.startswith("{") for line in proc.stdout.splitlines()), proc.stdout
    print(f"ok  bare checkout exits {proc.returncode} without a result")


def main() -> int:
    os.makedirs(run.WORK, exist_ok=True)
    counts_repeat()
    checks_reject_corruption()
    bare_checkout_fails()
    print(json.dumps({"selftest": "passed"}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
