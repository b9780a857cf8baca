"""Run every workload, untraced and traced, and write one trajectory point.

Usage (from the repository root):

    python3 perfbench/record.py --label baseline

Prints every end-to-end and per-layer metric by name with its unit and
writes ``perfbench/trajectory/BENCH_<label>.json`` holding, per workload,
the untraced and traced results with their detail records (environment,
per-job medians, sample counts).  It records at the seed the output
hashes are pinned for, so every output is checked byte for byte.
Compare two points only when they were recorded on the same machine
with the same benchmark code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import checks
import run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    seconds = run.load_definition()["run_seconds"]
    seed = checks.PINNED["seed"]
    point = {"label": args.label, "seed": seed, "seconds": seconds, "workloads": {}}
    ok = True
    for workload in run.WORKLOADS:
        entry = {}
        for trace in (False, True):
            out = run.measure(workload, seed, seconds, trace)
            entry["traced" if trace else "untraced"] = out
            ok &= out["result"]["correct"]
            res, det = out["result"], out["detail"]
            for name, m in res["metrics"].items():
                print(f"{workload:13s} {name:34s} {m['value']:14.6g} {m['unit']:6s} "
                      f"n={det['samples'][name]}")
            print(f"{workload:13s} {'fail_frac':34s} {det['fail_frac']:14.6g} "
                  f"{'1':6s} n={res['attempted']}")
        point["workloads"][workload] = entry
    path = os.path.join(run.HERE, "trajectory", f"BENCH_{args.label}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(point, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, run.ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
