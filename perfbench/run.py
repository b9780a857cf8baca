"""triconc benchmark: cold-start CLI and API jobs, timed and checked.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a fixed list of jobs.  A job is one ``triconc`` CLI
invocation (output sent to a file with ``--out``) or one public-API call
sequence, and it runs in a fresh interpreter (``perfbench/job.py``),
because a user's ``triconc`` command always starts cold and no cache may
carry over from one job or pass to the next.  One parent process runs
one child at a time, and both are pinned to one CPU (see ``pin_cpu``),
so the load never exceeds one busy CPU.  A pass runs every job of the
workload once; passes repeat until ``--seconds`` have elapsed (at least
one pass).  The workload seed reaches the program only as the
``--seed`` flag of the ``batch`` jobs.

``--trace 0`` reports the end-to-end metrics (see BENCHMARK.json):

* ``setup_s``: import of ``triconc.cli`` plus building its parser, in
  the child, median over every job of the run;
* ``wall_s``: time of one pass, as the sum over jobs of each job's
  median over the run's passes;
* ``peak_rss_mb``: largest peak resident set (VmHWM) of any job process.

Both times are calibrated: this parent process, which never imports
triconc, times a fixed pure-Python loop just before it starts each
job's child and just after the child exits, and the job's times are
scaled by ``REF_PROBE_S`` over that probe, i.e. reported in seconds at
the reference machine speed (see ``speed_scale``).  Raw times are in the
detail record.  The fraction of jobs whose output failed its check is
``failed / attempted`` in the result line.

``--trace 1`` alternates traced and untraced passes and reports the
per-layer metrics from ``layertrace.py`` (calibrated, median over traced
passes for times; counts must repeat exactly across traced passes), plus
``trace.overhead_s`` = traced minus untraced ``wall_s``.

The last line of standard output is the JSON result; the line before it
is a ``# detail`` record with the environment, raw per-job times, the
probe and the sample count of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import checks
from layertrace import LEAVES, ROOT as ROOT_SPAN, SPANS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
JOB_PY = os.path.join(HERE, "job.py")

#: CPUs this process may use when it starts, and the one jobs run on.
CPUS = sorted(os.sched_getaffinity(0))
JOB_CPU = CPUS[-1]

#: A run must end within 180 s; no job may start a wait beyond this.
HARD_LIMIT_S = 170.0

#: Time of probe() on the machine the baseline was recorded on (a 2-vCPU
#: x86_64 VM) when lightly loaded; calibrated times are relative to it.
REF_PROBE_S = 0.020


@dataclass(frozen=True)
class Job:
    name: str
    argv: list[str] = field(default_factory=list)  # CLI job when non-empty
    api: str | None = None  # name in job.API_JOBS otherwise
    seeded: bool = False  # gets --seed; output depends on it

    def cli_argv(self, seed: int) -> list[str]:
        return self.argv + (["--seed", str(seed)] if self.seeded else [])


# Why these workloads: each stresses a different layer and leaves the
# others idle or nearly so, so a change to one layer shows on the
# workload that exercises it and predicts "no change" on the others.
WORKLOADS: dict[str, list[Job]] = {
    # Big-integer S_i recurrence and the e_in entropy loop for n up to
    # 2000; oracle and protocol idle.  An O(n^2) -> O(n) change shows here.
    "exact-scan": [
        Job("fig2-large", ["fig2", "--p", "0.5", "--n-max", "2000", "--step", "20"]),
        Job("fig3", ["fig3", "--p-list", "0.5,0.8", "--n-max", "500"]),
        Job("fig2-readme", ["fig2", "--p", "0.8", "--n-max", "500", "--step", "5"]),
    ],
    # Dense state vectors: <= 1 MB at 8 pairs (inside L2), 16 MB at 10
    # pairs (outside L2, inside L3).  n <= 10 keeps exactmath trivial.
    "dense-oracle": [
        Job("oracle-check8", ["oracle-check", "--n-max", "8"]),
        Job("dense10", api="dense10"),
    ],
    # Many binom(20, k) calls and a growing big-int rank product (crossing
    # the 10 000-bit exact -> float switch at eps = 0.001), plus CSV/JSON
    # formatting of thousands of rows, which makes cli self time visible.
    # eps = 0.001 runs 2000 trials, not 500: at 500 the seed alone moved
    # the job's work (sum of squared batch counts) by 10 % between seeds.
    "batching": [
        Job("batch-e1", ["batch", "--epsilon", "0.1", "--trials", "2000"], seeded=True),
        Job("batch-e2-json", ["batch", "--epsilon", "0.01", "--trials", "2000",
                              "--format", "json"], seeded=True),
        Job("batch-e3", ["batch", "--epsilon", "0.001", "--trials", "2000"], seeded=True),
        Job("eof", ["eof"]),
    ],
}


def load_definition() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


# ----------------------------------------------------------------- jobs

def probe() -> float:
    """Seconds for a fixed pure-Python loop, best of three.

    Run in this process just before a job's child starts and just after
    it exits, it measures how fast the machine is at that moment; job
    times are divided by it (see ``speed_scale``).  It runs outside the
    child so that nothing the program does to its own process (threads
    left running, say) can slow the probe along with the job and be
    divided out.
    """
    best = float("inf")
    for _ in range(3):
        t = time.perf_counter()
        x = 0
        for i in range(300_000):
            x += i * i
        best = min(best, time.perf_counter() - t)
    return best


def pin_cpu() -> None:
    """Pin this process, and so every job it starts, to ``JOB_CPU``.

    Other tenants of the shared host slow each CPU by a different amount
    at a given moment: a probe run on another CPU than the job did not
    correlate with the job's time at all (r = 0.06 over 80 fig3 jobs),
    while one run on the job's own CPU did (r = 0.78).  The cost is that
    a job sees one CPU, so OpenBLAS runs one thread and the 10-pair SVD
    is slower than on an idle two-core machine.
    """
    os.sched_setaffinity(0, {JOB_CPU})


def run_job(job: Job, seed: int, trace: bool, deadline: float) -> dict:
    """Run one job in a fresh interpreter; check and return its record."""
    out_path = os.path.join(WORK, job.name + ".out")
    result_path = os.path.join(WORK, job.name + ".result.json")
    for path in (out_path, result_path):
        if os.path.exists(path):
            os.remove(path)
    spec = {"kind": "api" if job.api else "cli", "argv": job.cli_argv(seed),
            "api": job.api, "out": out_path, "trace": trace}
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    record = {"job": job.name, "error": None}
    probe_before = probe()
    try:
        proc = subprocess.run(
            [sys.executable, JOB_PY, json.dumps(spec), result_path],
            env=env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        record["error"] = "timed out"
        return record
    record["probe_s"] = [probe_before, probe()]
    if proc.returncode != 0 or not os.path.exists(result_path):
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        record["error"] = f"job process exited {proc.returncode}: {' '.join(tail)}"
        return record
    with open(result_path) as fh:
        record.update(json.load(fh))
    record["error"] = check_output(job, record["exit_code"], out_path, seed)
    record["out_bytes"] = os.path.getsize(out_path) if job.argv and os.path.exists(out_path) else 0
    return record


def check_output(job: Job, exit_code: int, out_path: str, seed: int) -> str | None:
    """checks.check, with malformed output that makes it raise counted as failed."""
    try:
        return checks.check(job, exit_code, out_path, seed)
    except Exception as exc:
        return f"check raised {type(exc).__name__}: {exc}"


def run_pass(jobs: list[Job], seed: int, trace: bool, deadline: float) -> list[dict]:
    records = []
    for job in jobs:
        records.append(run_job(job, seed, trace, deadline))
        if records[-1]["error"] == "timed out":
            break
    return records


def pass_wall(records: list[dict]) -> float:
    return sum(r["job_s"] for r in records)


def speed_scale(record: dict) -> float:
    """Factor from this job's raw seconds to seconds at the reference speed.

    The host is shared: for seconds to minutes at a time other tenants
    slow the work here by up to 2x, which moved raw medians by 15-40 %
    between runs.  Scaling by the speed probe taken around the job
    cancels part of that; raw times stay in the detail record.
    """
    return REF_PROBE_S / statistics.fmean(record["probe_s"])


def calibrated(record: dict, key: str) -> float:
    return record[key] * speed_scale(record)


def wall(passes: list[list[dict]]) -> float:
    """Sum over jobs of each job's median calibrated time across passes."""
    times: dict[str, list[float]] = {}
    for records in passes:
        for r in records:
            times.setdefault(r["job"], []).append(calibrated(r, "job_s"))
    return sum(statistics.median(v) for v in times.values())


def pass_complete(records: list[dict], jobs: list[Job]) -> bool:
    return len(records) == len(jobs) and all("job_s" in r for r in records)


# -------------------------------------------------------- trace metrics

def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, keyed by metric name.

    Times are calibrated with the probe of the job they belong to."""
    out: dict[str, float] = {}
    for kinds in (LEAVES, SPANS):
        for mod, fnames in kinds.items():
            for fn in fnames:
                for stat in ("calls", "s", "self_s"):
                    out[f"{mod}.{fn}.{stat}"] = 0
    counters: dict[str, int] = {}
    out["cli.self.s"] = 0.0
    out["cli.out_bytes"] = 0
    for job in (j for jobs in WORKLOADS.values() for j in jobs):
        out[f"cli.job.{job.name}.s"] = 0.0
    for r in records:
        tr = r["trace"]
        scale = speed_scale(r)
        for name, agg in tr["layers"].items():
            if name == ROOT_SPAN:
                out["cli.self.s"] += agg["self_s"] * scale
                continue
            out[f"{name}.calls"] += agg["calls"]
            out[f"{name}.s"] += agg["s"] * scale
            out[f"{name}.self_s"] += agg["self_s"] * scale
        for name, value in tr["counters"].items():
            if name.endswith(".max"):
                counters[name] = max(counters.get(name, 0), value)
            else:
                counters[name] = counters.get(name, 0) + value
        out[f"cli.job.{r['job']}.s"] = calibrated(r, "job_s")
        out["cli.out_bytes"] += r["out_bytes"]
    out.update(counters)
    return out


def is_count(unit: str) -> bool:
    return unit != "s"


# ----------------------------------------------------------------- main

def environment(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    env = {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": None,
        "blas": None,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(CPUS),
        "pinned_cpu": JOB_CPU,
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }
    try:
        import numpy

        env["numpy"] = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError):
        pass
    return env


def git_commit() -> str | None:
    """HEAD of the repository, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run one workload for about `seconds` and return its result."""
    definition = load_definition()
    jobs = WORKLOADS[workload]
    os.makedirs(WORK, exist_ok=True)
    pin_cpu()
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    untraced: list[list[dict]] = []
    traced: list[list[dict]] = []
    while True:
        mode = trace and len(traced) <= len(untraced)  # traced first, then alternate
        records = run_pass(jobs, seed, mode, deadline)
        (traced if mode else untraced).append(records)
        if not pass_complete(records, jobs):
            break
        enough = untraced and (traced or not trace)
        if enough and time.monotonic() - start >= seconds:
            break

    all_records = [r for p in untraced + traced for r in p]
    failures = [(r["job"], r["error"]) for r in all_records if r["error"]]
    untraced = [p for p in untraced if pass_complete(p, jobs)]
    traced = [p for p in traced if pass_complete(p, jobs)]
    samples: dict[str, int] = {}
    jobs_detail = {}
    for job in jobs:
        times = [r["job_s"] for p in untraced for r in p if r["job"] == job.name]
        if times:
            jobs_detail[job.name] = {"raw_min_s": min(times),
                                     "raw_median_s": statistics.median(times), "n": len(times)}

    metrics: dict[str, dict] = {}
    if not trace and untraced:
        setups = [calibrated(r, "setup_s") for p in untraced for r in p]
        rss = [r["peak_rss_kb"] for p in untraced for r in p]
        values = {
            "setup_s": (statistics.median(setups), len(setups)),
            "wall_s": (wall(untraced), len(untraced)),
            "peak_rss_mb": (max(rss) / 1024.0, len(rss)),
        }
        for m in definition["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]][0], "unit": m["unit"]}
            samples[m["name"]] = values[m["name"]][1]
    elif trace and traced and untraced:
        per_pass = [layer_metrics(p) for p in traced]
        for m in definition["per_layer"]:
            name, unit = m["name"], m["unit"]
            if name == "trace.overhead_s":
                value, n = wall(traced) - wall(untraced), len(traced)
            else:
                values = [pm[name] for pm in per_pass]
                n = len(values)
                if is_count(unit):
                    if len(set(values)) != 1:
                        failures.append(("trace", f"{name} differs across traced passes: {values}"))
                    value = values[0]
                else:
                    value = statistics.median(values)
            metrics[name] = {"value": value, "unit": unit}
            samples[name] = n
        with open(os.path.join(WORK, f"{workload}.spans.json"), "w") as fh:
            json.dump({r["job"]: r["trace"]["spans"] for r in traced[-1]}, fh)

    with open(os.path.join(WORK, f"{workload}.records.json"), "w") as fh:
        json.dump({"untraced": untraced, "traced": [[{k: v for k, v in r.items() if k != "trace"}
                                                     for r in p] for p in traced]}, fh)

    wanted = definition["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        failures.append(("benchmark", f"metrics not measured: {missing}"))
    failed = sum(1 for r in all_records if r["error"])
    attempted = len(all_records)
    return {
        "result": {
            "correct": not failures,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
        "detail": {
            "env": environment(workload, seed, seconds, trace),
            "passes": {"untraced": len(untraced), "traced": len(traced)},
            "raw_pass_wall_s": {"untraced": [pass_wall(p) for p in untraced],
                                "traced": [pass_wall(p) for p in traced]},
            "probe_s_median": statistics.median(x for p in untraced + traced
                                                for r in p for x in r["probe_s"])
            if untraced else None,
            "samples": samples,
            "jobs": jobs_detail,
            "untraced_functions": sorted({n for p in traced for r in p for n in r["trace"]["missing"]}),
            "fail_frac": failed / attempted if attempted else None,
            "failures": failures[:20],
            "elapsed_s": time.monotonic() - start,
        },
    }


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=0xC0FFEE)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.exists(os.path.join(SRC, "triconc", "cli.py")):
        print(f"error: no triconc sources under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else load_definition()["run_seconds"]
    out = measure(args.workload, args.seed, seconds, bool(args.trace))
    for name, m in out["result"]["metrics"].items():
        print(f"# {args.workload}: {name} = {m['value']:.6g} {m['unit']} "
              f"(n={out['detail']['samples'][name]})")
    print(f"# {args.workload}: fail_frac = {out['detail']['fail_frac']} "
          f"({out['result']['failed']}/{out['result']['attempted']} jobs)")
    print("# detail " + json.dumps(out["detail"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
