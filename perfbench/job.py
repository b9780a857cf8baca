"""Run one benchmark job in a fresh interpreter and report its timings.

Usage: python3 perfbench/job.py SPEC_JSON RESULT_PATH

SPEC_JSON is an object with keys ``kind`` ("cli" or "api"), ``argv``
(CLI arguments, without ``--out``), ``api`` (name of an API call
sequence), ``out`` (output path) and ``trace`` (bool).  The result file
receives ``setup_s`` (import of ``triconc.cli`` plus building its
parser), ``job_s`` (the CLI call or API sequence alone), ``exit_code``,
``peak_rss_kb`` and, when traced, the tracer's report.

The interpreter is fresh for every job because a user's ``triconc``
command always starts cold, and because no cache inside the package
may carry over from one job to the next.
"""

import sys
import time

_t0 = time.perf_counter()
import triconc.cli as cli  # noqa: E402  (timed as set-up)

cli._build_parser()
SETUP_S = time.perf_counter() - _t0

import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

from triconc import oracle, teststate  # noqa: E402  (already loaded by cli)


def _dense10() -> dict:
    """Build the (10, 5) Bell test state, take its spectrum, relabel, repeat."""
    spec = teststate.TestStateSpec(10, 5)
    state = oracle.build_test_state(spec)
    e_in = oracle.entropy_of(oracle.schmidt_spectrum(state))
    relabeled = oracle.apply_ubc(state, 10, 5, oracle.PairEncoding.bell())
    e_out = oracle.entropy_of(oracle.schmidt_spectrum(relabeled))
    return {"spec": spec, "e_in_oracle": e_in, "e_out_oracle": e_out}


API_JOBS = {"dense10": _dense10}


def peak_rss_kb() -> int:
    """Peak resident set size of this process, in KiB.

    Read as VmHWM, not ru_maxrss: Linux carries the parent's high-water
    mark over exec into ru_maxrss, so a job smaller than the benchmark
    process that started it would read the benchmark's size.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(spec_text: str, result_path: str) -> int:
    spec = json.loads(spec_text)
    tracer = None
    if spec["trace"]:
        from layertrace import Tracer  # this script's directory is sys.path[0]

        tracer = Tracer()
        tracer.install()

    api_result = None
    with tracer.root() if tracer is not None else contextlib.nullcontext():
        t1 = time.perf_counter()
        if spec["kind"] == "cli":
            code = cli.main(list(spec["argv"]) + ["--out", spec["out"]])
        else:
            api_result = API_JOBS[spec["api"]]()
            code = 0
        job_s = time.perf_counter() - t1
    if tracer is not None:
        tracer.uninstall()

    if api_result is not None:
        # Reference value computed after the timed region, untraced.
        api_result["e_in_formula"] = teststate.e_in(api_result.pop("spec"))
        with open(spec["out"], "w") as fh:
            json.dump(api_result, fh)

    result = {
        "setup_s": SETUP_S,
        "job_s": job_s,
        "exit_code": code,
        "peak_rss_kb": peak_rss_kb(),
        "trace": tracer.report() if tracer is not None else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
