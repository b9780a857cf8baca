"""Correctness checks for the output of each benchmark job.

Every job's output is checked; a failed check counts against the
workload's ``failed`` total.  Dataset bytes (``fig2``, ``fig3``, ``eof``
and, at the pinned seed, ``batch``) must hash to the values pinned in
``pinned.json``.  At any other seed the ``batch`` rows are checked
against the stopping rule's invariants instead.  The oracle jobs are
checked semantically so that a change of SVD dtype or BLAS, which moves
the last bits of an oracle value, is not counted as a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

_HERE = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(_HERE, "pinned.json")) as _fh:
    PINNED = json.load(_fh)

#: Oracle values may move by this much (dtype, BLAS, summation order).
ORACLE_TOL = 1e-12
#: dense10's oracle entropy against the closed form.
DENSE10_TOL = 1e-10


def _flag(argv: list[str], name: str) -> str:
    return argv[argv.index(name) + 1]


def check(job, exit_code: int, out_path: str, seed: int) -> str | None:
    """Return None when the job's output is correct, else the reason."""
    expected_code = 1 if job.name == "oracle-check8" else 0
    if exit_code != expected_code:
        return f"exit code {exit_code}, expected {expected_code}"
    if not os.path.exists(out_path):
        return "no output file"
    with open(out_path, "rb") as fh:
        data = fh.read()
    if job.name == "oracle-check8":
        return _check_oracle_report(json.loads(data))
    if job.name == "dense10":
        doc = json.loads(data)
        delta = abs(doc["e_in_oracle"] - doc["e_in_formula"])
        return None if delta < DENSE10_TOL else f"|e_in oracle - formula| = {delta:.3e}"
    if job.seeded and seed != PINNED["seed"]:
        return _check_batch(job.argv, data.decode())
    digest = hashlib.sha256(data).hexdigest()
    want = PINNED["sha256"][job.name]
    return None if digest == want else f"sha256 {digest[:12]}.. != pinned {want[:12]}.."


def _check_oracle_report(doc: dict) -> str | None:
    pinned = PINNED["oracle_check8"]
    failures = {(f.get("n"), f.get("k"), f["check"]) for f in doc["failures"]}
    want = {tuple(f) for f in pinned["failures"]}
    if failures != want:
        return (f"failure set differs: {len(failures - want)} extra, "
                f"{len(want - failures)} missing")
    entries = {(e["n"], e["k"]): e for e in doc["entries"]}
    if set(entries) != {(n, k) for n, k, *_ in pinned["entries"]}:
        return "entry set differs"
    for n, k, e_in_f, e_out_f, e_in_o, e_out_o in pinned["entries"]:
        e = entries[(n, k)]
        if e["e_in_formula"] != e_in_f or e["e_out_formula"] != e_out_f:
            return f"formula value changed at (n={n}, k={k})"
        if (abs(e["e_in_oracle"] - e_in_o) > ORACLE_TOL
                or abs(e["e_out_oracle"] - e_out_o) > ORACLE_TOL):
            return f"oracle value moved by more than {ORACLE_TOL} at (n={n}, k={k})"
    return None


def _check_batch(argv: list[str], text: str) -> str | None:
    """Invariants of `triconc batch` output at an unpinned seed."""
    eps = float(_flag(argv, "--epsilon"))
    trials = int(_flag(argv, "--trials"))
    n = 20  # the CLI default copies per batch; the jobs do not set --n
    if "--format" in argv and _flag(argv, "--format") == "json":
        doc = json.loads(text)
        rows = [(r["trial"], r["m_batches"], r["eps_prime"], r["n_total"], r["status"])
                for r in doc["rows"]]
        mean_m, stderr_m = doc["summary"]["mean_m"], doc["summary"]["stderr_m"]
        rel = 1e-12
    else:
        lines = text.splitlines()
        if lines[0] != "# schema=batch/1":
            return f"unexpected schema line {lines[0]!r}"
        summary = lines[-1].split(",")
        if summary[0] != "summary":
            return "no summary row"
        rows = []
        for line in lines[2:-1]:
            f = line.split(",")
            rows.append((int(f[0]), int(f[1]), float(f[3]), int(f[4]), f[6]))
        mean_m, stderr_m = float(summary[1]), float(summary[2])
        rel = 1e-11  # reals are printed to 12 significant digits
    if len(rows) != trials:
        return f"{len(rows)} rows, expected {trials}"
    for index, (trial, m, eps_prime, n_total, status) in enumerate(rows):
        if trial != index or n_total != m * n:
            return f"row {index} is inconsistent"
        if status == "ok" and not 0.0 <= eps_prime <= eps:
            return f"row {index}: eps' = {eps_prime} outside [0, {eps}]"
        if status not in ("ok", "truncated"):
            return f"row {index}: status {status!r}"
    ms = [m for _, m, _, _, _ in rows]
    mean = sum(ms) / len(ms)
    se = math.sqrt(sum((m - mean) ** 2 for m in ms) / (len(ms) - 1) / len(ms))
    if not (math.isclose(mean, mean_m, rel_tol=rel)
            and math.isclose(se, stderr_m, rel_tol=rel)):
        return f"summary ({mean_m}, {stderr_m}) != rows' ({mean}, {se})"
    return None
