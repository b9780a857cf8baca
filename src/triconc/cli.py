"""Command-line front end emitting machine-readable datasets.

Subcommands
-----------
fig2          (n, k, e_in, e_out, gap) rows over an integer-n*p grid
fig3          (p, slope, residual) rows, one OLS fit per p
oracle-check  JSON report pitting the closed forms against the
              brute-force state-vector oracle (exit 1 on any delta
              >= 1e-10)
batch         per-trial batching statistics plus a summary row
eof           (p, ef_in, ef_out, locking_deficit, s_a, s_b) rows

All commands are deterministic given their flags and --seed (default
0xC0FFEE); repeated runs produce byte-identical output.  CSV is
comma-separated with LF line endings, a leading `# schema=<name>/1`
comment, and reals printed to 12 significant digits.  `--format json`
emits the same rows as a JSON document.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction

import numpy as np

from . import eof as eof_mod
from . import oracle, protocol, teststate

DEFAULT_SEED = 0xC0FFEE
_CHECK_TOL = 1e-10


class UsageError(ValueError):
    """Bad flag combination; maps to exit code 2."""


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _csv(schema: str, header: list[str], rows: list[list[object]]) -> str:
    lines = [f"# schema={schema}/1", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _json_doc(schema: str, header: list[str], rows: list[list[object]],
              summary: dict | None = None) -> str:
    doc: dict[str, object] = {
        "schema": f"{schema}/1",
        "rows": [dict(zip(header, row)) for row in rows],
    }
    if summary is not None:
        doc["summary"] = summary
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _min_step(p: float) -> int:
    return Fraction(p).limit_denominator(10**6).denominator


def _check_integral(value: float, what: str) -> None:
    if abs(value - round(value)) > 1e-9:
        raise UsageError(f"{what} = {value} is not an integer")


def _parse_p_list(text: str) -> list[float]:
    try:
        ps = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError as exc:
        raise UsageError(f"bad --p-list: {exc}") from exc
    if not ps:
        raise UsageError("--p-list is empty")
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise UsageError(f"probability out of [0, 1]: {p}")
    return ps


# ----------------------------------------------------------------- fig2

def cmd_fig2(p: float, n_max: int, step: int | None) -> tuple[list[str], list[list[object]]]:
    if not 0.0 <= p <= 1.0:
        raise UsageError(f"probability out of [0, 1]: {p}")
    if step is None:
        step = _min_step(p)
    if step < 1:
        raise UsageError(f"--step must be >= 1, got {step}")
    _check_integral(step * p, "step*p")
    if n_max < step:
        raise UsageError(f"--n-max {n_max} leaves no grid points at step {step}")
    reports = teststate.gap_scan(p, list(range(step, n_max + 1, step)))
    header = ["n", "k", "e_in", "e_out", "gap"]
    rows: list[list[object]] = [
        [r.n, r.k, r.e_in, r.e_out, r.gap] for r in reports
    ]
    return header, rows


# ----------------------------------------------------------------- fig3

def cmd_fig3(p_list: list[float], n_max: int) -> tuple[list[str], list[list[object]]]:
    header = ["p", "slope", "residual"]
    rows: list[list[object]] = []
    for p in p_list:
        step = _min_step(p)
        grid = list(range(step, n_max + 1, step))
        if len(grid) < 3:
            print(
                f"warning: p={p} admits only {len(grid)} integer-n*p points "
                f"up to n_max={n_max}; need 3 for a fit",
                file=sys.stderr,
            )
            rows.append([float(p), float("nan"), float("nan")])
            continue
        fit = teststate.slope_fit(p, grid)
        rows.append([float(p), fit.slope, fit.residual])
    return header, rows


# ---------------------------------------------------------- oracle-check

def _n2_circuit_report() -> dict[str, object]:
    enc = oracle.PairEncoding.bell()
    circuit = oracle.compression_circuit_n2()
    codebook = dict(oracle.ubc_codebook(2, 1))
    logical = [(0, 0), (0, 1), (1, 0), (1, 1)]
    outputs = []
    worst = 0.0
    for bits in logical:
        out = oracle.apply_local_circuit(oracle.string_state(bits, enc), circuit)
        # nearest logical string, by overlap
        best_bits, best_fid = None, -1.0
        for cand in logical:
            fid = abs(np.vdot(oracle.string_state(cand, enc).amps, out.amps))
            if fid > best_fid:
                best_bits, best_fid = cand, fid
        outputs.append(best_bits)
        worst = max(worst, 1.0 - best_fid)
        if bits in codebook and best_bits != codebook[bits]:
            worst = max(worst, 1.0)  # wrong image for a pinned mapping
    distinct = len(set(outputs)) == len(outputs)
    passed = worst < _CHECK_TOL and distinct
    return {
        "status": "pass" if passed else "fail",
        "worst_infidelity": worst,
        "images": {"".join(map(str, i)): "".join(map(str, o))
                   for i, o in zip(logical, outputs)},
    }


def cmd_oracle_check(n_max: int) -> tuple[dict[str, object], int]:
    if not 1 <= n_max <= 8:
        raise UsageError(f"--n-max must be in [1, 8] for the oracle, got {n_max}")
    bell = oracle.PairEncoding.bell()
    prod = oracle.PairEncoding.product()
    entries = []
    failures = []
    for n in range(1, n_max + 1):
        for k in range(n + 1):
            spec = teststate.TestStateSpec(n=n, k=k, encoding=teststate.Encoding.BELL)
            e_in_f = teststate.e_in(spec)
            e_out_f = teststate.e_out(spec)
            state = oracle.build_test_state(spec, bell)
            e_in_o = oracle.entropy_of(oracle.schmidt_spectrum(state))
            out_state = oracle.apply_ubc(state, n, k, bell)
            e_out_o = oracle.entropy_of(oracle.schmidt_spectrum(out_state))
            # isometry of the relabeling on the permutation basis
            perms = oracle.permutation_strings(n, k)
            w = np.empty((len(perms), state.amps.size), dtype=state.amps.dtype)
            for row, perm in zip(w, perms):
                row[:] = oracle.apply_ubc(oracle.string_state(perm, bell), n, k, bell).amps
            gram_dev = float(np.max(np.abs(w @ w.conj().T - np.eye(len(perms)))))
            # product encoding: relabeling must not move any entanglement
            pspec = teststate.TestStateSpec(
                n=n, k=k, encoding=teststate.Encoding.PRODUCT
            )
            pstate = oracle.build_test_state(pspec, prod)
            pout = oracle.apply_ubc(pstate, n, k, prod)
            prod_delta = oracle.entanglement_delta(pstate, pout)
            entry = {
                "n": n,
                "k": k,
                "e_in_formula": e_in_f,
                "e_in_oracle": e_in_o,
                "e_in_delta": abs(e_in_f - e_in_o),
                "e_out_formula": e_out_f,
                "e_out_oracle": e_out_o,
                "e_out_delta": abs(e_out_f - e_out_o),
                "ubc_isometry_dev": gram_dev,
                "product_encoding_gap": prod_delta,
            }
            entries.append(entry)
            for key in ("e_in_delta", "e_out_delta", "ubc_isometry_dev",
                        "product_encoding_gap"):
                if entry[key] >= _CHECK_TOL:
                    failures.append({"n": n, "k": k, "check": key,
                                     "delta": entry[key]})
    report: dict[str, object] = {
        "n_max": n_max,
        "tolerance": _CHECK_TOL,
        "entries": entries,
        "failures": failures,
    }
    if n_max >= 2:
        n2 = _n2_circuit_report()
        report["n2_locc"] = n2["status"]
        report["n2_locc_detail"] = n2
        if n2["status"] != "pass":
            failures.append({"check": "n2_locc"})
    report["all_within_tolerance"] = not failures
    return report, 0 if not failures else 1


# ---------------------------------------------------------------- batch

def cmd_batch(cfg: protocol.BatchConfig, trials: int) -> tuple[
    list[str], list[list[object]], dict[str, float]
]:
    if trials < 1:
        raise UsageError(f"--trials must be >= 1, got {trials}")
    header = ["trial", "m_batches", "l", "eps_prime", "n_total",
              "gamma_bound", "status"]
    rows: list[list[object]] = []
    m_values = []
    for trial in range(trials):
        try:
            stats = protocol.run_batches(cfg, run_index=trial)
            status = "ok"
        except protocol.TruncationError as err:
            stats = err.stats
            status = "truncated"
        rows.append([
            trial, stats.m_batches, stats.l, stats.eps_prime,
            stats.n_total, stats.gamma_entropy_bound, status,
        ])
        m_values.append(stats.m_batches)
    mean_m = sum(m_values) / len(m_values)
    if len(m_values) > 1:
        var = sum((m - mean_m) ** 2 for m in m_values) / (len(m_values) - 1)
        stderr_m = math.sqrt(var / len(m_values))
    else:
        stderr_m = float("nan")
    summary = {"mean_m": mean_m, "stderr_m": stderr_m}
    return header, rows, summary


# ------------------------------------------------------------------ eof

def cmd_eof(p_grid: list[float]) -> tuple[list[str], list[list[object]]]:
    header = ["p", "ef_in", "ef_out", "locking_deficit", "s_a", "s_b"]
    rows: list[list[object]] = []
    for p in p_grid:
        led = eof_mod.ledger(p)
        rows.append([
            float(p), led.ef_in_per_copy, led.ef_out_per_copy,
            led.locking_deficit_per_copy, led.s_a_per_copy, led.s_b_per_copy,
        ])
    return header, rows


# ----------------------------------------------------------------- main

def _add_common(target: argparse.ArgumentParser, suppress: bool) -> None:
    # The same flags are accepted before and after the subcommand; the
    # subcommand copies use SUPPRESS defaults so an earlier value survives.
    def dflt(value):
        return argparse.SUPPRESS if suppress else value

    target.add_argument("--seed", type=lambda s: int(s, 0),
                        default=dflt(DEFAULT_SEED),
                        help="RNG seed for stochastic commands "
                             "(default 0xC0FFEE)")
    target.add_argument("--out", default=dflt("-"),
                        help="output path, or - for stdout (default)")
    target.add_argument("--format", choices=("csv", "json"),
                        default=dflt("csv"),
                        help="output format for tabular commands")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triconc",
        description="Entanglement-concentration numerics: figure datasets, "
                    "oracle checks, batching statistics, E_F ledgers.",
    )
    _add_common(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig2 = sub.add_parser("fig2", help="gap vs n dataset at fixed p")
    p_fig2.add_argument("--p", type=float, required=True)
    p_fig2.add_argument("--n-max", type=int, default=500)
    p_fig2.add_argument("--step", type=int, default=None,
                        help="n grid step; must make step*p an integer "
                             "(default: smallest such step)")

    p_fig3 = sub.add_parser("fig3", help="gap slope vs p dataset")
    p_fig3.add_argument("--p-list", required=True,
                        help="comma-separated probabilities")
    p_fig3.add_argument("--n-max", type=int, default=500)

    p_oc = sub.add_parser("oracle-check",
                          help="formula-vs-oracle JSON report (exit 1 on any "
                               "delta >= 1e-10)")
    p_oc.add_argument("--n-max", type=int, default=4)

    p_batch = sub.add_parser("batch", help="batching stopping-rule trials")
    p_batch.add_argument("--epsilon", type=float, required=True)
    p_batch.add_argument("--n", type=int, default=20, help="copies per batch")
    p_batch.add_argument("--p", type=float, default=0.5)
    p_batch.add_argument("--trials", type=int, default=2000)

    p_eof = sub.add_parser("eof", help="entanglement-of-formation ledger")
    p_eof.add_argument("--p-list", default=None,
                       help="comma-separated probabilities "
                            "(default: 101-point uniform grid on [0, 1])")

    for sp in (p_fig2, p_fig3, p_oc, p_batch, p_eof):
        _add_common(sp, suppress=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "fig2":
            header, rows = cmd_fig2(args.p, args.n_max, args.step)
            text = (_csv("fig2", header, rows) if args.format == "csv"
                    else _json_doc("fig2", header, rows))
            _emit(text, args.out)
            return 0
        if args.command == "fig3":
            header, rows = cmd_fig3(_parse_p_list(args.p_list), args.n_max)
            text = (_csv("fig3", header, rows) if args.format == "csv"
                    else _json_doc("fig3", header, rows))
            _emit(text, args.out)
            return 0
        if args.command == "oracle-check":
            report, code = cmd_oracle_check(args.n_max)
            _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.out)
            return code
        if args.command == "batch":
            cfg = protocol.BatchConfig(n=args.n, p=args.p, epsilon=args.epsilon,
                                       seed=args.seed)
            header, rows, summary = cmd_batch(cfg, args.trials)
            if args.format == "csv":
                text = _csv("batch", header, rows)
                text += f"summary,{_fmt(summary['mean_m'])},{_fmt(summary['stderr_m'])},,,,\n"
            else:
                text = _json_doc("batch", header, rows, summary=summary)
            _emit(text, args.out)
            return 0
        if args.command == "eof":
            grid = ([i / 100 for i in range(101)] if args.p_list is None
                    else _parse_p_list(args.p_list))
            header, rows = cmd_eof(grid)
            text = (_csv("eof", header, rows) if args.format == "csv"
                    else _json_doc("eof", header, rows))
            _emit(text, args.out)
            return 0
        raise UsageError(f"unknown command {args.command!r}")
    except ValueError as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
