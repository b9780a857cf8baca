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
emits the same rows as a strict JSON document, with null where CSV
prints nan.

Exit codes: 0 success, 1 oracle-check found a delta, 2 bad input or an
unwritable --out, 3 internal error (any other fault, e.g. a failed invariant
or, for oracle-check, batch and eof, a numpy that cannot be imported).

Importing this module loads no numpy: fig2 and fig3 are exact integer
arithmetic and never touch it.  oracle-check imports the dense oracle,
and batch the batching protocol, inside the command, so no other
command compiles them; batch and eof import numpy only when they run.
teststate, exactmath and eof stay module-level imports: fig2, fig3 and
oracle-check need the first two anyway, perfbench/job.py times `import
triconc.cli` as set-up and imports teststate right after it (so a lazy
teststate would only move its cost out of that timing), and eof is
small and is wrapped by tracers installed after this module is
imported.  Nor does it load dataclasses (and its inspect), json or
fractions (and its decimal), which no command needs to start: the
package's records are named tuples, json loads with the first JSON
document, and fractions with the first Fraction built
(AmplitudeTable.xi_sq and .normalization()); no command builds one, an
inferred fig2 or fig3 grid step included.  A record copies with
_replace and converts with _asdict, in place of dataclasses.replace and
asdict, and equals the plain tuple of its fields.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from collections.abc import Iterator
from typing import TYPE_CHECKING

from . import eof as eof_mod
from . import teststate
from .exactmath import ordered_sum

if TYPE_CHECKING:
    from .protocol import BatchConfig

DEFAULT_SEED = 0xC0FFEE
_CHECK_TOL = 1e-10


#: Rows of a table that _json encodes in one call.
_JSON_ROWS = 64


class UsageError(ValueError):
    """Bad flag value or combination; maps to exit code 2."""


def _json(doc: object) -> list[str]:
    """json.dumps(doc, indent=2, sort_keys=True) + "\n" in pieces, strict:
    a NaN or infinity left in doc raises ValueError.  Keys are str.

    With an indent json encodes in Python, one small string per token.
    Here json's C encoder does the encoding instead: it takes no indent,
    but an item separator of ",\n" plus the items' indent.  A dict or
    list of scalars is one call, its brackets then put on their own
    lines, and a container that holds containers is written item by
    item.  An iterator in doc stands for a list of the rows of a
    table, non-empty dicts of scalars; they are encoded _JSON_ROWS at a
    time as one list, whose seams "},\n<indent>{" between rows are then
    rewritten to the indented form.  Only those are seams: a raw newline
    occurs only in a separator, since JSON escapes it in strings.  All
    the pieces are made before the caller writes any.
    """
    import json  # here: CSV, the default of every table, needs none

    def encode(obj: object, depth: int) -> str:
        # obj with its items, if any, indented to depth
        return json.JSONEncoder(sort_keys=True, allow_nan=False,
                                separators=(",\n" + "  " * depth, ": ")).encode(obj)

    def pieces(obj: object, depth: int) -> Iterator[str]:
        # obj with its closing bracket, if any, indented to depth
        inner, outer = "\n" + "  " * (depth + 1), "\n" + "  " * depth
        if isinstance(obj, Iterator):  # a table's rows
            item, head = inner + "  ", "["
            while group := list(itertools.islice(obj, _JSON_ROWS)):
                text = encode(group, depth + 2)[2:-2].replace(
                    "}," + item + "{", inner + "}," + inner + "{" + item)
                yield head + inner + "{" + item + text + inner + "}"
                head = ","
            yield "[]" if head == "[" else outer + "]"
            return
        items = obj.values() if isinstance(obj, dict) else obj
        if not (obj and isinstance(obj, (dict, list, tuple))):
            yield encode(obj, depth)  # a scalar, {} or []
        elif not any(isinstance(v, (dict, list, tuple, Iterator)) for v in items):
            text = encode(obj, depth + 1)
            yield text[0] + inner + text[1:-1] + outer + text[-1]
        else:
            is_dict = isinstance(obj, dict)
            keyed = ([(encode(k, 0) + ": ", v) for k, v in sorted(obj.items())]
                     if is_dict else [("", v) for v in obj])
            head = "{" if is_dict else "["
            for key, value in keyed:
                yield head + inner + key
                yield from pieces(value, depth + 1)
                head = ","
            yield outer + ("}" if is_dict else "]")

    return [*pieces(doc, 0), "\n"]


def _null_nan(v: object) -> object:
    return None if isinstance(v, float) and math.isnan(v) else v


def _render(schema: str, fmt: str, header: list[str], rows: list[list[object]],
            summary: dict[str, float] | None = None) -> list[str]:
    """A table as CSV, or as a JSON document with the same rows and each
    NaN as null, in the pieces that _emit writes.

    A summary goes under "summary" in JSON and into a trailing CSV row
    padded to the header's width.  CSV is one piece; JSON is _json's
    pieces, each row's dict built just before its group is encoded.
    """
    if fmt == "json":
        doc: dict[str, object] = {
            "schema": f"{schema}/1",
            "rows": (dict(zip(header, map(_null_nan, row))) for row in rows),
        }
        if summary is not None:
            doc["summary"] = {k: _null_nan(v) for k, v in summary.items()}
        return _json(doc)
    if summary is not None:
        pad = [""] * (len(header) - 1 - len(summary))
        rows = rows + [["summary", *summary.values(), *pad]]
    lines = [f"# schema={schema}/1", ",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.12g}" if isinstance(v, float) else str(v) for v in row))
    return ["\n".join(lines) + "\n"]


def _emit(pieces: list[str], out: str) -> None:
    """Write the pieces of a dataset or report to out ("-": stdout) one
    after another, never joined into one string."""
    if out == "-":
        sys.stdout.writelines(pieces)
    else:
        with open(out, "w", newline="") as fh:
            fh.writelines(pieces)


def _grid(p: float, n_max: int, step: int | None = None) -> range:
    """The n grid step, 2*step, ... <= n_max on which k = n*p is exact.

    step*p must be an integer; the default step is the smallest such.
    """
    if not 0.0 <= p <= 1.0:
        raise UsageError(f"probability out of [0, 1]: {p}")
    source = "--step"
    if step is None:
        step, source = _denominator(p, 10**6), "inferred step"
    if step < 1:
        raise UsageError(f"--step must be >= 1, got {step}")
    if abs(step * p - round(step * p)) > 1e-9:
        raise UsageError(f"p = {p} with {source} {step}: step*p = {step * p} is not an integer")
    return range(step, n_max + 1, step)


def _denominator(x: float, limit: int) -> int:
    """Fraction(x).limit_denominator(limit).denominator, for x >= 0,
    without the fractions module.

    limit_denominator's walk: the continued fraction of x's integer
    ratio n/d until the next convergent's denominator passes limit, then
    the nearer of the last convergent q1 and the semiconvergent q0 +
    k q1 with the largest denominator at most limit, q1 when they tie.
    x lies between the two, 1 / (q1 (q0 + k q1)) apart, and r / (q1 d)
    from the convergent, r the remainder left by the walk, so the
    convergent is the nearer when 2 r (q0 + k q1) <= d."""
    num, den = x.as_integer_ratio()
    if den <= limit:
        return den
    q0, q1, n, r = 1, 0, num, den
    while q0 + (a := n // r) * q1 <= limit:
        q0, q1, n, r = q1, q0 + a * q1, r, n - a * r
    k = (limit - q0) // q1
    return q1 if 2 * r * (q0 + k * q1) <= den else q0 + k * q1


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
    grid = _grid(p, n_max, step)
    if not grid:
        raise UsageError(f"--n-max {n_max} leaves no grid points at step {grid.step}")
    reports = teststate.gap_scan(p, list(grid))
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
        grid = _grid(p, n_max)
        if len(grid) < 3:
            print(
                f"warning: p={p} admits only {len(grid)} integer-n*p points "
                f"up to n_max={n_max}; need 3 for a fit",
                file=sys.stderr,
            )
            rows.append([float(p), float("nan"), float("nan")])
            continue
        slope, _, residual = teststate.slope_fit(p, list(grid))
        rows.append([float(p), slope, residual])
    return header, rows


# ---------------------------------------------------------- oracle-check

def cmd_oracle_check(n_max: int) -> tuple[dict[str, object], int]:
    from . import oracle  # the only command that builds dense states

    if not 1 <= n_max <= 8:
        raise UsageError(f"--n-max must be in [1, 8] for the oracle, got {n_max}")
    bell = oracle.PairEncoding.bell()
    prod = oracle.PairEncoding.product()
    entries = []
    failures = []
    for n in range(1, n_max + 1):
        for k in range(n + 1):
            spec = teststate.TestStateSpec(n=n, k=k)
            e_in_f = teststate.e_in(spec)
            e_out_f = teststate.e_out(spec)
            state = oracle.build_test_state(spec)
            e_in_o = oracle.entropy_of(oracle.schmidt_spectrum(state))
            out_state = oracle.apply_ubc(state, n, k, bell)
            e_out_o = oracle.entropy_of(oracle.schmidt_spectrum(out_state))
            # apply_ubc moves each permutation string's coefficient to its codebook
            # image: an isometry iff the images are distinct; the test state lands on them
            images = {image for _, image in oracle.ubc_codebook(n, k)}
            expected = oracle.superpose_strings(sorted(images), bell)
            iso_dev = max(float(len(images) < math.comb(n, k)),
                          float(abs(out_state.amps - expected.amps).max()))
            # product encoding: relabeling must not move any entanglement
            pstate = oracle.superpose_strings(oracle.permutation_strings(n, k), prod)
            pout = oracle.apply_ubc(pstate, n, k, prod)
            entry = {
                "n": n,
                "k": k,
                "e_in_formula": e_in_f,
                "e_in_oracle": e_in_o,
                "e_in_delta": abs(e_in_f - e_in_o),
                "e_out_formula": e_out_f,
                "e_out_oracle": e_out_o,
                "e_out_delta": abs(e_out_f - e_out_o),
                "ubc_isometry_dev": iso_dev,
                "product_encoding_gap": oracle.entanglement_delta(pstate, pout),
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
        worst, images = oracle.verify_n2_circuit()
        passed = worst < _CHECK_TOL and len(set(images.values())) == len(images)
        report["n2_locc"] = "pass" if passed else "fail"
        report["n2_locc_detail"] = {
            "status": report["n2_locc"],
            "worst_infidelity": worst,
            "images": {"".join(map(str, i)): "".join(map(str, o))
                       for i, o in images.items()},
        }
        if not passed:
            failures.append({"check": "n2_locc"})
    report["all_within_tolerance"] = not failures
    return report, 0 if not failures else 1


# ---------------------------------------------------------------- batch

def cmd_batch(cfg: BatchConfig, trials: int) -> tuple[
    list[str], list[list[object]], dict[str, float]
]:
    from .protocol import run_trials

    if trials < 1:
        raise UsageError(f"--trials must be >= 1, got {trials}")
    header = ["trial", "m_batches", "l", "eps_prime", "n_total",
              "gamma_bound", "status"]
    rows: list[list[object]] = []
    m_values = []
    for trial, (stats, truncated) in enumerate(
            run_trials(cfg, range(trials))):
        rows.append([
            trial, stats.m_batches, stats.l, stats.eps_prime,
            stats.n_total, stats.gamma_entropy_bound,
            "truncated" if truncated else "ok",
        ])
        m_values.append(stats.m_batches)
    mean_m = ordered_sum(m_values) / len(m_values)
    if len(m_values) > 1:
        var = ordered_sum((m - mean_m) ** 2 for m in m_values) / (len(m_values) - 1)
        stderr_m = math.sqrt(var / len(m_values))
    else:
        stderr_m = float("nan")
    summary = {"mean_m": mean_m, "stderr_m": stderr_m}
    return header, rows, summary


def _run_batch(args: argparse.Namespace) -> tuple[
    list[str], list[list[object]], dict[str, float]
]:
    from . import protocol  # the only command that walks batching runs

    try:
        cfg = protocol.BatchConfig(n=args.n, p=args.p, epsilon=args.epsilon,
                                   seed=args.seed)
    except ValueError as exc:  # n, p, epsilon and seed are all flags
        raise UsageError(str(exc)) from exc
    return cmd_batch(cfg, args.trials)


# ------------------------------------------------------------------ eof

def cmd_eof(p_grid: list[float]) -> tuple[list[str], list[list[object]]]:
    header = ["p", "ef_in", "ef_out", "locking_deficit", "s_a", "s_b"]
    rows: list[list[object]] = [
        [float(led.p), led.ef_in_per_copy, led.ef_out_per_copy,
         led.locking_deficit_per_copy, led.s_a_per_copy, led.s_b_per_copy]
        for led in eof_mod.ledgers(p_grid)
    ]
    return header, rows


# ----------------------------------------------------------------- main

def _parse_seed(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"need an integer like 42, 0xC0FFEE, 0o17 or 0b101, got {text!r}") from None


def _add_common(target: argparse.ArgumentParser, suppress: bool) -> None:
    # The same flags are accepted before and after the subcommand; the
    # subcommand copies use SUPPRESS defaults so an earlier value survives.
    def dflt(value):
        return argparse.SUPPRESS if suppress else value

    target.add_argument("--seed", type=_parse_seed,
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

    def command(name: str, help: str, run) -> argparse.ArgumentParser:
        # run(args) returns oracle-check's (report, exit code), or a
        # table (header, rows[, summary]) named by its command.
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(run=run)
        _add_common(sp, suppress=True)
        return sp

    p_fig2 = command("fig2", "gap vs n dataset at fixed p",
                     lambda a: cmd_fig2(a.p, a.n_max, a.step))
    p_fig2.add_argument("--p", type=float, required=True)
    p_fig2.add_argument("--n-max", type=int, default=500)
    p_fig2.add_argument("--step", type=int, default=None,
                        help="n grid step; must make step*p an integer "
                             "(default: smallest such step)")

    p_fig3 = command("fig3", "gap slope vs p dataset",
                     lambda a: cmd_fig3(_parse_p_list(a.p_list), a.n_max))
    p_fig3.add_argument("--p-list", required=True,
                        help="comma-separated probabilities")
    p_fig3.add_argument("--n-max", type=int, default=500)

    p_oc = command("oracle-check",
                   "formula-vs-oracle JSON report (exit 1 on any delta >= 1e-10)",
                   lambda a: cmd_oracle_check(a.n_max))
    p_oc.add_argument("--n-max", type=int, default=4)

    p_batch = command("batch", "batching stopping-rule trials", _run_batch)
    p_batch.add_argument("--epsilon", type=float, required=True)
    p_batch.add_argument("--n", type=int, default=20, help="copies per batch")
    p_batch.add_argument("--p", type=float, default=0.5)
    p_batch.add_argument("--trials", type=int, default=2000)

    p_eof = command("eof", "entanglement-of-formation ledger",
                    lambda a: cmd_eof([i / 100 for i in range(101)] if a.p_list is None
                                      else _parse_p_list(a.p_list)))
    p_eof.add_argument("--p-list", default=None,
                       help="comma-separated probabilities "
                            "(default: 101-point uniform grid on [0, 1])")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        result = args.run(args)
        if isinstance(result[0], dict):  # oracle-check's (report, exit code)
            report, code = result
            pieces = _json(report)
        else:
            code, pieces = 0, _render(args.command, args.format, *result)
        _emit(pieces, args.out)
    except (UsageError, OSError) as exc:  # OSError: --out cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a broken invariant or a bug, not bad input
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
