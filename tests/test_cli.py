"""End-to-end CLI contracts: schemas, determinism, exit codes."""

import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import triconc
from triconc import cli, exactmath, oracle, protocol
from triconc.protocol import BatchConfig


def run_cli(args, tmp_path, name="out.csv"):
    path = tmp_path / name
    code = cli.main(args + ["--out", str(path)])
    text = path.read_text() if path.exists() else ""
    return code, text


def _reject(constant):
    raise ValueError(f"{constant} is not JSON")


def strict_json(text):
    """json.loads that refuses the NaN and Infinity extensions."""
    return json.loads(text, parse_constant=_reject)


class TestFig2:
    def test_small_grid_rows(self, tmp_path):
        code, text = run_cli(
            ["fig2", "--p", "0.5", "--n-max", "4", "--step", "2"], tmp_path
        )
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "# schema=fig2/1"
        assert lines[1] == "n,k,e_in,e_out,gap"
        assert len(lines) == 4
        n2 = lines[2].split(",")
        assert n2[0] == "2" and n2[1] == "1"
        assert abs(float(n2[4])) < 1e-12  # gap(2) = 0 at p = 1/2
        assert text.endswith("\n")

    def test_non_integral_step_rejected(self, tmp_path, capsys):
        code, _ = run_cli(["fig2", "--p", "0.8", "--n-max", "20", "--step", "3"],
                          tmp_path)
        assert code == 2
        assert "not an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["fig2", "--p", "1e-7"], ["fig3", "--p-list", "1e-7"]],
                             ids=["fig2", "fig3"])
    def test_unusable_inferred_step_names_p_and_step(self, args, tmp_path, capsys):
        code, _ = run_cli(args + ["--n-max", "10"], tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert "p = 1e-07 with inferred step 1: step*p = 1e-07 is not an integer" in err

    def test_default_step_inferred(self, tmp_path):
        code, text = run_cli(["fig2", "--p", "0.8", "--n-max", "25"], tmp_path)
        assert code == 0
        rows = text.splitlines()[2:]
        assert [r.split(",")[0] for r in rows] == ["5", "10", "15", "20", "25"]

    def test_byte_identical_reruns(self, tmp_path):
        args = ["fig2", "--p", "0.8", "--n-max", "50", "--step", "5"]
        _, first = run_cli(args, tmp_path, "a.csv")
        _, second = run_cli(args, tmp_path, "b.csv")
        assert first == second

    def test_json_mirror(self, tmp_path):
        code, text = run_cli(
            ["--format", "json", "fig2", "--p", "0.5", "--n-max", "6", "--step", "2"],
            tmp_path, "out.json",
        )
        assert code == 0
        doc = strict_json(text)
        assert doc["schema"] == "fig2/1"
        assert [row["n"] for row in doc["rows"]] == [2, 4, 6]

    def test_full_grid_slope_recovered_from_csv(self, tmp_path):
        from triconc.teststate import fit_line

        code, text = run_cli(
            ["fig2", "--p", "0.8", "--n-max", "500", "--step", "5"], tmp_path
        )
        assert code == 0
        rows = [line.split(",") for line in text.splitlines()[2:]]
        assert len(rows) == 100
        slope, _, _ = fit_line([(float(r[0]), float(r[4])) for r in rows])
        assert abs(slope - 0.466) <= 0.01


#: Every p the tests, the README and CI give fig2 or fig3 without --step,
#: then 0, 1 and 1/3, then floats whose denominator is near 10^6.
GRID_PS = [0.5, 0.8, 0.2, 0.3, 0.1, 0.25, 0.75, 0.3333333433, 1e-7,
           0.0, 1.0, 1 / 3,
           *(k / d for d in (999_983, 999_999, 10**6, 10**6 + 1, 10**6 + 3)
             for k in (1, 2, 3, 499_999, 999_982)),
           1e-6, 1 - 1e-6, 0.5 + 1e-6, 0.5 + 5e-7, 0.5 + 4.99e-7, 5e-7]


class TestInferredStep:
    """The inferred grid step is Fraction(p).limit_denominator(10**6)'s
    denominator, found without the fractions module."""

    @pytest.mark.parametrize("p", GRID_PS)
    def test_listed_p(self, p):
        assert cli._denominator(p, 10**6) == Fraction(p).limit_denominator(10**6).denominator

    @pytest.mark.parametrize("limit", [1, 2, 3, 5, 10, 37])
    def test_ties_at_small_limits(self, limit):
        # x = j / 256 often lies midway between the two candidates, where
        # limit_denominator takes the convergent
        for j in range(257):
            want = Fraction(j, 256).limit_denominator(limit).denominator
            assert cli._denominator(j / 256, limit) == want, j

    @settings(max_examples=2000, deadline=None)
    @given(p=st.floats(0.0, 1.0))
    def test_any_p(self, p):
        assert cli._denominator(p, 10**6) == Fraction(p).limit_denominator(10**6).denominator


class TestFig3:
    def test_too_small_grid_yields_nan_row(self, tmp_path, capsys):
        code, text = run_cli(["fig3", "--p-list", "0.5", "--n-max", "2"], tmp_path)
        assert code == 0
        row = text.splitlines()[2].split(",")
        assert row[0] == "0.5"
        assert row[1] == "nan" and row[2] == "nan"
        assert "need 3" in capsys.readouterr().err
        # JSON has no NaN: the same row carries null
        code, text = run_cli(["--format", "json", "fig3", "--p-list", "0.3",
                              "--n-max", "15"], tmp_path, "f.json")
        assert code == 0
        assert strict_json(text)["rows"] == [{"p": 0.3, "slope": None, "residual": None}]

    def test_symmetric_probabilities_match(self, tmp_path):
        code, text = run_cli(
            ["fig3", "--p-list", "0.2,0.8", "--n-max", "100"], tmp_path
        )
        assert code == 0
        rows = [line.split(",") for line in text.splitlines()[2:]]
        assert abs(float(rows[0][1]) - float(rows[1][1])) < 1e-9

    def test_bad_p_list(self, tmp_path, capsys):
        code, _ = run_cli(["fig3", "--p-list", "0.5,oops"], tmp_path)
        assert code == 2
        assert "p-list" in capsys.readouterr().err

    def test_non_integral_n_p_rejected_as_usage(self, tmp_path, capsys):
        code, _ = run_cli(["fig3", "--p-list", "0.3333333433", "--n-max", "30"],
                          tmp_path)
        assert code == 2
        assert "not an integer" in capsys.readouterr().err

    def test_full_grid_slopes(self, tmp_path):
        code, text = run_cli(
            ["fig3", "--p-list", "0.5,0.8", "--n-max", "500"], tmp_path
        )
        assert code == 0
        rows = {r.split(",")[0]: float(r.split(",")[1])
                for r in text.splitlines()[2:]}
        assert abs(rows["0.5"] - 0.56) <= 0.01
        assert abs(rows["0.8"] - 0.466) <= 0.01


class TestPinnedExactScan:
    @pytest.mark.parametrize(("args", "sha256"), [
        ("fig2 --p 0.5 --n-max 2000 --step 20",
         "af50337ca13beffddd8783a9c409b2f876094041e5daad7934a6c5cd7a23e326"),
        ("fig3 --p-list 0.5,0.8 --n-max 500",
         "88ddf388a133619c3fcd3f7ef3dfb67a41db007c2a14eba8aaf383197515c7e9"),
        ("fig2 --p 0.8 --n-max 500 --step 5",
         "5fa5aaa53c8ac54505ab0a286f1d504b4b465f144cc8ab2a1ddefce38dacb181"),
        ("fig2 --p 0.8 --n-max 20000 --step 4000",
         "4c1259c0eb6e303eb02c8452da2a3a0315422b3f6db50384e30d5eace3cc742a"),
        ("fig2 --p 0.5 --n-max 20000 --step 4000",
         "978f79eee79248ee6327b2ca5cc9e8578e6e7fd43ee5ab897151871205ec2433"),
    ])
    def test_pinned_bytes(self, tmp_path, args, sha256):
        # sha256 of the datasets the exact entropy gave when every weight
        # was the exact int ratio (mult * w) / T, rounded once; those of
        # the scans to n = 20000 when every S_i was squared in full, where
        # most S_i are now cut to their leading bits instead, and (at
        # p = 0.5) when the recurrence stepped one weight at a time
        code, text = run_cli(args.split(), tmp_path)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == sha256


class TestOracleCheck:
    def test_single_pair_all_consistent(self, tmp_path):
        code, text = run_cli(["oracle-check", "--n-max", "1"], tmp_path, "r.json")
        assert code == 0
        report = strict_json(text)
        assert report["all_within_tolerance"] is True
        assert {e["k"] for e in report["entries"]} == {0, 1}
        for entry in report["entries"]:
            assert entry["e_in_delta"] < 1e-10
            assert abs(entry["e_in_formula"] - 1.0) < 1e-12

    def test_n2_includes_circuit_pass(self, tmp_path):
        code, text = run_cli(["oracle-check", "--n-max", "2"], tmp_path, "r.json")
        report = strict_json(text)
        assert code == 0
        assert report["n2_locc"] == "pass"
        assert report["n2_locc_detail"]["worst_infidelity"] < 1e-10

    def test_n4_flags_non_power_of_two_idealization(self, tmp_path):
        code, text = run_cli(["oracle-check", "--n-max", "4"], tmp_path, "r.json")
        report = strict_json(text)
        # e_in always matches; the idealized e_out is unreachable where
        # C(n,k) is not a power of two, and the report must say so
        assert code == 1
        assert all(e["e_in_delta"] < 1e-10 for e in report["entries"])
        assert all(e["ubc_isometry_dev"] < 1e-10 for e in report["entries"])
        assert all(e["product_encoding_gap"] < 1e-10 for e in report["entries"])
        failing = {(f["n"], f["k"]) for f in report["failures"]}
        assert failing == {(3, 1), (3, 2), (4, 2)}
        assert all(f["check"] == "e_out_delta" for f in report["failures"])
        entry41 = next(e for e in report["entries"] if (e["n"], e["k"]) == (4, 1))
        assert abs(entry41["e_in_formula"] - 3.0) < 1e-12
        assert abs(entry41["e_out_formula"] - 2.0) < 1e-12
        assert entry41["e_out_delta"] < 1e-10

    def test_wrong_circuit_fails_the_n2_check(self, tmp_path, monkeypatch):
        cnots_only = oracle.compression_circuit_n2()[:2]
        monkeypatch.setattr(oracle, "compression_circuit_n2", lambda: cnots_only)
        code, text = run_cli(["oracle-check", "--n-max", "2"], tmp_path, "r.json")
        report = strict_json(text)
        assert code == 1
        assert report["n2_locc"] == "fail"
        assert report["n2_locc_detail"]["worst_infidelity"] == 1.0
        assert report["failures"] == [{"check": "n2_locc"}]

    def test_wrong_relabeling_fails_the_isometry_check(self, tmp_path, monkeypatch):
        # A logical NOT on pair 0 after the relabeling (Z on one side of a Bell
        # pair) keeps it an isometry, but moves states off the codebook's images.
        real = oracle.apply_ubc
        flip = (oracle.Gate("B", "Z", 0),)
        monkeypatch.setattr(oracle, "apply_ubc",
                            lambda *args: oracle.apply_local_circuit(real(*args), flip))
        code, text = run_cli(["oracle-check", "--n-max", "3"], tmp_path, "r.json")
        report = strict_json(text)
        assert code == 1
        assert "ubc_isometry_dev" in {f["check"] for f in report["failures"]}

    def test_oversized_n_rejected(self, tmp_path, capsys):
        code, _ = run_cli(["oracle-check", "--n-max", "9"], tmp_path)
        assert code == 2
        assert "[1, 8]" in capsys.readouterr().err


class TestBatch:
    def test_single_trial_layout(self, tmp_path):
        code, text = run_cli(
            ["batch", "--epsilon", "0.2", "--n", "20", "--p", "0.5",
             "--trials", "1"],
            tmp_path,
        )
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "# schema=batch/1"
        assert lines[1] == "trial,m_batches,l,eps_prime,n_total,gamma_bound,status"
        assert len(lines) == 4
        assert lines[2].split(",")[0] == "0"
        assert lines[2].split(",")[-1] == "ok"
        assert lines[3].startswith("summary,")

    def test_deterministic_given_seed(self, tmp_path):
        args = ["--seed", "42", "batch", "--epsilon", "0.1", "--trials", "25"]
        _, first = run_cli(args, tmp_path, "a.csv")
        _, second = run_cli(args, tmp_path, "b.csv")
        assert first == second

    def test_seed_changes_output(self, tmp_path):
        base = ["batch", "--epsilon", "0.1", "--trials", "25"]
        _, first = run_cli(["--seed", "1"] + base, tmp_path, "a.csv")
        _, second = run_cli(["--seed", "2"] + base, tmp_path, "b.csv")
        assert first != second

    def test_truncated_runs_flagged(self, monkeypatch):
        monkeypatch.setattr(protocol, "_MAX_BATCHES", 2)
        cfg = BatchConfig(n=20, p=0.5, epsilon=0.001)
        header, rows, summary = cli.cmd_batch(cfg, trials=5)
        statuses = {row[-1] for row in rows}
        assert "truncated" in statuses
        truncated = [row for row in rows if row[-1] == "truncated"]
        assert all(row[1] == 2 for row in truncated)
        assert math.isfinite(summary["mean_m"])

    def test_rank_table_shared_by_all_trials(self, monkeypatch):
        # one table of C(n, k) serves every trial of the command: it holds
        # exactly the k drawn, each exact; binom gives at most its first
        # entry, and the row C(n, 0..n) is never built
        calls, tables = [], []

        def counting_binom(n, k):
            calls.append(k)
            return exactmath.binom(n, k)

        def no_row(n):
            raise AssertionError("binomial_row called")

        class RecordedRanks(protocol._Ranks):
            def __init__(self, n):
                super().__init__(n)
                tables.append(self)

        monkeypatch.setattr(protocol, "binom", counting_binom)
        monkeypatch.setattr(protocol, "_Ranks", RecordedRanks)
        monkeypatch.setattr(exactmath, "binomial_row", no_row)
        assert "binomial_row" not in vars(protocol)
        cfg = BatchConfig(n=50, p=0.8, epsilon=0.01, seed=3)
        _, rows, _ = cli.cmd_batch(cfg, trials=3 * protocol._CHUNK + 5)
        drawn = set()
        for trial, row in enumerate(rows):
            # a run draws whole blocks, up to the one holding its last batch
            rng = np.random.default_rng([cfg.seed, trial])
            ks, size = [], protocol._FIRST_BLOCK
            while len(ks) < row[1]:
                ks += rng.binomial(cfg.n, cfg.p,
                                   size=min(size, protocol._MAX_BATCHES - len(ks))).tolist()
                size *= 2
            drawn.update(ks)
        (table,) = tables
        assert sorted(table.exact) == sorted(drawn)
        assert all(c == math.comb(cfg.n, k) for k, c in table.exact.items())
        assert len(calls) <= 1

    def test_summary_independent_of_builtin_sum(self, compensated_sum):
        # a compensated sum would give stderr_m 0.4004996878900157
        cfg = BatchConfig(n=20, p=0.5, epsilon=0.2, seed=0xC0FFEE)
        _, _, summary = cli.cmd_batch(cfg, trials=25)
        assert summary == {"mean_m": 3.48, "stderr_m": 0.40049968789001567}

    @pytest.mark.parametrize(("args", "sha256"), [
        ("--epsilon 0.001 --trials 200",
         "087a90ea53a3092e52278e802aaf5ac766f8ba190777e1275eedfc31c8003996"),
        # 849 of the 2000 runs pass the 10 000-bit switch to floats
        ("--epsilon 0.001 --trials 2000",
         "598c4a434bc33f553184b43ee47b2a6d29dee24e98c1c12836f5888ba3031e55"),
        ("--n 50 --p 0.8 --epsilon 0.001 --trials 100",
         "e8aa0b4ef30223fd41d6594e477cee55be318b6b6f9619e429f22f258d5fdc2b"),
        # three of the five trials truncate at 10 000 batches
        ("--n 3 --p 0.5 --epsilon 1e-6 --trials 5",
         "d958dda5b8bbaff90d64462680c21d93a322d378f567b74d67d72ca63423099e"),
        # numpy draws n - X at 1 - p for p > 1/2
        ("--p 0.8 --epsilon 0.01 --trials 200",
         "7fac70afe642cec4cb55544d01e1a04961463ac998942cf1418782bd2c916840"),
        # numpy's inversion stops at a bound of 14 < n
        ("--p 0.05 --epsilon 0.01 --trials 200",
         "9cde556943b485b13b80873be67918cc2a9eae75bb12061b1b75abf4b00d22f2"),
        # n p = 500 > 30: numpy draws by BTPE, not by inversion
        ("--n 1000 --epsilon 0.01 --trials 50",
         "bcf209f1290f79ecec306c8ab3f0807795b09d1bf20c130e3339c3114249e695"),
    ])
    def test_pinned_bytes(self, tmp_path, args, sha256):
        # sha256 of the datasets drawn with Generator.binomial itself: the
        # first four by the per-batch loop that the block walk replaced
        # (one scalar draw and one exact product per batch), the others by
        # the block walk before its draws were decoded from Generator.random
        code, text = run_cli(["batch", *args.split()], tmp_path)
        assert code == 0
        assert hashlib.sha256(text.encode()).hexdigest() == sha256

    def test_json_summary(self, tmp_path):
        code, text = run_cli(
            ["--format", "json", "batch", "--epsilon", "0.2", "--trials", "4"],
            tmp_path, "b.json",
        )
        assert code == 0
        doc = strict_json(text)
        assert doc["schema"] == "batch/1"
        assert len(doc["rows"]) == 4
        assert "mean_m" in doc["summary"] and "stderr_m" in doc["summary"]
        # one trial has no standard error: CSV prints nan, JSON null
        code, text = run_cli(
            ["--format", "json", "batch", "--epsilon", "0.1", "--trials", "1"],
            tmp_path, "b1.json",
        )
        assert code == 0
        assert strict_json(text)["summary"]["stderr_m"] is None

    def test_json_text_is_that_of_dumps(self, monkeypatch):
        # _render encodes a table's rows _JSON_ROWS at a time
        monkeypatch.setattr(cli, "_JSON_ROWS", 7)
        cfg = BatchConfig(n=20, p=0.5, epsilon=0.1, seed=3)
        header, rows, summary = cli.cmd_batch(cfg, trials=40)
        table = {"schema": "batch/1", "rows": [dict(zip(header, row)) for row in rows],
                 "summary": summary}
        text = json.dumps(table, indent=2, sort_keys=True) + "\n"
        assert "".join(cli._render("batch", "json", header, rows, summary)) == text
        doc = {**table, "empty": [{}, []], "text": "τ"}
        assert "".join(cli._json(doc)) == json.dumps(doc, indent=2, sort_keys=True) + "\n"
        with pytest.raises(ValueError):
            cli._json({"rows": [1.0, math.nan]})


#: Text with the characters JSON escapes or the writer's seams are made of.
TEXT = st.text(st.sampled_from(list('a"\\\n\t}{,: τ€😀')) | st.characters(), max_size=8)

#: Scalars that json.dumps spells in its own ways: edge floats, ints past
#: 64 bits, bools, null and text that needs escapes.
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.just(2**70),
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([-0.0, 5e-324, 1e308]),
    TEXT,
)

#: Nested reports, as oracle-check's: dicts and lists of scalars and of each other.
REPORTS = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=30)


def _dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


class TestJsonWriter:
    """_json's pieces, and those of a table's JSON, join to json.dumps's text."""

    @settings(max_examples=80, deadline=None)
    @given(data=st.data(), group=st.sampled_from([1, 2, 5]))
    def test_table_is_that_of_dumps(self, data, group):
        # tables of 0, 1, G - 1, G, G + 1 and 2G + 1 rows for G = _JSON_ROWS
        header = data.draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
        size = data.draw(st.sampled_from([0, 1, group - 1, group, group + 1, 2 * group + 1]))
        cell = SCALARS | st.just(math.nan)
        rows = data.draw(st.lists(st.lists(cell, min_size=len(header), max_size=len(header)),
                                  min_size=size, max_size=size))
        summary = data.draw(st.none() | st.dictionaries(TEXT, cell, max_size=3))

        def null(v):
            return None if isinstance(v, float) and math.isnan(v) else v

        doc = {"schema": "t/1", "rows": [dict(zip(header, map(null, row))) for row in rows]}
        if summary is not None:
            doc["summary"] = {k: null(v) for k, v in summary.items()}
        with mock.patch.object(cli, "_JSON_ROWS", group):
            pieces = cli._render("t", "json", header, rows, summary)
        assert "".join(pieces) == _dumps(doc)

    @settings(max_examples=150, deadline=None)
    @given(doc=REPORTS)
    def test_report_is_that_of_dumps(self, doc):
        assert "".join(cli._json(doc)) == _dumps(doc)

    @pytest.mark.parametrize("doc", [
        math.nan, [math.inf], {"a": {"b": [1, -math.inf]}},
        {"z": [{"k": 0.0}] * 100 + [{"k": math.nan}]},
    ])
    def test_nan_in_report_raises(self, doc):
        with pytest.raises(ValueError):
            cli._json(doc)


class TestEof:
    def test_explicit_grid_values(self, tmp_path):
        code, text = run_cli(["eof", "--p-list", "0,0.5,0.8"], tmp_path)
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "# schema=eof/1"
        assert lines[1] == "p,ef_in,ef_out,locking_deficit,s_a,s_b"
        p0 = [float(v) for v in lines[2].split(",")]
        assert p0 == [0.0, 1.0, 1.0, 0.0, 0.0, 1.0]
        p_half = [float(v) for v in lines[3].split(",")]
        assert p_half[1] == pytest.approx(0.0, abs=1e-12)
        assert p_half[2] == pytest.approx(0.0, abs=1e-12)
        p08 = [float(v) for v in lines[4].split(",")]
        assert p08[1] == pytest.approx(0.46900, abs=5e-6)
        assert p08[2] == pytest.approx(0.27807, abs=5e-6)

    def test_default_grid_has_101_rows(self, tmp_path):
        code, text = run_cli(["eof"], tmp_path)
        assert code == 0
        assert len(text.splitlines()) == 103  # schema + header + 101 rows

    def test_stdout_default(self, capsys):
        code = cli.main(["eof", "--p-list", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("# schema=eof/1")


class TestUsage:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 2

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["fig2", "--p", "0.5", "--bogus"])
        assert err.value.code == 2

    @pytest.mark.parametrize("args", [
        ["batch", "--epsilon", "2"],
        ["--seed", "-1", "batch", "--epsilon", "0.1", "--trials", "2"],
    ])
    def test_bad_batch_config_exits_2(self, args, tmp_path, capsys):
        code, _ = run_cli(args, tmp_path)
        assert code == 2
        assert capsys.readouterr().err.startswith("error: need ")

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        path = tmp_path / "missing" / "x.csv"
        code = cli.main(["eof", "--p-list", "0.5", "--out", str(path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [["--seed", "08", "eof"], ["eof", "--seed", "x1"]])
    def test_bad_seed_names_the_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        msg = capsys.readouterr().err
        assert "--seed" in msg and "0xC0FFEE" in msg and "<lambda>" not in msg

    def test_seed_accepts_prefixed_integers(self):
        parse = cli._build_parser().parse_args
        assert parse(["--seed", "0x10", "eof"]).seed == 16
        assert parse(["eof", "--seed", "0o17"]).seed == 15
        assert parse(["eof"]).seed == 0xC0FFEE

    @pytest.mark.parametrize("exc", [ValueError, ArithmeticError, IndexError,
                                     TypeError, KeyError])
    def test_internal_fault_exits_3(self, exc, tmp_path, monkeypatch, capsys):
        def broken(p_grid):
            raise exc("invariant violated")

        monkeypatch.setattr("triconc.eof.ledgers", broken)
        code, text = run_cli(["eof", "--p-list", "0.5"], tmp_path)
        assert code == 3
        assert text == ""
        assert capsys.readouterr().err.startswith("internal error: ")

    def test_late_nan_in_report_writes_no_partial_out(self, tmp_path, monkeypatch, capsys):
        # every piece of the report is encoded before --out is opened, so a
        # NaN after hundreds of good entries leaves no file behind
        report = {"entries": [{"k": k, "delta": 0.0} for k in range(500)],
                  "worst": math.nan}
        monkeypatch.setattr(cli, "cmd_oracle_check", lambda n_max: (report, 0))
        path = tmp_path / "r.json"
        assert cli.main(["oracle-check", "--out", str(path)]) == 3
        assert not path.exists()
        assert capsys.readouterr().err.startswith("internal error: ")

    def test_nan_in_report_exits_3(self, tmp_path, monkeypatch, capsys):
        # a NaN delta passes every ">= tolerance" test; strict JSON stops it
        monkeypatch.setattr(cli.teststate, "e_in", lambda spec: float("nan"))
        code, text = run_cli(["oracle-check", "--n-max", "1"], tmp_path, "r.json")
        assert code == 3
        assert text == ""
        assert capsys.readouterr().err.startswith("internal error: ")


class TestProcess:
    """The documented exit codes as process exit codes of ``python -m``."""

    @staticmethod
    def run(*args):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(triconc.__file__))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-m", "triconc.cli", *args],
                              capture_output=True, text=True, env=env, timeout=120)

    def test_success_matches_in_process_output(self, capsys):
        proc = self.run("eof", "--p-list", "0.5")
        assert proc.returncode == 0
        assert cli.main(["eof", "--p-list", "0.5"]) == 0
        assert proc.stdout == capsys.readouterr().out != ""

    def test_oracle_delta_exits_1(self):
        proc = self.run("oracle-check", "--n-max", "3")
        assert proc.returncode == 1
        assert strict_json(proc.stdout)["all_within_tolerance"] is False

    def test_unknown_flag_exits_2(self):
        proc = self.run("eof", "--bogus")
        assert proc.returncode == 2
        assert "unrecognized arguments: --bogus" in proc.stderr


#: Valid argv for the commands whose output depends on flags and --seed only:
#: fig2 on a grid p, batch at a random epsilon and seed, eof on a random p-list.
VALID_ARGV = st.one_of(
    st.tuples(st.sampled_from([0.1, 0.2, 0.25, 0.5, 0.75, 0.8]), st.integers(10, 60)).map(
        lambda a: ["fig2", "--p", repr(a[0]), "--n-max", str(a[1])]),
    st.tuples(st.floats(0.01, 0.5), st.integers(1, 5), st.integers(0, 2**32 - 1)).map(
        lambda a: ["--seed", str(a[2]), "batch", "--epsilon", repr(a[0]),
                   "--trials", str(a[1])]),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5).map(
        lambda ps: ["eof", "--p-list", ",".join(map(repr, ps))]),
)


class TestReruns:
    @settings(max_examples=40, deadline=None)
    @given(argv=VALID_ARGV, fmt=st.sampled_from(["csv", "json"]))
    def test_byte_identical_over_random_flags(self, argv, fmt):
        with tempfile.TemporaryDirectory() as tmp:
            outputs = []
            for name in ("a", "b"):
                path = Path(tmp) / name
                assert cli.main(["--format", fmt, *argv, "--out", str(path)]) == 0
                outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] != b""


def _readme_cli_examples() -> list[tuple[list[str], int]]:
    """Each ``triconc ...`` line of the README's command-line ``sh`` block,
    with the exit code its comment promises: 1 where it says "exits 1"."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text[text.index("## Command-line interface"):]
    block = section[section.index("```sh\n") + len("```sh\n"):]
    examples, comment = [], ""
    for line in block[:block.index("```")].splitlines():
        if line.startswith("#"):
            comment += line
        elif line.startswith("triconc "):
            examples.append((shlex.split(line)[1:], 1 if "exits 1" in comment else 0))
            comment = ""
    return examples


class TestReadme:
    def test_cli_examples_exit_as_documented(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        examples = _readme_cli_examples()
        assert len(examples) == 5
        assert [argv[0] for argv, code in examples if code] == ["oracle-check"]
        for argv, code in examples:
            assert cli.main(argv) == code, argv
            assert (tmp_path / argv[argv.index("--out") + 1]).stat().st_size > 0
