"""The import surface: every exported name resolves and has one home,
the exact path (fig2, fig3) runs without numpy, and the records keep
their contract as named tuples."""

import importlib
import os
import subprocess
import sys
import types

import pytest

import triconc
from triconc.eof import EofLedger
from triconc.protocol import BatchConfig, BatchRunStats
from triconc.teststate import AmplitudeTable, EntanglementReport, TestStateSpec

MODULES = ("exactmath", "teststate", "oracle", "protocol", "eof")

#: The package's exports, pinned: adding or dropping one is an API change.
EXPORTS = {
    "binom", "inner_sum_table", "log2_big", "shannon_h",
    "AmplitudeTable", "EntanglementReport", "TestStateSpec", "amplitude_table",
    "codeword_entropy", "e_in", "e_out", "fit_line", "gap_scan", "slope_fit",
    "Gate", "PairEncoding", "PureStateVector", "apply_local_circuit", "apply_ubc",
    "build_test_state", "compression_circuit_n2", "entanglement_delta",
    "entropy_of", "schmidt_spectrum", "string_state", "superpose_strings",
    "ubc_codebook", "verify_n2_circuit",
    "BatchConfig", "BatchRunStats", "run_trials",
    "EofLedger", "concurrence", "eof_from_concurrence", "ledger", "rp_reduced_bc",
}

#: Run before the snippets below so that numpy cannot be imported.
BLOCK_NUMPY = 'import sys; sys.modules["numpy"] = None\n'


def test_every_name_in_all_resolves():
    for name in MODULES:
        module = importlib.import_module(f"triconc.{name}")
        missing = [n for n in module.__all__ if not hasattr(module, n)]
        assert missing == [], (name, missing)


def test_every_package_export_is_in_a_module_all():
    # the exports are lazy, so vars(triconc) holds only those read so far;
    # each name is checked through getattr against its one home module
    assert len(triconc.__all__) == len(EXPORTS)
    assert set(triconc.__all__) == EXPORTS
    for name in triconc.__all__:
        homes = [m for m in MODULES
                 if name in importlib.import_module(f"triconc.{m}").__all__]
        assert len(homes) == 1, (name, homes)
        home = importlib.import_module(f"triconc.{homes[0]}")
        assert getattr(triconc, name) is getattr(home, name), name


def test_dir_lists_every_export():
    assert EXPORTS <= set(dir(triconc))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from triconc import *", namespace)
    assert {n: namespace.get(n) for n in EXPORTS} == {
        n: getattr(triconc, n) for n in EXPORTS}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'inner_sum'"):
        getattr(triconc, "inner_sum")  # moved into the tests
    assert not hasattr(triconc, "no_such_name")


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter that imports triconc from this tree."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(triconc.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, env=env, timeout=120)


def test_cli_import_loads_no_numpy():
    # protocol and eof stay module-level imports of cli, so that a tracer
    # installed after `import triconc.cli` finds them; numpy and the dense
    # oracle load only when a command that needs them runs
    proc = _python(
        "import sys, triconc.cli\n"
        "triconc.cli._build_parser()\n"
        "print(*(m in sys.modules for m in sys.argv[1:]))",
        "numpy", "triconc.oracle", "triconc.protocol", "triconc.eof",
        # no command needs these to start: records are named tuples, and
        # json and fractions load where a document or a Fraction is made
        "dataclasses", "inspect", "json", "fractions", "decimal")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [b"False", b"False", b"True", b"True",
                                   b"False", b"False", b"False", b"False", b"False"]


@pytest.mark.parametrize("argv", [
    ["fig3", "--p-list", "0.5,0.8", "--n-max", "100"],
    ["fig2", "--p", "0.8", "--n-max", "100"],
])
def test_inferred_step_loads_no_fractions(argv, tmp_path):
    # the grid step is a continued fraction over p.as_integer_ratio()
    proc = _python(
        "import sys\nfrom triconc.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(code, 'fractions' in sys.modules, 'decimal' in sys.modules)",
        *argv, "--out", str(tmp_path / "out.csv"))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [b"0", b"False", b"False"]
    assert (tmp_path / "out.csv").stat().st_size > 0


#: One record of each kind built with keywords, the plain tuple of its
#: fields, and a field value its constructor rejects (None: it checks none).
RECORDS = [
    (TestStateSpec(n=4, k=1), (4, 1), {"n": 0}),
    (AmplitudeTable(n=1, k=0, s=(1, 1)), (1, 0, (1, 1)), None),
    (EntanglementReport(n=2, k=1, e_in=1.5, e_out=1.0), (2, 1, 1.5, 1.0),
     {"e_in": 3.0}),
    (BatchConfig(n=20, p=0.5, epsilon=0.1), (20, 0.5, 0.1, 0xC0FFEE),
     {"seed": 1.5}),
    (BatchRunStats(m_batches=1, k_list=(10,), l=17, eps_prime=0.4,
                   gamma_log2=17.5, n_total=20, gamma_entropy_bound=8.0),
     (1, (10,), 17, 0.4, 17.5, 20, 8.0), None),
    (EofLedger(p=0.5, ef_in_per_copy=1.0, ef_out_per_copy=0.0,
               locking_deficit_per_copy=1.0, s_a_per_copy=1.0, s_b_per_copy=1.0),
     (0.5, 1.0, 0.0, 1.0, 1.0, 1.0), {"s_b_per_copy": 2.0}),
]


@pytest.mark.parametrize(("record", "fields", "bad"), RECORDS,
                         ids=[type(r).__name__ for r, _, _ in RECORDS])
def test_record_contract(record, fields, bad):
    cls = type(record)
    assert record == fields  # defaults included: BatchConfig's seed
    copy = cls(*fields)
    assert copy == record and hash(copy) == hash(record)
    assert record._replace() == record and cls._make(fields) == record
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    shown = ", ".join(f"{k}={v!r}" for k, v in record._asdict().items())
    assert repr(record) == f"{cls.__name__}({shown})"
    if bad is not None:  # every construction path checks, copies too
        with pytest.raises(ValueError) as built:
            cls(**{**record._asdict(), **bad})
        with pytest.raises(ValueError) as copied:
            record._replace(**bad)
        assert str(copied.value) == str(built.value)


def test_package_import_loads_no_submodule():
    # `import triconc` loads nothing; a submodule loads on first access
    proc = _python(
        "import sys, triconc\n"
        "print(sorted(m for m in sys.modules if m.startswith('triconc')))\n"
        "print(triconc.protocol.__name__, 'numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [b"['triconc']", b"triconc.protocol False"]


CLI_MAIN = "import sys\nfrom triconc.cli import main\nsys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("argv", [
    ["fig2", "--p", "0.8", "--n-max", "500", "--step", "5"],
    ["fig3", "--p-list", "0.5,0.8", "--n-max", "500"],
])
def test_exact_commands_run_without_numpy(argv):
    normal = _python(CLI_MAIN, *argv)
    blocked = _python(BLOCK_NUMPY + CLI_MAIN, *argv)
    assert normal.returncode == blocked.returncode == 0, blocked.stderr
    assert blocked.stdout == normal.stdout != b""


def test_batch_without_numpy_is_an_internal_error():
    proc = _python(BLOCK_NUMPY + CLI_MAIN, "batch", "--epsilon", "0.1", "--trials", "2")
    assert proc.returncode == 3
    assert proc.stdout == b""
    assert b"internal error" in proc.stderr and b"numpy" in proc.stderr


def test_protocol_takes_nothing_from_the_oracle():
    # the stopping rule needs exact combinatorics only, not dense states
    borrowed = [n for n, v in vars(triconc.protocol).items()
                if getattr(v, "__module__", None) == "triconc.oracle"]
    assert borrowed == []


def test_oracle_takes_nothing_from_exactmath():
    # the dense oracle builds states and takes spectra; closed forms live
    # in teststate
    borrowed = [n for n, v in vars(triconc.oracle).items()
                if getattr(v, "__module__", None) == "triconc.exactmath"]
    assert borrowed == []


def _origin(value) -> str:
    if isinstance(value, types.ModuleType):
        return value.__name__
    return getattr(value, "__module__", None) or ""


def test_encodings_live_in_the_oracle():
    # pair encodings are dense-state matrices; teststate is the closed forms
    # of the Bell test state and needs neither numpy nor the oracle
    oracle_borrowed = {n for n, v in vars(triconc.oracle).items()
                       if _origin(v) == "triconc.teststate"}
    assert oracle_borrowed == {"TestStateSpec"}
    teststate_borrowed = [n for n, v in vars(triconc.teststate).items()
                          if _origin(v).split(".")[0] == "numpy"
                          or _origin(v) == "triconc.oracle"]
    assert teststate_borrowed == []
