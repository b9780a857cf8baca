"""Tripartite entanglement-concentration numerics.

Exact test-state amplitudes and entropies (:mod:`triconc.teststate`) on
top of arbitrary-precision combinatorics (:mod:`triconc.exactmath`),
cross-checked by a dense state-vector oracle (:mod:`triconc.oracle`);
binomial sampling and the batching stopping rule
(:mod:`triconc.protocol`); entanglement-of-formation bookkeeping
(:mod:`triconc.eof`); and a dataset-emitting CLI (:mod:`triconc.cli`).

The names below are exported lazily (PEP 562): ``triconc.e_in`` imports
:mod:`triconc.teststate` on first access and returns its binding, and
``triconc.oracle`` imports that submodule, so importing the package
loads no submodule and no numpy.  Only the oracle, the batch sampler
and the E_F ledger need numpy; the exact path (exactmath, teststate)
never does.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "exactmath": ("binom", "inner_sum_table", "log2_big", "shannon_h"),
    "teststate": (
        "AmplitudeTable",
        "EntanglementReport",
        "TestStateSpec",
        "amplitude_table",
        "codeword_entropy",
        "e_in",
        "e_out",
        "fit_line",
        "gap_scan",
        "slope_fit",
    ),
    "oracle": (
        "Gate",
        "PairEncoding",
        "PureStateVector",
        "apply_local_circuit",
        "apply_ubc",
        "build_test_state",
        "compression_circuit_n2",
        "entanglement_delta",
        "entropy_of",
        "schmidt_spectrum",
        "string_state",
        "superpose_strings",
        "ubc_codebook",
        "verify_n2_circuit",
    ),
    "protocol": (
        "BatchConfig",
        "BatchRunStats",
        "run_trials",
    ),
    "eof": ("EofLedger", "concurrence", "eof_from_concurrence", "ledger", "rp_reduced_bc"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:  # a submodule, as in `import triconc; triconc.oracle`
        return _import_module(f".{name}", __name__)
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS) | set(__all__))
