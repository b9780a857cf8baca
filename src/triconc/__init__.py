"""Tripartite entanglement-concentration numerics.

Exact test-state amplitudes and entropies (:mod:`triconc.teststate`) on
top of arbitrary-precision combinatorics (:mod:`triconc.exactmath`),
cross-checked by a dense state-vector oracle (:mod:`triconc.oracle`);
binomial sampling and the batching stopping rule
(:mod:`triconc.protocol`); entanglement-of-formation bookkeeping
(:mod:`triconc.eof`); and a dataset-emitting CLI (:mod:`triconc.cli`).
"""

from .exactmath import binom, inner_sum, inner_sum_table, log2_big, shannon_h
from .teststate import (
    AmplitudeTable,
    EntanglementReport,
    TestStateSpec,
    amplitude_table,
    codeword_entropy,
    e_in,
    e_out,
    fit_line,
    gap_scan,
    slope_fit,
)
from .oracle import (
    Gate,
    PairEncoding,
    PureStateVector,
    apply_local_circuit,
    apply_ubc,
    build_test_state,
    compression_circuit_n2,
    entanglement_delta,
    entropy_of,
    schmidt_spectrum,
    string_state,
    superpose_strings,
    ubc_codebook,
    verify_n2_circuit,
)
from .protocol import (
    BatchConfig,
    BatchRunStats,
    TruncationError,
    run_batches,
    sample_k,
)
from .eof import EofLedger, concurrence, eof_from_concurrence, ledger, rp_reduced_bc

__version__ = "0.1.0"
