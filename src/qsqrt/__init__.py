"""Gate-level toolkit for the T-count-optimised non-restoring quantum
integer square root circuit and its reversible arithmetic building blocks."""

from .analysis import (
    ResourceReport,
    analyze,
    count_ops,
    schedule_layers,
)
from .arithmetic import (
    build_adder,
    build_ctrl_add_sub,
    build_ctrl_adder,
    build_subtractor,
    peres_circuit,
)
from .circuit import (
    CLIFFORD_T_KINDS,
    PERMUTATION_KINDS,
    Circuit,
    Gate,
    GateKind,
    Violation,
    validate,
)
from .export import from_qasm, to_qasm
from .families import (
    expected_t_count_adder,
    expected_t_count_ctrl_adder,
    expected_t_count_isqrt,
)
from .lowering import (
    DEFAULT_RULES,
    DecompositionRule,
    flatten,
    lower_to_clifford_t,
)
from .sim import (
    assert_equiv,
    basis_statevector,
    is_permutation_circuit,
    perm_run,
    perm_run_many,
    permutation_matrix,
    sv_run,
    sv_run_many,
    unitary,
)
from .sqrt import (
    SqrtResult,
    build_isqrt_circuit,
    build_isqrt_pipeline,
    build_part1,
    build_part2,
    build_part3,
    isqrt,
    min_width,
)

__version__ = "0.1.0"

__all__ = [
    "CLIFFORD_T_KINDS",
    "Circuit",
    "DEFAULT_RULES",
    "DecompositionRule",
    "Gate",
    "GateKind",
    "PERMUTATION_KINDS",
    "ResourceReport",
    "SqrtResult",
    "Violation",
    "analyze",
    "assert_equiv",
    "basis_statevector",
    "build_adder",
    "build_ctrl_add_sub",
    "build_ctrl_adder",
    "build_isqrt_circuit",
    "build_isqrt_pipeline",
    "build_part1",
    "build_part2",
    "build_part3",
    "build_subtractor",
    "count_ops",
    "expected_t_count_adder",
    "expected_t_count_ctrl_adder",
    "expected_t_count_isqrt",
    "flatten",
    "from_qasm",
    "is_permutation_circuit",
    "isqrt",
    "lower_to_clifford_t",
    "min_width",
    "peres_circuit",
    "perm_run",
    "perm_run_many",
    "permutation_matrix",
    "schedule_layers",
    "sv_run",
    "sv_run_many",
    "to_qasm",
    "unitary",
    "validate",
]
