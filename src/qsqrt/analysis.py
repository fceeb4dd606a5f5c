"""Resource metrics: gate histograms, ASAP scheduling and analyze().

analyze() is the one way to get T-count, T-depth and total depth. The T
metrics are defined on the Clifford+T lowering, and analyze reads all three
off one ASAP layering of it. It streams each source gate through lowering's
one expansion table (the kind's fully lowered template) and never builds
the lowered circuit. The T-depth is the number of layers holding a T or TDG
gate: an upper bound on the minimum achievable T-depth, not the optimum.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .arithmetic import _check_n
from .circuit import Circuit, GateKind, iter_primitive_ops
from .errors import MustLowerError
from .lowering import _ExpansionTable
from .sqrt import _check_width

_T_KINDS = (GateKind.T, GateKind.TDG)


@dataclass(frozen=True)
class ResourceReport:
    """Cost summary of one circuit, measured on its lowered form."""

    width: int
    t_count: int
    t_depth: int  # scheduled T-depth (upper bound)
    total_depth: int
    histogram: dict[GateKind, int]


def count_ops(c: Circuit) -> dict[GateKind, int]:
    """Per-kind gate counts with composites flattened away."""
    return dict(Counter(kind for kind, _ in iter_primitive_ops(c)))


def schedule_layers(c: Circuit) -> list[int]:
    """ASAP layer index (1-based) for every gate of a composite-free circuit.

    layer(g) is 1 plus the highest layer among earlier gates sharing a
    qubit with g, so gates inside one layer act on disjoint qubits and the
    per-qubit gate order is preserved. A malformed gate raises the error
    Circuit.append would.
    """
    if any(g.kind is GateKind.COMPOSITE for g in c.gates):
        raise MustLowerError("flatten or lower the circuit before scheduling")
    ready = [0] * c.width
    layers: list[int] = []
    for _, qubits in iter_primitive_ops(c):
        layer = 1 + max(ready[q] for q in qubits)
        layers.append(layer)
        for q in qubits:
            ready[q] = layer
    return layers


def analyze(c: Circuit) -> ResourceReport:
    """Measure all supported cost metrics of the circuit's lowered form.

    One pass over the source gates: each gate's fully lowered template
    advances the per-qubit ASAP ready levels and the set of T layers, and
    the histogram is the source counts times the template histograms. The
    figures equal schedule_layers and count_ops on lower_to_clifford_t(c),
    without building that circuit.
    """
    # the table itself, not the iter_lowered_ops stream, which made
    # analyze(build_isqrt_circuit(n)) 1.7x slower at n = 16, 40 and 64
    # (2-CPU VM, Python 3.11): `qsqrt resources` spends its time here
    table = _ExpansionTable()
    ready = [0] * c.width
    t_layers: set[int] = set()
    counts: dict[GateKind, int] = {}
    for kind, qubits in iter_primitive_ops(c):
        counts[kind] = counts.get(kind, 0) + 1
        for lowered, positions in table[kind]:
            if lowered is GateKind.CX:  # the one two-qubit lowered kind
                a, b = qubits[positions[0]], qubits[positions[1]]
                layer = (ready[a] if ready[a] > ready[b] else ready[b]) + 1
                ready[a] = ready[b] = layer
            else:
                q = qubits[positions[0]]
                layer = ready[q] + 1
                ready[q] = layer
                if lowered in _T_KINDS:
                    t_layers.add(layer)
    # filled in order of first appearance in the lowered stream, as
    # count_ops of the lowered circuit orders it
    hist: dict[GateKind, int] = {}
    for kind, count in counts.items():
        for lowered, _ in table[kind]:
            hist[lowered] = hist.get(lowered, 0) + count
    return ResourceReport(
        width=c.width,
        t_count=hist.get(GateKind.T, 0) + hist.get(GateKind.TDG, 0),
        t_depth=len(t_layers),
        total_depth=max(ready, default=0),
        histogram=hist,
    )


def expected_t_count_isqrt(n: int) -> int:
    """Closed-form T-count of the full square root circuit: 7n²/2 + 21n - 28.

    Exact integer arithmetic; defined for even n >= 4.
    """
    n = _check_width(n)
    return (7 * n * n + 42 * n - 56) // 2


def expected_t_count_adder(n: int) -> int:
    """Closed-form T-count of the adder and subtractor: 14n - 14."""
    n = _check_n(n, 1, "adder")
    return 14 * n - 14


def expected_t_count_ctrl_adder(n: int) -> int:
    """Closed-form T-count of the controlled adder: 21n - 14."""
    n = _check_n(n, 2, "controlled adder")
    return 21 * n - 14
