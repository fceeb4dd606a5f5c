"""Resource metrics: T-count, T-depth, total depth and gate histograms.

T metrics are defined over the Clifford+T gate set, so t_count and
analyze() lower their input internally. T-depth is measured on an ASAP
layering of the whole lowered circuit; that is an upper bound on the
minimum achievable T-depth, not the optimum.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .circuit import Circuit, GateKind
from .errors import InvalidWidthError, MustLowerError
from .lowering import iter_primitive_ops, lower_to_clifford_t

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


def t_count(c: Circuit) -> int:
    """Number of T plus TDG gates in the fully lowered circuit."""
    hist = count_ops(lower_to_clifford_t(c))
    return hist.get(GateKind.T, 0) + hist.get(GateKind.TDG, 0)


def schedule_layers(c: Circuit) -> list[int]:
    """ASAP layer index (1-based) for every gate of a composite-free circuit.

    layer(g) is 1 plus the highest layer among earlier gates sharing a
    qubit with g, so gates inside one layer act on disjoint qubits and the
    per-qubit gate order is preserved.
    """
    ready = [0] * c.width
    layers: list[int] = []
    for g in c.gates:
        if g.kind is GateKind.COMPOSITE:
            raise MustLowerError("flatten or lower the circuit before scheduling")
        layer = 1 + max(ready[q] for q in g.qubits)
        layers.append(layer)
        for q in g.qubits:
            ready[q] = layer
    return layers


def t_depth(c: Circuit) -> int:
    """Number of distinct ASAP layers containing a T or TDG gate."""
    layers = schedule_layers(c)
    return len(
        {layer for g, layer in zip(c.gates, layers) if g.kind in _T_KINDS}
    )


def total_depth(c: Circuit) -> int:
    """Total number of ASAP layers."""
    return max(schedule_layers(c), default=0)


def analyze(c: Circuit) -> ResourceReport:
    """Lower the circuit and measure all supported cost metrics."""
    lowered = lower_to_clifford_t(c)
    layers = schedule_layers(lowered)
    hist = count_ops(lowered)
    t_layers = {
        layer for g, layer in zip(lowered.gates, layers) if g.kind in _T_KINDS
    }
    return ResourceReport(
        width=c.width,
        t_count=hist.get(GateKind.T, 0) + hist.get(GateKind.TDG, 0),
        t_depth=len(t_layers),
        total_depth=max(layers, default=0),
        histogram=hist,
    )


def expected_t_count_isqrt(n: int) -> int:
    """Closed-form T-count of the full square root circuit: 7n²/2 + 21n - 28.

    Exact integer arithmetic; defined for even n >= 4.
    """
    if n < 4 or n % 2:
        raise InvalidWidthError(f"formula defined for even n >= 4, got {n}")
    return (7 * n * n + 42 * n - 56) // 2


def expected_t_count_adder(n: int) -> int:
    """Closed-form T-count of the adder and subtractor: 14n - 14."""
    if n < 1:
        raise InvalidWidthError(f"adder formula defined for n >= 1, got {n}")
    return 14 * n - 14


def expected_t_count_ctrl_adder(n: int) -> int:
    """Closed-form T-count of the controlled adder: 21n - 14."""
    if n < 2:
        raise InvalidWidthError(
            f"controlled adder formula defined for n >= 2, got {n}"
        )
    return 21 * n - 14
