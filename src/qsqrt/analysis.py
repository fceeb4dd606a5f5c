"""Resource metrics: gate histograms, ASAP scheduling and analyze().

analyze() is the one way to get T-count, T-depth and total depth. The T
metrics are defined on the Clifford+T lowering, and analyze reads all three
off one ASAP layering of it. It streams each source gate through lowering's
one expansion table (the kind's fully lowered template) and never builds
the lowered circuit: X and CX step the layering inline, and any other gate
is one call of its template's fold, straight-line Python generated once
from one statement per lowered kind (_FOLD_STATEMENTS) by lowering's one
code generator, _function (keeping line numbers only), and cached by the
template's content. The T-depth is the number of layers holding a T or
TDG gate: an upper bound on the minimum achievable T-depth, not the
optimum.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .arithmetic import _check_n
from .circuit import Circuit, GateKind, iter_primitive_ops
from .errors import MustLowerError
from .lowering import (
    _TEMPLATE_CACHE_SIZE,
    Template,
    _Compiled,
    _ExpansionTable,
    _function,
    _unpacked,
)
from .sqrt import _check_width


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


#: Each lowered kind's ASAP step as one statement on the ready levels
#: r<position> of a fold's operands ({0}, {1}): a gate lands one layer
#: above the levels of its operands, and a T or TDG adds its layer to the
#: T layers.
_FOLD_STATEMENTS = {
    GateKind.X: "r{0} += 1",
    GateKind.H: "r{0} += 1",
    GateKind.T: "r{0} += 1; add(r{0})",
    GateKind.TDG: "r{0} += 1; add(r{0})",
    GateKind.CX: "r{1} = r{0} = (r{1} if r{1} > r{0} else r{0}) + 1",
}


@lru_cache(maxsize=_TEMPLATE_CACHE_SIZE)
def _fold_of(template: Template, arity: int) -> Callable:
    """fold(ready, qubits, add): the template's ASAP steps on a source
    gate's operands, their ready levels read into locals and written back."""
    operands = range(arity)
    source = (
        f"def fold(ready, qubits, add):\n{_unpacked(arity)}"
        + "".join(f"    r{i} = ready[q{i}]\n" for i in operands)
        + "".join(
            f"    {_FOLD_STATEMENTS[kind].format(*positions)}\n"
            for kind, positions in template
        )
        + "".join(f"    ready[q{i}] = r{i}\n" for i in operands)
    )
    return _function(source, "<template fold>")


def analyze(c: Circuit) -> ResourceReport:
    """Measure all supported cost metrics of the circuit's lowered form.

    One pass over the source gates: each gate's fully lowered template
    advances the per-qubit ASAP ready levels and the set of T layers, and
    the histogram is the source counts times the template histograms. The
    figures equal schedule_layers and count_ops on lower_to_clifford_t(c),
    without building that circuit.
    """
    # each templated gate is one call of its template's compiled fold, not
    # one step per (kind, positions) pair of the table or the
    # iter_lowered_ops stream: `qsqrt resources` spends its time here
    table = _ExpansionTable()
    folds = _Compiled(table, _fold_of)
    ready = [0] * c.width
    t_layers: set[int] = set()
    add = t_layers.add
    counts: dict[GateKind, int] = {}
    cx, x = GateKind.CX, GateKind.X
    for kind, qubits in iter_primitive_ops(c):
        counts[kind] = counts.get(kind, 0) + 1
        if kind is cx:
            a, b = qubits
            layer = (ready[a] if ready[a] > ready[b] else ready[b]) + 1
            ready[a] = ready[b] = layer
        elif kind is x:
            ready[qubits[0]] += 1
        else:
            folds[kind](ready, qubits, add)
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
