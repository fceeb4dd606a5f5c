"""Decomposition passes from composite/logical gates down to Clifford+T.

The lowered primitive set is {X, CX, H, T, TDG}. SWAP, ZCX and CCX are
rewritten through a registry of decomposition rules so alternative
realizations (for example a different Toffoli network) can be plugged in
without touching the circuit generators.

Both consumers of the rules go through one expansion table, built per call
from the rules mapping: for each gate kind, its fully lowered template over
operand positions, with nested rules resolved. lower_to_clifford_t
instantiates it onto each source gate in one loop, and analyze streams it
without building the lowered circuit.

Neither checks a gate itself: both read their source gates, as flatten
does, through circuit.iter_primitive_ops, which raises Circuit.append's
error on a malformed hand-built gate at any depth and a CircuitError on a
composite cycle. A rule whose template width is not its kind's arity
raises ArityError when it is built, and rules that expand a kind back to
itself raise UnsupportedGateError when the table resolves them.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .circuit import (
    CLIFFORD_T_KINDS,
    PRIMITIVE_ARITY,
    Circuit,
    Gate,
    GateKind,
    iter_primitive_ops,
)
from .errors import ArityError, UnsupportedGateError


def flatten(c: Circuit) -> Circuit:
    """Expand all composite gates in place order; primitives pass through."""
    out = Circuit(c.width, c.name)
    out.gates.extend(Gate(kind, qubits) for kind, qubits in iter_primitive_ops(c))
    return out


@dataclass(frozen=True)
class DecompositionRule:
    """Rewrites one gate kind into a template circuit over the gate's arity.

    The template's qubit i stands for operand i of the source gate, so the
    replacement acts only on the gate's own operands.
    """

    kind: GateKind
    template: Circuit

    def __post_init__(self) -> None:
        arity = PRIMITIVE_ARITY.get(self.kind)
        if self.template.width != arity:
            raise ArityError(
                f"a {self.kind.value} rule needs a template of width {arity}, "
                f"got {self.template.width}"
            )


def _swap_template() -> Circuit:
    qc = Circuit(2, "swap")
    qc.cx(0, 1)
    qc.cx(1, 0)
    qc.cx(0, 1)
    return qc


def _zcx_template() -> Circuit:
    # X-conjugation of the control keeps permutation semantics exact
    qc = Circuit(2, "zcx")
    qc.x(0)
    qc.cx(0, 1)
    qc.x(0)
    return qc


def _toffoli_template() -> Circuit:
    # 2 H, 6 CX, 4 T, 3 TDG; equals CCX exactly as an 8x8 unitary
    a, b, c = 0, 1, 2
    qc = Circuit(3, "ccx")
    qc.h(c)
    qc.cx(b, c)
    qc.tdg(c)
    qc.cx(a, c)
    qc.t(c)
    qc.cx(b, c)
    qc.tdg(c)
    qc.cx(a, c)
    qc.t(b)
    qc.t(c)
    qc.h(c)
    qc.cx(a, b)
    qc.tdg(b)
    qc.cx(a, b)
    qc.t(a)
    return qc


DEFAULT_RULES: dict[GateKind, DecompositionRule] = {
    GateKind.SWAP: DecompositionRule(GateKind.SWAP, _swap_template()),
    GateKind.ZCX: DecompositionRule(GateKind.ZCX, _zcx_template()),
    GateKind.CCX: DecompositionRule(GateKind.CCX, _toffoli_template()),
}


#: A fully lowered expansion: (lowered kind, operand positions) pairs.
Template = tuple[tuple[GateKind, tuple[int, ...]], ...]


class _ExpansionTable(dict):
    """Fully lowered template of each gate kind, resolved on first lookup.

    table[kind] is a tuple of (lowered kind, operand positions) pairs over
    {X, CX, H, T, TDG}: position i stands for operand i of a `kind` gate.
    A lowered kind maps to itself; any other kind is its rule's template,
    read through the checked walk, with every gate replaced by that gate's
    own entry. Resolving on lookup means UnsupportedGateError is raised
    only for a kind that is actually used, and building one table per call
    means a changed `rules` mapping is always seen. A kind whose rules
    expand back to that kind, directly or through nested rules, raises
    UnsupportedGateError too.
    """

    def __init__(self, rules: Mapping[GateKind, DecompositionRule] | None = None):
        super().__init__()
        self.rules = DEFAULT_RULES if rules is None else rules
        self.resolving: set[GateKind] = set()

    def __missing__(self, kind: GateKind) -> Template:
        if kind in CLIFFORD_T_KINDS:
            template: Template = ((kind, tuple(range(PRIMITIVE_ARITY[kind]))),)
        else:
            rule = self.rules.get(kind)
            if rule is None or rule.kind is not kind:  # filed under another kind
                raise UnsupportedGateError(f"no decomposition rule for {kind.value}")
            if kind in self.resolving:
                raise UnsupportedGateError(
                    f"the decomposition rules for {kind.value} expand to {kind.value}"
                )
            self.resolving.add(kind)
            # the template's qubit i is operand i, so its walk gives positions
            template = tuple(
                (lowered, tuple(qubits[p] for p in positions))
                for sub, qubits in iter_primitive_ops(rule.template)
                for lowered, positions in self[sub]
            )
            self.resolving.discard(kind)
        self[kind] = template
        return template


def lower_to_clifford_t(
    c: Circuit, rules: Mapping[GateKind, DecompositionRule] | None = None
) -> Circuit:
    """Flatten and rewrite until only {X, CX, H, T, TDG} remain.

    Idempotent: running it on an already lowered circuit returns an equal
    circuit. Gate kinds outside the primitive set with no rule raise
    UnsupportedGateError. Each source gate is checked by the walk, and
    template positions are distinct operands of the gate, so every lowered
    gate passes Circuit.append's check without going through it.
    """
    table = _ExpansionTable(rules)
    out = Circuit(c.width, c.name)
    emit = out.gates.append
    for kind, qubits in iter_primitive_ops(c):
        for lowered, positions in table[kind]:
            emit(Gate(lowered, tuple(map(qubits.__getitem__, positions))))
    return out
