"""Decomposition passes from composite/logical gates down to Clifford+T.

The lowered primitive set is {X, CX, H, T, TDG}. SWAP, ZCX and CCX are
rewritten through a registry of decomposition rules so alternative
realizations (for example a different Toffoli network) can be plugged in
without touching the circuit generators.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from .circuit import CLIFFORD_T_KINDS, Circuit, Gate, GateKind
from .errors import UnsupportedGateError


def iter_primitive_ops(c: Circuit) -> Iterator[tuple[GateKind, tuple[int, ...]]]:
    """Yield (kind, qubits) for each primitive gate of `c` in order.

    Composite bodies are walked with an explicit stack of composed operand
    maps, so the qubits are already in `c`'s numbering and no Gate is built
    for any nesting level. This is the one composite walk shared by
    flattening, lowering, counting, export and simulation.
    """
    stack: list[tuple[Iterator[Gate], tuple[int, ...] | None]] = [
        (iter(c.gates), None)
    ]
    while stack:
        gates, qmap = stack[-1]
        for g in gates:
            qubits = (
                g.qubits if qmap is None else tuple(map(qmap.__getitem__, g.qubits))
            )
            if g.kind is GateKind.COMPOSITE:
                assert g.body is not None
                stack.append((iter(g.body.gates), qubits))
                break
            yield g.kind, qubits
        else:
            stack.pop()


def iter_primitive_gates(c: Circuit) -> Iterator[Gate]:
    """Yield the primitive gates of `c` in order, instantiating composites.

    The stream is exactly what flatten() would store.
    """
    for kind, qubits in iter_primitive_ops(c):
        yield Gate(kind, qubits)


def flatten(c: Circuit) -> Circuit:
    """Expand all composite gates in place order; primitives pass through."""
    out = Circuit(c.width, c.name)
    for g in iter_primitive_gates(c):
        out.append(g)
    return out


@dataclass(frozen=True)
class DecompositionRule:
    """Rewrites one gate kind into a template circuit over the gate's arity.

    The template's qubit i stands for operand i of the source gate, so the
    replacement acts only on the gate's own operands.
    """

    kind: GateKind
    template: Circuit

    def expand(self, gate: Gate) -> list[Gate]:
        """Instantiate the template onto `gate`'s operands."""
        if gate.kind is not self.kind:
            raise UnsupportedGateError(
                f"rule for {self.kind.value} applied to {gate.kind.value}"
            )
        return [
            Gate(tg.kind, tuple(gate.qubits[i] for i in tg.qubits))
            for tg in self.template.gates
        ]


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


def _instantiate(rule: DecompositionRule, gate: Gate) -> Circuit:
    out = Circuit(max(gate.qubits) + 1, rule.template.name)
    for g in rule.expand(gate):
        out.append(g)
    return out


def lower_swap(g: Gate) -> Circuit:
    """Replacement for SWAP(a, b): CX(a,b), CX(b,a), CX(a,b)."""
    return _instantiate(DEFAULT_RULES[GateKind.SWAP], g)


def lower_zcx(g: Gate) -> Circuit:
    """Replacement for ZCX(c, t): X(c), CX(c,t), X(c)."""
    return _instantiate(DEFAULT_RULES[GateKind.ZCX], g)


def lower_toffoli(g: Gate) -> Circuit:
    """The 15-gate Clifford+T replacement for CCX, with T-count 7."""
    return _instantiate(DEFAULT_RULES[GateKind.CCX], g)


def lower_to_clifford_t(
    c: Circuit, rules: Mapping[GateKind, DecompositionRule] | None = None
) -> Circuit:
    """Flatten and rewrite until only {X, CX, H, T, TDG} remain.

    Idempotent: running it on an already lowered circuit returns an equal
    circuit. Gate kinds outside the primitive set with no rule raise
    UnsupportedGateError.
    """
    if rules is None:
        rules = DEFAULT_RULES
    out = Circuit(c.width, c.name)
    for g in iter_primitive_gates(c):
        _emit_lowered(out, g, rules)
    return out


def _emit_lowered(
    out: Circuit, g: Gate, rules: Mapping[GateKind, DecompositionRule]
) -> None:
    if g.kind in CLIFFORD_T_KINDS:
        out.append(g)
        return
    rule = rules.get(g.kind)
    if rule is None:
        raise UnsupportedGateError(f"no decomposition rule for {g.kind.value}")
    for sub in rule.expand(g):
        _emit_lowered(out, sub, rules)
