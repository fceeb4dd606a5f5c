"""Gate set and circuit IR with validation and composite gates.

The gate invariants (operand count, int operands in range, distinct
operands) live in one place, _gate_errors. Circuit.append raises its first
error, validate reports them all, and iter_primitive_ops, the one walk
that every reader of a circuit's gates shares (lowering and its rule
templates, analyze, counting, export, both simulators, Circuit.inverse),
raises its holder's append error on a malformed hand-built gate at any
depth, and a CircuitError on a composite that contains itself.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass, replace
from enum import Enum
from numbers import Integral
from typing import Iterator, Sequence

from .errors import (
    ArityError,
    CircuitError,
    InvalidWidthError,
    OperandCollisionError,
    QubitIndexError,
    int_text,
)


class GateKind(Enum):
    """Primitive gate kinds plus the COMPOSITE wrapper."""

    X = "x"
    CX = "cx"
    ZCX = "zcx"
    CCX = "ccx"
    SWAP = "swap"
    H = "h"
    T = "t"
    TDG = "tdg"
    COMPOSITE = "composite"

    # Members are singletons, so identity hashing is exact, and it runs in C
    # where Enum's own __hash__ (hash of the name) is a Python-level call on
    # every dict and set lookup.
    __hash__ = object.__hash__


PRIMITIVE_ARITY = {
    GateKind.X: 1,
    GateKind.CX: 2,
    GateKind.ZCX: 2,
    GateKind.CCX: 3,
    GateKind.SWAP: 2,
    GateKind.H: 1,
    GateKind.T: 1,
    GateKind.TDG: 1,
}

#: Gates that map computational basis states to basis states.
PERMUTATION_KINDS = frozenset(
    {GateKind.X, GateKind.CX, GateKind.ZCX, GateKind.CCX, GateKind.SWAP}
)

#: The lowered primitive set.
CLIFFORD_T_KINDS = frozenset(
    {GateKind.X, GateKind.CX, GateKind.H, GateKind.T, GateKind.TDG}
)


@dataclass(frozen=True)
class Gate:
    """One operation: a primitive gate, or a composite holding a sub-circuit.

    Controls come first: CX/ZCX are (control, target), CCX is
    (control, control, target). ZCX fires when its control reads 0.
    Qubit indices refer to positions in the owning circuit; index 0 is the
    least significant bit of whichever register it belongs to.
    """

    kind: GateKind
    qubits: tuple[int, ...]
    name: str | None = None
    body: "Circuit | None" = None

    def __repr__(self) -> str:
        label = self.name if self.kind is GateKind.COMPOSITE else self.kind.value
        return f"{label}({', '.join(map(int_text, self.qubits))})"


_NO_BODY = "composite gate without a body"
_INVERSE_KIND = {GateKind.T: GateKind.TDG, GateKind.TDG: GateKind.T}
_CYCLE = "composite cycle detected"


def _gate_errors(gate: Gate, width: int) -> list[CircuitError]:
    """Every invariant `gate` breaks as an operation of a `width`-qubit circuit.

    The one home of the gate checks: Circuit.append raises the first error,
    validate reports them all, and iter_primitive_ops raises the first on
    a gate at any depth, checked against the circuit that holds it. A gate
    without a body or of an unknown kind gets that error alone, since its
    operand count is then undefined.
    """
    qubits, kind = gate.qubits, gate.kind
    expected = PRIMITIVE_ARITY.get(kind)
    if expected is None:
        if kind is not GateKind.COMPOSITE:
            return [ArityError(f"unknown gate kind {kind!r}")]
        if gate.body is None:
            return [ArityError(_NO_BODY)]
        expected = gate.body.width
    errors: list[CircuitError] = []
    count = len(qubits)
    if count != expected:
        errors.append(ArityError(f"{gate!r} expects {expected} operands, got {count}"))
    for q in qubits:
        if type(q) is not int or not 0 <= q < width:
            bad = [q for q in qubits if type(q) is not int or not 0 <= q < width]
            errors.append(QubitIndexError(
                f"operands [{', '.join(map(int_text, bad))}] out of range "
                f"for width {int_text(width)}"
            ))
            break
    if len(set(qubits)) != count:
        errors.append(OperandCollisionError(f"duplicate operands in {gate!r}"))
    return errors


def iter_primitive_ops(c: Circuit) -> Iterator[tuple[GateKind, tuple[int, ...]]]:
    """Yield (kind, qubits) for each primitive gate of `c` in order.

    Composite bodies are walked with an explicit stack of composed operand
    maps, so the qubits are already in `c`'s numbering and no Gate is built
    for any nesting level. Each gate is checked as held, against the circuit
    that holds it, and a malformed one raises the error that circuit's
    append would, which is also validate's first violation. A composite
    whose body is already being walked raises CircuitError.
    """
    arity = PRIMITIVE_ARITY.get
    stack = [(iter(c.gates), range(c.width).__getitem__, c)]
    walking = {id(c)}  # the bodies on the stack
    while stack:
        gates, qmap, holder = stack[-1]
        width = holder.width
        for g in gates:
            held = g.qubits
            for q in held:  # a map would take a bool and wrap a negative
                if type(q) is not int or not 0 <= q < width:
                    raise _gate_errors(g, width)[0]
            kind = g.kind
            distinct = len(set(held))
            if distinct == len(held) == arity(kind):
                yield kind, tuple(map(qmap, held))
                continue
            # a composite has no primitive arity, so it is checked here;
            # any other gate that got this far is malformed
            body = g.body
            if (
                kind is not GateKind.COMPOSITE
                or body is None
                or not distinct == len(held) == body.width
            ):
                raise _gate_errors(g, width)[0]
            if id(body) in walking:
                raise CircuitError(f"{_CYCLE} at {g.name}{held}")
            walking.add(id(body))
            stack.append((iter(body.gates), tuple(map(qmap, held)).__getitem__, body))
            break
        else:
            walking.discard(id(holder))
            stack.pop()


def _integer_width(value: object, what: str) -> int:
    """`value` as an int through operator.index, so numpy integers pass and
    floats, strings and the like raise InvalidWidthError."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidWidthError(
            f"{what} needs an integer width, got {value!r}"
        ) from None


def _positive_width(value: object, what: str) -> int:
    """`value` as an int, if it is an integer >= 1."""
    width = _integer_width(value, f"a {what}")
    if width < 1:
        raise InvalidWidthError(f"{what} width must be >= 1, got {int_text(width)}")
    return width


class Circuit:
    """Fixed-width ordered gate sequence, the IR for the whole toolkit.

    Append-only while being built; treat instances as immutable afterwards
    (analysis and simulation never mutate them).
    """

    def __init__(self, width: int, name: str = ""):
        self.width = _positive_width(width, "circuit")
        self.name = name
        self.gates: list[Gate] = []

    def append(self, gate: Gate) -> "Circuit":
        """Append one gate after checking arity, index range and distinctness.

        Integer operands of another type (numpy's) are stored as int."""
        errors = _gate_errors(gate, self.width)
        if errors:  # a bool is an Integral, but no more a qubit than a float
            gate = replace(gate, qubits=tuple(
                int(q) if isinstance(q, Integral) and type(q) is not bool else q
                for q in gate.qubits
            ))
            errors = _gate_errors(gate, self.width)
            if errors:
                raise errors[0]
        self.gates.append(gate)
        return self

    def append_composite(
        self, name: str, body: "Circuit", qubits: Sequence[int]
    ) -> "Circuit":
        """Append `body` as a single reusable gate mapped onto `qubits`.

        The body is stored by reference and never flattened here; qubit i of
        the body acts on qubits[i] of this circuit.
        """
        return self.append(
            Gate(GateKind.COMPOSITE, tuple(qubits), name=name, body=body)
        )

    # shorthands used by the circuit generators
    def x(self, q: int) -> "Circuit":
        return self.append(Gate(GateKind.X, (q,)))

    def cx(self, control: int, target: int) -> "Circuit":
        return self.append(Gate(GateKind.CX, (control, target)))

    def zcx(self, control: int, target: int) -> "Circuit":
        return self.append(Gate(GateKind.ZCX, (control, target)))

    def ccx(self, control_a: int, control_b: int, target: int) -> "Circuit":
        return self.append(Gate(GateKind.CCX, (control_a, control_b, target)))

    def swap(self, a: int, b: int) -> "Circuit":
        return self.append(Gate(GateKind.SWAP, (a, b)))

    def h(self, q: int) -> "Circuit":
        return self.append(Gate(GateKind.H, (q,)))

    def t(self, q: int) -> "Circuit":
        return self.append(Gate(GateKind.T, (q,)))

    def tdg(self, q: int) -> "Circuit":
        return self.append(Gate(GateKind.TDG, (q,)))

    def inverse(self) -> "Circuit":
        """Flat inverse: the walk's gates reversed, T and TDG exchanged.

        It keeps the width and name but no composite, and a malformed gate
        or a composite cycle raises as in every other reader of the walk."""
        inv = Circuit(self.width, self.name)
        inv.gates.extend(
            Gate(_INVERSE_KIND.get(kind, kind), qubits)
            for kind, qubits in reversed(list(iter_primitive_ops(self)))
        )
        return inv

    def __len__(self) -> int:
        return len(self.gates)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Circuit)
            and self.width == other.width
            and self.name == other.name
            and self.gates == other.gates
        )

    def __repr__(self) -> str:
        return f"Circuit({self.name!r}, width={self.width}, gates={len(self.gates)})"


@dataclass(frozen=True)
class Violation:
    """One invariant breach found by validate.

    `path` names the chain of composites leading to the offending circuit,
    `gate_index` the gate's position inside it (-1 for circuit-level issues).
    """

    path: str
    gate_index: int
    message: str


def validate(c: Circuit) -> list[Violation]:
    """Collect every invariant violation in `c`, recursing through composites.

    An empty list means the circuit is well formed. Violations are data, not
    exceptions, so hand-built or deserialized circuits can be inspected.
    """
    out: list[Violation] = []
    _validate_into(c, c.name or "circuit", (id(c),), out)
    return out


def _validate_into(
    c: Circuit, path: str, stack: tuple[int, ...], out: list[Violation]
) -> None:
    if c.width < 1:
        out.append(Violation(path, -1, f"width must be >= 1, got {c.width}"))
        return
    for i, g in enumerate(c.gates):
        out.extend(Violation(path, i, str(err)) for err in _gate_errors(g, c.width))
        if g.kind is GateKind.COMPOSITE and g.body is not None:
            sub_path = f"{path} > {g.name or 'composite'}"
            if id(g.body) in stack:
                out.append(Violation(sub_path, i, _CYCLE))
                continue
            _validate_into(g.body, sub_path, stack + (id(g.body),), out)
