"""Gate set and circuit IR with validation and composite gates.

A Gate is an immutable named tuple, so it compares equal to the plain
tuple of its four fields and Gate._replace makes a changed copy;
Circuit.append stores its operands as a tuple. Being immutable, one Gate
can stand at many places of a circuit: _shared_gates makes one per
distinct op of a walk, for flatten, lower_to_clifford_t and
Circuit.inverse. The gate invariants (operand count, int operands in
range, distinct operands) live in one place, _gate_errors.
Circuit.append raises its first error, validate reports them all, and
iter_primitive_ops, the one walk that every reader of a circuit's gates
shares (lowering and its rule templates, analyze, counting, export, both
simulators, Circuit.inverse), raises its holder's append error on a
malformed hand-built gate at any depth, and a CircuitError on a
composite that contains itself. A well-formed gate passes _fits, one
unpack by arity and int, range and distinctness tests on the locals, and
gets a shared empty tuple from _gate_errors; the walk inlines that test
per primitive gate, and export's from_qasm keeps a gate line in to_qasm's
form through it. Only a malformed gate reaches the code that words the
errors.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum
from numbers import Integral
from typing import Iterable, Iterator, NamedTuple, Sequence

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


class Gate(NamedTuple):
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
        try:
            operands = ", ".join(map(int_text, self.qubits))
        except TypeError:  # operands that are no sequence, as a bare int
            operands = int_text(self.qubits)
        return f"{label}({operands})"


_NO_BODY = "composite gate without a body"
_INVERSE_KIND = {GateKind.T: GateKind.TDG, GateKind.TDG: GateKind.T}
_CYCLE = "composite cycle detected"


def _fits(qubits: Sequence[int], arity: int, width: int) -> bool:
    """True if `qubits` are `arity` distinct int operands in range(width),
    by one unpack for arity 1, 2 or 3: the well-formed gate's early test."""
    try:
        if arity == 1:
            (a,) = qubits
            return type(a) is int and 0 <= a < width
        if arity == 2:
            a, b = qubits
            return (type(a) is type(b) is int and 0 <= a < width
                    and 0 <= b < width and a != b)
        if arity == 3:
            a, b, t = qubits
            return (type(a) is type(b) is type(t) is int and 0 <= a < width
                    and 0 <= b < width and 0 <= t < width and a != b != t != a)
        return len(qubits) == arity == len(set(qubits)) and all(
            type(q) is int and 0 <= q < width for q in qubits
        )
    except (TypeError, ValueError):
        return False


def _gate_errors(gate: Gate, width: int) -> Sequence[CircuitError]:
    """Every invariant `gate` breaks as an operation of a `width`-qubit circuit.

    The one home of the gate checks: Circuit.append raises the first error,
    validate reports them all, and iter_primitive_ops raises the first on
    a gate at any depth, checked against the circuit that holds it. A gate
    without a body, of an unknown kind or whose operands have no length
    gets that error alone, since its operand count is then undefined.
    """
    qubits, kind = gate.qubits, gate.kind
    expected = PRIMITIVE_ARITY.get(kind)
    if expected is None:
        if kind is not GateKind.COMPOSITE:
            return [ArityError(f"unknown gate kind {kind!r}")]
        if gate.body is None:
            return [ArityError(_NO_BODY)]
        expected = gate.body.width
    if _fits(qubits, expected, width):
        return ()  # the one empty tuple, shared
    try:
        count = len(qubits)
    except TypeError:
        return [ArityError(f"operands must be a sequence, got {int_text(qubits)}")]
    errors: list[CircuitError] = []
    if count != expected:
        errors.append(ArityError(f"{gate!r} expects {expected} operands, got {count}"))
    bad = [q for q in qubits if type(q) is not int or not 0 <= q < width]
    if bad:
        errors.append(QubitIndexError(
            f"operands [{', '.join(map(int_text, bad))}] out of range "
            f"for width {int_text(width)}"
        ))
    try:
        collide = len(set(qubits)) != count
    except TypeError:  # an unhashable operand, which `bad` already holds
        collide = False
    if collide:
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
    stack = [(iter(c.gates), None, c)]  # no operand tuple: c's own numbering
    walking = {id(c)}  # the bodies on the stack
    while stack:
        gates, qmap, holder = stack[-1]
        width = holder.width
        for g in gates:
            kind, held, _, body = g
            n = arity(kind)
            # _fits inline for a primitive, as a call per gate would cost;
            # a failed unpack is a malformed gate, and so raises below
            try:
                if n == 2:
                    a, b = held
                    if (type(a) is type(b) is int and 0 <= a < width
                            and 0 <= b < width and a != b):
                        yield kind, ((qmap[a], qmap[b]) if qmap is not None
                                     else held if type(held) is tuple else (a, b))
                        continue
                elif n == 1:
                    (a,) = held
                    if type(a) is int and 0 <= a < width:
                        yield kind, ((qmap[a],) if qmap is not None
                                     else held if type(held) is tuple else (a,))
                        continue
                elif n == 3:
                    a, b, t = held
                    if (type(a) is type(b) is type(t) is int and 0 <= a < width
                            and 0 <= b < width and 0 <= t < width and a != b != t != a):
                        yield kind, ((qmap[a], qmap[b], qmap[t]) if qmap is not None
                                     else held if type(held) is tuple else (a, b, t))
                        continue
            except (TypeError, ValueError):
                pass
            # a composite has no primitive arity, so it is checked here;
            # any other gate that got this far is malformed
            if kind is not GateKind.COMPOSITE or body is None or not _fits(
                held, body.width, width
            ):
                raise _gate_errors(g, width)[0]
            if id(body) in walking:
                raise CircuitError(f"{_CYCLE} at {g.name}{held}")
            walking.add(id(body))
            mapped = tuple(held) if qmap is None else tuple([qmap[q] for q in held])
            stack.append((iter(body.gates), mapped, body))
            break
        else:
            walking.discard(id(holder))
            stack.pop()


def _shared_gates(ops: Iterable[tuple[GateKind, tuple[int, ...]]]) -> list[Gate]:
    """A Gate for each (kind, qubits) op of `ops`, in order, made once per
    distinct op: a repeated op gives the Gate made for its first
    occurrence. The dict of made gates lives for this call only."""
    made: dict[tuple[GateKind, tuple[int, ...]], Gate] = {}
    get = made.get
    gates = []
    for op in ops:
        gate = get(op)
        if gate is None:
            gate = made[op] = Gate(*op)
        gates.append(gate)
    return gates


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

        Operands are stored as a tuple, and integer operands of another type
        (numpy's) as int."""
        errors = _gate_errors(gate, self.width)
        if errors or type(gate.qubits) is not tuple:
            try:  # a bool is an Integral, but no more a qubit than a float
                gate = gate._replace(qubits=tuple(
                    int(q) if isinstance(q, Integral) and type(q) is not bool else q
                    for q in gate.qubits
                ))
            except TypeError:  # operands that are no sequence: errors says so
                raise errors[0] from None
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
        inv.gates.extend(_shared_gates(
            (_INVERSE_KIND.get(kind, kind), qubits)
            for kind, qubits in reversed(list(iter_primitive_ops(self)))
        ))
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
    exceptions, so hand-built or deserialized circuits can be inspected. A
    body held by several composites is checked once, at the path of the
    first composite that holds it.
    """
    out: list[Violation] = []
    _validate_into(c, c.name or "circuit", (id(c),), set(), out)
    return out


def _validate_into(
    c: Circuit, path: str, stack: tuple[int, ...], checked: set[int],
    out: list[Violation],
) -> None:
    try:
        width = _positive_width(c.width, "circuit")
    except InvalidWidthError as exc:
        out.append(Violation(path, -1, str(exc)))
        return
    for i, g in enumerate(c.gates):
        errors = _gate_errors(g, width)
        if errors:
            out.extend(Violation(path, i, str(err)) for err in errors)
        body = g.body
        if g.kind is GateKind.COMPOSITE and body is not None:
            sub_path = f"{path} > {g.name or 'composite'}"
            if id(body) in stack:
                out.append(Violation(sub_path, i, _CYCLE))
            elif id(body) not in checked:
                _validate_into(body, sub_path, stack + (id(body),), checked, out)
    checked.add(id(c))
