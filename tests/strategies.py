"""Hypothesis strategies shared by the test modules."""
from hypothesis import strategies as st

from qsqrt import CLIFFORD_T_KINDS, PERMUTATION_KINDS, Circuit, Gate, GateKind
from qsqrt.circuit import PRIMITIVE_ARITY
from qsqrt.errors import InvalidWidthError


def _operands(draw, width, k):
    """k distinct qubits of a width-qubit circuit."""
    qubits = st.integers(0, width - 1)
    return draw(st.lists(qubits, min_size=k, max_size=k, unique=True))


def _by_value(kinds):
    return st.sampled_from(sorted(kinds, key=lambda k: k.value))


@st.composite
def _nested_circuits(draw, width, depth, kinds):
    """Random circuits over `kinds` with composites nested `depth` deep."""
    c = Circuit(width)
    for _ in range(draw(st.integers(0, 10))):
        if depth and draw(st.booleans()):
            qubits = _operands(draw, width, draw(st.integers(1, min(width, 9))))
            body = draw(_nested_circuits(len(qubits), depth - 1, kinds))
            c.append_composite("BLOCK", body, qubits)
            continue
        kind = draw(_by_value(kinds))
        if PRIMITIVE_ARITY[kind] <= width:
            c.append(Gate(kind, tuple(_operands(draw, width, PRIMITIVE_ARITY[kind]))))
    return c


def permutation_circuits(width, depth=2):
    """Random X/CX/ZCX/CCX/SWAP circuits with nested composites."""
    return _nested_circuits(width, depth, PERMUTATION_KINDS)


def primitive_circuits(width, depth=2):
    """Random circuits over all eight primitive kinds with nested composites."""
    return _nested_circuits(width, depth, frozenset(PRIMITIVE_ARITY))


@st.composite
def clifford_t_circuits(draw, width):
    """Random flat X/CX/H/T/TDG circuits, the gate set lowering emits."""
    c = Circuit(width)
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(_by_value(CLIFFORD_T_KINDS))
        if PRIMITIVE_ARITY[kind] <= width:
            c.append(Gate(kind, tuple(_operands(draw, width, PRIMITIVE_ARITY[kind]))))
    return c


@st.composite
def mixed_circuits(draw, width):
    """Permutation blocks, nested composites included, with H, T and TDG
    between them: after each block, a T or TDG, or an H on some qubit s, the
    first gates of a flat permutation or X/CX/H/T/TDG run, and an H on s or
    on any qubit. A path sum follows some; others open a second H (a CCX's
    template opens its own), leave one open, or close one whose branches
    also differ on other qubits."""
    qubit = st.integers(0, width - 1)
    c = Circuit(width)
    for _ in range(draw(st.integers(1, 3))):
        c.append_composite("BLOCK", draw(permutation_circuits(width, 1)), range(width))
        if draw(st.booleans()):
            c.append(Gate(draw(st.sampled_from([GateKind.T, GateKind.TDG])), (draw(qubit),)))
            continue
        s = draw(qubit)
        run = draw(st.one_of(permutation_circuits(width, 0), clifford_t_circuits(width)))
        c.h(s)
        c.gates.extend(run.gates[:3])
        c.h(draw(st.one_of(st.just(s), qubit)))
    return c


def family_widths(family, stop):
    """Each n < stop that family.build accepts: the builder's own domain."""
    for n in range(stop):
        try:
            family.build(n)
        except InvalidWidthError:
            continue
        yield n
