"""Hypothesis strategies shared by the test modules."""
from hypothesis import strategies as st

from qsqrt import PERMUTATION_KINDS, Circuit, Gate
from qsqrt.circuit import PRIMITIVE_ARITY


@st.composite
def permutation_circuits(draw, width, depth=2):
    """Random X/CX/ZCX/CCX/SWAP circuits with nested composites."""

    def operands(k):
        qubits = st.integers(0, width - 1)
        return draw(st.lists(qubits, min_size=k, max_size=k, unique=True))

    c = Circuit(width)
    for _ in range(draw(st.integers(0, 10))):
        if depth and draw(st.booleans()):
            qubits = operands(draw(st.integers(1, min(width, 9))))
            body = draw(permutation_circuits(len(qubits), depth - 1))
            c.append_composite("BLOCK", body, qubits)
            continue
        kind = draw(st.sampled_from(sorted(PERMUTATION_KINDS, key=lambda k: k.value)))
        if PRIMITIVE_ARITY[kind] <= width:
            c.append(Gate(kind, tuple(operands(PRIMITIVE_ARITY[kind]))))
    return c
