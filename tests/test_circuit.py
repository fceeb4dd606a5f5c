import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsqrt import (
    Circuit,
    Gate,
    GateKind,
    build_adder,
    peres_circuit,
    perm_run,
    validate,
)
from qsqrt.circuit import PRIMITIVE_ARITY, iter_primitive_ops
from qsqrt.errors import (
    ArityError,
    CircuitError,
    InvalidWidthError,
    OperandCollisionError,
    QubitIndexError,
)
from strategies import primitive_circuits


def test_new_circuit_is_empty():
    qc = Circuit(3, "PERES")
    assert (qc.width, qc.name, len(qc)) == (3, "PERES", 0)


def test_new_circuit_isqrt_width():
    assert Circuit(13, "ISQRT").width == 13


def test_zero_width_rejected():
    with pytest.raises(InvalidWidthError):
        Circuit(0, "x")


@pytest.mark.parametrize("width", [2.5, 2.0, "3", None, np.float64(2.0)])
def test_non_integer_widths_rejected(width):
    with pytest.raises(InvalidWidthError, match="integer width"):
        Circuit(width)


def test_numpy_integer_width_is_an_int():
    qc = Circuit(np.int64(3)).x(2)
    assert type(qc.width) is int
    assert perm_run(qc, 0) == 0b100


def test_numpy_integer_operands_are_stored_as_ints():
    qc = Circuit(4).cx(np.int64(0), np.int32(3))
    qc.append_composite("PERES", peres_circuit(), np.arange(3))
    assert [type(q) for g in qc.gates for q in g.qubits] == [int] * 5
    expected = Circuit(4).cx(0, 3)
    assert qc == expected.append_composite("PERES", peres_circuit(), [0, 1, 2])


@pytest.mark.parametrize("operand", [1.5, 1.0, True, np.float64(1.0), np.True_, "1"])
def test_non_integer_operands_rejected(operand):
    with pytest.raises(QubitIndexError, match="out of range for width 2"):
        Circuit(2).x(operand)
    with pytest.raises(QubitIndexError):
        Circuit(3).append_composite("PERES", peres_circuit(), [0, operand, 2])


@pytest.mark.parametrize("kind", list(GateKind))
def test_gate_kinds_round_trip_and_key_by_identity(kind):
    assert pickle.loads(pickle.dumps(kind)) is kind
    assert copy.deepcopy(kind) is kind
    table = {k: k.value for k in GateKind}
    assert table[pickle.loads(pickle.dumps(kind))] == kind.value
    assert kind in set(GateKind) and kind in frozenset({kind})


def test_append_cx():
    qc = Circuit(2).cx(0, 1)
    assert len(qc.gates) == 1
    assert qc.gates[0] == Gate(GateKind.CX, (0, 1))


def test_append_duplicate_operands_rejected():
    with pytest.raises(OperandCollisionError):
        Circuit(2).ccx(0, 0, 1)


def test_append_out_of_range_rejected():
    with pytest.raises(QubitIndexError):
        Circuit(3).x(5)


def test_append_wrong_arity_rejected():
    with pytest.raises(ArityError):
        Circuit(3).append(Gate(GateKind.CX, (0, 1, 2)))


def test_append_never_mutates_prior_gates():
    qc = Circuit(2).cx(0, 1)
    first = qc.gates[0]
    qc.x(0)
    assert qc.gates[0] is first
    assert first.qubits == (0, 1)


def test_append_composite_records_gate():
    qc = Circuit(5)
    qc.append_composite("PERES", peres_circuit(), [4, 1, 0])
    gate = qc.gates[0]
    assert gate.kind is GateKind.COMPOSITE
    assert gate.qubits == (4, 1, 0)
    assert gate.name == "PERES"
    assert gate.body is not None and gate.body.width == 3


def test_append_composite_arity_mismatch():
    with pytest.raises(ArityError):
        Circuit(3).append_composite("PERES", peres_circuit(), [0, 1])


def test_append_composite_duplicate_mapping():
    with pytest.raises(OperandCollisionError):
        Circuit(3).append_composite("PERES", peres_circuit(), [0, 1, 1])


def test_append_composite_out_of_range_mapping():
    with pytest.raises(QubitIndexError):
        Circuit(3).append_composite("PERES", peres_circuit(), [0, 1, 3])


def test_validate_ok_for_generated_circuit():
    assert validate(build_adder(4)) == []


def test_validate_reports_hand_built_collision():
    qc = Circuit(3)
    qc.gates.append(Gate(GateKind.CX, (2, 2)))  # bypasses append checks
    violations = validate(qc)
    assert len(violations) == 1
    assert "duplicate" in violations[0].message


def test_validate_attributes_path_through_composites():
    body = Circuit(2, "inner")
    body.gates.append(Gate(GateKind.X, (7,)))  # out of range for the body
    outer = Circuit(4, "outer")
    outer.append_composite("inner", body, [0, 1])
    violations = validate(outer)
    assert len(violations) == 1
    assert violations[0].path == "outer > inner"
    assert "out of range" in violations[0].message


def test_validate_detects_composite_cycle():
    inner = Circuit(1, "loop")
    outer = Circuit(1, "outer")
    outer.append_composite("loop", inner, [0])
    inner.gates.append(outer.gates[0])  # body now contains itself
    assert any("cycle" in v.message for v in validate(inner))
    assert any("cycle" in v.message for v in validate(outer))


def test_circuit_equality_by_value():
    assert build_adder(3) == build_adder(3)
    assert build_adder(3) != build_adder(4)


def test_inverse_reverses_order_and_swaps_t_kinds():
    qc = Circuit(2).t(0)
    qc.cx(0, 1)
    qc.tdg(1)
    inv = qc.inverse()
    assert [(g.kind, g.qubits) for g in inv.gates] == [
        (GateKind.T, (1,)),
        (GateKind.CX, (0, 1)),
        (GateKind.TDG, (0,)),
    ]


def test_inverse_is_flat_with_the_same_width_and_name():
    qc = Circuit(4, "OUTER").t(3)
    qc.append_composite("PERES", peres_circuit(), [2, 0, 1])
    inv = qc.inverse()
    assert (inv.width, inv.name) == (4, "OUTER")
    assert [(g.kind, g.qubits, g.body) for g in inv.gates] == [
        (GateKind.CX, (2, 0), None),
        (GateKind.CCX, (2, 0, 1), None),
        (GateKind.TDG, (3,), None),
    ]


@st.composite
def single_gates(draw):
    """(circuit width, one gate) with arbitrary kind, arity and operands."""
    width = draw(st.integers(1, 5))
    kind = draw(st.sampled_from([*GateKind, "bogus"]))
    body = None
    if kind is GateKind.COMPOSITE:
        body = draw(st.one_of(st.none(), st.integers(1, 4).map(Circuit)))
    # a float equal to a qubit index is no operand either
    operand = st.integers(-2, width + 2) | st.integers(0, width).map(float)
    qubits = draw(st.lists(operand, max_size=4))
    return width, Gate(kind, tuple(qubits), name="BLOCK", body=body)


@settings(max_examples=300, deadline=None)
@given(single_gates())
def test_validate_agrees_with_append(case):
    width, gate = case
    hand_built = Circuit(width)
    hand_built.gates.append(gate)  # bypasses append checks
    violations = validate(hand_built)
    try:
        Circuit(width).append(gate)
    except (ArityError, QubitIndexError, OperandCollisionError) as err:
        assert violations and violations[0].gate_index == 0
        assert str(err) == violations[0].message
    else:
        assert violations == []


def _circuit_and_bodies(c):
    """`c` and every composite body below it, depth first."""
    found = [c]
    for g in c.gates:
        if g.body is not None:
            found.extend(_circuit_and_bodies(g.body))
    return found


@st.composite
def planted_circuits(draw):
    """A nested primitive circuit with one hand-built gate planted at a random
    depth: its operands are drawn around the holding circuit's width, some
    of them floats, and its count around the kind's arity, so it is mostly
    malformed but not always."""
    c = draw(st.integers(1, 5).flatmap(primitive_circuits))
    holder = draw(st.sampled_from(_circuit_and_bodies(c)))
    kind = draw(st.sampled_from(sorted(PRIMITIVE_ARITY, key=lambda k: k.value)))
    width = holder.width
    operand = st.integers(-2, width + 1) | st.integers(0, width).map(float)
    qubits = draw(st.lists(operand, min_size=1, max_size=4))
    at = draw(st.integers(0, len(holder.gates)))
    holder.gates.insert(at, Gate(kind, tuple(qubits)))  # bypasses append checks
    return c


@settings(max_examples=300, deadline=None)
@given(planted_circuits())
def test_walk_raises_exactly_when_validate_reports(c):
    violations = validate(c)
    try:
        list(iter_primitive_ops(c))
    except CircuitError as err:
        assert str(err) == violations[0].message
    else:
        assert violations == []
