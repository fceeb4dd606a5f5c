import copy
import dataclasses
import itertools
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsqrt import (
    Circuit,
    Gate,
    GateKind,
    analyze,
    build_adder,
    build_isqrt_circuit,
    flatten,
    peres_circuit,
    Violation,
    perm_run,
    to_qasm,
    validate,
)
from qsqrt.circuit import PRIMITIVE_ARITY, _gate_errors, iter_primitive_ops
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


def test_append_stores_a_list_of_operands_as_a_tuple():
    qc = Circuit(3).append(Gate(GateKind.CX, [0, 1]))
    gate = qc.gates[0]
    assert type(gate.qubits) is tuple
    assert hash(gate) == hash(Gate(GateKind.CX, (0, 1)))
    assert qc == flatten(qc)


def test_the_walk_yields_tuples_for_hand_built_list_operands():
    qc = Circuit(3)
    qc.gates.append(Gate(GateKind.CX, [2, 0]))  # bypasses append
    assert list(iter_primitive_ops(qc)) == [(GateKind.CX, (2, 0))]
    assert flatten(qc).gates == [Gate(GateKind.CX, (2, 0))]


def test_gate_is_an_immutable_record_of_its_fields():
    gate = Gate(GateKind.CX, (0, 1))
    for field, value in [("kind", GateKind.X), ("qubits", (1, 0)), ("name", "N")]:
        with pytest.raises(AttributeError):
            setattr(gate, field, value)
    assert (gate.name, gate.body) == (None, None)
    assert gate == Gate(GateKind.CX, (0, 1)) == (GateKind.CX, (0, 1), None, None)
    assert hash(gate) == hash(Gate(GateKind.CX, (0, 1)))
    assert len({gate, Gate(GateKind.CX, (0, 1)), Gate(GateKind.CX, (1, 0))}) == 2
    assert gate != Gate(GateKind.CX, (0, 1), name="N")
    assert gate._replace(qubits=(1, 0)) == Gate(GateKind.CX, (1, 0))
    with pytest.raises(TypeError):
        dataclasses.replace(gate, qubits=(1, 0))
    assert repr(gate) == "cx(0, 1)"
    assert repr(Gate(GateKind.CCX, (1 << 200, 2, 0))) == "ccx(<201-bit integer>, 2, 0)"
    peres = Gate(GateKind.COMPOSITE, (4, 1, 0), name="PERES", body=peres_circuit())
    assert repr(peres) == "PERES(4, 1, 0)"


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


def _composite_body(c, name, last=False):
    """The body of `c`'s first (or last) composite called `name`."""
    bodies = [g.body for g in c.gates if g.name == name]
    return bodies[-1] if last else bodies[0]


def test_validate_reports_a_fault_in_a_shared_body_once():
    c = build_isqrt_circuit(16)
    adder = _composite_body(
        _composite_body(_composite_body(c, "PART 2"), "CTRL ADD/SUB", last=True),
        "ADD",
    )
    # every PERES of this adder holds the same body
    _composite_body(adder, "PERES").gates.append(Gate(GateKind.CX, (1, 1)))
    assert validate(c) == [
        Violation(
            "ISQRT > PART 2 > CTRL ADD/SUB > ADD > PERES", 2,
            "duplicate operands in cx(1, 1)",
        )
    ]


def test_validate_reports_a_body_at_the_first_path_that_holds_it():
    body = Circuit(2, "B")
    body.gates.append(Gate(GateKind.CX, (1, 1)))  # bypasses append checks
    top = Circuit(2, "top")
    for name in ("P1", "P2"):
        parent = Circuit(2, name).append_composite("B", body, [1, 0])
        top.append_composite(name, parent, [0, 1])
    assert validate(top) == [
        Violation("top > P1 > B", 0, "duplicate operands in cx(1, 1)")
    ]


@pytest.mark.parametrize("width", [0, -1, 2.5])
def test_validate_checks_the_width_as_the_constructor_does(width):
    with pytest.raises(InvalidWidthError) as raised:
        Circuit(width)
    c = Circuit(1, "odd")
    c.width = width  # bypasses the constructor's check
    assert validate(c) == [Violation("odd", -1, str(raised.value))]


def test_circuit_repr_names_the_width_and_gate_count():
    assert repr(build_adder(2)) == "Circuit('ADD', width=4, gates=5)"


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


def test_inverse_shares_one_gate_record_per_distinct_gate():
    gates = build_isqrt_circuit(8).inverse().gates
    assert len({id(g) for g in gates}) == len(set(gates)) < len(gates) // 2


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


def _well_formed(gate, width):
    """The gate invariants, written out: an arity that the operand count
    meets, int operands in range, and no operand twice."""
    if gate.kind is GateKind.COMPOSITE:
        arity = None if gate.body is None else gate.body.width
    else:
        arity = PRIMITIVE_ARITY.get(gate.kind)
    if isinstance(gate.qubits, int):  # a bare int: no operands at all
        return False
    qubits = list(gate.qubits)
    return (
        arity == len(qubits)
        and all(type(q) is int and 0 <= q < width for q in qubits)
        and len(set(qubits)) == len(qubits)
    )


@st.composite
def early_accept_cases(draw):
    """(width, gate) over every kind, a body or none, and int, bool, float,
    numpy int, negative, out-of-range and repeated operands held in a tuple,
    a list, a numpy array or a str of their digits, or a bare int."""
    width = draw(st.integers(1, 5))
    kind = draw(st.sampled_from([*GateKind, "bogus"]))
    body = None
    if kind is GateKind.COMPOSITE:
        body = draw(st.one_of(st.none(), st.integers(1, 4).map(Circuit)))
    index = st.integers(-2, width + 1)
    operand = st.one_of(
        index,
        index.map(np.int64),
        st.booleans(),
        st.integers(0, width).map(float),
    )
    qubits = draw(st.lists(operand, max_size=4))
    if qubits and draw(st.booleans()):
        qubits.insert(draw(st.integers(0, len(qubits))), draw(st.sampled_from(qubits)))
    container = draw(st.sampled_from([tuple, list, np.array, _digits, "int"]))
    held = draw(index) if container == "int" else container(qubits)
    return width, Gate(kind, held, name="BLOCK", body=body)


def _digits(qubits):
    """The operands as a str, one char per char of their reprs."""
    return "".join(map(str, qubits))


def _as_appended(gate):
    """`gate` with numpy int operands as int, as append stores it; a bare
    int has no operands to convert."""
    if isinstance(gate.qubits, int):
        return gate
    return gate._replace(qubits=tuple(
        int(q) if isinstance(q, np.integer) else q for q in gate.qubits
    ))


@settings(max_examples=500, deadline=None)
@given(early_accept_cases())
def test_the_gate_check_accepts_exactly_the_well_formed_gates(case):
    width, gate = case
    assert (_gate_errors(gate, width) == ()) == _well_formed(gate, width)
    normalised = _as_appended(gate)
    errors = _gate_errors(normalised, width)
    c = Circuit(width)
    try:
        c.append(gate)
    except CircuitError as err:
        assert errors and str(err) == str(errors[0])
    else:
        assert not errors
        assert c.gates == [normalised]
        assert type(c.gates[0].qubits) is tuple


def _walk_agrees_with_the_check(width, gate):
    """The walk yields `gate`, held alone by a width-qubit circuit, exactly
    when _gate_errors accepts it, and otherwise raises validate's first
    message; the check accepts exactly the well-formed gates."""
    c = Circuit(width)
    c.gates.append(gate)  # bypasses append
    accepted = _gate_errors(gate, width) == ()
    assert accepted == _well_formed(gate, width)
    try:
        ops = list(iter_primitive_ops(c))
    except CircuitError as err:
        assert not accepted and str(err) == validate(c)[0].message
    else:
        assert accepted
        # a composite's body is empty
        composite = gate.kind is GateKind.COMPOSITE
        assert ops == ([] if composite else [(gate.kind, tuple(gate.qubits))])
        assert all(type(q) is tuple for _, q in ops)


@settings(max_examples=500, deadline=None)
@given(early_accept_cases())
def test_the_walk_yields_a_gate_exactly_when_the_check_accepts_it(case):
    _walk_agrees_with_the_check(*case)


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_the_walk_and_the_check_agree_on_every_small_operand_tuple(arity):
    # the near misses: int operands from -1 to width, one too few to one
    # too many, each the primitive kinds' and a composite's of that arity
    kinds = [kind for kind, k in PRIMITIVE_ARITY.items() if k == arity]
    for width in range(1, 5):
        for count in (arity - 1, arity, arity + 1):
            for qubits in itertools.product(range(-1, width + 1), repeat=count):
                for kind in kinds:
                    _walk_agrees_with_the_check(width, Gate(kind, qubits))
                composite = Gate(GateKind.COMPOSITE, qubits, "BLOCK", Circuit(arity))
                _walk_agrees_with_the_check(width, composite)


def test_operands_that_are_no_sequence_are_reported():
    c = Circuit(2)
    c.gates.append(Gate(GateKind.X, 1))  # bypasses append
    message = "operands must be a sequence, got 1"
    assert validate(c) == [Violation("circuit", 0, message)]
    with pytest.raises(ArityError, match=message):
        list(iter_primitive_ops(c))
    with pytest.raises(ArityError, match=message):
        Circuit(2).append(Gate(GateKind.X, 1))


def test_a_gate_on_a_bare_int_prints_it():
    assert repr(Gate(GateKind.X, 1)) == "x(1)"
    assert repr(Gate(GateKind.X, 1 << 200)) == "x(<201-bit integer>)"
    body = Circuit(1).x(0)
    assert repr(Gate(GateKind.COMPOSITE, 3, "B", body)) == "B(3)"


@pytest.mark.parametrize("operand", [[0], {0}, {0: 1}], ids=["list", "set", "dict"])
@pytest.mark.parametrize("nested", [False, True], ids=["root", "body"])
def test_unhashable_operands_are_reported(operand, nested):
    bad = Gate(GateKind.CX, (operand, 1))
    message = f"operands [{operand!r}] out of range for width 3"
    errors = _gate_errors(bad, 3)
    assert [(type(e), str(e)) for e in errors] == [(QubitIndexError, message)]
    c = Circuit(3)
    if nested:
        body = Circuit(3)
        body.gates.append(bad)  # bypasses append
        c.append_composite("B", body, (0, 1, 2))
        path = "circuit > B"
    else:
        c.gates.append(bad)
        path = "circuit"
    assert validate(c) == [Violation(path, 0, message)]
    for consumer in (lambda c: list(iter_primitive_ops(c)), to_qasm, analyze,
                     lambda c: perm_run(c, 0)):
        with pytest.raises(QubitIndexError) as raised:
            consumer(c)
        assert str(raised.value) == message
    with pytest.raises(QubitIndexError) as raised:
        Circuit(3).append(bad)
    assert str(raised.value) == message


def _reference_walk(c, qmap=None):
    """(kind, qubits) of each primitive gate of `c`, by plain recursion
    through the composed operand maps."""
    for g in c.gates:
        qubits = tuple(g.qubits if qmap is None else [qmap[q] for q in g.qubits])
        if g.kind is GateKind.COMPOSITE:
            yield from _reference_walk(g.body, qubits)
        else:
            yield g.kind, qubits


@st.composite
def listed_circuits(draw):
    """A nested primitive circuit, composites 0 to 3 deep, in which some
    gates, at the root and in bodies, hold their operands in a list."""
    c = draw(st.tuples(st.integers(1, 6), st.integers(0, 3)).flatmap(
        lambda shape: primitive_circuits(*shape)
    ))
    for holder in _circuit_and_bodies(c):
        for i, g in enumerate(holder.gates):
            if draw(st.booleans()):
                holder.gates[i] = g._replace(qubits=list(g.qubits))  # bypasses append
    return c


@settings(max_examples=150, deadline=None)
@given(listed_circuits())
def test_the_walk_equals_a_plain_recursive_walk(c):
    ops = list(iter_primitive_ops(c))
    assert ops == list(_reference_walk(c))
    for kind, qubits in ops:
        assert type(qubits) is tuple and len(qubits) == PRIMITIVE_ARITY[kind]
        assert all(type(q) is int and 0 <= q < c.width for q in qubits)
