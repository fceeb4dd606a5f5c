import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsqrt import (
    Circuit,
    Gate,
    GateKind,
    build_adder,
    build_ctrl_adder,
    build_isqrt_pipeline,
    build_part1,
    count_ops,
    flatten,
    from_qasm,
    perm_run,
    to_qasm,
)
from qsqrt.errors import QasmParseError
from strategies import primitive_circuits

HEADER = 'OPENQASM 2.0;\ninclude "qelib1.inc";\n'


def test_single_x_document():
    assert to_qasm(Circuit(1).x(0)) == HEADER + "qreg q[1];\nx q[0];\n"


def test_zcx_emitted_as_x_cx_x():
    body = to_qasm(Circuit(2).zcx(0, 1)).splitlines()[3:]
    assert body == ["x q[0];", "cx q[0],q[1];", "x q[0];"]


def test_to_qasm_flattens_composites():
    text = to_qasm(build_adder(2))
    assert "PERES" not in text
    assert "ccx" in text


def test_to_qasm_deterministic():
    assert to_qasm(build_adder(4)) == to_qasm(build_adder(4))


def test_round_trip_adder_histogram():
    qc = build_adder(4)
    parsed = from_qasm(to_qasm(qc))
    assert count_ops(parsed) == count_ops(flatten(qc))


def test_exported_counts_match_count_ops():
    for qc in (build_adder(3), build_ctrl_adder(3)):
        parsed = from_qasm(to_qasm(qc))
        assert count_ops(parsed) == count_ops(flatten(qc))


def test_round_trip_is_byte_stable_with_zcx():
    text = to_qasm(build_part1(6))
    assert to_qasm(from_qasm(text)) == text


def test_round_trip_preserves_simulation():
    qc = build_isqrt_pipeline(6)
    parsed = from_qasm(to_qasm(qc))
    flat = flatten(qc)
    rng = random.Random(12)
    for _ in range(50):
        state = rng.randrange(1 << 13)
        assert perm_run(parsed, state) == perm_run(flat, state)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 12).flatmap(primitive_circuits))
def test_round_trip_gives_the_flat_gates_with_zcx_expanded(c):
    expected = []
    for g in flatten(c).gates:
        if g.kind is GateKind.ZCX:
            x = Gate(GateKind.X, g.qubits[:1])
            expected += [x, Gate(GateKind.CX, g.qubits), x]
        else:
            expected.append(g)
    text = to_qasm(c)
    parsed = from_qasm(text)
    assert (parsed.width, parsed.gates) == (c.width, expected)
    assert to_qasm(parsed) == text


def _hand_spaced(line):
    """A canonical gate line as a person might type it: `cx  q[0] , q[1] ; // c`."""
    name, operands = line[:-1].split(" ")
    return f"  {name}  {operands.replace(',', ' , ')} ; // c"


def test_a_hand_spaced_commented_document_parses_as_its_canonical_form():
    canonical = to_qasm(build_isqrt_pipeline(4))
    header, body = canonical.split("qreg q[9];\n")
    spaced = header + "// register\nqreg q[9];\n\n" + "\n".join(
        _hand_spaced(line) for line in body.splitlines()
    )
    assert "  cx  q[2] , q[3] ; // c" in spaced.splitlines()
    assert from_qasm(spaced) == from_qasm(canonical)


# each message as the parser worded it before canonical lines had a route
# of their own
@pytest.mark.parametrize(
    "line, message",
    [
        ("cx q[0],q[3];", "operands [3] out of range for width 3"),
        ("ccx q[0],q[1],q[3];", "operands [3] out of range for width 3"),
        ("cx q[1],q[1];", "duplicate operands in cx(1, 1)"),
        ("ccx q[2],q[0],q[2];", "duplicate operands in ccx(2, 0, 2)"),
        ("cx q[0];", "cx(0) expects 2 operands, got 1"),
        ("x q[0],q[1];", "x(0, 1) expects 1 operands, got 2"),
        ("cx q[0],q[1],q[2];", "cx(0, 1, 2) expects 2 operands, got 3"),
        ("cx q[0],q[1],q[2],q[0];", "cx(0, 1, 2, 0) expects 2 operands, got 4"),
        ("cx q[0],q[1234567890];", "operands [1234567890] out of range for width 3"),
        ("cx q[0],r[1];", "malformed operand 'r[1]'"),
        ("x r[0];", "malformed operand 'r[0]'"),
        ("qreg q[3];", "multiple qreg declarations"),
        ("zcx q[0],q[1];", "unsupported gate 'zcx'"),
    ],
)
def test_a_perturbed_canonical_line_raises_the_general_parse_error(line, message):
    text = HEADER + f"qreg q[3];\nx q[0];\n{line}\nh q[2];\n"
    with pytest.raises(QasmParseError) as err:
        from_qasm(text)
    assert str(err.value) == f"line 5: {message}"
    assert err.value.line == 5


def test_unsupported_gate_error_carries_line_number():
    text = HEADER + "qreg q[1];\nrz(0.1) q[0];\n"
    with pytest.raises(QasmParseError) as err:
        from_qasm(text)
    assert err.value.line == 4
    assert "rz" in str(err.value)


def test_empty_body_gives_empty_circuit():
    qc = from_qasm(HEADER + "qreg q[5];\n")
    assert qc.width == 5
    assert qc.gates == []


def test_multiple_qregs_rejected():
    text = HEADER + "qreg q[2];\nqreg r[2];\n"
    with pytest.raises(QasmParseError) as err:
        from_qasm(text)
    assert "multiple qreg" in str(err.value)


def test_missing_qreg_rejected():
    with pytest.raises(QasmParseError):
        from_qasm(HEADER)


def test_gate_before_qreg_rejected():
    with pytest.raises(QasmParseError):
        from_qasm(HEADER + "x q[0];\n")


def test_operand_from_wrong_register_rejected():
    text = HEADER + "qreg q[2];\ncx q[0],r[1];\n"
    with pytest.raises(QasmParseError) as err:
        from_qasm(text)
    assert err.value.line == 4


@pytest.mark.parametrize(
    "line, message",
    [
        ("qreg q[3;", "malformed qreg declaration"),
        ("x q[0]", r"malformed statement: x q\[0\]"),
        ("cx q[0],q[0];", r"duplicate operands in cx\(0, 0\)"),
        ("x q[5];", r"operands \[5\] out of range for width 3"),
        ("ccx q[0],q[1];", "expects 3 operands, got 2"),
    ],
)
def test_rejected_lines_are_parse_errors_naming_the_line(line, message):
    with pytest.raises(QasmParseError, match=message) as err:
        from_qasm(HEADER + f"qreg q[3];\n{line}\n")
    assert type(err.value) is QasmParseError
    assert err.value.line == 4


@pytest.mark.parametrize(
    "name, arity",
    [("x", 1), ("cx", 2), ("ccx", 3), ("swap", 2), ("h", 1), ("t", 1), ("tdg", 1)],
)
def test_every_emitted_gate_name_parses(name, arity):
    operands = ",".join(f"q[{q}]" for q in range(arity))
    c = from_qasm(HEADER + f"qreg q[3];\n{name} {operands};\n")
    assert [(g.kind.value, g.qubits) for g in c.gates] == [(name, tuple(range(arity)))]


@pytest.mark.parametrize(
    "line, name",
    [("x(0.1) q[0];", "x"), ("cx() q[0],q[1];", "cx"), ("h (pi) q[1];", "h"),
     ("ccx(1,2) q[0],q[1],q[2];", "ccx"), ("tdg(-pi/4) q[2];", "tdg")],
)
def test_a_parameter_list_on_a_supported_gate_is_a_parse_error(line, name):
    with pytest.raises(QasmParseError, match=f"gate '{name}' takes no parameters") as err:
        from_qasm(HEADER + f"qreg q[3];\n{line}\n")
    assert err.value.line == 4


def test_a_parameterised_gate_outside_the_subset_stays_unsupported():
    with pytest.raises(QasmParseError, match="unsupported gate 'rz'"):
        from_qasm(HEADER + "qreg q[1];\nrz(0.1) q[0];\n")


def test_zcx_is_an_unsupported_gate():
    # a kind's value is its QASM name, but ZCX is written out as x/cx/x
    with pytest.raises(QasmParseError, match="unsupported gate 'zcx'") as err:
        from_qasm(HEADER + "qreg q[2];\nzcx q[0],q[1];\n")
    assert err.value.line == 4


@pytest.mark.parametrize(
    "body", ["qreg q[{big}];\n", "qreg q[2];\nx q[{big}];\n"],
    ids=["qreg size", "operand index"],
)
def test_integer_past_the_digit_limit_is_a_parse_error(body):
    # int() converts at most 4300 digits by default
    with pytest.raises(QasmParseError, match="5000 digits") as err:
        from_qasm(HEADER + body.format(big="9" * 5000))
    assert err.value.line == 2 + body.count("\n")


def test_unsupported_version_rejected():
    with pytest.raises(QasmParseError):
        from_qasm("OPENQASM 3.0;\nqreg q[1];\n")


@pytest.mark.parametrize("line", ["include_me;", 'include "other.inc";'])
def test_other_include_lines_rejected(line):
    with pytest.raises(QasmParseError, match="unsupported header line") as err:
        from_qasm(f"OPENQASM 2.0;\n{line}\nqreg q[1];\n")
    assert err.value.line == 2


def test_comments_and_blank_lines_ignored():
    text = HEADER + "\n// register\nqreg q[2];\ncx q[0],q[1]; // entangle\n"
    qc = from_qasm(text)
    assert len(qc.gates) == 1

