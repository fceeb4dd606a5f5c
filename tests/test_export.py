import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsqrt import (
    Circuit,
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
from strategies import permutation_circuits

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


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(permutation_circuits))
def test_round_trip_gives_the_flat_gates_with_zcx_expanded(c):
    expected = []
    for g in flatten(c).gates:
        if g.kind is GateKind.ZCX:
            control, target = g.qubits
            expected += [
                (GateKind.X, (control,)),
                (GateKind.CX, (control, target)),
                (GateKind.X, (control,)),
            ]
        else:
            expected.append((g.kind, g.qubits))
    parsed = from_qasm(to_qasm(c))
    assert parsed.width == c.width
    assert [(g.kind, g.qubits) for g in parsed.gates] == expected


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

