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
from qsqrt.circuit import PRIMITIVE_ARITY
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


@pytest.mark.parametrize(
    "body, message",
    [
        ("qreg q[\u0664];\n", "malformed qreg declaration"),
        ("qreg\u2003q[4];\n", "malformed qreg declaration"),
        # the canonical form, which falls through to the general parser
        ("qreg q[4];\ncx q[\u0663],q[1];\n", "malformed operand 'q[\u0663]'"),
        # the general parser's own route: other spacing and a comment
        ("qreg q[4];\ncx  q[\u0663] , q[1] ; // c\n", "malformed operand 'q[\u0663]'"),
        ("qreg q[4];\ncx\u2003q[0],q[1];\n", "malformed statement: cx\u2003q[0],q[1];"),
        ("qreg q[4];\ncx q[0],\u2003q[1];\n", "malformed operand '\u2003q[1]'"),
        ("qreg q[4];\n\u3000x q[2];\n", "malformed statement: \u3000x q[2];"),
        ("qreg q[4];\nx q[2];\u3000\n", "malformed statement: x q[2];\u3000"),
    ],
    ids=["qreg digit", "qreg space", "canonical digit", "general digit",
         "space after name", "space before operand", "leading space", "trailing space"],
)
def test_non_ascii_digits_and_spaces_are_parse_errors(body, message):
    # by default \d and \s in a str pattern match any Unicode digit or space,
    # and str.strip() strips any Unicode space
    with pytest.raises(QasmParseError) as err:
        from_qasm(HEADER + body)
    line = 2 + body.count("\n")
    assert str(err.value) == f"line {line}: {message}"
    assert err.value.line == line


def _outcome(text):
    """from_qasm's circuit as (width, gates), or its error as (message, line)."""
    try:
        c = from_qasm(text)
    except QasmParseError as exc:
        return str(exc), exc.line
    return c.width, c.gates


def _line_at_a_time(text):
    """`text` with each line given a comment of its own, so no line is
    repeated and none has the canonical form: the general parser reads
    every line afresh, and line numbers stay as they were."""
    return "\n".join(f"{line} // {i}" for i, line in enumerate(text.split("\n")))


@st.composite
def _canonical_lines(draw, width):
    """A gate line as to_qasm writes it, of any kind but ZCX."""
    kinds = [
        k for k, arity in PRIMITIVE_ARITY.items()
        if k is not GateKind.ZCX and arity <= width
    ]
    kind = draw(st.sampled_from(kinds))
    qubits = draw(st.permutations(range(width)))[:PRIMITIVE_ARITY[kind]]
    return f"{kind.value} " + ",".join(f"q[{q}]" for q in qubits) + ";"


@st.composite
def _documents(draw):
    """A parsable document of repeated canonical lines, hand-spaced ones,
    comments and blank lines, perhaps with one fault planted: a perturbed
    line anywhere, a repeated gate line before the qreg, or a second qreg
    followed by a repeated gate line."""
    width = draw(st.integers(1, 4))
    pool = draw(st.lists(_canonical_lines(width), min_size=1, max_size=4))
    repeated = st.sampled_from(pool)
    body = draw(st.lists(
        st.one_of(repeated, repeated.map(_hand_spaced), st.sampled_from(["", "// c"])),
        max_size=16,
    ))
    lines = [*HEADER.splitlines(), f"qreg q[{width}];", *body]
    fault = draw(st.sampled_from(["none", "perturbed", "before qreg", "second qreg"]))
    if fault == "perturbed":
        line = draw(st.sampled_from([
            f"x q[{width}];", "cx q[0],q[0];", "cx q[0];", "x q[0],q[1];",
            "rz(0.1) q[0];", "zcx q[0],q[1];", "x r[0];", "x q[٠];", "x q[0]",
            "qreg q[٤];", 'include "other.inc";',
        ]))
        lines.insert(draw(st.integers(0, len(lines))), line)
    elif fault == "before qreg":
        lines.insert(draw(st.integers(0, 2)), draw(repeated))
    elif fault == "second qreg":
        at = draw(st.integers(3, len(lines)))
        lines[at:at] = [f"qreg q[{width}];", draw(repeated)]
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(_documents())
def test_a_parsed_line_reused_gives_what_the_line_at_a_time_parse_gives(text):
    outcome = _outcome(text)
    assert outcome == _outcome(_line_at_a_time(text))
    if isinstance(outcome[1], list):  # parsed, so no fault was planted
        body = [line for line in text.splitlines()[3:] if line and line != "// c"]
        records = {}
        for line, gate in zip(body, outcome[1], strict=True):
            records.setdefault(line, set()).add(id(gate))
        # a canonical line repeated gives one record; a hand-spaced line
        # (two leading spaces) is parsed afresh each time
        assert all(len(ids) == 1 for line, ids in records.items() if line[0] != " ")


def test_parsed_gates_share_one_record_per_distinct_line():
    text = to_qasm(build_isqrt_pipeline(8))
    gate_lines = text.splitlines()[3:]
    c = from_qasm(text)
    assert len(c.gates) == len(gate_lines)
    assert len({id(g) for g in c.gates}) == len(set(c.gates)) == len(set(gate_lines))
    assert len(set(gate_lines)) < len(gate_lines) // 2


def test_a_parsed_line_is_not_kept_past_its_call():
    wide = from_qasm(HEADER + "qreg q[8];\nx q[5];\n")
    with pytest.raises(QasmParseError, match="out of range for width 3") as err:
        from_qasm(HEADER + "qreg q[3];\nx q[5];\n")
    assert err.value.line == 4
    assert from_qasm(HEADER + "qreg q[8];\nx q[5];\n").gates[0] is not wide.gates[0]


def _rendered(c):
    """to_qasm written out gate by gate from the flat circuit."""
    lines = [*HEADER.splitlines(), f"qreg q[{c.width}];"]
    for g in flatten(c).gates:
        if g.kind is GateKind.ZCX:
            ops = [("x", g.qubits[:1]), ("cx", g.qubits), ("x", g.qubits[:1])]
        else:
            ops = [(g.kind.value, g.qubits)]
        lines += [f"{name} {','.join(f'q[{q}]' for q in qubits)};" for name, qubits in ops]
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 6).flatmap(primitive_circuits))
def test_to_qasm_writes_each_gate_as_the_reference_renders_it(c):
    assert to_qasm(c) == _rendered(c)


def test_to_qasm_repeats_a_rendered_gate_zcx_included():
    c = Circuit(3).zcx(2, 0).ccx(0, 1, 2).zcx(2, 0).t(1).ccx(0, 1, 2).zcx(0, 2)
    assert to_qasm(c) == _rendered(c)
    assert to_qasm(c).count("x q[2];\ncx q[2],q[0];\nx q[2];\n") == 2
