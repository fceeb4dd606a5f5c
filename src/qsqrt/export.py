"""OpenQASM 2.0 serialization: to_qasm and from_qasm.

Emitted documents use one quantum register and only the gates
{x, cx, ccx, swap, h, t, tdg}; ZCX has no qelib1 equivalent and is written
out as x/cx/x so any QASM toolchain can consume the file. from_qasm reads
a gate line in the exact form to_qasm writes with one regex and keeps it
if its operands pass Circuit.append's early test, circuit._fits; every
other line goes through the general parser, the one place a
QasmParseError is worded. Each call keeps a dict so that a repeated line
or op costs one lookup: from_qasm maps each line that regex accepted to
its Gate, which a repeat of the line appends again, and to_qasm maps each
walked op to its text. Digits and spaces are ASCII only, in the patterns
and where a line or an operand is stripped.
"""
from __future__ import annotations

import re

from .circuit import PRIMITIVE_ARITY, Circuit, Gate, GateKind, _fits, iter_primitive_ops
from .errors import CircuitError, QasmParseError

_HEADER = ("OPENQASM 2.0;", 'include "qelib1.inc";')
_QREG_RE = re.compile(
    r"qreg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]\s*;", re.ASCII
)
# a parameter list is matched so rz(0.1) reports "unsupported gate", not a
# syntax error, and x(0.1) reports that x takes none
_GATE_RE = re.compile(r"([a-z][a-z0-9_]*)\s*(\([^)]*\))?\s+(.+);", re.ASCII)
# what \s matches in those patterns, and all that is stripped around a
# statement or an operand
_SPACE = " \t\n\r\f\v"

# a gate's QASM name is its kind's value, as to_qasm writes it
_GATE_KINDS = {kind.value: kind for kind in PRIMITIVE_ARITY if kind is not GateKind.ZCX}
_PREFIX = {kind: f"{name} " for name, kind in _GATE_KINDS.items()}


def to_qasm(c: Circuit) -> str:
    """Emit the flattened circuit as deterministic OpenQASM 2.0 text."""
    lines = [*_HEADER, f"qreg q[{c.width}];"]
    ref = [f"q[{q}]" for q in range(c.width)]
    rendered: dict[tuple[GateKind, tuple[int, ...]], str] = {}  # op -> its text
    get = rendered.get
    for op in iter_primitive_ops(c):
        text = get(op)
        if text is None:
            kind, qubits = op
            if kind is GateKind.ZCX:
                cq, tq = qubits
                flip = f"x {ref[cq]};"
                text = f"{flip}\ncx {ref[cq]},{ref[tq]};\n{flip}"
            else:
                text = _PREFIX[kind] + ",".join([ref[q] for q in qubits]) + ";"
            rendered[op] = text
        lines.append(text)
    return "\n".join(lines) + "\n"


def from_qasm(text: str) -> Circuit:
    """Parse a document in the emitted subset back into a circuit.

    Accepts comments and blank lines; anything outside the emitted gate
    subset, a second qreg or malformed syntax raises QasmParseError with
    the offending line number.
    """
    circuit: Circuit | None = None
    operand_re = None  # compiled once the qreg line names the register
    canonical = None  # to_qasm's gate line, matched once the register is named
    # raw line -> its Gate, for each line the canonical route accepted; that
    # route opens only after the one qreg, so such a line is accepted
    # wherever it repeats
    accepted: dict[str, Gate] = {}
    known = accepted.get
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        gate = known(raw)
        if gate is not None:
            gates.append(gate)
            continue
        if canonical is not None and (m := canonical(raw)):
            kind = _GATE_KINDS.get(m[1])
            qubits = tuple(map(int, m.groups()[1:m.lastindex]))
            if kind is not None and _fits(qubits, PRIMITIVE_ARITY[kind], width):
                gate = accepted[raw] = Gate(kind, qubits)
                gates.append(gate)
                continue
            # otherwise the general parse below words the error
        line = raw.split("//", 1)[0].strip(_SPACE)
        if not line:
            continue
        if line.startswith(("OPENQASM", "include")):
            if line not in _HEADER:
                raise QasmParseError(f"unsupported header line: {line}", lineno)
            continue
        if line.startswith("qreg"):
            m = _QREG_RE.fullmatch(line)
            if not m:
                raise QasmParseError("malformed qreg declaration", lineno)
            if circuit is not None:
                raise QasmParseError("multiple qreg declarations", lineno)
            reg_name = m.group(1)
            try:
                circuit = Circuit(_decimal(m.group(2), "qreg size", lineno), reg_name)
            except CircuitError as exc:
                raise QasmParseError(str(exc), lineno) from exc
            reg = re.escape(reg_name)
            operand_re = re.compile(rf"{reg}\[(\d+)\]", re.ASCII)
            index = rf"{reg}\[(\d{{1,9}})\]"
            canonical = re.compile(
                rf"([a-z]+) {index}(?:,{index}(?:,{index})?)?;", re.ASCII
            ).fullmatch
            gates, width = circuit.gates, circuit.width
            continue
        m = _GATE_RE.fullmatch(line)
        if not m:
            raise QasmParseError(f"malformed statement: {line}", lineno)
        if circuit is None:
            raise QasmParseError("gate before qreg declaration", lineno)
        kind = _GATE_KINDS.get(m.group(1))
        if kind is None:
            raise QasmParseError(f"unsupported gate '{m.group(1)}'", lineno)
        if m.group(2) is not None:
            raise QasmParseError(f"gate '{m.group(1)}' takes no parameters", lineno)
        qubits = []
        for token in m.group(3).split(","):
            operand = token.strip(_SPACE)
            om = operand_re.fullmatch(operand)
            if not om:
                raise QasmParseError(f"malformed operand '{operand}'", lineno)
            qubits.append(_decimal(om.group(1), "operand index", lineno))
        try:
            circuit.append(Gate(kind, tuple(qubits)))
        except CircuitError as exc:
            raise QasmParseError(str(exc), lineno) from exc
    if circuit is None:
        raise QasmParseError("missing qreg declaration", lineno or 1)
    return circuit


def _decimal(digits: str, what: str, lineno: int) -> int:
    """int(digits), or QasmParseError past Python's int-string digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise QasmParseError(
            f"{what} of {len(digits)} digits is too large", lineno
        ) from None

