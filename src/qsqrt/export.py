"""OpenQASM 2.0 serialization plus JSON/CSV report formatting.

Emitted documents use one quantum register and only the gates
{x, cx, ccx, swap, h, t, tdg}; ZCX has no qelib1 equivalent and is written
out as x/cx/x so any QASM toolchain can consume the file.
"""
from __future__ import annotations

import csv
import io
import json
import re

from .circuit import Circuit, Gate, GateKind
from .errors import CircuitError, QasmParseError
from .lowering import iter_primitive_ops

_QREG_RE = re.compile(r"qreg\s+([A-Za-z_][A-Za-z0-9_]*)\s*\[\s*(\d+)\s*\]\s*;")
# parameter lists are matched so rz(0.1) reports "unsupported gate", not a
# syntax error
_GATE_RE = re.compile(r"([a-z][a-z0-9_]*)\s*(?:\([^)]*\))?\s+(.+);")

_GATE_KINDS = {
    "x": GateKind.X,
    "cx": GateKind.CX,
    "ccx": GateKind.CCX,
    "swap": GateKind.SWAP,
    "h": GateKind.H,
    "t": GateKind.T,
    "tdg": GateKind.TDG,
}


def to_qasm(c: Circuit) -> str:
    """Emit the flattened circuit as deterministic OpenQASM 2.0 text."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{c.width}];"]
    for kind, qubits in iter_primitive_ops(c):
        if kind is GateKind.ZCX:
            cq, tq = qubits
            lines.append(f"x q[{cq}];")
            lines.append(f"cx q[{cq}],q[{tq}];")
            lines.append(f"x q[{cq}];")
        else:
            operands = ",".join(f"q[{q}]" for q in qubits)
            lines.append(f"{kind.value} {operands};")
    return "\n".join(lines) + "\n"


def from_qasm(text: str) -> Circuit:
    """Parse a document in the emitted subset back into a circuit.

    Accepts comments and blank lines; anything outside the emitted gate
    subset, a second qreg or malformed syntax raises QasmParseError with
    the offending line number.
    """
    circuit: Circuit | None = None
    reg_name = ""
    lineno = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].strip()
        if not line:
            continue
        if line.startswith("OPENQASM"):
            if line != "OPENQASM 2.0;":
                raise QasmParseError(f"unsupported version line: {line}", lineno)
            continue
        if line.startswith("include"):
            continue
        if line.startswith("qreg"):
            m = _QREG_RE.fullmatch(line)
            if not m:
                raise QasmParseError("malformed qreg declaration", lineno)
            if circuit is not None:
                raise QasmParseError("multiple qreg declarations", lineno)
            reg_name = m.group(1)
            try:
                circuit = Circuit(int(m.group(2)), reg_name)
            except CircuitError as exc:
                raise QasmParseError(str(exc), lineno) from exc
            continue
        m = _GATE_RE.fullmatch(line)
        if not m:
            raise QasmParseError(f"malformed statement: {line}", lineno)
        if circuit is None:
            raise QasmParseError("gate before qreg declaration", lineno)
        kind = _GATE_KINDS.get(m.group(1))
        if kind is None:
            raise QasmParseError(f"unsupported gate '{m.group(1)}'", lineno)
        qubits = []
        operand_re = re.compile(rf"{re.escape(reg_name)}\[(\d+)\]")
        for token in m.group(2).split(","):
            om = operand_re.fullmatch(token.strip())
            if not om:
                raise QasmParseError(f"malformed operand '{token.strip()}'", lineno)
            qubits.append(int(om.group(1)))
        try:
            circuit.append(Gate(kind, tuple(qubits)))
        except CircuitError as exc:
            raise QasmParseError(str(exc), lineno) from exc
    if circuit is None:
        raise QasmParseError("missing qreg declaration", lineno or 1)
    return circuit


def report_rows_to_json(rows: list[dict]) -> str:
    """Resource rows as JSON; histogram keys are gate-name strings."""
    return json.dumps(rows, indent=2) + "\n"


def report_rows_to_csv(rows: list[dict]) -> str:
    """Resource rows as CSV (histogram omitted)."""
    columns = ["n", "width", "t_count", "t_count_expected", "t_depth", "total_depth"]
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([row[c] for c in columns])
    return out.getvalue()
