"""Reversible adder, subtractor and controlled add/sub circuit generators.

All registers are little endian: list position 0 is the least significant
bit. Results always land in the A register while B is preserved, and the
arithmetic wraps modulo 2**n because the adders carry no overflow qubit.
"""
from __future__ import annotations

from .circuit import Circuit, _integer_width
from .errors import InvalidWidthError, int_text


def _check_n(n: int, least: int, what: str) -> int:
    """`n` as an int, if it is an integer >= `least`."""
    n = _integer_width(n, what)
    if n < least:
        raise InvalidWidthError(
            f"n must be >= {least} for the {what}, got {int_text(n)}"
        )
    return n


def peres_circuit() -> Circuit:
    """Three-qubit block mapping (a, b, c) to (a, a xor b, a.b xor c).

    A Toffoli followed by a CNOT; it inherits the Toffoli's T-count of 7.
    """
    qc = Circuit(3, "PERES")
    qc.ccx(0, 1, 2)
    qc.cx(0, 1)
    return qc


def build_adder(n: int) -> Circuit:
    """Ripple-carry adder on 2n qubits: A <- (A + B) mod 2**n.

    Qubits 0..n-1 hold A (LSB first) and n..2n-1 hold B. No ancilla, no
    garbage; B is unchanged on output. T-count of the lowered circuit is
    14n - 14.

    Parameters
    ----------
    n : int
        Register width, at least 1.

    Returns
    -------
    Circuit
        The 2n-qubit "ADD" circuit.
    """
    n = _check_n(n, 1, "adder")
    qc = Circuit(2 * n, "ADD")
    A = list(range(n))
    B = list(range(n, 2 * n))
    peres = peres_circuit()
    # Step 1
    for i in range(1, n):
        qc.cx(B[i], A[i])
    # Step 2
    for i in range(n - 2, 0, -1):
        qc.cx(B[i], B[i + 1])
    # Step 3
    for i in range(0, n - 1):
        qc.ccx(B[i], A[i], B[i + 1])
    # Step 4: the top bit has no carry out, so a plain CX replaces the Peres block
    for i in range(n - 1, -1, -1):
        if i == n - 1:
            qc.cx(B[i], A[i])
        else:
            qc.append_composite("PERES", peres, [B[i], A[i], B[i + 1]])
    # Step 5
    for i in range(1, n - 1):
        qc.cx(B[i], B[i + 1])
    # Step 6
    for i in range(1, n):
        qc.cx(B[i], A[i])
    return qc


def build_subtractor(n: int) -> Circuit:
    """Subtractor on 2n qubits: A <- (A - B) mod 2**n.

    Uses a - b = not(not(a) + b): invert A, add B, invert A again. Adds no
    T gates beyond the adder's 14n - 14.
    """
    n = _check_n(n, 1, "subtractor")
    qc = Circuit(2 * n, "SUB")
    for i in range(n):
        qc.x(i)
    qc.append_composite("ADD", build_adder(n), list(range(2 * n)))
    for i in range(n):
        qc.x(i)
    return qc


def build_ctrl_add_sub(n: int) -> Circuit:
    """Add/subtract on 2n+1 qubits steered by a sign qubit.

    Qubit 0 is the control z, 1..n hold A (LSB first), n+1..2n hold B.
    z = 0 computes A <- (A + B) mod 2**n, z = 1 computes
    A <- (A - B) mod 2**n; B and z are unchanged either way. The adder
    always runs; z merely conjugates A with CX gates, flipping the sign of
    the first argument.
    """
    n = _check_n(n, 1, "controlled add/sub")
    qc = Circuit(2 * n + 1, "CTRL ADD/SUB")
    z = 0
    A = list(range(1, n + 1))
    B = list(range(n + 1, 2 * n + 1))
    for i in A:
        qc.cx(z, i)
    qc.append_composite("ADD", build_adder(n), A + B)
    for i in A:
        qc.cx(z, i)
    return qc


def build_ctrl_adder(n: int) -> Circuit:
    """Controlled adder on 2n+1 qubits: z = 1 computes A <- (A + B) mod 2**n.

    Qubit 0 is the control z, 1..n hold A (LSB first), n+1..2n hold B.
    With z = 0 every register is left unchanged; B and z are always
    preserved. Uses 3n - 2 Toffoli gates for a lowered T-count of 21n - 14.

    Parameters
    ----------
    n : int
        Register width, at least 2 (the carry chain needs n-1 >= 1).

    Returns
    -------
    Circuit
        The (2n+1)-qubit "CTRL ADD" circuit.
    """
    n = _check_n(n, 2, "controlled adder")
    qc = Circuit(2 * n + 1, "CTRL ADD")
    z = 0
    A = list(range(1, n + 1))
    B = list(range(n + 1, 2 * n + 1))
    # Step 1
    for i in range(1, n):
        qc.cx(B[i], A[i])
    # Step 2
    for i in range(n - 2, 0, -1):
        qc.cx(B[i], B[i + 1])
    # Step 3
    for i in range(0, n - 1):
        qc.ccx(A[i], B[i], B[i + 1])
    # Step 4
    qc.ccx(z, B[n - 1], A[n - 1])
    # Step 5
    for i in range(n - 2, -1, -1):
        qc.ccx(A[i], B[i], B[i + 1])
        qc.ccx(z, B[i], A[i])
    # Step 6
    for i in range(1, n - 1):
        qc.cx(B[i], B[i + 1])
    # Step 7
    for i in range(1, n):
        qc.cx(B[i], A[i])
    return qc
