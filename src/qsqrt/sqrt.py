"""Non-restoring integer square root: circuit stages and end-to-end runner.

The algorithm works on an n-qubit input register R (n even, n >= 4), an
n-qubit working register F initialized to 1 and one ancilla z initialized
to 0. Circuit layout is qubits 0..n-1 = R, n..2n-1 = F, 2n = z. After the
three stages plus the final shift, F holds floor(sqrt(a)) and R holds the
remainder a - root**2, with z restored to 0.
"""
from __future__ import annotations

from typing import NamedTuple

from .arithmetic import build_ctrl_add_sub, build_ctrl_adder
from .circuit import Circuit
from .errors import InputRangeError, InvalidWidthError
from .sim import perm_run


class SqrtResult(NamedTuple):
    """Root and remainder of an integer square root."""

    root: int
    remainder: int


def _check_width(n: int) -> None:
    if n < 4 or n % 2:
        raise InvalidWidthError(
            f"square root circuits need even n >= 4, got {n}"
        )


def _layout(n: int) -> tuple[list[int], list[int], int]:
    return list(range(n)), list(range(n, 2 * n)), 2 * n


def build_part1(n: int) -> Circuit:
    """Stage 1, initial subtraction: runs once, 6 steps.

    Handles the two most significant input bits and establishes the first
    partial remainder with a 4-bit conditional add/sub.
    """
    _check_width(n)
    qc = Circuit(2 * n + 1, "PART 1")
    R, F, z = _layout(n)
    # Step 1
    qc.x(R[n - 2])
    # Step 2
    qc.cx(R[n - 2], R[n - 1])
    # Step 3
    qc.cx(R[n - 1], F[1])
    # Step 4
    qc.zcx(R[n - 1], z)
    # Step 5
    qc.zcx(R[n - 1], F[2])
    # Step 6
    qc.append_composite(
        "CTRL ADD/SUB",
        build_ctrl_add_sub(4),
        [z, R[n - 4], R[n - 3], R[n - 2], R[n - 1], F[0], F[1], F[2], F[3]],
    )
    return qc


def build_part2(n: int) -> Circuit:
    """Stage 2, conditional add/subtract: n/2 - 2 iterations, 7 steps each.

    Iteration i (2 <= i < n/2) consumes the next input bit pair, shifts the
    partial root inside F and applies a conditional add/sub over a widening
    slice of R and F (register width 2i + 2). Empty for n = 4.
    """
    _check_width(n)
    qc = Circuit(2 * n + 1, "PART 2")
    R, F, z = _layout(n)
    for i in range(2, n // 2):
        # Step 1
        qc.zcx(z, F[1])
        # Step 2
        qc.cx(F[2], z)
        # Step 3
        qc.cx(R[n - 1], F[1])
        # Step 4
        qc.zcx(R[n - 1], z)
        # Step 5
        qc.zcx(R[n - 1], F[i + 1])
        # Step 6
        for j in range(i + 1, 2, -1):
            qc.swap(F[j], F[j - 1])
        # Step 7
        r_ops = [R[j] for j in range(n - 2 * i - 2, n)]
        f_ops = [F[j] for j in range(0, 2 * i + 2)]
        qc.append_composite(
            "CTRL ADD/SUB",
            build_ctrl_add_sub(len(r_ops)),
            [z] + r_ops + f_ops,
        )
    return qc


def build_part3(n: int) -> Circuit:
    """Stage 3, remainder restoration: runs once, 9 steps.

    Adds F back onto R when the last operation left a negative partial
    remainder, finishes the root shift inside F and uncomputes z.
    """
    _check_width(n)
    qc = Circuit(2 * n + 1, "PART 3")
    R, F, z = _layout(n)
    # Step 1
    qc.zcx(z, F[1])
    # Step 2
    qc.cx(F[2], z)
    # Step 3
    qc.zcx(R[n - 1], z)
    # Step 4
    qc.zcx(R[n - 1], F[n // 2 + 1])
    # Step 5
    qc.x(z)
    # Step 6
    qc.append_composite("CTRL ADD", build_ctrl_adder(n), [z] + R + F)
    # Step 7
    qc.x(z)
    # Step 8
    for j in range(n // 2 + 1, 2, -1):
        qc.swap(F[j], F[j - 1])
    # Step 9
    qc.cx(F[2], z)
    return qc


def build_isqrt_circuit(n: int) -> Circuit:
    """The full (2n+1)-qubit "ISQRT" circuit: stages 1, 2 and 3 in order.

    After this circuit the root sits in F[n/2+1]..F[2]; use
    build_isqrt_pipeline for the shifted, directly readable layout.
    """
    _check_width(n)
    qc = Circuit(2 * n + 1, "ISQRT")
    everything = list(range(2 * n + 1))
    qc.append_composite("PART 1", build_part1(n), everything)
    qc.append_composite("PART 2", build_part2(n), everything)
    qc.append_composite("PART 3", build_part3(n), everything)
    return qc


def build_isqrt_pipeline(n: int) -> Circuit:
    """ISQRT plus the final readout shift, one reversible circuit.

    Appends X(F[0]) and the ascending SWAP cascade F[i] <-> F[i-2] for
    i = 2 .. n/2+1, after which F reads as the root and R as the remainder.
    """
    _check_width(n)
    qc = Circuit(2 * n + 1, "ISQRT PIPELINE")
    _, F, _ = _layout(n)
    qc.append_composite("ISQRT", build_isqrt_circuit(n), list(range(2 * n + 1)))
    qc.x(F[0])
    for i in range(2, n // 2 + 2):
        qc.swap(F[i], F[i - 2])
    return qc


def min_width(a: int) -> int:
    """Smallest even register width n >= 4 with a <= 2**(n-1) - 1.

    The input must fit as a positive value of an n-bit two's-complement
    register, which costs one sign bit on top of a's bit length.
    """
    if a < 0:
        raise InputRangeError(f"input must be non-negative, got {a}")
    n = max(4, a.bit_length() + 1)
    return n + (n % 2)


def isqrt(a: int, n: int | None = None) -> SqrtResult:
    """Integer square root by simulating the full reversible pipeline.

    Runs the (2n+1)-qubit circuit on the basis state (R = a, F = 1, z = 0)
    and decodes F as the root and R as the remainder.

    Parameters
    ----------
    a : int
        Input value, 0 <= a <= 2**(n-1) - 1. Results are exact on the
        whole range, a = 0 included.
    n : int, optional
        Even register width >= 4; chosen by min_width(a) when omitted.

    Returns
    -------
    SqrtResult
        (floor(sqrt(a)), a - floor(sqrt(a))**2).
    """
    if a < 0:
        raise InputRangeError(f"input must be non-negative, got {a}")
    if n is None:
        n = min_width(a)
    _check_width(n)
    if a > (1 << (n - 1)) - 1:
        raise InputRangeError(
            f"input {a} does not fit signed width {n} "
            f"(max {(1 << (n - 1)) - 1})"
        )
    out = perm_run(build_isqrt_pipeline(n), a | (1 << n))
    mask = (1 << n) - 1
    return SqrtResult(root=(out >> n) & mask, remainder=out & mask)
