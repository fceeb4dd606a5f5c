"""The circuit families: each one's builder, register layout, oracle and check.

A family is a circuit generator whose claims the package checks: its
builder at width n, the T-count closed form it should meet, the qubits
of its input and output registers, and the integer oracle, written from
the arithmetic and not from the circuit, that `sweep` checks its cases
against. The closed forms, expected_t_count_*, live here beside the
entries that carry them. Adding a family is one `FAMILIES` entry.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Sequence

from .arithmetic import (
    _check_n,
    build_adder,
    build_ctrl_add_sub,
    build_ctrl_adder,
    build_subtractor,
)
from .circuit import Circuit
from .sim import _cached_program, _int_of_bits, _Program, _sweep
from .sqrt import _check_width, build_isqrt_circuit, build_isqrt_pipeline

if TYPE_CHECKING:
    # Annotations only: typing caches subscripted aliases, and a cached one
    # naming a class of this module would pin every re-imported copy of it.
    Fields = tuple[tuple[str, int, int], ...]
    # a bit-sliced column: an int whose bit k is one qubit in case k, or
    # any value with ^ and & on it and on 0 (the oracles use nothing else)
    Column = Any
    Oracle = Callable[[int, list, Column], tuple[list, list]]


@dataclass(frozen=True)
class CircuitFamily:
    """One selectable circuit generator with its layout facts and oracle.

    verify_build, when set, is the circuit actually swept by `verify`
    (the square root is verified through its readout pipeline).
    registers(n) gives the (name, lowest qubit, width) fields of the swept
    input and of the output; `verify` runs one case per value of the input
    fields and decodes both in a failure report. The output fields cover
    every qubit, so their extent is the circuit's width. oracle(n, cases,
    ones) works on bit-sliced columns, bit k of each column being one bit
    of case k: from the case_bits(n) columns of the case numbers and the
    lane mask `ones`, it gives the circuit's input columns (the case
    columns, then constant columns, each 0 or `ones`) and the output
    columns the circuit must produce, one per qubit. It uses only ^ and &,
    on the columns, `ones` and 0. Only the builders check n; even_only is
    the step of a `resources` width range.
    """

    build: Callable[[int], Circuit]
    even_only: bool
    expected_t_count: Callable[[int], int]
    oracle: Oracle
    registers: Callable[[int], tuple[Fields, Fields]]
    verify_build: Callable[[int], Circuit] | None = None

    def case_bits(self, n: int) -> int:
        """log2 of the case count, which can be too large to build or print."""
        return sum(width for _, _, width in self.registers(n)[0])

    def program(self, n: int) -> _Program:
        """The swept circuit, built and compiled on first use; the builder checks n."""
        return _cached_program(self.verify_build or self.build, n)

    def sweep(self, n: int, indices: Sequence[int]) -> tuple[int, tuple | None]:
        """How many of the cases numbered `indices` program(n) fails against
        the oracle, and the first failing case's input, expected and output
        basis states (None if every case passes)."""
        failed, first_failure = 0, None
        bits, oracle = self.case_bits(n), functools.partial(self.oracle, n)
        for _, columns, differ, _ in _sweep(self.program(n), indices, bits, oracle):
            if differ and first_failure is None:
                lane = (differ & -differ).bit_length() - 1
                first_failure = tuple(
                    _int_of_bits([col >> lane & 1 for col in cols]) for cols in columns
                )
            failed += differ.bit_count()
        return failed, first_failure


def _add(a: Sequence[Column], b: Sequence[Column]) -> list:
    """Ripple-carry a + b on columns, least significant first, mod 2^len(a)."""
    total, carry = [], 0
    for x, y in zip(a, b):
        s = x ^ y
        total.append(s ^ carry)
        carry = x ^ (s & (x ^ carry))  # majority(x, y, carry)
    return total


def _sub(
    a: Sequence[Column], b: Sequence[Column], ones: Column
) -> tuple[list, Column]:
    """Ripple-borrow a - b on columns, least significant first: the
    difference mod 2^len(a) and the borrow out, set where a < b."""
    difference, borrow = [], 0
    for x, y in zip(a, b):
        d = x ^ y
        difference.append(d ^ borrow)
        borrow = y ^ ((d ^ ones) & (y ^ borrow))  # majority(not x, y, borrow)
    return difference, borrow


def _mux(select: Column, x: Sequence[Column], y: Sequence[Column]) -> list:
    """x in the lanes where select is set, y elsewhere."""
    return [v ^ (select & (u ^ v)) for u, v in zip(x, y)]


def _two_operand(op: Callable[[list, list, Column], list]) -> Oracle:
    """Oracle of A <- op(A, B, ones) mod 2^n on qubits A = 0..n-1, B = n..2n-1."""

    def oracle(n: int, cases: list, ones: Column) -> tuple[list, list]:
        a, b = cases[:n], cases[n:]
        return list(cases), [*op(a, b, ones), *b]

    return oracle


def _controlled(op: Callable[[Column, list, list, Column], list]) -> Oracle:
    """Oracle of A <- op(z, A, B, ones) mod 2^n on z = 0, A = 1..n, B = n+1..2n."""

    def oracle(n: int, cases: list, ones: Column) -> tuple[list, list]:
        z, a, b = cases[0], cases[1:n + 1], cases[n + 1:]
        return list(cases), [z, *op(z, a, b, ones), *b]

    return oracle


def _isqrt_oracle(n: int, cases: list, ones: Column) -> tuple[list, list]:
    """Pipeline input (R = a, F = 1, z = 0) and output (R = rem, F = root).

    The restoring digit-by-digit square root of a: for each pair of a's
    bits from the top, rem becomes rem << 2 | pair, root << 2 | 1 is
    subtracted from it as a trial, and where no borrow occurs the
    difference is kept and the root's next bit is set.
    """
    a = [*cases, 0]  # a's top (sign) bit is clear
    # rem <= 2 root < 2^(len(root) + 1), so rem keeps len(root) + 1 bits
    rem: list = [0]
    root: list = []
    for i in range(n - 2, -1, -2):
        rem = [a[i], a[i + 1], *rem]
        difference, borrow = _sub(rem, [ones, 0, *root, 0], ones)
        keep = borrow ^ ones
        root = [keep, *root]
        rem = _mux(keep, difference, rem)[:-1]
    zeros = [0] * n
    return [*a, ones, *zeros], [*rem, *zeros[len(rem):], *root, *zeros[len(root):], 0]


def _two_operand_fields(n: int) -> tuple[Fields, Fields]:
    return (("a", 0, n), ("b", n, n)), (("result", 0, n), ("b", n, n))


def _controlled_fields(n: int) -> tuple[Fields, Fields]:
    z, b = ("z", 0, 1), ("b", n + 1, n)
    return (z, ("a", 1, n), b), (z, ("result", 1, n), b)


def _isqrt_fields(n: int) -> tuple[Fields, Fields]:
    # a's top (sign) bit stays clear, so n - 1 bits sweep the whole domain
    return (("a", 0, n - 1),), (("root", n, n), ("remainder", 0, n), ("z", 2 * n, 1))


def expected_t_count_isqrt(n: int) -> int:
    """Closed-form T-count of the full square root circuit: 7n²/2 + 21n - 28.

    Exact integer arithmetic; defined for even n >= 4.
    """
    n = _check_width(n)
    return (7 * n * n + 42 * n - 56) // 2


def expected_t_count_adder(n: int) -> int:
    """Closed-form T-count of the adder and subtractor: 14n - 14."""
    n = _check_n(n, 1, "adder")
    return 14 * n - 14


def expected_t_count_ctrl_adder(n: int) -> int:
    """Closed-form T-count of the controlled adder: 21n - 14."""
    n = _check_n(n, 2, "controlled adder")
    return 21 * n - 14


FAMILIES: dict[str, CircuitFamily] = {
    "adder": CircuitFamily(
        build_adder, False, expected_t_count_adder,
        _two_operand(lambda a, b, ones: _add(a, b)), _two_operand_fields,
    ),
    "subtractor": CircuitFamily(
        build_subtractor, False, expected_t_count_adder,
        _two_operand(lambda a, b, ones: _sub(a, b, ones)[0]), _two_operand_fields,
    ),
    "ctrl-add-sub": CircuitFamily(
        build_ctrl_add_sub, False, expected_t_count_adder,
        _controlled(
            lambda z, a, b, ones: _mux(z, _sub(a, b, ones)[0], _add(a, b))
        ),
        _controlled_fields,
    ),
    "ctrl-add": CircuitFamily(
        build_ctrl_adder, False, expected_t_count_ctrl_adder,
        _controlled(lambda z, a, b, ones: _mux(z, _add(a, b), a)),
        _controlled_fields,
    ),
    "isqrt": CircuitFamily(
        build_isqrt_circuit, True, expected_t_count_isqrt,
        _isqrt_oracle, _isqrt_fields, verify_build=build_isqrt_pipeline,
    ),
}
