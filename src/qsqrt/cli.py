"""Command line front end: isqrt, resources, verify and export.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
All output is deterministic for fixed flags; the elapsed-time line printed
by `verify` is suppressed with --no-timing.
"""
from __future__ import annotations

import argparse
import math
import operator
import random
import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from . import __version__
from .analysis import (
    analyze,
    count_ops,
    expected_t_count_adder,
    expected_t_count_ctrl_adder,
    expected_t_count_isqrt,
)
from .arithmetic import (
    build_adder,
    build_ctrl_add_sub,
    build_ctrl_adder,
    build_subtractor,
)
from .circuit import Circuit
from .errors import CapacityError, CircuitError
from .export import report_rows_to_csv, report_rows_to_json, to_qasm
from .sim import perm_run_many
from .sqrt import build_isqrt_circuit, build_isqrt_pipeline, isqrt, min_width

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

#: Exhaustive verification is limited to this many enumerated cases.
MAX_EXHAUSTIVE_CASES = 1 << 20
SAMPLED_CASES = 100
_SAMPLE_SEED = 0


if TYPE_CHECKING:
    # Annotations only: typing caches subscripted aliases, and a cached one
    # naming a class of this module would pin every re-imported copy of it.
    Fields = tuple[tuple[str, int, int], ...]
    Oracle = Callable[[int, np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class CircuitFamily:
    """One selectable circuit generator with its layout facts and oracle.

    verify_build, when set, is the circuit actually swept by `verify`
    (the square root is verified through its readout pipeline).
    registers(n) gives the (name, lowest qubit, width) fields of the swept
    input and of the output; `verify` runs one case per value of the input
    fields and decodes both in a failure report. oracle(n, ks) maps an
    array of case numbers to the input basis states and the output states
    the circuit must produce.
    """

    build: Callable[[int], Circuit]
    min_n: int
    even_only: bool
    width_of: Callable[[int], int]
    expected_t_count: Callable[[int], int]
    oracle: Oracle
    registers: Callable[[int], tuple[Fields, Fields]]
    verify_build: Callable[[int], Circuit] | None = None

    def verify_circuit(self, n: int) -> Circuit:
        return (self.verify_build or self.build)(n)

    def case_count(self, n: int) -> int:
        return 1 << sum(width for _, _, width in self.registers(n)[0])


def _two_operand(op: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> Oracle:
    """Oracle of A <- op(A, B) mod 2^n on qubits A = 0..n-1, B = n..2n-1."""

    def oracle(n: int, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mask = (1 << n) - 1
        a, b = ks & mask, ks >> n
        return ks, op(a, b) & mask | b << n

    return oracle


def _controlled(
    op: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]
) -> Oracle:
    """Oracle of A <- op(z, A, B) mod 2^n on z = 0, A = 1..n, B = n+1..2n."""

    def oracle(n: int, ks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mask = (1 << n) - 1
        z, a, b = ks & 1, ks >> 1 & mask, ks >> (n + 1)
        return ks, z | (op(z, a, b) & mask) << 1 | b << (n + 1)

    return oracle


_isqrt_each = np.frompyfunc(math.isqrt, 1, 1)


def _isqrt_oracle(n: int, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pipeline input (R = a, F = 1, z = 0) and output (R = rem, F = root)."""
    root = _isqrt_each(a)
    return a | 1 << n, (a - root * root) | root << n


def _two_operand_fields(n: int) -> tuple[Fields, Fields]:
    return (("a", 0, n), ("b", n, n)), (("result", 0, n), ("b", n, n))


def _controlled_fields(n: int) -> tuple[Fields, Fields]:
    z, b = ("z", 0, 1), ("b", n + 1, n)
    return (z, ("a", 1, n), b), (z, ("result", 1, n), b)


def _isqrt_fields(n: int) -> tuple[Fields, Fields]:
    # a's top (sign) bit stays clear, so n - 1 bits sweep the whole domain
    return (("a", 0, n - 1),), (("root", n, n), ("remainder", 0, n), ("z", 2 * n, 1))


FAMILIES: dict[str, CircuitFamily] = {
    "adder": CircuitFamily(
        build_adder, 1, False, lambda n: 2 * n, expected_t_count_adder,
        _two_operand(operator.add), _two_operand_fields,
    ),
    "subtractor": CircuitFamily(
        build_subtractor, 1, False, lambda n: 2 * n, expected_t_count_adder,
        _two_operand(operator.sub), _two_operand_fields,
    ),
    "ctrl-add-sub": CircuitFamily(
        build_ctrl_add_sub, 1, False, lambda n: 2 * n + 1, expected_t_count_adder,
        _controlled(lambda z, a, b: np.where(z, a - b, a + b)), _controlled_fields,
    ),
    "ctrl-add": CircuitFamily(
        build_ctrl_adder, 2, False, lambda n: 2 * n + 1, expected_t_count_ctrl_adder,
        _controlled(lambda z, a, b: np.where(z, a + b, a)), _controlled_fields,
    ),
    "isqrt": CircuitFamily(
        build_isqrt_circuit, 4, True, lambda n: 2 * n + 1, expected_t_count_isqrt,
        _isqrt_oracle, _isqrt_fields, verify_build=build_isqrt_pipeline,
    ),
}


def _parse_n_range(spec: str, family: CircuitFamily) -> list[int]:
    """Expand "4" or "6..16" into the list of widths to process."""
    lo_text, sep, hi_text = spec.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if sep else lo
    except ValueError:
        raise CircuitError(f"invalid width '{spec}': expected N or N..M") from None
    step = 2 if family.even_only else 1
    values = list(range(lo, hi + 1, step))
    for n in values:
        _check_family_n(family, n)
    if not values:
        raise CircuitError(f"empty width range '{spec}'")
    return values


def _check_family_n(family: CircuitFamily, n: int) -> None:
    if family.even_only and n % 2:
        raise CircuitError(f"n must be even, got {n}")
    if n < family.min_n:
        raise CircuitError(f"n must be >= {family.min_n}, got {n}")


# ---------------------------------------------------------------- isqrt


def cmd_isqrt(args: argparse.Namespace) -> int:
    value = args.value
    n = args.n
    if n is None:
        n = min_width(value)
        print(f"n = {n} (auto-selected: smallest even n >= 4 "
              f"with value <= 2^(n-1) - 1)")
    result = isqrt(value, n)
    print(f"a = {value}, root = {result.root}, remainder = {result.remainder}")
    if args.resources:
        report = analyze(build_isqrt_circuit(n))
        print(f"qubits = {report.width}")
        print(f"t_count = {report.t_count}")
        print(f"t_depth = {report.t_depth} (scheduled upper bound)")
        print(f"total_depth = {report.total_depth}")
    return EXIT_OK


# ------------------------------------------------------------ resources


def _resource_row(name: str, n: int) -> dict:
    family = FAMILIES[name]
    report = analyze(family.build(n))
    histogram = {
        kind.value: count
        for kind, count in sorted(report.histogram.items(), key=lambda kv: kv[0].value)
    }
    return {
        "n": n,
        "width": report.width,
        "width_expected": family.width_of(n),
        "t_count": report.t_count,
        "t_count_expected": family.expected_t_count(n),
        "t_depth": report.t_depth,
        "total_depth": report.total_depth,
        "histogram": histogram,
    }


def _rows_to_table(name: str, rows: list[dict]) -> str:
    headers = [
        "n", "qubits", "qubits(E)", "t_count", "t_count(E)",
        "t_depth", "total_depth", "match",
    ]
    lines = [f"circuit = {name} (t_depth is a scheduled upper bound)"]
    table = [headers]
    for r in rows:
        match = (
            r["width"] == r["width_expected"]
            and r["t_count"] == r["t_count_expected"]
        )
        table.append([
            str(r["n"]), str(r["width"]), str(r["width_expected"]),
            str(r["t_count"]), str(r["t_count_expected"]),
            str(r["t_depth"]), str(r["total_depth"]),
            "yes" if match else "NO",
        ])
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    for row in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def cmd_resources(args: argparse.Namespace) -> int:
    family = FAMILIES[args.circuit]
    values = _parse_n_range(args.n, family)
    rows = [_resource_row(args.circuit, n) for n in values]
    if args.format == "table":
        text = _rows_to_table(args.circuit, rows)
    elif args.format == "json":
        text = report_rows_to_json(rows)
    else:
        for row in rows:
            del row["histogram"], row["width_expected"]
        text = report_rows_to_csv(rows)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return EXIT_OK


# --------------------------------------------------------------- verify


def _decode(state: int, fields: Fields) -> str:
    return " ".join(
        f"{name}={state >> lo & ((1 << width) - 1)}" for name, lo, width in fields
    )


def cmd_verify(args: argparse.Namespace) -> int:
    family = FAMILIES[args.circuit]
    n = args.n
    _check_family_n(family, n)
    mode = "sampled" if args.sampled else "exhaustive"
    total = family.case_count(n)
    if mode == "exhaustive":
        if total > MAX_EXHAUSTIVE_CASES:
            raise CapacityError(
                f"{total} cases exceed the exhaustive limit "
                f"({MAX_EXHAUSTIVE_CASES}); use --sampled"
            )
        indices: Sequence[int] = range(total)
    else:
        rng = random.Random(_SAMPLE_SEED)
        indices = [rng.randrange(total) for _ in range(SAMPLED_CASES)]
    circuit = family.verify_circuit(n)
    started = time.perf_counter()
    # int64 lanes while every state fits, Python ints (dtype=object) beyond
    dtype = np.int64 if circuit.width < 63 else object
    cases = np.fromiter(indices, dtype=dtype, count=len(indices))
    states, expected = family.oracle(n, cases)
    outputs = np.array(perm_run_many(circuit, states.tolist()), dtype=expected.dtype)
    failures = np.flatnonzero(outputs != expected)
    elapsed = time.perf_counter() - started
    checked = len(outputs)
    print(f"verify {args.circuit} n={n} mode={mode}")
    print(f"checked {checked} cases, {checked - len(failures)} passed")
    if not args.no_timing:
        print(f"elapsed {elapsed:.3f}s")
    if len(failures):
        i = failures[0]
        state, want, got = int(states[i]), int(expected[i]), int(outputs[i])
        in_fields, out_fields = family.registers(n)
        print(
            f"FAIL: {len(failures)} of {checked} cases failed; first failure:\n"
            f"  input     {_decode(state, in_fields)}\n"
            f"  expected  {_decode(want, out_fields)}\n"
            f"  actual    {_decode(got, out_fields)}\n"
            f"  basis states: input={state} expected={want} actual={got}",
            file=sys.stderr,
        )
        return EXIT_VERIFY_FAILED
    return EXIT_OK


# --------------------------------------------------------------- export


def cmd_export(args: argparse.Namespace) -> int:
    family = FAMILIES[args.circuit]
    _check_family_n(family, args.n)
    circuit = family.build(args.n)
    text = to_qasm(circuit)
    gate_total = sum(count_ops(circuit).values())
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output} ({gate_total} gates)")
    else:
        print(text, end="")
    return EXIT_OK


# ----------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsqrt",
        description="Build, simulate, verify and cost the non-restoring "
        "quantum integer square root circuit and its arithmetic blocks.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("isqrt", help="compute a root/remainder by simulation")
    p.add_argument("--value", type=int, required=True, help="input value a")
    p.add_argument("--n", type=int, help="register width (even, >= 4)")
    p.add_argument("--resources", action="store_true",
                   help="also print the circuit's resource metrics")
    p.set_defaults(func=cmd_isqrt)

    p = sub.add_parser("resources", help="resource table over a width range")
    p.add_argument("--circuit", choices=sorted(FAMILIES), required=True)
    p.add_argument("--n", required=True, metavar="N[..M]",
                   help="width or inclusive range, e.g. 4 or 6..16")
    p.add_argument("--format", choices=["table", "json", "csv"], default="table")
    p.add_argument("-o", "--output", help="write to file instead of stdout")
    p.set_defaults(func=cmd_resources)

    p = sub.add_parser("verify", help="sweep a circuit against the integer oracle")
    p.add_argument("--circuit", choices=sorted(FAMILIES), required=True)
    p.add_argument("--n", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", default=True)
    mode.add_argument("--sampled", action="store_true",
                      help=f"check {SAMPLED_CASES} random cases instead")
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="emit a circuit as OpenQASM 2.0")
    p.add_argument("--circuit", choices=sorted(FAMILIES), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("-o", "--output", help="write to file instead of stdout")
    p.set_defaults(func=cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CircuitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
