"""Command line front end: isqrt, resources, verify and export.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
All output is deterministic for fixed flags; the elapsed-time line printed
by `verify` is suppressed with --no-timing.
"""
from __future__ import annotations

import argparse
import functools
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
from .errors import CapacityError, CircuitError, int_text
from .export import report_rows_to_csv, report_rows_to_json, to_qasm
from .sim import _cached_program, _lane_dtype, _run
from .sqrt import build_isqrt_circuit, build_isqrt_pipeline, isqrt, min_width

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

#: Exhaustive verification is limited to 2^MAX_EXHAUSTIVE_BITS cases. The
#: widest sweeps it admits, isqrt n = 28 (2^27 cases) and adder n = 14,
#: took 15 s and 12 s on a 2-CPU Intel Xeon VM; isqrt n = 30 took 58 s.
MAX_EXHAUSTIVE_BITS = 28
#: Widest n the command line builds a circuit for. Building and compiling
#: the isqrt pipeline grows as n^2: 1 s at n = 256 and 3.6 s at n = 512 on
#: the same VM. The library itself (`isqrt`, the builders) has no limit.
MAX_CLI_N = 256
SAMPLED_CASES = 100
#: A sweep runs through the kernel this many cases at a time, so its memory
#: stays bounded whatever the case count.
VERIFY_BATCH = 1 << 16
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
    fields and decodes both in a failure report. The output fields cover
    every qubit, so their extent is the circuit's width. oracle(n, ks) maps
    an array of case numbers to the input basis states and the output
    states the circuit must produce. Only the builders check n; even_only
    is the step of a `resources` width range.
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
    if a.dtype == object:
        root = _isqrt_each(a)
    else:
        # the float root of a < 2^62 is within one of isqrt(a): fix it up
        root = np.sqrt(a).astype(a.dtype)
        root -= root * root > a
        root += (root + 1) * (root + 1) <= a
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
        build_adder, False, expected_t_count_adder,
        _two_operand(operator.add), _two_operand_fields,
    ),
    "subtractor": CircuitFamily(
        build_subtractor, False, expected_t_count_adder,
        _two_operand(operator.sub), _two_operand_fields,
    ),
    "ctrl-add-sub": CircuitFamily(
        build_ctrl_add_sub, False, expected_t_count_adder,
        _controlled(lambda z, a, b: np.where(z, a - b, a + b)), _controlled_fields,
    ),
    "ctrl-add": CircuitFamily(
        build_ctrl_adder, False, expected_t_count_ctrl_adder,
        _controlled(lambda z, a, b: np.where(z, a + b, a)), _controlled_fields,
    ),
    "isqrt": CircuitFamily(
        build_isqrt_circuit, True, expected_t_count_isqrt,
        _isqrt_oracle, _isqrt_fields, verify_build=build_isqrt_pipeline,
    ),
}


def _parse_n_range(spec: str, family: CircuitFamily) -> range:
    """The widths that "4" or "6..16" names; each build checks its own n."""
    lo_text, sep, hi_text = spec.partition("..")
    try:
        lo = int(lo_text)
        hi = int(hi_text) if sep else lo
    except ValueError:
        raise CircuitError(f"invalid width '{spec}': expected N or N..M") from None
    _check_cli_n(hi)
    if lo > hi:
        raise CircuitError(f"empty width range '{spec}'")
    return range(lo, hi + 1, 2 if family.even_only else 1)


def _check_cli_n(n: int) -> None:
    """Fail fast on a width the command line will not build."""
    if n > MAX_CLI_N:
        raise CapacityError(
            f"n = {int_text(n)} exceeds the command-line limit of {MAX_CLI_N}"
        )


def _emit(text: str, output: str | None, note: str = "") -> int:
    """Write `text` to the -o file and name it, or print it if none is given."""
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {output}{note}")
    else:
        print(text, end="")
    return EXIT_OK


# ---------------------------------------------------------------- isqrt


def cmd_isqrt(args: argparse.Namespace) -> int:
    value = args.value
    n = min_width(value) if args.n is None else args.n
    _check_cli_n(n)
    if args.n is None:
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
        "width_expected": max(lo + w for _, lo, w in family.registers(n)[1]),
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
        text = report_rows_to_csv(rows)
    return _emit(text, args.output)


# --------------------------------------------------------------- verify


def _decode(state: int, fields: Fields) -> str:
    return " ".join(
        f"{name}={state >> lo & ((1 << width) - 1)}" for name, lo, width in fields
    )


def cmd_verify(args: argparse.Namespace) -> int:
    family = FAMILIES[args.circuit]
    n = args.n
    mode = "sampled" if args.sampled else "exhaustive"
    bits = family.case_bits(n)
    if mode == "sampled":
        _check_cli_n(n)
    elif bits > MAX_EXHAUSTIVE_BITS:
        raise CapacityError(
            f"2^{int_text(bits)} cases exceed the exhaustive limit "
            f"(2^{MAX_EXHAUSTIVE_BITS}); use --sampled"
        )
    # the builder checks n, so the sweep below is sized for a valid width
    program = _cached_program(family.verify_build or family.build, n)
    exhaustive = mode == "exhaustive"
    if exhaustive:
        indices: Sequence[int] = range(1 << bits)
    else:
        rng = random.Random(_SAMPLE_SEED)
        indices = [rng.randrange(1 << bits) for _ in range(SAMPLED_CASES)]
    dtype = _lane_dtype(program[0])
    started = time.perf_counter()
    failed = 0
    first_failure: tuple[int, int, int] | None = None
    for lo in range(0, len(indices), VERIFY_BATCH):
        batch = indices[lo:lo + VERIFY_BATCH]
        if exhaustive:
            cases = np.arange(lo, lo + len(batch), dtype=dtype)
        else:
            cases = np.array(batch, dtype)
        states, expected = family.oracle(n, cases)
        # case k's input is k | input(0): an exhaustive batch's states are a
        # run, which the kernel reads straight from the counter
        run = range(int(states[0]), int(states[-1]) + 1) if exhaustive else states
        outputs = _run(program, run)
        failures = np.flatnonzero(outputs != expected)
        if len(failures) and first_failure is None:
            i = failures[0]
            first_failure = int(states[i]), int(expected[i]), int(outputs[i])
        failed += len(failures)
    elapsed = time.perf_counter() - started
    checked = len(indices)
    print(f"verify {args.circuit} n={n} mode={mode}")
    print(f"checked {checked} cases, {checked - failed} passed")
    if not args.no_timing:
        print(f"elapsed {elapsed:.3f}s")
    if first_failure is not None:
        state, want, got = first_failure
        in_fields, out_fields = family.registers(n)
        print(
            f"FAIL: {failed} of {checked} cases failed; first failure:\n"
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
    _check_cli_n(args.n)
    circuit = family.build(args.n)
    text = to_qasm(circuit)
    gate_total = sum(count_ops(circuit).values())
    return _emit(text, args.output, f" ({gate_total} gates)")


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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main reuses: building one costs about ten parses."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (CircuitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
