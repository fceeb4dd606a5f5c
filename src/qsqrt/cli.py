"""Command line front end: isqrt, resources, verify and export.

It parses the arguments (integers are ASCII decimal), bounds the widths
and case counts it admits, renders the results and picks the exit code;
the circuit families it serves are `families.FAMILIES`.
Exit codes: 0 success, 1 verification failure, 2 usage or input error.
All output is deterministic for fixed flags; the elapsed-time line printed
by `verify` is suppressed with --no-timing.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import random
import re
import sys
import time
from typing import TYPE_CHECKING, Callable, Sequence

from . import __version__
from .analysis import analyze
from .errors import CapacityError, CircuitError, int_text
from .export import to_qasm
from .families import FAMILIES
from .sqrt import build_isqrt_circuit, isqrt, min_width

if TYPE_CHECKING:
    from .families import CircuitFamily, Fields

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2

#: Exhaustive verification is limited to 2^MAX_EXHAUSTIVE_BITS cases. The
#: widest sweeps it admits, isqrt n = 28 (2^27 cases) and adder n = 14,
#: take 4.2-4.7 s and 0.82-0.86 s on a 2-CPU Intel Xeon VM.
MAX_EXHAUSTIVE_BITS = 28
#: Widest n the command line builds a circuit for. Building and compiling
#: the isqrt pipeline grows as n^2: 1 s at n = 256 and 3.6 s at n = 512 on
#: the same VM. The library itself (`isqrt`, the builders) has no limit.
MAX_CLI_N = 256
SAMPLED_CASES = 100
_SAMPLE_SEED = 0

_DECIMAL = re.compile(r"-?[0-9]+")


def _decimal(text: str) -> int:
    """An integer argument: an optional '-', then ASCII digits, as from_qasm
    reads integers; int() would also take ' 7 ', '+7', '1_000' and '٣'."""
    try:
        if _DECIMAL.fullmatch(text):
            return int(text)  # ValueError past the interpreter's digit limit
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_n_range(spec: str, family: CircuitFamily) -> range:
    """The widths that "4" or "6..16" names; each build checks its own n."""
    lo_text, sep, hi_text = spec.partition("..")
    try:
        lo = _decimal(lo_text)
        hi = _decimal(hi_text) if sep else lo
    except argparse.ArgumentTypeError:
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


#: The report's columns in output order, as (row key, table heading). A row
#: holds them in this order, then its histogram; the table adds a match
#: column, and the CSV leaves out width_expected as well as the histogram.
_REPORT_COLUMNS = (
    ("n", "n"), ("width", "qubits"), ("width_expected", "qubits(E)"),
    ("t_count", "t_count"), ("t_count_expected", "t_count(E)"),
    ("t_depth", "t_depth"), ("total_depth", "total_depth"),
)
_CSV_KEYS = [key for key, _ in _REPORT_COLUMNS if key != "width_expected"]


def _resource_row(family: CircuitFamily, n: int) -> dict:
    report = analyze(family.build(n))
    values = {
        "n": n,
        "width": report.width,
        "width_expected": max(lo + w for _, lo, w in family.registers(n)[1]),
        "t_count": report.t_count,
        "t_count_expected": family.expected_t_count(n),
        "t_depth": report.t_depth,
        "total_depth": report.total_depth,
    }
    row = {key: values[key] for key, _ in _REPORT_COLUMNS}
    row["histogram"] = dict(sorted((k.value, c) for k, c in report.histogram.items()))
    return row


def _rows_to_table(name: str, rows: list[dict]) -> str:
    table = [[heading for _, heading in _REPORT_COLUMNS] + ["match"]]
    for r in rows:
        ok = (r["width"], r["t_count"]) == (r["width_expected"], r["t_count_expected"])
        cells = [str(r[key]) for key, _ in _REPORT_COLUMNS]
        table.append(cells + ["yes" if ok else "NO"])
    widths = [max(map(len, column)) for column in zip(*table)]
    lines = [f"circuit = {name} (t_depth is a scheduled upper bound)"]
    for row in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def _rows_to_csv(name: str, rows: list[dict]) -> str:
    out = io.StringIO()
    writer = csv.DictWriter(out, _CSV_KEYS, extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return out.getvalue()


#: `resources --format` choices: each renders (circuit name, rows) as text.
_REPORT_WRITERS: dict[str, Callable[[str, list[dict]], str]] = {
    "table": _rows_to_table,
    "json": lambda name, rows: json.dumps(rows, indent=2) + "\n",
    "csv": _rows_to_csv,
}


def cmd_resources(args: argparse.Namespace) -> int:
    family = FAMILIES[args.circuit]
    rows = [_resource_row(family, n) for n in _parse_n_range(args.n, family)]
    return _emit(_REPORT_WRITERS[args.format](args.circuit, rows), args.output)


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
    family.program(n)  # built or fetched here, so elapsed times the sweep alone
    indices: Sequence[int] = range(1 << bits)
    if args.sampled:
        rng = random.Random(_SAMPLE_SEED)
        indices = [rng.randrange(1 << bits) for _ in range(SAMPLED_CASES)]
    started = time.perf_counter()
    failed, first_failure = family.sweep(n, indices)
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
    # the gate statements written: every line after the two header lines
    # and the qreg, a ZCX's x/cx/x counted as three
    gate_total = text.count("\n") - 3
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
    p.add_argument("--value", type=_decimal, required=True, help="input value a")
    p.add_argument("--n", type=_decimal, help="register width (even, >= 4)")
    p.add_argument("--resources", action="store_true",
                   help="also print the circuit's resource metrics")
    p.set_defaults(func=cmd_isqrt)

    p = sub.add_parser("resources", help="resource table over a width range")
    p.add_argument("--circuit", choices=sorted(FAMILIES), required=True)
    p.add_argument("--n", required=True, metavar="N[..M]",
                   help="width or inclusive range, e.g. 4 or 6..16")
    p.add_argument("--format", choices=list(_REPORT_WRITERS), default="table")
    p.add_argument("-o", "--output", help="write to file instead of stdout")
    p.set_defaults(func=cmd_resources)

    p = sub.add_parser("verify", help="sweep a circuit against the integer oracle")
    p.add_argument("--circuit", choices=sorted(FAMILIES), required=True)
    p.add_argument("--n", type=_decimal, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true", default=True)
    mode.add_argument("--sampled", action="store_true",
                      help=f"check {SAMPLED_CASES} random cases instead")
    p.add_argument("--no-timing", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="emit a circuit as OpenQASM 2.0")
    p.add_argument("--circuit", choices=sorted(FAMILIES), required=True)
    p.add_argument("--n", type=_decimal, required=True)
    p.add_argument("-o", "--output", help="write to file instead of stdout")
    p.set_defaults(func=cmd_export)
    return parser


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser main reuses, and its commands' parsers by name.

    main parses a command's arguments with its parser alone. argparse's
    nested parse of `verify --circuit adder --n 7 --no-timing` takes 52 us,
    the command's parser 23 us, and main fell from 106 to 71 us (timeit,
    best of 7 x 2000, 2-CPU Intel Xeon VM).
    """
    parser = build_parser()
    return parser, next(a for a in parser._actions if a.dest == "command").choices


def main(argv: list[str] | None = None) -> int:
    parser, commands = _parser()
    if argv is None:
        argv = sys.argv[1:]
    command = commands.get(argv[0]) if argv else None
    if command is None:  # no command, or a top-level option: argparse reports it
        args = parser.parse_args(argv)
    else:
        args, extra = command.parse_known_args(argv[1:])
        if extra:  # word for word what the nested parse reports
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        return args.func(args)
    except (CircuitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
