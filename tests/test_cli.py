import argparse
import dataclasses
import json
import math
import operator
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsqrt.cli as cli
from qsqrt import Circuit, count_ops, flatten, from_qasm, isqrt, perm_run, sim
from qsqrt.arithmetic import build_adder
from qsqrt.cli import main
from qsqrt.errors import InvalidWidthError
from qsqrt.sim import _cached_program, _columns
from strategies import family_widths


def test_isqrt_command_exact_output(capsys):
    assert main(["isqrt", "--value", "9", "--n", "6"]) == 0
    assert capsys.readouterr().out == "a = 9, root = 3, remainder = 0\n"


def test_isqrt_command_more_anchors(capsys):
    assert main(["isqrt", "--value", "15", "--n", "6"]) == 0
    assert capsys.readouterr().out == "a = 15, root = 3, remainder = 6\n"
    assert main(["isqrt", "--value", "16", "--n", "6"]) == 0
    assert capsys.readouterr().out == "a = 16, root = 4, remainder = 0\n"


def test_isqrt_auto_width(capsys):
    assert main(["isqrt", "--value", "100"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("n = 8 (auto-selected")
    assert "a = 100, root = 10, remainder = 0" in out


def test_isqrt_out_of_range_value(capsys):
    assert main(["isqrt", "--value", "32", "--n", "6"]) == 2
    assert "error" in capsys.readouterr().err


def test_isqrt_resources_flag(capsys):
    assert main(["isqrt", "--value", "9", "--n", "6", "--resources"]) == 0
    out = capsys.readouterr().out
    assert "qubits = 13" in out
    assert "t_count = 224" in out


def test_resources_csv_matches_published_table(capsys):
    assert (
        main(["resources", "--circuit", "isqrt", "--n", "6..16", "--format", "csv"])
        == 0
    )
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,width,t_count,t_count_expected,t_depth,total_depth"
    rows = [line.split(",")[:3] for line in lines[1:]]
    assert rows == [
        ["6", "13", "224"],
        ["8", "17", "364"],
        ["10", "21", "532"],
        ["12", "25", "728"],
        ["14", "29", "952"],
        ["16", "33", "1204"],
    ]


def test_resources_adder_and_ctrl_add(capsys):
    assert main(["resources", "--circuit", "adder", "--n", "4", "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines()[1].split(",")[2] == "42"
    assert (
        main(["resources", "--circuit", "ctrl-add", "--n", "4", "--format", "csv"])
        == 0
    )
    assert capsys.readouterr().out.splitlines()[1].split(",")[2] == "70"


def test_resources_rejects_odd_isqrt_width(capsys):
    assert main(["resources", "--circuit", "isqrt", "--n", "7"]) == 2
    assert "even" in capsys.readouterr().err


def test_resources_table_has_match_column(capsys):
    assert main(["resources", "--circuit", "isqrt", "--n", "6"]) == 0
    out = capsys.readouterr().out
    assert "match" in out
    assert "yes" in out
    assert "NO" not in out


def test_resources_json_carries_histogram(capsys):
    assert (
        main(["resources", "--circuit", "isqrt", "--n", "6", "--format", "json"]) == 0
    )
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["n"] == 6
    assert rows[0]["histogram"]["t"] + rows[0]["histogram"]["tdg"] == 224


def test_resources_output_is_deterministic(capsys):
    args = ["resources", "--circuit", "isqrt", "--n", "6..8", "--format", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_resources_writes_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    assert (
        main(
            [
                "resources",
                "--circuit",
                "adder",
                "--n",
                "2..4",
                "--format",
                "csv",
                "-o",
                str(target),
            ]
        )
        == 0
    )
    assert "wrote" in capsys.readouterr().out
    assert target.read_text().splitlines()[1].split(",")[0] == "2"


# `resources --circuit adder --n 1..3` in each format, byte for byte
RESOURCES_ADDER_1_TO_3 = {
    "table": """\
circuit = adder (t_depth is a scheduled upper bound)
n  qubits  qubits(E)  t_count  t_count(E)  t_depth  total_depth  match
1  2       2          0        0           0        1            yes
2  4       4          14       14          12       25           yes
3  6       6          28       28          22       46           yes
""",
    "json": """\
[
  {
    "n": 1,
    "width": 2,
    "width_expected": 2,
    "t_count": 0,
    "t_count_expected": 0,
    "t_depth": 0,
    "total_depth": 1,
    "histogram": {
      "cx": 1
    }
  },
  {
    "n": 2,
    "width": 4,
    "width_expected": 4,
    "t_count": 14,
    "t_count_expected": 14,
    "t_depth": 12,
    "total_depth": 25,
    "histogram": {
      "cx": 16,
      "h": 4,
      "t": 8,
      "tdg": 6
    }
  },
  {
    "n": 3,
    "width": 6,
    "width_expected": 6,
    "t_count": 28,
    "t_count_expected": 28,
    "t_depth": 22,
    "total_depth": 46,
    "histogram": {
      "cx": 33,
      "h": 8,
      "t": 16,
      "tdg": 12
    }
  }
]
""",
    "csv": """\
n,width,t_count,t_count_expected,t_depth,total_depth
1,2,0,0,0,1
2,4,14,14,12,25
3,6,28,28,22,46
""",
}


@pytest.mark.parametrize("fmt", sorted(RESOURCES_ADDER_1_TO_3))
def test_resources_output_is_pinned_in_every_format(capsys, fmt):
    argv = ["resources", "--circuit", "adder", "--n", "1..3", "--format", fmt]
    assert main(argv) == 0
    assert capsys.readouterr().out == RESOURCES_ADDER_1_TO_3[fmt]


@pytest.mark.parametrize("name", sorted(cli.FAMILIES))
def test_row_keys_follow_the_column_list(name):
    family = cli.FAMILIES[name]
    row = cli._resource_row(family, 4)
    assert list(row) == [key for key, _ in cli._REPORT_COLUMNS] + ["histogram"]



def test_format_choices_are_the_writer_table():
    command = next(a for a in cli.build_parser()._actions if a.dest == "command")
    fmt = next(a for a in command.choices["resources"]._actions if a.dest == "format")
    assert list(fmt.choices) == list(cli._REPORT_WRITERS) == ["table", "json", "csv"]


def test_csv_writer_columns():
    rows = [
        {
            "n": 6,
            "width": 13,
            "t_count": 224,
            "t_count_expected": 224,
            "t_depth": 179,
            "total_depth": 395,
        }
    ]
    lines = cli._REPORT_WRITERS["csv"]("isqrt", rows).splitlines()
    assert lines[0] == "n,width,t_count,t_count_expected,t_depth,total_depth"
    assert lines[1] == "6,13,224,224,179,395"


def test_json_writer_round_trips():
    rows = [{"n": 6, "width": 13, "histogram": {"cx": 2}}]
    assert json.loads(cli._REPORT_WRITERS["json"]("isqrt", rows)) == rows


def test_verify_adder_exhaustive(capsys):
    assert (
        main(["verify", "--circuit", "adder", "--n", "4", "--exhaustive", "--no-timing"])
        == 0
    )
    out = capsys.readouterr().out
    assert "checked 256 cases, 256 passed" in out


def test_verify_isqrt_n6(capsys):
    assert (
        main(["verify", "--circuit", "isqrt", "--n", "6", "--exhaustive", "--no-timing"])
        == 0
    )
    assert "checked 32 cases, 32 passed" in capsys.readouterr().out


def test_verify_ctrl_add_n3(capsys):
    assert (
        main(
            ["verify", "--circuit", "ctrl-add", "--n", "3", "--exhaustive", "--no-timing"]
        )
        == 0
    )
    assert "checked 128 cases, 128 passed" in capsys.readouterr().out


def test_verify_subtractor_and_ctrl_add_sub(capsys):
    assert (
        main(["verify", "--circuit", "subtractor", "--n", "3", "--no-timing"]) == 0
    )
    assert "checked 64 cases, 64 passed" in capsys.readouterr().out
    assert (
        main(["verify", "--circuit", "ctrl-add-sub", "--n", "3", "--no-timing"]) == 0
    )
    assert "checked 128 cases, 128 passed" in capsys.readouterr().out


def test_verify_sampled_mode(capsys):
    assert (
        main(["verify", "--circuit", "adder", "--n", "12", "--sampled", "--no-timing"])
        == 0
    )
    assert "checked 100 cases, 100 passed" in capsys.readouterr().out


@pytest.mark.parametrize(
    "circuit, n",
    # widths 65, 63, 80, and 62, 64, 66, 63, 65 about the uint64 lane bound
    [("isqrt", 32), ("ctrl-add-sub", 31), ("subtractor", 40), ("adder", 31),
     ("adder", 32), ("adder", 33), ("ctrl-add", 31), ("ctrl-add", 32)],
)
def test_verify_sampled_wide_states(capsys, circuit, n):
    assert main(["verify", "--circuit", circuit, "--n", str(n), "--sampled"]) == 0
    assert "checked 100 cases, 100 passed" in capsys.readouterr().out


def test_verify_exhaustive_capacity_guard(monkeypatch, capsys):
    def no_build(n):
        raise AssertionError(f"built a circuit for n = {n}")

    # 2^16000 and 2^99999 cases are too many to print in decimal; the
    # guard must name --sampled before any circuit is built
    for circuit, n in [("adder", 15), ("isqrt", 30), ("adder", 7000),
                       ("adder", 8000), ("isqrt", 100000)]:
        family = dataclasses.replace(
            cli.FAMILIES[circuit], build=no_build, verify_build=no_build
        )
        monkeypatch.setitem(cli.FAMILIES, circuit, family)
        argv = ["verify", "--circuit", circuit, "--n", str(n), "--no-timing"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--sampled" in err
        assert f"2^{family.case_bits(n)} cases" in err


@pytest.mark.parametrize(
    "argv, n",
    [
        (["verify", "--circuit", "isqrt", "--n", "100000", "--sampled"], 100000),
        (["verify", "--circuit", "adder", "--n", "257", "--sampled"], 257),
        (["isqrt", "--value", "9" * 4000], 13290),
        (["isqrt", "--value", "9", "--n", "258"], 258),
        (["resources", "--circuit", "isqrt", "--n", "250..300"], 300),
        (["export", "--circuit", "adder", "--n", "257"], 257),
    ],
    ids=["verify-isqrt", "verify-adder", "isqrt-auto", "isqrt-n", "resources", "export"],
)
def test_width_limit_fails_before_building(monkeypatch, capsys, argv, n):
    def no_build(*args):
        raise AssertionError(f"built a circuit for {args}")

    for name, family in cli.FAMILIES.items():
        family = dataclasses.replace(family, build=no_build, verify_build=no_build)
        monkeypatch.setitem(cli.FAMILIES, name, family)
    monkeypatch.setattr(cli, "isqrt", no_build)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: n = {n} exceeds the command-line limit of {cli.MAX_CLI_N}\n"
    )


def test_width_limit_admits_its_own_width(capsys):
    argv = ["verify", "--circuit", "adder", "--n", str(cli.MAX_CLI_N), "--sampled"]
    assert main(argv) == 0
    assert "checked 100 cases, 100 passed" in capsys.readouterr().out


def test_verify_timing_line_toggle(capsys):
    assert main(["verify", "--circuit", "adder", "--n", "2"]) == 0
    assert "elapsed" in capsys.readouterr().out
    assert main(["verify", "--circuit", "adder", "--n", "2", "--no-timing"]) == 0
    assert "elapsed" not in capsys.readouterr().out


def test_verify_failure_exit_code(monkeypatch, capsys):
    # swap in a do-nothing "adder"; the oracle sweep must catch it
    family = cli.FAMILIES["adder"]
    broken = dataclasses.replace(
        family, verify_build=lambda n: Circuit(2 * n, "ADD")
    )
    monkeypatch.setitem(cli.FAMILIES, "adder", broken)
    assert main(["verify", "--circuit", "adder", "--n", "2", "--no-timing"]) == 1
    captured = capsys.readouterr()
    assert "FAIL" in captured.err
    assert "passed" in captured.out


@pytest.mark.parametrize(
    "circuit, n, cases",
    [("isqrt", n, 1 << (n - 1)) for n in range(4, 21, 2)]
    + [("adder", n, 1 << (2 * n)) for n in range(1, 11)],
)
def test_verify_exhaustive_sweeps(capsys, circuit, n, cases):
    assert main(["verify", "--circuit", circuit, "--n", str(n), "--no-timing"]) == 0
    assert f"checked {cases} cases, {cases} passed" in capsys.readouterr().out


def _every_case(family, n):
    """The case-number columns of an exhaustive sweep in one batch, and its
    lane mask."""
    count = 1 << family.case_bits(n)
    return _columns(range(count), family.case_bits(n)), (1 << count) - 1


@pytest.mark.parametrize("name", sorted(cli.FAMILIES))
def test_family_input_is_the_case_number_over_a_constant(name):
    # so a failure's input state decodes to its case number's fields
    family = cli.FAMILIES[name]
    for n in family_widths(family, 9):
        bits = family.case_bits(n)
        cases, ones = _every_case(family, n)
        inputs, _ = family.oracle(n, cases, ones)
        assert inputs[:bits] == cases
        assert all(col in (0, ones) for col in inputs[bits:])


@pytest.mark.parametrize("name", sorted(cli.FAMILIES))
def test_output_fields_tile_every_qubit(name):
    # so `resources` reads the width off them and a failure report leaves
    # no qubit out, the ancilla included
    family = cli.FAMILIES[name]
    for n in family_widths(family, 65):
        qubits = [q for _, lo, w in family.registers(n)[1] for q in range(lo, lo + w)]
        width = family.build(n).width
        assert sorted(qubits) == list(range(width))
        assert (family.verify_build or family.build)(n).width == width


def test_every_exhaustive_sweep_fits_uint64_lanes():
    # so every exhaustive sweep is checked in uint64 lanes
    for family in cli.FAMILIES.values():
        # no family sweeps fewer than n - 1 bits, so n stays below bits + 2
        n = max(
            n for n in family_widths(family, cli.MAX_EXHAUSTIVE_BITS + 2)
            if family.case_bits(n) <= cli.MAX_EXHAUSTIVE_BITS
        )
        assert (family.verify_build or family.build)(n).width < 63


def reference_case(name, n, k):
    """(input, expected output) state of case k, in Python ints."""
    if name == "isqrt":
        root = math.isqrt(k)
        return k | 1 << n, (k - root * root) | root << n
    if name in ("adder", "subtractor"):
        a, b = k % 2**n, k >> n
        result = a + b if name == "adder" else a - b
        return k, result % 2**n | b << n
    z, a, b = k & 1, (k >> 1) % 2**n, k >> (n + 1)
    if name == "ctrl-add-sub":
        result = a - b if z else a + b
    else:
        result = a + b if z else a
    return k, z | result % 2**n << 1 | b << (n + 1)


def _oracle_against_reference(name, n, cases):
    """The family's column oracle on `cases` equals reference_case, column
    for column, over the circuit's width."""
    family = cli.FAMILIES[name]
    bits = family.case_bits(n)
    ones = (1 << len(cases)) - 1
    inputs, expected = family.oracle(n, _columns(cases, bits), ones)
    width = max(lo + w for _, lo, w in family.registers(n)[1])
    states, wants = zip(*(reference_case(name, n, k) for k in cases))
    assert inputs == _columns(states, width)
    assert expected == _columns(wants, width)


# (name, n) for every width the command line builds, without building any
_CLI_WIDTHS = [
    (name, n)
    for name, family in sorted(cli.FAMILIES.items())
    for n in range(min(family_widths(family, 9)), cli.MAX_CLI_N + 1,
                   2 if family.even_only else 1)
]


@pytest.mark.parametrize("name", sorted(cli.FAMILIES))
def test_column_oracle_is_the_integer_reference_on_every_case(name):
    family = cli.FAMILIES[name]
    for n in family_widths(family, 18):
        if family.case_bits(n) <= 16:
            _oracle_against_reference(name, n, range(1 << family.case_bits(n)))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_CLI_WIDTHS), st.data())
def test_column_oracle_is_the_integer_reference_up_to_the_cli_width(width, data):
    name, n = width
    case = st.integers(0, (1 << cli.FAMILIES[name].case_bits(n)) - 1)
    cases = data.draw(st.lists(case, min_size=1, max_size=70))
    _oracle_against_reference(name, n, cases)


class XorAndColumn:
    """A column with ^ and &, on another such column or 0, and nothing else."""

    __slots__ = ("value",)
    __hash__ = None

    def __init__(self, value):
        self.value = value

    def _combine(self, other, op):
        if isinstance(other, XorAndColumn):
            return XorAndColumn(op(self.value, other.value))
        if type(other) is int and other == 0:
            return XorAndColumn(op(self.value, 0))
        raise TypeError(f"an oracle combined a column with {other!r}")

    def __xor__(self, other):
        return self._combine(other, operator.xor)

    def __and__(self, other):
        return self._combine(other, operator.and_)

    __rxor__, __rand__ = __xor__, __and__


def _refuse(self, *args):
    raise TypeError("an oracle used an operation other than ^ and &")


for _name in ("bool", "eq", "ne", "lt", "le", "gt", "ge", "or", "ror", "invert",
              "neg", "pos", "abs", "add", "radd", "sub", "rsub", "mul", "rmul",
              "floordiv", "mod", "lshift", "rlshift", "rshift", "rrshift",
              "index", "int", "len", "iter", "getitem"):
    setattr(XorAndColumn, f"__{_name}__", _refuse)


@pytest.mark.parametrize("name", sorted(cli.FAMILIES))
def test_oracles_use_only_xor_and_and(name):
    # so the same oracles run on any column type with ^ and &, as the kernel does
    family = cli.FAMILIES[name]
    for n in family_widths(family, 9):
        cases, ones = _every_case(family, n)
        want = family.oracle(n, cases, ones)
        got = family.oracle(n, [XorAndColumn(c) for c in cases], XorAndColumn(ones))
        for cols, want_cols in zip(got, want):
            # a constant the oracle wrote itself may only be 0
            constants = [c for c in cols if not isinstance(c, XorAndColumn)]
            assert all(type(c) is int and c == 0 for c in constants)
            assert [getattr(c, "value", c) for c in cols] == want_cols


@pytest.mark.parametrize(
    "name, n",
    [("isqrt", 10), ("adder", 4), ("subtractor", 4), ("ctrl-add-sub", 4),
     ("ctrl-add", 4)],
)
def test_sliced_sweep_reports_a_planted_fault_like_a_per_case_run(
    monkeypatch, capsys, name, n
):
    # the middle top-level gate removed: some cases of each family fail
    family = cli.FAMILIES[name]
    field = "verify_build" if family.verify_build else "build"
    build = getattr(family, field)

    def broken(width):
        circuit = build(width)
        del circuit.gates[len(circuit.gates) // 2]
        return circuit

    monkeypatch.setitem(
        cli.FAMILIES, name, dataclasses.replace(family, **{field: broken})
    )
    circuit = broken(n)
    total = 1 << family.case_bits(n)
    wrong = []
    for k in range(total):
        state, want = reference_case(name, n, k)
        got = perm_run(circuit, state)
        if got != want:
            wrong.append((state, want, got))
    assert 0 < len(wrong) < total
    argv = ["verify", "--circuit", name, "--n", str(n), "--no-timing"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert f"checked {total} cases, {total - len(wrong)} passed" in captured.out
    lines = captured.err.splitlines()
    assert lines[0] == f"FAIL: {len(wrong)} of {total} cases failed; first failure:"
    state, want, got = wrong[0]
    assert lines[4].split() == [
        "basis", "states:", f"input={state}", f"expected={want}", f"actual={got}"
    ]


@pytest.mark.parametrize("name, n", [("isqrt", 10), ("adder", 33)])
def test_sampled_sweep_reports_a_planted_fault_like_a_per_case_run(
    monkeypatch, capsys, name, n
):
    # the middle top-level gate removed; adder n = 33 has 66 qubits, so the
    # failure's states are decoded past 64 bits
    family = cli.FAMILIES[name]
    field = "verify_build" if family.verify_build else "build"
    build = getattr(family, field)

    def broken(width):
        circuit = build(width)
        del circuit.gates[len(circuit.gates) // 2]
        return circuit

    monkeypatch.setitem(
        cli.FAMILIES, name, dataclasses.replace(family, **{field: broken})
    )
    circuit = broken(n)
    rng = random.Random(cli._SAMPLE_SEED)
    drawn = [rng.randrange(1 << family.case_bits(n)) for _ in range(cli.SAMPLED_CASES)]
    wrong = []
    for k in drawn:  # in draw order
        state, want = reference_case(name, n, k)
        got = perm_run(circuit, state)
        if got != want:
            wrong.append((state, want, got))
    total = len(drawn)
    assert 0 < len(wrong) < total
    argv = ["verify", "--circuit", name, "--n", str(n), "--sampled", "--no-timing"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == (
        f"verify {name} n={n} mode=sampled\n"
        f"checked {total} cases, {total - len(wrong)} passed\n"
    )
    lines = captured.err.splitlines()
    assert lines[0] == f"FAIL: {len(wrong)} of {total} cases failed; first failure:"
    state, want, got = wrong[0]
    assert lines[4].split() == [
        "basis", "states:", f"input={state}", f"expected={want}", f"actual={got}"
    ]


def test_verify_and_isqrt_share_one_compiled_pipeline(capsys):
    assert main(["verify", "--circuit", "isqrt", "--n", "18", "--sampled"]) == 0
    before = _cached_program.cache_info()
    assert isqrt(130_000, 18) == (360, 400)
    after = _cached_program.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def _break_family(monkeypatch, name, field):
    """Make `verify` sweep the family's circuit without its second gate."""
    family = cli.FAMILIES[name]
    build = getattr(family, field)

    def broken(n):
        circuit = build(n)
        del circuit.gates[1]
        return circuit

    monkeypatch.setitem(
        cli.FAMILIES, name, dataclasses.replace(family, **{field: broken})
    )


def test_verify_failure_reports_decoded_isqrt_registers(monkeypatch, capsys):
    # without the readout's X on F[0], F's initial 1 is swapped up to F[4]
    _break_family(monkeypatch, "isqrt", "verify_build")
    assert main(["verify", "--circuit", "isqrt", "--n", "6", "--no-timing"]) == 1
    captured = capsys.readouterr()
    assert "checked 32 cases, 0 passed" in captured.out
    lines = captured.err.splitlines()
    assert lines[0] == "FAIL: 32 of 32 cases failed; first failure:"
    assert lines[1].split() == ["input", "a=0"]
    assert lines[2].split() == ["expected", "root=0", "remainder=0", "z=0"]
    assert lines[3].split() == ["actual", "root=16", "remainder=0", "z=0"]
    assert lines[4].split() == [
        "basis", "states:", "input=64", "expected=0", "actual=1024"
    ]


def test_verify_failure_reports_decoded_adder_registers(monkeypatch, capsys):
    _break_family(monkeypatch, "adder", "build")
    assert main(["verify", "--circuit", "adder", "--n", "3", "--no-timing"]) == 1
    err = capsys.readouterr().err.splitlines()
    failed = int(err[0].split()[1])
    assert 0 < failed < 64 and err[0].endswith("of 64 cases failed; first failure:")
    _, a, b = err[1].split()
    _, want, want_b = err[2].split()
    _, got, got_b = err[3].split()
    a, b = int(a.removeprefix("a=")), int(b.removeprefix("b="))
    assert want == f"result={(a + b) % 8}" and want_b == f"b={b}"
    assert got.startswith("result=") and got_b.startswith("b=")
    assert (got, got_b) != (want, want_b)


def test_verify_batches_report_like_one_batch(monkeypatch, capsys):
    # cases 32..63 of the broken adder fail, so the first failure sits
    # inside the seventh batch of five and later batches fail too
    _break_family(monkeypatch, "adder", "build")
    argv = ["verify", "--circuit", "adder", "--n", "3", "--no-timing"]
    assert main(argv) == 1
    single = capsys.readouterr()
    monkeypatch.setattr(sim, "_SWEEP_BATCH", 5)
    assert main(argv) == 1
    batched = capsys.readouterr()
    assert batched.err.startswith("FAIL: 32 of 64 cases failed;")
    assert (batched.out, batched.err) == (single.out, single.err)


def test_a_multi_batch_sweep_builds_each_low_column_once(monkeypatch, capsys):
    argv = ["verify", "--circuit", "adder", "--n", "6", "--no-timing"]
    assert main(argv) == 0
    single = capsys.readouterr()
    # 2^12 cases in 16 batches of 256: lanes 256 k + j read bit q of j at
    # every q <= 7, and only q <= 6 repeat within a batch (256 > 2^(q+1))
    sim._periodic_column.cache_clear()
    monkeypatch.setattr(sim, "_SWEEP_BATCH", 1 << 8)
    assert main(argv) == 0
    assert capsys.readouterr() == single
    info = sim._periodic_column.cache_info()
    assert (info.misses, info.hits, info.currsize) == (7, 15 * 7, 7)
    # the 7 entries are q = 0..6 at phase 0, so none is for q >= 7
    for q in range(7):
        sim._periodic_column(0, 1 << 8, q)
    assert sim._periodic_column.cache_info().misses == 7


@pytest.mark.parametrize("spec", ["abc", "6..", "..8", "6..x"])
def test_resources_rejects_malformed_width(capsys, spec):
    assert main(["resources", "--circuit", "isqrt", "--n", spec]) == 2
    assert capsys.readouterr().err.startswith("error: invalid width")


@pytest.mark.parametrize("circuit", ["adder", "isqrt"])
def test_resources_checks_the_lower_end_before_listing_widths(capsys, circuit):
    # listing every width from -10**21 would fail with an OverflowError
    assert main(["resources", "--circuit", circuit, f"--n={-10**21}..4"]) == 2
    assert capsys.readouterr().err.startswith("error: n must be")


@pytest.mark.parametrize("spec", ["4..2", "3..2"])
def test_resources_rejects_an_empty_width_range(capsys, spec):
    assert main(["resources", "--circuit", "isqrt", "--n", spec]) == 2
    assert capsys.readouterr().err == f"error: empty width range '{spec}'\n"


def test_export_writes_matching_qasm(tmp_path, capsys):
    target = tmp_path / "isqrt6.qasm"
    assert (
        main(["export", "--circuit", "isqrt", "--n", "6", "-o", str(target)]) == 0
    )
    out = capsys.readouterr().out
    assert str(target) in out
    parsed = from_qasm(target.read_text())
    assert parsed.width == 13
    # the document has no zcx lines, so histograms align up to that encoding
    flat = flatten(cli.FAMILIES["isqrt"].build(6))
    from qsqrt import GateKind

    parsed_hist = count_ops(parsed)
    flat_hist = count_ops(flat)
    zcx = flat_hist.pop(GateKind.ZCX, 0)
    assert parsed_hist[GateKind.X] == flat_hist.get(GateKind.X, 0) + 2 * zcx
    assert parsed_hist[GateKind.CX] == flat_hist[GateKind.CX] + zcx
    for kind in (GateKind.CCX, GateKind.SWAP):
        assert parsed_hist[kind] == flat_hist[kind]


def test_export_adder_n2_round_trips(capsys):
    assert main(["export", "--circuit", "adder", "--n", "2"]) == 0
    text = capsys.readouterr().out
    parsed = from_qasm(text)
    assert count_ops(parsed) == count_ops(flatten(build_adder(2)))


def test_export_rejects_odd_isqrt_width(capsys):
    assert main(["export", "--circuit", "isqrt", "--n", "7"]) == 2
    assert "even" in capsys.readouterr().err


def _outside_the_domain():
    for name, family in sorted(cli.FAMILIES.items()):
        yield name, min(family_widths(family, 9)) - 1
    yield "isqrt", 7
    yield "adder", -3  # a negative n must not reach 1 << case_bits(n)


@pytest.mark.parametrize("name, n", list(_outside_the_domain()))
@pytest.mark.parametrize(
    "command", [["verify"], ["verify", "--sampled"], ["export"], ["resources"]],
    ids=" ".join,
)
def test_width_errors_are_the_builders_word_for_word(capsys, name, n, command):
    with pytest.raises(InvalidWidthError) as built:
        cli.FAMILIES[name].build(n)
    argv = [*command, "--circuit", name, "--n", str(n)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {built.value}\n"


def test_verify_reports_the_exhaustive_limit_before_the_domain(capsys):
    # isqrt n = 31 is odd and also past the exhaustive limit, which is
    # checked first because it must fail without building anything
    assert main(["verify", "--circuit", "isqrt", "--n", "31"]) == 2
    assert "exceed the exhaustive limit" in capsys.readouterr().err
    assert main(["verify", "--circuit", "isqrt", "--n", "31", "--sampled"]) == 2
    assert capsys.readouterr().err.startswith("error: n must be even")


def test_export_to_missing_directory_is_an_input_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.qasm"
    assert main(["export", "--circuit", "adder", "--n", "2", "-o", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert not target.exists()


def test_resources_to_a_directory_is_an_input_error(tmp_path, capsys):
    argv = ["resources", "--circuit", "adder", "--n", "2", "-o", str(tmp_path)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["resources"])  # missing required flags
    assert err.value.code == 2


_ADDER_3 = ["verify", "--circuit", "adder", "--n", "3"]
#: usage paths, errors and parses that main must take as argparse's nested
#: parse does: the top level's options, unknown and wrongly cased commands,
#: arguments left over after a command, abbreviations and bad values
_PARSE_ARGVS = [
    [], ["--version"], ["-h"], ["verify", "-h"], ["-h", "verify"], ["bogus"],
    ["VERIFY"], ["verify"], ["resources"], [*_ADDER_3, "--bogus"],
    [*_ADDER_3, "--version"], ["--", *_ADDER_3], [*_ADDER_3, "--no-timing"],
    ["verify", "--circ", "adder", "--n", "3"], ["verify", "--circuit=adder", "--n=3"],
    ["verify", "--circuit", "nope", "--n", "3"], ["verify", "--circuit", "adder", "--n", "x"],
    [*_ADDER_3, "extra"], [*_ADDER_3, "--sampled", "--exhaustive"], [*_ADDER_3, "--sampled"],
    ["isqrt", "--value", "-5"], ["isqrt", "--value", "100", "--n", "8", "--resources"],
    ["resources", "--circuit", "isqrt", "--n", "6..8", "--format", "csv", "-o", "x.csv"],
    ["export", "--circuit", "adder", "--n", "2", "--", "-o"], ["export", "-h"],
]


def _parsed(parse, argv, capsys):
    """A parse's namespace without `command`, or its exit code, and its output."""
    try:
        result = vars(parse(argv))
        result.pop("command", None)
    except SystemExit as exc:
        result = exc.code
    return result, capsys.readouterr()


@pytest.mark.parametrize("argv", _PARSE_ARGVS, ids=" ".join)
def test_main_parses_as_the_nested_parse_does(monkeypatch, capsys, argv):
    want = _parsed(cli.build_parser().parse_args, argv, capsys)
    handed = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def stopped(self, *args, **kwargs):
        # main runs no command: it hands its namespace to a stand-in
        namespace, extra = parse_known_args(self, *args, **kwargs)
        command = getattr(namespace, "func", None)
        if command is not None and not hasattr(command, "command"):
            def stand_in(args):
                handed.append(argparse.Namespace(**{**vars(args), "func": command}))
                return cli.EXIT_OK
            stand_in.command = command
            namespace.func = stand_in
        return namespace, extra

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", stopped)

    def through_main(argv):
        assert main(argv) == cli.EXIT_OK
        return handed.pop()

    assert _parsed(through_main, argv, capsys) == want
    monkeypatch.setattr(sys, "argv", ["qsqrt", *argv])
    assert _parsed(lambda _: through_main(None), argv, capsys) == want


@pytest.mark.parametrize(
    "argv", [[*_ADDER_3, "--no-timing"], [], ["bogus"], [*_ADDER_3, "--bogus"]],
    ids=" ".join,
)
def test_main_parses_once(monkeypatch, capsys, argv):
    calls = []
    parse_known_args = argparse.ArgumentParser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return parse_known_args(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counted)
    try:
        main(argv)
    except SystemExit as exc:
        assert exc.code == cli.EXIT_USAGE
    capsys.readouterr()
    assert len(calls) == 1, calls


@pytest.mark.parametrize("text", ["٣", "١٠", "1_0", " 3", "3 ", "+3", "3.0", "--3", "-", ""])
@pytest.mark.parametrize(
    "command, flag",
    [(["isqrt"], "--value"), (["isqrt", "--value", "9"], "--n"),
     (["verify", "--circuit", "adder"], "--n"), (["export", "--circuit", "adder"], "--n")],
    ids=lambda x: " ".join(x) if isinstance(x, list) else x,
)
def test_integer_arguments_are_ascii_decimal(capsys, command, flag, text):
    with pytest.raises(SystemExit) as err:
        main([*command, f"{flag}={text}"])
    assert err.value.code == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f": error: argument {flag}: invalid int value: {text!r}\n")


@pytest.mark.parametrize("spec", ["٤", "٤..٨", "6..٨", "1_0", " 6", "6.. 8", "+6", "6..+8"])
def test_resources_widths_are_ascii_decimal(capsys, spec):
    assert main(["resources", "--circuit", "isqrt", f"--n={spec}"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: invalid width '{spec}': expected N or N..M\n"


_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _DIGIT_LIMIT, reason="int() has no digit limit here")
def test_integers_past_the_digit_limit_are_usage_errors(capsys):
    digits = "1" * (_DIGIT_LIMIT + 1)
    with pytest.raises(SystemExit) as err:
        main(["verify", "--circuit", "adder", f"--n={digits}"])
    assert err.value.code == cli.EXIT_USAGE
    assert capsys.readouterr().err.endswith(f"--n: invalid int value: '{digits}'\n")
    assert main(["resources", "--circuit", "adder", f"--n=1..{digits}"]) == cli.EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: invalid width '1..{digits}'")


@pytest.mark.parametrize(
    "argv, message",
    [(["isqrt", "--value", "-5"], "input must be non-negative, got -5"),
     (["isqrt", "--value", "-5", "--n", "6"], "input must be non-negative, got -5"),
     (["resources", "--circuit", "adder", "--n=-5..-3"], "n must be >= 1 for the adder, got -5")],
    ids=lambda x: " ".join(x) if isinstance(x, list) else None,
)
def test_negative_integers_reach_the_domain_checks(capsys, argv, message):
    assert main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: {message}\n"


def test_export_counts_a_zcx_as_its_three_gate_lines(tmp_path, capsys):
    target = tmp_path / "isqrt6.qasm"
    assert main(["export", "--circuit", "isqrt", "--n", "6", "-o", str(target)]) == 0
    assert capsys.readouterr().out == f"wrote {target} (144 gates)\n"


@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name in sorted(cli.FAMILIES) if name != "isqrt" for n in range(2, 7)]
    + [("isqrt", 4), ("isqrt", 6)],
)
def test_export_reports_the_gate_lines_it_writes(tmp_path, capsys, name, n):
    target = tmp_path / "out.qasm"
    assert main(["export", "--circuit", name, "--n", str(n), "-o", str(target)]) == 0
    text = target.read_text()
    gate_lines = [
        line for line in text.splitlines()
        if not line.startswith(("OPENQASM ", "include ", "qreg "))
    ]
    assert len(gate_lines) == len(from_qasm(text).gates)
    assert capsys.readouterr().out == f"wrote {target} ({len(gate_lines)} gates)\n"
