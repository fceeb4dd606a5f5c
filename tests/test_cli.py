import dataclasses

import pytest

import qsqrt.cli as cli
from qsqrt import Circuit, count_ops, flatten, from_qasm
from qsqrt.arithmetic import build_adder
from qsqrt.cli import main


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
    import json

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
    "circuit, n", [("isqrt", 32), ("ctrl-add-sub", 31), ("subtractor", 40)]
)
def test_verify_sampled_wide_states(capsys, circuit, n):
    assert main(["verify", "--circuit", circuit, "--n", str(n), "--sampled"]) == 0
    assert "checked 100 cases, 100 passed" in capsys.readouterr().out


def test_verify_exhaustive_capacity_guard(capsys):
    assert main(["verify", "--circuit", "adder", "--n", "11", "--no-timing"]) == 2
    assert "--sampled" in capsys.readouterr().err


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
    [("isqrt", n, 1 << (n - 1)) for n in range(4, 17, 2)]
    + [("adder", n, 1 << (2 * n)) for n in range(1, 9)],
)
def test_verify_exhaustive_sweeps(capsys, circuit, n, cases):
    assert main(["verify", "--circuit", circuit, "--n", str(n), "--no-timing"]) == 0
    assert f"checked {cases} cases, {cases} passed" in capsys.readouterr().out


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


@pytest.mark.parametrize("spec", ["abc", "6..", "..8", "6..x"])
def test_resources_rejects_malformed_width(capsys, spec):
    assert main(["resources", "--circuit", "isqrt", "--n", spec]) == 2
    assert capsys.readouterr().err.startswith("error: invalid width")


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


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["resources"])  # missing required flags
    assert err.value.code == 2
