import ast
import dataclasses

import pytest

from qsqrt import GateKind, cli, families, perm_run
from qsqrt.cli import main
from qsqrt.families import FAMILIES
from strategies import family_widths


def test_families_needs_no_command_line_and_no_numpy():
    with open(families.__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported.add(base)
            imported.update(f"{base.rstrip('.')}.{alias.name}" for alias in node.names)
    roots = {name.split(".")[0] for name in imported if not name.startswith(".")}
    assert roots.isdisjoint({"argparse", "numpy"}), roots
    assert not {".cli", "..cli"} & imported, imported
    assert not any(
        isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
        for node in ast.walk(tree)
    )


def test_the_command_line_serves_the_one_registry():
    assert cli.FAMILIES is families.FAMILIES


@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name, family in FAMILIES.items()
     for n in family_widths(family, 11 if name == "isqrt" else 6)],
)
def test_each_family_sweeps_clean(name, n):
    family = FAMILIES[name]
    assert family.sweep(n, range(1 << family.case_bits(n))) == (0, None)


def _without_first_cx(build):
    def broken(n):
        circuit = build(n)
        first = next(i for i, g in enumerate(circuit.gates) if g.kind is GateKind.CX)
        del circuit.gates[first]
        return circuit

    return broken


@pytest.mark.parametrize("n", [3, 4])
def test_a_planted_fault_sweeps_as_verify_reports_it(monkeypatch, capsys, n):
    family = FAMILIES["adder"]
    broken = dataclasses.replace(family, build=_without_first_cx(family.build))
    total = 1 << broken.case_bits(n)
    # an adder's case number is its input state; the intact adder gives
    # the expected output (its sweep is clean above)
    good, bad = family.build(n), broken.build(n)
    wrong = [(k, perm_run(good, k), perm_run(bad, k)) for k in range(total)]
    wrong = [case for case in wrong if case[1] != case[2]]
    failed, first_failure = broken.sweep(n, range(total))
    assert 0 < failed == len(wrong) < total
    state, want, got = first_failure
    assert first_failure == wrong[0]
    monkeypatch.setitem(FAMILIES, "adder", broken)
    assert main(["verify", "--circuit", "adder", "--n", str(n), "--no-timing"]) == 1
    captured = capsys.readouterr()
    assert f"checked {total} cases, {total - failed} passed" in captured.out
    lines = captured.err.splitlines()
    assert lines[0] == f"FAIL: {failed} of {total} cases failed; first failure:"
    assert lines[4] == f"  basis states: input={state} expected={want} actual={got}"
