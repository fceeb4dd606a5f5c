import ast
import pathlib
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsqrt
from qsqrt import (
    CLIFFORD_T_KINDS,
    DEFAULT_RULES,
    Circuit,
    DecompositionRule,
    Gate,
    GateKind,
    analyze,
    assert_equiv,
    basis_statevector,
    build_adder,
    build_ctrl_add_sub,
    build_ctrl_adder,
    build_isqrt_circuit,
    build_isqrt_pipeline,
    build_subtractor,
    flatten,
    lower_to_clifford_t,
    peres_circuit,
    perm_run,
    permutation_matrix,
    sv_run,
    unitary,
)
from qsqrt.errors import UnsupportedGateError
from strategies import permutation_circuits


def test_flatten_peres_gives_two_primitives():
    qc = Circuit(3)
    qc.append_composite("PERES", peres_circuit(), [0, 1, 2])
    flat = flatten(qc)
    assert [(g.kind, g.qubits) for g in flat.gates] == [
        (GateKind.CCX, (0, 1, 2)),
        (GateKind.CX, (0, 1)),
    ]


def test_flatten_without_composites_is_identity():
    qc = Circuit(2).cx(0, 1)
    qc.x(0)
    assert flatten(qc) == qc


def test_flatten_remaps_composite_operands():
    qc = Circuit(5)
    qc.append_composite("PERES", peres_circuit(), [4, 1, 0])
    flat = flatten(qc)
    assert flat.gates[0].qubits == (4, 1, 0)
    assert flat.gates[1].qubits == (4, 1)


def test_flatten_isqrt_preserves_permutation():
    qc = build_isqrt_circuit(6)
    flat = flatten(qc)
    rng = random.Random(7)
    for _ in range(100):
        state = rng.randrange(1 << 13)
        assert perm_run(flat, state) == perm_run(qc, state)


def test_lower_swap_is_three_cx():
    low = lower_to_clifford_t(Circuit(2).swap(0, 1))
    assert [(g.kind, g.qubits) for g in low.gates] == [
        (GateKind.CX, (0, 1)),
        (GateKind.CX, (1, 0)),
        (GateKind.CX, (0, 1)),
    ]


def test_lower_swap_matches_swap_exhaustively():
    low = lower_to_clifford_t(Circuit(2).swap(0, 1))
    swap = Circuit(2).swap(0, 1)
    for state in range(4):
        assert perm_run(low, state) == perm_run(swap, state)
    assert perm_run(low, 0b10) == 0b01  # |01> -> |10>, qubit 0 written first
    assert perm_run(low, 0b11) == 0b11


def test_lower_zcx_fires_on_zero_control():
    low = lower_to_clifford_t(Circuit(2).zcx(0, 1))
    assert [g.kind for g in low.gates] == [GateKind.X, GateKind.CX, GateKind.X]
    assert perm_run(low, 0b00) == 0b10  # control clear: target flips
    assert perm_run(low, 0b01) == 0b01  # control set: blocked
    zcx = Circuit(2).zcx(0, 1)
    for state in range(4):
        assert perm_run(low, state) == perm_run(zcx, state)


def test_lower_toffoli_gate_counts():
    low = lower_to_clifford_t(Circuit(3).ccx(0, 1, 2))
    kinds = [g.kind for g in low.gates]
    assert len(kinds) == 15
    assert kinds.count(GateKind.H) == 2
    assert kinds.count(GateKind.CX) == 6
    assert kinds.count(GateKind.T) == 4
    assert kinds.count(GateKind.TDG) == 3
    assert analyze(low).t_count == 7


def test_lower_toffoli_flips_target_when_both_controls_set():
    low = lower_to_clifford_t(Circuit(3).ccx(0, 1, 2))
    vec = sv_run(low, basis_statevector(3, 0b011))
    assert abs(vec[0b111]) == pytest.approx(1.0, abs=1e-12)


def test_lower_toffoli_unitary_equals_ccx():
    low = lower_to_clifford_t(Circuit(3).ccx(0, 1, 2))
    ccx = Circuit(3).ccx(0, 1, 2)
    assert np.max(np.abs(unitary(low) - permutation_matrix(ccx))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4).flatmap(permutation_circuits))
def test_lowering_preserves_permutation_semantics(c):
    # every lowered gate sequence, wherever composites place it, must act
    # on basis states as the logical circuit does (phases checked to 1e-9)
    assert assert_equiv(c, lower_to_clifford_t(c)) is None


@pytest.mark.parametrize(
    "build, n",
    [(build_adder, n) for n in range(1, 11)]
    + [(build_subtractor, n) for n in range(1, 11)]
    + [(build_ctrl_add_sub, n) for n in range(1, 10)]
    + [(build_ctrl_adder, n) for n in range(2, 10)]
    + [(build_isqrt_pipeline, n) for n in (4, 6, 8)],
    ids=lambda v: getattr(v, "__name__", str(v)),
)
def test_lowered_family_matches_its_circuit_on_every_basis_state(build, n):
    # up to width 20, the exhaustive cap of a permutation circuit against a
    # path-sum program: every input, phases included, bit-sliced
    c = build(n)
    assert c.width <= 20
    assert assert_equiv(c, lower_to_clifford_t(c)) is None


def test_every_default_rule_matches_its_gate():
    for kind, rule in DEFAULT_RULES.items():
        arity = rule.template.width
        logical = Circuit(arity).append(Gate(kind, tuple(range(arity))))
        lowered = lower_to_clifford_t(logical)
        diff = np.abs(unitary(lowered) - permutation_matrix(logical))
        assert np.max(diff) < 1e-12, kind


def test_lower_peres_gate_count():
    qc = Circuit(3)
    qc.append_composite("PERES", peres_circuit(), [0, 1, 2])
    assert len(lower_to_clifford_t(qc).gates) == 16  # 15 from CCX plus one CX


def test_lowering_is_idempotent():
    low = lower_to_clifford_t(build_adder(3))
    assert lower_to_clifford_t(low) == low


def test_lowered_gates_are_clifford_t_only():
    low = lower_to_clifford_t(build_isqrt_circuit(6))
    assert all(g.kind in CLIFFORD_T_KINDS for g in low.gates)


def test_lowering_preserves_width_and_name():
    low = lower_to_clifford_t(build_adder(3))
    assert (low.width, low.name) == (6, "ADD")


def test_lowered_isqrt_matches_logical_circuit():
    logical = build_isqrt_circuit(6)
    lowered = lower_to_clifford_t(logical)
    assert assert_equiv(logical, lowered, mode="sampled", samples=100, seed=3) is None


@pytest.mark.parametrize("n", [16, 32])
def test_lowered_pipeline_matches_it_at_the_papers_widths(n):
    # 33 and 65 qubits, far beyond any dense statevector; at 65 qubits the
    # sparse kernel's keys no longer fit in 63 bits and are Python ints
    pipeline = build_isqrt_pipeline(n)
    lowered = lower_to_clifford_t(pipeline)
    assert assert_equiv(pipeline, lowered, "sampled") is None


def test_wide_lowered_check_finds_one_flipped_t_gate():
    pipeline = build_isqrt_pipeline(32)
    gates = lower_to_clifford_t(pipeline).gates
    # the first H of a Toffoli template halfway through: its target is in
    # superposition at the template's first T, on every input
    h = next(
        i for i in range(len(gates) // 2, len(gates))
        if gates[i].kind is GateKind.H and gates[i + 1].qubits[1:] == gates[i].qubits
    )
    assert gates[h + 4] == Gate(GateKind.T, gates[h].qubits)
    broken = Circuit(pipeline.width)
    for i, g in enumerate(gates):
        broken.append(Gate(GateKind.TDG, g.qubits) if i == h + 4 else g)
    first = random.Random(0).randrange(1 << pipeline.width)
    check = assert_equiv(pipeline, broken, "sampled", 2)
    assert check == first


def test_unknown_kind_without_rule_raises():
    qc = Circuit(2).swap(0, 1)
    with pytest.raises(UnsupportedGateError):
        lower_to_clifford_t(qc, rules={})


def test_alternate_rule_can_be_plugged():
    # same SWAP written with the opposite CX orientation
    alt = Circuit(2, "swap")
    alt.cx(1, 0)
    alt.cx(0, 1)
    alt.cx(1, 0)
    rules = dict(DEFAULT_RULES)
    rules[GateKind.SWAP] = DecompositionRule(GateKind.SWAP, alt)
    logical = Circuit(2).swap(0, 1)
    lowered = lower_to_clifford_t(logical, rules=rules)
    assert [g.qubits for g in lowered.gates] == [(1, 0), (0, 1), (1, 0)]
    for state in range(4):
        assert perm_run(lowered, state) == perm_run(logical, state)


def test_t_count_invariant_under_flatten():
    qc = build_isqrt_circuit(6)
    assert analyze(flatten(qc)).t_count == analyze(qc).t_count


def test_only_the_one_helper_compiles_code():
    # the builtins, not attribute calls such as re.compile: every generated
    # function goes through lowering._function
    calls = []
    for path in sorted(pathlib.Path(qsqrt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = {}
        for scope in ast.walk(tree):
            if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(scope):
                    scopes.setdefault(node, scope.name)  # outermost def
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("compile", "exec", "eval")
            ):
                calls.append((path.name, scopes.get(node), node.func.id))
    assert calls == [("lowering.py", "_function", "compile")]


@pytest.mark.parametrize("c", [build_isqrt_pipeline(8), build_ctrl_add_sub(5)],
                         ids=["isqrt pipeline n=8", "ctrl-add-sub n=5"])
@pytest.mark.parametrize("fn", [flatten, lower_to_clifford_t])
def test_a_repeated_op_shares_one_gate_record(fn, c):
    gates = fn(c).gates
    assert len({id(g) for g in gates}) == len(set(gates)) < len(gates) // 2
    # the records are made per call
    assert not {id(g) for g in gates} & {id(g) for g in fn(c).gates}
