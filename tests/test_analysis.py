import random

import numpy as np
import pytest

from qsqrt import (
    Circuit,
    GateKind,
    analyze,
    basis_statevector,
    build_adder,
    build_ctrl_adder,
    build_isqrt_circuit,
    build_subtractor,
    count_ops,
    expected_t_count_adder,
    expected_t_count_ctrl_adder,
    expected_t_count_isqrt,
    flatten,
    lower_to_clifford_t,
    peres_circuit,
    perm_run,
    schedule_layers,
    sv_run,
)
from qsqrt.errors import InvalidWidthError, MustLowerError


def _replayed_by_layer(circuit):
    """Reorder gates so each layer runs back to front; a valid schedule
    must make this reordering unobservable."""
    layers = schedule_layers(circuit)
    order = sorted(range(len(circuit.gates)), key=lambda i: (layers[i], -i))
    replay = Circuit(circuit.width, circuit.name)
    for i in order:
        replay.append(circuit.gates[i])
    return replay


def test_count_ops_lowered_peres():
    qc = Circuit(3)
    qc.append_composite("PERES", peres_circuit(), [0, 1, 2])
    hist = count_ops(lower_to_clifford_t(qc))
    assert hist == {
        GateKind.H: 2,
        GateKind.CX: 7,
        GateKind.T: 4,
        GateKind.TDG: 3,
    }


def test_count_ops_empty_circuit():
    assert count_ops(Circuit(1)) == {}


def test_count_ops_hides_composite_names():
    hist = count_ops(build_subtractor(3))
    assert GateKind.COMPOSITE not in hist


def test_count_ops_isqrt6_t_total():
    hist = count_ops(lower_to_clifford_t(build_isqrt_circuit(6)))
    assert hist[GateKind.T] + hist[GateKind.TDG] == 224


def test_t_count_examples():
    assert analyze(build_adder(4)).t_count == 42
    assert analyze(Circuit(2).cx(0, 1)).t_count == 0


@pytest.mark.parametrize(
    "n,expected",
    [(6, 224), (8, 364), (10, 532), (12, 728), (14, 952), (16, 1204)],
)
def test_isqrt_t_count_matches_formula(n, expected):
    assert expected_t_count_isqrt(n) == expected
    assert analyze(build_isqrt_circuit(n)).t_count == expected


def test_expected_t_count_validation():
    # each closed form raises its builder's own message
    for formula, build, n in [
        (expected_t_count_isqrt, build_isqrt_circuit, 2),
        (expected_t_count_isqrt, build_isqrt_circuit, 5),
        (expected_t_count_isqrt, build_isqrt_circuit, 7),
        (expected_t_count_adder, build_adder, 0),
        (expected_t_count_ctrl_adder, build_ctrl_adder, 1),
    ]:
        with pytest.raises(InvalidWidthError) as built:
            build(n)
        with pytest.raises(InvalidWidthError) as counted:
            formula(n)
        assert str(counted.value) == str(built.value)
        assert str(built.value).startswith("n must be")


@pytest.mark.parametrize(
    "formula", [expected_t_count_isqrt, expected_t_count_adder, expected_t_count_ctrl_adder]
)
@pytest.mark.parametrize("n", [6.0, 4.5, "4", None], ids=repr)
def test_expected_t_count_rejects_non_integer_widths(formula, n):
    with pytest.raises(InvalidWidthError, match="needs an integer width"):
        formula(n)
    assert formula(np.int64(6)) == formula(6)


def test_schedule_single_gate():
    assert schedule_layers(Circuit(1).x(0)) == [1]


def test_schedule_disjoint_gates_share_a_layer():
    qc = Circuit(2).x(0)
    qc.x(1)
    assert schedule_layers(qc) == [1, 1]


def test_schedule_shared_qubit_forces_sequence():
    qc = Circuit(2).cx(0, 1)
    qc.x(1)
    assert schedule_layers(qc) == [1, 2]


def test_schedule_rejects_composites():
    with pytest.raises(MustLowerError):
        schedule_layers(build_subtractor(2))


def test_layers_have_pairwise_disjoint_qubits():
    low = lower_to_clifford_t(build_isqrt_circuit(6))
    layers = schedule_layers(low)
    seen: set[tuple[int, int]] = set()
    for gate, layer in zip(low.gates, layers):
        for q in gate.qubits:
            assert (layer, q) not in seen
            seen.add((layer, q))


def test_layered_replay_matches_sequential_perm():
    flat = flatten(build_isqrt_circuit(6))
    replay = _replayed_by_layer(flat)
    rng = random.Random(8)
    for _ in range(100):
        state = rng.randrange(1 << 13)
        assert perm_run(replay, state) == perm_run(flat, state)


def test_layered_replay_matches_sequential_sv():
    low = lower_to_clifford_t(build_adder(2))
    replay = _replayed_by_layer(low)
    rng = np.random.default_rng(10)
    vin = rng.normal(size=16) + 1j * rng.normal(size=16)
    vin /= np.linalg.norm(vin)
    assert np.max(np.abs(sv_run(replay, vin) - sv_run(low, vin))) < 1e-9


def test_t_depth_zero_without_t_gates():
    assert analyze(Circuit(2).cx(0, 1)).t_depth == 0


def test_t_depth_counts_parallel_ts_once():
    qc = Circuit(2).t(0)
    qc.t(1)
    assert analyze(qc).t_depth == 1


def test_t_depth_lowered_ccx_regression():
    # scheduler baseline, measured once and pinned
    low = lower_to_clifford_t(Circuit(3).ccx(0, 1, 2))
    assert analyze(low).t_depth == 6
    assert analyze(low).total_depth == 12


def test_t_depth_never_decreases_while_appending():
    low = lower_to_clifford_t(build_adder(2))
    partial = Circuit(low.width)
    previous = 0
    for gate in low.gates:
        partial.append(gate)
        current = analyze(partial).t_depth
        assert current >= previous
        previous = current


def test_analyze_report_invariants():
    report = analyze(build_isqrt_circuit(6))
    assert report.width == 13
    assert report.t_count == 224
    assert report.t_count == (
        report.histogram[GateKind.T] + report.histogram[GateKind.TDG]
    )
    assert report.t_depth <= report.total_depth
    assert report.t_depth <= report.t_count


def test_t_count_additive_under_concatenation():
    first = build_adder(3)
    second = build_ctrl_adder(3)
    combined = Circuit(7)
    combined.append_composite("ADD", first, list(range(6)))
    combined.append_composite("CTRL ADD", second, list(range(7)))
    assert analyze(combined).t_count == (
        analyze(first).t_count + analyze(second).t_count
    )
