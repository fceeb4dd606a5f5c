import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsqrt import (
    Circuit,
    PERMUTATION_KINDS,
    Gate,
    GateKind,
    assert_equiv,
    basis_statevector,
    build_adder,
    build_ctrl_adder,
    build_isqrt_circuit,
    build_isqrt_pipeline,
    flatten,
    lower_to_clifford_t,
    peres_circuit,
    perm_run,
    perm_run_many,
    sv_run,
)
from qsqrt.circuit import PRIMITIVE_ARITY
from qsqrt.errors import (
    CapacityError,
    CircuitError,
    InputRangeError,
    InvalidWidthError,
    MustLowerError,
    NonPermutationGateError,
)


def test_perm_run_gate_truth_tables():
    assert perm_run(Circuit(1).x(0), 0b0) == 0b1
    assert perm_run(Circuit(2).cx(0, 1), 0b01) == 0b11
    assert perm_run(Circuit(2).cx(0, 1), 0b10) == 0b10
    assert perm_run(Circuit(2).zcx(0, 1), 0b00) == 0b10
    assert perm_run(Circuit(2).zcx(0, 1), 0b01) == 0b01
    assert perm_run(Circuit(3).ccx(0, 1, 2), 0b011) == 0b111
    assert perm_run(Circuit(3).ccx(0, 1, 2), 0b001) == 0b001
    assert perm_run(Circuit(2).swap(0, 1), 0b01) == 0b10


def test_perm_run_rejects_non_permutation_gates():
    with pytest.raises(NonPermutationGateError):
        perm_run(Circuit(1).h(0), 0)
    with pytest.raises(NonPermutationGateError):
        perm_run(Circuit(1).t(0), 0)


def test_perm_run_rejects_out_of_range_state():
    with pytest.raises(InputRangeError):
        perm_run(Circuit(2).x(0), 4)


def test_perm_run_flattens_composites_on_the_fly():
    qc = Circuit(4)
    qc.append_composite("PERES", peres_circuit(), [3, 1, 0])
    # (a,b,c) = (q3,q1,q0): in a=1,b=1,c=0 -> a=1, b'=0, c'=1
    assert perm_run(qc, 0b1010) == 0b1001


def reference_run(c, state):
    """One basis state through `c`, one gate at a time.

    A composite reads its operands into a body state, runs the body on it
    recursively and writes the result back, so no operand maps are composed.
    """
    for g in c.gates:
        q = g.qubits
        bit = [state >> i & 1 for i in q]
        if g.kind is GateKind.COMPOSITE:
            out = reference_run(g.body, sum(b << i for i, b in enumerate(bit)))
            for i, target in enumerate(q):
                state = state & ~(1 << target) | (out >> i & 1) << target
        elif g.kind is GateKind.X:
            state ^= 1 << q[0]
        elif g.kind is GateKind.CX and bit[0]:
            state ^= 1 << q[1]
        elif g.kind is GateKind.ZCX and not bit[0]:
            state ^= 1 << q[1]
        elif g.kind is GateKind.CCX and bit[0] and bit[1]:
            state ^= 1 << q[2]
        elif g.kind is GateKind.SWAP and bit[0] != bit[1]:
            state ^= 1 << q[0] | 1 << q[1]
    return state


@st.composite
def permutation_circuits(draw, width, depth=2):
    """Random X/CX/ZCX/CCX/SWAP circuits with nested composites."""

    def operands(k):
        qubits = st.integers(0, width - 1)
        return draw(st.lists(qubits, min_size=k, max_size=k, unique=True))

    c = Circuit(width)
    for _ in range(draw(st.integers(0, 10))):
        if depth and draw(st.booleans()):
            qubits = operands(draw(st.integers(1, min(width, 9))))
            body = draw(permutation_circuits(len(qubits), depth - 1))
            c.append_composite("BLOCK", body, qubits)
            continue
        kind = draw(st.sampled_from(sorted(PERMUTATION_KINDS, key=lambda k: k.value)))
        if PRIMITIVE_ARITY[kind] <= width:
            c.append(Gate(kind, tuple(operands(PRIMITIVE_ARITY[kind]))))
    return c


@st.composite
def circuits_and_batches(draw):
    # widths on either side of byte and 64-bit word boundaries
    width = draw(st.sampled_from([1, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 70]))
    size = draw(st.sampled_from([1, 7, 64, 65]))
    lanes = st.integers(0, (1 << width) - 1)
    states = draw(st.lists(lanes, min_size=size, max_size=size))
    return draw(permutation_circuits(width)), states


@settings(max_examples=60, deadline=None)
@given(circuits_and_batches())
def test_perm_run_many_matches_reference_lane_by_lane(case):
    c, states = case
    assert perm_run_many(c, states) == [reference_run(c, s) for s in states]


def test_perm_run_many_empty_batch():
    assert perm_run_many(build_adder(2), []) == []


@pytest.mark.parametrize(
    "circuit", [Circuit(2).x(0).h(1), Circuit(2).cx(0, 1).t(0), Circuit(2).tdg(1)]
)
def test_perm_run_many_rejects_non_permutation_gates_like_perm_run(circuit):
    with pytest.raises(NonPermutationGateError):
        perm_run(circuit, 1)
    with pytest.raises(NonPermutationGateError):
        perm_run_many(circuit, [0, 1, 2, 3])
    wrapped = Circuit(3)
    wrapped.append_composite("BLOCK", circuit, [2, 0])
    with pytest.raises(NonPermutationGateError):
        perm_run_many(wrapped, [5, 6])


@pytest.mark.parametrize("bad", [-1, 4, 1 << 70])
def test_perm_run_many_rejects_out_of_range_states_like_perm_run(bad):
    circuit = Circuit(2).x(0)
    with pytest.raises(InputRangeError):
        perm_run(circuit, bad)
    with pytest.raises(InputRangeError, match=f"basis state {bad} "):
        perm_run_many(circuit, [0, 3, bad, 1])


def test_sv_hadamard_superposition():
    vec = sv_run(Circuit(1).h(0), basis_statevector(1, 0))
    assert vec == pytest.approx(np.array([1.0, 1.0]) / np.sqrt(2.0))


def test_sv_t_adds_phase_on_one():
    vec = sv_run(Circuit(1).t(0), basis_statevector(1, 1))
    assert vec[1] == pytest.approx(np.exp(1j * np.pi / 4))
    assert vec[0] == 0


def test_sv_tdg_undoes_t():
    qc = Circuit(1).t(0)
    qc.tdg(0)
    vin = np.array([1.0, 1.0j]) / np.sqrt(2.0)
    assert sv_run(qc, vin) == pytest.approx(vin)


def test_sv_rejects_unlowered_gates():
    with pytest.raises(MustLowerError):
        sv_run(Circuit(3).ccx(0, 1, 2), basis_statevector(3, 0))
    qc = Circuit(3)
    qc.append_composite("PERES", peres_circuit(), [0, 1, 2])
    with pytest.raises(MustLowerError):
        sv_run(qc, basis_statevector(3, 0))


def test_sv_width_cap():
    qc = Circuit(17).x(0)
    with pytest.raises(CapacityError):
        sv_run(qc, np.zeros(1 << 17))


def test_sv_cap_env_override(monkeypatch):
    monkeypatch.setenv("QSQRT_SV_CAP", "3")
    qc = Circuit(4).x(0)
    with pytest.raises(CapacityError):
        sv_run(qc, basis_statevector(4, 0))
    monkeypatch.setenv("QSQRT_SV_CAP", "4")
    sv_run(qc, basis_statevector(4, 0))


def test_sv_cap_env_must_be_an_integer(monkeypatch):
    monkeypatch.setenv("QSQRT_SV_CAP", "x")
    with pytest.raises(CircuitError, match="QSQRT_SV_CAP"):
        sv_run(Circuit(1).x(0), basis_statevector(1, 0))


def test_sv_does_not_mutate_input_vector():
    vin = basis_statevector(2, 1)
    sv_run(Circuit(2).cx(0, 1), vin)
    assert vin[1] == 1.0


def test_sv_norm_preserved_over_long_random_circuit():
    rng = random.Random(11)
    qc = Circuit(6)
    for _ in range(100_000):
        roll = rng.randrange(5)
        if roll == 0:
            qc.x(rng.randrange(6))
        elif roll == 1:
            qc.h(rng.randrange(6))
        elif roll == 2:
            qc.t(rng.randrange(6))
        elif roll == 3:
            qc.tdg(rng.randrange(6))
        else:
            a = rng.randrange(6)
            b = (a + 1 + rng.randrange(5)) % 6
            qc.cx(a, b)
    vec = sv_run(qc, basis_statevector(6, 0))
    assert abs(np.linalg.norm(vec) - 1.0) <= 1e-10


def test_perm_output_matches_single_sv_amplitude():
    add = build_adder(2)
    lowered = lower_to_clifford_t(add)
    for state in range(16):
        vec = sv_run(lowered, basis_statevector(4, state))
        assert abs(vec[perm_run(add, state)]) == pytest.approx(1.0, abs=1e-9)


def test_inverse_restores_random_statevector():
    qc = lower_to_clifford_t(build_adder(2))
    rng = np.random.default_rng(5)
    vin = rng.normal(size=16) + 1j * rng.normal(size=16)
    vin /= np.linalg.norm(vin)
    back = sv_run(qc.inverse(), sv_run(qc, vin))
    assert np.max(np.abs(back - vin)) < 1e-9


def test_inverse_restores_basis_states_through_permutation_gates():
    qc = build_isqrt_circuit(6)
    inv = qc.inverse()
    rng = random.Random(3)
    for _ in range(25):
        state = rng.randrange(1 << 13)
        assert perm_run(inv, perm_run(qc, state)) == state


@pytest.mark.parametrize(
    "circuit",
    [build_adder(4), build_ctrl_adder(4), build_isqrt_pipeline(4)],
    ids=["adder4", "ctrl_adder4", "isqrt_pipeline4"],
)
def test_generated_circuits_are_bijective(circuit):
    outputs = {perm_run(circuit, s) for s in range(1 << circuit.width)}
    assert len(outputs) == 1 << circuit.width


def test_assert_equiv_validates_ccx_decomposition():
    logical = Circuit(3).ccx(0, 1, 2)
    assert assert_equiv(logical, lower_to_clifford_t(logical)) is None


def test_assert_equiv_flags_first_counterexample():
    assert assert_equiv(Circuit(1).x(0), Circuit(1)) == 0
    # phase-only difference must be caught too
    t_only = Circuit(1).t(0)
    assert assert_equiv(Circuit(1), t_only) == 1


def test_assert_equiv_width_mismatch():
    with pytest.raises(InvalidWidthError):
        assert_equiv(Circuit(1).x(0), Circuit(2).x(0))


def test_assert_equiv_exhaustive_capacity_limits():
    wide_perm = Circuit(21).x(0)
    with pytest.raises(CapacityError):
        assert_equiv(wide_perm, wide_perm)
    wide_sv = Circuit(13).h(0)
    with pytest.raises(CapacityError):
        assert_equiv(wide_sv, wide_sv)


def test_assert_equiv_sampled_is_deterministic():
    logical = build_isqrt_circuit(6)
    flat = flatten(logical)
    assert assert_equiv(logical, flat, mode="sampled", seed=9) is None
