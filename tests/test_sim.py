import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsqrt import (
    DEFAULT_RULES,
    PERMUTATION_KINDS,
    CLIFFORD_T_KINDS,
    Circuit,
    DecompositionRule,
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
    sv_run_many,
    unitary,
)
from qsqrt.errors import (
    CapacityError,
    InputRangeError,
    InvalidWidthError,
    MustLowerError,
    NonPermutationGateError,
)
from qsqrt import sim
from qsqrt.cli import FAMILIES
from qsqrt.sim import _compile, _run
from strategies import (
    _nested_circuits,
    clifford_t_circuits,
    family_widths,
    permutation_circuits,
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
    # too wide to print in decimal: the message names its bit length
    with pytest.raises(InputRangeError, match="<20001-bit integer>"):
        perm_run(build_adder(2), 1 << 20000)


@pytest.mark.parametrize("index", [-1, 4, 1 << 20000], ids=["-1", "4", "2^20000"])
def test_basis_statevector_rejects_out_of_range_index(index):
    with pytest.raises(InputRangeError, match="basis index"):
        basis_statevector(2, index)


@pytest.mark.parametrize("index", [1.5, 2.0, "3", None, np.array([1, 2])])
def test_basis_statevector_rejects_non_integer_index(index):
    with pytest.raises(InputRangeError, match="basis index must be an integer"):
        basis_statevector(2, index)
    assert basis_statevector(2, np.uint8(3))[3] == 1.0


def test_basis_statevector_too_wide_to_allocate_is_a_capacity_error():
    # numpy refuses 2**70 entries before allocating any of them
    with pytest.raises(CapacityError, match="width 70"):
        basis_statevector(70, 0)


@pytest.mark.parametrize(
    "width, message",
    [(-1, "must be >= 1"), (0, "must be >= 1"), (1.5, "needs an integer width")],
)
def test_basis_statevector_rejects_invalid_widths(width, message):
    with pytest.raises(InvalidWidthError, match=message):
        basis_statevector(width, 0)
    assert basis_statevector(np.int64(1), 1).tolist() == [0, 1]


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


@settings(max_examples=60, deadline=None)
@given(
    width=st.sampled_from([1, 7, 8, 9, 57, 64, 65, 70]),
    count=st.sampled_from([0, 1, 5, 63, 64, 65, 129, 1000]),
    data=st.data(),
)
def test_transposes_match_a_bit_by_bit_reference(width, count, data):
    # batches on both sides of _BLOCK_TRANSPOSE_BYTES, widths of 64
    rows = data.draw(
        st.lists(st.integers(0, (1 << width) - 1), min_size=count, max_size=count)
    )
    cols = [
        sum((row >> q & 1) << k for k, row in enumerate(rows)) for q in range(width)
    ]
    assert sim._transpose(rows, width).tolist() == cols
    states = sim._transpose(cols, count)
    assert states.tolist() == rows
    # the output format of _run: uint64 up to 64 qubits, Python ints beyond
    if width <= 64:
        assert states.dtype == np.uint64
    else:
        assert states.dtype == object and all(type(s) is int for s in states)


@st.composite
def circuits_and_runs(draw):
    # widths on either side of 64 bits; a count of 2**16 repeats a column's
    # period as bytes, and the run starts anywhere that fits the width
    width = draw(st.integers(1, 70))
    count = min(draw(st.sampled_from([1, 5, 63, 64, 65, 1 << 16])), 1 << width)
    top = (1 << width) - count
    lo = draw(st.integers(0, top) | st.integers(0, top).map(lambda d: top - d))
    return draw(permutation_circuits(width, depth=1)), range(lo, lo + count)


@settings(max_examples=60, deadline=None)
@given(circuits_and_runs())
def test_a_run_of_states_reads_its_columns_from_the_counter(case):
    c, states = case
    program = _compile(c)
    out = _run(program, states)
    assert out.dtype == sim._lane_dtype(c.width)  # what verify builds its states in
    assert out.tolist() == _run(program, list(states)).tolist()
    assert out.tolist() == [reference_run(c, s) for s in states]


def test_compiled_program_takes_wide_entries_beyond_two_byte_qubits():
    c = Circuit(70_000).x(69_999)
    c.cx(69_999, 65_536).swap(65_536, 3).ccx(3, 69_999, 0).zcx(1, 65_535)
    program = _compile(c)
    assert program[1].itemsize >= 4
    states = [0, 1 << 69_999, 1 << 65_535 | 1 << 2]
    assert _run(program, states).tolist() == [reference_run(c, s) for s in states]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(permutation_circuits))
def test_inverse_after_circuit_is_identity_on_every_basis_state(c):
    states = list(range(1 << c.width))
    assert perm_run_many(c.inverse(), perm_run_many(c, states)) == states


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


NON_INTEGERS = [1.5, 2.0, np.float64(2.0), "3", None, np.array([1, 2])]


@pytest.mark.parametrize("width", [4, 80])
@pytest.mark.parametrize("bad", NON_INTEGERS, ids=repr)
def test_perm_run_rejects_non_integer_states(width, bad):
    circuit = Circuit(width).x(0)
    with pytest.raises(InputRangeError, match="basis state must be an integer"):
        perm_run(circuit, bad)
    with pytest.raises(InputRangeError, match="basis state must be an integer"):
        perm_run_many(circuit, [0, 3, bad, 1])
    # a generator is read once, and its bad state is still named
    with pytest.raises(InputRangeError, match="basis state must be an integer"):
        perm_run_many(circuit, (s for s in [0, 3, bad, 1]))


@pytest.mark.parametrize("width", [4, 80])
def test_perm_run_takes_numpy_integers_like_ints(width):
    circuit = Circuit(width).x(0).cx(0, 3).ccx(0, 3, 1)
    states = [0, 1, 9, 14]
    numpy_states = [np.uint64(0), np.int64(1), np.uint8(9), np.int32(14)]
    assert perm_run_many(circuit, numpy_states) == perm_run_many(circuit, states)
    assert perm_run(circuit, np.uint64(9)) == perm_run(circuit, 9)


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


def test_sv_run_takes_any_width_its_array_holds():
    out = sv_run(Circuit(17).x(0), basis_statevector(17, 0))
    assert out[1] == 1.0 and np.count_nonzero(out) == 1


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


@st.composite
def nested_clifford_t_and_columns(draw):
    """A Clifford+T circuit with composites nested two deep, and a batch of
    random normalised columns of its width."""
    width = draw(st.integers(1, 6))
    c = draw(_nested_circuits(width, 2, CLIFFORD_T_KINDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = rng.normal(size=(1 << width, 3)) + 1j * rng.normal(size=(1 << width, 3))
    return c, cols / np.linalg.norm(cols, axis=0)


@settings(max_examples=60, deadline=None)
@given(nested_clifford_t_and_columns())
def test_sv_kernel_runs_clifford_t_composites_like_their_flattening(case):
    c, cols = case
    assert np.array_equal(sv_run_many(c, cols), sv_run_many(flatten(c), cols))
    v = cols[:, 0]
    assert np.max(np.abs(sv_run(c.inverse(), sv_run(c, v)) - v)) < 1e-9


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


@pytest.mark.parametrize("samples", [0, -1, 1.5, "3"], ids=repr)
def test_assert_equiv_refuses_a_sample_count_that_checks_nothing(samples):
    # the second circuit differs on every input, so any case tested fails
    with pytest.raises(ValueError, match="samples must be"):
        assert_equiv(Circuit(2), Circuit(2).x(0), "sampled", samples)
    assert assert_equiv(Circuit(2), Circuit(2).x(0), "sampled", np.int64(1)) is not None


def test_assert_equiv_sampled_is_deterministic():
    logical = build_isqrt_circuit(6)
    flat = flatten(logical)
    assert assert_equiv(logical, flat, mode="sampled", seed=9) is None


_P0, _P1 = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
_ONE_QUBIT = {
    GateKind.X: np.array([[0.0, 1.0], [1.0, 0.0]]),
    GateKind.H: np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0),
    GateKind.T: np.diag([1.0, np.exp(1j * np.pi / 4)]),
    GateKind.TDG: np.diag([1.0, np.exp(-1j * np.pi / 4)]),
}


def dense_gate(width, gate):
    """The 2**width square matrix of one X/CX/H/T/TDG gate.

    Built with np.kron, qubit width-1 as the leftmost factor, so bit i of a
    row or column index is qubit i; CX is |0><0| (x) I + |1><1| (x) X.
    """

    def embed(factors):
        m = np.eye(1)
        for q in reversed(range(width)):
            m = np.kron(m, factors.get(q, np.eye(2)))
        return m

    if gate.kind is GateKind.CX:
        control, target = gate.qubits
        return embed({control: _P0}) + embed({control: _P1, target: _ONE_QUBIT[GateKind.X]})
    return embed({gate.qubits[0]: _ONE_QUBIT[gate.kind]})


def dense_reference(c, states):
    """`states` (columns) through `c` by dense matrix products."""
    for g in c.gates:
        states = dense_gate(c.width, g) @ states
    return states


@st.composite
def lowered_circuits_and_columns(draw):
    width = draw(st.integers(1, 6))
    batch = draw(st.sampled_from([1, 3, 8]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = rng.normal(size=(1 << width, batch)) + 1j * rng.normal(size=(1 << width, batch))
    cols /= np.linalg.norm(cols, axis=0)
    return draw(clifford_t_circuits(width)), cols


@settings(max_examples=80, deadline=None)
@given(lowered_circuits_and_columns())
def test_sv_run_many_matches_dense_reference_and_sv_run(case):
    c, states = case
    before = states.copy()
    got = sv_run_many(c, states)
    assert got.shape == states.shape
    assert np.max(np.abs(got - dense_reference(c, states))) < 1e-12
    for k in range(states.shape[1]):
        assert np.max(np.abs(got[:, k] - sv_run(c, states[:, k]))) < 1e-12
    assert np.array_equal(states, before)


@st.composite
def clifford_t_batches(draw):
    """A Clifford+T circuit of width 1..8 with a batch of 1, 3 or 64 basis
    inputs, and the same number of random normalised dense columns."""
    width = draw(st.integers(1, 8))
    batch = draw(st.sampled_from([1, 3, 64]))
    lanes = st.integers(0, (1 << width) - 1)
    inputs = draw(st.lists(lanes, min_size=batch, max_size=batch))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (1 << width, batch)
    cols = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return draw(clifford_t_circuits(width)), inputs, cols / np.linalg.norm(cols, axis=0)


@settings(max_examples=60, deadline=None)
@given(clifford_t_batches())
def test_sparse_kernel_matches_dense_reference_on_basis_and_dense_columns(case):
    c, inputs, cols = case
    one_hot = np.zeros_like(cols)
    one_hot[inputs, np.arange(len(inputs))] = 1.0
    want = dense_reference(c, one_hot)
    from_entries = sim._dense(*sim._run_basis(c, inputs), c.width, len(inputs))
    assert np.max(np.abs(from_entries - want)) < 1e-12
    assert np.max(np.abs(sv_run_many(c, one_hot) - want)) < 1e-12
    assert np.max(np.abs(sv_run_many(c, cols) - dense_reference(c, cols))) < 1e-12


@pytest.mark.parametrize(
    "width, count, dtype",
    [(62, 2, np.uint64), (63, 2, object), (63, 1, np.uint64), (64, 1, object),
     (55, 256, np.uint64), (56, 256, object), (129, 3, object)],
)
def test_entry_keys_turn_to_python_ints_past_63_bits(width, count, dtype):
    rows = [(1 << width) - 1 - k for k in range(count)]
    keys = sim._pack(np.arange(count), rows, width, count)
    assert keys.dtype == dtype
    assert keys.tolist() == [k << width | row for k, row in enumerate(rows)]


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 6).flatmap(clifford_t_circuits), st.data())
def test_sparse_kernel_runs_python_int_keys_like_uint64_keys(c, data):
    lanes = st.integers(0, (1 << c.width) - 1)
    inputs = data.draw(st.lists(lanes, min_size=1, max_size=64))
    keys, amps = sim._basis(inputs, c.width)
    small = sim._sv_entries(c, keys.copy(), amps.copy(), len(inputs))
    big = sim._sv_entries(c, keys.astype(object), amps.copy(), len(inputs))
    assert small[0].dtype == np.uint64 and big[0].dtype == object
    assert small[0].tolist() == big[0].tolist()
    assert np.array_equal(small[1], big[1])


def families_up_to_width_8():
    for name, family in FAMILIES.items():
        for n in family_widths(family, 9):
            yield f"{name}-{n}", family.build(n)
    yield "isqrt-pipeline-16", build_isqrt_pipeline(16)


def test_basis_inputs_hold_two_entries_at_most(monkeypatch):
    # every H comes from a Toffoli template, whose second H on the target
    # recombines the two branches its first H made
    combine = sim._combine
    most = {}

    def counting(keys, amps):
        keys, amps = combine(keys, amps)
        cols = (keys >> keys.dtype.type(width)).astype(np.intp)
        most[name] = max(most[name], np.bincount(cols).max(initial=0))
        return keys, amps

    monkeypatch.setattr(sim, "_combine", counting)
    rng = random.Random(8)
    for name, c in families_up_to_width_8():
        width, most[name] = c.width, 1
        inputs = [rng.randrange(1 << width) for _ in range(32)]
        sim._run_basis(lower_to_clifford_t(c), inputs)
    # adder, subtractor and ctrl-add-sub at n = 1 hold no Toffoli
    assert [name for name, peak in most.items() if peak != 2] == [
        "adder-1", "subtractor-1", "ctrl-add-sub-1"
    ]
    assert max(most.values()) == 2 and len(most) == 35


@pytest.mark.parametrize(
    "shape", [(4,), (5, 2), (8, 1), (4, 2, 1)], ids=["1-D", "rows", "wider", "3-D"]
)
def test_sv_run_many_rejects_wrong_shapes(shape):
    states = np.zeros(shape, dtype=complex)
    states.reshape(-1)[0] = 1.0
    with pytest.raises(InvalidWidthError):
        sv_run_many(Circuit(2).x(0), states)


def test_sv_run_rejects_a_column_matrix():
    with pytest.raises(InvalidWidthError):
        sv_run(Circuit(2).x(0), basis_statevector(2, 0)[:, None])


def test_sv_run_many_rejects_unlowered_gates():
    with pytest.raises(MustLowerError):
        sv_run_many(Circuit(3).ccx(0, 1, 2), np.eye(8))
    qc = Circuit(3).h(0)
    qc.append_composite("PERES", peres_circuit(), [0, 1, 2])
    with pytest.raises(MustLowerError):
        sv_run_many(qc, np.eye(8))


def test_sv_run_many_checks_every_column_norm():
    states = np.eye(4, dtype=complex)
    states[:, 2] *= 1.0 + 1e-9
    with pytest.raises(ValueError, match="normalised"):
        sv_run_many(Circuit(2).h(0), states)


@pytest.mark.parametrize("amp", [np.nan, np.inf, complex(0, np.nan)])
def test_sv_run_many_rejects_nan_and_inf_amplitudes(amp):
    with pytest.raises(ValueError, match="normalised"):
        sv_run(Circuit(1).h(0), np.array([amp, 0]))
    states = np.eye(4, dtype=complex)
    states[1, 2] = amp
    with pytest.raises(ValueError, match="normalised"):
        sv_run_many(Circuit(2).h(0), states)


def test_sv_run_many_empty_batch():
    assert sv_run_many(Circuit(2).h(0), np.zeros((4, 0))).shape == (4, 0)


def with_t_flipped(c, count=1):
    """`c` lowered, with its first `count` T gates turned into TDG."""
    broken = Circuit(c.width)
    for g in lower_to_clifford_t(c).gates:
        if g.kind is GateKind.T and count:
            g, count = Gate(GateKind.TDG, g.qubits), count - 1
        broken.append(g)
    assert count == 0
    return broken


def first_difference_input_by_input(a, b, inputs):
    """assert_equiv's answer, one input at a time through perm_run/sv_run."""

    def output(c, s):
        if all(g.kind in PERMUTATION_KINDS for g in flatten(c).gates):
            return basis_statevector(c.width, perm_run(c, s))
        return sv_run(lower_to_clifford_t(c), basis_statevector(c.width, s))

    for s in inputs:
        if np.max(np.abs(output(a, s) - output(b, s))) > 1e-9:
            return s
    return None


def sampled_inputs(width, samples, seed):
    rng = random.Random(seed)
    return [rng.randrange(1 << width) for _ in range(samples)]


_LOGICAL_CCX = Circuit(3).ccx(0, 1, 2)
# 8 qubits, 256 inputs: the counter's columns span four 64-bit words
_ADDER4, _GATE_DELETED = build_adder(4), build_adder(4)
del _GATE_DELETED.gates[len(_GATE_DELETED.gates) // 2]
_EQUIV_PAIRS = {
    "adder-vs-gate-deleted": (_ADDER4, _GATE_DELETED),
    "gate-deleted-vs-adder": (_GATE_DELETED, _ADDER4),
    "ccx-vs-broken": (_LOGICAL_CCX, with_t_flipped(_LOGICAL_CCX)),
    "broken-vs-ccx": (with_t_flipped(_LOGICAL_CCX), _LOGICAL_CCX),
    "lowered-vs-broken": (lower_to_clifford_t(_LOGICAL_CCX), with_t_flipped(_LOGICAL_CCX)),
    "adder-vs-broken": (build_adder(3), with_t_flipped(build_adder(3), 2)),
    "h-vs-ht": (Circuit(2).h(1), Circuit(2).h(1).t(1)),
    "ccx-vs-lowered": (_LOGICAL_CCX, lower_to_clifford_t(_LOGICAL_CCX)),
}


@pytest.mark.parametrize("pair", _EQUIV_PAIRS)
def test_assert_equiv_returns_the_first_difference_of_an_input_loop(pair):
    a, b = _EQUIV_PAIRS[pair]
    inputs = range(1 << a.width)
    expected = first_difference_input_by_input(a, b, inputs)
    assert assert_equiv(a, b) == expected
    assert (expected is None) == (pair == "ccx-vs-lowered")
    for seed in range(6):
        # 20 samples of at most 64 basis states: most seeds repeat some
        inputs = sampled_inputs(a.width, 20, seed)
        expected = first_difference_input_by_input(a, b, inputs)
        assert assert_equiv(a, b, mode="sampled", samples=20, seed=seed) == expected


def test_assert_equiv_runs_the_permutation_side_unlowered(monkeypatch):
    # under a faulty CCX rule, lowering the logical side as well would hide it
    broken = with_t_flipped(_LOGICAL_CCX)
    monkeypatch.setitem(DEFAULT_RULES, GateKind.CCX, DecompositionRule(GateKind.CCX, broken))
    assert lower_to_clifford_t(_LOGICAL_CCX).gates == broken.gates
    assert assert_equiv(_LOGICAL_CCX, broken) is not None
    assert assert_equiv(broken, _LOGICAL_CCX) is not None


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_assert_equiv_lowers_a_side_that_is_neither_permutation_nor_clifford_t(
    monkeypatch, mode
):
    mixed = Circuit(3).h(0).ccx(0, 1, 2).h(0)
    moved = Circuit(3).h(0).ccx(0, 1, 2).h(1)  # differs on every input
    lowered = []
    lower = sim.lower_to_clifford_t
    monkeypatch.setattr(sim, "lower_to_clifford_t", lambda c: lowered.append(c) or lower(c))
    assert assert_equiv(mixed, lower(mixed), mode) is None
    assert lowered == [mixed]
    first = 0 if mode == "exhaustive" else sampled_inputs(3, 100, 0)[0]
    assert assert_equiv(mixed, moved, mode) == first
    assert lowered == [mixed, mixed, moved]


def test_assert_equiv_refuses_an_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode 'fast'"):
        assert_equiv(Circuit(1), Circuit(1), mode="fast")


@pytest.mark.parametrize("matrix", [unitary, sim.permutation_matrix])
def test_dense_matrices_past_the_cap_raise_before_allocating(matrix):
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="capped at 10 qubits"):
            matrix(Circuit(11))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the 2^11 x 2^11 matrix would take 32 MB or more


# not 2: the flipped-T pairs leave a template's closing H unrecombined, so
# one of their columns holds 4 entries
@pytest.mark.parametrize("entries", [4, 16, 40, 64])
def test_small_column_batches_answer_like_one_batch(monkeypatch, entries):
    adder = build_adder(3)
    subtractor = lower_to_clifford_t(adder).inverse()
    cases = [(*pair, mode, seed) for pair in _EQUIV_PAIRS.values()
             for mode, seed in (("exhaustive", 0), ("sampled", 1), ("sampled", 4))]
    cases += [(adder, subtractor, "exhaustive", 0), (adder, lower_to_clifford_t(adder), "sampled", 2)]

    def answers():
        return [assert_equiv(a, b, mode=mode, samples=30, seed=seed)
                for a, b, mode, seed in cases]

    single = answers()
    monkeypatch.setattr(sim, "_SV_MAX_ENTRIES", entries)
    assert answers() == single
    assert single[-2] is not None and single[-1] is None


def all_h(width):
    c = Circuit(width)
    for q in range(width):
        c.h(q)
    return c


def test_basis_batches_stop_at_the_entry_bound():
    # one sampled column of 21 qubits spreads over 2**21 basis states
    with pytest.raises(CapacityError, match="more than 1048576"):
        assert_equiv(all_h(21), all_h(21), "sampled", 1)


def test_batches_halve_until_they_fit_the_entry_bound(monkeypatch):
    monkeypatch.setattr(sim, "_SV_MAX_ENTRIES", 64)
    with pytest.raises(CapacityError):  # all 16 columns as one batch
        sim._run_basis(all_h(4), range(16))
    assert assert_equiv(all_h(4), all_h(4)) is None
    phased = all_h(4).t(2)
    expected = first_difference_input_by_input(all_h(4), phased, range(16))
    assert expected is not None
    assert assert_equiv(all_h(4), phased) == expected


@pytest.mark.parametrize("perm_first", [True, False], ids=["perm-first", "perm-second"])
def test_halved_batches_compile_the_permutation_side_once(monkeypatch, perm_first):
    adder = build_adder(3)
    pair = (adder, lower_to_clifford_t(adder))
    compiled = []
    compile_ = sim._compile
    monkeypatch.setattr(sim, "_compile", lambda c: compiled.append(c) or compile_(c))
    halved = []
    run_basis = sim._run_basis

    def counting_run_basis(c, states):
        try:
            return run_basis(c, states)
        except CapacityError:
            halved.append(len(states))
            raise

    monkeypatch.setattr(sim, "_run_basis", counting_run_basis)
    # 64 inputs of two entries each: 16 columns per batch do not fit, 8 do
    monkeypatch.setattr(sim, "_SV_MAX_ENTRIES", 16)
    assert assert_equiv(*(pair if perm_first else pair[::-1])) is None
    assert halved == [16]
    assert compiled == [adder]


def test_entry_bound_holds_basis_batches_alone(monkeypatch):
    monkeypatch.setattr(sim, "_SV_MAX_ENTRIES", 8)
    assert assert_equiv(all_h(3), all_h(3), "sampled", 1) is None
    with pytest.raises(CapacityError):
        assert_equiv(all_h(4), all_h(4), "sampled", 1)
    with pytest.raises(CapacityError):
        unitary(all_h(4))
    # a dense batch is bounded by the caller's own array
    assert np.allclose(sv_run(all_h(4), basis_statevector(4, 0)), 0.25)
