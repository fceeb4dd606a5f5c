import gc
import random
import sys
import traceback
import tracemalloc
import types
from array import array

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
    build_ctrl_add_sub,
    build_ctrl_adder,
    build_isqrt_circuit,
    build_isqrt_pipeline,
    flatten,
    isqrt,
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
from qsqrt.circuit import PRIMITIVE_ARITY, iter_primitive_ops
from qsqrt.cli import FAMILIES
from qsqrt.sim import _compile, _run
from strategies import (
    _nested_circuits,
    clifford_t_circuits,
    family_widths,
    mixed_circuits,
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
    got = out.tolist()
    assert got == _run(program, list(states)).tolist()
    # the reference walks one state at a time: every lane of a short run, and
    # of a long one its ends and a seeded sample
    lanes = range(len(states))
    if len(lanes) > 66:
        lanes = [0, *random.Random(states.start).sample(lanes, 64), len(lanes) - 1]
    assert [got[k] for k in lanes] == [reference_run(c, states[k]) for k in lanes]


def test_compiled_program_takes_wide_entries_beyond_two_byte_qubits():
    c = Circuit(70_000).x(69_999)
    c.cx(69_999, 65_536).swap(65_536, 3).ccx(3, 69_999, 0).zcx(1, 65_535)
    program = _compile(c)
    assert program.code.itemsize >= 4
    states = [0, 1 << 69_999, 1 << 65_535 | 1 << 2]
    assert _run(program, states).tolist() == [reference_run(c, s) for s in states]


_ARITY = {op: PRIMITIVE_ARITY[kind] for kind, op in sim._OPCODES.items()}
# every phase opcode acts on one qubit's column and the phase columns
_PHASE_OPS = sorted(set(sim._STATEMENTS) - set(_ARITY))
_ARITY.update(dict.fromkeys(_PHASE_OPS, 1))


def test_every_opcode_has_one_statement():
    assert sorted(sim._STATEMENTS) == list(range(len(sim._STATEMENTS)))
    assert _PHASE_OPS == list(range(sim._T_A, sim._H_CLOSE + 1))
    assert all("\n" not in statement for statement in sim._STATEMENTS.values())


@st.composite
def programs_and_columns(draw):
    # any width up to 130 qubits, one lane or 200; SWAP-only and empty
    # programs, programs repeated past one generated chunk, and path-sum
    # programs, whose phase columns follow the qubits' and start anywhere
    width = draw(st.integers(1, 130))
    lanes = draw(st.sampled_from([1, 200]))
    opcodes = [op for op in sim._OPCODES.values() if _ARITY[op] <= width]
    columns = width
    if draw(st.booleans()):
        opcodes += _PHASE_OPS
        columns += sim._PHASE_COLUMNS
    elif width > 1 and draw(st.booleans()):
        opcodes = [sim._SWAP]
    code = []
    for _ in range(draw(st.integers(0, 12))):
        op = draw(st.sampled_from(opcodes))
        qubits = draw(
            st.lists(st.integers(0, width - 1), min_size=_ARITY[op],
                     max_size=_ARITY[op], unique=True)
        )
        code += [op, *qubits, *sim._PAD[len(qubits)]]
    if code and draw(st.booleans()):
        code *= sim._CHUNK_OPS // (len(code) // 4) + 1
    rng = draw(st.randoms(use_true_random=False))
    return columns, array("H", code), lanes, [rng.getrandbits(lanes) for _ in range(columns)]


@settings(max_examples=60, deadline=None)
@given(programs_and_columns())
def test_generated_kernel_matches_the_loop(case):
    width, code, lanes, cols = case
    chunks = sim._generate(width, code)
    assert len(chunks) == -(-len(code) // (4 * sim._CHUNK_OPS))
    out = list(cols)
    for chunk in chunks:
        out = chunk(out, (1 << lanes) - 1)
    assert out == sim._run_columns(code, list(cols), lanes)


def test_generated_tracebacks_render_without_source_positions():
    program = _compile(build_isqrt_pipeline(8))
    (chunk,) = sim._generate(program.width, program.code)
    if sys.version_info >= (3, 11):  # 3.10's table has another format, kept
        positions = set(chunk.__code__.co_positions())
        assert positions == {(None, None, None, None)}
    with pytest.raises(TypeError) as raised:  # a traceback still renders
        chunk(["not a column"] * program.width, 1)
    assert "<generated kernel>" in "".join(traceback.format_tb(raised.tb))


@pytest.mark.parametrize("width", [1, 63, 64, 65, 129])
def test_one_state_skips_the_transposes_and_answers_alike(width):
    rng = random.Random(width)
    c = Circuit(width).x(width - 1)
    if width > 2:
        c.ccx(0, width - 1, 1).swap(1, width - 2).cx(width - 2, 0).zcx(0, 2)
    program = _compile(c)
    for state in (0, (1 << width) - 1, rng.getrandbits(width)):
        cols = sim._bits_of(state, width)
        assert cols == sim._transpose([state], width).tolist()
        assert sim._int_of_bits(cols) == state
        assert sim._transpose(cols, 1).tolist() == [state]
        out = _run(program, [state])
        assert out.dtype == sim._lane_dtype(width)
        assert out.tolist() == _run(program, [state, state]).tolist()[:1]
        assert out.tolist() == [reference_run(c, state)]


def test_programs_compiled_for_one_call_never_generate(monkeypatch):
    generated = []
    monkeypatch.setattr(sim, "_generate", lambda *args: generated.append(args))
    adder, states = build_adder(3), [1, 2, 3]
    for _ in range(3):
        assert perm_run_many(adder, states) == [reference_run(adder, s) for s in states]
        sim.permutation_matrix(adder)
        assert assert_equiv(adder, adder) is None
    assert generated == []


def test_generated_kernels_live_only_while_their_programs_are_cached():
    def generated_functions():
        gc.collect()
        return [
            f for f in gc.get_objects()
            if isinstance(f, types.FunctionType)
            and f.__code__.co_filename == "<generated kernel>"
        ]

    for a in (5, 6, 7):  # the second call generates
        isqrt(a, 8)
    assert sim._cached_program(build_isqrt_pipeline, 8).chunks
    assert generated_functions()
    sim._cached_program.cache_clear()
    assert generated_functions() == []


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


def test_sv_norm_drift_raises(monkeypatch):
    monkeypatch.setitem(sim._PHASES, GateKind.T, 1.5)  # not a unit phase
    with pytest.raises(RuntimeError, match="statevector norm drifted"):
        sv_run(Circuit(1).x(0).t(0), basis_statevector(1, 0))


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


def test_assert_equiv_caps_sampled_inputs_at_the_exhaustive_maximum():
    # refused before any input is drawn, so a huge count cannot hang
    with pytest.raises(CapacityError, match="capped at 1048576 inputs"):
        assert_equiv(Circuit(2), Circuit(2), "sampled", (1 << 20) + 1)


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

    def output(c):
        if all(g.kind in PERMUTATION_KINDS for g in flatten(c).gates):
            return lambda s: basis_statevector(c.width, perm_run(c, s))
        lowered = lower_to_clifford_t(c)
        return lambda s: sv_run(lowered, basis_statevector(c.width, s))

    run_a, run_b = output(a), output(b)
    for s in inputs:
        if np.max(np.abs(run_a(s) - run_b(s))) > 1e-9:
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
    # two lowerings: both sides compile to path-sum programs
    "lowered-adder-vs-broken": (
        lower_to_clifford_t(build_adder(3)), with_t_flipped(build_adder(3), 2)
    ),
    "broken-vs-lowered-adder": (
        with_t_flipped(build_adder(3), 2), lower_to_clifford_t(build_adder(3))
    ),
    "lowered-vs-itself": (lower_to_clifford_t(_LOGICAL_CCX),) * 2,
    "h-vs-ht": (Circuit(2).h(1), Circuit(2).h(1).t(1)),
    "ccx-vs-lowered": (_LOGICAL_CCX, lower_to_clifford_t(_LOGICAL_CCX)),
}


@pytest.mark.parametrize("pair", _EQUIV_PAIRS)
def test_assert_equiv_returns_the_first_difference_of_an_input_loop(pair):
    a, b = _EQUIV_PAIRS[pair]
    inputs = range(1 << a.width)
    expected = first_difference_input_by_input(a, b, inputs)
    assert assert_equiv(a, b) == expected
    assert (expected is None) == (pair in {"ccx-vs-lowered", "lowered-vs-itself"})
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


def test_a_mixed_side_runs_its_rules_templates_bit_sliced(monkeypatch):
    # the path sum compiles the lowering's gate stream, so this CCX runs as
    # its rule's template, and a faulty rule must still be found
    logical = Circuit(4).ccx(0, 1, 2)
    mixed = Circuit(4).h(3).t(3).tdg(3).h(3).ccx(0, 1, 2)
    lowered = sim._compile_path_sum(lower_to_clifford_t(mixed))
    assert sim._compile_path_sum(mixed).code == lowered.code
    assert assert_equiv(logical, mixed) is None
    broken = with_t_flipped(_LOGICAL_CCX)
    monkeypatch.setitem(DEFAULT_RULES, GateKind.CCX, DecompositionRule(GateKind.CCX, broken))
    expected = first_difference_input_by_input(logical, mixed, range(16))
    assert expected is not None
    monkeypatch.setattr(sim, "_sv_entries", None)  # bit-sliced throughout
    assert assert_equiv(logical, mixed) == assert_equiv(mixed, logical) == expected


@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_assert_equiv_lowers_a_side_that_is_neither_permutation_nor_clifford_t(
    monkeypatch, mode
):
    mixed = Circuit(3).h(0).ccx(0, 1, 2).h(0)
    moved = Circuit(3).h(0).ccx(0, 1, 2).h(1)  # differs on every input
    lowered = lower_to_clifford_t(mixed)
    ran = []
    run_basis = sim._run_basis
    monkeypatch.setattr(sim, "_run_basis", lambda c, s: ran.append(c) or run_basis(c, s))

    def refuse(*args):
        raise AssertionError("a circuit was built")

    # the sparse kernel reads the lowering of every side it runs, the
    # Clifford+T one too, as a gate stream: the CCX runs as its template,
    # and no lowered circuit is built
    monkeypatch.setattr(Circuit, "__init__", refuse)
    assert assert_equiv(mixed, lowered, mode) is None
    assert ran == [mixed, lowered]
    first = 0 if mode == "exhaustive" else sampled_inputs(3, 100, 0)[0]
    assert assert_equiv(mixed, moved, mode) == first
    assert ran == [mixed, lowered, mixed, moved]


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
    # a second H opens while one is open, so the pair runs on the sparse kernel
    adder = build_adder(2)
    pair = (adder, lower_to_clifford_t(adder).h(0).h(1).h(1).h(0))
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
    # 16 inputs of four entries at most: 16 columns per batch do not fit, 8 do
    monkeypatch.setattr(sim, "_SV_MAX_ENTRIES", 32)
    args = pair if perm_first else pair[::-1]
    assert assert_equiv(*args) is None
    assert halved == [16]
    # compiling a side is what classifies it: each once, in argument order
    assert compiled == list(args)


def test_entry_bound_holds_basis_batches_alone(monkeypatch):
    monkeypatch.setattr(sim, "_SV_MAX_ENTRIES", 8)
    assert assert_equiv(all_h(3), all_h(3), "sampled", 1) is None
    with pytest.raises(CapacityError):
        assert_equiv(all_h(4), all_h(4), "sampled", 1)
    with pytest.raises(CapacityError):
        unitary(all_h(4))
    # a dense batch is bounded by the caller's own array
    assert np.allclose(sv_run(all_h(4), basis_statevector(4, 0)), 0.25)


def phase_columns(lanes, rng):
    """Random columns of one qubit and the phase columns after it."""
    return [rng.getrandbits(lanes) for _ in range(1 + sim._PHASE_COLUMNS)]


def lane_values(cols, k):
    """Lane k of one-qubit path-sum columns: (x, A, B, f1, f2)."""
    x, a0, a1, a2, b0, b1, b2, f1, f2 = (col >> k & 1 for col in cols)
    return x, a0 | a1 << 1 | a2 << 2, b0 | b1 << 1 | b2 << 2, f1, f2


_TURNS = {  # eighth turns each T or TDG opcode adds to branch A, and to B
    sim._T_A: (1, None), sim._TDG_A: (-1, None),
    sim._T_AB: (1, 0), sim._TDG_AB: (-1, 0),
    sim._T_AX: (1, 1), sim._TDG_AX: (-1, 1),
}


@pytest.mark.parametrize("op", _PHASE_OPS)
def test_phase_opcodes_do_their_arithmetic_lane_by_lane(op):
    rng, lanes = random.Random(op), 256
    cols = phase_columns(lanes, rng)
    code = array("H", [op, 0, 0, 0])
    looped = sim._run_columns(code, list(cols), lanes)
    (chunk,) = sim._generate(len(cols), code)
    assert chunk(list(cols), (1 << lanes) - 1) == looped
    for k in range(lanes):
        x, a, b, f1, f2 = lane_values(cols, k)
        got = lane_values(looped, k)
        if op in _TURNS:  # the branch bit of B is x, flipped where x is in the mask
            sign, flip = _TURNS[op]
            b_out = b if flip is None else (b + sign * (x ^ flip)) % 8
            assert got == (x, (a + sign * x) % 8, b_out, f1, f2)
        elif op == sim._H_OPEN:  # branch A takes x = 0, B x = 1 with phase 4 x
            assert got == (0, a, (a + 4 * x) % 8, f1, f2)
        else:  # recombined where d = A - B is 0 or 4, else flagged
            d = (a - b) % 8
            if d % 4:
                assert got[3:] == (1, f1 | f2)
            else:
                assert got == (d >> 2, (a + 4 * (x & d >> 2)) % 8, b, f1, f2)


_REJECTED = {  # each equal to the identity, which a permutation circuit is
    "second-open-h": (Circuit(2).h(0).h(1).h(1).h(0), "opens a second H"),
    "closing-h-mask": (
        Circuit(2).h(0).cx(0, 1).h(0).h(0).cx(0, 1).h(0), "also differ on other"
    ),
    "left-open": (Circuit(1).h(0), "left open"),
    # the CCX template opens its own H while qubit 0's is open
    "ccx-control": (Circuit(3).h(0).ccx(0, 1, 2).ccx(0, 1, 2).h(0), "opens a second H"),
}


@pytest.mark.parametrize("case", _REJECTED)
def test_circuits_the_path_sum_cannot_follow_fall_back_alike(monkeypatch, case):
    circuit, message = _REJECTED[case]
    with pytest.raises(sim._PathSumError, match=message):
        sim._compile_path_sum(circuit)
    identity = Circuit(circuit.width)
    inputs = range(1 << circuit.width)
    expected = first_difference_input_by_input(identity, circuit, inputs)
    assert (expected is None) == (case != "left-open")
    sparse = []
    entries = sim._sv_entries
    monkeypatch.setattr(sim, "_sv_entries", lambda *args: sparse.append(1) or entries(*args))
    assert assert_equiv(identity, circuit) == expected
    assert assert_equiv(circuit, identity) == expected
    assert sparse


def test_the_mask_follows_cx_zcx_and_swap():
    # each H closes on the mask's one qubit after the branches spread and
    # gather again; a ZCX, being X CX X, moves the mask as a CX does
    # masks {0}, {0, 1}, {0, 1, 2}, {0, 1, 2}, {1, 2}, {2}
    closed = Circuit(3).h(0).cx(0, 1).zcx(1, 2).swap(0, 2).cx(2, 0).zcx(2, 1).h(2)
    program = sim._compile_path_sum(closed)
    assert program.code[-4:].tolist() == [sim._H_CLOSE, 2, 0, 0]
    with pytest.raises(sim._PathSumError, match="opens a second H"):
        sim._compile_path_sum(Circuit(3).h(0).cx(0, 1).cx(1, 0).h(0))
    for c in (Circuit(2).h(0).swap(0, 1).h(1), Circuit(2).h(1).zcx(1, 0).zcx(1, 0).h(1)):
        sim._compile_path_sum(c)
    identity = Circuit(3)
    mirrored = Circuit(3)
    mirrored.gates.extend(closed.gates + closed.inverse().gates)
    assert assert_equiv(identity, mirrored) is None


def planted_faults(c):
    """c lowered with one fault planted, in each way and at each place: a T
    turned into TDG or back, a CX dropped, an H moved past the next CX."""
    gates = lower_to_clifford_t(c).gates
    swap = {GateKind.T: GateKind.TDG, GateKind.TDG: GateKind.T}
    for i, g in enumerate(gates):
        if g.kind in swap:
            yield gates[:i] + [Gate(swap[g.kind], g.qubits)] + gates[i + 1 :]
        elif g.kind is GateKind.CX:
            yield gates[:i] + gates[i + 1 :]
        elif g.kind is GateKind.H:
            j = next(j for j in range(i + 1, len(gates)) if gates[j].kind is GateKind.CX)
            yield gates[:i] + gates[i + 1 : j + 1] + [g] + gates[j + 1 :]


def first_differing_column(a, b):
    """first_difference_input_by_input on every input in order, with each
    input's output read as a column of one dense matrix per circuit. The
    columns come from the sparse kernel, not from unitary, which runs the
    bit-sliced kernel under test."""
    dense = [
        sim.permutation_matrix(c) if sim.is_permutation_circuit(c)
        else sv_run_many(c, np.eye(1 << c.width))
        for c in (a, b)
    ]
    differ = np.flatnonzero(np.max(np.abs(dense[0] - dense[1]), axis=0) > 1e-9)
    return int(differ[0]) if len(differ) else None


@pytest.mark.parametrize("build, n", [(build_adder, 4), (build_ctrl_add_sub, 3)])
def test_planted_faults_are_found_bit_sliced_as_input_by_input(monkeypatch, build, n):
    block, inputs = build(n), range(1 << build(n).width)
    mutants = []
    for gates in planted_faults(block):
        mutant = Circuit(block.width)
        mutant.gates.extend(gates)
        mutants.append((mutant, first_differing_column(block, mutant)))
    assert len(mutants) == {8: 104, 7: 75}[block.width]
    for mutant, first in mutants[::16]:
        assert first_difference_input_by_input(block, mutant, inputs) == first

    def refuse(*args):
        raise AssertionError("the sparse kernel ran")

    monkeypatch.setattr(sim, "_sv_entries", refuse)
    firsts = [first for _, first in mutants]
    assert [assert_equiv(block, mutant) for mutant, _ in mutants] == firsts
    # against the unplanted lowering: two path-sum programs, in both orders
    lowered = lower_to_clifford_t(block)
    assert [assert_equiv(lowered, mutant) for mutant, _ in mutants] == firsts
    assert [assert_equiv(mutant, lowered) for mutant, _ in mutants] == firsts


def assert_unitary_is_the_sparse_kernels(c):
    """unitary(c) equals the sparse kernel's columns of c to 1e-12."""
    sparse = sv_run_many(c, np.eye(1 << c.width))
    assert np.max(np.abs(unitary(c) - sparse)) < 1e-12


def path_sum_route(c):
    """How unitary runs c: "refused" by the path sum, "flagged" where some
    column goes to the sparse kernel, else "clean"."""
    try:
        program = sim._compile_path_sum(c, iter_primitive_ops)
    except sim._PathSumError:
        return "refused"
    states = range(1 << c.width)
    cols = program.run(sim._columns(states, program.width), len(states))
    return "flagged" if cols[c.width + 6] | cols[c.width + 7] else "clean"


@pytest.mark.parametrize(
    "name, n",
    [(name, n) for name, f in FAMILIES.items() for n in family_widths(f, 6)
     if (f.verify_build or f.build)(n).width <= 10],
)
def test_unitary_runs_a_lowering_bit_sliced_as_the_sparse_kernel_does(
    monkeypatch, name, n
):
    # every family up to the 10-qubit cap; isqrt is its pipeline
    family = FAMILIES[name]
    block = (family.verify_build or family.build)(n)
    lowered = lower_to_clifford_t(block)
    assert path_sum_route(lowered) == "clean"
    sparse = sv_run_many(lowered, np.eye(1 << block.width))

    def refuse(*args):
        raise AssertionError("the sparse kernel ran")

    monkeypatch.setattr(sim, "_sv_entries", refuse)
    u = unitary(lowered)
    assert np.max(np.abs(u - sparse)) < 1e-12
    assert np.max(np.abs(u - sim.permutation_matrix(block))) < 1e-12


def test_unitary_agrees_with_the_sparse_kernel_on_every_route():
    routes = []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.integers(1, 6).flatmap(clifford_t_circuits))
    def check(c):
        routes.append(path_sum_route(c))
        assert_unitary_is_the_sparse_kernels(c)

    check()
    assert {"refused", "flagged", "clean"} <= set(routes)


def test_unitary_agrees_with_the_sparse_kernel_on_planted_faults():
    count = 0
    for block in (build_adder(4), build_ctrl_add_sub(3)):
        for gates in planted_faults(block):
            mutant = Circuit(block.width)
            mutant.gates.extend(gates)
            assert_unitary_is_the_sparse_kernels(mutant)
            count += 1
    assert count == 179


def test_unitary_sends_only_its_flagged_columns_to_the_sparse_kernel(monkeypatch):
    # the H pair recombines where qubit 1 is 0; where it is 1, the
    # controlled phase between them leaves a superposition, flagged
    c = Circuit(2).h(0).cx(1, 0).t(0).cx(1, 0).tdg(0).h(0)
    assert path_sum_route(c) == "flagged"
    sparse = []
    run_basis = sim._run_basis
    monkeypatch.setattr(
        sim, "_run_basis", lambda c, s: sparse.append(list(s)) or run_basis(c, s)
    )
    assert_unitary_is_the_sparse_kernels(c)
    assert sparse == [[2, 3]]
    h = np.sqrt(0.5)
    assert np.allclose(unitary(c)[2:, 2:], [[h, 1j * h], [1j * h, h]], atol=1e-12)


def test_unitary_rejects_unlowered_gates():
    message = "ccx must be lowered before statevector simulation"
    with pytest.raises(MustLowerError, match=message):
        unitary(Circuit(3).ccx(0, 1, 2))
    # a composite holding a CCX, alone and after H gates the path sum refuses
    for qc in (Circuit(3), Circuit(3).h(0).h(1).h(1).h(0)):
        qc.append_composite("PERES", peres_circuit(), [0, 1, 2])
        with pytest.raises(MustLowerError, match=message):
            unitary(qc)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8).flatmap(permutation_circuits))
def test_permutation_circuits_match_their_lowering_on_both_kernels(c):
    lowered, states = lower_to_clifford_t(c), range(1 << c.width)
    want = _run(_compile(c), states)
    program = sim._compile_path_sum(lowered)
    cols = program.run(sim._columns(states, program.width), len(states))
    assert sim._transpose(cols[: c.width], len(states)).tolist() == want.tolist()
    a0, a1, a2, _, _, _, f1, f2 = cols[c.width :]  # B's phase is left as it was
    assert a0 == a1 == a2 == f1 == f2 == 0
    keys, amps = sim._run_basis(lowered, states)
    assert np.max(np.abs(amps - 1.0)) < 1e-9
    assert keys.tolist() == sim._basis(want, c.width)[0].tolist()
    assert assert_equiv(c, lowered) is None


def assert_compiles_as_its_lowering(c):
    """_compile_path_sum gives c and its lowering the same program, or
    refuses both with the same message."""
    lowered = lower_to_clifford_t(c)
    try:
        program = sim._compile_path_sum(c)
    except sim._PathSumError as refused:
        with pytest.raises(sim._PathSumError) as also:
            sim._compile_path_sum(lowered)
        assert str(also.value) == str(refused)
        return None
    expected = sim._compile_path_sum(lowered)
    assert (program.code, program.width) == (expected.code, expected.width)
    return program


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 5).flatmap(mixed_circuits))
def test_path_sum_programs_compile_the_lowering(c):
    assert_compiles_as_its_lowering(c)


@pytest.mark.parametrize(
    "name, n", [(name, n) for name, f in FAMILIES.items() for n in family_widths(f, 9)]
)
def test_every_family_compiles_as_its_lowering(name, n):
    assert assert_compiles_as_its_lowering(FAMILIES[name].build(n)) is not None


def test_the_logical_isqrt_pipeline_compiles_as_its_lowering():
    program = assert_compiles_as_its_lowering(build_isqrt_pipeline(16))
    assert program is not None and len(program.code) == 4 * 3283


@st.composite
def followed_circuits(draw):
    """A permutation circuit's lowering with a few random X, CX, H, T and TDG
    gates inserted or gates dropped, if the path-sum kernel follows it."""
    width = draw(st.integers(1, 5))
    gates = lower_to_clifford_t(draw(permutation_circuits(width, depth=1))).gates
    for extra in draw(st.lists(clifford_t_circuits(width), max_size=3)):
        at = draw(st.integers(0, len(gates)))
        gates = gates[:at] + extra.gates[:2] + gates[at:]
    for _ in range(draw(st.integers(0, 2))):
        if gates:
            del gates[draw(st.integers(0, len(gates) - 1))]
    c = Circuit(width)
    c.gates.extend(gates)
    return c


@settings(max_examples=80, deadline=None)
@given(followed_circuits())
def test_path_sum_cases_are_what_the_sparse_kernel_makes_them(c):
    # unflagged: the one basis state, with phase A; flagged once: no basis
    # state at all; flagged twice: undecided
    try:
        program = sim._compile_path_sum(c)
    except sim._PathSumError:
        return
    states = range(1 << c.width)
    cols = program.run(sim._columns(states, program.width), len(states))
    keys, amps = sim._run_basis(c, states)
    cases = (keys >> np.uint64(c.width)).astype(np.intp)
    for k in states:
        out = sum((cols[q] >> k & 1) << q for q in range(c.width))
        x, a, _, f1, f2 = lane_values([0] + cols[c.width :], k)
        mine = keys[cases == k] & np.uint64((1 << c.width) - 1), amps[cases == k]
        if not f1:
            assert mine[0].tolist() == [out]
            assert abs(mine[1][0] - np.exp(1j * np.pi * a / 4)) < 1e-9
        elif not f2:
            assert len(mine[0]) > 1 or abs(abs(mine[1][0]) - 1) > 1e-9


def test_path_sum_pairs_check_every_input_up_to_width_20():
    assert assert_equiv(Circuit(20).x(0), Circuit(20).t(1).x(0).tdg(1)) is None
    with pytest.raises(CapacityError, match="capped at width 20"):
        assert_equiv(Circuit(21).x(0), Circuit(21).t(1).x(0).tdg(1))
    with pytest.raises(CapacityError, match="capped at width 12"):
        assert_equiv(Circuit(13), Circuit(13).h(0))  # left open: sparse
    adder = lower_to_clifford_t(build_adder(8))  # 16 qubits, two lowerings
    assert assert_equiv(adder, adder) is None
    block = lower_to_clifford_t(build_ctrl_add_sub(10))  # 21 qubits
    with pytest.raises(CapacityError, match="capped at width 20"):
        assert_equiv(block, block)


def test_a_case_flagged_twice_is_decided_on_the_sparse_kernel(monkeypatch):
    # H T H leaves a superposition, flagged once; H TDG H undoes it, so the
    # second flag marks a case that recombined into the identity's output
    undone = Circuit(1).h(0).t(0).h(0).h(0).tdg(0).h(0)
    programs = [_compile(Circuit(1)), sim._compile_path_sum(undone)]
    assert sim._first_difference(programs, 1, range(2)) == (None, [0, 1])
    sparse = []
    run_basis = sim._run_basis
    monkeypatch.setattr(sim, "_run_basis", lambda c, s: sparse.append(s) or run_basis(c, s))
    assert assert_equiv(Circuit(1), undone) is None
    assert sparse == [[0, 1]]
    # where qubit 1 is set, a flagged H pair and its inverse recombine; a T
    # on qubit 2 then differs for certain from input 4 on, and only the
    # undecided inputs 2 and 3 before it run on the sparse kernel
    pair = Circuit(3).h(0).t(0).cx(1, 0).tdg(0).cx(1, 0).h(0)
    both = Circuit(3)
    both.gates.extend(pair.gates + pair.inverse().gates)
    both.t(2)
    sparse.clear()
    assert assert_equiv(Circuit(3), both) == 4
    assert first_difference_input_by_input(Circuit(3), both, range(8)) == 4
    assert sparse == [[2, 3]]


def test_a_case_flagged_once_on_both_sides_is_decided_on_the_sparse_kernel(
    monkeypatch,
):
    # H T H leaves every input in a superposition, flagged once; on both
    # sides, neither puts out a basis state, so the programs cannot tell
    # whether the two superpositions are equal
    once = Circuit(2).h(0).t(0).h(0)
    programs = [sim._compile_path_sum(once)] * 2
    assert sim._first_difference(programs, 2, range(4)) == (None, [0, 1, 2, 3])
    sparse = []
    run_basis = sim._run_basis
    monkeypatch.setattr(sim, "_run_basis", lambda c, s: sparse.append(s) or run_basis(c, s))
    assert assert_equiv(once, once) is None
    assert sparse == [[0, 1, 2, 3]] * 2
    sparse.clear()
    assert assert_equiv(once, Circuit(2).h(0).tdg(0).h(0)) == 0
    assert sparse == [[0, 1, 2, 3]] * 2
