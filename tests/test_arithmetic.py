import random

import numpy as np
import pytest

from qsqrt import (
    Circuit,
    GateKind,
    analyze,
    build_adder,
    build_ctrl_add_sub,
    build_ctrl_adder,
    build_subtractor,
    count_ops,
    flatten,
    peres_circuit,
    perm_run,
    validate,
)
from qsqrt.errors import InvalidWidthError


def run_two_reg(circuit, n, a, b):
    """Drive an A/B register circuit; returns (a_out, b_out)."""
    out = perm_run(circuit, a | b << n)
    return out & ((1 << n) - 1), out >> n


def run_ctrl(circuit, n, z, a, b):
    """Drive a z/A/B register circuit; returns (z_out, a_out, b_out)."""
    out = perm_run(circuit, z | a << 1 | b << (n + 1))
    return out & 1, (out >> 1) & ((1 << n) - 1), out >> (n + 1)


def test_peres_truth_table():
    qc = Circuit(3)
    qc.append_composite("PERES", peres_circuit(), [0, 1, 2])
    for state in range(8):
        a, b, c = state & 1, state >> 1 & 1, state >> 2 & 1
        expected = a | (a ^ b) << 1 | ((a & b) ^ c) << 2
        assert perm_run(qc, state) == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_adder_exhaustive_oracle(n):
    add = flatten(build_adder(n))
    for a in range(1 << n):
        for b in range(1 << n):
            assert run_two_reg(add, n, a, b) == ((a + b) % (1 << n), b)


def test_adder_identity_on_zero():
    assert run_two_reg(build_adder(4), 4, 0, 0) == (0, 0)


def test_adder_golden_sequence_n4():
    add = build_adder(4)
    expected = [
        (GateKind.CX, (5, 1)),
        (GateKind.CX, (6, 2)),
        (GateKind.CX, (7, 3)),
        (GateKind.CX, (6, 7)),
        (GateKind.CX, (5, 6)),
        (GateKind.CCX, (4, 0, 5)),
        (GateKind.CCX, (5, 1, 6)),
        (GateKind.CCX, (6, 2, 7)),
        (GateKind.CX, (7, 3)),
        (GateKind.COMPOSITE, (6, 2, 7)),
        (GateKind.COMPOSITE, (5, 1, 6)),
        (GateKind.COMPOSITE, (4, 0, 5)),
        (GateKind.CX, (5, 6)),
        (GateKind.CX, (6, 7)),
        (GateKind.CX, (5, 1)),
        (GateKind.CX, (6, 2)),
        (GateKind.CX, (7, 3)),
    ]
    assert [(g.kind, g.qubits) for g in add.gates] == expected
    assert all(
        g.name == "PERES" for g in add.gates if g.kind is GateKind.COMPOSITE
    )


def test_subtractor_examples():
    sub = build_subtractor(4)
    assert run_two_reg(sub, 4, 5, 5) == (0, 5)
    assert run_two_reg(sub, 4, 3, 5) == (14, 5)  # wraps mod 16


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_subtractor_exhaustive_oracle(n):
    sub = flatten(build_subtractor(n))
    for a in range(1 << n):
        for b in range(1 << n):
            assert run_two_reg(sub, n, a, b) == ((a - b) % (1 << n), b)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_subtract_then_add_is_identity(n):
    sub = flatten(build_subtractor(n))
    add = flatten(build_adder(n))
    for state in range(1 << (2 * n)):
        assert perm_run(add, perm_run(sub, state)) == state


def test_ctrl_add_sub_examples():
    qc = build_ctrl_add_sub(4)
    assert run_ctrl(qc, 4, 0, 2, 3) == (0, 5, 3)
    assert run_ctrl(qc, 4, 1, 2, 3) == (1, 15, 3)  # (2 - 3) mod 16


def test_ctrl_add_sub_subtracting_zero_is_identity():
    qc = build_ctrl_add_sub(3)
    for a in range(8):
        assert run_ctrl(qc, 3, 1, a, 0) == (1, a, 0)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_ctrl_add_sub_exhaustive_oracle(n):
    qc = flatten(build_ctrl_add_sub(n))
    for z in (0, 1):
        for a in range(1 << n):
            for b in range(1 << n):
                want = (a - b if z else a + b) % (1 << n)
                assert run_ctrl(qc, n, z, a, b) == (z, want, b)


def test_ctrl_adder_off_control_is_identity():
    assert run_ctrl(build_ctrl_adder(4), 4, 0, 7, 9) == (0, 7, 9)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ctrl_adder_exhaustive_oracle(n):
    qc = flatten(build_ctrl_adder(n))
    for z in (0, 1):
        for a in range(1 << n):
            for b in range(1 << n):
                want = (a + b) % (1 << n) if z else a
                assert run_ctrl(qc, n, z, a, b) == (z, want, b)


def test_ctrl_adder_golden_sequence_n2():
    qc = build_ctrl_adder(2)
    expected = [
        (GateKind.CX, (4, 2)),
        (GateKind.CCX, (1, 3, 4)),
        (GateKind.CCX, (0, 4, 2)),
        (GateKind.CCX, (1, 3, 4)),
        (GateKind.CCX, (0, 3, 1)),
        (GateKind.CX, (4, 2)),
    ]
    assert [(g.kind, g.qubits) for g in qc.gates] == expected


@pytest.mark.parametrize("n", range(2, 11))
def test_adder_and_subtractor_t_count_formula(n):
    assert analyze(build_adder(n)).t_count == 14 * n - 14
    assert analyze(build_subtractor(n)).t_count == 14 * n - 14


@pytest.mark.parametrize("n", range(2, 11))
def test_ctrl_adder_t_count_formula(n):
    assert analyze(build_ctrl_adder(n)).t_count == 21 * n - 14


def test_adder_boundary_case_has_zero_t_count():
    # n = 1 degenerates to a single CX
    assert analyze(build_adder(1)).t_count == 0


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_toffoli_tallies(n):
    # bare Toffolis plus one inside each Peres block
    assert count_ops(build_adder(n))[GateKind.CCX] == 2 * (n - 1)
    assert count_ops(build_ctrl_adder(n))[GateKind.CCX] == 3 * n - 2


def test_b_register_preserved_randomized_n8():
    n = 8
    rng = random.Random(2)
    add = flatten(build_adder(n))
    sub = flatten(build_subtractor(n))
    for _ in range(1000):
        a, b = rng.randrange(1 << n), rng.randrange(1 << n)
        assert perm_run(add, a | b << n) >> n == b
        assert perm_run(sub, a | b << n) >> n == b


def test_control_and_b_preserved_randomized_n8():
    n = 8
    rng = random.Random(4)
    circuits = [flatten(build_ctrl_adder(n)), flatten(build_ctrl_add_sub(n))]
    for _ in range(1000):
        z = rng.randrange(2)
        a, b = rng.randrange(1 << n), rng.randrange(1 << n)
        for qc in circuits:
            out = perm_run(qc, z | a << 1 | b << (n + 1))
            assert out & 1 == z
            assert out >> (n + 1) == b


def test_generators_produce_valid_circuits():
    for qc in (
        build_adder(5),
        build_subtractor(5),
        build_ctrl_add_sub(5),
        build_ctrl_adder(5),
    ):
        assert validate(qc) == []


_BUILDERS = [build_adder, build_subtractor, build_ctrl_add_sub, build_ctrl_adder]


@pytest.mark.parametrize(
    "build, n",
    [(build_adder, 2.0), (build_subtractor, 2.0), (build_ctrl_add_sub, 2.0),
     (build_ctrl_adder, 3.0), (build_adder, 2.5), (build_subtractor, "2"),
     (build_ctrl_add_sub, None), (build_ctrl_adder, np.float64(3.0))],
)
def test_non_integer_widths_rejected(build, n):
    with pytest.raises(InvalidWidthError, match="integer width"):
        build(n)


@pytest.mark.parametrize("build", _BUILDERS)
def test_numpy_integer_widths_build_the_int_circuit(build):
    circuit = build(np.int64(3))
    assert circuit == build(3)
    assert type(circuit.width) is int


def test_invalid_widths_rejected():
    with pytest.raises(InvalidWidthError):
        build_adder(0)
    with pytest.raises(InvalidWidthError):
        build_subtractor(0)
    with pytest.raises(InvalidWidthError):
        build_ctrl_add_sub(0)
    with pytest.raises(InvalidWidthError):
        build_ctrl_adder(1)
