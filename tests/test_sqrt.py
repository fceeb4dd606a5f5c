import math
import random

import pytest

from qsqrt import (
    Circuit,
    GateKind,
    build_isqrt_circuit,
    build_isqrt_pipeline,
    build_part1,
    build_part2,
    build_part3,
    flatten,
    isqrt,
    min_width,
    perm_run,
    validate,
)
from qsqrt.errors import InputRangeError, InvalidWidthError

# roots and remainders for the small inputs that fit width 6
KNOWN_N6 = {
    6: (2, 2),
    7: (2, 3),
    8: (2, 4),
    9: (3, 0),
    10: (3, 1),
    11: (3, 2),
    12: (3, 3),
    13: (3, 4),
    14: (3, 5),
    15: (3, 6),
    16: (4, 0),
}


def test_part1_width_and_logical_histogram():
    part1 = build_part1(6)
    assert part1.width == 13
    kinds = [g.kind for g in part1.gates]
    assert kinds == [
        GateKind.X,
        GateKind.CX,
        GateKind.CX,
        GateKind.ZCX,
        GateKind.ZCX,
        GateKind.COMPOSITE,
    ]


def test_part1_golden_sequence_n6():
    part1 = build_part1(6)
    assert [(g.kind, g.qubits) for g in part1.gates] == [
        (GateKind.X, (4,)),
        (GateKind.CX, (4, 5)),
        (GateKind.CX, (5, 7)),
        (GateKind.ZCX, (5, 12)),
        (GateKind.ZCX, (5, 8)),
        (GateKind.COMPOSITE, (12, 2, 3, 4, 5, 6, 7, 8, 9)),
    ]
    block = part1.gates[-1]
    assert block.name == "CTRL ADD/SUB"
    assert block.body is not None and block.body.width == 9


def test_part2_is_empty_for_n4():
    assert build_part2(4).gates == []


def test_part2_golden_sequence_n6():
    part2 = build_part2(6)
    assert [(g.kind, g.qubits) for g in part2.gates] == [
        (GateKind.ZCX, (12, 7)),
        (GateKind.CX, (8, 12)),
        (GateKind.CX, (5, 7)),
        (GateKind.ZCX, (5, 12)),
        (GateKind.ZCX, (5, 9)),
        (GateKind.SWAP, (9, 8)),
        (GateKind.COMPOSITE, (12, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11)),
    ]
    block = part2.gates[-1]
    assert block.name == "CTRL ADD/SUB"
    assert block.body is not None and block.body.width == 13


def test_part2_add_sub_register_widths_n8():
    part2 = build_part2(8)
    blocks = [g for g in part2.gates if g.kind is GateKind.COMPOSITE]
    # register widths 2i+2 for i = 2, 3 acting on 2(2i+2)+1 qubits
    assert [g.body.width for g in blocks] == [13, 17]


def test_part3_golden_sequence_n6():
    part3 = build_part3(6)
    assert [(g.kind, g.qubits) for g in part3.gates] == [
        (GateKind.ZCX, (12, 7)),
        (GateKind.CX, (8, 12)),
        (GateKind.ZCX, (5, 12)),
        (GateKind.ZCX, (5, 10)),
        (GateKind.X, (12,)),
        (GateKind.COMPOSITE, tuple([12] + list(range(12)))),
        (GateKind.X, (12,)),
        (GateKind.SWAP, (10, 9)),
        (GateKind.SWAP, (9, 8)),
        (GateKind.CX, (8, 12)),
    ]
    assert part3.gates[5].name == "CTRL ADD"


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_part3_x_and_swap_counts(n):
    kinds = [g.kind for g in build_part3(n).gates]
    assert kinds.count(GateKind.X) == 2
    assert kinds.count(GateKind.SWAP) == n // 2 - 1


@pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14, 16])
def test_isqrt_circuit_width(n):
    assert build_isqrt_circuit(n).width == 2 * n + 1


def test_isqrt_circuit_is_three_stages():
    qc = build_isqrt_circuit(6)
    assert [g.name for g in qc.gates] == ["PART 1", "PART 2", "PART 3"]
    assert validate(qc) == []


def test_part1_stage_feeds_pipeline_anchor():
    # after stage 1 alone, the rest of the pipeline maps a=9 to (3, 0)
    n = 6
    mid = perm_run(build_part1(n), 9 | 1 << n)
    rest = Circuit(2 * n + 1)
    rest.append_composite("PART 2", build_part2(n), list(range(2 * n + 1)))
    rest.append_composite("PART 3", build_part3(n), list(range(2 * n + 1)))
    rest.x(n)
    for i in range(2, n // 2 + 2):
        rest.swap(n + i, n + i - 2)
    out = perm_run(rest, mid)
    assert (out >> n) & ((1 << n) - 1) == 3
    assert out & ((1 << n) - 1) == 0


def test_known_roots_n6():
    for a, expected in KNOWN_N6.items():
        assert isqrt(a, 6) == expected


def test_root_sits_in_upper_f_bits_before_shift():
    # before the readout shift the root occupies F[n/2+1]..F[2]
    n = 6
    out = perm_run(build_isqrt_circuit(n), 15 | 1 << n)
    assert out & ((1 << n) - 1) == 6  # remainder
    f_bits = (out >> n) & ((1 << n) - 1)
    root = (f_bits >> 2) & ((1 << (n // 2)) - 1)
    assert root == 3


@pytest.mark.parametrize("n", [4, 6, 8])
def test_isqrt_matches_integer_oracle_exhaustively(n):
    for a in range(1, 1 << (n - 1)):
        root = math.isqrt(a)
        assert isqrt(a, n) == (root, a - root * root)


def test_ancilla_restored_on_every_input_n6():
    pipeline = flatten(build_isqrt_pipeline(6))
    for a in range(1, 32):
        out = perm_run(pipeline, a | 1 << 6)
        assert out >> 12 == 0
        # upper F bits beyond the root are clear as well
        assert (out >> 6) & 63 == math.isqrt(a)


def test_result_invariants_sampled_n10():
    n = 10
    mask = (1 << n) - 1
    pipeline = flatten(build_isqrt_pipeline(n))
    rng = random.Random(6)
    for _ in range(40):
        a = rng.randrange(1, 1 << (n - 1))
        out = perm_run(pipeline, a | 1 << n)
        remainder, root, z = out & mask, (out >> n) & mask, out >> (2 * n)
        assert root * root + remainder == a
        assert (root + 1) ** 2 > a
        assert remainder <= 2 * root
        assert z == 0


def test_isqrt_is_deterministic():
    assert isqrt(23, 8) == isqrt(23, 8)


def test_isqrt_auto_width():
    assert isqrt(100) == (10, 0)
    assert isqrt(7) == (2, 3)


@pytest.mark.parametrize(
    "a,n",
    [(1, 4), (7, 4), (8, 6), (9, 6), (31, 6), (32, 8), (100, 8), (127, 8), (128, 10)],
)
def test_min_width(a, n):
    assert min_width(a) == n


def test_zero_input_is_exact_with_clean_ancilla():
    for n in range(4, 41, 2):
        assert isqrt(0, n) == (0, 0)
        # remainder R, root F and ancilla z all read 0: the whole state is 0
        assert perm_run(build_isqrt_pipeline(n), 1 << n) == 0


@pytest.mark.parametrize("n", [0, 2, 3, 5, 7])
def test_invalid_widths_rejected(n):
    with pytest.raises(InvalidWidthError):
        build_part1(n)
    with pytest.raises(InvalidWidthError):
        build_part2(n)
    with pytest.raises(InvalidWidthError):
        build_part3(n)
    with pytest.raises(InvalidWidthError):
        build_isqrt_circuit(n)
    with pytest.raises(InvalidWidthError):
        isqrt(1, n)


def test_out_of_range_inputs_rejected():
    with pytest.raises(InputRangeError):
        isqrt(32, 6)  # max for width 6 is 31
    with pytest.raises(InputRangeError):
        isqrt(-1)
    with pytest.raises(InputRangeError):
        min_width(-5)
