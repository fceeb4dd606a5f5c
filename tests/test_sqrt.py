import math
import os
import random
import subprocess
import sys
import threading

import numpy as np
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
from qsqrt import sim
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


@pytest.mark.parametrize("n", range(4, 13, 2))
def test_isqrt_matches_integer_oracle_exhaustively(n):
    for a in range(1 << (n - 1)):
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
    for a in (1 << 20000, -(1 << 20000)):  # too wide to print in decimal
        with pytest.raises(InputRangeError, match="20001-bit integer"):
            isqrt(a, 4)
    with pytest.raises(InputRangeError):
        isqrt(-1)
    with pytest.raises(InputRangeError):
        min_width(-5)


@pytest.mark.parametrize("n", [4.0, 6.5, "8", None, [8]])
def test_non_integer_widths_rejected(n):
    if n is not None:
        with pytest.raises(InvalidWidthError):
            isqrt(9, n)
        with pytest.raises(InvalidWidthError):
            build_isqrt_pipeline(n)
    for build in (build_part1, build_part2, build_part3, build_isqrt_circuit):
        with pytest.raises(InvalidWidthError):
            build(n)


@pytest.mark.parametrize("a", [9.0, 2.5, "9", None])
def test_non_integer_inputs_rejected(a):
    with pytest.raises(InputRangeError):
        isqrt(a)
    with pytest.raises(InputRangeError):
        isqrt(a, 6)
    with pytest.raises(InputRangeError):
        min_width(a)


@pytest.mark.parametrize("cast", [np.int8, np.int64, np.uint16])
def test_numpy_integers_are_accepted(cast):
    assert isqrt(cast(30), cast(8)) == (5, 5)
    assert isqrt(cast(30)) == (5, 5)
    assert min_width(cast(30)) == 6
    assert build_isqrt_pipeline(cast(6)) == build_isqrt_pipeline(6)


def test_mutating_a_built_pipeline_leaves_later_results_unchanged():
    before = [isqrt(a, 8) for a in range(128)]
    built = build_isqrt_pipeline(8)
    built.x(0)
    built.gates.clear()
    assert [isqrt(a, 8) for a in range(128)] == before
    assert len(build_isqrt_pipeline(8)) > 0


def test_warm_calls_build_no_circuit(monkeypatch):
    isqrt(5, 10)
    appended = []
    append = Circuit.append

    def counting(self, gate):
        appended.append(gate)
        return append(self, gate)

    monkeypatch.setattr(Circuit, "append", counting)
    assert [isqrt(a, 10) for a in (0, 99, 511)] == [(0, 0), (9, 18), (22, 27)]
    assert appended == []
    build_isqrt_pipeline(10)
    assert appended


def test_fresh_import_compiles_nothing():
    code = (
        "import qsqrt, qsqrt.cli, qsqrt.sim; "
        "print(qsqrt.sim._cached_program.cache_info().currsize)"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "0"


def test_fresh_import_generates_no_template_function():
    # X and CX are folded inline, so the adder's one templated kind is CCX
    code = (
        "import qsqrt, qsqrt.cli\n"
        "from qsqrt import GateKind, analysis, lowering\n"
        "def sizes():\n"
        "    caches = (analysis._fold_of, lowering._expander_of)\n"
        "    print(*(cache.cache_info().currsize for cache in caches))\n"
        "sizes()\n"
        "qsqrt.analyze(qsqrt.build_adder(2))\n"
        "sizes()\n"
        "analysis._fold_of(lowering._ExpansionTable()[GateKind.CCX], 3)\n"
        "print(analysis._fold_of.cache_info().misses)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.splitlines() == ["0 0", "1 0", "1"]


def test_a_widths_calls_after_the_first_run_without_the_loop(monkeypatch):
    sim._cached_program.cache_clear()
    loop, runs = sim._run_columns, []

    def once(*args):
        assert not runs, "the loop ran after the first call"
        runs.append(args)
        return loop(*args)

    monkeypatch.setattr(sim, "_run_columns", once)
    assert isqrt(200, 10) == (14, 4)
    assert len(runs) == 1  # the first call at a width runs on the loop
    assert [isqrt(a, 10) for a in (0, 99, 511)] == [(0, 0), (9, 18), (22, 27)]


def test_generated_kernels_answer_every_input_up_to_n14():
    for n in range(4, 15, 2):
        isqrt(0, n)  # from here on, every call at n runs the generated kernel
        for a in range(1 << (n - 1)):
            root = math.isqrt(a)
            assert isqrt(a, n) == (root, a - root * root)
        assert sim._cached_program(build_isqrt_pipeline, n).chunks is not None


def test_threads_sharing_a_width_answer_while_it_is_generated():
    inputs = list(range(0, 1 << 11, 255))
    expected = [(math.isqrt(a), a - math.isqrt(a) ** 2) for a in inputs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):  # each round generates the width afresh
            sim._cached_program.cache_clear()
            start, results = threading.Barrier(4, timeout=60), []

            def calls():
                start.wait()
                results.append([isqrt(a, 12) for a in inputs])

            threads = [threading.Thread(target=calls) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert results == [expected] * 4
    finally:
        sys.setswitchinterval(interval)
