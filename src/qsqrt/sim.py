"""Two simulation backends over the circuit IR.

One bit-sliced kernel pushes a whole batch of basis states through a
circuit in one pass over the gates (Biham, FSE 1997). It works on columns:
one int per qubit, whose bit k is that qubit in case k. It reads one
format, a _Program: the circuit's (opcode, q0, q1, q2) in a flat array.
_compile makes one for a circuit of classical-reversible gates (X, CX,
ZCX, CCX, SWAP); isqrt and `qsqrt verify` keep theirs in a bounded per-(builder,
width) cache. _compile_path_sum also takes H, T and TDG when at most one H
is open at a time, as in every Toffoli template: a path sum with one path
variable live at a time (Amy, arXiv:1805.06908). Its phase opcodes keep
each case's two branches as one basis state, the qubits on which they
differ (known when compiling), two 3-bit phase counters and two flags, all
as more columns of the same program, and use only ^, & and the lane mask.
The kernel has two forms of one semantics, both driven by the opcodes: the
loop _run_columns interprets the array, one `if` chain per op, and
_generate turns it into straight-line Python, one statement per op (`c5 ^=
c3 & c4`) from the table _STATEMENTS. A program compiled for one call runs
on the loop. A cached program runs on the loop once, and its second run
generates its straight-line form, which serves that run and every later
one and lives as long as the program stays cached. _columns feeds the
kernel: a range of consecutive states, such as an exhaustive `qsqrt
verify` batch or assert_equiv's inputs, gets its columns straight from the
counter; a single state is split into bits; any other states are
transposed in. _run hands back one format, a numpy array of the output
states: uint64 up to 64 qubits, Python ints (dtype=object) beyond. Neither
checks the states: perm_run_many (so perm_run) checks outside states, and
isqrt, verify, permutation_matrix and assert_equiv build their own.

assert_equiv runs a permutation circuit against another, or against a
circuit whose Clifford+T form compiles to a path-sum program, bit-sliced:
both programs from the same columns, compared lane by lane without
transposing out. One statevector kernel, _sv_entries, runs everything else
that has phases: a lowered circuit (X, CX, H, T, TDG, in composites too)
on a batch of sparse columns in one pass over the gates, for sv_run_many,
unitary, any other assert_equiv pair and the cases a path-sum program
leaves undecided. Dense columns exist only at the API: sv_run_many and
sv_run convert them to entries and back, so the caller's array bounds
their entries. unitary and assert_equiv start from basis entries, which
the kernel bounds itself: an H that spreads such a batch past
_SV_MAX_ENTRIES entries raises CapacityError (assert_equiv then halves its
batch). Both kernels read the gates, checks included, through
iter_primitive_ops.

Basis convention everywhere: bit i of an integer state or of a statevector
index is qubit i, and qubit 0 is the LSB of its register.
"""
from __future__ import annotations

import operator
import random
import sys
from array import array
from functools import lru_cache
from types import CodeType, FunctionType
from typing import Callable, Sequence

import numpy as np

from .circuit import CLIFFORD_T_KINDS, PERMUTATION_KINDS, Circuit, GateKind
from .circuit import _positive_width, iter_primitive_ops
from .errors import (
    CapacityError,
    InputRangeError,
    InvalidWidthError,
    MustLowerError,
    NonPermutationGateError,
    int_text,
)
from .lowering import lower_to_clifford_t

#: Widest circuit unitary and permutation_matrix build a dense matrix of.
_MATRIX_CAP = 10

_PHASES = {GateKind.T: np.exp(1j * np.pi / 4), GateKind.TDG: np.exp(-1j * np.pi / 4)}
_SQRT1_2 = 1.0 / np.sqrt(2.0)


def perm_run_many(c: Circuit, states: Sequence[int]) -> list[int]:
    """Propagate a batch of basis states through the permutation gates.

    Bit-sliced (Biham, FSE 1997): qubit q is held as one int whose bit k is
    qubit q's value in case k, so each X, CX, ZCX, CCX or SWAP is one
    big-int XOR, AND or swap for the whole batch; `c` is compiled first.
    Returns the output state of each case, in order. Raises
    NonPermutationGateError on H, T or TDG, and InputRangeError on a state
    that is not an integer (numpy integers pass) below 2**width.
    """
    return _run(_compile(c), _check_states(states, c.width)).tolist()


def perm_run(c: Circuit, state: int) -> int:
    """Propagate one basis state: the one-case batch of perm_run_many."""
    return perm_run_many(c, (state,))[0]


# Opcodes of the permutation kernel, in the order _run_columns tests them.
_CX, _CCX, _ZCX, _X, _SWAP = range(5)
_OPCODES = {
    GateKind.CX: _CX,
    GateKind.CCX: _CCX,
    GateKind.ZCX: _ZCX,
    GateKind.X: _X,
    GateKind.SWAP: _SWAP,
}
_PAD = {1: (0, 0), 2: (0,), 3: ()}

# The phase opcodes follow, which only _compile_path_sum emits. A T or TDG
# acts on branch A alone when no H is open; while one is, it acts on both
# branches, and on branch B's bit of its qubit flipped (X) when its qubit is
# in the mask. An H opens or closes the one superposition.
_T_A, _TDG_A, _T_AB, _TDG_AB, _T_AX, _TDG_AX, _H_OPEN, _H_CLOSE = range(5, 13)
_PHASE_OPCODES = {
    GateKind.T: (_T_A, _T_AB, _T_AX),
    GateKind.TDG: (_TDG_A, _TDG_AB, _TDG_AX),
}
#: Opcodes that lowering rewrites: a path-sum program holding them beside
#: H, T or TDG ran them exactly, not through their rules' templates.
_LOGICAL_OPS = frozenset({_CCX, _ZCX, _SWAP})

#: The columns a path-sum program keeps after its qubits' ones, in order:
#: branch A's and branch B's phase in eighth turns (3-bit counters, low bit
#: first), and two flags, set in a case whose closing H left a superposition
#: once (f1) and twice (f2).
_PHASE_NAMES = ("a0", "a1", "a2", "b0", "b1", "b2", "f1", "f2")
_PHASE_COLUMNS = len(_PHASE_NAMES)

#: Each opcode as one statement of a generated kernel, formatted with its
#: (q0, q1, q2) and the names of the phase columns: the update _run_columns
#: makes on cols[q], made on local c<q>. A T adds its qubit's column to a
#: phase counter, carrying through t; a TDG subtracts it, borrowing; a
#: closing H's phase difference d = A - B is 0 or 4 where the branches
#: recombine into the basis state whose qubit is bit 2 of d.
_STATEMENTS = {
    _CX: "c{1} ^= c{0}",
    _CCX: "c{2} ^= c{0} & c{1}",
    _ZCX: "c{1} ^= c{0} ^ ones",
    _X: "c{0} ^= ones",
    _SWAP: "c{0}, c{1} = c{1}, c{0}",
    _T_A: "t = {a0} & c{0}; {a0} ^= c{0}; {a2} ^= {a1} & t; {a1} ^= t",
    _TDG_A: "{a0} ^= c{0}; t = {a0} & c{0}; {a1} ^= t; {a2} ^= {a1} & t",
    _T_AB: "t = {a0} & c{0}; {a0} ^= c{0}; {a2} ^= {a1} & t; {a1} ^= t; "
    "t = {b0} & c{0}; {b0} ^= c{0}; {b2} ^= {b1} & t; {b1} ^= t",
    _TDG_AB: "{a0} ^= c{0}; t = {a0} & c{0}; {a1} ^= t; {a2} ^= {a1} & t; "
    "{b0} ^= c{0}; t = {b0} & c{0}; {b1} ^= t; {b2} ^= {b1} & t",
    _T_AX: "t = {a0} & c{0}; {a0} ^= c{0}; {a2} ^= {a1} & t; {a1} ^= t; "
    "u = c{0} ^ ones; t = {b0} & u; {b0} ^= u; {b2} ^= {b1} & t; {b1} ^= t",
    _TDG_AX: "{a0} ^= c{0}; t = {a0} & c{0}; {a1} ^= t; {a2} ^= {a1} & t; "
    "u = c{0} ^ ones; {b0} ^= u; t = {b0} & u; {b1} ^= t; {b2} ^= {b1} & t",
    _H_OPEN: "{b0} = {a0}; {b1} = {a1}; {b2} = {a2} ^ c{0}; c{0} ^= c{0}",
    _H_CLOSE: "t = {a0} ^ {b0}; u = {a1} ^ {b1}; t ^= u ^ t & u; "
    "u = {f1} & t; {f2} ^= u ^ {f2} & u; {f1} ^= t ^ {f1} & t; "
    "t = {a2} ^ {b2}; {a2} ^= c{0} & t; c{0} = t",
}

#: Ops per generated function. compile() of one function for a whole
#: program peaks at about 2 KB an op (19.5 MB at isqrt n = 64); in chunks
#: of this many, generating that program peaks at 1.4 MB.
_CHUNK_OPS = 512

#: Entries a batch of basis columns may hold (_run_basis). Every column
#: holds at least one, so it also caps assert_equiv's batches, which halve
#: until they fit.
_SV_MAX_ENTRIES = 1 << 20

#: Programs _cached_program keeps, with their generated forms: more than
#: the 31 widths (4..64) that isqrt calls on inputs of up to 63 bits cycle
#: through, so such a mix of calls never evicts one.
_PROGRAM_CACHE_SIZE = 64


class _Program:
    """A compiled circuit: what _run runs.

    `code` holds (opcode, q0, q1, q2) per primitive gate in a flat array,
    zero-padded, which the loop _run_columns interprets. `width` counts
    its columns: the qubits', and a path-sum program's _PHASE_COLUMNS
    after them. A `reused`
    program, one that _cached_program keeps, generates its straight-line
    form (_generate) on its second run; `chunks` then holds it, it runs
    that run and every later one, and `code` is dropped. Any other program
    runs on the loop every time.
    """

    __slots__ = ("width", "code", "reused", "runs", "chunks")

    def __init__(self, width: int, code: array) -> None:
        self.width, self.code = width, code
        self.reused, self.runs = False, 0
        self.chunks: tuple[Callable, ...] | None = None

    def run(self, cols: list[int], lanes: int) -> list[int]:
        """The program's output columns on bit-sliced columns (see _run_columns)."""
        # code is read before chunks, and generating sets chunks before it
        # drops code, so a run in another thread always finds one of them
        code, chunks = self.code, self.chunks
        if chunks is None and self.reused and self.runs:
            chunks = self.chunks = _generate(self.width, code)
            self.code = None
        self.runs += 1
        if chunks is None:
            return _run_columns(code, cols, lanes)
        ones = (1 << lanes) - 1
        for chunk in chunks:
            cols = chunk(cols, ones)
        return cols


def _compile(c: Circuit) -> _Program:
    """The program of a permutation circuit. Raises NonPermutationGateError
    on H, T or TDG. Qubit indices below 2**16 fit the two-byte typecode,
    about 8 bytes a gate; wider circuits take eight-byte entries.
    """
    code = array("H" if c.width <= 1 << 16 else "Q")
    for kind, q in iter_primitive_ops(c):
        op = _OPCODES.get(kind)
        if op is None:
            raise NonPermutationGateError(
                f"{kind.value} is not a basis-state permutation"
            )
        code.extend((op, *q, *_PAD[len(q)]))
    return _Program(c.width, code)


class _PathSumError(Exception):
    """A circuit whose superpositions the phase opcodes cannot follow."""


def _compile_path_sum(c: Circuit) -> _Program:
    """The path-sum program of a circuit with at most one H open at a time.

    A case is its qubits' columns plus _PHASE_COLUMNS more: while an H is
    open, its two branches differ on the qubits of `mask`, which the walk
    tracks. An H opens on qubit s with mask {s}; a CX or ZCX (X CX X) whose
    control is in the mask adds its target to it, or takes it out; a SWAP
    exchanges its qubits' bits; an H on the mask's one qubit closes it.
    Other gates compile as in _compile, T and TDG to _PHASE_OPCODES (a path
    sum with one path variable live at a time, Amy, arXiv:1805.06908).
    Raises _PathSumError on an H while one is open that does not close
    it, on a CCX whose control is in the mask, and on an H left open.
    """
    code = array("H" if c.width <= 1 << 16 else "Q")
    extend, opcode, mask = code.extend, _OPCODES.get, 0
    for kind, q in iter_primitive_ops(c):
        op = opcode(kind)
        if op is None:  # H, T or TDG on qubit s
            s = q[0]
            if kind is not GateKind.H:
                op = _PHASE_OPCODES[kind][0 if not mask else 2 if mask >> s & 1 else 1]
            elif not mask:
                op, mask = _H_OPEN, 1 << s
            elif mask == 1 << s:
                op, mask = _H_CLOSE, 0
            elif mask >> s & 1:
                raise _PathSumError(
                    f"the H on qubit {s} closes an H whose branches also differ "
                    "on other qubits"
                )
            else:
                raise _PathSumError(f"the H on qubit {s} opens a second H")
            extend((op, s, 0, 0))
            continue
        if mask:
            if (op == _CX or op == _ZCX) and mask >> q[0] & 1:
                mask ^= 1 << q[1]
            elif op == _SWAP and (mask >> q[0] ^ mask >> q[1]) & 1:
                mask ^= 1 << q[0] | 1 << q[1]
            elif op == _CCX and (mask >> q[0] | mask >> q[1]) & 1:
                raise _PathSumError("a CCX control differs between an H's branches")
        extend((op, *q, *_PAD[len(q)]))
    if mask:
        raise _PathSumError("an H is left open")
    return _Program(c.width + _PHASE_COLUMNS, code)


@lru_cache(maxsize=_PROGRAM_CACHE_SIZE)
def _cached_program(builder: Callable[[int], Circuit], n: int) -> _Program:
    """The program of builder(n), compiled on first use and reused.

    Only this private form is kept: builder(n) itself stays a fresh,
    mutable Circuit on every public call.
    """
    program = _compile(builder(n))
    program.reused = True
    return program


def _run(program: _Program, states: Sequence[int]) -> np.ndarray:
    """The output states of a program on basis states below 2**width.

    The states are not checked. Returns them in one numpy array, of dtype
    _lane_dtype(width): a single state is reassembled from its bits, and any
    other batch is transposed out.
    """
    width, count = program.width, len(states)
    cols = program.run(_columns(states, width), count)
    if count == 1:
        return np.array([_int_of_bits(cols)], _lane_dtype(width))
    return _transpose(cols, count)


def _columns(states: Sequence[int], width: int) -> list[int]:
    """The bit-sliced columns of basis states below 2**width, one per qubit.

    One state is split into its bits and a range of step 1 gets its columns
    straight from the counter (_counter_column); any other sequence or
    array of ints is transposed in.
    """
    count = len(states)
    if count == 1:
        return _bits_of(int(states[0]), width)
    if isinstance(states, range) and states.step == 1:
        return [_counter_column(states.start, count, q) for q in range(width)]
    return _transpose(states, width).tolist()


# One state's bits as the bytes 0 and 1, and back, by way of its binary digits.
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _bits_of(state: int, width: int) -> list[int]:
    """The one-lane columns of `state`: bit q at index q, for q < width."""
    return list(f"{state:0{width}b}".encode()[::-1].translate(_FROM_DIGITS))


def _int_of_bits(cols: list[int]) -> int:
    """The state whose bit q is cols[q], each 0 or 1: _bits_of inverted."""
    return int(bytes(cols[::-1]).translate(_TO_DIGITS), 2)


def _lane_dtype(width: int) -> np.dtype:
    """dtype of the states _run returns for `width` qubits, which verify
    builds its own in: uint64 up to 64, Python ints (dtype=object) beyond."""
    return np.dtype(np.uint64 if width <= 64 else object)


def _check_states(
    states: Sequence[int], width: int, what: str = "basis state"
) -> list[int]:
    """`states` as ints, if each is an integer below 2**width.

    Each passes through operator.index, so numpy integers are accepted and
    floats, strings and the like raise InputRangeError.
    """
    checked = []
    for s in states:  # read once, so a generator names its bad state too
        try:
            checked.append(operator.index(s))
        except TypeError:
            raise InputRangeError(f"{what} must be an integer, got {s!r}") from None
    limit = 1 << width
    if checked and (min(checked) < 0 or max(checked) >= limit):
        bad = int_text(next(s for s in checked if not 0 <= s < limit))
        raise InputRangeError(f"{what} {bad} out of range for width {width}")
    return checked


def _run_columns(code: array, cols: list[int], lanes: int) -> list[int]:
    """The kernel's loop: run a program's code on bit-sliced columns.

    Bit k of cols[q] is qubit q in case k, for `lanes` cases; a path-sum
    program's phase columns (_PHASE_NAMES) follow its qubits'. Like the
    statements, each op uses only ^, & and the lane mask. The columns are
    updated in place and returned.
    """
    ones = (1 << lanes) - 1
    # unused by a permutation program, which has no phase columns
    a0, a1, a2, b0, b1, b2, f1, f2 = range(len(cols) - _PHASE_COLUMNS, len(cols))
    it = iter(code)
    for op, a, b, t in zip(it, it, it, it):
        if op == _CX:
            cols[b] ^= cols[a]
        elif op == _CCX:
            cols[t] ^= cols[a] & cols[b]
        elif op == _ZCX:
            cols[b] ^= cols[a] ^ ones
        elif op == _X:
            cols[a] ^= ones
        elif op == _SWAP:
            cols[a], cols[b] = cols[b], cols[a]
        elif op == _T_A:
            _add_eighths(cols, a0, cols[a])
        elif op == _TDG_A:
            _sub_eighths(cols, a0, cols[a])
        elif op == _T_AB:
            _add_eighths(cols, a0, cols[a])
            _add_eighths(cols, b0, cols[a])
        elif op == _TDG_AB:
            _sub_eighths(cols, a0, cols[a])
            _sub_eighths(cols, b0, cols[a])
        elif op == _T_AX:
            _add_eighths(cols, a0, cols[a])
            _add_eighths(cols, b0, cols[a] ^ ones)
        elif op == _TDG_AX:
            _sub_eighths(cols, a0, cols[a])
            _sub_eighths(cols, b0, cols[a] ^ ones)
        elif op == _H_OPEN:  # B's phase is A's + 4 x, and A's bit x becomes 0
            cols[b0], cols[b1], cols[b2] = cols[a0], cols[a1], cols[a2] ^ cols[a]
            cols[a] ^= cols[a]
        else:  # _H_CLOSE: flag d = A - B not 0 or 4, else the bit is bit 2 of d
            low = cols[a0] ^ cols[b0]
            mid = cols[a1] ^ cols[b1]
            low ^= mid ^ low & mid
            again = cols[f1] & low
            cols[f2] ^= again ^ cols[f2] & again
            cols[f1] ^= low ^ cols[f1] & low
            high = cols[a2] ^ cols[b2]
            cols[a2] ^= cols[a] & high
            cols[a] = high
    return cols


def _add_eighths(cols: list[int], lo: int, x: int) -> None:
    """Add lane bits x, one eighth turn each, to the counter cols[lo : lo + 3]."""
    carry = cols[lo] & x
    cols[lo] ^= x
    cols[lo + 2] ^= cols[lo + 1] & carry
    cols[lo + 1] ^= carry


def _sub_eighths(cols: list[int], lo: int, x: int) -> None:
    """Subtract lane bits x from the counter cols[lo : lo + 3]: _add_eighths
    undone."""
    cols[lo] ^= x
    borrow = cols[lo] & x
    cols[lo + 1] ^= borrow
    cols[lo + 2] ^= cols[lo + 1] & borrow


def _generate(width: int, code: array) -> tuple[Callable, ...]:
    """The straight-line form of a program's code: functions that each run
    _CHUNK_OPS of its ops in order, as _run_columns does, but with one
    statement per op (_STATEMENTS) on the columns as locals c0, c1, ...

    Each function takes the columns and the lane mask `ones` and returns
    the new columns. The source holds only the program's integers. Each
    chunk is built and compiled on its own, and keeps no location table
    (_without_positions), since no source is kept for it to point into.
    """
    names = "".join(f"c{q}, " for q in range(width))
    # the last columns' names, which only a path-sum program's statements use
    phase = {
        name: f"c{q}"
        for name, q in zip(_PHASE_NAMES, range(width - _PHASE_COLUMNS, width))
    }
    step = 4 * _CHUNK_OPS
    chunks = []
    for start in range(0, len(code), step):
        it = iter(code[start : start + step])
        body = "".join(
            f"    {_STATEMENTS[op].format(*q, **phase)}\n"
            for op, *q in zip(it, it, it, it)
        )
        source = f"def chunk(c, ones):\n    {names}= c\n{body}    return [{names}]\n"
        module = compile(source, "<generated kernel>", "exec")
        code_of_chunk = module.co_consts[0]
        chunks.append(FunctionType(_without_positions(code_of_chunk), {}))
    return tuple(chunks)


def _without_positions(code: CodeType) -> CodeType:
    """`code` with a location table that gives no instruction a position.

    The table compile() makes costs about 14 bytes an op, more than the
    bytecode's 12. From Python 3.11 on, each entry byte 0xF8 + k covers k + 1
    code units with no position; Python 3.10's table has another format,
    so there the code keeps its own.
    """
    if sys.version_info < (3, 11):
        return code
    full, rest = divmod(len(code.co_code) // 2, 8)
    table = b"\xff" * full + (bytes((0xF8 + rest - 1,)) if rest else b"")
    return code.replace(co_linetable=table)


def _counter_column(lo: int, count: int, q: int) -> int:
    """Bit k is bit q of lo + k, for k < count: runs of 2**q zeros and 2**q
    ones, entered at phase lo mod 2**(q+1), built from the runs of ones in
    its first period and then repeated as bytes, with no transpose."""
    run = 1 << q
    period = 2 * run
    phase = lo % period
    span = min(count, period)
    # lane k sees counter phase + k, whose bit q is set on [run, 2 run) and,
    # since phase + span < 4 run, on [3 run, 4 run)
    col = 0
    for start in (run - phase, period + run - phase):
        first, stop = max(start, 0), min(start + run, span)
        if first < stop:
            col |= ((1 << (stop - first)) - 1) << first
    if count > period:  # col is one whole period: repeat it
        while period % 8:
            col |= col << period
            period *= 2
        reps = -(-count // period)
        data = col.to_bytes(period // 8, "little") * reps
        col = int.from_bytes(data, "little") & ((1 << count) - 1)
    return col


def _transpose(rows: Sequence[int], width: int) -> np.ndarray:
    """Transpose a bit matrix: bit k of out[q] is bit q of rows[k].

    `rows` holds ints below 2**width and the result has `width` ints of
    len(rows) bits each, in an array of dtype _lane_dtype(len(rows)) when
    rows is not empty; it turns basis states into bit-sliced qubit columns
    and back.
    """
    cols = _bit_transpose(_bytes_of(rows, width), width)
    if cols.shape[1] == 8:
        return cols.view("<u8").ravel()
    return np.array([int.from_bytes(col.tobytes(), "little") for col in cols], object)


def _bytes_of(ints: Sequence[int], nbits: int) -> np.ndarray:
    """(len(ints), ceil(nbits / 8)) uint8 array: each int below 2**nbits
    as little-endian bytes."""
    nbytes = (nbits + 7) // 8
    if nbits <= 64:
        words = np.ascontiguousarray(ints, "<u8")
        return words.view(np.uint8).reshape(len(ints), 8)[:, :nbytes]
    raw = b"".join(i.to_bytes(nbytes, "little") for i in ints)
    return np.frombuffer(raw, np.uint8).reshape(len(ints), nbytes)


# (shift, mask) of the three exchange steps that transpose an 8 x 8 bit
# block held in one uint64, byte k being row k (Hacker's Delight, 7-3).
_BLOCK_STEPS = tuple(
    (np.uint64(shift), np.uint64(mask))
    for shift, mask in (
        (7, 0x00AA00AA00AA00AA),
        (14, 0x0000CCCC0000CCCC),
        (28, 0x00000000F0F0F0F0),
    )
)

#: Bytes from which _bit_transpose runs the block steps: below about this
#: size, unpacking every bit costs less than their fixed numpy overhead.
_BLOCK_TRANSPOSE_BYTES = 1 << 10


def _bit_transpose(mat: np.ndarray, nbits: int) -> np.ndarray:
    """Transpose the first `nbits` bits of a (rows, nbytes) uint8 matrix.

    Each row of `mat` holds bits in little-endian order. Returns the
    C-ordered (nbits, 8 * ceil(rows / 64)) matrix in the same layout whose
    row c holds bit c of every row of `mat`, zero-padded to whole uint64s.
    A large matrix is cut into blocks of 8 rows by 8 bits, each one
    uint64, all transposed at once.
    """
    rows, nbytes = mat.shape
    full, rest = divmod(rows, 8)
    groups = full + (rest > 0)
    padded = -(-groups // 8) * 8
    if mat.size < _BLOCK_TRANSPOSE_BYTES:
        bits = np.unpackbits(mat, axis=1, count=nbits, bitorder="little")
        out = np.zeros((nbits, padded), np.uint8)
        out[:, :groups] = np.packbits(bits.T, axis=1, bitorder="little")
        return out
    # blocks[g, i, k] is byte i of row 8 g + k, so blocks[g, i] is one block
    blocks = np.zeros((groups, nbytes, 8), np.uint8)
    by_row = blocks.transpose(0, 2, 1)
    by_row[:full] = mat[: 8 * full].reshape(full, 8, nbytes)
    if rest:
        by_row[full, :rest] = mat[8 * full :]
    x = blocks.view("<u8")[..., 0]
    for shift, mask in _BLOCK_STEPS:
        t = x >> shift
        t ^= x
        t &= mask
        x ^= t
        t <<= shift
        x ^= t
    # now byte b of blocks[g, i] is byte g of output row 8 i + b
    out = np.zeros((nbytes, 8, padded), np.uint8)
    out[..., :groups] = blocks.transpose(1, 2, 0)
    return out.reshape(8 * nbytes, padded)[:nbits]


def basis_statevector(width: int, index: int) -> np.ndarray:
    """Unit statevector with amplitude 1 on basis `index`, an integer."""
    width = _positive_width(width, "statevector")
    (index,) = _check_states((index,), width, "basis index")
    try:
        vec = np.zeros(1 << width, dtype=complex)
    except (ValueError, MemoryError):  # numpy refuses the size or the memory
        raise CapacityError(f"no statevector of width {int_text(width)} fits") from None
    vec[index] = 1.0
    return vec


def sv_run_many(c: Circuit, states: np.ndarray) -> np.ndarray:
    """Apply a lowered circuit to a batch of statevectors in one pass.

    `states` is a (2**width, B) array whose columns are the B input
    vectors; returns a fresh array of the B output columns, leaving
    `states` untouched. Its gates, composites' included, must be X, CX, H, T
    or TDG; anything else raises MustLowerError. Any other shape raises
    InvalidWidthError. Norms are checked to 1e-10 in and out. The entries
    never outnumber the elements of `states`, so no width is refused.
    """
    n = c.width
    states = np.asarray(states, dtype=complex)
    if states.ndim != 2 or states.shape[0] != 1 << n:
        raise InvalidWidthError(
            f"statevector batch shape {states.shape} does not match width {n}"
        )
    count = states.shape[1]
    rows, cols = np.nonzero(states)
    keys, amps = _pack(cols, rows, n, count), states[rows, cols]
    if not _normalised(keys, amps, n, count):
        raise ValueError("statevector must be normalised")
    return _dense(*_sv_entries(c, keys, amps, count), n, count)


def _pack(cols: np.ndarray, rows: Sequence[int], width: int, count: int):
    """Keys col << width | row of entries in a batch of `count` columns:
    uint64 while they fit in 63 bits, Python ints (dtype=object) beyond."""
    dtype = np.dtype(np.uint64 if width + (count - 1).bit_length() <= 63 else object)
    return cols.astype(dtype) << dtype.type(width) | np.asarray(rows, dtype)


def _basis(states: Sequence[int], width: int) -> tuple[np.ndarray, np.ndarray]:
    """The entries of the basis columns `states`, one of amplitude 1 each."""
    count = len(states)
    return _pack(np.arange(count), states, width, count), np.ones(count, complex)


def _run_basis(c: Circuit, states: Sequence[int]):
    """The output entries of the basis columns `states`, with no dense array."""
    return _sv_entries(c, *_basis(states, c.width), len(states), _SV_MAX_ENTRIES)


def _sv_entries(
    c: Circuit, keys: np.ndarray, amps: np.ndarray, count: int, limit: int | None = None
):
    """The statevector kernel: run a lowered circuit on sparse columns.

    A batch of `count` columns is held as its nonzero entries, keys from
    _pack and amplitudes `amps`. X, CX, T and TDG update them in place; H
    splits each entry into its two partners and sums equal keys, so a basis
    input holds two entries at most through a Toffoli template. Raises
    MustLowerError on any other gate, CapacityError before an H would
    leave more than `limit` entries, and RuntimeError if a column's norm
    drifts from 1 by more than 1e-10.
    """
    word = keys.dtype.type
    bits = [word(1 << q) for q in range(c.width)]
    for kind, q in iter_primitive_ops(c):
        bit = bits[q[-1]]
        if kind is GateKind.X:
            keys ^= bit
        elif kind is GateKind.CX:  # the control bit, shifted onto the target
            up, moved = q[1] - q[0], keys & bits[q[0]]
            keys ^= moved << word(up) if up > 0 else moved >> word(-up)
        elif kind is GateKind.H:
            low, half = keys & ~bit, amps * _SQRT1_2
            if limit is not None and 2 * len(low) > limit:
                _check_spread(low, limit, count)
            signed = np.where((keys & bit).astype(bool), -half, half)
            keys, amps = _combine(
                np.concatenate((low, low | bit)), np.concatenate((half, signed))
            )
        elif kind in _PHASES:
            np.putmask(amps, (keys & bit).astype(bool), amps * _PHASES[kind])
        else:
            raise MustLowerError(
                f"{kind.value} must be lowered before statevector simulation"
            )
    if not _normalised(keys, amps, c.width, count):
        raise RuntimeError("statevector norm drifted")
    return keys, amps


def _check_spread(low: np.ndarray, limit: int, count: int) -> None:
    """Raise CapacityError if the H that makes each distinct key of `low`
    two entries would leave more than `limit` of them."""
    low = np.sort(low)  # under numpy 2.4, np.unique is far slower on uint64
    if 2 * (1 + np.count_nonzero(low[1:] != low[:-1])) > limit:
        raise CapacityError(
            f"an H would spread {count} basis columns over more than "
            f"{limit} statevector entries"
        )


def _combine(keys: np.ndarray, amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct keys with their summed amplitudes, leaving out the
    cancellation residue (magnitude 1e-14 or less)."""
    if not len(keys):
        return keys, amps
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    sums = np.add.reduceat(amps[order], starts)
    live = np.abs(sums) > 1e-14
    return keys[starts[live]], sums[live]


def _normalised(keys: np.ndarray, amps: np.ndarray, width: int, count: int) -> bool:
    """True if every column held as entries has norm 1 to 1e-10; NaN fails."""
    cols = (keys >> keys.dtype.type(width)).astype(np.intp)
    norms = np.sqrt(np.bincount(cols, amps.real**2 + amps.imag**2, count))
    return bool(np.all(np.abs(norms - 1.0) <= 1e-10))


def _dense(keys: np.ndarray, amps: np.ndarray, width: int, count: int) -> np.ndarray:
    """The (2**width, count) array of the columns held as entries."""
    word = keys.dtype.type
    out = np.zeros((1 << width, count), dtype=complex)
    rows = (keys & word((1 << width) - 1)).astype(np.intp)
    out[rows, (keys >> word(width)).astype(np.intp)] = amps
    return out


def sv_run(c: Circuit, state: np.ndarray) -> np.ndarray:
    """The one-column case of sv_run_many, with the same checks."""
    return sv_run_many(c, np.asarray(state, dtype=complex)[..., None])[:, 0]


def unitary(c: Circuit) -> np.ndarray:
    """Dense unitary of a lowered circuit, up to _MATRIX_CAP qubits: the
    identity's columns run as one batch of basis entries."""
    if c.width > _MATRIX_CAP:
        raise CapacityError(f"unitary construction capped at {_MATRIX_CAP} qubits")
    dim = 1 << c.width
    return _dense(*_run_basis(c, np.arange(dim)), c.width, dim)


def permutation_matrix(c: Circuit) -> np.ndarray:
    """0/1 matrix of a permutation circuit's action on every basis state."""
    if c.width > _MATRIX_CAP:
        raise CapacityError(f"permutation matrix capped at {_MATRIX_CAP} qubits")
    dim = 1 << c.width
    mat = np.zeros((dim, dim))
    mat[_run(_compile(c), range(dim)), np.arange(dim)] = 1.0
    return mat


def is_permutation_circuit(c: Circuit) -> bool:
    """True when every primitive gate maps basis states to basis states."""
    return all(kind in PERMUTATION_KINDS for kind, _ in iter_primitive_ops(c))


def assert_equiv(
    a: Circuit,
    b: Circuit,
    mode: str = "exhaustive",
    samples: int = 100,
    seed: int = 0,
) -> int | None:
    """Compare two circuits on basis inputs.

    Returns None when all tested inputs agree, otherwise the first basis
    index where they differ. A permutation-only circuit is compiled. Against
    another one, or against a circuit whose Clifford+T form (itself, or its
    lowering) compiles to a path-sum program, both sides run bit-sliced from
    the same input columns and are compared lane by lane (_first_difference;
    exhaustive up to width 20). Any other pair runs on each side's natural
    backend (exhaustive up to width 12): a permutation-only circuit through
    _run (each output read as one entry of amplitude 1), anything else
    lowered and through _sv_entries, with amplitudes compared to 1e-9, as
    are the few cases a path-sum program cannot decide. Lowering one side
    therefore never hides a faulty decomposition of the other. The sparse
    inputs run in order, in batches of at most _SV_MAX_ENTRIES columns; a
    batch that would spread past _SV_MAX_ENTRIES entries (CapacityError) is
    halved and rerun, and later batches keep its size, so the batch size
    never changes the answer. One column that does not fit raises.
    """
    if a.width != b.width:
        raise InvalidWidthError(f"width mismatch: {a.width} != {b.width}")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    width = a.width
    circuits = [a, b]
    perms = [_compile(c) if is_permutation_circuit(c) else None for c in circuits]
    programs = list(perms)
    if perms.count(None) == 1:
        lone = perms.index(None)
        circuits[lone], programs[lone] = _path_sum_form(circuits[lone])
    if mode == "exhaustive":
        limit = 20 if None not in programs else 12
        if width > limit:
            raise CapacityError(
                f"exhaustive check capped at width {limit}; use sampled mode"
            )
        inputs: Sequence[int] = range(1 << width)
    else:
        try:
            samples = operator.index(samples)
        except TypeError:
            raise ValueError(f"samples must be an integer, got {samples!r}") from None
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {int_text(samples)}")
        rng = random.Random(seed)
        inputs = [rng.randrange(1 << width) for _ in range(samples)]
    if None in programs:
        return _sparse_difference(circuits, perms, inputs)
    first, unsure = _first_difference(programs, width, inputs)
    if unsure:
        diff = _sparse_difference(circuits, perms, unsure)
        if diff is not None:
            return diff
    return first


def _path_sum_form(c: Circuit) -> tuple[Circuit, _Program | None]:
    """c's Clifford+T form, as _lowered gives it, and the form's path-sum
    program, or None if _compile_path_sum refuses it.

    One walk compiles c itself. Only a c holding CCX, ZCX or SWAP beside H,
    T or TDG is lowered and compiled again, so its rules' templates run.
    """
    try:
        program = _compile_path_sum(c)
        if _LOGICAL_OPS.isdisjoint(program.code[::4]):
            return c, program
        c = lower_to_clifford_t(c)
        return c, _compile_path_sum(c)
    except _PathSumError:
        return _lowered(c), None


def _first_difference(
    programs: Sequence[_Program], width: int, inputs: Sequence[int]
) -> tuple[int | None, list[int]]:
    """Run two programs of a `width`-qubit pair on the same columns of
    `inputs` and compare them lane by lane, with big-int XOR and OR.

    A case differs where the output qubits differ, or where a path-sum
    program leaves a phase or flags it once. Flagged once, its closing H
    left weight on two orthogonal states: the rest of the circuit, which
    the kernel followed exactly from one of them, is unitary and keeps them
    orthogonal, so no basis state comes out. A case flagged twice may have
    recombined and is not decided. Returns the first input that differs
    (None if none) and, in order, the undecided inputs before it.
    """
    count = len(inputs)
    cols = _columns(inputs, width)
    outs = [
        program.run(cols + [0] * (program.width - width), count)
        for program in programs
    ]
    differ = unsure = 0
    for x, y in zip(outs[0][:width], outs[1][:width]):
        differ |= x ^ y
    for out in outs:
        if len(out) > width:
            a0, a1, a2, _, _, _, f1, f2 = out[width:]
            differ |= a0 | a1 | a2 | f1
            unsure |= f2
    differ &= ~unsure
    stop = (differ & -differ).bit_length() - 1 if differ else count
    unsure &= (1 << stop) - 1
    lanes = np.unpackbits(
        np.frombuffer(unsure.to_bytes(-(-count // 8), "little"), np.uint8),
        bitorder="little",
    )
    first = inputs[stop] if differ else None
    return first, [inputs[k] for k in np.flatnonzero(lanes).tolist()]


def _sparse_difference(
    circuits: Sequence[Circuit],
    perms: Sequence[_Program | None],
    inputs: Sequence[int],
) -> int | None:
    """The first of `inputs` on which two circuits differ, by statevector
    entries: a side with a permutation program runs it, the other its
    lowering on _sv_entries, in batches as assert_equiv describes."""
    width = circuits[0].width
    run_a, run_b = (_batch_entries(c, p) for c, p in zip(circuits, perms))
    lo, step = 0, min(len(inputs), _SV_MAX_ENTRIES)
    while lo < len(inputs):
        batch = inputs[lo : lo + step]
        try:
            (keys, amps), (other, other_amps) = run_a(batch), run_b(batch)
        except CapacityError:
            if len(batch) == 1:
                raise
            step = len(batch) // 2
            continue
        keys, diff = _combine(
            np.concatenate((keys, other)), np.concatenate((amps, -other_amps))
        )
        bad = keys[np.abs(diff) > 1e-9]
        if len(bad):  # the smallest key is in the first differing column
            return batch[int(bad.min() >> bad.dtype.type(width))]
        lo += step
    return None


def _batch_entries(c: Circuit, program: _Program | None) -> Callable:
    """Map a batch of basis states to the output entries of `c` on them:
    its permutation program's states as entries of amplitude 1, or without
    one, the statevector kernel's on `c` lowered (once)."""
    if program is not None:
        return lambda batch: _basis(_run(program, batch), c.width)
    lowered = _lowered(c)
    return lambda batch: _run_basis(lowered, batch)


def _lowered(c: Circuit) -> Circuit:
    """`c` itself if it is already Clifford+T, else its lowering."""
    if all(kind in CLIFFORD_T_KINDS for kind, _ in iter_primitive_ops(c)):
        return c
    return lower_to_clifford_t(c)
