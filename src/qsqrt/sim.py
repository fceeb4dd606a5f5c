"""Two simulation backends over the circuit IR.

One bit-sliced kernel pushes a whole batch of basis states through a
circuit in one pass over the gates (Biham, FSE 1997). It works on columns:
one int per qubit, whose bit k is that qubit in case k. It reads one
format, a _Program: the circuit's (opcode, q0, q1, q2) in a flat array.
_compile makes one for a circuit of classical-reversible gates (X, CX,
ZCX, CCX, SWAP); isqrt and `qsqrt verify` keep theirs in a bounded
per-(builder, width) cache. _compile_path_sum compiles a gate stream,
by default a circuit's lowering (iter_lowered_ops), when at most one H
is open at a time, as in every Toffoli template: a path sum with one path
variable live at a time (Amy, arXiv:1805.06908). Its phase opcodes keep
each case's two branches as one basis state, the qubits on which they
differ (known when compiling), branch A's phase and the difference
d = A - B of the two branches' phases (3-bit counters) and two flags, all
as more columns of the same program, and use only ^, & and the lane mask.
The kernel has two forms, both built from one table, _STATEMENTS, that
writes each opcode once as a statement: the loop _run_columns, built at
import with one `if` branch per opcode on cols[...], interprets the array,
and _generate turns it into straight-line Python, one statement per op on
locals (`c5 ^= c3 & c4`), where a SWAP only relabels two locals, in chunks
of _CHUNK_OPS statements (4.2 MB peak at isqrt n = 64, tracemalloc).
lowering._function, the package's one code generator, compiles both, with
line-only location tables. A program compiled for one call runs on the
loop. A cached program runs on the loop once, and its second run
generates its straight-line form, which serves that run and every later
one and lives as long as the program stays cached. _columns feeds the
kernel: a range of consecutive states, such as an exhaustive `qsqrt
verify` batch or assert_equiv's inputs, gets its columns straight from
the counter, and one that repeats within the range is built once for its
phase and kept (_COLUMN_CACHE_SIZE); a single state is split into bits;
any other states are transposed in, and a program starts the columns it
is not given at 0. _run hands back Python ints, so a single state or an
exhaustive sweep calls no numpy; unitary and permutation_matrix take
the uint64 array the transpose out builds (_lanes). Neither checks the
states: perm_run_many (so perm_run) checks outside states, and isqrt,
verify, permutation_matrix and assert_equiv build their own.

assert_equiv compiles each side to its permutation program, else to its
path-sum program, and runs any two programs bit-sliced from the same
columns, judged by _sweep's one lane rule as `qsqrt verify` is. unitary
runs the path-sum program of its circuit's own gates on every basis
column as one batch and reads each unflagged column off its output state
and A's phase. One statevector kernel, _sv_entries, runs everything else
that has phases: a stream of X, CX, H and T/TDG gates on a batch of
sparse columns in one pass, for sv_run_many, the columns unitary's
program flags (every column of a circuit the path sum refuses), a pair
with a side the path sum refuses and the cases two programs leave
undecided. Dense columns exist only at the API: sv_run_many and
sv_run convert them to entries and back, so the caller's array bounds
their entries. unitary and assert_equiv start from basis entries, which
the kernel bounds itself: an H that spreads such a batch past
_SV_MAX_ENTRIES entries raises CapacityError (assert_equiv then halves its
batch). Both kernels read the gates, checks included, through
iter_primitive_ops: sv_run_many and unitary c's own gates, so a CCX, SWAP
or ZCX raises MustLowerError; assert_equiv's path-sum programs and sparse
sides c's lowering, by way of iter_lowered_ops, with no lowered circuit
built.

Basis convention everywhere: bit i of an integer state or of a statevector
index is qubit i, and qubit 0 is the LSB of its register.
"""
from __future__ import annotations

import operator
import random
from array import array
from functools import lru_cache
from itertools import compress
from typing import Callable, Iterator, Sequence

import numpy as np

from .circuit import PERMUTATION_KINDS, Circuit, GateKind
from .circuit import _positive_width, iter_primitive_ops
from .errors import (
    CapacityError,
    InputRangeError,
    InvalidWidthError,
    MustLowerError,
    NonPermutationGateError,
    int_text,
)
from .lowering import _function, iter_lowered_ops
from .lowering import lower_to_clifford_t  # noqa: F401 (bench/workloads.py patches it)

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
    return _run(_compile(c), _check_states(states, c.width))


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
# on a qubit outside the mask moves both branches' phases alike, so A and
# not d, whether or not an H is open; in the mask it moves d too. An H
# opens or closes the one superposition. Opcodes 7 and 8 are unused.
_T_A, _TDG_A, _T_AX, _TDG_AX, _H_OPEN, _H_CLOSE = 5, 6, 9, 10, 11, 12
_PHASE_OPCODES = {  # (outside, inside the mask)
    GateKind.T: (_T_A, _T_AX),
    GateKind.TDG: (_TDG_A, _TDG_AX),
}
#: The columns a path-sum program keeps after its qubits' ones, in order:
#: branch A's phase and d = A - B, A's less branch B's, in eighth turns mod
#: 8 (3-bit counters, low bit first), and two flags, set in a case whose
#: closing H left a superposition once (f1) and twice (f2).
_PHASE_NAMES = ("a0", "a1", "a2", "d0", "d1", "d2", "f1", "f2")
_PHASE_COLUMNS = len(_PHASE_NAMES)

# A += x, carrying through t; A -= x, borrowing; d += (1, y, y), low bit first
_A_ADD = "t = {a0} & {0}; {a0} ^= {0}; {a2} ^= {a1} & t; {a1} ^= t"
_A_SUB = "{a0} ^= {0}; t = {a0} & {0}; {a1} ^= t; {a2} ^= {a1} & t"
_D_ADD = "t = {d0} ^ {y}; {d0} ^= ones; u = {d1} ^ {y}; {d1} ^= t; {d2} ^= t & u"

#: Each opcode as one statement, the one place its semantics is written:
#: formatted with its operands' columns ({0}, {1}, {2} for q0, q1, q2) and
#: the phase columns ({a0} ... {f2}), as cols[...] in the loop _run_columns
#: and as the locals c0, c1, ... that _generate maps columns to. A T adds
#: its qubit's column x to A and, in the mask, where B's bit is 1 - x,
#: 2 x - 1 = (1, y, y) for y = x ^ ones to d; a TDG subtracts both, adding
#: (1, x, x) to d. An opening H sets d = 4 x (B is A's state with x = 1 and
#: phase A + 4 x), and A's x becomes 0. A closing H recombines where d is 0
#: or 4 into the basis state whose qubit is d's bit 2; elsewhere it sets a
#: flag.
_STATEMENTS = {
    _CX: "{1} ^= {0}",
    _CCX: "{2} ^= {0} & {1}",
    _ZCX: "{1} ^= {0} ^ ones",
    _X: "{0} ^= ones",
    _SWAP: "{0}, {1} = {1}, {0}",
    _T_A: _A_ADD,
    _TDG_A: _A_SUB,
    _T_AX: _A_ADD + "; u = {0} ^ ones; " + _D_ADD.replace("{y}", "u"),
    _TDG_AX: _A_SUB + "; " + _D_ADD.replace("{y}", "{0}"),
    _H_OPEN: "{d0} ^= {d0}; {d1} ^= {d1}; {d2} = {0}; {0} ^= {0}",
    _H_CLOSE: "t = {d0} ^ {d1} ^ {d0} & {d1}; u = {f1} & t; "
    "{f2} ^= u ^ {f2} & u; {f1} ^= t ^ {f1} & t; {a2} ^= {0} & {d2}; {0} = {d2}",
}

#: Statements per generated function; a SWAP relabels two locals and
#: emits none. compile() of one function for a whole program peaks at
#: about 2 KB an op (19.5 MB at isqrt n = 64); in chunks of this many,
#: generating that program peaks at 4.2 MB.
_CHUNK_OPS = 2048

#: Widest pair assert_equiv checks exhaustively bit-sliced; 2**this also
#: caps its sampled inputs.
_BIT_SLICED_CAP = 20

#: Lanes per batch of _sweep, for `qsqrt verify` and assert_equiv: a column
#: stays at 8 KB, where one of 2**_BIT_SLICED_CAP lanes (131 KB) would pass
#: glibc's default 128 KiB mmap threshold, so each int the kernel made would
#: be mapped afresh.
_SWEEP_BATCH = 1 << 16

#: Entries a batch of basis columns may hold (_run_basis). Every column
#: holds at least one, so it also caps assert_equiv's batches, which halve
#: until they fit.
_SV_MAX_ENTRIES = 1 << 20

#: Programs _cached_program keeps, with their generated forms: more than
#: the 31 widths (4..64) that isqrt calls on inputs of up to 63 bits cycle
#: through, so such a mix of calls never evicts one.
_PROGRAM_CACHE_SIZE = 64

#: Periodic counter columns _periodic_column keeps: a full verify batch
#: reads 15 (q <= 14, 8.6 KB each at 2**16 lanes). None of more than
#: 2**_BIT_SLICED_CAP lanes (137 KB) is kept, so they hold at most 4.3 MB.
_COLUMN_CACHE_SIZE = 32


class _Program:
    """A compiled circuit: what _run runs.

    `code` holds (opcode, q0, q1, q2) per primitive gate in a flat array,
    zero-padded, which the loop _run_columns interprets. `width` counts
    its columns: the qubits', and a path-sum program's _PHASE_COLUMNS
    after them. A `reused` program, one that _cached_program keeps,
    generates its straight-line form (_generate) on its second run;
    `chunks` then holds it, it runs that run and every later one, and
    `code` is dropped. Any other program runs on the loop every time.
    """

    __slots__ = ("width", "code", "reused", "runs", "chunks")

    def __init__(self, width: int, code: array) -> None:
        self.width, self.code = width, code
        self.reused, self.runs = False, 0
        self.chunks: tuple[Callable, ...] | None = None

    def run(self, cols: list[int], lanes: int) -> list[int]:
        """The program's output columns (see _run_columns) on a case's
        leading columns `cols`, which it keeps; the rest start at 0."""
        cols = cols + [0] * (self.width - len(cols))  # the loop updates in place
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
    """A gate stream the phase opcodes cannot follow: a superposition they
    cannot track, or a gate that is not lowered."""


def _compile_path_sum(c: Circuit, walk: Callable = iter_lowered_ops) -> _Program:
    """The path-sum program of the gate stream walk(c): by default c's
    Clifford+T lowering (iter_lowered_ops), X, CX, H, T and TDG with no
    circuit built. unitary passes iter_primitive_ops, c's own gates, whose
    CCX, SWAP or ZCX it refuses, leaving it to the sparse kernel to raise
    MustLowerError.

    A case is its qubits' columns plus _PHASE_COLUMNS more: while an H is
    open, its two branches differ on the qubits of `mask`, which the walk
    tracks. An H opens on qubit s with mask {s}; a CX whose control is in
    the mask adds its target to it, or takes it out; an H on the mask's one
    qubit closes it. X and CX compile as in _compile, T and TDG to
    _PHASE_OPCODES (a path sum with one path variable live at a time, Amy,
    arXiv:1805.06908). Raises _PathSumError on an H while one is open that
    does not close it, and on an H left open.
    """
    code = array("H" if c.width <= 1 << 16 else "Q")
    extend, mask = code.extend, 0
    cx, x, h = GateKind.CX, GateKind.X, GateKind.H
    for kind, q in walk(c):
        if kind is cx:
            if mask >> q[0] & 1:
                mask ^= 1 << q[1]
            extend((_CX, *q, 0))
            continue
        s = q[0]
        if kind is x:
            op = _X
        elif kind is not h:
            ops = _PHASE_OPCODES.get(kind)  # T or TDG
            if ops is None:
                raise _PathSumError(f"{kind.value} is not lowered")
            op = ops[mask >> s & 1]
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


def _run(program: _Program, states: Sequence[int]) -> list[int]:
    """The output states of a program on basis states below 2**width.

    The states are not checked. Returns them as Python ints: a single
    state is reassembled from its bits, and any other batch is transposed
    out.
    """
    width, count = program.width, len(states)
    cols = program.run(_columns(states, width), count)
    return [_int_of_bits(cols)] if count == 1 else _transpose(cols, count)


def _lanes(program: _Program, states: Sequence[int]) -> np.ndarray:
    """_run's output states of a program of at most 64 columns, as the
    uint64 array the transpose out builds, before any becomes an int."""
    count = len(states)
    cols = program.run(_columns(states, program.width), count)
    return _bit_transpose(_bytes_of(cols, count), count).view("<u8").ravel()


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
    return _transpose(states, width)


# One state's bits as the bytes 0 and 1, and back, by way of its binary digits.
_FROM_DIGITS = bytes.maketrans(b"01", b"\0\1")
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _bits_of(state: int, width: int) -> list[int]:
    """The one-lane columns of `state`: bit q at index q, for q < width."""
    return list(f"{state:0{width}b}".encode()[::-1].translate(_FROM_DIGITS))


def _int_of_bits(cols: list[int]) -> int:
    """The state whose bit q is cols[q], each 0 or 1: _bits_of inverted."""
    return int(bytes(cols[::-1]).translate(_TO_DIGITS), 2)


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


def _build_loop() -> Callable[[array, list[int], int], list[int]]:
    """The kernel's loop, built from _STATEMENTS: one `if op == k:` branch
    per opcode, holding its statement on cols[p], cols[q], cols[r] and the
    phase columns cols[a0] ... cols[f2]."""
    operands = ("cols[p]", "cols[q]", "cols[r]")
    phase = {name: f"cols[{name}]" for name in _PHASE_NAMES}
    branches = "".join(
        f"        {'el' if op else ''}if op == {op}:\n"
        f"            {statement.format(*operands, **phase)}\n"
        for op, statement in sorted(_STATEMENTS.items())
    )
    names = ", ".join(_PHASE_NAMES)
    return _function(
        "def _run_columns(code, cols, lanes):\n"
        "    ones = (1 << lanes) - 1\n"
        f"    {names} = range(len(cols) - {_PHASE_COLUMNS}, len(cols))\n"
        "    it = iter(code)\n"
        "    for op, p, q, r in zip(it, it, it, it):\n"
        f"{branches}"
        "    return cols\n",
        "<kernel loop>",
    )


#: The kernel's loop: _run_columns(code, cols, lanes) runs a program's code
#: on bit-sliced columns and returns them, updated in place. Bit k of
#: cols[q] is qubit q in case k, for `lanes` cases; a path-sum program's
#: phase columns (_PHASE_NAMES) follow its qubits' and a permutation
#: program leaves the names unused. _Program.run looks it up per call.
_run_columns = _build_loop()


def _generate(width: int, code: array) -> tuple[Callable, ...]:
    """The straight-line form of a program's code: functions that run its
    ops in order, as _run_columns does, but with one statement per op
    (_STATEMENTS) on the columns as locals c0, c1, ...

    A SWAP emits no statement: it exchanges the locals of its two columns
    in `local`, the map from column to local that later statements read
    their operands through. Each function holds _CHUNK_OPS statements, the
    last at most as many; it takes the columns and the lane mask `ones`
    and returns the new columns, both in column order. A program of SWAPs
    only is one function if they permute its columns, and none if not.
    The source holds only the program's integers. Each chunk is built and
    compiled on its own, by lowering._function.
    """
    local = [f"c{q}" for q in range(width)]
    # the last columns' names, which only a path-sum program's statements
    # use; it has no SWAP, so they keep their locals
    phase = {
        name: f"c{q}"
        for name, q in zip(_PHASE_NAMES, range(width - _PHASE_COLUMNS, width))
    }
    entry, body, chunks = list(local), [], []

    def close() -> None:
        source = (
            f"def chunk(c, ones):\n    {''.join(f'{n}, ' for n in entry)}= c\n"
            f"{''.join(body)}    return [{', '.join(local)}]\n"
        )
        chunks.append(_function(source, "<generated kernel>"))

    it = iter(code)
    for op, p, q, r in zip(it, it, it, it):
        if op == _SWAP:
            local[p], local[q] = local[q], local[p]
            continue
        if len(body) == _CHUNK_OPS:  # cut only before a statement, so the
            close()  # SWAPs after the last one end the last chunk
            entry, body = list(local), []
        body.append(
            f"    {_STATEMENTS[op].format(local[p], local[q], local[r], **phase)}\n"
        )
    if body or local != entry:
        close()
    return tuple(chunks)


def _counter_column(lo: int, count: int, q: int) -> int:
    """Bit k is bit q of lo + k, for k < count: runs of 2**q zeros and 2**q
    ones, entered at phase lo mod 2**(q+1). A periodic column (count >
    2**(q+1)) of at most 2**_BIT_SLICED_CAP lanes is kept by its phase
    (_periodic_column), so every batch of a sweep shares its low columns."""
    period = 2 << q
    kept = period < count <= 1 << _BIT_SLICED_CAP
    return (_periodic_column if kept else _phase_column)(lo % period, count, q)


def _phase_column(phase: int, count: int, q: int) -> int:
    """_counter_column from phase: built from the runs of ones in its first
    period and then repeated as bytes, with no transpose."""
    run = 1 << q
    period = 2 * run
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


_periodic_column = lru_cache(maxsize=_COLUMN_CACHE_SIZE)(_phase_column)


def _transpose(rows: Sequence[int], width: int) -> list[int]:
    """Transpose a bit matrix: bit k of out[q] is bit q of rows[k].

    `rows` holds ints below 2**width and the result `width` Python ints of
    len(rows) bits each; it turns basis states into bit-sliced qubit
    columns and back.
    """
    cols = _bit_transpose(_bytes_of(rows, width), width)
    if cols.shape[1] == 8:
        return cols.view("<u8").ravel().tolist()
    return [int.from_bytes(col.tobytes(), "little") for col in cols]


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
    """The output entries of the basis columns `states` through c's
    lowering, read as its gate stream, with no dense array."""
    return _sv_entries(
        c, *_basis(states, c.width), len(states), _SV_MAX_ENTRIES, iter_lowered_ops
    )


def _sv_entries(
    c: Circuit,
    keys: np.ndarray,
    amps: np.ndarray,
    count: int,
    limit: int | None = None,
    walk: Callable = iter_primitive_ops,
):
    """The statevector kernel: run the gate stream walk(c), by default c's
    own gates, on sparse columns.

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
    for kind, q in walk(c):
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
    """Dense unitary of a lowered circuit, up to _MATRIX_CAP qubits.

    The identity's columns run as one bit-sliced batch of the path-sum
    program of c's own gates: an unflagged case is one basis state with
    amplitude e^(i pi A / 4). Only the flagged columns, or every column of
    a circuit the path sum refuses, run on the sparse kernel. A CCX, SWAP
    or ZCX, in a composite too, raises MustLowerError.
    """
    width = c.width
    if width > _MATRIX_CAP:
        raise CapacityError(f"unitary construction capped at {_MATRIX_CAP} qubits")
    dim = 1 << width
    try:
        program = _compile_path_sum(c, iter_primitive_ops)
    except _PathSumError:  # every column on the sparse kernel, on c's own gates
        entries = _sv_entries(c, *_basis(range(dim), width), dim, _SV_MAX_ENTRIES)
        return _dense(*entries, width, dim)
    lanes = _lanes(program, range(dim))  # each its state, then _PHASE_NAMES
    u = np.zeros((dim, dim), complex)
    u[lanes & (dim - 1), np.arange(dim)] = np.exp(1j * np.pi / 4 * (lanes >> width & 7))
    flagged = np.flatnonzero(lanes >> width + 6)  # f1 or f2
    if len(flagged):  # c is Clifford+T, so its lowering is c
        u[:, flagged] = _dense(*_run_basis(c, flagged), width, len(flagged))
    return u


def permutation_matrix(c: Circuit) -> np.ndarray:
    """0/1 matrix of a permutation circuit's action on every basis state."""
    if c.width > _MATRIX_CAP:
        raise CapacityError(f"permutation matrix capped at {_MATRIX_CAP} qubits")
    dim = 1 << c.width
    mat = np.zeros((dim, dim))
    mat[_lanes(_compile(c), range(dim)), np.arange(dim)] = 1.0
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
    index where they differ. Each side compiles to its permutation program
    if it is a permutation circuit, else to the path-sum program of its
    lowering, its rules' templates and all, whatever the other side is. Any
    two programs run bit-sliced from the same input columns, _SWEEP_BATCH
    lanes at a time, judged by _sweep's lane rule as `qsqrt verify` is
    (exhaustive up to width 20).
    A pair with a side the path sum refuses runs on each side's natural
    backend (exhaustive up to width 12): a permutation-only circuit through
    _run (each output read as one entry of amplitude 1), anything else
    lowered and through _sv_entries, with amplitudes compared to 1e-9, as
    are the few cases the programs leave undecided. Lowering one side
    therefore never hides a faulty decomposition of the other. The sparse
    inputs run in order, in batches of at most _SV_MAX_ENTRIES columns; a
    batch that would spread past _SV_MAX_ENTRIES entries (CapacityError) is
    halved and rerun, and later batches keep its size, so the batch size
    never changes the answer. One column that does not fit raises, as does
    a sampled check of more than 2**20 inputs, before drawing any.
    """
    if a.width != b.width:
        raise InvalidWidthError(f"width mismatch: {a.width} != {b.width}")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled":  # checked before either side is walked
        try:
            samples = operator.index(samples)
        except TypeError:
            raise ValueError(f"samples must be an integer, got {samples!r}") from None
        if samples < 1:
            raise ValueError(f"samples must be >= 1, got {int_text(samples)}")
        if samples > 1 << _BIT_SLICED_CAP:
            raise CapacityError(
                f"sampled check capped at {1 << _BIT_SLICED_CAP} inputs, the "
                f"most an exhaustive one runs; got {int_text(samples)}"
            )
    width = a.width
    circuits = (a, b)
    perms = [_permutation_program(c) for c in circuits]
    programs = [p or _path_sum_program(c) for c, p in zip(circuits, perms)]
    if mode == "exhaustive":
        limit = _BIT_SLICED_CAP if None not in programs else 12
        if width > limit:
            raise CapacityError(
                f"exhaustive check capped at width {limit}; use sampled mode"
            )
        inputs: Sequence[int] = range(1 << width)
    else:
        rng = random.Random(seed)
        inputs = [rng.randrange(1 << width) for _ in range(samples)]
    if None in programs:
        return _sparse_difference(circuits, perms, inputs)
    program, other = programs

    def expect(cols: list[int], ones: int) -> tuple[list, list]:
        return cols, other.run(cols, ones.bit_length())

    undecided: list[int] = []
    for cases, _, differ, unsure in _sweep(program, inputs, width, expect):
        stop = (differ & -differ).bit_length() - 1 if differ else len(cases)
        unsure &= (1 << stop) - 1  # the unsure lanes before the first that differs
        undecided += compress(cases, _bits_of(unsure, unsure.bit_length()))
        if differ:
            break
    diff = _sparse_difference(circuits, perms, undecided)
    return cases[stop] if diff is None and differ else diff


def _permutation_program(c: Circuit) -> _Program | None:
    """c's program if c is a permutation circuit, else None: one walk
    classifies and compiles it."""
    try:
        return _compile(c)
    except NonPermutationGateError:
        return None


def _path_sum_program(c: Circuit) -> _Program | None:
    """The path-sum program of c's lowering, or None if _compile_path_sum
    refuses it."""
    try:
        return _compile_path_sum(c)
    except _PathSumError:
        return None


def _sweep(
    program: _Program, inputs: Sequence[int], bits: int, expect: Callable
) -> Iterator[tuple[Sequence[int], tuple[list, list, list], int, int]]:
    """Run `program` on `inputs`, states of `bits` bits, _SWEEP_BATCH at a
    time, and yield per batch its inputs, its (input, expected, output) columns
    and `differ` and `unsure`, whose bit k is set where case k differs or
    is not decided. expect(cases, ones), from a batch's columns (_columns)
    and lane mask, gives the program's input columns, one per qubit, and
    the columns it must put out: an oracle's, or another program's.

    The one lane rule: a case differs where the qubits, A's phase or f1
    differ, a side with no phase columns (a permutation program, an
    oracle) counting as zero there; d is not compared. Flagged once, a
    closing H left weight on two orthogonal states: the rest of the
    circuit, which the kernel followed exactly from one of them, is unitary
    and keeps them orthogonal, so that side puts out no basis state. A case
    flagged once on one side only therefore differs; one flagged once on
    both, or twice on either (it may have recombined), is not decided.
    """
    for lo in range(0, len(inputs), _SWEEP_BATCH):
        cases = inputs[lo : lo + _SWEEP_BATCH]
        count = len(cases)
        cols, want = expect(_columns(cases, bits), (1 << count) - 1)
        width = len(cols)
        got = program.run(cols, count)
        x, y = got + [0] * _PHASE_COLUMNS, want + [0] * _PHASE_COLUMNS
        f1, f2 = width + 6, width + 7  # the flags end _PHASE_NAMES
        unsure = x[f2] | y[f2] | x[f1] & y[f1]
        differ = 0
        if got != want:  # a passing batch is cleared with one compare
            for q in (*range(width + 3), f1):  # the qubits, A's phase and f1
                differ |= x[q] ^ y[q]
            differ &= ~unsure
        yield cases, (cols, want, got), differ, unsure


def _sparse_difference(
    circuits: Sequence[Circuit],
    perms: Sequence[_Program | None],
    inputs: Sequence[int],
) -> int | None:
    """The first of `inputs` on which two circuits differ, by statevector
    entries, in batches as assert_equiv describes: a side with a permutation
    program runs it, its states read as entries of amplitude 1; the other
    runs its lowering on _sv_entries, read as a gate stream for each batch
    (_run_basis), so no lowered circuit is built."""
    width = circuits[0].width
    lo, step = 0, min(len(inputs), _SV_MAX_ENTRIES)
    while lo < len(inputs):
        batch = inputs[lo : lo + step]
        try:
            (keys, amps), (other, other_amps) = (
                _basis(_run(p, batch), width) if p else _run_basis(c, batch)
                for c, p in zip(circuits, perms)
            )
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
