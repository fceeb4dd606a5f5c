"""Two simulation backends over the circuit IR.

One permutation kernel pushes a whole batch of basis states through the
classical-reversible gates (X, CX, ZCX, CCX, SWAP) in one pass over the
gates. It works on bit-sliced columns: one int per qubit, whose bit k is
that qubit in case k. It reads one format, a _Program from _compile: the
circuit's (opcode, q0, q1, q2) in a flat array. Every caller compiles
first; isqrt and `qsqrt verify` keep theirs in a bounded per-(builder,
width) cache. The kernel has two forms of one semantics, both driven by
the opcodes: the loop _run_columns interprets the array, one `if` chain
per op, and _generate turns it into straight-line Python, one statement
per op (`c5 ^= c3 & c4`) from the table _STATEMENTS. A program compiled
for one call runs on the loop. A cached program runs on the loop once,
and its second run generates its straight-line form, which serves that
run and every later one and lives as long as the program stays cached.
One function feeds the kernel, _run, and hands back one format, a numpy
array of the output states: uint64 up to 64 qubits, Python ints
(dtype=object) beyond. A range of consecutive states, such as an
exhaustive `qsqrt verify` batch or assert_equiv's inputs, gets its columns
straight from the counter; a single state is split into bits; any other
states are transposed in. _run checks nothing: perm_run_many (so
perm_run) checks outside states, and isqrt, verify, permutation_matrix and
assert_equiv build their own.

One statevector kernel, _sv_entries, applies a lowered circuit (X, CX, H,
T, TDG, in composites too) to a batch of sparse columns in one pass over
the gates; it is reserved for verifying decompositions, where phases
matter. Dense columns exist only at the API: sv_run_many and sv_run
convert them to entries and back, so the caller's array bounds their
entries. unitary and assert_equiv start from basis entries, which the
kernel bounds itself: an H that spreads such a batch past _SV_MAX_ENTRIES
entries raises CapacityError (assert_equiv then halves its batch). Both
kernels read the gates, checks included, through iter_primitive_ops.

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

#: Each opcode as one statement of a generated kernel, formatted with its
#: (q0, q1, q2): the update _run_columns makes on cols[q], made on local c<q>.
_STATEMENTS = {
    _CX: "c{1} ^= c{0}",
    _CCX: "c{2} ^= c{0} & c{1}",
    _ZCX: "c{1} ^= c{0} ^ ones",
    _X: "c{0} ^= ones",
    _SWAP: "c{0}, c{1} = c{1}, c{0}",
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
    """A compiled permutation circuit: what _run runs.

    `code` holds (opcode, q0, q1, q2) per primitive gate in a flat array,
    zero-padded, which the loop _run_columns interprets. A `reused`
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

    One state is split into its bits and a range of step 1 gets its
    columns straight from the counter (_counter_column); any other
    sequence or array of ints is transposed in. The states are not
    checked. Returns them in one numpy array, of dtype _lane_dtype(width).
    """
    width, count = program.width, len(states)
    if count == 1:
        cols = program.run(_bits_of(int(states[0]), width), 1)
        return np.array([_int_of_bits(cols)], _lane_dtype(width))
    if isinstance(states, range) and states.step == 1:
        cols = [_counter_column(states.start, count, q) for q in range(width)]
    else:
        cols = _transpose(states, width).tolist()
    return _transpose(program.run(cols, count), count)


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
    """The permutation kernel's loop: run a program's code on bit-sliced columns.

    Bit k of cols[q] is qubit q in case k, for `lanes` cases. The columns
    are updated in place and returned.
    """
    ones = (1 << lanes) - 1
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
        else:
            cols[a], cols[b] = cols[b], cols[a]
    return cols


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
    step = 4 * _CHUNK_OPS
    chunks = []
    for start in range(0, len(code), step):
        it = iter(code[start : start + step])
        body = "".join(
            f"    {_STATEMENTS[op].format(*q)}\n" for op, *q in zip(it, it, it, it)
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
    index where they differ. A pair of permutation-only circuits is
    compared with one numpy != over a _run batch of each (exhaustive up to
    width 20). Otherwise each side runs on its natural backend: a
    permutation-only circuit through _run (each output read as one entry
    of amplitude 1), anything else lowered and through _sv_entries, with
    amplitudes compared to 1e-9 (exhaustive up to width 12). Lowering one
    side therefore never hides a faulty decomposition of the other. The
    inputs run in order, in batches of at most _SV_MAX_ENTRIES columns; a
    batch that would spread past _SV_MAX_ENTRIES entries (CapacityError)
    is halved and rerun, and later batches keep its size, so the batch
    size never changes the answer. One column that does not fit raises.
    """
    if a.width != b.width:
        raise InvalidWidthError(f"width mismatch: {a.width} != {b.width}")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    width = a.width
    a_perm, b_perm = is_permutation_circuit(a), is_permutation_circuit(b)
    if mode == "exhaustive":
        limit = 20 if a_perm and b_perm else 12
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
    if a_perm and b_perm:
        diff = np.flatnonzero(_run(_compile(a), inputs) != _run(_compile(b), inputs))
        return inputs[diff[0]] if len(diff) else None
    run_a, run_b = _batch_entries(a, a_perm), _batch_entries(b, b_perm)
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


def _batch_entries(c: Circuit, perm: bool) -> Callable:
    """Map a batch of basis states to the output entries of `c` on them:
    its program's states (compiled once) as entries of amplitude 1 if
    `perm`, else the statevector kernel's on `c` lowered (once)."""
    if perm:
        program = _compile(c)
        return lambda batch: _basis(_run(program, batch), c.width)
    lowered = _lowered(c)
    return lambda batch: _run_basis(lowered, batch)


def _lowered(c: Circuit) -> Circuit:
    """`c` itself if it is already Clifford+T, else its lowering."""
    if all(kind in CLIFFORD_T_KINDS for kind, _ in iter_primitive_ops(c)):
        return c
    return lower_to_clifford_t(c)
