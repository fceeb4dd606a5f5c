"""Two simulation backends over the circuit IR.

perm_run_many pushes a whole batch of basis states through the
classical-reversible gates (X, CX, ZCX, CCX, SWAP) in one pass over the
gates; perm_run is its one-state case and the workhorse for functional
sweeps. sv_run applies a fully lowered circuit to a dense statevector and
is reserved for verifying decompositions, where phases matter.

Basis convention everywhere: bit i of an integer state or of a statevector
index is qubit i, and qubit 0 is the LSB of its register.
"""
from __future__ import annotations

import os
import random
from typing import Sequence

import numpy as np

from .circuit import CLIFFORD_T_KINDS, PERMUTATION_KINDS, Circuit, GateKind
from .errors import (
    CapacityError,
    CircuitError,
    InputRangeError,
    InvalidWidthError,
    MustLowerError,
    NonPermutationGateError,
)
from .lowering import iter_primitive_ops, lower_to_clifford_t

#: Widest circuit sv_run accepts unless overridden (2**16 amplitudes).
DEFAULT_SV_CAP = 16

_T_PHASE = np.exp(1j * np.pi / 4)
_SQRT1_2 = 1.0 / np.sqrt(2.0)


def sv_cap() -> int:
    """Statevector qubit cap, overridable through QSQRT_SV_CAP."""
    raw = os.environ.get("QSQRT_SV_CAP")
    if raw is None:
        return DEFAULT_SV_CAP
    try:
        return int(raw)
    except ValueError:
        raise CircuitError(f"QSQRT_SV_CAP must be an integer, got {raw!r}") from None


def perm_run_many(c: Circuit, states: Sequence[int]) -> list[int]:
    """Propagate a batch of basis states through the permutation gates.

    Bit-sliced (Biham, FSE 1997): qubit q is held as one int whose bit k is
    qubit q's value in case k, so each X, CX, ZCX, CCX or SWAP is one
    big-int XOR, AND or swap for the whole batch. Composites are walked in
    place. Returns the output state of each case, in order. Raises
    InputRangeError if any state is outside the circuit's width and
    NonPermutationGateError on H, T or TDG.
    """
    width = c.width
    limit = 1 << width
    if len(states) and (min(states) < 0 or max(states) >= limit):
        bad = next(s for s in states if not 0 <= s < limit)
        raise InputRangeError(f"basis state {bad} out of range for width {width}")
    ones = (1 << len(states)) - 1
    cols = _transpose(states, width)
    for kind, q in iter_primitive_ops(c):
        if kind is GateKind.CX:
            cols[q[1]] ^= cols[q[0]]
        elif kind is GateKind.CCX:
            cols[q[2]] ^= cols[q[0]] & cols[q[1]]
        elif kind is GateKind.ZCX:
            cols[q[1]] ^= cols[q[0]] ^ ones
        elif kind is GateKind.X:
            cols[q[0]] ^= ones
        elif kind is GateKind.SWAP:
            a, b = q
            cols[a], cols[b] = cols[b], cols[a]
        else:
            raise NonPermutationGateError(
                f"{kind.value} is not a basis-state permutation"
            )
    return _transpose(cols, len(states))


def perm_run(c: Circuit, state: int) -> int:
    """Propagate one basis state: the one-case batch of perm_run_many."""
    return perm_run_many(c, (state,))[0]


def _transpose(rows: Sequence[int], width: int) -> list[int]:
    """Transpose a bit matrix: bit k of out[q] is bit q of rows[k].

    `rows` holds ints below 2**width and the result has `width` ints of
    len(rows) bits each; it turns basis states into bit-sliced qubit
    columns and back. Up to 64 bits a row or column is one uint64.
    """
    count = len(rows)
    if width <= 64:
        words = np.fromiter(rows, "<u8", count=count)
        data = words.view(np.uint8).reshape(count, 8)
    else:
        nbytes = (width + 7) // 8
        raw = b"".join(row.to_bytes(nbytes, "little") for row in rows)
        data = np.frombuffer(raw, np.uint8).reshape(count, nbytes)
    bits = np.unpackbits(data, axis=1, count=width, bitorder="little")
    packed = np.packbits(bits.T, axis=1, bitorder="little")
    if count <= 64:
        words = np.zeros((width, 8), np.uint8)
        words[:, : packed.shape[1]] = packed
        return words.view("<u8").ravel().tolist()
    return [int.from_bytes(col.tobytes(), "little") for col in packed]


def basis_statevector(width: int, index: int) -> np.ndarray:
    """Unit statevector with amplitude 1 on basis `index`."""
    if not 0 <= index < 1 << width:
        raise InputRangeError(
            f"basis index {index} out of range for width {width}"
        )
    vec = np.zeros(1 << width, dtype=complex)
    vec[index] = 1.0
    return vec


def _index(n: int, assignment: dict[int, int]) -> tuple:
    """Slice tuple selecting fixed qubit values in a [2]*n shaped array."""
    sel: list = [slice(None)] * n
    for q, v in assignment.items():
        sel[n - 1 - q] = v
    return tuple(sel)


def sv_run(c: Circuit, state: np.ndarray, cap: int | None = None) -> np.ndarray:
    """Apply a lowered circuit to a statevector, returning a fresh vector.

    The circuit must contain only {X, CX, H, T, TDG}; anything else raises
    MustLowerError. Widths above the cap (default sv_cap()) raise
    CapacityError. Norm is checked to 1e-10 on the way in and out.
    """
    if cap is None:
        cap = sv_cap()
    if c.width > cap:
        raise CapacityError(
            f"width {c.width} exceeds statevector cap {cap}"
        )
    vec = np.asarray(state, dtype=complex)
    if vec.shape != (1 << c.width,):
        raise InvalidWidthError(
            f"statevector length {vec.shape} does not match width {c.width}"
        )
    if abs(np.linalg.norm(vec) - 1.0) > 1e-10:
        raise ValueError("statevector must be normalised")
    n = c.width
    psi = vec.copy().reshape([2] * n)
    for g in c.gates:
        if g.kind not in CLIFFORD_T_KINDS:
            raise MustLowerError(
                f"{g.kind.value} must be lowered before statevector simulation"
            )
        psi = _apply(psi, g.kind, g.qubits, n)
    out = psi.reshape(-1)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-10, "statevector norm drifted"
    return out


def _apply(
    psi: np.ndarray, kind: GateKind, qubits: tuple[int, ...], n: int
) -> np.ndarray:
    if kind is GateKind.X:
        return np.roll(psi, 1, axis=n - 1 - qubits[0])
    if kind is GateKind.H:
        ax = n - 1 - qubits[0]
        lo = np.take(psi, 0, axis=ax)
        hi = np.take(psi, 1, axis=ax)
        return np.stack((lo + hi, lo - hi), axis=ax) * _SQRT1_2
    if kind is GateKind.T or kind is GateKind.TDG:
        phase = _T_PHASE if kind is GateKind.T else _T_PHASE.conjugate()
        sel = _index(n, {qubits[0]: 1})
        psi[sel] = psi[sel] * phase
        return psi
    # CX: exchange the target slices under control = 1
    src = _index(n, {qubits[0]: 1, qubits[1]: 0})
    dst = _index(n, {qubits[0]: 1, qubits[1]: 1})
    tmp = psi[src].copy()
    psi[src] = psi[dst]
    psi[dst] = tmp
    return psi


def unitary(c: Circuit, max_width: int = 10) -> np.ndarray:
    """Dense unitary of a lowered circuit, built column by column."""
    if c.width > max_width:
        raise CapacityError(
            f"unitary construction capped at {max_width} qubits"
        )
    dim = 1 << c.width
    cols = [sv_run(c, basis_statevector(c.width, j)) for j in range(dim)]
    return np.stack(cols, axis=1)


def permutation_matrix(c: Circuit) -> np.ndarray:
    """0/1 matrix of a permutation circuit's action on every basis state."""
    if c.width > 10:
        raise CapacityError("permutation matrix capped at 10 qubits")
    dim = 1 << c.width
    mat = np.zeros((dim, dim))
    mat[perm_run_many(c, range(dim)), np.arange(dim)] = 1.0
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
    cap: int | None = None,
) -> int | None:
    """Compare two circuits on basis inputs.

    Returns None when all tested inputs agree, otherwise the first basis
    index where they differ. A pair of permutation-only circuits is
    compared with one perm_run_many batch each (exhaustive up to width 20).
    Otherwise each side runs on its natural backend: a permutation-only
    circuit through one perm_run_many batch (each output embedded as a
    one-hot statevector), anything else lowered and through sv_run, with
    amplitudes compared to 1e-9 (exhaustive up to width 12). Lowering one
    side therefore never hides a faulty decomposition of the other.
    """
    if a.width != b.width:
        raise InvalidWidthError(f"width mismatch: {a.width} != {b.width}")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    width = a.width
    a_perm = is_permutation_circuit(a)
    b_perm = is_permutation_circuit(b)
    if mode == "exhaustive":
        limit = 20 if a_perm and b_perm else 12
        if width > limit:
            raise CapacityError(
                f"exhaustive check capped at width {limit}; use sampled mode"
            )
        inputs = list(range(1 << width))
    else:
        rng = random.Random(seed)
        inputs = [rng.randrange(1 << width) for _ in range(samples)]
    out_a = perm_run_many(a, inputs) if a_perm else None
    out_b = perm_run_many(b, inputs) if b_perm else None
    if out_a is not None and out_b is not None:
        for s, got_a, got_b in zip(inputs, out_a, out_b):
            if got_a != got_b:
                return s
        return None
    la = None if a_perm else lower_to_clifford_t(a)
    lb = None if b_perm else lower_to_clifford_t(b)

    def output_vector(
        outs: list[int] | None, lowered: Circuit | None, i: int
    ) -> np.ndarray:
        if outs is not None:
            return basis_statevector(width, outs[i])
        return sv_run(lowered, basis_statevector(width, inputs[i]), cap=cap)

    for i, s in enumerate(inputs):
        va = output_vector(out_a, la, i)
        vb = output_vector(out_b, lb, i)
        if np.max(np.abs(va - vb)) > 1e-9:
            return s
    return None
