"""Host speed probe: a fixed pure-Python loop timed beside every operation.

The benchmark runs on a few cores of a shared host whose speed swings by
up to 1.7x for seconds at a time as other tenants' load comes and goes
(CPU time swings with it, so the cores are contended, not taken away).
Timing this loop just before and just after an operation measures the
host's speed over that operation. `scaled` turns an operation's measured
seconds into reference seconds: the seconds it would have taken had the
host run this loop in REF_S. The ratio of the two timings is steady to
about 1 % from run to run where the raw seconds move by 30 %.

The loop is benchmark code, not qsqrt code, so a change to the program
moves the operations' reference seconds and leaves the loop alone. It
mixes what qsqrt spends its time on: attribute and tuple access with bit
operations over a gate list (as in perm_run), and building small objects,
strings and dict entries (as in building, lowering and export).
"""
from __future__ import annotations

import time

#: The loop's time on the reference host (2-vCPU Intel Xeon, Python 3.11)
#: at that host's fastest; reference seconds are seconds on that host.
REF_S = 0.0012


class _Gate:
    __slots__ = ("kind", "qubits")

    def __init__(self, kind: int, qubits: tuple[int, ...]):
        self.kind, self.qubits = kind, qubits


_GATES = [_Gate(i % 3, (i % 11, (i * 7 + 3) % 11, (i * 5 + 1) % 11)) for i in range(48)]


def _loop() -> int:
    state = 0x2D5
    for start in range(96):
        state ^= start
        for g in _GATES:
            k, q = g.kind, g.qubits
            if k == 0:
                state ^= 1 << q[0]
            elif k == 1:
                if state >> q[0] & 1:
                    state ^= 1 << q[1]
            elif state >> q[0] & 1 and state >> q[1] & 1:
                state ^= 1 << q[2]
    names: dict[str, _Gate] = {}
    for i in range(1280):
        g = _Gate(i & 3, (i, i + 1))
        names[f"g{i}[{g.qubits[0]}]"] = g
    return state + len(names)


def probe() -> float:
    """Seconds the reference loop takes now."""
    start = time.perf_counter()
    _loop()
    return time.perf_counter() - start


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between probes `before` and `after`, in reference seconds."""
    return seconds * REF_S * 2.0 / (before + after)
