"""Decomposition passes from composite/logical gates down to Clifford+T.

The lowered primitive set is {X, CX, H, T, TDG}. SWAP, ZCX and CCX are
rewritten through a registry of decomposition rules so alternative
realizations (for example a different Toffoli network) can be plugged in
without touching the circuit generators.

Every consumer of the rules goes through one expansion table, built per
call from the rules mapping: for each gate kind, its fully lowered
template over operand positions, with nested rules resolved. A consumer
compiles each template it meets once into a straight-line Python
function, written from its own statement per lowered kind with the
template's gates unrolled on locals; the functions are kept in a bounded
module-level cache keyed by the template's content, not by its kind or
rule, and generated on first use by _function, the package's one code
generator (sim's kernel loop and chunks use it too), with a line-only
location table. iter_lowered_ops expands each templated source gate with one call
of its expander, as one stream of lowered gates, which
lower_to_clifford_t collects, one Gate per distinct op
(circuit._shared_gates, as flatten does), and sim's path-sum compiler
reads without building the lowered circuit; analyze folds each one into
its ASAP levels with one call of its fold.

None checks a gate itself: all read their source gates, as flatten
does, through circuit.iter_primitive_ops, which raises Circuit.append's
error on a malformed hand-built gate at any depth and a CircuitError on a
composite cycle. Building a rule raises UnsupportedGateError for a kind
other than SWAP, ZCX and CCX and ArityError for a template width other than
its kind's arity; rules that expand a kind back to itself raise
UnsupportedGateError when the table resolves them.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from types import FunctionType
from typing import Callable, Iterator, Mapping

from .circuit import (
    CLIFFORD_T_KINDS,
    PRIMITIVE_ARITY,
    Circuit,
    GateKind,
    _shared_gates,
    iter_primitive_ops,
)
from .errors import ArityError, UnsupportedGateError


def flatten(c: Circuit) -> Circuit:
    """Expand all composite gates in place order; primitives pass through."""
    out = Circuit(c.width, c.name)
    out.gates.extend(_shared_gates(iter_primitive_ops(c)))
    return out


@dataclass(frozen=True)
class DecompositionRule:
    """Rewrites one gate kind into a template circuit over the gate's arity.

    The template's qubit i stands for operand i of the source gate, so the
    replacement acts only on the gate's own operands.
    """

    kind: GateKind
    template: Circuit

    def __post_init__(self) -> None:
        if self.kind in CLIFFORD_T_KINDS or self.kind not in PRIMITIVE_ARITY:
            raise UnsupportedGateError(  # a lowered kind, or COMPOSITE
                f"no rule rewrites {self.kind.value}: rules are for swap, zcx and ccx"
            )
        arity = PRIMITIVE_ARITY[self.kind]
        if self.template.width != arity:
            raise ArityError(
                f"a {self.kind.value} rule needs a template of width {arity}, "
                f"got {self.template.width}"
            )


def _swap_template() -> Circuit:
    qc = Circuit(2, "swap")
    qc.cx(0, 1)
    qc.cx(1, 0)
    qc.cx(0, 1)
    return qc


def _zcx_template() -> Circuit:
    # X-conjugation of the control keeps permutation semantics exact
    qc = Circuit(2, "zcx")
    qc.x(0)
    qc.cx(0, 1)
    qc.x(0)
    return qc


def _toffoli_template() -> Circuit:
    # 2 H, 6 CX, 4 T, 3 TDG; equals CCX exactly as an 8x8 unitary
    a, b, c = 0, 1, 2
    qc = Circuit(3, "ccx")
    qc.h(c)
    qc.cx(b, c)
    qc.tdg(c)
    qc.cx(a, c)
    qc.t(c)
    qc.cx(b, c)
    qc.tdg(c)
    qc.cx(a, c)
    qc.t(b)
    qc.t(c)
    qc.h(c)
    qc.cx(a, b)
    qc.tdg(b)
    qc.cx(a, b)
    qc.t(a)
    return qc


DEFAULT_RULES: dict[GateKind, DecompositionRule] = {
    GateKind.SWAP: DecompositionRule(GateKind.SWAP, _swap_template()),
    GateKind.ZCX: DecompositionRule(GateKind.ZCX, _zcx_template()),
    GateKind.CCX: DecompositionRule(GateKind.CCX, _toffoli_template()),
}


#: A fully lowered expansion: (lowered kind, operand positions) pairs.
Template = tuple[tuple[GateKind, tuple[int, ...]], ...]


class _ExpansionTable(dict):
    """Fully lowered template of each gate kind, resolved on first lookup.

    table[kind] is a tuple of (lowered kind, operand positions) pairs over
    {X, CX, H, T, TDG}: position i stands for operand i of a `kind` gate.
    A lowered kind maps to itself; any other kind is its rule's template,
    read through the checked walk, with every gate replaced by that gate's
    own entry. Resolving on lookup means UnsupportedGateError is raised
    only for a kind that is actually used, and building one table per call
    means a changed `rules` mapping is always seen. A kind whose rules
    expand back to that kind, directly or through nested rules, raises
    UnsupportedGateError too.
    """

    def __init__(self, rules: Mapping[GateKind, DecompositionRule] | None = None):
        super().__init__()
        self.rules = DEFAULT_RULES if rules is None else rules
        self.resolving: set[GateKind] = set()

    def __missing__(self, kind: GateKind) -> Template:
        if kind in CLIFFORD_T_KINDS:
            template: Template = ((kind, tuple(range(PRIMITIVE_ARITY[kind]))),)
        else:
            rule = self.rules.get(kind)
            if rule is None or rule.kind is not kind:  # filed under another kind
                raise UnsupportedGateError(f"no decomposition rule for {kind.value}")
            if kind in self.resolving:
                raise UnsupportedGateError(
                    f"the decomposition rules for {kind.value} expand to {kind.value}"
                )
            self.resolving.add(kind)
            # the template's qubit i is operand i, so its walk gives positions
            template = tuple(
                (lowered, tuple(qubits[p] for p in positions))
                for sub, qubits in iter_primitive_ops(rule.template)
                for lowered, positions in self[sub]
            )
            self.resolving.discard(kind)
        self[kind] = template
        return template


#: Compiled templates each consumer's cache (_expander_of,
#: analysis._fold_of) keeps: the default rules need at most six (their
#: three templated kinds, and H, T and TDG, which analyze also folds), so
#: a few rule sets in turn never evict one.
_TEMPLATE_CACHE_SIZE = 32


def _function(source: str, filename: str, namespace: dict | None = None) -> Callable:
    """The one function `source`, a single `def`, compiles to under
    `filename`, with `namespace` (an empty dict if none) for its globals.

    Every generated function in the package is made here: sim's kernel
    loop and straight-line chunks, and the consumers' template functions.
    Its location table holds lines only, every code unit on line 1: no
    source is kept for columns, and a traceback entry with no line breaks
    pytest's report. From Python 3.11 on, each entry 0xE8 + k, 0 covers
    k + 1 code units at line delta 0, 2 bytes per 8 units where compile()'s
    table costs about 14 an op. On 3.10, with another format, it keeps its own.
    """
    code = compile(source, filename, "exec").co_consts[0]
    if sys.version_info >= (3, 11):
        full, rest = divmod(len(code.co_code) // 2, 8)
        table = b"\xef\x00" * full + (bytes((0xE8 + rest - 1, 0)) if rest else b"")
        code = code.replace(co_linetable=table)
    return FunctionType(code, {} if namespace is None else namespace)


def _unpacked(arity: int) -> str:
    """A template function's first line: its argument `qubits` unpacked
    into locals q0 ... q<arity-1>."""
    return f"    {''.join(f'q{i}, ' for i in range(arity))}= qubits\n"


class _Compiled(dict):
    """kind -> one consumer's function of the kind's template in `table`,
    taken from the consumer's cache (`of(template, arity)`) on first
    lookup, so only the kinds a call meets are resolved and generated."""

    def __init__(self, table: _ExpansionTable, of: Callable[[Template, int], Callable]):
        super().__init__()
        self.table, self.of = table, of

    def __missing__(self, kind: GateKind) -> Callable:
        fn = self[kind] = self.of(self.table[kind], PRIMITIVE_ARITY[kind])
        return fn


#: Each lowered kind as one (kind, qubits) pair of an expander's result,
#: formatted with its operand positions ({0}, {1}).
_PAIRS = {
    GateKind.X: "(X, (q{0},))",
    GateKind.H: "(H, (q{0},))",
    GateKind.T: "(T, (q{0},))",
    GateKind.TDG: "(TDG, (q{0},))",
    GateKind.CX: "(CX, (q{0}, q{1}))",
}
_KINDS = {kind.name: kind for kind in _PAIRS}


@lru_cache(maxsize=_TEMPLATE_CACHE_SIZE)
def _expander_of(template: Template, arity: int) -> Callable:
    """expand(qubits): the template's (kind, qubits) pairs on a source
    gate's operands, as one tuple built by straight-line code."""
    pairs = "".join(
        f"{_PAIRS[kind].format(*positions)}, " for kind, positions in template
    )
    source = f"def expand(qubits):\n{_unpacked(arity)}    return ({pairs})\n"
    return _function(source, "<template expand>", _KINDS)


def iter_lowered_ops(
    c: Circuit, rules: Mapping[GateKind, DecompositionRule] | None = None
) -> Iterator[tuple[GateKind, tuple[int, ...]]]:
    """Yield (kind, qubits) for each gate of c's Clifford+T lowering, in order.

    The expansion table laid onto the walk: a gate already in
    CLIFFORD_T_KINDS passes through, any other yields the pairs of its
    kind's compiled expander on its operands, and a kind with no rule
    raises UnsupportedGateError. The walk checks each source gate and a
    template's positions are distinct operands, so each gate yielded would
    pass Circuit.append.
    """
    expanders = _Compiled(_ExpansionTable(rules), _expander_of)
    for kind, qubits in iter_primitive_ops(c):
        if kind in CLIFFORD_T_KINDS:
            yield kind, qubits
            continue
        yield from expanders[kind](qubits)


def lower_to_clifford_t(
    c: Circuit, rules: Mapping[GateKind, DecompositionRule] | None = None
) -> Circuit:
    """Flatten and rewrite until only {X, CX, H, T, TDG} remain: the
    circuit of iter_lowered_ops, built without going through append.

    Idempotent: running it on an already lowered circuit returns an equal
    circuit.
    """
    out = Circuit(c.width, c.name)
    out.gates.extend(_shared_gates(iter_lowered_ops(c, rules)))
    return out
