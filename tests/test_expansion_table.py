"""The one expansion table behind analyze and lower_to_clifford_t.

Both are checked against references written here the way they used to be
composed: a recursive rule-by-rule lowering that instantiates each rule's
template onto the gate's operands through Circuit.append, then schedule_layers and count_ops on its output.
"""
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsqrt import (
    CLIFFORD_T_KINDS,
    DEFAULT_RULES,
    Circuit,
    DecompositionRule,
    Gate,
    GateKind,
    ResourceReport,
    analyze,
    build_isqrt_circuit,
    count_ops,
    flatten,
    basis_statevector,
    is_permutation_circuit,
    lower_to_clifford_t,
    perm_run,
    permutation_matrix,
    schedule_layers,
    sv_run,
    to_qasm,
    unitary,
    validate,
)
from qsqrt.cli import FAMILIES
from qsqrt.errors import (
    ArityError,
    CircuitError,
    OperandCollisionError,
    QubitIndexError,
    UnsupportedGateError,
)
from qsqrt.lowering import iter_primitive_ops
from strategies import family_widths, primitive_circuits


def reference_lower(c, rules=None):
    """Lower gate by gate, expanding each rule recursively on its operands."""
    rules = DEFAULT_RULES if rules is None else rules
    out = Circuit(c.width, c.name)

    def emit(g):
        if g.kind in CLIFFORD_T_KINDS:
            out.append(g)
            return
        rule = rules.get(g.kind)
        if rule is None:
            raise UnsupportedGateError(f"no decomposition rule for {g.kind.value}")
        for tg in rule.template.gates:
            emit(Gate(tg.kind, tuple(g.qubits[i] for i in tg.qubits)))

    for kind, qubits in iter_primitive_ops(c):
        emit(Gate(kind, qubits))
    return out


def reference_analyze(c):
    """analyze composed from the lowered circuit and the public helpers."""
    lowered = lower_to_clifford_t(c)
    layers = schedule_layers(lowered)
    hist = count_ops(lowered)
    t_kinds = (GateKind.T, GateKind.TDG)
    t_layers = {layer for g, layer in zip(lowered.gates, layers) if g.kind in t_kinds}
    return ResourceReport(
        width=c.width,
        t_count=hist.get(GateKind.T, 0) + hist.get(GateKind.TDG, 0),
        t_depth=len(t_layers),
        total_depth=max(layers, default=0),
        histogram=hist,
    )


def assert_streams_like_reference(c):
    lowered = lower_to_clifford_t(c)
    assert lowered == reference_lower(c)  # width, name and every gate
    report = analyze(c)
    expected = reference_analyze(c)
    assert report == expected
    # histogram keys in order of first appearance, as count_ops gives them
    assert list(report.histogram.items()) == list(expected.histogram.items())


def _alternate_swap_rule():
    # the SWAP of test_alternate_rule_can_be_plugged: opposite CX orientation
    alt = Circuit(2, "swap")
    alt.cx(1, 0)
    alt.cx(0, 1)
    alt.cx(1, 0)
    return DecompositionRule(GateKind.SWAP, alt)


def _nested_toffoli_rule():
    """A CCX rule whose template holds SWAP and ZCX gates.

    The default Toffoli network on the swapped controls, between two SWAPs
    (CCX is symmetric in its controls), with one CX(a, c) written as
    ZCX(a, c) then X(c).
    """
    a, b, c = 0, 1, 2
    qc = Circuit(3, "ccx")
    qc.swap(a, b)
    qc.h(c)
    qc.cx(a, c)
    qc.tdg(c)
    qc.zcx(b, c)
    qc.x(c)
    qc.t(c)
    qc.cx(a, c)
    qc.tdg(c)
    qc.cx(b, c)
    qc.t(a)
    qc.t(c)
    qc.h(c)
    qc.cx(b, a)
    qc.tdg(a)
    qc.cx(b, a)
    qc.t(b)
    qc.swap(a, b)
    return DecompositionRule(GateKind.CCX, qc)


FAMILY_WIDTHS = [
    (name, n)
    for name, family in FAMILIES.items()
    for n in family_widths(family, 17)
]


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(primitive_circuits))
def test_random_circuits_stream_like_the_reference(c):
    assert_streams_like_reference(c)


@pytest.mark.parametrize("name, n", FAMILY_WIDTHS)
def test_families_stream_like_the_reference(name, n):
    assert_streams_like_reference(FAMILIES[name].build(n))


def test_isqrt_n64_streams_like_the_reference():
    assert_streams_like_reference(build_isqrt_circuit(64))


def test_nested_toffoli_rule_is_a_toffoli():
    logical = Circuit(3).ccx(0, 1, 2)
    rules = {**DEFAULT_RULES, GateKind.CCX: _nested_toffoli_rule()}
    lowered = lower_to_clifford_t(logical, rules)
    kinds = [g.kind for g in lowered.gates]
    assert (kinds.count(GateKind.CX), kinds.count(GateKind.X)) == (5 + 1 + 3 + 3, 3)
    assert np.max(np.abs(unitary(lowered) - permutation_matrix(logical))) < 1e-12


PATCHED_RULES = pytest.mark.parametrize(
    "kind, rule",
    [(GateKind.SWAP, _alternate_swap_rule()), (GateKind.CCX, _nested_toffoli_rule())],
    ids=["alternate-swap", "nested-ccx"],
)


@PATCHED_RULES
@settings(max_examples=40, deadline=None)
@given(c=st.integers(1, 5).flatmap(primitive_circuits))
def test_patched_default_rules_are_seen(kind, rule, c):
    # set by hand: hypothesis reruns the body, a fixture would patch once
    saved = DEFAULT_RULES[kind]
    DEFAULT_RULES[kind] = rule
    try:
        assert_streams_like_reference(c)
    finally:
        DEFAULT_RULES[kind] = saved


@PATCHED_RULES
@pytest.mark.parametrize(
    "name, n", [("isqrt", 6), ("adder", 4), ("ctrl-add-sub", 3), ("ctrl-add", 3)]
)
def test_patched_default_rules_are_seen_by_families(monkeypatch, kind, rule, name, n):
    monkeypatch.setitem(DEFAULT_RULES, kind, rule)
    assert_streams_like_reference(FAMILIES[name].build(n))


def test_patched_rule_changes_the_report(monkeypatch):
    c = Circuit(3).ccx(0, 1, 2)
    before = analyze(c)
    monkeypatch.setitem(DEFAULT_RULES, GateKind.CCX, _nested_toffoli_rule())
    after = analyze(c)
    assert after.t_count == before.t_count == 7
    assert after.histogram[GateKind.CX] == 12
    assert after.histogram[GateKind.X] == 3  # the ZCX's two and the rule's own
    assert after == reference_analyze(c)


def test_missing_rule_raises_only_for_a_used_kind():
    rules = {GateKind.SWAP: DEFAULT_RULES[GateKind.SWAP]}
    assert len(lower_to_clifford_t(Circuit(2).swap(0, 1), rules).gates) == 3
    with pytest.raises(UnsupportedGateError, match="no decomposition rule for zcx"):
        lower_to_clifford_t(Circuit(2).zcx(0, 1), rules)
    nested = {**DEFAULT_RULES, GateKind.CCX: _nested_toffoli_rule()}
    del nested[GateKind.ZCX]
    with pytest.raises(UnsupportedGateError, match="no decomposition rule for zcx"):
        lower_to_clifford_t(Circuit(3).ccx(0, 1, 2), nested)
    misfiled = {GateKind.SWAP: DEFAULT_RULES[GateKind.ZCX]}  # no SWAP rule
    with pytest.raises(UnsupportedGateError, match="no decomposition rule for swap"):
        lower_to_clifford_t(Circuit(2).swap(0, 1), misfiled)


def _planted(width, *gates):
    c = Circuit(width)
    c.gates.extend(gates)  # past append's check, as a hand-built circuit may be
    return c


def _case(width, gate):
    return _planted(width, gate), width, gate


def _nested(body_gate, operands=(0, 2), width=3):
    # append_composite checks the composite, not the planted body gate
    c = Circuit(width)
    c.append_composite("BLOCK", _planted(len(operands), body_gate), operands)
    return c


def _deep_collision():
    # two composite levels: the inner body's own ccx(2, 0, 2), named as the
    # inner body holds it
    inner = _planted(3, Gate(GateKind.CCX, (2, 0, 2)))
    middle = Circuit(3).append_composite("INNER", inner, [2, 0, 1])
    c = Circuit(5).append_composite("MIDDLE", middle, [4, 0, 1])
    return c, 3, Gate(GateKind.CCX, (2, 0, 2))


def _nested_case(body_gate):
    # a body gate is named as the body holds it, as the body's append would
    return _nested(body_gate), 2, body_gate


# name: (circuit, width of the circuit that holds its bad gate, the bad
# gate as held, error type)
MALFORMED = {
    "out-of-range": (*_case(3, Gate(GateKind.CX, (0, 3))), QubitIndexError),
    "out-of-range-ccx": (*_case(3, Gate(GateKind.CCX, (0, 1, 5))), QubitIndexError),
    "negative": (*_case(3, Gate(GateKind.T, (-1,))), QubitIndexError),
    "negative-swap": (*_case(3, Gate(GateKind.SWAP, (-1, 0))), QubitIndexError),
    "duplicate": (*_case(3, Gate(GateKind.CX, (1, 1))), OperandCollisionError),
    "duplicate-ccx": (*_case(3, Gate(GateKind.CCX, (0, 2, 0))), OperandCollisionError),
    "short-ccx": (*_case(3, Gate(GateKind.CCX, (0, 1))), ArityError),
    "long-x": (*_case(3, Gate(GateKind.X, (0, 1))), ArityError),
    "body-less": (
        *_case(3, Gate(GateKind.COMPOSITE, (0, 1), "BLOCK", None)), ArityError
    ),
    "nested-duplicate": (
        *_nested_case(Gate(GateKind.CX, (1, 1))), OperandCollisionError
    ),
    "nested-duplicate-deep": (*_deep_collision(), OperandCollisionError),
    "nested-negative": (*_nested_case(Gate(GateKind.X, (-1,))), QubitIndexError),
    "nested-out-of-range": (
        *_nested_case(Gate(GateKind.CX, (0, 2))), QubitIndexError
    ),
    "nested-long-x": (*_nested_case(Gate(GateKind.X, (0, 1))), ArityError),
    # a float or a bool equal to a qubit index is still no operand
    "float": (*_case(3, Gate(GateKind.X, (1.5,))), QubitIndexError),
    "integral-float": (*_case(3, Gate(GateKind.CX, (0, 1.0))), QubitIndexError),
    "bool": (*_case(3, Gate(GateKind.T, (True,))), QubitIndexError),
    "nested-float": (*_nested_case(Gate(GateKind.X, (1.0,))), QubitIndexError),
    "nested-bool": (*_nested_case(Gate(GateKind.CX, (0, True))), QubitIndexError),
}


def perm_run_0(c):
    return perm_run(c, 0)


def sv_run_0(c):
    return sv_run(c, basis_statevector(c.width, 0))


#: Every consumer of the composite walk, with its test id.
WALK_CONSUMERS = pytest.mark.parametrize(
    "fn",
    [analyze, lower_to_clifford_t, to_qasm, count_ops, flatten, perm_run_0,
     is_permutation_circuit, sv_run_0, unitary, Circuit.inverse],
    ids=["analyze", "lower_to_clifford_t", "to_qasm", "count_ops", "flatten",
         "perm_run", "is_permutation_circuit", "sv_run", "unitary", "inverse"],
)


@WALK_CONSUMERS
@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_circuits_raise_the_append_error(fn, case):
    c, width, bad, error = MALFORMED[case]
    with pytest.raises(error) as got:
        fn(c)
    assert isinstance(got.value, CircuitError)
    with pytest.raises(error) as appended:
        Circuit(width).append(bad)
    assert str(got.value) == str(appended.value) == validate(c)[0].message


@pytest.mark.parametrize("case", sorted(
    name for name, (c, *_) in MALFORMED.items()
    if all(g.kind is not GateKind.COMPOSITE for g in c.gates)
))
def test_schedule_layers_raises_the_append_error(case):
    # schedule_layers takes flat circuits only, so it reads the flat cases
    c, width, bad, error = MALFORMED[case]
    with pytest.raises(error) as got:
        schedule_layers(c)
    with pytest.raises(error) as appended:
        Circuit(width).append(bad)
    assert str(got.value) == str(appended.value)


def _self_composite():
    c = Circuit(2)
    return c.append_composite("C", c, [0, 1])  # the public API builds it


def _planted_cycle():
    # the cycle of test_validate_detects_composite_cycle
    inner = Circuit(1, "loop")
    outer = Circuit(1, "outer")
    outer.append_composite("loop", inner, [0])
    inner.gates.append(outer.gates[0])  # body now contains itself
    return outer


@WALK_CONSUMERS
@pytest.mark.parametrize("make", [_self_composite, _planted_cycle],
                         ids=["self-composite", "planted"])
def test_composite_cycles_raise(fn, make):
    c = make()
    assert any(v.message == "composite cycle detected" for v in validate(c))
    with pytest.raises(CircuitError, match="composite cycle detected"):
        fn(c)


def test_rule_template_must_match_the_kinds_arity():
    with pytest.raises(ArityError, match="swap rule needs a template of width 2"):
        DecompositionRule(GateKind.SWAP, Circuit(3).cx(0, 2))
    with pytest.raises(ArityError, match="ccx rule needs a template of width 3"):
        DecompositionRule(GateKind.CCX, Circuit(2).cx(0, 1))


@pytest.mark.parametrize(
    "templates",
    [
        {GateKind.SWAP: Circuit(2).swap(0, 1)},
        {GateKind.SWAP: Circuit(2).zcx(0, 1), GateKind.ZCX: Circuit(2).swap(1, 0)},
    ],
    ids=["direct", "through-zcx"],
)
def test_self_referencing_rules_raise(monkeypatch, templates):
    for kind, template in templates.items():
        monkeypatch.setitem(DEFAULT_RULES, kind, DecompositionRule(kind, template))
    for fn in (lower_to_clifford_t, analyze):
        with pytest.raises(UnsupportedGateError, match="rules for swap expand to swap"):
            fn(Circuit(2).swap(0, 1))


def test_analyze_builds_no_circuit(monkeypatch):
    c = build_isqrt_circuit(8)
    built = []
    init, append = Circuit.__init__, Circuit.append

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def counting_append(self, gate):
        built.append(gate)
        return append(self, gate)

    monkeypatch.setattr(Circuit, "__init__", counting_init)
    monkeypatch.setattr(Circuit, "append", counting_append)
    assert analyze(c).t_count == 364
    assert built == []
    lower_to_clifford_t(c)
    assert len(built) == 1  # lowering builds its output, not through append


def test_runtime_checks_hold_under_optimize():
    code = "\n".join([
        "import sys",
        "from qsqrt import Circuit, Gate, GateKind, analyze, basis_statevector",
        "from qsqrt import lower_to_clifford_t, sim",
        "from qsqrt.errors import ArityError",
        "assert False, 'asserts must be stripped'",
        "c = Circuit(2)",
        "c.gates.append(Gate(GateKind.COMPOSITE, (0, 1), 'BLOCK', None))",
        "for fn in (analyze, lower_to_clifford_t, Circuit.inverse):",
        "    try:",
        "        fn(c)",
        "    except ArityError as exc:",
        "        print(fn.__name__, exc)",
        "sim._SQRT1_2 = 1.0",
        "try:",
        "    sim.sv_run(Circuit(1).h(0), basis_statevector(1, 0))",
        "except RuntimeError as exc:",
        "    print('sv_run', exc)",
    ])
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.splitlines() == [
        "analyze composite gate without a body",
        "lower_to_clifford_t composite gate without a body",
        "inverse composite gate without a body",
        "sv_run statevector norm drifted",
    ]
