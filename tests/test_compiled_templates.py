"""Templates compiled once: analyze's folds and iter_lowered_ops's
expanders, generated per template content and kept in bounded caches.

Random rule sets are checked against the rule-by-rule references of
test_expansion_table, and the caches against edited, equal and
too many templates.
"""
from hypothesis import given, settings
from hypothesis import strategies as st

from qsqrt import (
    DEFAULT_RULES,
    Circuit,
    DecompositionRule,
    Gate,
    GateKind,
    analyze,
    lower_to_clifford_t,
)
from qsqrt import analysis, lowering
from qsqrt.circuit import PRIMITIVE_ARITY
from qsqrt.lowering import _Compiled, _ExpansionTable
from strategies import primitive_circuits
from test_expansion_table import reference_analyze, reference_lower

LOWERED = [GateKind.X, GateKind.CX, GateKind.H, GateKind.T, GateKind.TDG]
CACHES = [analysis._fold_of, lowering._expander_of]


@st.composite
def templates(draw, arity, kinds):
    """A template circuit of `arity` qubits: 0-12 gates over `kinds`."""
    c = Circuit(arity)
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(kinds))
        operands = draw(st.permutations(range(arity)))
        c.append(Gate(kind, tuple(operands[: PRIMITIVE_ARITY[kind]])))
    return c


def rule_sets():
    """SWAP, ZCX and CCX rules over X, CX, H, T and TDG; some CCX templates
    also hold SWAP and ZCX gates, so those rules nest."""
    ccx = st.one_of(
        templates(3, LOWERED), templates(3, LOWERED + [GateKind.SWAP, GateKind.ZCX])
    )
    return st.fixed_dictionaries(
        {GateKind.SWAP: templates(2, LOWERED), GateKind.ZCX: templates(2, LOWERED),
         GateKind.CCX: ccx}
    ).map(lambda t: {kind: DecompositionRule(kind, c) for kind, c in t.items()})


def assert_like_the_references(c, rules=None):
    assert lower_to_clifford_t(c, rules) == reference_lower(c, rules)
    if rules is None:  # analyze reads DEFAULT_RULES, as reference_analyze does
        report, expected = analyze(c), reference_analyze(c)
        assert report == expected
        assert list(report.histogram.items()) == list(expected.histogram.items())


@settings(max_examples=150, deadline=None)
@given(rules=rule_sets(), c=st.integers(1, 5).flatmap(primitive_circuits))
def test_random_rule_sets_compile_like_the_reference(rules, c):
    assert_like_the_references(c, rules)
    # set by hand: hypothesis reruns the body, a fixture would patch once
    saved = {kind: DEFAULT_RULES[kind] for kind in rules}
    DEFAULT_RULES.update(rules)
    try:
        assert_like_the_references(c)
    finally:
        DEFAULT_RULES.update(saved)


def _swap_rule(*pairs):
    template = Circuit(2, "swap")
    for a, b in pairs:
        template.cx(a, b)
    return DecompositionRule(GateKind.SWAP, template)


def test_a_template_edited_in_place_is_seen(monkeypatch):
    c = Circuit(3).swap(0, 1).t(1).swap(1, 2).tdg(0)
    rule = _swap_rule((0, 1), (1, 0), (0, 1))
    monkeypatch.setitem(DEFAULT_RULES, GateKind.SWAP, rule)
    before, lowered = analyze(c), lower_to_clifford_t(c)
    assert (before.total_depth, len(lowered.gates)) == (7, 8)
    rule.template.h(1)  # a fourth gate, so the next calls need a new template
    after = analyze(c)
    assert after == reference_analyze(c) != before
    assert (after.total_depth, after.histogram[GateKind.H]) == (9, 2)
    assert lower_to_clifford_t(c) == reference_lower(c) != lowered


def test_equal_templates_share_one_compiled_function():
    one, other = _swap_rule((1, 0), (0, 1)), _swap_rule((1, 0), (0, 1))
    assert one.template is not other.template
    for cache in CACHES:
        first = _Compiled(_ExpansionTable({GateKind.SWAP: one}), cache)
        second = _Compiled(_ExpansionTable({GateKind.SWAP: other}), cache)
        assert first[GateKind.SWAP] is second[GateKind.SWAP]


def test_caches_hold_no_more_than_their_bound(monkeypatch):
    bound = lowering._TEMPLATE_CACHE_SIZE
    c = Circuit(2).swap(0, 1).h(0).swap(1, 0)
    for k in range(bound + 5):  # k + 1 gates: a distinct template each time
        rules = {GateKind.SWAP: _swap_rule(*[(k % 2, 1 - k % 2)] * (k + 1))}
        assert lower_to_clifford_t(c, rules) == reference_lower(c, rules)
    for k in range(bound + 5):
        rule = _swap_rule(*[(0, 1)] * (k + 1))
        monkeypatch.setitem(DEFAULT_RULES, GateKind.SWAP, rule)
        assert analyze(c).total_depth == 2 * (k + 1) + 1
    for cache in CACHES:
        info = cache.cache_info()
        assert info.maxsize == bound and info.currsize <= bound
