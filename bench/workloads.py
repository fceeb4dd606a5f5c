"""The benchmark's workloads: inputs, timed operations, checks and replays.

Every operation calls qsqrt through an `Api`, which hands out the plain
functions in untraced runs and span-wrapped ones in traced runs. Each
operation checks the program's output against a reference computed here
(math.isqrt, the adder's modular sum, the T-count closed form), never
against a qsqrt helper.
"""
from __future__ import annotations

import io
import json
import math
import re
import time
from contextlib import redirect_stderr, redirect_stdout
from types import ModuleType, SimpleNamespace
from typing import Any, Hashable

import numpy as np

from spans import Tracer


class Clock:
    """Accumulates the time spent inside `with clock:` blocks."""

    def __init__(self) -> None:
        self.total = 0.0

    def __enter__(self) -> None:
        self._start = time.perf_counter()

    def __exit__(self, *exc: object) -> None:
        self.total += time.perf_counter() - self._start


class Tally:
    """Checked operations and failures; the first few failures are kept."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(what)


def primitive_count(c: Any) -> int:
    """Primitive gates in a circuit, counting through composite bodies."""
    return sum(1 if g.body is None else primitive_count(g.body) for g in c.gates)


class Api:
    """The qsqrt functions the workloads call, span-wrapped when tracing.

    Span names follow the package layout: <module>.<stage>.
    """

    def __init__(self, mods: SimpleNamespace, tr: Tracer):
        q = mods.qsqrt
        self.mods, self.q, self.cli, self.tr = mods, q, mods.cli, tr
        self._gates_of: tuple[Any, int] | None = None
        if tr.enabled:
            wrap = tr.wrap
        else:
            def wrap(name: str, fn: Any, counters: Any = None) -> Any:
                return fn
        self.build_isqrt_pipeline = wrap("sqrt.build", q.build_isqrt_pipeline)
        self.build_isqrt_circuit = wrap("sqrt.build", q.build_isqrt_circuit)
        self.build_adder = wrap("arithmetic.build", q.build_adder)
        self.build_ctrl_add_sub = wrap("arithmetic.build", q.build_ctrl_add_sub)
        self.build_ctrl_adder = wrap("arithmetic.build", q.build_ctrl_adder)
        self.flatten = wrap(
            "lowering.flatten", q.flatten,
            lambda t, args, out: t.add("lowering.flatten_gates_out", len(out.gates)),
        )
        self.lower = wrap(
            "lowering.lower", q.lower_to_clifford_t,
            lambda t, args, out: t.add("lowering.lower_gates_out", len(out.gates)),
        )
        self.perm_run = wrap(
            "sim.perm_run", q.perm_run, lambda t, args, out: self._count_perm(args[0], 1)
        )
        self.sv_run = wrap(
            "sim.sv_run", q.sv_run,
            lambda t, args, out: t.add("sim.sv_gate_applications", len(args[0].gates)),
        )
        self.unitary = wrap("sim.unitary", q.unitary)
        self.schedule_layers = wrap("analysis.schedule", q.schedule_layers)
        self.count_ops = wrap("analysis.count_ops", q.count_ops)
        self.to_qasm = wrap(
            "export.to_qasm", q.to_qasm,
            lambda t, args, text: t.add("export.qasm_bytes", len(text)),
        )
        self.from_qasm = wrap("export.from_qasm", q.from_qasm)
        self.validate = wrap(
            "circuit.validate", q.validate,
            lambda t, args, out: t.add("circuit.validate_gates", self._gates(args[0])),
        )

    def perm_sweep(self, flat: Any, states: list[int]) -> list[int]:
        """perm_run on every state under one span, so no per-case span cost."""
        with self.tr.span("sim.perm_run"):
            outputs = [self.q.perm_run(flat, s) for s in states]
        self._count_perm(flat, len(states))
        return outputs

    def _count_perm(self, c: Any, cases: int) -> None:
        self.tr.add("sim.perm_cases", cases)
        self.tr.add("sim.perm_gate_evals", cases * self._gates(c))

    def _gates(self, c: Any) -> int:
        # perm_run is called once per case on the same circuit; remember one
        if self._gates_of is None or self._gates_of[0] is not c:
            self._gates_of = (c, primitive_count(c))
        return self._gates_of[1]

    def patches(self) -> list[tuple[ModuleType, str, Any]]:
        """Bindings through which qsqrt calls into another traced layer.

        Routing them through the wrappers nests, for example, the arithmetic
        builds under a square root build and the sv_run calls under
        assert_equiv. build_isqrt_pipeline as seen by isqrt() is only
        counted, because isqrt() runs inside an opaque span.
        """
        sqrt, sim = self.mods.sqrt, self.mods.sim
        return [
            (sqrt, "build_ctrl_add_sub", self.build_ctrl_add_sub),
            (sqrt, "build_ctrl_adder", self.build_ctrl_adder),
            (sqrt, "build_isqrt_pipeline",
             self.tr.counting("sqrt.entry_builds", sqrt.build_isqrt_pipeline)),
            (sim, "perm_run", self.perm_run),
            (sim, "sv_run", self.sv_run),
            (sim, "lower_to_clifford_t", self.lower),
        ]


def run_cli(api: Api, argv: list[str], clock: Clock) -> tuple[int, str]:
    """In-process `qsqrt <argv>`: exit code and captured stdout."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        with clock, api.tr.span("cli.main", opaque=True):
            try:
                rc = api.cli.main(argv)
            except SystemExit as exc:  # argparse rejects bad arguments this way
                rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue()


def isqrt_state(a: int, n: int) -> tuple[int, int]:
    """Pipeline input (R = a, F = 1, z = 0) and the expected output state."""
    root = math.isqrt(a)
    return a | 1 << n, (a - root * root) | root << n


def adder_state(k: int, n: int) -> tuple[int, int]:
    """Adder input k = a | b << n and the expected (a + b mod 2^n) | b << n."""
    mask = (1 << n) - 1
    a, b = k & mask, k >> n
    return k, ((a + b) & mask) | b << n


class Workload:
    """One named set of inputs and the operation the benchmark times.

    inputs() returns whole passes of pass_size inputs back to back, and
    kind() names an input's kind (its size, say): operations of one kind do
    the same work, and a pass holds every kind. op() runs one operation,
    timing only its calls into qsqrt with `clock`, checks the outputs into
    `tally` and returns the number of items done. In a traced run it also
    replays hidden stages outside the clock. An untraced run makes at least
    min_ops operations. A cold workload imports qsqrt afresh before every
    pass, so nothing one pass caches can serve the next.
    """

    name = ""
    item = ""
    pass_size = 1
    min_ops = 1
    cold = False

    def inputs(self, rng: Any) -> list:
        return [None]

    def kind(self, inp: Any) -> Hashable:
        return None

    def warm_up(self, api: Api) -> None:
        raise NotImplementedError

    def op(self, api: Api, inp: Any, clock: Clock, tally: Tally) -> int:
        raise NotImplementedError


class IsqrtMixed(Workload):
    """isqrt(a) with n auto-selected; a's bit length uniform in 1..max_bits.

    Widths repeat, so work that isqrt() could keep between calls shows.
    """

    name = "isqrt-mixed"
    item = "isqrt call"

    def __init__(self, max_bits: int = 63, min_ops: int = 200):
        self.max_bits, self.min_ops = max_bits, min_ops
        self.pass_size = max_bits

    def inputs(self, rng: Any) -> list[int]:
        # A pass is one value of each bit length, in shuffled order.
        values = []
        for _ in range(64):
            block = [rng.randrange(1 << (bits - 1), 1 << bits)
                     for bits in range(1, self.max_bits + 1)]
            rng.shuffle(block)
            values.extend(block)
        return values

    def kind(self, a: int) -> int:
        # the auto-selected width: the circuit, hence the work, depends on it
        return max(4, (a.bit_length() + 2) // 2 * 2)

    def warm_up(self, api: Api) -> None:
        api.q.isqrt(1)

    def op(self, api: Api, a: int, clock: Clock, tally: Tally) -> int:
        with clock, api.tr.span("sqrt.isqrt", opaque=True):
            got = api.q.isqrt(a)
        root = math.isqrt(a)
        tally.check(
            tuple(got) == (root, a - root * root), f"isqrt({a}) returned {tuple(got)}"
        )
        if api.tr.enabled:
            n = api.q.min_width(a)
            api.tr.note("sqrt.isqrt_widths", n)
            state, expected = isqrt_state(a, n)
            out = api.perm_run(api.flatten(api.build_isqrt_pipeline(n)), state)
            tally.check(out == expected, f"replayed isqrt({a}) gave state {out}")
        return 1


class VerifySweep(Workload):
    """`qsqrt verify` of one circuit family, exhaustive, in process."""

    item = "verify case"

    def __init__(self, name: str, circuit: str, n: int, warm_n: int):
        self.name, self.circuit, self.n, self.warm_n = name, circuit, n, warm_n

    def _argv(self, n: int) -> list[str]:
        return ["verify", "--circuit", self.circuit, "--n", str(n), "--no-timing"]

    def warm_up(self, api: Api) -> None:
        run_cli(api, self._argv(self.warm_n), Clock())

    def op(self, api: Api, _: None, clock: Clock, tally: Tally) -> int:
        rc, out = run_cli(api, self._argv(self.n), clock)
        m = re.search(r"checked (\d+) cases, (\d+) passed", out)
        checked = int(m[1]) if m else 0
        tally.check(
            rc == 0 and m is not None and checked > 0 and m[1] == m[2],
            f"verify {self.circuit} n={self.n}: exit {rc}, output {out!r}",
        )
        if api.tr.enabled:
            with api.tr.span("cli.replay"):
                self._replay(api, tally)
        return checked

    def _replay(self, api: Api, tally: Tally) -> None:
        """The sweep stage by stage: build, flatten, perm_run per case."""
        n = self.n
        if self.circuit == "isqrt":
            flat = api.flatten(api.build_isqrt_pipeline(n))
            cases = [isqrt_state(a, n) for a in range(1, 1 << (n - 1))]
        else:
            flat = api.flatten(api.build_adder(n))
            cases = [adder_state(k, n) for k in range(1 << (2 * n))]
        states, expected = zip(*cases)
        outputs = api.perm_sweep(flat, list(states))
        wrong = sum(got != want for got, want in zip(outputs, expected))
        tally.check(wrong == 0, f"replayed {self.circuit} n={n} sweep: {wrong} wrong")


class CompileCost(Workload):
    """Per width: `qsqrt resources` for isqrt n, then a QASM round trip of it.

    Cold: each pass builds every width once on a fresh import, so a cache
    keyed by width gets no hits from one pass to the next. Widths stop at
    40 so that a pass takes well under a second and a run holds enough
    passes for a steady median time per width.
    """

    name = "compile-cost"
    item = "width costed and round-tripped"
    cold = True

    def __init__(self, widths: range = range(8, 41, 4)):
        self.widths = list(widths)
        self.pass_size = len(self.widths)

    def inputs(self, rng: Any) -> list[int]:
        order = []
        for _ in range(16):
            block = self.widths[:]
            rng.shuffle(block)
            order.extend(block)
        return order

    def kind(self, n: int) -> int:
        return n

    def warm_up(self, api: Api) -> None:
        # n = 4 is outside every pass, so warming up caches nothing a pass uses
        self._resources(api, 4, Clock())
        api.q.validate(api.q.from_qasm(api.q.to_qasm(api.q.build_isqrt_circuit(4))))

    def _resources(self, api: Api, n: int, clock: Clock) -> tuple[int, str]:
        argv = ["resources", "--circuit", "isqrt", "--n", str(n), "--format", "json"]
        return run_cli(api, argv, clock)

    def op(self, api: Api, n: int, clock: Clock, tally: Tally) -> int:
        rc, out = self._resources(api, n, clock)
        row = json.loads(out)[0] if rc == 0 else {}
        tally.check(
            row.get("n") == n
            and 2 * row.get("t_count", 0) == 7 * n * n + 42 * n - 56
            and row.get("width") == 2 * n + 1,
            f"resources n={n}: exit {rc}, row {row}",
        )
        if api.tr.enabled:
            with api.tr.span("cli.replay"):  # analyze() stage by stage
                lowered = api.lower(api.build_isqrt_circuit(n))
                api.schedule_layers(lowered)
                api.count_ops(lowered)
        with clock:
            circuit = api.build_isqrt_circuit(n)
            parsed = api.from_qasm(api.to_qasm(circuit))
            violations = api.validate(parsed)
        flat = api.q.flatten(circuit)  # untimed reference
        zcx = api.q.GateKind.ZCX
        expected = len(flat.gates) + 2 * sum(g.kind is zcx for g in flat.gates)
        tally.check(
            len(parsed.gates) == expected and not violations,
            f"QASM round trip n={n}: {len(parsed.gates)} gates, expected "
            f"{expected}; violations {violations}",
        )
        return 1


def adder_permutation(n: int) -> np.ndarray:
    """0/1 matrix of A <- (A + B) mod 2^n on 2n qubits."""
    dim = 1 << (2 * n)
    mat = np.zeros((dim, dim))
    for k in range(dim):
        _, out = adder_state(k, n)
        mat[out, k] = 1.0
    return mat


class SvDecomp(Workload):
    """Statevector checks of Clifford+T lowerings against their blocks.

    A pass is three checks: assert_equiv of ctrl-add-sub and of the adder
    against their lowerings, and the lowered adder's unitary against the
    adder's permutation matrix.
    """

    name = "sv-decomp"
    item = "statevector case (basis input or unitary column)"
    pass_size = 3

    def __init__(self, ctrl_n: int = 3, adder_n: int = 4, unitary_n: int = 4):
        self.ctrl_n, self.adder_n, self.unitary_n = ctrl_n, adder_n, unitary_n
        self._reference = adder_permutation(unitary_n)

    def inputs(self, rng: Any) -> list[str]:
        return ["ctrl-add-sub", "adder", "unitary"]

    def kind(self, check: str) -> str:
        return check

    def warm_up(self, api: Api) -> None:
        block = api.q.build_adder(1)
        api.q.assert_equiv(block, api.q.lower_to_clifford_t(block))

    def op(self, api: Api, check: str, clock: Clock, tally: Tally) -> int:
        if check == "unitary":
            with clock:
                adder = api.build_adder(self.unitary_n)
                u = api.unitary(api.lower(adder))
                perm = api.q.permutation_matrix(adder)
            tally.check(
                np.allclose(u, self._reference, atol=1e-9)
                and np.array_equal(perm, self._reference),
                f"unitary of lowered adder n={self.unitary_n} is not its permutation",
            )
            return u.shape[1]
        build, n = {
            "ctrl-add-sub": (api.build_ctrl_add_sub, self.ctrl_n),
            "adder": (api.build_adder, self.adder_n),
        }[check]
        with clock:
            block = build(n)
            diff = api.q.assert_equiv(block, api.lower(block))
        tally.check(diff is None, f"assert_equiv({check} n={n}) differs at {diff}")
        return 1 << block.width


#: name -> (full-size workload, tiny workload for the self-test)
WORKLOADS: dict[str, tuple[Workload, Workload]] = {
    "isqrt-mixed": (IsqrtMixed(), IsqrtMixed(max_bits=9, min_ops=5)),
    "verify-isqrt": (
        VerifySweep("verify-isqrt", "isqrt", 12, 4),
        VerifySweep("verify-isqrt", "isqrt", 6, 4),
    ),
    "verify-adder": (
        VerifySweep("verify-adder", "adder", 7, 1),
        VerifySweep("verify-adder", "adder", 3, 1),
    ),
    "compile-cost": (CompileCost(), CompileCost(range(6, 11, 2))),
    "sv-decomp": (SvDecomp(), SvDecomp(2, 2, 2)),
}


def layer_metrics(tr: Tracer, rounds: int, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics of a traced run, per round of its fixed work."""
    t, c = tr.total, tr.counts
    widths = len(tr.notes["sqrt.isqrt_widths"])
    per_round = {
        "sqrt.isqrt_s": t["sqrt.isqrt"],
        "sqrt.isqrt_calls": c["sqrt.isqrt"],
        "sqrt.build_s": t["sqrt.build"],
        "sqrt.build_calls": c["sqrt.build"],
        "arithmetic.build_s": t["arithmetic.build"],
        "arithmetic.build_calls": c["arithmetic.build"],
        "lowering.flatten_s": t["lowering.flatten"],
        "lowering.flatten_gates_out": c["lowering.flatten_gates_out"],
        "lowering.lower_s": t["lowering.lower"],
        "lowering.lower_gates_out": c["lowering.lower_gates_out"],
        "sim.perm_run_s": t["sim.perm_run"],
        "sim.perm_cases": c["sim.perm_cases"],
        "sim.perm_gate_evals": c["sim.perm_gate_evals"],
        "sim.sv_run_s": t["sim.sv_run"],
        "sim.sv_cases": c["sim.sv_run"],
        "sim.sv_gate_applications": c["sim.sv_gate_applications"],
        "sim.unitary_s": t["sim.unitary"],
        "analysis.schedule_s": t["analysis.schedule"],
        "analysis.count_ops_s": t["analysis.count_ops"],
        "export.to_qasm_s": t["export.to_qasm"],
        "export.from_qasm_s": t["export.from_qasm"],
        "export.qasm_bytes": c["export.qasm_bytes"],
        "circuit.validate_s": t["circuit.validate"],
        "circuit.validate_gates": c["circuit.validate_gates"],
        "cli.main_s": t["cli.main"],
        "cli.self_s": t["cli.main"] - tr.child["cli.replay"],
        "trace.spans": tr.spans,
        "trace.untraced_s": untraced_s,
    }
    metrics = {k: v / rounds for k, v in per_round.items()}
    builds = c["sqrt.entry_builds"] / rounds
    metrics["sqrt.builds_per_width"] = builds / widths if widths else 0.0
    metrics["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    return metrics
