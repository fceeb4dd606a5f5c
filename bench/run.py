"""Benchmark for qsqrt: end-to-end and per-layer timings on five workloads.

Run from the repository root:

    python3 bench/run.py --workload isqrt-mixed --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1. The lines before it
give each metric with its unit, the error rate and the run environment.
End-to-end times are in reference seconds: measured seconds scaled by the
host's speed, probed beside each timed piece (see hostspeed.py).
One process runs one workload in a closed loop (one caller, no threads);
`--workload all` runs each workload in a child process, one after another.
The benchmark writes no files.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace
from typing import Any

import numpy as np

import hostspeed
from spans import Tracer
from workloads import WORKLOADS, Api, Clock, Tally, Workload, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Set-ups before measuring; one more is timed each SETUP_INTERVAL seconds
#: of measuring, and setup_s is the median of all of them.
SETUP_REPEATS = 5
SETUP_INTERVAL = 1.0
#: p95 is reported only with at least ten samples beyond it.
P95_MIN_SAMPLES = 200


def use_checkout_source() -> None:
    """Make `import qsqrt` load the package from this checkout's src/.

    Each import compiles the sources afresh and leaves no __pycache__ there.
    """
    sys.dont_write_bytecode = True
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_program() -> SimpleNamespace:
    """Import qsqrt afresh, dropping any modules of an earlier import."""
    for name in [m for m in sys.modules if m == "qsqrt" or m.startswith("qsqrt.")]:
        del sys.modules[name]
    mods = SimpleNamespace(
        qsqrt=importlib.import_module("qsqrt"),
        cli=importlib.import_module("qsqrt.cli"),
        sqrt=importlib.import_module("qsqrt.sqrt"),
        sim=importlib.import_module("qsqrt.sim"),
    )
    if not Path(mods.qsqrt.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"qsqrt was imported from {mods.qsqrt.__file__}, not {SRC}")
    return mods


def set_up(wl: Workload, seed: int, tally: Tally) -> tuple[SimpleNamespace, list, float]:
    """Import qsqrt afresh, make the inputs and warm up; time all three.

    The time is in reference seconds (see hostspeed).

    numpy is imported once per process before this and is not part of it.
    A warm-up that raises is a failed check, not a crash.
    """
    before = hostspeed.probe()
    start = time.perf_counter()
    mods = load_program()
    inputs = wl.inputs(random.Random(seed))
    try:
        wl.warm_up(Api(mods, Tracer(enabled=False)))
        tally.check(True, "")
    except Exception as exc:  # the run must go on and report the failure
        tally.check(False, f"{wl.name} warm-up: {type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    return mods, inputs, hostspeed.scaled(seconds, before, hostspeed.probe())


def run_op(wl: Workload, api: Api, inp: Any, clock: Clock, tally: Tally) -> int:
    """One operation; an exception counts as a failed check, not a crash."""
    try:
        return wl.op(api, inp, clock, tally)
    except Exception as exc:  # the run must go on and report the failure
        tally.check(False, f"{wl.name}: {type(exc).__name__}: {exc}")
        return 0


def measure(
    wl: Workload, seed: int, seconds: float, tally: Tally
) -> tuple[dict, list[float]]:
    """Set up, then an untraced closed loop: operations back to back for `seconds`.

    Runs at least one whole pass. The host speed probe runs between
    operations, and each operation's time is scaled to reference seconds
    by the probes on either side of it (see hostspeed). pass_s sums, over
    the inputs of a pass, the median reference time of the input's kind,
    and items_per_s is a pass's items over pass_s. setup_s is the median
    set-up in reference seconds, with set-ups spread over the run.
    Returns the metrics and every operation's measured time.
    """
    setups = [set_up(wl, seed, tally) for _ in range(SETUP_REPEATS)]
    mods, inputs, _ = setups[-1]
    setup_times = [t for _, _, t in setups]
    pass_kinds = [wl.kind(inp) for inp in inputs[:wl.pass_size]]
    api = Api(mods, Tracer(enabled=False))
    clock = Clock()
    by_kind: defaultdict[Any, list[float]] = defaultdict(list)
    raw_by_kind: defaultdict[Any, list[float]] = defaultdict(list)
    items_of: dict[Any, int] = {}
    times: list[float] = []
    probes: list[float] = []
    start = time.perf_counter()
    next_setup = start + SETUP_INTERVAL
    while len(times) < max(wl.min_ops, wl.pass_size) or time.perf_counter() - start < seconds:
        if time.perf_counter() >= next_setup:
            setup_times.append(set_up(wl, seed, tally)[2])
            next_setup += SETUP_INTERVAL
        if wl.cold and times and len(times) % wl.pass_size == 0:
            api = Api(load_program(), Tracer(enabled=False))
        inp = inputs[len(times) % len(inputs)]
        kind = wl.kind(inp)
        before = hostspeed.probe()
        clocked = clock.total
        items = run_op(wl, api, inp, clock, tally)
        times.append(clock.total - clocked)
        after = hostspeed.probe()
        probes += [before, after]
        by_kind[kind].append(hostspeed.scaled(times[-1], before, after))
        raw_by_kind[kind].append(times[-1])
        items_of[kind] = max(items, items_of.get(kind, 0))
    pass_s = sum(statistics.median(by_kind[k]) for k in pass_kinds)
    metrics = {
        "pass_s": pass_s,
        "items_per_s": sum(items_of[k] for k in pass_kinds) / pass_s,
        "measured_pass_s": sum(statistics.median(raw_by_kind[k]) for k in pass_kinds),
        "host_slowdown": statistics.median(probes) / hostspeed.REF_S,
        "setup_s": statistics.median(setup_times),
    }
    return metrics, times


def measure_traced(wl: Workload, seed: int, seconds: float, tally: Tally) -> dict:
    """Per-layer metrics from rounds of fixed work, about `seconds` long.

    A round runs the first pass of inputs untraced, then the same pass with
    spans on. The difference between the two clocks is the tracing
    overhead; replays run outside the clocks. Another round starts only if
    it should end within `seconds`, and every round does the same work, so
    counts per round repeat exactly.
    """
    mods, inputs, _ = set_up(wl, seed, tally)
    work = inputs[:wl.pass_size]
    tr = Tracer()
    plain, traced = Clock(), Clock()
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or (time.perf_counter() - start) * (rounds + 1) / rounds < seconds:
        plain_api = Api(load_program() if wl.cold else mods, Tracer(enabled=False))
        for inp in work:
            run_op(wl, plain_api, inp, plain, tally)
        traced_api = Api(load_program() if wl.cold else mods, tr)
        with tr.installed(traced_api.patches()):
            for inp in work:
                run_op(wl, traced_api, inp, traced, tally)
        rounds += 1
    return layer_metrics(tr, rounds, plain.total, traced.total)


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int, loadavg: tuple[float, ...]) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "loadavg_at_start": list(loadavg),
        "git_commit": git_commit(),
        "seed": seed,
    }


def result_line(specs: list[dict], metrics: dict, tally: Tally) -> str:
    """The final JSON line; metric names and units come from BENCHMARK.json."""
    names = [s["name"] for s in specs]
    if sorted(names) != sorted(metrics):
        raise RuntimeError(f"metrics {sorted(metrics)} do not match {sorted(names)}")
    return json.dumps({
        "correct": tally.attempted > 0 and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs},
    })


def run_one(
    wl: Workload, args: argparse.Namespace, spec: dict, loadavg: tuple[float, ...]
) -> int:
    """Set up, measure and print one workload's result; 1 if a check failed."""
    tally = Tally()
    if args.trace:
        metrics = measure_traced(wl, args.seed, args.seconds, tally)
        specs = spec["per_layer"]
    else:
        metrics, times = measure(wl, args.seed, args.seconds, tally)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        specs = spec["end_to_end"]
    print(f"workload {wl.name} (item: {wl.item}), trace {args.trace}")
    for s in specs:
        print(f"{s['name']} = {metrics[s['name']]:.6g} {s['unit']}")
    if not args.trace:
        # not gated: figures in measured seconds, under the host's current load
        print(f"pass_s = {metrics.pop('pass_s'):.6g} s (reference seconds)")
        print(f"measured_pass_s = {metrics.pop('measured_pass_s'):.6g} s")
        print(f"host_slowdown = {metrics.pop('host_slowdown'):.6g} "
              f"(median probe over the reference host's fastest)")
        print(f"op_p50_ms = {1000.0 * statistics.median(times):.6g} ms "
              f"({len(times)} operations)")
        if len(times) >= P95_MIN_SAMPLES:
            p95 = statistics.quantiles(times, n=20)[18]
            print(f"op_p95_ms = {1000.0 * p95:.6g} ms")
    print(f"error_rate = {tally.failed / max(tally.attempted, 1):.6g} "
          f"({tally.failed} of {tally.attempted} checks failed)")
    for error in tally.errors:
        print(f"FAIL: {error}", file=sys.stderr)
    print("env " + json.dumps(environment(args.seed, loadavg)))
    print(result_line(specs, metrics, tally))
    return 0 if tally.failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own child process, so peak memory stays its own."""
    metrics: dict = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        print(f"== {name}")
        print(proc.stdout, end="")
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            correct = False
            continue
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}/{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    loadavg = os.getloadavg()
    bench_json = ROOT / "BENCHMARK.json"
    spec = json.loads(bench_json.read_text(encoding="utf-8")) if bench_json.is_file() else {}
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.get("run_seconds", 20))
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qsqrt" / "__init__.py").is_file() or not spec:
        print("error: run from the root of a qsqrt checkout "
              "(src/qsqrt and BENCHMARK.json are needed)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    use_checkout_source()
    return run_one(WORKLOADS[args.workload][0], args, spec, loadavg)


if __name__ == "__main__":
    sys.exit(main())
