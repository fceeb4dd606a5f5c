"""Self-test of the benchmark at tiny sizes: python3 -m pytest bench"""
from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import hostspeed
import run
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ENV_KEYS = {"python", "numpy", "nproc", "cpu_model", "loadavg_at_start", "git_commit", "seed"}


def tiny_run(capsys, name: str, trace: int) -> tuple[int, list[str], dict]:
    """run_one on the tiny workload; exit code, stdout lines, final JSON."""
    run.use_checkout_source()
    args = argparse.Namespace(seed=7, seconds=0.0, trace=trace)
    rc = run.run_one(WORKLOADS[name][1], args, SPEC, (0.0, 0.0, 0.0))
    lines = capsys.readouterr().out.strip().splitlines()
    return rc, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(capsys, name, trace):
    rc, lines, result = tiny_run(capsys, name, trace)
    specs = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [s["name"] for s in specs]
    for s in specs:
        metric = result["metrics"][s["name"]]
        assert metric["unit"] == s["unit"]
        assert isinstance(metric["value"], (int, float))
        assert any(line.startswith(f"{s['name']} = ") for line in lines)
    if not trace:
        assert all(result["metrics"][s["name"]]["value"] > 0 for s in specs)
    assert any(line.startswith("error_rate = 0 ") for line in lines)
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert set(env) == ENV_KEYS and env["seed"] == 7


def test_scaled_times_are_measured_times_over_the_probed_slowdown():
    ref = hostspeed.REF_S
    assert hostspeed.scaled(0.5, ref, ref) == pytest.approx(0.5)
    assert hostspeed.scaled(0.5, 2 * ref, 2 * ref) == pytest.approx(0.25)
    assert hostspeed.scaled(0.5, ref, 3 * ref) == pytest.approx(0.25)
    assert hostspeed.probe() > 0


def drop_gate(build, index=-1):
    """A builder whose circuit misses one top-level gate."""
    def broken(n):
        circuit = build(n)
        del circuit.gates[index]
        return circuit
    return broken


def break_isqrt_pipeline(mods):
    mods.sqrt.build_isqrt_pipeline = drop_gate(mods.sqrt.build_isqrt_pipeline, 1)


def break_isqrt_call(mods):
    def fails(a, n=None):
        raise RuntimeError("injected failure")
    mods.qsqrt.isqrt = fails


def break_family(name, field):
    def breaker(mods):
        family = mods.cli.FAMILIES[name]
        broken = drop_gate(getattr(family, field) or family.build)
        mods.cli.FAMILIES[name] = dataclasses.replace(family, **{field: broken})
    return breaker


def break_lowering(mods):
    mods.qsqrt.lower_to_clifford_t = drop_gate(mods.qsqrt.lower_to_clifford_t)


@pytest.mark.parametrize("name, breaker", [
    ("isqrt-mixed", break_isqrt_pipeline),
    ("isqrt-mixed", break_isqrt_call),
    ("verify-isqrt", break_family("isqrt", "verify_build")),
    ("verify-adder", break_family("adder", "build")),
    ("compile-cost", break_family("isqrt", "build")),
    ("sv-decomp", break_lowering),
])
def test_broken_program_raises_error_rate_instead_of_crashing(
    capsys, monkeypatch, name, breaker
):
    load = run.load_program

    def load_broken():
        mods = load()
        breaker(mods)
        return mods

    monkeypatch.setattr(run, "load_program", load_broken)
    rc, lines, result = tiny_run(capsys, name, 0)
    assert rc == 1
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    rate = next(line for line in lines if line.startswith("error_rate = "))
    assert float(rate.split()[2]) > 0


def test_exits_nonzero_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench")
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "isqrt-mixed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
