"""The benchmark's own tests: every workload, reduced size, two seeds.

Run from the repository root:

    python -m pytest perfbench/tests -q

Each workload runs at a tenth of its benchmark size on the default seed
and on a hold-out seed never used while the workloads were sized.  Every
correctness check must pass and every metric named in BENCHMARK.json
must be present.  Determinism is checked across ``PYTHONHASHSEED``
values by comparing the simulated-results digest two processes print.
"""

import json
import os
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench.calibrate import (  # noqa: E402
    PERIOD_S,
    REFERENCE_CALL_S,
    HostClock,
)
from perfbench.run import run_workload  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

DEFAULT_SEED = 1
HOLDOUT_SEED = 8_191
SCALE = 0.1

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("seed", [DEFAULT_SEED, HOLDOUT_SEED])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_metrics_and_checks(name, seed):
    result, lines = run_workload(name, seed, seconds=0, trace=0,
                                 scale=SCALE)
    assert result["correct"], lines
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"]
                for metric in SPEC["end_to_end"]}
    assert {key: value["unit"] for key, value in
            result["metrics"].items()} == expected
    assert all(value["value"] > 0 for value in result["metrics"].values())


@pytest.mark.parametrize("seed", [DEFAULT_SEED, HOLDOUT_SEED])
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_per_layer_metrics_and_trace_reproduces(name, seed):
    # run_workload fails the result when the traced or profiled rep's
    # simulated results differ from the untraced reps'.
    result, lines = run_workload(name, seed, seconds=0, trace=1,
                                 scale=SCALE)
    assert result["correct"], lines
    expected = {metric["name"]: metric["unit"]
                for metric in SPEC["per_layer"]}
    assert {key: value["unit"] for key, value in
            result["metrics"].items()} == expected


def _spin(seconds):
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        pass


def _sliced_phase(clock, slices, slice_s=0.005):
    for _ in range(slices):
        clock.step(_spin, slice_s)


def test_host_clock_rescales_by_interleaved_calibration():
    clock = HostClock()
    clock.measure("phase", lambda: _sliced_phase(clock, 40))
    raw, call = clock.raw["phase"], clock.call_s["phase"]
    # 0.2 s of program time: the calls are not counted in it, and there
    # is one per PERIOD_S of it.
    assert 0.2 <= raw < 0.2 + PERIOD_S
    assert raw / PERIOD_S <= clock._calls <= raw / PERIOD_S + 1
    assert clock.reference["phase"] == pytest.approx(
        raw * REFERENCE_CALL_S / call)


def test_host_clock_without_calibration_reports_raw_time():
    clock = HostClock(calibrate=False)
    clock.measure("phase", lambda: _sliced_phase(clock, 10))
    assert clock.reference == clock.raw
    assert clock.call_s == {}


def _digest(name, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    completed = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", name, "--seed", str(HOLDOUT_SEED), "--seconds", "0",
         "--trace", "0", "--scale", str(SCALE)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
        check=True,
    )
    header = completed.stdout.splitlines()[0]
    return header.split("digest=")[1]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_simulated_results_ignore_hash_seed(name):
    assert _digest(name, 1) == _digest(name, 4_242)


def test_missing_program_exits_nonzero(monkeypatch, capsys):
    from perfbench import run

    monkeypatch.setattr(run, "SRC", os.path.join(ROOT, "no-such-src"))
    code = run.main(["--workload", "tpcc-local", "--seed", "1",
                     "--seconds", "1", "--trace", "0"])
    assert code != 0
    assert capsys.readouterr().out == ""
