"""Tests of the benchmark itself: pinned LAPACK counts seen by the tracer,
tracing that changes no verdict and leaves nothing patched, self-time
arithmetic, and failure reporting.

Run from the repository root: ``python -m pytest bench/tests -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import polarops
import pytest
from polarops import classify, cli, matrixio, shifts, suites

import run
import speed
from tracer import (
    LAYERS,
    Tracer,
    fold_into_callers,
    per_layer_names,
    per_layer_values,
    self_times,
)
from workloads import SUITES, WORKLOADS, Command, Plan, decisive, failure_reason


def _lapack_calls(tracer: Tracer, fn: str) -> int:
    name_id = tracer.name_id(f"lapack.{fn}")
    return sum(1 for n in tracer.name if n == name_id)


def test_centered_order_on_order6_shift_makes_29_svds():
    tracer = Tracer()
    t = shifts.build_truncated(shifts.ShiftSpec.from_recipe(6))
    with tracer.installed():
        classify.centered_order(t, 7)
    assert _lapack_calls(tracer, "svd") == 29


def test_run_suite_all_factorization_counts():
    tracer = Tracer()
    with tracer.installed():
        suites.run_suite("all", 0, 6, 100)
    assert _lapack_calls(tracer, "svd") == 17827
    assert _lapack_calls(tracer, "eigh") == 1600
    assert _lapack_calls(tracer, "eigvalsh") == 887


def _bindings() -> list[tuple[str, str, int]]:
    """Identity of every value bound in polarops modules (and their
    module-level dicts) and in numpy.linalg."""
    out = []
    containers = [("numpy.linalg", vars(np.linalg))]
    for name, module in sorted(sys.modules.items()):
        if name == "polarops" or name.startswith("polarops."):
            namespace = vars(module)
            containers.append((name, namespace))
            containers.extend(
                (f"{name}.{key}", value)
                for key, value in namespace.items()
                if type(value) is dict
            )
    for label, container in containers:
        out.extend((label, key, id(value)) for key, value in container.items())
    return out


def _small_commands(tmp_path: Path) -> list[Command]:
    """One quick slice of every workload for seed 0."""
    plan = WORKLOADS["suite-small"].prepare(0, tmp_path)
    commands = list(plan.round[:9])
    plan = WORKLOADS["shift-certify"].prepare(0, tmp_path)
    commands += [c for c in plan.round if c.argv[2] in ("20", "30")]
    plan = WORKLOADS["dense-files"].prepare(0, tmp_path)
    commands += [c for c in plan.round if "96x96" in c.argv[1] or "224x176" in c.argv[1]]
    return commands


def test_tracing_changes_no_decisive_value_and_restores_everything(tmp_path):
    commands = _small_commands(tmp_path)
    assert {c.kind for c in commands} == set(
        ("verify-theorems", "counterexample", "polar", "mp", "classify")
    )
    before = _bindings()
    untraced = [decisive(*run.run_command(cli, c)[::2]) for c in commands]

    originals = (polarops.core.svd, np.linalg.svd, suites.SUITES["mp-inverse"])
    tracer = Tracer()
    with tracer.installed():
        patched = (polarops.core.svd, np.linalg.svd, suites.SUITES["mp-inverse"])
        assert all(p is not o for p, o in zip(patched, originals))
        traced = []
        for index, command in enumerate(commands):
            tracer.begin_command(index)
            traced.append(decisive(*run.run_command(cli, command)[::2]))

    assert traced == untraced
    assert all(t[0] == 0 and t[1] == "pass" for t in traced)
    assert _bindings() == before
    assert (polarops.core.svd, np.linalg.svd, suites.SUITES["mp-inverse"]) == originals

    seen = {name.split(".")[0] for name in tracer.names}
    assert set(LAYERS) <= seen
    kinds = {i: c.kind for i, c in enumerate(commands)}
    values = per_layer_values(tracer, 1, kinds, SUITES)
    names = [name for name, _ in per_layer_names(SUITES)]
    assert set(values) | {"trace.overhead_frac"} == set(names)
    assert values["core.lapack.svd_calls"] > 0
    assert values["matrixio.bytes_read"] > 0
    assert values["matrixio.bytes_written"] > 0
    assert 0.0 < values["classify.oracle_share"] < 1.0
    for command in ("polar", "mp", "classify", "counterexample", "verify-theorems"):
        assert values[f"cli.{command}.self_s"] > 0.0


def test_self_times_on_hand_built_tree():
    # 0 [0, 10] has children 1 [1, 4] and 2 [5, 9]; 2 has child 3 [6, 8];
    # 4 [12, 13] is a second root.
    start = np.array([0.0, 1.0, 5.0, 6.0, 12.0])
    end = np.array([10.0, 4.0, 9.0, 8.0, 13.0])
    parent = np.array([-1, 0, 0, 2, -1])
    assert self_times(start, end, parent).tolist() == [3.0, 3.0, 2.0, 2.0, 1.0]
    # With a wrapper cost of 0.5 per call, each parent loses 0.5 per child.
    assert self_times(start, end, parent, 0.5).tolist() == [2.0, 3.0, 1.5, 2.0, 1.0]


def test_fold_into_callers_on_hand_built_tree():
    # Member 0 calls member 1, which calls non-member 2 and member 3;
    # member 4 is called by non-member 2.
    self_s = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    names = np.array([10, 11, 20, 12, 13])
    parent = np.array([-1, 0, 1, 1, 2])
    folded = fold_into_callers(self_s, names, parent, [10, 11, 12, 13])
    assert folded.tolist() == [11.0, 0.0, 4.0, 0.0, 16.0]


def test_read_matrix_self_time_includes_its_parsing(tmp_path):
    path = tmp_path / "a.json"
    matrixio.write_matrix(path, np.arange(6.0).reshape(3, 2) + 1j)
    tracer = Tracer()
    with tracer.installed():
        tracer.begin_command(0)
        matrixio.read_matrix(path)
    spans = tracer.arrays()
    duration = spans["end"] - spans["start"]
    names = [tracer.names[i] for i in spans["name"]]
    assert names[:2] == ["matrixio.read_matrix", "matrixio.doc_to_matrix"]
    # Everything read_matrix did, minus the core calls below it.
    outside = sum(
        d
        for d, name, parent in zip(duration, names, spans["parent"])
        if name.startswith("core.") and parent in (0, 1)
    )
    values = per_layer_values(tracer, 1, {0: "polar"}, SUITES)
    assert values["matrixio.read_matrix.self_s"] == pytest.approx(duration[0] - outside, abs=1e-12)


def test_calibrated_call_cost_is_small_and_positive():
    cost = Tracer().calibrate()
    assert 0.0 <= cost < 1e-4


class _PassingCli:
    calls = 0

    @classmethod
    def main(cls, argv):
        cls.calls += 1
        print("verdict: pass")
        return 0


def test_setup_samples_are_spread_between_the_rounds():
    plan = Plan((), (Command(("mp", "x")),), {})
    seen = []
    _PassingCli.calls = 0
    round_log, _ = run.timed_phase(
        _PassingCli, plan, 4, 30.0, sample_setup=lambda: seen.append(_PassingCli.calls)
    )
    assert len(round_log) == 4
    assert len(seen) == run.SETUP_SAMPLES
    assert seen[0] == 0 and seen[-1] == 4 and 0 < seen[3] < 4


def test_every_workload_has_a_tail_above_the_median(tmp_path):
    # cmd_tail_ms is the 11th largest latency; with fewer than 22 commands
    # in a run it would be the median.
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    for workload in WORKLOADS.values():
        rounds = round(spec["run_seconds"] / workload.nominal_round_s)
        plan = workload.prepare(0, tmp_path)
        assert rounds * len(plan.round) >= 22, workload.name


def test_repeated_svd_inputs_are_counted_per_command():
    tracer = Tracer()
    a = np.arange(6.0).reshape(2, 3)
    with tracer.installed():
        tracer.begin_command(0)
        np.linalg.svd(a)
        np.linalg.svd(a.copy())
        np.linalg.svd(a.T)
        tracer.begin_command(1)
        np.linalg.svd(a)
    assert tracer.svd_repeats == 1
    assert tracer.svd_work == 4 * (2 * 3 * 2)


@pytest.mark.parametrize(
    "stdout, expected",
    [
        ("value verified_order 30\nverdict: pass\n", None),
        ("value verified_order 29\nverdict: pass\n", "verified_order='29', expected '30'"),
        ("value verified_order 30\nverdict: fail\n", "verdict 'fail', expected 'pass'"),
    ],
)
def test_failure_reason_follows_the_construction(stdout, expected):
    command = Command(("counterexample", "--n", "30"), expect=(("verified_order", "30"),))
    assert failure_reason(command, 0, stdout) == expected
    assert failure_reason(command, 1, stdout) == "exit status 1, expected 0"


def test_failed_commands_show_in_the_summary():
    commands = [
        {"latency": 0.1, "scale": 1.0, "operators": 1, "failure": None},
        {"latency": 0.2, "scale": 1.0, "operators": 0, "failure": "verdict 'fail', expected 'pass'"},
    ]
    _, notes = run.end_to_end(1, 1, commands, [(1.0, 1.0)])
    assert any(line.startswith("fail_frac        0.5000") for line in notes)


def test_cut_short_run_scales_wall_to_the_planned_rounds():
    commands = [{"latency": 1.0, "scale": 1.0, "operators": 1, "failure": None}] * 2
    values, _ = run.end_to_end(2, 4, commands, [(1.0, 1.0)])
    assert values["wall_s"] == 4.0
    assert values["operators_per_s"] == 1.0


def test_times_are_reported_at_the_reference_speed():
    # A host at half the reference speed.
    factor = 0.5
    commands = [
        {"latency": 0.2, "scale": factor, "operators": 1, "failure": None},
        {"latency": 0.4, "scale": factor, "operators": 1, "failure": None},
    ]
    values, _ = run.end_to_end(1, 1, commands, [(3.0, 1.5), (2.0, 1.0), (4.0, 2.0)])
    assert values["wall_s"] == pytest.approx(0.3)
    assert values["operators_per_s"] == pytest.approx(2 / 0.3)
    assert values["cmd_tail_ms"] == pytest.approx(200.0)
    assert values["setup_s"] == 1.5


class _FakeProbe(speed.SpeedProbe):
    """Samples of slowness 1, 2, 3, ..., taken ``WINDOW_S`` apart."""

    def __init__(self):
        self.samples, self.at = [], []

    def mark(self):
        self.at.append(len(self.samples) * speed.WINDOW_S)
        self.samples.append(float(len(self.samples) + 1))
        return len(self.samples) - 1


def test_each_command_is_scaled_by_the_samples_around_it():
    plan = Plan((), (Command(("mp", "x")), Command(("mp", "y"))), {})
    probe = _FakeProbe()
    _, commands = run.timed_phase(_PassingCli, plan, 2, 30.0, probe=probe)
    # Per round: a sample before each command and one after the last.
    assert len(probe.samples) == 6
    # Each scale uses the median of the two samples around the command and
    # of one more on each side: [1, 2, 3], [1, 2, 3, 4], [3, 4, 5, 6], [4, 5, 6].
    assert [c["scale"] for c in commands] == pytest.approx([1 / 2, 1 / 2.5, 1 / 4.5, 1 / 5])


def test_scale_takes_every_sample_within_the_window():
    probe = _FakeProbe()
    for _ in range(9):
        probe.mark()
    probe.at = [0.0, 5.0, 6.0, 6.5, 7.0, 7.5, 8.0, 9.0, 20.0]
    # The interval runs from sample 3 (6.5 s) to 4 (7.0 s); samples 1-7 lie
    # within 2 s of it: [2, ..., 8].
    assert speed.WINDOW_S == 2.0
    assert probe.scale(3, 4) == pytest.approx(1 / 5)


def test_speed_probe_is_not_traced():
    probe = speed.SpeedProbe(("small", "large"))
    tracer = Tracer()
    with tracer.installed():
        probe.mark()
    assert len(tracer.name) == 0
    assert probe.samples[0] > 0.0


def test_every_workload_names_known_kernel_parts():
    for workload in WORKLOADS.values():
        assert workload.speed_parts
        assert set(workload.speed_parts) <= set(speed.PARTS)


def test_tail_is_the_eleventh_largest():
    value, percentile, beyond = run.tail([float(i) for i in range(100)])
    assert (value, percentile, beyond) == (89.0, 90.0, 10)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_names(SUITES)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
