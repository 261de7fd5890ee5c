"""polarops benchmark: end-to-end CLI workloads and a traced per-layer run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src`` directory. One client issues one command at a time through
``polarops.cli.main`` in this process (a closed loop) and captures its
stdout. Inputs are generated from ``--seed``. Set-up (import, input
generation and files, warm-up commands) is untimed and measured separately,
as the median of several fresh interpreters doing it, spread between the
timed rounds. The timed phase runs a fixed number of identical rounds,
``--seconds`` divided by the workload's nominal round time on the seed
code, so both sides of a comparison do the same work. Every command is
checked against what its input's construction guarantees. Each timed
command and set-up sample is bracketed by samples of a fixed reference
kernel (``speed.py``), and the end-to-end times are reported at the
reference speed, so that the drift of a shared host cancels out.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of the traced
rounds, plus the tracing overhead. The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. Details go to
``bench/.out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from speed import SpeedProbe
from tracer import Tracer, per_layer_names, per_layer_values
from workloads import (
    SUITES,
    WORKLOADS,
    decisive,
    failure_reason,
    operators_decided,
)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / ".out"
SETUP_SAMPLES = 7
# A run starts no round that would likely end after this many times
# --seconds, so that a much slower program or machine still ends well inside
# the per-run time limit. It is wide, because a run cut short does less
# work than a whole one and its percentiles fall on other commands; a
# shared host running at 0.7x its usual speed must not trigger it.
OVERRUN_FACTOR = 3.0
SETUP_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("operators_per_s", "1/s"),
    ("cmd_p50_ms", "ms"),
    ("cmd_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def import_program():
    """Import polarops from this checkout's ``src``, and nowhere else."""
    if not (SRC / "polarops" / "cli.py").is_file():
        raise BenchError(f"no polarops sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import polarops.cli

    if Path(polarops.cli.__file__).resolve().parent != SRC / "polarops":
        raise BenchError(f"imported polarops from {polarops.cli.__file__}, not {SRC}")
    return polarops.cli


def _openblas():
    import numpy

    pattern = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        with contextlib.suppress(OSError):
            return ctypes.CDLL(path)
    return None


def _blas_call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None) if lib is not None else None
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def environment(seed: int, inputs: dict) -> dict:
    import numpy

    lib = _openblas()
    config = _blas_call(
        lib,
        ("scipy_openblas_get_config64_", "openblas_get_config64_", "openblas_get_config"),
        ctypes.c_char_p,
    )
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_config": config.decode() if config else None,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "blas_threads": _blas_call(
            lib,
            (
                "scipy_openblas_get_num_threads64_",
                "openblas_get_num_threads64_",
                "openblas_get_num_threads",
            ),
            ctypes.c_int,
        ),
        "seed": seed,
        "inputs": inputs,
    }


def run_command(cli, command):
    """Run one CLI command in-process; return (exit status, seconds, stdout).

    A crash is the command's result, so the run goes on and reports it.
    """
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(command.argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # noqa: BLE001 - recorded as a failed command
        rc = traceback.format_exc(limit=2).strip().splitlines()[-1]
    return rc, time.perf_counter() - start, out.getvalue()


def setup(cli, workload, seed: int, workdir: Path):
    """Generate inputs, write their files and run the untimed warm-ups.
    Returns the plan and the failure reasons of the warm-up commands."""
    plan = workload.prepare(seed, workdir)
    failures = []
    for command in plan.warmup:
        rc, _, stdout = run_command(cli, command)
        reason = failure_reason(command, rc, stdout)
        if reason is not None:
            failures.append(f"warm-up {' '.join(command.argv)}: {reason}")
    return plan, failures


def measure_setup(workload_name: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter to the end of its set-up."""
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--setup-only"]
    argv += ["--workload", workload_name, "--seed", str(seed)]
    start = time.perf_counter()
    done = subprocess.run(
        argv,
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0:
        raise BenchError(f"set-up process failed: {done.stderr.strip()}")
    return time.perf_counter() - start


def timed_phase(
    cli, plan, rounds: int, seconds: float, tracer=None, sample_setup=None, probe=None
):
    """Run ``rounds`` rounds of the plan's commands, timing each command and
    round. With a tracer, every second round is traced. With a speed
    probe, untraced commands are bracketed by kernel samples, and each
    command records the ``scale`` to the reference speed (1.0 without).
    Outputs are checked after each round, outside the timing. With
    ``sample_setup``, it is called ``SETUP_SAMPLES`` times, spread evenly
    between the rounds, so that the set-up samples meet the machine in the
    states the rounds meet. Returns one record per round and one per
    command."""
    round_log, commands = [], []
    # due[i]: the round that set-up sample i runs before.
    due = [(i * rounds) // (SETUP_SAMPLES - 1) for i in range(SETUP_SAMPLES)]
    if sample_setup is None:
        due = []

    def sample_due(r: int) -> None:
        while due and due[0] <= r:
            due.pop(0)
            sample_setup()

    busy = 0.0  # seconds spent in rounds, set-up samples excluded
    for r in range(rounds):
        if r >= 2 and busy + round_log[-1]["wall"] > OVERRUN_FACTOR * seconds:
            break
        sample_due(r)
        round_start = time.perf_counter()
        traced = tracer is not None and r % 2 == 1
        probing = probe is not None and not traced
        for command in plan.round:
            for path in command.outputs:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(path)
        results, marks = [], []
        with tracer.installed() if traced else contextlib.nullcontext():
            for command in plan.round:
                if probing:
                    marks.append(probe.mark())
                if traced:
                    tracer.begin_command(len(commands) + len(results))
                results.append(run_command(cli, command))
            if probing:
                marks.append(probe.mark())
        wall = sum(latency for _, latency, _ in results)
        for i, (command, (rc, latency, stdout)) in enumerate(zip(plan.round, results)):
            reason = failure_reason(command, rc, stdout)
            commands.append(
                {
                    "round": r,
                    "traced": traced,
                    "kind": command.kind,
                    "argv": " ".join(command.argv),
                    "latency": latency,
                    "marks": (marks[i], marks[i + 1]) if probing else None,
                    "decisive": decisive(rc, stdout),
                    "failure": reason,
                    "operators": operators_decided(command, stdout) if reason is None else 0,
                }
            )
        round_log.append({"round": r, "traced": traced, "wall": wall})
        busy += time.perf_counter() - round_start
    sample_due(rounds)
    # Scaled once every sample is in, so each can see the samples after it.
    for c in commands:
        c["scale"] = probe.scale(*c["marks"]) if c["marks"] else 1.0
    return round_log, commands


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten commands beyond
    it: the 11th largest. Returns (value, percentile, commands beyond)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def end_to_end(rounds_run, rounds, commands, setup_samples) -> tuple[dict, list[str]]:
    """End-to-end metrics and summary lines. Times are at the reference
    speed: each command's latency times its ``scale``, and the second
    value of each set-up sample's ``(raw, scaled)`` pair. The summary also
    gives the raw wall-clock figures. A run cut short by the overrun guard reports
    ``wall_s`` scaled up to all ``rounds``."""
    raw = [c["latency"] for c in commands]
    latencies = [c["latency"] * c["scale"] for c in commands]
    operators = sum(c["operators"] for c in commands)
    wall = sum(latencies) * rounds / rounds_run
    tail_value, percentile, beyond = tail(latencies)
    failed = sum(c["failure"] is not None for c in commands)
    values = {
        "setup_s": statistics.median(s for _, s in setup_samples),
        "wall_s": wall,
        "operators_per_s": operators / sum(latencies),
        "cmd_p50_ms": 1000.0 * statistics.median(latencies),
        "cmd_tail_ms": 1000.0 * tail_value,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = [
        "times at the reference speed; raw wall-clock figures in brackets",
        f"setup_s          {values['setup_s']:.4f} s   median of "
        + ", ".join(f"{s:.4f} [{r:.4f}]" for r, s in setup_samples),
        f"wall_s           {wall:.4f} s   [{sum(raw) * rounds / rounds_run:.4f}]   "
        f"{rounds_run} of {rounds} rounds, host speed {sum(latencies) / sum(raw):.3f}x "
        "the reference",
        f"operators_per_s  {values['operators_per_s']:.4f} 1/s   [{operators / sum(raw):.4f}]   "
        f"{operators} operators decided",
        f"cmd_p50_ms       {values['cmd_p50_ms']:.4f} ms   [{1000.0 * statistics.median(raw):.4f}]"
        f"   {len(latencies)} commands",
        f"cmd_tail_ms      {values['cmd_tail_ms']:.4f} ms   [{1000.0 * tail(raw)[0]:.4f}]   "
        f"p{percentile:.2f}, {beyond} of {len(latencies)} commands beyond",
        f"fail_frac        {failed / len(commands):.4f}   {failed} of {len(commands)} commands failed",
        f"peak_rss_mb      {values['peak_rss_mb']:.4f} MB",
    ]
    return values, notes


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args, WORKLOADS[args.workload]


def run(args, workload) -> int:
    cli = import_program()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    try:
        plan, warmup_failures = setup(cli, workload, args.seed, workdir)
        if args.setup_only:
            for failure in warmup_failures:
                print(failure, file=sys.stderr)
            return 1 if warmup_failures else 0
        setup_marks: list[tuple[float, int, int]] = []
        tracer = sample_setup = probe = None
        if args.trace:
            tracer = Tracer()
            tracer.calibrate()
        else:
            probe = SpeedProbe(workload.speed_parts)

            def sample_setup():
                before = probe.mark()
                raw = measure_setup(workload.name, args.seed)
                setup_marks.append((raw, before, probe.mark()))

        rounds = max(2 if args.trace else 1, round(args.seconds / workload.nominal_round_s))
        round_log, commands = timed_phase(
            cli, plan, rounds, args.seconds, tracer, sample_setup, probe
        )
        setup_samples = [(raw, raw * probe.scale(a, b)) for raw, a, b in setup_marks]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = warmup_failures + [
        f"{c['argv']}: {c['failure']}" for c in commands if c["failure"] is not None
    ]
    failed = sum(c["failure"] is not None for c in commands)
    env = environment(args.seed, plan.inputs)
    print(
        f"polarops benchmark: workload={workload.name} seed={args.seed} "
        f"trace={args.trace} rounds={rounds} commands/round={len(plan.round)}"
    )
    print("env: " + json.dumps(env, sort_keys=True))

    if args.trace:
        untraced = [r["wall"] for r in round_log if not r["traced"]]
        traced = [r["wall"] for r in round_log if r["traced"]]
        kinds = {i: c["kind"] for i, c in enumerate(commands)}
        values = per_layer_values(tracer, len(traced), kinds, SUITES)
        values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
        units = dict(per_layer_names(SUITES))
        mismatched = sum(
            a["decisive"] != b["decisive"]
            for a, b in zip(commands, commands[len(plan.round) :])
        )
        print(
            f"traced rounds {len(traced)}, untraced rounds {len(untraced)}, "
            f"spans {len(tracer.name)}, wrapper cost per call "
            f"{1e6 * tracer.call_cost:.3f} us (taken from parents' self time)"
        )
        if mismatched:
            failures.append(f"{mismatched} commands changed decisive values under tracing")
        for name, unit in per_layer_names(SUITES):
            print(f"{name:<44} {values[name]:.6g} {unit}")
        tracer.save(OUT_DIR / f"spans-{workload.name}.npz")
    else:
        values, notes = end_to_end(len(round_log), rounds, commands, setup_samples)
        units = dict(END_TO_END)
        print("\n".join(notes))
    for failure in failures[:20]:
        print(f"FAILED {failure}")

    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    result = {
        "correct": not failures,
        "attempted": len(commands),
        "failed": failed,
        "metrics": metrics,
    }
    # Per command: (seconds, scale to the reference speed, indices of the
    # kernel samples around it).
    latencies: dict[str, list[tuple]] = {}
    for c in commands:
        latencies.setdefault(c["argv"], []).append((c["latency"], c["scale"], c["marks"]))
    detail = {
        "result": result,
        "env": env,
        "rounds": round_log,
        "latencies": latencies,
        "speed_samples": list(zip(probe.at, probe.samples)) if probe is not None else [],
        "failures": failures,
    }
    (OUT_DIR / f"result-{workload.name}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    args, workload = parse_args(argv)
    try:
        return run(args, workload)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
