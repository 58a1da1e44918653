"""End-to-end benchmark of spnn-repro, with a traced run for per-layer numbers.

Run from the repository root::

    python3 perfbench/run.py --workload yield_paper --seed 2021 --seconds 10 --trace 0

It prints each metric by name with its unit, the machine fingerprint and the
output checks, and as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  Every
workload is a closed loop with one client: each program process starts when
the previous one has ended.  ``perfbench/README.md`` explains the workloads
and metrics.

This file uses the standard library only.  The program runs in fresh
interpreters (``perfbench/program.py``, or the real CLI), with ``src`` on
``PYTHONPATH`` and ``XDG_CACHE_HOME`` pointed at ``perfbench/.state`` so
that the user's cache directory is never read or written.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, sleep

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = HERE / ".state"
sys.path.insert(0, str(HERE))

from checks import yield_digest, yield_errors, yield_evaluations  # noqa: E402

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUPS = {"cli_yield_smoke": 4, "yield_paper": 2, "yield_2w": 2, "drift_paper": 2}
DEFAULT_SEED = 2021
#: Whole-run budget; each program process gets what is left of it.
BUDGET_S = 170.0
#: Fingerprint fields that decide bit-level results (the golden digests are
#: compared only on a machine that matches them).
ARITHMETIC_FIELDS = ("machine", "numpy", "scipy", "blas", "blas_config", "simd")
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "mc_evals_per_s": "1/s", "peak_rss_mb": "MB"}


class Runner:
    """Launches program processes under a shared deadline and keeps the tally.

    ``attempted`` counts program processes; ``failed`` counts those that
    raised, timed out or failed a check, each once however many checks it
    failed.
    """

    def __init__(self, env: dict) -> None:
        self.env = env
        self.deadline = perf_counter() + BUDGET_S
        self.attempted = 0
        self.failed_runs: set = set()
        self.problems: list = []

    @property
    def failed(self) -> int:
        return len(self.failed_runs)

    def fail(self, run: int, message: str) -> None:
        self.failed_runs.add(run)
        self.problems.append(f"run {run}: {message}")

    def launch(self, argv: list, label: str):
        """Run one process to completion; (stdout, wall s, run, peak RSS MB) or None.

        The process gets its own session, so a timeout kills it together with
        any worker pool it started.  It is reaped with ``wait4``, which gives
        its own peak resident set (the runner's other children, such as the
        autotune warm-up, do not mix in).  Output goes through files in the
        state directory, so waiting needs no pipe-draining thread.
        """
        self.attempted += 1
        run = self.attempted
        if perf_counter() >= self.deadline:
            self.fail(run, f"{label}: no time left in the {BUDGET_S:.0f} s budget")
            return None
        out_path, err_path = STATE / f"run-{run}.out", STATE / f"run-{run}.err"
        with open(out_path, "w+", encoding="utf-8") as out, open(err_path, "w+", encoding="utf-8") as err:
            t0 = perf_counter()
            argv = [part if part != "{t0}" else repr(t0) for part in argv]
            process = subprocess.Popen(argv, cwd=ROOT, env=self.env, stdout=out, stderr=err, start_new_session=True)
            try:
                reaped = reap(process, self.deadline)
            finally:
                if process.returncode is None:
                    os.killpg(process.pid, signal.SIGKILL)
                    process.wait()
            wall = perf_counter() - t0
            out.seek(0)
            err.seek(0)
            stdout, stderr = out.read(), err.read()
        out_path.unlink()
        err_path.unlink()
        if reaped is None:
            self.fail(run, f"{label}: killed at the {BUDGET_S:.0f} s budget")
            return None
        if process.returncode != 0:
            tail = stderr.strip().splitlines()[-1:] or ["no output"]
            self.fail(run, f"{label}: exit code {process.returncode}: {tail[0]}")
            return None
        return stdout, wall, run, reaped.ru_maxrss / 1024.0

    def program(self, workload: str, seed: int, mc_seconds: float = 0.0, trace: bool = False):
        """Run ``program.py``; its JSON report, or None when it failed or found errors."""
        argv = [sys.executable, str(HERE / "program.py"), workload, "--seed", str(seed),
                "--t0", "{t0}", "--mc-seconds", repr(mc_seconds)]
        if trace:
            argv.append("--trace")
        label = f"{workload}{' (traced)' if trace else ''}"
        launched = self.launch(argv, label)
        if launched is None:
            return None
        stdout, _, run, _ = launched
        report = json.loads(stdout.strip().splitlines()[-1])
        if report["errors"]:
            self.fail(run, f"{label}: " + "; ".join(report["errors"]))
            return None
        report["run"] = run
        return report

    def cli(self):
        """``python -m repro.cli yield --smoke``; (result JSON, wall s, run, peak RSS MB) or None."""
        output = STATE / f"cli-{self.attempted + 1}.json"
        launched = self.launch(
            [sys.executable, "-m", "repro.cli", "yield", "--smoke", "--output", str(output)],
            "spnn-repro yield --smoke",
        )
        if launched is None:
            return None
        _, wall, run, rss = launched
        payload = json.loads(output.read_text(encoding="utf-8"))
        output.unlink()
        errors = yield_errors(payload, payload["iterations"])
        if errors:
            self.fail(run, "spnn-repro yield --smoke: " + "; ".join(errors))
            return None
        return payload, wall, run, rss


def reap(process: subprocess.Popen, deadline: float):
    """Wait for ``process`` until ``deadline``; its resource usage, or None if still running.

    Polls ``wait4`` every 5 ms (the wall-time resolution this gives is far
    below the run-to-run spread) and records the exit code on ``process``.
    """
    while True:
        pid, status, usage = os.wait4(process.pid, os.WNOHANG)
        if pid:
            process.returncode = os.waitstatus_to_exitcode(status)
            return usage
        if perf_counter() >= deadline:
            return None
        sleep(0.005)


def warm_autotune_cache(runner: Runner, cache: Path):
    """Fill the autotune cache the program reads; seconds taken, or None without ``calibrate``.

    ``spnn-repro calibrate`` fits the per-machine sweep-kernel cost table that
    the program otherwise fits lazily, inside the first timed run.  When the
    CLI no longer has the command there is nothing to warm.
    """
    env = dict(runner.env, XDG_CACHE_HOME=str(cache))
    t0 = perf_counter()
    process = subprocess.run(
        [sys.executable, "-m", "repro.cli", "calibrate"], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=max(1.0, runner.deadline - t0),
    )
    seconds = perf_counter() - t0
    if process.returncode == 0:
        return seconds
    if "unknown experiment" in process.stderr:
        return None
    raise RuntimeError(f"spnn-repro calibrate failed: {process.stderr.strip()[-400:]}")


def check_digests(runner: Runner, workload: str, seed: int, digests: list, fingerprint: dict) -> str:
    """Each run's ``(run, digest)`` against ``golden.json``, or against the first run.

    The golden digests apply at the default seed (at every seed for the CLI,
    whose input does not depend on it) on a machine with the recorded
    arithmetic; elsewhere every run must agree with the first.
    """
    golden = json.loads((HERE / "golden.json").read_text(encoding="utf-8"))
    key = "yield_paper" if workload == "yield_2w" else workload
    if seed != golden["seed"] and workload != "cli_yield_smoke":
        reference, note = digests[0][1], "golden digest applies to the default seed only"
    elif any(golden["fingerprint"][field] != fingerprint[field] for field in ARITHMETIC_FIELDS):
        reference, note = digests[0][1], "golden digest not compared: the machine's arithmetic differs"
    else:
        reference, note = golden["digests"][key], "checked against golden.json"
    for run, digest in digests:
        if digest != reference:
            runner.fail(run, f"{workload}: result digest {digest[:12]} != {reference[:12]} ({note})")
    return note


def run_cli_workload(runner: Runner, seed: int, seconds: float):
    """Set-ups in fresh interpreters, then the CLI in a loop for ``seconds``."""
    setups = [runner.program("cli_setup", seed) for _ in range(SETUPS["cli_yield_smoke"])]
    setups = [report for report in setups if report]
    runs = []
    started = perf_counter()
    while not runs or perf_counter() - started < seconds:
        launched = runner.cli()
        if launched is None:
            break
        runs.append(launched)
    if not setups or not runs:
        return None
    for report in setups:
        if report["nominal_accuracy"] != runs[0][0]["nominal_accuracy"]:
            runner.fail(report["run"], "cli_setup: task accuracy differs from the CLI's nominal accuracy")
    walls = [wall for _, wall, _, _ in runs]
    return {
        "series": {
            "wall_s": walls,
            "setup_s": [report["setup_s"] for report in setups],
            "mc_evals_per_s": [yield_evaluations(payload) / wall for payload, wall, _, _ in runs],
            "peak_rss_mb": [rss for _, _, _, rss in runs] + [report["peak_rss_mb"] for report in setups],
        },
        "digests": [(run, yield_digest(payload)) for payload, _, run, _ in runs],
        "fingerprint": setups[0]["fingerprint"],
    }


def run_mc_workload(runner: Runner, workload: str, seed: int, seconds: float):
    """Fresh-interpreter set-ups, each followed by its share of the Monte Carlo time."""
    count = SETUPS[workload]
    reports = [runner.program(workload, seed, seconds / count) for _ in range(count)]
    reports = [report for report in reports if report]
    if not reports:
        return None
    return {
        "series": {
            "wall_s": [report["wall_s"] for report in reports],
            "setup_s": [report["setup_s"] for report in reports],
            "mc_evals_per_s": [
                evaluations / seconds for report in reports for evaluations, seconds in report["sweeps"]
            ],
            "peak_rss_mb": [report["peak_rss_mb"] for report in reports],
        },
        "digests": [(report["run"], report["digest"]) for report in reports],
        "fingerprint": reports[0]["fingerprint"],
    }


def run_traced_workload(runner: Runner, workload: str, seed: int):
    """One untraced and one traced process; per-layer metrics from the traced one."""
    if workload == "cli_yield_smoke":
        untraced = runner.cli()
        plain = (yield_digest(untraced[0]), untraced[1], untraced[2]) if untraced else None
        traced = runner.program("cli_trace", seed)
    else:
        untraced = runner.program(workload, seed)
        plain = (untraced["digest"], untraced["wall_s"], untraced["run"]) if untraced else None
        traced = runner.program(workload, seed, trace=True)
    if plain is None or traced is None:
        return None
    if traced["digest"] != plain[0]:
        runner.fail(traced["run"], f"{workload}: traced result differs from the untraced one")
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = traced["wall_s"] - plain[1]
    fresh_cache = STATE / f"calibrate-{os.getpid()}"
    try:
        calibrate_s = warm_autotune_cache(runner, fresh_cache)
    finally:
        shutil.rmtree(fresh_cache, ignore_errors=True)
    if calibrate_s is not None:
        layers["tuning.calibrate_s"] = calibrate_s
    return {
        "series": {name: [value] for name, value in layers.items()},
        "digests": [(plain[2], plain[0])],
        "fingerprint": traced["fingerprint"],
    }


def unit(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name in ("trace.coverage", "execution.parallel_efficiency"):
        return "ratio"
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description="spnn-repro end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A terminated run still stops the processes it started (see Runner.launch).
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    STATE.mkdir(exist_ok=True)
    cache = STATE / "xdg-cache"
    env = dict(os.environ, XDG_CACHE_HOME=str(cache), PERFBENCH_STATE=str(STATE))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    runner = Runner(env)
    warm = cache / "perfbench-warm"
    if not warm.exists():
        warm_autotune_cache(runner, cache)
        cache.mkdir(parents=True, exist_ok=True)
        warm.touch()

    if args.trace:
        outcome = run_traced_workload(runner, args.workload, args.seed)
    elif args.workload == "cli_yield_smoke":
        outcome = run_cli_workload(runner, args.seed, args.seconds)
    else:
        outcome = run_mc_workload(runner, args.workload, args.seed, args.seconds)
    if outcome is None:
        for problem in runner.problems:
            print(f"FAILED {problem}")
        print("error: no run of the workload completed", file=sys.stderr)
        return 1

    note = check_digests(runner, args.workload, args.seed, outcome["digests"], outcome["fingerprint"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"fingerprint {json.dumps(outcome['fingerprint'], sort_keys=True)}")
    print(f"result digest {outcome['digests'][0][1]}  ({note})")
    for problem in runner.problems:
        print(f"FAILED {problem}")
    metrics = {}
    for name, samples in sorted(outcome["series"].items()):
        # Peak memory is the largest peak; every other metric the median sample.
        value = max(samples) if name == "peak_rss_mb" else statistics.median(samples)
        metrics[name] = {"value": value, "unit": unit(name)}
        spread = f"  (n={len(samples)}: {', '.join(f'{sample:.4g}' for sample in samples)})" if len(samples) > 1 else ""
        print(f"{name:34s} {value:>14.6g} {unit(name)}{spread}")
    print(f"{'failed_frac':34s} {runner.failed / runner.attempted:>14.6g} ratio ({runner.failed}/{runner.attempted})")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
