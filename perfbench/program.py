"""One program process of the benchmark: set up a workload, run it, report.

``run.py`` starts this file in a fresh interpreter, so that set-up time runs
from interpreter start.  It prints one JSON line on standard output::

    python perfbench/program.py yield_paper --seed 2021 --t0 <perf_counter at launch> \\
        --mc-seconds 4 [--trace]

Workloads (the reasons for each are in ``perfbench/README.md``):

* ``cli_setup``   — build the task ``spnn-repro yield --smoke`` builds, then stop.
* ``cli_trace``   — run ``spnn-repro yield --smoke`` in-process, traced.
* ``yield_paper`` — paper-default task, serial ``yield_sweep`` over the EXP 1 sigmas.
* ``yield_2w``    — the same sweep with ``workers=2``.
* ``drift_paper`` — paper-default task, serial ``run_drift`` with the default OU process.

The workloads drive only entry points meant to last: the CLI, the
``onn.builder`` steps, ``yield_sweep``, ``run_drift``, ``SPNN`` methods and
``workers=``.  The traced run also wraps the function that enters each
layer, only to time it.  Thread counts, kernels and backends are left to the
program's defaults.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import sys
from time import perf_counter

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import drift_digest, drift_errors, yield_digest, yield_errors, yield_evaluations  # noqa: E402
from tracing import LayerClock  # noqa: E402

#: The non-zero EXP 1 levels; sigma 0 runs no Monte Carlo.
YIELD_SIGMAS = (0.005, 0.01, 0.025, 0.05, 0.075, 0.1, 0.15)
#: 7 x 500 realizations: fourteen full 250-row chunks, a few seconds serially.
YIELD_ITERATIONS = 500
YIELD_CHUNK = 250
#: One chunk as the program plans it for the 1000-image eval set (25 rows).
DRIFT_TIMELINES = 25
DRIFT_STEPS = 60
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Layer entry points timed in the traced run: (module, function, layer, counter).
TIMED_FUNCTIONS = (
    ("repro.datasets.synthetic_mnist", "load_synthetic_mnist", "datasets.render",
     ("datasets.images", lambda pair: sum(len(part.labels) for part in pair))),
    ("repro.datasets.fft_features", "fft_crop_features", "datasets.fft", None),
    ("repro.onn.builder", "train_software_model", "nn.train", None),
    ("repro.onn.builder", "spnn_from_model", "onn.compile",
     ("mesh.mzis", lambda spnn: spnn.hardware_summary()["total_mzis"])),
    ("repro.utils.rng", "spawn_rngs", "utils.spawn", None),
    ("repro.variation.sampler", "sample_network_perturbation_batch", "variation.draw", None),
    ("repro.analysis.yield_analysis", "yield_sweep", "analysis.sweep", None),
    ("repro.analysis.timeline", "timeline_sweep", "analysis.sweep", None),
    ("repro.analysis.recalibration", "measure_renull_cost", "analysis.renull", None),
)
#: (module, class, method, layer).
TIMED_METHODS = (
    ("repro.nn.optim", "Adam", "step", "nn.step"),
    ("repro.variation.process", "PerturbationProcess", "sample_batch", "variation.draw"),
    ("repro.variation.process", "DriftState", "advance", "variation.draw"),
    ("repro.variation.process", "DriftState", "realize", "variation.draw"),
    ("repro.variation.process", "DriftState", "renull", "analysis.renull"),
    ("repro.onn.spnn", "SPNN", "hardware_matrices_batch", "mesh.matrices"),
    ("repro.onn.spnn", "SPNN", "accuracy_batch", "onn.forward"),
    ("repro.onn.spnn", "SPNN", "accuracy", "onn.accuracy"),
)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child (Linux KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def fingerprint() -> dict:
    """What absolute seconds and bit-level results depend on."""
    import numpy
    import scipy

    config = numpy.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    try:
        from repro.arrays import active_array_backend
        from repro.arrays.sweep import select_sweep_kernel

        kernel = select_sweep_kernel(active_array_backend()).name
    except ImportError:
        kernel = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "simd": sorted(config["SIMD Extensions"].get("found", [])),
        "threads": {name: os.environ.get(name, "unset") for name in THREAD_VARIABLES},
        "sweep_kernel": kernel,
    }


def install_clock() -> LayerClock:
    clock = LayerClock()
    for module, name, layer, count in TIMED_FUNCTIONS:
        clock.patch_function(module, name, layer, count)
    for module, cls, name, layer in TIMED_METHODS:
        clock.patch_method(module, cls, name, layer)
    return clock


def build_task(seed: int):
    from repro.onn.builder import SPNNTrainingConfig, build_trained_spnn

    return build_trained_spnn(SPNNTrainingConfig(seed=seed))


def yield_pass(task, seed: int, workers=None):
    """One sweep; returns (plain-JSON result, realizations evaluated)."""
    from repro.analysis.yield_analysis import yield_sweep
    from repro.utils.serialization import to_jsonable

    result = yield_sweep(
        task.spnn,
        task.test_features,
        task.test_labels,
        sigmas=YIELD_SIGMAS,
        iterations=YIELD_ITERATIONS,
        rng=seed,
        chunk_size=YIELD_CHUNK,
        workers=workers,
    )
    return to_jsonable(result), len(YIELD_SIGMAS) * YIELD_ITERATIONS


def drift_pass(task, seed: int, workers=None):
    from repro.experiments.drift_experiment import DriftConfig, run_drift
    from repro.utils.serialization import to_jsonable

    config = DriftConfig(timelines=DRIFT_TIMELINES, num_steps=DRIFT_STEPS, seed=seed, workers=workers)
    return to_jsonable(run_drift(config, task=task)), 2 * DRIFT_TIMELINES * DRIFT_STEPS


def smoke_pass(task, seed: int, workers=None):
    """What ``spnn-repro yield --smoke [--workers N]`` runs once its task is built."""
    from repro.experiments.registry import get_experiment
    from repro.experiments.yield_experiment import run_yield
    from repro.utils.serialization import to_jsonable

    config = dataclasses.replace(get_experiment("yield").smoke_config, workers=workers)
    payload = to_jsonable(run_yield(config, task=task))
    return payload, yield_evaluations(payload)


def check(workload: str, payload: dict):
    """(digest, errors) of one result."""
    if workload == "drift_paper":
        return drift_digest(payload), drift_errors(payload, DRIFT_TIMELINES, DRIFT_STEPS)
    # The smoke command's iteration count is its own configuration's.
    iterations = payload["iterations"] if workload == "cli_trace" else YIELD_ITERATIONS
    return yield_digest(payload), yield_errors(payload, iterations)


def mc_pass(workload: str, task, seed: int, workers=None):
    """One Monte Carlo pass of ``workload``; (plain-JSON result, evaluations)."""
    passes = {"drift_paper": drift_pass, "cli_trace": smoke_pass}
    return passes.get(workload, yield_pass)(task, seed, workers)


def main_workers(workload: str):
    return 2 if workload == "yield_2w" else None


def run_untraced(workload: str, seed: int, t0: float, mc_seconds: float) -> dict:
    """Set up once, then repeat the Monte Carlo pass for at least ``mc_seconds``."""
    import repro.cli  # noqa: F401  (what a user's command imports first)

    task = build_task(seed)
    setup_s = perf_counter() - t0
    sweeps, digests, errors = [], [], []
    wall_s = None
    started = perf_counter()
    while True:
        begun = perf_counter()
        payload, evaluations = mc_pass(workload, task, seed, main_workers(workload))
        seconds = perf_counter() - begun
        digest, found = check(workload, payload)
        if wall_s is None:
            wall_s = perf_counter() - t0
        sweeps.append([evaluations, seconds])
        digests.append(digest)
        errors.extend(found)
        if perf_counter() - started >= mc_seconds:
            break
    if len(set(digests)) != 1:
        errors.append(f"repeated passes at one seed disagree: {sorted(set(digests))}")
    if workload == "yield_2w":
        serial, _ = yield_pass(task, seed)
        if yield_digest(serial) != digests[0]:
            errors.append("workers=2 samples differ from the serial sweep")
    return {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "sweeps": sweeps,
        "digest": digests[0],
        "errors": errors,
        "peak_rss_mb": peak_rss_mb(),
        "fingerprint": fingerprint(),
    }


def execution_probe(workload: str, task, seed: int, clock: LayerClock, main: dict) -> tuple:
    """Pool start-up, payload, worker CPU and efficiency of the pass with ``workers=2``.

    The traced pass ran one side (serial, or two workers for ``yield_2w``).
    This runs the workload's pass on the other side, timed by the same
    sweep wrappers, and checks that both sides agree byte for byte.  Pool
    start-up is the extra wall time of a two-realization sweep in two
    one-row chunks with two workers over the same sweep run serially.
    """
    from repro.analysis.yield_analysis import yield_sweep
    from repro.observability import MetricsReport, observe

    small = dict(sigmas=YIELD_SIGMAS[:1], iterations=2, rng=seed, chunk_size=1)
    begun = perf_counter()
    yield_sweep(task.spnn, task.test_features, task.test_labels, **small)
    serial_small = perf_counter() - begun
    begun = perf_counter()
    yield_sweep(task.spnn, task.test_features, task.test_labels, workers=2, **small)
    parallel_small = perf_counter() - begun

    probe_is_parallel = main_workers(workload) is None
    cpu, swept = children_cpu_s(), clock.total["analysis.sweep"]
    with observe() as recorder:
        payload, _ = mc_pass(workload, task, seed, 2 if probe_is_parallel else None)
    probe = {
        "seconds": clock.total["analysis.sweep"] - swept,
        "cpu": children_cpu_s() - cpu,
        "report": MetricsReport.from_recorder(recorder),
    }
    serial, parallel = (main, probe) if probe_is_parallel else (probe, main)
    digest, errors = check(workload, payload)
    if digest != main["digest"]:
        errors.append("workers=2 result differs from the serial one")
    return {
        "execution.pool_start_s": parallel_small - serial_small,
        "execution.chunk_payload_bytes": sum(chunk["task_bytes"] for chunk in parallel["report"].chunks),
        "execution.worker_cpu_s": parallel["cpu"],
        "execution.parallel_efficiency": serial["seconds"] / (2.0 * parallel["seconds"]),
    }, errors


def kernel_calls(report) -> dict:
    """Sweep-kernel dispatches per kernel; the two host kernels always appear."""
    calls = {"arrays.kernel_calls.fused": 0, "arrays.kernel_calls.looped": 0}
    for entry in report.kernels:
        name = f"arrays.kernel_calls.{entry['kernel']}"
        calls[name] = calls.get(name, 0) + int(entry["calls"])
    return calls


def layer_metrics(clock: LayerClock, import_s: float, wall_s: float, report) -> dict:
    metrics = {
        "import.repro_s": import_s,
        "datasets.render_s": clock.total["datasets.render"],
        "datasets.images": clock.counts["datasets.images"],
        "datasets.fft_s": clock.total["datasets.fft"],
        "nn.train_s": clock.total["nn.train"],
        "nn.steps": clock.calls["nn.step"],
        "onn.compile_s": clock.total["onn.compile"],
        "mesh.mzis": clock.counts["mesh.mzis"],
        "utils.spawn_s": clock.total["utils.spawn"],
        "variation.draw_s": clock.total["variation.draw"],
        "mesh.matrices_s": clock.total["mesh.matrices"],
        "onn.forward_s": clock.own["onn.forward"],
        "analysis.sweep_s": clock.total["analysis.sweep"],
        "analysis.chunks": len(report.chunks),
        "analysis.residual_s": clock.own["analysis.sweep"],
        "analysis.renull_s": clock.total["analysis.renull"],
        "trace.coverage": (import_s + clock.top_level) / wall_s,
    }
    metrics.update(kernel_calls(report))
    return metrics


def run_traced(workload: str, seed: int, t0: float) -> dict:
    """One set-up and one pass with every layer entry point timed, then the probes."""
    begun = perf_counter()
    import repro.cli

    import_s = perf_counter() - begun
    from repro.analysis.recalibration import measure_renull_cost
    from repro.observability import MetricsReport, observe

    clock = install_clock()
    cpu = children_cpu_s()
    with observe() as recorder:
        if workload == "cli_trace":
            path = os.path.join(os.environ["PERFBENCH_STATE"], f"cli-trace-{os.getpid()}.json")
            with contextlib.redirect_stdout(io.StringIO()):
                repro.cli.main(["yield", "--smoke", "--output", path])
            with open(path, encoding="utf-8") as stream:
                payload = json.load(stream)
            os.remove(path)
        else:
            task = build_task(seed)
            payload, _ = mc_pass(workload, task, seed, main_workers(workload))
    digest, errors = check(workload, payload)
    wall_s = perf_counter() - t0
    report = MetricsReport.from_recorder(recorder)
    metrics = layer_metrics(clock, import_s, wall_s, report)
    main = {"seconds": clock.total["analysis.sweep"], "cpu": children_cpu_s() - cpu, "report": report, "digest": digest}
    if workload == "cli_trace":
        task = build_smoke_task()
    execution, found = execution_probe(workload, task, seed, clock, main)
    metrics.update(execution)
    errors.extend(found)
    if workload == "drift_paper":
        metrics["analysis.renull_events"] = sum(map(sum, payload["recalibrated"]["recalibrations"]))
    else:
        # The re-null layer as run_drift prices it, run once on this network.
        begun = perf_counter()
        measure_renull_cost(task.spnn.photonic_layers)
        metrics["analysis.renull_s"] = perf_counter() - begun
        metrics["analysis.renull_events"] = 0
    return {
        "wall_s": wall_s,
        "digest": digest,
        "errors": errors,
        "layers": metrics,
        "peak_rss_mb": peak_rss_mb(),
        "fingerprint": fingerprint(),
    }


def build_smoke_task():
    from repro.experiments.registry import get_experiment
    from repro.onn.builder import build_trained_spnn

    return build_trained_spnn(get_experiment("yield").smoke_config.training)


def run_cli_setup(t0: float) -> dict:
    """The set-up ``spnn-repro yield --smoke`` does before its Monte Carlo."""
    import repro.cli  # noqa: F401

    task = build_smoke_task()
    setup_s = perf_counter() - t0
    errors = [] if 0.0 <= task.baseline_accuracy <= 1.0 else ["baseline accuracy outside [0, 1]"]
    return {
        "setup_s": setup_s,
        "nominal_accuracy": task.baseline_accuracy,
        "errors": errors,
        "peak_rss_mb": peak_rss_mb(),
        "fingerprint": fingerprint(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=["cli_setup", "cli_trace", "yield_paper", "yield_2w", "drift_paper"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True, help="perf_counter() when the runner launched this process")
    parser.add_argument("--mc-seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    if args.workload == "cli_setup":
        result = run_cli_setup(args.t0)
    elif args.trace or args.workload == "cli_trace":
        result = run_traced(args.workload, args.seed, args.t0)
    else:
        result = run_untraced(args.workload, args.seed, args.t0, args.mc_seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
