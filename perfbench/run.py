"""The repository benchmark: one workload, timed passes, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload stretch --seed 3 --seconds 30 --trace 0

The program under test is imported from ``src/`` next to this
directory.  The run pins the environment (one BLAS thread, no LP thread
pool, the default HiGHS backend and kernel) before numpy is imported,
measures set-up in fresh child processes, then repeats cold passes of
the workload until ``--seconds`` have gone, checking every pass's
outputs against ``reference.json`` and the paper's invariants.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones (medians over passes); with ``--trace
1`` passes alternate between untraced and traced, the metrics are the
per-layer ones, and the spans are written to
``.perfbench/trace-<workload>-seed<seed>.json``.  The line before it
records the environment the numbers were taken in.  All scratch files
live under ``.perfbench/`` in the working directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK_DIR = Path(".perfbench")

#: Set before numpy is imported; pool workers inherit them.  OpenBLAS
#: threads otherwise double CPU time without shortening wall time.
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_LP_JOBS": "1",
    "REPRO_LP_BACKEND": "highs",
    "REPRO_KERNEL": "1",
}
UNSET_ENV = ("REPRO_LP_WARM", "REPRO_FAULTS")

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_SAMPLES = 5

#: ``cpu_s`` must cover at least this share of the time spent inside
#: cell solves.  CPU time trails wall time only when the host is
#: contended; worker CPU that goes uncounted shows as a far larger gap.
CPU_FLOOR = 0.5


def pin_environment(scratch: Path) -> None:
    os.environ.update(PINNED_ENV)
    for name in UNSET_ENV:
        os.environ.pop(name, None)
    os.environ["REPRO_CACHE_DIR"] = str(scratch.resolve() / "cache")


def import_program():
    """Import the benchmark modules against the checkout's ``src/``."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"perfbench: no program sources at {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    return workloads


def environment_record(args, instance: int) -> dict:
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            model = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                "",
            )
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "instance": instance,
        "seconds": args.seconds,
        "trace": args.trace,
        "pinned": {name: os.environ.get(name) for name in (*PINNED_ENV, *UNSET_ENV)},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def setup_probe(args) -> None:
    """Child mode: do the set-up a run does, then print when it was done."""
    workloads = import_program()
    workload = workloads.WORKLOADS[args.workload]
    workload.prepare(workloads.instance_of(args.seed))
    print(repr(time.time()), flush=True)


def measure_setup(args) -> float:
    """Median of fresh-process set-ups, from launch until ready."""
    samples = []
    command = [
        sys.executable, str(Path(__file__).resolve()), "--setup-probe",
        "--workload", args.workload, "--seed", str(args.seed),
    ]
    for _ in range(SETUP_SAMPLES):
        launched = time.time()
        done = subprocess.run(command, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.strip().splitlines()[-1]) - launched)
    return statistics.median(samples)


def run_passes(workload, prepared, scratch: Path, seconds: float, modes: tuple[str, ...]):
    """Cold passes, cycling through ``modes``, until ``seconds`` have gone.

    A further pass starts only if it would end within half a pass of the
    deadline, so runs last about ``seconds`` whatever a pass costs.
    """
    outcomes = []
    started = time.perf_counter()
    while True:
        mode = modes[len(outcomes) % len(modes)]
        root = scratch / f"pass-{len(outcomes)}"
        outcomes.append((mode, workload.run_pass(prepared, root, mode)))
        shutil.rmtree(root, ignore_errors=True)
        elapsed = time.perf_counter() - started
        if len(outcomes) >= len(modes) and elapsed * (1 + 0.5 / len(outcomes)) > seconds:
            return outcomes


def failed_operations(workload, outcome, expected: dict) -> dict[str, str]:
    """Operation id -> first problem, for one pass."""
    failures = dict(outcome.errors)
    for row, column, message in checks.check_rows(workload.name, outcome.rows, expected):
        op = f"{row}/{column}" if workload.column_ops else row
        failures.setdefault(op, f"{column}: {message}")
    if outcome.resume_solved:
        failures["resume"] = f"warm re-pass solved {outcome.resume_solved} cell(s)"
    return failures


def relative_ratios(workload, rows: dict, expected: dict) -> list[float]:
    """Each oracle ratio of a pass divided by its reference value."""
    ratios = []
    for key, want in expected.items():
        got = rows.get(key, {})
        ratios += [g / w for g, w in zip(got.get("robust", []), want["robust"])]
        ratios += [got[c] / want[c] for c in workload.ratio_columns if c in got]
    return ratios


def end_to_end(workload, outcomes, expected, setup_s: float, failed: int, attempted: int):
    walls = [o.wall_s for _, o in outcomes]
    cpus = [o.cpu_s for _, o in outcomes]
    _, parent_rss_kb = spans.process_usage()
    ratios = [r for _, o in outcomes for r in relative_ratios(workload, o.rows, expected)]
    if not ratios:
        raise SystemExit("perfbench: no pass produced an oracle ratio")
    return {
        "wall_s": (statistics.median(walls), "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": ((parent_rss_kb + max(o.worker_rss_kb for _, o in outcomes)) / 1024, "MB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
        "coyote_ratio": (math.exp(statistics.fmean(map(math.log, ratios))), "ratio"),
    }


def layer_metrics(workload, outcome) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass."""
    layers, rooted = spans.layer_totals(outcome.traces)
    counters = spans.merged_counters(outcome.traces)
    missing = [name for name in workload.exercises if name not in layers]
    stray = [name for name in workload.bypasses if name in layers]
    if missing or stray:
        raise SystemExit(
            f"perfbench: {workload.name} trace is unsound: no calls recorded for {missing}, "
            f"unexpected calls to {stray}"
        )

    def calls(name: str) -> int:
        return int(layers.get(name, {}).get("calls", 0))

    def self_s(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0)

    evals = counters.get("core.softmax_opt.evals", 0)
    solves = calls("lp.backend")
    attributed = sum(
        totals["self_s"] for name, totals in layers.items() if not name.startswith("runner.")
    )
    sweep = outcome.sweep
    return {
        "core.softmax_opt.calls": (calls("core.softmax_opt"), "count"),
        "core.softmax_opt.self_s": (self_s("core.softmax_opt"), "s"),
        "core.softmax_opt.evals": (evals, "count"),
        "core.softmax_opt.ms_per_eval": (
            1000 * self_s("core.softmax_opt") / evals if evals else 0.0, "ms"
        ),
        "core.robust.self_s": (self_s("core.robust"), "s"),
        "core.robust.rounds": (counters.get("core.robust.rounds", 0), "count"),
        "core.robust.cuts": (counters.get("core.robust.cuts", 0), "count"),
        "core.local_search.self_s": (self_s("core.local_search"), "s"),
        "core.local_search.rounds": (counters.get("core.local_search.rounds", 0), "count"),
        "kernel.delta.moves": (calls("kernel.delta"), "count"),
        "kernel.delta.self_s": (self_s("kernel.delta"), "s"),
        "kernel.coefficients.calls": (calls("kernel.coefficients"), "count"),
        "kernel.coefficients.self_s": (self_s("kernel.coefficients"), "s"),
        "lp.worst_case.evaluations": (calls("lp.worst_case"), "count"),
        "lp.worst_case.edge_lps": (counters.get("lp.worst_case.edge_lps", 0), "count"),
        "lp.worst_case.self_s": (self_s("lp.worst_case"), "s"),
        "lp.worst_case.build_s": (self_s("lp.worst_case.build"), "s"),
        "lp.mcf.solves": (calls("lp.mcf"), "count"),
        "lp.mcf.self_s": (self_s("lp.mcf"), "s"),
        "lp.backend.solves": (solves, "count"),
        "lp.backend.self_s": (self_s("lp.backend"), "s"),
        "lp.backend.ms_per_solve": (1000 * self_s("lp.backend") / solves if solves else 0.0, "ms"),
        "experiments.setup_s": (outcome.setup_phase_s, "s"),
        "runner.overhead_s": (
            outcome.wall_s - outcome.solve_s / outcome.jobs if sweep else 0.0, "s"
        ),
        "runner.parallel_eff": (
            outcome.solve_s / (outcome.jobs * outcome.wall_s) if sweep else 0.0, "frac"
        ),
        "runner.store.puts": (calls("runner.store.put"), "count"),
        "runner.store.put_s": (self_s("runner.store.put"), "s"),
        "runner.store.gets": (calls("runner.store.get"), "count"),
        "runner.store.get_s": (self_s("runner.store.get"), "s"),
        "runner.resume_s": (outcome.resume_s, "s"),
        "runner.retries": (outcome.retries, "count"),
        "trace.attributed_frac": (attributed / rooted if rooted else 0.0, "frac"),
    }


def per_layer(workload, outcomes) -> dict[str, tuple[float, str]]:
    """Medians of each traced pass's layer metrics, plus tracing overhead.

    Counters must repeat exactly across traced passes of one run.
    """
    traced = [o for mode, o in outcomes if mode == spans.TRACE]
    untraced = [o for mode, o in outcomes if mode == spans.OBSERVE]
    samples = [layer_metrics(workload, o) for o in traced]
    metrics = {}
    for name, (_value, unit) in samples[0].items():
        values = [sample[name][0] for sample in samples]
        if unit != "count":
            metrics[name] = (statistics.median(values), unit)
        elif len(set(values)) > 1:
            raise SystemExit(f"perfbench: counter {name} differs across traced passes: {values}")
        else:
            metrics[name] = (values[0], unit)
    metrics["trace.overhead_s"] = (
        statistics.median(o.wall_s for o in traced) - statistics.median(o.wall_s for o in untraced),
        "s",
    )
    return metrics


def as_payload(metrics: dict[str, tuple[float, str]]) -> dict[str, dict]:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def write_trace(path: Path, env: dict, outcomes, metrics: dict) -> None:
    traces = [trace for mode, o in outcomes if mode == spans.TRACE for trace in o.traces]
    payload = {
        "env": env,
        "metrics": as_payload(metrics),
        "spans": spans.span_records(traces),
    }
    path.write_text(json.dumps(payload))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    scratch = WORK_DIR / f"run-{os.getpid()}"
    pin_environment(scratch)
    if args.setup_probe:
        setup_probe(args)
        return 0
    try:
        workloads = import_program()
        if args.workload not in workloads.WORKLOADS:
            raise SystemExit(
                f"perfbench: unknown workload {args.workload!r}; "
                f"known: {', '.join(workloads.WORKLOADS)}"
            )
        workload = workloads.WORKLOADS[args.workload]
        instance = workloads.instance_of(args.seed)
        expected = checks.reference_rows(
            checks.load_reference(), workload.name, instance, workload.seeded
        )
        env = environment_record(args, instance)
        setup_s = None if args.trace else measure_setup(args)
        prepared = workload.prepare(instance)
        modes = (spans.OBSERVE, spans.TRACE) if args.trace else (spans.OBSERVE,)
        outcomes = run_passes(workload, prepared, scratch, args.seconds, modes)
        spans.uninstall()

        attempted = failed = 0
        for index, (mode, outcome) in enumerate(outcomes):
            failures = failed_operations(workload, outcome, expected)
            attempted += outcome.attempted
            failed += len(failures)
            for op, problem in sorted(failures.items()):
                print(f"perfbench: pass {index} ({mode}) {op}: {problem}", file=sys.stderr)
            if outcome.cpu_s < CPU_FLOOR * outcome.solve_s:
                raise SystemExit(
                    f"perfbench: cpu_s {outcome.cpu_s:.3f} is below {CPU_FLOOR} x the "
                    f"{outcome.solve_s:.3f}s spent in cell solves; CPU accounting lost time"
                )
        if args.trace:
            metrics = per_layer(workload, outcomes)
            trace_path = WORK_DIR / f"trace-{args.workload}-seed{args.seed}.json"
            write_trace(trace_path, env, outcomes, metrics)
        else:
            metrics = end_to_end(workload, outcomes, expected, setup_s, failed, attempted)
        env["passes"] = [{"mode": mode, "wall_s": o.wall_s} for mode, o in outcomes]
        print(json.dumps({"env": env}))
        print(
            json.dumps(
                {
                    "correct": failed == 0,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": as_payload(metrics),
                }
            ),
            flush=True,
        )
        return 0
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            WORK_DIR.rmdir()  # only when no trace file is kept there
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
