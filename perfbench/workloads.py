"""The benchmark's workloads and one timed pass of each.

Every workload drives production entry points: the two sweep workloads
run registered specs through ``run_sweep``, and ``whatif`` calls the
public ``topologies``/``demands``/``ecmp``/``core``/``lp`` functions an
operator would.  Each pass is cold: a fresh ``DirStore``, cleared
per-process memos, and topologies built anew.

All workloads share one small solver configuration (two adversarial
rounds, ten L-BFGS iterations, two temperatures) so that a pass takes
seconds and a run can take the median of several passes.  The stretch
cells still build the oblivious routing and then COYOTE-pk, and the
local-search cells still run Algorithm 1 and the parallel executor.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.config import ExperimentConfig, SolverConfig
from repro.core.dag_builder import build_dags
from repro.demands.bimodal import bimodal_matrix
from repro.demands.uncertainty import margin_box
from repro.ecmp.routing import ecmp_routing
from repro.ecmp.weights import inverse_capacity_weights
from repro.experiments.fig9_local_search import fig9_spec
from repro.experiments.fig11_stretch import fig11_spec
from repro.lp.dag_flow import optimal_dag_routing
from repro.lp.worst_case import WorstCaseOracle
from repro.runner.executor import run_sweep
from repro.runner.memo import clear_all_memos
from repro.runner.spec import SweepSpec, cell_key
from repro.runner.store import DirStore
from repro.topologies.zoo import load_topology

import spans

BENCH_SOLVER = SolverConfig(
    max_adversarial_rounds=2, max_inner_iterations=10, smoothing_temperatures=(8.0, 64.0)
)

#: ``--seed n`` selects input instance ``n % INSTANCES``; the reference
#: file holds the expected outputs of every instance.
INSTANCES = 16

#: The bimodal demand seed of each ``whatif`` instance.  The oracle's LP
#: cost varies by about ±20% between demand seeds, which would make the
#: run-to-run spread of ``wall_s`` a matter of which seed was drawn;
#: these are the 16 seeds out of 0..47 whose cost is closest to the
#: median, as chosen by ``select_seeds.py``.
WHATIF_SEEDS = (2, 14, 16, 17, 18, 19, 23, 25, 27, 29, 31, 34, 37, 40, 41, 44)

MARGINS = (1.0, 2.0, 3.0)
STRETCH_TOPOLOGIES = ("abilene", "germany")
WHATIF_TOPOLOGY = "geant"


@dataclass
class PassOutcome:
    """What one cold pass produced and cost.

    ``rows`` maps a row key to its output columns, plus ``"robust"``:
    the oracle ratios of the ``optimize_robust_splitting`` calls made
    for that row, in call order.  ``errors`` maps a row key to why the
    row's operation failed (raised, retried or quarantined).
    """

    wall_s: float
    cpu_s: float
    worker_rss_kb: int
    rows: dict[str, dict]
    errors: dict[str, str]
    attempted: int
    traces: list[dict] = field(default_factory=list)
    solve_s: float = 0.0
    setup_phase_s: float = 0.0
    sweep: bool = False
    jobs: int = 1
    retries: int = 0
    resume_s: float = 0.0
    resume_solved: int = 0


@dataclass(frozen=True)
class Workload:
    """A named workload: how to set it up and run one pass of it.

    ``exercises`` lists layers whose traced call count must be non-zero;
    ``bypasses`` lists layers that must record no calls at all.  An
    operation is a sweep cell, or with ``column_ops`` one evaluated
    column of a row.  ``ratio_columns`` are output oracle ratios that
    join the robust optimizations' ratios in ``coyote_ratio``.
    """

    name: str
    seeded: bool
    exercises: tuple[str, ...]
    bypasses: tuple[str, ...]
    prepare: Callable[[int], object]
    run_pass: Callable[[object, Path, str], PassOutcome]
    column_ops: bool = False
    ratio_columns: tuple[str, ...] = ()


def instance_of(seed: int) -> int:
    return seed % INSTANCES


# -- sweep workloads -----------------------------------------------------


def stretch_spec(instance: int) -> SweepSpec:
    # Gravity demands carry no seed, so every instance has one input.
    del instance
    config = ExperimentConfig(margins=(2.5,), solver=BENCH_SOLVER, demand_model="gravity")
    return fig11_spec(config, topologies=STRETCH_TOPOLOGIES)


def local_search_spec(instance: int) -> SweepSpec:
    config = ExperimentConfig(
        margins=MARGINS, solver=BENCH_SOLVER, demand_model="bimodal", seed=instance
    )
    return fig9_spec(config, topology="abilene", demand_model="bimodal")


def row_key(cell) -> str:
    return f"{cell.topology}/m={cell.margin:g}"


def sweep_pass(spec: SweepSpec, root: Path, mode: str, *, jobs: int) -> PassOutcome:
    """One cold ``run_sweep`` of ``spec``, then a warm re-pass over its store."""
    store = DirStore(root / "store")
    ship = root / "ship"
    ship.mkdir(parents=True)
    os.environ[spans.SHIP_ENV] = str(ship)
    os.environ[spans.MODE_ENV] = mode
    spans.install(mode)
    clear_all_memos()
    parent = spans.Recorder("pass")
    cpu_before, _ = spans.process_usage()
    started = time.perf_counter()
    error = None
    try:
        with spans.recording(parent):
            report = run_sweep(spec, jobs=jobs, cache=store, solve=spans.bench_solve)
    except Exception as raised:  # the runner gave up on a cell
        error, report = raised, getattr(raised, "partial_report", None)
    wall = time.perf_counter() - started
    cpu_after, _ = spans.process_usage()

    shipped = spans.collect(ship)
    worker_cpu: dict[int, float] = {}
    worker_rss: dict[int, int] = {}
    robust: dict[str, list[float]] = {}
    for payload in shipped:
        robust[payload["trace_id"]] = payload["robust_ratios"]
        if payload["pid"] != os.getpid():
            # Forked workers start their rusage at zero; the last cell a
            # worker ships carries its largest cumulative figures.
            pid = payload["pid"]
            worker_cpu[pid] = max(worker_cpu.get(pid, 0.0), payload["cpu_s"])
            worker_rss[pid] = max(worker_rss.get(pid, 0), payload["maxrss_kb"])

    rows: dict[str, dict] = {}
    errors: dict[str, str] = {}
    solve_s = setup_phase_s = 0.0
    retries = 0
    if report is not None:
        for result in report.results:
            rows[row_key(result.cell)] = {**result.ratios, "robust": robust.get(result.key, [])}
            solve_s += result.timings.get("total", 0.0)
            setup_phase_s += result.timings.get("setup", 0.0)
        cells = {cell_key(cell): cell for cell in spec.cells}
        for event in report.events:
            if event.event in ("failed", "retried", "quarantined", "timed-out"):
                retries += event.event == "retried"
                errors.setdefault(
                    row_key(cells[event.key]), f"runner event {event.event}: {event.detail}"
                )
    for cell in spec.cells:
        if row_key(cell) not in rows:
            errors.setdefault(row_key(cell), f"no result ({error!r})")

    outcome = PassOutcome(
        wall_s=wall,
        cpu_s=(cpu_after - cpu_before) + sum(worker_cpu.values()),
        worker_rss_kb=sum(worker_rss.values()),
        rows=rows,
        errors=errors,
        attempted=len(spec.cells),
        traces=[parent.export(), *shipped] if mode == spans.TRACE else [],
        solve_s=solve_s,
        setup_phase_s=setup_phase_s,
        sweep=True,
        jobs=jobs,
        retries=retries,
    )
    if error is None:
        started = time.perf_counter()
        warm = run_sweep(spec, jobs=jobs, cache=store, solve=spans.bench_solve)
        outcome.resume_s = time.perf_counter() - started
        outcome.resume_solved = warm.solved
        spans.collect(ship)
    return outcome


# -- whatif ----------------------------------------------------------------


def whatif_pass(demand_seed: int, root: Path, mode: str) -> PassOutcome:
    """Worst-case ratios of fixed ECMP and Base routings under each margin.

    Everything is rebuilt from the topology each pass, so no kernel CSR
    view or oracle survives from an earlier pass.
    """
    del root
    spans.install(mode)
    recorder = spans.Recorder("whatif")
    rows: dict[str, dict] = {}
    errors: dict[str, str] = {}
    cpu_before, _ = spans.process_usage()
    started = time.perf_counter()
    with spans.recording(recorder):
        with recorder.span("pass") if mode == spans.TRACE else nullcontext():
            network = load_topology(WHATIF_TOPOLOGY)
            base = bimodal_matrix(network, demand_seed)
            weights = inverse_capacity_weights(network)
            dags = build_dags(network, weights, augment=True)
            routings = {
                "ECMP": ecmp_routing(network, weights),
                "Base": optimal_dag_routing(network, dags, base),
            }
            for margin in MARGINS:
                key = f"{WHATIF_TOPOLOGY}/m={margin:g}"
                oracle = WorstCaseOracle(
                    network, margin_box(base, margin), dags=dags, config=BENCH_SOLVER
                )
                row = rows.setdefault(key, {"robust": []})
                for scheme, routing in routings.items():
                    try:
                        row[scheme] = oracle.evaluate(routing).ratio
                    except Exception as raised:
                        errors[f"{key}/{scheme}"] = f"raised {raised!r}"
    wall = time.perf_counter() - started
    cpu_after, _ = spans.process_usage()
    return PassOutcome(
        wall_s=wall,
        cpu_s=cpu_after - cpu_before,
        worker_rss_kb=0,
        rows=rows,
        errors=errors,
        attempted=len(MARGINS) * 2,
        traces=[recorder.export()] if mode == spans.TRACE else [],
        solve_s=wall,
    )


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "stretch",
            seeded=False,
            exercises=(
                "core.softmax_opt", "core.robust", "kernel.coefficients",
                "lp.worst_case", "lp.worst_case.build", "lp.mcf", "lp.backend",
                "runner.store.get", "runner.store.put",
            ),
            bypasses=("core.local_search", "kernel.delta"),
            prepare=stretch_spec,
            run_pass=functools.partial(sweep_pass, jobs=1),
        ),
        Workload(
            "local-search",
            seeded=True,
            exercises=(
                "core.softmax_opt", "core.robust", "core.local_search", "kernel.delta",
                "kernel.coefficients", "lp.worst_case", "lp.worst_case.build", "lp.mcf",
                "lp.backend", "runner.store.get", "runner.store.put",
            ),
            bypasses=(),
            prepare=local_search_spec,
            run_pass=functools.partial(sweep_pass, jobs=2),
        ),
        Workload(
            "whatif",
            seeded=True,
            exercises=(
                "kernel.coefficients", "lp.worst_case", "lp.worst_case.build", "lp.backend",
            ),
            bypasses=("core.softmax_opt", "core.robust", "core.local_search", "kernel.delta"),
            prepare=lambda instance: WHATIF_SEEDS[instance],
            run_pass=whatif_pass,
            column_ops=True,
            ratio_columns=("ECMP", "Base"),
        ),
    )
}
