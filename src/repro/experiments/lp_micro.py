"""LP micro-benchmarks: assembly and oracle-sweep cost per backend path.

The ``"lp-micro"`` cell kind times the two LP-layer costs PR 6's backend
work targets on one topology:

* ``assemble`` — building and compiling the worst-case oracle's slave
  LP (the sparse CSR constraint assembly in :mod:`repro.lp.model`);
* ``oracle-sweep`` — one full adversarial sweep of a fixed routing,
  comparing the production path (:meth:`WorstCaseOracle.evaluate`: a
  screen of every edge, then cold solves of the top ones) against one
  scipy ``linprog`` cold solve per edge (what the layer did before
  backend instances existed).

Each cell reports per-call milliseconds for the fast path and the
one-shot reference plus the speedup, so ``repro bench lp-assemble
lp-oracle-sweep`` records what the backend layer buys on this machine;
macro effects show up in the fig9/fig11 benchmarks' phase timings.

Like every timing-valued payload, results are machine-dependent; cells
of this kind are meaningful uncached (the bench CLI's default).
"""

from __future__ import annotations

import time

from repro.demands.gravity import gravity_matrix
from repro.demands.uncertainty import margin_box
from repro.ecmp.routing import ecmp_routing
from repro.ecmp.weights import inverse_capacity_weights
from repro.exceptions import ExperimentError
from repro.lp.worst_case import WorstCaseOracle
from repro.runner.spec import CellKind, SweepCell, SweepSpec, freeze_params, register_cell_kind
from repro.runner.timing import phase
from repro.topologies.zoo import load_topology

MICRO_COLUMNS = ("fast_ms", "reference_ms", "speedup")

#: Default timing iterations per cell; the oracle sweep solves one LP
#: per edge per call, so a handful of repeats is already stable.
DEFAULT_REPEATS = 5


def _per_call_ms(fn, repeats: int) -> float:
    started = time.perf_counter()
    for _ in range(repeats):
        fn()
    return 1000.0 * (time.perf_counter() - started) / repeats


def solve_lp_micro_cell(cell: SweepCell) -> dict[str, float]:
    """Time one LP-layer operation against its one-shot reference."""
    params = cell.params_dict()
    op = params["op"]
    repeats = int(params.get("repeats", DEFAULT_REPEATS))
    with phase("setup"):
        network = load_topology(cell.topology)
        demand = gravity_matrix(network)
        uncertainty = margin_box(demand, cell.margin)
        weights = inverse_capacity_weights(network)
        routing = ecmp_routing(network, weights)

    if op == "assemble":
        def fast_once():
            WorstCaseOracle(network, uncertainty, dags=None, config=cell.solver)

        # Assembly has no slower twin to race: the reference is the same
        # build, so the column pair reads as build-vs-build (speedup ~1)
        # and the absolute fast_ms is the tracked quantity.
        reference_once = fast_once

    elif op == "oracle-sweep":
        with phase("setup"):
            from repro.lp.backend.scipy_backend import ScipyBackend
            from repro.lp.model import ReusableLP

            oracle = WorstCaseOracle(network, uncertainty, dags=None, config=cell.solver)
            coefficients = routing.load_coefficients(oracle.demand_pairs)
            loaded = [
                (edge, coefficients[edge])
                for edge in network.finite_capacity_edges()
                if coefficients.get(edge)
            ]
            # The pre-backend-layer path: one scipy linprog call per edge
            # (the _OneShotInstance fallback re-enters linprog each solve).
            scipy_reference = ReusableLP(
                oracle._compiled,
                ScipyBackend().instance(oracle._compiled.program),
            )

        def fast_once():
            oracle.evaluate(routing)

        def reference_once():
            for edge, coeffs in loaded:
                oracle.worst_utilization_for_edge(
                    edge, coeffs, reusable=scipy_reference
                )

    else:
        raise ExperimentError(
            f"unknown lp micro op {op!r} (use 'assemble' or 'oracle-sweep')"
        )

    with phase("solve"):
        fast_ms = _per_call_ms(fast_once, repeats)
    with phase("evaluate"):
        reference_ms = _per_call_ms(reference_once, repeats)
    return {
        "fast_ms": fast_ms,
        "reference_ms": reference_ms,
        "speedup": reference_ms / fast_ms if fast_ms > 0 else float("inf"),
    }


LP_MICRO_KIND = register_cell_kind(
    CellKind(
        name="lp-micro", solve=solve_lp_micro_cell, columns=MICRO_COLUMNS, timeout=900.0
    )
)


def lp_micro_spec(op: str, config=None, topologies: tuple[str, ...] = ("abilene", "geant")) -> SweepSpec:
    """Declare one LP micro-benchmark grid (one cell per topology)."""
    from repro.config import ExperimentConfig

    config = config or ExperimentConfig.from_environment()
    cells = tuple(
        SweepCell(
            experiment=f"lp-{op}",
            topology=topology,
            demand_model=config.demand_model,
            margin=config.margins[0],
            seed=config.seed,
            solver=config.solver,
            kind=LP_MICRO_KIND.name,
            params=freeze_params({"op": op, "repeats": DEFAULT_REPEATS}),
        )
        for topology in topologies
    )
    return SweepSpec(
        experiment=f"lp-{op}",
        title=f"LP micro-benchmark: {op} (persistent backend instance vs one-shot)",
        cells=cells,
        row_columns=("network",),
        notes=(
            "per-call milliseconds; reference = one-shot cold solves "
            "(the pre-backend-layer path)",
        ),
    )
