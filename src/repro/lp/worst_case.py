"""The adversarial ("slave") LP of Appendix C, equations (10)-(11).

For a *fixed* routing ``phi`` the performance ratio over an uncertainty
set ``D`` is, by scale invariance,

    PERF(phi, D) = max_e  max { load_e(phi, D) / c_e :
                                D in cone(D),  OPT(D) <= 1 }

i.e. one LP per edge where the objective is the (linear!) load placed on
that edge and the constraints assert that a witness flow ``g`` routes
``D`` at congestion <= 1, and that ``D`` lies in the margin cone
``lambda * lo <= d <= lambda * hi``.

Two witness modes select the normalizer ``OPT``:

* ``dags``    — the witness flow is restricted to the per-destination
  DAGs, so ratios are relative to the *demands-aware optimum within the
  same DAGs* (the normalization used in Section VI / Table I);
* ``network`` — the witness may use any edge, normalizing against the
  unrestricted optimum (used by the local-search heuristic, which follows
  the oblivious-OSPF objective of [12]).

The paper writes the flow-conservation rows of the slave LP with a
``<= 0`` sense (eq. 10); taken literally that lets the adversary inflate
demands beyond what the witness flow delivers, making the LP unbounded.
We use the standard equality conservation from Applegate & Cohen [11],
which is the form the dualization (Theorem 5) actually corresponds to.

All constraint matrices are compiled once per (witness, uncertainty)
pair and stay loaded in a persistent backend instance; evaluating a
routing only swaps the (sparse) objective.  Only the ``k = keep_cuts``
worst edges' *vertices* are ever consumed (the ratio, the worst demand,
the cuts); every other edge needs only its objective value.  Most
callers read only the ratio or the worst demand, so ``evaluate``
defaults to ``keep_cuts=1``; the cutting-plane loop in
:mod:`repro.core.robust` asks for 4 cuts per round, and
:mod:`repro.lp.oblivious_lp` keeps 4 findings.  A sweep runs in two
stages:

1. *Screen.*  The oracle's anchor objective, the total demand
   ``sum(d)``, does not depend on the routing, so the backend solves it
   cold once per oracle and keeps its optimal basis; every edge's LP is
   then solved from that basis by primal simplex (the feasible region
   is shared, so the anchor is feasible for all).  This yields values
   only; each screen solve resets its engine, so a value depends only
   on its own objective, not on which edges share the sweep.
2. *Solve exactly.*  With ``s_k`` the k-th best screened value, every
   edge with ``s >= s_k - SCREEN_SLACK * max(1, |s_k|)`` gets an
   isolated cold solve (see :mod:`repro.lp.backend`), threaded over
   ``REPRO_LP_JOBS``; ``per_edge`` takes those exact values and the
   screened values of the rest.

If screened and cold values differ by at most ``delta``, every edge in
the cold top k has ``s >= s_k - 2 * delta``, so a slack above ``2 *
delta`` selects all of them and the stable sort over the same edge
order returns bit-identical ``findings[:k]`` (measured ``delta`` is
about 1e-14; the slack is 1e-6 relative).  The solved edges carry both
values, so the sweep checks ``delta`` on them at run time: when one
differs by more than half the slack (a badly scaled LP the screen
misjudges), the remaining edges are cold-solved too.  The same happens
when one of the k best screened edges yields no finding (every demand
entry under the cutoff), since the argument needs each to yield one.
When the backend cannot screen (``screen`` returns ``None``, also when
the anchor has no optimum) every edge is cold-solved, which is also the
reference the differential tests compare against.  Cold solves are
independent of sweep order and of how ``REPRO_LP_JOBS`` partitions
them; solves run at the backend engine's default tolerances (HiGHS
1e-7) and demand entries below 1e-10 are dropped from extracted
worst-case matrices.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Mapping

from repro.config import DEFAULT_CONFIG, SolverConfig
from repro.demands.matrix import DemandMatrix, Pair
from repro.demands.uncertainty import UncertaintySet
from repro.exceptions import SolverError
from repro.graph.dag import Dag
from repro.graph.network import Edge, Network, Node
from repro.lp import backend as lp_backend
from repro.lp.model import LinExpr, Model, ReusableLP, Variable
from repro.routing.splitting import Routing

#: Relative slack below the k-th best screened value within which an
#: edge still gets an exact cold solve (see the module docstring).
SCREEN_SLACK = 1e-6

#: One per-edge finding: (utilization, edge, worst-case demand).
Finding = tuple[float, Edge, DemandMatrix]


@dataclass
class OracleResult:
    """Outcome of a worst-case evaluation of a fixed routing.

    Attributes:
        ratio: ``PERF(phi, D)`` — worst-case utilization against demands
            normalized to ``OPT <= 1``.
        edge: the link attaining the worst ratio.
        demand: a worst-case demand matrix (already scaled to be routable
            at congestion <= 1 under the witness mode).
        per_edge: worst-case utilization per evaluated edge.
        cuts: distinct worst-case demands of up to ``keep_cuts``
            most-violated edges, best first — the cutting-plane loop
            asks for several per round to converge in fewer oracle
            sweeps.
    """

    ratio: float
    edge: Edge | None
    demand: DemandMatrix | None
    per_edge: dict[Edge, float]
    cuts: list[DemandMatrix] = field(default_factory=list)


class WorstCaseOracle:
    """Reusable adversarial evaluator for a fixed (witness, uncertainty) pair."""

    def __init__(
        self,
        network: Network,
        uncertainty: UncertaintySet,
        dags: Mapping[Node, Dag] | None = None,
        config: SolverConfig = DEFAULT_CONFIG,
    ):
        """Args:
        network: the capacitated topology.
        uncertainty: the demand cone the adversary may pick from.
        dags: witness restriction; ``None`` selects the network-wide
            witness (normalization against the unrestricted optimum).
        config: solver tolerances.
        """
        self.network = network
        self.dags = dict(dags) if dags is not None else None
        self.uncertainty = uncertainty
        self.config = config
        self._build()

    # -- construction ---------------------------------------------------

    def _witness_edges(self, destination: Node) -> list[Edge]:
        if self.dags is not None:
            dag = self.dags.get(destination)
            if dag is None:
                raise SolverError(f"no DAG provided for destination {destination!r}")
            return dag.edges()
        return [e for e in self.network.edges() if e[0] != destination]

    def _pair_allowed(self, source: Node, destination: Node) -> bool:
        if source == destination:
            return False
        if self.dags is not None:
            dag = self.dags.get(destination)
            return dag is not None and dag.has_node(source)
        return self.network.has_node(source) and self.network.has_node(destination)

    def _build(self) -> None:
        model = Model("slave")
        self._demand_vars: dict[Pair, Variable] = {}
        for (s, t) in self.uncertainty.pairs:
            if self._pair_allowed(s, t):
                self._demand_vars[(s, t)] = model.add_var(f"d[{s},{t}]")

        destinations = sorted({t for (_s, t) in self._demand_vars}, key=str)
        flow_vars: dict[Node, dict[Edge, Variable]] = {}
        for t in destinations:
            edges = self._witness_edges(t)
            flow_vars[t] = {e: model.add_var(f"g[{t}][{e}]") for e in edges}
            incident: dict[Node, tuple[list[Edge], list[Edge]]] = {}
            for (u, v) in edges:
                incident.setdefault(u, ([], []))
                incident.setdefault(v, ([], []))
                incident[u][0].append((u, v))
                incident[v][1].append((u, v))
            # Conservation: outflow - inflow equals the demand originated
            # at the node (equality; see module docstring).
            for node, (out_list, in_list) in incident.items():
                if node == t:
                    continue
                balance = LinExpr()
                for e in out_list:
                    balance.add_term(flow_vars[t][e], 1.0)
                for e in in_list:
                    balance.add_term(flow_vars[t][e], -1.0)
                demand_var = self._demand_vars.get((node, t))
                if demand_var is not None:
                    balance.add_term(demand_var, -1.0)
                model.add_eq(balance, 0.0)

        # Witness congestion at most 1 on every finite-capacity edge.
        for edge in self.network.finite_capacity_edges():
            usage = LinExpr()
            for t in destinations:
                var = flow_vars[t].get(edge)
                if var is not None:
                    usage.add_term(var, 1.0)
            if usage.terms:
                model.add_le(usage, self.network.capacity(*edge))

        # Margin cone: lambda * lo <= d <= lambda * hi (skipped for the
        # oblivious set, whose only constraint is nonnegativity).
        if not self.uncertainty.oblivious:
            lam = model.add_var("lambda")
            for pair, var in self._demand_vars.items():
                lo, hi = self.uncertainty.bounds[pair]
                if hi < math.inf:
                    model.add_le(var - hi * lam, 0.0)
                if lo > 0:
                    model.add_le(lo * lam - var, 0.0)

        self._model = model
        self._compiled = model.compile()
        # The screening anchor, the same for every routing, so its basis
        # is solved once.  The witness capacities bound it unless some
        # pair can reach its destination over infinite-capacity links;
        # then screening fails and every edge is cold-solved.
        self._anchor = {var.index: 1.0 for var in self._demand_vars.values()}
        # One persistent backend instance for the serial path; parallel
        # sweeps build one per worker thread (instances are stateful).
        self._reusable: ReusableLP = self._compiled.reusable()

    # -- queries ----------------------------------------------------------

    @property
    def demand_pairs(self) -> list[Pair]:
        """Pairs the adversary can actually use (support of the LP)."""
        return list(self._demand_vars)

    def _edge_objective(
        self, edge: Edge, coefficients: Mapping[Pair, float]
    ) -> dict[int, float]:
        """The slave LP's ``{column: coefficient}`` utilization objective.

        Empty for infinite-capacity edges and edges no usable pair loads.
        """
        capacity = self.network.capacity(*edge)
        if not math.isfinite(capacity):
            return {}
        objective: dict[int, float] = {}
        for pair, coefficient in coefficients.items():
            var = self._demand_vars.get(pair)
            if var is not None and coefficient > 0.0:
                objective[var.index] = coefficient / capacity
        return objective

    def worst_utilization_for_edge(
        self,
        edge: Edge,
        coefficients: Mapping[Pair, float],
        reusable: ReusableLP | None = None,
    ) -> tuple[float, DemandMatrix]:
        """Maximize the utilization of ``edge`` over the uncertainty set.

        Args:
            edge: the link under attack.
            coefficients: pair -> fraction of that pair's demand crossing
                ``edge`` under the fixed routing (``f_st(u) * phi_t(e)``).
            reusable: solver instance to use (default: the oracle's own;
                parallel sweeps pass per-thread instances).

        Returns:
            (utilization, worst-case demand matrix).
        """
        objective = self._edge_objective(edge, coefficients)
        if not objective:
            return 0.0, DemandMatrix({})
        if reusable is None:
            reusable = self._reusable
        solution = reusable.solve(objective, maximize=True)
        demand = DemandMatrix(
            {
                pair: solution.value(var)
                for pair, var in self._demand_vars.items()
                if solution.value(var) > 1e-10
            }
        )
        return float(solution.objective), demand

    def evaluate(
        self,
        routing: Routing,
        edges: list[Edge] | None = None,
        keep_cuts: int = 1,
    ) -> OracleResult:
        """``PERF(routing, D)`` via the ranked sweep over (loaded, finite) edges.

        Args:
            routing: the fixed configuration under evaluation.
            edges: restrict the sweep (default: all finite-capacity edges).
            keep_cuts: how many of the worst per-edge demand matrices to
                return for cutting-plane use (each one costs a cold
                solve; the ratio and worst demand need only one).
        """
        # Objective-coefficient assembly rides the vectorized kernel when
        # enabled (see repro.kernel.coefficients); any change to how
        # coefficients are derived is a solver-semantics change — bump
        # CACHE_VERSION in repro.runner.spec.
        coefficients = routing.load_coefficients(list(self._demand_vars))
        candidates = edges if edges is not None else self.network.finite_capacity_edges()
        loaded = [
            (edge, coefficients[edge])
            for edge in candidates
            if coefficients.get(edge)
        ]
        per_edge, findings = self.ranked_sweep(loaded, keep_cuts)
        cuts: list[DemandMatrix] = []
        for _u, _e, demand in findings:
            if not any(demand.close_to(seen, tolerance=1e-9) for seen in cuts):
                cuts.append(demand)
        if not findings:
            return OracleResult(0.0, None, None, per_edge, [])
        best_ratio, best_edge, best_demand = findings[0]
        return OracleResult(best_ratio, best_edge, best_demand, per_edge, cuts)

    def ranked_sweep(
        self, loaded: list[tuple[Edge, Mapping[Pair, float]]], keep: int
    ) -> tuple[dict[Edge, float], list[Finding]]:
        """Worst utilization per edge and the ``keep`` worst findings.

        Args:
            loaded: ``(edge, pair -> load coefficient)`` per edge to sweep.
            keep: how many findings to return (at least one).

        Returns:
            ``(per_edge, findings)``: utilization per edge of ``loaded``
            (exact for solved edges, screened for the rest), and the
            ``keep`` best ``(utilization, edge, demand)`` findings with
            a non-empty demand, best first, ties in ``loaded`` order —
            the same list an exhaustive cold sweep gives.
        """
        keep = max(keep, 1)
        objectives = [self._edge_objective(edge, coeffs) for edge, coeffs in loaded]
        screened = self._screen(objectives, keep)
        if screened is None:
            chosen = list(range(len(loaded)))
        else:
            kth = sorted(screened, reverse=True)[keep - 1]
            slack = SCREEN_SLACK * max(1.0, abs(kth))
            chosen = [i for i, value in enumerate(screened) if value >= kth - slack]
        exact = dict(zip(chosen, self._sweep([loaded[i] for i in chosen])))
        if screened is not None and (
            # A top-k edge without a demand leaves a finding slot to an
            # unsolved edge, and a screen off by more than half the slack
            # on a solved edge breaks the 2-delta argument: solve the rest.
            any(not exact[i][1] for i in chosen if screened[i] >= kth)
            or any(abs(screened[i] - exact[i][0]) > slack / 2 for i in chosen)
        ):
            rest = [i for i in range(len(loaded)) if i not in exact]
            exact.update(zip(rest, self._sweep([loaded[i] for i in rest])))
        per_edge: dict[Edge, float] = {}
        findings: list[Finding] = []
        for i, (edge, _coeffs) in enumerate(loaded):
            if i in exact:
                utilization, demand = exact[i]
                if demand:
                    findings.append((utilization, edge, demand))
            else:
                utilization = screened[i]
            per_edge[edge] = utilization
        findings.sort(key=lambda item: item[0], reverse=True)
        return per_edge, findings[:keep]

    def _screen(
        self, objectives: list[dict[int, float]], keep: int
    ) -> list[float] | None:
        """Screened utilization per objective (0 for empty ones).

        ``None`` when screening cannot narrow the sweep: at most ``keep``
        edges carry an objective, or the backend does not screen.
        """
        active = [i for i, objective in enumerate(objectives) if objective]
        if len(active) <= keep:
            return None
        values = self._reusable.screen_max(
            [objectives[i] for i in active], self._anchor
        )
        if values is None:
            return None
        screened = [0.0] * len(objectives)
        for i, value in zip(active, values):
            screened[i] = value
        return screened

    def _sweep(
        self, loaded: list[tuple[Edge, Mapping[Pair, float]]]
    ) -> list[tuple[float, DemandMatrix]]:
        """Solve the per-edge LPs, threading them when ``REPRO_LP_JOBS`` > 1.

        Each worker thread gets its own backend instance (instances are
        stateful); because per-edge solves are isolated, the result list
        is identical to the serial sweep regardless of partitioning —
        which is why the job count stays out of cell fingerprints.
        """
        jobs = lp_backend.lp_jobs()
        if jobs <= 1 or len(loaded) <= 1:
            return [
                self.worst_utilization_for_edge(edge, coeffs)
                for edge, coeffs in loaded
            ]
        import threading

        local = threading.local()

        def solve_one(item: tuple[Edge, Mapping[Pair, float]]):
            instance = getattr(local, "reusable", None)
            if instance is None:
                instance = self._compiled.reusable()
                local.reusable = instance
            return self.worst_utilization_for_edge(item[0], item[1], reusable=instance)

        with ThreadPoolExecutor(max_workers=min(jobs, len(loaded))) as pool:
            return list(pool.map(solve_one, loaded))

    def check_membership(self, demand: DemandMatrix) -> bool:
        """True when ``demand`` lies in the uncertainty cone (direction-wise)."""
        return self.uncertainty.contains_direction(demand)


def evaluate_on_matrices(
    network: Network,
    dags: Mapping[Node, Dag],
    routing: Routing,
    matrices: list[DemandMatrix],
) -> float:
    """Max over a finite list of ``MxLU(phi, D) / OPT_DAG(D)`` ratios.

    Used by the optimizers' inner loops where the adversarial set has
    already been discretized into concrete matrices.
    """
    from repro.lp.dag_flow import dag_optimal_congestion  # local: avoid cycle

    worst = 0.0
    for demand in matrices:
        if not demand:
            continue
        mlu = routing.max_link_utilization(demand, network)
        optimum = dag_optimal_congestion(network, dags, demand).alpha
        if optimum <= 0:
            raise SolverError("demand matrix with zero within-DAG optimum")
        worst = max(worst, mlu / optimum)
    return worst


def normalize_to_unit_optimum(
    network: Network,
    demand: DemandMatrix,
    dags: Mapping[Node, Dag] | None = None,
    solver: "object | None" = None,
) -> DemandMatrix:
    """Scale ``demand`` so its optimal congestion equals 1.

    After normalization, ``MxLU(phi, D)`` *is* the performance ratio of
    ``phi`` on ``D``, which lets the finite-set optimizers use raw loads
    as their objective.  ``dags=None`` normalizes against the
    unrestricted optimum, otherwise against the within-DAG optimum.

    ``solver`` may carry a :class:`~repro.lp.mcf.MinCongestionSolver`
    already bound to (network, dags): cutting-plane loops normalize one
    matrix per cut, and the shared solver re-solves a factorized LP
    instead of rebuilding it each round.
    """
    from repro.lp.mcf import min_congestion  # local: avoid cycle

    if solver is not None:
        optimum = solver.solve(demand).alpha
    else:
        optimum = min_congestion(network, demand, dags=dags).alpha
    if optimum <= 0:
        raise SolverError("cannot normalize a demand with zero optimal congestion")
    return demand.scaled(1.0 / optimum)
