"""Unconstrained (source-and-destination-based) oblivious routing.

The related-work baseline of Section VIII: Applegate & Cohen [11] showed
that *unconstrained* oblivious routing — forwarding may depend on both
source and destination, unlike IP — achieves remarkably low oblivious
ratios on real ISP topologies, but deploying it needs MPLS tunnels or
per-flow SDN rules.  COYOTE's whole premise is making do without that.

This module implements the Applegate-Cohen master LP in cutting-plane
form so the repository can quantify the price of destination-based
forwarding (Theorem 4 says it can be Omega(|V|) in the worst case; on
backbones it is small):

    minimize   r
    s.t.       f routes one unit s->t for every pair (per-commodity flow)
               load_e(f, D) <= r * c_e   for every routable demand D

The separation oracle for the second family is the same slave LP as the
destination-based case, except the fixed routing's load coefficients
come from per-*pair* flows instead of per-destination splits, and the
witness flow is unrestricted.  We reuse :class:`repro.lp.worst_case`'s
compiled system by passing the per-pair coefficients directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.config import DEFAULT_CONFIG, SolverConfig
from repro.demands.matrix import DemandMatrix, Pair
from repro.demands.uncertainty import UncertaintySet, oblivious_set
from repro.exceptions import SolverError
from repro.graph.network import Edge, Network, Node
from repro.lp.model import LinExpr, Model, Variable
from repro.lp.worst_case import WorstCaseOracle, normalize_to_unit_optimum


@dataclass
class ObliviousFlowResult:
    """An unconstrained oblivious routing and its certification.

    Attributes:
        ratio: oracle-certified oblivious performance ratio.
        flows: (source, target) -> {edge -> fraction of the pair's
            demand routed on that edge} (a unit flow per pair).
        rounds: cutting-plane rounds used.
        history: (master objective, oracle ratio) per round.
    """

    ratio: float
    flows: dict[Pair, dict[Edge, float]]
    rounds: int
    history: list[tuple[float, float]] = field(default_factory=list)


def _master_lp(
    network: Network,
    pairs: list[Pair],
    matrices: list[DemandMatrix],
) -> tuple[float, dict[Pair, dict[Edge, float]]]:
    """Best per-pair routing against a finite demand set (exact LP)."""
    model = Model("oblivious-master")
    r = model.add_var("r")
    flow: dict[Pair, dict[Edge, Variable]] = {}
    for pair in pairs:
        s, t = pair
        edges = [e for e in network.edges() if e[0] != t and e[1] != s]
        flow[pair] = {e: model.add_var(f"f[{pair}][{e}]") for e in edges}
        incident: dict[Node, tuple[list[Edge], list[Edge]]] = {}
        for (u, v) in edges:
            incident.setdefault(u, ([], []))
            incident.setdefault(v, ([], []))
            incident[u][0].append((u, v))
            incident[v][1].append((u, v))
        for node, (out_list, in_list) in incident.items():
            if node == t:
                continue
            balance = LinExpr()
            for e in out_list:
                balance.add_term(flow[pair][e], 1.0)
            for e in in_list:
                balance.add_term(flow[pair][e], -1.0)
            model.add_eq(balance, 1.0 if node == s else 0.0)
        if s not in incident:
            raise SolverError(f"pair {pair!r} has no usable edges")
    for dm in matrices:
        for edge in network.finite_capacity_edges():
            load = LinExpr()
            for pair in pairs:
                var = flow[pair].get(edge)
                volume = dm.get(*pair)
                if var is not None and volume > 0:
                    load.add_term(var, volume)
            if load.terms:
                load.add_term(r, -network.capacity(*edge))
                model.add_le(load, 0.0)
    model.minimize(r)
    solution = model.solve()
    flows = {
        pair: {
            e: solution.value(var)
            for e, var in per_pair.items()
            if solution.value(var) > 1e-12
        }
        for pair, per_pair in flow.items()
    }
    return float(solution.objective), flows


def _pair_coefficients(
    flows: Mapping[Pair, Mapping[Edge, float]]
) -> dict[Edge, dict[Pair, float]]:
    """Per-edge load coefficients of a fixed per-pair routing."""
    coefficients: dict[Edge, dict[Pair, float]] = {}
    for pair, per_pair in flows.items():
        for edge, fraction in per_pair.items():
            if fraction > 0:
                coefficients.setdefault(edge, {})[pair] = fraction
    return coefficients


def exact_unconstrained_oblivious(
    network: Network,
    pairs: list[Pair] | None = None,
) -> ObliviousFlowResult:
    """The exact Applegate-Cohen LP (dualized, all demands at once).

    One linear program certifies the oblivious ratio of the computed
    per-pair routing against *every* routable demand matrix:

        minimize r
        f routes one unit s->t per pair
        for every finite-capacity edge e:
            sum_h pi_e(h) * c_h <= r
            f_st(e) / c_e <= p_e(s, t)            for every pair
            p_e(s, k) <= p_e(s, j) + pi_e(j, k)   for every edge (j,k),
                                                   every source s
            p_e(s, s) = 0, pi_e >= 0, p_e >= 0

    Feasibility of the (pi_e, p_e) block is exactly the Theorem 5 /
    Applegate-Cohen certificate for edge ``e``, so the optimum is the
    true unconstrained oblivious ratio — no cutting planes, no
    degeneracy.  Problem size grows as |E|^2 + |E| * |V|^2 variables;
    fine for the evaluation backbones up to ~30 nodes.
    """
    if pairs is None:
        pairs = [(s, t) for s in network.nodes() for t in network.nodes() if s != t]
    model = Model("applegate-cohen")
    r = model.add_var("r")

    # Unit flow per pair.
    flow: dict[Pair, dict[Edge, Variable]] = {}
    for pair in pairs:
        s, t = pair
        edges = [e for e in network.edges() if e[0] != t and e[1] != s]
        flow[pair] = {e: model.add_var(f"f[{pair}][{e}]") for e in edges}
        incident: dict[Node, tuple[list[Edge], list[Edge]]] = {}
        for (u, v) in edges:
            incident.setdefault(u, ([], []))
            incident.setdefault(v, ([], []))
            incident[u][0].append((u, v))
            incident[v][1].append((u, v))
        for node, (out_list, in_list) in incident.items():
            if node == t:
                continue
            balance = LinExpr()
            for e in out_list:
                balance.add_term(flow[pair][e], 1.0)
            for e in in_list:
                balance.add_term(flow[pair][e], -1.0)
            model.add_eq(balance, 1.0 if node == s else 0.0)

    sources = sorted({s for (s, _t) in pairs}, key=str)
    finite = network.finite_capacity_edges()
    for e in finite:
        capacity_e = network.capacity(*e)
        pi = {h: model.add_var(f"pi[{e}][{h}]") for h in finite}
        p: dict[tuple[Node, Node], Variable] = {}
        for s in sources:
            for node in network.nodes():
                if node != s:
                    p[(s, node)] = model.add_var(f"p[{e}][{s},{node}]")
        # R1: the certificate budget.
        budget = LinExpr()
        for h, var in pi.items():
            budget.add_term(var, network.capacity(*h))
        budget.add_term(r, -1.0)
        model.add_le(budget, 0.0)
        # R2: per-pair load fraction bounded by the potential.
        for pair in pairs:
            var = flow[pair].get(e)
            if var is not None:
                model.add_le(var * (1.0 / capacity_e) - p[pair], 0.0)
        # Triangle inequalities: p(s, k) <= p(s, j) + pi(j, k).
        for (j, k) in network.edges():
            pi_var = pi.get((j, k))
            for s in sources:
                lhs = LinExpr()
                if k != s:
                    lhs.add_term(p[(s, k)], 1.0)
                if j != s:
                    lhs.add_term(p[(s, j)], -1.0)
                if pi_var is not None:
                    lhs.add_term(pi_var, -1.0)
                if lhs.terms:
                    model.add_le(lhs, 0.0)

    model.minimize(r)
    solution = model.solve()
    flows = {
        pair: {
            e: solution.value(var)
            for e, var in per_pair.items()
            if solution.value(var) > 1e-9
        }
        for pair, per_pair in flow.items()
    }
    return ObliviousFlowResult(
        ratio=float(solution.objective), flows=flows, rounds=1, history=[]
    )


def optimize_unconstrained_oblivious(
    network: Network,
    uncertainty: UncertaintySet | None = None,
    config: SolverConfig = DEFAULT_CONFIG,
) -> ObliviousFlowResult:
    """Applegate-Cohen oblivious routing via cutting planes.

    Args:
        network: the capacitated topology.
        uncertainty: demand cone (default: fully oblivious on all pairs).
        config: ``max_adversarial_rounds`` bounds the loop.

    Returns:
        The optimized per-pair routing with its certified ratio; on ISP
        topologies the ratio should be close to the literature's ~1-2
        range, far below the destination-based optimum of Theorem 4's
        worst cases.
    """
    if uncertainty is None:
        uncertainty = oblivious_set(network.nodes())
    pairs = [
        (s, t)
        for (s, t) in uncertainty.pairs
        if network.has_node(s) and network.has_node(t)
    ]
    oracle = WorstCaseOracle(network, uncertainty, dags=None, config=config)
    # Shared across every cut: normalization re-solves one factorized
    # unrestricted min-congestion LP with fresh RHS per round.
    from repro.lp.mcf import MinCongestionSolver

    mcf_solver = MinCongestionSolver(network)
    matrices: list[DemandMatrix] = [
        normalize_to_unit_optimum(
            network, DemandMatrix({pair: 1.0 for pair in pairs}), solver=mcf_solver
        )
    ]
    history: list[tuple[float, float]] = []
    best_ratio = float("inf")
    best_flows: dict[Pair, dict[Edge, float]] = {}
    rounds = 0
    for rounds in range(1, config.max_adversarial_rounds + 1):
        objective, flows = _master_lp(network, pairs, matrices)
        coefficients = _pair_coefficients(flows)
        loaded = [
            (edge, coefficients[edge])
            for edge in network.finite_capacity_edges()
            if coefficients.get(edge)
        ]
        # Multiple cuts per round: the master LP is cheap relative to the
        # oracle sweep, so feeding it several violated demands converges
        # in far fewer rounds.
        _per_edge, findings = oracle.ranked_sweep(loaded, keep=4)
        worst = findings[0][0] if findings else 0.0
        history.append((objective, worst))
        if worst < best_ratio:
            best_ratio, best_flows = worst, flows
        if worst <= objective * (1.0 + config.ratio_tolerance) or not findings:
            break
        added = 0
        for _u, _edge, demand in findings:
            normalized = normalize_to_unit_optimum(network, demand, solver=mcf_solver)
            if any(normalized.close_to(dm, tolerance=1e-9) for dm in matrices):
                continue
            matrices.append(normalized)
            added += 1
        if added == 0:
            break
    return ObliviousFlowResult(
        ratio=best_ratio, flows=best_flows, rounds=rounds, history=history
    )
