"""Smoothed-minimax splitting optimizer (the scalable finite-set solver).

Given per-destination DAGs and a *finite* batch of demand matrices
(normalized so ``MxLU`` equals the performance ratio), this optimizer
searches splitting ratios minimizing the worst link utilization:

    min_phi  max_{e, k}  load_e(phi, D_k) / c_e .

Two ideas make the problem unconstrained and smooth:

* **Softmax parameterization.**  Ratios at each splittable node are
  ``phi(u, v) = exp(theta_uv) / sum_w exp(theta_uw)``, so the simplex
  constraints hold by construction — the same variable substitution
  ``z = log x`` that geometric programming uses (Appendix C), with the
  normalization folded into the parameterization instead of a condensed
  constraint.
* **Log-sum-exp smoothing.**  ``max`` is replaced by a temperature-
  annealed soft maximum whose gap to the true maximum is at most
  ``log(N) / tau``.  We anneal ``tau`` upward, warm-starting each stage.

The objective runs on flat arrays (:class:`SplittingProblem`): theta is
one vector with a segment softmax, every destination's DAG edges are
instances of one :class:`repro.kernel.propagate.LevelSweep` with the
demand matrices as columns, and gradients are exact (its adjoint sweep);
the stages run L-BFGS-B.  This is the only implementation —
``REPRO_KERNEL`` does not switch it — and its oracles are central finite
differences and the pure-Python :mod:`repro.routing.propagation`
(``tests/test_flowgrad.py``).  The true (unsmoothed) objective of the
best iterate across all stages and starts is what the caller receives,
so smoothing never inflates the reported quality.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import minimize

from repro.config import DEFAULT_CONFIG, SolverConfig
from repro.demands.matrix import DemandMatrix
from repro.exceptions import SolverError
from repro.graph.dag import Dag
from repro.graph.network import Edge, Network, Node
from repro.kernel.csr import csr_index
from repro.kernel.propagate import LevelSweep, edge_level_schedule, sweep_flows
from repro.routing.splitting import Routing

#: Bounds on theta keep exp() well-behaved; the ratio floor this implies
#: (about e^-24 relative) is far below any meaningful split.
_THETA_BOUND = 12.0


@dataclass
class SplittingSolution:
    """Result of a finite-set splitting optimization.

    Attributes:
        routing: the optimized configuration (ratios renormalized).
        objective: true worst utilization over the matrix batch.
        evaluations: number of objective/gradient evaluations performed.
    """

    routing: Routing
    objective: float
    evaluations: int


class SplittingProblem:
    """Finite-set splitting problem on flat arrays over the network's index.

    * **Variables.**  One slot per out-edge of every splittable node
      (out-degree >= 2) of every DAG; destinations in ``str`` order,
      nodes in topological order.  Groups (one per splittable node) are
      contiguous, so a segment softmax over :attr:`starts` turns theta
      into ratios.  Nodes with a single out-edge are fixed at 1.0.
    * **Instances.**  Every (destination, DAG edge) pair is one instance
      of a :class:`LevelSweep`, levelled by the longest-path depth of its
      tail in its own DAG, and reads its ratio from a variable slot or
      the fixed 1.0.
    * **Loads.**  One forward sweep carries all demand matrices as
      columns; edge loads ``(E, K)`` are one scatter-add over edge ids.

    The objectives' edge set: the soft maximum's log-sum-exp and the
    mean-utilization regularizer's ``entries`` cover exactly the
    finite-capacity edges that carry flow under at least one matrix,
    each with all ``K`` entries (zeros included).  An edge unloaded in
    every matrix is left out: counting its zeros would shift the soft
    maximum by ``log(1 + n * exp(-tau * peak)) / tau`` and the mean by
    its share of ``entries``.

    :meth:`with_matrices` gives a problem that shares this structure and
    differs only in its injected demands.
    """

    def __init__(
        self,
        network: Network,
        dags: Mapping[Node, Dag],
        matrices: Sequence[DemandMatrix],
    ):
        self.dags = dict(dags)
        self.index = csr_index(network)
        destinations = sorted(self.dags, key=str)
        self.row_of = {t: r for r, t in enumerate(destinations)}
        #: (destination, edge) per variable slot, and per fixed edge.
        self.variables: list[tuple[Node, Edge]] = []
        self.fixed: list[tuple[Node, Edge]] = []
        group_sizes: list[int] = []
        rows: list[int] = []
        edge_ids: list[int] = []
        levels: list[int] = []
        slots: list[int] = []
        for r, t in enumerate(destinations):
            dag = self.dags[t]
            depth: dict[Node, int] = {}
            for node in dag.topological_order():
                if node == t:
                    continue
                level = depth.get(node, 0)
                heads = dag.out_neighbors(node)
                if len(heads) >= 2:
                    group_sizes.append(len(heads))
                for head in heads:
                    depth[head] = max(depth.get(head, 0), level + 1)
                    edge = (node, head)
                    try:
                        edge_ids.append(self.index.edge_id[edge])
                    except KeyError:
                        raise SolverError(f"DAG edge {edge!r} is not a network edge") from None
                    rows.append(r)
                    levels.append(level)
                    if len(heads) >= 2:
                        slots.append(len(self.variables))
                        self.variables.append((t, edge))
                    else:
                        slots.append(-1)
                        self.fixed.append((t, edge))
        self.size = len(self.variables)
        sizes = np.array(group_sizes, dtype=np.int64)
        self.starts = np.cumsum(sizes) - sizes
        self.group_of = np.repeat(np.arange(sizes.size), sizes)
        self.sweep = LevelSweep(
            self.index,
            np.array(rows, dtype=np.int64),
            np.array(edge_ids, dtype=np.int64),
            np.array(levels, dtype=np.int64),
            len(destinations),
        )
        # Per sorted instance: its slot in ``append(phi, 1.0)`` (fixed
        # instances read the trailing 1.0); per slot: its instance.
        slot = np.array(slots, dtype=np.int64)[self.sweep.order]
        slot[slot < 0] = self.size
        self.slot = slot
        self.var_pos = np.empty(self.size, dtype=np.int64)
        self.var_pos[slot[slot < self.size]] = np.flatnonzero(slot < self.size)
        # Load scatter: instances grouped by edge id.
        self.by_edge = np.argsort(self.sweep.edges, kind="stable")
        sorted_edges = self.sweep.edges[self.by_edge]
        self.edge_starts = np.flatnonzero(np.diff(sorted_edges, prepend=-1))
        self.load_edges = sorted_edges[self.edge_starts]
        self._set_matrices(matrices)
        self.evaluations = 0

    def _set_matrices(self, matrices: Sequence[DemandMatrix]) -> None:
        if not matrices:
            raise SolverError("splitting optimizer needs at least one demand matrix")
        self.batch = len(matrices)
        num_nodes = self.index.num_nodes
        inject = np.zeros((self.sweep.num_states, self.batch))
        for k, matrix in enumerate(matrices):
            for (source, target), volume in matrix.items():
                row = self.row_of.get(target)
                node = self.index.node_id.get(source)
                if row is not None and node is not None:
                    inject[row * num_nodes + node, k] += volume
        self.inject = inject

    def with_matrices(self, matrices: Sequence[DemandMatrix]) -> "SplittingProblem":
        """The same structure with another demand batch (own counter)."""
        other = copy.copy(self)
        other._set_matrices(matrices)
        other.evaluations = 0
        return other

    # -- parameter conversion ----------------------------------------------

    def ratio_vector(self, ratios: Mapping[Node, Mapping[Edge, float]]) -> np.ndarray:
        """Per-slot ratios read from nested ``{t: {edge: ratio}}`` dicts."""
        return np.array(
            [ratios.get(t, {}).get(edge, 0.0) for t, edge in self.variables], dtype=np.float64
        )

    def theta_from_ratios(
        self, ratios: Mapping[Node, Mapping[Edge, float]], floor: float = 1e-6
    ) -> np.ndarray:
        theta = np.array(
            [math.log(max(value, floor)) for value in self.ratio_vector(ratios).tolist()]
        )
        if self.size:
            # Softmax is shift-invariant per group; recentre on the group
            # max so the later clipping cannot flatten the distribution.
            theta -= np.maximum.reduceat(theta, self.starts)[self.group_of]
        return np.clip(theta, -_THETA_BOUND, _THETA_BOUND)

    def shares(self, theta: np.ndarray) -> np.ndarray:
        """Segment softmax: per-slot ratios from theta."""
        if not self.size:
            return np.zeros(0)
        shifted = np.exp(theta - np.maximum.reduceat(theta, self.starts)[self.group_of])
        return shifted / np.add.reduceat(shifted, self.starts)[self.group_of]

    def ratios(self, phi: np.ndarray) -> dict[Node, dict[Edge, float]]:
        """Nested ratio dicts (fixed edges at 1.0) for a :class:`Routing`."""
        ratios: dict[Node, dict[Edge, float]] = {t: {} for t in self.dags}
        for (t, edge), share in zip(self.variables, phi.tolist()):
            ratios[t][edge] = share
        for t, edge in self.fixed:
            ratios[t][edge] = 1.0
        return ratios

    # -- propagation -----------------------------------------------------------

    def propagate(self, phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-instance ratios, tail arrivals ``(n, K)`` and loads ``(E, K)``."""
        phi_inst = np.append(phi, 1.0)[self.slot]
        _arrivals, tail_arrivals = self.sweep.forward(phi_inst, self.inject)
        flows = tail_arrivals * phi_inst[:, np.newaxis]
        loads = np.zeros((self.index.num_edges, self.batch))
        loads[self.load_edges] = np.add.reduceat(flows[self.by_edge], self.edge_starts)
        return phi_inst, tail_arrivals, loads

    def objective_edges(self, loads: np.ndarray) -> np.ndarray:
        """The objectives' edges: finite capacity and loaded in some matrix."""
        return np.flatnonzero(self.index.finite & loads.any(axis=1))

    def peak_utilization(self, phi: np.ndarray) -> float:
        """True (unsmoothed) worst utilization over edges and batch."""
        _phi, _arrivals, loads = self.propagate(phi)
        edges = self.objective_edges(loads)
        if not edges.size:
            return 0.0
        return float((loads[edges] / self.index.capacity[edges, np.newaxis]).max())

    def load_jacobian(self, phi: np.ndarray, tail_arrivals: np.ndarray) -> np.ndarray:
        """``d loads[e, k] / d log phi[a]`` as an ``(E, size, K)`` array.

        Raising the log-ratio of ``a = (x, y)`` moves ``phi_a * F(x)`` of
        extra flow onto ``a`` and injects it at ``y``, from where it
        spreads like a unit of demand there:

            J[e, a, k] = phi_a * F_k(x) * (1[e = a] + G_t[y, e]),

        with ``G_t[y, e]`` the flow on ``e`` per unit injected at ``y``
        in destination ``t``'s DAG — one unit-injection sweep per
        destination.
        """
        phi_inst = np.append(phi, 1.0)[self.slot]
        jacobian = np.zeros((self.index.num_edges, self.size, self.batch))
        var_rows = self.sweep.rows[self.var_pos]
        unit = np.eye(self.index.num_nodes)
        for r in np.unique(var_rows).tolist():
            members = np.flatnonzero(self.sweep.rows == r)
            edges = self.sweep.edges[members]
            ratios = np.zeros(self.index.num_edges)
            ratios[edges] = phi_inst[members]
            schedule = edge_level_schedule(self.index, edges)
            _arrivals, spread = sweep_flows(self.index, schedule, ratios, unit)
            slots = np.flatnonzero(var_rows == r)
            positions = self.var_pos[slots]
            var_edges = self.sweep.edges[positions]
            paths = spread[self.index.head[var_edges]]
            paths[np.arange(slots.size), var_edges] += 1.0
            moved = phi[slots, np.newaxis] * tail_arrivals[positions]
            jacobian[:, slots, :] = paths.T[:, :, np.newaxis] * moved[np.newaxis, :, :]
        return jacobian

    # -- objectives ----------------------------------------------------------

    def true_objective(self, theta: np.ndarray) -> float:
        return self.peak_utilization(self.shares(theta))

    def _theta_gradient(
        self,
        shares: np.ndarray,
        phi_inst: np.ndarray,
        tail_arrivals: np.ndarray,
        psi: np.ndarray,
    ) -> np.ndarray:
        """Adjoint sweep for ``sum psi * loads``, then the softmax chain rule."""
        raw = self.sweep.adjoint(phi_inst, tail_arrivals, psi[self.sweep.edges])[self.var_pos]
        inner = np.add.reduceat(shares * raw, self.starts)[self.group_of]
        return shares * (raw - inner)

    def mean_utilization(self, theta: np.ndarray) -> tuple[float, np.ndarray]:
        """Average utilization over (objective edges x batch) and its gradient."""
        self.evaluations += 1
        shares = self.shares(theta)
        phi_inst, tail_arrivals, loads = self.propagate(shares)
        edges = self.objective_edges(loads)
        if not edges.size:
            return 0.0, np.zeros(self.size)
        capacity = self.index.capacity[edges]
        entries = edges.size * self.batch
        value = float((loads[edges].sum(axis=1) / capacity).sum()) / entries
        psi = np.zeros_like(loads)
        psi[edges] = (1.0 / (entries * capacity))[:, np.newaxis]
        return value, self._theta_gradient(shares, phi_inst, tail_arrivals, psi)

    def smoothed(
        self, theta: np.ndarray, temperature: float, regularization: float = 0.0
    ) -> tuple[float, np.ndarray]:
        """Soft maximum (plus mean-utilization tie-breaker) and its gradient."""
        self.evaluations += 1
        shares = self.shares(theta)
        phi_inst, tail_arrivals, loads = self.propagate(shares)
        edges = self.objective_edges(loads)
        if not edges.size:
            return 0.0, np.zeros(self.size)
        capacity = self.index.capacity[edges, np.newaxis]
        utilization = loads[edges] / capacity
        peak = float(utilization.max())
        weights = np.exp(temperature * (utilization - peak))
        exp_sum = float(weights.sum())
        value = peak + math.log(exp_sum) / temperature
        # psi[e][k] = dS/dload = (w / exp_sum) / c_e, plus the mean-
        # utilization regularizer's uniform share (see SolverConfig).
        psi = np.zeros_like(loads)
        psi[edges] = weights / (exp_sum * capacity)
        if regularization > 0.0:
            entries = utilization.size
            value += regularization * (float(utilization.sum()) / entries)
            psi[edges] += regularization / (entries * capacity)
        return value, self._theta_gradient(shares, phi_inst, tail_arrivals, psi)


def polish_balanced(
    network: Network,
    dags: Mapping[Node, Dag],
    penalty_matrices: Sequence[DemandMatrix],
    balance_matrices: Sequence[DemandMatrix],
    start_ratios: Mapping[Node, Mapping[Edge, float]],
    bound: float,
    config: SolverConfig = DEFAULT_CONFIG,
    name: str = "COYOTE",
) -> SplittingSolution:
    """Minimize balanced-set mean utilization s.t. worst case <= bound.

    Worst-case-optimal routings are massively degenerate; interior-point
    solvers (the paper's MOSEK) return the balanced center of the
    optimal face, while first-order methods land on extreme vertices
    that behave poorly on demand sets narrower than the one optimized
    for.  This polish recovers the balanced behaviour: starting from a
    worst-case-optimal point it descends the *mean* utilization of a
    canonical balance set (the uncertainty cone's representative matrix
    — the uniform matrix in the oblivious case, so no demand knowledge
    sneaks in) under a quadratic penalty on the worst case over the
    adversarial set exceeding ``bound``.

    The caller should re-verify the polished point with the oracle and
    keep the better configuration.
    """
    penalty_problem = SplittingProblem(network, dags, penalty_matrices)
    balance_problem = penalty_problem.with_matrices(balance_matrices)
    theta0 = penalty_problem.theta_from_ratios(start_ratios)
    if penalty_problem.size == 0:
        # No splittable node anywhere (e.g. a path): nothing to polish.
        ratios = penalty_problem.ratios(penalty_problem.shares(theta0))
        routing = Routing(dags, ratios, name=name).renormalized()
        return SplittingSolution(routing, penalty_problem.true_objective(theta0), 0)
    penalty_weight = 1e3
    temperature = config.smoothing_temperatures[-1]

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        soft_value, soft_grad = penalty_problem.smoothed(theta, temperature, 0.0)
        mean_value, mean_grad = balance_problem.mean_utilization(theta)
        excess = soft_value - bound
        if excess > 0.0:
            value = mean_value + penalty_weight * excess * excess
            grad = mean_grad + (2.0 * penalty_weight * excess) * soft_grad
        else:
            value, grad = mean_value, mean_grad
        return value, grad

    result = minimize(
        objective,
        theta0,
        jac=True,
        method="L-BFGS-B",
        bounds=[(-_THETA_BOUND, _THETA_BOUND)] * penalty_problem.size,
        options={"maxiter": 2 * config.max_inner_iterations},
    )
    theta = np.asarray(result.x)
    polished_value = penalty_problem.true_objective(theta)
    start_value = penalty_problem.true_objective(theta0)
    if polished_value > max(bound, start_value) * (1.0 + config.ratio_tolerance):
        theta, polished_value = theta0, start_value  # polish made it worse
    ratios = penalty_problem.ratios(penalty_problem.shares(theta))
    routing = Routing(dags, ratios, name=name).renormalized()
    return SplittingSolution(routing, polished_value, penalty_problem.evaluations)


def optimize_splitting_softmax(
    network: Network,
    dags: Mapping[Node, Dag],
    matrices: Sequence[DemandMatrix],
    config: SolverConfig = DEFAULT_CONFIG,
    initial_ratios: Sequence[Mapping[Node, Mapping[Edge, float]]] = (),
    name: str = "COYOTE",
) -> SplittingSolution:
    """Optimize in-DAG splitting against a finite demand batch.

    Args:
        network: capacitated topology.
        dags: per-destination (augmented) DAGs.
        matrices: demand matrices, ideally normalized to unit optimum so
            the objective *is* the performance ratio.
        config: temperatures and iteration caps.
        initial_ratios: extra warm starts (e.g. ECMP-projected ratios,
            LP-induced ratios); a uniform start is always included.
        name: label for the resulting :class:`Routing`.
    """
    problem = SplittingProblem(network, dags, matrices)
    if problem.size == 0:
        # Every node has a single out-edge: the routing is fully forced.
        theta = np.zeros(0)
        ratios = problem.ratios(problem.shares(theta))
        routing = Routing(dags, ratios, name=name).renormalized()
        return SplittingSolution(routing, problem.true_objective(theta), 0)
    starts: list[np.ndarray] = [np.zeros(problem.size)]
    for ratios in initial_ratios:
        starts.append(problem.theta_from_ratios(ratios))

    best_theta: np.ndarray | None = None
    best_value = math.inf
    for start in starts:
        theta = start.copy()
        candidate_value = problem.true_objective(theta)
        if candidate_value < best_value:
            best_value, best_theta = candidate_value, theta.copy()
        for temperature in config.smoothing_temperatures:
            result = minimize(
                problem.smoothed,
                theta,
                args=(temperature, config.regularization),
                jac=True,
                method="L-BFGS-B",
                bounds=[(-_THETA_BOUND, _THETA_BOUND)] * problem.size,
                options={"maxiter": config.max_inner_iterations},
            )
            theta = np.asarray(result.x)
            candidate_value = problem.true_objective(theta)
            if candidate_value < best_value:
                best_value, best_theta = candidate_value, theta.copy()

    if best_theta is None:  # pragma: no cover - empty variable space
        best_theta = np.zeros(problem.size)
        best_value = problem.true_objective(best_theta)
    ratios = problem.ratios(problem.shares(best_theta))
    routing = Routing(dags, ratios, name=name).renormalized()
    return SplittingSolution(
        routing=routing,
        objective=best_value,
        evaluations=problem.evaluations,
    )
