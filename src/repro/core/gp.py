"""Iterative geometric-programming splitting optimizer (Appendix C).

This is the paper-faithful solver.  Link loads are posynomials in the
splitting ratios ``phi`` (sums over DAG paths of products of ratios with
nonnegative demand coefficients), so under the substitution
``phi = exp(phi_tilde)`` every load constraint

    log load_e(exp(phi_tilde), D_k) <= alpha_tilde

is convex (log-sum-exp of affine functions).  The one non-convex piece
is the per-node normalization ``sum_v phi(u, v) = 1``; following the
paper's Complementary-GP treatment we *condense* it around the current
iterate ``phi0`` into its best monomial approximation, which in log
space is the affine constraint

    sum_v a_v * phi_tilde(u, v) >= sum_v a_v * log phi0(u, v),
    a_v = phi0(u, v)  (when sum_v phi0 = 1),

solve the resulting convex program (SLSQP with exact gradients from the
load Jacobian), renormalize, re-condense, and repeat until the
objective stops improving.

The problem is the softmax optimizer's :class:`SplittingProblem` with
log-ratios ``x = log phi`` as variables: loads come from its forward
sweep, and the SLSQP load-constraint Jacobian from its
:meth:`~repro.core.softmax_opt.SplittingProblem.load_jacobian` (one
unit-injection sweep per destination).

Complexity note: the SLSQP subproblem materializes a dense constraint
Jacobian of shape (|E| * K) x (#ratios), so this solver targets small
instances — the running example, the hardness gadgets, and topologies up
to a few dozen ratio variables.  The smoothed-minimax optimizer
(:mod:`repro.core.softmax_opt`) is the scalable default; the test suite
cross-checks the two on the running example against the closed-form
golden-ratio optimum (Appendix B).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np
from scipy.optimize import minimize

from repro.config import DEFAULT_CONFIG, SolverConfig
from repro.core.softmax_opt import SplittingProblem, SplittingSolution
from repro.demands.matrix import DemandMatrix
from repro.graph.dag import Dag
from repro.graph.network import Edge, Network, Node
from repro.routing.splitting import Routing, uniform_ratios

_LOG_FLOOR = -16.0  # ratios below e^-16 are effectively pruned edges
_LOAD_EPS = 1e-30


def _normalized(problem: SplittingProblem, phi: np.ndarray) -> np.ndarray:
    """Exact per-node renormalization (uniform where a group sums to 0)."""
    totals = np.add.reduceat(phi, problem.starts)[problem.group_of]
    uniform = 1.0 / np.bincount(problem.group_of)[problem.group_of]
    return np.where(totals > 0, phi / np.where(totals > 0, totals, 1.0), uniform)


def optimize_splitting_gp(
    network: Network,
    dags: Mapping[Node, Dag],
    matrices: Sequence[DemandMatrix],
    config: SolverConfig = DEFAULT_CONFIG,
    initial_ratios: Mapping[Node, Mapping[Edge, float]] | None = None,
    condensation_rounds: int = 6,
    name: str = "COYOTE-GP",
) -> SplittingSolution:
    """Iterative monomial-condensation GP solve (small instances).

    Args:
        network: capacitated topology.
        dags: per-destination DAGs.
        matrices: finite demand batch (normalized to unit optimum for
            performance-ratio semantics).
        config: iteration caps for the inner SLSQP solves.
        initial_ratios: starting point (defaults to uniform splits).
        condensation_rounds: outer re-condensation iterations.
        name: label for the resulting routing.
    """
    problem = SplittingProblem(network, dags, matrices)
    if initial_ratios is None:
        initial_ratios = {t: uniform_ratios(dag) for t, dag in dags.items()}
    current = _normalized(problem, problem.ratio_vector(initial_ratios))
    best_phi = current
    best_value = problem.peak_utilization(current)
    evaluations = 0

    if problem.size == 0:
        routing = Routing(dags, problem.ratios(current), name=name).renormalized()
        return SplittingSolution(routing, best_value, 0)

    n = problem.size
    floor = math.exp(_LOG_FLOOR)
    # Condensed normalization rows, one per group, over z = [x..., alpha]:
    # sum_v a_v x_v >= sum_v a_v log phi0_v with a_v = phi0_v (affine in
    # log space).
    for _round in range(condensation_rounds):
        x0 = np.where(current > floor, np.log(np.maximum(current, floor)), _LOG_FLOOR)
        coeffs = np.maximum(current, floor)
        norm_rows = np.zeros((problem.starts.size, n + 1))
        norm_rows[problem.group_of, np.arange(n)] = coeffs
        norm_rhs = np.add.reduceat(coeffs * np.log(coeffs), problem.starts)

        # Objective variables: z = [x..., alpha_tilde]; minimize alpha_tilde.
        def objective(z: np.ndarray):
            grad = np.zeros(n + 1)
            grad[-1] = 1.0
            return float(z[-1]), grad

        def load_constraints(z: np.ndarray):
            """alpha_tilde - log(load / c) >= 0 per objective edge and matrix."""
            nonlocal evaluations
            evaluations += 1
            phi = np.exp(z[:n])
            _phi_inst, tail_arrivals, loads = problem.propagate(phi)
            edges = problem.objective_edges(loads)
            if not edges.size:
                return np.array([1.0]), np.zeros((1, n + 1))
            load = loads[edges]
            capacity = problem.index.capacity[edges, np.newaxis]
            values = z[-1] - np.log(np.maximum(load, _LOAD_EPS) / capacity)
            jacobian = problem.load_jacobian(phi, tail_arrivals)[edges].transpose(0, 2, 1)
            loaded = load > _LOAD_EPS
            rows = np.zeros((*load.shape, n + 1))
            rows[..., :n] = np.where(
                loaded[..., np.newaxis],
                -jacobian / np.where(loaded, load, 1.0)[..., np.newaxis],
                0.0,
            )
            rows[..., -1] = 1.0
            return values.ravel(), rows.reshape(-1, n + 1)

        cache: dict[int, tuple[np.ndarray, np.ndarray]] = {}

        def cons_f(z: np.ndarray) -> np.ndarray:
            key = hash(z.tobytes())
            if key not in cache:
                cache.clear()
                cache[key] = load_constraints(z)
            return cache[key][0]

        def cons_j(z: np.ndarray) -> np.ndarray:
            key = hash(z.tobytes())
            if key not in cache:
                cache.clear()
                cache[key] = load_constraints(z)
            return cache[key][1]

        constraints = [
            {"type": "ineq", "fun": cons_f, "jac": cons_j},
            {
                "type": "ineq",
                "fun": lambda z, rows=norm_rows, rhs=norm_rhs: rows @ z - rhs,
                "jac": lambda z, rows=norm_rows: rows,
            },
        ]
        z0 = np.concatenate([x0, [math.log(max(best_value, 1e-6))]])
        bounds = [(_LOG_FLOOR, 0.0)] * n + [(None, None)]
        result = minimize(
            objective,
            z0,
            jac=True,
            method="SLSQP",
            bounds=bounds,
            constraints=constraints,
            options={"maxiter": config.max_inner_iterations, "ftol": 1e-9},
        )
        candidate = _normalized(problem, np.exp(np.asarray(result.x[:n])))
        value = problem.peak_utilization(candidate)
        if value < best_value - 1e-12:
            best_value, best_phi = value, candidate
            current = candidate
        else:
            break  # condensation converged

    routing = Routing(dags, problem.ratios(best_phi), name=name).renormalized()
    return SplittingSolution(routing, best_value, evaluations)
