"""Correctness tests for the flat splitting problem and its sweeps.

The optimizers live and die by these loads and gradients.  Loads are
checked by hand on the running example and against the pure-Python
:func:`repro.routing.propagation.propagate_to_destination` on random
backbones; every gradient (the adjoint sweep, the softmax objectives,
the GP Jacobian) is checked against central finite differences.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dag_builder import reverse_capacity_dags
from repro.core.softmax_opt import SplittingProblem
from repro.demands.bimodal import bimodal_matrix
from repro.demands.matrix import DemandMatrix
from repro.experiments.running_example import example_dag
from repro.graph.dag import Dag
from repro.routing.propagation import propagate_to_destination
from repro.routing.splitting import uniform_ratios
from repro.topologies.generators import ring_with_chords, tree_with_chords

EPSILON = 1e-6


@pytest.fixture
def problem(running_example, two_user_demands):
    return SplittingProblem(running_example, {"t": example_dag(running_example)}, two_user_demands)


def uniform_phi(problem):
    return problem.ratio_vector({t: uniform_ratios(dag) for t, dag in problem.dags.items()})


def with_ratio(problem, phi, edge, value, t="t"):
    changed = phi.copy()
    changed[problem.variables.index((t, edge))] = value
    return changed


def arrivals(problem, phi, node, t="t"):
    """Arrival vector (one entry per matrix) at ``node`` in ``t``'s DAG."""
    phi_inst = np.append(phi, 1.0)[problem.slot]
    state, _tail_arrivals = problem.sweep.forward(phi_inst, problem.inject)
    return state[problem.row_of[t] * problem.index.num_nodes + problem.index.node_id[node]]


def load(problem, loads, edge):
    return loads[problem.index.edge_id[edge]]


def central_difference(function, x, i, epsilon=EPSILON):
    plus, minus = x.copy(), x.copy()
    plus[i] += epsilon
    minus[i] -= epsilon
    return (function(plus) - function(minus)) / (2 * epsilon)


def assert_gradient_matches(function, gradient, x, rel=1e-5, abs_tol=1e-6):
    numeric = np.array([central_difference(function, x, i) for i in range(x.size)])
    assert np.allclose(gradient, numeric, rtol=rel, atol=abs_tol), (gradient, numeric)


class TestForward:
    def test_arrivals_match_hand_computation(self, problem):
        phi = uniform_phi(problem)
        _phi, _tails, loads = problem.propagate(phi)
        # Matrix 0: 2 units at s1 -> 1 to s2, 1 to v; s2 splits again.
        assert arrivals(problem, phi, "s2")[0] == pytest.approx(1.0)
        assert arrivals(problem, phi, "v")[0] == pytest.approx(1.5)
        assert arrivals(problem, phi, "t")[0] == pytest.approx(2.0)
        assert load(problem, loads, ("v", "t"))[0] == pytest.approx(1.5)

    def test_second_matrix_independent(self, problem):
        phi = uniform_phi(problem)
        # Matrix 1: 2 units at s2 only.
        assert arrivals(problem, phi, "s1")[1] == pytest.approx(0.0)
        assert arrivals(problem, phi, "t")[1] == pytest.approx(2.0)

    def test_zero_ratio_prunes_edge(self, problem):
        phi = with_ratio(problem, uniform_phi(problem), ("s2", "v"), 0.0)
        phi = with_ratio(problem, phi, ("s2", "t"), 1.0)
        _phi, _tails, loads = problem.propagate(phi)
        assert not load(problem, loads, ("s2", "v")).any()
        assert problem.index.edge_id[("s2", "v")] not in problem.objective_edges(loads)

    def test_total_loads_aggregates(self, running_example):
        """Loads sum every destination row's flows per network edge."""
        dags = {
            "t": example_dag(running_example),
            "v": Dag("v", [("s1", "v"), ("s2", "v"), ("t", "v")], running_example),
        }
        matrix = DemandMatrix({("s1", "t"): 2.0, ("s1", "v"): 1.0})
        problem = SplittingProblem(running_example, dags, [matrix])
        _phi, _tails, loads = problem.propagate(uniform_phi(problem))
        # Half of s1's 2 units toward t, plus all of its 1 unit toward v.
        assert load(problem, loads, ("s1", "v"))[0] == pytest.approx(2.0)
        assert load(problem, loads, ("v", "t"))[0] == pytest.approx(1.5)

    def test_max_utilization(self, problem):
        assert problem.peak_utilization(uniform_phi(problem)) == pytest.approx(1.5)


class TestBackward:
    def _functional(self, problem, psi):
        def value(phi_inst):
            _state, tails = problem.sweep.forward(phi_inst, problem.inject)
            return float((psi * tails * phi_inst[:, np.newaxis]).sum())

        return value

    def test_gradient_matches_finite_differences(self, problem):
        phi_inst = np.append(uniform_phi(problem), 1.0)[problem.slot]
        psi = np.random.default_rng(42).random((phi_inst.size, problem.batch))
        _state, tails = problem.sweep.forward(phi_inst, problem.inject)
        analytic = problem.sweep.adjoint(phi_inst, tails, psi)
        assert_gradient_matches(self._functional(problem, psi), analytic, phi_inst)

    def test_gradient_zero_when_no_flow(self, problem):
        """Instances whose tail receives no flow get an exact zero."""
        only_s2 = problem.with_matrices([DemandMatrix({("s2", "t"): 2.0})])
        phi_inst = np.append(uniform_phi(only_s2), 1.0)[only_s2.slot]
        psi = np.random.default_rng(7).random((phi_inst.size, only_s2.batch))
        _state, tails = only_s2.sweep.forward(phi_inst, only_s2.inject)
        grad = only_s2.sweep.adjoint(phi_inst, tails, psi)
        from_s1 = only_s2.index.tail[only_s2.sweep.edges] == only_s2.index.node_id["s1"]
        assert from_s1.sum() == 2
        assert (grad[from_s1] == 0.0).all()
        assert (grad[~from_s1] != 0.0).all()


class TestJacobian:
    def test_forward_mode_matches_finite_differences(self, problem):
        # GP semantics: unnormalized log-ratios, so perturb each freely.
        phi = np.array([0.7, 0.2, 0.4, 0.5])
        _phi, tails, _loads = problem.propagate(phi)
        jacobian = problem.load_jacobian(phi, tails)
        log_phi = np.log(phi)
        for k in range(problem.batch):
            for e in range(problem.index.num_edges):

                def entry(x, e=e, k=k):
                    return problem.propagate(np.exp(x))[2][e, k]

                assert_gradient_matches(entry, jacobian[e, :, k], log_phi)


class TestObjectives:
    @pytest.mark.parametrize("temperature", [8.0, 64.0])
    @pytest.mark.parametrize("regularization", [0.0, 0.05])
    def test_smoothed_gradient_matches_finite_differences(
        self, problem, temperature, regularization
    ):
        theta = np.random.default_rng(3).normal(size=problem.size)
        _value, gradient = problem.smoothed(theta, temperature, regularization)
        assert_gradient_matches(
            lambda x: problem.smoothed(x, temperature, regularization)[0], gradient, theta
        )

    def test_mean_utilization_gradient_matches_finite_differences(self, problem):
        theta = np.random.default_rng(4).normal(size=problem.size)
        _value, gradient = problem.mean_utilization(theta)
        assert_gradient_matches(lambda x: problem.mean_utilization(x)[0], gradient, theta)

    @pytest.mark.parametrize("regularization", [0.0, 0.05])
    def test_unloaded_finite_edges_left_out(self, problem, regularization):
        """Only finite edges loaded under some matrix enter the soft max.

        With demand at s2 only, s1's two DAG edges (and every reverse
        edge) are finite but unloaded in every matrix; the three loaded
        edges (s2,t), (s2,v), (v,t) all sit at utilization 1 under
        uniform splits.
        """
        only_s2 = problem.with_matrices([DemandMatrix({("s2", "t"): 2.0})])
        theta = np.zeros(only_s2.size)
        value, _gradient = only_s2.smoothed(theta, 8.0, regularization)
        assert value == pytest.approx(1.0 + math.log(3.0) / 8.0 + regularization, abs=1e-12)
        mean, _gradient = only_s2.mean_utilization(theta)
        assert mean == pytest.approx(1.0, abs=1e-12)

    def test_with_matrices_shares_structure(self, problem):
        other = problem.with_matrices([DemandMatrix({("s2", "t"): 2.0})])
        assert other.sweep is problem.sweep
        assert other.batch == 1 and problem.batch == 2
        other.smoothed(np.zeros(other.size), 8.0)
        assert other.evaluations == 1 and problem.evaluations == 0


@st.composite
def backbones(draw):
    """A small ring-with-chords or tree-with-chords backbone and its DAGs."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    size = draw(st.integers(min_value=4, max_value=7))
    if draw(st.booleans()):
        network = ring_with_chords("r", size, size + draw(st.integers(0, 4)), seed)
    else:
        network = tree_with_chords("b", size, draw(st.integers(0, 3)), seed)
    dags, _weights = reverse_capacity_dags(network)
    return network, dags, seed


class TestAgainstReference:
    @settings(max_examples=25, deadline=None)
    @given(backbones())
    def test_loads_match_pure_python_propagation(self, case):
        network, dags, seed = case
        matrices = [bimodal_matrix(network, seed=seed + k) for k in range(2)]
        problem = SplittingProblem(network, dags, matrices)
        theta = np.random.default_rng(seed).normal(size=problem.size)
        phi = problem.shares(theta)
        _phi, _tails, loads = problem.propagate(phi)
        ratios = problem.ratios(phi)
        expected = np.zeros_like(loads)
        for k, matrix in enumerate(matrices):
            for t, dag in dags.items():
                _arrivals, flows = propagate_to_destination(dag, ratios[t], matrix.demands_to(t))
                for edge, flow in flows.items():
                    expected[problem.index.edge_id[edge], k] += flow
        assert np.allclose(loads, expected, rtol=0.0, atol=1e-9)

    @settings(max_examples=25, deadline=None)
    @given(backbones())
    def test_gradients_match_central_differences(self, case):
        network, dags, seed = case
        matrices = [bimodal_matrix(network, seed=seed + k) for k in range(2)]
        problem = SplittingProblem(network, dags, matrices)
        theta = np.random.default_rng(seed).normal(size=problem.size)
        _value, gradient = problem.smoothed(theta, 8.0, 0.05)
        assert_gradient_matches(lambda x: problem.smoothed(x, 8.0, 0.05)[0], gradient, theta)
        _value, gradient = problem.mean_utilization(theta)
        assert_gradient_matches(lambda x: problem.mean_utilization(x)[0], gradient, theta)
