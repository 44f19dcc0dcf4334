"""Tests for the adversarial slave LP and the Theorem 5 certificate."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dag_builder import reverse_capacity_dags
from repro.demands.bimodal import bimodal_matrix
from repro.demands.gravity import gravity_matrix
from repro.demands.matrix import DemandMatrix
from repro.demands.uncertainty import margin_box, oblivious_pairs, oblivious_set
from repro.ecmp.routing import ecmp_routing
from repro.ecmp.weights import inverse_capacity_weights
from repro.lp import backend as lp_backend
from repro.lp.backend import base
from repro.lp.backend.highs_backend import HighsInstance
from repro.lp.certificate import best_certificate_for_edge, certified_oblivious_ratio
from repro.lp.worst_case import (
    WorstCaseOracle,
    evaluate_on_matrices,
    normalize_to_unit_optimum,
)
from repro.experiments.running_example import fig1b_routing, fig1c_routing, example_dag
from repro.graph.network import Network
from repro.routing.splitting import Routing
from repro.topologies.generators import ring_network, ring_with_chords, tree_with_chords
from repro.topologies.zoo import load_topology


@pytest.fixture
def example_setup(running_example):
    dag = example_dag(running_example)
    users = oblivious_pairs([("s1", "t"), ("s2", "t")])
    oracle = WorstCaseOracle(running_example, users, dags={"t": dag})
    return running_example, dag, oracle


class TestOracle:
    def test_fig1b_ratio_is_three_halves(self, example_setup):
        net, _dag, oracle = example_setup
        result = oracle.evaluate(fig1b_routing(net))
        assert result.ratio == pytest.approx(1.5, abs=1e-6)

    def test_fig1c_ratio_is_four_thirds(self, example_setup):
        net, _dag, oracle = example_setup
        result = oracle.evaluate(fig1c_routing(net))
        assert result.ratio == pytest.approx(4.0 / 3.0, abs=1e-6)

    def test_worst_demand_is_in_cone(self, example_setup):
        net, _dag, oracle = example_setup
        result = oracle.evaluate(fig1b_routing(net))
        assert result.demand is not None
        assert oracle.check_membership(result.demand)

    def test_worst_demand_attains_ratio(self, example_setup):
        # Re-routing the oracle's demand must reproduce its utilization
        # after normalizing to the within-DAG optimum.
        net, dag, oracle = example_setup
        routing = fig1b_routing(net)
        result = oracle.evaluate(routing)
        normalized = normalize_to_unit_optimum(net, result.demand, dags={"t": dag})
        mlu = routing.max_link_utilization(normalized, net)
        assert mlu == pytest.approx(result.ratio, rel=1e-6)

    def test_margin_one_matches_direct_computation(self, example_setup):
        net, dag, _ = example_setup
        base = DemandMatrix({("s1", "t"): 1.0, ("s2", "t"): 1.0})
        box = margin_box(base, 1.0)
        oracle = WorstCaseOracle(net, box, dags={"t": dag})
        routing = fig1b_routing(net)
        expected = evaluate_on_matrices(net, {"t": dag}, routing, [base])
        assert oracle.evaluate(routing).ratio == pytest.approx(expected, rel=1e-6)

    def test_margin_monotonicity(self, example_setup):
        # Wider margins can only worsen the worst case.
        net, dag, _ = example_setup
        base = DemandMatrix({("s1", "t"): 1.0, ("s2", "t"): 1.0})
        routing = fig1b_routing(net)
        ratios = []
        for margin in (1.0, 1.5, 2.0, 4.0):
            oracle = WorstCaseOracle(net, margin_box(base, margin), dags={"t": dag})
            ratios.append(oracle.evaluate(routing).ratio)
        assert all(a <= b + 1e-9 for a, b in zip(ratios, ratios[1:]))

    def test_oblivious_dominates_margins(self, example_setup):
        net, dag, oracle = example_setup
        base = DemandMatrix({("s1", "t"): 1.0, ("s2", "t"): 1.0})
        routing = fig1b_routing(net)
        oblivious_ratio = oracle.evaluate(routing).ratio
        boxed = WorstCaseOracle(net, margin_box(base, 3.0), dags={"t": dag})
        assert boxed.evaluate(routing).ratio <= oblivious_ratio + 1e-9

    def test_cuts_are_distinct(self, example_setup):
        net, _dag, oracle = example_setup
        result = oracle.evaluate(fig1b_routing(net), keep_cuts=4)
        for i, a in enumerate(result.cuts):
            for b in result.cuts[i + 1:]:
                assert not a.close_to(b, tolerance=1e-9)

    def test_network_witness_uses_global_optimum(self, running_example):
        # Within-DAG normalization can only make ratios larger or equal.
        dag = example_dag(running_example)
        users = oblivious_pairs([("s1", "t"), ("s2", "t")])
        routing = fig1b_routing(running_example)
        dag_oracle = WorstCaseOracle(running_example, users, dags={"t": dag})
        net_oracle = WorstCaseOracle(running_example, users, dags=None)
        assert (
            net_oracle.evaluate(routing).ratio
            <= dag_oracle.evaluate(routing).ratio + 1e-9
        )

    def test_evaluate_on_selected_edges(self, example_setup):
        net, _dag, oracle = example_setup
        result = oracle.evaluate(fig1b_routing(net), edges=[("v", "t")])
        assert set(result.per_edge) == {("v", "t")}


class TestNormalization:
    def test_normalize_to_unit_optimum(self, running_example):
        dag = example_dag(running_example)
        dm = DemandMatrix({("s1", "t"): 10.0})
        normalized = normalize_to_unit_optimum(running_example, dm, dags={"t": dag})
        from repro.lp.mcf import min_congestion

        assert min_congestion(
            running_example, normalized, dags={"t": dag}
        ).alpha == pytest.approx(1.0)


USER_PAIRS = [("s1", "t"), ("s2", "t")]


class TestCertificate:
    def test_certificate_matches_slave_lp(self, example_setup):
        """Strong duality: Theorem 5's best certificate equals the primal."""
        net, dag, oracle = example_setup
        for routing in (fig1b_routing(net), fig1c_routing(net)):
            primal = oracle.evaluate(routing).ratio
            dual = certified_oblivious_ratio(net, {"t": dag}, routing, USER_PAIRS)
            assert dual == pytest.approx(primal, rel=1e-6)

    def test_per_edge_certificate_bounds_edge_utilization(self, example_setup):
        net, dag, oracle = example_setup
        routing = fig1c_routing(net)
        result = oracle.evaluate(routing)
        cert = best_certificate_for_edge(
            net, {"t": dag}, routing, ("v", "t"), USER_PAIRS
        )
        assert cert.ratio == pytest.approx(result.per_edge[("v", "t")], rel=1e-6)

    def test_all_pairs_certificate_dominates(self, example_setup):
        """The fully oblivious certificate covers more demands, so it is
        at least as large as the two-user one."""
        net, dag, _ = example_setup
        routing = fig1b_routing(net)
        restricted = certified_oblivious_ratio(net, {"t": dag}, routing, USER_PAIRS)
        full = certified_oblivious_ratio(net, {"t": dag}, routing)
        assert full >= restricted - 1e-9

    def test_certificate_weights_nonnegative(self, example_setup):
        net, dag, _ = example_setup
        cert = best_certificate_for_edge(
            net, {"t": dag}, fig1b_routing(net), ("v", "t"), USER_PAIRS
        )
        assert all(w >= -1e-12 for w in cert.weights.values())


# -- the ranked sweep against the exhaustive one ----------------------------


def exhaustive(oracle, routing, keep_cuts=4, edges=None):
    """The reference sweep: screening off, every loaded edge cold-solved."""
    with mock.patch.object(HighsInstance, "screen", base.BackendInstance.screen):
        return oracle.evaluate(routing, edges=edges, keep_cuts=keep_cuts)


def counting(method):
    """Patch a HiGHS instance method with a call-counting passthrough."""
    original = getattr(HighsInstance, method)
    return mock.patch.object(HighsInstance, method, autospec=True, side_effect=original)


def assert_same_result(ranked, reference):
    assert ranked.ratio == reference.ratio
    assert ranked.edge == reference.edge
    assert ranked.demand == reference.demand
    assert ranked.cuts == reference.cuts
    assert ranked.per_edge.keys() == reference.per_edge.keys()
    for edge, value in reference.per_edge.items():
        assert ranked.per_edge[edge] == pytest.approx(value, rel=0.0, abs=1e-9)


def abilene_case():
    """An oracle at margin 2 around abilene's gravity matrix, and ECMP."""
    network = load_topology("abilene")
    oracle = WorstCaseOracle(network, margin_box(gravity_matrix(network), 2.0))
    return oracle, ecmp_routing(network, inverse_capacity_weights(network))


def random_routing(dags, seed):
    """Random splitting ratios on every DAG (distinct per-edge loads)."""
    rng = np.random.default_rng(seed)
    ratios = {}
    for t, dag in dags.items():
        ratios[t] = {}
        for node in dag.nodes():
            heads = dag.out_neighbors(node)
            if node == t or not heads:
                continue
            shares = rng.random(len(heads)) + 0.05
            for head, share in zip(heads, shares / shares.sum()):
                ratios[t][(node, head)] = float(share)
    return Routing(dags, ratios, name="random")


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


class TestRankedSweep:
    @pytest.fixture(autouse=True, scope="class")
    def isolated_solves(self):
        """Exactness is claimed for isolated solves; warm ones do not screen."""
        with pytest.MonkeyPatch.context() as patch:
            patch.delenv(lp_backend.WARM_ENV, raising=False)
            yield

    @settings(max_examples=12, deadline=None)
    @given(backbones())
    def test_matches_exhaustive_sweep(self, case):
        network, dags, seed = case
        base_demand = bimodal_matrix(network, seed=seed)
        sets = [margin_box(base_demand, m) for m in (1.0, 2.0, 3.0)]
        sets.append(oblivious_set(network.nodes()))
        routing = random_routing(dags, seed)
        for uncertainty in sets:
            for witness in (dags, None):
                oracle = WorstCaseOracle(network, uncertainty, dags=witness)
                for keep_cuts in (1, 4):
                    ranked = oracle.evaluate(routing, keep_cuts=keep_cuts)
                    assert_same_result(ranked, exhaustive(oracle, routing, keep_cuts))

    def test_symmetric_ring_ties_at_the_kth_value(self):
        # Every edge of a uniform ring has the same oblivious worst case,
        # so all of them sit at the k-th screened value and are solved.
        network = ring_network(6)
        routing = ecmp_routing(network, inverse_capacity_weights(network))
        oracle = WorstCaseOracle(network, oblivious_set(network.nodes()))
        with counting("solve") as solve, counting("screen") as screen:
            ranked = oracle.evaluate(routing, keep_cuts=1)
        values = list(ranked.per_edge.values())
        assert max(values) - min(values) < 1e-9
        assert screen.call_count == 1
        assert solve.call_count == len(ranked.per_edge)
        assert_same_result(ranked, exhaustive(oracle, routing, keep_cuts=1))

    def test_at_most_k_loaded_edges_skip_screening(self, example_setup):
        net, _dag, oracle = example_setup
        routing = fig1b_routing(net)
        edges = [("s1", "v"), ("s2", "v"), ("v", "t")]
        with counting("solve") as solve, counting("screen") as screen:
            ranked = oracle.evaluate(routing, edges=edges, keep_cuts=4)
        assert screen.call_count == 0
        assert solve.call_count == len(ranked.per_edge) <= 4
        assert_same_result(ranked, exhaustive(oracle, routing, edges=edges))

    @staticmethod
    def assert_screening_narrows(keep_cuts):
        oracle, routing = abilene_case()
        with counting("solve") as solve, counting("screen") as screen:
            ranked = oracle.evaluate(routing, keep_cuts=keep_cuts)
        assert screen.call_count == 1
        assert solve.call_count < len(ranked.per_edge)
        assert_same_result(ranked, exhaustive(oracle, routing, keep_cuts=keep_cuts))

    def test_screening_narrows_the_sweep(self):
        self.assert_screening_narrows(keep_cuts=4)

    def test_screening_narrows_the_sweep_at_keep_one(self):
        self.assert_screening_narrows(keep_cuts=1)

    def test_default_evaluation_cold_solves_fewer_edges(self):
        # Callers that read only the ratio or the worst demand pay for
        # one finding, not four; what they read is bitwise the same.
        oracle, routing = abilene_case()
        with counting("solve") as solve:
            default = oracle.evaluate(routing)
        default_solves = solve.call_count
        with counting("solve") as solve:
            four = oracle.evaluate(routing, keep_cuts=4)
        assert default_solves < solve.call_count
        assert default.ratio == four.ratio
        assert default.edge == four.edge
        assert default.demand == four.demand
        assert default.cuts == four.cuts[:1]

    def test_anchor_is_solved_once_per_oracle(self):
        oracle, routing = abilene_case()
        unit = {edge: 1.0 for edge in oracle.network.edges()}
        routings = [routing, ecmp_routing(oracle.network, unit)]
        original = HighsInstance._screen_solve
        with mock.patch.object(
            HighsInstance, "_screen_solve", autospec=True, side_effect=original
        ) as screen_solve:
            for routing in routings * 2:
                oracle.evaluate(routing)
        anchors = [c for c in screen_solve.call_args_list if c.args[2] is None]
        assert len(anchors) == 1

    def test_unbounded_anchor_falls_back_to_the_full_sweep(self, infinite_link_star):
        # The total-demand anchor is unbounded: no edge can be screened.
        network = infinite_link_star
        routing = ecmp_routing(network, {edge: 1.0 for edge in network.edges()})
        oracle = WorstCaseOracle(
            network, oblivious_pairs([("a", "t"), ("b", "t"), ("c", "t")])
        )
        with counting("solve") as solve, counting("screen") as screen:
            ranked = oracle.evaluate(routing)
        assert screen.call_count == 1
        assert solve.call_count == len(ranked.per_edge) > 1
        assert_same_result(ranked, exhaustive(oracle, routing, keep_cuts=1))

    def test_top_edge_without_demand_does_not_hide_a_finding(self):
        # A leaf behind a 1e-11 link: its edges reach utilization 1 with
        # demands below the 1e-10 extraction cutoff, i.e. no finding.  A
        # screen ranking them on top must not leave the finding slot empty.
        network = Network.from_undirected(
            [("a", "t", 1e-11), ("x", "t", 2.0), ("x", "y", 1.0), ("y", "t", 1.0)],
            name="leaf",
        )
        routing = ecmp_routing(network, {edge: 1.0 for edge in network.edges()})
        oracle = WorstCaseOracle(network, oblivious_set(network.nodes()))
        leaf = {var.index for pair, var in oracle._demand_vars.items() if "a" in pair}
        screen = WorstCaseOracle._screen
        boosted = []

        def leaf_on_top(self, objectives, keep):
            values = screen(self, objectives, keep)
            for i, objective in enumerate(objectives):
                if set(objective) <= leaf:
                    values[i] = 3.0
                    boosted.append(i)
            return values

        with mock.patch.object(WorstCaseOracle, "_screen", leaf_on_top):
            ranked = oracle.evaluate(routing, keep_cuts=1)
        reference = exhaustive(oracle, routing, keep_cuts=1)
        assert len(boosted) == 2
        assert reference.edge is not None and reference.edge[0] != "a"
        assert_same_result(ranked, reference)

    def test_screen_off_by_more_than_the_slack_falls_back(self):
        # A screen that ranks a light edge on top (as a misjudged, badly
        # scaled LP could) is caught by its exact value: the rest of the
        # edges are cold-solved and the result is the exhaustive one.
        network = load_topology("abilene")
        oracle = WorstCaseOracle(network, margin_box(gravity_matrix(network), 2.0))
        routing = ecmp_routing(network, inverse_capacity_weights(network))
        screen = WorstCaseOracle._screen
        boosted = []

        def light_edge_on_top(self, objectives, keep):
            values = screen(self, objectives, keep)
            lightest = min(
                (i for i, value in enumerate(values) if value > 0.0),
                key=values.__getitem__,
            )
            values[lightest] = max(values) + 1.0
            boosted.append(lightest)
            return values

        with mock.patch.object(
            WorstCaseOracle, "_screen", light_edge_on_top
        ), counting("solve") as solve:
            ranked = oracle.evaluate(routing, keep_cuts=1)
        reference = exhaustive(oracle, routing, keep_cuts=1)
        assert boosted and solve.call_count == len(reference.per_edge)
        assert_same_result(ranked, reference)
