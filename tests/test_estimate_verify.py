"""Tests for cardinality estimation and the self-verification audit."""

import random

import pytest

from repro.baselines.bruteforce import count_paths
from repro.core.enumerator import CpeEnumerator
from repro.core.estimate import (
    derive_seed,
    estimate_path_count,
    exact_path_count,
    walk_count_bound,
)
from repro.core.verify import assert_verified, verify_enumerator
from repro.graph.digraph import DynamicDiGraph
from repro.graph.generators import layered_dag
from tests.conftest import make_random_graph, random_query


class TestWalkCountBound:
    def test_exact_on_dags(self):
        g, s, t = layered_dag([3, 3])
        assert walk_count_bound(g, s, t, 5) == 9
        assert exact_path_count(g, s, t, 5) == 9

    def test_upper_bounds_path_count(self):
        rng = random.Random(21)
        for _ in range(40):
            g = make_random_graph(rng, max_edges=18)
            s, t, k = random_query(rng, g)
            bound = walk_count_bound(g, s, t, k)
            true = count_paths(g, s, t, k)
            assert bound >= true

    def test_degenerate_inputs(self):
        g = DynamicDiGraph([(0, 1)])
        assert walk_count_bound(g, 0, 1, 0) == 0
        assert walk_count_bound(g, 1, 0, 3) == 0


class TestEstimatorContract:
    """All three estimators share ``CpeEnumerator``'s query contract:
    ``s == t`` and ``k < 0`` raise ValueError instead of returning 0,
    so the planner and the enumerator reject exactly the same queries.
    """

    ESTIMATORS = [
        walk_count_bound,
        exact_path_count,
        lambda g, s, t, k: estimate_path_count(g, s, t, k, samples=10),
    ]

    @pytest.mark.parametrize("fn", ESTIMATORS)
    def test_rejects_equal_endpoints(self, fn):
        g = DynamicDiGraph([(0, 1)])
        with pytest.raises(ValueError, match="s and t"):
            fn(g, 0, 0, 3)

    @pytest.mark.parametrize("fn", ESTIMATORS)
    def test_rejects_negative_k(self, fn):
        g = DynamicDiGraph([(0, 1)])
        with pytest.raises(ValueError, match="non-negative"):
            fn(g, 0, 1, -1)

    @pytest.mark.parametrize("fn", ESTIMATORS)
    def test_zero_hop_budget_is_zero(self, fn):
        g = DynamicDiGraph([(0, 1)])
        assert fn(g, 0, 1, 0) == 0

    @pytest.mark.parametrize("fn", ESTIMATORS)
    def test_single_hop_counts_direct_edge_only(self, fn):
        g = DynamicDiGraph([(0, 1), (0, 2), (2, 1)])
        assert fn(g, 0, 1, 1) == 1

    @pytest.mark.parametrize("fn", ESTIMATORS)
    def test_unreachable_target_is_zero(self, fn):
        g = DynamicDiGraph([(0, 1)], vertices=[5])
        assert fn(g, 0, 5, 4) == 0

    @pytest.mark.parametrize("fn", ESTIMATORS)
    def test_distance_beyond_budget_is_zero(self, fn):
        g = DynamicDiGraph([(0, 1), (1, 2), (2, 3)])
        assert fn(g, 0, 3, 2) == 0

    def test_rejects_non_positive_samples(self):
        g = DynamicDiGraph([(0, 1)])
        with pytest.raises(ValueError, match="samples"):
            estimate_path_count(g, 0, 1, 2, samples=0)

    def test_loose_on_cycles(self):
        g = DynamicDiGraph([(0, 1), (1, 0), (0, 2), (1, 2)])
        assert walk_count_bound(g, 0, 2, 4) > count_paths(g, 0, 2, 4)


class TestExactPathCount:
    def test_matches_bruteforce(self):
        rng = random.Random(22)
        for _ in range(40):
            g = make_random_graph(rng, max_edges=16)
            s, t, k = random_query(rng, g)
            assert exact_path_count(g, s, t, k) == count_paths(g, s, t, k)


class TestEstimator:
    def test_unbiased_mean_on_fixed_graph(self):
        g, s, t = layered_dag([2, 3, 2])
        true = exact_path_count(g, s, t, 6)
        est = estimate_path_count(g, s, t, 6, samples=4000, seed=1)
        assert est == pytest.approx(true, rel=0.15)

    def test_deterministic_for_seed(self):
        g, s, t = layered_dag([2, 2])
        a = estimate_path_count(g, s, t, 4, samples=100, seed=5)
        b = estimate_path_count(g, s, t, 4, samples=100, seed=5)
        assert a == b

    def test_deterministic_without_seed(self):
        # Regression: ``seed=None`` used to fall through to OS entropy,
        # making unseeded estimates unreproducible run to run.  The
        # default now derives a seed from the query triple itself.
        g, s, t = layered_dag([2, 3, 2])
        a = estimate_path_count(g, s, t, 6, samples=200)
        b = estimate_path_count(g, s, t, 6, samples=200)
        explicit = estimate_path_count(
            g, s, t, 6, samples=200, seed=derive_seed(s, t, 6)
        )
        assert a == b == explicit

    def test_derived_seed_is_stable_and_query_sensitive(self):
        assert derive_seed(0, 4, 4) == derive_seed(0, 4, 4)
        assert derive_seed(0, 4, 4) != derive_seed(0, 4, 5)
        assert derive_seed("a", "b", 3) == derive_seed("a", "b", 3)

    def test_zero_when_unreachable(self):
        g = DynamicDiGraph([(0, 1)], vertices=[5])
        assert estimate_path_count(g, 0, 5, 4, samples=50, seed=1) == 0.0

    def test_averaged_over_random_instances(self):
        # average relative bias over many instances should be small
        rng = random.Random(23)
        ratios = []
        for _ in range(20):
            g = make_random_graph(rng, n_lo=5, n_hi=7, max_edges=16)
            s, t, k = random_query(rng, g, k_hi=5)
            true = exact_path_count(g, s, t, k)
            if true == 0:
                continue
            est = estimate_path_count(g, s, t, k, samples=1500, seed=9)
            ratios.append(est / true)
        assert ratios, "want at least one non-trivial instance"
        mean_ratio = sum(ratios) / len(ratios)
        assert 0.7 < mean_ratio < 1.3


class TestVerify:
    def test_clean_enumerator_passes(self, diamond):
        cpe = CpeEnumerator(diamond, 0, 3, 3)
        cpe.insert_edge(1, 2)
        cpe.delete_edge(0, 1)
        assert verify_enumerator(cpe) == []
        assert_verified(cpe)  # must not raise

    def test_detects_missing_partial(self, diamond):
        cpe = CpeEnumerator(diamond, 0, 3, 3)
        victim = next(iter(cpe.index.left.paths()))
        cpe.index.remove_left(victim)
        findings = verify_enumerator(cpe)
        assert any("misses" in f for f in findings)

    def test_detects_stale_partial(self, diamond):
        cpe = CpeEnumerator(diamond, 0, 3, 3)
        cpe.index.add_left((0, 1, 2))  # not even an edge path of interest
        findings = verify_enumerator(cpe)
        assert findings

    def test_detects_malformed_path(self, diamond):
        cpe = CpeEnumerator(diamond, 0, 3, 3)
        path = (0, 2, 2)  # non-simple, misfiled
        cpe.index.left.add(2, path, cpe.index.bits.mask(path))
        findings = verify_enumerator(cpe)
        assert any("malformed" in f or "misfiled" in f for f in findings)

    def test_detects_broken_distance_map(self, diamond):
        cpe = CpeEnumerator(diamond, 0, 3, 3)
        cpe.dist_s.table()[cpe.graph.interner.id_of(1)] = 99  # corrupt
        findings = verify_enumerator(cpe)
        assert any("Dist_s" in f for f in findings)

    def test_detects_stale_mask(self, diamond):
        cpe = CpeEnumerator(diamond, 0, 3, 3)
        assert verify_enumerator(cpe) == []
        victim = next(iter(cpe.index.right.paths()))
        cpe.index.right.masks()[victim] = 0  # corrupt
        findings = verify_enumerator(cpe)
        assert any("stale mask" in f and str(victim) in f for f in findings)

    def test_assert_verified_raises_with_summary(self, diamond):
        cpe = CpeEnumerator(diamond, 0, 3, 3)
        victim = next(iter(cpe.index.right.paths()))
        cpe.index.remove_right(victim)
        with pytest.raises(AssertionError, match="audit failed"):
            assert_verified(cpe)

    def test_direct_edge_flag_checked(self, diamond):
        cpe = CpeEnumerator(diamond, 0, 3, 3)
        cpe.index.direct_edge = False  # graph still has (0, 3)
        findings = verify_enumerator(cpe)
        assert any("direct-edge" in f for f in findings)
