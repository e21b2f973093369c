"""Tests for Minimum Set Cover algorithms (repro.covering.set_cover)."""

import math
import random

import pytest

from repro.active import probes as probes_module
from repro.active.probes import compute_probe_set
from repro.covering.set_cover import (
    SetCoverInstance,
    exact_set_cover,
    greedy_cover_bound,
    greedy_set_cover,
    lp_rounding_set_cover,
)
from repro.optim.errors import InfeasibleError, InternalSolverError
from repro.topology import paper_pop


@pytest.fixture()
def simple_instance():
    return SetCoverInstance.from_lists(
        {
            "a": [1, 2, 3],
            "b": [3, 4],
            "c": [4, 5],
            "d": [1, 2, 3, 4, 5],
        }
    )


class TestSetCoverInstance:
    def test_from_lists_infers_universe(self, simple_instance):
        assert simple_instance.universe == {1, 2, 3, 4, 5}
        assert simple_instance.is_coverable

    def test_default_unit_weights(self, simple_instance):
        assert all(w == 1.0 for w in simple_instance.weights.values())
        assert simple_instance.cover_cost(["a", "c"]) == 2.0

    def test_is_cover(self, simple_instance):
        assert simple_instance.is_cover(["d"])
        assert simple_instance.is_cover(["a", "c"])
        assert not simple_instance.is_cover(["a", "b"])

    def test_stray_elements_rejected(self):
        with pytest.raises(ValueError):
            SetCoverInstance(universe={1, 2}, subsets={"a": {1, 2, 3}})

    def test_missing_weights_rejected(self):
        with pytest.raises(ValueError):
            SetCoverInstance(universe={1}, subsets={"a": {1}, "b": {1}}, weights={"a": 1.0})

    def test_not_coverable(self):
        instance = SetCoverInstance(universe={1, 2, 3}, subsets={"a": {1}})
        assert not instance.is_coverable


class TestGreedySetCover:
    def test_single_dominating_set(self, simple_instance):
        assert greedy_set_cover(simple_instance) == ["d"]

    def test_result_is_a_cover(self, simple_instance):
        assert simple_instance.is_cover(greedy_set_cover(simple_instance))

    def test_uncoverable_raises(self):
        instance = SetCoverInstance(universe={1, 2}, subsets={"a": {1}})
        with pytest.raises(InfeasibleError):
            greedy_set_cover(instance)

    def test_weighted_greedy_prefers_cheap_ratio(self):
        instance = SetCoverInstance(
            universe={1, 2, 3, 4},
            subsets={"big": {1, 2, 3, 4}, "left": {1, 2}, "right": {3, 4}},
            weights={"big": 10.0, "left": 1.0, "right": 1.0},
        )
        result = greedy_set_cover(instance)
        assert set(result) == {"left", "right"}

    def test_greedy_within_theoretical_bound(self):
        # Classical bad instance for greedy: optimum is 2, greedy can pick log n sets.
        universe = set(range(1, 17))
        subsets = {
            "opt1": set(range(1, 9)),
            "opt2": set(range(9, 17)),
            "g8": {8, 16, 7, 15, 6, 14, 5, 13},
            "g4": {4, 12, 3, 11},
            "g2": {2, 10},
            "g1": {1, 9},
        }
        instance = SetCoverInstance(universe=universe, subsets=subsets)
        greedy = greedy_set_cover(instance)
        optimum = exact_set_cover(instance)
        assert len(optimum) == 2
        assert len(greedy) <= math.ceil(greedy_cover_bound(len(universe)) * len(optimum))


def full_scan_greedy(instance):
    """Reference greedy: rescan every remaining subset for each pick.

    Smallest ``weight / gain`` first, ratios within 1e-12 tied and broken
    towards the larger gain, then towards the subset listed first.
    """
    if not instance.is_coverable:
        raise InfeasibleError("the subsets do not cover the universe")
    uncovered = set(instance.universe)
    remaining = dict(instance.subsets)
    selection = []
    while uncovered:
        best_label = None
        best_ratio = float("inf")
        best_gain = 0
        for label, items in remaining.items():
            gain = len(items & uncovered)
            if gain == 0:
                continue
            ratio = instance.weights[label] / gain
            if ratio < best_ratio - 1e-12 or (
                abs(ratio - best_ratio) <= 1e-12 and gain > best_gain
            ):
                best_label, best_ratio, best_gain = label, ratio, gain
        if best_label is None:
            raise InternalSolverError("no subset with positive gain")
        selection.append(best_label)
        uncovered -= remaining.pop(best_label)
    return selection


def random_cover_instance(rng, weighted):
    universe = list(range(rng.randint(1, 40)))
    subsets = {
        f"s{k}": set(rng.sample(universe, rng.randint(0, len(universe))))
        for k in range(rng.randint(1, 30))
    }
    covered = set().union(*subsets.values())
    for element in universe:  # keep the instance coverable
        if element not in covered:
            subsets[rng.choice(list(subsets))].add(element)
    weights = {label: float(rng.randint(1, 4)) if weighted else 1.0 for label in subsets}
    return SetCoverInstance(universe=set(universe), subsets=subsets, weights=weights)


class TestLazyGreedyMatchesFullScan:
    """The lazy heap greedy picks exactly what a full rescan per pick picks."""

    @pytest.mark.parametrize("weighted", [False, True], ids=["unit", "integer-weights"])
    def test_random_instances(self, weighted):
        rng = random.Random(20051017 + weighted)
        for _ in range(300):
            instance = random_cover_instance(rng, weighted)
            assert greedy_set_cover(instance) == full_scan_greedy(instance)

    def test_ties_break_towards_gain_then_listing_order(self):
        instance = SetCoverInstance(
            universe=set(range(6)),
            subsets={"a": {0}, "b": {1, 2}, "c": {3, 4}, "d": {0, 5}},
            weights={"a": 1.0, "b": 2.0, "c": 2.0, "d": 2.0},
        )
        # Every ratio is 1: "b" wins on gain over "a", then "c" on listing
        # order over "d"; after those, "d" (gain 2) beats "a" (gain 1).
        assert greedy_set_cover(instance) == ["b", "c", "d"]
        assert full_scan_greedy(instance) == ["b", "c", "d"]

    def test_negative_weight_rejected(self):
        instance = SetCoverInstance(
            universe={1, 2}, subsets={"a": {1}, "b": {2}}, weights={"a": -1.0, "b": 1.0}
        )
        with pytest.raises(ValueError):
            greedy_set_cover(instance)

    @pytest.mark.parametrize("size", [10, 40, 80])
    def test_pop80_probe_sets(self, size, monkeypatch):
        pop = paper_pop("pop80", seed=0)
        candidates = random.Random(size).sample(pop.routers, size)
        lazy = compute_probe_set(pop, candidates)
        monkeypatch.setattr(probes_module, "greedy_set_cover", full_scan_greedy)
        reference = compute_probe_set(pop, candidates)
        assert lazy.probes == reference.probes
        assert lazy.covered_links == reference.covered_links


class TestExactSetCover:
    def test_matches_known_optimum(self, simple_instance):
        assert exact_set_cover(simple_instance) == ["d"]

    def test_never_worse_than_greedy(self):
        instance = SetCoverInstance.from_lists(
            {
                "s1": [1, 2, 3, 4],
                "s2": [1, 5, 6],
                "s3": [2, 5, 7],
                "s4": [3, 6, 7],
                "s5": [4, 8],
                "s6": [8],
            }
        )
        exact = exact_set_cover(instance)
        greedy = greedy_set_cover(instance)
        assert instance.is_cover(exact)
        assert len(exact) <= len(greedy)

    def test_weighted_exact(self):
        instance = SetCoverInstance(
            universe={1, 2},
            subsets={"both": {1, 2}, "one": {1}, "two": {2}},
            weights={"both": 5.0, "one": 1.0, "two": 1.0},
        )
        assert set(exact_set_cover(instance)) == {"one", "two"}

    def test_infeasible_raises(self):
        instance = SetCoverInstance(universe={1, 2}, subsets={"a": {1}})
        with pytest.raises(InfeasibleError):
            exact_set_cover(instance)

    def test_both_backends_agree(self, simple_instance):
        a = exact_set_cover(simple_instance, backend="scipy")
        b = exact_set_cover(simple_instance, backend="branch-and-bound")
        assert len(a) == len(b)


class TestLPRounding:
    def test_produces_feasible_cover(self, simple_instance):
        cover = lp_rounding_set_cover(simple_instance)
        assert simple_instance.is_cover(cover)

    def test_within_frequency_factor_of_optimum(self):
        instance = SetCoverInstance.from_lists(
            {"a": [1, 2], "b": [2, 3], "c": [3, 4], "d": [4, 1]}
        )
        cover = lp_rounding_set_cover(instance)
        optimum = exact_set_cover(instance)
        # Max element frequency is 2, so the rounding is a 2-approximation.
        assert len(cover) <= 2 * len(optimum)

    def test_infeasible_raises(self):
        instance = SetCoverInstance(universe={1, 2}, subsets={"a": {1}})
        with pytest.raises(InfeasibleError):
            lp_rounding_set_cover(instance)


class TestGreedyBound:
    def test_bound_monotone(self):
        assert greedy_cover_bound(10) <= greedy_cover_bound(100)
        assert greedy_cover_bound(0) == 1.0
        assert greedy_cover_bound(1) == pytest.approx(1.0)
