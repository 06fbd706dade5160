"""Tests for the pairwise comparators, training and consolidation."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import comparators
from repro.core.comparators import (
    HeuristicComparator,
    PlanComparator,
    RandomComparator,
    RandomForestComparator,
    RankSVMComparator,
    build_pair_dataset,
    train_comparator,
)
from repro.core.consolidation import consolidate_session, downweight_initial_render
from repro.core.encoder import PlanVector, normalize_cardinalities
from repro.errors import OptimizationError


def make_vectors(cardinalities):
    """Plan vectors whose total cardinality is given (one vdt each)."""
    return [
        PlanVector(plan_id=i, counts={"vdt": 1.0}, cardinalities={"vdt": float(c)})
        for i, c in enumerate(cardinalities)
    ]


# --------------------------------------------------------------------------- #
# Pair dataset construction
# --------------------------------------------------------------------------- #


def test_build_pair_dataset_labels_and_gaps():
    vectors = make_vectors([10, 1000])
    dataset = build_pair_dataset(vectors, [0.1, 2.0], normalize=False)
    assert len(dataset) == 1
    assert dataset.labels[0] == 1  # first plan is faster
    assert dataset.latency_gaps[0] == pytest.approx(1.9)


def test_build_pair_dataset_requires_two_plans():
    with pytest.raises(OptimizationError):
        build_pair_dataset(make_vectors([1]), [0.1])
    with pytest.raises(OptimizationError):
        build_pair_dataset(make_vectors([1, 2]), [0.1])


# --------------------------------------------------------------------------- #
# Heuristic comparator rules
# --------------------------------------------------------------------------- #


def test_heuristic_prefers_smaller_cardinality():
    comparator = HeuristicComparator(alpha=1.5)
    small, large = make_vectors([10, 10_000])
    assert comparator.compare(small, large) == 1
    assert comparator.compare(large, small) == 0
    assert comparator.select_best([large, small]) == 1


def test_heuristic_tie_break_by_client_aggregates():
    comparator = HeuristicComparator()
    with_aggregate = PlanVector(
        plan_id=0, counts={"vdt": 1, "aggregate": 1}, cardinalities={"vdt": 100.0}
    )
    without_aggregate = PlanVector(
        plan_id=1, counts={"vdt": 1, "filter": 1}, cardinalities={"vdt": 100.0}
    )
    assert comparator.compare(with_aggregate, without_aggregate) == 1


def test_heuristic_tie_break_by_fewer_client_operators():
    comparator = HeuristicComparator()
    lean = PlanVector(plan_id=0, counts={"vdt": 1, "filter": 1}, cardinalities={"vdt": 10.0})
    busy = PlanVector(
        plan_id=1, counts={"vdt": 1, "filter": 3}, cardinalities={"vdt": 10.0}
    )
    assert comparator.compare(lean, busy) == 1


def test_heuristic_tie_break_by_offloading_and_stability():
    comparator = HeuristicComparator()
    more_vdts = PlanVector(plan_id=0, counts={"vdt": 2}, cardinalities={"vdt": 10.0})
    fewer_vdts = PlanVector(plan_id=1, counts={"vdt": 1}, cardinalities={"vdt": 10.0})
    assert comparator.compare(more_vdts, fewer_vdts) == 1
    identical = PlanVector(plan_id=2, counts={"vdt": 1}, cardinalities={"vdt": 10.0})
    assert comparator.compare(fewer_vdts, identical) == 1  # stable tie-break


def test_heuristic_invalid_alpha():
    with pytest.raises(OptimizationError):
        HeuristicComparator(alpha=0.5)


# --------------------------------------------------------------------------- #
# Random comparator
# --------------------------------------------------------------------------- #


def test_random_comparator_is_seeded_and_roughly_uniform():
    comparator = RandomComparator(seed=3)
    first, second = make_vectors([1, 2])
    outcomes = [comparator.compare(first, second) for _ in range(200)]
    assert 0.3 < np.mean(outcomes) < 0.7
    again = RandomComparator(seed=3)
    assert [again.compare(first, second) for _ in range(200)] == outcomes
    with pytest.raises(OptimizationError):
        comparator.select_best([])


# --------------------------------------------------------------------------- #
# Learned comparators
# --------------------------------------------------------------------------- #


def synthetic_training_set(n_plans: int = 12, seed: int = 0):
    """Plans whose latency grows with their total cardinality."""
    rng = np.random.default_rng(seed)
    cardinalities = rng.uniform(1, 10_000, size=n_plans)
    vectors = make_vectors(cardinalities)
    latencies = [0.001 * c + rng.normal(0, 0.05) for c in cardinalities]
    return vectors, latencies


def test_ranksvm_comparator_learns_cardinality_rule():
    from repro.core.encoder import normalize_cardinalities

    vectors, latencies = synthetic_training_set()
    dataset = build_pair_dataset(vectors, latencies)
    comparator = RankSVMComparator().fit(dataset)
    best = comparator.select_best(normalize_cardinalities(vectors))
    assert latencies[best] <= sorted(latencies)[2]  # among the fastest plans
    assert comparator.cost(vectors[best]) is not None
    assert comparator.feature_weights().shape[0] == len(vectors[0].to_array())


def test_random_forest_comparator_learns_and_votes():
    from repro.core.encoder import normalize_cardinalities

    vectors, latencies = synthetic_training_set()
    dataset = build_pair_dataset(vectors, latencies)
    comparator = RandomForestComparator().fit(dataset)
    normalized = normalize_cardinalities(vectors)
    best = comparator.select_best(normalized)
    assert latencies[best] <= sorted(latencies)[3]
    assert comparator.cost(normalized[0]) is None  # rank-only model
    ranking = comparator.rank(normalized)
    assert len(ranking) == len(vectors)
    assert ranking[0] == best


def test_train_comparator_reports_accuracy():
    vectors, latencies = synthetic_training_set(n_plans=16)
    dataset = build_pair_dataset(vectors, latencies)
    for kind in ("ranksvm", "random_forest", "heuristic", "random"):
        report = train_comparator(kind, dataset, seed=0)
        assert 0.0 <= report.test_accuracy <= 1.0
        assert report.n_pairs == len(dataset)
    svm = train_comparator("ranksvm", dataset, seed=0)
    rnd = train_comparator("random", dataset, seed=0)
    assert svm.test_accuracy > rnd.test_accuracy
    with pytest.raises(OptimizationError):
        train_comparator("neural", dataset)


# --------------------------------------------------------------------------- #
# Consolidation across interactions
# --------------------------------------------------------------------------- #


def test_consolidation_with_cost_model_sums_costs():
    vectors, latencies = synthetic_training_set(n_plans=6)
    dataset = build_pair_dataset(vectors, latencies)
    comparator = RankSVMComparator().fit(dataset)
    episodes = [vectors, vectors, vectors]
    decision = consolidate_session(comparator, episodes)
    assert decision.score_kind == "cost"
    assert decision.best_plan_index == comparator.select_best(vectors)
    assert len(decision.ranking()) == 6


def test_consolidation_with_wins_counts():
    comparator = HeuristicComparator()
    episode_one = make_vectors([10, 10_000, 500])
    episode_two = make_vectors([20, 9_000, 800])
    decision = consolidate_session(comparator, [episode_one, episode_two])
    assert decision.score_kind == "wins"
    assert decision.best_plan_index == 0


def test_consolidation_weights_shift_decision():
    comparator = HeuristicComparator()
    # Plan 0 wins episode 0 by a lot; plan 1 wins episode 1.
    episode_zero = make_vectors([10, 10_000])
    episode_one = make_vectors([10_000, 10])
    uniform = consolidate_session(comparator, [episode_zero, episode_one, episode_one])
    assert uniform.best_plan_index == 1
    weighted = consolidate_session(
        comparator, [episode_zero, episode_one, episode_one], episode_weights=[10.0, 1.0, 1.0]
    )
    assert weighted.best_plan_index == 0


def test_consolidation_validation_errors():
    comparator = HeuristicComparator()
    with pytest.raises(OptimizationError):
        consolidate_session(comparator, [])
    with pytest.raises(OptimizationError):
        consolidate_session(comparator, [[]])
    with pytest.raises(OptimizationError):
        consolidate_session(comparator, [make_vectors([1, 2]), make_vectors([1])])
    with pytest.raises(OptimizationError):
        consolidate_session(comparator, [make_vectors([1, 2])], episode_weights=[1.0, 2.0])


def test_downweight_initial_render_weights():
    weights = downweight_initial_render(4, factor=0.25)
    assert weights == [0.25, 1.0, 1.0, 1.0]
    with pytest.raises(OptimizationError):
        downweight_initial_render(0)


# --------------------------------------------------------------------------- #
# Round-robin win counts
# --------------------------------------------------------------------------- #


def loop_wins(comparator, vectors):
    """Reference round-robin: ``compare`` on every pair ``i < j``."""
    wins = np.zeros(len(vectors), dtype=np.float64)
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            if comparator.compare(vectors[i], vectors[j]) == 1:
                wins[i] += 1
            else:
                wins[j] += 1
    return wins


#: Cardinalities with exact ``alpha`` multiples (1.5 * 2 == 3, 2 * 2 == 4)
#: and zeros, so ties and boundaries come up often.
_cardinality = st.sampled_from([0.0, 1.0, 1.5, 2.0, 3.0, 4.0, 4.5, 6.0, 1e6])
_count = st.integers(0, 3).map(float)
_vector = st.fixed_dictionaries(
    {
        "counts": st.dictionaries(
            st.sampled_from(["vdt", "source", "filter", "aggregate", "joinaggregate", "collect"]),
            _count,
            max_size=4,
        ),
        "cardinalities": st.dictionaries(
            st.sampled_from(["vdt", "source", "filter", "aggregate"]), _cardinality, max_size=3
        ),
    }
)


def as_vectors(drawn):
    return [PlanVector(plan_id=i, **fields) for i, fields in enumerate(drawn)]


@settings(max_examples=150, deadline=None)
@given(
    drawn=st.lists(_vector, min_size=1, max_size=12),
    alpha=st.sampled_from([1.0, 1.5, 2.0]),
    epsilon=st.sampled_from([0.0, 1e-9]),
    block=st.integers(1, 5),
)
def test_heuristic_pairwise_wins_equals_loop(drawn, alpha, epsilon, block):
    comparator = HeuristicComparator(alpha=alpha, cardinality_epsilon=epsilon)
    vectors = as_vectors(drawn)
    with mock.patch.object(comparators, "_PAIRWISE_BLOCK", block):
        wins = comparator.pairwise_wins(vectors)
    assert wins.dtype == np.float64
    assert wins.tolist() == loop_wins(comparator, vectors).tolist()


def test_heuristic_pairwise_wins_alpha_boundary_is_a_tie():
    # 2 * 1.5 == 3 exactly: rule 1 does not fire either way, so rule 2
    # (more client aggregates) decides.
    comparator = HeuristicComparator(alpha=1.5, cardinality_epsilon=0.0)
    first = PlanVector(plan_id=0, cardinalities={"vdt": 2.0})
    second = PlanVector(plan_id=1, counts={"aggregate": 1.0}, cardinalities={"vdt": 3.0})
    assert comparator.compare(first, second) == 0
    assert comparator.pairwise_wins([first, second]).tolist() == [0.0, 1.0]


@pytest.mark.parametrize("n", [1, 2, 63, 64, 65, 130])
def test_heuristic_pairwise_wins_around_block_size(n):
    comparator = HeuristicComparator()
    assert comparators._PAIRWISE_BLOCK == 64
    rng = np.random.default_rng(n)
    vectors = [
        PlanVector(
            plan_id=i,
            counts={"vdt": float(rng.integers(0, 3)), "aggregate": float(rng.integers(0, 2))},
            cardinalities={"vdt": float(rng.choice([0.0, 10.0, 15.0, 1000.0]))},
        )
        for i in range(n)
    ]
    wins = comparator.pairwise_wins(vectors)
    assert wins.tolist() == loop_wins(comparator, vectors).tolist()
    assert wins.sum() == n * (n - 1) / 2


def test_heuristic_pairwise_wins_all_zero_cardinalities_prefer_first():
    comparator = HeuristicComparator()
    vectors = [PlanVector(plan_id=i) for i in range(4)]
    assert comparator.pairwise_wins(vectors).tolist() == [3.0, 2.0, 1.0, 0.0]
    assert comparator.select_best(vectors) == 0


def test_default_pairwise_wins_is_the_loop():
    comparator = RandomComparator(seed=5)
    vectors = make_vectors([1, 2, 3, 4, 5])
    wins = PlanComparator.pairwise_wins(comparator, vectors)
    assert wins.tolist() == loop_wins(RandomComparator(seed=5), vectors).tolist()


def test_non_heuristic_decisions_unchanged():
    # Frozen from the per-pair loop that select_best, rank and
    # IncrementalConsolidator used before pairwise_wins existed.
    episodes = [make_vectors([5, 50, 500, 5000, 50, 5]), make_vectors([7, 70, 700, 7000, 70, 7])]
    decision = consolidate_session(RandomComparator(seed=11), episodes, episode_weights=[1.0, 2.0])
    assert decision.per_plan_score == [10.0, 9.0, 6.0, 8.0, 8.0, 4.0]
    assert decision.best_plan_index == 0
    assert RandomComparator(seed=11).rank(episodes[0]) == [4, 1, 2, 0, 3, 5]

    vectors, latencies = synthetic_training_set()
    forest = RandomForestComparator().fit(build_pair_dataset(vectors, latencies))
    candidates = normalize_cardinalities(synthetic_training_set(n_plans=10, seed=4)[0])
    assert forest.select_best(candidates) == 3
    assert forest.rank(candidates) == [3, 7, 5, 1, 9, 4, 6, 8, 0, 2]
    decision = consolidate_session(forest, [candidates, candidates[::-1]])
    assert decision.per_plan_score == [6.0, 8.0, 8.0, 12.0, 11.0, 11.0, 12.0, 8.0, 8.0, 6.0]
    assert decision.best_plan_index == 3
