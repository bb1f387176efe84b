"""Publish guardrails: the checks a candidate must pass pre-swap."""

import time

import numpy as np
import pytest
from dataclasses import replace

from repro.errors import ConfigError
from repro.core.model import ArticleRanker
from repro.serve import (GuardrailPolicy, Snapshot, validate_candidate,
                         validate_shard_slice)

pytestmark = pytest.mark.serve


@pytest.fixture()
def ranked(tiny_dataset):
    result = ArticleRanker().rank(tiny_dataset)
    snapshot = Snapshot(ranking=result, epoch=0, batches_applied=0,
                        published_at=time.time())
    return tiny_dataset, result, snapshot


class TestPolicyValidation:
    def test_negative_mass_tolerance_rejected(self):
        with pytest.raises(ConfigError, match="mass_tolerance"):
            GuardrailPolicy(mass_tolerance=-0.1)

    def test_churn_top_k_must_be_positive(self):
        with pytest.raises(ConfigError, match="churn_top_k"):
            GuardrailPolicy(churn_top_k=0)

    def test_max_churn_range(self):
        with pytest.raises(ConfigError, match="max_churn"):
            GuardrailPolicy(max_churn=1.5)

    def test_negative_mass_floor_rejected(self):
        with pytest.raises(ConfigError, match="mass_floor"):
            GuardrailPolicy(mass_floor=-1e-9)


class TestChecks:
    def test_clean_candidate_passes(self, ranked):
        dataset, result, snapshot = ranked
        assert validate_candidate(GuardrailPolicy(), dataset, result,
                                  previous=snapshot) == []

    def test_bootstrap_without_previous_passes(self, ranked):
        dataset, result, _ = ranked
        assert validate_candidate(GuardrailPolicy(), dataset,
                                  result, previous=None) == []

    def test_nan_scores_vetoed(self, ranked):
        dataset, result, snapshot = ranked
        scores = result.scores.copy()
        scores[1] = np.nan
        bad = replace(result, scores=scores)
        violations = validate_candidate(GuardrailPolicy(), dataset, bad,
                                        previous=snapshot)
        assert len(violations) == 1
        assert "non-finite" in violations[0]

    def test_inf_scores_vetoed(self, ranked):
        dataset, result, _ = ranked
        scores = result.scores.copy()
        scores[0] = np.inf
        bad = replace(result, scores=scores)
        assert any("non-finite" in v for v in validate_candidate(
            GuardrailPolicy(), dataset, bad, previous=None))

    def test_coverage_mismatch_vetoed(self, ranked):
        dataset, result, snapshot = ranked
        trimmed = replace(result, node_ids=result.node_ids[:-1],
                          scores=result.scores[:-1])
        violations = validate_candidate(GuardrailPolicy(), dataset,
                                        trimmed, previous=snapshot)
        assert any("coverage" in v for v in violations)

    def test_wrong_ids_vetoed_even_with_right_count(self, ranked):
        dataset, result, snapshot = ranked
        swapped = replace(result,
                          node_ids=result.node_ids + 1000)
        violations = validate_candidate(GuardrailPolicy(), dataset,
                                        swapped, previous=snapshot)
        assert any("coverage" in v for v in violations)

    def test_score_mass_drift_vetoed(self, ranked):
        dataset, result, snapshot = ranked
        inflated = replace(result, scores=result.scores * 100.0)
        violations = validate_candidate(
            GuardrailPolicy(mass_tolerance=0.5), dataset, inflated,
            previous=snapshot)
        assert any("score mass" in v for v in violations)

    def test_mass_drift_within_tolerance_passes(self, ranked):
        dataset, result, snapshot = ranked
        nudged = replace(result, scores=result.scores * 1.01)
        assert validate_candidate(
            GuardrailPolicy(mass_tolerance=0.5), dataset, nudged,
            previous=snapshot) == []

    def test_top_k_churn_vetoed(self, ranked):
        dataset, result, snapshot = ranked
        # Invert the ranking: the old top-2 leave the new top-2.
        inverted = replace(result, scores=result.scores.max()
                           - result.scores)
        policy = GuardrailPolicy(mass_tolerance=10.0, churn_top_k=2,
                                 max_churn=0.0)
        violations = validate_candidate(policy, dataset, inverted,
                                        previous=snapshot)
        assert any("churn" in v for v in violations)

    def test_churn_disabled_at_max_churn_one(self, ranked):
        dataset, result, snapshot = ranked
        inverted = replace(result, scores=result.scores.max()
                           - result.scores)
        policy = GuardrailPolicy(mass_tolerance=10.0, churn_top_k=2,
                                 max_churn=1.0)
        assert validate_candidate(policy, dataset, inverted,
                                  previous=snapshot) == []


class TestMassDrift:
    """The total-mass drift check: relative bound + absolute floor."""

    def test_near_zero_mass_passes_via_absolute_floor(self):
        """A tiny graph's mass wobble is numerically irrelevant: the
        relative bound alone would veto (0 expected mass → 0 bound),
        the absolute floor lets it through."""
        prev = np.zeros(3)
        new = np.full(3, 1e-8)
        assert validate_shard_slice(
            GuardrailPolicy(), np.arange(3), np.arange(3), new,
            previous_scores=prev) == []

    def test_large_graph_relative_drift_vetoed(self):
        prev = np.full(1000, 1.0)
        new = np.full(1000, 1.6)  # +60% mass, tolerance is 50%
        violations = validate_shard_slice(
            GuardrailPolicy(), np.arange(1000), np.arange(1000), new,
            previous_scores=prev)
        assert any("score mass" in v for v in violations)

    def test_growth_scales_expected_mass(self):
        """Doubling the corpus with same-mass articles is growth, not
        drift — the expected mass scales with the size ratio."""
        prev = np.full(5, 0.2)
        new_ids = np.arange(10)
        new = np.full(10, 0.2)
        assert validate_shard_slice(
            GuardrailPolicy(mass_tolerance=0.01), new_ids, new_ids,
            new, previous_scores=prev) == []


class TestShardSlice:
    def test_clean_slice_passes(self):
        ids = np.array([0, 2, 4])
        assert validate_shard_slice(GuardrailPolicy(), ids, ids,
                                    np.array([0.1, 0.2, 0.3])) == []

    def test_nan_slice_vetoed_first(self):
        ids = np.array([0, 2])
        violations = validate_shard_slice(
            GuardrailPolicy(), ids, ids, np.array([0.1, np.nan]))
        assert len(violations) == 1
        assert "non-finite" in violations[0]

    def test_misaligned_slice_vetoed(self):
        violations = validate_shard_slice(
            GuardrailPolicy(), np.array([0, 2]), np.array([0, 2]),
            np.array([0.1]))
        assert any("misaligned" in v for v in violations)

    def test_coverage_against_owned_ids(self):
        violations = validate_shard_slice(
            GuardrailPolicy(), np.array([0, 2, 4]), np.array([0, 2]),
            np.array([0.1, 0.2]))
        assert any("coverage" in v for v in violations)
