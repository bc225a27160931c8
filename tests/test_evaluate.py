from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruleloc.core import Rule, RuleSet, f1_score
from ruleloc.evaluate import cohen_kappa, top_k_accuracy
from ruleloc.select import SelectionConfig, select_rule_set

from conftest import random_dataset
from oracle import (
    BudgetExceededError,
    brute_force_best_ruleset,
    planted_dataset,
    planted_fault_scenario,
)


def stratified_fold_assignments(
    fault_types: Sequence[str], n_folds: int = 5, seed: int = 0
) -> list[int]:
    """Seeded fold ids (0..n_folds-1), stratified by fault type."""
    if n_folds < 2:
        raise ValueError("need at least 2 folds")
    rng = np.random.default_rng(seed)
    folds = [0] * len(fault_types)
    by_type: dict[str, list[int]] = {}
    for i, ft in enumerate(fault_types):
        by_type.setdefault(ft, []).append(i)
    for ft in sorted(by_type):
        members = by_type[ft]
        order = rng.permutation(len(members))
        for pos, idx in enumerate(order):
            folds[members[idx]] = pos % n_folds
    return folds


def test_top_k_all_first():
    rankings = [["a", "b"], ["a", "c"]]
    assert top_k_accuracy(rankings, ["a", "a"], 3) == [1.0, 1.0, 1.0]


def test_top_k_hand_enumeration():
    rankings = [
        ["t", "x", "y", "z"],
        ["x", "t", "y", "z"],
        ["x", "y", "z", "t"],
    ]
    truths = ["t", "t", "t"]
    assert top_k_accuracy(rankings, truths, 4) == pytest.approx(
        [1 / 3, 2 / 3, 2 / 3, 1.0]
    )


def test_top_k_rejects_empty():
    with pytest.raises(ValueError):
        top_k_accuracy([], [], 3)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_top_k_monotone_in_k(seed):
    rng = np.random.default_rng(seed)
    candidates = [f"c{i}" for i in range(6)]
    rankings = []
    truths = []
    for _ in range(10):
        order = list(rng.permutation(candidates))
        rankings.append(order)
        truths.append(candidates[int(rng.integers(0, 6))])
    acc = top_k_accuracy(rankings, truths, 6)
    assert all(a <= b + 1e-15 for a, b in zip(acc, acc[1:]))
    assert acc[5] == 1.0


def test_kappa_perfect_agreement():
    assert cohen_kappa(["a", "b", "a", "b"], ["a", "b", "a", "b"]) == 1.0


def test_kappa_2x2_confusion_matches_formula_oracle():
    # confusion [[40, 10], [20, 30]]: 40 a/a, 10 a predicted as b, etc.
    predictions = ["a"] * 40 + ["b"] * 10 + ["a"] * 20 + ["b"] * 30
    truths = ["a"] * 50 + ["b"] * 50
    n = 100
    p_o = (40 + 30) / n
    p_e = (60 / n) * (50 / n) + (40 / n) * (50 / n)
    expected = (p_o - p_e) / (1 - p_e)
    assert cohen_kappa(predictions, truths) == pytest.approx(expected, abs=1e-12)


def test_kappa_chance_level_near_zero():
    rng = np.random.default_rng(0)
    n = 20000
    predictions = ["a" if x < 0.5 else "b" for x in rng.random(n)]
    truths = ["a" if x < 0.5 else "b" for x in rng.random(n)]
    assert abs(cohen_kappa(predictions, truths)) < 0.03


def test_kappa_symmetry():
    rng = np.random.default_rng(1)
    labels = [str(int(x)) for x in rng.integers(0, 3, size=60)]
    other = [str(int(x)) for x in rng.integers(0, 3, size=60)]
    assert cohen_kappa(labels, other) == pytest.approx(
        cohen_kappa(other, labels), abs=1e-12
    )


def test_kappa_degenerate_constant_labels():
    # chance agreement 1 only happens with the same constant label on both
    # sides, which forces perfect observed agreement
    assert cohen_kappa(["a", "a"], ["a", "a"]) == 1.0
    assert cohen_kappa(["a", "a"], ["a", "b"]) == 0.0


def test_brute_force_budget_guard():
    rng = np.random.default_rng(2)
    ds = random_dataset(rng, 40, 13)
    with pytest.raises(BudgetExceededError) as err:
        brute_force_best_ruleset(ds, 2, 3)
    assert "d" in str(err.value)


def test_brute_force_toy_optimum(toy_dataset):
    best_set, best_f1 = brute_force_best_ruleset(toy_dataset, 2, 1)
    assert sorted(r.features for r in best_set.rules) == [(0,), (1,)]
    assert best_f1 == pytest.approx(40 / 42, abs=1e-15)


def test_brute_force_perfect_separator():
    from ruleloc.core import BinaryDataset, bitset_of

    labels = bitset_of(range(4))
    ds = BinaryDataset(30, (labels, bitset_of(range(2, 9))), labels)
    best_set, best_f1 = brute_force_best_ruleset(ds, 2, 2)
    assert best_f1 == 1.0
    assert [r.features for r in best_set.rules] == [(0,)]


def test_brute_force_dominates_learner():
    rng = np.random.default_rng(3)
    for _ in range(10):
        ds = random_dataset(rng, 100, 9)
        rs = select_rule_set(ds, SelectionConfig(max_rules=2, gamma=1.0, max_len=3))
        _, best = brute_force_best_ruleset(ds, 2, 3)
        assert f1_score(ds, rs) <= best + 1e-12


def test_planted_noise_free_dnf_is_perfect():
    ds, dnf = planted_dataset(seed=0, n=500, d=12, imbalance_ratio=9, noise=0.0)
    assert f1_score(ds, RuleSet(dnf)) == 1.0


def test_planted_positive_count_tracks_ratio():
    ds, _ = planted_dataset(seed=1, n=10000, d=20, imbalance_ratio=50, noise=0.0)
    assert abs(ds.positives - 10000 / 51) <= 1.0


def _content(ds):
    """What a dataset holds; datasets themselves compare by identity."""
    return ds.n, tuple(ds.coverage), ds.labels


def test_planted_determinism():
    a = planted_dataset(seed=7, n=300, d=10, imbalance_ratio=10, noise=0.1)
    b = planted_dataset(seed=7, n=300, d=10, imbalance_ratio=10, noise=0.1)
    assert _content(a[0]) == _content(b[0])
    assert a[1] == b[1]
    c = planted_dataset(seed=8, n=300, d=10, imbalance_ratio=10, noise=0.1)
    assert _content(c[0]) != _content(a[0])


def test_planted_noise_hits_only_positives():
    # identical seed, so the feature matrix and permutation coincide and
    # the label sets are directly comparable
    clean, _ = planted_dataset(seed=9, n=400, d=10, imbalance_ratio=7, noise=0.0)
    noisy, _ = planted_dataset(seed=9, n=400, d=10, imbalance_ratio=7, noise=0.3)
    assert tuple(clean.coverage) == tuple(noisy.coverage)
    assert noisy.labels & ~clean.labels == 0
    assert noisy.positives < clean.positives


def test_planted_infeasible_ratio():
    with pytest.raises(ValueError):
        planted_dataset(seed=0, n=10, d=8, imbalance_ratio=100, noise=0.0)


def test_stratified_folds_balanced():
    types = ["a"] * 10 + ["b"] * 5 + ["c"] * 7
    folds = stratified_fold_assignments(types, n_folds=5, seed=3)
    assert len(folds) == len(types)
    for name in "abc":
        members = [f for f, t in zip(folds, types) if t == name]
        counts = [members.count(k) for k in range(5)]
        assert max(counts) - min(counts) <= 1
    assert folds == stratified_fold_assignments(types, n_folds=5, seed=3)


def test_evaluate_cases_counts_no_signal_as_distinct_label():
    from ruleloc.binarize import CATEGORICAL, FeatureSpec, fit
    from ruleloc.core import RuleStats
    from ruleloc.evaluate import IncidentCase, evaluate_cases
    from ruleloc.localize import FaultModel, QueryWindow

    catalog = fit({"c": ["x", "y", "z"]}, [FeatureSpec("c", CATEGORICAL)])
    model = FaultModel(
        (("cpu", RuleSet((Rule.of(0),), (RuleStats(0.9, 0.5, 10),))),
         ("net", RuleSet((Rule.of(1),), (RuleStats(0.8, 0.5, 10),)))),
        catalog,
    )
    hit = QueryWindow(np.array([[True, False, False]]), ("svc-a",))
    quiet = QueryWindow(np.array([[False, False, True]]), ("svc-a",))
    cases = [
        IncidentCase(hit, "cpu", "svc-a"),
        IncidentCase(quiet, "net", "svc-a"),
    ]
    rpt = evaluate_cases(model, cases, max_k=2)
    assert rpt.fault_top_k[0] == 0.5
    # the quiet window predicted the no-signal label, not a fault type
    assert rpt.per_fault_type["net"]["recall"] == 0.0
    assert -1.0 <= rpt.kappa <= 1.0
    assert "A@1" in rpt.to_table()
    assert rpt.to_json_obj()["n_cases"] == 2


def test_scenario_tables_have_expected_shape():
    scenario = planted_fault_scenario(
        seed=0, n=600, d=12, n_fault_types=2, n_windows=4, n_services=3
    )
    assert set(scenario.train_table) == set(scenario.heldout_table)
    assert "fault_type" in scenario.train_table
    counts = {
        t: scenario.train_table["fault_type"].count(t) for t in scenario.fault_types
    }
    assert all(c > 0 for c in counts.values())
    for table, fault, service in scenario.windows:
        assert fault in scenario.fault_types
        assert service in scenario.services
        assert set(scenario.feature_names) <= set(table)
