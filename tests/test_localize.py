import json
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruleloc.core import Rule, RuleSet, RuleStats, bitset_of
from ruleloc.localize import (
    Explanation,
    FaultModel,
    QueryWindow,
    RankedResult,
    UnknownFaultTypeError,
    _ranked,
    localization_report,
    rank_window,
)


def sample_vote(model: FaultModel, fault_type: str, sample_mask: int) -> float:
    """Vote of one sample for one fault type.

    The highest training precision among the type's rules covering the
    sample, or 0 when no rule covers it.
    """
    rule_set = model.rule_set(fault_type)
    best = 0.0
    for rule, stats in zip(rule_set.rules, rule_set.stats or ()):
        mask = bitset_of(rule.features)
        if mask & sample_mask == mask and stats.precision > best:
            best = stats.precision
    return best


def annotated(rules_with_precision):
    rules = tuple(Rule(feats) for feats, _ in rules_with_precision)
    stats = tuple(RuleStats(p, 0.5, 10) for _, p in rules_with_precision)
    return RuleSet(rules, stats)


@pytest.fixture
def model():
    return FaultModel(
        (
            ("cpu", annotated([((0, 1), 0.9), ((2,), 0.7)])),
            ("disk", annotated([((3,), 0.8)])),
            ("net", annotated([((4, 5), 1.0)])),
        )
    )


def mask(*features):
    out = 0
    for j in features:
        out |= 1 << j
    return out


def window_of(samples, services, width=10) -> QueryWindow:
    """The window of int sample masks: bit j of samples[i] is matrix[i, j]."""
    bits = [[sample >> j & 1 for j in range(width)] for sample in samples]
    return QueryWindow(np.array(bits, dtype=bool).reshape(-1, width), tuple(services))


def test_sample_vote_no_rule_hits(model):
    assert sample_vote(model, "cpu", mask(3, 4)) == 0.0


def test_sample_vote_picks_max_precision(model):
    # both cpu rules cover: features {0,1} and {2} all present
    assert sample_vote(model, "cpu", mask(0, 1, 2)) == 0.9
    assert sample_vote(model, "cpu", mask(2)) == 0.7


def test_sample_vote_unknown_type(model):
    with pytest.raises(UnknownFaultTypeError):
        sample_vote(model, "quantum", mask(0))


def test_rank_fault_types_votes_add_up(model):
    # 3 samples hit cpu rule (2,) at 0.7; 2 samples hit disk (3,) at 0.8
    samples = (mask(2), mask(2), mask(2, 3), mask(3), mask(9))
    window = window_of(samples, ("s1",) * 5)
    result, _ = rank_window(model, window)
    scores = dict(result.ranking)
    assert scores["cpu"] == pytest.approx(0.7 * 3)
    assert scores["disk"] == pytest.approx(0.8 * 2)
    assert scores["net"] == 0.0
    assert result.candidates()[0] == "cpu"
    assert not result.no_signal


def test_rank_fault_types_single_type_fires(model):
    window = window_of((mask(3), mask(3)), ("a", "b"))
    result, _ = rank_window(model, window)
    assert result.candidates()[0] == "disk"
    assert dict(result.ranking)["cpu"] == 0.0


def test_no_signal_window_is_flagged_and_lexicographic(model):
    window = window_of((mask(9), mask(8)), ("a", "b"))
    result, _ = rank_window(model, window)
    assert result.no_signal
    assert result.candidates() == ["cpu", "disk", "net"]


def test_rank_services_planted_service_wins(model):
    samples = (mask(0, 1), mask(0, 1), mask(9), mask(9))
    services = ("svc-a", "svc-a", "svc-b", "svc-b")
    _, result = rank_window(model, window_of(samples, services))
    assert result.candidates()[0] == "svc-a"
    assert dict(result.ranking)["svc-b"] == 0.0


def test_rank_services_tie_flagged(model):
    samples = (mask(3), mask(3))
    services = ("beta", "alpha")
    _, result = rank_window(model, window_of(samples, services))
    assert result.candidates() == ["alpha", "beta"]
    assert ("alpha", "beta") in result.tie_groups


def test_scores_equal_sample_vote_sum(model):
    rng = np.random.default_rng(0)
    samples = tuple(int(rng.integers(0, 1 << 6)) for _ in range(40))
    services = tuple(f"s{int(rng.integers(0, 4))}" for _ in range(40))
    window = window_of(samples, services)
    faults, by_service = rank_window(model, window)
    for fault_type, score in faults.ranking:
        assert score == pytest.approx(
            sum(sample_vote(model, fault_type, s) for s in samples), abs=1e-12
        )
    for service, score in by_service.ranking:
        expected = sum(
            sample_vote(model, ft, s)
            for ft in model.fault_types()
            for s, svc in zip(samples, services)
            if svc == service
        )
        assert score == pytest.approx(expected, abs=1e-12)


def test_adding_hit_sample_never_decreases_score(model):
    samples = (mask(2),)
    window = window_of(samples, ("a",))
    before = dict(rank_window(model, window)[0].ranking)["cpu"]
    bigger = window_of(samples + (mask(2),), ("a", "a"))
    after = dict(rank_window(model, bigger)[0].ranking)["cpu"]
    assert after >= before


def test_precision_scaling_keeps_order(model):
    rng = np.random.default_rng(1)
    samples = tuple(int(rng.integers(0, 1 << 6)) for _ in range(30))
    window = window_of(samples, ("a",) * 30)
    order_before = rank_window(model, window)[0].candidates()
    scaled = FaultModel(
        tuple(
            (
                name,
                RuleSet(
                    rs.rules,
                    tuple(
                        RuleStats(s.precision * 0.5, s.recall, s.covered)
                        for s in rs.stats
                    ),
                ),
            )
            for name, rs in model.rule_sets
        )
    )
    assert rank_window(scaled, window)[0].candidates() == order_before


def test_explanations_only_list_covering_rules(model):
    window = window_of((mask(2), mask(3)), ("a", "a"))
    faults, _ = rank_window(model, window)
    assert [e.rule_index for e in faults.explanations["cpu"]] == [1]
    assert [e.hits for e in faults.explanations["cpu"]] == [1]
    assert faults.explanations["net"] == ()


def test_report_shape(model):
    window = window_of((mask(2),), ("a",))
    report = localization_report(model, window)
    assert report["schema_version"] == 1
    assert not report["no_signal"]
    assert report["fault_ranking"][0]["fault_type"] == "cpu"
    assert json.dumps(report)  # serializable


def test_model_json_roundtrip(model):
    restored = FaultModel.from_json(model.to_json())
    assert restored.rule_sets == model.rule_sets
    assert restored.binarization is None


def test_window_requires_alignment():
    with pytest.raises(ValueError):
        window_of((1, 2), ("only-one",))
    with pytest.raises(ValueError):
        window_of((), ())
    with pytest.raises(ValueError):
        QueryWindow(np.zeros(2, dtype=bool), ("a", "b"))


def test_model_json_knobs_come_from_first_entry(model):
    obj = json.loads(model.to_json())
    obj["fault_types"][0].update(K=2, l=3, gamma=0.5)
    with pytest.raises(ValueError, match="disagree|first fault type"):
        FaultModel.from_json_obj(obj)
    for entry in obj["fault_types"]:
        entry.update(K=2, l=3, gamma=0.5)
    restored = FaultModel.from_json_obj(obj)
    assert (restored.max_rules, restored.max_len, restored.gamma) == (2, 3, 0.5)


def test_model_with_disagreeing_knobs_is_schema_error(model, tmp_path, capsys):
    from ruleloc.cli import main

    obj = json.loads(model.to_json())
    obj["fault_types"][1]["K"] = 9
    path = tmp_path / "model.json"
    path.write_text(json.dumps(obj))
    assert main(["export-fingerprints", "--model", str(path)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("schema-error:") and "'disk'" in err


def _small_fitted_model() -> FaultModel:
    from ruleloc.binarize import FeatureSpec, fit

    table = {"a": [0.0, 1.0, 2.0, 3.0], "s": ["x", "y", "x", "y"]}
    binarization = fit(table, [FeatureSpec("a", bins=3), FeatureSpec("s", kind="categorical")])
    return FaultModel(
        (("cpu", annotated([((0, 5), 0.9), ((3,), 0.5)])), ("disk", annotated([((4,), 1)]))),
        binarization,
    )


def _key_paths(value, path=()):
    """The key path of every value inside a JSON value, itself first."""
    yield path
    if isinstance(value, (dict, list)):
        for key, inner in value.items() if isinstance(value, dict) else enumerate(value):
            yield from _key_paths(inner, (*path, key))


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.just(10**400)
    | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)


@settings(max_examples=400, deadline=None)
@given(data=st.data(), value=json_values, drop=st.booleans())
def test_model_of_any_json_shape_loads_or_raises_value_error(data, value, drop):
    """Replace or drop any one value of a model's JSON: loading either works or
    raises a ValueError (which the CLI reports as a schema error), never a
    TypeError, KeyError, AttributeError or OverflowError."""
    obj = _small_fitted_model().to_json_obj()
    *path, key = data.draw(st.sampled_from(list(_key_paths(obj))[1:]))
    parent = obj
    for step in path:
        parent = parent[step]
    if drop and isinstance(parent, dict):
        del parent[key]
    else:
        parent[key] = value
    try:
        FaultModel.from_json_obj(json.loads(json.dumps(obj)))
    except ValueError:
        pass


def test_model_rejects_duplicate_fault_types(model):
    with pytest.raises(ValueError, match="duplicate fault type 'cpu'"):
        FaultModel(model.rule_sets + (model.rule_sets[0],))


# -- equivalence oracle: the two ranking passes that rank_window replaced ----
# Kept verbatim as they stood before the merge (with their mask helper), so
# that the one-pass scorer is checked against them float for float.


def _rule_mask(rule: Rule) -> int:
    mask = 0
    for j in rule.features:
        mask |= 1 << j
    return mask


def rank_fault_types(model: FaultModel, window: QueryWindow) -> RankedResult:
    """Rank fault types by the sum of per-sample votes over the window.

    The full ranking is returned (descending score, ties by name) so that
    top-k evaluation is possible; a window where no rule fires anywhere is
    flagged no_signal and ranked lexicographically.
    """
    scores: dict[str, float] = {}
    explanations: dict[str, tuple[Explanation, ...]] = {}
    for fault_type, rule_set in model.rule_sets:
        total = 0.0
        hits = [0] * len(rule_set.rules)
        masks = [_rule_mask(rule) for rule in rule_set.rules]
        for sample in window.samples:
            best = 0.0
            best_rule = -1
            for idx, (mask, stats) in enumerate(zip(masks, rule_set.stats or ())):
                if mask & sample == mask:
                    hits[idx] += 1
                    if stats.precision > best:
                        best, best_rule = stats.precision, idx
            total += best
        scores[fault_type] = total
        explanations[fault_type] = tuple(
            Explanation(
                fault_type,
                idx,
                model.describe(rule_set.rules[idx]),
                (rule_set.stats or ())[idx].precision,
                hits[idx],
            )
            for idx in range(len(rule_set.rules))
            if hits[idx] > 0
        )
    return _ranked(scores, explanations)


def rank_services(model: FaultModel, window: QueryWindow) -> RankedResult:
    """Rank services by summed votes of their samples across fault types."""
    services = sorted(set(window.services))
    scores = {svc: 0.0 for svc in services}
    hit_counts: dict[str, dict[tuple[str, int], int]] = {svc: {} for svc in services}
    for fault_type, rule_set in model.rule_sets:
        masks = [_rule_mask(rule) for rule in rule_set.rules]
        for sample, svc in zip(window.samples, window.services):
            best = 0.0
            for idx, (mask, stats) in enumerate(zip(masks, rule_set.stats or ())):
                if mask & sample == mask:
                    key = (fault_type, idx)
                    hit_counts[svc][key] = hit_counts[svc].get(key, 0) + 1
                    if stats.precision > best:
                        best = stats.precision
            scores[svc] += best
    explanations = {
        svc: tuple(
            Explanation(
                fault_type,
                idx,
                model.describe(model.rule_set(fault_type).rules[idx]),
                (model.rule_set(fault_type).stats or ())[idx].precision,
                count,
            )
            for (fault_type, idx), count in sorted(hit_counts[svc].items())
        )
        for svc in services
    }
    return _ranked(scores, explanations)


N_FEATURES = 6
# Repeated values make tied rule precisions and tied scores; 0.1 and 0.3
# make float sums whose value depends on the order of the additions; a
# rule of precision 0.0 or -0.0 (which a model file may hold) fires
# without voting.
PRECISIONS = (0.1, 0.3, 0.5, 0.5, 1.0, 0.0, -0.0)


@st.composite
def oracle_models(draw):
    # A permutation of the names, so fault types come out of sorted order.
    names = draw(st.permutations(["net", "cpu", "mem", "disk", "io"]))
    n_types = draw(st.integers(1, len(names)))
    # Rules drawn from a small pool repeat within and across rule sets.
    pool = draw(
        st.lists(
            st.frozensets(st.integers(0, N_FEATURES - 1), min_size=0, max_size=3),
            min_size=1,
            max_size=5,
        )
    )
    empty_type = draw(st.integers(0, n_types - 1) | st.none())
    rule_sets = []
    for i, name in enumerate(names[:n_types]):
        size = 0 if i == empty_type else draw(st.integers(1, 5))
        picks = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
        precisions = draw(
            st.lists(st.sampled_from(PRECISIONS), min_size=size, max_size=size)
        )
        rule_sets.append(
            (
                name,
                RuleSet(
                    tuple(Rule(tuple(sorted(f))) for f in picks),
                    tuple(RuleStats(p, 0.5, 10) for p in precisions),
                ),
            )
        )
    return FaultModel(tuple(rule_sets))


@st.composite
def oracle_windows(draw):
    n = draw(st.integers(1, 30))
    services = draw(
        st.lists(st.sampled_from(["s2", "s0", "s1", "s3"]), min_size=n, max_size=n)
    )
    if draw(st.booleans()):
        # Only a feature no rule uses: nothing but the empty rule fires.
        samples = [1 << N_FEATURES] * n
    else:
        samples = draw(
            st.lists(st.integers(0, (1 << N_FEATURES) - 1), min_size=n, max_size=n)
        )
    # The oracles read int masks; rank_window reads the matrix built from them.
    return SimpleNamespace(samples=tuple(samples), services=tuple(services))


def _explanation_items(result: RankedResult):
    return [(name, list(entries)) for name, entries in result.explanations.items()]


@settings(max_examples=300, deadline=None)
@given(oracle_models(), oracle_windows())
def test_rank_window_matches_two_pass_oracle(model, masks):
    window = window_of(masks.samples, masks.services, N_FEATURES + 1)
    faults, services = rank_window(model, window)
    expected_faults = rank_fault_types(model, masks)
    expected_services = rank_services(model, masks)
    for got, want in ((faults, expected_faults), (services, expected_services)):
        assert got.ranking == want.ranking  # floats compared with ==
        assert got.tie_groups == want.tie_groups
        assert got.no_signal == want.no_signal
        assert _explanation_items(got) == _explanation_items(want)
    rules = [rule for _, rule_set in model.rule_sets for rule in rule_set.rules]
    if all(sample == 1 << N_FEATURES for sample in masks.samples) and all(rules):
        assert faults.no_signal and not any(faults.explanations.values())

    report = json.dumps(localization_report(model, window))
    with mock.patch(
        "ruleloc.localize.rank_window",
        lambda m, w: (rank_fault_types(m, masks), rank_services(m, masks)),
    ):
        assert json.dumps(localization_report(model, window)) == report
