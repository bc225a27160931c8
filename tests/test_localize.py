import json

import numpy as np
import pytest

from ruleloc.core import Rule, RuleSet, RuleStats
from ruleloc.localize import (
    FaultModel,
    QueryWindow,
    UnknownFaultTypeError,
    localization_report,
    rank_fault_types,
    rank_services,
    sample_vote,
)


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
    window = QueryWindow(samples, ("s1",) * 5)
    result = rank_fault_types(model, window)
    scores = dict(result.ranking)
    assert scores["cpu"] == pytest.approx(0.7 * 3)
    assert scores["disk"] == pytest.approx(0.8 * 2)
    assert scores["net"] == 0.0
    assert result.candidates()[0] == "cpu"
    assert not result.no_signal


def test_rank_fault_types_single_type_fires(model):
    window = QueryWindow((mask(3), mask(3)), ("a", "b"))
    result = rank_fault_types(model, window)
    assert result.candidates()[0] == "disk"
    assert dict(result.ranking)["cpu"] == 0.0


def test_no_signal_window_is_flagged_and_lexicographic(model):
    window = QueryWindow((mask(9), mask(8)), ("a", "b"))
    result = rank_fault_types(model, window)
    assert result.no_signal
    assert result.candidates() == ["cpu", "disk", "net"]


def test_rank_services_planted_service_wins(model):
    samples = (mask(0, 1), mask(0, 1), mask(9), mask(9))
    services = ("svc-a", "svc-a", "svc-b", "svc-b")
    result = rank_services(model, QueryWindow(samples, services))
    assert result.candidates()[0] == "svc-a"
    assert dict(result.ranking)["svc-b"] == 0.0


def test_rank_services_tie_flagged(model):
    samples = (mask(3), mask(3))
    services = ("beta", "alpha")
    result = rank_services(model, QueryWindow(samples, services))
    assert result.candidates() == ["alpha", "beta"]
    assert ("alpha", "beta") in result.tie_groups


def test_scores_equal_sample_vote_sum(model):
    rng = np.random.default_rng(0)
    samples = tuple(int(rng.integers(0, 1 << 6)) for _ in range(40))
    services = tuple(f"s{int(rng.integers(0, 4))}" for _ in range(40))
    window = QueryWindow(samples, services)
    faults = rank_fault_types(model, window)
    for fault_type, score in faults.ranking:
        assert score == pytest.approx(
            sum(sample_vote(model, fault_type, s) for s in samples), abs=1e-12
        )
    by_service = rank_services(model, window)
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
    window = QueryWindow(samples, ("a",))
    before = dict(rank_fault_types(model, window).ranking)["cpu"]
    bigger = QueryWindow(samples + (mask(2),), ("a", "a"))
    after = dict(rank_fault_types(model, bigger).ranking)["cpu"]
    assert after >= before


def test_precision_scaling_keeps_order(model):
    rng = np.random.default_rng(1)
    samples = tuple(int(rng.integers(0, 1 << 6)) for _ in range(30))
    window = QueryWindow(samples, ("a",) * 30)
    order_before = rank_fault_types(model, window).candidates()
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
    assert rank_fault_types(scaled, window).candidates() == order_before


def test_explanations_only_list_covering_rules(model):
    window = QueryWindow((mask(2), mask(3)), ("a", "a"))
    faults = rank_fault_types(model, window)
    assert [e.rule_index for e in faults.explanations["cpu"]] == [1]
    assert [e.hits for e in faults.explanations["cpu"]] == [1]
    assert faults.explanations["net"] == ()


def test_report_shape(model):
    window = QueryWindow((mask(2),), ("a",))
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
        QueryWindow((1, 2), ("only-one",))
    with pytest.raises(ValueError):
        QueryWindow((), ())


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
