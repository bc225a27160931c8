import json
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruleloc.binarize import CATEGORICAL, FeatureSpec, fit
from ruleloc.core import Rule, RuleSet, RuleStats, bitset_of
from ruleloc.localize import (
    FaultModel,
    QueryWindow,
    UnknownFaultTypeError,
    localization_report,
    window_rankings,
)

from oracle import oracle_localization_report, ranked_report


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


# The catalog of the hand-built models: ten features, c == v0 ... c == v9.
CATALOG = fit({"c": [f"v{j}" for j in range(10)]}, [FeatureSpec("c", CATEGORICAL)])


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
        ),
        CATALOG,
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


def fault_scores(report: dict) -> dict[str, float]:
    """The report's fault ranking as {fault type: score}, in ranking order."""
    return {e["fault_type"]: e["score"] for e in report["fault_ranking"]}


def service_scores(report: dict) -> dict[str, float]:
    """The report's service ranking as {service: score}, in ranking order."""
    return {e["service"]: e["score"] for e in report["service_ranking"]}


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
    report = localization_report(model, window)
    scores = fault_scores(report)
    assert scores["cpu"] == pytest.approx(0.7 * 3)
    assert scores["disk"] == pytest.approx(0.8 * 2)
    assert scores["net"] == 0.0
    assert list(scores)[0] == "cpu"
    assert not report["no_signal"]


def test_rank_fault_types_single_type_fires(model):
    window = window_of((mask(3), mask(3)), ("a", "b"))
    scores = fault_scores(localization_report(model, window))
    assert list(scores)[0] == "disk"
    assert scores["cpu"] == 0.0


def test_no_signal_window_is_flagged_and_lexicographic(model):
    window = window_of((mask(9), mask(8)), ("a", "b"))
    report = localization_report(model, window)
    assert report["no_signal"]
    assert list(fault_scores(report)) == ["cpu", "disk", "net"]


def test_rank_services_planted_service_wins(model):
    samples = (mask(0, 1), mask(0, 1), mask(9), mask(9))
    services = ("svc-a", "svc-a", "svc-b", "svc-b")
    scores = service_scores(localization_report(model, window_of(samples, services)))
    assert list(scores)[0] == "svc-a"
    assert scores["svc-b"] == 0.0


def test_rank_services_tie_flagged(model):
    samples = (mask(3), mask(3))
    services = ("beta", "alpha")
    report = localization_report(model, window_of(samples, services))
    assert list(service_scores(report)) == ["alpha", "beta"]
    assert ["alpha", "beta"] in report["service_ties"]


def test_scores_equal_sample_vote_sum(model):
    rng = np.random.default_rng(0)
    samples = tuple(int(rng.integers(0, 1 << 6)) for _ in range(40))
    services = tuple(f"s{int(rng.integers(0, 4))}" for _ in range(40))
    window = window_of(samples, services)
    report = localization_report(model, window)
    for fault_type, score in fault_scores(report).items():
        assert score == pytest.approx(
            sum(sample_vote(model, fault_type, s) for s in samples), abs=1e-12
        )
    for service, score in service_scores(report).items():
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
    before = fault_scores(localization_report(model, window))["cpu"]
    bigger = window_of(samples + (mask(2),), ("a", "a"))
    after = fault_scores(localization_report(model, bigger))["cpu"]
    assert after >= before


def test_precision_scaling_keeps_order(model):
    rng = np.random.default_rng(1)
    samples = tuple(int(rng.integers(0, 1 << 6)) for _ in range(30))
    window = window_of(samples, ("a",) * 30)
    order_before = list(fault_scores(localization_report(model, window)))
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
        ),
        CATALOG,
    )
    assert list(fault_scores(localization_report(scaled, window))) == order_before


def test_explanations_only_list_covering_rules(model):
    window = window_of((mask(2), mask(3)), ("a", "a"))
    explanations = localization_report(model, window)["explanations"]["fault_types"]
    assert [e["rule_index"] for e in explanations["cpu"]] == [1]
    assert [e["hits"] for e in explanations["cpu"]] == [1]
    assert "net" not in explanations


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
    assert restored.binarization.columns == CATALOG.columns


def test_loaded_model_renders_no_description_twice(model):
    """Loading checks each rule's stored description against its predicates,
    and the rendered text is what a report then shows, rendered by no one
    else."""
    restored = FaultModel.from_json(model.to_json())
    assert set(restored._descriptions) == {r for _, rs in model.rule_sets for r in rs.rules}
    window = window_of((mask(0, 1, 2), mask(3), mask(4, 5)), ("a", "b", "a"))
    with mock.patch("ruleloc.localize.describe_rule", side_effect=AssertionError):
        report = localization_report(restored, window)
    assert report == localization_report(model, window)
    assert restored.to_json() == model.to_json()


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
        FaultModel(model.rule_sets + (model.rule_sets[0],), CATALOG)


# -- equivalence oracle: the two ranking passes that one scorer replaced ----
# Kept as they stood before the merge (with their mask helper), but giving
# scores and explanation entries for ranked_report, so that the one-pass
# scorer is checked against them float for float.


def _rule_mask(rule: Rule) -> int:
    mask = 0
    for j in rule.features:
        mask |= 1 << j
    return mask


def _entry(model: FaultModel, fault_type: str, idx: int, hits: int) -> dict:
    rule_set = model.rule_set(fault_type)
    return {
        "fault_type": fault_type,
        "rule_index": idx,
        "rule": model.describe(rule_set.rules[idx]),
        "precision": (rule_set.stats or ())[idx].precision,
        "hits": hits,
    }


def rank_fault_types(model: FaultModel, window) -> tuple[dict, dict]:
    """Each fault type's sum of per-sample votes over the window, and the
    rules that fired, in rule order with their hits."""
    scores: dict[str, float] = {}
    explanations: dict[str, list[dict]] = {}
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
        explanations[fault_type] = [
            _entry(model, fault_type, idx, hits[idx])
            for idx in range(len(rule_set.rules))
            if hits[idx] > 0
        ]
    return scores, explanations


def rank_services(model: FaultModel, window) -> tuple[dict, dict]:
    """Each service's summed votes of its samples across fault types, and
    the rules fired on its samples, by (fault type, rule index)."""
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
        svc: [
            _entry(model, fault_type, idx, count)
            for (fault_type, idx), count in sorted(hit_counts[svc].items())
        ]
        for svc in services
    }
    return scores, explanations


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
    return FaultModel(tuple(rule_sets), CATALOG)


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
    # The oracles read int masks; localization_report reads the matrix built from them.
    return SimpleNamespace(samples=tuple(samples), services=tuple(services))


@settings(max_examples=300, deadline=None)
@given(oracle_models(), oracle_windows())
def test_report_matches_two_pass_oracle(model, masks):
    window = window_of(masks.samples, masks.services, N_FEATURES + 1)
    report = localization_report(model, window)
    want = ranked_report(*rank_fault_types(model, masks), *rank_services(model, masks))
    assert report == want  # floats compared with ==
    rules = [rule for _, rule_set in model.rule_sets for rule in rule_set.rules]
    if all(sample == 1 << N_FEATURES for sample in masks.samples) and all(rules):
        assert report["no_signal"] and not report["explanations"]["fault_types"]
    # json.dumps writes floats by repr: the reports agree bit for bit.
    assert json.dumps(report) == json.dumps(want)


# -- the layout-driven scorer against the reduceat scorer it replaced --------

# 1 is a precision as a model file may hold it, an int.
LAYOUT_PRECISIONS = (0.1, 0.3, 0.5, 1.0, 0.0, -0.0, 1)


@st.composite
def layout_models(draw):
    """A model over d one-hot features with up to five fault types (none
    included), each of up to four rules (none included) drawn from a pool
    that holds the empty rule."""
    d = draw(st.integers(1, 8))
    catalog = fit({"c": [f"v{j}" for j in range(d)]}, [FeatureSpec("c", CATEGORICAL)])
    names = draw(st.permutations(["net", "cpu", "mem", "disk", "io"]))
    pool = [()] + draw(
        st.lists(st.frozensets(st.integers(0, d - 1), max_size=3), min_size=1, max_size=5)
    )
    rule_sets = []
    for name in names[: draw(st.integers(0, len(names)))]:
        size = draw(st.integers(0, 4))
        picks = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
        precisions = draw(
            st.lists(st.sampled_from(LAYOUT_PRECISIONS), min_size=size, max_size=size)
        )
        rules = tuple(Rule(tuple(sorted(f))) for f in picks)
        rule_sets.append((name, RuleSet(rules, tuple(RuleStats(p, 0.5, 10) for p in precisions))))
    return FaultModel(tuple(rule_sets), catalog)


@st.composite
def layout_windows(draw, d):
    n = draw(st.integers(1, 25))
    if draw(st.booleans()):  # one service has every row
        services = [draw(st.sampled_from(["s1", "s0"]))] * n
    else:
        services = draw(
            st.lists(st.sampled_from(["s2", "s0", "s1", "s3"]), min_size=n, max_size=n)
        )
    bits = draw(st.lists(st.booleans(), min_size=n * d, max_size=n * d))
    return QueryWindow(np.array(bits, dtype=bool).reshape(n, d), tuple(services))


@settings(max_examples=300, deadline=None)
@given(st.data(), layout_models())
def test_report_matches_the_reduceat_oracle_bit_for_bit(data, model):
    d = model.binarization.n_features
    for _ in range(2):  # the second window reuses the model's cached layout
        window = data.draw(layout_windows(d))
        want = oracle_localization_report(model, window)
        # json.dumps writes floats by repr, which tells -0.0 from 0.0 and 1 from 1.0.
        assert json.dumps(localization_report(model, window)) == json.dumps(want)
        # eval's scorer reads the same kernel: the report's rankings and flag.
        assert window_rankings(model, window) == (
            [e["fault_type"] for e in want["fault_ranking"]],
            [e["service"] for e in want["service_ranking"]],
            want["no_signal"],
        )


def test_service_sums_pad_each_service_near_its_own_row_count():
    """A window where one service holds most of the rows among many: the
    per-service vote sums take memory in the window's votes, not in
    services x largest service (a padded grid of 640 MB)."""
    services = ("big",) * 20_000 + tuple(f"s{k:04d}" for k in range(2_000))
    matrix = np.zeros((len(services), 10), dtype=bool)
    matrix[::3, 0] = True
    model = FaultModel((("cpu", annotated([((0,), 0.3)])),), CATALOG)
    window = QueryWindow(matrix, services)
    tracemalloc.start()
    try:
        got = localization_report(model, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert json.dumps(got) == json.dumps(oracle_localization_report(model, window))


def test_model_without_fault_types_scores_services_as_float_zero():
    window = window_of([mask(0), mask(1), 0], ["s2", "s0", "s2"])
    report = localization_report(FaultModel((), CATALOG), window)
    assert report["fault_ranking"] == [] and report["no_signal"]
    assert json.dumps(report["service_ranking"]) == json.dumps(
        [{"service": "s0", "score": 0.0}, {"service": "s2", "score": 0.0}]
    )
    assert report["service_ties"] == [["s0", "s2"]]


def test_large_window_sums_votes_fault_type_by_fault_type():
    """6,000 rows, three fault types voting 0.1 or 0.3, services of 4,000
    rows down to one: the scores are the oracle's floats, which a sum that
    interleaves the fault types' votes misses."""
    rng = np.random.default_rng(21)
    sizes = {"big": 4_000, "mid": 1_500, "low": 470, "few": 29, "one": 1}
    services = tuple(rng.permutation([svc for svc, size in sizes.items() for _ in range(size)]))
    matrix = rng.random((len(services), 10)) < 0.4
    model = FaultModel(
        (
            ("net", annotated([((0,), 0.1), ((1, 2), 0.3)])),
            ("cpu", annotated([((3,), 0.3)])),
            ("disk", annotated([((4,), 0.1), ((5,), 0.3), ((6, 7), 0.1)])),
        ),
        CATALOG,
    )
    window = QueryWindow(matrix, services)
    got = localization_report(model, window)
    assert json.dumps(got) == json.dumps(oracle_localization_report(model, window))
    # The order matters here: adding each sample's votes across fault
    # types before the next sample's gives other floats.
    interleaved = dict.fromkeys(sizes, 0.0)
    for row, svc in zip(matrix, services):
        sample = sum(1 << j for j in np.flatnonzero(row).tolist())
        for name in model.fault_types():
            interleaved[svc] += sample_vote(model, name, sample)
    assert service_scores(got) != interleaved
