"""Fault-type and service ranking by precision-weighted rule votes.

A trained model holds one annotated rule set per fault type, all over the
same binary-feature catalog.  For a query window each sample votes for a
fault type with the highest training precision among that type's rules
covering it (zero if none covers); fault types are ranked by the vote sum
over the window, services by the vote sum over their samples summed
across fault types.  A window is its boolean feature matrix, and one vote
kernel scores it with no array operation per rule, fault type or
service: one gather of the rules' columns and one AND over each rule's
padded conjuncts give the firings; one max over each fault type's padded
rule slots gives the votes; one ordered bincount of the votes by fault
type gives the fault scores and one by service the service scores.  Two
scorers read that kernel.  window_rankings gives the rankings and the
no-signal flag alone, which is all that evaluation reads.
localization_report adds one bincount of (rule, service) pairs, the hits
that explain the rankings, and builds each ranking entry and explanation
as the dict that the JSON report holds.  The parts that depend only on
the model are laid out once per FaultModel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby
from operator import itemgetter
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from ruleloc import SCHEMA_VERSION, __version__
from ruleloc.binarize import (
    COUNT,
    FRACTION,
    LIST,
    NUMBER,
    OBJECT,
    STRING,
    BinarizationModel,
    ShapeError,
    _columns_model,
    checked,
    checked_field,
    describe_rule,
)
from ruleloc.core import Rule, RuleSet, RuleStats
from ruleloc.select import SelectionConfig

# The JSON kinds of a fault type's knobs and of a rule's stats, in field order.
_KNOB_KINDS = (("K", COUNT), ("l", COUNT), ("gamma", NUMBER))
_STATS_KINDS = (("precision", FRACTION), ("recall", FRACTION), ("covered", COUNT))

# Every model file that to_json writes starts with _HEAD, then its
# binarization's "columns" key, and the columns start at _COLUMNS_AT.
_HEAD = '{\n  "binarization": '
_COLUMNS_HEAD = _HEAD + '{\n    "columns": '
_COLUMNS_AT = len(_COLUMNS_HEAD)
# json.loads's own scanner: _scan(text, idx) is (the value at idx, the
# index past it), and raises StopIteration where no value starts.
_scan = json.JSONDecoder().scan_once


class UnknownFaultTypeError(ValueError):
    """Queried fault type is not part of the model."""


@dataclass(frozen=True, eq=False)
class QueryWindow:
    """Binarized samples of one incident window.

    matrix[i, j] is whether sample i satisfies catalog feature j (the
    samples x features bool array of binarize.feature_matrix); services
    align one-to-one with samples.
    """

    matrix: np.ndarray
    services: tuple[str, ...]

    def __post_init__(self) -> None:
        if np.ndim(self.matrix) != 2 or len(self.matrix) != len(self.services):
            raise ValueError("each sample needs a row of features and a service id")
        if not self.services:
            raise ValueError("query window must contain at least one sample")


@dataclass(frozen=True)
class _RuleLayout:
    """A model's rules, numbered r = 0..R-1 fault type by fault type.

    Rule r holds where every catalog position columns[q] for q in row r of
    conjuncts holds; each row is padded with len(columns), a column that
    always holds.  Where rule r fires it votes precisions[r, 0].  Row t of
    slots holds fault type t's rule numbers, padded with R, a slot that
    never votes.  rules[r] is (fault type, rule index, rule, precision),
    and by_name holds the rule numbers sorted by (fault type, rule index).
    """

    columns: np.ndarray
    conjuncts: np.ndarray
    precisions: np.ndarray
    slots: np.ndarray
    rules: tuple[tuple[str, int, Rule, float], ...]
    by_name: np.ndarray


@dataclass(frozen=True)
class FaultModel:
    """Per-fault-type annotated rule sets plus the shared feature catalog."""

    rule_sets: tuple[tuple[str, RuleSet], ...]
    binarization: BinarizationModel
    max_rules: int = SelectionConfig.max_rules
    max_len: int = SelectionConfig.max_len
    gamma: float = SelectionConfig.gamma
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        d = self.binarization.n_features
        seen: set[str] = set()
        for name, rs in self.rule_sets:
            if not rs.annotated:
                raise ValueError(f"rule set for {name!r} is not annotated")
            if name in seen:
                raise ValueError(f"duplicate fault type {name!r}")
            seen.add(name)
            for i, rule in enumerate(rs.rules):
                if rule.features and rule.features[-1] >= d:
                    raise ValueError(
                        f"fault type {name!r}, rule {i}: feature {rule.features[-1]}"
                        f" outside the {d}-feature catalog"
                    )

    @cached_property
    def _rule_layout(self) -> _RuleLayout:
        """Every rule of every fault type, laid out for the vote kernel."""
        rules = [
            (name, r, rule, stats)
            for name, rs in self.rule_sets
            for r, (rule, stats) in enumerate(zip(rs.rules, rs.stats or ()))
        ]
        columns = sorted({j for _, _, rule, _ in rules for j in rule.features})
        where = {j: q for q, j in enumerate(columns)}
        longest = max((len(rule) for _, _, rule, _ in rules), default=0)
        conjuncts = np.full((len(rules), max(longest, 1)), len(columns), dtype=np.intp)
        for r, (_, _, rule, _) in enumerate(rules):
            conjuncts[r, : len(rule)] = [where[j] for j in rule.features]
        width = max((len(rs.rules) for _, rs in self.rule_sets), default=0)
        slots = np.full((len(self.rule_sets), max(width, 1)), len(rules), dtype=np.intp)
        first = 0
        for t, (_, rs) in enumerate(self.rule_sets):
            slots[t, : len(rs.rules)] = range(first, first + len(rs.rules))
            first += len(rs.rules)
        return _RuleLayout(
            np.array(columns, dtype=np.intp),
            conjuncts,
            np.array([stats.precision for *_, stats in rules], dtype=float)[:, None],
            slots,
            tuple((name, r, rule, stats.precision) for name, r, rule, stats in rules),
            np.array(sorted(range(len(rules)), key=lambda i: rules[i][:2]), dtype=np.intp),
        )

    def fault_types(self) -> list[str]:
        return [name for name, _ in self.rule_sets]

    def rule_set(self, fault_type: str) -> RuleSet:
        for name, rs in self.rule_sets:
            if name == fault_type:
                return rs
        raise UnknownFaultTypeError(f"unknown fault type {fault_type!r}")

    @cached_property
    def _descriptions(self) -> dict[Rule, str]:
        return {}

    def describe(self, rule: Rule) -> str:
        """describe_rule of rule, rendered once per model."""
        text = self._descriptions.get(rule)
        if text is None:
            text = self._descriptions[rule] = describe_rule(self.binarization, rule)
        return text

    # -- serialization -------------------------------------------------

    def to_json_obj(self) -> dict:
        return {"binarization": self.binarization.to_json_obj(), **self._parts_obj()}

    def _parts_obj(self) -> dict:
        """Every part of to_json_obj() but the binarization."""
        return {
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "fault_types": [
                self._rule_set_obj(name, rs) for name, rs in self.rule_sets
            ],
            "metadata": dict(self.metadata),
        }

    def _rule_set_obj(self, name: str, rs: RuleSet) -> dict:
        rules = []
        for rule, stats in zip(rs.rules, rs.stats or ()):
            rules.append(
                {
                    "predicates": [self._predicate_obj(j) for j in rule.features],
                    "description": self.describe(rule),
                    "precision": stats.precision,
                    "recall": stats.recall,
                    "covered": stats.covered,
                }
            )
        return {
            "fault_type": name,
            "K": self.max_rules,
            "l": self.max_len,
            "gamma": self.gamma,
            "rules": rules,
        }

    def _predicate_obj(self, j: int) -> dict:
        """Feature j as a rule predicate: its index, then its catalog entry."""
        return {"feature": j, **self.binarization.feature(j).to_json_obj()}

    def to_json(self) -> str:
        """json.dumps(self.to_json_obj(), sort_keys=True, indent=2) + "\n", built
        from two parts: the binarization's to_json_text, whose catalog is
        rendered as text, then one json.dumps of the other parts, whose keys
        all sort after "binarization"."""
        parts = json.dumps(self._parts_obj(), sort_keys=True, indent=2)
        return _HEAD + self.binarization.to_json_text() + "," + parts[1:] + "\n"

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "FaultModel":
        """The model as to_json_obj writes it.  A value of the wrong JSON type
        fails as a ShapeError naming its key path, such as
        fault_types[0].rules[1].precision."""
        checked(obj, OBJECT, "the model")
        if obj.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported model schema version {obj.get('schema_version')!r}"
            )
        binarization = obj.get("binarization")
        if not isinstance(binarization, BinarizationModel):  # one from_json read is checked
            checked_field(obj, "binarization", OBJECT)
            try:
                binarization = BinarizationModel.from_json_obj(binarization)
            except ShapeError as exc:
                raise ShapeError(f"binarization.{exc}") from None
        rule_sets, knobs = [], []
        entries = checked_field(obj, "fault_types", LIST)
        for i, entry in enumerate(entries):
            at = f"fault_types[{i}]"
            checked(entry, OBJECT, at)
            name = checked_field(entry, "fault_type", STRING, at)
            knobs.append(tuple(checked_field(entry, k, kind, at) for k, kind in _KNOB_KINDS))
            rules, stats = [], []
            for r, rule in enumerate(checked_field(entry, "rules", LIST, at)):
                where = f"{at}.rules[{r}]"
                checked(rule, OBJECT, where)
                features = []
                for q, p in enumerate(checked_field(rule, "predicates", LIST, where)):
                    pat = f"{where}.predicates[{q}]"
                    features.append(checked_field(checked(p, OBJECT, pat), "feature", COUNT, pat))
                rules.append(Rule(tuple(features)))
                stats.append(
                    RuleStats(*(checked_field(rule, k, kind, where) for k, kind in _STATS_KINDS))
                )
            rule_sets.append((name, RuleSet(tuple(rules), tuple(stats))))
        # Every entry stores the model-wide knobs; they must agree.
        for (name, _), entry_knobs in zip(rule_sets, knobs):
            if entry_knobs != knobs[0]:
                raise ValueError(
                    f"fault type {name!r} has (K, l, gamma) = {entry_knobs},"
                    f" the first fault type has {knobs[0]}"
                )
        metadata = dict(checked(obj.get("metadata", {}), OBJECT, "metadata"))
        model = cls(tuple(rule_sets), binarization, *(knobs[0] if knobs else ()), metadata=metadata)
        # A predicate restates its catalog entry and a description renders
        # its rule, so each must agree with what it restates.  The rendered
        # descriptions stay in the model's cache, so reports render none again.
        for t, (entry, (_, rs)) in enumerate(zip(entries, rule_sets)):
            for i, (r, rule) in enumerate(zip(entry["rules"], rs.rules)):
                for p in r["predicates"]:
                    if p != model._predicate_obj(p["feature"]):
                        raise ValueError(
                            f"fault type {entry['fault_type']!r}, rule {i}:"
                            f" predicate disagrees with feature {p['feature']}"
                        )
                where = f"fault_types[{t}].rules[{i}]"
                if checked_field(r, "description", STRING, where) != model.describe(rule):
                    raise ValueError(
                        f"{where}.description: {r['description']!r} disagrees with the"
                        f" predicates, which read {model.describe(rule)!r}"
                    )
        return model

    @classmethod
    def from_json(cls, text: str) -> "FaultModel":
        """from_json_obj(json.loads(text)): the same model, or the same error.

        Text that starts with the binarization as to_json writes it is read
        by _written_model_obj in two parts: the binarization, as the checked
        BinarizationModel with its catalog unparsed, which from_json_obj
        takes as it is, and the members after it, by one json.loads.  Any
        other text, such as a re-indented file, is read by json.loads.
        """
        return cls.from_json_obj(_written_model_obj(text) or json.loads(text))


def _written_model_obj(text: str) -> Optional[dict]:
    """json.loads(text), its binarization the checked BinarizationModel, if
    text holds the binarization as to_json writes it, then a comma and one
    or more members; None otherwise.

    The columns are scanned once and checked once by _columns_model.  The
    thresholds' texts come from the columns' own text, so no number is
    rendered: text_after_columns checks that the columns rendered with
    them are the file's and renders the rest of the binarization with
    them, which the file's text after the columns must equal, piece by
    piece, so no copy of the catalog is built.  Equal text parses to
    equal values, so this is the check that BinarizationModel.from_json_obj
    makes of a parsed catalog.
    """
    if not isinstance(text, str) or not text.startswith(_COLUMNS_HEAD):
        return None
    try:
        columns, end = _scan(text, _COLUMNS_AT)
        binarization = _columns_model({"columns": columns})
    except (ValueError, StopIteration, RecursionError):  # no columns from_json_obj takes
        return None
    after = binarization.text_after_columns(text[_COLUMNS_AT:end])
    if after is None:
        return None
    at = end
    for piece in after:
        if not text.startswith(piece, at):
            return None
        at += len(piece)
    if not text.startswith(",", at):
        return None
    try:
        rest = json.loads("{" + text[at + 1 :])
    except (ValueError, RecursionError):
        return None
    if not rest:  # a trailing comma
        return None
    # A second binarization among the rest has the last word, as in json.loads.
    return {"binarization": binarization, **rest}


class Rankings(NamedTuple):
    """A window's full fault-type and service rankings, best first, and
    whether no rule fired anywhere in it."""

    faults: list[str]
    services: list[str]
    no_signal: bool


@dataclass(frozen=True)
class _Votes:
    """The vote kernel's result for one window.

    services are its distinct services, sorted, and codes[i] is the
    number of sample i's service among them; fired[i, r] is whether rule
    r fires on sample i; fault_totals and service_totals are the vote
    sums of the model's fault types and of services, in those orders.
    """

    services: list[str]
    codes: np.ndarray
    fired: np.ndarray
    fault_totals: list[float]
    service_totals: list[float]

    @property
    def no_signal(self) -> bool:
        return all(score == 0.0 for score in self.fault_totals)


def _votes(model: FaultModel, window: QueryWindow) -> _Votes:
    """The window's firings and vote totals.

    Scores add votes one at a time in sample order, a fault type's from
    0.0 and a service's fault type by fault type, as a running += adds.
    """
    layout = model._rule_layout
    services = sorted(set(window.services))
    code = {svc: k for k, svc in enumerate(services)}
    codes = np.fromiter(map(code.__getitem__, window.services), np.intp, len(window.services))
    n, n_types, n_rules = len(codes), len(layout.slots), len(layout.rules)
    # A rule fires where all its conjuncts hold; the last column always does.
    held = np.ones((n, len(layout.columns) + 1), dtype=bool)
    held[:, :-1] = window.matrix[:, layout.columns]
    fired = held[:, layout.conjuncts].all(axis=2)
    # Row R of `weighted` is the padding slot, which never votes.
    weighted = np.zeros((n_rules + 1, n))
    np.copyto(weighted[:-1], layout.precisions, where=fired.T)
    votes = np.max(weighted[layout.slots], axis=1, initial=0.0)
    # bincount adds its weights one at a time into 0.0, in the order given:
    # a fault type's votes in sample order, and a service's fault type by
    # fault type, each in sample order.  With no fault types there are no
    # weights and bincount counts in ints, so the service totals are cast
    # to float (the fault totals are then empty).
    fault_totals = np.bincount(
        np.repeat(np.arange(n_types), n), weights=votes.ravel(), minlength=n_types
    ).tolist()
    service_totals = np.bincount(
        np.tile(codes, n_types), weights=votes.ravel(), minlength=len(services)
    ).astype(float)
    return _Votes(services, codes, fired, fault_totals, service_totals.tolist())


def _ranked(names: Sequence[str], scores: Sequence[float]) -> list[tuple[str, float]]:
    """(name, score) pairs by descending score, ties by name."""
    return sorted(zip(names, scores), key=lambda kv: (-kv[1], kv[0]))


def window_rankings(model: FaultModel, window: QueryWindow) -> Rankings:
    """The rankings and no-signal flag of localization_report's report of
    the window, without building its entries or explanations."""
    votes = _votes(model, window)
    return Rankings(
        [name for name, _ in _ranked(model.fault_types(), votes.fault_totals)],
        [svc for svc, _ in _ranked(votes.services, votes.service_totals)],
        votes.no_signal,
    )


def _ranking(
    key: str, names: Sequence[str], scores: Sequence[float]
) -> tuple[list[dict], list[list[str]]]:
    """The report's entries of a full ranking, and its runs of two or more
    tied names."""
    ranking = _ranked(names, scores)
    groups = ([name for name, _ in run] for _, run in groupby(ranking, itemgetter(1)))
    return (
        [{key: name, "score": score} for name, score in ranking],
        [group for group in groups if len(group) > 1],
    )


def localization_report(model: FaultModel, window: QueryWindow) -> dict:
    """JSON-ready report ranking fault types and services by the window's votes.

    Both rankings are full (descending score, ties by name) so that top-k
    evaluation is possible; a window where no rule fires anywhere is flagged
    no_signal and ranked lexicographically.  A fault type is explained by its
    fired rules in rule order with their hits over the window, a service by
    the rules fired on its samples, sorted by (fault type, rule index); names
    with nothing fired have no explanation.  The rankings and the flag are
    those of window_rankings: both read the one vote kernel.
    """
    layout = model._rule_layout
    votes = _votes(model, window)
    services, n_rules = votes.services, len(layout.rules)
    # hits[r, k]: how many samples of service k rule r fires on.
    pairs = np.arange(n_rules)[:, None] * len(services) + votes.codes
    hits = np.bincount(pairs[votes.fired.T], minlength=n_rules * len(services))
    hits = hits.reshape(n_rules, len(services))
    fault_expl: dict[str, list[dict]] = {name: [] for name, _ in model.rule_sets}
    service_expl: dict[str, list[dict]] = {svc: [] for svc in services}
    totals = hits.sum(axis=1)

    def explained(r: int, n_hits: int) -> dict:
        fault_type, index, rule, precision = layout.rules[r]
        return {
            "fault_type": fault_type,
            "rule_index": index,
            "rule": model.describe(rule),
            "precision": precision,
            "hits": int(n_hits),
        }

    for r in np.flatnonzero(totals).tolist():
        fault_expl[layout.rules[r][0]].append(explained(r, totals[r]))
    by_name = hits[layout.by_name]
    q, k = np.nonzero(by_name)
    for r, svc, n_hits in zip(layout.by_name[q].tolist(), k.tolist(), by_name[q, k].tolist()):
        service_expl[services[svc]].append(explained(r, n_hits))
    fault_ranking, fault_ties = _ranking("fault_type", model.fault_types(), votes.fault_totals)
    service_ranking, service_ties = _ranking("service", services, votes.service_totals)
    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "no_signal": votes.no_signal,
        "fault_ranking": fault_ranking,
        "service_ranking": service_ranking,
        "fault_ties": fault_ties,
        "service_ties": service_ties,
        "explanations": {
            "fault_types": {name: e for name, e in fault_expl.items() if e},
            "services": {svc: e for svc, e in service_expl.items() if e},
        },
    }
