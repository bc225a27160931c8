"""Fault-type and service ranking by precision-weighted rule votes.

A trained model holds one annotated rule set per fault type, all over the
same binary-feature catalog.  For a query window each sample votes for a
fault type with the highest training precision among that type's rules
covering it (zero if none covers); fault types are ranked by the vote sum
over the window, services by the vote sum over their samples summed
across fault types.  A window is its boolean feature matrix, so
`rank_window` scores it with array operations: per fault type one firing
row per rule, one max of fired precisions per sample, and one bincount of
service codes per fired rule for the hits that explain the rankings.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

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
    checked,
    checked_field,
    describe_rule,
)
from ruleloc.core import Rule, RuleSet, RuleStats

# The JSON kinds of a fault type's knobs and of a rule's stats, in field order.
_KNOB_KINDS = (("K", COUNT), ("l", COUNT), ("gamma", NUMBER))
_STATS_KINDS = (("precision", FRACTION), ("recall", FRACTION), ("covered", COUNT))


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
class Explanation:
    """A rule that contributed votes to a ranked candidate."""

    fault_type: str
    rule_index: int
    description: str
    precision: float
    hits: int


@dataclass(frozen=True)
class RankedResult:
    """Descending (candidate, score) ranking with vote explanations."""

    ranking: tuple[tuple[str, float], ...]
    no_signal: bool
    tie_groups: tuple[tuple[str, ...], ...]
    explanations: Mapping[str, tuple[Explanation, ...]]

    def candidates(self) -> list[str]:
        return [name for name, _ in self.ranking]


@dataclass(frozen=True)
class FaultModel:
    """Per-fault-type annotated rule sets plus the shared feature catalog."""

    rule_sets: tuple[tuple[str, RuleSet], ...]
    binarization: Optional[BinarizationModel] = None
    max_rules: int = 4
    max_len: int = 6
    gamma: float = 1.0
    metadata: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        d = None if self.binarization is None else self.binarization.n_features
        seen: set[str] = set()
        for name, rs in self.rule_sets:
            if not rs.annotated:
                raise ValueError(f"rule set for {name!r} is not annotated")
            if name in seen:
                raise ValueError(f"duplicate fault type {name!r}")
            seen.add(name)
            for i, rule in enumerate(rs.rules):
                if d is not None and rule.features and rule.features[-1] >= d:
                    raise ValueError(
                        f"fault type {name!r}, rule {i}: feature {rule.features[-1]}"
                        f" outside the {d}-feature catalog"
                    )

    def fault_types(self) -> list[str]:
        return [name for name, _ in self.rule_sets]

    def rule_set(self, fault_type: str) -> RuleSet:
        for name, rs in self.rule_sets:
            if name == fault_type:
                return rs
        raise UnknownFaultTypeError(f"unknown fault type {fault_type!r}")

    def describe(self, rule: Rule) -> str:
        if self.binarization is not None:
            return describe_rule(self.binarization, rule)
        if not rule.features:
            return "TRUE"
        return " ∧ ".join(f"f{j}" for j in rule.features)

    # -- serialization -------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "binarization": None
            if self.binarization is None
            else self.binarization.to_json_obj(),
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
        if self.binarization is None:
            return {"feature": j}
        return {"feature": j, **self.binarization.feature(j).to_json_obj()}

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2) + "\n"

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
        if binarization is not None:
            checked(binarization, OBJECT, "binarization")
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
        max_rules, max_len, gamma = knobs[0] if knobs else (4, 6, 1.0)
        metadata = dict(checked(obj.get("metadata", {}), OBJECT, "metadata"))
        model = cls(tuple(rule_sets), binarization, max_rules, max_len, gamma, metadata)
        if binarization is not None:
            # A predicate restates its catalog entry, so it must agree with it.
            for entry in entries:
                for i, r in enumerate(entry["rules"]):
                    for p in r["predicates"]:
                        if p != model._predicate_obj(p["feature"]):
                            raise ValueError(
                                f"fault type {entry['fault_type']!r}, rule {i}:"
                                f" predicate disagrees with feature {p['feature']}"
                            )
        return model

    @classmethod
    def from_json(cls, text: str) -> "FaultModel":
        return cls.from_json_obj(json.loads(text))


def _ranked(scores: dict[str, float], explanations) -> RankedResult:
    no_signal = all(score == 0.0 for score in scores.values())
    ranking = tuple(sorted(scores.items(), key=lambda kv: (-kv[1], kv[0])))
    groups = []
    i = 0
    names = [name for name, _ in ranking]
    values = [score for _, score in ranking]
    while i < len(ranking):
        j = i
        while j + 1 < len(ranking) and values[j + 1] == values[i]:
            j += 1
        if j > i:
            groups.append(tuple(names[i : j + 1]))
        i = j + 1
    return RankedResult(ranking, no_signal, tuple(groups), explanations)


def _added_in_order(votes: np.ndarray) -> float:
    """0.0 + votes[0] + votes[1] + ... in row-major order, as a running += adds.

    cumsum keeps the order, where np.sum adds pairwise and can round
    differently; the leading 0.0 turns a -0.0 vote, or no vote, into 0.0.
    """
    return float(np.cumsum(np.concatenate(([0.0], votes.ravel())))[-1])


def rank_window(
    model: FaultModel, window: QueryWindow
) -> tuple[RankedResult, RankedResult]:
    """Rank fault types and services by the window's votes.

    Both rankings are full (descending score, ties by name) so that top-k
    evaluation is possible; a window where no rule fires anywhere is flagged
    no_signal and ranked lexicographically.  A fault type is explained by its
    fired rules in rule order with their hits over the window, a service by
    the rules fired on its samples, sorted by (fault type, rule index).
    """
    services = sorted(set(window.services))
    code = {svc: k for k, svc in enumerate(services)}
    codes = np.fromiter(map(code.__getitem__, window.services), np.intp, len(window.services))
    votes = np.empty((len(model.rule_sets), len(codes)))
    fault_scores, fault_expl = {}, {}
    service_expl: dict[str, list[Explanation]] = {svc: [] for svc in services}
    for t, (fault_type, rule_set) in enumerate(model.rule_sets):
        stats = rule_set.stats or ()
        fire = np.empty((len(rule_set.rules), len(codes)), dtype=bool)
        for r, rule in enumerate(rule_set.rules):
            fire[r] = window.matrix[:, rule.features].all(axis=1)
        precision = np.array([s.precision for s in stats], dtype=float)
        votes[t] = np.where(fire, precision[:, None], 0.0).max(axis=0, initial=0.0)
        fault_scores[fault_type] = _added_in_order(votes[t])
        entries = []
        for r in np.flatnonzero(fire.any(axis=1)).tolist():
            hits = np.bincount(codes[fire[r]], minlength=len(services))
            entry = Explanation(
                fault_type, r, model.describe(rule_set.rules[r]), stats[r].precision, int(hits.sum())
            )
            entries.append(entry)
            for k in np.flatnonzero(hits).tolist():
                service_expl[services[k]].append(replace(entry, hits=int(hits[k])))
        fault_expl[fault_type] = tuple(entries)
    # A service's votes add fault type by fault type, each in sample order.
    service_scores = {svc: _added_in_order(votes[:, codes == k]) for k, svc in enumerate(services)}
    by_rule = {
        svc: tuple(sorted(fired, key=lambda e: (e.fault_type, e.rule_index)))
        for svc, fired in service_expl.items()
    }
    return _ranked(fault_scores, fault_expl), _ranked(service_scores, by_rule)


def localization_report(
    model: FaultModel, window: QueryWindow
) -> dict:
    """JSON-ready report with both rankings and vote explanations."""
    faults, services = rank_window(model, window)
    def expl_obj(result: RankedResult) -> dict:
        return {
            name: [
                {
                    "fault_type": e.fault_type,
                    "rule_index": e.rule_index,
                    "rule": e.description,
                    "precision": e.precision,
                    "hits": e.hits,
                }
                for e in entries
            ]
            for name, entries in result.explanations.items()
            if entries
        }

    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "no_signal": faults.no_signal,
        "fault_ranking": [
            {"fault_type": name, "score": score} for name, score in faults.ranking
        ],
        "service_ranking": [
            {"service": name, "score": score} for name, score in services.ranking
        ],
        "fault_ties": [list(g) for g in faults.tie_groups],
        "service_ties": [list(g) for g in services.tie_groups],
        "explanations": {
            "fault_types": expl_obj(faults),
            "services": expl_obj(services),
        },
    }
