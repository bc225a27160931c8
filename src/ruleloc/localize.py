"""Fault-type and service ranking by precision-weighted rule votes.

A trained model holds one annotated rule set per fault type, all over the
same binary-feature catalog.  For a query window each sample votes for a
fault type with the highest training precision among that type's rules
covering it (zero if none covers); fault types are ranked by the vote sum
over the window, services by the vote sum over their samples summed
across fault types.  `rank_window` computes both rankings, and the rule
hits that explain them, in one pass over fault types x samples x rules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional

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
from ruleloc.core import Rule, RuleSet, RuleStats, bitset_of

# The JSON kinds of a fault type's knobs and of a rule's stats, in field order.
_KNOB_KINDS = (("K", COUNT), ("l", COUNT), ("gamma", NUMBER))
_STATS_KINDS = (("precision", FRACTION), ("recall", FRACTION), ("covered", COUNT))


class UnknownFaultTypeError(ValueError):
    """Queried fault type is not part of the model."""


@dataclass(frozen=True)
class QueryWindow:
    """Binarized samples of one incident window.

    Each sample is a bitmask over catalog feature indices; services align
    one-to-one with samples.
    """

    samples: tuple[int, ...]
    services: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.samples) != len(self.services):
            raise ValueError("each sample needs a service id")
        if not self.samples:
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


def rank_window(
    model: FaultModel, window: QueryWindow
) -> tuple[RankedResult, RankedResult]:
    """Rank fault types and services by the window's votes, in one pass.

    Both rankings are full (descending score, ties by name) so that top-k
    evaluation is possible; a window where no rule fires anywhere is flagged
    no_signal and ranked lexicographically.  A fault type is explained by its
    fired rules in rule order with their hits over the window, a service by
    the rules fired on its samples, sorted by (fault type, rule index).
    """
    services = sorted(set(window.services))
    fault_scores, fault_expl = {}, {}
    service_scores = {svc: 0.0 for svc in services}
    service_expl: dict[str, list[Explanation]] = {svc: [] for svc in services}
    for fault_type, rule_set in model.rule_sets:
        rules = [
            (idx, bitset_of(rule.features), stats.precision)
            for idx, (rule, stats) in enumerate(zip(rule_set.rules, rule_set.stats or ()))
        ]
        hits = {svc: [0] * len(rules) for svc in services}
        total = 0.0
        for sample, svc in zip(window.samples, window.services):
            best = 0.0
            row = hits[svc]
            for idx, mask, precision in rules:
                if mask & sample == mask:
                    row[idx] += 1
                    if precision > best:
                        best = precision
            total += best
            service_scores[svc] += best
        fault_scores[fault_type] = total
        entries = []
        for idx, _, precision in rules:
            count = sum(row[idx] for row in hits.values())
            if count:
                rule = rule_set.rules[idx]
                entries.append(
                    Explanation(fault_type, idx, model.describe(rule), precision, count)
                )
                for svc, row in hits.items():
                    if row[idx]:
                        service_expl[svc].append(replace(entries[-1], hits=row[idx]))
        fault_expl[fault_type] = tuple(entries)
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
