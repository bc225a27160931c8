"""Set-level data model and objective evaluations for rule-set classifiers.

Coverage sets are plain Python ints used as bitsets (bit i set <=> sample i
is in the set), so every set operation is word-parallel, hashable and
immutable.  A rule is a conjunction of binary features and covers the
intersection of their coverage sets; a rule set predicts positive on the
union of its rules' covers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

# Two objective values within this tolerance are considered tied and the
# tie is broken by the lexicographically smaller sorted feature tuple.
TIE_EPS = 1e-12


class InvalidDatasetError(ValueError):
    """Raised when a dataset cannot be used for the requested operation."""


class FeatureIndexError(ValueError):
    """Raised when a rule references a feature index outside the dataset."""


def bitset_of(indices: Iterable[int]) -> int:
    bits = 0
    for i in indices:
        bits |= 1 << i
    return bits


def indices_of(bits: int) -> list[int]:
    out = []
    i = 0
    while bits:
        tz = (bits & -bits).bit_length() - 1
        i += tz
        out.append(i)
        bits >>= tz + 1
        i += 1
    return out


@dataclass(frozen=True)
class Rule:
    """A conjunction of binary feature indices.

    The empty rule is the empty conjunction and covers every sample.
    Features are stored sorted and deduplicated so rules compare and hash
    by their feature set.
    """

    features: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        canon = tuple(sorted(set(self.features)))
        if canon != self.features:
            object.__setattr__(self, "features", canon)
        if any(j < 0 for j in canon):
            raise FeatureIndexError(f"negative feature index in rule {canon}")

    @classmethod
    def of(cls, *features: int) -> "Rule":
        return cls(tuple(features))

    def __len__(self) -> int:
        return len(self.features)

    def __contains__(self, j: int) -> bool:
        return j in self.features

    def with_feature(self, j: int) -> "Rule":
        return Rule(self.features + (j,))

    def without_feature(self, j: int) -> "Rule":
        return Rule(tuple(k for k in self.features if k != j))


@dataclass(frozen=True)
class RuleStats:
    """Training-set annotations of a single rule."""

    precision: float
    recall: float
    covered: int


@dataclass(frozen=True)
class RuleSet:
    """A disjunction of rules; predicts positive iff any rule covers."""

    rules: tuple[Rule, ...] = ()
    stats: Optional[tuple[RuleStats, ...]] = None

    def __post_init__(self) -> None:
        if self.stats is not None and len(self.stats) != len(self.rules):
            raise ValueError("stats must align one-to-one with rules")

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self) -> Iterator[Rule]:
        return iter(self.rules)

    @property
    def annotated(self) -> bool:
        return self.stats is not None


@dataclass(frozen=True)
class BinaryDataset:
    """Immutable binary feature matrix with per-feature coverage bitsets.

    coverage[j] holds the set of sample indices where feature j is 1;
    labels holds the set of positive sample indices.  full_mask and
    positives are computed once per object; a relabelled copy (made by
    dataclasses.replace) is a new object and computes its own.
    """

    n: int
    coverage: tuple[int, ...]
    labels: int
    feature_names: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InvalidDatasetError("sample count must be non-negative")
        mask = self.full_mask
        if self.labels & ~mask:
            raise InvalidDatasetError("labels reference samples outside 0..n-1")
        for j, cov in enumerate(self.coverage):
            if cov & ~mask:
                raise InvalidDatasetError(
                    f"coverage of feature {j} references samples outside 0..n-1"
                )
        if self.feature_names and len(self.feature_names) != len(self.coverage):
            raise InvalidDatasetError("feature_names must align with coverage")

    @property
    def d(self) -> int:
        return len(self.coverage)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def positives(self) -> int:
        return self.labels.bit_count()

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence[int]],
        labels: Sequence[int],
        feature_names: Sequence[str] = (),
    ) -> "BinaryDataset":
        """Build from a row-major 0/1 matrix and a 0/1 label vector."""
        n = len(rows)
        if len(labels) != n:
            raise InvalidDatasetError("labels must have one entry per row")
        d = len(rows[0]) if n else 0
        coverage = [0] * d
        for i, row in enumerate(rows):
            if len(row) != d:
                raise InvalidDatasetError("ragged rows")
            for j, v in enumerate(row):
                if v:
                    coverage[j] |= 1 << i
        label_bits = bitset_of(i for i, y in enumerate(labels) if y)
        return cls(n, tuple(coverage), label_bits, tuple(feature_names))

    def feature_name(self, j: int) -> str:
        if self.feature_names:
            return self.feature_names[j]
        return f"f{j}"

    def row_masks(self) -> list[int]:
        """Per-sample active-feature bitmasks (transpose of coverage)."""
        masks = [0] * self.n
        for j, cov in enumerate(self.coverage):
            bit = 1 << j
            for i in indices_of(cov):
                masks[i] |= bit
        return masks


def cover_of_rule(dataset: BinaryDataset, rule: Rule) -> int:
    """Samples covered by a rule: the intersection of its features' covers.

    The empty rule covers every sample.
    """
    if rule.features and rule.features[-1] >= dataset.d:
        raise FeatureIndexError(
            f"rule {rule.features} references a feature >= d={dataset.d}"
        )
    cover = dataset.full_mask
    for j in rule.features:
        cover &= dataset.coverage[j]
    return cover


def cover_of_set(dataset: BinaryDataset, rules: Iterable[Rule]) -> int:
    """Samples covered by a rule set: the union of per-rule covers."""
    cover = 0
    for rule in rules:
        cover |= cover_of_rule(dataset, rule)
    return cover


def f1_score(dataset: BinaryDataset, rule_set: RuleSet | Iterable[Rule]) -> float:
    """F1 of a rule set: 2 * |covered positives| / (|covered| + |positives|)."""
    pos_total = dataset.positives
    if pos_total == 0:
        raise InvalidDatasetError("F1 undefined on a dataset with no positives")
    cover = cover_of_set(dataset, rule_set)
    tp = (cover & dataset.labels).bit_count()
    return 2.0 * tp / (cover.bit_count() + pos_total)


@dataclass(frozen=True)
class ObjectiveContext:
    """Evaluation state for one selection iteration.

    Holds the dataset, the accumulated cover of the rules selected so far
    (and its positive part), and the distortion weight applied to the
    positive-coverage gain.
    """

    dataset: BinaryDataset
    cover: int = 0
    cover_pos: int = 0
    alpha: float = 1.0

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.cover_pos != self.cover & self.dataset.labels:
            raise ValueError("cover_pos must equal cover & labels")

    @classmethod
    def from_rules(
        cls, dataset: BinaryDataset, rules: Iterable[Rule], alpha: float = 1.0
    ) -> "ObjectiveContext":
        cover = cover_of_set(dataset, rules)
        return cls(dataset, cover, cover & dataset.labels, alpha)

    def extend(self, rule: Rule) -> "ObjectiveContext":
        cover = self.cover | cover_of_rule(self.dataset, rule)
        return ObjectiveContext(
            self.dataset, cover, cover & self.dataset.labels, self.alpha
        )


def _log_or_neg_inf(count: int) -> float:
    return math.log(count) if count > 0 else -math.inf


def pos_log_gain(ctx: ObjectiveContext, rule: Rule) -> float:
    """Marginal gain of log(covered positives) when adding `rule`.

    Empty current cover contributes a zero base term, so from scratch this
    is log of the rule's positive cover; a rule whose union of positives
    stays empty evaluates to -inf (never selectable).
    """
    rule_pos = cover_of_rule(ctx.dataset, rule) & ctx.dataset.labels
    merged = rule_pos | ctx.cover_pos
    if merged == 0:
        return -math.inf
    base = math.log(ctx.cover_pos.bit_count()) if ctx.cover_pos else 0.0
    return math.log(merged.bit_count()) - base


def cover_log_gain(ctx: ObjectiveContext, rule: Rule) -> float:
    """Marginal gain of log(covered samples + total positives).

    Always finite because the dataset holds at least one positive; the
    empty current cover contributes a zero base term.
    """
    pos_total = ctx.dataset.positives
    merged = cover_of_rule(ctx.dataset, rule) | ctx.cover
    base = math.log(ctx.cover.bit_count() + pos_total) if ctx.cover else 0.0
    return math.log(merged.bit_count() + pos_total) - base


def distorted_gain(ctx: ObjectiveContext, rule: Rule) -> float:
    """alpha-weighted difference of the two marginal log gains."""
    return ctx.alpha * pos_log_gain(ctx, rule) - cover_log_gain(ctx, rule)


def objective_num(ctx: ObjectiveContext, rule: Rule) -> int:
    """Numerator count: |rule's positive cover union current positive cover|."""
    rule_pos = cover_of_rule(ctx.dataset, rule) & ctx.dataset.labels
    return (rule_pos | ctx.cover_pos).bit_count()


def objective_den(ctx: ObjectiveContext, rule: Rule) -> int:
    """Denominator count: |rule cover union current cover| + total positives."""
    merged = cover_of_rule(ctx.dataset, rule) | ctx.cover
    return merged.bit_count() + ctx.dataset.positives


def rule_objective(ctx: ObjectiveContext, rule: Rule) -> float:
    """Single-rule objective alpha*log(num) - log(den).

    Equals the distorted gain up to a constant that does not depend on the
    rule, so both induce the same argmax; -inf when the numerator is zero.
    """
    num = objective_num(ctx, rule)
    den = objective_den(ctx, rule)
    return ctx.alpha * _log_or_neg_inf(num) - math.log(den)


def prefer_rule(candidate: Rule, incumbent: Rule) -> bool:
    """Deterministic tie-break: lexicographically smaller feature tuple wins."""
    return candidate.features < incumbent.features
