"""Set-level data model and objective evaluations for rule-set classifiers.

Coverage sets are plain Python ints used as bitsets (bit i set <=> sample i
is in the set), so every set operation is word-parallel, hashable and
immutable.  A rule is a conjunction of binary features and covers the
intersection of their coverage sets; a rule set predicts positive on the
union of its rules' covers.

Next to the bitsets, a dataset may carry column bin codes (ColumnCodes):
per sample, the bin of each threshold-ladder column, so that a feature
of such a column covers one contiguous range of codes.  They serve
BinaryDataset.counts, the learner's scan primitive: |mask & coverage[j]|
for every j at once, from one histogram of the mask's codes instead of
one AND and popcount per feature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

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
class ColumnCodes:
    """Per-sample bin codes of the columns whose features form threshold ladders.

    bins[i, c] is the code of sample i in coded column c.  Each column's
    codes are shifted by an offset so that all columns share one code
    range 0..size-1; a column's missing values take a code of their own
    that no feature covers.  Feature features[r] covers exactly the
    samples whose code in its column lies in lo[r]..stop[r]-1.
    """

    bins: np.ndarray  # (n, coded columns), uint16
    size: int
    features: np.ndarray  # catalog positions of the coded features
    lo: np.ndarray
    stop: np.ndarray

    def counts(self, indices: np.ndarray) -> np.ndarray:
        """|samples in `indices` covered by features[r]| for every r."""
        hist = np.bincount(self.bins[indices].ravel(), minlength=self.size)
        cum = np.zeros(self.size + 1, dtype=np.int64)
        np.cumsum(hist, out=cum[1:])
        return cum[self.stop] - cum[self.lo]


@dataclass(frozen=True)
class BinaryDataset:
    """Immutable binary feature matrix with per-feature coverage bitsets.

    coverage[j] holds the set of sample indices where feature j is 1;
    labels holds the set of positive sample indices.  full_mask and
    positives are computed once per object; a relabelled copy (made by
    dataclasses.replace) is a new object and computes its own.  codes,
    when present, describes the same coverage of some features as bin
    code ranges (see ColumnCodes); it only makes counts faster.
    """

    n: int
    coverage: tuple[int, ...]
    labels: int
    feature_names: tuple[str, ...] = ()
    codes: Optional[ColumnCodes] = field(default=None, compare=False, repr=False)

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
        codes = self.codes
        if codes is not None:
            if codes.bins.ndim != 2 or codes.bins.shape[0] != self.n:
                raise InvalidDatasetError("codes must hold one row per sample")
            if not len(codes.features) == len(codes.lo) == len(codes.stop):
                raise InvalidDatasetError("code ranges must align with coded features")
            features = codes.features
            if len(features) and not 0 <= features.min() <= features.max() < self.d:
                raise InvalidDatasetError("coded features must lie in 0..d-1")

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

    @cached_property
    def _uncoded(self) -> list[int]:
        """Features outside the codes (every feature without codes), which
        counts takes by popcount."""
        if self.codes is None:
            return list(range(self.d))
        return np.setdiff1d(np.arange(self.d), self.codes.features).tolist()

    def counts(self, mask: int) -> np.ndarray:
        """|mask & coverage[j]| for every feature j, as an int64 array.

        Coded features are counted from one histogram of the codes of the
        mask's samples; the rest by one AND and popcount each.
        """
        coverage, uncoded = self.coverage, self._uncoded
        out = np.empty(self.d, dtype=np.int64)
        if self.codes is not None:
            bits = np.frombuffer(mask.to_bytes((self.n + 7) // 8, "little"), dtype=np.uint8)
            indices = np.flatnonzero(np.unpackbits(bits, count=self.n, bitorder="little"))
            out[self.codes.features] = self.codes.counts(indices)
        out[uncoded] = [(mask & coverage[j]).bit_count() for j in uncoded]
        return out


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
