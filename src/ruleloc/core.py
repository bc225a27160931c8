"""Set-level data model and objective evaluations for rule-set classifiers.

Coverage sets are plain Python ints used as bitsets (bit i set <=> sample i
is in the set), so every set operation is word-parallel, hashable and
immutable.  A rule is a conjunction of binary features and covers the
intersection of their coverage sets; a rule set predicts positive on the
union of its rules' covers.

A dataset holds its features' covers in one store (Coverage), where each
feature lives in exactly one of two compact forms: a row of packed
little-endian 64-bit words, or, for the features of long threshold
ladders, column bin codes (ColumnCodes): per sample, the bin of each such
column, so that a feature of the column covers one contiguous range of
codes.  A cover int is built from its words or codes on its first read
and kept.  The store serves BinaryDataset.counts, the learner's scan
primitive: |mask & coverage[j]| for every j at once, by one AND of the
words with the mask's words and one popcount, and one histogram of the
codes of the smaller side of the mask: its own samples, or, for a mask of
more than half the samples, the samples outside it, subtracted from the
histogram of all of them.  Relabelled copies of a dataset share its
store.

An ObjectiveContext serves one rule search and counts through a memo:
ObjectiveContext.counts(mask) scans each distinct mask once while its
memo holds fewer than _MEMO_MASKS results, and the memo goes away with
the context.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Optional

import numpy as np

# Two objective values within this tolerance are considered tied and the
# tie is broken by the lexicographically smaller sorted feature tuple.
TIE_EPS = 1e-12

# An ObjectiveContext keeps the counts of at most this many masks, so its
# memo holds at most _MEMO_MASKS * d int64 values (4 MB at d = 3960).
_MEMO_MASKS = 128


class InvalidDatasetError(ValueError):
    """Raised when a dataset cannot be used for the requested operation."""


class FeatureIndexError(ValueError):
    """Raised when a rule references a feature index outside the dataset."""


def _word_bytes(n: int) -> int:
    """Bytes of a bitset of n samples packed into whole 64-bit words."""
    return (n + 63) // 64 * 8


def bitset_of(indices: Iterable[int]) -> int:
    bits = 0
    for i in indices:
        bits |= 1 << i
    return bits


def bitset_of_flags(flags) -> int:
    """The set of positions i where flags[i] is true, from one packbits."""
    bits = np.packbits(np.asarray(flags, dtype=bool), bitorder="little")
    return int.from_bytes(bits.tobytes(), "little")


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


@dataclass(frozen=True, eq=False)
class ColumnCodes:
    """Per-sample bin codes of the columns whose features form threshold ladders.

    bins[i, c] is the code of sample i in coded column c.  Each column's
    codes are shifted by an offset so that all columns share one code
    range 0..size-1; a column's missing values take a code of their own
    that no feature covers.  Feature features[r] belongs to column
    columns[r] and covers exactly the samples whose code there lies in
    lo[r]..stop[r]-1.  These are the only record of the coded features'
    covers, so construction rejects codes whose ranges do not each
    describe one cover of the samples' codes.  Codes compare and hash by
    identity.
    """

    bins: np.ndarray  # (n, coded columns), uint16
    size: int
    features: np.ndarray  # catalog positions of the coded features
    columns: np.ndarray
    lo: np.ndarray
    stop: np.ndarray

    def __post_init__(self) -> None:
        bins = self.bins
        if bins.ndim != 2:
            raise InvalidDatasetError("codes must hold one row per sample")
        if bins.size and not 0 <= bins.min() <= bins.max() < self.size:
            raise InvalidDatasetError(f"codes must lie in 0..{self.size - 1}")
        ranges = (self.features, self.columns, self.lo, self.stop)
        if any(a.ndim != 1 or len(a) != len(self.features) for a in ranges):
            raise InvalidDatasetError("code ranges must align with coded features")
        if not len(self.features):
            return
        if not 0 <= self.columns.min() <= self.columns.max() < bins.shape[1]:
            raise InvalidDatasetError(f"coded columns must lie in 0..{bins.shape[1] - 1}")
        lo, stop = self.lo, self.stop
        if not ((0 <= lo).all() and (lo <= stop).all() and (stop <= self.size).all()):
            raise InvalidDatasetError(f"code ranges must satisfy 0 <= lo <= stop <= {self.size}")

    @classmethod
    def empty(cls, n: int) -> "ColumnCodes":
        """The codes of no column over n samples."""
        none = np.zeros(0, dtype=np.intp)
        return cls(np.zeros((n, 0), dtype=np.uint16), 0, none, none, none, none)

    @cached_property
    def histogram(self) -> np.ndarray:
        """How many codes of all samples take each value 0..size-1."""
        return np.bincount(self.bins.ravel(), minlength=self.size)

    def counts(self, mask: np.ndarray) -> np.ndarray:
        """|mask & cover of features[r]| for every r; mask is a set of samples
        as packed little-endian words, from one histogram of the codes of the
        smaller side of the mask: a mask of more than half the samples is
        counted as the histogram of all samples minus that of the rest."""
        if not self.size:
            return np.zeros(0, dtype=np.int64)
        n = len(self.bins)
        larger = 2 * int(np.bitwise_count(mask).sum()) > n
        # The bits of ~mask at or past n are cut off by unpackbits' count.
        side = (~mask if larger else mask).view(np.uint8)
        side = np.unpackbits(side, count=n, bitorder="little")
        hist = np.bincount(self.bins[np.flatnonzero(side)].ravel(), minlength=self.size)
        if larger:
            hist = self.histogram - hist
        cum = np.zeros(self.size + 1, dtype=np.int64)
        np.cumsum(hist, out=cum[1:])
        return cum[self.stop] - cum[self.lo]

    def cover(self, r: int) -> int:
        """The cover of features[r] as a bitset int, built from the codes."""
        codes = self.bins[:, self.columns[r]]
        return bitset_of_flags((codes >= self.lo[r]) & (codes < self.stop[r]))


class Coverage(Sequence):
    """The covers of a dataset's d features over n samples, each held once,
    as a read-only sequence of ints.

    Feature uncoded[r] is row r of words, whose bit i (bit i % 64 of word
    i // 64) is sample i; every other feature is held as its codes.
    Construction checks that the two parts partition the features 0..d-1,
    that no word sets a bit at or past n and that the codes hold n rows.
    store[j] builds feature j's cover int from its words or codes on its
    first read and keeps it, so the datasets sharing a store (the
    relabelled copies of one transform) build it once.
    """

    def __init__(self, n: int, uncoded: np.ndarray, words: np.ndarray, codes: ColumnCodes):
        d = len(uncoded) + len(codes.features)
        held = np.bincount(np.concatenate((uncoded, codes.features)), minlength=d)[:d]
        wrong = np.flatnonzero(held != 1)
        if wrong.size:
            where = "more than once" if held[wrong[0]] else "nowhere"
            raise InvalidDatasetError(f"feature {wrong[0]} is held {where}")
        if words.shape != (len(uncoded), _word_bytes(n) // 8):
            raise InvalidDatasetError("words must hold ceil(n / 64) words per uncoded feature")
        # Bits at or past n can only be set in the last word, above bit n % 64.
        past = np.flatnonzero(words[:, -1] >> n % 64) if n % 64 else []
        if len(past):
            j = uncoded[past[0]]
            raise InvalidDatasetError(f"coverage of feature {j} references samples outside 0..n-1")
        if len(codes.bins) != n:
            raise InvalidDatasetError("codes must hold one row per sample")
        self.n, self.uncoded, self.words, self.codes = n, uncoded, words, codes
        self._covers: list[Optional[int]] = [None] * d
        # Feature j is row home[j] of words if home[j] >= 0, else codes
        # feature ~home[j].
        self._home = np.empty(d, dtype=np.intp)
        self._home[uncoded] = np.arange(len(uncoded))
        self._home[codes.features] = ~np.arange(len(codes.features))

    @classmethod
    def packed(
        cls, n: int, d: int, blocks: Iterable[tuple[np.ndarray, np.ndarray]], codes: ColumnCodes
    ) -> "Coverage":
        """The store of d features: the codes' features, and every other one
        in the (positions, block) pairs, where block[r, i] is whether feature
        positions[r] covers sample i.  Each block is packed into its rows of
        one word matrix as it comes."""
        uncoded = np.zeros(d - len(codes.features), dtype=np.intp)
        words = np.zeros((len(uncoded), _word_bytes(n)), dtype=np.uint8)
        r = 0
        for positions, block in blocks:
            uncoded[r : r + len(block)] = positions
            packed = np.packbits(block, axis=1, bitorder="little")
            words[r : r + len(block), : packed.shape[1]] = packed
            r += len(block)
        return cls(n, uncoded, words.view("<u8"), codes)

    @classmethod
    def of_ints(cls, n: int, covers: Iterable[int]) -> "Coverage":
        """The store of cover ints, each a set within 0..n-1, kept as given."""
        covers, size, full = list(covers), _word_bytes(n), (1 << n) - 1
        for j, cover in enumerate(covers):
            if not 0 <= cover <= full:
                raise InvalidDatasetError(
                    f"coverage of feature {j} references samples outside 0..n-1"
                )
        words = np.frombuffer(b"".join(c.to_bytes(size, "little") for c in covers), "<u8")
        words = words.reshape(len(covers), size // 8)
        store = cls(n, np.arange(len(covers)), words, ColumnCodes.empty(n))
        store._covers = covers
        return store

    def __len__(self) -> int:
        return len(self._covers)

    def __getitem__(self, j: int) -> int:
        cover = self._covers[j]
        if cover is None:
            r = self._home[j]
            if r >= 0:
                cover = int.from_bytes(self.words[r].tobytes(), "little")
            else:
                cover = self.codes.cover(~r)
            self._covers[j] = cover
        return cover


@dataclass(frozen=True, eq=False)
class BinaryDataset:
    """Immutable binary feature matrix with per-feature coverage bitsets.

    coverage[j] holds the set of sample indices where feature j is 1;
    labels holds the set of positive sample indices.  coverage is a
    Coverage store of n samples; a sequence of cover ints given in its
    place is checked and packed into one.  full_mask and positives are
    computed once per object; a relabelled copy (made by
    dataclasses.replace) is a new object and computes its own, but shares
    the store and so every cover it has built.  Datasets and stores
    compare and hash by identity.
    """

    n: int
    coverage: Coverage
    labels: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InvalidDatasetError("sample count must be non-negative")
        # A set within 0..n-1 is a non-negative int no larger than full_mask.
        if not 0 <= self.labels <= self.full_mask:
            raise InvalidDatasetError("labels reference samples outside 0..n-1")
        if not isinstance(self.coverage, Coverage):
            object.__setattr__(self, "coverage", Coverage.of_ints(self.n, self.coverage))
        elif self.coverage.n != self.n:
            raise InvalidDatasetError("the coverage store must hold n samples")

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
    ) -> "BinaryDataset":
        """Build from a row-major 0/1 matrix and a 0/1 label vector."""
        n = len(rows)
        if len(labels) != n:
            raise InvalidDatasetError("labels must have one entry per row")
        d = len(rows[0]) if n else 0
        if any(len(row) != d for row in rows):
            raise InvalidDatasetError("ragged rows")
        matrix = np.array(rows, dtype=bool).reshape(n, d)
        coverage = Coverage.packed(n, d, [(np.arange(d), matrix.T)], ColumnCodes.empty(n))
        return cls(n, coverage, bitset_of_flags(labels))

    def counts(self, mask: int) -> np.ndarray:
        """|mask & coverage[j]| for every feature j, as an int64 array; mask
        is a set of samples in 0..n-1.

        The words are counted by one AND with the mask's words and one
        popcount, the codes by one histogram of the codes of the smaller
        side of the mask (ColumnCodes.counts).
        """
        cov = self.coverage
        m = np.frombuffer(mask.to_bytes(_word_bytes(self.n), "little"), dtype="<u8")
        out = np.empty(self.d, dtype=np.int64)
        out[cov.uncoded] = np.bitwise_count(cov.words & m).sum(axis=1, dtype=np.int64)
        out[cov.codes.features] = cov.codes.counts(m)
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
    positive-coverage gain.  counts(mask) is dataset.counts(mask) through
    a memo of this context: scans is the number of count requests so far,
    counted the number of them that scanned the dataset.
    """

    dataset: BinaryDataset
    cover: int = 0
    cover_pos: int = 0
    alpha: float = 1.0
    scans: int = field(default=0, init=False, compare=False)
    counted: int = field(default=0, init=False, compare=False)
    _memo: dict[int, np.ndarray] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.cover_pos != self.cover & self.dataset.labels:
            raise ValueError("cover_pos must equal cover & labels")

    def counts(self, mask: int) -> np.ndarray:
        """dataset.counts(mask) as a read-only array, scanned once per
        distinct mask while the memo holds fewer than _MEMO_MASKS results;
        past that, each new mask is scanned and not kept."""
        object.__setattr__(self, "scans", self.scans + 1)
        out = self._memo.get(mask)
        if out is None:
            object.__setattr__(self, "counted", self.counted + 1)
            out = self.dataset.counts(mask)
            out.flags.writeable = False
            if len(self._memo) < _MEMO_MASKS:
                self._memo[mask] = out
        return out


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


def rule_objective(ctx: ObjectiveContext, rule: Rule) -> float:
    """Single-rule objective alpha*log(num) - log(den).

    num counts the positives covered by the rule or the current set, and
    den the samples covered by either plus the positive total.  Equals the
    distorted gain up to a constant that does not depend on the rule, so
    both induce the same argmax; -inf when the numerator is zero.
    """
    rule_cover = cover_of_rule(ctx.dataset, rule)
    num = ((rule_cover & ctx.dataset.labels) | ctx.cover_pos).bit_count()
    den = (rule_cover | ctx.cover).bit_count() + ctx.dataset.positives
    return ctx.alpha * _log_or_neg_inf(num) - math.log(den)
