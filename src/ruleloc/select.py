"""Outer rule-set assembly loop.

Builds a rule set of at most K rules by repeatedly solving the single-rule
subproblem under a distortion weight that grows with the iteration index:
early iterations discount the positive-coverage gain (favouring precise
rules), the last iteration weighs it fully (favouring recall).  A
generated rule is kept only if it strictly improves the distorted
objective against the accumulated cover.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from ruleloc.core import (
    BinaryDataset,
    InvalidDatasetError,
    ObjectiveContext,
    Rule,
    RuleSet,
    RuleStats,
    cover_log_gain,
    cover_of_rule,
    pos_log_gain,
)
from ruleloc.generate import MMTraceRecord, NoRuleFound, generate_rule


# The most rules per fault type.  Each outer iteration runs one rule
# search over the whole table, accepted or not, so K sets the run time.
MAX_RULES = 1024


@dataclass(frozen=True)
class SelectionConfig:
    """Outer-loop knobs: rule budget, curvature and max rule length."""

    max_rules: int = 4
    gamma: float = 1.0
    max_len: int = 6

    def __post_init__(self) -> None:
        if self.max_rules < 1:
            raise ValueError("max_rules must be >= 1")
        if self.max_rules > MAX_RULES:
            raise ValueError(f"max_rules must be <= {MAX_RULES}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError("gamma must lie in [0, 1]")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")


def alpha_schedule(max_rules: int, gamma: float) -> list[float]:
    """Distortion weights (1 - gamma/K)^(K-(i+1)) for i = 0..K-1.

    Non-decreasing, ends at exactly 1; gamma = 0 makes every weight 1.
    """
    if max_rules < 1:
        raise ValueError("max_rules must be >= 1")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError("gamma must lie in [0, 1]")
    base = 1.0 - gamma / max_rules
    return [base ** (max_rules - (i + 1)) for i in range(max_rules)]


@dataclass(frozen=True)
class SelectionTraceRecord:
    """Diagnostics for one outer iteration.

    pos_gain and cover_gain are the rule's marginal gains, None when no
    rule was weighed.  scans is the number of count scans the iteration's
    rule search asked for, and counted how many of them it counted; the
    rest repeated a mask the search had already counted.  mm holds the MM
    records of the generate_rule call that produced this iteration's rule
    (empty when it found none).
    """

    iteration: int
    alpha: float
    rule: Optional[Rule]
    accepted: bool
    reason: str
    pos_gain: Optional[float]
    cover_gain: Optional[float]
    scans: int
    counted: int
    mm: tuple[MMTraceRecord, ...]


SelectionTraceSink = Callable[[SelectionTraceRecord], None]


def select_rule_set(
    dataset: BinaryDataset,
    sel: Optional[SelectionConfig] = None,
    trace: Optional[SelectionTraceSink] = None,
) -> RuleSet:
    """Assemble and annotate a rule set for one positive class.

    The acceptance gate compares the distorted marginal gain against zero.
    The first rule generate_rule returns is always accepted: the
    positive-coverage term of an empty set is log(0), so any positive
    coverage is an infinite improvement, and that rule covers a positive.
    Its objective is finite, because the greedy seed covers a positive and
    neither the MM loop nor the polish steps to a lower objective; with an
    empty set cover, a finite objective means a positive is covered.
    Later rules use the exact finite marginals.  A duplicate of an already
    selected rule is always rejected (its true marginal cover is empty).
    trace, if given, receives one record per iteration; MM records are
    built only then.
    """
    sel = sel or SelectionConfig()
    if dataset.positives == 0:
        raise InvalidDatasetError("training requires at least one positive sample")

    rules: list[Rule] = []
    cover = 0
    cover_pos = 0
    for i, alpha in enumerate(alpha_schedule(sel.max_rules, sel.gamma)):
        ctx = ObjectiveContext(dataset, cover, cover_pos, alpha)
        mm: list[MMTraceRecord] = []
        gain_pos = gain_cover = None
        accepted = False
        try:
            rule = generate_rule(ctx, sel.max_len, trace=mm.append if trace else None)
            reason = "duplicate rule" if rule in rules else None
        except NoRuleFound as stop:
            rule, reason = None, str(stop)
        if reason is None:
            gain_pos = pos_log_gain(ctx, rule)
            gain_cover = cover_log_gain(ctx, rule)
            if not rules:
                accepted, reason = True, "first rule covers positives"
            else:
                accepted = alpha * gain_pos - gain_cover > 0.0
                reason = "positive distorted gain" if accepted else "non-positive distorted gain"
        if trace:
            trace(
                SelectionTraceRecord(
                    i,
                    alpha,
                    rule,
                    accepted,
                    reason,
                    gain_pos,
                    gain_cover,
                    ctx.scans,
                    ctx.counted,
                    tuple(mm),
                )
            )
        if accepted:
            rules.append(rule)
            cover |= cover_of_rule(dataset, rule)
            cover_pos = cover & dataset.labels
    return annotate_rule_set(dataset, RuleSet(tuple(rules)))


def annotate_rule_set(dataset: BinaryDataset, rule_set: RuleSet) -> RuleSet:
    """Attach per-rule training precision, recall and covered count."""
    pos_total = dataset.positives
    stats = []
    for rule in rule_set.rules:
        rcover = cover_of_rule(dataset, rule)
        covered = rcover.bit_count()
        tp = (rcover & dataset.labels).bit_count()
        precision = tp / covered if covered else 0.0
        recall = tp / pos_total if pos_total else 0.0
        stats.append(RuleStats(precision, recall, covered))
    return RuleSet(rule_set.rules, tuple(stats))
