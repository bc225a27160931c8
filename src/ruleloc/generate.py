"""Single-rule subproblem solver.

Each selection iteration needs the rule maximizing
``alpha * log(num(r)) - log(den(r))`` over rules of bounded length, where
``num(r)`` counts positives covered by the rule or the current set and
``den(r)`` counts all samples covered plus the positive total.  Finding
the exact maximizer is intractable, so the solver iterates a
minorize-maximize scheme: anchor a surrogate at the current rule, maximize
the surrogate by greedy insertion plus replace/delete local search, and
re-anchor at the best true objective value found.

Two surrogates are built per anchor, one from each of the two modular
lower bounds on the (supermodular, non-increasing) numerator count, both
combined with the tangent-line upper bound on the log-denominator.  The
surrogates are submodular, touch the true objective at the anchor, and are
cheap: the bound part is modular, so only the denominator needs a fresh
count per candidate feature.

One replace/delete search serves both surrogate branches and the final
polish on the true objective; only its value function differs.  Every
scan over candidate features is a count scan: one BinaryDataset.counts
call gives |mask & coverage[j]| for every j, where the mask is built once
per step (the rule's cover outside the current set cover; for the local
search, the rule minus the dropped feature, and its positive part when
the value needs it).  One numpy value function per objective scores every
candidate of a scan at once, and the same function scores the single
rules the scan is compared against.  A scan picks the first candidate
within TIE_EPS of its largest value (see _first_best).

The solver takes two settings: the rule length cap, passed to
generate_rule, and the distortion weight alpha, carried by the
ObjectiveContext.  Its iteration cap and stopping tolerances are fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from ruleloc.core import (
    TIE_EPS,
    ObjectiveContext,
    Rule,
    rule_objective,
)


class NoRuleFound(Exception):
    """No rule can improve the current cover (stop signal for selection)."""


# The MM loop stops after this many iterations, or once an iteration gains
# no more than _IMPROVEMENT_EPS in objective; a replace/delete move commits
# only when it beats the current value by more than _LOCAL_SEARCH_EPS.
_MAX_MM_ITERS = 50
_IMPROVEMENT_EPS = 1e-9
_LOCAL_SEARCH_EPS = 1e-9


@dataclass(frozen=True)
class MMTraceRecord:
    """One diagnostics record per branch per MM iteration."""

    iteration: int
    branch: str  # "seed", "bound1", "bound2" or "anchor"
    rule: Rule
    surrogate: float
    objective: float


@dataclass(frozen=True)
class SurrogateState:
    """Surrogate ingredients anchored at the current rule estimate.

    Caches the anchor's numerator/denominator counts and the per-feature
    numerator marginals that the two modular bounds need:

    * weights[0][j]  num(j | anchor minus j) in the anchor, else
                     num(j | empty rule)
    * weights[1][j]  num(j | all features minus j) in the anchor, else
                     num(j | anchor)

    weights[kind - 1] is the per-feature weight array (read-only int64)
    of bound `kind`.  All marginals are <= 0 because adding a conjunct can
    only shrink the rule's cover.
    """

    ctx: ObjectiveContext
    anchor: Rule
    num_anchor: int
    den_anchor: int
    weights: tuple[np.ndarray, np.ndarray]

    @classmethod
    def build(cls, ctx: ObjectiveContext, anchor: Rule) -> "SurrogateState":
        ds = ctx.dataset
        cov = ds.coverage
        # Only positives outside the set cover move the numerator, so every
        # count below is taken against them and the constant base dropped.
        open_pos = ds.labels & ~ctx.cover_pos
        anchor_cover = ds.full_mask
        for j in anchor.features:
            anchor_cover &= cov[j]
        anchor_pos = anchor_cover & open_pos
        num_anchor = anchor_pos.bit_count() + ctx.cover_pos.bit_count()
        den_anchor = (anchor_cover | ctx.cover).bit_count() + ds.positives

        weights1 = ds.counts(open_pos) - open_pos.bit_count()
        weights2 = ds.counts(anchor_pos) - anchor_pos.bit_count()
        if anchor.features:
            # All features minus j is (non-anchor features) & (anchor minus
            # j); the non-anchor part is shared and usually empties early.
            others = open_pos
            for k in range(ds.d):
                if k not in anchor.features:
                    others &= cov[k]
                    if not others:
                        break
            for j in anchor.features:
                rest = open_pos
                for k in anchor.features:
                    if k != j:
                        rest &= cov[k]
                weights1[j] = anchor_pos.bit_count() - rest.bit_count()
                weights2[j] = (others & anchor_pos).bit_count() - (others & rest).bit_count()
        weights1.flags.writeable = weights2.flags.writeable = False
        return cls(ctx, anchor, num_anchor, den_anchor, (weights1, weights2))

    def bound_weight(self, j: int, kind: int) -> int:
        """Additive contribution of feature j to the modular numerator bound."""
        if kind not in (1, 2):
            raise ValueError("kind must be 1 or 2")
        return int(self.weights[kind - 1][j])

    def bound_base(self, kind: int) -> int:
        """Bound value of the empty rule (all anchor features dropped)."""
        if kind not in (1, 2):
            raise ValueError("kind must be 1 or 2")
        weights = self.weights[kind - 1]
        return self.num_anchor - int(sum(weights[j] for j in self.anchor.features))


def numerator_lower_bound(state: SurrogateState, rule: Rule, kind: int) -> float:
    """Modular lower bound on the numerator count, tight at the anchor."""
    return state.bound_base(kind) + sum(
        state.bound_weight(j, kind) for j in rule.features
    )


def surrogate_value(state: SurrogateState, rule: Rule, kind: int) -> float:
    """Surrogate objective: alpha*log(bound) - den(rule)/den(anchor).

    -inf when the numerator bound is non-positive (the log-domain guard);
    at the anchor this equals alpha*log(num(anchor)) - 1.
    """
    ds = state.ctx.dataset
    new = ds.full_mask & ~state.ctx.cover
    for j in rule.features:
        new &= ds.coverage[j]
    bound = numerator_lower_bound(state, rule, kind)
    return float(_surrogate_of(state, bound, new.bit_count()))


def surrogate_offset(state: SurrogateState) -> float:
    """Constant by which the true objective dominates the surrogate.

    objective(r) >= surrogate(r) + (1 - log den(anchor)) for every rule,
    with equality at the anchor.
    """
    return 1.0 - math.log(state.den_anchor)


def _first_best(values: np.ndarray) -> int:
    """First position within TIE_EPS of the largest value; -1 if all are -inf.

    On values derived from counts, two values within TIE_EPS of each other
    are the same value up to rounding, so this is the position a
    best-so-far scan keeps when a later value must beat the best by more
    than TIE_EPS to take the lead.
    """
    top = values.max(initial=-math.inf)
    if top == -math.inf:
        return -1
    return int(np.argmax(values >= top - TIE_EPS))


def greedy_ratio_seed(ctx: ObjectiveContext, max_len: int) -> Rule:
    """Initial rule: repeatedly add the feature with the best precision ratio.

    The ratio is |newly covered positives| / |newly covered samples| of the
    whole candidate rule relative to the current set cover.  Stops early
    when no feature keeps the newly covered positive mass non-empty; may
    return the empty rule if no single feature covers an uncovered
    positive.  Ties within TIE_EPS go to the smaller index.
    """
    ds = ctx.dataset
    cov = ds.coverage
    new = ds.full_mask & ~ctx.cover  # the rule's cover outside the set cover
    chosen: list[int] = []
    for _ in range(max_len):
        counts = ds.counts(new)
        pos = ds.counts(new & ds.labels)
        hit = pos > 0
        hit[chosen] = False
        ratio = np.full(ds.d, -math.inf)
        ratio[hit] = pos[hit] / counts[hit]
        best_j = _first_best(ratio)
        if best_j < 0:
            break
        chosen.append(best_j)
        new &= cov[best_j]
    return Rule(tuple(chosen))


# A value function maps (bound, count, pos) to rule values, elementwise over
# arrays or on scalars: `bound` is the rule's modular numerator bound,
# `count` the size of its cover outside the set cover and `pos` the
# positives among them.  Each objective reads only the parts it needs.
_ValueFn = Callable[..., np.ndarray]


def _surrogate_of(state: SurrogateState, bound, count, pos=None) -> np.ndarray:
    """surrogate_value from the bound and the count; pos is not used."""
    ctx = state.ctx
    den = count + ctx.cover.bit_count() + ctx.dataset.positives
    vals = ctx.alpha * np.log(np.maximum(bound, 1)) - den / state.den_anchor
    return np.where(bound > 0, vals, -math.inf)


def _objective_of(ctx: ObjectiveContext, bound, count, pos) -> np.ndarray:
    """rule_objective from the count and the positives; bound is not used."""
    num = pos + ctx.cover_pos.bit_count()
    den = count + ctx.cover.bit_count() + ctx.dataset.positives
    vals = ctx.alpha * np.log(np.maximum(num, 1)) - np.log(den)
    return np.where(num > 0, vals, -math.inf)


def _replace_delete(
    ctx: ObjectiveContext,
    features: list[int],
    weights: np.ndarray,
    bound: int,
    value: _ValueFn,
    uses_pos: bool = False,
) -> list[int]:
    """Replace or delete single features while `value` improves by > _LOCAL_SEARCH_EPS.

    For each feature i of the rule, the best move is deleting i (never down
    to the empty rule) or replacing it with a feature j outside the rule;
    value ties within TIE_EPS go to the lexicographically smaller feature
    tuple (sorted for a replacement; for a deletion, the remaining features
    in the rule's current order, which greedy insertion leaves unsorted).
    sorted(rest + [j]) rises with j for j outside the rule, so the first
    best replacement has the smallest key of the tied ones, and only it is
    compared with the deletion.  `bound` is the rule's modular bound and
    weights[j] (an int64 array) feature j's share of it.  The rule's cover
    without i is built once per i, and one count scan of it (two when
    uses_pos says the value needs positives) scores every replacement.
    """
    ds = ctx.dataset
    cov = ds.coverage
    labels = ds.labels
    outside = ds.full_mask & ~ctx.cover
    new = outside
    for k in features:
        new &= cov[k]
    current = value(bound, new.bit_count(), (new & labels).bit_count())
    changed = True
    while changed:
        changed = False
        for i in list(features):
            if i not in features:
                continue
            rest = [k for k in features if k != i]
            rest_new = outside
            for k in rest:
                rest_new &= cov[k]
            rest_bound = bound - int(weights[i])
            counts = ds.counts(rest_new)
            pos = ds.counts(rest_new & labels) if uses_pos else None
            vals = value(rest_bound + weights, counts, pos)
            vals[features] = -math.inf
            best_j = _first_best(vals)
            best_val = vals[best_j] if best_j >= 0 else -math.inf
            if rest:  # deletion allowed, but a rule never shrinks to empty
                drop_val = value(
                    rest_bound, rest_new.bit_count(), (rest_new & labels).bit_count()
                )
                if not (
                    best_val > drop_val + TIE_EPS
                    or (best_val > drop_val - TIE_EPS and sorted(rest + [best_j]) < rest)
                ):
                    best_j, best_val = -1, drop_val  # -1 encodes the deletion
            if best_val > current + _LOCAL_SEARCH_EPS:
                if best_j < 0:
                    features, bound = rest, rest_bound
                else:
                    features = sorted(rest + [best_j])
                    bound = rest_bound + int(weights[best_j])
                current = best_val
                changed = True
    return features


def _branch_search(state: SurrogateState, kind: int, max_len: int) -> Rule:
    """Greedy insertion, then replace/delete search, under surrogate `kind`."""
    ctx = state.ctx
    ds = ctx.dataset
    weights = state.weights[kind - 1]
    value = partial(_surrogate_of, state)
    features: list[int] = []
    bound = state.bound_base(kind)
    new = ds.full_mask & ~ctx.cover
    current = value(bound, new.bit_count())
    while len(features) < max_len:
        vals = value(bound + weights, ds.counts(new))
        vals[features] = -math.inf
        best_j = _first_best(vals)
        # Insert only while the surrogate marginal stays positive; padding
        # a rule with zero-gain conjuncts only hurts interpretability.
        if best_j < 0 or vals[best_j] - current <= 0.0:
            break
        features.append(best_j)
        new &= ds.coverage[best_j]
        bound += int(weights[best_j])
        current = vals[best_j]
    features = _replace_delete(ctx, features, weights, bound, value)
    return Rule(tuple(features))


def _objective_polish(ctx: ObjectiveContext, rule: Rule) -> Rule:
    """Replace/delete single features while the true objective improves.

    Run once on the MM result, this makes the returned rule a 1-swap local
    optimum of the objective itself, not only of the final surrogate (the
    tangent-line denominator bound undervalues cover-growing moves, so a
    surrogate fixpoint can still admit an objective-improving swap).
    """
    features = _replace_delete(
        ctx,
        list(rule.features),
        np.zeros(ctx.dataset.d, dtype=np.int64),
        0,
        partial(_objective_of, ctx),
        uses_pos=True,
    )
    return Rule(tuple(features))


TraceSink = Callable[[MMTraceRecord], None]


def generate_rule(
    ctx: ObjectiveContext,
    max_len: int,
    trace: Optional[TraceSink] = None,
) -> Rule:
    """Approximately maximize the single-rule objective over rules of at
    most max_len features, at the distortion weight ctx.alpha.

    Seeds with the precision-ratio greedy rule, then alternates surrogate
    construction and surrogate maximization; each iteration keeps the best
    of the two branch results and the previous anchor under the true
    objective, so the objective trace is non-decreasing.  A final
    replace/delete pass on the true objective makes the returned rule a
    1-swap local optimum.  trace, if given, receives one MMTraceRecord per
    seed, branch, anchor and changing polish, in that order.  Raises
    ValueError when max_len < 1, and NoRuleFound when every positive is
    already covered or no feature covers a new positive.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    ds = ctx.dataset
    if ds.labels & ~ctx.cover_pos == 0:
        raise NoRuleFound("every positive sample is already covered")
    seed = greedy_ratio_seed(ctx, max_len)
    if not seed.features:
        raise NoRuleFound("no feature covers an uncovered positive sample")

    anchor = seed
    anchor_obj = rule_objective(ctx, anchor)
    if trace:
        trace(MMTraceRecord(0, "seed", anchor, math.nan, anchor_obj))

    for t in range(1, _MAX_MM_ITERS + 1):
        state = SurrogateState.build(ctx, anchor)
        best, best_obj = anchor, anchor_obj
        for kind in (1, 2):
            branch = _branch_search(state, kind, max_len)
            if not branch.features:
                continue
            obj = rule_objective(ctx, branch)
            if trace:
                trace(
                    MMTraceRecord(
                        t, f"bound{kind}", branch, surrogate_value(state, branch, kind), obj
                    )
                )
            if obj > best_obj + TIE_EPS or (
                obj > best_obj - TIE_EPS and branch.features < best.features
            ):
                best, best_obj = branch, obj
        if trace:
            trace(MMTraceRecord(t, "anchor", best, math.nan, best_obj))
        if best == anchor:
            break
        stalled = best_obj - anchor_obj <= _IMPROVEMENT_EPS
        anchor, anchor_obj = best, best_obj
        if stalled:  # early stop: the iteration no longer improves materially
            break
    polished = _objective_polish(ctx, anchor)
    if trace and polished != anchor:
        trace(
            MMTraceRecord(
                _MAX_MM_ITERS + 1,
                "polish",
                polished,
                math.nan,
                rule_objective(ctx, polished),
            )
        )
    return polished
