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
the value needs it).  A numpy twin of the value function then estimates
every candidate's value, and only the candidates that can change the
scan's outcome are scored exactly, in scan order, with the scalar
math.log code (see _scan).  Every decision is taken on those exact
values, so the result is the same as scoring every candidate.  The
greedy seed's precision ratios are exact in numpy already, so it
compares only the ratios that rise above every earlier one.

The solver takes two settings: the rule length cap, passed to
generate_rule, and the distortion weight alpha, carried by the
ObjectiveContext.  Its iteration cap and stopping tolerances are fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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

    * drop_penalty[j]      num(j | anchor minus j)   for j in the anchor
    * drop_penalty_full[j] num(j | all features minus j)  for j in the anchor
    * weights[0][j]        drop_penalty[j] in the anchor, else
                           num(j | empty rule)
    * weights[1][j]        drop_penalty_full[j] in the anchor, else
                           num(j | anchor)

    weights[kind - 1] is the per-feature weight array (read-only int64)
    of bound `kind`.  All marginals are <= 0 because adding a conjunct can
    only shrink the rule's cover.
    """

    ctx: ObjectiveContext
    anchor: Rule
    num_anchor: int
    den_anchor: int
    drop_penalty: dict[int, int]
    drop_penalty_full: dict[int, int]
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

        drop_penalty: dict[int, int] = {}
        drop_penalty_full: dict[int, int] = {}
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
                drop_penalty[j] = anchor_pos.bit_count() - rest.bit_count()
                drop_penalty_full[j] = (others & anchor_pos).bit_count() - (
                    others & rest
                ).bit_count()

        weights1 = ds.counts(open_pos) - open_pos.bit_count()
        weights2 = ds.counts(anchor_pos) - anchor_pos.bit_count()
        for j in anchor.features:
            weights1[j] = drop_penalty[j]
            weights2[j] = drop_penalty_full[j]
        weights1.flags.writeable = weights2.flags.writeable = False
        return cls(
            ctx,
            anchor,
            num_anchor,
            den_anchor,
            drop_penalty,
            drop_penalty_full,
            (weights1, weights2),
        )

    def bound_weight(self, j: int, kind: int) -> int:
        """Additive contribution of feature j to the modular numerator bound."""
        if kind not in (1, 2):
            raise ValueError("kind must be 1 or 2")
        return int(self.weights[kind - 1][j])

    def bound_base(self, kind: int) -> int:
        """Bound value of the empty rule (all anchor features dropped)."""
        if kind not in (1, 2):
            raise ValueError("kind must be 1 or 2")
        penalties = self.drop_penalty if kind == 1 else self.drop_penalty_full
        return self.num_anchor - sum(penalties[j] for j in self.anchor.features)


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
    return _SurrogateValue(state)(bound, new.bit_count(), 0)


def surrogate_offset(state: SurrogateState) -> float:
    """Constant by which the true objective dominates the surrogate.

    objective(r) >= surrogate(r) + (1 - log den(anchor)) for every rule,
    with equality at the anchor.
    """
    return 1.0 - math.log(state.den_anchor)


def greedy_ratio_seed(ctx: ObjectiveContext, max_len: int) -> Rule:
    """Initial rule: repeatedly add the feature with the best precision ratio.

    The ratio is |newly covered positives| / |newly covered samples| of the
    whole candidate rule relative to the current set cover.  Stops early
    when no feature keeps the newly covered positive mass non-empty; may
    return the empty rule if no single feature covers an uncovered
    positive.

    A feature takes the lead when its ratio beats the best by more than
    TIE_EPS, so ties go to the smaller index.  The numpy ratios are exact
    (one IEEE division of counts below 2**53, as int / int), and the best
    never falls more than TIE_EPS below the largest ratio seen, so only a
    ratio above every earlier one is compared.
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
        ratio = np.full(ds.d, -1.0)
        ratio[hit] = pos[hit] / counts[hit]
        prior = np.maximum.accumulate(np.concatenate(([-1.0], ratio[:-1])))
        best_ratio, best_j = -1.0, -1
        for j in np.flatnonzero(ratio > prior).tolist():
            if ratio[j] > best_ratio + TIE_EPS:
                best_ratio, best_j = ratio[j], j
        if best_j < 0:
            break
        chosen.append(best_j)
        new &= cov[best_j]
    return Rule(tuple(chosen))


# The smallest gap below the best value seen that keeps a candidate out of
# an exact scan, relative to that value's magnitude plus one.  It covers
# twice TIE_EPS (a candidate must come within TIE_EPS of the scan's best,
# which lies within TIE_EPS of the best value seen) plus the last-place
# error of np.log against math.log on both values, with a wide margin.
_SLACK = 1e-9


def _visits(approx: np.ndarray, init: float) -> np.ndarray:
    """Positions j with approx[j] > max(init, approx[:j]) - slack, in order."""
    prior = np.maximum.accumulate(np.concatenate(([init], approx[:-1])))
    return np.flatnonzero(approx > prior - _SLACK * (1.0 + np.abs(prior)))


def _scan(
    approx: np.ndarray,
    score: Callable[[int], float],
    best_val: float,
    best_j: Optional[int],
    key_of: Optional[Callable[[int], tuple[int, ...]]] = None,
    best_key: Optional[tuple[int, ...]] = None,
) -> tuple[float, Optional[int]]:
    """Outcome (best value, position) of a best-so-far scan of positions 0..d-1.

    The scan starts from (best_val, best_j).  Position j takes the lead
    when its exact value score(j) beats the best by more than TIE_EPS;
    with key_of, one within TIE_EPS of the best takes it when key_of(j)
    is smaller than the best's key (best_key for the starting position,
    or None to compute it with key_of).  approx[j] estimates score(j) to
    within a few ulps of its magnitude and is -inf exactly where the scan
    skips j or score(j) is -inf.

    Only the positions _visits keeps are scored: any other one lies more
    than 2 * TIE_EPS below the best value seen, which stays within
    TIE_EPS of the scan's best, so it can neither lead nor tie.  A tie
    move can lower the best; if it falls more than TIE_EPS below the
    best value seen, that reasoning fails and the scan is redone over
    every position.
    """
    start = (best_val, best_j, best_key)

    def run(positions: np.ndarray, guard: bool):
        best_val, best_j, best_key = start
        top = best_val
        for j in positions.tolist():
            val = score(j)
            if val > top:
                top = val
            if val > best_val + TIE_EPS:
                best_val, best_j, best_key = val, j, None
            elif key_of is not None and val > best_val - TIE_EPS:
                key = key_of(j)
                if best_key is None:
                    best_key = key_of(best_j)
                if key < best_key:
                    best_val, best_j, best_key = val, j, key
                    if guard and best_val < top - TIE_EPS:
                        return None
        return best_val, best_j

    outcome = run(_visits(approx, best_val), True)
    if outcome is None:
        outcome = run(np.flatnonzero(approx > -math.inf), False)
    return outcome


class _SurrogateValue:
    """surrogate_value from (bound, count of new, count of new positives).

    `new` is the rule's cover minus the set cover; the positive count is
    not used.  batch is the numpy twin, for choosing candidates only.
    """

    uses_pos = False

    def __init__(self, state: SurrogateState) -> None:
        self.alpha = state.ctx.alpha
        self.den_base = state.ctx.cover.bit_count() + state.ctx.dataset.positives
        self.den_anchor = state.den_anchor

    def __call__(self, bound: int, count: int, pos: int) -> float:
        if bound <= 0:
            return -math.inf
        return self.alpha * math.log(bound) - (count + self.den_base) / self.den_anchor

    def batch(self, bounds: np.ndarray, counts: np.ndarray, pos) -> np.ndarray:
        logs = np.log(np.maximum(bounds, 1))
        vals = self.alpha * logs - (counts + self.den_base) / self.den_anchor
        return np.where(bounds > 0, vals, -math.inf)


class _ObjectiveValue:
    """rule_objective from (bound, count of new, count of new positives).

    The bound is not used.  batch is the numpy twin, for choosing
    candidates only.
    """

    uses_pos = True

    def __init__(self, ctx: ObjectiveContext) -> None:
        self.alpha = ctx.alpha
        self.num_base = ctx.cover_pos.bit_count()
        self.den_base = ctx.cover.bit_count() + ctx.dataset.positives

    def __call__(self, bound: int, count: int, pos: int) -> float:
        num = pos + self.num_base
        if num == 0:
            return -math.inf
        return self.alpha * math.log(num) - math.log(count + self.den_base)

    def batch(self, bounds: np.ndarray, counts: np.ndarray, pos: np.ndarray) -> np.ndarray:
        num = pos + self.num_base
        vals = self.alpha * np.log(np.maximum(num, 1)) - np.log(counts + self.den_base)
        return np.where(num > 0, vals, -math.inf)


_ValueFn = _SurrogateValue | _ObjectiveValue


def _replace_delete(
    ctx: ObjectiveContext,
    features: list[int],
    weights: np.ndarray,
    bound: int,
    value: _ValueFn,
) -> list[int]:
    """Replace or delete single features while `value` improves by > _LOCAL_SEARCH_EPS.

    For each feature i of the rule, the best move is deleting i (never down
    to the empty rule) or replacing it with a feature j outside the rule;
    value ties within TIE_EPS go to the lexicographically smaller feature
    tuple (sorted for a replacement; for a deletion, the remaining features
    in the rule's current order, which greedy insertion leaves unsorted).
    `bound` is the rule's modular bound and weights[j] (an int64 array)
    feature j's share of it.  The rule's cover without i is built once per i, and one
    count scan of it (two when the value needs positives) scores every
    replacement.
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
            best_val = -math.inf
            best_j: Optional[int] = None  # None encodes "no move", -1 deletion
            best_key: Optional[tuple[int, ...]] = ()
            if rest:  # deletion allowed, but a rule never shrinks to empty
                count, pos = rest_new.bit_count(), (rest_new & labels).bit_count()
                best_val, best_j, best_key = value(rest_bound, count, pos), -1, tuple(rest)
            counts = ds.counts(rest_new)
            pos_counts = ds.counts(rest_new & labels) if value.uses_pos else counts
            approx = value.batch(rest_bound + weights, counts, pos_counts)
            approx[features] = -math.inf
            best_val, best_j = _scan(
                approx,
                lambda j: value(
                    rest_bound + int(weights[j]), int(counts[j]), int(pos_counts[j])
                ),
                best_val,
                best_j,
                lambda j: tuple(sorted(rest + [j])),
                best_key,
            )
            if best_j is not None and best_val > current + _LOCAL_SEARCH_EPS:
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
    value = _SurrogateValue(state)
    features: list[int] = []
    bound = state.bound_base(kind)
    new = ds.full_mask & ~ctx.cover
    current = value(bound, new.bit_count(), 0)
    while len(features) < max_len:
        counts = ds.counts(new)
        approx = value.batch(bound + weights, counts, None)
        approx[features] = -math.inf
        best_val, best_j = _scan(
            approx,
            lambda j: value(bound + int(weights[j]), int(counts[j]), 0),
            -math.inf,
            -1,
        )
        # Insert only while the surrogate marginal stays positive; padding
        # a rule with zero-gain conjuncts only hurts interpretability.
        if best_j < 0 or best_val - current <= 0.0:
            break
        features.append(best_j)
        new &= ds.coverage[best_j]
        bound += int(weights[best_j])
        current = best_val
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
        _ObjectiveValue(ctx),
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
