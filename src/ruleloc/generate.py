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
set operation per candidate feature.

One replace/delete search serves both surrogate branches and the final
polish on the true objective; only its value function differs.  Every
scan scores candidates against masks built once per step: the rule's
cover outside the current set cover (for the local search, the rule
minus the dropped feature), so a candidate costs one AND plus one
popcount per count its value needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from ruleloc.core import (
    TIE_EPS,
    ObjectiveContext,
    Rule,
    rule_objective,
)


class NoRuleFound(Exception):
    """No rule can improve the current cover (stop signal for selection)."""


@dataclass(frozen=True)
class GenerationConfig:
    """Knobs of the subproblem solver.

    max_len caps rule length; alpha is the distortion weight; the eps
    values implement early stopping (a surrogate step must beat the
    incumbent by more than local_search_eps to commit).
    """

    max_len: int = 6
    alpha: float = 1.0
    max_mm_iters: int = 50
    improvement_eps: float = 1e-9
    local_search_eps: float = 1e-9

    def __post_init__(self) -> None:
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.improvement_eps <= 0 or self.local_search_eps <= 0:
            raise ValueError("eps values must be positive")


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

    weights[kind - 1] is the per-feature weight list of bound `kind`.
    All marginals are <= 0 because adding a conjunct can only shrink the
    rule's cover.
    """

    ctx: ObjectiveContext
    anchor: Rule
    num_anchor: int
    den_anchor: int
    drop_penalty: dict[int, int]
    drop_penalty_full: dict[int, int]
    weights: tuple[tuple[int, ...], tuple[int, ...]]

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

        empty_count = open_pos.bit_count()
        anchor_count = anchor_pos.bit_count()
        weights1 = [(open_pos & c).bit_count() - empty_count for c in cov]
        weights2 = [(anchor_pos & c).bit_count() - anchor_count for c in cov]
        for j in anchor.features:
            weights1[j] = drop_penalty[j]
            weights2[j] = drop_penalty_full[j]
        return cls(
            ctx,
            anchor,
            num_anchor,
            den_anchor,
            drop_penalty,
            drop_penalty_full,
            (tuple(weights1), tuple(weights2)),
        )

    def bound_weight(self, j: int, kind: int) -> int:
        """Additive contribution of feature j to the modular numerator bound."""
        if kind not in (1, 2):
            raise ValueError("kind must be 1 or 2")
        return self.weights[kind - 1][j]

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
    return _surrogate_value_fn(state)(numerator_lower_bound(state, rule, kind), new)


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
    """
    ds = ctx.dataset
    cov = ds.coverage
    new = ds.full_mask & ~ctx.cover  # the rule's cover outside the set cover
    chosen: list[int] = []
    for _ in range(max_len):
        new_pos = new & ds.labels
        best_j = -1
        best_ratio = -1.0
        for j in range(ds.d):
            if j in chosen:
                continue
            cand_pos = new_pos & cov[j]
            if cand_pos == 0:
                continue
            ratio = cand_pos.bit_count() / (new & cov[j]).bit_count()
            if ratio > best_ratio + TIE_EPS:
                best_ratio, best_j = ratio, j
        if best_j < 0:
            break
        chosen.append(best_j)
        new &= cov[best_j]
    return Rule(tuple(chosen))


# A value function scores a rule from its modular numerator bound (0 when
# the value ignores it) and `new`, the rule's cover minus the set cover.
_ValueFn = Callable[[int, int], float]


def _surrogate_value_fn(state: SurrogateState) -> _ValueFn:
    """surrogate_value in (bound, new) form."""
    alpha = state.ctx.alpha
    den_base = state.ctx.cover.bit_count() + state.ctx.dataset.positives
    den_anchor = state.den_anchor

    def value(bound: int, new: int) -> float:
        if bound <= 0:
            return -math.inf
        return alpha * math.log(bound) - (new.bit_count() + den_base) / den_anchor

    return value


def _objective_value_fn(ctx: ObjectiveContext) -> _ValueFn:
    """rule_objective in (bound, new) form; the bound is ignored."""
    alpha = ctx.alpha
    labels = ctx.dataset.labels
    num_base = ctx.cover_pos.bit_count()
    den_base = ctx.cover.bit_count() + ctx.dataset.positives

    def value(bound: int, new: int) -> float:
        num = (new & labels).bit_count() + num_base
        if num == 0:
            return -math.inf
        return alpha * math.log(num) - math.log(new.bit_count() + den_base)

    return value


def _replace_delete(
    ctx: ObjectiveContext,
    features: list[int],
    weights: Sequence[int],
    bound: int,
    value: _ValueFn,
    eps: float,
) -> list[int]:
    """Replace or delete single features while `value` improves by > eps.

    For each feature i of the rule, the best move is deleting i (never down
    to the empty rule) or replacing it with a feature j outside the rule;
    value ties within TIE_EPS go to the lexicographically smaller feature
    tuple (sorted for a replacement; for a deletion, the remaining features
    in the rule's current order, which greedy insertion leaves unsorted).
    `bound` is the rule's modular bound and weights[j] feature j's
    share of it.  The rule's cover without i is built once per i, so a
    candidate costs one AND plus the counts its value function takes.
    """
    cov = ctx.dataset.coverage
    outside = ctx.dataset.full_mask & ~ctx.cover
    new = outside
    for k in features:
        new &= cov[k]
    current = value(bound, new)
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
            rest_bound = bound - weights[i]
            taken = set(features)
            best_val = -math.inf
            best_j: Optional[int] = None  # None encodes "no move", -1 deletion
            best_key: Optional[tuple[int, ...]] = ()  # None: not built yet
            if rest:  # deletion allowed, but a rule never shrinks to empty
                best_val, best_j, best_key = value(rest_bound, rest_new), -1, tuple(rest)
            for j in range(len(cov)):
                if j in taken:
                    continue
                val = value(rest_bound + weights[j], rest_new & cov[j])
                if val > best_val + TIE_EPS:
                    best_val, best_j, best_key = val, j, None
                elif val > best_val - TIE_EPS:
                    key = tuple(sorted(rest + [j]))
                    if best_key is None:
                        best_key = tuple(sorted(rest + [best_j]))
                    if key < best_key:
                        best_val, best_j, best_key = val, j, key
            if best_j is not None and best_val > current + eps:
                if best_j < 0:
                    features, bound = rest, rest_bound
                else:
                    features = sorted(rest + [best_j])
                    bound = rest_bound + weights[best_j]
                current = best_val
                changed = True
    return features


def _branch_search(state: SurrogateState, kind: int, config: GenerationConfig) -> Rule:
    """Greedy insertion, then replace/delete search, under surrogate `kind`."""
    ctx = state.ctx
    cov = ctx.dataset.coverage
    weights = state.weights[kind - 1]
    value = _surrogate_value_fn(state)
    features: list[int] = []
    bound = state.bound_base(kind)
    new = ctx.dataset.full_mask & ~ctx.cover
    current = value(bound, new)
    while len(features) < config.max_len:
        best_j = -1
        best_val = -math.inf
        for j in range(len(cov)):
            if j in features:
                continue
            val = value(bound + weights[j], new & cov[j])
            if val > best_val + TIE_EPS:
                best_val, best_j = val, j
        # Insert only while the surrogate marginal stays positive; padding
        # a rule with zero-gain conjuncts only hurts interpretability.
        if best_j < 0 or best_val - current <= 0.0:
            break
        features.append(best_j)
        new &= cov[best_j]
        bound += weights[best_j]
        current = best_val
    features = _replace_delete(
        ctx, features, weights, bound, value, config.local_search_eps
    )
    return Rule(tuple(features))


def _objective_polish(ctx: ObjectiveContext, rule: Rule, config: GenerationConfig) -> Rule:
    """Replace/delete single features while the true objective improves.

    Run once on the MM result, this makes the returned rule a 1-swap local
    optimum of the objective itself, not only of the final surrogate (the
    tangent-line denominator bound undervalues cover-growing moves, so a
    surrogate fixpoint can still admit an objective-improving swap).
    """
    features = _replace_delete(
        ctx,
        list(rule.features),
        (0,) * ctx.dataset.d,
        0,
        _objective_value_fn(ctx),
        config.local_search_eps,
    )
    return Rule(tuple(features))


TraceSink = Callable[[MMTraceRecord], None]


def generate_rule(
    ctx: ObjectiveContext,
    config: GenerationConfig,
    trace: Optional[TraceSink] = None,
) -> Rule:
    """Approximately maximize the single-rule objective.

    Seeds with the precision-ratio greedy rule, then alternates surrogate
    construction and surrogate maximization; each iteration keeps the best
    of the two branch results and the previous anchor under the true
    objective, so the objective trace is non-decreasing.  A final
    replace/delete pass on the true objective makes the returned rule a
    1-swap local optimum.  Raises NoRuleFound when every positive is
    already covered or no feature covers a new positive.
    """
    ds = ctx.dataset
    if ds.labels & ~ctx.cover_pos == 0:
        raise NoRuleFound("every positive sample is already covered")
    seed = greedy_ratio_seed(ctx, config.max_len)
    if not seed.features:
        raise NoRuleFound("no feature covers an uncovered positive sample")

    anchor = seed
    anchor_obj = rule_objective(ctx, anchor)
    if trace:
        trace(MMTraceRecord(0, "seed", anchor, math.nan, anchor_obj))

    for t in range(1, config.max_mm_iters + 1):
        state = SurrogateState.build(ctx, anchor)
        best, best_obj = anchor, anchor_obj
        for kind in (1, 2):
            branch = _branch_search(state, kind, config)
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
        stalled = best_obj - anchor_obj <= config.improvement_eps
        anchor, anchor_obj = best, best_obj
        if stalled:  # early stop: the iteration no longer improves materially
            break
    polished = _objective_polish(ctx, anchor, config)
    if trace and polished != anchor:
        trace(
            MMTraceRecord(
                config.max_mm_iters + 1,
                "polish",
                polished,
                math.nan,
                rule_objective(ctx, polished),
            )
        )
    return polished
