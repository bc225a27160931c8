"""Reference objectives that only the tests use.

distorted_gain is the paper's marginal gain, which rule_objective equals
up to a rule-independent constant; surrogate_offset is the constant by
which the true objective dominates the MM surrogate.  numerator_lower_bound
and surrogate_value are the paper's modular numerator bound and the
surrogate built on it, evaluated one rule at a time; the learner scores
whole count scans at once, and these are what it is checked against.
"""

import math

from ruleloc.core import ObjectiveContext, Rule, cover_log_gain, pos_log_gain
from ruleloc.generate import SurrogateState, _surrogate_of


def distorted_gain(ctx: ObjectiveContext, rule: Rule) -> float:
    """alpha-weighted difference of the two marginal log gains."""
    return ctx.alpha * pos_log_gain(ctx, rule) - cover_log_gain(ctx, rule)


def surrogate_offset(state: SurrogateState) -> float:
    """Constant by which the true objective dominates the surrogate.

    objective(r) >= surrogate(r) + (1 - log den(anchor)) for every rule,
    with equality at the anchor.
    """
    return 1.0 - math.log(state.den_anchor)


def numerator_lower_bound(state: SurrogateState, rule: Rule, kind: int) -> int:
    """Modular lower bound on the numerator count, tight at the anchor."""
    weights = state.weights[kind - 1]
    return state.bound_base(kind) + int(sum(weights[j] for j in rule.features))


def surrogate_value(state: SurrogateState, rule: Rule, kind: int) -> float:
    """Surrogate objective: alpha*log(bound) - den(rule)/den(anchor).

    -inf when the numerator bound is non-positive (the log-domain guard);
    at the anchor this equals alpha*log(num(anchor)) - 1.  The branch
    search carries the same value along and records it in the trace, so
    this computes through the learner's own _surrogate_of: np.log and
    math.log may differ in the last bit, and the trace tests compare with ==.
    """
    ds = state.ctx.dataset
    new = ds.full_mask & ~state.ctx.cover
    for j in rule.features:
        new &= ds.coverage[j]
    bound = numerator_lower_bound(state, rule, kind)
    return float(_surrogate_of(state, bound, new.bit_count()))
