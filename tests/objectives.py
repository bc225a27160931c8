"""Reference objectives that only the tests use.

distorted_gain is the paper's marginal gain, which rule_objective equals
up to a rule-independent constant; surrogate_offset is the constant by
which the true objective dominates the MM surrogate.
"""

import math

from ruleloc.core import ObjectiveContext, Rule, cover_log_gain, pos_log_gain
from ruleloc.generate import SurrogateState


def distorted_gain(ctx: ObjectiveContext, rule: Rule) -> float:
    """alpha-weighted difference of the two marginal log gains."""
    return ctx.alpha * pos_log_gain(ctx, rule) - cover_log_gain(ctx, rule)


def surrogate_offset(state: SurrogateState) -> float:
    """Constant by which the true objective dominates the surrogate.

    objective(r) >= surrogate(r) + (1 - log den(anchor)) for every rule,
    with equality at the anchor.
    """
    return 1.0 - math.log(state.den_anchor)
