import dataclasses
import math
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ruleloc import binarize, select
from ruleloc.binarize import CATEGORICAL, FeatureSpec, fit, relabel, transform
from ruleloc.core import (
    TIE_EPS,
    BinaryDataset,
    ObjectiveContext,
    Rule,
    cover_of_rule,
    rule_objective,
)
from ruleloc.generate import (
    NoRuleFound,
    SurrogateState,
    _branch_search,
    _first_best,
    _objective_polish,
    _replace_delete,
    _surrogate_of,
    generate_rule,
    greedy_ratio_seed,
)
from ruleloc.select import SelectionConfig, select_rule_set

from conftest import random_dataset
from objectives import numerator_lower_bound, surrogate_offset, surrogate_value
from oracle import context_from_rules


def num_reference(ctx, features):
    """Direct set-arithmetic evaluation of the numerator count."""
    rule_pos = cover_of_rule(ctx.dataset, Rule(tuple(features))) & ctx.dataset.labels
    return (rule_pos | ctx.cover_pos).bit_count()


def bound_reference(ctx, anchor, rule, kind):
    """Term-by-term recomputation of the modular numerator bound."""
    full = tuple(range(ctx.dataset.d))
    q1 = [j for j in anchor.features if j not in rule.features]
    q2 = [j for j in rule.features if j not in anchor.features]
    total = num_reference(ctx, anchor.features)
    for j in q1:
        if kind == 1:
            rest = tuple(k for k in anchor.features if k != j)
            total -= num_reference(ctx, rest + (j,)) - num_reference(ctx, rest)
        else:
            rest = tuple(k for k in full if k != j)
            total -= num_reference(ctx, full) - num_reference(ctx, rest)
    for j in q2:
        if kind == 1:
            total += num_reference(ctx, (j,)) - num_reference(ctx, ())
        else:
            total += num_reference(ctx, anchor.features + (j,)) - num_reference(
                ctx, anchor.features
            )
    return total


def random_context(rng, n=50, d=8, alpha=0.7):
    ds = random_dataset(rng, n, d)
    k = int(rng.integers(0, 3))
    base = [
        Rule(tuple(sorted(rng.choice(d, size=int(rng.integers(1, 3)), replace=False).tolist())))
        for _ in range(k)
    ]
    return context_from_rules(ds, base, alpha=alpha)


def random_rule(rng, d, max_len=3):
    size = int(rng.integers(1, max_len + 1))
    return Rule(tuple(sorted(rng.choice(d, size=size, replace=False).tolist())))


def random_context_on(rng, ds, alpha=0.7):
    k = int(rng.integers(0, 3))
    base = [random_rule(rng, ds.d, max_len=2) for _ in range(k)]
    return context_from_rules(ds, base, alpha=alpha)


def test_bound_equals_anchor_value():
    rng = np.random.default_rng(0)
    for _ in range(20):
        ctx = random_context(rng)
        anchor = random_rule(rng, 8)
        state = SurrogateState.build(ctx, anchor)
        for kind in (1, 2):
            assert numerator_lower_bound(state, anchor, kind) == state.num_anchor


def test_bound_matches_term_by_term_reference():
    rng = np.random.default_rng(1)
    for _ in range(30):
        ctx = random_context(rng)
        anchor = random_rule(rng, 8)
        state = SurrogateState.build(ctx, anchor)
        rule = random_rule(rng, 8)
        for kind in (1, 2):
            assert numerator_lower_bound(state, rule, kind) == bound_reference(
                ctx, anchor, rule, kind
            )


def test_bounds_never_exceed_numerator():
    rng = np.random.default_rng(2)
    for _ in range(40):
        ctx = random_context(rng)
        anchor = random_rule(rng, 8)
        state = SurrogateState.build(ctx, anchor)
        for _ in range(15):
            rule = random_rule(rng, 8)
            f = num_reference(ctx, rule.features)
            for kind in (1, 2):
                assert numerator_lower_bound(state, rule, kind) <= f + 1e-9


def test_surrogate_offset_identity():
    """objective - surrogate >= 1 - log(den(anchor)), equality at the anchor."""
    rng = np.random.default_rng(3)
    for _ in range(40):
        ctx = random_context(rng)
        anchor = random_rule(rng, 8)
        state = SurrogateState.build(ctx, anchor)
        offset = surrogate_offset(state)
        for kind in (1, 2):
            v_anchor = surrogate_value(state, anchor, kind)
            w_anchor = rule_objective(ctx, anchor)
            if math.isfinite(w_anchor):
                assert w_anchor - v_anchor == pytest.approx(offset, abs=1e-9)
                assert v_anchor == pytest.approx(
                    ctx.alpha * math.log(state.num_anchor) - 1.0, abs=1e-12
                )
            for _ in range(10):
                rule = random_rule(rng, 8)
                v = surrogate_value(state, rule, kind)
                if v == -math.inf:
                    continue
                w = rule_objective(ctx, rule)
                assert w - v >= offset - 1e-9


def test_surrogate_value_guard_on_nonpositive_bound():
    rng = np.random.default_rng(4)
    found = 0
    for _ in range(300):
        ctx = random_context(rng)
        anchor = random_rule(rng, 8)
        state = SurrogateState.build(ctx, anchor)
        rule = random_rule(rng, 8)
        for kind in (1, 2):
            if numerator_lower_bound(state, rule, kind) <= 0:
                assert surrogate_value(state, rule, kind) == -math.inf
                found += 1
    assert found > 0


def test_surrogate_diminishing_returns():
    """V(j | S) >= V(j | T) for S subset of T, j outside T."""
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 300:
        ctx = random_context(rng, d=8)
        anchor = random_rule(rng, 8)
        state = SurrogateState.build(ctx, anchor)
        perm = rng.permutation(8).tolist()
        small = tuple(sorted(perm[:1]))
        big = tuple(sorted(perm[:3]))
        j = perm[3]
        for kind in (1, 2):
            vals = [
                surrogate_value(state, Rule(r), kind)
                for r in (small, small + (j,), big, big + (j,))
            ]
            if not all(math.isfinite(v) for v in vals):
                continue
            assert vals[1] - vals[0] >= vals[3] - vals[2] - 1e-9
            checked += 1


def test_greedy_ratio_prefers_precise_feature():
    # one feature covering 1 positive / 0 negatives beats one covering
    # many positives with a few negatives (ratio 1.0 vs < 1.0)
    n = 60
    big = (1 << 50) - 1 | (1 << 55) | (1 << 56) | (1 << 57)
    tiny = 1 << 2
    labels = (1 << 50) - 1
    from ruleloc.core import BinaryDataset

    ds = BinaryDataset(n, (big, tiny), labels)
    ctx = ObjectiveContext(ds)
    seed = greedy_ratio_seed(ctx, 1)
    assert seed.features == (1,)


def test_greedy_ratio_perfect_feature():
    from ruleloc.core import BinaryDataset

    labels = 0b111
    ds = BinaryDataset(6, (labels, 0b101010), labels)
    seed = greedy_ratio_seed(ObjectiveContext(ds), 1)
    assert seed.features == (0,)


def test_greedy_ratio_first_pick_matches_exhaustive_scan():
    rng = np.random.default_rng(6)
    for _ in range(25):
        ds = random_dataset(rng, 60, 10)
        ctx = ObjectiveContext(ds)
        best_ratio, best_j = -1.0, -1
        for j in range(10):
            new = cover_of_rule(ds, Rule.of(j))
            new_pos = new & ds.labels
            if new_pos == 0:
                continue
            ratio = new_pos.bit_count() / new.bit_count()
            if ratio > best_ratio + 1e-12:
                best_ratio, best_j = ratio, j
        seed = greedy_ratio_seed(ctx, 1)
        if best_j < 0:
            assert seed.features == ()
        else:
            assert seed.features == (best_j,)


def test_greedy_ratio_all_ties_first_index_wins():
    # Every feature has the same ratio at every step, so each step takes
    # the smallest index not yet chosen.
    ds = BinaryDataset(6, (0b111111,) * 5, 0b010101)
    ctx = ObjectiveContext(ds)
    assert greedy_ratio_seed(ctx, 3) == Rule((0, 1, 2)) == _reference_ratio_seed(ctx, 3)
    # Ties below a strictly better ratio: the first of the best wins.
    ds = BinaryDataset(6, (0b000011, 0b000101, 0b000101, 0b000011, 0b000101), 0b000101)
    ctx = ObjectiveContext(ds)
    assert greedy_ratio_seed(ctx, 1) == Rule((1,)) == _reference_ratio_seed(ctx, 1)


def test_generate_rule_finds_perfect_separator():
    from ruleloc.core import BinaryDataset

    rng = np.random.default_rng(7)
    noise = [int(rng.integers(0, 1 << 40)) for _ in range(5)]
    labels = 0b1111 << 18
    ds = BinaryDataset(40, tuple(noise) + (labels,), labels)
    rule = generate_rule(ObjectiveContext(ds), 3)
    assert rule.features == (5,)


def test_generate_rule_toy_prefers_precise_rules(toy_dataset):
    ctx = ObjectiveContext(toy_dataset, alpha=0.5)
    rule = generate_rule(ctx, 1)
    assert rule.features in ((0,), (1,))


def test_generate_rule_respects_length_cap():
    rng = np.random.default_rng(8)
    for _ in range(20):
        ds = random_dataset(rng, 80, 12)
        for max_len in (1, 2, 3):
            try:
                rule = generate_rule(ObjectiveContext(ds, alpha=0.5), max_len)
            except NoRuleFound:
                continue
            assert 1 <= len(rule.features) <= max_len


def test_generate_rule_monotone_trace():
    rng = np.random.default_rng(9)
    for _ in range(30):
        ds = random_dataset(rng, 120, 15)
        records = []
        try:
            generate_rule(
                ObjectiveContext(ds, alpha=0.6),
                4,
                trace=records.append,
            )
        except NoRuleFound:
            continue
        seq = [
            r.objective for r in records if r.branch in ("seed", "anchor", "polish")
        ]
        for a, b in zip(seq, seq[1:]):
            assert b >= a - 1e-9


def test_branch_records_carry_the_surrogate_at_their_anchor():
    """A bound record's surrogate is surrogate_value on the state built at
    the anchor its branch was searched from; no other record has one."""
    rng = np.random.default_rng(15)
    checked = 0
    for _ in range(40):
        ds = random_dataset(rng, 150, 12, density=0.4)
        ctx = random_context_on(rng, ds, alpha=float(rng.choice([0.4, 0.7, 1.0])))
        records = []
        try:
            generate_rule(ctx, 4, trace=records.append)
        except NoRuleFound:
            continue
        anchor = records[0].rule
        for rec in records:
            if rec.branch in ("bound1", "bound2"):
                state = SurrogateState.build(ctx, anchor)
                assert rec.surrogate == surrogate_value(state, rec.rule, int(rec.branch[-1]))
                checked += 1
            else:
                assert rec.surrogate is None
            if rec.branch == "anchor":
                anchor = rec.rule
    assert checked >= 40


def test_generate_rule_never_below_seed():
    rng = np.random.default_rng(10)
    for _ in range(30):
        ds = random_dataset(rng, 100, 10)
        ctx = ObjectiveContext(ds, alpha=0.8)
        seed = greedy_ratio_seed(ctx, 3)
        if not seed.features:
            continue
        rule = generate_rule(ctx, 3)
        assert rule_objective(ctx, rule) >= rule_objective(ctx, seed) - 1e-9


def test_generate_rule_is_one_swap_local_optimum():
    rng = np.random.default_rng(11)
    for _ in range(15):
        ds = random_dataset(rng, 80, 9)
        ctx = ObjectiveContext(ds, alpha=0.7)
        try:
            rule = generate_rule(ctx, 3)
        except NoRuleFound:
            continue
        best = rule_objective(ctx, rule)
        for i in rule.features:
            rest = tuple(k for k in rule.features if k != i)
            if rest:
                assert rule_objective(ctx, Rule(rest)) <= best + 1e-9
            for j in range(ds.d):
                if j in rule.features:
                    continue
                cand = Rule(tuple(sorted(rest + (j,))))
                assert rule_objective(ctx, cand) <= best + 1e-9


def test_generate_rule_signals_when_saturated(toy_dataset):
    ctx = context_from_rules(toy_dataset, [Rule.of(0), Rule.of(1)])
    with pytest.raises(NoRuleFound):
        generate_rule(ctx, 2)


def test_generate_rule_signals_without_positive_coverage():
    from ruleloc.core import BinaryDataset

    # the only positive (sample 0) is covered by no feature
    ds = BinaryDataset(4, (0b1110, 0b0100), 0b0001)
    with pytest.raises(NoRuleFound):
        generate_rule(ObjectiveContext(ds), 2)


def test_config_validation(toy_dataset):
    with pytest.raises(ValueError):
        generate_rule(ObjectiveContext(toy_dataset), 0)
    with pytest.raises(ValueError):
        ObjectiveContext(toy_dataset, alpha=0.0)


def test_surrogate_build_drop_penalty_full_matches_brute_force():
    """Samples 0 and 1 lie in every feature but one, so the AND of the
    non-anchor features often stays non-empty on the open positives and
    the build scans every feature instead of stopping early."""
    rng = np.random.default_rng(12)
    scanned = nonzero = 0
    for t in range(40):
        ds = random_dataset(rng, 40, 8, density=0.6)
        shared = 1 << 0 | 1 << 1
        cov = [c | shared for c in ds.coverage]
        cov[int(rng.integers(0, 8))] &= ~(1 << 1)
        ds = BinaryDataset(ds.n, tuple(cov), ds.labels | shared)
        ctx = ObjectiveContext(ds, alpha=0.7) if t % 2 else random_context_on(rng, ds)
        anchor = random_rule(rng, 8)
        others = ds.labels & ~ctx.cover_pos
        for k in range(ds.d):
            if k not in anchor.features:
                others &= ds.coverage[k]
        scanned += others != 0
        state = SurrogateState.build(ctx, anchor)
        for j in anchor.features:
            all_but_j = tuple(k for k in range(ds.d) if k != j)
            expected = num_reference(ctx, all_but_j + (j,)) - num_reference(
                ctx, all_but_j
            )
            assert state.weights[1][j] == expected
            nonzero += expected != 0
    assert scanned >= 10
    assert nonzero > 0


# -- the pre-change search loops, kept verbatim as the equivalence oracle ------


@dataclass(frozen=True)
class GenerationConfig:
    """The solver's former settings object; the oracles below read it."""

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


def _ref_num_count(dataset, cover, base_pos):
    return ((cover & dataset.labels) | base_pos).bit_count()


def _ref_den_count(dataset, cover, base_cover):
    return (cover | base_cover).bit_count() + dataset.positives


@dataclass(frozen=True)
class _ReferenceState:
    ctx: ObjectiveContext
    anchor: Rule
    num_anchor: int
    den_anchor: int
    drop_penalty: dict
    drop_penalty_full: dict
    add_gain_empty: tuple
    add_gain_anchor: tuple

    @classmethod
    def build(cls, ctx, anchor):
        ds = ctx.dataset
        cov = ds.coverage
        full = ds.full_mask
        anchor_cover = full
        for j in anchor.features:
            anchor_cover &= cov[j]
        num_anchor = _ref_num_count(ds, anchor_cover, ctx.cover_pos)
        den_anchor = _ref_den_count(ds, anchor_cover, ctx.cover)
        num_empty = _ref_num_count(ds, full, ctx.cover_pos)

        drop_penalty = {}
        drop_penalty_full = {}
        if anchor.features:
            d = ds.d
            prefix = [full] * (d + 1)
            for j in range(d):
                prefix[j + 1] = prefix[j] & cov[j]
            suffix = [full] * (d + 1)
            for j in range(d - 1, -1, -1):
                suffix[j] = suffix[j + 1] & cov[j]
            for j in anchor.features:
                rest = full
                for k in anchor.features:
                    if k != j:
                        rest &= cov[k]
                drop_penalty[j] = num_anchor - _ref_num_count(ds, rest, ctx.cover_pos)
                all_but_j = prefix[j] & suffix[j + 1]
                drop_penalty_full[j] = _ref_num_count(
                    ds, all_but_j & cov[j], ctx.cover_pos
                ) - _ref_num_count(ds, all_but_j, ctx.cover_pos)

        add_gain_empty = tuple(
            _ref_num_count(ds, cov[j], ctx.cover_pos) - num_empty for j in range(ds.d)
        )
        add_gain_anchor = tuple(
            _ref_num_count(ds, anchor_cover & cov[j], ctx.cover_pos) - num_anchor
            for j in range(ds.d)
        )
        return cls(
            ctx,
            anchor,
            num_anchor,
            den_anchor,
            drop_penalty,
            drop_penalty_full,
            add_gain_empty,
            add_gain_anchor,
        )

    def bound_weight(self, j, kind):
        if kind == 1:
            return self.drop_penalty[j] if j in self.drop_penalty else self.add_gain_empty[j]
        return (
            self.drop_penalty_full[j]
            if j in self.drop_penalty_full
            else self.add_gain_anchor[j]
        )

    def bound_base(self, kind):
        penalties = self.drop_penalty if kind == 1 else self.drop_penalty_full
        return self.num_anchor - sum(penalties[j] for j in self.anchor.features)


def _reference_ratio_seed(ctx, max_len):
    ds = ctx.dataset
    rule_cover = ds.full_mask
    chosen = []
    for _ in range(max_len):
        best_j = -1
        best_ratio = -1.0
        for j in range(ds.d):
            if j in chosen:
                continue
            cand = rule_cover & ds.coverage[j]
            new = cand & ~ctx.cover
            new_pos = new & ds.labels
            if new_pos == 0:
                continue
            ratio = new_pos.bit_count() / new.bit_count()
            if ratio > best_ratio + TIE_EPS:
                best_ratio, best_j = ratio, j
        if best_j < 0:
            break
        chosen.append(best_j)
        rule_cover &= ds.coverage[best_j]
    return Rule(tuple(chosen))


class _ReferenceBranchSearch:
    def __init__(self, state, kind, config):
        self.state = state
        self.kind = kind
        self.config = config
        self.ds = state.ctx.dataset
        self.base_cover = state.ctx.cover
        self.features = []
        self.cover = self.ds.full_mask
        self.bound = float(state.bound_base(kind))

    def _value_of(self, bound, cover):
        if bound <= 0:
            return -math.inf
        den = _ref_den_count(self.ds, cover, self.base_cover)
        return self.state.ctx.alpha * math.log(bound) - den / self.state.den_anchor

    def value(self):
        return self._value_of(self.bound, self.cover)

    def greedy_insert(self):
        current = self.value()
        while len(self.features) < self.config.max_len:
            best_j = -1
            best_val = -math.inf
            for j in range(self.ds.d):
                if j in self.features:
                    continue
                val = self._value_of(
                    self.bound + self.state.bound_weight(j, self.kind),
                    self.cover & self.ds.coverage[j],
                )
                if val > best_val + TIE_EPS:
                    best_val, best_j = val, j
            if best_j < 0 or best_val - current <= 0.0:
                break
            self.features.append(best_j)
            self.cover &= self.ds.coverage[best_j]
            self.bound += self.state.bound_weight(best_j, self.kind)
            current = best_val

    def local_search(self):
        eps = self.config.local_search_eps
        changed = True
        while changed:
            changed = False
            for i in list(self.features):
                if i not in self.features:
                    continue
                rest = [k for k in self.features if k != i]
                rest_cover = self.ds.full_mask
                rest_bound = self.state.bound_base(self.kind)
                for k in rest:
                    rest_cover &= self.ds.coverage[k]
                    rest_bound += self.state.bound_weight(k, self.kind)
                current = self.value()
                best_val = -math.inf
                best_j = None
                best_key = ()
                if rest:
                    val = self._value_of(rest_bound, rest_cover)
                    best_val, best_j, best_key = val, -1, tuple(rest)
                for j in range(self.ds.d):
                    if j in self.features:
                        continue
                    val = self._value_of(
                        rest_bound + self.state.bound_weight(j, self.kind),
                        rest_cover & self.ds.coverage[j],
                    )
                    key = tuple(sorted(rest + [j]))
                    if val > best_val + TIE_EPS or (
                        val > best_val - TIE_EPS and key < best_key
                    ):
                        best_val, best_j, best_key = val, j, key
                if best_j is not None and best_val > current + eps:
                    if best_j < 0:
                        self.features = rest
                        self.cover, self.bound = rest_cover, rest_bound
                    else:
                        self.features = sorted(rest + [best_j])
                        self.cover = rest_cover & self.ds.coverage[best_j]
                        self.bound = rest_bound + self.state.bound_weight(
                            best_j, self.kind
                        )
                    changed = True

    def run(self):
        self.greedy_insert()
        self.local_search()
        return Rule(tuple(self.features))


def _reference_objective_polish(ctx, rule, config):
    ds = ctx.dataset
    features = list(rule.features)
    current = rule_objective(ctx, rule)
    changed = True
    while changed:
        changed = False
        for i in list(features):
            if i not in features:
                continue
            rest = tuple(k for k in features if k != i)
            best_val = -math.inf
            best_j = None
            best_key = ()
            if rest:
                best_val, best_j, best_key = rule_objective(ctx, Rule(rest)), -1, rest
            for j in range(ds.d):
                if j in features:
                    continue
                cand = tuple(sorted(rest + (j,)))
                val = rule_objective(ctx, Rule(cand))
                if val > best_val + TIE_EPS or (
                    val > best_val - TIE_EPS and cand < best_key
                ):
                    best_val, best_j, best_key = val, j, cand
            if best_j is not None and best_val > current + config.local_search_eps:
                features = list(best_key)
                current = best_val
                changed = True
    return Rule(tuple(features))


def reference_generate_rule(ctx, config):
    ds = ctx.dataset
    if ds.labels & ~ctx.cover_pos == 0:
        raise NoRuleFound("every positive sample is already covered")
    seed = _reference_ratio_seed(ctx, config.max_len)
    if not seed.features:
        raise NoRuleFound("no feature covers an uncovered positive sample")
    anchor = seed
    anchor_obj = rule_objective(ctx, anchor)
    for _ in range(1, config.max_mm_iters + 1):
        state = _ReferenceState.build(ctx, anchor)
        best, best_obj = anchor, anchor_obj
        for kind in (1, 2):
            branch = _ReferenceBranchSearch(state, kind, config).run()
            if not branch.features:
                continue
            obj = rule_objective(ctx, branch)
            if obj > best_obj + TIE_EPS or (
                obj > best_obj - TIE_EPS and branch.features < best.features
            ):
                best, best_obj = branch, obj
        if best == anchor:
            break
        stalled = best_obj - anchor_obj <= config.improvement_eps
        anchor, anchor_obj = best, best_obj
        if stalled:
            break
    return _reference_objective_polish(ctx, anchor, config)


@st.composite
def search_instances(draw):
    """Small datasets with duplicated columns (exact value ties), a random
    set cover and a distortion weight of at most 1.  An all-ones column
    changes no cover, so replacing a feature by it ties with deleting it."""
    n = draw(st.integers(4, 40))
    full = (1 << n) - 1
    distinct = draw(st.lists(st.integers(0, full), min_size=1, max_size=8))
    if draw(st.booleans()):
        distinct.append(full)
    copies = draw(st.lists(st.sampled_from(distinct), max_size=4))
    columns = draw(st.permutations(distinct + copies))
    labels = draw(st.integers(1, full))
    cover = draw(st.integers(0, full))
    alpha = draw(st.sampled_from([0.3, 0.55, 0.8, 1.0]))
    max_len = draw(st.integers(1, 4))
    ds = BinaryDataset(n, tuple(columns), labels)
    ctx = ObjectiveContext(ds, cover, cover & labels, alpha)
    return ctx, GenerationConfig(max_len=max_len, alpha=alpha)


def _outcome(solver, ctx, setting):
    try:
        return solver(ctx, setting)
    except NoRuleFound as stop:
        return str(stop)


@settings(max_examples=400, deadline=None)
@given(search_instances())
def test_generate_rule_matches_pre_merge_search(instance):
    ctx, config = instance
    assert _outcome(generate_rule, ctx, config.max_len) == _outcome(
        reference_generate_rule, ctx, config
    )


@settings(max_examples=400, deadline=None)
@given(search_instances(), st.booleans())
def test_generated_rule_keeps_the_seed_finite(instance, from_scratch):
    """The seed covers a positive outside the set cover, and neither the MM
    loop nor the polish steps to a lower objective (beyond tie tolerance), so
    the returned rule's objective is finite.  With an empty set cover a finite
    objective means the rule covers a positive, which is why select_rule_set
    accepts its first rule outright.  With a non-empty set cover the rule may
    cover no new positive; the distorted-gain gate rejects such a rule."""
    ctx, config = instance
    if from_scratch:
        ctx = ObjectiveContext(ctx.dataset, alpha=ctx.alpha)
    try:
        rule = generate_rule(ctx, config.max_len)
    except NoRuleFound:
        return
    seed = greedy_ratio_seed(ctx, config.max_len)
    ds = ctx.dataset
    assert cover_of_rule(ds, seed) & ds.labels & ~ctx.cover_pos
    objective = rule_objective(ctx, rule)
    assert objective > -math.inf
    assert objective >= rule_objective(ctx, seed) - 1e-9
    if from_scratch:
        assert cover_of_rule(ds, rule) & ds.labels


def _reference_local_search(state, kind, config, start):
    """The pre-change local search, entered with `start` as if inserted."""
    search = _ReferenceBranchSearch(state, kind, config)
    for j in start:
        search.features.append(j)
        search.cover &= search.ds.coverage[j]
        search.bound += state.bound_weight(j, kind)
    search.local_search()
    return search.features


@settings(max_examples=300, deadline=None)
@given(search_instances(), st.data())
def test_search_pieces_match_pre_merge_loops(instance, data):
    """Branch search, polish and the shared replace/delete search started
    from an unsorted rule (the order greedy insertion leaves) each match
    the pre-change loop; starts far from a local optimum make deletions
    and deletion-versus-replacement ties common."""
    ctx, config = instance
    d = ctx.dataset.d
    start = data.draw(st.lists(st.integers(0, d - 1), min_size=1, max_size=4, unique=True))
    rule = Rule(tuple(start))
    assert greedy_ratio_seed(ctx, config.max_len) == _reference_ratio_seed(
        ctx, config.max_len
    )
    assert _objective_polish(ctx, rule) == _reference_objective_polish(
        ctx, rule, config
    )
    state = SurrogateState.build(ctx, rule)
    ref_state = _ReferenceState.build(ctx, rule)
    for kind in (1, 2):
        branch, value = _branch_search(state, kind, config.max_len)
        assert branch == _ReferenceBranchSearch(ref_state, kind, config).run()
        assert value == surrogate_value(state, branch, kind)
        weights = state.weights[kind - 1]
        got, value = _replace_delete(
            ctx,
            list(start),
            weights,
            state.bound_base(kind) + sum(weights[j] for j in start),
            partial(_surrogate_of, state),
        )
        assert got == _reference_local_search(ref_state, kind, config, start)
        assert value == surrogate_value(state, Rule(tuple(got)), kind)


def test_replace_delete_matches_pre_merge_loop_on_seeded_draws():
    """Many tiny seeded draws with unsorted starts, so that a deletion ties
    with a replacement often enough to pin the deletion's tie key (the
    remaining features in their current, unsorted order)."""
    rng = np.random.default_rng(14)
    for _ in range(1500):
        n = int(rng.integers(4, 40))
        full = (1 << n) - 1
        columns = [int.from_bytes(rng.bytes(8), "little") & full for _ in range(6)]
        columns[int(rng.integers(0, 6))] = full
        columns += [columns[int(k)] for k in rng.integers(0, 6, size=2)]
        labels = int.from_bytes(rng.bytes(8), "little") & full or 1
        cover = int.from_bytes(rng.bytes(8), "little") & full
        ds = BinaryDataset(n, tuple(columns), labels)
        ctx = ObjectiveContext(ds, cover, cover & labels, float(rng.choice([0.5, 1.0])))
        config = GenerationConfig(max_len=4, alpha=ctx.alpha)
        start = [int(j) for j in rng.choice(8, size=int(rng.integers(2, 5)), replace=False)]
        state = SurrogateState.build(ctx, Rule(tuple(start)))
        ref_state = _ReferenceState.build(ctx, Rule(tuple(start)))
        for kind in (1, 2):
            weights = state.weights[kind - 1]
            got, value = _replace_delete(
                ctx,
                list(start),
                weights,
                state.bound_base(kind) + sum(weights[j] for j in start),
                partial(_surrogate_of, state),
            )
            assert got == _reference_local_search(ref_state, kind, config, start)
            assert value == surrogate_value(state, Rule(tuple(got)), kind)


def test_generate_rule_matches_pre_merge_search_on_seeded_draws():
    """Larger seeded draws: non-empty set covers, alpha < 1, tied columns."""
    rng = np.random.default_rng(13)
    compared = 0
    for _ in range(30):
        ds = random_dataset(rng, 150, 10, density=0.4)
        cov = list(ds.coverage)
        cov += [cov[int(k)] for k in rng.choice(10, size=3, replace=False)]
        ds = BinaryDataset(ds.n, tuple(cov), ds.labels)
        ctx = random_context_on(rng, ds, alpha=float(rng.choice([0.4, 0.7, 1.0])))
        config = GenerationConfig(max_len=4, alpha=ctx.alpha)
        got = _outcome(generate_rule, ctx, config.max_len)
        assert got == _outcome(reference_generate_rule, ctx, config)
        compared += isinstance(got, Rule) and ctx.cover != 0 and ctx.alpha < 1
    assert compared >= 5


# -- the learner on column bin codes -------------------------------------------


coded_cells = st.one_of(
    st.integers(-4, 4).map(float),
    st.floats(-3.0, 3.0).map(lambda x: round(x, 1)),
    st.sampled_from([math.nan, math.inf, -math.inf]),
)


@st.composite
def coded_datasets(draw):
    """Transformed tables whose ladders are counted from bin codes: tied and
    missing cells, a categorical column on bitsets, and a cutoff low enough
    that short ladders get codes too."""
    n = draw(st.integers(8, 60))
    table = {c: draw(st.lists(coded_cells, min_size=n, max_size=n)) for c in "xyz"}
    table["s"] = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    bins = draw(st.integers(3, 8))
    specs = [FeatureSpec(c, bins=bins) for c in "xyz"] + [FeatureSpec("s", CATEGORICAL)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = fit(table, specs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(binarize, "_CODED_MIN_THRESHOLDS", draw(st.sampled_from([1, 2])))
        unlabelled = transform(model, table)
    assume(unlabelled.coverage.codes.size)
    labels = draw(st.lists(st.sampled_from([0, 0, 0, 1]), min_size=n, max_size=n))
    assume(any(labels))
    return relabel(unlabelled, labels)


@settings(max_examples=150, deadline=None)
@given(coded_datasets(), st.data())
def test_generate_rule_on_codes_matches_pre_merge_search(ds, data):
    cover = data.draw(st.integers(0, ds.full_mask))
    alpha = data.draw(st.sampled_from([0.3, 0.55, 0.8, 1.0]))
    ctx = ObjectiveContext(ds, cover, cover & ds.labels, alpha)
    config = GenerationConfig(max_len=data.draw(st.integers(1, 4)), alpha=alpha)
    assert _outcome(generate_rule, ctx, config.max_len) == _outcome(
        reference_generate_rule, ctx, config
    )


@settings(max_examples=100, deadline=None)
@given(coded_datasets(), st.integers(1, 4), st.integers(1, 4))
def test_select_rule_set_on_codes_matches_pre_merge_search(ds, max_rules, max_len):
    sel = SelectionConfig(max_rules=max_rules, max_len=max_len)
    got = select_rule_set(ds, sel)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            select,
            "generate_rule",
            lambda ctx, max_len, trace: reference_generate_rule(
                ctx, GenerationConfig(max_len=max_len, alpha=ctx.alpha)
            ),
        )
        expected = select_rule_set(ds, sel)
    assert got == expected


class _UnmemoizedContext(ObjectiveContext):
    """A context whose counts scan the dataset on every request."""

    def counts(self, mask):
        return self.dataset.counts(mask)


def _seeded_coded_dataset(rng, n):
    """A transformed table of three numeric columns with missing cells,
    long enough ladders for bin codes, and a categorical column on words."""
    table = {c: rng.normal(size=n).round(1) for c in "xyz"}
    table["x"][rng.random(n) < 0.1] = math.nan
    table["s"] = rng.choice(list("abc"), size=n).tolist()
    specs = [FeatureSpec(c, bins=12) for c in "xyz"] + [FeatureSpec("s", CATEGORICAL)]
    ds = transform(fit(table, specs), table)
    assert ds.coverage.codes.size
    labels = (table["y"] > 0.8) | (rng.random(n) < 0.05)
    return relabel(ds, labels.astype(int).tolist())


def _selection_records(ds):
    records = []
    rule_set = select_rule_set(ds, SelectionConfig(max_rules=4, max_len=4), records.append)
    return rule_set, records


def test_select_rule_set_with_the_memo_matches_counting_every_scan(monkeypatch):
    """The memo only spares repeated scans: rule sets and MM records are the
    same as from a context that counts every request."""
    rng = np.random.default_rng(24)
    draws = [_seeded_coded_dataset(rng, int(rng.integers(60, 300))) for _ in range(20)]
    draws += [random_dataset(rng, int(rng.integers(30, 200)), 12, density=0.4) for _ in range(20)]
    memo = [_selection_records(ds) for ds in draws]
    monkeypatch.setattr(select, "ObjectiveContext", _UnmemoizedContext)
    for ds, (rule_set, records) in zip(draws, memo):
        expected_set, expected = _selection_records(ds)
        assert rule_set == expected_set
        for record in records:
            assert record.counted <= record.scans
        unscanned = [dataclasses.replace(r, scans=0, counted=0) for r in records]
        assert unscanned == expected
    saved = sum(r.scans - r.counted for _, records in memo for r in records)
    assert saved > 0


# -- the tie rule ----------------------------------------------------------------


def test_first_best_takes_the_first_index_of_a_tie():
    assert _first_best(np.array([1.0, 3.0, 2.0, 3.0])) == 1
    assert _first_best(np.array([-math.inf, 0.5, 0.5])) == 1


def test_first_best_counts_a_value_within_tie_eps_as_a_tie():
    values = np.array([0.0, 2.0 - 0.5 * TIE_EPS, 2.0, 2.0 - 3 * TIE_EPS])
    assert _first_best(values) == 1
    assert _first_best(np.array([2.0 - 3 * TIE_EPS, 2.0])) == 1


def test_first_best_of_all_minus_inf_is_minus_one():
    assert _first_best(np.full(4, -math.inf)) == -1
    assert _first_best(np.array([])) == -1


@given(
    st.lists(st.integers(0, 30), max_size=6, unique=True),
    st.integers(0, 30),
    st.integers(0, 30),
)
def test_replacement_key_rises_with_the_replacement(rest, j, k):
    """sorted(rest + [j]) < sorted(rest + [k]) for j < k outside rest, so the
    first tied replacement has the smallest tie key."""
    assume(j < k and j not in rest and k not in rest)
    assert sorted(rest + [j]) < sorted(rest + [k])
