import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruleloc import core
from ruleloc.core import (
    BinaryDataset,
    ColumnCodes,
    Coverage,
    FeatureIndexError,
    InvalidDatasetError,
    ObjectiveContext,
    Rule,
    RuleSet,
    bitset_of,
    cover_log_gain,
    cover_of_rule,
    cover_of_set,
    f1_score,
    pos_log_gain,
    rule_objective,
)

from conftest import random_dataset
from objectives import distorted_gain
from oracle import context_from_rules


def indices_of(bits: int) -> list[int]:
    """The set bits of a bitset, lowest first."""
    out = []
    i = 0
    while bits:
        tz = (bits & -bits).bit_length() - 1
        i += tz
        out.append(i)
        bits >>= tz + 1
        i += 1
    return out


def brute_cover(rows, rule):
    """Row-by-row reference for rule coverage."""
    return {i for i, row in enumerate(rows) if all(row[j] for j in rule.features)}


def test_bitset_roundtrip():
    assert indices_of(bitset_of([0, 3, 17])) == [0, 3, 17]
    assert indices_of(0) == []


def test_from_rows_runs_the_readme_example():
    from ruleloc import SelectionConfig, select_rule_set

    rows = [[1, 0, 1], [1, 1, 0], [0, 1, 1], [0, 0, 1], [1, 0, 0], [0, 1, 0]]
    labels = [1, 1, 0, 0, 1, 0]
    ds = BinaryDataset.from_rows(rows, labels)
    assert (ds.n, ds.d, ds.labels) == (6, 3, 0b010011)
    assert tuple(ds.coverage) == (0b010011, 0b100110, 0b001101)
    records = []
    rs = select_rule_set(ds, SelectionConfig(max_rules=4, max_len=6), trace=records.append)
    assert f1_score(ds, rs) == 1.0
    assert [r.features for r in rs.rules] == [(0,)]
    assert records[0].accepted and records[0].rule == rs.rules[0] and records[0].mm


def test_from_rows_rejects_ragged_rows_and_misaligned_labels():
    assert BinaryDataset.from_rows([], []).d == 0
    with pytest.raises(InvalidDatasetError, match="^ragged rows$"):
        BinaryDataset.from_rows([[1, 0], [1]], [1, 0])
    with pytest.raises(InvalidDatasetError, match="^labels must have one entry per row$"):
        BinaryDataset.from_rows([[1, 0], [0, 1]], [1])


def test_empty_rule_covers_everything():
    ds = BinaryDataset(5, (0b10101,), 0b1)
    assert cover_of_rule(ds, Rule()) == (1 << 5) - 1


def test_single_feature_rule_is_identity():
    ds = BinaryDataset(5, (0b10101, 0b00110), 0b1)
    assert cover_of_rule(ds, Rule.of(1)) == 0b00110


def test_rule_cover_matches_hand_enumeration():
    # coverage {0,1}, {1,2}, {1,3}; rule {0,1} -> {1}
    ds = BinaryDataset(4, (0b0011, 0b0110, 0b1010), 0b1)
    assert cover_of_rule(ds, Rule.of(0, 1)) == 0b0010


def test_out_of_range_feature_rejected():
    ds = BinaryDataset(4, (0b0011,), 0b1)
    with pytest.raises(FeatureIndexError):
        cover_of_rule(ds, Rule.of(5))


def test_empty_rule_set_covers_nothing(toy_dataset):
    assert cover_of_set(toy_dataset, []) == 0


def test_toy_set_covers(toy_dataset):
    ds = toy_dataset
    ab = cover_of_set(ds, [Rule.of(0), Rule.of(1)])
    assert (ab & ds.labels).bit_count() == 20
    assert (ab & ~ds.labels & ds.full_mask).bit_count() == 2
    cb = cover_of_set(ds, [Rule.of(2), Rule.of(1)])
    assert (cb & ds.labels).bit_count() == 20
    assert (cb & ~ds.labels & ds.full_mask).bit_count() == 6


def test_toy_f1(toy_dataset):
    assert f1_score(toy_dataset, [Rule.of(0), Rule.of(1)]) == pytest.approx(
        40 / 42, abs=1e-15
    )
    assert f1_score(toy_dataset, [Rule.of(2), Rule.of(1)]) == pytest.approx(
        40 / 46, abs=1e-15
    )
    assert f1_score(toy_dataset, []) == 0.0


@pytest.mark.parametrize("bits", [-1, -8, 1 << 3, (1 << 3) | 1, 1 << 70])
def test_sets_outside_the_samples_are_rejected(bits):
    """A cover or label set is a non-negative int below 1 << n."""
    with pytest.raises(InvalidDatasetError, match="^coverage of feature 1 references"):
        BinaryDataset(3, (0b111, bits), 0)
    with pytest.raises(InvalidDatasetError, match="^labels reference"):
        BinaryDataset(3, (0b111,), bits)


def test_sets_within_the_samples_are_accepted():
    assert BinaryDataset(3, (0, 0b111, 0b101), 0b111).d == 3
    assert BinaryDataset(0, (0,), 0).n == 0


def _codes(
    bins=((0, 3), (1, 4), (2, 5)),
    size=6,
    features=(0, 1, 2),
    columns=(0, 0, 1),
    lo=(0, 1, 3),
    stop=(1, 3, 5),
) -> ColumnCodes:
    """Codes of 3 samples: column 0 takes codes 0..2, column 1 codes 3..5."""
    ranges = map(np.asarray, (features, columns, lo, stop))
    return ColumnCodes(np.array(bins, dtype=np.uint16), size, *ranges)


def _store(codes: ColumnCodes, n: int = 3, uncoded=(), words=()) -> Coverage:
    """A store of the codes and of one row of words per uncoded feature."""
    rows = np.array(words, dtype="<u8").reshape(len(uncoded), (n + 63) // 64)
    return Coverage(n, np.array(uncoded, dtype=np.intp), rows, codes)


def test_covers_are_built_from_codes_on_first_read():
    codes = _codes()
    ds = BinaryDataset(3, _store(codes, uncoded=[3], words=[0b101]), 0b1)
    assert ds.coverage.codes is codes and ds.d == 4
    assert ds.coverage._covers == [None] * 4
    # codes 0, 1, 2 in column 0 and 3, 4, 5 in column 1
    assert [ds.coverage[j] for j in (2, -4, 1)] == [0b011, 0b001, 0b110]
    assert ds.coverage._covers == [0b001, 0b110, 0b011, None]
    assert ds.coverage[3] == 0b101 and ds.coverage[3] is ds.coverage[-1]
    assert tuple(ds.coverage) == (0b001, 0b110, 0b011, 0b101)
    assert ds.counts(0b110).tolist() == [0, 2, 1, 1]
    with pytest.raises(IndexError):
        ds.coverage[4]


@pytest.mark.parametrize(
    "change, message",
    [
        ({"size": 5}, "^codes must lie in 0..4$"),  # bins.max() == size
        ({"lo": (0, 2, 3), "stop": (1, 1, 5)}, "^code ranges must satisfy 0 <= lo <= stop"),
        ({"stop": (1, 3, 7)}, "^code ranges must satisfy 0 <= lo <= stop <= 6$"),
        ({"columns": (0, 2, 1)}, "^coded columns must lie in 0..1$"),
        ({"features": (0, 1, 1)}, "^feature 1 is held more than once$"),
        ({"columns": (0, 0)}, "^code ranges must align with coded features$"),
        ({"bins": (0, 1, 2)}, "^codes must hold one row per sample$"),
    ],
)
def test_malformed_codes_are_rejected(change, message):
    """Codes are the only record of the coded covers, so every range they
    give must be one cover of the samples' codes."""
    with pytest.raises(InvalidDatasetError, match=message):
        BinaryDataset(3, _store(_codes(**change)), 0)


def test_codes_that_do_not_fit_the_dataset_are_rejected():
    """The store's partition check: each feature is held once, as words or
    as codes; no word sets a bit at or past n; the codes hold n rows."""
    codes = _codes()
    assert _store(codes, uncoded=[3], words=[0b111]).n == 3
    partitions = [
        ([0], "^feature 0 is held more than once$"),  # as words and as codes
        ([4], "^feature 3 is held nowhere$"),
        ([3, 3], "^feature 3 is held more than once$"),
    ]
    for uncoded, message in partitions:
        with pytest.raises(InvalidDatasetError, match=message):
            _store(codes, uncoded=uncoded, words=[0] * len(uncoded))
    with pytest.raises(InvalidDatasetError, match="^coverage of feature 3 references"):
        _store(codes, uncoded=[3], words=[0b1000])
    with pytest.raises(InvalidDatasetError, match="^coverage of feature 0 references"):
        _store(ColumnCodes.empty(63), n=63, uncoded=[0], words=[1 << 63])
    top = _store(ColumnCodes.empty(64), n=64, uncoded=[0], words=[1 << 63])
    assert BinaryDataset(64, top, 0).counts(1 << 63).tolist() == [1] and top[0] == 1 << 63
    with pytest.raises(InvalidDatasetError, match="^codes must hold one row per sample$"):
        _store(codes, n=4, uncoded=[3], words=[0])
    with pytest.raises(InvalidDatasetError, match=r"^words must hold ceil\(n / 64\) words per"):
        Coverage(3, np.array([3]), np.zeros((1, 2), dtype="<u8"), codes)
    store = _store(codes, uncoded=[3], words=[0])
    with pytest.raises(InvalidDatasetError, match="^the coverage store must hold n samples$"):
        BinaryDataset(4, store, 0)


def test_codes_compare_and_hash_by_identity():
    codes = ColumnCodes.empty(3)
    assert codes == codes and codes != ColumnCodes.empty(3)
    assert hash(codes) == hash(codes) and len({codes, ColumnCodes.empty(3)}) == 2
    assert _codes() != _codes()


def test_f1_requires_positives():
    ds = BinaryDataset(3, (0b111,), 0)
    with pytest.raises(InvalidDatasetError):
        f1_score(ds, [Rule.of(0)])


def test_pos_log_gain_toy(toy_dataset):
    ctx = ObjectiveContext(toy_dataset)
    assert pos_log_gain(ctx, Rule.of(0)) == pytest.approx(math.log(10), abs=1e-12)


def test_pos_log_gain_no_positives_is_neg_inf():
    ds = BinaryDataset(4, (0b1000,), 0b0001)
    assert pos_log_gain(ObjectiveContext(ds), Rule.of(0)) == -math.inf


def test_pos_log_gain_saturated_is_zero(toy_dataset):
    ctx = context_from_rules(toy_dataset, [Rule.of(0), Rule.of(1)])
    assert pos_log_gain(ctx, Rule.of(2)) == 0.0


def test_cover_log_gain_toy(toy_dataset):
    ctx = ObjectiveContext(toy_dataset)
    assert cover_log_gain(ctx, Rule.of(0)) == pytest.approx(math.log(31), abs=1e-12)
    assert cover_log_gain(ctx, Rule.of(2)) == pytest.approx(math.log(43), abs=1e-12)


def test_cover_log_gain_subset_is_zero(toy_dataset):
    ctx = context_from_rules(toy_dataset, [Rule.of(2)])
    # rule {0, 2} covers a subset of what C already covers
    assert cover_log_gain(ctx, Rule.of(0, 2)) == 0.0


def test_distorted_gain_matches_figure_values(toy_dataset):
    ln10 = math.log(10)
    ctx = ObjectiveContext(toy_dataset, alpha=0.5)
    assert distorted_gain(ctx, Rule.of(0)) / ln10 == pytest.approx(
        0.5 * math.log10(10) - math.log10(31), abs=1e-12
    )
    assert distorted_gain(ctx, Rule.of(2)) / ln10 == pytest.approx(
        0.5 * math.log10(18) - math.log10(43), abs=1e-12
    )
    ctx1 = ObjectiveContext(toy_dataset, alpha=1.0)
    assert distorted_gain(ctx1, Rule.of(2)) / ln10 == pytest.approx(
        math.log10(18 / 43), abs=1e-12
    )


def test_rule_objective_equals_distorted_gain_from_empty(toy_dataset):
    ctx = ObjectiveContext(toy_dataset, alpha=0.5)
    for j in range(3):
        assert rule_objective(ctx, Rule.of(j)) == pytest.approx(
            distorted_gain(ctx, Rule.of(j)), abs=1e-12
        )


def test_rule_objective_empty_rule(toy_dataset):
    # empty conjunction covers everything: alpha=1 gives log(20) - log(140)
    ctx = ObjectiveContext(toy_dataset, alpha=1.0)
    assert rule_objective(ctx, Rule()) == pytest.approx(math.log(1 / 7), abs=1e-12)


def test_objective_counts_against_set_arithmetic():
    rng = np.random.default_rng(5)
    for trial in range(20):
        ds = random_dataset(rng, 40, 8)
        rows = [[(ds.coverage[j] >> i) & 1 for j in range(8)] for i in range(40)]
        base = [Rule.of(int(rng.integers(0, 8)))]
        ctx = context_from_rules(ds, base, alpha=0.7)
        labels = {i for i in range(40) if (ds.labels >> i) & 1}
        base_cover = brute_cover(rows, base[0])
        for _ in range(10):
            rule = Rule(tuple(rng.choice(8, size=2, replace=False).tolist()))
            rc = brute_cover(rows, rule)
            num = len((rc & labels) | (base_cover & labels))
            den = len(rc | base_cover) + len(labels)
            expected = (
                0.7 * math.log(num) - math.log(den) if num else -math.inf
            )
            assert rule_objective(ctx, rule) == pytest.approx(expected, abs=1e-12)


def test_context_invariant_enforced(toy_dataset):
    with pytest.raises(ValueError):
        ObjectiveContext(toy_dataset, cover=0b1, cover_pos=0)


def _mixed_store(rng, n: int) -> Coverage:
    """A store of n samples: three coded columns, each with a last code for
    missing values that no feature covers, and four features held as
    words, at random positions among the coded ones."""
    widths = rng.integers(2, 6, size=3)  # codes of values per column
    offsets = np.concatenate(([0], np.cumsum(widths + 1)[:-1]))
    bins = (offsets + rng.integers(0, widths + 1, size=(n, 3))).astype(np.uint16)
    columns, lo, stop = [], [], []
    for c, (offset, width) in enumerate(zip(offsets, widths)):
        for t in range(1, width):  # the ladder's "<=" and ">" sides
            columns += [c, c]
            lo += [offset, offset + t]
            stop += [offset + t, offset + width]
    d = len(columns) + 4
    order = rng.permutation(d)
    ranges = map(np.asarray, (columns, lo, stop))
    codes = ColumnCodes(bins, int((widths + 1).sum()), order[4:], *ranges)
    return Coverage.packed(n, d, [(order[:4], rng.random((4, n)) < 0.5)], codes)


def _sample_set(rng, n: int, size: int) -> int:
    return bitset_of(rng.choice(n, size=size, replace=False).tolist())


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_counts_of_codes_and_words_equal_popcounts(n):
    """counts(mask) equals the per-feature popcounts whichever side of the
    mask the codes are histogrammed from: masks just under half the
    samples count their own samples, masks just over half the rest."""
    rng = np.random.default_rng(n)
    for _ in range(20):
        ds = BinaryDataset(n, _mixed_store(rng, n), 0)
        masks = [0, _sample_set(rng, n, 1), ds.full_mask]
        masks += [_sample_set(rng, n, n // 2), _sample_set(rng, n, n // 2 + 1)]
        for mask in masks:
            counts = ds.counts(mask)
            assert counts.dtype == np.int64
            assert counts.tolist() == [(mask & c).bit_count() for c in ds.coverage]


def test_context_counts_each_mask_once():
    rng = np.random.default_rng(5)
    ds = BinaryDataset(130, _mixed_store(rng, 130), _sample_set(rng, 130, 20))
    ctx = ObjectiveContext(ds)
    mask = _sample_set(rng, 130, 80)
    first = ctx.counts(mask)
    assert ctx.counts(mask) is first and (ctx.scans, ctx.counted) == (2, 1)
    assert first.tolist() == ds.counts(mask).tolist()
    with pytest.raises(ValueError, match="read-only"):
        first[0] = 1
    fresh = ObjectiveContext(ds)
    assert fresh._memo == {} and (fresh.scans, fresh.counted) == (0, 0)
    assert fresh.counts(mask) is not first and fresh.counted == 1


def test_context_counts_on_a_relabelled_copy():
    rng = np.random.default_rng(6)
    ds = BinaryDataset(65, _mixed_store(rng, 65), _sample_set(rng, 65, 10))
    copy = dataclasses.replace(ds, labels=_sample_set(rng, 65, 30))
    assert copy.coverage is ds.coverage
    ctx, copy_ctx = ObjectiveContext(ds), ObjectiveContext(copy)
    for mask in (ds.labels, copy.labels, ds.full_mask, ds.labels | copy.labels):
        expected = [(mask & c).bit_count() for c in ds.coverage]
        assert ctx.counts(mask).tolist() == copy_ctx.counts(mask).tolist() == expected


def test_context_counts_past_the_memo_cap(monkeypatch):
    """Past the cap, new masks are still counted correctly but not kept."""
    monkeypatch.setattr(core, "_MEMO_MASKS", 2)
    rng = np.random.default_rng(7)
    ds = BinaryDataset(64, _mixed_store(rng, 64), 0)
    ctx = ObjectiveContext(ds)
    masks = [_sample_set(rng, 64, size) for size in (3, 20, 40, 60)]
    for mask in masks + masks:
        counts = ctx.counts(mask)
        assert not counts.flags.writeable
        assert counts.tolist() == [(mask & c).bit_count() for c in ds.coverage]
        assert len(ctx._memo) <= 2
    assert list(ctx._memo) == masks[:2]
    assert (ctx.scans, ctx.counted) == (8, 6)


def test_rule_canonical_form():
    assert Rule.of(3, 1, 3).features == (1, 3)
    assert Rule.of(2, 1) == Rule.of(1, 2)


def test_rule_set_stats_alignment():
    with pytest.raises(ValueError):
        RuleSet((Rule.of(0),), ())


small_instances = st.integers(min_value=0, max_value=2**31 - 1)


@settings(max_examples=60, deadline=None)
@given(seed=small_instances)
def test_monotone_and_submodular_cover_gain(seed):
    """C-style gain has diminishing returns; covers grow with the set."""
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, 30, 6)
    rules = [Rule(tuple(sorted(rng.choice(6, size=int(rng.integers(1, 3)), replace=False).tolist()))) for _ in range(4)]
    small = rules[:1]
    big = rules[:3]
    assert cover_of_set(ds, small) & ~cover_of_set(ds, big) == 0
    extra = rules[3]
    ctx_small = context_from_rules(ds, small)
    ctx_big = context_from_rules(ds, big)
    assert cover_log_gain(ctx_small, extra) >= cover_log_gain(ctx_big, extra) - 1e-9
    # The positive-cover gain is submodular where the true marginals are
    # finite, i.e. once the smaller set already covers a positive (from an
    # empty positive cover the true marginal is +inf, which the reported
    # normalized value replaces by log of the union).
    if ctx_small.cover_pos:
        g_small = pos_log_gain(ctx_small, extra)
        g_big = pos_log_gain(ctx_big, extra)
        if math.isfinite(g_small) and math.isfinite(g_big):
            assert g_small >= g_big - 1e-9


@settings(max_examples=60, deadline=None)
@given(seed=small_instances)
def test_f1_matches_precision_recall_form(seed):
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, 50, 7)
    rules = [Rule(tuple(sorted(rng.choice(7, size=2, replace=False).tolist())))]
    cover = cover_of_set(ds, rules)
    tp = (cover & ds.labels).bit_count()
    if cover.bit_count() == 0 or tp == 0:
        assert f1_score(ds, rules) == 0.0
        return
    precision = tp / cover.bit_count()
    recall = tp / ds.positives
    assert f1_score(ds, rules) == pytest.approx(
        2 * precision * recall / (precision + recall), abs=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(seed=small_instances, base=st.sampled_from([2.0, 10.0, math.e]))
def test_log_base_invariance_of_decisions(seed, base):
    """Scaling the log base rescales gains without changing argmax or sign."""
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, 40, 6)
    ctx = ObjectiveContext(ds, alpha=0.5)
    gains = [distorted_gain(ctx, Rule.of(j)) for j in range(6)]
    scaled = [g / math.log(base) for g in gains]
    finite = [i for i, g in enumerate(gains) if math.isfinite(g)]
    if finite:
        assert max(finite, key=lambda i: gains[i]) == max(
            finite, key=lambda i: scaled[i]
        )
    for g, s in zip(gains, scaled):
        if math.isfinite(g):
            assert (g > 0) == (s > 0)


@settings(max_examples=60, deadline=None)
@given(seed=small_instances)
def test_set_cover_is_union_of_rule_covers(seed):
    rng = np.random.default_rng(seed)
    ds = random_dataset(rng, 30, 5)
    rules = [Rule(tuple(sorted(rng.choice(5, size=int(rng.integers(1, 4)), replace=False).tolist()))) for _ in range(3)]
    union = 0
    for rule in rules:
        union |= cover_of_rule(ds, rule)
    assert cover_of_set(ds, rules) == union


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    # Masks of zero to four 64-bit words, and n on either side of a boundary.
    n=st.integers(0, 200) | st.sampled_from([0, 63, 64, 65, 128]),
    d=st.integers(0, 6),
)
def test_counts_equal_popcounts_across_words(data, n, d):
    """counts(mask) of a dataset without codes equals the per-feature
    popcounts, with padding bits in the last word and n = 0 or d = 0."""
    covers = data.draw(st.lists(st.integers(0, (1 << n) - 1), min_size=d, max_size=d))
    labels = data.draw(st.integers(0, (1 << n) - 1))
    rows = [[(c >> i) & 1 for c in covers] for i in range(n)]
    ds = BinaryDataset.from_rows(rows, [(labels >> i) & 1 for i in range(n)])
    if n:
        assert tuple(ds.coverage) == tuple(covers)
    masks = [0, ds.full_mask, ds.labels, data.draw(st.integers(0, ds.full_mask))]
    if n:
        masks += [1 << (n - 1), ds.full_mask ^ (1 << (n - 1))]
    for mask in masks:
        counts = ds.counts(mask)
        assert counts.dtype == np.int64
        assert counts.tolist() == [(mask & c).bit_count() for c in ds.coverage]
