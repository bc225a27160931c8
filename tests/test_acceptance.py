"""Acceptance suite.

One test per acceptance criterion, each asserting its stated tolerance
and time budget and printing a one-line PASS summary (run with -s or -v
to see the lines).  Criterion 8 (public benchmark datasets) is
informational and skipped here: the datasets are not bundled.
"""

import itertools
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

from ruleloc.binarize import DEFAULT_BINS, FeatureSpec, fit, transform
from ruleloc.cli import main, write_csv_columns
from ruleloc.core import (
    BinaryDataset,
    ObjectiveContext,
    Rule,
    RuleSet,
    bitset_of,
    cover_of_set,
    f1_score,
    rule_objective,
)
from ruleloc.evaluate import cohen_kappa, planted_fault_scenario, top_k_accuracy
from ruleloc.generate import (
    NoRuleFound,
    SurrogateState,
    generate_rule,
    numerator_lower_bound,
    surrogate_value,
)
from ruleloc.localize import FaultModel
from ruleloc.select import SelectionConfig, select_rule_set

from conftest import random_dataset
from objectives import distorted_gain, surrogate_offset
from oracle import brute_force_best_ruleset, planted_dataset


def report(criterion: int, text: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS — {text}")


def toy_instance() -> BinaryDataset:
    a = bitset_of(range(10)) | bitset_of([20])
    b = bitset_of(range(10, 20)) | bitset_of([21])
    c = bitset_of(range(18)) | bitset_of(range(22, 27))
    return BinaryDataset(120, (a, b, c), bitset_of(range(20)), ("A", "B", "C"))


def test_criterion_01_toy_walkthrough():
    started = time.perf_counter()
    ds = toy_instance()
    ln10 = math.log(10)
    ctx = ObjectiveContext(ds, alpha=0.5)
    expected = {
        0: 0.5 * math.log10(10) - math.log10(31),
        1: 0.5 * math.log10(10) - math.log10(31),
        2: 0.5 * math.log10(18) - math.log10(43),
    }
    for j, want in expected.items():
        assert distorted_gain(ctx, Rule.of(j)) / ln10 == pytest.approx(want, abs=1e-9)
        assert rule_objective(ctx, Rule.of(j)) / ln10 == pytest.approx(want, abs=1e-9)

    rs = select_rule_set(ds, SelectionConfig(max_rules=2, gamma=1.0, max_len=1))
    assert sorted(r.features for r in rs.rules) == [(0,), (1,)]
    cover = cover_of_set(ds, rs.rules)
    assert (cover & ds.labels).bit_count() == 20
    assert (cover & ~ds.labels & ds.full_mask).bit_count() == 2
    assert abs(f1_score(ds, rs) - 40 / 42) <= 1e-12

    # forcing alpha to 1 (gamma = 0) must pick the broad rule C first
    trace = []
    select_rule_set(
        ds, SelectionConfig(max_rules=2, gamma=0.0, max_len=1), trace=trace.append
    )
    first = [r for r in trace if r.accepted][0]
    assert first.rule.features == (2,)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    report(1, f"toy gains exact, set {{A,B}}, F1=40/42, alpha=1 picks C ({elapsed:.2f}s)")


def test_criterion_02_mm_monotonicity():
    started = time.perf_counter()
    rng = np.random.default_rng(202)
    checked = 0
    for trial in range(100):
        n = int(rng.integers(200, 2001))
        d = int(rng.integers(10, 51))
        ds = random_dataset(rng, n, d, density=float(rng.uniform(0.1, 0.5)),
                            pos_rate=float(rng.uniform(0.02, 0.3)))
        alpha = float(rng.uniform(0.3, 1.0))
        records = []
        try:
            generate_rule(
                ObjectiveContext(ds, alpha=alpha),
                int(rng.integers(2, 7)),
                trace=records.append,
            )
        except NoRuleFound:
            continue
        seq = [r.objective for r in records if r.branch in ("seed", "anchor", "polish")]
        assert len(seq) >= 2
        for a, b in zip(seq, seq[1:]):
            assert b >= a - 1e-9
        checked += 1
    elapsed = time.perf_counter() - started
    assert checked >= 95
    assert elapsed < 30.0
    report(2, f"W non-decreasing across MM iterations on {checked} instances ({elapsed:.1f}s)")


def _sampled_states(rng, count):
    while True:
        ds = random_dataset(rng, int(rng.integers(30, 120)), 10)
        k = int(rng.integers(0, 3))
        base = [
            Rule(tuple(sorted(rng.choice(10, size=int(rng.integers(1, 3)), replace=False).tolist())))
            for _ in range(k)
        ]
        ctx = ObjectiveContext.from_rules(ds, base, alpha=float(rng.uniform(0.3, 1.0)))
        anchor = Rule(tuple(sorted(rng.choice(10, size=int(rng.integers(1, 4)), replace=False).tolist())))
        yield ctx, SurrogateState.build(ctx, anchor)
        count -= 1
        if count <= 0:
            return


def test_criterion_03_bound_correctness():
    rng = np.random.default_rng(303)
    pair_checks = 0
    offset_checks = 0
    for ctx, state in _sampled_states(rng, 250):
        offset = surrogate_offset(state)
        anchor = state.anchor
        for kind in (1, 2):
            assert numerator_lower_bound(state, anchor, kind) == state.num_anchor
            w_anchor = rule_objective(ctx, anchor)
            if math.isfinite(w_anchor):
                v_anchor = surrogate_value(state, anchor, kind)
                assert abs((w_anchor - v_anchor) - offset) <= 1e-9
        for _ in range(5):
            rule = Rule(tuple(sorted(rng.choice(10, size=int(rng.integers(1, 4)), replace=False).tolist())))
            f = (ctx.cover_pos | (ctx.dataset.labels & _rule_cover(ctx, rule))).bit_count()
            for kind in (1, 2):
                bound = numerator_lower_bound(state, rule, kind)
                assert bound <= f + 1e-9
                pair_checks += 1
                v = surrogate_value(state, rule, kind)
                if math.isfinite(v):
                    w = rule_objective(ctx, rule)
                    assert w - v >= offset - 1e-9
                    offset_checks += 1
    assert pair_checks >= 1000
    assert offset_checks >= 1000
    report(3, f"{pair_checks} bound checks, {offset_checks} offset checks all within 1e-9")


def _rule_cover(ctx, rule):
    cover = ctx.dataset.full_mask
    for j in rule.features:
        cover &= ctx.dataset.coverage[j]
    return cover


def test_criterion_04_surrogate_submodularity():
    rng = np.random.default_rng(404)
    checked = 0
    for ctx, state in _sampled_states(rng, 400):
        for _ in range(6):
            perm = rng.permutation(10).tolist()
            small = tuple(sorted(perm[: int(rng.integers(1, 2))]))
            big = tuple(sorted(perm[: int(rng.integers(2, 4))]))
            j = perm[4]
            for kind in (1, 2):
                vals = [
                    surrogate_value(state, Rule(r), kind)
                    for r in (small, small + (j,), big, big + (j,))
                ]
                if not all(math.isfinite(v) for v in vals):
                    continue
                assert vals[1] - vals[0] >= vals[3] - vals[2] - 1e-9
                checked += 1
        if checked >= 1000:
            break
    assert checked >= 1000
    report(4, f"{checked} diminishing-returns checks within 1e-9")


def _swap_improvable(ds, rules, max_len):
    base = f1_score(ds, RuleSet(tuple(rules)))
    candidates = [
        Rule(combo)
        for size in range(1, max_len + 1)
        for combo in itertools.combinations(range(ds.d), size)
    ]
    for i in range(len(rules)):
        others = [r for k, r in enumerate(rules) if k != i]
        for cand in candidates:
            if f1_score(ds, RuleSet(tuple(others + [cand]))) > base + 1e-9:
                return True
    return False


def _criterion5_block(noise_scale, assert_swaps):
    """50 seeded planted instances; returns (ratios, swap_failures)."""
    rng = np.random.default_rng(42)
    ratios = []
    swap_failures = 0
    for seed in range(50):
        n = int(rng.integers(100, 201))
        d = int(rng.integers(8, 13))
        imbalance = float(rng.uniform(4, 20))
        noise = float(rng.uniform(0, 0.05)) * noise_scale
        n_rules, rule_len = [(2, 2), (1, 2), (2, 1)][seed % 3]
        ds, _ = planted_dataset(
            seed=seed, n=n, d=d, imbalance_ratio=imbalance, noise=noise,
            n_rules=n_rules, rule_len=rule_len,
        )
        rs = select_rule_set(ds, SelectionConfig(max_rules=2, gamma=1.0, max_len=3))
        achieved = f1_score(ds, rs)
        _, optimum = brute_force_best_ruleset(ds, 2, 3)
        assert achieved <= optimum + 1e-12  # oracle dominance, always
        ratios.append(achieved / optimum if optimum > 0 else 1.0)
        if _swap_improvable(ds, list(rs.rules), 3):
            swap_failures += 1
    if assert_swaps:
        assert swap_failures == 0
    return ratios, swap_failures


def test_criterion_05_oracle_dominance_and_local_optimality():
    started = time.perf_counter()
    # Noise-free block: swap-local-optimality asserted (see decisions
    # ledger: under label noise the early low-alpha iteration deliberately
    # prefers higher-precision refinements, which can admit an
    # F1-improving swap; noise-free planted instances do not).
    clean_ratios, _ = _criterion5_block(noise_scale=0.0, assert_swaps=True)
    # Noisy block: dominance asserted, ratio reported, swaps measured.
    noisy_ratios, noisy_swaps = _criterion5_block(noise_scale=1.0, assert_swaps=False)
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report(
        5,
        "ratio achieved/optimum: noise-free min=%.4f mean=%.4f (swap-optimal 50/50); "
        "noisy(<=5%%) min=%.4f mean=%.4f (swap-optimal %d/50) (%.1fs)"
        % (
            min(clean_ratios),
            sum(clean_ratios) / len(clean_ratios),
            min(noisy_ratios),
            sum(noisy_ratios) / len(noisy_ratios),
            50 - noisy_swaps,
            elapsed,
        ),
    )


@dataclass
class PipelineArtifacts:
    scenario: object
    train_csv: Path
    model_path: Path
    model_bytes: bytes
    window_csvs: list
    reports: list
    heldout_f1: dict
    fault_hits: int
    service_hits: int
    elapsed: float


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory) -> PipelineArtifacts:
    started = time.perf_counter()
    tmp = tmp_path_factory.mktemp("acceptance")
    scenario = planted_fault_scenario(
        seed=606, n=10000, d=40, imbalance_ratio=50.0, noise=0.05,
        n_fault_types=3, n_services=5, n_windows=100,
    )
    train_csv = tmp / "train.csv"
    write_csv_columns(train_csv, scenario.train_table)
    model_path = tmp / "model.json"
    assert main(
        ["train", "--data", str(train_csv), "--model", str(model_path), "--workers", "1"]
    ) == 0
    model = FaultModel.from_json(model_path.read_text())

    heldout_f1 = {}
    for name in model.fault_types():
        labels = [1 if v == name else 0 for v in scenario.heldout_table["fault_type"]]
        ds = transform(model.binarization, scenario.heldout_table, labels)
        heldout_f1[name] = f1_score(ds, model.rule_set(name))

    window_csvs = []
    reports = []
    fault_hits = 0
    service_hits = 0
    for i, (table, fault, service) in enumerate(scenario.windows):
        wcsv = tmp / f"window{i:03d}.csv"
        write_csv_columns(wcsv, table)
        window_csvs.append(wcsv)
        rpt = tmp / f"report{i:03d}.json"
        main(["localize", "--model", str(model_path), "--data", str(wcsv), "--out", str(rpt)])
        report_obj = json.loads(rpt.read_text())
        reports.append(rpt)
        if report_obj["fault_ranking"][0]["fault_type"] == fault:
            fault_hits += 1
        if report_obj["service_ranking"][0]["service"] == service:
            service_hits += 1
    elapsed = time.perf_counter() - started
    return PipelineArtifacts(
        scenario, train_csv, model_path, model_path.read_bytes(), window_csvs,
        reports, heldout_f1, fault_hits, service_hits, elapsed,
    )


def test_criterion_06_planted_recovery_under_imbalance(pipeline):
    assert pipeline.elapsed < 60.0
    assert min(pipeline.heldout_f1.values()) >= 0.9
    assert pipeline.fault_hits >= 95
    assert pipeline.service_hits >= 95
    report(
        6,
        "held-out F1 min=%.3f, fault A@1 %d/100, service A@1 %d/100 (%.1fs total)"
        % (
            min(pipeline.heldout_f1.values()),
            pipeline.fault_hits,
            pipeline.service_hits,
            pipeline.elapsed,
        ),
    )


def test_criterion_07_determinism(pipeline, tmp_path):
    # toy selection: identical rule sets across repeated runs
    ds = toy_instance()
    sel = SelectionConfig(max_rules=2, gamma=1.0, max_len=1)
    assert select_rule_set(ds, sel) == select_rule_set(ds, sel)

    # MM traces: byte-identical record streams
    rng = np.random.default_rng(707)
    inst = random_dataset(rng, 500, 30)
    traces = []
    for _ in range(2):
        records = []
        generate_rule(
            ObjectiveContext(inst, alpha=0.6),
            4,
            trace=records.append,
        )
        traces.append(records)
    assert traces[0] == traces[1]

    # training: byte-identical model files across reruns and worker counts
    for label, workers in (("rerun", "1"), ("pool", "4")):
        out = tmp_path / f"model_{label}.json"
        assert main(
            [
                "train", "--data", str(pipeline.train_csv), "--model", str(out),
                "--workers", workers,
            ]
        ) == 0
        assert out.read_bytes() == pipeline.model_bytes

    # localization: byte-identical reports on a rerun
    rpt = tmp_path / "report_rerun.json"
    main(
        [
            "localize", "--model", str(pipeline.model_path),
            "--data", str(pipeline.window_csvs[0]), "--out", str(rpt),
        ]
    )
    assert rpt.read_bytes() == pipeline.reports[0].read_bytes()
    report(7, "byte-identical models and reports across reruns and workers {1,4}")


def test_criterion_08_public_benchmarks():
    pytest.skip(
        "informational, not gating: public benchmark datasets are not bundled; "
        "run `ruleloc eval --model ... --manifest ...` against a user-supplied "
        "case manifest to reproduce reported accuracies"
    )


def test_criterion_09_binarizer_contract():
    assert FeatureSpec("x").bins == DEFAULT_BINS == 100
    rng = np.random.default_rng(909)
    for trial in range(100):
        n = int(rng.integers(5, 80))
        values = rng.normal(size=n) * float(rng.uniform(0.1, 1e4))
        missing = rng.random(n) < 0.2
        column = ["" if m else float(v) for v, m in zip(values, missing)]
        if all(missing):
            continue
        bins = int(rng.integers(2, 16))
        model = fit({"x": column}, [FeatureSpec("x", bins=bins)])
        ds = transform(model, {"x": column})
        present = bitset_of(i for i, m in enumerate(missing) if not m)
        for j in range(0, ds.d, 2):
            le, gt = ds.coverage[j], ds.coverage[j + 1]
            assert le & gt == 0
            assert le | gt == present
    report(9, "default bins=100; directional partition exact on 100 random columns")


def test_criterion_10_evaluation_math():
    predictions = ["a"] * 40 + ["b"] * 10 + ["a"] * 20 + ["b"] * 30
    truths = ["a"] * 50 + ["b"] * 50
    p_o = 70 / 100
    p_e = (60 / 100) * (50 / 100) + (40 / 100) * (50 / 100)
    assert abs(cohen_kappa(predictions, truths) - (p_o - p_e) / (1 - p_e)) <= 1e-12

    rng = np.random.default_rng(1010)
    candidates = [f"c{i}" for i in range(8)]
    for _ in range(100):
        k_cases = int(rng.integers(1, 12))
        rankings = [list(rng.permutation(candidates)) for _ in range(k_cases)]
        truths = [candidates[int(rng.integers(0, 8))] for _ in range(k_cases)]
        acc = top_k_accuracy(rankings, truths, 8)
        assert all(a <= b + 1e-15 for a, b in zip(acc, acc[1:]))
    report(10, "kappa matches formula oracle to 1e-12; A@k monotone on 100 rankings")
