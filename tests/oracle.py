"""The exhaustive F1 oracle and the planted data it is checked on.

Only the tests and scripts/planted_benchmark.py use them:
brute_force_best_ruleset is the acceptance oracle the learner must never
beat, planted_dataset draws binary datasets whose positives are exactly
a known DNF, and planted_fault_scenario draws seeded multi-fault
telemetry tables with labelled incident windows for end-to-end runs.

oracle_feature_matrix and oracle_localization_report are the window
binarizer and scorer that one comparison per column and one vote loop per
fault type gave, kept (with their helpers) so that the layout-driven
feature_matrix and localization_report are checked against them bit for
bit; ranked_report builds a report from per-name scores and explanations.

context_from_rules and write_csv_columns build test inputs: an objective
context from the rules selected so far, and a CSV file from a table.
"""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, MutableMapping, Optional, Sequence

import numpy as np

from ruleloc.binarize import CATEGORICAL, BinarizationModel, _row_count, numeric_column
from ruleloc.core import (
    BinaryDataset,
    InvalidDatasetError,
    ObjectiveContext,
    Rule,
    RuleSet,
    cover_of_set,
)
from ruleloc import SCHEMA_VERSION, __version__
from ruleloc.localize import FaultModel, QueryWindow


def context_from_rules(
    dataset: BinaryDataset, rules: Iterable[Rule], alpha: float = 1.0
) -> ObjectiveContext:
    """The objective context after selecting `rules`."""
    cover = cover_of_set(dataset, rules)
    return ObjectiveContext(dataset, cover, cover & dataset.labels, alpha)


def write_csv_columns(path: str | Path, table: Mapping[str, Sequence]) -> None:
    """Write a column-oriented table as a CSV file with a header row."""
    names = list(table)
    n = len(table[names[0]]) if names else 0
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for i in range(n):
            writer.writerow([table[name][i] for name in names])


class BudgetExceededError(ValueError):
    """Instance too large for the exhaustive oracle."""


_ORACLE_LIMITS = {"d": 12, "max_len": 3, "max_rules": 2, "n": 200}


def brute_force_best_ruleset(
    dataset: BinaryDataset, max_rules: int, max_len: int
) -> tuple[RuleSet, float]:
    """Exhaustively find the F1-optimal rule set on a small instance.

    Enumerates every rule of length <= max_len and every rule set of size
    <= max_rules; F1 is recomputed from raw confusion counts here so the
    oracle shares no scoring path with the learner.  Refuses instances
    beyond d=12, l=3, K=2, n=200.
    """
    if dataset.positives == 0:
        raise InvalidDatasetError("oracle needs at least one positive sample")
    actual = {
        "d": dataset.d,
        "max_len": max_len,
        "max_rules": max_rules,
        "n": dataset.n,
    }
    over = {k: v for k, v in actual.items() if v > _ORACLE_LIMITS[k]}
    if over:
        raise BudgetExceededError(
            f"instance exceeds oracle budget {_ORACLE_LIMITS}: got {over}"
        )
    full = dataset.full_mask
    covers: list[tuple[tuple[int, ...], int]] = []
    for size in range(1, max_len + 1):
        for combo in itertools.combinations(range(dataset.d), size):
            cover = full
            for j in combo:
                cover &= dataset.coverage[j]
            covers.append((combo, cover))
    pos_total = dataset.positives
    best_f1 = 0.0
    best: tuple[tuple[int, ...], ...] = ()
    for size in range(1, max_rules + 1):
        for combo in itertools.combinations(range(len(covers)), size):
            cover = 0
            for idx in combo:
                cover |= covers[idx][1]
            tp = (cover & dataset.labels).bit_count()
            f1 = 2.0 * tp / (cover.bit_count() + pos_total)
            key = tuple(sorted(covers[idx][0] for idx in combo))
            if f1 > best_f1 + 1e-15 or (abs(f1 - best_f1) <= 1e-15 and key < best):
                best_f1, best = f1, key
    rules = tuple(Rule(features) for features in best)
    return RuleSet(rules), best_f1


def _fires(matrix: np.ndarray, rule: Sequence[int]) -> np.ndarray:
    out = np.ones(matrix.shape[0], dtype=bool)
    for j in rule:
        out &= matrix[:, j]
    return out


def _suppress(matrix: np.ndarray, dnf: Sequence[Sequence[int]], rng) -> None:
    # Turn off one feature of each satisfied conjunction until nothing fires.
    for rule in dnf:
        firing = np.flatnonzero(_fires(matrix, rule))
        if firing.size:
            kill = rng.integers(0, len(rule), size=firing.size)
            for row, pick in zip(firing, kill):
                matrix[row, rule[pick]] = False


@dataclass(frozen=True)
class PlantedScenario:
    """Multi-fault synthetic telemetry for end-to-end experiments.

    train_table / heldout_table are column-oriented tables whose columns
    are the metric names plus "timestamp", "service" and "fault_type";
    windows pair a column table with its ground truths.
    """

    feature_names: tuple[str, ...]
    fault_types: tuple[str, ...]
    dnfs: Mapping[str, tuple[tuple[int, ...], ...]]
    train_table: dict[str, list]
    heldout_table: dict[str, list]
    windows: tuple[tuple[dict[str, list], str, str], ...]
    services: tuple[str, ...]


def _scenario_rows(
    rng,
    n: int,
    d: int,
    background: float,
    fire_dnf: Optional[Sequence[Sequence[int]]],
    all_dnfs: Sequence[Sequence[Sequence[int]]],
) -> np.ndarray:
    matrix = rng.random((n, d)) < background
    if fire_dnf is not None:
        which = rng.integers(0, len(fire_dnf), size=n)
        for i in range(n):
            matrix[i, list(fire_dnf[which[i]])] = True
    for dnf in all_dnfs:
        if dnf is fire_dnf:
            continue
        _suppress(matrix, dnf, rng)
    return matrix


def planted_fault_scenario(
    seed: int,
    n: int = 10000,
    d: int = 40,
    imbalance_ratio: float = 50.0,
    noise: float = 0.05,
    n_fault_types: int = 3,
    n_services: int = 5,
    n_windows: int = 100,
    window_rows_per_service: int = 4,
    background: float = 0.25,
) -> PlantedScenario:
    """Planted multi-fault training data plus labelled incident windows.

    Each fault type owns a 2-rule DNF on its own feature block and gets
    round(n / (ratio+1)) positive rows; rows never fire another type's
    DNF.  Label noise relabels a positive row as normal.  Each incident
    window plants one fault type's pattern in one service's rows and
    leaves every other row clean.
    """
    rng = np.random.default_rng(seed)
    fault_types = tuple(f"fault_{t}" for t in range(n_fault_types))
    services = tuple(f"svc{m:02d}" for m in range(n_services))
    block = 4
    if n_fault_types * block > d:
        raise ValueError("not enough features for the requested fault types")
    dnfs = {
        fault_types[t]: (
            (block * t, block * t + 1),
            (block * t + 2, block * t + 3),
        )
        for t in range(n_fault_types)
    }
    all_dnfs = [dnfs[ft] for ft in fault_types]
    names = tuple(f"m{j:02d}" for j in range(d))

    def build_table(n_rows: int) -> tuple[dict[str, list], np.ndarray]:
        n_pos_each = round(n_rows / (imbalance_ratio + 1.0))
        counts = [n_pos_each] * n_fault_types
        n_normal = n_rows - sum(counts)
        blocks = [
            _scenario_rows(rng, counts[t], d, background, all_dnfs[t], all_dnfs)
            for t in range(n_fault_types)
        ]
        blocks.append(_scenario_rows(rng, n_normal, d, background, None, all_dnfs))
        matrix = np.concatenate(blocks, axis=0)
        labels = np.concatenate(
            [np.full(counts[t], t) for t in range(n_fault_types)]
            + [np.full(n_normal, -1)]
        )
        flips = rng.random(len(labels)) < noise
        labels = np.where(flips & (labels >= 0), -1, labels)
        perm = rng.permutation(len(labels))
        matrix, labels = matrix[perm], labels[perm]
        table: dict[str, list] = {
            "timestamp": [f"2024-01-01T00:{i // 60 % 60:02d}:{i % 60:02d}" for i in range(len(labels))],
            "service": [services[s] for s in rng.integers(0, n_services, size=len(labels))],
            "fault_type": [
                fault_types[t] if t >= 0 else "normal" for t in labels
            ],
        }
        for j, name in enumerate(names):
            table[name] = [int(v) for v in matrix[:, j]]
        return table, labels

    train_table, _ = build_table(n)
    heldout_table, _ = build_table(n)

    windows = []
    for w in range(n_windows):
        t = int(rng.integers(0, n_fault_types))
        svc = int(rng.integers(0, n_services))
        rows = []
        svc_col = []
        for m in range(n_services):
            fire = all_dnfs[t] if m == svc else None
            rows.append(
                _scenario_rows(rng, window_rows_per_service, d, background, fire, all_dnfs)
            )
            svc_col.extend([services[m]] * window_rows_per_service)
        matrix = np.concatenate(rows, axis=0)
        table: dict[str, list] = {
            "timestamp": [
                f"2024-02-01T00:00:{i % 60:02d}" for i in range(len(svc_col))
            ],
            "service": svc_col,
        }
        for j, name in enumerate(names):
            table[name] = [int(v) for v in matrix[:, j]]
        windows.append((table, fault_types[t], services[svc]))

    return PlantedScenario(
        names,
        fault_types,
        {ft: dnfs[ft] for ft in fault_types},
        train_table,
        heldout_table,
        tuple(windows),
        services,
    )


def _dnf_fires(matrix: np.ndarray, dnf: Sequence[Sequence[int]]) -> np.ndarray:
    out = np.zeros(matrix.shape[0], dtype=bool)
    for rule in dnf:
        out |= _fires(matrix, rule)
    return out


def planted_dataset(
    seed: int,
    n: int,
    d: int,
    imbalance_ratio: float,
    noise: float,
    n_rules: int = 2,
    rule_len: int = 2,
    background: float = 0.25,
) -> tuple[BinaryDataset, tuple[Rule, ...]]:
    """Seeded binary dataset whose positives are exactly a planted DNF.

    round(n / (imbalance_ratio + 1)) rows are forced to satisfy one of the
    planted conjunctions; all other rows are repaired until none fires.
    Label noise then flips planted-positive rows to negative with the
    given probability -- noise on the minority side only, so the planted
    rules stay recoverable under heavy imbalance.
    """
    if imbalance_ratio < 1:
        raise ValueError("imbalance_ratio must be >= 1")
    if not 0.0 <= noise < 0.5:
        raise ValueError("noise must lie in [0, 0.5)")
    if n_rules * rule_len > d:
        raise ValueError("not enough features for the requested planted rules")
    n_pos = round(n / (imbalance_ratio + 1))
    if n_pos < 1:
        raise ValueError(
            f"infeasible imbalance: n={n} at ratio 1:{imbalance_ratio} leaves no positives"
        )
    rng = np.random.default_rng(seed)
    dnf = [
        tuple(range(r * rule_len, (r + 1) * rule_len)) for r in range(n_rules)
    ]
    matrix = rng.random((n, d)) < background
    # Positives first, negatives after; a final permutation mixes them.
    force = rng.integers(0, n_rules, size=n_pos)
    for i in range(n_pos):
        matrix[i, list(dnf[force[i]])] = True
    neg = matrix[n_pos:]
    _suppress(neg, dnf, rng)
    matrix[n_pos:] = neg
    labels = _dnf_fires(matrix, dnf)
    if labels[:n_pos].sum() != n_pos or labels[n_pos:].any():
        raise AssertionError("planted construction failed to separate classes")
    flips = rng.random(n) < noise
    labels = labels & ~flips
    perm = rng.permutation(n)
    matrix = matrix[perm]
    labels = labels[perm]
    coverage = tuple(
        int.from_bytes(np.packbits(matrix[:, j], bitorder="little").tobytes(), "little")
        for j in range(d)
    )
    label_bits = int.from_bytes(
        np.packbits(labels, bitorder="little").tobytes(), "little"
    )
    dataset = BinaryDataset(n, coverage, label_bits)
    return dataset, tuple(Rule(r) for r in dnf)


def _predicate_blocks(
    model: BinarizationModel,
    table: Mapping[str, Sequence],
    parsed: MutableMapping[str, np.ndarray],
):
    """Yield (catalog positions, block), one broadcast comparison per column and op.

    block[r, i] is whether row i satisfies the feature at positions[r]; a
    column's (<= t) features take the even, its (> t) features the odd
    positions of its catalog range.  Each numeric column is parsed once
    into `parsed`.
    """
    for column, start in zip(model.columns, model._starts):
        if not column.width:
            continue
        raw = table[column.name]
        stop = start + column.width
        if column.kind == CATEGORICAL:
            slot = {c: k for k, c in enumerate(column.categories)}
            codes = np.fromiter(
                (-1 if v is None else slot.get(str(v), -1) for v in raw), np.intp, len(raw)
            )
            yield slice(start, stop), codes == np.arange(column.width)[:, None]
            continue
        vals = parsed[column.name] = numeric_column(raw, column.name)
        finite = np.isfinite(vals)
        thresholds = np.array(column.thresholds, dtype=float)[:, None]
        for first, compare in ((start, np.less_equal), (start + 1, np.greater)):
            block = compare(vals, thresholds)
            block &= finite
            yield slice(first, stop, 2), block


def oracle_feature_matrix(model: BinarizationModel, table: Mapping[str, Sequence]) -> np.ndarray:
    """Dense boolean matrix (n rows x len(catalog) columns) of the predicates."""
    out = np.zeros((_row_count(model, table), model.n_features), dtype=bool)
    for positions, block in _predicate_blocks(model, table, {}):
        out[:, positions] = block.T
    return out


def _added_in_order(votes: np.ndarray) -> float:
    """0.0 + votes[0] + votes[1] + ... in row-major order, as a running += adds.

    cumsum keeps the order, where np.sum adds pairwise and can round
    differently; the leading 0.0 turns a -0.0 vote, or no vote, into 0.0.
    """
    return float(np.cumsum(np.concatenate(([0.0], votes.ravel())))[-1])


def _fired(matrix: np.ndarray, rules: list[Rule]) -> np.ndarray:
    """fired[r, i] is whether rules[r] fires on sample i, from one gather of
    all the rules' columns and one AND per rule over its slice of them.

    The empty rule gets no slice (reduceat would hand it its neighbour's
    first column) and fires on every sample.
    """
    columns, starts, kept = [], [], []
    for r, rule in enumerate(rules):
        if rule.features:
            kept.append(r)
            starts.append(len(columns))
            columns += rule.features
    fired = np.ones((len(rules), len(matrix)), dtype=bool)
    if columns:
        fired[kept] = np.logical_and.reduceat(matrix[:, columns], starts, axis=1).T
    return fired


def ranked_report(
    fault_scores: dict[str, float],
    fault_expl: dict[str, list[dict]],
    service_scores: dict[str, float],
    service_expl: dict[str, list[dict]],
) -> dict:
    """The localize report of the given scores and explanation entries.

    Each ranking is sorted by descending score, ties by name, and lists
    every run of two or more equal scores; no_signal is whether every
    fault score is 0.  Names with no explanation entry are left out.
    """

    def ranking(scores: dict[str, float]) -> list[tuple[str, float]]:
        return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))

    def ties(scores: dict[str, float]) -> list[list[str]]:
        runs = itertools.groupby(ranking(scores), key=lambda kv: kv[1])
        return [names for names in ([n for n, _ in run] for _, run in runs) if len(names) > 1]

    return {
        "schema_version": SCHEMA_VERSION,
        "tool_version": __version__,
        "no_signal": all(score == 0.0 for score in fault_scores.values()),
        "fault_ranking": [{"fault_type": n, "score": v} for n, v in ranking(fault_scores)],
        "service_ranking": [{"service": n, "score": v} for n, v in ranking(service_scores)],
        "fault_ties": ties(fault_scores),
        "service_ties": ties(service_scores),
        "explanations": {
            "fault_types": {name: list(e) for name, e in fault_expl.items() if e},
            "services": {svc: list(e) for svc, e in service_expl.items() if e},
        },
    }


def oracle_localization_report(model: FaultModel, window: QueryWindow) -> dict:
    """Rank fault types and services by the window's votes.

    Both rankings are full (descending score, ties by name) so that top-k
    evaluation is possible; a window where no rule fires anywhere is flagged
    no_signal and ranked lexicographically.  A fault type is explained by its
    fired rules in rule order with their hits over the window, a service by
    the rules fired on its samples, sorted by (fault type, rule index).
    """
    services = sorted(set(window.services))
    code = {svc: k for k, svc in enumerate(services)}
    codes = np.fromiter(map(code.__getitem__, window.services), np.intp, len(window.services))
    votes = np.empty((len(model.rule_sets), len(codes)))
    fired = _fired(window.matrix, [rule for _, rs in model.rule_sets for rule in rs.rules])
    fault_scores, fault_expl = {}, {}
    service_expl: dict[str, list[dict]] = {svc: [] for svc in services}
    first = 0
    for t, (fault_type, rule_set) in enumerate(model.rule_sets):
        stats = rule_set.stats or ()
        fire = fired[first : first + len(rule_set.rules)]
        first += len(rule_set.rules)
        precision = np.array([s.precision for s in stats], dtype=float)
        votes[t] = np.where(fire, precision[:, None], 0.0).max(axis=0, initial=0.0)
        fault_scores[fault_type] = _added_in_order(votes[t])
        entries = []
        for r in np.flatnonzero(fire.any(axis=1)).tolist():
            hits = np.bincount(codes[fire[r]], minlength=len(services))
            entry = {
                "fault_type": fault_type,
                "rule_index": r,
                "rule": model.describe(rule_set.rules[r]),
                "precision": stats[r].precision,
                "hits": int(hits.sum()),
            }
            entries.append(entry)
            for k in np.flatnonzero(hits).tolist():
                service_expl[services[k]].append({**entry, "hits": int(hits[k])})
        fault_expl[fault_type] = entries
    # A service's votes add fault type by fault type, each in sample order.
    service_scores = {svc: _added_in_order(votes[:, codes == k]) for k, svc in enumerate(services)}
    by_rule = {
        svc: sorted(fired, key=lambda e: (e["fault_type"], e["rule_index"]))
        for svc, fired in service_expl.items()
    }
    return ranked_report(fault_scores, fault_expl, service_scores, by_rule)
