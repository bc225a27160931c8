"""The exhaustive F1 oracle and the planted datasets it is checked on.

Only the tests use them: brute_force_best_ruleset is the acceptance
oracle the learner must never beat, and planted_dataset draws binary
datasets whose positives are exactly a known DNF.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from ruleloc.core import BinaryDataset, InvalidDatasetError, Rule, RuleSet
from ruleloc.evaluate import _fires, _suppress


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
    names = tuple(f"m{j:02d}" for j in range(d))
    dataset = BinaryDataset(n, coverage, label_bits, names)
    return dataset, tuple(Rule(r) for r in dnf)
