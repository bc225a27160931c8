"""Evaluation harness: ranking metrics and a synthetic fault scenario.

Provides top-k accuracy and Cohen's kappa for incident rankings, their
aggregation over a case list, and a seeded planted multi-fault scenario
(training tables plus labelled incident windows) for end-to-end runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from ruleloc import SCHEMA_VERSION, __version__
from ruleloc.localize import FaultModel, QueryWindow, rank_window

NO_SIGNAL_LABEL = "(no-signal)"


@dataclass(frozen=True)
class IncidentCase:
    """One evaluation window with its ground truths."""

    window: QueryWindow
    true_fault: str
    true_service: str


def top_k_accuracy(
    rankings: Sequence[Sequence[str]],
    truths: Sequence[str],
    max_k: int = 5,
) -> list[float]:
    """Fraction of cases whose truth appears in the top k, for k = 1..max_k."""
    if not rankings or len(rankings) != len(truths):
        raise ValueError("need a non-empty, equal-length list of rankings and truths")
    out = []
    for k in range(1, max_k + 1):
        hit = sum(1 for ranking, truth in zip(rankings, truths) if truth in ranking[:k])
        out.append(hit / len(truths))
    return out


def cohen_kappa(predictions: Sequence[str], truths: Sequence[str]) -> float:
    """Chance-corrected agreement between two label sequences.

    Chance agreement comes from the marginal label frequencies of both
    sides.  When both sides are the same single constant label, chance
    agreement is 1 and kappa is defined as 1; a constant-label tie with
    imperfect agreement has no defined kappa.
    """
    if not predictions or len(predictions) != len(truths):
        raise ValueError("need non-empty, equal-length label sequences")
    n = len(predictions)
    p_obs = sum(p == t for p, t in zip(predictions, truths)) / n
    labels = set(predictions) | set(truths)
    p_chance = sum(
        (predictions.count(lab) / n) * (truths.count(lab) / n) for lab in labels
    )
    if p_chance >= 1.0:
        if p_obs == 1.0:
            return 1.0
        raise ValueError("kappa undefined: degenerate constant labels disagree")
    return (p_obs - p_chance) / (1.0 - p_chance)


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


@dataclass(frozen=True)
class MetricsReport:
    """Aggregate evaluation metrics over a case list."""

    fault_top_k: tuple[float, ...]
    service_top_k: tuple[float, ...]
    kappa: float
    per_fault_type: Mapping[str, Mapping[str, float]]
    n_cases: int
    train_seconds: Optional[float] = None

    def to_json_obj(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "tool_version": __version__,
            "n_cases": self.n_cases,
            "fault_top_k": list(self.fault_top_k),
            "service_top_k": list(self.service_top_k),
            "kappa": self.kappa,
            "per_fault_type": {
                k: dict(v) for k, v in sorted(self.per_fault_type.items())
            },
            "train_seconds": self.train_seconds,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True, indent=2) + "\n"

    def to_table(self) -> str:
        lines = []
        header = ["metric"] + [f"A@{k}" for k in range(1, len(self.fault_top_k) + 1)]
        rows = [
            ["fault_type"] + [f"{v:.3f}" for v in self.fault_top_k],
            ["service"] + [f"{v:.3f}" for v in self.service_top_k],
        ]
        widths = [
            max(len(str(r[i])) for r in [header] + rows) for i in range(len(header))
        ]
        for row in [header] + rows:
            lines.append("  ".join(str(v).ljust(w) for v, w in zip(row, widths)))
        lines.append(f"kappa (fault A@1): {self.kappa:.4f}")
        if self.train_seconds is not None:
            lines.append(f"training wall-clock: {self.train_seconds:.2f} s")
        lines.append("per-fault-type (top-1 confusion):")
        for name, m in sorted(self.per_fault_type.items()):
            lines.append(
                f"  {name}: precision={m['precision']:.3f} recall={m['recall']:.3f} f1={m['f1']:.3f}"
            )
        return "\n".join(lines) + "\n"


def evaluate_cases(
    model: FaultModel,
    cases: Sequence[IncidentCase],
    max_k: int = 5,
    train_seconds: Optional[float] = None,
) -> MetricsReport:
    """Rank every case and aggregate top-k accuracy, kappa and per-type F1.

    Kappa and the per-type scores use the top-1 fault-type decision;
    windows where no rule fires predict the distinct no-signal label.
    """
    if not cases:
        raise ValueError("need at least one case")
    fault_rankings = []
    service_rankings = []
    predictions = []
    for case in cases:
        faults, services = rank_window(model, case.window)
        fault_rankings.append(faults.candidates())
        service_rankings.append(services.candidates())
        predictions.append(
            NO_SIGNAL_LABEL if faults.no_signal else faults.candidates()[0]
        )
    fault_truths = [c.true_fault for c in cases]
    service_truths = [c.true_service for c in cases]
    fault_topk = top_k_accuracy(fault_rankings, fault_truths, max_k)
    service_topk = top_k_accuracy(service_rankings, service_truths, max_k)
    kappa = cohen_kappa(predictions, fault_truths)

    per_type: dict[str, dict[str, float]] = {}
    for name in sorted(set(fault_truths) | set(model.fault_types())):
        tp = sum(1 for p, t in zip(predictions, fault_truths) if p == t == name)
        fp = sum(1 for p, t in zip(predictions, fault_truths) if p == name and t != name)
        fn = sum(1 for p, t in zip(predictions, fault_truths) if t == name and p != name)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        per_type[name] = {"precision": precision, "recall": recall, "f1": f1}
    return MetricsReport(
        tuple(fault_topk),
        tuple(service_topk),
        kappa,
        per_type,
        len(cases),
        train_seconds,
    )
