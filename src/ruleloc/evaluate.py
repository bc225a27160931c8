"""Evaluation harness: ranking metrics over incident cases.

Provides top-k accuracy and Cohen's kappa for incident rankings and
their aggregation over a case list.  Each case is ranked by
localize.window_rankings, which reads the same vote kernel as the
localize report and gives its rankings and no-signal flag without
building the report's explanations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ruleloc import SCHEMA_VERSION, __version__
from ruleloc.localize import FaultModel, QueryWindow, window_rankings

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
    sides.  It reaches 1 only when both sides hold the same single
    constant label, so that observed agreement is 1 too, and kappa is
    then defined as 1 rather than 0/0.
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
        return 1.0
    return (p_obs - p_chance) / (1.0 - p_chance)


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
        faults, services, no_signal = window_rankings(model, case.window)
        fault_rankings.append(faults)
        service_rankings.append(services)
        predictions.append(NO_SIGNAL_LABEL if no_signal else faults[0])
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
