"""Reference checks of ruleloc outputs, independent of the code under test.

Everything here works from raw CSV values and the predicates written in
a model file (column, operator, threshold), never from ruleloc's
binarizer or scorer, so a defect in those layers shows up as a mismatch
instead of being reproduced.  Each check returns a list of mismatch
descriptions; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

NO_SIGNAL = "(no-signal)"
MAX_K = 5
# Scores are sums of float precisions; the program and the reference add
# them in the same order, so this only absorbs a future reordering.
SCORE_RTOL = 1e-9
# Columns the CLI treats as roles rather than features.
ROLE_COLUMNS = ("timestamp", "service", "fault_type")


def read_table(path: str | Path) -> dict[str, np.ndarray]:
    """Column table of a CSV: role columns as strings, the rest as floats."""
    with open(path, newline="", encoding="utf-8") as fh:
        header = next(csv.reader(fh))
    table: dict[str, np.ndarray] = {}
    text_cols = [i for i, name in enumerate(header) if name in ROLE_COLUMNS]
    num_cols = [i for i, name in enumerate(header) if name not in ROLE_COLUMNS]
    if num_cols:
        values = np.loadtxt(
            path, delimiter=",", skiprows=1, usecols=num_cols, dtype=float, ndmin=2
        )
        for k, i in enumerate(num_cols):
            table[header[i]] = values[:, k]
    for i in text_cols:
        table[header[i]] = np.loadtxt(
            path, delimiter=",", skiprows=1, usecols=[i], dtype=str, ndmin=1
        )
    return table


def rule_fires(table, predicates) -> np.ndarray:
    """Rows satisfying every predicate; a missing value satisfies none."""
    n = len(next(iter(table.values())))
    fires = np.ones(n, dtype=bool)
    for pred in predicates:
        values = table[pred["column"]]
        if pred["op"] == "==":
            fires &= values == pred["category"]
            continue
        finite = np.isfinite(values)
        if pred["op"] == "<=":
            fires &= finite & (values <= pred["threshold"])
        elif pred["op"] == ">":
            fires &= finite & (values > pred["threshold"])
        else:
            raise ValueError(f"unknown predicate operator {pred['op']!r}")
    return fires


def _catalog_mismatches(model: dict) -> list[str]:
    """Each rule's predicates must restate the catalog entries they index."""
    catalog = model["binarization"]["feature_catalog"]
    out = []
    for entry in model["fault_types"]:
        for r, rule in enumerate(entry["rules"]):
            for pred in rule["predicates"]:
                feat = catalog[pred["feature"]]
                key = "category" if feat["op"] == "==" else "threshold"
                if (feat["column"], feat["op"], feat[key]) != (
                    pred["column"], pred["op"], pred[key]
                ):
                    out.append(f"{entry['fault_type']} rule {r}: predicate disagrees with catalog")
    return out


def check_train_model(model: dict, table, fault_types) -> list[str]:
    """Recompute every rule's precision, recall and covered on the training rows."""
    out = _catalog_mismatches(model)
    found = [entry["fault_type"] for entry in model["fault_types"]]
    if found != sorted(fault_types):
        out.append(f"model fault types {found} != expected {sorted(fault_types)}")
    labels = table["fault_type"]
    for entry in model["fault_types"]:
        positive = labels == entry["fault_type"]
        n_pos = int(positive.sum())
        if not entry["rules"]:
            out.append(f"{entry['fault_type']}: no rules learned")
        for r, rule in enumerate(entry["rules"]):
            fires = rule_fires(table, rule["predicates"])
            covered = int(fires.sum())
            tp = int((fires & positive).sum())
            want = (tp / covered if covered else 0.0, tp / n_pos if n_pos else 0.0, covered)
            got = (rule["precision"], rule["recall"], rule["covered"])
            if got != want:
                out.append(f"{entry['fault_type']} rule {r}: stats {got} != reference {want}")
    return out


def heldout_f1_macro(model: dict, table, labels) -> float:
    """Mean over the model's fault types of the rule set's F1 on labelled rows."""
    scores = []
    for entry in model["fault_types"]:
        predicted = np.zeros(len(labels), dtype=bool)
        for rule in entry["rules"]:
            predicted |= rule_fires(table, rule["predicates"])
        truth = labels == entry["fault_type"]
        tp = int((predicted & truth).sum())
        wrong = int((predicted ^ truth).sum())
        scores.append(2 * tp / (2 * tp + wrong) if tp + wrong else 0.0)
    return sum(scores) / len(scores)


def window_scores(model: dict, table) -> dict:
    """Fault and service vote sums, per-rule hits, in the program's summation order."""
    services = [str(s) for s in table["service"]]
    n = len(services)
    fault_scores: dict[str, float] = {}
    service_scores = {svc: 0.0 for svc in sorted(set(services))}
    fault_hits: dict[str, dict[int, int]] = {}
    service_hits: dict[str, dict[tuple[str, int], int]] = {s: {} for s in service_scores}
    for entry in model["fault_types"]:
        name = entry["fault_type"]
        fires = [rule_fires(table, rule["predicates"]) for rule in entry["rules"]]
        precisions = [rule["precision"] for rule in entry["rules"]]
        votes = [0.0] * n
        for idx, f in enumerate(fires):
            for i in np.flatnonzero(f).tolist():
                votes[i] = max(votes[i], precisions[idx])
                key = (name, idx)
                service_hits[services[i]][key] = service_hits[services[i]].get(key, 0) + 1
        total = 0.0
        for i in range(n):
            total += votes[i]
            service_scores[services[i]] += votes[i]
        fault_scores[name] = total
        fault_hits[name] = {idx: int(f.sum()) for idx, f in enumerate(fires) if f.any()}
    return {
        "faults": fault_scores,
        "services": service_scores,
        "fault_hits": fault_hits,
        "service_hits": service_hits,
        "no_signal": all(v == 0.0 for v in fault_scores.values()),
    }


def ranking(scores: dict[str, float]) -> list[str]:
    return [name for name, _ in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=SCORE_RTOL, abs_tol=SCORE_RTOL)


def _ranking_mismatches(what: str, entries, key: str, ref: dict[str, float]) -> list[str]:
    got = [(e[key], e["score"]) for e in entries]
    if sorted(name for name, _ in got) != sorted(ref):
        return [f"{what} ranking names {[n for n, _ in got]} != {sorted(ref)}"]
    out = [
        f"{what} {name}: score {score!r} != reference {ref[name]!r}"
        for name, score in got
        if not _close(score, ref[name])
    ]
    order = [name for name, _ in sorted(got, key=lambda kv: (-kv[1], kv[0]))]
    if order != [name for name, _ in got]:
        out.append(f"{what} ranking is not sorted by score then name")
    return out


def check_report(report: dict, ref: dict) -> list[str]:
    """Compare a localize report with the reference scores of its window."""
    out = []
    if report.get("no_signal") != ref["no_signal"]:
        out.append(f"no_signal {report.get('no_signal')} != reference {ref['no_signal']}")
    out += _ranking_mismatches("fault", report["fault_ranking"], "fault_type", ref["faults"])
    out += _ranking_mismatches("service", report["service_ranking"], "service", ref["services"])
    expl = report["explanations"]
    got_fault = {
        name: {e["rule_index"]: e["hits"] for e in entries}
        for name, entries in expl["fault_types"].items()
    }
    want_fault = {name: hits for name, hits in ref["fault_hits"].items() if hits}
    if got_fault != want_fault:
        out.append("fault-type explanation hit counts differ from reference")
    got_svc = {
        svc: {(e["fault_type"], e["rule_index"]): e["hits"] for e in entries}
        for svc, entries in expl["services"].items()
    }
    want_svc = {svc: hits for svc, hits in ref["service_hits"].items() if hits}
    if got_svc != want_svc:
        out.append("service explanation hit counts differ from reference")
    return out


def top1(ref: dict) -> str:
    return NO_SIGNAL if ref["no_signal"] else ranking(ref["faults"])[0]


def f1_macro(predictions, truths, names) -> float:
    """Mean over names of the one-vs-rest F1 of top-1 decisions."""
    scores = []
    for name in names:
        tp = sum(p == t == name for p, t in zip(predictions, truths))
        wrong = sum((p == name) != (t == name) for p, t in zip(predictions, truths))
        scores.append(2 * tp / (2 * tp + wrong) if tp + wrong else 0.0)
    return sum(scores) / len(scores)


def _kappa(predictions, truths) -> float:
    n = len(truths)
    p_obs = sum(p == t for p, t in zip(predictions, truths)) / n
    p_chance = sum(
        predictions.count(lab) / n * truths.count(lab) / n
        for lab in set(predictions) | set(truths)
    )
    return 1.0 if p_chance >= 1.0 else (p_obs - p_chance) / (1.0 - p_chance)


def check_metrics(metrics: dict, refs, cases, fault_types) -> list[str]:
    """Compare an eval metrics file with A@k, kappa and F1 from reference rankings."""
    out = []
    truths = [c["true_fault"] for c in cases]
    svc_truths = [c["true_service"] for c in cases]
    fault_rank = [ranking(r["faults"]) for r in refs]
    svc_rank = [ranking(r["services"]) for r in refs]
    n = len(cases)
    want_fault = [sum(t in r[:k] for r, t in zip(fault_rank, truths)) / n for k in range(1, MAX_K + 1)]
    want_svc = [sum(t in r[:k] for r, t in zip(svc_rank, svc_truths)) / n for k in range(1, MAX_K + 1)]
    if metrics.get("n_cases") != n:
        out.append(f"n_cases {metrics.get('n_cases')} != {n}")
    if metrics["fault_top_k"] != want_fault:
        out.append(f"fault A@k {metrics['fault_top_k']} != reference {want_fault}")
    if metrics["service_top_k"] != want_svc:
        out.append(f"service A@k {metrics['service_top_k']} != reference {want_svc}")
    predictions = [top1(r) for r in refs]
    if not _close(metrics["kappa"], _kappa(predictions, truths)):
        out.append(f"kappa {metrics['kappa']} != reference {_kappa(predictions, truths)}")
    for name in sorted(set(truths) | set(fault_types)):
        want = f1_macro(predictions, truths, [name])
        got = metrics["per_fault_type"].get(name, {}).get("f1")
        if got is None or not _close(got, want):
            out.append(f"{name} f1 {got} != reference {want}")
    return out
