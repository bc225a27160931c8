"""Seeded inputs of the benchmark workloads.

Every file the program reads is generated here from numpy's seeded
generator, so one (workload, seed) pair gives the same bytes on every
commit.  The two localization models are built from ruleloc's public
binarize/select/localize functions with planted rules, never by the
learner, so learner changes cannot change localization work.  The
SHA-256 of each file goes into inputs.json, written last; its presence
marks the directory as complete and lets later runs reuse it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
from pathlib import Path

import numpy as np

from reference import rule_fires

WORKLOADS = ("train-telemetry", "train-continuous", "eval-batch", "localize-single")

# train-telemetry: the ROADMAP baseline shape (planted_fault_scenario layout).
TELEMETRY_ROWS = 100_000
TELEMETRY_METRICS = 60
TELEMETRY_TYPES = 3
HELDOUT_ROWS = 50_000
IMBALANCE = 50.0
NOISE = 0.05
BACKGROUND = 0.25
NORMAL_LOG_LINES = 50_000
LOG_INTERVALS = 60  # the training timestamps span one hour of 60 s intervals
ONLINE_LINES_PER_INTERVAL = 1_667
LOG_TEMPLATES = 30

# train-continuous: the ROADMAP continuous fixture.  The learner's work
# varies from one draw to the next, so a pass trains on several draws.
TRAIN_DRAWS = {"train-telemetry": 1, "train-continuous": 4}
CONTINUOUS_ROWS = 20_000
CONTINUOUS_COLUMNS = 20

# eval-batch: 8 types x 4 rules over 40 binary metrics (80 catalog features).
EVAL_TYPES = 8
EVAL_BLOCK = 5
EVAL_WINDOWS = 50
EVAL_SERVICES = 20
EVAL_ROWS_PER_SERVICE = 10

# localize-single: 4 types over 20 continuous columns at 100 bins (3960 features).
LOCALIZE_TYPES = 4
LOCALIZE_BLOCK = 5
LOCALIZE_WINDOWS = 64
LOCALIZE_SERVICES = 4
LOCALIZE_ROWS_PER_SERVICE = 5
LOCALIZE_CLEAN_EVERY = 8  # every 8th window plants no fault: a no-signal window

MODEL_ROWS = 20_000
RULES_PER_TYPE = 4


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _timestamps(n: int) -> list[str]:
    return [f"2024-01-01T00:{i // 60 % 60:02d}:{i % 60:02d}" for i in range(n)]


def write_csv(path: Path, text_cols: dict[str, list[str]], names, matrix) -> None:
    """CSV with the text columns first, then one column per matrix column.

    Values are written with repr, which round-trips floats exactly.
    """
    header = list(text_cols) + list(names)
    texts = list(zip(*text_cols.values())) if text_cols else itertools.repeat(())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for prefix, row in zip(texts, matrix.tolist()):
            fh.write(",".join(itertools.chain(prefix, map(repr, row))) + "\n")


def _row_types(rng, n: int, n_types: int) -> np.ndarray:
    """Shuffled row labels: round(n / (ratio + 1)) rows per type, -1 elsewhere."""
    n_pos = round(n / (IMBALANCE + 1.0))
    types = np.full(n, -1)
    types[: n_pos * n_types] = np.repeat(np.arange(n_types), n_pos)
    return rng.permutation(types)


def _with_noise(rng, types: np.ndarray) -> np.ndarray:
    flips = rng.random(len(types)) < NOISE
    return np.where(flips & (types >= 0), -1, types)


def planted_binary(rng, row_types: np.ndarray, d: int, rules_by_type) -> np.ndarray:
    """0/1 rows where a row of type t fires one of t's rules and no other type's.

    Rows of type -1 fire no rule at all.  Each rule is a tuple of column
    indices; a rule fires when all its columns are 1.
    """
    m = rng.random((len(row_types), d)) < BACKGROUND
    for t, rules in enumerate(rules_by_type):
        rows = np.flatnonzero(row_types == t)
        pick = rng.integers(0, len(rules), size=rows.size)
        for r, rule in enumerate(rules):
            m[np.ix_(rows[pick == r], rule)] = True
    for t, rules in enumerate(rules_by_type):
        for rule in rules:
            rows = np.flatnonzero((row_types != t) & m[:, list(rule)].all(axis=1))
            kill = np.asarray(rule)[rng.integers(0, len(rule), size=rows.size)]
            m[rows, kill] = False
    return m.astype(np.int64)


# -- train-telemetry ---------------------------------------------------------

_WORDS = (
    "request handled served cache lookup miss hit user session opened closed "
    "query executed slow connection pool acquired released retry upstream "
    "timeout scheduled job finished started worker heartbeat ok flushed "
    "segment compacted replica synced leader elected"
).split()
_FIRST = ("INFO", "WARN", "DEBUG", "ERROR", "TRACE", "NOTICE")


def _log_templates(rng) -> list[list[str | None]]:
    """Token templates; None marks a parameter slot that always holds digits."""
    templates = []
    for _ in range(LOG_TEMPLATES):
        length = int(rng.integers(5, 10))
        tokens: list[str | None] = [_FIRST[int(rng.integers(len(_FIRST)))]]
        for _ in range(length - 1):
            slot = rng.random() < 0.3
            tokens.append(None if slot else _WORDS[int(rng.integers(len(_WORDS)))])
        templates.append(tokens)
    return templates


def _log_lines(rng, templates, n: int) -> list[str]:
    picks = rng.integers(0, len(templates), size=n)
    values = rng.integers(0, 100_000, size=(n, 10))
    lines = []
    for i, t in enumerate(picks.tolist()):
        slots = iter(values[i].tolist())
        lines.append(
            " ".join(tok if tok is not None else f"v{next(slots)}" for tok in templates[t])
        )
    return lines


def _telemetry_table(rng, n: int):
    rules = [((4 * t, 4 * t + 1), (4 * t + 2, 4 * t + 3)) for t in range(TELEMETRY_TYPES)]
    types = _row_types(rng, n, TELEMETRY_TYPES)
    matrix = planted_binary(rng, types, TELEMETRY_METRICS, rules)
    labels = _with_noise(rng, types)
    names = [f"fault_{t}" for t in range(TELEMETRY_TYPES)]
    fault_col = [names[t] if t >= 0 else "normal" for t in labels.tolist()]
    services = [f"svc{s:02d}" for s in rng.integers(0, 5, size=n).tolist()]
    return matrix, fault_col, services


def gen_train_telemetry(rng, out: Path) -> dict:
    names = [f"m{j:02d}" for j in range(TELEMETRY_METRICS)]
    matrix, fault_col, services = _telemetry_table(rng, TELEMETRY_ROWS)
    text = {"timestamp": _timestamps(TELEMETRY_ROWS), "service": services, "fault_type": fault_col}
    write_csv(out / "train.csv", text, names, matrix)
    held, held_faults, held_services = _telemetry_table(rng, HELDOUT_ROWS)
    text = {"timestamp": _timestamps(HELDOUT_ROWS), "service": held_services, "fault_type": held_faults}
    write_csv(out / "heldout.csv", text, names, held)

    # Online lines reuse the normal templates at the same count per interval,
    # so the three log columns are constant and add no catalog feature.
    templates = _log_templates(rng)
    logs = out / "logs"
    logs.mkdir()
    normal = _log_lines(rng, templates, NORMAL_LOG_LINES)
    (logs / "normal.log").write_text("\n".join(normal) + "\n", encoding="utf-8")
    online = _log_lines(rng, templates, LOG_INTERVALS * ONLINE_LINES_PER_INTERVAL)
    seconds = np.sort(rng.integers(0, 60, size=(LOG_INTERVALS, ONLINE_LINES_PER_INTERVAL)), axis=1)
    stamped = [
        f"2024-01-01T00:{k:02d}:{s:02d} {line}"
        for (k, s), line in zip(
            ((k, s) for k in range(LOG_INTERVALS) for s in seconds[k].tolist()), online
        )
    ]
    (logs / "online.log").write_text("\n".join(stamped) + "\n", encoding="utf-8")
    return {"fault_types": [f"fault_{t}" for t in range(TELEMETRY_TYPES)]}


# -- train-continuous ----------------------------------------------------------

def _continuous_table(rng, n: int):
    x = rng.standard_normal((n, CONTINUOUS_COLUMNS))
    label = ((x[:, 0] > 2) & (x[:, 1] < 0.5)) | ((x[:, 2] > 2.2) & (x[:, 3] > 0))
    label &= ~(rng.random(n) < NOISE)
    return x, ["fault" if y else "normal" for y in label.tolist()]


def gen_train_continuous(rng, out: Path) -> dict:
    names = [f"c{j}" for j in range(CONTINUOUS_COLUMNS)]
    x, labels = _continuous_table(rng, CONTINUOUS_ROWS)
    write_csv(out / "train.csv", {"fault_type": labels}, names, x)
    x, labels = _continuous_table(rng, CONTINUOUS_ROWS)
    write_csv(out / "heldout.csv", {"fault_type": labels}, names, x)
    return {"fault_types": ["fault"]}


# -- localization models --------------------------------------------------------

def _fault_model(table: dict, labels, names, catalog_rules, binarization, metadata):
    """Annotated model of planted rules, built from ruleloc's public functions.

    catalog_rules[t] lists type t's rules as tuples of catalog indices.
    """
    from ruleloc.binarize import transform
    from ruleloc.core import Rule, RuleSet
    from ruleloc.localize import FaultModel
    from ruleloc.select import annotate_rule_set

    rule_sets = []
    for t, name in enumerate(names):
        dataset = transform(binarization, table, [int(y == t) for y in labels])
        rules = RuleSet(tuple(Rule(r) for r in catalog_rules[t]))
        rule_sets.append((name, annotate_rule_set(dataset, rules)))
    return FaultModel(tuple(rule_sets), binarization, RULES_PER_TYPE, 6, 1.0, metadata)


def _catalog_index(binarization) -> dict:
    return {(f.column, f.op, f.threshold): j for j, f in enumerate(binarization.catalog)}


def gen_eval_batch(rng, out: Path, seed: int) -> dict:
    from ruleloc.binarize import FeatureSpec, fit

    d = EVAL_TYPES * EVAL_BLOCK
    names = [f"m{j:02d}" for j in range(d)]
    pairs = list(itertools.combinations(range(EVAL_BLOCK), 2))
    rules = [
        tuple(
            tuple(EVAL_BLOCK * t + k for k in pairs[p])
            for p in sorted(rng.choice(len(pairs), RULES_PER_TYPE, replace=False).tolist())
        )
        for t in range(EVAL_TYPES)
    ]
    types = _row_types(rng, MODEL_ROWS, EVAL_TYPES)
    matrix = planted_binary(rng, types, d, rules)
    labels = _with_noise(rng, types).tolist()
    table = {name: matrix[:, j].tolist() for j, name in enumerate(names)}
    # Two bins put the one threshold of a 0/1 column at its median, 0.0.
    binarization = fit(table, [FeatureSpec(name, bins=2) for name in names])
    if len(binarization.catalog) != 2 * d:
        raise RuntimeError(f"expected {2 * d} catalog features, got {len(binarization.catalog)}")
    index = _catalog_index(binarization)
    catalog_rules = [
        [tuple(sorted(index[(names[c], ">", 0.0)] for c in rule)) for rule in type_rules]
        for type_rules in rules
    ]
    fault_names = [f"fault_{t}" for t in range(EVAL_TYPES)]
    model = _fault_model(
        table, labels, fault_names, catalog_rules, binarization,
        {"generator": "perfbench eval-batch", "seed": seed},
    )
    (out / "model.json").write_text(model.to_json(), encoding="utf-8")

    windows = out / "windows"
    windows.mkdir()
    services = [f"svc{s:02d}" for s in range(EVAL_SERVICES)]
    svc_col = [s for s in services for _ in range(EVAL_ROWS_PER_SERVICE)]
    cases = []
    for w in range(EVAL_WINDOWS):
        t = int(rng.integers(EVAL_TYPES))
        s = int(rng.integers(EVAL_SERVICES))
        row_types = np.full(len(svc_col), -1)
        row_types[s * EVAL_ROWS_PER_SERVICE : (s + 1) * EVAL_ROWS_PER_SERVICE] = t
        m = planted_binary(rng, row_types, d, rules)
        path = windows / f"w{w:03d}.csv"
        write_csv(path, {"timestamp": _timestamps(len(svc_col)), "service": svc_col}, names, m)
        cases.append({"window": f"windows/{path.name}", "true_fault": fault_names[t],
                      "true_service": services[s]})
    manifest = {"schema_version": 1, "cases": cases}
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1) + "\n", encoding="utf-8")
    return {"fault_types": fault_names}


def _plant_value(rng, op: str, threshold: float) -> float:
    gap = 1e-3 + float(rng.exponential(0.5))
    return threshold + gap if op == ">" else threshold - gap


def gen_localize_single(rng, out: Path, seed: int) -> dict:
    from ruleloc.binarize import FeatureSpec, fit

    names = [f"c{j}" for j in range(CONTINUOUS_COLUMNS)]
    x = rng.standard_normal((MODEL_ROWS, CONTINUOUS_COLUMNS))
    table = {name: x[:, j].tolist() for j, name in enumerate(names)}
    binarization = fit(table, [FeatureSpec(name, bins=100) for name in names])
    if len(binarization.catalog) != 3960:
        raise RuntimeError(f"expected 3960 catalog features, got {len(binarization.catalog)}")
    thresholds = {c.name: c.thresholds for c in binarization.columns}
    pairs = list(itertools.combinations(range(LOCALIZE_BLOCK), 2))
    # Each rule: two predicates on its type's block, each x > q90 or x <= q10.
    rules = []
    for t in range(LOCALIZE_TYPES):
        type_rules = []
        for p in sorted(rng.choice(len(pairs), RULES_PER_TYPE, replace=False).tolist()):
            preds = []
            for k in pairs[p]:
                col = names[LOCALIZE_BLOCK * t + k]
                op, q = (">", 89) if rng.random() < 0.5 else ("<=", 9)
                preds.append({"column": col, "op": op, "threshold": thresholds[col][q]})
            type_rules.append(preds)
        rules.append(type_rules)

    def plant(values: np.ndarray, rows, t: int) -> None:
        for i in rows:
            for pred in rules[t][int(rng.integers(RULES_PER_TYPE))]:
                values[i, names.index(pred["column"])] = _plant_value(rng, pred["op"], pred["threshold"])

    types = _row_types(rng, MODEL_ROWS, LOCALIZE_TYPES)
    for t in range(LOCALIZE_TYPES):
        plant(x, np.flatnonzero(types == t).tolist(), t)
    labels = _with_noise(rng, types).tolist()
    table = {name: x[:, j].tolist() for j, name in enumerate(names)}
    index = _catalog_index(binarization)
    catalog_rules = [
        [tuple(sorted(index[(p["column"], p["op"], p["threshold"])] for p in rule)) for rule in tr]
        for tr in rules
    ]
    fault_names = [f"fault_{t}" for t in range(LOCALIZE_TYPES)]
    model = _fault_model(
        table, labels, fault_names, catalog_rules, binarization,
        {"generator": "perfbench localize-single", "seed": seed},
    )
    (out / "model.json").write_text(model.to_json(), encoding="utf-8")

    windows = out / "windows"
    windows.mkdir()
    services = [f"svc{s:02d}" for s in range(LOCALIZE_SERVICES)]
    svc_col = [s for s in services for _ in range(LOCALIZE_ROWS_PER_SERVICE)]
    n = len(svc_col)
    cases = []
    for w in range(LOCALIZE_WINDOWS):
        clean = w % LOCALIZE_CLEAN_EVERY == LOCALIZE_CLEAN_EVERY - 1
        t, s = int(rng.integers(LOCALIZE_TYPES)), int(rng.integers(LOCALIZE_SERVICES))
        row_types = np.full(n, -1)
        if not clean:
            row_types[s * LOCALIZE_ROWS_PER_SERVICE : (s + 1) * LOCALIZE_ROWS_PER_SERVICE] = t
        v = rng.standard_normal((n, CONTINUOUS_COLUMNS))
        plant(v, np.flatnonzero(row_types == t).tolist() if not clean else [], t)
        # Redraw another type's block wherever one of its rules fires by chance.
        for _ in range(1000):
            window = {name: v[:, j] for j, name in enumerate(names)}
            stray = [
                (i, u) for u in range(LOCALIZE_TYPES) for rule in rules[u]
                for i in np.flatnonzero(rule_fires(window, rule) & (row_types != u)).tolist()
            ]
            if not stray:
                break
            for i, u in stray:
                block = slice(LOCALIZE_BLOCK * u, LOCALIZE_BLOCK * (u + 1))
                v[i, block] = rng.standard_normal(LOCALIZE_BLOCK)
        else:
            raise RuntimeError("could not draw a window free of stray rule firings")
        path = windows / f"w{w:02d}.csv"
        write_csv(path, {"timestamp": _timestamps(n), "service": svc_col}, names, v)
        cases.append({"window": f"windows/{path.name}",
                      "true_fault": None if clean else fault_names[t],
                      "true_service": None if clean else services[s]})
    (out / "windows.json").write_text(json.dumps(cases, indent=1) + "\n", encoding="utf-8")
    return {"fault_types": fault_names}


def build(workload: str, seed: int, root: Path) -> Path:
    """Directory holding the inputs of (workload, seed), generated if absent."""
    out = root / f"{workload}-{seed}"
    if (out / "inputs.json").exists():
        return out
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload in TRAIN_DRAWS:
        gen = gen_train_telemetry if workload == "train-telemetry" else gen_train_continuous
        for j in range(TRAIN_DRAWS[workload]):
            (out / f"draw-{j}").mkdir()
            info = gen(rng, out / f"draw-{j}")
        info["draws"] = TRAIN_DRAWS[workload]
    elif workload == "eval-batch":
        info = gen_eval_batch(rng, out, seed)
    else:
        info = gen_localize_single(rng, out, seed)
    files = {
        str(p.relative_to(out)): sha256_file(p)
        for p in sorted(out.rglob("*")) if p.is_file()
    }
    info.update(workload=workload, seed=seed, files=files)
    tmp = out / "inputs.json.tmp"
    tmp.write_text(json.dumps(info, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    tmp.rename(out / "inputs.json")
    return out
