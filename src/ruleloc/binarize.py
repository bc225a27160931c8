"""Quantile binarization of raw metric columns into binary predicates.

Numeric columns are cut at equal-mass quantile thresholds; each kept
threshold t yields the pair of directional predicates (x <= t) and
(x > t), so conjunctions can express intervals.  Categorical columns are
one-hot encoded.  The fitted model renders learned rules back into
human-readable predicate strings and serializes to JSON.

Conventions (fixed, documented): x == t satisfies (x <= t); a missing
value satisfies no predicate of its column; thresholds equal to or above
the column maximum are dropped (they would produce an always-true and a
never-true predicate, and they are all a constant column would produce).
A numeric cell is missing when it is None, empty or whitespace only, or
when it parses to nan, inf or -inf: infinities count as missing, so they
satisfy neither (x <= t) nor (x > t) and never move a threshold.

Numeric cells parse with Python's float() rules.  A table whose numeric
columns already hold float arrays (see parse_numeric_columns) is used as
is, so one parse can serve both fit and transform.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, replace
from typing import Mapping, MutableMapping, Optional, Sequence

import numpy as np

from ruleloc import SCHEMA_VERSION
from ruleloc.core import BinaryDataset, ColumnCodes, FeatureIndexError, Rule

NUMERIC = "numeric"
CATEGORICAL = "categorical"

DEFAULT_BINS = 100

# transform gives a numeric column bin codes when its catalog holds at
# least this many distinct thresholds.  A code histogram costs about the
# same per sample whatever the column's ladder length, where the bitsets
# cost one AND per feature, so short ladders stay cheaper on bitsets.
_CODED_MIN_THRESHOLDS = 8
# Codes are stored as uint16, so all coded columns share 2**16 codes.
_CODE_SPACE = 1 << 16


class SchemaError(ValueError):
    """Input columns do not match the fitted catalog."""


@dataclass(frozen=True)
class FeatureSpec:
    """Declares how one raw column is binarized."""

    name: str
    kind: str = NUMERIC
    bins: int = DEFAULT_BINS

    def __post_init__(self) -> None:
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise ValueError(f"unknown column kind {self.kind!r}")
        if self.kind == NUMERIC and self.bins < 2:
            raise ValueError("numeric columns need bins >= 2")


@dataclass(frozen=True)
class ColumnModel:
    name: str
    kind: str
    thresholds: tuple[float, ...] = ()
    categories: tuple[str, ...] = ()


@dataclass(frozen=True)
class BinaryFeature:
    """Catalog entry mapping one binary feature back to its source column."""

    column: str
    op: str  # "<=", ">" or "=="
    threshold: Optional[float] = None
    category: Optional[str] = None

    @property
    def name(self) -> str:
        if self.op == "==":
            return f"{self.column} == {self.category}"
        return f"{self.column} {self.op} {self.threshold!r}"


@dataclass(frozen=True)
class BinarizationModel:
    columns: tuple[ColumnModel, ...]
    catalog: tuple[BinaryFeature, ...]

    @property
    def column_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns)

    def to_json_obj(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "columns": [
                {
                    "name": c.name,
                    "kind": c.kind,
                    **(
                        {"thresholds": list(c.thresholds)}
                        if c.kind == NUMERIC
                        else {"categories": list(c.categories)}
                    ),
                }
                for c in self.columns
            ],
            "feature_catalog": [
                {
                    "column": f.column,
                    "op": f.op,
                    **(
                        {"threshold": f.threshold}
                        if f.op != "=="
                        else {"category": f.category}
                    ),
                }
                for f in self.catalog
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "BinarizationModel":
        if obj.get("schema_version") != SCHEMA_VERSION:
            raise SchemaError(
                f"unsupported binarization schema version {obj.get('schema_version')!r}"
            )
        columns = tuple(
            ColumnModel(
                c["name"],
                c["kind"],
                tuple(c.get("thresholds", ())),
                tuple(c.get("categories", ())),
            )
            for c in obj["columns"]
        )
        catalog = tuple(
            BinaryFeature(
                f["column"], f["op"], f.get("threshold"), f.get("category")
            )
            for f in obj["feature_catalog"]
        )
        return cls(columns, catalog)

    @classmethod
    def from_json(cls, text: str) -> "BinarizationModel":
        return cls.from_json_obj(json.loads(text))


class InvalidValueError(ValueError):
    """A numeric cell that does not parse; the message names its column and row.

    Rows count from 1, the first row after the header.
    """


def _as_float(value) -> float:
    if value is None:
        return math.nan
    if isinstance(value, str):
        value = value.strip()
        if not value:
            return math.nan
        return float(value)
    return float(value)


def numeric_column(values: Sequence, name: str) -> np.ndarray:
    """Parse one raw column to a float64 array; missing cells become nan.

    The whole column goes through one numpy conversion, which applies
    float() to each cell (a float array passes through uncopied).  A
    column holding a blank or unparseable cell falls back to one cell at
    a time, where blanks become nan and a bad cell raises
    InvalidValueError naming `name` and the row.
    """
    try:
        return np.asarray(values, dtype=float)
    except (ValueError, TypeError):
        pass
    out = np.empty(len(values))
    for i, value in enumerate(values):
        try:
            out[i] = _as_float(value)
        except (ValueError, TypeError) as exc:
            raise InvalidValueError(f"column {name!r}, row {i + 1}: {exc}") from None
    return out


def parse_numeric_columns(
    table: MutableMapping[str, Sequence], specs: Sequence[FeatureSpec]
) -> None:
    """Replace each numeric column of `table` named by `specs` with its float array.

    Done once per training table, it lets fit and transform share one
    parse; columns absent from the table are left for fit to report.
    """
    for spec in specs:
        if spec.kind == NUMERIC and spec.name in table:
            table[spec.name] = numeric_column(table[spec.name], spec.name)


def fit(table: Mapping[str, Sequence], specs: Sequence[FeatureSpec]) -> BinarizationModel:
    """Fit thresholds / category maps from a column-oriented table.

    Numeric thresholds are the empirical quantiles at k/bins for
    k = 1..bins-1 over the finite values, deduplicated, with thresholds at
    or above the column maximum dropped.  Categorical columns record the
    sorted set of observed non-missing categories.
    """
    if not table or not any(len(col) for col in table.values()):
        raise ValueError("cannot fit a binarizer on an empty table")
    columns: list[ColumnModel] = []
    catalog: list[BinaryFeature] = []
    for spec in specs:
        if spec.name not in table:
            raise SchemaError(f"column {spec.name!r} not present in table")
        raw = table[spec.name]
        if spec.kind == NUMERIC:
            values = numeric_column(raw, spec.name)
            finite = values[np.isfinite(values)]
            if finite.size == 0:
                warnings.warn(
                    f"column {spec.name!r} has no finite values; emitting no features",
                    stacklevel=2,
                )
                thresholds: tuple[float, ...] = ()
            else:
                qs = np.arange(1, spec.bins) / spec.bins
                cand = np.unique(np.quantile(finite, qs))
                top = float(finite.max())
                thresholds = tuple(float(t) for t in cand if t < top)
            columns.append(ColumnModel(spec.name, NUMERIC, thresholds))
            for t in thresholds:
                catalog.append(BinaryFeature(spec.name, "<=", t))
                catalog.append(BinaryFeature(spec.name, ">", t))
        else:
            cats = sorted({str(v) for v in raw if v is not None and str(v).strip()})
            if not cats:
                warnings.warn(
                    f"column {spec.name!r} has no observed categories; emitting no features",
                    stacklevel=2,
                )
            columns.append(ColumnModel(spec.name, CATEGORICAL, (), tuple(cats)))
            for c in cats:
                catalog.append(BinaryFeature(spec.name, "==", category=c))
    return BinarizationModel(tuple(columns), tuple(catalog))


def _row_count(model: BinarizationModel, table: Mapping[str, Sequence]) -> int:
    missing = [c.name for c in model.columns if c.name not in table]
    if missing:
        raise SchemaError(f"table is missing fitted columns {missing}")
    n = max((len(table[c.name]) for c in model.columns), default=0)
    for name in dict.fromkeys(f.column for f in model.catalog):
        if len(table[name]) != n:
            raise SchemaError(f"column {name!r} has inconsistent length")
    return n


def _predicate_blocks(
    model: BinarizationModel,
    table: Mapping[str, Sequence],
    parsed: MutableMapping[str, np.ndarray],
):
    """Yield (catalog positions, block) for each (column, op) group of the catalog.

    block[r] holds, per row, whether the predicate at positions[r] is
    true, so a group costs one broadcast comparison.  Positions index the
    catalog as given, so any catalog order works.  Each numeric column a
    threshold predicate reads is parsed once into `parsed`.
    """
    groups: dict[tuple[str, str], list[int]] = {}
    for k, feat in enumerate(model.catalog):
        groups.setdefault((feat.column, feat.op), []).append(k)
    for (column, op), positions in groups.items():
        raw = table[column]
        if op == "==":
            cats = [model.catalog[k].category for k in positions]
            slot = {c: i for i, c in enumerate(dict.fromkeys(cats))}
            codes = np.fromiter(
                (-1 if v is None else slot.get(str(v), -1) for v in raw),
                dtype=np.intp,
                count=len(raw),
            )
            block = codes == np.array([slot[c] for c in cats])[:, None]
        else:
            if column not in parsed:
                parsed[column] = numeric_column(raw, column)
            vals = parsed[column]
            thresholds = np.array([model.catalog[k].threshold for k in positions], dtype=float)
            if op == "<=":
                block = vals <= thresholds[:, None]
            else:
                block = vals > thresholds[:, None]
            block &= np.isfinite(vals)
        yield positions, block


def _packed_rows(bits: np.ndarray) -> list[int]:
    """One little-endian bitset int per row of a 2-D boolean array."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def feature_matrix(model: BinarizationModel, table: Mapping[str, Sequence]) -> np.ndarray:
    """Dense boolean matrix (n rows x len(catalog) columns) of the predicates."""
    out = np.zeros((_row_count(model, table), len(model.catalog)), dtype=bool)
    for positions, block in _predicate_blocks(model, table, {}):
        out[:, positions] = block.T
    return out


def _label_bits(labels: Sequence[int], n: int) -> int:
    if len(labels) != n:
        raise SchemaError("labels must have one entry per row")
    return _packed_rows(np.array([[bool(y) for y in labels]], dtype=bool))[0]


def _column_codes(
    model: BinarizationModel, parsed: Mapping[str, np.ndarray], n: int
) -> Optional[ColumnCodes]:
    """Bin codes of the numeric columns with long threshold ladders.

    A column's steps are the sorted distinct thresholds of its catalog
    entries, read from the catalog as given (any order, any duplicates).
    A finite value x gets code k = searchsorted(steps, x, "left"), so
    x <= steps[k'] iff k <= k'; a missing or infinite value gets code
    len(steps) + 1, which no feature covers.  Columns that would push the
    codes past uint16 stay on bitsets, and so does a column with a nan
    threshold, whose predicates no code range expresses.
    """
    ladders: dict[str, list[int]] = {}
    numeric = {c.name for c in model.columns if c.kind == NUMERIC}
    for k, feat in enumerate(model.catalog):
        if feat.op != "==" and feat.column in numeric:
            ladders.setdefault(feat.column, []).append(k)
    chosen = []
    size = 0
    for column, positions in ladders.items():
        thresholds = np.array([model.catalog[k].threshold for k in positions], dtype=float)
        steps = np.unique(thresholds)
        m = len(steps)
        if m < _CODED_MIN_THRESHOLDS or np.isnan(steps).any() or size + m + 2 > _CODE_SPACE:
            continue
        chosen.append((column, positions, thresholds, steps, size))
        size += m + 2
    if not chosen:
        return None
    bins = np.empty((n, len(chosen)), dtype=np.uint16)
    features, lo, stop = [], [], []
    for c, (column, positions, thresholds, steps, offset) in enumerate(chosen):
        m = len(steps)
        vals = parsed[column]
        finite = np.isfinite(vals)
        bins[:, c] = np.where(finite, np.searchsorted(steps, vals, "left"), m + 1) + offset
        k = np.searchsorted(steps, thresholds, "left")
        le = np.array([model.catalog[p].op == "<=" for p in positions])
        features.extend(positions)
        lo.append(offset + np.where(le, 0, k + 1))
        stop.append(offset + np.where(le, k + 1, m + 1))
    return ColumnCodes(
        bins, size, np.array(features, dtype=np.intp), np.concatenate(lo), np.concatenate(stop)
    )


def transform(
    model: BinarizationModel,
    table: Mapping[str, Sequence],
    labels: Optional[Sequence[int]] = None,
) -> BinaryDataset:
    """Binarize a raw table against the fitted catalog.

    `labels` is an optional 0/1 vector (query windows have none); see
    relabel for deriving datasets that differ only in their labels.
    Coverage is packed one (column, op) group at a time, so no n x d
    matrix is built.  Numeric columns with long threshold ladders also
    get bin codes (see _column_codes) for the learner's count scans.
    """
    n = _row_count(model, table)
    coverage = [0] * len(model.catalog)
    parsed: dict[str, np.ndarray] = {}
    for positions, block in _predicate_blocks(model, table, parsed):
        for k, bits in zip(positions, _packed_rows(block)):
            coverage[k] = bits
    label_bits = 0 if labels is None else _label_bits(labels, n)
    names = tuple(f.name for f in model.catalog)
    codes = _column_codes(model, parsed, n)
    return BinaryDataset(n, tuple(coverage), label_bits, names, codes)


def relabel(dataset: BinaryDataset, labels: Sequence[int]) -> BinaryDataset:
    """The same coverage under a new 0/1 label vector."""
    return replace(dataset, labels=_label_bits(labels, dataset.n))


def row_feature_masks(model: BinarizationModel, table: Mapping[str, Sequence]) -> list[int]:
    """Per-row bitmask over catalog feature indices (for query scoring)."""
    return _packed_rows(feature_matrix(model, table))


def describe_rule(model: BinarizationModel, rule: Rule) -> str:
    """Render a rule as a human-readable conjunction.

    Directional predicates on the same column merge into interval notation
    ("100 < x <= 200"); the empty rule renders as "TRUE".
    """
    if not rule.features:
        return "TRUE"
    if rule.features[-1] >= len(model.catalog):
        raise FeatureIndexError(
            f"rule {rule.features} references a feature outside the catalog"
        )
    by_column: dict[str, dict] = {}
    order: list[str] = []
    for j in rule.features:
        feat = model.catalog[j]
        if feat.column not in by_column:
            by_column[feat.column] = {"lo": None, "hi": None, "cats": []}
            order.append(feat.column)
        slot = by_column[feat.column]
        if feat.op == ">":
            slot["lo"] = feat.threshold if slot["lo"] is None else max(slot["lo"], feat.threshold)
        elif feat.op == "<=":
            slot["hi"] = feat.threshold if slot["hi"] is None else min(slot["hi"], feat.threshold)
        else:
            slot["cats"].append(feat.category)
    parts = []
    for column in order:
        slot = by_column[column]
        for cat in slot["cats"]:
            parts.append(f"{column} == {cat}")
        lo, hi = slot["lo"], slot["hi"]
        if lo is not None and hi is not None:
            parts.append(f"{lo!r} < {column} <= {hi!r}")
        elif lo is not None:
            parts.append(f"{column} > {lo!r}")
        elif hi is not None:
            parts.append(f"{column} <= {hi!r}")
    return " ∧ ".join(parts)
