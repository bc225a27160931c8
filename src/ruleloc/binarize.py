"""Quantile binarization of raw metric columns into binary predicates.

Numeric columns are cut at equal-mass quantile thresholds; each kept
threshold t yields the pair of directional predicates (x <= t) and
(x > t), so conjunctions can express intervals.  Categorical columns are
one-hot encoded.  The fitted model renders learned rules back into
human-readable predicate strings and serializes to JSON.

The fitted columns are the model: the feature catalog is derived from
them in fit's order, (<= t, > t) per numeric threshold and (== c) per
category.  The model JSON writes that catalog out for readers, and
loading rejects a file whose stored catalog differs from it.  Loading
compares the stored catalog one column slice at a time in C (itemgetter
against zip/repeat/cycle of the column's values), and walks it entry by
entry only to name the first difference of a catalog that fails.

Conventions (fixed, documented): x == t satisfies (x <= t); a missing
value satisfies no predicate of its column; thresholds equal to or above
the column maximum are dropped (they would produce an always-true and a
never-true predicate, and they are all a constant column would produce).
A numeric cell is missing when it is None, empty or whitespace only, or
when it parses to nan, inf or -inf: infinities count as missing, so they
satisfy neither (x <= t) nor (x > t) and never move a threshold.
Whitespace is what str.strip removes, which besides space, tab and line
ends includes U+001C-U+001F, U+0085 and U+2028: "7" followed by U+001C
parses as 7.0, and a cell holding only U+0085 is missing.

Numeric cells parse with Python's float() rules.  A table whose numeric
columns already hold float arrays (see parse_numeric_columns) is used as
is, so one parse can serve both fit and transform.
"""

from __future__ import annotations

import json
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate, chain, cycle, repeat, zip_longest
from operator import itemgetter, lt
from typing import Iterator, Mapping, MutableMapping, Optional, Sequence

import numpy as np

from ruleloc import SCHEMA_VERSION
from ruleloc.core import BinaryDataset, ColumnCodes, FeatureIndexError, Rule

NUMERIC = "numeric"
CATEGORICAL = "categorical"

DEFAULT_BINS = 100

# transform gives a numeric column bin codes when it has at least this
# many thresholds.  A code histogram costs about the same per sample
# whatever the column's ladder length, where the bitsets cost one AND per
# feature, so short ladders stay cheaper on bitsets.
_CODED_MIN_THRESHOLDS = 8
# Codes are stored as uint16, so all coded columns share 2**16 codes.
_CODE_SPACE = 1 << 16


class SchemaError(ValueError):
    """Input columns do not match the fitted catalog."""


class ShapeError(SchemaError):
    """A model JSON value of the wrong type; the message starts with its key path."""


# The JSON types a model's values must have, by the name messages give them.
# Booleans are JSON's own type: no number, fraction or count.
OBJECT, LIST, STRING = "an object", "a list", "a string"
NUMBER, FRACTION, COUNT = "a number", "a number in [0, 1]", "a non-negative integer"
_JSON_KINDS = {
    OBJECT: lambda v: isinstance(v, dict),
    LIST: lambda v: isinstance(v, list),
    STRING: lambda v: isinstance(v, str),
    NUMBER: lambda v: type(v) in (int, float),
    FRACTION: lambda v: type(v) in (int, float) and 0 <= v <= 1,
    COUNT: lambda v: type(v) is int and v >= 0,
}


def _shown(value) -> str:
    """A JSON value as a message shows it: a container by its type, a scalar as text."""
    if isinstance(value, (dict, list)):
        return OBJECT if isinstance(value, dict) else LIST
    text = json.dumps(value)
    return text if len(text) <= 40 else text[:37] + "..."


def checked(value, kind: str, path: str):
    """value, if it is of the JSON kind; a ShapeError naming path otherwise."""
    if not _JSON_KINDS[kind](value):
        raise ShapeError(f"{path}: expected {kind}, got {_shown(value)}")
    return value


def checked_field(obj: Mapping, key: str, kind: str, path: str = ""):
    """obj[key], checked to be of the JSON kind; path is obj's own key path."""
    where = f"{path}.{key}" if path else key
    if key not in obj:
        raise ShapeError(f"{where}: missing")
    return checked(obj[key], kind, where)


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

    def to_json_obj(self) -> dict:
        """JSON form of the feature: its catalog entry, and the body of a rule predicate."""
        if self.op == "==":
            return {"column": self.column, "op": self.op, "category": self.category}
        return {"column": self.column, "op": self.op, "threshold": self.threshold}


@dataclass(frozen=True)
class ColumnModel:
    name: str
    kind: str
    thresholds: tuple[float, ...] = ()
    categories: tuple[str, ...] = ()

    def to_json_obj(self) -> dict:
        if self.kind == NUMERIC:
            return {"name": self.name, "kind": self.kind, "thresholds": list(self.thresholds)}
        return {"name": self.name, "kind": self.kind, "categories": list(self.categories)}

    @property
    def width(self) -> int:
        """How many catalog features the column gives."""
        return 2 * len(self.thresholds) if self.kind == NUMERIC else len(self.categories)

    def entry_values(self) -> Iterator[tuple]:
        """(column, op, threshold or category): the values of the catalog entry
        of each of the column's features, in catalog order."""
        if self.kind == NUMERIC:
            doubled = chain.from_iterable(zip(self.thresholds, self.thresholds))
            return zip(repeat(self.name), cycle(("<=", ">")), doubled)
        return zip(repeat(self.name), repeat("=="), self.categories)


# The key of the value of a catalog entry of a numeric or a categorical
# column, after "column" and "op"; _ENTRY_VALUES reads entry_values back.
_VALUE_KEY = {NUMERIC: "threshold", CATEGORICAL: "category"}
_ENTRY_VALUES = {kind: itemgetter("column", "op", key) for kind, key in _VALUE_KEY.items()}


def _column_from_json(obj, path: str) -> ColumnModel:
    """A column as to_json_obj writes it, checked to give a well-formed catalog;
    path is its key path."""
    checked(obj, OBJECT, path)
    name = checked_field(obj, "name", STRING, path)
    kind = checked_field(obj, "kind", STRING, path)
    if kind == NUMERIC:
        thresholds = tuple(checked(obj.get("thresholds", []), LIST, f"{path}.thresholds"))
        try:
            finite = set(map(type, thresholds)) <= {int, float} and all(
                map(math.isfinite, thresholds)
            )
        except OverflowError as exc:  # an integer too large for a float
            raise ShapeError(f"{path}.thresholds: {exc}") from None
        if not finite:
            raise SchemaError(f"column {name!r}: thresholds must be finite numbers")
        if not all(map(lt, thresholds, thresholds[1:])):
            raise SchemaError(f"column {name!r}: thresholds must be strictly increasing")
        return ColumnModel(name, NUMERIC, thresholds)
    if kind == CATEGORICAL:
        cats = tuple(checked(obj.get("categories", []), LIST, f"{path}.categories"))
        if not set(map(type, cats)) <= {str} or len(set(cats)) < len(cats):
            raise SchemaError(f"column {name!r}: categories must be distinct strings")
        return ColumnModel(name, CATEGORICAL, (), cats)
    raise SchemaError(f"column {name!r}: unknown kind {kind!r}")


@dataclass(frozen=True)
class BinarizationModel:
    """The fitted columns, from which the feature catalog is derived."""

    columns: tuple[ColumnModel, ...]

    @cached_property
    def _starts(self) -> tuple[int, ...]:
        """Catalog position of each column's first feature, then the feature count."""
        return (0, *accumulate(c.width for c in self.columns))

    @property
    def n_features(self) -> int:
        return self._starts[-1]

    @cached_property
    def catalog(self) -> tuple[BinaryFeature, ...]:
        """Every feature, the columns' predicates in column order."""
        return tuple(
            BinaryFeature(name, op, v) if c.kind == NUMERIC else BinaryFeature(name, op, None, v)
            for c in self.columns
            for name, op, v in c.entry_values()
        )

    def feature(self, j: int) -> BinaryFeature:
        """catalog[j], found from its column without building the catalog."""
        if not 0 <= j < self.n_features:
            raise FeatureIndexError(f"feature {j} outside the {self.n_features}-feature catalog")
        c = bisect_right(self._starts, j) - 1
        column, k = self.columns[c], j - self._starts[c]
        if column.kind == NUMERIC:
            return BinaryFeature(column.name, ("<=", ">")[k % 2], column.thresholds[k // 2])
        return BinaryFeature(column.name, "==", None, column.categories[k])

    def _catalog_objs(self) -> Iterator[dict]:
        return (
            {"column": name, "op": op, _VALUE_KEY[c.kind]: value}
            for c in self.columns
            for name, op, value in c.entry_values()
        )

    def _catalog_equals(self, stored: list) -> bool:
        """Whether stored is the derived catalog, as to_json_obj writes it.

        Every entry must be a dict of exactly three keys whose values, read
        by _ENTRY_VALUES per column slice, equal the column's entry_values:
        the same test as comparing each entry with its derived dict.
        """
        if len(stored) != self.n_features or not set(map(type, stored)) <= {dict}:
            return False
        if not set(map(len, stored)) <= {3}:
            return False
        try:
            return all(
                list(map(_ENTRY_VALUES[c.kind], stored[start : start + c.width]))
                == list(c.entry_values())
                for c, start in zip(self.columns, self._starts)
            )
        except KeyError:  # an entry of three keys, not the three of its kind
            return False

    def to_json_obj(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "columns": [c.to_json_obj() for c in self.columns],
            "feature_catalog": list(self._catalog_objs()),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "BinarizationModel":
        """The model of obj["columns"], whose stored feature_catalog must equal the
        derived one; a SchemaError names the first position where they differ,
        and a ShapeError the key path of a value of the wrong JSON type."""
        if obj.get("schema_version") != SCHEMA_VERSION:
            raise SchemaError(
                f"unsupported binarization schema version {obj.get('schema_version')!r}"
            )
        columns = checked_field(obj, "columns", LIST)
        model = cls(tuple(_column_from_json(c, f"columns[{i}]") for i, c in enumerate(columns)))
        names = [c.name for c in model.columns]
        if len(set(names)) < len(names):
            raise SchemaError(f"duplicate column {next(n for n in names if names.count(n) > 1)!r}")
        stored = obj.get("feature_catalog")
        if not isinstance(stored, list):
            raise SchemaError("feature_catalog must be a list")
        if model._catalog_equals(stored):
            return model
        for j, pair in enumerate(zip_longest(stored, model._catalog_objs())):
            if pair[0] != pair[1]:
                a, b = (json.dumps(x, sort_keys=True) for x in pair)
                raise SchemaError(f"feature_catalog[{j}] is {a}, the columns give {b}")
        return model

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
        else:
            cats = sorted({str(v) for v in raw if v is not None and str(v).strip()})
            if not cats:
                warnings.warn(
                    f"column {spec.name!r} has no observed categories; emitting no features",
                    stacklevel=2,
                )
            columns.append(ColumnModel(spec.name, CATEGORICAL, (), tuple(cats)))
    return BinarizationModel(tuple(columns))


def _row_count(model: BinarizationModel, table: Mapping[str, Sequence]) -> int:
    missing = [c.name for c in model.columns if c.name not in table]
    if missing:
        raise SchemaError(f"table is missing fitted columns {missing}")
    n = max((len(table[c.name]) for c in model.columns), default=0)
    for c in model.columns:
        if c.width and len(table[c.name]) != n:
            raise SchemaError(f"column {c.name!r} has inconsistent length")
    return n


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


def _packed_rows(bits: np.ndarray) -> list[int]:
    """One little-endian bitset int per row of a 2-D boolean array."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def feature_matrix(model: BinarizationModel, table: Mapping[str, Sequence]) -> np.ndarray:
    """Dense boolean matrix (n rows x len(catalog) columns) of the predicates."""
    out = np.zeros((_row_count(model, table), model.n_features), dtype=bool)
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

    A column's steps are its thresholds, which are sorted and distinct.
    A finite value x gets code k = searchsorted(steps, x, "left"), so
    x <= steps[k'] iff k <= k'; a missing or infinite value gets code
    len(steps) + 1, which no feature covers.  The features (<= t_k, > t_k)
    then cover codes 0..k and k+1..len(steps).  Columns that would push
    the codes past uint16 stay on bitsets.
    """
    chosen, size = [], 0
    for column, start in zip(model.columns, model._starts):
        m = len(column.thresholds)
        if column.kind == NUMERIC and m >= _CODED_MIN_THRESHOLDS and size + m + 2 <= _CODE_SPACE:
            chosen.append((column, start, size))
            size += m + 2
    if not chosen:
        return None
    bins = np.empty((n, len(chosen)), dtype=np.uint16)
    features, lo, stop = [], [], []
    for c, (column, start, offset) in enumerate(chosen):
        m = len(column.thresholds)
        vals = parsed[column.name]
        code = np.searchsorted(np.array(column.thresholds, dtype=float), vals, "left")
        bins[:, c] = np.where(np.isfinite(vals), code, m + 1) + offset
        past = np.arange(1, m + 1)  # per threshold, the first code above it
        features.append(np.arange(start, start + 2 * m))
        lo.append(offset + np.column_stack((np.zeros_like(past), past)).ravel())
        stop.append(offset + np.column_stack((past, np.full_like(past, m + 1))).ravel())
    return ColumnCodes(bins, size, *(np.concatenate(a) for a in (features, lo, stop)))


def transform(
    model: BinarizationModel,
    table: Mapping[str, Sequence],
    labels: Optional[Sequence[int]] = None,
) -> BinaryDataset:
    """Binarize a raw table against the fitted catalog.

    `labels` is an optional 0/1 vector (query windows have none); see
    relabel for deriving datasets that differ only in their labels.
    Coverage is packed one block at a time, so no n x d matrix is built.
    Numeric columns with long threshold ladders also get bin codes (see
    _column_codes) for the learner's count scans.
    """
    n = _row_count(model, table)
    parsed: dict[str, np.ndarray] = {}
    coverage = [0] * model.n_features
    for positions, block in _predicate_blocks(model, table, parsed):
        coverage[positions] = _packed_rows(block)
    label_bits = 0 if labels is None else _label_bits(labels, n)
    names = tuple(f.name for f in model.catalog)
    codes = _column_codes(model, parsed, n)
    return BinaryDataset(n, tuple(coverage), label_bits, names, codes)


def relabel(dataset: BinaryDataset, labels: Sequence[int]) -> BinaryDataset:
    """The same coverage under a new 0/1 label vector."""
    return replace(dataset, labels=_label_bits(labels, dataset.n))


def describe_rule(model: BinarizationModel, rule: Rule) -> str:
    """Render a rule as a human-readable conjunction.

    Directional predicates on the same column merge into interval notation
    ("100 < x <= 200"); the empty rule renders as "TRUE".
    """
    by_column: dict[str, list[BinaryFeature]] = {}
    for feat in map(model.feature, rule.features):
        by_column.setdefault(feat.column, []).append(feat)
    parts = []
    for column, feats in by_column.items():
        parts += [f"{column} == {f.category}" for f in feats if f.op == "=="]
        lo = max((f.threshold for f in feats if f.op == ">"), default=None)
        hi = min((f.threshold for f in feats if f.op == "<="), default=None)
        if lo is not None:
            parts.append(f"{column} > {lo!r}" if hi is None else f"{lo!r} < {column} <= {hi!r}")
        elif hi is not None:
            parts.append(f"{column} <= {hi!r}")
    return " ∧ ".join(parts) or "TRUE"
