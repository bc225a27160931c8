"""Quantile binarization of raw metric columns into binary predicates.

Numeric columns are cut at equal-mass quantile thresholds; each kept
threshold t yields the pair of directional predicates (x <= t) and
(x > t), so conjunctions can express intervals.  Categorical columns are
one-hot encoded.  The fitted model renders learned rules back into
human-readable predicate strings and serializes to JSON.

The fitted columns are the model: the feature catalog is derived from
them in fit's order, (<= t, > t) per numeric threshold and (== c) per
category.  The model JSON writes that catalog out for readers, each
entry in BinaryFeature.to_json_obj's form, and loading rejects a file
whose stored catalog differs from it.  One renderer, ColumnModel.texts,
gives a column's exact text in the model file, both its item in
"columns" and its catalog entries, from text templates joined with the
texts of its thresholds.  The writer makes those texts once per column,
as json.dumps writes each threshold.  Loading a file as the writer wrote
it renders no number: it takes the texts from the file's own "columns"
(text_after_columns), checks that the columns rendered with them are the
file's, and compares the catalog rendered with them with the file's:
where they are equal, no catalog entry is parsed.  Any other stored
catalog, such as one of a re-indented file, is parsed, and from_json_obj
walks it entry by entry, which names its first difference from the
derived one.

Conventions (fixed, documented): x == t satisfies (x <= t); a missing
value satisfies no predicate of its column; thresholds equal to or above
the column maximum are dropped (they would produce an always-true and a
never-true predicate, and they are all a constant column would produce).
-0.0 counts as 0.0 when thresholds are fitted, so no threshold is -0.0
(x <= 0.0 holds for x = -0.0 as for 0.0, so no predicate changes).
A numeric cell is missing when it is None, empty or whitespace only, or
when it parses to nan, inf or -inf: infinities count as missing, so they
satisfy neither (x <= t) nor (x > t) and never move a threshold.
Whitespace is what str.strip removes, which besides space, tab and line
ends includes U+001C-U+001F, U+0085 and U+2028: "7" followed by U+001C
parses as 7.0, and a cell holding only U+0085 is missing.

Numeric cells parse with Python's float() rules (see numeric_column).
A numeric column may also be a float64 or a uint8 array, as ruleloc.cli's
reader gives it; fit and transform then use it as is, so one parse
serves both.  A uint8 column, which the reader gives for a column of
small unsigned integers, is compared with the float thresholds as it is,
never copied to float64 whole with the others: every uint8 value is a
float64 and finite, so each predicate holds for it as for its float64
copy.  fit converts one column at a time to float64.
"""

from __future__ import annotations

import json
import math
import warnings
from bisect import bisect_right
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate, chain, cycle, repeat, zip_longest
from operator import lt
from typing import Container, Iterator, Mapping, Optional, Sequence

import numpy as np

from ruleloc import SCHEMA_VERSION
from ruleloc.core import (
    BinaryDataset,
    ColumnCodes,
    Coverage,
    FeatureIndexError,
    Rule,
    bitset_of_flags,
)

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
# The most quantile bins a numeric column takes: a finer grid has more
# thresholds than uint16 codes can name.
MAX_BINS = _CODE_SPACE
# feature_matrix gathers at most this many float values (2 MB) at once: a
# 20-row window against 1,980 thresholds takes one gather of 39,600.
_GATHERED_CELLS = 1 << 18


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


def check_bins(bins: int) -> None:
    """A ValueError unless bins is a count of quantile bins a numeric column can take."""
    if bins < 2:
        raise ValueError("numeric columns need bins >= 2")
    if bins > MAX_BINS:
        raise ValueError(f"numeric columns need bins <= {MAX_BINS}")


@dataclass(frozen=True)
class FeatureSpec:
    """Declares how one raw column is binarized."""

    name: str
    kind: str = NUMERIC
    bins: int = DEFAULT_BINS

    def __post_init__(self) -> None:
        if self.kind not in (NUMERIC, CATEGORICAL):
            raise ValueError(f"unknown column kind {self.kind!r}")
        if self.kind == NUMERIC:
            check_bins(self.bins)


@dataclass(frozen=True)
class BinaryFeature:
    """Catalog entry mapping one binary feature back to its source column."""

    column: str
    op: str  # "<=", ">" or "=="
    threshold: Optional[float] = None
    category: Optional[str] = None

    def to_json_obj(self) -> dict:
        """JSON form of the feature: its catalog entry, and the body of a rule predicate."""
        if self.op == "==":
            return {"column": self.column, "op": self.op, "category": self.category}
        return {"column": self.column, "op": self.op, "threshold": self.threshold}


# How json.dumps(..., sort_keys=True, indent=2) lays out the binarization of
# a model file: its members on lines indented by four spaces, each item of
# its lists (columns, feature_catalog) by six, an item's keys by eight and
# the items of a key's list (thresholds, categories) by ten.
_MEMBER, _ITEM, _KEY, _VALUE = ("\n" + " " * n for n in (4, 6, 8, 10))
_THRESHOLDS = '"thresholds": ['


def _list_text(items: Sequence[str], inner: str, outer: str) -> str:
    """The JSON list of the item texts, each on a line starting inner, its
    "]" on one starting outer, as json.dumps(..., indent=2) writes it."""
    return f"[{inner}{f',{inner}'.join(items)}{outer}]" if items else "[]"


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

    def texts(self, numbers: Sequence[str]) -> tuple[str, str]:
        """(entry, catalog): the column's item in a model file's columns, and
        its features' items in the feature catalog joined ("" if it gives
        none), as json.dumps(..., sort_keys=True, indent=2) writes them there,
        numbers[k] being the text of thresholds[k].

        A numeric column's catalog is one join of two entry templates, the
        text before a (<= t) and before a (> t) entry's threshold,
        interleaved with each threshold's text twice.
        """
        name = json.dumps(self.name)
        if self.kind == CATEGORICAL:
            cats = list(map(json.dumps, self.categories))
            entry = (
                f'{{{_KEY}"categories": {_list_text(cats, _VALUE, _KEY)},'
                f'{_KEY}"kind": "categorical",{_KEY}"name": {name}{_ITEM}}}'
            )
            tail = f',{_KEY}"column": {name},{_KEY}"op": "=="{_ITEM}}}'
            return entry, f",{_ITEM}".join(f'{{{_KEY}"category": {c}{tail}' for c in cats)
        entry = (
            f'{{{_KEY}"kind": "numeric",{_KEY}"name": {name},'
            f'{_KEY}"thresholds": {_list_text(numbers, _VALUE, _KEY)}{_ITEM}}}'
        )
        if not numbers:
            return entry, ""
        head = f'{{{_KEY}"column": {name},{_KEY}"op": '
        first = f'{head}"<=",{_KEY}"threshold": '
        after = f"{_ITEM}}},{_ITEM}"  # ends one entry, starts the next
        at_most, above = after + first, f'{after}{head}">",{_KEY}"threshold": '
        pieces = list(chain.from_iterable(zip(repeat(at_most), numbers, repeat(above), numbers)))
        pieces[0] = first
        pieces.append(f"{_ITEM}}}")
        return entry, "".join(pieces)


def _number_texts(values: Sequence) -> list[str]:
    """Each number as json.dumps writes it: repr for a float."""
    if set(map(type, values)) <= {float}:
        return list(map(float.__repr__, values))
    return list(map(json.dumps, values))


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


def _columns_model(obj: Mapping) -> "BinarizationModel":
    """The model of obj["columns"], each column checked by _column_from_json
    and no name given twice."""
    columns = checked_field(obj, "columns", LIST)
    model = BinarizationModel(
        tuple(_column_from_json(c, f"columns[{i}]") for i, c in enumerate(columns))
    )
    names = [c.name for c in model.columns]
    if len(set(names)) < len(names):
        raise SchemaError(f"duplicate column {next(n for n in names if names.count(n) > 1)!r}")
    return model


@dataclass(frozen=True)
class _ThresholdLayout:
    """The numeric thresholds of a model, in catalog order.

    Threshold r cuts numeric column names[rows[r]] at thresholds[r, 0];
    its (<= t) feature sits at catalog position at_most[r] and its (> t)
    feature at above[r].
    """

    names: tuple[str, ...]
    rows: np.ndarray
    thresholds: np.ndarray
    at_most: np.ndarray
    above: np.ndarray


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

    @cached_property
    def _threshold_layout(self) -> _ThresholdLayout:
        """Every numeric threshold with its column and catalog positions."""
        numeric = [
            (c, start)
            for c, start in zip(self.columns, self._starts)
            if c.kind == NUMERIC and c.width
        ]
        counts = np.array([len(c.thresholds) for c, _ in numeric], dtype=np.intp)
        rows = np.repeat(np.arange(len(numeric)), counts)
        # A column's k-th threshold has its (<= t) feature at start + 2k.
        k = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
        at_most = np.array([start for _, start in numeric], dtype=np.intp)[rows] + 2 * k
        thresholds = chain.from_iterable(c.thresholds for c, _ in numeric)
        return _ThresholdLayout(
            tuple(c.name for c, _ in numeric),
            rows,
            np.fromiter(thresholds, float, len(rows))[:, None],
            at_most,
            at_most + 1,
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

    def to_json_obj(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "columns": [c.to_json_obj() for c in self.columns],
            "feature_catalog": [f.to_json_obj() for f in self.catalog],
        }

    def text_parts(self, numbers: Sequence[Sequence[str]]) -> tuple[str, list[str]]:
        """(columns, rest): to_json_text() is the binarization's "{", its
        "columns" key, columns, then the pieces of rest, numbers[i] being the
        texts of columns[i]'s thresholds.  Each column is rendered once, by
        ColumnModel.texts, for both its item in columns and its catalog
        entries, which rest holds a column at a time: no copy of the whole
        catalog is made."""
        entries, catalog = [], [f"[{_ITEM}"]
        for column, texts in zip(self.columns, numbers):
            entry, features = column.texts(texts)
            entries.append(entry)
            if features:
                catalog += (features, f",{_ITEM}")
        # The comma after the last column's entries ends the list instead.
        catalog[-1] = f"{_MEMBER}]" if len(catalog) > 1 else "[]"
        rest = [
            f',{_MEMBER}"feature_catalog": ',
            *catalog,
            f',{_MEMBER}"schema_version": {json.dumps(SCHEMA_VERSION)}\n  }}',
        ]
        return _list_text(entries, _ITEM, _MEMBER), rest

    def to_json_text(self) -> str:
        """to_json_obj() as json.dumps(..., sort_keys=True, indent=2) writes it
        as the value of a model file's "binarization", on a line indented by
        two spaces, rendered as text with each threshold's text made once."""
        numbers = [_number_texts(c.thresholds) if c.thresholds else () for c in self.columns]
        columns, rest = self.text_parts(numbers)
        return "".join([f'{{{_MEMBER}"columns": ', columns, *rest])

    def text_after_columns(self, columns_text: str) -> Optional[list[str]]:
        """The pieces of what follows columns_text in to_json_text(), if
        columns_text is the columns' text there, with its thresholds written
        in any number texts; None otherwise.  No number is rendered: the
        texts are the ones in columns_text.

        A numeric column's texts are the items of the list after the next
        '"thresholds": [', split at the separators, up to the first "]".
        They are used only where each column gives as many as it has
        thresholds and the columns rendered with them are columns_text.
        Then the list holds no "]" before its own, and its items are the
        column's thresholds, all numbers, so its only commas are the
        separators: each text is one number token, with white space around
        it, whose value is its threshold.  Text rendered with them parses to
        the thresholds' values.
        """
        numbers, at = [], 0
        for column in self.columns:
            texts: Sequence[str] = ()
            if column.kind == NUMERIC:
                at = columns_text.find(_THRESHOLDS, at) + len(_THRESHOLDS)
                end = columns_text.find("]", at)
                if end > at:
                    texts = columns_text[at + len(_VALUE) : end - len(_KEY)].split(f",{_VALUE}")
                if len(texts) != len(column.thresholds):
                    return None
            numbers.append(texts)
        columns, rest = self.text_parts(numbers)
        return rest if columns == columns_text else None

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "BinarizationModel":
        """The model of obj["columns"], whose stored feature_catalog must equal the
        derived one; a SchemaError names the first position where they differ,
        and a ShapeError the key path of a value of the wrong JSON type."""
        if obj.get("schema_version") != SCHEMA_VERSION:
            raise SchemaError(
                f"unsupported binarization schema version {obj.get('schema_version')!r}"
            )
        model = _columns_model(obj)
        stored = obj.get("feature_catalog")
        if not isinstance(stored, list):
            raise SchemaError("feature_catalog must be a list")
        derived = (f.to_json_obj() for f in model.catalog)
        for j, pair in enumerate(zip_longest(stored, derived)):
            if pair[0] != pair[1]:
                a, b = (json.dumps(x, sort_keys=True) for x in pair)
                raise SchemaError(f"feature_catalog[{j}] is {a}, the columns give {b}")
        return model


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

    A uint8 array passes through as it is: each value is a float64 value,
    and none is missing.  Anything else goes through one numpy conversion,
    which applies float() to each cell (a float64 array passes through
    uncopied).  A column holding a blank or unparseable cell falls back to
    one cell at a time, where blanks become nan and a bad cell raises
    InvalidValueError naming `name` and the row.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.uint8:
        return values
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


def _linear_quantiles(ordered: np.ndarray, qs: np.ndarray) -> np.ndarray:
    """np.quantile(x, qs) for finite x holding no -0.0, from ordered = np.sort(x).

    numpy's "linear" method, one float operation for one: the virtual
    index (n - 1) * q falls between ordered[floor] and the next value
    (the last value from n - 1 on), and its fraction gamma interpolates
    them as numpy's _lerp does, from the upper end where gamma >= 0.5.
    """
    n = len(ordered)
    virtual = (n - 1) * qs
    previous = np.floor(virtual)
    gamma = virtual - previous
    low = np.minimum(previous, n - 1).astype(np.intp)
    a, b = ordered[low], ordered[np.minimum(low + 1, n - 1)]
    diff = b - a
    out = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=out, where=gamma >= 0.5)
    return out


def fit(table: Mapping[str, Sequence], specs: Sequence[FeatureSpec]) -> BinarizationModel:
    """Fit thresholds / category maps from a column-oriented table.

    Numeric thresholds are the empirical quantiles at k/bins for
    k = 1..bins-1 over the finite values, deduplicated, with thresholds at
    or above the column maximum dropped.  They are numpy's "linear"
    quantiles, computed from one sort of the finite values, and -0.0
    counts as 0.0, so no threshold is -0.0.  Categorical columns record
    the sorted set of observed non-missing categories.
    """
    if not table or not any(len(col) for col in table.values()):
        raise ValueError("cannot fit a binarizer on an empty table")
    columns: list[ColumnModel] = []
    for spec in specs:
        if spec.name not in table:
            raise SchemaError(f"column {spec.name!r} not present in table")
        raw = table[spec.name]
        if spec.kind == NUMERIC:
            values = numeric_column(raw, spec.name).astype(float, copy=False)
            finite = values[np.isfinite(values)]  # a copy, sorted in place
            if finite.size == 0:
                warnings.warn(
                    f"column {spec.name!r} has no finite values; emitting no features",
                    stacklevel=2,
                )
                thresholds: tuple[float, ...] = ()
            else:
                finite.sort()
                finite += 0.0  # -0.0 becomes 0.0
                qs = np.arange(1, spec.bins) / spec.bins
                cand = np.unique(_linear_quantiles(finite, qs))
                thresholds = tuple(float(t) for t in cand if t < finite[-1])
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


def _sides(values: np.ndarray, thresholds: np.ndarray) -> Iterator[np.ndarray]:
    """Yield values <= thresholds, then values > thresholds, broadcast, both
    false where a value is missing: nan and ±inf satisfy no predicate.

    The second block is computed only when asked for, so a caller that
    packs each block before the next holds no more than two at a time.
    """
    finite = np.isfinite(values)
    for compare in (np.less_equal, np.greater):
        block = compare(values, thresholds)
        block &= finite
        yield block


def _category_block(column: ColumnModel, raw: Sequence) -> np.ndarray:
    """block[r, i] is whether row i holds column.categories[r]."""
    slot = {c: k for k, c in enumerate(column.categories)}
    codes = np.fromiter(
        (-1 if v is None else slot.get(str(v), -1) for v in raw), np.intp, len(raw)
    )
    return codes == np.arange(column.width)[:, None]


def _predicate_blocks(
    model: BinarizationModel,
    table: Mapping[str, Sequence],
    parsed: Mapping[str, np.ndarray],
    coded: Container[str],
):
    """Yield (catalog positions, block), one comparison per column and op,
    for the columns not named in `coded`; positions is an index array.

    block[r, i] is whether row i satisfies the feature at positions[r]; a
    column's (<= t) features take the even, its (> t) features the odd
    positions of its catalog range.  Numeric columns are read from
    `parsed`.
    """
    for column, start in zip(model.columns, model._starts):
        if not column.width or column.name in coded:
            continue
        stop = start + column.width
        if column.kind == CATEGORICAL:
            yield np.arange(start, stop), _category_block(column, table[column.name])
            continue
        vals = parsed[column.name]
        thresholds = np.array(column.thresholds, dtype=float)[:, None]
        for first, block in zip((start, start + 1), _sides(vals, thresholds)):
            yield np.arange(first, stop, 2), block


def feature_matrix(model: BinarizationModel, table: Mapping[str, Sequence]) -> np.ndarray:
    """Dense boolean matrix (n rows x len(catalog) columns) of the predicates,
    in column-major order.

    Every numeric threshold is decided at once from the model's threshold
    layout: one gather of the numeric columns, one (<=) and one (>)
    comparison, scattered to the catalog.  The columns, each parsed by
    numeric_column, are stacked as rows of one array, uint8 if every one
    is uint8 and else float64, and the first bad cell is named in catalog
    order.  Where rows times thresholds exceed _GATHERED_CELLS, the
    thresholds go in blocks of that many cells, so the gathered floats
    stay bounded.  Categorical columns are one-hot encoded one column at
    a time.
    """
    n = _row_count(model, table)
    # Built as its transpose, where each feature is one contiguous row.
    by_feature = np.zeros((model.n_features, n), dtype=bool)
    layout = model._threshold_layout
    values = np.array([numeric_column(table[name], name) for name in layout.names])
    step = max(1, _GATHERED_CELLS // max(n, 1))
    for lo in range(0, len(layout.rows), step):
        block = slice(lo, lo + step)
        at_most, above = _sides(values[layout.rows[block]], layout.thresholds[block])
        by_feature[layout.at_most[block]] = at_most
        by_feature[layout.above[block]] = above
    for column, start in zip(model.columns, model._starts):
        if column.kind == CATEGORICAL and column.width:
            by_feature[start : start + column.width] = _category_block(column, table[column.name])
    return by_feature.T


def _label_bits(labels: Sequence[int], n: int) -> int:
    """The set of rows whose 0/1 label is 1, from one boolean vector."""
    if len(labels) != n:
        raise SchemaError("labels must have one entry per row")
    return bitset_of_flags(labels)


def _column_codes(
    model: BinarizationModel, parsed: Mapping[str, np.ndarray], n: int
) -> tuple[ColumnCodes, set[str]]:
    """Bin codes of the numeric columns with long threshold ladders, and
    the names of those columns.

    A column's steps are its thresholds, which are sorted and distinct.
    A finite value x gets code k = searchsorted(steps, x, "left"), so
    x <= steps[k'] iff k <= k'; a missing or infinite value gets code
    len(steps) + 1, which no feature covers.  The features (<= t_k, > t_k)
    then cover codes 0..k and k+1..len(steps).  Columns that would push
    the codes past uint16 stay on packed words.
    """
    chosen, size = [], 0
    for column, start in zip(model.columns, model._starts):
        m = len(column.thresholds)
        if column.kind == NUMERIC and m >= _CODED_MIN_THRESHOLDS and size + m + 2 <= _CODE_SPACE:
            chosen.append((column, start, size))
            size += m + 2
    if not chosen:
        return ColumnCodes.empty(n), set()
    bins = np.empty((n, len(chosen)), dtype=np.uint16)
    features, columns, lo, stop = [], [], [], []
    for c, (column, start, offset) in enumerate(chosen):
        m = len(column.thresholds)
        vals = parsed[column.name]
        code = np.searchsorted(np.array(column.thresholds, dtype=float), vals, "left")
        bins[:, c] = np.where(np.isfinite(vals), code, m + 1) + offset
        past = np.arange(1, m + 1)  # per threshold, the first code above it
        features.append(np.arange(start, start + 2 * m))
        columns.append(np.full(2 * m, c))
        lo.append(offset + np.column_stack((np.zeros_like(past), past)).ravel())
        stop.append(offset + np.column_stack((past, np.full_like(past, m + 1))).ravel())
    codes = ColumnCodes(bins, size, *map(np.concatenate, (features, columns, lo, stop)))
    return codes, {column.name for column, _, _ in chosen}


def transform(
    model: BinarizationModel,
    table: Mapping[str, Sequence],
    labels: Optional[Sequence[int]] = None,
) -> BinaryDataset:
    """Binarize a raw table against the fitted catalog.

    `labels` is an optional 0/1 vector (query windows have none); see
    relabel for deriving datasets that differ only in their labels.
    Numeric columns are parsed first, in catalog order, so the first bad
    cell is the one reported.  Numeric columns with long threshold ladders
    then get bin codes (see _column_codes), and every other feature's
    predicate block is packed straight into the dataset's word matrix, one
    block at a time, so no n x d matrix is built.  The store (see
    Coverage) holds each cover once, as words or as codes, and transform
    builds no cover int: each is built when it is first read.
    """
    n = _row_count(model, table)
    parsed = {
        c.name: numeric_column(table[c.name], c.name)
        for c in model.columns
        if c.kind == NUMERIC and c.width
    }
    codes, coded = _column_codes(model, parsed, n)
    blocks = _predicate_blocks(model, table, parsed, coded)
    coverage = Coverage.packed(n, model.n_features, blocks, codes)
    label_bits = 0 if labels is None else _label_bits(labels, n)
    return BinaryDataset(n, coverage, label_bits)


def relabel(dataset: BinaryDataset, labels: Sequence[int]) -> BinaryDataset:
    """The same coverage store under a new 0/1 label vector."""
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
