import json
import math
import warnings
from itertools import zip_longest

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruleloc import binarize
from ruleloc.binarize import (
    BinarizationModel,
    ColumnModel,
    FeatureSpec,
    InvalidValueError,
    SchemaError,
    describe_rule,
    feature_matrix,
    fit,
    numeric_column,
    parse_numeric_columns,
    relabel,
    transform,
)
from ruleloc.core import FeatureIndexError, Rule


def uniform_table(lo=100.0, hi=500.0, n=4001):
    return {"latency": np.linspace(lo, hi, n).tolist()}


def test_fit_quantile_thresholds_uniform():
    model = fit(uniform_table(), [FeatureSpec("latency", bins=3)])
    (col,) = model.columns
    # analytic 1/3 and 2/3 quantiles of Uniform(100, 500)
    assert col.thresholds == pytest.approx((233.3333, 366.6667), abs=0.2)
    assert [f.op for f in model.catalog] == ["<=", ">", "<=", ">"]


def test_fit_constant_column_yields_nothing():
    model = fit({"x": [7.0] * 50}, [FeatureSpec("x", bins=10)])
    assert model.columns[0].thresholds == ()
    assert model.catalog == ()


def test_fit_categorical_one_hot():
    model = fit(
        {"state": ["waiting", "running", "waiting"]},
        [FeatureSpec("state", kind="categorical")],
    )
    assert model.columns[0].categories == ("running", "waiting")
    assert [f.name for f in model.catalog] == [
        "state == running",
        "state == waiting",
    ]


def test_fit_all_missing_column_warns():
    with pytest.warns(UserWarning):
        model = fit({"x": ["", "", ""]}, [FeatureSpec("x", bins=4)])
    assert model.catalog == ()


def test_fit_empty_table_rejected():
    with pytest.raises(ValueError):
        fit({}, [])
    with pytest.raises(ValueError):
        fit({"x": []}, [FeatureSpec("x")])


def test_fit_default_bins_is_100():
    assert FeatureSpec("x").bins == 100
    values = np.linspace(0, 1, 5000).tolist()
    model = fit({"x": values}, [FeatureSpec("x")])
    # 99 interior quantiles, none at the max
    assert len(model.columns[0].thresholds) == 99


def test_transform_directional_pair():
    model = fit(uniform_table(), [FeatureSpec("latency", bins=3)])
    ds = transform(model, {"latency": [150.0]})
    names = {model.catalog[j].name for j in range(ds.d) if ds.coverage[j] & 1}
    assert names == {
        f"latency <= {model.columns[0].thresholds[0]!r}",
        f"latency <= {model.columns[0].thresholds[1]!r}",
    } | set()  # 150 is below both thresholds; the > sides stay unset
    # the > features for both thresholds must be unset
    for j, feat in enumerate(model.catalog):
        if feat.op == ">":
            assert not ds.coverage[j] & 1


def test_transform_boundary_value_satisfies_le():
    model = BinarizationModel.from_json_obj(
        {
            "schema_version": 1,
            "columns": [{"name": "x", "kind": "numeric", "thresholds": [10.0]}],
            "feature_catalog": [
                {"column": "x", "op": "<=", "threshold": 10.0},
                {"column": "x", "op": ">", "threshold": 10.0},
            ],
        }
    )
    ds = transform(model, {"x": [10.0]})
    assert ds.coverage[0] == 1 and ds.coverage[1] == 0


def test_transform_missing_value_sets_nothing():
    model = fit({"x": [1.0, 2.0, 3.0, 4.0]}, [FeatureSpec("x", bins=2)])
    ds = transform(model, {"x": ["", 2.0]})
    assert all(not cov & 1 for cov in ds.coverage)
    assert any(cov & 2 for cov in ds.coverage)


def test_transform_unknown_category_uncovered():
    model = fit({"s": ["a", "b"]}, [FeatureSpec("s", kind="categorical")])
    ds = transform(model, {"s": ["c"]})
    assert all(cov == 0 for cov in ds.coverage)


def test_transform_carries_labels():
    model = fit({"x": [0.0, 1.0, 2.0, 3.0]}, [FeatureSpec("x", bins=2)])
    ds = transform(model, {"x": [0.0, 3.0]}, labels=[1, 0])
    assert ds.labels == 0b01


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_directional_partition_property(seed):
    """At every threshold, (<=) and (>) partition the non-missing rows."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 60))
    values = rng.normal(size=n) * float(rng.uniform(0.5, 100))
    missing = rng.random(n) < 0.15
    column = ["" if m else float(v) for v, m in zip(values, missing)]
    present = sum(1 for m in missing if not m)
    if present == 0:
        return
    model = fit({"x": column}, [FeatureSpec("x", bins=int(rng.integers(2, 12)))])
    ds = transform(model, {"x": column})
    present_mask = 0
    for i, m in enumerate(missing):
        if not m:
            present_mask |= 1 << i
    for j in range(0, ds.d, 2):
        le, gt = ds.coverage[j], ds.coverage[j + 1]
        assert le & gt == 0
        assert le | gt == present_mask


def test_thresholds_are_permutation_invariant():
    rng = np.random.default_rng(77)
    values = rng.normal(size=500).tolist()
    spec = [FeatureSpec("x", bins=7)]
    direct = fit({"x": values}, spec)
    shuffled = values[:]
    rng.shuffle(shuffled)
    assert fit({"x": shuffled}, spec).columns == direct.columns


def test_describe_rule_conjunction():
    model = BinarizationModel.from_json_obj(
        {
            "schema_version": 1,
            "columns": [
                {"name": "proc", "kind": "numeric", "thresholds": [23.75]},
                {"name": "count_diff", "kind": "numeric", "thresholds": [1042.45]},
            ],
            "feature_catalog": [
                {"column": "proc", "op": "<=", "threshold": 23.75},
                {"column": "proc", "op": ">", "threshold": 23.75},
                {"column": "count_diff", "op": "<=", "threshold": 1042.45},
                {"column": "count_diff", "op": ">", "threshold": 1042.45},
            ],
        }
    )
    assert (
        describe_rule(model, Rule.of(1, 2))
        == "proc > 23.75 ∧ count_diff <= 1042.45"
    )
    assert describe_rule(model, Rule()) == "TRUE"


def test_describe_rule_merges_intervals():
    model = BinarizationModel.from_json_obj(
        {
            "schema_version": 1,
            "columns": [{"name": "x", "kind": "numeric", "thresholds": [100.0, 200.0]}],
            "feature_catalog": [
                {"column": "x", "op": "<=", "threshold": 100.0},
                {"column": "x", "op": ">", "threshold": 100.0},
                {"column": "x", "op": "<=", "threshold": 200.0},
                {"column": "x", "op": ">", "threshold": 200.0},
            ],
        }
    )
    assert describe_rule(model, Rule.of(1, 2)) == "100.0 < x <= 200.0"
    # several bounds on one side collapse to the tight one
    assert describe_rule(model, Rule.of(0, 2)) == "x <= 100.0"


def test_describe_matches_feature_names_roundtrip():
    rng = np.random.default_rng(3)
    table = {
        "a": rng.normal(size=200).tolist(),
        "s": [str(x) for x in rng.integers(0, 3, size=200)],
    }
    model = fit(
        table, [FeatureSpec("a", bins=4), FeatureSpec("s", kind="categorical")]
    )
    ds = transform(model, table)
    for j, feat in enumerate(model.catalog):
        assert describe_rule(model, Rule.of(j)) == feat.name == ds.feature_names[j]


def test_json_roundtrip():
    rng = np.random.default_rng(4)
    table = {
        "a": rng.normal(size=100).tolist(),
        "s": ["x", "y"] * 50,
    }
    model = fit(
        table, [FeatureSpec("a", bins=5), FeatureSpec("s", kind="categorical")]
    )
    restored = BinarizationModel.from_json(model.to_json())
    assert restored == model
    obj = json.loads(model.to_json())
    assert obj["schema_version"] == 1


def small_model():
    table = {
        "a": [0.0, 1.0, 2.0, 3.0, 4.0],
        "flat": [1.0] * 5,
        "s": ["x", "y", "x", "z", "y"],
    }
    specs = [FeatureSpec("a", bins=3), FeatureSpec("flat"), FeatureSpec("s", kind="categorical")]
    return fit(table, specs)


def test_catalog_is_derived_from_columns():
    model = small_model()
    t0, t1 = model.columns[0].thresholds
    assert [f.name for f in model.catalog] == [
        f"a <= {t0!r}", f"a > {t0!r}", f"a <= {t1!r}", f"a > {t1!r}",
        "s == x", "s == y", "s == z",
    ]
    assert model.n_features == len(model.catalog) == 7
    assert [model.feature(j) for j in range(7)] == list(model.catalog)
    led = BinarizationModel((ColumnModel("e", "numeric"), *model.columns))
    assert [led.feature(j) for j in range(7)] == list(led.catalog) == list(model.catalog)
    assert model.to_json_obj()["feature_catalog"] == [f.to_json_obj() for f in model.catalog]
    for j in (-1, 7):
        with pytest.raises(FeatureIndexError):
            model.feature(j)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda cat: cat.insert(0, cat.pop(1)), r"feature_catalog\[0\] is .*\">\".*, the columns give .*\"<=\""),
        (lambda cat: cat.insert(2, dict(cat[2])), r"feature_catalog\[3\] is .*\"<=\".*, the columns give .*\">\""),
        (lambda cat: cat.append(dict(cat[-1])), r"feature_catalog\[7\] is .*, the columns give null$"),
        (lambda cat: cat.pop(), r"feature_catalog\[6\] is null, the columns give .*\"z\""),
        (lambda cat: cat[5].update(category="w"), r"feature_catalog\[5\] is .*\"w\""),
        (lambda cat: cat[1].update(threshold=9.5), r"feature_catalog\[1\] is .*9\.5"),
        (lambda cat: cat[0].update(note="x"), r"feature_catalog\[0\] is .*\"note\""),
    ],
    ids=["permuted", "duplicated", "extra", "missing", "category", "threshold", "extra-key"],
)
def test_stored_catalog_that_differs_from_the_columns_is_rejected(edit, message):
    obj = small_model().to_json_obj()
    edit(obj["feature_catalog"])
    with pytest.raises(SchemaError, match=message):
        BinarizationModel.from_json_obj(obj)


@pytest.mark.parametrize(
    "column, message",
    [
        ({"thresholds": [2.0, 1.0]}, "column 'a': thresholds must be strictly increasing"),
        ({"thresholds": [1.0, 1.0]}, "column 'a': thresholds must be strictly increasing"),
        ({"thresholds": [1.0, math.nan]}, "column 'a': thresholds must be finite numbers"),
        ({"thresholds": [-math.inf, 1.0]}, "column 'a': thresholds must be finite numbers"),
        ({"thresholds": ["1.0"]}, "column 'a': thresholds must be finite numbers"),
        ({"kind": "ordinal"}, "column 'a': unknown kind 'ordinal'"),
        ({"kind": "categorical", "categories": ["u", "u"]}, "column 'a': categories must be distinct strings"),
        ({"name": "s"}, "duplicate column 's'"),
    ],
    ids=["unsorted", "repeated", "nan", "infinite", "text", "kind", "category", "name"],
)
def test_columns_that_give_no_well_formed_catalog_are_rejected(column, message):
    obj = small_model().to_json_obj()
    obj["columns"][0].update(column)
    with pytest.raises(SchemaError, match=f"^{message}$"):
        BinarizationModel.from_json_obj(obj)


def test_transform_reads_only_columns_that_give_features():
    model = small_model()
    table = {"a": [0.5, 3.5], "flat": ["x", "not a number"], "s": ["y", None]}
    ds = transform(model, table)
    assert ds.coverage == (0b01, 0b10, 0b01, 0b10, 0b00, 0b01, 0b00)
    with pytest.raises(SchemaError, match="^column 's' has inconsistent length$"):
        transform(model, {**table, "s": ["y"]})
    # a featureless column may differ in length: it is not read
    assert transform(model, {**table, "flat": []}).coverage == ds.coverage


def test_transform_missing_column_is_schema_error():
    model = fit({"x": [1.0, 2.0]}, [FeatureSpec("x", bins=2)])
    with pytest.raises(SchemaError):
        transform(model, {"y": [1.0]})


def test_deterministic_given_same_bytes():
    rng = np.random.default_rng(6)
    table = {"a": rng.normal(size=64).tolist()}
    m1 = fit(table, [FeatureSpec("a", bins=9)])
    m2 = fit(table, [FeatureSpec("a", bins=9)])
    assert m1.to_json() == m2.to_json()
    assert feature_matrix(m1, table).tobytes() == feature_matrix(m2, table).tobytes()


def test_numeric_column_names_the_bad_cell():
    with pytest.raises(InvalidValueError, match=r"^column 'a', row 3: .*'abc'$"):
        numeric_column(["1", "", "abc"], "a")


def test_numeric_column_strips_what_str_strip_strips():
    # U+001C-U+001F, U+0085 and U+2028 pad a number or make a blank cell.
    out = numeric_column(["7\x1c", "\x1c", "\x85", "1"], "x")
    assert np.array_equal(out, [7, math.nan, math.nan, 1], equal_nan=True)
    out = numeric_column(["\u2028", " 2\u2028\x1f"], "x")
    assert np.array_equal(out, [math.nan, 2], equal_nan=True)


def test_relabel_equals_transform_with_labels():
    table = {"x": [0.0, 1.0, 2.0, 3.0], "s": ["a", "b", "a", None]}
    model = fit(
        table, [FeatureSpec("x", bins=3), FeatureSpec("s", kind="categorical")]
    )
    labels = [0, 1, 1, 0]
    assert relabel(transform(model, table), labels) == transform(model, table, labels)
    with pytest.raises(SchemaError):
        relabel(transform(model, table), [1])


def test_relabel_reports_its_own_positives():
    table = {"x": [0.0, 1.0, 2.0, 3.0, 4.0]}
    model = fit(table, [FeatureSpec("x", bins=2)])
    ds = transform(model, table, [1, 0, 0, 0, 0])
    assert (ds.positives, ds.full_mask) == (1, 0b11111)  # computed and kept
    again = relabel(ds, [0, 1, 1, 1, 0])
    assert again.positives == 3
    assert again.full_mask == 0b11111
    assert ds.positives == 1


# -- column-wise binarization against a per-feature, per-cell reference --------


def reference_float(value) -> float:
    if value is None:
        return math.nan
    if isinstance(value, str):
        value = value.strip()
        if not value:
            return math.nan
    return float(value)


def reference_matrix(model, table) -> np.ndarray:
    """One catalog feature at a time, one cell at a time."""
    n = max((len(table[c.name]) for c in model.columns), default=0)
    out = np.zeros((n, len(model.catalog)), dtype=bool)
    for k, feat in enumerate(model.catalog):
        for i, value in enumerate(table[feat.column]):
            if feat.op == "==":
                out[i, k] = value is not None and str(value) == feat.category
                continue
            x = reference_float(value)
            if math.isfinite(x):
                out[i, k] = x <= feat.threshold if feat.op == "<=" else x > feat.threshold
    return out


def bits_of(column) -> int:
    return sum(1 << i for i, bit in enumerate(column) if bit)


numbers = st.one_of(
    st.integers(min_value=-5, max_value=5),
    st.floats(min_value=-4.0, max_value=4.0),
    st.sampled_from([0.5, 1.0, 2.5]),
)
numeric_cells = st.one_of(
    numbers,
    numbers.map(repr),
    numbers.map(lambda x: f" {x!r} "),
    st.sampled_from(["", " ", "nan", "inf", "-inf", None, math.inf, -math.inf, math.nan]),
)
category_cells = st.sampled_from(["a", "b", " a", "c", "", " ", None])


@st.composite
def tables(draw, n):
    return {
        "x": draw(st.lists(numeric_cells, min_size=n, max_size=n)),
        "y": draw(st.lists(numeric_cells, min_size=n, max_size=n)),
        "s": draw(st.lists(category_cells, min_size=n, max_size=n)),
    }


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=25), bins=st.integers(2, 8))
def test_columnwise_binarization_matches_reference(data, n, bins):
    train = data.draw(tables(n))
    query = data.draw(tables(data.draw(st.integers(min_value=1, max_value=10))))
    specs = [
        FeatureSpec("x", bins=bins),
        FeatureSpec("y", bins=bins),
        FeatureSpec("s", kind="categorical"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        fitted = fit(train, specs)
        parsed = dict(train)
        parse_numeric_columns(parsed, specs)
        assert fit(parsed, specs) == fitted
    # the catalog survives a JSON round trip
    model = BinarizationModel.from_json(fitted.to_json())
    assert model == fitted
    for table in (train, parsed, query):
        expected = reference_matrix(model, table)
        assert np.array_equal(feature_matrix(model, table), expected)
        ds = transform(model, table)
        assert ds.coverage == tuple(bits_of(expected[:, k]) for k in range(ds.d))


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    n=st.integers(min_value=1, max_value=40),
    bins=st.integers(2, 12),
    cutoff=st.sampled_from([1, 2, 3]),
    code_space=st.sampled_from([6, 12, 1 << 16]),
)
def test_code_counts_equal_popcounts(data, n, bins, cutoff, code_space):
    """counts(mask) equals the per-feature popcounts on transformed tables:
    nan, inf and blank cells, tied values and duplicate quantiles, a
    categorical column, and columns that overflow a small code space and
    stay on bitsets."""
    table = data.draw(tables(n))
    specs = [
        FeatureSpec("x", bins=bins),
        FeatureSpec("y", bins=bins),
        FeatureSpec("s", kind="categorical"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = fit(table, specs)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(binarize, "_CODED_MIN_THRESHOLDS", cutoff)
        mp.setattr(binarize, "_CODE_SPACE", code_space)
        ds = transform(model, table)
    ladders: dict[str, set] = {}
    for feat in model.catalog:
        if feat.op != "==":
            ladders.setdefault(feat.column, set()).add(feat.threshold)
    coded = any(cutoff <= len(steps) <= code_space - 2 for steps in ladders.values())
    assert (ds.codes is not None) == coded
    if coded:
        assert ds.codes.size <= code_space
        assert int(ds.codes.bins.max(initial=0)) < ds.codes.size
    full = ds.full_mask
    masks = [0, full, data.draw(st.integers(0, full)), ds.labels]
    if ds.d:
        picks = data.draw(st.lists(st.integers(0, ds.d - 1), max_size=3))
        masks += [ds.coverage[k] for k in picks]
    masks += [full ^ (1 << data.draw(st.integers(0, n - 1)))]
    for mask in masks:
        counts = ds.counts(mask)
        assert counts.dtype == np.int64
        assert counts.tolist() == [(mask & c).bit_count() for c in ds.coverage]
    assert relabel(ds, [1] * n).codes is ds.codes


# -- the per-entry loader that the column-slice catalog check replaced ---------
# Kept verbatim as it stood (with its column parser, and the catalog order of
# the ColumnModel.predicates it walked), so that BinarizationModel.from_json_obj
# is checked to accept and reject exactly the same objects, with the same text.


def reference_predicates(column):
    """(op, threshold, category) of each of the column's features, in catalog order."""
    if column.kind == "numeric":
        return ((op, t, None) for t in column.thresholds for op in ("<=", ">"))
    return (("==", None, c) for c in column.categories)


def reference_feature_obj(column, op, threshold=None, category=None):
    if op == "==":
        return {"column": column, "op": op, "category": category}
    return {"column": column, "op": op, "threshold": threshold}


def reference_column_from_json(obj):
    """A column as to_json_obj writes it, checked to give a well-formed catalog."""
    name, kind = obj["name"], obj["kind"]
    if kind == "numeric":
        thresholds = tuple(obj.get("thresholds", ()))
        if not all(type(t) in (int, float) and math.isfinite(t) for t in thresholds):
            raise SchemaError(f"column {name!r}: thresholds must be finite numbers")
        if any(a >= b for a, b in zip(thresholds, thresholds[1:])):
            raise SchemaError(f"column {name!r}: thresholds must be strictly increasing")
        return ColumnModel(name, "numeric", thresholds)
    if kind == "categorical":
        cats = tuple(obj.get("categories", ()))
        if not all(isinstance(c, str) for c in cats) or len(set(cats)) < len(cats):
            raise SchemaError(f"column {name!r}: categories must be distinct strings")
        return ColumnModel(name, "categorical", (), cats)
    raise SchemaError(f"column {name!r}: unknown kind {kind!r}")


def reference_from_json_obj(obj):
    """The model of obj["columns"], whose stored feature_catalog must equal the
    derived one; a SchemaError names the first position where they differ."""
    if obj.get("schema_version") != 1:
        raise SchemaError(
            f"unsupported binarization schema version {obj.get('schema_version')!r}"
        )
    model = BinarizationModel(tuple(reference_column_from_json(c) for c in obj["columns"]))
    names = [c.name for c in model.columns]
    if len(set(names)) < len(names):
        raise SchemaError(f"duplicate column {next(n for n in names if names.count(n) > 1)!r}")
    stored = obj["feature_catalog"]
    if not isinstance(stored, list):
        raise SchemaError("feature_catalog must be a list")
    derived = (
        reference_feature_obj(c.name, *p) for c in model.columns for p in reference_predicates(c)
    )
    for j, pair in enumerate(zip_longest(stored, derived)):
        if pair[0] != pair[1]:
            a, b = (json.dumps(x, sort_keys=True) for x in pair)
            raise SchemaError(f"feature_catalog[{j}] is {a}, the columns give {b}")
    return model


def load_outcome(load, obj):
    """("model", the model) or ("error", the SchemaError text) of load(obj)."""
    try:
        return "model", load(obj)
    except SchemaError as exc:
        return "error", str(exc)


@st.composite
def fitted_models(draw):
    """Fitted models over two numeric columns and one categorical column, any of
    which may give no features; small integer cells make integral thresholds."""
    table = draw(tables(draw(st.integers(min_value=1, max_value=25))))
    specs = [
        FeatureSpec("x", bins=draw(st.integers(2, 8))),
        FeatureSpec("y", bins=draw(st.integers(2, 8))),
        FeatureSpec("s", kind="categorical"),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return fit(table, draw(st.permutations(specs)))


def _mutate_catalog(data, cat: list) -> None:
    """One edit of the kinds a hand-edited or foreign catalog may carry."""
    i = data.draw(st.integers(0, len(cat)))  # len(cat): past the end
    entry = cat[i] if i < len(cat) else None
    edits = ["extend"]
    if i < len(cat):
        edits += ["swap", "truncate", "non-dict"]
    if isinstance(entry, dict):
        edits += ["int", "true", "extra-key", "missing-key", "op", "categorical"]
    edit = data.draw(st.sampled_from(edits))
    if edit == "extend":
        copy = dict(entry) if isinstance(entry, dict) else {}
        cat.append(data.draw(st.sampled_from([copy, None])))
    elif edit == "int" and "threshold" in entry:
        entry["threshold"] = int(entry["threshold"])  # 1 for 1.0 loads, 1 for 1.5 does not
    elif edit == "true" and "threshold" in entry:
        entry["threshold"] = True
    elif edit == "extra-key":
        entry[data.draw(st.sampled_from(["note", "category", "threshold"]))] = "x"
    elif edit == "missing-key" and entry:
        del entry[data.draw(st.sampled_from(sorted(entry)))]
    elif edit == "op":
        entry["op"] = data.draw(st.sampled_from(["<=", ">", "==", "<"]))
    elif edit == "swap":
        k = data.draw(st.integers(0, len(cat) - 1))
        cat[i], cat[k] = cat[k], cat[i]
    elif edit == "truncate":
        del cat[i:]
    elif edit == "non-dict":
        values = list(entry.values()) if isinstance(entry, dict) else []
        cat[i] = data.draw(st.sampled_from([[], values, "abc", None]))
    elif edit == "categorical":
        cat[i] = {"column": entry.get("column"), "op": "==", "category": "a"}


@settings(max_examples=300, deadline=None)
@given(data=st.data(), model=fitted_models(), n_edits=st.integers(0, 2))
def test_catalog_check_accepts_and_rejects_like_the_per_entry_walk(data, model, n_edits):
    obj = json.loads(model.to_json())
    for _ in range(n_edits):
        _mutate_catalog(data, obj["feature_catalog"])
    outcome = load_outcome(BinarizationModel.from_json_obj, obj)
    assert outcome == load_outcome(reference_from_json_obj, obj)
    if n_edits == 0:
        assert outcome == ("model", model)


@pytest.mark.parametrize("stored, columns", [(1, 1.0), (1.0, 1), (2, 2)])
def test_stored_catalog_equal_in_value_loads(stored, columns):
    obj = {
        "schema_version": 1,
        "columns": [{"name": "x", "kind": "numeric", "thresholds": [0.5, columns]}],
        "feature_catalog": [
            {"column": "x", "op": "<=", "threshold": 0.5},
            {"column": "x", "op": ">", "threshold": 0.5},
            {"column": "x", "op": "<=", "threshold": stored},
            {"column": "x", "op": ">", "threshold": stored},
        ],
    }
    model = BinarizationModel.from_json_obj(obj)
    assert model.columns[0].thresholds == (0.5, columns)
    assert load_outcome(reference_from_json_obj, obj) == ("model", model)


def test_a_catalog_equal_to_the_columns_is_accepted_without_the_walk(monkeypatch):
    model = small_model()

    def no_walk(*args):
        raise AssertionError("the per-entry walk ran on a catalog equal to the columns")

    monkeypatch.setattr(binarize, "zip_longest", no_walk)
    assert BinarizationModel.from_json(model.to_json()) == model


@settings(max_examples=150, deadline=None)
@given(model=fitted_models(), leading=st.booleans())
def test_feature_is_the_catalog_entry(model, leading):
    if leading:  # a featureless column ahead of the rest shifts no index
        model = BinarizationModel((ColumnModel("e", "numeric"), *model.columns))
    assert [model.feature(j) for j in range(model.n_features)] == list(model.catalog)
    assert [f.to_json_obj() for f in model.catalog] == model.to_json_obj()["feature_catalog"]
    for j in (-1, model.n_features):
        with pytest.raises(FeatureIndexError):
            model.feature(j)
