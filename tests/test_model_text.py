"""The model file as text: to_json against json.dumps of to_json_obj, and
from_json against from_json_obj of json.loads, on canonical files and on
files edited, reformatted or cut by hand."""

import json
from decimal import Decimal
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ruleloc import binarize, localize
from ruleloc.binarize import CATEGORICAL, NUMERIC, BinarizationModel, ColumnModel, SchemaError
from ruleloc.core import Rule, RuleSet, RuleStats
from ruleloc.localize import FaultModel

# Quotes, backslashes, control characters, line separators and non-ASCII
# text, all of which json.dumps escapes.
texts = st.text(
    alphabet=st.sampled_from(["a", "Z", " ", '"', "\\", "\x00", "\n", "\x1f", "é", " ", "😀"]),
    max_size=4,
)
# Ints and floats, the extremes of float, and floats whose repr has an exponent.
numbers = st.sampled_from(
    [5e-324, -5e-324, 1e308, -1e308, 1e16, 1.5e-7, 1e22, 2.5e-05, 0.1, -2.5, 0.0, -0.0,
     0, 3, -7, 10**15, 2.0, 123456789.0]
) | st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(10**6), 10**6)

json_leaves = (
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | texts
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(texts, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def columns(draw, name):
    if draw(st.booleans()):
        # Values equal as numbers (2 and 2.0, 0.0 and -0.0) are one threshold.
        thresholds = sorted(set(draw(st.lists(numbers, max_size=6))))
        return ColumnModel(name, NUMERIC, tuple(thresholds))
    return ColumnModel(name, CATEGORICAL, (), tuple(draw(st.lists(texts, max_size=4, unique=True))))


@st.composite
def models(draw):
    """A model the loader accepts: any columns (none, or giving no feature,
    included), zero or more fault types, any knobs and nested metadata."""
    names = draw(st.lists(texts, max_size=4, unique=True))
    binarization = BinarizationModel(tuple(draw(columns(name)) for name in names))
    d = binarization.n_features
    rule_sets = []
    for name in draw(st.lists(texts, max_size=3, unique=True)):
        rules = draw(
            st.lists(st.lists(st.integers(0, d - 1), max_size=3) if d else st.just([]), max_size=3)
        )
        stats = [
            RuleStats(draw(st.floats(0, 1)), draw(st.floats(0, 1)), draw(st.integers(0, 10**6)))
            for _ in rules
        ]
        rule_sets.append((name, RuleSet(tuple(Rule(tuple(r)) for r in rules), tuple(stats))))
    knobs = (draw(st.integers(0, 50)), draw(st.integers(0, 8)), draw(numbers))
    metadata = draw(st.dictionaries(texts, json_values, max_size=3))
    return FaultModel(tuple(rule_sets), binarization, *knobs, metadata=metadata)


@settings(max_examples=300, deadline=None)
@given(model=models())
def test_to_json_is_json_dumps_of_to_json_obj(model):
    text = model.to_json()
    assert text == json.dumps(model.to_json_obj(), sort_keys=True, indent=2) + "\n"
    assert FaultModel.from_json(text).to_json() == text


def outcome(load, text):
    """("model", the loaded model's file) or (the error's type, its message)."""
    try:
        return "model", load(text).to_json()
    except Exception as exc:  # every error, so that a new one shows as a difference
        return type(exc), str(exc)


def reference_load(text):
    return FaultModel.from_json_obj(json.loads(text))


def _unsorted(value):
    """value with every object's keys in reverse order."""
    if isinstance(value, dict):
        return {k: _unsorted(value[k]) for k in reversed(list(value))}
    if isinstance(value, list):
        return list(map(_unsorted, value))
    return value


def _catalog_span(text):
    """Where the feature catalog's text starts and ends in a canonical file."""
    start = text.index('"feature_catalog": ') + len('"feature_catalog": ')
    _, end = json.JSONDecoder().raw_decode(text, start)
    return start, end


def _threshold_tokens(text):
    """(start, end, value) of each threshold number in a canonical catalog."""
    start, end = _catalog_span(text)
    key = '"threshold": '
    at = text.find(key, start, end)
    while at != -1:
        first = at + len(key)
        last = text.index("\n", first)
        yield first, last, json.loads(text[first:last])
        at = text.find(key, last, end)


def _column_tokens(text):
    """(start, end, value) of each threshold number in a canonical file's
    columns, in catalog order: the k-th gives catalog tokens 2k and 2k + 1."""
    start = text.index('"columns": ') + len('"columns": ')
    _, end = json.JSONDecoder().raw_decode(text, start)
    item = "\n" + " " * 10  # a line of a thresholds or categories list
    at = text.find(item, start, end)
    while at != -1:
        first = at + len(item)
        line = text[first : text.index("\n", first)]
        if not line.startswith('"'):  # a category is a string
            token = line.removesuffix(",")
            yield first, first + len(token), json.loads(token)
        at = text.find(item, first, end)


def _respelled(text, spans, new):
    """text with each (start, end, value) span's token replaced by new."""
    for first, last, _ in sorted(spans, reverse=True):
        text = text[:first] + new + text[last:]
    return text


def _same_value_text(token):
    """Another text of the number token: 1.5 as 1.50, 3 as 3.0, 1e+16 as 1.0e+16."""
    mantissa, e, exponent = token.partition("e")
    return (mantissa + ("0" if "." in mantissa else ".0")) + e + exponent


def _variants(data, text):
    """The text reformatted, edited, cut or extended as a hand or a foreign
    tool might: (name, text) pairs."""
    obj = json.loads(text)
    yield "indent 4", json.dumps(obj, sort_keys=True, indent=4)
    yield "compact", json.dumps(obj, separators=(",", ":"))
    yield "unsorted", json.dumps(_unsorted(obj), indent=2)
    yield "crlf", text.replace("\n", "\r\n")
    yield "trailing", text + data.draw(st.sampled_from(["x", "{}", "]", "\n\n", " 1"]))
    yield "truncated", text[: data.draw(st.integers(0, len(text) - 1))]
    for key in ("columns", "feature_catalog"):  # a duplicate key, before or after the first
        value = json.dumps(data.draw(st.sampled_from([[], obj["binarization"][key], None])))
        before, after = '"binarization": {', '\n    "schema_version": 1\n  }'
        yield f"{key} first", text.replace(before, f'{before}"{key}": {value},', 1)
        yield f"{key} last", text.replace(after, f'\n    "{key}": {value},{after}', 1)
    # The catalog as to_json writes it, but a schema version the loader does not take.
    yield "binarization version 2", text.replace(after, after.replace("1", "2"), 1)
    # The binarization as to_json writes it, and after it what json.loads does not
    # take, nothing, or members that hold a second binarization, which json.loads takes.
    end = text.index(after) + len(after)
    yield "trailing comma", text[:end] + ",\n}\n"
    yield "missing comma", text[:end] + " " + text[end + 1 :]
    yield "binarization only", text[:end] + "\n}\n"
    second = json.dumps(data.draw(st.sampled_from([None, [], {"columns": []}])))
    yield "second binarization", text[: text.rindex("\n}")] + f',\n  "binarization": {second}\n}}\n'
    tokens = list(_threshold_tokens(text))
    if tokens:
        first, last, value = data.draw(st.sampled_from(tokens))
        token = text[first:last]
        yield "same value", text[:first] + _same_value_text(token) + text[last:]
        yield "other value", text[:first] + ("0.5" if value != 0.5 else "0.25") + text[last:]
    # Float thresholds in columns: re-spelled as the same float, a value
    # loads as the same model, so to_json gives the canonical text back.
    spans = list(_column_tokens(text))
    floats = [(k, span) for k, span in enumerate(spans) if type(span[2]) is float]
    if floats:
        k, span = data.draw(st.sampled_from(floats))
        respelled = _same_value_text(text[span[0] : span[1]])
        yield "columns same value", _respelled(text, [span], respelled)
        both = [span, tokens[2 * k], tokens[2 * k + 1]]
        yield "both same value", _respelled(text, both, respelled)
        other = "0.5" if span[2] != 0.5 else "0.25"
        yield "columns other value", _respelled(text, [span], other)
        exponent = format(Decimal(text[span[0] : span[1]]), "e")  # 0.25 as 2.5e-1
        yield "both exponent form", _respelled(text, both, exponent)
    if spans:
        first, last, _ = data.draw(st.sampled_from(spans))
        yield "spaced token", text[:last] + " " + text[last:]
    catalog = obj["binarization"]["feature_catalog"]
    if catalog:
        j = data.draw(st.integers(0, len(catalog) - 1))
        edits = {"dropped": catalog[:j] + catalog[j + 1 :], "added": catalog + [catalog[j]]}
        for name, edited in edits.items():
            obj["binarization"]["feature_catalog"] = edited
            yield f"entry {name}", json.dumps(obj, sort_keys=True, indent=2) + "\n"


@settings(max_examples=200, deadline=None)
@given(model=models(), data=st.data())
def test_from_json_gives_what_from_json_obj_of_json_loads_gives(model, data):
    text = model.to_json()
    assert outcome(FaultModel.from_json, text) == ("model", text)
    for name, variant in _variants(data, text):
        loaded = outcome(FaultModel.from_json, variant)
        assert loaded == outcome(reference_load, variant), name
        if name in ("indent 4", "compact", "unsorted", "crlf", "same value"):
            assert loaded == ("model", text), name
        elif name in ("columns same value", "both same value", "both exponent form", "spaced token"):
            assert loaded == ("model", text), name
            # Where the catalog spells the threshold as the columns do, the
            # loader takes the columns' texts, however spelled or spaced
            # there, and parses no catalog entry.
            assert (localize._written_model_obj(variant) is None) == (name == "columns same value")
        elif name in ("other value", "entry dropped", "entry added"):
            assert loaded[0] is SchemaError and "feature_catalog[" in loaded[1], name
        elif name == "columns other value":  # its catalog entries or its order give it away
            assert loaded[0] is SchemaError, name
            assert "feature_catalog[" in loaded[1] or "strictly increasing" in loaded[1], name
        elif name == "binarization version 2":
            assert loaded == (SchemaError, "unsupported binarization schema version 2")
        elif name in ("trailing comma", "missing comma"):
            assert loaded[0] is json.JSONDecodeError, name
        elif name == "binarization only":
            assert loaded == (ValueError, "unsupported model schema version None")
        elif name == "second binarization":
            assert loaded[0] != "model" and "binarization" in loaded[1], name


@settings(max_examples=100, deadline=None)
@given(model=models())
def test_a_canonical_load_checks_each_column_once(model):
    """from_json builds and checks each column of a file as to_json writes it
    once, and gives the model that from_json_obj of json.loads gives."""
    calls = []
    column_from_json = binarize._column_from_json

    def spy(obj, path):
        calls.append(path)
        return column_from_json(obj, path)

    text = model.to_json()
    with mock.patch.object(binarize, "_column_from_json", spy):
        loaded = FaultModel.from_json(text)
    k = len(model.binarization.columns)
    assert calls == [f"columns[{i}]" for i in range(k)]
    assert loaded == reference_load(text) and loaded.to_json() == text


@settings(max_examples=100, deadline=None)
@given(model=models())
def test_a_canonical_load_renders_no_number(model):
    """from_json of a file as to_json writes it renders each column's catalog
    once, with the thresholds' texts in the file's columns, and parses no
    catalog entry; to_json renders each column's catalog once, with the
    texts that json.dumps wrote in the columns."""
    calls = []
    catalog_text = ColumnModel.catalog_text

    def spy(column, numbers):
        calls.append((column, list(numbers)))
        return catalog_text(column, numbers)

    text = model.to_json()
    tokens = iter([text[first:last] for first, last, _ in _column_tokens(text)])
    columns = model.binarization.columns
    expected = [(c, [next(tokens) for _ in c.thresholds]) for c in columns]
    no_parse = mock.patch.object(
        BinarizationModel, "from_json_obj", side_effect=AssertionError("a catalog was parsed")
    )
    with mock.patch.object(ColumnModel, "catalog_text", spy):
        with no_parse:
            loaded = FaultModel.from_json(text)
        assert calls == expected
        calls.clear()
        assert loaded.to_json() == text
        assert calls == expected


@pytest.mark.parametrize(
    "token",
    ["1.5, 2.5", '1.5\n        ],\n        "thresholds": [\n          2.5'],
    ids=["two numbers", "a second list"],
)
def test_a_list_item_that_is_not_one_number_is_no_threshold_text(token):
    """A file that holds, wherever to_json writes a column's one threshold
    (in the columns and in both its catalog entries), a text that holds two
    numbers, or closes the list and opens another, is no JSON: the loader
    takes no such text and fails as json.loads does."""
    binarization = BinarizationModel((ColumnModel("x", NUMERIC, (1.5,)),))
    text = FaultModel((), binarization).to_json()
    variant = text.replace("1.5\n", token + "\n")
    assert variant.count(token) == 3
    assert outcome(FaultModel.from_json, variant) == outcome(reference_load, variant)
    assert outcome(reference_load, variant)[0] is json.JSONDecodeError
