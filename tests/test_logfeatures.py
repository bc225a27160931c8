import tempfile
from functools import partial
from datetime import datetime, timedelta, timezone
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ruleloc import cli, logfeatures
from ruleloc.cli import CliError, _log_counters, _log_feature_columns, _log_lines
from ruleloc.logfeatures import (
    _SHAPE,
    _group_key,
    DEFAULT_SIMILARITY,
    WILDCARD,
    IntervalCounts,
    LogFeatureFrame,
    TemplateBase,
    build_template_base,
    match_and_aggregate,
    parse_timestamp,
    similarity,
    tokenize,
)


def cluster_count_reference(lines, sim: float = DEFAULT_SIMILARITY) -> int:
    """Index-free reference for the template count (test oracle).

    Applies the same eligibility (same length, same first-token class),
    similarity and merge rules as build_template_base, but scans a flat
    template list instead of the grouped index.
    """
    clusters: list[list[str]] = []
    for line in lines:
        tokens = tokenize(line)
        if not tokens:
            continue
        best = None
        best_sim = -1.0
        for template in clusters:
            if len(template) != len(tokens):
                continue
            if template[0] != tokens[0] and template[0] != WILDCARD:
                continue
            s = similarity(tokens, template)
            if s > best_sim or (s == best_sim and best is not None and template < best):
                best_sim, best = s, template
        if best is not None and best_sim >= sim:
            for i, (x, y) in enumerate(zip(tokens, best)):
                if x != y and y != WILDCARD:
                    best[i] = WILDCARD
        else:
            clusters.append(list(tokens))
    return len(clusters)


def templates(base: TemplateBase) -> list[tuple[str, ...]]:
    """The templates of base, sorted."""
    return sorted(tuple(t) for group in base.groups.values() for t in group)


def synthetic_corpus(rng, n_lines=100):
    """Mixed corpus: a handful of shapes with parameter churn."""
    shapes = [
        "conn from 10.0.{}.{} port {}",
        "request {} served in {} ms",
        "cache miss for key user-{}",
        "worker {} heartbeat ok",
        "disk usage at {} percent on /dev/sda{}",
    ]
    lines = []
    for _ in range(n_lines):
        shape = shapes[int(rng.integers(0, len(shapes)))]
        args = [int(rng.integers(0, 1000)) for _ in range(shape.count("{}"))]
        lines.append(shape.format(*args))
    return lines


def test_tokenize_masks_numeric_tokens():
    assert tokenize("conn from 10.0.0.1") == ("conn", "from", "<*>")
    assert tokenize("plain words only") == ("plain", "words", "only")


# Digits that str.isdigit accepts beyond ASCII ones, and whitespace that
# str.split() splits at beyond space, tab and line breaks: the separators
# \x1c-\x1f, NEL, LINE SEPARATOR and the ideographic space.
UNICODE_DIGITS = "0123456789²٣۷０𝟘"
SPLIT_WHITESPACE = "\x1c\x1d\x1e\x1f\x85\u2028\u3000"


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.one_of(st.characters(), st.sampled_from(
    UNICODE_DIGITS + SPLIT_WHITESPACE + " ab<*>"))))
def test_a_line_and_its_shape_give_the_same_tokens(line):
    assert tokenize(line.translate(_SHAPE)) == tokenize(line)


def test_numeric_variants_collapse_to_one_template():
    base = build_template_base(["conn from 10.0.0.1", "conn from 10.0.0.2"])
    assert templates(base) == [("conn", "from", "<*>")]


def test_repeated_line_is_one_template():
    base = build_template_base(["ready to serve"] * 10)
    assert len(base) == 1


def test_every_build_line_still_matches():
    rng = np.random.default_rng(0)
    lines = synthetic_corpus(rng, 200)
    base = build_template_base(lines)
    for line in lines:
        assert base.match(tokenize(line)) is not None


def test_template_count_matches_reference_oracle():
    rng = np.random.default_rng(1)
    for seed in range(10):
        lines = synthetic_corpus(np.random.default_rng(seed), 100)
        base = build_template_base(lines)
        assert len(base) == cluster_count_reference(lines)


def test_templates_match_reference_on_adversarial_merges():
    lines = [
        "alpha beta gamma delta",
        "alpha beta gamma zeta",
        "alpha beta other thing",
        "omega beta gamma delta",
        "words without digits here",
    ]
    base = build_template_base(lines)
    assert len(base) == cluster_count_reference(lines)
    for line in lines:
        assert base.match(tokenize(line)) is not None


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.lists(st.sampled_from(["alpha", "beta", "ok", "x1", "42", "v7", "e²", "<*>"]),
                 min_size=1, max_size=4),
        max_size=30,
    ),
    st.sampled_from([0.25, 0.5, 0.75, 1.0]),
)
def test_inserted_templates_stay_in_their_group(lines, sim):
    """Merging only wildcards slots a candidate's first slot already shares
    with the line (or holds as the wildcard), so a template never leaves the
    group its first slot names, whatever the line's first token is."""
    base = TemplateBase(similarity_threshold=sim)
    for words in lines:
        base._insert(tokenize(" ".join(words)))
    for key, group in base.groups.items():
        assert group
        assert all(_group_key(template) == key for template in group)


def test_similarity_definition():
    assert similarity(("a", "b"), ("a", "c")) == 0.5
    assert similarity(("a", "b"), ("a", "b", "c")) == 0.0
    # a template wildcard accepts any token
    assert similarity(("a", "b"), ("a", "<*>")) == 1.0


def test_base_parameter_validation():
    with pytest.raises(ValueError):
        TemplateBase(similarity_threshold=0.0)


def test_empty_stream_is_valid():
    base = build_template_base([])
    assert len(base) == 0


def test_parse_timestamp_iso_and_custom():
    assert parse_timestamp("1970-01-01T00:01:00Z") == 60.0
    assert parse_timestamp("1970-01-01T00:01:00+00:00") == 60.0
    assert parse_timestamp("02/01/1970 00:00:00", "%d/%m/%Y %H:%M:%S") == 86400.0


# Every naive time datetime can hold, microseconds included.
NAIVE_TIMES = st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59, 999999))
# Times whose UTC offset keeps them inside datetime's range.
OFFSET_TIMES = st.datetimes(datetime(2, 1, 1), datetime(9998, 12, 31, 23, 59, 59, 999999))
TIMESPECS = ["auto", "seconds", "milliseconds", "microseconds"]


@settings(max_examples=300, deadline=None)
@given(NAIVE_TIMES, st.sampled_from(["T", " "]), st.sampled_from(TIMESPECS))
@example(datetime(1, 1, 1), "T", "auto")
@example(datetime(1969, 12, 31, 23, 59, 59, 999999), "T", "auto")
@example(datetime(9999, 12, 31, 23, 59, 59, 999999), " ", "microseconds")
def test_a_naive_stamp_reads_as_its_utc_time_bit_for_bit(time, sep, timespec):
    text = time.isoformat(sep, timespec)
    want = datetime.fromisoformat(text).replace(tzinfo=timezone.utc).timestamp()
    assert parse_timestamp(text).hex() == want.hex()


@settings(max_examples=200, deadline=None)
@given(
    OFFSET_TIMES,
    st.timedeltas(-timedelta(hours=23, minutes=59), timedelta(hours=23, minutes=59)),
    st.sampled_from(TIMESPECS),
)
@example(datetime(1970, 1, 1, 0, 1), timedelta(0), "auto")
def test_an_aware_stamp_reads_as_its_time(time, offset, timespec):
    aware = time.replace(tzinfo=timezone(offset))
    text = aware.isoformat("T", timespec)
    assert parse_timestamp(text).hex() == datetime.fromisoformat(text).timestamp().hex()
    if not offset:
        zulu = text.removesuffix("+00:00") + "Z"
        assert parse_timestamp(zulu).hex() == datetime.fromisoformat(text).timestamp().hex()


@settings(max_examples=200, deadline=None)
@given(
    # strftime writes years before 1000 with fewer than the 4 digits strptime reads.
    st.datetimes(datetime(1000, 1, 1), datetime(9999, 12, 31, 23, 59, 59, 999999)),
    st.timedeltas(-timedelta(hours=23), timedelta(hours=23)),
)
def test_a_formatted_stamp_reads_as_its_utc_or_its_own_time(time, offset):
    for fmt in ("%d/%m/%Y %H:%M:%S", "%Y-%m-%d %H:%M:%S.%f"):
        text = time.strftime(fmt)
        want = datetime.strptime(text, fmt).replace(tzinfo=timezone.utc).timestamp()
        assert parse_timestamp(text, fmt).hex() == want.hex()
    if time <= datetime(9998, 1, 1):
        fmt = "%Y-%m-%dT%H:%M:%S%z"
        text = time.replace(tzinfo=timezone(offset)).strftime(fmt)
        assert parse_timestamp(text, fmt).hex() == datetime.strptime(text, fmt).timestamp().hex()


def test_split_timestamp_custom_format_with_space():
    frame = match_and_aggregate(
        TemplateBase(), ["01/01/1970 00:02:00 job 7 done"], 60.0, "%d/%m/%Y %H:%M:%S"
    )
    assert frame.skipped == 0
    assert frame.rows == (IntervalCounts(120.0, 1, 1, frozenset({("job", WILDCARD, "done")})),)


def timestamped(lines, start=0, step=10):
    out = []
    for i, line in enumerate(lines):
        t = start + i * step
        out.append(f"1970-01-01T00:{t // 60:02d}:{t % 60:02d} {line}")
    return out


def test_all_matching_lines_have_zero_unmatched():
    normal = ["worker 1 heartbeat ok", "worker 2 heartbeat ok"]
    base = build_template_base(normal)
    frame = match_and_aggregate(base, timestamped(normal * 6), interval=60.0)
    assert sum(r.total for r in frame.rows) == 12
    assert all(r.unmatched == 0 for r in frame.rows)


def test_single_novel_line_counted_once():
    base = build_template_base(["worker 1 heartbeat ok"])
    lines = timestamped(
        ["worker 2 heartbeat ok", "catastrophic meltdown imminent"], start=0, step=5
    )
    frame = match_and_aggregate(base, lines, interval=60.0)
    (row,) = frame.rows
    assert row.total == 2
    assert row.unmatched == 1
    assert row.distinct_new == 1


def test_counts_match_per_line_recount():
    rng = np.random.default_rng(2)
    normal = synthetic_corpus(rng, 60)
    base = build_template_base(normal)
    online_msgs = synthetic_corpus(rng, 120) + [
        "novel burst event type alpha",
        "novel burst event type alpha",
        "another novel pattern entirely",
    ]
    rng.shuffle(online_msgs)
    lines = timestamped(online_msgs, step=7)
    frame = match_and_aggregate(base, lines, interval=60.0)
    # naive per-line recount
    per_interval: dict[float, list] = {}
    for line in lines:
        stamp, msg = line.split(" ", 1)
        epoch = parse_timestamp(stamp)
        start = (epoch // 60.0) * 60.0
        per_interval.setdefault(start, []).append(msg)
    assert len(frame.rows) == len(per_interval)
    for row in frame.rows:
        msgs = per_interval[row.start]
        unmatched = [m for m in msgs if base.match(tokenize(m)) is None]
        assert row.total == len(msgs)
        assert row.unmatched == len(unmatched)
        assert row.distinct_new == len({tokenize(m) for m in unmatched})


def test_conservation_and_skipped_tally():
    base = build_template_base(["worker 1 ok"])
    lines = timestamped(["worker 2 ok"] * 5) + ["not-a-timestamp worker 3 ok", "   "]
    frame = match_and_aggregate(base, lines, interval=60.0)
    assert sum(r.total for r in frame.rows) == 5
    assert frame.skipped == 2


def test_order_insensitive_within_interval():
    base = build_template_base(["alpha beta ok"])
    msgs = ["alpha beta ok", "novel one here", "novel two here", "alpha beta ok"]
    fwd = match_and_aggregate(base, timestamped(msgs, step=1), interval=600.0)
    rev = match_and_aggregate(base, timestamped(list(reversed(msgs)), step=1), interval=600.0)
    assert fwd.counters() == rev.counters()


def test_determinism_identical_bytes():
    rng = np.random.default_rng(3)
    normal = synthetic_corpus(rng, 40)
    lines = timestamped(synthetic_corpus(rng, 80))
    base1 = build_template_base(normal)
    base2 = build_template_base(list(normal))
    assert templates(base1) == templates(base2)
    f1 = match_and_aggregate(base1, lines, 60.0)
    f2 = match_and_aggregate(base2, list(lines), 60.0)
    assert f1 == f2


def test_csv_serialization():
    base = build_template_base(["worker 1 ok"])
    frame = match_and_aggregate(
        base, timestamped(["worker 2 ok", "totally new thing"], step=5), 60.0
    )
    text = frame.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "interval_start,total,unmatched,distinct_new"
    assert lines[1] == "0,2,1,1"


def test_interval_must_be_positive():
    base = build_template_base([])
    with pytest.raises(ValueError):
        match_and_aggregate(base, [], 0.0)


# --- Per-line oracle: the log-feature path before it was memoized ----------
# Copied verbatim (modulo the oracle_ prefix and `self` -> `base`), so the
# memoized path must give the same tokens, templates, frames and columns.


def _oracle_mask_token(token: str) -> str:
    # Tokens carrying digits are treated as parameters, not message text.
    return WILDCARD if any(ch.isdigit() for ch in token) else token


def oracle_tokenize(line: str) -> tuple[str, ...]:
    return tuple(_oracle_mask_token(tok) for tok in line.split())


def _oracle_group_key(tokens: Sequence[str]) -> tuple[int, str]:
    return len(tokens), tokens[0]


def _oracle_insert(base: TemplateBase, tokens: Sequence[str]) -> None:
    best, best_sim = base._best(tokens)
    if best is not None and best_sim >= base.similarity_threshold:
        old_key = _oracle_group_key(best)
        for i, (x, y) in enumerate(zip(tokens, best)):
            if x != y and y != WILDCARD:
                best[i] = WILDCARD
        new_key = _oracle_group_key(best)
        if new_key != old_key:
            base.groups[old_key].remove(best)
            if not base.groups[old_key]:
                del base.groups[old_key]
            base.groups.setdefault(new_key, []).append(best)
    else:
        base.groups.setdefault(_oracle_group_key(tokens), []).append(list(tokens))


def oracle_build_template_base(
    lines: Iterable[str],
    sim: float = DEFAULT_SIMILARITY,
) -> TemplateBase:
    base = TemplateBase(similarity_threshold=sim)
    for line in lines:
        tokens = oracle_tokenize(line)
        if tokens:
            _oracle_insert(base, tokens)
    return base


def oracle_split_timestamp(line: str, fmt: Optional[str] = None) -> tuple[float, str]:
    """Split a timestamp-prefixed line into (epoch seconds, message)."""
    n_stamp = 1 if fmt is None else fmt.count(" ") + 1
    tokens = line.split(None, n_stamp)
    if len(tokens) < n_stamp:
        raise ValueError("line shorter than its timestamp")
    stamp = " ".join(tokens[:n_stamp])
    rest = tokens[n_stamp] if len(tokens) > n_stamp else ""
    return parse_timestamp(stamp, fmt), rest


def oracle_match_and_aggregate(
    base: TemplateBase,
    lines: Iterable[str],
    interval: float,
    timestamp_format: Optional[str] = None,
) -> LogFeatureFrame:
    if interval <= 0:
        raise ValueError("interval must be positive")
    totals: dict[float, int] = {}
    unmatched: dict[float, int] = {}
    novel: dict[float, set[tuple[str, ...]]] = {}
    skipped = 0
    for line in lines:
        if not line.strip():
            skipped += 1
            continue
        try:
            epoch, message = oracle_split_timestamp(line, timestamp_format)
        except ValueError:
            skipped += 1
            continue
        start = (epoch // interval) * interval
        totals[start] = totals.get(start, 0) + 1
        tokens = oracle_tokenize(message)
        if tokens and base.match(tokens) is not None:
            continue
        unmatched[start] = unmatched.get(start, 0) + 1
        novel.setdefault(start, set()).add(tokens)
    rows = tuple(
        IntervalCounts(
            start, totals[start], unmatched.get(start, 0), frozenset(novel.get(start, ()))
        )
        for start in sorted(totals)
    )
    return LogFeatureFrame(float(interval), rows, skipped)


def oracle_join(table, timestamp_col, counters, interval, timestamp_format):
    """The timestamp-join loop of the CLI; None where a stamp does not parse."""
    totals, unmatched, novel = [], [], []
    for raw in table[timestamp_col]:
        try:
            epoch = parse_timestamp(raw, timestamp_format)
        except ValueError:
            return None
        start = (epoch // interval) * interval
        t, u, dnew = counters.get(start, (0, 0, 0))
        totals.append(t)
        unmatched.append(u)
        novel.append(dnew)
    return {"log_total": totals, "log_unmatched": unmatched, "log_distinct_new": novel}


# Words with ASCII digits, non-ASCII digits (str.isdigit accepts both),
# a literal wildcard and plain text, words whose shapes differ but give
# the same tokens (v7, v77) and tokens that already hold a 0 (v0, 10);
# separators include the ASCII whitespace that str.split() and the regex
# `\s` both accept, and a non-ASCII space.
WORDS = ["alpha", "beta", "gamma", "ok", "x1", "42", "node-7", "e²", "a٠", "<*>", "é",
         "v7", "v77", "v0", "10", "²", "x٣"]
SEPARATORS = ["", " ", "  ", "\t", "\x0b", "\x1c", "\x1f", "\u3000"]
# Two spaces count as two stamp tokens, but strptime lets them match one,
# so a line shorter than its stamp could still parse as one; and the empty
# format parses the empty stamp of a blank line.
FORMATS = [None, "%d/%m/%Y %H:%M:%S", "%d/%m/%Y  %H:%M:%S", ""]
# Whitespace inside a stamp and before a line: one space lets the stamp be
# cut from its line, any other run of whitespace makes it be split out.
STAMP_SEPARATORS = [" ", " ", "  ", "\t", "\x1c", "\u3000"]
LEADS = ["", "", " ", "\t"]


@st.composite
def messages(draw):
    pairs = draw(st.lists(st.tuples(st.sampled_from(SEPARATORS), st.sampled_from(WORDS)),
                          max_size=5))
    return "".join(sep + word for sep, word in pairs) + draw(st.sampled_from(SEPARATORS))


def stamp(second: int, fmt: Optional[str]) -> str:
    if fmt is None:
        return f"1970-01-01T00:{second // 60:02d}:{second % 60:02d}"
    return f"01/01/1970 00:{second // 60:02d}:{second % 60:02d}"


@st.composite
def log_case(draw):
    fmt = draw(st.sampled_from(FORMATS))
    # A small pool of messages, drawn with repetition, makes repeated lines
    # and lines that generalize a template some earlier line already fits.
    pool = draw(st.lists(messages(), min_size=1, max_size=6))
    normal = draw(st.lists(st.sampled_from(pool), max_size=25))
    stamps = [
        stamp(s, fmt).replace(" ", draw(st.sampled_from(STAMP_SEPARATORS)))
        for s in draw(st.lists(st.integers(0, 299), min_size=1, max_size=5))
    ]
    stamps += ["not-a-time", "1970-13-01T00:00:00", "99/99/1970 00:00:00"]
    online = [
        {"line": f"{lead}{raw} {message}", "blank": blank, "bare-stamp": raw}[kind]
        for kind, lead, raw, message, blank in draw(st.lists(st.tuples(
            st.sampled_from(["line", "line", "line", "blank", "bare-stamp"]),
            st.sampled_from(LEADS),
            st.sampled_from(stamps),
            st.one_of(st.sampled_from(pool), messages()),
            st.sampled_from(["", "   ", "\t"]),
        ), max_size=30))
    ]
    table_stamps = draw(st.lists(st.sampled_from(stamps), max_size=8))
    interval = draw(st.sampled_from([1.0, 7.5, 60.0]))
    sim = draw(st.sampled_from([0.3, 0.5, 0.75, 1.0]))
    return fmt, normal, online, table_stamps, interval, sim


# -- Oracle: the list reader that the CLI's line stream replaced -------------
# Kept verbatim as it stood in ruleloc.cli, so the stream is checked
# against it line for line.


def _collect_log_lines(logs_dir: Path, stem: str) -> list[str]:
    r"""Lines of every file under logs_dir whose top-level name starts with stem.

    Both layouts work: logs/normal.log and logs/normal/anything.log.  A
    line ends only at \n, \r\n or \r (read_text turns the last two into
    \n); characters that str.splitlines also breaks at, such as \x1c or
    U+2028, stay inside their line.  A final line ending starts no line,
    and a byte-order mark at the start of a file is dropped.
    """
    lines: list[str] = []
    candidates = sorted(
        p
        for p in logs_dir.rglob("*")
        if p.is_file() and p.relative_to(logs_dir).parts[0].startswith(stem)
    )
    for path in candidates:
        try:
            file_lines = path.read_text(encoding="utf-8-sig").split("\n")
        except UnicodeDecodeError as exc:
            raise CliError("invalid-data", f"{path}: {exc}")
        if file_lines[-1] == "":
            file_lines.pop()
        lines.extend(file_lines)
    return lines


# Pieces of a log file: line ends of all three kinds, so blank lines and
# \r\n pairs assemble from them, characters of two and three UTF-8 bytes,
# and characters that end a line for str.splitlines but not for a log file.
LOG_PIECES = ["a", "b 7", " ", "é", "€", "\x1c", "\x85", "\u2028", "\n", "\r\n", "\r"]
BOM = b"\xef\xbb\xbf"
# A block size for the line stream so small that line ends, characters
# and the byte-order mark straddle block ends.
_SMALL_BLOCK = 5


def straddling(block: int, head: bytes = b"") -> bytes:
    r"""A log file starting with head in which a \r\n, a lone \r, a 2-byte
    and a 3-byte UTF-8 character each straddle an end of a block of block
    bytes: the first `before` bytes of each lie in one block, the rest in
    the next (for the lone \r, the byte that follows it)."""
    data = head
    for piece, before in (("\r\n", 1), ("\r", 1), ("é", 1), ("€", 2)):
        data += b"x" * ((-len(data) - before) % block)
        data += piece.encode("utf-8") + b"y"
    return data


@st.composite
def log_file_bytes(draw):
    text = "".join(draw(st.lists(st.sampled_from(LOG_PIECES), max_size=20)))
    head = BOM if draw(st.booleans()) else b""
    return head + text.encode("utf-8")


@settings(max_examples=200, deadline=None)
@given(
    layout=st.sampled_from(["file", "directory"]),
    normal=st.lists(log_file_bytes(), min_size=1, max_size=3),
    online=log_file_bytes(),
)
@example(
    layout="file",
    normal=[BOM + b"x" * (_SMALL_BLOCK - 4) + b"\r\n\r\n\na\x1cb\r\xc2\x85c\xe2\x80\xa8d"],
    online=b"\r",
)
@example(
    layout="file", normal=[straddling(_SMALL_BLOCK)], online=straddling(_SMALL_BLOCK, BOM)
)
def test_log_line_stream_matches_the_list_reader(layout, normal, online):
    # At the default block size and at one that cuts line ends and
    # characters; set here, as in the test below, not by a fixture.
    default = cli._LOG_BLOCK
    try:
        for block in (default, _SMALL_BLOCK):
            cli._LOG_BLOCK = block
            _check_log_line_stream(layout, normal, online)
    finally:
        cli._LOG_BLOCK = default


def _check_log_line_stream(layout, normal, online):
    with tempfile.TemporaryDirectory() as tmp:
        logs = Path(tmp)
        if layout == "file":
            names = ["normal.log"] + [f"normal-{i}.log" for i in range(1, len(normal))]
        else:
            (logs / "normal").mkdir()
            names = [f"normal/{i}.log" for i in range(len(normal))]
        for name, data in zip(names, normal):
            (logs / name).write_bytes(data)
        (logs / "online.log").write_bytes(online)
        for stem in ("normal", "online"):
            stream = _log_lines(logs, stem)
            assert iter(stream) is stream
            assert list(stream) == _collect_log_lines(logs, stem)


@settings(max_examples=200, deadline=None)
@given(log_case())
@example(
    (None, ["a b c", "a b c", "a b d", "a b c", "a x d"],
     ["1970-01-01T00:00:01 a b c", "1970-01-01T00:00:02 a x c",
      "bogus a b c", "bogus a b c"],
     ["1970-01-01T00:00:01", "1970-01-01T00:00:01"], 60.0, 0.5)
)
@example(
    # Lines holding "\n" themselves, as the API (not the CLI) can pass them.
    (None, ["a 1\nb c", "a 2 b c", "a\n"],
     ["1970-01-01T00:00:01 a 7\nb c", "1970-01-01T00:00:02\nx y", "\n",
      "1970-01-01T00:00:03 a 7 b c"],
     ["1970-01-01T00:00:01"], 60.0, 0.5)
)
@example(
    # One chunk whose two-token stamps are one space apart in some lines, so
    # cut from them, and apart by a tab, two spaces, \x1c or U+3000 in others,
    # so split out; a stamp-only line and a whitespace-only line.
    ("%d/%m/%Y %H:%M:%S", ["a b", "alpha"],
     ["01/01/1970 00:00:05 a b", "01/01/1970\t00:00:06 a b", "01/01/1970  00:01:07 alpha",
      "01/01/1970\x1c00:00:08 x1", "01/01/1970\u300000:00:09 beta", "01/01/1970 00:00:10",
      " \t ", "\t01/01/1970 00:02:11 gamma 7", "01/01/1970\t00:00:06 a b"],
     ["01/01/1970 00:00:05", "01/01/1970 00:02:11"], 60.0, 0.5)
)
@example(
    # One-token stamps: a stamp-only line, a whitespace-only line, and a
    # stamp after leading whitespace.
    (None, ["a b"],
     ["1970-01-01T00:00:01", "   ", "1970-01-01T00:00:02 a b", " 1970-01-01T00:01:03 a c",
      "\t1970-01-01T00:00:04\ta  b", "1970-01-01T00:00:01"],
     ["1970-01-01T00:00:01"], 60.0, 0.5)
)
@example(
    # Three-token stamps ("%d/%m/%Y  %H:%M:%S" has two spaces), cut and split.
    ("%d/%m/%Y  %H:%M:%S", ["a b"],
     ["01/01/1970 00:00:05 a b", "01/01/1970  00:00:05 a b", "01/01/1970 00:00:05",
      "01/01/1970\t00:00:05 x", "01/01/1970 00:00:05 a\tb"],
     [], 60.0, 0.5)
)
def test_memoized_log_path_matches_per_line_oracle(case):
    # Once at the default chunk size and once with chunk boundaries inside
    # every call.  Set here, not by a fixture: hypothesis's health check
    # rejects a function-scoped fixture, which would not reset per example.
    default = logfeatures._CHUNK
    try:
        for chunk in (default, 2):
            logfeatures._CHUNK = chunk
            _check_log_case(case)
    finally:
        logfeatures._CHUNK = default


def _check_log_case(case):
    fmt, normal, online, table_stamps, interval, sim = case
    for line in normal + online:
        assert tokenize(line) == oracle_tokenize(line)

    base = build_template_base(normal, sim=sim)
    oracle_base = oracle_build_template_base(normal, sim=sim)
    assert list(base.groups.items()) == list(oracle_base.groups.items())
    # What the build's skip relies on: every inserted line keeps a
    # template of similarity 1.
    for line in normal:
        tokens = tokenize(line)
        assert not tokens or base._best(tokens)[1] == 1.0

    frame = match_and_aggregate(base, online, interval, fmt)
    oracle_frame = oracle_match_and_aggregate(oracle_base, online, interval, fmt)
    assert frame == oracle_frame
    assert frame.skipped == oracle_frame.skipped
    assert frame.to_csv() == oracle_frame.to_csv()

    table = {"timestamp": list(table_stamps)}
    with tempfile.TemporaryDirectory() as tmp:
        logs = Path(tmp)
        (logs / "normal.log").write_text("\n".join(normal), encoding="utf-8")
        (logs / "online.log").write_text("\n".join(online), encoding="utf-8")
        # The CLI splits what it reads back at line endings only, and a
        # final one starts no line, so the oracle counts the lines read back.
        normal_read = _collect_log_lines(logs, "normal")
        online_read = _collect_log_lines(logs, "online")
        if not online_read:
            return
        counters = oracle_match_and_aggregate(
            oracle_build_template_base(normal_read, sim), online_read, interval, fmt
        ).counters()
        expected = oracle_join(table, "timestamp", counters, interval, fmt)
        try:
            log_counters = partial(_log_counters, logs, interval, sim, fmt)
            _log_feature_columns(table, "train.csv", "timestamp", logs, interval, fmt, log_counters)
        except CliError as exc:
            assert expected is None
            row = next(
                i
                for i, raw in enumerate(table_stamps, 1)
                if oracle_join({"t": [raw]}, "t", {}, interval, fmt) is None
            )
            assert str(exc) == (
                f"train.csv: column 'timestamp', row {row}:"
                f" unparseable timestamp {table_stamps[row - 1]!r}"
            )
        else:
            for name, column in expected.items():
                assert table[name].dtype == np.float64 and table[name].tolist() == column
