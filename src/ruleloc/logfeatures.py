"""Log novelty features.

An offline pass over normal-period logs builds a base of message
templates (token sequences with wildcard slots, grouped by token count
and first-token class for cheap candidate lookup).  Online lines are then
matched against the base; lines matching no stored template are "novel"
and are counted per time interval, producing numeric columns that join
the metric table.

A line is split on whitespace (``str.split``) and every token holding a
``str.isdigit`` character is a parameter, masked to the wildcard.  Work
in Python is done once per distinct **shape**: the line with every ASCII
digit 1-9 translated to ``0``.  A token holds a digit exactly when its
shape does, and a token without one does not change, so a line and its
shape give the same tokens.  Lines are shaped in chunks, one
``translate`` per chunk; the build tokenizes each distinct shape once and
inserts each distinct token sequence once, and matching tokenizes and
matches each distinct shape and parses each distinct stamp once per call.

A line's whitespace is its shape's, so matching also finds once per
distinct shape where its lines' stamps lie.  Where a shape starts with its
first n_stamp tokens one space apart, the stamp of each of its lines is
that slice of the line, and a chunk whose shapes share one slice is cut
by one ``itemgetter`` pass; the lines of any other shape (leading
whitespace, or a tab, two spaces, ``\\x1c`` or U+3000 inside the stamp)
are split one by one.  The (stamp, shape) pairs that count unmatched
lines are built only for the shapes that match no template, and only
once some shape has missed.
"""

from __future__ import annotations

import csv
import io
import re
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime
from itertools import chain, compress, islice
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

WILDCARD = "<*>"

DEFAULT_SIMILARITY = 0.5

# A line's shape: every ASCII digit becomes "0".  Only digits change, so
# the shape splits at the same places as the line, and tokenize gives
# both the same tokens.
_SHAPE = str.maketrans("123456789", "000000000")

# Lines shaped per translate pass.  Large enough that the per-chunk
# Python work is small next to the C passes; small enough that the
# joined copy of a chunk adds little to the memory peak.
_CHUNK = 4096

# A naive timestamp is taken as UTC: its epoch seconds count from here.
_EPOCH = datetime(1970, 1, 1)


# A whitespace-delimited token holding an ASCII digit, anchored at the
# token's start so a token without one is scanned once.  On an ASCII line
# `\s` and str.split() agree on whitespace and str.isdigit is [0-9].
_ASCII_PARAMETER = re.compile(r"(?<!\S)\S*?[0-9]\S*")


def _mask_token(token: str) -> str:
    # Tokens carrying digits are treated as parameters, not message text.
    return WILDCARD if any(ch.isdigit() for ch in token) else token


def tokenize(line: str) -> tuple[str, ...]:
    """Whitespace tokens of a line, each one holding a digit masked.

    A token holding any ``str.isdigit`` character (``7``, ``e²``, ``a٠``)
    becomes the wildcard.  ASCII lines take one regex pass; any other line
    is masked token by token, because ``isdigit`` accepts more than [0-9].
    """
    if line.isascii():
        return tuple(_ASCII_PARAMETER.sub(WILDCARD, line).split())
    return tuple(_mask_token(tok) for tok in line.split())


def _chunks(lines: Iterable[str]) -> Iterator[list[str]]:
    it = iter(lines)
    while chunk := list(islice(it, _CHUNK)):
        yield chunk


def _shapes(chunk: list[str]) -> list[str]:
    """The shape of each line of a chunk, from one translate of the joined chunk."""
    shapes = "\n".join(chunk).translate(_SHAPE).split("\n")
    if len(shapes) != len(chunk):
        # Some line holds "\n" itself, so the joined chunk splits elsewhere.
        shapes = [line.translate(_SHAPE) for line in chunk]
    return shapes


def similarity(tokens: Sequence[str], template: Sequence[str]) -> float:
    """Fraction of positions the template accepts; lengths must agree.

    A wildcard slot in the template accepts any token, so a line keeps
    similarity 1 to every template it helped generalize.
    """
    if len(tokens) != len(template) or not template:
        return 0.0
    hits = sum(t == WILDCARD or x == t for x, t in zip(tokens, template))
    return hits / len(template)


def check_similarity(sim: float) -> None:
    """A ValueError unless sim, a template similarity threshold, lies in (0, 1]."""
    if not 0.0 < sim <= 1.0:  # NaN too
        raise ValueError("similarity threshold must lie in (0, 1]")


def _group_key(tokens: Sequence[str]) -> tuple[int, str]:
    return len(tokens), tokens[0]


@dataclass
class TemplateBase:
    """Parsed message templates from a normal-period corpus."""

    similarity_threshold: float = DEFAULT_SIMILARITY
    groups: dict[tuple[int, str], list[list[str]]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_similarity(self.similarity_threshold)

    def __len__(self) -> int:
        return sum(len(g) for g in self.groups.values())

    def _candidates(self, tokens: Sequence[str]) -> Iterable[list[str]]:
        key = _group_key(tokens)
        yield from self.groups.get(key, ())
        if key[1] != WILDCARD:
            yield from self.groups.get((key[0], WILDCARD), ())

    def _best(self, tokens: Sequence[str]) -> tuple[Optional[list[str]], float]:
        # Ties broken by the lexicographically smaller template, so the
        # result does not depend on storage order.
        best: Optional[list[str]] = None
        best_sim = -1.0
        for template in self._candidates(tokens):
            sim = similarity(tokens, template)
            if sim > best_sim or (sim == best_sim and best is not None and template < best):
                best_sim, best = sim, template
        return best, best_sim

    def match(self, tokens: Sequence[str]) -> Optional[tuple[str, ...]]:
        """Best stored template with similarity >= threshold, or None."""
        if not tokens:
            return None
        best, best_sim = self._best(tokens)
        if best is not None and best_sim >= self.similarity_threshold:
            return tuple(best)
        return None

    def _insert(self, tokens: Sequence[str]) -> None:
        best, best_sim = self._best(tokens)
        if best is not None and best_sim >= self.similarity_threshold:
            # A candidate's first slot is tokens[0] or the wildcard, so the
            # wildcarding below never touches it and the group key holds.
            for i, (x, y) in enumerate(zip(tokens, best)):
                if x != y and y != WILDCARD:
                    best[i] = WILDCARD
        else:
            self.groups.setdefault(_group_key(tokens), []).append(list(tokens))


def build_template_base(
    lines: Iterable[str],
    sim: float = DEFAULT_SIMILARITY,
) -> TemplateBase:
    """Parse a normal-period line stream into a template base.

    A line merges into the most similar stored template at or above the
    threshold (wildcarding the differing slots) or is stored verbatim as a
    new template.  Every non-blank input line matches a stored template
    afterwards, because wildcard slots keep accepting the tokens they
    replaced.  Blank lines are ignored.

    A line whose tokens were inserted before is skipped: once inserted,
    the tokens keep a template of similarity 1 (templates only gain
    wildcards, and a template's first slot stays the tokens' first token
    or the wildcard, so it stays a candidate), and inserting tokens at
    similarity 1 changes nothing.  Each distinct line shape is tokenized
    once, in order of first occurrence, which is also the order in which
    each distinct token sequence first occurs.
    """
    base = TemplateBase(similarity_threshold=sim)
    inserted: set[tuple[str, ...]] = set()
    for shape in dict.fromkeys(chain.from_iterable(map(_shapes, _chunks(lines)))):
        tokens = tokenize(shape)
        if tokens and tokens not in inserted:
            inserted.add(tokens)
            base._insert(tokens)
    return base


@dataclass(frozen=True)
class IntervalCounts:
    start: float
    total: int
    unmatched: int
    new_templates: frozenset[tuple[str, ...]]

    @property
    def distinct_new(self) -> int:
        return len(self.new_templates)


@dataclass(frozen=True)
class LogFeatureFrame:
    """Per-interval novelty counters aligned to the metric sample interval."""

    interval_seconds: float
    rows: tuple[IntervalCounts, ...]
    skipped: int

    def counters(self) -> dict[float, tuple[int, int, int]]:
        return {r.start: (r.total, r.unmatched, r.distinct_new) for r in self.rows}

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["interval_start", "total", "unmatched", "distinct_new"])
        for row in self.rows:
            start = int(row.start) if row.start == int(row.start) else row.start
            writer.writerow([start, row.total, row.unmatched, row.distinct_new])
        return buf.getvalue()


def parse_timestamp(raw: str, fmt: Optional[str] = None) -> float:
    """Epoch seconds of a timestamp token; naive times are taken as UTC."""
    if fmt is None:
        text = raw.replace("Z", "+00:00") if raw.endswith("Z") else raw
        dt = datetime.fromisoformat(text)
    else:
        dt = datetime.strptime(raw, fmt)
    if dt.tzinfo is None:
        # The integer-microsecond division that timestamp() makes of the same
        # time taken as UTC, without building the aware time.
        return (dt - _EPOCH).total_seconds()
    return dt.timestamp()


def check_interval(interval: float) -> None:
    """A ValueError unless interval is a positive finite number of seconds."""
    if not 0 < interval < float("inf"):  # NaN too
        raise ValueError("interval must be a positive finite number")


def match_and_aggregate(
    base: TemplateBase,
    lines: Iterable[str],
    interval: float,
    timestamp_format: Optional[str] = None,
) -> LogFeatureFrame:
    """Count total / unmatched / distinct-novel lines per time interval.

    Interval boundaries are floor(epoch / interval) * interval.  Lines
    whose timestamp cannot be parsed (and blank lines) are skipped and
    tallied, each one every time; matching never mutates the base, so
    aggregate counts are order-insensitive within an interval.  Each
    distinct stamp is parsed once and each distinct line shape tokenized
    and matched once per call; its message is the shape past the stamp.
    A line's stamp is its first n_stamp whitespace tokens joined by one
    space (a line with fewer, a blank one too, is skipped); the module
    docstring says how it is cut.
    """
    check_interval(interval)
    n_stamp = 1 if timestamp_format is None else timestamp_format.count(" ") + 1
    stamp_counts: Counter[str] = Counter()
    miss_counts: Counter[tuple[str, str]] = Counter()
    ends: dict[str, Optional[int]] = {}  # each known shape's stamp length, None if split
    misses: dict[str, tuple[str, ...]] = {}
    for chunk in _chunks(lines):
        shapes = _shapes(chunk)
        distinct = set(shapes)
        for shape in distinct.difference(ends):
            parts = shape.split(None, n_stamp)
            # A line's whitespace is its shape's: where the shape starts with
            # its stamp tokens one space apart, each of its lines does too.
            stamp = " ".join(parts[:n_stamp])
            ends[shape] = len(stamp) if shape.startswith(stamp) else None
            tokens = tokenize(parts[n_stamp]) if len(parts) > n_stamp else ()
            if not tokens or base.match(tokens) is None:
                misses[shape] = tokens
        lengths = set(map(ends.__getitem__, distinct))
        if len(lengths) == 1 and None not in lengths:
            stamps = list(map(itemgetter(slice(lengths.pop())), chunk))
        else:
            stamps = [
                line[:end] if end is not None else " ".join(line.split(None, n_stamp)[:n_stamp])
                for line, end in zip(chunk, map(ends.__getitem__, shapes))
            ]
        stamp_counts.update(stamps)
        if misses:
            miss_counts.update(compress(zip(stamps, shapes), map(misses.__contains__, shapes)))

    starts: dict[str, float] = {}
    totals: Counter[float] = Counter()
    skipped = 0
    for stamp, count in stamp_counts.items():
        if stamp and stamp.count(" ") == n_stamp - 1:
            try:
                epoch = parse_timestamp(stamp, timestamp_format)
            except ValueError:
                pass
            else:
                start = starts[stamp] = (epoch // interval) * interval
                totals[start] += count
                continue
        skipped += count
    unmatched: Counter[float] = Counter()
    novel: dict[float, set[tuple[str, ...]]] = {}
    for (stamp, shape), count in miss_counts.items():
        if stamp in starts:
            start = starts[stamp]
            unmatched[start] += count
            novel.setdefault(start, set()).add(misses[shape])
    rows = tuple(
        IntervalCounts(start, totals[start], unmatched[start], frozenset(novel.get(start, ())))
        for start in sorted(totals)
    )
    return LogFeatureFrame(float(interval), rows, skipped)
