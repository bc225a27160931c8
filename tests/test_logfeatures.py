import numpy as np
import pytest

from ruleloc.logfeatures import (
    DEFAULT_SIMILARITY,
    WILDCARD,
    TemplateBase,
    build_template_base,
    match_and_aggregate,
    parse_timestamp,
    similarity,
    split_timestamp,
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


def test_numeric_variants_collapse_to_one_template():
    base = build_template_base(["conn from 10.0.0.1", "conn from 10.0.0.2"])
    assert base.templates() == [("conn", "from", "<*>")]


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


def test_split_timestamp_custom_format_with_space():
    epoch, rest = split_timestamp(
        "01/01/1970 00:02:00 job 7 done", "%d/%m/%Y %H:%M:%S"
    )
    assert epoch == 120.0
    assert rest == "job 7 done"


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
    assert base1.templates() == base2.templates()
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
