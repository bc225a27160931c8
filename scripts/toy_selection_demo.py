#!/usr/bin/env python3
"""Walk through the curvature-weighted selection on a tiny instance.

The dataset has 20 positives and 100 negatives with three candidate
single-feature rules:

  A: 10 positives + 1 negative
  B: the other 10 positives + 1 negative
  C: 18 positives + 5 negatives

An undistorted greedy (weight fixed at 1) grabs the broad rule C first
and ends with 6 covered negatives; the increasing weight schedule picks
the precise rules A and B instead and ends with 2.
"""

import math

from ruleloc.core import (
    BinaryDataset,
    ObjectiveContext,
    Rule,
    bitset_of,
    cover_of_set,
    f1_score,
    rule_objective,
)
from ruleloc.select import SelectionConfig, alpha_schedule, select_rule_set

NAMES = ("A", "B", "C")


def build_instance() -> BinaryDataset:
    a = bitset_of(range(10)) | bitset_of([20])
    b = bitset_of(range(10, 20)) | bitset_of([21])
    c = bitset_of(range(18)) | bitset_of(range(22, 27))
    return BinaryDataset(120, (a, b, c), bitset_of(range(20)))


def show_candidates(ds: BinaryDataset, alpha: float) -> None:
    ctx = ObjectiveContext(ds, alpha=alpha)
    print(f"  candidate values at alpha={alpha:g} (base-10 logs):")
    for j, name in enumerate(NAMES):
        value = rule_objective(ctx, Rule.of(j)) / math.log(10)
        print(f"    {name}: {value:+.4f}")


def run(gamma: float) -> None:
    ds = build_instance()
    schedule = alpha_schedule(2, gamma)
    print(f"gamma={gamma:g}  weight schedule={schedule}")
    show_candidates(ds, schedule[0])
    rs = select_rule_set(ds, SelectionConfig(max_rules=2, gamma=gamma, max_len=1))
    names = [NAMES[r.features[0]] for r in rs.rules]
    cover = cover_of_set(ds, rs.rules)
    pos = (cover & ds.labels).bit_count()
    neg = cover.bit_count() - pos
    print(f"  selected {names}: covers {pos} positives / {neg} negatives,"
          f" F1={f1_score(ds, rs):.5f}")
    print()


if __name__ == "__main__":
    run(gamma=1.0)
    run(gamma=0.0)
