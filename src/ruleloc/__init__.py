"""Interpretable rule-set classification for imbalanced binary telemetry.

The package learns small OR-of-ANDs rule sets that directly optimize the
F1 score on heavily imbalanced data, and uses per-fault-type rule sets to
rank candidate fault types and services for an incident window.
"""

__version__ = "0.1.0"

SCHEMA_VERSION = 1

from ruleloc.core import (  # noqa: E402,F401
    BinaryDataset,
    InvalidDatasetError,
    ObjectiveContext,
    Rule,
    RuleSet,
    RuleStats,
    cover_of_rule,
    cover_of_set,
    f1_score,
)
from ruleloc.generate import NoRuleFound, generate_rule  # noqa: E402,F401
from ruleloc.select import SelectionConfig, alpha_schedule, select_rule_set  # noqa: E402,F401
