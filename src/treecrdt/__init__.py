"""Replicated tree data types and a deterministic convergence harness.

The package root names only what the benchmark in ``perfbench/`` imports;
everything else is read from its module (``treecrdt.harness``,
``treecrdt.graph``, ``treecrdt.sets`` and the rest).
"""

from .harness import (
    Simulation,
    check_convergence,
    legal_combos,
    oracle_membership,
    parse_combo,
    tree_validity,
)

__all__ = [
    "Simulation",
    "check_convergence",
    "legal_combos",
    "oracle_membership",
    "parse_combo",
    "tree_validity",
]
