"""Domain-invariant static analysis and runtime array contracts.

Three cross-checking layers guard the invariants the paper's claims rest
on (vectorised hot-loop array math, bitwise-reproducible DNS, a closed span
taxonomy, a disciplined mixed-precision split):

* the **linter** (``python -m repro.statcheck src/``) -- per-module AST
  rules with per-finding severities, inline ``# statcheck: ignore[RULE]``
  suppressions and a committed count-based baseline
  (``statcheck_baseline.json``) so pre-existing findings don't block CI
  while new ones do;
* the **analyzers** (``--analysis {precision,collectives,allocations,all}``)
  -- flow-sensitive interprocedural analyses over the project call graph
  (:mod:`repro.statcheck.callgraph`) and a fixpoint dataflow framework
  (:mod:`repro.statcheck.dataflow`): dtype provenance through the
  mixed-precision stack, collective-ordering deadlock shapes in
  ``repro.comm``, and per-iteration allocations on hot loops.  Analyzer
  findings share the rules' suppression grammar, baseline and output
  formats (including ``--format sarif`` for code-scanning annotation);
* the **contracts** (:mod:`repro.statcheck.contracts`) -- shape/dtype
  specifications for the core ``(nelem, n, n, n)`` field layout, enforced
  at call boundaries when enabled (the test suite turns them on; runs
  default to zero-cost off).

See README "Static analysis & contracts".
"""

from repro.statcheck.analyzers import ALL_ANALYZERS, Analyzer, get_analyzers
from repro.statcheck.baseline import Baseline, partition_findings
from repro.statcheck.callgraph import CallGraph, Project, build_callgraph
from repro.statcheck.dataflow import AbstractInterpreter, FlatLattice, SummarySolver
from repro.statcheck.engine import (
    ModuleContext,
    check_paths,
    check_project,
    iter_python_files,
)
from repro.statcheck.finding import Finding, Severity
from repro.statcheck.rules import ALL_RULES, Rule, get_rules
from repro.statcheck.sarif import to_sarif

__all__ = [
    "ALL_ANALYZERS",
    "ALL_RULES",
    "AbstractInterpreter",
    "Analyzer",
    "Baseline",
    "CallGraph",
    "FlatLattice",
    "Finding",
    "ModuleContext",
    "Project",
    "Rule",
    "Severity",
    "SummarySolver",
    "build_callgraph",
    "check_paths",
    "check_project",
    "get_analyzers",
    "get_rules",
    "iter_python_files",
    "partition_findings",
    "to_sarif",
]
