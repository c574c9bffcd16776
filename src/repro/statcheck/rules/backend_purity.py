"""backend-purity: hot-loop array math in the numerics packages is vectorised.

The SEM kernels (``repro.sem``), the GPU execution model (``repro.gpu``)
and the preconditioners (``repro.precond``) get their speed from whole-array
NumPy calls over every element at once, the host analogue of one device
kernel launch per operator.  A raw ``np.*`` call inside a ``for``/``while``
loop in these packages is per-iteration array math: it runs once per
element, level or block instead of once per operator, which is the shape
the paper's device kernels avoid.  Such a loop must be vectorised.

Vectorized ``np.*`` calls at *setup* time (mesh construction, operator
factorization) are fine and common; only calls lexically inside loop
bodies are flagged.  Pre-existing sites live in the committed baseline;
genuinely setup-time loops should carry an explicit
``# statcheck: ignore[backend-purity] -- reason``.  The rule keeps its
historical name because those inline ignores refer to it.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.statcheck.engine import ModuleContext
from repro.statcheck.finding import Finding, Severity
from repro.statcheck.rules.base import Rule, attr_chain, enclosing_loops

__all__ = ["BackendPurityRule"]

#: Packages whose loops are considered kernel-adjacent.
KERNEL_PACKAGES = ("sem", "gpu", "precond")

#: ``np.<attr>`` calls that are bookkeeping, not array math.
_ALLOWED = {"errstate", "seterr", "geterr", "get_printoptions", "set_printoptions"}


class BackendPurityRule(Rule):
    name = "backend-purity"
    severity = Severity.WARNING
    description = (
        "np.* array math inside for/while loops in repro.sem / repro.gpu / "
        "repro.precond is hot-loop math that must be vectorised"
    )

    def applies(self, ctx: ModuleContext) -> bool:
        return ctx.in_package(*KERNEL_PACKAGES)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            chain = attr_chain(node.func)
            if chain is None:
                continue
            parts = chain.split(".")
            if parts[0] not in ("np", "numpy") or len(parts) < 2:
                continue
            if parts[1] in _ALLOWED:
                continue
            if not enclosing_loops(ctx, node):
                continue
            yield ctx.finding(
                self,
                node,
                f"`{chain}()` inside a loop: vectorise this hot-loop array "
                f"math, or mark the loop as setup-time with an explicit ignore",
            )
