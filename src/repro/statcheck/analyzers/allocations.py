"""hot-loop-allocation: per-iteration array allocations on hot paths.

Allocator traffic -- ``np.zeros``/``.copy()``/``.astype()`` and
whole-array binary-op temporaries created fresh on every iteration of an
inner loop -- was once half the cost of the matrix-free ``Ax`` kernel and
most of a time step's minor page faults.  The fix is always the same
(hoist a scratch buffer -- for the SEM kernels, a named buffer of the
space's :class:`~repro.sem.workspace.Workspace` -- and update in place),
and the in-place forms of the solver recurrences are bit-identical under
IEEE arithmetic, so the rewrites are safe even for golden-trajectory-tested
code.

Hot scope: ``repro.precond.*``, ``repro.solvers.*``, ``repro.sem.operators``,
``repro.sem.coef``, ``repro.sem.dealias``, ``repro.sem.gather_scatter``,
``repro.comm.distributed_solver`` and ``repro.comm.batched``.  Setup-time
functions (``__init__``, ``build_*``/``_build_*``, ``setup*``) are exempt:
construction cost is paid once and hoisting there hurts readability for
nothing.

Three checks:

* direct allocator calls lexically inside a loop (``for``/``while`` or a
  comprehension) of a hot function (WARNING);
* loop-carried recurrence rebinds ``x = <expr containing x>`` that
  reallocate ``x`` every iteration instead of updating in place (WARNING);
* calls, inside such a loop, to a project function that the call graph
  says allocates (INFO -- advisory, because the callee may be amortized
  or conditional; the interprocedural *allocates* summary is a boolean
  fixpoint over the call graph).
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator

from repro.statcheck.analyzers.base import Analyzer
from repro.statcheck.finding import Finding, Severity
from repro.statcheck.rules.base import attr_chain

if TYPE_CHECKING:  # pragma: no cover
    from repro.statcheck.callgraph import CallGraph, FunctionInfo, Project

__all__ = ["HotLoopAllocationAnalyzer"]

#: Modules (exact) and packages (prefix) forming the hot scope.
HOT_MODULES = {
    "repro.sem.operators",
    "repro.sem.coef",
    # Dealiased convection and gather--scatter run every step (dssum and
    # the weighted dot once per Krylov iteration); their scratch lives in
    # the space's Workspace, so fresh arrays in their loops are regressions.
    "repro.sem.dealias",
    "repro.sem.gather_scatter",
    "repro.comm.distributed_solver",
    # The batched exchange path runs once per simulated collective round at
    # O(10^4) ranks; its fill loops must stay allocator-free.
    "repro.comm.batched",
}
HOT_PACKAGES = ("precond", "solvers")

#: np.* / numpy.* callables that allocate a fresh array.
_NP_ALLOCATORS = {
    "zeros", "empty", "ones", "full", "zeros_like", "empty_like", "ones_like",
    "full_like", "array", "copy", "concatenate", "stack", "hstack", "vstack",
    "tile", "repeat", "outer", "kron",
}
#: Methods that allocate a fresh array regardless of receiver.
_METHOD_ALLOCATORS = {"copy", "astype", "flatten"}

#: Function-name prefixes/names exempt as setup-time.
_SETUP_NAMES = {"__init__", "__post_init__"}
_SETUP_PREFIXES = ("build", "_build", "setup", "_setup")

_LOOPS = (ast.For, ast.AsyncFor, ast.While)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def is_hot(info: "FunctionInfo") -> bool:
    if info.ctx.module in HOT_MODULES:
        pass
    elif not info.ctx.in_package(*HOT_PACKAGES):
        return False
    name = info.name
    if name in _SETUP_NAMES or name.startswith(_SETUP_PREFIXES):
        return False
    return True


def _allocator_name(call: ast.Call) -> str | None:
    """Dotted name when ``call`` allocates a fresh array, else None."""
    chain = attr_chain(call.func)
    if chain is not None:
        parts = chain.split(".")
        if parts[0] in ("np", "numpy") and parts[-1] in _NP_ALLOCATORS:
            return chain
        if len(parts) >= 2 and parts[-1] in _METHOD_ALLOCATORS:
            return chain
        return None
    # Method allocators on non-name receivers: ``ze[idx].copy()``.
    if isinstance(call.func, ast.Attribute) and call.func.attr in _METHOD_ALLOCATORS:
        return f"<expr>.{call.func.attr}"
    return None


def _enclosing_loop(ctx, node: ast.AST, func: ast.AST) -> ast.AST | None:
    """Nearest ``for``/``while`` between ``node`` and its function.

    Comprehensions are deliberately *not* loops here: a comprehension that
    builds a list of per-chunk arrays is the construction of the result,
    not a per-iteration leak.  The per-solver-iteration cost of calling an
    allocating helper from inside a real loop is what the interprocedural
    check reports.
    """
    for anc in ctx.ancestors(node):
        if anc is func:
            return None
        if isinstance(anc, _LOOPS):
            return anc
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return None
    return None


def _names_in(node: ast.AST) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def _allocates(info: "FunctionInfo") -> bool:
    """Syntactic own-allocation: any allocator call anywhere in the body."""
    for node in ast.walk(info.node):
        if isinstance(node, ast.Call) and _allocator_name(node) is not None:
            return True
    return False


def allocation_summaries(graph: "CallGraph") -> dict[str, bool]:
    """Transitive *allocates* summary per function (boolean fixpoint)."""
    summary = {qname: _allocates(info) for qname, info in graph.functions.items()}
    work = [q for q, v in summary.items() if v]
    while work:
        qname = work.pop()
        for caller in graph.callers_of(qname):
            if not summary.get(caller, False):
                summary[caller] = True
                work.append(caller)
    return summary


class HotLoopAllocationAnalyzer(Analyzer):
    name = "hot-loop-allocation"
    severity = Severity.WARNING
    description = (
        "fresh array allocations inside loops of hot paths (precond/solvers/"
        "sem.operators/sem.coef/sem.dealias/sem.gather_scatter): hoist scratch "
        "buffers, update recurrences in place"
    )

    def check(self, project: "Project") -> Iterator[Finding]:
        graph = project.callgraph
        summaries = allocation_summaries(graph)
        for qname in sorted(graph.functions):
            info = graph.functions[qname]
            if not is_hot(info):
                continue
            yield from self._check_function(graph, summaries, info)

    def _check_function(
        self, graph: "CallGraph", summaries: dict[str, bool], info: "FunctionInfo"
    ) -> Iterator[Finding]:
        ctx = info.ctx
        sites = {id(s.node): s.callee for s in graph.callees_of(info.qname)}
        seen_calls: set[int] = set()

        for node in ast.walk(info.node):
            if not isinstance(node, ast.Call) or id(node) in seen_calls:
                continue
            seen_calls.add(id(node))
            if _enclosing_loop(ctx, node, info.node) is None:
                continue
            name = _allocator_name(node)
            if name is not None:
                yield self.finding(
                    info,
                    node,
                    f"'{name}' allocates a fresh array every loop iteration; "
                    "hoist a scratch buffer outside the loop",
                )
                continue
            callee = sites.get(id(node))
            if callee is not None and summaries.get(callee, False):
                short = callee.rsplit(":", 1)[-1]
                yield self.finding(
                    info,
                    node,
                    f"call to '{short}' allocates arrays on every loop iteration "
                    "(interprocedural); consider an out= parameter or caching",
                    severity=Severity.INFO,
                )

        # Loop-carried recurrence rebinds: x = <binop/comprehension over x>.
        for stmt in ast.walk(info.node):
            if not isinstance(stmt, ast.Assign) or len(stmt.targets) != 1:
                continue
            target = stmt.targets[0]
            if not isinstance(target, ast.Name):
                continue
            if not isinstance(stmt.value, (ast.BinOp, *_COMPREHENSIONS)):
                continue
            if _enclosing_loop(ctx, stmt, info.node) is None:
                continue
            if target.id in _names_in(stmt.value):
                yield self.finding(
                    info,
                    stmt,
                    f"loop-carried recurrence '{target.id} = ...' reallocates "
                    f"'{target.id}' every iteration; update in place "
                    "(the in-place form is bit-identical under IEEE addition)",
                )
