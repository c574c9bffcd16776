"""hot-loop-allocation analyzer behaviour, driven by the committed fixture."""

from pathlib import Path

from repro.statcheck import check_project
from repro.statcheck.analyzers.allocations import HotLoopAllocationAnalyzer
from repro.statcheck.callgraph import Project
from repro.statcheck.finding import Severity

FIXTURE = (
    Path(__file__).parent
    / "fixtures_analyzers/src/repro/solvers/alloc_case.py"
)


def _findings():
    project = Project.load([FIXTURE], root=FIXTURE.parents[3])
    return sorted(HotLoopAllocationAnalyzer().check(project), key=lambda f: f.line)


class TestDirectAllocations:
    def test_allocators_in_loops_are_flagged(self):
        by_line = {f.line: f for f in _findings()}
        assert "'np.zeros'" in by_line[16].message
        assert "'x.copy'" in by_line[25].message
        assert "'np.empty_like'" in by_line[33].message
        assert "'np.array'" in by_line[67].message  # suppression-demo line
        for line in (16, 25, 33, 67):
            assert by_line[line].severity == Severity.WARNING

    def test_hoisted_buffers_are_silent(self):
        lines = [f.line for f in _findings()]
        assert not any(72 <= line <= 76 for line in lines)  # hoisted_scratch


class TestRecurrences:
    def test_rebind_is_flagged_with_the_ieee_note(self):
        by_line = {f.line: f for f in _findings()}
        f = by_line[43]
        assert "loop-carried recurrence 'p = ...'" in f.message
        assert "bit-identical under IEEE addition" in f.message

    def test_in_place_form_is_silent(self):
        lines = [f.line for f in _findings()]
        assert not any(79 <= line <= 83 for line in lines)  # recurrence_in_place


class TestInterprocedural:
    def test_allocating_callee_in_loop_is_advisory(self):
        by_line = {f.line: f for f in _findings()}
        f = by_line[56]
        assert f.severity == Severity.INFO
        assert "'_fresh' allocates arrays on every loop iteration" in f.message

    def test_non_allocating_callee_is_silent(self):
        lines = [f.line for f in _findings()]
        assert not any(90 <= line <= 99 for line in lines)  # _scale driver


class TestExemptions:
    def test_comprehensions_are_not_loops(self):
        # comprehension_builds_result: list-of-chunks construction.
        lines = [f.line for f in _findings()]
        assert not any(86 <= line <= 88 for line in lines)

    def test_setup_functions_are_exempt(self):
        # Workspace.__init__ and build_operators allocate in loops freely.
        lines = [f.line for f in _findings()]
        assert not any(line >= 102 for line in lines)

    def test_exact_finding_set(self):
        assert [f.line for f in _findings()] == [16, 25, 33, 43, 56, 67]


class TestEngineIntegration:
    def test_suppression_filters_the_annotated_line(self):
        findings, errors = check_project(
            [FIXTURE],
            analyzers=[HotLoopAllocationAnalyzer()],
            root=FIXTURE.parents[3],
        )
        assert errors == []
        lines = [f.line for f in findings]
        assert 67 not in lines  # standalone ignore[hot-loop-allocation]
        assert lines == [16, 25, 33, 43, 56]


class TestBatchedExchangeScope:
    """repro.comm.batched is a hot module: its fill loops stay allocator-free."""

    FIXTURE = (
        Path(__file__).parent / "fixtures_analyzers/src/repro/comm/batched.py"
    )

    def _findings(self):
        project = Project.load([self.FIXTURE], root=self.FIXTURE.parents[3])
        return sorted(
            HotLoopAllocationAnalyzer().check(project), key=lambda f: f.line
        )

    def test_fill_loop_idiom_is_silent(self):
        lines = [f.line for f in self._findings()]
        assert not any(14 <= line <= 19 for line in lines)  # fill_loop_is_clean

    def test_per_message_allocation_is_flagged(self):
        by_line = {f.line: f for f in self._findings()}
        assert [*by_line] == [25]
        assert "'np.array'" in by_line[25].message
        assert by_line[25].severity == Severity.WARNING

    def test_setup_buffers_are_exempt(self):
        lines = [f.line for f in self._findings()]
        assert not any(line >= 29 for line in lines)  # BatchedState.__init__


class TestSemHotModules:
    """repro.sem.dealias and repro.sem.gather_scatter are hot modules."""

    FIXTURE = Path(__file__).parent / "fixtures_analyzers/src/repro/sem/dealias.py"

    def _findings(self):
        project = Project.load([self.FIXTURE], root=self.FIXTURE.parents[3])
        return sorted(
            HotLoopAllocationAnalyzer().check(project), key=lambda f: f.line
        )

    def test_workspace_idiom_is_silent(self):
        lines = [f.line for f in self._findings()]
        assert not any(14 <= line <= 20 for line in lines)  # workspace_blocks_are_clean

    def test_fresh_block_is_flagged(self):
        by_line = {f.line: f for f in self._findings()}
        assert [*by_line] == [26]
        assert "'<expr>.copy'" in by_line[26].message
        assert by_line[26].severity == Severity.WARNING

    def test_setup_buffers_are_exempt(self):
        lines = [f.line for f in self._findings()]
        assert not any(line >= 32 for line in lines)  # Dealiaser.__init__

    def test_gather_scatter_is_in_scope(self, tmp_path):
        mod = tmp_path / "src" / "repro" / "sem" / "gather_scatter.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            "import numpy as np\n"
            "\n"
            "def dot_all(u, vs, w):\n"
            "    out = []\n"
            "    for v in vs:\n"
            "        out.append(np.dot((u * w).reshape(-1), v.copy().reshape(-1)))\n"
            "    return out\n"
        )
        project = Project.load([tmp_path / "src"], root=tmp_path)
        findings = list(HotLoopAllocationAnalyzer().check(project))
        assert [(f.line, f.severity) for f in findings] == [(6, Severity.WARNING)]
        assert "'v.copy'" in findings[0].message


class TestScope:
    def test_cold_packages_are_ignored(self, tmp_path):
        mod = tmp_path / "src" / "repro" / "observability" / "alloc.py"
        mod.parent.mkdir(parents=True)
        mod.write_text(
            "import numpy as np\n"
            "\n"
            "def f(fields):\n"
            "    out = []\n"
            "    for f_ in fields:\n"
            "        out.append(np.zeros(4))\n"
            "    return out\n"
        )
        project = Project.load([tmp_path / "src"], root=tmp_path)
        assert list(HotLoopAllocationAnalyzer().check(project)) == []
