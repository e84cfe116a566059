"""SC-2 determinism checker against the seeded fixture violations."""

from pathlib import Path

from repro.statcheck import run_lint

FIXTURES = Path(__file__).parent / "fixtures"


def lint_nondet():
    return run_lint(
        paths=[str(FIXTURES / "nondet.py")],
        checkers=["SC-2"],
        all_scopes=True,
    )


class TestDeterminism:
    def test_every_seeded_violation_found(self):
        report = lint_nondet()
        by_qualname = {f.qualname: f.rule for f in report.findings}
        assert by_qualname.get("wall_clock_read") == "wall-clock"
        assert by_qualname.get("perf_counter_read") == "wall-clock"
        assert by_qualname.get("unseeded_global_draw") == "global-rng"
        assert by_qualname.get("unseeded_instance") == "global-rng"
        assert by_qualname.get("entropy_read") == "entropy"
        assert by_qualname.get("address_ordering") == "hash-order"
        assert by_qualname.get("set_into_list") == "set-order"
        assert by_qualname.get("set_materialized") == "set-order"
        assert by_qualname.get("memo_subscript_load") == "id-key"
        assert by_qualname.get("memo_subscript_store") == "id-key"
        assert by_qualname.get("memo_get") == "id-key"
        assert by_qualname.get("memo_setdefault") == "id-key"

    def test_stored_wall_clock_reference_found(self):
        # A clock kept as a value reads host time wherever it is called,
        # so the reference itself is the finding: assigned, a default,
        # or stored on an object under an imported name.
        report = run_lint(
            paths=[str(FIXTURES / "stored_clock.py")],
            checkers=["SC-2"],
            all_scopes=True,
        )
        by_qualname = {f.qualname: f.rule for f in report.findings}
        assert by_qualname == {
            "stored_clock_read": "wall-clock",
            "clock_default": "wall-clock",
            "StoredClock.__init__": "wall-clock",
        }
        assert len(report.findings) == 3

    def test_allowed_idioms_not_flagged(self):
        report = lint_nondet()
        flagged = {f.qualname for f in report.findings}
        assert not any(q.startswith("ok_") for q in flagged), flagged

    def test_findings_carry_file_and_line(self):
        report = lint_nondet()
        assert report.findings
        for finding in report.findings:
            assert finding.checker == "SC-2"
            assert finding.lineno > 0
            assert finding.path.endswith("nondet.py")


class TestRealTreeMutation:
    """Inserting time.time() into kernel/switch.py must trip SC-2."""

    REPO = Path(__file__).resolve().parents[2]
    NEEDLE = "        entered_at = core.clock.now\n"

    def test_inserted_wall_clock_read_is_caught(self, tmp_path):
        import shutil

        kernel = tmp_path / "kernel"
        shutil.copytree(self.REPO / "src" / "repro" / "kernel", kernel)
        switch_py = kernel / "switch.py"
        source = switch_py.read_text()
        assert self.NEEDLE in source, "switch.py changed; update the fixture"
        switch_py.write_text(source.replace(
            self.NEEDLE,
            self.NEEDLE + "        import time\n"
                          "        _skew = time.time()\n",
        ))
        report = run_lint(paths=[str(kernel)])
        assert not report.clean
        findings = [f for f in report.findings if f.checker == "SC-2"]
        assert len(findings) == 1
        assert findings[0].rule == "wall-clock"
        assert findings[0].qualname == "SwitchPath.execute"
        assert "switch.py" in findings[0].path

    def test_unmutated_kernel_is_clean(self, tmp_path):
        import shutil

        kernel = tmp_path / "kernel"
        shutil.copytree(self.REPO / "src" / "repro" / "kernel", kernel)
        report = run_lint(paths=[str(kernel)])
        assert report.clean
