"""SC-1 footprint-escape checker against the seeded fixture violations."""

from pathlib import Path

from repro.statcheck import run_lint

FIXTURES = Path(__file__).parent / "fixtures"


def lint_elements():
    return run_lint(
        paths=[str(FIXTURES / "elements.py")],
        checkers=["SC-1"],
        all_scopes=True,
    )


class TestFootprintEscape:
    def test_uncovered_read_on_latency_root_flagged(self):
        report = lint_elements()
        leaks = [f for f in report.findings if f.rule == "undeclared-read"]
        assert len(leaks) == 1
        finding = leaks[0]
        assert finding.checker == "SC-1"
        assert finding.qualname == "LeakyCache.access"
        assert "_sets" in finding.message
        assert finding.location.endswith(f"elements.py:{finding.lineno}")

    def test_raw_external_read_flagged(self):
        report = lint_elements()
        raws = [f for f in report.findings if f.rule == "raw-state-access"]
        assert len(raws) == 1
        assert raws[0].qualname == "peek_raw"
        assert "_sets" in raws[0].message

    def test_allowed_patterns_not_flagged(self):
        # Touching entry points, helpers under an instrumented caller,
        # protocol-covered flush, and off-path audit accessors are clean.
        report = lint_elements()
        flagged = {f.qualname for f in report.findings}
        assert "TouchingCache.access" not in flagged
        assert "TouchingCache._lookup_cost" not in flagged
        assert "TouchingCache.flush" not in flagged
        assert "TouchingCache.fingerprint" not in flagged

    def test_findings_render_with_file_and_line(self):
        report = lint_elements()
        for finding in report.findings:
            rendered = finding.render()
            assert "elements.py:" in rendered
            assert "SC-1" in rendered


class TestRealTreeMutation:
    """Deleting the touch() from Cache.invalidate_line must trip SC-1."""

    REPO = Path(__file__).resolve().parents[2]
    NEEDLE = (
        "        self._fp_version += 1\n"
        "        self._touch(set_index, TouchKind.EVICT)\n"
    )

    def test_deleting_touch_from_cache_is_caught(self, tmp_path):
        import shutil

        hardware = tmp_path / "hardware"
        shutil.copytree(self.REPO / "src" / "repro" / "hardware", hardware)
        cache_py = hardware / "cache.py"
        source = cache_py.read_text()
        assert self.NEEDLE in source, "cache.py changed; update the fixture"
        cache_py.write_text(
            source.replace(self.NEEDLE, "        self._fp_version += 1\n")
        )
        report = run_lint(paths=[str(hardware)])
        assert not report.clean
        findings = [f for f in report.findings if f.checker == "SC-1"]
        # One finding per state container the method reads.
        assert sorted(f.message.split("'")[1] for f in findings) == [
            "self._fill_order", "self._sets", "self._tags"]
        for finding in findings:
            assert finding.qualname == "Cache.invalidate_line"
            assert finding.rule == "undeclared-read"
            assert "cache.py" in finding.path

    def test_unmutated_hardware_is_clean(self, tmp_path):
        import shutil

        hardware = tmp_path / "hardware"
        shutil.copytree(self.REPO / "src" / "repro" / "hardware", hardware)
        report = run_lint(paths=[str(hardware)])
        assert report.clean
