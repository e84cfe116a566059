"""SC-2/SC-3 scope must cover the synth subsystem.

Discovered attacks are only as reproducible as the evolution loop is
deterministic: an unseeded RNG anywhere in ``src/repro/synth`` breaks
same-seed rediscovery silently, so the determinism checker owns that
tree from day one.  The shipped code must lint clean, and seeded
violations must be caught.
"""

import shutil
from pathlib import Path

from repro.statcheck import run_lint
from repro.statcheck.runner import _SCOPE_SEGMENTS

REPO = Path(__file__).resolve().parents[2]


class TestSynthScope:
    def test_synth_segment_is_in_sc2_and_sc3_scope(self):
        assert "synth" in _SCOPE_SEGMENTS["SC-2"]
        assert "synth" in _SCOPE_SEGMENTS["SC-3"]

    def test_shipped_synth_tree_lints_clean(self):
        report = run_lint(
            paths=[str(REPO / "src" / "repro" / "synth")],
            baseline_path=str(REPO / "statcheck.baseline.json"),
        )
        assert report.clean, "\n".join(f.render() for f in report.findings)
        assert report.files_analyzed >= 7

    def test_seeded_global_rng_in_search_is_caught(self, tmp_path):
        synth = tmp_path / "synth"
        shutil.copytree(REPO / "src" / "repro" / "synth", synth)
        search = synth / "search.py"
        source = search.read_text()
        needle = "class FamilyBandit:\n"
        assert needle in source, "search.py changed; update this fixture"
        search.write_text(source.replace(
            needle,
            "def _unseeded_pick(options):\n"
            "    import random\n"
            "    return random.random()\n\n\n" + needle,
            1,
        ))
        report = run_lint(paths=[str(synth)])
        assert not report.clean
        findings = [f for f in report.findings if f.checker == "SC-2"]
        assert any(
            f.rule == "global-rng" and f.path.endswith("search.py")
            for f in findings
        ), [f.render() for f in findings]

    def test_seeded_set_iteration_in_novelty_is_caught(self, tmp_path):
        # The novelty attribution moved to tests/synth/novelty.py; the
        # same set-order violation is now seeded into runner.py.
        synth = tmp_path / "synth"
        shutil.copytree(REPO / "src" / "repro" / "synth", synth)
        runner = synth / "runner.py"
        source = runner.read_text()
        needle = "def experiment(\n"
        assert needle in source, "runner.py changed; update this fixture"
        runner.write_text(source.replace(
            needle,
            "def _unstable_listing(elements):\n"
            "    return [element for element in set(elements)]\n\n\n"
            + needle,
            1,
        ))
        report = run_lint(paths=[str(synth)])
        assert not report.clean
        findings = [f for f in report.findings if f.checker == "SC-2"]
        assert any(
            f.rule == "set-order" and f.path.endswith("runner.py")
            for f in findings
        ), [f.render() for f in findings]

    def test_seeded_uninstrumented_element_is_caught(self, tmp_path):
        synth = tmp_path / "synth"
        shutil.copytree(REPO / "src" / "repro" / "synth", synth)
        victims = synth / "victims.py"
        source = victims.read_text()
        needle = "VICTIMS: Dict[str, object] = {\n"
        assert needle in source, "victims.py changed; update this fixture"
        victims.write_text(source.replace(
            needle,
            "class StateElement:\n"
            "    pass\n\n\n"
            "class _Scratchpad(StateElement):\n"
            "    pass\n\n\n"
            "def _rogue_scratchpad():\n"
            "    return _Scratchpad('scratchpad')\n\n\n" + needle,
            1,
        ))
        report = run_lint(paths=[str(synth)])
        assert not report.clean
        findings = [f for f in report.findings if f.checker == "SC-3"]
        assert any(
            f.rule == "uninstrumented-construction"
            and f.path.endswith("victims.py")
            for f in findings
        ), [f.render() for f in findings]
