"""SC-2 scope must cover the model checker.

Fingerprints cross process boundaries (the parallel explorer shards the
frontier to fork workers by state hash), so any nondeterminism in
``src/repro/mc`` silently desynchronises workers.  The determinism
checker therefore owns that tree: the shipped code must lint clean, and
a seeded violation must be caught.
"""

import shutil
from pathlib import Path

from repro.statcheck import run_lint
from repro.statcheck.runner import _SCOPE_SEGMENTS

REPO = Path(__file__).resolve().parents[2]


class TestMcScope:
    def test_mc_segment_is_in_sc2_scope(self):
        assert "mc" in _SCOPE_SEGMENTS["SC-2"]

    def test_hardware_segment_is_in_sc2_and_sc3_scope(self):
        # The explorer steps and fingerprints the real hardware model,
        # so its determinism rests on the hardware tree's as well.
        assert "hardware" in _SCOPE_SEGMENTS["SC-2"]
        assert "hardware" in _SCOPE_SEGMENTS["SC-3"]

    def test_shipped_mc_tree_lints_clean(self):
        report = run_lint(
            paths=[str(REPO / "src" / "repro" / "mc")],
            baseline_path=str(REPO / "statcheck.baseline.json"),
        )
        assert report.clean, "\n".join(f.render() for f in report.findings)
        assert report.files_analyzed >= 7

    def test_seeded_wall_clock_in_explorer_is_caught(self, tmp_path):
        mc = tmp_path / "mc"
        shutil.copytree(REPO / "src" / "repro" / "mc", mc)
        explorer = mc / "explorer.py"
        source = explorer.read_text()
        needle = "        stats = McStats()\n"
        assert needle in source, "explorer.py changed; update this fixture"
        explorer.write_text(source.replace(
            needle,
            needle + "        import time\n"
                     "        _started = time.time()\n",
            1,
        ))
        report = run_lint(paths=[str(mc)])
        assert not report.clean
        findings = [f for f in report.findings if f.checker == "SC-2"]
        assert any(
            f.rule == "wall-clock" and f.path.endswith("explorer.py")
            for f in findings
        ), [f.render() for f in findings]

    def test_seeded_hash_ordering_in_fingerprint_is_caught(self, tmp_path):
        mc = tmp_path / "mc"
        shutil.copytree(REPO / "src" / "repro" / "mc", mc)
        fingerprint = mc / "fingerprint.py"
        source = fingerprint.read_text()
        needle = "DIGEST_SIZE = 16\n"
        assert needle in source, "fingerprint.py changed; update this fixture"
        fingerprint.write_text(source.replace(
            needle,
            needle + "\n\ndef _unstable_order(elements):\n"
                     "    return sorted(elements, key=lambda e: id(e))\n",
            1,
        ))
        report = run_lint(paths=[str(mc)])
        assert not report.clean
        findings = [f for f in report.findings if f.checker == "SC-2"]
        assert any(
            f.rule == "hash-order" and f.path.endswith("fingerprint.py")
            for f in findings
        ), [f.render() for f in findings]
