"""SC-2/SC-3 scope must cover the distributed campaign service.

The service's determinism story depends on two disciplines: backoff
jitter comes from an explicitly seeded RNG, and shards are emitted in
insertion order, never out of a set.  Both are exactly the failure
modes SC-2 exists to catch, so the ``campaign`` scope segment must
cover the service tree, the shipped tree must lint clean with no waiver
beyond its injected host clocks, and seeded violations of each
discipline must be caught.
"""

import json
import shutil
from pathlib import Path

from repro.statcheck import run_lint
from repro.statcheck.runner import _SCOPE_SEGMENTS

REPO = Path(__file__).resolve().parents[2]


class TestServiceScope:
    def test_campaign_segment_covers_service_in_sc2_and_sc3(self):
        assert "campaign" in _SCOPE_SEGMENTS["SC-2"]
        assert "campaign" in _SCOPE_SEGMENTS["SC-3"]

    def test_shipped_service_tree_lints_clean(self):
        report = run_lint(
            paths=[str(REPO / "src" / "repro" / "campaign" / "service")],
            baseline_path=str(REPO / "statcheck.baseline.json"),
        )
        assert report.clean, "\n".join(f.render() for f in report.findings)
        assert report.files_analyzed >= 6

    def test_service_waives_only_its_injected_clocks(self):
        """The subsystem's only suppressions are its host-clock defaults.

        Each is a ``clock=time.monotonic`` default parameter that SC-2's
        stored-reference rule sees; the seeded-RNG and insertion-order
        disciplines ship without a single waiver.
        """
        suppressions = json.loads(
            (REPO / "statcheck.baseline.json").read_text()
        )["suppressions"]
        assert sorted(
            entry["key"] for entry in suppressions if "service" in entry["key"]
        ) == [
            "SC-2:repro.campaign.service.coordinator:Coordinator.__init__:wall-clock",
            "SC-2:repro.campaign.service.worker:ServiceWorker.__init__:wall-clock",
            "SC-2:repro.campaign.service.worker:run_trial_with_deadline:wall-clock",
        ]

    @staticmethod
    def _copy_service_tree(tmp_path: Path) -> Path:
        # Copied under a ``campaign`` package (module names walk up
        # through __init__.py files) so scope segment matching sees the
        # tree exactly as it does in ``src/repro``.
        service = tmp_path / "campaign" / "service"
        shutil.copytree(
            REPO / "src" / "repro" / "campaign" / "service", service
        )
        (tmp_path / "campaign" / "__init__.py").write_text("")
        return service

    def test_seeded_unseeded_jitter_rng_is_caught(self, tmp_path):
        service = self._copy_service_tree(tmp_path)
        protocol = service / "protocol.py"
        source = protocol.read_text()
        needle = "class BackoffPolicy:\n"
        assert needle in source, "protocol.py changed; update this fixture"
        protocol.write_text(source.replace(
            needle,
            needle
            + "    def _unseeded_jitter(self):\n"
            + "        return random.random()\n\n",
            1,
        ))
        report = run_lint(paths=[str(tmp_path / "campaign")])
        assert not report.clean
        findings = [f for f in report.findings if f.checker == "SC-2"]
        assert any(
            f.rule == "global-rng" and f.path.endswith("protocol.py")
            for f in findings
        ), [f.render() for f in findings]

    def test_seeded_set_ordered_shard_emission_is_caught(self, tmp_path):
        service = self._copy_service_tree(tmp_path)
        leases = service / "leases.py"
        source = leases.read_text()
        needle = "class LeaseTable:\n"
        assert needle in source, "leases.py changed; update this fixture"
        leases.write_text(source.replace(
            needle,
            "def _unordered_shard_emission(shards):\n"
            "    return [shard for shard in set(shards)]\n\n\n" + needle,
            1,
        ))
        report = run_lint(paths=[str(tmp_path / "campaign")])
        assert not report.clean
        findings = [f for f in report.findings if f.checker == "SC-2"]
        assert any(
            f.rule == "set-order" and f.path.endswith("leases.py")
            for f in findings
        ), [f.render() for f in findings]
