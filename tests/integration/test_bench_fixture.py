"""The bench's on-disk store fixture must not outlive its process."""

import os
import subprocess
import sys
from pathlib import Path

import repro


def test_campaign_store_fixture_is_removed_at_exit(tmp_path):
    script = (
        "import os\n"
        "from repro.bench.scenarios import _campaign_store_fixture\n"
        "path, n_records = _campaign_store_fixture(n_records=10)\n"
        "with open(path, encoding='utf-8') as handle:\n"
        "    assert sum(1 for _ in handle) == n_records == 10\n"
        "print(os.path.dirname(path))\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    # TMPDIR confines the fixture to this test's directory, so a leak
    # shows here and nowhere else.
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=src, TMPDIR=str(tmp_path)),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    directory = Path(done.stdout.strip().splitlines()[-1])
    assert directory.parent == tmp_path
    assert directory.name.startswith("bench_campaign_store_")
    assert not directory.exists()
    assert list(tmp_path.glob("bench_campaign_store_*")) == []
