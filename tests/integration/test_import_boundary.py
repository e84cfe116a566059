"""Each command loads only the layers it runs.

``prove`` and ``mc`` estimate no channel, so neither they nor the
modules they import may load numpy or the campaign, attack and analysis
layers.  Each check runs in a fresh interpreter: this test process has
long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: The layers a proof or a model check does not run.
CHANNEL_LAYERS = ("repro.campaign", "repro.attacks", "repro.analysis")


def _fresh(script: str) -> dict:
    """Run ``script`` in a fresh interpreter; its last stdout line is JSON."""
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _loaded_after(statements: str) -> dict:
    """Which of numpy and the channel layers ``statements`` load."""
    return _fresh(
        "import json, sys\n"
        f"{statements}\n"
        "names = ('numpy',) + " + repr(CHANNEL_LAYERS) + "\n"
        "print(json.dumps({n: n in sys.modules for n in names}))\n"
    )


@pytest.mark.parametrize(
    "module", ["repro.cli", "repro.mc", "repro.core", "repro.campaign.registry"]
)
def test_import_leaves_numpy_unloaded(module):
    assert _loaded_after(f"import {module}")["numpy"] is False


@pytest.mark.parametrize("module", ["repro.cli", "repro.mc", "repro.core"])
def test_import_leaves_the_channel_layers_unloaded(module):
    loaded = _loaded_after(f"import {module}")
    assert [name for name in CHANNEL_LAYERS if loaded[name]] == []


def _run_main(argv) -> str:
    return (
        "import contextlib, io\n"
        "from repro import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "assert code == 0, code\n"
    )


@pytest.mark.parametrize("argv", [
    ["prove", "--machine", "tiny", "--tp", "full", "--secrets", "1,2"],
    ["mc", "--machine", "micro", "--tp", "full", "--secrets", "0,1"],
])
def test_prove_and_mc_runs_leave_numpy_unloaded(argv):
    assert _loaded_after(_run_main(argv))["numpy"] is False


def test_channels_loads_numpy_and_prints_the_same_capacities(capsys):
    argv = ["channels", "--machine", "tiny", "--tp", "none", "--only", "e2,e5"]
    fresh = _fresh(
        "import contextlib, io, json, sys\n"
        "from repro import cli\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        f"    code = cli.main({argv!r})\n"
        "print(json.dumps({'code': code, 'out': out.getvalue(),\n"
        "                  'numpy': 'numpy' in sys.modules}))\n"
    )
    # This process has numpy loaded from the start, as every command did.
    import numpy  # noqa: F401

    assert main(argv) == 0
    assert fresh["numpy"] is True
    assert fresh["code"] == 0
    assert fresh["out"] == capsys.readouterr().out
    assert "bits" in fresh["out"]
