"""Golden prove reports: ``repro-tp prove --format json``, byte for byte.

The pairwise oracle in ``tests/core/test_prove_runs.py`` re-derives the
report from the same ``audit``, switch snapshots and collector state as
the prover it checks, so a change to any of them moves both sides
alike.  These fixtures pin the CLI's output itself: each case runs
``prove`` through ``repro.cli.main`` and compares its standard output
with the committed file exactly, and its exit code with the report's
verdict.  The cases are

* ``tiny`` at the CLI defaults under every TP configuration;
* ``tiny`` with ``--secrets 5,17,3,5,40`` (a repeated secret) under
  ``full`` and ``none``;
* ``full`` on ``pocket``, ``broken-flush`` and ``nocolour``.

CI diffs ``prove --machine tiny --tp full`` and ``--tp none`` against
the first two files by hand, so a fixture is the report exactly as the
command prints it.

Regenerate (only when an *intentional* change to a report is
reviewed)::

    REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/integration/test_golden_prove.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from repro.campaign.registry import TP_CONFIGS
from repro.cli import main

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"
REGEN = bool(os.environ.get("REGEN_GOLDEN"))

#: A repeated non-baseline secret: its pair is compared once and
#: reported twice.
REPEATS = "5,17,3,5,40"

#: (machine, tp, secrets); ``None`` keeps the CLI's default secrets.
CASES = (
    [("tiny", tp, None) for tp in sorted(TP_CONFIGS)]
    + [("tiny", tp, REPEATS) for tp in ("full", "none")]
    + [(machine, "full", None)
       for machine in ("pocket", "broken-flush", "nocolour")]
)


def case_id(machine: str, tp: str, secrets) -> str:
    name = f"prove__{machine}__tp-{tp}"
    if secrets is not None:
        name += "__secrets-" + secrets.replace(",", "-")
    return name


def golden_path(machine: str, tp: str, secrets) -> Path:
    return GOLDEN_DIR / f"{case_id(machine, tp, secrets)}.json"


def run_prove(machine: str, tp: str, secrets):
    """``prove --format json`` as the CLI runs it: (exit code, stdout)."""
    argv = ["prove", "--machine", machine, "--tp", tp, "--format", "json"]
    if secrets is not None:
        argv += ["--secrets", secrets]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("machine,tp,secrets", CASES,
                         ids=[case_id(*case) for case in CASES])
def test_prove_reproduces_golden_report(machine, tp, secrets):
    path = golden_path(machine, tp, secrets)
    code, out = run_prove(machine, tp, secrets)
    assert code == (0 if json.loads(out)["holds"] else 1)
    if REGEN:
        path.write_text(out)
        pytest.skip(f"regenerated {path.name}")
    if not path.exists():
        pytest.fail(
            f"missing golden file {path.name}; generate with REGEN_GOLDEN=1"
        )
    golden = path.read_text()
    # Compare the parsed reports first so a mismatch names the part
    # that moved instead of dumping two long documents.
    fresh_report, golden_report = json.loads(out), json.loads(golden)
    for key in sorted(golden_report):
        assert fresh_report.get(key) == golden_report[key], (
            f"{path.name}: {key!r} diverges"
        )
    assert out == golden
