"""Campaign engine: parallel experiment orchestration with resume.

Every question the reproduction answers — "does TP config X kill channel
Y on machine Z?" — is a sweep over (machine preset × TP config × attack
× seed).  This subsystem makes such sweeps declarative and cheap:

* :class:`CampaignSpec` names the grid;
* :func:`run_campaign` leases trials one at a time from a coordinator
  to worker loops — one in this process, or N forked — with per-trial
  timeout and bounded retry;
* :class:`ResultStore` appends one JSONL record per finished trial and
  lets a re-run *resume*, skipping trials already answered on disk;
* :mod:`repro.campaign.service` is that coordinator and worker loop; it
  also serves a grid over HTTP to workers on other hosts;
* ``repro.analysis.summary`` pivots a store into the paper-style
  (machine × TP config) channel-capacity matrix.
"""

from .executor import CampaignReport, default_workers, run_campaign
from .progress import ProgressReporter
from .registry import (
    ATTACKS,
    MACHINES,
    TP_CONFIGS,
    AttackEntry,
    register_attack,
    unregister_attack,
)
from .spec import CampaignSpec, TrialSpec
from .store import (
    STATUS_FAILED,
    STATUS_OK,
    ResultStore,
    deterministic_view,
)
from .worker import run_trial

__all__ = [
    "ATTACKS",
    "AttackEntry",
    "CampaignReport",
    "CampaignSpec",
    "MACHINES",
    "ProgressReporter",
    "ResultStore",
    "STATUS_FAILED",
    "STATUS_OK",
    "TP_CONFIGS",
    "TrialSpec",
    "default_workers",
    "deterministic_view",
    "register_attack",
    "run_campaign",
    "run_trial",
    "unregister_attack",
]
