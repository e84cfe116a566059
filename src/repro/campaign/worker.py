"""The trial runner every campaign worker calls.

``run_trial`` is a module-level function taking a plain-dict payload and
returning a plain-dict record, so it crosses the ``multiprocessing``
boundary under any start method.  It never raises for trial-level
problems — failures come back as records with ``status="failed"`` so a
single bad grid point cannot take down a worker.
"""

from __future__ import annotations

import os
import random
import socket
import time
import traceback
from typing import Any, Dict, Mapping

from . import registry
from .spec import TrialSpec
from .store import STATUS_FAILED, STATUS_OK


def _seed_rngs(seed: int) -> None:
    """Deterministically seed every RNG a trial could observe."""
    random.seed(seed)
    try:
        import numpy

        numpy.random.seed(seed % (2 ** 32))
    except ImportError:  # pragma: no cover - numpy is a hard dep today
        pass


def run_trial(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Execute one trial and return its result record.

    Payload fields: the :class:`TrialSpec` fields plus optional
    ``attempt`` (bookkeeping echoed back).  A wall-clock budget is the
    caller's to enforce (``service.worker.run_trial_with_deadline``).
    """
    trial = TrialSpec.from_payload(payload)
    attempt = int(payload.get("attempt", 1))
    started = time.perf_counter()

    record: Dict[str, Any] = {
        "key": trial.key(),
        "machine": trial.machine,
        "tp": trial.tp,
        "attack": trial.attack,
        "seed": trial.seed,
        "params": dict(trial.params),
        "derived_seed": trial.derived_seed(),
        "attempts": attempt,
        "worker": {"pid": os.getpid(), "host": socket.gethostname()},
    }

    try:
        trial.validate()
        _seed_rngs(trial.derived_seed())
        tp = registry.TP_CONFIGS[trial.tp]()
        machine_factory = registry.MACHINES[trial.machine]
        result = registry.ATTACKS[trial.attack].run(
            tp, machine_factory, trial.params
        )
        record["status"] = STATUS_OK
        record["result"] = result.to_record()
        record["error"] = None
    except Exception:
        record["status"] = STATUS_FAILED
        record["result"] = None
        record["error"] = traceback.format_exc(limit=8)

    record["wall_time_s"] = round(time.perf_counter() - started, 6)
    return record
