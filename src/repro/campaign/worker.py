"""The picklable trial runner executed inside worker processes.

``run_trial`` is a module-level function taking a plain-dict payload and
returning a plain-dict record, so it crosses the ``multiprocessing``
boundary under any start method.  It never raises for trial-level
problems — failures come back as records with ``status="failed"`` so a
single bad grid point cannot take down the pool.
"""

from __future__ import annotations

import os
import random
import signal
import socket
import time
import traceback
from typing import Any, Dict, Mapping

from . import registry
from .spec import TrialSpec
from .store import STATUS_FAILED, STATUS_OK


class TrialTimeout(Exception):
    """Raised inside a worker when a trial exceeds its cycle budget."""


def _alarm_handler(_signum, _frame):
    raise TrialTimeout()


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
    ``timeout_s`` (wall-clock budget enforced via ``SIGALRM`` where
    available) and ``attempt`` (bookkeeping echoed back).
    """
    trial = TrialSpec.from_payload(payload)
    timeout_s = payload.get("timeout_s") or 0
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

    use_alarm = timeout_s and hasattr(signal, "SIGALRM")
    previous_handler = None
    if use_alarm:
        previous_handler = signal.signal(signal.SIGALRM, _alarm_handler)
        signal.alarm(max(1, int(timeout_s)))
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
    except TrialTimeout:
        record["status"] = STATUS_FAILED
        record["result"] = None
        record["error"] = f"trial timed out after {timeout_s}s"
    except Exception:
        record["status"] = STATUS_FAILED
        record["result"] = None
        record["error"] = traceback.format_exc(limit=8)
    finally:
        if use_alarm:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous_handler)

    record["wall_time_s"] = round(time.perf_counter() - started, 6)
    return record
