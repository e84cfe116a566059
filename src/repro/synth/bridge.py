"""Bridge between the evolutionary search and the campaign machinery.

Two directions:

* **Search -> campaign.**  :class:`CampaignEvaluator` is a drop-in
  ``BatchEvaluator`` for :class:`~repro.synth.search.EvolutionSearch`
  that runs each generation's genome evaluations as a campaign on
  forked workers instead of running them serially.  Every genome
  evaluation is an ordinary campaign trial of the ``synth`` attack whose
  params carry the genome dict, so the JSONL store doubles as a
  *fitness cache*: a genome's trial key fingerprints its params, and
  ``resume=True`` answers previously-seen genomes from disk for free.

* **Search -> registry.**  Winning genomes are saved as plain JSON and
  re-registered as first-class named attacks
  (:func:`register_discovered` / :func:`register_saved`), after which
  ordinary campaign grids sweep them across machines and TP ablations
  exactly like the hand-written suite.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Sequence, Union

from ..campaign.executor import run_campaign
from ..campaign.registry import register_attack
from ..campaign.spec import TrialSpec
from ..campaign.store import STATUS_OK, ResultStore
from .env import ChannelGuessEnv, EpisodeEvaluation, fitness_from_stats
from .genome import Genome, classify

#: Registry name of the generic evolved-genome attack (see
#: ``repro.campaign.registry``); its params carry the genome itself.
SYNTH_ATTACK = "synth"

GENOME_FILE_VERSION = 1


class CampaignEvaluator:
    """Evaluate genome batches as campaigns on forked workers.

    Order-preserving: result ``i`` belongs to genome ``i``.  Failed or
    timed-out trials evaluate to fitness 0 rather than raising, so one
    pathological genome cannot abort a whole generation.
    """

    def __init__(
        self,
        env: ChannelGuessEnv,
        store: Union[ResultStore, str],
        n_workers: int = 2,
        timeout_s: float = 0.0,
        max_retries: int = 0,
        resume: bool = True,
        seed: int = 0,
    ) -> None:
        self.env = env
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.n_workers = max(1, int(n_workers))
        self.timeout_s = float(timeout_s)
        self.max_retries = max_retries
        self.resume = resume
        self.seed = seed

    def trial_for(self, genome: Union[Genome, dict]) -> TrialSpec:
        genome_dict = genome.to_dict() if isinstance(genome, Genome) else dict(genome)
        return TrialSpec(
            machine=self.env.machine,
            tp=self.env.tp,
            attack=SYNTH_ATTACK,
            seed=self.seed,
            params={
                "genome": genome_dict,
                "victim": self.env.victim,
                "symbols": list(self.env.symbols),
                "rounds_per_run": self.env.rounds_per_run,
                "sweep_rounds": self.env.sweep_rounds,
                **self.env.runner_kwargs,
            },
        )

    def __call__(
        self, genomes: Sequence[Union[Genome, dict]]
    ) -> List[EpisodeEvaluation]:
        trials = [self.trial_for(genome) for genome in genomes]
        # Duplicate genomes share a trial key; the lease table collapses
        # them and the store answers every copy below.
        run_campaign(
            trials,
            store=self.store,
            n_workers=self.n_workers,
            timeout_s=self.timeout_s,
            max_retries=self.max_retries,
            resume=self.resume,
            quiet=True,
        )
        latest = self.store.latest_by_key(status=None)
        evaluations: List[EpisodeEvaluation] = []
        for genome, trial in zip(genomes, trials):
            n_ops = len(
                genome.ops if isinstance(genome, Genome) else genome["ops"]
            )
            record = latest.get(trial.key())
            stats = None
            error = "trial missing from store"
            if record is not None:
                error = record.get("error") or ""
                result = record.get("result")
                if record.get("status") == STATUS_OK and result:
                    stats = result.get("stats")
            evaluations.append(
                EpisodeEvaluation(
                    result=None,
                    fitness=fitness_from_stats(stats, n_ops),
                    mutual_information_bits=(
                        stats["mutual_information_bits"] if stats else 0.0
                    ),
                    capacity_bits=stats["capacity_bits"] if stats else 0.0,
                    accuracy=stats["decode_accuracy"] if stats else 0.0,
                    error="" if stats else error,
                )
            )
        return evaluations


# ----------------------------------------------------------------------
# Genome persistence
# ----------------------------------------------------------------------


def _as_record(item: Union[Genome, dict]) -> Dict[str, Any]:
    if isinstance(item, Genome):
        return {
            "genome": item.to_dict(),
            "classes": list(classify(item)),
        }
    if hasattr(item, "to_record"):  # ScoredGenome quacks
        return item.to_record()
    record = dict(item)
    if "genome" not in record:
        # A bare genome dict rather than a record around one.
        record = {"genome": Genome.from_dict(record).to_dict()}
    Genome.from_dict(record["genome"])  # validate
    record.setdefault(
        "classes", list(classify(Genome.from_dict(record["genome"])))
    )
    return record


def save_genomes(
    path: str,
    items: Sequence[Union[Genome, dict, Any]],
    env: Optional[ChannelGuessEnv] = None,
    metadata: Optional[Dict[str, Any]] = None,
) -> None:
    """Write discovered genomes (plus the env they were scored in) as JSON."""
    document = {
        "version": GENOME_FILE_VERSION,
        "env": env.spec() if env is not None else None,
        "metadata": dict(metadata or {}),
        "genomes": [_as_record(item) for item in items],
    }
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_genomes(path: str) -> List[Dict[str, Any]]:
    """Load genome records saved by :func:`save_genomes` (validated)."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("version") != GENOME_FILE_VERSION:
        raise ValueError(
            f"unsupported genome file version {document.get('version')!r}"
        )
    records = [_as_record(record) for record in document.get("genomes", [])]
    for record in records:
        record["env"] = document.get("env")
    return records


# ----------------------------------------------------------------------
# Registry promotion
# ----------------------------------------------------------------------


def register_discovered(
    name: str,
    genome: Union[Genome, dict],
    victim: str = "set_hammer",
    symbols: Optional[Sequence[int]] = None,
    rounds_per_run: int = 4,
    description: str = "",
    runner_kwargs: Optional[Dict[str, Any]] = None,
):
    """Register one evolved genome as a named campaign attack.

    After this, ``CampaignSpec(attacks=(name,), ...)`` sweeps the genome
    across machines/TP configs like any hand-written experiment.
    """
    genome_obj = genome if isinstance(genome, Genome) else Genome.from_dict(genome)
    defaults: Dict[str, Any] = {
        "genome": genome_obj.to_dict(),
        "victim": victim,
        "rounds_per_run": rounds_per_run,
        **(runner_kwargs or {}),
    }
    if symbols is not None:
        defaults["symbols"] = tuple(symbols)
    return register_attack(
        name,
        _synth_attack_runner,
        defaults=defaults,
        description=description
        or f"evolved {'+'.join(classify(genome_obj))} genome vs {victim}",
    )


def register_saved(path: str, prefix: str = "synth") -> List[str]:
    """Register every genome in a saved file as ``{prefix}-{i}``."""
    names: List[str] = []
    for i, record in enumerate(load_genomes(path)):
        env_spec = record.get("env") or {}
        name = f"{prefix}-{i}"
        register_discovered(
            name,
            record["genome"],
            victim=env_spec.get("victim", "set_hammer"),
            symbols=env_spec.get("symbols"),
            rounds_per_run=int(env_spec.get("rounds_per_run", 4)),
            runner_kwargs=env_spec.get("runner_kwargs") or None,
        )
        names.append(name)
    return names


def _synth_attack_runner(tp, machine_factory, **params):
    # Imported lazily: the campaign registry owns the static ``synth``
    # entry and must stay importable without the synth package loaded.
    from .runner import experiment

    return experiment(tp, machine_factory, **params)
