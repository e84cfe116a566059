"""``ChannelGuessEnv``: the covert channel as a gym-style guessing game.

One episode: the env draws a hidden secret from the symbol alphabet, Hi
runs the victim transmitting it, the agent (Lo) executes an attack
genome and observes its decoded timing features, then guesses the
secret.  Reward is guess accuracy (1.0/0.0); ``info["secret"]`` reveals
the answer after the guess so agents can learn decoders online.

The evolutionary search does not play episodes one secret at a time --
:meth:`ChannelGuessEnv.evaluate` sweeps the whole alphabet through the
shared experiment runner and scores the genome with the *same* mutual
-information estimator the campaign reports use
(:func:`repro.analysis.mutual_information_from_samples` via
``ChannelResult``), so env fitness and campaign numbers cannot
disagree.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple, Union

from ..analysis import estimator_bias_bits
from ..attacks.harness import ChannelResult
from ..campaign.registry import MACHINES, TP_CONFIGS
from .genome import Genome
from .runner import experiment
from .victims import DEFAULT_SYMBOLS, VICTIMS


@dataclass
class EpisodeEvaluation:
    """One genome's sweep-based evaluation: the fitness signal."""

    result: ChannelResult
    fitness: float
    mutual_information_bits: float
    capacity_bits: float
    accuracy: float
    error: str = ""

    def stats(self) -> dict:
        return {
            **(self.result.stats() if self.result is not None else {}),
            "fitness": self.fitness,
        }


@dataclass
class ChannelGuessEnv:
    """Gym-style environment over the existing ``Machine``/``Kernel``.

    Names resolve through the campaign registries, so an env spec is
    plain data (strings + ints) and crosses process boundaries freely.
    """

    machine: str = "tiny"
    tp: str = "none"
    victim: str = "set_hammer"
    symbols: Optional[Tuple[int, ...]] = None
    rounds_per_run: int = 4
    sweep_rounds: int = 1
    seed: int = 0
    #: Extra keyword arguments for the experiment runner (plain data:
    #: ``victim_params``, ``data_pages``, ``hi_data_pages``, ...), for
    #: victims tuned against a specific allocation layout.
    runner_kwargs: Dict[str, object] = field(default_factory=dict)
    _rng: random.Random = field(init=False, repr=False)
    _secret: Optional[int] = field(init=False, default=None, repr=False)
    _observed: bool = field(init=False, default=False, repr=False)

    def __post_init__(self) -> None:
        if self.machine not in MACHINES:
            raise KeyError(f"unknown machine {self.machine!r}")
        if self.tp not in TP_CONFIGS:
            raise KeyError(f"unknown tp config {self.tp!r}")
        if self.victim not in VICTIMS:
            raise KeyError(f"unknown victim {self.victim!r}")
        if self.symbols is None:
            self.symbols = tuple(DEFAULT_SYMBOLS[self.victim])
        else:
            self.symbols = tuple(self.symbols)
        self._rng = random.Random(self.seed)

    # -- gym protocol ----------------------------------------------------

    def reset(self):
        """Start an episode: draw a fresh hidden secret.  Returns None
        (the agent observes nothing until it runs a genome)."""
        self._secret = self._rng.choice(self.symbols)
        self._observed = False
        return None

    def step(self, action):
        """``("run", genome)`` observes; ``("guess", symbol)`` ends.

        Returns the gym 4-tuple ``(observation, reward, done, info)``.
        Running the genome yields the tuple of its per-round decoded
        features as the observation; guessing yields reward 1.0/0.0 and
        reveals the secret in ``info`` for decoder training.
        """
        if self._secret is None:
            raise RuntimeError("call reset() before step()")
        verb, payload = action
        if verb == "run":
            observation = tuple(self._run_episode(payload, self._secret))
            self._observed = True
            return observation, 0.0, False, {}
        if verb == "guess":
            reward = 1.0 if payload == self._secret else 0.0
            info = {"secret": self._secret, "observed": self._observed}
            self._secret = None
            return None, reward, True, info
        raise ValueError(f"unknown action verb {verb!r}")

    def _run_episode(self, genome: Union[Genome, dict], secret: int):
        result = experiment(
            TP_CONFIGS[self.tp](),
            MACHINES[self.machine],
            genome,
            victim=self.victim,
            symbols=(secret,),
            rounds_per_run=self.rounds_per_run,
            **self.runner_kwargs,
        )
        return [observation for _symbol, observation in result.samples]

    # -- batch fitness (what the search consumes) ------------------------

    def evaluate(
        self, genome: Union[Genome, dict], on_kernel=None
    ) -> EpisodeEvaluation:
        """Sweep the full alphabet and score the genome.

        Fitness is the shared-estimator mutual information plus an
        accuracy shaping term, minus a small complexity penalty; a
        genome that produces no samples (e.g. it sleeps through its
        entire budget) scores 0.
        """
        n_ops = len(genome.ops) if isinstance(genome, Genome) else len(genome["ops"])
        try:
            result = experiment(
                TP_CONFIGS[self.tp](),
                MACHINES[self.machine],
                genome,
                victim=self.victim,
                symbols=self.symbols,
                rounds_per_run=self.rounds_per_run,
                sweep_rounds=self.sweep_rounds,
                on_kernel=on_kernel,
                **self.runner_kwargs,
            )
        except RuntimeError as error:
            return EpisodeEvaluation(
                result=None,
                fitness=0.0,
                mutual_information_bits=0.0,
                capacity_bits=0.0,
                accuracy=0.0,
                error=str(error),
            )
        stats = result.stats()
        return EpisodeEvaluation(
            result=result,
            fitness=fitness_from_stats(stats, n_ops),
            mutual_information_bits=stats["mutual_information_bits"],
            capacity_bits=stats["capacity_bits"],
            accuracy=stats["decode_accuracy"],
            error="",
        )

    def noise_floor_bits(self) -> float:
        """Miller-Madow bias floor for this env's sample budget."""
        samples_per_symbol = max(1, (self.rounds_per_run - 1) * self.sweep_rounds)
        return estimator_bias_bits(samples_per_symbol, len(self.symbols))

    def spec(self) -> Dict[str, object]:
        """Plain-data description (what the campaign bridge pickles)."""
        return {
            "machine": self.machine,
            "tp": self.tp,
            "victim": self.victim,
            "symbols": list(self.symbols),
            "rounds_per_run": self.rounds_per_run,
            "sweep_rounds": self.sweep_rounds,
            "runner_kwargs": dict(self.runner_kwargs),
        }


def fitness_from_stats(stats: Optional[dict], n_ops: int) -> float:
    """The scalar the search maximises, from plain ``ChannelResult`` stats.

    Shared between the in-process evaluator and the campaign bridge
    (which only sees JSONL stats dicts), so both rank genomes
    identically: mutual information dominates, decode accuracy above
    chance breaks ties, and a tiny per-gene penalty prefers shorter
    programs among equals.
    """
    if not stats:
        return 0.0
    shaping = 0.25 * max(0.0, stats["decode_accuracy"] - stats["chance_accuracy"])
    return (
        stats["mutual_information_bits"] + shaping - 0.002 * n_ops
    )
