"""Seeded evolutionary search over attack genomes.

Mutate-and-select with tournament parent selection, elitism, one-point
crossover and primitive-level mutation.  An epsilon-greedy bandit over
primitive *families* (touch/timed/flush/text/branch/wait) learns which
kinds of probes are paying off on the current target and biases new
gene material towards them -- on a flush+reload target the bandit
quickly concentrates on ``flush``/``text``, on prime+probe targets on
``touch``/``timed``.

Everything is driven by one ``random.Random(seed)``: same seed, same
env, same evaluator => bit-identical search trajectory (the determinism
test in ``tests/synth/test_search.py`` holds this).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .env import ChannelGuessEnv, EpisodeEvaluation, fitness_from_stats
from .genome import (
    FAMILIES,
    Genome,
    classify,
    crossover,
    mutate,
    random_genome,
)

__all__ = [
    "EvolutionSearch",
    "FamilyBandit",
    "SearchConfig",
    "SearchReport",
    "ScoredGenome",
    "fitness_from_stats",
]


class FamilyBandit:
    """Epsilon-greedy bandit over primitive families.

    Arms are the gene families; pulls pick the family new gene material
    is drawn from; rewards are the fitness delta a mutation touching
    that family produced.  Running means start optimistic (0.0, above
    typical negative deltas) so every family gets explored early.
    """

    def __init__(self, rng: random.Random, epsilon: float = 0.25) -> None:
        self._rng = rng
        self.epsilon = epsilon
        self.pulls: Dict[str, int] = {family: 0 for family in FAMILIES}
        self.means: Dict[str, float] = {family: 0.0 for family in FAMILIES}

    def pick(self) -> str:
        if self._rng.random() < self.epsilon:
            return self._rng.choice(FAMILIES)
        best = max(self.means.values())
        # Deterministic tie-break: FAMILIES order, not dict/hash order.
        leaders = [f for f in FAMILIES if self.means[f] == best]
        return self._rng.choice(leaders)

    def update(self, family: str, reward: float) -> None:
        self.pulls[family] += 1
        n = self.pulls[family]
        self.means[family] += (reward - self.means[family]) / n

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {
            family: {"pulls": self.pulls[family], "mean": self.means[family]}
            for family in FAMILIES
        }


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for one evolutionary run (all deterministic given seed)."""

    generations: int = 8
    population: int = 16
    elite: int = 2
    tournament_k: int = 3
    crossover_rate: float = 0.3
    seed_genomes: Tuple[Genome, ...] = ()
    min_ops: int = 2
    max_ops: int = 6
    bandit_epsilon: float = 0.25
    #: Stop early once the champion's MI clears this many bits.
    target_bits: Optional[float] = None

    def __post_init__(self) -> None:
        if self.population < 2:
            raise ValueError("population must be >= 2")
        if not 0 <= self.elite < self.population:
            raise ValueError("elite must be in [0, population)")


@dataclass
class ScoredGenome:
    genome: Genome
    evaluation: EpisodeEvaluation
    generation: int

    @property
    def fitness(self) -> float:
        return self.evaluation.fitness

    def to_record(self) -> dict:
        return {
            "genome": self.genome.to_dict(),
            "classes": list(classify(self.genome)),
            "generation": self.generation,
            "fitness": self.evaluation.fitness,
            "mutual_information_bits": self.evaluation.mutual_information_bits,
            "capacity_bits": self.evaluation.capacity_bits,
            "accuracy": self.evaluation.accuracy,
        }


@dataclass
class SearchReport:
    """Everything a run produced: champion, per-generation history,
    genomes that cleared the discovery threshold, bandit state."""

    champion: ScoredGenome
    discovered: List[ScoredGenome]
    history: List[dict]
    bandit: Dict[str, Dict[str, float]]
    evaluations: int
    noise_floor_bits: float

    def found_channel(self, threshold_bits: Optional[float] = None) -> bool:
        limit = self.noise_floor_bits if threshold_bits is None else threshold_bits
        # bool(): MI may be a numpy float and ">" would leak numpy.bool_
        # into JSON reports.
        return bool(self.champion.evaluation.mutual_information_bits > limit)

    def to_record(self) -> dict:
        return {
            "champion": self.champion.to_record(),
            "discovered": [s.to_record() for s in self.discovered],
            "history": self.history,
            "bandit": self.bandit,
            "evaluations": self.evaluations,
            "noise_floor_bits": self.noise_floor_bits,
        }


#: Evaluator contract: genomes -> evaluations, order-preserving.  The
#: in-process default maps ``env.evaluate``; the campaign bridge fans
#: the same call across forked campaign workers.
BatchEvaluator = Callable[[Sequence[Genome]], List[EpisodeEvaluation]]


class EvolutionSearch:
    """Mutate-and-select loop over :class:`ChannelGuessEnv`."""

    def __init__(
        self,
        env: ChannelGuessEnv,
        config: SearchConfig = SearchConfig(),
        seed: int = 0,
        evaluator: Optional[BatchEvaluator] = None,
        log: Optional[Callable[[str], None]] = None,
    ) -> None:
        self.env = env
        self.config = config
        self.rng = random.Random(seed)
        self.bandit = FamilyBandit(self.rng, epsilon=config.bandit_epsilon)
        self.evaluator = evaluator or self._evaluate_serial
        self._log = log or (lambda message: None)
        self.evaluations = 0

    # -- internals -------------------------------------------------------

    def _evaluate_serial(self, genomes: Sequence[Genome]) -> List[EpisodeEvaluation]:
        return [self.env.evaluate(genome) for genome in genomes]

    def _initial_population(self) -> List[Genome]:
        population = list(self.config.seed_genomes[: self.config.population])
        while len(population) < self.config.population:
            population.append(
                random_genome(
                    self.rng,
                    min_ops=self.config.min_ops,
                    max_ops=self.config.max_ops,
                )
            )
        return population

    def _tournament(self, scored: List[ScoredGenome]) -> ScoredGenome:
        k = min(self.config.tournament_k, len(scored))
        contestants = [self.rng.randrange(len(scored)) for _ in range(k)]
        return max((scored[i] for i in contestants), key=lambda s: s.fitness)

    def _offspring(self, scored: List[ScoredGenome]) -> List[Tuple[Genome, Optional[str], float]]:
        """Produce the next generation's non-elite individuals as
        ``(child, family_touched, parent_fitness)`` for bandit credit."""
        children: List[Tuple[Genome, Optional[str], float]] = []
        needed = self.config.population - self.config.elite
        for _ in range(needed):
            parent = self._tournament(scored)
            if (
                self.rng.random() < self.config.crossover_rate
                and len(scored) > 1
            ):
                other = self._tournament(scored)
                base = crossover(parent.genome, other.genome, self.rng)
                parent_fitness = max(parent.fitness, other.fitness)
            else:
                base = parent.genome
                parent_fitness = parent.fitness
            family = self.bandit.pick()
            child, touched = mutate(base, self.rng, family=family)
            children.append((child, touched, parent_fitness))
        return children

    def _score(
        self, genomes: Sequence[Genome], generation: int
    ) -> List[ScoredGenome]:
        evaluations = self.evaluator(genomes)
        self.evaluations += len(genomes)
        return [
            ScoredGenome(genome=g, evaluation=e, generation=generation)
            for g, e in zip(genomes, evaluations)
        ]

    # -- the loop --------------------------------------------------------

    def run(self) -> SearchReport:
        config = self.config
        floor = self.env.noise_floor_bits()
        target = config.target_bits
        population = self._initial_population()
        scored = self._score(population, generation=0)
        scored.sort(key=lambda s: s.fitness, reverse=True)
        history: List[dict] = []
        best = scored[0]
        discovered: Dict[str, ScoredGenome] = {}

        for generation in range(config.generations):
            self._record_generation(history, generation, scored, floor, discovered)
            best = max(best, scored[0], key=lambda s: s.fitness)
            if target is not None and best.evaluation.mutual_information_bits >= target:
                self._log(
                    f"gen {generation}: target {target:.3f} bits reached, stopping"
                )
                break
            elites = scored[: config.elite]
            offspring = self._offspring(scored)
            children = self._score(
                [child for child, _family, _pf in offspring],
                generation=generation + 1,
            )
            for scored_child, (_child, family, parent_fitness) in zip(
                children, offspring
            ):
                if family is not None:
                    self.bandit.update(
                        family, scored_child.fitness - parent_fitness
                    )
            scored = elites + children
            scored.sort(key=lambda s: s.fitness, reverse=True)
            best = max(best, scored[0], key=lambda s: s.fitness)
        self._record_generation(
            history, len(history), scored, floor, discovered
        )

        return SearchReport(
            champion=best,
            discovered=sorted(
                discovered.values(), key=lambda s: s.fitness, reverse=True
            ),
            history=history,
            bandit=self.bandit.snapshot(),
            evaluations=self.evaluations,
            noise_floor_bits=floor,
        )

    def _record_generation(
        self,
        history: List[dict],
        generation: int,
        scored: List[ScoredGenome],
        floor: float,
        discovered: Dict[str, ScoredGenome],
    ) -> None:
        for individual in scored:
            if individual.evaluation.mutual_information_bits > floor:
                key = repr(individual.genome.to_dict())
                existing = discovered.get(key)
                if existing is None or individual.fitness > existing.fitness:
                    discovered[key] = individual
        fitnesses = [s.fitness for s in scored]
        entry = {
            "generation": generation,
            "best_fitness": max(fitnesses),
            "mean_fitness": sum(fitnesses) / len(fitnesses),
            "best_mi_bits": max(
                s.evaluation.mutual_information_bits for s in scored
            ),
            "above_floor": sum(
                1
                for s in scored
                if s.evaluation.mutual_information_bits > floor
            ),
        }
        history.append(entry)
        self._log(
            "gen {generation}: best={best_fitness:.3f} "
            "mi={best_mi_bits:.3f} above_floor={above_floor}".format(**entry)
        )
