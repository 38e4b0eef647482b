"""Search engines for the mapping problem: GA, SA, random and exhaustive.

All engines draw randomness from a named
:class:`~repro.sim.rng.RngStreams` stream so explorations are exactly
reproducible, and all maintain the same :class:`ParetoArchive` so results
are comparable across engines (the C10 benchmark races them).

Every engine accepts an optional
:class:`~repro.exec.pool.ParallelExecutor`.  Candidate *generation* stays
sequential (it owns the RNG stream), but candidate *evaluation* — the
expensive part: verification plus objective scoring — fans out in
batches through :func:`~repro.dse.problem.evaluate_genomes`.  Because
genomes are generated before any batch is scored and scoring is pure,
the search trajectory is byte-identical with and without an executor.

Pass one **warm** executor (build it once, call ``executor.warm_up()``)
and reuse it across engines and generations: workers import
:mod:`repro` once, the mapping problem ships to each worker once as
shared context, and every subsequent batch pays only per-genome
dispatch.  Building a fresh pool per search re-pays the
spawn/import tax the warm pool exists to amortize.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from ..errors import ConfigurationError
from ..sim.rng import RngStreams
from .problem import Evaluation, MappingProblem, evaluate_genomes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..exec.pool import ParallelExecutor


@dataclass
class Candidate:
    """One explored solution."""

    genome: List[int]
    evaluation: Evaluation

    @property
    def score(self) -> float:
        return self.evaluation.weighted_score()


class ParetoArchive:
    """Non-dominated feasible solutions found so far."""

    def __init__(self) -> None:
        self.members: List[Candidate] = []

    def offer(self, candidate: Candidate) -> bool:
        """Insert if non-dominated; returns True if accepted.

        Single pass: each member is checked once for dominating the
        candidate, duplicating it, or being dominated by it, and the
        surviving member list is built along the way.  (Archive members
        are mutually non-dominated, so a member that rejects the
        candidate can never coexist with one the candidate dominates —
        bailing out early is safe.)
        """
        evaluation = candidate.evaluation
        if not evaluation.feasible:
            return False
        survivors: List[Candidate] = []
        for member in self.members:
            other = member.evaluation
            if other.dominates(evaluation):
                return False
            if member.genome == candidate.genome and other == evaluation:
                return False  # exact duplicate
            if not evaluation.dominates(other):
                survivors.append(member)
        survivors.append(candidate)
        self.members = survivors
        return True

    def best_by_score(self) -> Optional[Candidate]:
        if not self.members:
            return None
        return min(self.members, key=lambda c: c.score)

    def __len__(self) -> int:
        return len(self.members)


@dataclass
class SearchResult:
    """Outcome of one engine run."""

    best: Optional[Candidate]
    archive: ParetoArchive
    evaluations: int
    engine: str

    @property
    def found_feasible(self) -> bool:
        return self.best is not None and self.best.evaluation.feasible


def _random_genome(problem: MappingProblem, rng) -> List[int]:
    return [rng.randrange(n) for n in problem.genome_bounds()]


def _offer_batch(
    archive: ParetoArchive,
    best: Optional[Candidate],
    genomes: List[List[int]],
    evaluations: List[Evaluation],
) -> tuple:
    """Archive a scored batch in genome order; returns (candidates, best)."""
    candidates = []
    for genome, evaluation in zip(genomes, evaluations):
        candidate = Candidate(genome, evaluation)
        archive.offer(candidate)
        if best is None or candidate.score < best.score:
            best = candidate
        candidates.append(candidate)
    return candidates, best


def random_search(
    problem: MappingProblem,
    streams: RngStreams,
    *,
    budget: int = 200,
    stream: str = "dse.random",
    executor: Optional["ParallelExecutor"] = None,
) -> SearchResult:
    """Uniform random sampling — the baseline every heuristic must beat."""
    rng = streams.stream(stream)
    genomes = [_random_genome(problem, rng) for _ in range(budget)]
    scored = evaluate_genomes(problem, genomes, executor, tag="random")
    archive = ParetoArchive()
    _, best = _offer_batch(archive, None, genomes, scored)
    return SearchResult(best, archive, budget, "random")


def exhaustive_search(
    problem: MappingProblem,
    *,
    limit: int = 200_000,
    executor: Optional["ParallelExecutor"] = None,
) -> SearchResult:
    """Enumerate the full space (guarded by ``limit``)."""
    size = 1
    for n in problem.genome_bounds():
        size *= n
    if size > limit:
        raise ConfigurationError(
            f"space of {size} deployments exceeds exhaustive limit {limit}"
        )
    genomes = [
        list(combo)
        for combo in itertools.product(*(range(n) for n in problem.genome_bounds()))
    ]
    scored = evaluate_genomes(problem, genomes, executor, tag="exhaustive")
    archive = ParetoArchive()
    _, best = _offer_batch(archive, None, genomes, scored)
    return SearchResult(best, archive, len(genomes), "exhaustive")


def genetic_search(
    problem: MappingProblem,
    streams: RngStreams,
    *,
    population: int = 30,
    generations: int = 25,
    crossover_rate: float = 0.9,
    mutation_rate: float = 0.15,
    tournament: int = 3,
    stream: str = "dse.ga",
    executor: Optional["ParallelExecutor"] = None,
) -> SearchResult:
    """A plain generational GA with tournament selection and elitism.

    Each generation's offspring genomes are bred first (sequential RNG),
    then scored as one batch — the executor fan-out point.
    """
    rng = streams.stream(stream)
    bounds = problem.genome_bounds()
    archive = ParetoArchive()

    genomes = [_random_genome(problem, rng) for _ in range(population)]
    scored = evaluate_genomes(problem, genomes, executor, tag="ga.init")
    pop, best = _offer_batch(archive, None, genomes, scored)
    evaluations = population

    def pick() -> Candidate:
        contenders = [rng.choice(pop) for _ in range(tournament)]
        return min(contenders, key=lambda c: c.score)

    for generation in range(generations):
        elite = best  # survives unchanged; children may improve on it
        children: List[List[int]] = []
        while len(children) < population - 1:
            parent_a, parent_b = pick(), pick()
            if rng.random() < crossover_rate and len(bounds) > 1:
                cut = rng.randrange(1, len(bounds))
                child = parent_a.genome[:cut] + parent_b.genome[cut:]
            else:
                child = list(parent_a.genome)
            for i in range(len(child)):
                if rng.random() < mutation_rate:
                    child[i] = rng.randrange(bounds[i])
            children.append(child)
        scored = evaluate_genomes(
            problem, children, executor, tag=f"ga.gen{generation}"
        )
        offspring, best = _offer_batch(archive, best, children, scored)
        evaluations += len(children)
        pop = [elite] + offspring
    return SearchResult(best, archive, evaluations, "ga")


def annealing_search(
    problem: MappingProblem,
    streams: RngStreams,
    *,
    budget: int = 600,
    initial_temperature: float = 500.0,
    cooling: float = 0.995,
    neighbourhood: int = 1,
    stream: str = "dse.sa",
    executor: Optional["ParallelExecutor"] = None,
) -> SearchResult:
    """Simulated annealing over single-gene moves.

    With ``neighbourhood=1`` this is classic sequential SA.  A larger
    neighbourhood proposes that many single-gene moves from the current
    solution per temperature step and scores them as one batch (the
    executor fan-out point), then walks them in proposal order applying
    the Metropolis test until one is accepted.  The trajectory for a
    given ``neighbourhood`` is deterministic and executor-independent,
    but different neighbourhood sizes explore differently — it is a
    search parameter, not a tuning knob for speed alone.
    """
    if neighbourhood < 1:
        raise ConfigurationError(
            f"neighbourhood must be >= 1, got {neighbourhood}"
        )
    rng = streams.stream(stream)
    bounds = problem.genome_bounds()
    archive = ParetoArchive()
    current_genome = _random_genome(problem, rng)
    current = Candidate(
        current_genome, evaluate_genomes(problem, [current_genome], None)[0]
    )
    archive.offer(current)
    best = current
    temperature = initial_temperature
    evaluations = 1
    steps = budget // neighbourhood
    for _ in range(steps):
        proposals: List[List[int]] = []
        for _ in range(neighbourhood):
            neighbour = list(current.genome)
            position = rng.randrange(len(bounds))
            neighbour[position] = rng.randrange(bounds[position])
            proposals.append(neighbour)
        scored = evaluate_genomes(problem, proposals, executor, tag="sa")
        evaluations += len(proposals)
        accepted = False
        for genome, evaluation in zip(proposals, scored):
            candidate = Candidate(genome, evaluation)
            archive.offer(candidate)
            if not accepted:
                delta = candidate.score - current.score
                if delta <= 0 or rng.random() < math.exp(
                    -delta / max(temperature, 1e-9)
                ):
                    current = candidate
                    accepted = True
            if candidate.score < best.score:
                best = candidate
        temperature *= cooling
    return SearchResult(best, archive, evaluations, "sa")
