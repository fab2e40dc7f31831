"""Empirical probe of the all-components-isomorphic conjecture.

Samples seeds from an annulus, rejects those near singular vertices,
explores the seeds' weak components in lockstep (one root-finding call per
BFS level for all seeds), classifies them, and compares the components
pairwise.  This gathers evidence only; a probe can refute the conjecture
(all_isomorphic = False with reproduction data) but never prove it.

The verdict: a truncated component makes it None.  Otherwise the pairs
(i, j), i < j, are compared in order; the first pair that differs gives
False and is the counterexample.  With no differing pair, a pair that
cannot be decided (two Unknown components too large for an exact match)
gives None, and otherwise the verdict is True.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

from .analyzer import analyze, require_standard, singular_vertex_values
from .bipoly import BiPoly
from .errors import DomainError, SizeLimitError
from .explorer import (
    Budget,
    ExploredDigraph,
    Shape,
    ShapeLabel,
    _weak_components,
    classify,
    is_isomorphic,
)
from .textio import bipoly_to_json

SEED_MARGIN = 1e-3
_MIN_RADIUS = 0.5


@dataclass(frozen=True)
class ProbeResult:
    polynomial: BiPoly
    seeds: tuple[complex, ...]
    labels: tuple[ShapeLabel, ...]
    all_isomorphic: bool | None
    truncated_count: int
    counterexample: tuple[int, int] | None = None
    graphs: tuple[ExploredDigraph, ...] = ()

    def as_json(self) -> dict:
        out = {
            "polynomial": bipoly_to_json(self.polynomial),
            "seeds": [[s.real, s.imag] for s in self.seeds],
            "labels": [str(l) for l in self.labels],
            "all_isomorphic": self.all_isomorphic,
            "truncated_count": self.truncated_count,
        }
        if self.counterexample is not None:
            i, j = self.counterexample
            out["counterexample"] = {
                "seed_indices": [i, j],
                "graphs": [self.graphs[i].as_json(), self.graphs[j].as_json()],
            }
        return out


def sample_radius(phi: BiPoly) -> float:
    """Outer sampling radius from coefficient magnitudes."""
    scale = phi.coeff_scale()
    lead = abs(complex(phi.lead_gl()))
    ratio = scale / max(lead, 1e-300)
    deg = max(phi.total_degree, 1)
    return max(2.0, 2.0 * ratio ** (1.0 / deg))


def _sample_seeds(singular, n: int, r_min: float, r_max: float, rng_seed: int) -> list[complex]:
    """n seeds uniform by area on the annulus r_min <= |u| <= r_max, each
    farther than SEED_MARGIN from every value in singular; at most 1000
    draws per seed."""
    rng = random.Random(rng_seed)
    seeds: list[complex] = []
    for _ in range(1000 * n):
        r = math.sqrt(rng.uniform(r_min**2, r_max**2))
        theta = rng.uniform(0.0, 2 * math.pi)
        u = complex(r * math.cos(theta), r * math.sin(theta))
        if all(abs(u - s) > SEED_MARGIN for s in singular):
            seeds.append(u)
            if len(seeds) == n:
                return seeds
    raise DomainError("could not sample seeds away from singular vertices")


def probe_conjecture(
    phi: BiPoly,
    n_seeds: int = 10,
    budget: Budget = Budget(),
    rng_seed: int = 0,
) -> ProbeResult:
    """Explore n_seeds random non-singular seeds and compare the components."""
    if n_seeds < 1:
        raise DomainError("a probe needs at least one seed", n_seeds=n_seeds)
    report = require_standard(analyze(phi))
    seeds = _sample_seeds(
        singular_vertex_values(phi, report), n_seeds, _MIN_RADIUS, sample_radius(phi), rng_seed
    )
    graphs = _weak_components(phi, seeds, budget)

    labels = [classify(g) for g in graphs]
    truncated_count = sum(1 for g in graphs if g.truncated)

    all_iso: bool | None = None
    counterexample = None
    if truncated_count == 0:
        all_iso = True
        for i, j in itertools.combinations(range(len(graphs)), 2):
            same = _components_isomorphic(graphs[i], graphs[j], labels[i], labels[j])
            if same is False:
                all_iso, counterexample = False, (i, j)
                break
            if same is None:
                all_iso = None
    return ProbeResult(
        polynomial=phi,
        seeds=tuple(seeds),
        labels=tuple(labels),
        all_isomorphic=all_iso,
        truncated_count=truncated_count,
        counterexample=counterexample,
        graphs=tuple(graphs),
    )


def _components_isomorphic(g, h, lg: ShapeLabel, lh: ShapeLabel) -> bool | None:
    if lg.shape is not Shape.UNKNOWN and lh.shape is not Shape.UNKNOWN:
        return lg == lh
    try:
        return is_isomorphic(g, h)
    except SizeLimitError:
        return None
