"""Conjecture probes: one analysis per probe, synthesized inputs, lockstep seeds."""

import json
import math
from collections import deque

import numpy as np
import pytest

from polygraph import (
    Budget,
    FiniteDigraph,
    QuadSym,
    complete_graph_poly,
    digraph_to_poly,
    parse,
    probe_conjecture,
)
from polygraph import analyzer, explorer, singular_vertex_values
from polygraph import probe as probe_module
from polygraph.bipoly import BiPoly
from polygraph.errors import (
    DomainError,
    EvaluationOverflow,
    ExplorationError,
    RootFindingError,
    SizeLimitError,
    UniversalVertexError,
)
from polygraph.explorer import Shape, ShapeLabel


def test_probe_analyzes_once(monkeypatch):
    calls = []

    def counting_analyze(phi):
        calls.append(phi)
        return analyzer.analyze(phi)

    monkeypatch.setattr(probe_module, "analyze", counting_analyze)
    monkeypatch.setattr(explorer, "analyze", counting_analyze)
    result = probe_conjecture(parse("y^2+x*y+x^2"), n_seeds=5)
    assert len(result.graphs) == 5
    assert len(calls) == 1


@pytest.mark.parametrize("n", [4, 5, 6])
def test_probe_synthesized_circulant(n):
    # The 2-regular circulant with steps 1 and 2: S = L*D*E has degree 22 to
    # 38 and many multiple roots.
    arcs = [(i, (i + s) % n) for i in range(n) for s in (1, 2)]
    phi = digraph_to_poly(FiniteDigraph.on_integers(n, arcs))
    S = analyzer.analyze(phi).S
    squarefree = S.divexact(S.gcd(S.derivative()))
    assert len(singular_vertex_values(phi)) == squarefree.degree
    result = probe_conjecture(phi, n_seeds=2, budget=Budget(30, 5))
    assert len(result.graphs) == 2


# -- lockstep exploration of a probe's seeds ------------------------------------

GRID = parse("(y-x)^4-1")
# A square grid like GRID whose in-rows are not its out-rows (GRID is
# symmetric, so each of its vertices has one solved row, its out-row).
SKEW_GRID = parse("(y-x-1)*(y-x-i)")
GRID_BUDGET = Budget(max_vertices=60, max_depth=6)
# seed -> (level, index): seed 1 fails at a vertex mid-way through level 2 of
# its sweep and seed 3 at one of level 1, so seed 3 fails a level before seed 1.
FAILING = {1: (2, 2), 3: (1, 1)}


def _grid_probe(phi):
    return probe_conjecture(phi, n_seeds=4, budget=GRID_BUDGET, rng_seed=3)


@pytest.fixture(scope="module")
def grid_seeds():
    """Per grid, unpatched: the probe's seeds and the value of each seed's
    FAILING vertex, read off the BFS levels of its component."""
    out = {}
    for phi in (GRID, SKEW_GRID):
        result = _grid_probe(phi)
        values = {}
        for s, (level, index) in FAILING.items():
            g = result.graphs[s]
            dist = _distances(g)
            values[s] = g.value(sorted(v for v, d in dist.items() if d == level)[index])
        out[phi] = result.seeds, values
    return out


def _root_failure_in_rows(monkeypatch, grid_seeds, phi, axis):
    seeds, values = grid_seeds[phi]
    bad_rows = [(phi.eval_rows([v], axis)[0], s) for s, v in values.items()]
    real = explorer.roots_of_rows
    hit = []

    def failing(rows):
        # Decided by each row's coefficients alone, as roots_of_rows is row-independent.
        # A weak level's rows alternate (v, "x"), (v, "y"), but a symmetric
        # Phi's level has only out-rows.
        step = 2 if axis == "y" else 1
        for k in range(step - 1, len(rows), step):
            for bad_row, s in bad_rows:
                if np.array_equal(rows[k], bad_row):
                    hit.append(s)
                    raise RootFindingError("injected", row=k)
        return real(rows)

    monkeypatch.setattr(explorer, "roots_of_rows", failing)
    with pytest.raises(ExplorationError) as lockstep:
        _grid_probe(phi)
    # Seed 3 failed a level earlier; seeds 0 to 2 ran on and seed 1 failed.
    assert hit == [3, 1]
    with pytest.raises(ExplorationError) as alone:
        explorer._weak_components(phi, [seeds[1]], GRID_BUDGET)
    assert str(lockstep.value) == str(alone.value)
    assert lockstep.value.payload == alone.value.payload == {"vertex": str(values[1])}
    assert lockstep.value.partial == alone.value.partial
    assert lockstep.value.partial.order > 5


def test_root_failure_is_the_first_failing_seeds(monkeypatch, grid_seeds):
    _root_failure_in_rows(monkeypatch, grid_seeds, SKEW_GRID, "y")


def test_root_failure_in_shared_rows_is_the_first_failing_seeds(monkeypatch, grid_seeds):
    _root_failure_in_rows(monkeypatch, grid_seeds, GRID, "x")


def _row_error_in_rows(monkeypatch, grid_seeds, error, phi, axis):
    # A vanishing row raises UniversalVertexError once the vertices before it
    # are expanded; a non-finite row raises EvaluationOverflow at once.
    seeds, values = grid_seeds[phi]
    failing_at = {v: s for s, v in values.items()}
    real = BiPoly.eval_rows
    hit = []

    def rows_failing(phi, us, axes):
        # A symmetric Phi's weak level has only out-rows; any other Phi's
        # rows alternate (v, "x"), (v, "y").
        rows = real(phi, us, axes)
        for k, v in enumerate(us):
            if axis in axes and v in failing_at:
                hit.append(failing_at[v])
                rows[k * len(axes) + axes.index(axis)] = (
                    0 if error is UniversalVertexError else complex("nan")
                )
        return rows

    monkeypatch.setattr(BiPoly, "eval_rows", rows_failing)
    with pytest.raises(error) as lockstep:
        _grid_probe(phi)
    assert hit == [3, 1]
    with pytest.raises(error) as alone:
        explorer._weak_components(phi, [seeds[1]], GRID_BUDGET)
    assert str(lockstep.value) == str(alone.value)
    assert lockstep.value.payload == alone.value.payload == {"vertex": str(values[1])}
    return lockstep.value


@pytest.mark.parametrize("error", [UniversalVertexError, EvaluationOverflow])
def test_row_error_is_the_first_failing_seeds(monkeypatch, grid_seeds, error):
    raised = _row_error_in_rows(monkeypatch, grid_seeds, error, SKEW_GRID, "y")
    if error is UniversalVertexError:
        assert str(raised) == "universal sink vertex"


@pytest.mark.parametrize("error", [UniversalVertexError, EvaluationOverflow])
def test_row_error_in_shared_rows_is_the_first_failing_seeds(monkeypatch, grid_seeds, error):
    raised = _row_error_in_rows(monkeypatch, grid_seeds, error, GRID, "x")
    if error is UniversalVertexError:
        assert str(raised) == "universal source vertex"


def _distances(g) -> dict[int, int]:
    """Each vertex's BFS level in a weak sweep: its undirected distance from the seed."""
    nb = {}
    for f, t, _ in g.arcs:
        nb.setdefault(f, set()).add(t)
        nb.setdefault(t, set()).add(f)
    dist = {g.seed_id: 0}
    queue = deque([g.seed_id])
    while queue:
        v = queue.popleft()
        for w in nb.get(v, ()):
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def _levels(g) -> int:
    """BFS levels of a weak sweep that closed: 1 + the seed's eccentricity."""
    return 1 + max(_distances(g).values())


def test_probe_makes_one_root_call_per_level(monkeypatch):
    # The symmetric quadratic with cosine witness (5, 1): every component is a 10-cycle.
    phi = QuadSym(2 * math.cos(2 * math.pi / 5), 0.0, 1.0).as_bipoly()
    real = explorer.roots_of_rows
    calls = []

    def counting(rows):
        calls.append(len(rows))
        return real(rows)

    monkeypatch.setattr(explorer, "roots_of_rows", counting)
    result = probe_conjecture(phi, n_seeds=5, budget=Budget(200, 40), rng_seed=19)
    assert result.truncated_count == 0
    assert all(g.order == 10 for g in result.graphs)
    assert len(calls) == max(_levels(g) for g in result.graphs) == 6


@pytest.mark.parametrize("n_seeds", [0, -1])
def test_probe_needs_a_seed(n_seeds):
    with pytest.raises(DomainError):
        probe_conjecture(parse("x^2+y^2"), n_seeds=n_seeds)


def test_undecided_pair_does_not_hide_a_later_counterexample(monkeypatch):
    # Pair (0, 1) cannot be decided, (0, 2) matches and (1, 2) differs: the
    # differing pair decides the verdict, whatever row it lies in.
    answers = iter([SizeLimitError("too large"), True, False])

    def scripted(g, h):
        answer = next(answers)
        if isinstance(answer, Exception):
            raise answer
        return answer

    monkeypatch.setattr(probe_module, "classify", lambda g: ShapeLabel(Shape.UNKNOWN))
    monkeypatch.setattr(probe_module, "is_isomorphic", scripted)
    result = probe_conjecture(complete_graph_poly(3), n_seeds=3)
    assert result.truncated_count == 0
    assert result.all_isomorphic is False
    assert result.counterexample == (1, 2)


def test_counterexample_json_names_its_pair(monkeypatch):
    monkeypatch.setattr(probe_module, "classify", lambda g: ShapeLabel(Shape.UNKNOWN))
    monkeypatch.setattr(probe_module, "is_isomorphic", lambda g, h: False)
    result = probe_conjecture(complete_graph_poly(3), n_seeds=3)
    assert result.counterexample == (0, 1)
    data = json.loads(json.dumps(result.as_json()))
    assert data["all_isomorphic"] is False
    assert data["counterexample"] == {
        "seed_indices": [0, 1],
        "graphs": [result.graphs[0].as_json(), result.graphs[1].as_json()],
    }


def test_closed_components_of_different_sizes_above_the_limit_differ():
    # Two Unknown closed components too large for an exact match, but of
    # different orders: the probe still tells them apart.
    def cycle(n):
        return explorer.ExploredDigraph(
            vertices=tuple((k, complex(k)) for k in range(n)),
            arcs=tuple((k, (k + 1) % n, 1) for k in range(n)),
            truncated=False,
            seed_id=0,
        )

    unknown = ShapeLabel(Shape.UNKNOWN)
    assert probe_module._components_isomorphic(cycle(13), cycle(14), unknown, unknown) is False
