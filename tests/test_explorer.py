"""BFS exploration, dedup, shape classification, isomorphism, export."""

import itertools
import json
import math
import random
from collections import Counter, deque

import numpy as np
import pytest

from polygraph import (
    Budget,
    ExploredDigraph,
    Shape,
    ShapeLabel,
    cayley_additive,
    classify,
    explore_component,
    explore_strong_component,
    export,
    in_neighbors,
    is_isomorphic,
    labels_equivalent,
    neighbors,
    out_neighbors,
    parse,
)
from polygraph import explorer, rootfind
from polygraph.bipoly import BiPoly
from polygraph.errors import (
    DomainError,
    EvaluationOverflow,
    ExplorationError,
    NotStandardError,
    RootFindingError,
    SizeLimitError,
    UniversalVertexError,
)
from polygraph.synthesis import FiniteDigraph, digraph_to_poly

GRID = parse("(y-x)^4-1")


def triangle_poly():
    return digraph_to_poly(
        FiniteDigraph.on_integers(3, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)])
    )


def l1_ball(radius: int) -> set[tuple[int, int]]:
    return {
        (a, b)
        for a in range(-radius, radius + 1)
        for b in range(-radius, radius + 1)
        if abs(a) + abs(b) <= radius
    }


class TestNeighbors:
    def test_grid_out(self):
        vals = out_neighbors(GRID, 0j)
        assert sorted((round(v.real), round(v.imag)) for v, _ in vals) == [
            (-1, 0), (0, -1), (0, 1), (1, 0),
        ]
        assert all(m == 1 for _, m in vals)

    def test_translation(self):
        phi = parse("y-x-1")
        (v, m), = out_neighbors(phi, 2.5 + 1j)
        assert abs(v - (3.5 + 1j)) < 1e-12 and m == 1
        (w, _), = in_neighbors(phi, 2.5 + 1j)
        assert abs(w - (1.5 + 1j)) < 1e-12

    def test_triangle_rows(self):
        phi = triangle_poly()
        outs = sorted(v.real for v, _ in out_neighbors(phi, 1.0 + 0j))
        assert abs(outs[0] - 2) < 1e-9 and abs(outs[1] - 3) < 1e-9
        ins = sorted(v.real for v, _ in in_neighbors(phi, 1.0 + 0j))
        expected = sorted([2 / 3, 2.0, 7 / 3, 3.0])  # quadratic-formula oracle
        assert all(abs(a - b) < 1e-9 for a, b in zip(ins, expected))

    def test_difference_form_symmetry(self):
        outs = {(round(v.real), round(v.imag)) for v, _ in out_neighbors(GRID, 0j)}
        ins = {(round(-v.real), round(-v.imag)) for v, _ in in_neighbors(GRID, 0j)}
        assert outs == ins

    def test_universal_vertex_error(self):
        with pytest.raises(UniversalVertexError):
            out_neighbors(parse("(x-1)*y + x - 1"), 1.0 + 0j)

    def test_overflowing_row_raises(self):
        with pytest.raises(EvaluationOverflow):
            out_neighbors(parse("x^2*y - 1.0"), 1e200)

    def test_first_bad_row_decides_the_error(self):
        # Phi(1, y) vanishes and Phi(1e200, y) overflows.
        phi = parse("(x-1)*(x^2*y - 1.0)")
        with pytest.raises(EvaluationOverflow) as info:
            neighbors(phi, [2.0, 1e200, 1.0], "x")
        assert info.value.payload["vertex"] == "1e+200"
        with pytest.raises(UniversalVertexError) as info:
            neighbors(phi, [2.0, 1.0, 1e200], "x")
        assert str(info.value) == "universal source vertex"
        assert info.value.payload["vertex"] == "1.0"
        with pytest.raises(UniversalVertexError) as info:
            in_neighbors(parse("(y-1)*x + y - 1"), 1.0)
        assert str(info.value) == "universal sink vertex"
        with pytest.raises(UniversalVertexError):
            out_neighbors(BiPoly.zero(), 1.0)

    def test_rows_of_a_mixed_degree_level_are_padded(self):
        # deg_x = 1 and deg_y = 3: each vertex has 3 out-neighbors and 1 in-neighbor.
        phi = parse("y^3 - 2*x*y + x - 1")
        rows = phi.eval_rows([0.5 + 0.25j, 2j], "xy")
        assert rows.shape == (4, 4) and not rows[1::2, 2:].any()
        g = explore_component(phi, 0.5 + 0.25j, Budget(max_depth=2, max_vertices=200))
        for vid, u in g.vertices:
            if vid in g.frontier_ids:
                continue
            outs = [g.value(t) for f, t, _ in g.arcs if f == vid]
            want = [v for v, _ in out_neighbors(phi, u)]
            assert len(outs) == 3 and all(min(abs(a - b) for a in outs) < 1e-9 for b in want)

    def test_rows_take_only_the_axes_x_y_and_xy(self):
        phi = parse("y^2 - x^3 - x - 1")
        for axes in ("yx", "xx", "", "z"):
            with pytest.raises(DomainError):
                phi.eval_rows([1 + 0.5j], axes)
        # Interleaved rows are no neighbor lists: neighbors takes x or y only.
        with pytest.raises(DomainError):
            neighbors(phi, [1 + 0.5j], "xy")

    def test_a_weak_level_is_evaluated_in_one_call(self, monkeypatch):
        calls, levels = [], []
        real = BiPoly.eval_rows
        monkeypatch.setattr(BiPoly, "eval_rows", lambda p, us, axes: calls.append(axes) or real(p, us, axes))
        real_roots = explorer.roots_of_rows
        monkeypatch.setattr(explorer, "roots_of_rows", lambda c: levels.append(len(c)) or real_roots(c))
        g = explore_component(parse("y^2 - x^3 - x - 1"), 1 + 0.5j, Budget(300, 6))
        assert g.order == 300 and len(g.arcs) == 379
        assert calls == ["xy"] * 6 and len(levels) == 6


class TestExplore:
    def test_grid_depth_2_is_l1_ball(self):
        g = explore_component(GRID, 0j, Budget(max_depth=2))
        got = {(round(v.real), round(v.imag)) for _, v in g.vertices}
        assert got == l1_ball(2)
        assert g.truncated

    def test_triangle_weak_truncated(self):
        g = explore_component(triangle_poly(), 1.0 + 0j, Budget(max_depth=1, max_vertices=50))
        assert g.truncated
        reals = [v.real for _, v in g.vertices if abs(v.imag) < 1e-9]
        assert any(abs(r - 2 / 3) < 1e-9 for r in reals)
        assert any(abs(r - 7 / 3) < 1e-9 for r in reals)

    def test_complete_triangle_closes(self):
        g = explore_component(parse("y^2+x*y+x^2"), 1.0 + 0j)
        assert not g.truncated and g.order == 3
        assert classify(g) == ShapeLabel(Shape.COMPLETE, 3)

    def test_requires_standard(self):
        with pytest.raises(NotStandardError):
            explore_component(parse("(y-x)^2"), 0j)

    def test_determinism(self):
        b = Budget(max_depth=3, max_vertices=200)
        g1 = explore_component(GRID, 0j, b)
        g2 = explore_component(GRID, 0j, b)
        assert g1.vertices == g2.vertices and g1.arcs == g2.arcs

    def test_max_vertices_truncates(self):
        g = explore_component(GRID, 0j, Budget(max_vertices=6, max_depth=10))
        assert g.truncated and g.order <= 6

    def test_dedup_keeps_pairs_ten_eps_apart(self):
        # generators 10*eps apart must stay 2 vertices at dedup cell size eps
        eps = 1e-3
        phi = cayley_additive([1.0, 1.0 + 10 * eps])
        g = explore_component(phi, 0j, Budget(max_depth=1, max_vertices=50, dedup_eps=eps))
        near_one = [v for _, v in g.vertices if abs(v - 1) < 0.1]
        assert len(near_one) == 2


@pytest.mark.parametrize("fields", [
    dict(dedup_eps=math.inf),
    dict(dedup_eps=math.nan),
    dict(max_depth=2.5),
    dict(max_vertices=100.0),
    dict(max_depth=True),
    dict(max_vertices=0),
    dict(dedup_eps=0.0),
], ids=["inf_eps", "nan_eps", "float_depth", "float_vertices", "bool_depth", "no_vertices",
        "zero_eps"])
def test_budget_takes_positive_int_sizes_and_a_finite_eps(fields):
    # An infinite eps merges every root into the seed, so "y-x-1" would
    # close as one vertex with a loop; a float depth would fail in the BFS.
    with pytest.raises(DomainError):
        Budget(**fields)


def test_merged_roots_add_their_multiplicities():
    # The two roots u + 1 and u + 1.001 of every row fall on one vertex.
    phi = parse("(y - x - 1)*(y - x - 1001/1000)")
    g = explore_component(phi, 0, Budget(max_depth=3, dedup_eps=0.01))
    pairs = [(f, t) for f, t, _ in g.arcs]
    assert len(pairs) == len(set(pairs)) == g.order - 1
    assert all(m == 2 for _, _, m in g.arcs)
    # A frontier vertex's arc comes from the in-row of the vertex it points to.
    assert any(f in g.frontier_ids for f, _ in pairs)
    outdeg = Counter()
    for (f, _), m in g.multiplicity.items():
        outdeg[f] += m
    for vid, _ in g.vertices:
        if vid not in g.frontier_ids:
            assert outdeg[vid] == phi.deg_y


def test_intern_takes_block_position_before_id():
    table = explorer._VertexTable(1.0)
    assert table.intern(1 + 0j, True) == 0
    assert table.intern(0j, True) == 1
    # 0.5 is equally near both; the vertex in its own cell comes first.
    assert table.intern(0.5 + 0j, False) == 1
    # Exactly eps from the vertex at 1 is a miss; without room nothing is added.
    assert table.intern(2 + 0j, False) is None
    assert table.values == [1 + 0j, 0j]
    # A value within eps of a vertex still finds it without room.
    assert table.intern(1.25 + 0.5j, False) == 0
    assert table.intern(2 + 0j, True) == 2


def _bfs_levels(phi, seed, depth):
    """The ids of the first depth levels of a vertex-at-a-time weak BFS."""
    eps = Budget().dedup_eps
    values, levels = [seed], [[0]]
    while len(levels) < depth:
        new = []
        for vid in levels[-1]:
            for axis in ("x", "y"):
                (found,) = neighbors(phi, [values[vid]], axis)
                for val, _ in found:
                    if all(abs(val - w) >= eps for w in values):
                        new.append(len(values))
                        values.append(val)
        levels.append(new)
    return levels


def _bfs_prefix(phi, seed, stop):
    """Values a vertex-at-a-time weak BFS has discovered just before row stop.

    In one sweep every new vertex is enqueued when discovered, so vertices
    are expanded in id order, out-row first.
    """
    eps = Budget().dedup_eps
    values = [seed]
    for vid in range(stop[0] + 1):
        for axis in ("x", "y"):
            if (vid, axis) == stop:
                return values
            (found,) = neighbors(phi, [values[vid]], axis)
            for val, _ in found:
                if all(abs(val - w) >= eps for w in values):
                    values.append(val)
    raise AssertionError("stop row not reached")


# A square grid like GRID whose in-rows are not its out-rows: u has the
# out-neighbors u + 1 and u + i and the in-neighbors u - 1 and u - i.
SKEW_GRID = parse("(y-x-1)*(y-x-i)")


class TestFailureContract:
    @staticmethod
    def _fail_vid(phi) -> int:
        """A vertex mid-way through level 2 of the weak BFS from 0, with the
        vertex before it in the same level."""
        levels = _bfs_levels(phi, 0j, 3)
        fail_vid = levels[2][2]
        assert fail_vid - 1 in levels[2]
        return fail_vid

    def test_root_failure_mid_level_keeps_bfs_prefix(self, monkeypatch):
        # The in-row of a vertex fails; its out-row, solved first, is kept.
        fail_vid = self._fail_vid(SKEW_GRID)
        want = _bfs_prefix(SKEW_GRID, 0j, (fail_vid, "y"))
        (bad_row,) = SKEW_GRID.eval_rows([want[fail_vid]], "y")
        real = explorer.roots_of_rows

        def failing(rows):
            # A weak level's rows alternate (v, "x"), (v, "y").
            for k in range(1, len(rows), 2):
                if np.array_equal(rows[k], bad_row):
                    raise RootFindingError("injected", row=k)
            return real(rows)

        monkeypatch.setattr(explorer, "roots_of_rows", failing)
        with pytest.raises(ExplorationError) as info:
            explore_component(SKEW_GRID, 0j, Budget(max_depth=4))
        partial = info.value.partial
        assert partial.truncated and partial.order == len(want)
        assert [v for _, v in partial.vertices] == want
        assert info.value.payload["vertex"] == str(want[fail_vid])
        # The failing vertex's out-row was materialized; the vertex itself is unexpanded.
        assert len([a for a in partial.arcs if a[0] == fail_vid]) == SKEW_GRID.deg_y
        assert fail_vid in partial.frontier_ids
        assert fail_vid - 1 not in partial.frontier_ids

    def test_root_failure_in_a_shared_row_keeps_bfs_prefix(self, monkeypatch):
        # GRID is symmetric: a vertex's one solved row is its out- and in-row,
        # so a failure there is its out-row's, the first of the two.
        fail_vid = self._fail_vid(GRID)
        want = _bfs_prefix(GRID, 0j, (fail_vid, "x"))
        (bad_row,) = GRID.eval_rows([want[fail_vid]], "x")
        real = explorer.roots_of_rows

        def failing(rows):
            for k, row in enumerate(rows):
                if np.array_equal(row, bad_row):
                    raise RootFindingError("injected", row=k)
            return real(rows)

        monkeypatch.setattr(explorer, "roots_of_rows", failing)
        with pytest.raises(ExplorationError) as info:
            explore_component(GRID, 0j, Budget(max_depth=4))
        partial = info.value.partial
        assert partial.truncated and partial.order == len(want)
        assert [v for _, v in partial.vertices] == want
        assert info.value.payload["vertex"] == str(want[fail_vid])
        # Neither of its rows was materialized: its only arcs are the in-arcs
        # of the vertices expanded before it.
        assert all(t < fail_vid for f, t, _ in partial.arcs if f == fail_vid)
        assert fail_vid in partial.frontier_ids
        assert fail_vid - 1 not in partial.frontier_ids

    def test_universal_vertex_error_comes_from_its_vertex(self, monkeypatch):
        fail_vid = self._fail_vid(SKEW_GRID)
        want = _bfs_prefix(SKEW_GRID, 0j, (fail_vid, "y"))
        real = BiPoly.eval_rows

        def universal_at_fail_vid(phi, us, axes):
            assert axes == "xy"
            rows = real(phi, us, axes)  # a weak level's rows alternate (v, "x"), (v, "y")
            for k, v in enumerate(us):
                if v == want[fail_vid]:
                    rows[2 * k + 1] = 0  # Phi(x, v) vanishes: v is a universal sink
            return rows

        monkeypatch.setattr(BiPoly, "eval_rows", universal_at_fail_vid)
        with pytest.raises(UniversalVertexError) as info:
            explore_component(SKEW_GRID, 0j, Budget(max_depth=4))
        assert info.value.payload["vertex"] == str(want[fail_vid])
        assert str(info.value) == "universal sink vertex"

    def test_universal_vertex_error_in_a_shared_row(self, monkeypatch):
        # A symmetric Phi's shared row vanishes: the vertex is a universal source.
        fail_vid = self._fail_vid(GRID)
        want = _bfs_prefix(GRID, 0j, (fail_vid, "x"))
        real = BiPoly.eval_rows

        def universal_at_fail_vid(phi, us, axis):
            rows = real(phi, us, axis)
            for k, v in enumerate(us):
                if v == want[fail_vid]:
                    rows[k] = 0
            return rows

        monkeypatch.setattr(BiPoly, "eval_rows", universal_at_fail_vid)
        with pytest.raises(UniversalVertexError) as info:
            explore_component(GRID, 0j, Budget(max_depth=4))
        assert info.value.payload["vertex"] == str(want[fail_vid])
        assert str(info.value) == "universal source vertex"

    @staticmethod
    def _inject(monkeypatch, fail_at: complex, bad_at: complex, bad_value: complex):
        """Fail the residual check of the grid's rows at fail_at, and fill its
        rows at bad_at with bad_value (0 vanishes, NaN is not finite)."""
        (row,) = GRID.eval_rows([fail_at], "x")  # equal to its in-row
        corrupted = -row[-2::-1] / row[-1]

        def corrupt(m):
            z = np.linalg.eigvals(m)
            for i, a in enumerate(m):
                if np.array_equal(a[0], corrupted):
                    z[i, 0] += 0.1
            return z

        real = BiPoly.eval_rows

        def rows_bad_at(phi, us, axis):
            rows = real(phi, us, axis)
            rows[[k for k, v in enumerate(us) if v == bad_at]] = bad_value
            return rows

        monkeypatch.setattr(rootfind, "eigvals", corrupt)
        monkeypatch.setattr(BiPoly, "eval_rows", rows_bad_at)

    @pytest.mark.parametrize("bad_value", [0, complex("nan")], ids=["zero", "nan"])
    def test_root_failure_before_a_bad_row_decides(self, monkeypatch, bad_value):
        # The first row in BFS order that cannot be solved decides, whatever
        # the cause of a later one in the same call or level.
        fail_vid = self._fail_vid(GRID)
        want = _bfs_prefix(GRID, 0j, (fail_vid, "x"))
        u_fail, u_bad = want[fail_vid], want[fail_vid + 2]
        self._inject(monkeypatch, u_fail, u_bad, bad_value)
        with pytest.raises(RootFindingError) as info:
            neighbors(GRID, [0.5, u_fail, u_bad], "x")
        assert info.value.payload["row"] == 1
        with pytest.raises(ExplorationError) as info:
            explore_component(GRID, 0j, Budget(max_depth=4))
        partial = info.value.partial
        assert [v for _, v in partial.vertices] == want
        assert info.value.payload["vertex"] == str(u_fail)
        assert isinstance(info.value.__cause__, RootFindingError)


class TestStrong:
    def test_triangle_strong_is_closed_triangle(self):
        g = explore_strong_component(triangle_poly(), 1.0 + 0j)
        assert not g.truncated
        assert g.order == 3 and len(g.arcs) == 6
        assert classify(g) == ShapeLabel(Shape.COMPLETE, 3)

    def test_translation_single_vertex(self):
        g = explore_strong_component(
            parse("y-x-1"), 0j, Budget(max_vertices=40, max_depth=12)
        )
        assert g.order == 1 and len(g.arcs) == 0

    def test_grid_strong_subset_of_weak(self):
        b = Budget(max_vertices=80, max_depth=4)
        strong = explore_strong_component(GRID, 0j, b)
        weak = explore_component(GRID, 0j, b)
        weak_vals = [v for _, v in weak.vertices]

        def member(z):
            return any(abs(z - w) < 1e-9 for w in weak_vals)

        assert all(member(v) for _, v in strong.vertices)


class TestClassify:
    def test_directed_cycle(self):
        g = _cycle_graph(5, directed=True)
        assert classify(g) == ShapeLabel(Shape.DIRECTED_CYCLE, 5)

    def test_undirected_cycle(self):
        g = _cycle_graph(6, directed=False)
        assert classify(g) == ShapeLabel(Shape.CYCLE, 6)

    def test_complete_bipartite(self):
        g = explore_component(parse("x^2+y^2"), 1.0 + 0j)
        assert not g.truncated
        assert classify(g) == ShapeLabel(Shape.COMPLETE_BIPARTITE, 2)

    def test_double_ray_prefix(self):
        phi = parse("x^2+y^2+3*x*y+1").to_float()
        g = explore_component(phi, 0.4 + 0.2j, Budget(max_depth=12, max_vertices=100))
        assert g.truncated
        assert classify(g) == ShapeLabel(Shape.DOUBLE_RAY_PREFIX)

    def test_double_ray_prefix_square_sum_form(self):
        # (x+y)^2 + c: the orbit grows linearly, components are double rays
        phi = parse("(x+y)^2 + 1")
        g = explore_component(phi, 0.7 + 0.3j, Budget(max_depth=10, max_vertices=100))
        assert g.truncated
        assert classify(g) == ShapeLabel(Shape.DOUBLE_RAY_PREFIX)

    def test_directed_path_prefix(self):
        g = explore_component(parse("y-x-1"), 0j, Budget(max_depth=6, max_vertices=40))
        assert classify(g) == ShapeLabel(Shape.DIRECTED_PATH_PREFIX)

    def test_grid_prefix(self):
        g = explore_component(GRID, 0j, Budget(max_depth=3))
        assert classify(g) == ShapeLabel(Shape.GRID_PREFIX)

    def test_label_equivalences(self):
        assert labels_equivalent(ShapeLabel(Shape.CYCLE, 3), ShapeLabel(Shape.COMPLETE, 3))
        assert labels_equivalent(
            ShapeLabel(Shape.CYCLE, 4), ShapeLabel(Shape.COMPLETE_BIPARTITE, 2)
        )
        assert not labels_equivalent(ShapeLabel(Shape.CYCLE, 5), ShapeLabel(Shape.COMPLETE, 5))


class TestIsomorphic:
    def test_directed_cycles_same_length(self):
        assert is_isomorphic(_cycle_graph(6, True, base=0.0), _cycle_graph(6, True, base=5.0))

    def test_directed_vs_undirected_cycle(self):
        assert not is_isomorphic(_cycle_graph(3, True), _cycle_graph(3, False))

    def test_order_mismatch(self):
        assert not is_isomorphic(_cycle_graph(3, True), _cycle_graph(4, True))

    def test_size_limit(self):
        with pytest.raises(SizeLimitError):
            is_isomorphic(_cycle_graph(13, True), _cycle_graph(13, True))

    def test_signatures_tell_large_graphs_apart(self):
        # Both have 13 vertices and 13 arcs, but vertex 12 of the second has
        # no arc in: unequal signatures decide it before the size limit.
        tail = _digraph(13, [(k, (k + 1) % 12) for k in range(12)] + [(12, 0)], False)
        assert not is_isomorphic(_cycle_graph(13, True), tail)

    def test_repeated_entries_add_up(self):
        # K3 with the arc (0, 1) listed twice has a double arc (0, 1): it is
        # not K3, and it is K3 with (0, 1) of multiplicity 2.
        k3 = _cycle_graph(3, directed=False)
        repeated = ExploredDigraph(
            vertices=k3.vertices, arcs=(*k3.arcs, (0, 1, 1)), truncated=False, seed_id=0
        )
        doubled = ExploredDigraph(
            vertices=k3.vertices,
            arcs=tuple((f, t, 2 if (f, t) == (0, 1) else m) for f, t, m in k3.arcs),
            truncated=False,
            seed_id=0,
        )
        assert classify(k3) == ShapeLabel(Shape.COMPLETE, 3)
        assert classify(repeated) == classify(doubled) == ShapeLabel(Shape.UNKNOWN)
        assert not is_isomorphic(repeated, k3)
        assert is_isomorphic(repeated, doubled)
        assert repeated.multiplicity == doubled.multiplicity

    def test_matches_brute_force_on_random_multigraphs(self):
        rng = random.Random(5)
        verdicts = []
        for _ in range(300):
            g = _random_multigraph(rng, rng.randint(1, 6))
            h = _relabelled(rng, g)
            if rng.random() < 0.5:
                f, t, m = rng.choice(h.arcs or ((0, 0, 1),))
                arcs = [*h.arcs, (rng.choice([f, t]), rng.randrange(g.order), m)]
                h = ExploredDigraph(h.vertices, tuple(arcs), False, 0)
            verdict = is_isomorphic(g, h)
            assert verdict == _isomorphic_by_permutations(g, h), (g.arcs, h.arcs)
            verdicts.append(verdict)
        assert 50 < sum(verdicts) < len(verdicts) - 50

    def test_multiplicity_preserved(self):
        double = ExploredDigraph(
            vertices=((0, 0j), (1, 1 + 0j)),
            arcs=((0, 1, 2), (1, 0, 1)),
            truncated=False,
            seed_id=0,
        )
        single = ExploredDigraph(
            vertices=((0, 0j), (1, 1 + 0j)),
            arcs=((0, 1, 1), (1, 0, 1)),
            truncated=False,
            seed_id=0,
        )
        assert not is_isomorphic(double, single)
        assert is_isomorphic(double, double)


class TestExport:
    def test_loop_dot(self):
        g = ExploredDigraph(
            vertices=((0, 0j),), arcs=((0, 0, 1),), truncated=False, seed_id=0
        )
        assert b"0 -> 0" in export(g, "dot")

    def test_two_cycle_dot(self):
        dot = export(_cycle_graph(2, True), "dot").decode()
        assert dot.count("->") == 2

    def test_triangle_export_counts(self):
        g = explore_strong_component(triangle_poly(), 1.0 + 0j)
        dot = export(g, "dot").decode()
        assert dot.count("->") == 6 and dot.count("label=") >= 3
        data = json.loads(export(g, "json"))
        assert len(data["vertices"]) == 3 and len(data["arcs"]) == 6
        assert set(data["vertices"][0]) == {"id", "re", "im"}
        assert set(data["arcs"][0]) == {"from", "to", "mult"}
        assert data["truncated"] is False

    def test_closed_graphs_round_trip_through_json(self):
        graphs = [
            explore_strong_component(triangle_poly(), 1.0 + 0j),
            explore_component(parse("x^2+x*y+y^2"), 0j),  # a double loop
            explore_component(parse("0.5*x*y - 1.5"), 0.3),
        ]
        for g in graphs:
            assert not g.truncated and not g.frontier_ids
            assert ExploredDigraph.from_json(json.loads(export(g, "json"))) == g

    def test_truncated_graph_json_round_trips(self):
        # The format does not store the frontier, so only the JSON comes back.
        g = explore_component(parse("(y-x)^2-1"), 0j, Budget(max_depth=3))
        assert g.truncated and g.frontier_ids
        h = ExploredDigraph.from_json(json.loads(export(g, "json")))
        assert h.as_json() == g.as_json() and h.frontier_ids == ()

    def test_dot_multiplicity_label(self):
        g = ExploredDigraph(
            vertices=((0, 0j), (1, 1 + 0j)),
            arcs=((0, 1, 2),),
            truncated=False,
            seed_id=0,
        )
        assert b'[label="2"]' in export(g, "dot")


class TestDegreeLaw:
    def test_closed_components_have_full_degrees(self):
        for text, seed in [
            ("x^3 + x^2*y + x*y^2 + y^3", 1.3 + 0.2j),
            ("x^2 + y^2", 0.9 - 0.4j),
            ("y^2+x*y+x^2", 1.1 + 0.7j),
        ]:
            phi = parse(text)
            g = explore_component(phi, seed, Budget(max_vertices=100, max_depth=30))
            assert not g.truncated
            d, e = phi.deg_y, phi.deg_x
            outdeg, indeg = Counter(), Counter()
            for (f, t), m in g.multiplicity.items():
                outdeg[f] += m
                indeg[t] += m
            for vid, _ in g.vertices:
                assert outdeg[vid] == d
                assert indeg[vid] == e

    def test_sampled_vertex_degrees(self):
        rng = random.Random(78)
        phi = GRID
        for _ in range(5):
            u = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            assert sum(m for _, m in out_neighbors(phi, u)) == phi.deg_y
            assert sum(m for _, m in in_neighbors(phi, u)) == phi.deg_x


def _split(rng: random.Random, arcs) -> list:
    """The arcs with some entries of multiplicity m > 1 listed as 1 and m - 1."""
    return [
        a for f, t, m in arcs
        for a in ([(f, t, 1), (f, t, m - 1)] if m > 1 and rng.random() < 0.3 else [(f, t, m)])
    ]


def _random_multigraph(rng: random.Random, n: int) -> ExploredDigraph:
    """Arcs with loops and multiplicities 1 to 3, some listed in two entries."""
    arcs = [
        (rng.randrange(n), rng.randrange(n), rng.randint(1, 3)) for _ in range(rng.randint(0, 2 * n))
    ]
    vertices = tuple((k, complex(k)) for k in range(n))
    return ExploredDigraph(vertices, tuple(_split(rng, arcs)), truncated=False, seed_id=0)


def _relabelled(rng: random.Random, g: ExploredDigraph) -> ExploredDigraph:
    """g with its vertices permuted and its arc entries shuffled and split anew."""
    perm = list(range(g.order))
    rng.shuffle(perm)
    arcs = _split(rng, [(f, t, m) for (f, t), m in _summed(g.arcs, perm).items()])
    rng.shuffle(arcs)
    return ExploredDigraph(g.vertices, tuple(arcs), truncated=False, seed_id=0)


def _summed(arcs, perm) -> dict[tuple[int, int], int]:
    """(perm[from], perm[to]) -> the added multiplicities of the arcs."""
    total: dict[tuple[int, int], int] = {}
    for f, t, m in arcs:
        total[perm[f], perm[t]] = total.get((perm[f], perm[t]), 0) + m
    return total


def _isomorphic_by_permutations(g: ExploredDigraph, h: ExploredDigraph) -> bool:
    identity = range(h.order)
    target = _summed(h.arcs, identity)
    return g.order == h.order and any(
        _summed(g.arcs, perm) == target for perm in itertools.permutations(identity)
    )


def _cycle_graph(n: int, directed: bool, base: float = 0.0) -> ExploredDigraph:
    vertices = tuple((k, complex(base + k, 0)) for k in range(n))
    arcs = [(k, (k + 1) % n, 1) for k in range(n)]
    if not directed:
        arcs += [((k + 1) % n, k, 1) for k in range(n)]
    return ExploredDigraph(
        vertices=vertices, arcs=tuple(sorted(arcs)), truncated=False, seed_id=0
    )


def _digraph(n: int, arcs, truncated: bool) -> ExploredDigraph:
    """Vertices 0..n-1 on the lattice Z[i], arcs (from, to) of multiplicity 1."""
    return ExploredDigraph(
        vertices=tuple((k, complex(k % 3, k // 3)) for k in range(n)),
        arcs=tuple(sorted((f, t, 1) for f, t in arcs)),
        truncated=truncated,
        seed_id=0,
    )


def _both_ways(pairs):
    return [a for f, t in pairs for a in ((f, t), (t, f))]


class TestClassifyDisconnected:
    """Every named shape is connected: a disjoint union is Unknown."""

    def test_two_triangles(self):
        g = _digraph(6, _both_ways([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]), False)
        assert classify(g) == ShapeLabel(Shape.UNKNOWN)

    def test_path_beside_triangle(self):
        g = _digraph(6, _both_ways([(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)]), True)
        assert classify(g) == ShapeLabel(Shape.UNKNOWN)

    def test_directed_path_beside_two_cycle(self):
        g = _digraph(5, [(0, 1), (1, 2), (3, 4), (4, 3)], True)
        assert classify(g) == ShapeLabel(Shape.UNKNOWN)

    def test_directed_triangle_beside_arc(self):
        g = _digraph(5, [(0, 1), (1, 2), (2, 0), (3, 4)], True)
        assert classify(g) == ShapeLabel(Shape.UNKNOWN)


# The classifier `classify` replaced, kept as the reference on connected
# graphs, with the grid test `explorer._looks_like_grid` replaced: it pairs
# each step greedily with the first later step that negates it.


def _looks_like_grid(g: ExploredDigraph) -> bool:
    diffs: list[complex] = []
    for f, t, _ in g.arcs:
        d = g.value(t) - g.value(f)
        if all(abs(d - e) > explorer._GRID_EPS * (1 + abs(e)) for e in diffs):
            diffs.append(d)
        if len(diffs) > 4:
            return False
    if len(diffs) != 4:
        return False
    used = [False] * 4
    pairs = []
    for i in range(4):
        if used[i]:
            continue
        mate = None
        for j in range(i + 1, 4):
            if not used[j] and abs(diffs[i] + diffs[j]) <= explorer._GRID_EPS * (1 + abs(diffs[i])):
                mate = j
                break
        if mate is None:
            return False
        used[i] = used[mate] = True
        pairs.append(diffs[i])
    s, t = pairs
    cross = (s * t.conjugate()).imag
    return abs(cross) > explorer._GRID_EPS * (abs(s) * abs(t) + 1)


def _classify_by_walkers(g: ExploredDigraph) -> ShapeLabel:
    """Recognize the component shapes that actually occur, else Unknown."""
    n = g.order
    if n == 0:
        return ShapeLabel(Shape.UNKNOWN)
    out: dict[int, list[tuple[int, int]]] = {v: [] for v, _ in g.vertices}
    inn: dict[int, list[tuple[int, int]]] = {v: [] for v, _ in g.vertices}
    for (f, t), m in g.multiplicity.items():
        out[f].append((t, m))
        inn[t].append((f, m))
    has_loop = any(f == t for f, t, _ in g.arcs)
    has_multi = any(m > 1 for _, _, m in g.arcs)
    arc_set = {(f, t) for f, t, _ in g.arcs}
    symmetric = all((t, f) in arc_set for f, t in arc_set)

    if not g.truncated:
        if has_loop or has_multi:
            return ShapeLabel(Shape.UNKNOWN)
        outdeg = {v: sum(m for _, m in lst) for v, lst in out.items()}
        indeg = {v: sum(m for _, m in lst) for v, lst in inn.items()}
        if n >= 2 and all(outdeg[v] == 1 and indeg[v] == 1 for v in outdeg):
            if _is_single_cycle(g, out):
                return ShapeLabel(Shape.DIRECTED_CYCLE, n)
        if symmetric and len(arc_set) == n * (n - 1) and n >= 2:
            return ShapeLabel(Shape.COMPLETE, n)
        if symmetric and n % 2 == 0:
            d = n // 2
            sides = _bipartition(g, arc_set)
            if (
                sides is not None
                and len(sides[0]) == d
                and len(arc_set) == 2 * d * d
            ):
                return ShapeLabel(Shape.COMPLETE_BIPARTITE, d)
        if symmetric and n >= 3 and _is_undirected_cycle(g, arc_set):
            return ShapeLabel(Shape.CYCLE, n)
        return ShapeLabel(Shape.UNKNOWN)

    # Truncated graphs: prefix recognizers.
    if not has_loop and not has_multi:
        if not symmetric and _is_directed_chain(g, out, inn):
            return ShapeLabel(Shape.DIRECTED_PATH_PREFIX)
        if symmetric and _is_path_graph(g, arc_set):
            return ShapeLabel(Shape.DOUBLE_RAY_PREFIX)
        if _looks_like_grid(g):
            return ShapeLabel(Shape.GRID_PREFIX)
    return ShapeLabel(Shape.UNKNOWN)


def _is_single_cycle(g: ExploredDigraph, out) -> bool:
    succ = {v: lst[0][0] for v, lst in out.items() if lst}
    if len(succ) != g.order:
        return False
    start = g.vertices[0][0]
    seen = set()
    cur = start
    for _ in range(g.order):
        if cur in seen:
            return False
        seen.add(cur)
        cur = succ[cur]
    return cur == start and len(seen) == g.order


def _neighbors(arc_set: set[tuple[int, int]]) -> dict[int, set[int]]:
    nb: dict[int, set[int]] = {}
    for f, t in arc_set:
        if f != t:
            nb.setdefault(f, set()).add(t)
            nb.setdefault(t, set()).add(f)
    return nb


def _bipartition(g: ExploredDigraph, arc_set) -> tuple[set[int], set[int]] | None:
    nb = _neighbors(arc_set)
    color: dict[int, int] = {}
    for start, _ in g.vertices:
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in nb.get(v, ()):
                if w not in color:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return None
    side0 = {v for v, c in color.items() if c == 0}
    side1 = {v for v, c in color.items() if c == 1}
    return side0, side1


def _is_undirected_cycle(g: ExploredDigraph, arc_set) -> bool:
    nb = _neighbors(arc_set)
    if len(nb) != g.order or any(len(s) != 2 for s in nb.values()):
        return False
    start = g.vertices[0][0]
    prev, cur = None, start
    for _ in range(g.order):
        nxt = [w for w in nb[cur] if w != prev]
        if not nxt:
            return False
        prev, cur = cur, nxt[0]
    return cur == start


def _is_path_graph(g: ExploredDigraph, arc_set) -> bool:
    nb = _neighbors(arc_set)
    if len(nb) != g.order:
        return g.order == 1 and not arc_set
    degs = sorted(len(s) for s in nb.values())
    if g.order == 1:
        return True
    if degs.count(1) != 2 or any(d > 2 for d in degs):
        return False
    return len(arc_set) == 2 * (g.order - 1)


def _is_directed_chain(g: ExploredDigraph, out, inn) -> bool:
    outdeg = {v: len(lst) for v, lst in out.items()}
    indeg = {v: len(lst) for v, lst in inn.items()}
    if any(d > 1 for d in outdeg.values()) or any(d > 1 for d in indeg.values()):
        return False
    return len(g.arcs) >= g.order - 1 >= 0 and len(g.arcs) <= g.order


def _connected(n: int, arcs) -> bool:
    reached = {0}
    while True:
        more = {v for f, t in arcs for u, v in ((f, t), (t, f)) if u in reached} - reached
        if not more:
            return len(reached) == n
        reached |= more


def _every_digraph():
    """(n, arcs) for every digraph on at most 4 vertices without loops and
    on at most 3 vertices with loops."""
    for n, loops in [(1, False), (2, False), (3, False), (4, False), (1, True), (2, True), (3, True)]:
        pairs = [(f, t) for f in range(n) for t in range(n) if loops or f != t]
        for mask in range(1 << len(pairs)):
            yield n, [p for k, p in enumerate(pairs) if mask >> k & 1]


def _families_and_unions():
    """(n, arcs) for directed and undirected cycles and paths, K_n and
    K_{d,d} up to 11 vertices, and each disjoint union of two of them
    with at most 11 vertices."""
    shapes = []
    for n in range(1, 12):
        path = [(k, k + 1) for k in range(n - 1)]
        shapes += [(n, path), (n, _both_ways(path))]
        shapes.append((n, [(f, t) for f in range(n) for t in range(n) if f != t]))
        if n >= 2:
            cycle = path + [(n - 1, 0)]
            shapes += [(n, cycle), (n, _both_ways(cycle))]
        if n % 2 == 0:
            d = n // 2
            shapes.append((n, _both_ways([(i, d + j) for i in range(d) for j in range(d)])))
    yield from shapes
    for (n1, a1), (n2, a2) in itertools.product(shapes, repeat=2):
        if n1 + n2 <= 11:
            yield n1 + n2, a1 + [(f + n1, t + n1) for f, t in a2]


def test_classify_matches_the_walkers_on_connected_graphs():
    graphs = itertools.chain(_every_digraph(), _families_and_unions())
    for n, arcs in graphs:
        for truncated in (False, True):
            g = _digraph(n, set(arcs), truncated)
            if _connected(n, arcs):
                assert classify(g) == _classify_by_walkers(g), g
            else:
                assert classify(g) == ShapeLabel(Shape.UNKNOWN), g


# -- the grid test against the pairing reference ---------------------------------


def _steps_graph(steps) -> ExploredDigraph:
    """Arcs from vertex 0 at the origin to one vertex per step, so that the
    arc steps are exactly the given ones, in order."""
    return ExploredDigraph(
        vertices=((0, 0j), *((k + 1, complex(d)) for k, d in enumerate(steps))),
        arcs=tuple((0, k + 1, 1) for k in range(len(steps))),
        truncated=True,
        seed_id=0,
    )


def _step_sets(rng: random.Random):
    """Seeded 4-step sets: grids, collinear sets, sets missing a negation,
    negations and collinearity missed by about the tolerance, and extra
    steps about the tolerance away from one of the four."""
    eps = explorer._GRID_EPS

    def z(scale=None):
        r = scale if scale is not None else 10 ** rng.uniform(-3, 3)
        return r * complex(np.exp(1j * rng.uniform(0, 2 * np.pi)))

    def near(d):
        # A step about the negation or duplicate tolerance of d away from d.
        return d + z(rng.uniform(0, 3) * eps * (1 + abs(d)))

    for _ in range(400):
        s, t = z(), z()
        k = rng.choice([-3.0, -2.0, -0.5, 0.5, 2.0, 3.0, rng.uniform(-4, 4)])
        collinear = k * s
        # Nearly collinear with s: the cross product with s is about the tolerance.
        cross = rng.uniform(0, 3) * eps * (abs(s) * abs(k * s) + 1)
        tilted = k * s + 1j * s * cross / abs(s) ** 2
        for a, b in [(s, t), (s, collinear), (s, tilted)]:
            yield [a, -a, b, -b]
            yield [a, near(-a), b, near(-b)]
            yield [a, b, near(-a), -b]
            yield [a, -a, b, 2 * b]
            yield [a, -a, b, -b, near(b)]
            yield [a, -a, b]
        yield [s, -s, t, -t, z()]
        # Collinear steps whose negation misses by just under the tolerance,
        # across the step, at magnitudes where that moves the cross product most.
        u = z(rng.uniform(1, 5))
        v = rng.choice([-3.0, -2.0, 2.0, 3.0]) * u
        yield [u, -u, v, -v * (1 + 1j * rng.uniform(0.8, 1) * eps * (1 + abs(v)) / abs(v))]


def _truncated_explorations():
    """The truncated explorations of this file, and two more grids."""
    for phi, seed, budget in [
        (GRID, 0j, Budget(max_depth=2)),
        (GRID, 0j, Budget(max_depth=3)),
        (GRID, 0j, Budget(max_vertices=80, max_depth=4)),
        (GRID, 2.5 - 1j, Budget(max_vertices=60)),
        (parse("x^2+y^2+3*x*y+1").to_float(), 0.4 + 0.2j, Budget(max_depth=12, max_vertices=100)),
        (parse("(x+y)^2 + 1"), 0.7 + 0.3j, Budget(max_depth=10, max_vertices=100)),
        (parse("y-x-1"), 0j, Budget(max_depth=6, max_vertices=40)),
        (triangle_poly(), 1.0 + 0j, Budget(max_depth=1, max_vertices=50)),
        (cayley_additive([1, 2]), 0.3j, Budget(max_vertices=50)),
    ]:
        for explore in (explore_component, explore_strong_component):
            g = explore(phi, seed, budget)
            if g.truncated:
                yield g


def test_grid_test_matches_the_pairing_reference():
    graphs = [*_truncated_explorations(), *map(_steps_graph, _step_sets(random.Random(11)))]
    verdicts = [explorer._looks_like_grid(g) for g in graphs]
    assert verdicts == [_looks_like_grid(g) for g in graphs]
    assert 100 < sum(verdicts) < len(verdicts) - 100
