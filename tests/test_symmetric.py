"""A symmetric Phi(x, y) = Phi(y, x) is solved once per vertex and analyzed
once per pair of transposed polynomials; every result equals the one that
solves and analyzes both sides."""

import cmath
import math
import random

import pytest

from polygraph import (
    BiPoly,
    Budget,
    GaussRat,
    QuadSym,
    analyze,
    bipartite_poly,
    complete_graph_poly,
    parse,
    prism_poly,
    probe_conjecture,
    singular_inventory,
)
from polygraph import analyzer, explorer
from polygraph.errors import PolygraphError


def _random_symmetric(rng: random.Random, deg: int) -> BiPoly:
    """f(x, y) + f(y, x) for a dense f of degree deg in each variable with
    small Gaussian-integer coefficients."""
    f = {
        (i, j): GaussRat.of(rng.randint(-3, 3), rng.randint(-2, 2))
        for i in range(deg + 1) for j in range(deg + 1)
    }
    return BiPoly.make({(i, j): c + f[j, i] for (i, j), c in f.items()})


_RNG = random.Random(27)
_RANDOM = [_random_symmetric(_RNG, deg) for deg in (1, 2, 2, 2, 3, 3)]

CLOSE_ROOTS = "((y-x)^2-1)*((y-x)^2-(2009/2000)^2)*((y-x)^2-(124/125)^2)"

# Each entry builds a fresh Phi, so that is_symmetric is read anew.
SYMMETRIC = {
    "quartic": lambda: parse("(y-x)^4-1"),
    "quartic_float": lambda: parse("(y-x)^4-1").to_float(),
    **{f"complete_{n}": (lambda n=n: complete_graph_poly(n)) for n in (3, 4, 5)},
    **{f"bipartite_{d}": (lambda d=d: bipartite_poly(d)) for d in (2, 3)},
    "prism_4": lambda: prism_poly(4),
    "quadratic_5_1": lambda: QuadSym(2 * math.cos(2 * math.pi / 5), 0.0, 1.0).as_bipoly(),
    "quadratic_7_3": lambda: QuadSym(2 * math.cos(6 * math.pi / 7), 0.0, 1.0).as_bipoly(),
    "quadratic_golden": lambda: parse("x^2+y^2+0.6180339887498949*x*y+1"),
    # Roots u +- 1, u +- 1.0045 and u +- 0.992 in every row, closer than the
    # dedup_eps below: see test_an_in_row_is_interned_again_after_its_out_row_added_vertices.
    "close_roots": lambda: parse(CLOSE_ROOTS),
    **{f"random_{k}": (lambda p=p: BiPoly(p.rows)) for k, p in enumerate(_RANDOM)},
    **{f"random_float_{k}": (lambda p=p: p.to_float()) for k, p in enumerate(_RANDOM)},
}

BUDGET = Budget(max_vertices=60, max_depth=8, dedup_eps=0.01)


def _graph_key(g):
    """Everything a graph holds, its values bit for bit."""
    return (
        tuple((vid, repr(z)) for vid, z in g.vertices),
        g.arcs, g.truncated, g.seed_id, g.frontier_ids,
    )


def _outcome(run):
    """run()'s result, or its error's type, message, payload and partial graph."""
    try:
        return "ok", run()
    except PolygraphError as exc:
        partial = getattr(exc, "partial", None)
        payload = {k: v for k, v in exc.payload.items() if k != "partial"}
        return "error", type(exc), str(exc), payload, partial and _graph_key(partial)


def _with_and_without(monkeypatch, make, run):
    """run(make()) with the symmetric shortcut, and with is_symmetric False."""
    assert make().is_symmetric
    fast = _outcome(lambda: run(make()))
    with monkeypatch.context() as m:
        m.setattr(BiPoly, "is_symmetric", False)
        assert not make().is_symmetric
        slow = _outcome(lambda: run(make()))
    return fast, slow


def _standard(make) -> bool:
    return analyze(make()).is_standard


def _seeds(k: int) -> list[complex]:
    rng = random.Random(k)
    return [cmath.rect(r, rng.uniform(0, 2 * math.pi)) for r in (0.7, 2.0, 4.0)]


@pytest.mark.parametrize("name", list(SYMMETRIC))
def test_analyze_is_unchanged(monkeypatch, name):
    def run(phi):
        report = analyze(phi)
        return report, report.exact, report.as_json() if report.is_standard else None

    fast, slow = _with_and_without(monkeypatch, SYMMETRIC[name], run)
    assert fast == slow


@pytest.mark.parametrize("name", list(SYMMETRIC))
def test_singular_inventory_is_unchanged(monkeypatch, name):
    if not _standard(SYMMETRIC[name]):
        pytest.skip("not standard")

    def run(phi):
        inv = singular_inventory(phi, analyze(phi))
        return inv, repr(inv)

    fast, slow = _with_and_without(monkeypatch, SYMMETRIC[name], run)
    assert fast == slow


@pytest.mark.parametrize(
    "name", ["complete_3", "complete_4", "complete_5", "bipartite_2", "bipartite_3", "prism_4"]
)
def test_a_symmetric_inventory_solves_its_d_rows_once(monkeypatch, name):
    # D's out-rows and, only without the shortcut, E's in-rows: the loops
    # are decided on Phi's exact value and read no rows.
    axes = []
    real = explorer.neighbors
    monkeypatch.setattr(
        explorer, "neighbors", lambda phi, values, axis: axes.append(axis) or real(phi, values, axis)
    )

    def run(phi):
        inv = singular_inventory(phi, analyze(phi))
        return inv, repr(inv)

    fast, slow = _with_and_without(monkeypatch, SYMMETRIC[name], run)
    assert fast == slow
    assert axes == ["x"] + ["x", "y"]


@pytest.mark.parametrize("name", list(SYMMETRIC))
def test_weak_components_are_unchanged(monkeypatch, name):
    if not _standard(SYMMETRIC[name]):
        pytest.skip("not standard")
    seeds = _seeds(len(name))

    def run(phi):
        return [_graph_key(g) for g in explorer._weak_components(phi, seeds, BUDGET)]

    fast, slow = _with_and_without(monkeypatch, SYMMETRIC[name], run)
    assert fast == slow


@pytest.mark.parametrize("name", list(SYMMETRIC))
def test_probe_is_unchanged(monkeypatch, name):
    if not _standard(SYMMETRIC[name]):
        pytest.skip("not standard")

    def run(phi):
        result = probe_conjecture(phi, n_seeds=3, budget=BUDGET, rng_seed=5)
        return (
            tuple(map(repr, result.seeds)), result.labels, result.all_isomorphic,
            result.truncated_count, result.counterexample,
            [_graph_key(g) for g in result.graphs],
        )

    fast, slow = _with_and_without(monkeypatch, SYMMETRIC[name], run)
    assert fast == slow


@pytest.mark.parametrize("k", range(4))
def test_quartic_grid_to_a_full_vertex_budget_is_unchanged(monkeypatch, k):
    # The vertex budget cuts every sweep off mid-level.
    seeds = _seeds(100 + k) + [0j]
    budget = Budget(max_vertices=300)

    def run(phi):
        return [_graph_key(g) for g in explorer._weak_components(phi, seeds, budget)]

    fast, slow = _with_and_without(monkeypatch, SYMMETRIC["quartic"], run)
    assert fast == slow
    assert all(g[2] and len(g[0]) == 300 for g in fast[1])


def test_an_in_row_is_interned_again_after_its_out_row_added_vertices(monkeypatch):
    # The seed's out-row adds the vertices 3 at 0.992 and 4 at 1.0045 after
    # its root 1 went to 3, 0.008 away.  Interned again as the in-row, the
    # root 1 goes to 4, 0.0045 away: the arcs 0 -> 3 and 3 -> 0 differ in
    # multiplicity, as they do when the in-row is solved on its own.
    def run(phi):
        (g,) = explorer._weak_components(phi, [0j], Budget(max_depth=1, dedup_eps=0.01))
        return _graph_key(g)

    fast, slow = _with_and_without(monkeypatch, SYMMETRIC["close_roots"], run)
    assert fast == slow
    mult = {(f, t): m for f, t, m in fast[1][1]}
    assert (mult[0, 3], mult[0, 4]) == (2, 1)
    assert (mult[3, 0], mult[4, 0]) == (1, 2)


def test_a_symmetric_sweep_solves_each_row_once(monkeypatch):
    rows = []
    real = explorer.roots_of_rows
    monkeypatch.setattr(explorer, "roots_of_rows", lambda c: rows.append(len(c)) or real(c))
    fast, slow = _with_and_without(
        monkeypatch, SYMMETRIC["quartic"],
        lambda phi: _graph_key(explorer._weak_components(phi, [0.5j], Budget(200))[0]),
    )
    assert fast == slow
    half = len(rows) // 2
    assert [2 * n for n in rows[:half]] == rows[half:]


def test_a_symmetric_analysis_takes_one_resultant_and_one_root_row_for_d_and_e(monkeypatch):
    resultants, batches = [], []
    real_res, real_roots = BiPoly.resultant_with_derivative, analyzer.roots_batch
    monkeypatch.setattr(
        BiPoly, "resultant_with_derivative", lambda p, var: resultants.append(var) or real_res(p, var)
    )
    monkeypatch.setattr(
        analyzer, "roots_batch", lambda polys: batches.append(len(polys)) or real_roots(polys)
    )
    phi = complete_graph_poly(4)
    report = analyze(phi)
    assert resultants == ["y"]
    assert report.E == report.D.rename("y") and report.B == report.A.rename("y")
    analyzer.singular_vertex_values(phi, report)
    assert batches == [2]


def test_a_last_bit_makes_a_float_phi_not_symmetric():
    one = 1.0
    above = math.nextafter(one, 2.0)
    base = {(2, 0): 1.0, (0, 2): 1.0, (0, 0): 1.0}
    assert BiPoly.make({**base, (2, 1): one, (1, 2): one}).is_symmetric
    assert not BiPoly.make({**base, (2, 1): one, (1, 2): above}).is_symmetric
    assert not BiPoly.make({**base, (2, 1): 1j * one, (1, 2): 1j * above}).is_symmetric
    # A signed zero is a different bit pattern from the zero it stands beside.
    assert not BiPoly.make({**base, (1, 0): -0.0}).is_symmetric
    # The exact check is not the float one: 1/3 and 1/3 + 10**-30 round to
    # one double.
    third = GaussRat.of(1) / GaussRat.of(3)
    close = third + GaussRat.of(1) / GaussRat.of(10**30)
    exact = BiPoly.make({(1, 0): third, (0, 1): close})
    assert not exact.is_symmetric and exact.to_float().is_symmetric
    # deg_x != deg_y
    assert not parse("x^2 + y").is_symmetric


def test_a_not_symmetric_phi_reads_both_sides(monkeypatch):
    # One bit apart, Phi's rows Phi(u, y) and Phi(x, u) differ, and both are solved.
    phi = BiPoly.make({(2, 0): 1.0, (0, 2): 1.0, (1, 1): 0.5, (1, 0): 1.0,
                       (0, 1): math.nextafter(1.0, 2.0), (0, 0): 1.0})
    axes = []
    real = BiPoly.eval_rows
    monkeypatch.setattr(BiPoly, "eval_rows", lambda p, us, a: axes.extend(a) or real(p, us, a))
    explorer._weak_components(phi, [0.3 + 0.2j], Budget(20, 3))
    assert set(axes) == {"x", "y"}
