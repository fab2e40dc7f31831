"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import contextlib
import json
import math
import time

from polygraph import (
    Budget,
    Deg1Kind,
    ExploredDigraph,
    FiniteDigraph,
    GaussRat,
    Mobius,
    QuadShape,
    QuadSym,
    Shape,
    ShapeLabel,
    analyze,
    bipartite_poly,
    cayley_additive,
    cayley_multiplicative,
    check_condition,
    circulant_poly,
    classify,
    classify_deg1,
    classify_deg2,
    complete_graph_poly,
    component_cycle_length,
    cycle_condition,
    digraph_to_poly,
    dihedral_poly,
    explore_component,
    explore_strong_component,
    interpolate_factor,
    is_isomorphic,
    labels_equivalent,
    one_factorization,
    parse,
    prism_poly,
    probe_conjecture,
    projective_order,
    reference_table_diff,
    singular_inventory,
    to_poly,
)
from polygraph.moebius import ABCD
from polygraph.sympoly import parse_sympoly
from polygraph.textio import format_unipoly

from suites import (
    factorization_partition,
    leading_coeff_divides_discriminant,
    deg1_standardness_equivalence,
    power_entry_identities,
    root_reconstruction,
)


@contextlib.contextmanager
def criterion(number: int, name: str):
    start = time.perf_counter()
    try:
        yield lambda: time.perf_counter() - start
    except BaseException:
        print(f"ACCEPTANCE {number} ({name}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({name}): PASS  [{time.perf_counter() - start:.2f}s]")


def test_criterion_1_cycle_condition_table():
    with criterion(1, "cycle-condition table regeneration") as elapsed:
        # exact rows
        for n in (2, 3, 4, 6, 8, 10):
            diff = reference_table_diff(n)
            assert diff["matches"], diff
        # recurrence-oracle rows; the published diff is exactly the known typo
        oracle_5 = parse_sympoly(
            "a^4 + 3*a^2*b*c + b^2*c^2 + a^3*d + 4*a*b*c*d + a^2*d^2"
            " + 3*b*c*d^2 + a*d^3 + d^4",
            ABCD,
        )
        assert cycle_condition(5).monomials() == oracle_5.monomials()
        d5 = reference_table_diff(5)
        assert d5["computed_only"] == {"a*b*c*d": 4}
        assert d5["published_only"] == {"a*b^2*d": 4}
        for n in (7, 9):
            assert reference_table_diff(n)["matches"]
        assert elapsed() < 1.0


def test_criterion_2_triangle_round_trip():
    with criterion(2, "K3 synthesis round trip") as elapsed:
        k3 = FiniteDigraph.on_integers(
            3, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
        )
        factors = one_factorization(k3).factors
        texts = {format_unipoly(interpolate_factor(p, k3.values)) for p in factors}
        assert texts == {"-3/2*x^2 + 11/2*x - 2", "3/2*x^2 - 13/2*x + 8"}

        phi = digraph_to_poly(k3)
        strong = explore_strong_component(phi, 1.0 + 0j)
        assert not strong.truncated
        reference = ExploredDigraph(
            vertices=tuple((k, complex(k + 1)) for k in range(3)),
            arcs=tuple(sorted((a, b, 1) for a, b in k3.arcs)),
            truncated=False,
            seed_id=0,
        )
        assert is_isomorphic(strong, reference)

        weak = explore_component(phi, 1.0 + 0j, Budget(max_depth=2, max_vertices=500))
        assert weak.truncated
        assert elapsed() < 1.0


def test_criterion_3_six_cycle_example():
    with criterion(3, "degree-one six-cycle example") as elapsed:
        s3 = math.sqrt(3.0)
        m = Mobius(1.0, -2.0 + s3, 1.0, -1.0 + s3)
        assert check_condition(m, 6)
        assert projective_order(m) == 6
        phi = to_poly(m)
        verdict = classify_deg1(phi)
        assert verdict.kind is Deg1Kind.DIRECTED_CYCLES and verdict.n == 6

        result = probe_conjecture(
            phi, n_seeds=10, budget=Budget(max_vertices=100, max_depth=25), rng_seed=5
        )
        assert result.truncated_count == 0
        assert all(l == ShapeLabel(Shape.DIRECTED_CYCLE, 6) for l in result.labels)
        assert result.all_isomorphic is True
        assert elapsed() < 5.0


def test_criterion_4_grid_example():
    with criterion(4, "additive grid example"):
        phi = parse("(y-x)^4-1")
        report = analyze(phi)
        assert report.is_standard
        assert singular_inventory(phi, report).is_empty()

        g = explore_component(phi, 0j, Budget(max_depth=3, max_vertices=5000))
        # BFS over generators {1,-1,i,-i} reaches exactly the |a|+|b| <= 3
        # ball of Gaussian integers at depth 3
        ball = {
            (a, b)
            for a in range(-3, 4)
            for b in range(-3, 4)
            if abs(a) + abs(b) <= 3
        }
        by_id = {}
        got = set()
        for vid, val in g.vertices:
            key = (round(val.real), round(val.imag))
            assert abs(val - complex(*key)) <= 1e-9  # vertex accuracy
            by_id[vid] = key
            got.add(key)
        assert got == ball

        expected_arcs = {
            (p, q)
            for p in ball
            for q in ball
            if abs(p[0] - q[0]) + abs(p[1] - q[1]) == 1
        }
        got_arcs = {(by_id[f], by_id[t]) for f, t, m in g.arcs}
        assert all(m == 1 for _, _, m in g.arcs)
        assert got_arcs == expected_arcs


def test_criterion_5_multiplicative_cayley():
    with criterion(5, "complete and complete-bipartite families"):
        budget = Budget(max_vertices=80, max_depth=20)
        for n in (3, 4, 5):
            result = probe_conjecture(
                complete_graph_poly(n), n_seeds=6, budget=budget, rng_seed=n
            )
            assert result.truncated_count == 0
            assert all(l == ShapeLabel(Shape.COMPLETE, n) for l in result.labels)
        for d in (2, 3):
            result = probe_conjecture(
                bipartite_poly(d), n_seeds=6, budget=budget, rng_seed=d
            )
            assert result.truncated_count == 0
            assert all(
                l == ShapeLabel(Shape.COMPLETE_BIPARTITE, d) for l in result.labels
            )


def test_criterion_6_degree_two_classification():
    with criterion(6, "symmetric degree-two classification"):
        budget = Budget(max_vertices=200, max_depth=40)
        for n, k in ((3, 1), (4, 1), (5, 1), (5, 2), (7, 3)):
            a = 2 * math.cos(2 * math.pi * k / n)
            q = QuadSym(a, 0.0, 1.0)
            report = classify_deg2(q)
            assert report.verdict is QuadShape.CYCLE
            assert report.cosine_witness == (n, k)
            # probed seeds agree with one another and with the cycle length
            # dictated by the characteristic roots -exp(+-2 pi i k/n), whose
            # order is 2n/gcd(n+2k, 2n) (equal to n exactly when 4 | n)
            m = component_cycle_length(n, k)
            assert report.component_cycle_length == m
            result = probe_conjecture(
                q.as_bipoly(), n_seeds=5, budget=budget, rng_seed=n * 10 + k
            )
            assert result.truncated_count == 0
            assert result.all_isomorphic is True
            assert all(
                labels_equivalent(l, ShapeLabel(Shape.CYCLE, m)) for l in result.labels
            )
        for a in (3.0, 2.5, 1 + 1j):
            q = QuadSym(a, 0.0, 1.0)
            report = classify_deg2(q)
            assert report.verdict is QuadShape.DOUBLE_RAY
            g = explore_component(
                q.as_bipoly(), 0.4 + 0.3j, Budget(max_vertices=150, max_depth=15)
            )
            assert g.truncated
            assert classify(g) == ShapeLabel(Shape.DOUBLE_RAY_PREFIX)


def test_criterion_7_property_suites():
    with criterion(7, "randomized property suites") as elapsed:
        assert deg1_standardness_equivalence(500) == 500
        assert leading_coeff_divides_discriminant(200) == 200
        assert power_entry_identities(12) == 11
        assert root_reconstruction(200) == 200
        assert factorization_partition(100) == 100
        assert elapsed() < 60.0


def _battery() -> list:
    s3 = math.sqrt(3.0)
    i = GaussRat.of(0, 1)
    k3 = FiniteDigraph.on_integers(
        3, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    )
    return [
        cayley_additive([GaussRat.of(1), GaussRat.of(-1), i, -i]),
        cayley_additive([GaussRat.of(1)]),
        cayley_additive([GaussRat.of(2), GaussRat.of(3)]),
        cayley_additive([GaussRat.of(1), GaussRat.of(0, 2)]),
        cayley_multiplicative([GaussRat.of(2)]),
        cayley_multiplicative(
            [complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3)),
             complex(math.cos(4 * math.pi / 3), math.sin(4 * math.pi / 3))]
        ),
        complete_graph_poly(3),
        complete_graph_poly(4),
        complete_graph_poly(5),
        bipartite_poly(2),
        bipartite_poly(3),
        circulant_poly(5, (1, 2)),
        circulant_poly(6, (1,)),
        prism_poly(4),
        prism_poly(5),
        dihedral_poly(3),
        dihedral_poly(4),
        to_poly(Mobius(1.0, -2.0 + s3, 1.0, -1.0 + s3)),
        digraph_to_poly(k3),
        QuadSym(2 * math.cos(2 * math.pi / 5), 0.0, 1.0).as_bipoly(),
    ]


def test_criterion_8_conjecture_probe_battery():
    with criterion(8, "conjecture probe battery"):
        battery = _battery()
        assert len(battery) == 20
        budget = Budget(max_vertices=250, max_depth=25)
        failures = []
        for idx, phi in enumerate(battery):
            result = probe_conjecture(phi, n_seeds=5, budget=budget, rng_seed=idx)
            if result.all_isomorphic is False:
                failures.append((idx, result))
                print(
                    "CONJECTURE COUNTEREXAMPLE CANDIDATE:\n"
                    + json.dumps(result.as_json(), sort_keys=True)
                )
        assert not failures, f"{len(failures)} probes refuted the conjecture"
