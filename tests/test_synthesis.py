"""Digraph-to-polynomial synthesis and the Cayley constructors."""

import cmath
import json
import random
from fractions import Fraction

import pytest

from polygraph import (
    Budget,
    FiniteDigraph,
    Form,
    GaussRat,
    analyze,
    bipartite_poly,
    cayley_additive,
    cayley_multiplicative,
    circulant_poly,
    complete_graph_poly,
    digraph_to_poly,
    dihedral_poly,
    explore_component,
    explore_strong_component,
    interpolate_factor,
    is_isomorphic,
    one_factorization,
    parse,
    prism_poly,
    recognize_form,
)
from polygraph.errors import RegularityError, SynthesisError
from polygraph.explorer import ExploredDigraph
from polygraph.textio import format_unipoly
from polygraph.unipoly import from_roots


def k3() -> FiniteDigraph:
    return FiniteDigraph.on_integers(
        3, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    )


class TestFactorization:
    def test_triangle_factors(self):
        fac = one_factorization(k3())
        got = {fac.factors[0], fac.factors[1]}
        assert got == {(1, 2, 0), (2, 0, 1)}

    def test_single_permutation(self):
        d = FiniteDigraph.on_integers(4, [(0, 2), (2, 3), (3, 1), (1, 0)])
        fac = one_factorization(d)
        assert fac.factors == ((2, 0, 3, 1),)

    def test_not_regular(self):
        with pytest.raises(RegularityError):
            one_factorization(FiniteDigraph.on_integers(3, [(0, 1), (1, 2)]))

    def test_random_three_regular(self):
        rng = random.Random(5)
        for _ in range(10):
            n = 6
            perms = []
            for _ in range(3):
                p = list(range(n))
                rng.shuffle(p)
                perms.append(p)
            arcs = [(u, p[u]) for p in perms for u in range(n)]
            fac = one_factorization(FiniteDigraph.on_integers(n, arcs))
            assert len(fac.factors) == 3
            for perm in fac.factors:
                assert sorted(perm) == list(range(n))
            assert sorted((u, p[u]) for p in fac.factors for u in range(n)) == sorted(arcs)


class TestInterpolation:
    def test_triangle_interpolants(self):
        values = k3().values
        L1 = interpolate_factor((1, 2, 0), values)
        L2 = interpolate_factor((2, 0, 1), values)
        assert format_unipoly(L1) == "-3/2*x^2 + 11/2*x - 2"
        assert format_unipoly(L2) == "3/2*x^2 - 13/2*x + 8"

    def test_identity_permutation(self):
        values = tuple(GaussRat.of(v) for v in (2, 5, 11))
        L = interpolate_factor((0, 1, 2), values)
        assert L.coeffs == (GaussRat.of(0), GaussRat.of(1))

    def test_repeated_values_rejected(self):
        with pytest.raises(SynthesisError):
            interpolate_factor((1, 0), (GaussRat.of(1), GaussRat.of(1)))


class TestDigraphToPoly:
    def test_two_cycle(self):
        d = FiniteDigraph(
            (GaussRat.of(0), GaussRat.of(1)), ((0, 1), (1, 0))
        )
        phi = digraph_to_poly(d)
        assert phi.coeffs == parse("y+x-1").coeffs

    def test_directed_three_cycle(self):
        d = FiniteDigraph(
            tuple(GaussRat.of(k) for k in range(3)), ((0, 1), (1, 2), (2, 0))
        )
        phi = digraph_to_poly(d)
        # Lagrange oracle: L(0)=1, L(1)=2, L(2)=0 -> L = -(3/2)x^2+(5/2)x+1
        expected = parse("y - (-3/2*x^2 + 5/2*x + 1)")
        assert phi.coeffs == expected.coeffs

    def test_arc_soundness(self):
        d = k3()
        phi = digraph_to_poly(d)
        for a, b in d.arcs:
            assert not phi.eval(d.values[a], d.values[b])

    def test_round_trip_small_digraphs(self):
        rng = random.Random(8)
        done = 0
        while done < 6:
            n = rng.randint(2, 6)
            d_reg = rng.randint(1, 2)
            perms = []
            while len(perms) < d_reg:
                p = list(range(n))
                rng.shuffle(p)
                if p not in perms:
                    perms.append(p)
            arcs = sorted({(u, p[u]) for p in perms for u in range(n)})
            if len(arcs) != n * d_reg:  # overlapping permutations: multi-arcs
                continue
            graph = FiniteDigraph.on_integers(n, arcs)
            if not graph.is_strongly_connected():
                continue
            phi = digraph_to_poly(graph)
            if not analyze(phi).is_standard:
                continue
            explored = explore_strong_component(
                phi, complex(graph.values[0]), Budget(max_vertices=400, max_depth=40)
            )
            reference = ExploredDigraph(
                vertices=tuple((k, complex(v)) for k, v in enumerate(graph.values)),
                arcs=tuple(sorted((a, b, 1) for a, b in arcs)),
                truncated=False,
                seed_id=0,
            )
            assert not explored.truncated
            assert is_isomorphic(explored, reference), (arcs, explored.arcs)
            done += 1

    def test_arc_endpoint_checked_before_connectivity(self):
        d = FiniteDigraph.on_integers(3, [(0, 1), (1, 2), (2, 0), (0, 5)])
        with pytest.raises(SynthesisError, match="arc endpoint out of range"):
            digraph_to_poly(d)

    def test_json_round_trip(self):
        d = k3()
        back = FiniteDigraph.from_json(json.loads(d.dumps()))
        assert back == d


class TestCayley:
    def test_additive_grid(self):
        S = [GaussRat.of(1), GaussRat.of(-1), GaussRat.of(0, 1), GaussRat.of(0, -1)]
        assert cayley_additive(S).coeffs == parse("(y-x)^4-1").coeffs

    def test_additive_single(self):
        assert cayley_additive([GaussRat.of(1)]).coeffs == parse("y-x-1").coeffs

    def test_additive_pair(self):
        got = cayley_additive([GaussRat.of(2), GaussRat.of(3)])
        assert got.coeffs == parse("(y-x-2)*(y-x-3)").coeffs

    def test_additive_rejects_zero_and_duplicates(self):
        with pytest.raises(SynthesisError):
            cayley_additive([GaussRat.of(0), GaussRat.of(1)])
        with pytest.raises(SynthesisError):
            cayley_additive([GaussRat.of(2), GaussRat.of(2)])

    def test_additive_ball_is_generator_sums(self):
        S = [1.0, 2j]
        phi = cayley_additive(S)
        g = explore_component(phi, 0j, Budget(max_depth=2, max_vertices=100))
        expected = set()
        for a in range(-2, 3):
            for b in range(-2, 3):
                if abs(a) + abs(b) <= 2:
                    expected.add((a * 1.0, b * 2.0))
        got = {(round(v.real, 6), round(v.imag, 6)) for _, v in g.vertices}
        assert got == expected

    def test_multiplicative_cube_roots(self):
        w = cmath.exp(2j * cmath.pi / 3)
        phi = cayley_multiplicative([w, w * w])
        ref = parse("y^2+x*y+x^2")
        for key in ref.coeffs:
            assert abs(complex(phi.coeff(*key)) - complex(ref.coeff(*key))) < 1e-12

    def test_multiplicative_single(self):
        assert cayley_multiplicative([GaussRat.of(-1)]).coeffs == parse("y+x").coeffs

    def test_multiplicative_rejects_zero_one(self):
        with pytest.raises(SynthesisError):
            cayley_multiplicative([GaussRat.of(1)])
        with pytest.raises(SynthesisError):
            cayley_multiplicative([0.0, 2.0])


class TestNamedFamilies:
    def test_complete_exact(self):
        assert complete_graph_poly(3).coeffs == parse("x^2+x*y+y^2").coeffs
        assert complete_graph_poly(4).coeffs == parse("x^3+x^2*y+x*y^2+y^3").coeffs

    def test_complete_matches_float_product(self):
        n = 5
        w = cmath.exp(2j * cmath.pi / n)
        prod = cayley_multiplicative([w**i for i in range(1, n)])
        ref = complete_graph_poly(n).to_float()
        for key in ref.coeffs:
            assert abs(complex(prod.coeff(*key)) - complex(ref.coeff(*key))) < 1e-9

    def test_bipartite_exact(self):
        assert bipartite_poly(2).coeffs == parse("x^2+y^2").coeffs
        w = cmath.exp(2j * cmath.pi / 6)  # primitive 6th root for d = 3
        prod = cayley_multiplicative([w, w**3, w**5])
        ref = bipartite_poly(3).to_float()
        for key in ref.coeffs:
            assert abs(complex(prod.coeff(*key)) - complex(ref.coeff(*key))) < 1e-9

    def test_dihedral_4_exact(self):
        assert dihedral_poly(4).coeffs == parse("(y-i*x)*(x*y-2)").coeffs

    def test_prism_4(self):
        assert prism_poly(4).coeffs == parse("(y^2+x^2)*(x*y-2)").coeffs

    def test_prism_cube(self):
        # the 4-prism is the 3-dimensional cube: 8 vertices, 3-regular
        g = explore_component(prism_poly(4), 1.2 + 0.4j, Budget(max_vertices=60, max_depth=20))
        assert not g.truncated and g.order == 8
        outdeg = {v: 0 for v, _ in g.vertices}
        for (f, _), m in g.multiplicity.items():
            outdeg[f] += m
        assert set(outdeg.values()) == {3}

    def test_circulant_closes(self):
        phi = circulant_poly(5, (1, 2))
        g = explore_component(phi, 1.0 + 0j, Budget(max_vertices=40, max_depth=20))
        assert not g.truncated and g.order == 5

    def test_circulant_needs_generating_set(self):
        with pytest.raises(Exception):
            circulant_poly(6, (2, 4))

    def test_standardness_of_constructors(self):
        for phi in (
            complete_graph_poly(4),
            bipartite_poly(3),
            circulant_poly(6, (1,)),
            prism_poly(5),
            dihedral_poly(3),
        ):
            assert analyze(phi).is_standard


class TestRecognizeForm:
    def test_difference_form(self):
        verdict = recognize_form(parse("(y-x)^4-1"))
        assert verdict.form is Form.ADDITIVE_DIFFERENCE
        assert verdict.profile is not None
        assert verdict.profile.degree == 4
        assert verdict.profile.coeff(0) == GaussRat.of(-1)

    def test_float_difference_form(self):
        # A float Phi through the shear y -> y + x: its profile is the
        # exact product of the s - c_k within rounding.
        offsets = [0.3 + 0.1j, 2.5, -1.7j]
        verdict = recognize_form(cayley_additive(offsets))
        assert verdict.form is Form.ADDITIVE_DIFFERENCE
        exact = from_roots([GaussRat.of(Fraction(c.real), Fraction(c.imag)) for c in offsets], GaussRat.of(1), "s")
        assert verdict.profile.degree == exact.degree == 3
        assert all(abs(verdict.profile.coeff(k) - complex(exact.coeff(k))) <= 1e-12 for k in range(4))

    def test_homogeneous(self):
        assert recognize_form(parse("y^2+x*y+x^2")).form is Form.HOMOGENEOUS

    def test_neither(self):
        assert recognize_form(parse("(3*x+1)*y - (x+2)")).form is Form.NEITHER
