"""Standardness reports, singular inventories and standardization."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from polygraph import (
    BiPoly,
    Budget,
    Failure,
    FiniteDigraph,
    GaussRat,
    Mobius,
    QuadSym,
    Shape,
    StepKind,
    UniPoly,
    analyze,
    circulant_poly,
    classify,
    complete_graph_poly,
    digraph_to_poly,
    explore_component,
    explore_strong_component,
    parse,
    probe_conjecture,
    singular_inventory,
    singular_vertex_values,
    standardize,
    to_poly,
)
from polygraph import bipoly
from polygraph.errors import (
    DomainError,
    EvaluationOverflow,
    ExactArithmeticRequired,
    NotStandardError,
)


class TestAnalyze:
    def test_grid_polynomial_standard_without_singularities(self):
        phi = parse("(y-x)^4-1")
        report = analyze(phi)
        assert report.is_standard and not report.failure_reasons
        assert report.S.degree == 0  # no singular vertices at all
        assert singular_inventory(phi, report).is_empty()

    def test_square_factor(self):
        report = analyze(parse("(y-x)^2"))
        assert not report.is_standard
        assert Failure.NON_RADICAL_Y in report.failure_reasons

    def test_loop_everywhere(self):
        report = analyze(parse("y-x"))
        assert report.failure_reasons == (Failure.LOOP_EVERYWHERE,)

    def test_degree_one_standard(self):
        # (cx+d)y - (ax+b), ad - bc != 0, not divisible by y-x
        report = analyze(parse("(x+1)*y - (x+2)"))
        assert report.is_standard
        assert report.deg_y == 1 and report.deg_x == 1

    def test_s_is_built_on_first_read(self):
        report = analyze(parse("(y-x)^2*(y+x) - 1"))
        assert report.is_standard and "S" not in vars(report)
        assert report == analyze(parse("(y-x)^2*(y+x) - 1"))
        assert report.S == report.L * report.D * report.E.rename("x")
        assert "S" in vars(report)
        # S is not a field: reading it leaves the report equal to an unread one
        assert report == analyze(parse("(y-x)^2*(y+x) - 1"))
        for text in ("(y-x)^2", "x^2 + y^2 - 2*x*y", "3", "0"):
            other = analyze(parse(text))
            assert not other.is_standard and other.S == UniPoly.zero("x")

    def test_constant_and_zero(self):
        assert analyze(parse("5")).failure_reasons == (Failure.CONSTANT,)
        assert analyze(parse("0")).failure_reasons == (Failure.CONSTANT,)

    def test_universal_vertices(self):
        report = analyze(parse("(x-1)*y + x - 1"))
        assert Failure.UNIVERSAL_SOURCE in report.failure_reasons
        assert report.A.degree == 1

    def test_float_universal_detection(self):
        report = analyze(parse("(x-1)*y + x - 1").to_float())
        assert Failure.UNIVERSAL_SOURCE in report.failure_reasons

    def test_float_square_factor(self):
        report = analyze(parse("(y-x)^2").to_float())
        assert Failure.NON_RADICAL_Y in report.failure_reasons

    def test_float_uncertainty_band(self):
        # A float Phi is decided on its exact value, so factors 1e-4 or 1e-8
        # apart are standard.  |D| is about 1e-8 and 1e-16, and one rounding
        # unit per coefficient moves D by at most 3 * 2**-53 * 9 * 6**2 =
        # 1.1e-13: only the closer pair is flagged.
        for gap, uncertain in (("0.0001", False), ("0.00000001", True)):
            phi = (parse("y-x-1") * parse(f"y-x-1-{gap}")).to_float()
            report = analyze(phi)
            assert report.is_standard and report.failure_reasons == ()
            assert report.numerically_uncertain is uncertain, gap
        # A zero D is within any rounding bound: a float square is flagged,
        # an exact one is not.
        square = parse("(y-x)^2")
        assert analyze(square.to_float()).numerically_uncertain
        assert not analyze(square).numerically_uncertain

    def test_exact_huge_integers(self):
        # Exact reports never take float(coefficient), which overflows here.
        a = 10**400
        report = analyze(parse("10^400*x^2 + x*y + y^2"))
        assert report.is_standard
        assert report.D.coeffs == (GaussRat.of(0), GaussRat.of(0), GaussRat.of(4 * a - 1))
        assert report.L.coeffs == (GaussRat.of(0), GaussRat.of(0), GaussRat.of(a + 2))


class TestFloatCoefficientsAreKept:
    def test_tiny_constant_term_is_standard(self):
        # x*y = 1e-13: every vertex u != 0 has the one out-neighbour 1e-13/u.
        report = analyze(parse("x*y - 1e-13"))
        assert report.is_standard and report.failure_reasons == ()

    def test_huge_coefficient_leaves_no_universal_source(self):
        report = analyze(parse("y - 1e13*x"))
        assert report.deg_y == 1
        assert Failure.UNIVERSAL_SOURCE not in report.failure_reasons

    def test_diagonal_keeps_its_exact_top_coefficient(self):
        # On the diagonal the x^2 terms of the decimals cancel, but the
        # doubles 0.1 + 0.2 - 0.3 are exactly 2**-55 (2.78e-17): L has
        # degree 2, and its second loop is near -1 / 2**-55 = -3.6e16.  That
        # coefficient is within one rounding unit of 0, but it does not
        # decide the verdict, so neither report is flagged.
        phi = parse("0.1*x*y + 0.2*x^2 - 0.3*y^2 + x + 1")
        report = analyze(phi)
        assert report.is_standard and not report.numerically_uncertain
        assert report.L.coeffs == (1, 1, 2.0**-55)
        inv = singular_inventory(phi, report)
        far, near = sorted(inv.loops, key=lambda loop: loop[0].real)
        assert abs(near[0] + 1) < 1e-12 and near[1] == 1
        assert abs(far[0] / -(2.0**55) - 1) < 1e-9 and far[1] == 1
        assert not inv.numerically_uncertain

    def test_tiny_constant_term_has_its_two_loops(self):
        # L = x^2 - 1e-13 has the simple roots +-3.2e-7, far apart on their
        # own scale: cluster radii relative to 1 would merge them at 0.
        phi = parse("x*y - 1e-13")
        loops = singular_inventory(phi, analyze(phi)).loops
        r = 1e-13 ** 0.5
        assert [m for _, m in loops] == [1, 1]
        assert all(abs(u - s * r) <= 1e-9 * r for (u, _), s in zip(loops, (-1, 1)))


def _round_trip_6() -> BiPoly:
    """The float copy of Phi synthesized from i -> i + 1, i + 2, i + 3 mod 6."""
    arcs = [(i, (i + s) % 6) for i in range(6) for s in (1, 2, 3)]
    return digraph_to_poly(FiniteDigraph.on_integers(6, arcs)).to_float()


class TestFloatScale:
    """Float verdicts do not change when every coefficient is scaled by c."""

    BASES = [
        "x^2 + x*y + y^2",
        "x^3 + x*y + y^3 - 1",
        "(y-x)^4 - 1",
        "(y-x-1)*(y-x-1-1/100)",
        "(y-x)^2*(y+x) - 1",
    ]

    # Down to the bottom of the float range, and up to where D and E of the
    # quartic, of degree 7 in c, still fit in it (above, analyze raises
    # EvaluationOverflow: see HUGE below).
    @pytest.mark.parametrize("base", BASES)
    @pytest.mark.parametrize(
        "c",
        [1e-10, 1e5, 1e10, 1e-300, 1e-150, 1e30]
        + [2.0**-1000, 2.0**-200, 2.0**100],
    )
    def test_verdict_does_not_depend_on_scale(self, base, c):
        want = analyze(parse(base).to_float())
        got = analyze(parse(base).scale(c))
        assert got.failure_reasons == want.failure_reasons
        assert got.is_standard == want.is_standard
        if math.frexp(c)[0] == 0.5:
            # A power of two scales every double exactly, and D, E, L and
            # their rounding bounds by the same powers of c.
            assert got.numerically_uncertain == want.numerically_uncertain

    @pytest.mark.parametrize(
        "make, uncertain",
        [
            (lambda: parse("1e-80*((y-x)^4-1)"), False),
            (lambda: parse("y - 1e13*x"), False),
            (lambda: parse("1e-13*y^2 + y - x"), False),
            (lambda: to_poly(Mobius(1, 0, 0, 1e-10)), False),
            (lambda: to_poly(Mobius(1, 2, 1, 2 + 1e-10)), False),
            # The float copy of a d = 3 round trip: its E, about 6e5, is
            # small against the rounding bound of its 29 Sylvester rows.
            (_round_trip_6, True),
        ],
        ids=["quartic_1e-80", "y_1e13_x", "tiny_square", "mobius_1e-10", "mobius_det_1e-10", "round_trip_6"],
    )
    def test_standard_float_input_is_standard(self, make, uncertain):
        phi = make()
        report = analyze(phi)
        assert phi.mode == "float"
        assert report.is_standard and report.failure_reasons == ()
        assert report.numerically_uncertain is uncertain

    def test_float_report_holds_no_rounding_debris(self):
        # D of the exact values is c * x^2 exactly: its lower terms cancel.
        D = analyze(circulant_poly(5, (1, 2))).D
        assert D.mode == "float"
        assert [k for k, c in enumerate(D.coeffs) if c] == [2]

    # Scaled by c, D and E are near the top of the float range and the
    # product S = L*D*E is beyond it.
    HUGE = {
        "1e100*(x^2 + x*y + y^2)": "x^2 + x*y + y^2",
        "1e60*(x^3 + x*y + y^3 - 1)": "x^3 + x*y + y^3 - 1",
    }

    @pytest.mark.parametrize("text", list(HUGE))
    def test_huge_scale_overflows_cleanly(self, text):
        # The verdict does not read S: it is the unscaled one.  S itself,
        # and the JSON that shows it, raise EvaluationOverflow.
        report = analyze(parse(text))
        want = analyze(parse(self.HUGE[text]).to_float())
        assert report.is_standard and want.is_standard
        assert report.failure_reasons == want.failure_reasons == ()
        assert not report.numerically_uncertain and not want.numerically_uncertain
        with pytest.raises(EvaluationOverflow):
            report.S
        with pytest.raises(EvaluationOverflow):
            report.as_json()

    @pytest.mark.parametrize("text", ["1e50*((y-x)^4-1)", "1e200*(x^2 + x*y + y^2)"])
    def test_resultant_beyond_float_range_raises_without_warning(self, text):
        # The Sylvester determinants of D are beyond the float range.  The
        # tests run with RuntimeWarning as an error, so a numpy warning from
        # det or the FFT would surface here instead of EvaluationOverflow.
        with pytest.raises(EvaluationOverflow):
            analyze(parse(text))

    @pytest.mark.parametrize("text", list(HUGE))
    def test_huge_scale_explores_as_unscaled(self, text):
        phi, base = parse(text), parse(self.HUGE[text]).to_float()
        budget = Budget(max_vertices=40, max_depth=4)
        for seed in (1.0, 0.5 + 2j):
            got, want = explore_component(phi, seed, budget), explore_component(base, seed, budget)
            assert (got.order, got.arcs, got.truncated) == (want.order, want.arcs, want.truncated)
            assert classify(got) == classify(want)
        got, want = probe_conjecture(phi, 3, budget), probe_conjecture(base, 3, budget)
        assert got.seeds == want.seeds and got.labels == want.labels
        assert got.truncated_count == want.truncated_count
        for g, h in zip(got.graphs, want.graphs):
            assert (g.order, g.arcs, g.truncated) == (h.order, h.arcs, h.truncated)


    def test_underflowed_images_keep_their_singular_vertices(self):
        # D and E of the exact value, about 1e-560, have float images 0.
        phi = parse("1e-80*((y-x)^4-1)")
        report = analyze(phi)
        assert report.is_standard and report.D.is_zero and report.E.is_zero
        L, D, E = report.exact
        assert D.degree == E.degree == 12 and L.degree == 4
        assert report.exact[0].to_float() == report.L
        values = singular_vertex_values(phi, report)
        inv = singular_inventory(phi, report)
        assert len(values) == 4 and {v for v, _ in inv.loops} == set(values)
        result = probe_conjecture(phi, n_seeds=3, budget=Budget(40, 4))
        assert all(label.shape is Shape.GRID_PREFIX for label in result.labels)

    def test_report_comparison_ignores_the_exact_polynomials(self):
        phi = parse("1e-80*((y-x)^4-1)")
        a, b = analyze(phi), analyze(phi)
        assert a == b and hash(a) == hash(b) and a.exact is not b.exact
        assert "exact" not in repr(a)

    # c * Phi for c = 2**j: every double scales exactly, so does every
    # exact polynomial of the report, and the singular vertices, solved on
    # the exact factors scaled into [1, 2), are the same bits.
    SCALED = {
        "quartic": lambda: parse("(y-x)^4-1"),
        "complete_3": lambda: complete_graph_poly(3),
        "quadratic_golden": lambda: parse("x^2+y^2+0.6180339887498949*x*y+1"),
    }

    @pytest.mark.parametrize("name", list(SCALED))
    @pytest.mark.parametrize("j", range(-200, 61, 20))
    def test_singular_vertices_and_probe_labels_do_not_depend_on_scale(self, name, j):
        budget = Budget(max_vertices=40, max_depth=5)
        exact = self.SCALED[name]()
        for base, c in ((exact, GaussRat.of(Fraction(2) ** j)), (exact.to_float(), 2.0**j)):
            phi = base.scale(c)
            assert phi.mode == base.mode
            want, got = analyze(base), analyze(phi)
            assert got.is_standard == want.is_standard
            assert got.failure_reasons == want.failure_reasons
            assert got.numerically_uncertain == want.numerically_uncertain
            got_values = singular_vertex_values(phi, got)
            assert list(map(repr, got_values)) == list(map(repr, singular_vertex_values(base)))
            got_probe, want_probe = probe_conjecture(phi, 3, budget), probe_conjecture(base, 3, budget)
            assert got_probe.seeds == want_probe.seeds
            assert got_probe.labels == want_probe.labels


class TestSingularInventory:
    def test_homogeneous_unique_singular_vertex(self):
        phi = parse("x^2+x*y+y^2")
        report = analyze(phi)
        inv = singular_inventory(phi, report)
        assert len(inv.loops) == 1
        v, mult = inv.loops[0]
        assert abs(v) < 1e-9 and mult == 2

    def test_rotation_times_inversion_loops(self):
        # (y - w x)(x y - 2), w primitive cube root: Phi(x,x) = (1-w)x(x^2-2),
        # so the loop vertices are 0 and +-sqrt(2).
        w = cmath.exp(2j * cmath.pi / 3)
        phi = BiPoly.make({(0, 1): 1.0, (1, 0): -w}) * BiPoly.make(
            {(1, 1): 1.0, (0, 0): -2.0}
        )
        inv = singular_inventory(phi, analyze(phi))
        loop_vals = sorted((v for v, _ in inv.loops), key=lambda z: z.real)
        assert len(loop_vals) == 3
        assert abs(loop_vals[0] + 2**0.5) < 1e-7
        assert abs(loop_vals[1]) < 1e-7
        assert abs(loop_vals[2] - 2**0.5) < 1e-7
        # multi-arc endpoints: hand oracle +-sqrt(2/w) (origins), conjugates (ends)
        expect = cmath.sqrt(2 / w)
        origins = sorted(inv.multi_arc_origins, key=lambda z: z.real)
        assert abs(origins[1] - expect) < 1e-7 and abs(origins[0] + expect) < 1e-7

    def test_requires_standard(self):
        phi = parse("(y-x)^2")
        with pytest.raises(NotStandardError):
            singular_inventory(phi, analyze(phi))

    def test_degree_drop_vertex_is_out_defective(self):
        phi = parse("x*y^2 - y - x")  # a_2(x) = x vanishes at 0
        report = analyze(phi)
        inv = singular_inventory(phi, report)
        assert any(abs(v) < 1e-7 for v in inv.out_defective)

    @pytest.mark.parametrize(
        "text, loop",
        [
            # Phi(3, y) = (y - 3)^m (y - 3 - 2**-24): the root 2**-24 away
            # is another vertex and adds nothing to the loop at 3.
            ("(y-x)*(y-x-1/16777216) + (x-3)", (3, 1)),
            ("(y-x)^2*(y-x-1/16777216) + (x-3)", (3, 2)),
            # Phi(u, y) = (y - u)^4 at u = 36 - 24i.
            ("(y-x)^4 - (x - 36 + 24i)", (36 - 24j, 4)),
        ],
    )
    def test_loop_multiplicity_is_exact(self, text, loop):
        phi = parse(text)
        assert singular_inventory(phi, analyze(phi)).loops == (loop,)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("k", [20, 22, 40])
    def test_scaled_degree_drop_vertex_is_listed_once(self, k, mode):
        # Phi(s x, s y) for Phi = x*y^2 - y - x: a_2 = s^3 x vanishes at 0
        # only, while D = s^3 x (1 + 4 s^2 x^2) has two more roots near 0.
        # The loops 0 and +-sqrt(2)/s and the multi-arc origins +-i/(2s) are
        # all far apart on their own scale, however small s makes them.
        s = GaussRat.of(2**k)
        phi = parse("x*y^2 - y - x").affine_transform(s, GaussRat.of(0), GaussRat.of(1))
        phi = phi if mode == "exact" else phi.to_float()
        report = analyze(phi)
        inv = singular_inventory(phi, report)
        assert inv.out_defective == (0,)
        # Both come in real-part order on their own scale, not in LAPACK's.
        r = 2.0**0.5 / 2**k
        assert [m for _, m in inv.loops] == [1, 1, 1] and inv.loops[1][0] == 0
        assert all(abs(u - w) <= 1e-12 * r for (u, _), w in zip(inv.loops, (-r, 0, r)))
        assert len(inv.multi_arc_origins) == 2
        h = 0.5 / 2**k
        assert all(
            abs(u - w) <= 1e-12 * h for u, w in zip(inv.multi_arc_origins, (-1j * h, 1j * h))
        )
        assert len(singular_vertex_values(phi, report)) == 7

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_double_root_split_by_rounding_is_a_multi_arc_origin(self, mode):
        # Phi = y^2 + x^2 - 2: D's roots +-sqrt(2) are not floats, and the
        # row at fl(sqrt(2)) is y^2 + 4.4e-16, the double root 0 split into
        # +-2.1e-8 by the rounding of u*u - 2.  That noise is of the size of
        # the row's coefficients, so the roots merge, however small they are.
        from polygraph.explorer import out_neighbors

        phi = parse("y^2 + x^2 - 2")
        phi = phi if mode == "exact" else phi.to_float()
        origins = singular_inventory(phi, analyze(phi)).multi_arc_origins
        assert len(origins) == 2
        assert all(abs(u - w) <= 1e-15 for u, w in zip(origins, (-(2.0**0.5), 2.0**0.5)))
        assert out_neighbors(phi, 2.0**0.5) == [(0, 2)]
        assert out_neighbors(phi, -(2.0**0.5)) == [(0, 2)]

    @pytest.mark.parametrize("text", ["y^3-x^2*y+2*x+i", "y^3-0.3*x^2*y+2.0*x+i"])
    def test_one_root_call_for_l_d_e_and_one_row_call_per_factor(self, text, monkeypatch):
        import polygraph.analyzer as analyzer_mod
        import polygraph.explorer as explorer_mod

        calls = {"roots_batch": 0, "neighbors": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            analyzer_mod, "roots_batch", counting("roots_batch", analyzer_mod.roots_batch)
        )
        monkeypatch.setattr(
            explorer_mod, "neighbors", counting("neighbors", explorer_mod.neighbors)
        )
        phi = parse(text)
        report = analyze(phi)
        assert min(report.L.degree, report.D.degree, report.E.degree) > 0
        singular_vertex_values(phi, report)
        assert calls == {"roots_batch": 1, "neighbors": 0}
        singular_inventory(phi, report)
        assert calls == {"roots_batch": 2, "neighbors": 2}

    @pytest.mark.parametrize("text", ["(-1+i)*x^2*y^2 + 2*y + 1", "y^2-x^3-1"])
    def test_repeated_factor_in_d_or_e_lists_each_vertex_once(self, text):
        phi = parse(text)
        report = analyze(phi)
        assert any(p.gcd(p.derivative()).degree > 0 for p in (report.D, report.E))
        values = singular_vertex_values(phi, report)
        inv = singular_inventory(phi, report)
        for group in (
            [v for v, _ in inv.loops], inv.multi_arc_origins, inv.multi_arc_ends,
            inv.out_defective, inv.in_defective,
        ):
            for k, v in enumerate(group):
                assert all(abs(v - w) > 1e-9 for w in group[k + 1:]), group
                assert min(abs(v - w) for w in values) <= 1e-9, (v, values)


# x^2 + y^2 - 2xy = (y - x)^2: a square, and a loop at every vertex.
_SQUARE = parse("x^2 + y^2 - 2*x*y")


def test_analyze_transposes_each_polynomial_once(monkeypatch):
    # Phi's columns (its coefficients by powers of x) feed both B and E:
    # they are transposed once, on first read.  E's dPhi/dx is never built,
    # so nothing else is transposed, and a second analysis reads the cache.
    calls = []
    real = bipoly.transpose
    monkeypatch.setattr(bipoly, "transpose", lambda polys, var: calls.append(var) or real(polys, var))
    phi = parse("x^3*y^2 + (1+2i)*x*y - 3/4*y + x^2 - 2")
    first = analyze(phi)
    assert calls == ["y"]
    assert analyze(phi) == first
    assert calls == ["y"]


def _sylvester_resultant(phi: BiPoly, var: str) -> UniPoly:
    """Res_var(phi, dphi/dvar) of an exact phi of degree d >= 1 in var: the
    determinant of its (2d - 1)-square Sylvester matrix, whose entries are
    polynomials in the other variable, by Bareiss fraction-free
    elimination, each of its divisions exact."""
    p = phi.coeff_polys(var)[::-1]  # descending powers of var
    q = [c.scale(k) for k, c in enumerate(phi.coeff_polys(var))][:0:-1]
    d, zero = len(p) - 1, UniPoly.zero(p[0].var)
    m = [[zero] * r + p + [zero] * (d - 2 - r) for r in range(d - 1)]
    m += [[zero] * r + q + [zero] * (d - 1 - r) for r in range(d)]
    sign, prev = 1, UniPoly.one(p[0].var)
    for k in range(len(m) - 1):
        pivot = next((r for r in range(k, len(m)) if not m[r][k].is_zero), None)
        if pivot is None:
            return zero
        if pivot != k:
            m[k], m[pivot], sign = m[pivot], m[k], -sign
        for i in range(k + 1, len(m)):
            for j in range(k + 1, len(m)):
                m[i][j] = (m[k][k] * m[i][j] - m[i][k] * m[k][j]).divexact(prev)
        prev = m[k][k]
    return m[-1][-1] if sign > 0 else -m[-1][-1]


def test_an_exact_analysis_builds_no_derivative(monkeypatch):
    # D and E are Res(Phi, dPhi) taken from Phi's own coefficients
    # (`BiPoly.resultant_with_derivative`), and a float Phi's rounding bound
    # is read off them too (`unipoly.sylvester_norm`), so no dPhi/dy or
    # dPhi/dx is built, for an exact Phi or a float one.
    calls = []
    real = bipoly.BiPoly.derivative
    monkeypatch.setattr(bipoly.BiPoly, "derivative", lambda p, var: calls.append(var) or real(p, var))
    texts = [
        "x^3*y^2 + (1+2i)*x*y - 3/4*y + x^2 - 2", "(y-x)^4-1", "x*y - 1/2", "y^3 - x", "x^2 - 2*x",
        "0.5*x^3*y^2 + (1+2i)*x*y - 0.75*y + x^2 - 2", "(y-x)^4-1.0", "x*y - 1e-13", "(y-x-1)*(y-x-1.00000001)",
        "x^3 + x^2*y + x*y^2 + y^3 + 0.25",
    ]
    phis = [parse(t) for t in texts]
    reports = [analyze(phi) for phi in phis]
    assert calls == []
    assert [phi.mode for phi in phis] == ["exact"] * 5 + ["float"] * 5
    assert any(r.numerically_uncertain for r in reports) and not all(r.numerically_uncertain for r in reports)
    for phi, report in zip(phis, reports):
        exact = phi.to_exact()
        for var, got in (("y", report.D), ("x", report.E)):
            want = _sylvester_resultant(exact, var) if exact.degree(var) >= 1 else UniPoly.zero()
            assert got == (want if phi.mode == "exact" else want.to_float()).rename(got.var), (phi, var)


@pytest.mark.parametrize("call", [
    pytest.param(lambda phi: explore_component(phi, 1), id="explore_component"),
    pytest.param(lambda phi: explore_strong_component(phi, 1), id="explore_strong_component"),
    pytest.param(lambda phi: probe_conjecture(phi, n_seeds=2), id="probe_conjecture"),
    pytest.param(singular_vertex_values, id="singular_vertex_values"),
    pytest.param(lambda phi: singular_inventory(phi, analyze(phi)), id="singular_inventory"),
    pytest.param(
        lambda phi: QuadSym(phi.coeff(1, 1), phi.coeff(1, 0), phi.coeff(0, 0)),
        id="QuadSym",
    ),
])
def test_one_standardness_gate(call):
    with pytest.raises(NotStandardError) as exc:
        call(_SQUARE)
    assert exc.value.reasons == analyze(_SQUARE).failure_reasons
    assert str(exc.value) == "requires a standard polynomial"


class TestStandardize:
    def test_factor_bookkeeping(self):
        phi = parse("(y-x)^2*((y-x)^2-1)")
        result, steps = standardize(phi)
        assert [s.kind for s in steps] == [StepKind.TOOK_RADICAL, StepKind.REMOVED_LOOP_FACTOR]
        assert steps[1].count == 1
        assert result.normalized().coeffs == parse("(y-x)^2-1").normalized().coeffs

    def test_already_standard_unchanged(self):
        phi = parse("(y-x)^4-1")
        result, steps = standardize(phi)
        assert steps == [] and result.coeffs == phi.coeffs

    def test_nothing_remains(self):
        with pytest.raises(DomainError):
            standardize(parse("3*y - 3*x"))

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            standardize(parse("7"))

    def test_universal_rejected(self):
        with pytest.raises(NotStandardError):
            standardize(parse("(x-1)*y + x - 1"))

    def test_float_rejected(self):
        with pytest.raises(ExactArithmeticRequired):
            standardize(parse("0.5*y-x"))

    def test_result_is_standard(self):
        rng = random.Random(13)
        for _ in range(10):
            base = BiPoly.make(
                {
                    (i, j): GaussRat.of(rng.randint(-3, 3))
                    for i in range(2)
                    for j in range(2)
                    if rng.random() < 0.8
                }
            )
            if base.is_zero or base.is_constant():
                continue
            phi = base * base * parse("y-x")
            if analyze(phi).failure_reasons and (
                Failure.UNIVERSAL_SOURCE in analyze(phi).failure_reasons
                or Failure.UNIVERSAL_SINK in analyze(phi).failure_reasons
            ):
                continue
            try:
                result, steps = standardize(phi)
            except DomainError:
                continue
            assert analyze(result).is_standard
            assert steps


class TestAffineRelocation:
    def test_singular_vertices_relocate(self):
        # the affine reparametrization Psi = c Phi(ax+b, ay+b) carries
        # vertices u -> au+b, so singular(Psi) = (singular(Phi) - b) / a.
        rng = random.Random(19)
        done = 0
        while done < 5:
            phi = BiPoly.make(
                {
                    (i, j): GaussRat.of(rng.randint(-3, 3))
                    for i in range(3)
                    for j in range(3)
                    if rng.random() < 0.6
                }
            )
            report = analyze(phi)
            if not report.is_standard or report.S.degree < 1:
                continue
            a = GaussRat.of(rng.choice([2, 3, -2]))
            b = GaussRat.of(rng.randint(-2, 2))
            s_phi = singular_vertex_values(phi)
            # keep instances whose singular vertices are well separated, so
            # the comparison tests relocation rather than cluster stability
            if any(
                abs(u - v) < 0.1
                for i, u in enumerate(s_phi)
                for v in s_phi[i + 1 :]
            ):
                continue
            psi = phi.affine_transform(a, b, GaussRat.of(1))
            s_psi = singular_vertex_values(psi)
            moved = [(s - complex(b)) / complex(a) for s in s_phi]
            assert len(moved) == len(s_psi)
            for u in moved:
                assert any(abs(u - v) < 1e-5 * (1 + abs(u)) for v in s_psi), u
            done += 1
