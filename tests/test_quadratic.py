"""Symmetric degree-2 classification, orbits and singular inventories."""

import json
import math
import random

import pytest

from polygraph import (
    Budget,
    QuadCase,
    QuadShape,
    QuadSym,
    Shape,
    ShapeLabel,
    classify,
    classify_deg2,
    component_cycle_length,
    cosine_recognize,
    explore_component,
    labels_equivalent,
    normalize,
    out_neighbors,
    recurrence_orbit,
    singular_inventory_quad,
)
from polygraph import quadratic
from polygraph.errors import DomainError, NotStandardError
from polygraph.quadratic import characteristic_roots
from polygraph.scalars import GaussRat


def exact_quad(a, b, c) -> QuadSym:
    return QuadSym(GaussRat.of(a), GaussRat.of(b), GaussRat.of(c))


class TestNormalize:
    def test_shift_example(self):
        q = normalize(exact_quad(0, 2, 0))
        assert (q.a, q.b, q.c) == (GaussRat.of(0), GaussRat.of(0), GaussRat.of(-2))

    def test_b_zero_unchanged(self):
        q = normalize(exact_quad(1, 0, 3))
        assert (q.a, q.b, q.c) == (GaussRat.of(1), GaussRat.of(0), GaussRat.of(3))

    def test_a_minus_two_rejected(self):
        with pytest.raises(DomainError):
            normalize(exact_quad(-2, 1, 0))

    def test_singular_vertices_shift(self):
        rng = random.Random(3)
        for _ in range(5):
            a = rng.choice([0, 1, 3, -1])
            b = rng.randint(-3, 3)
            c = rng.randint(1, 4)
            try:
                q = exact_quad(a, b, c)
            except NotStandardError:
                continue
            inv = singular_inventory_quad(q)
            inv_norm = singular_inventory_quad(normalize(q))
            shift = complex(b) / (a + 2)
            moved = sorted(
                (v - shift for v in inv_norm.loops), key=lambda z: (z.real, z.imag)
            )
            got = sorted(inv.loops, key=lambda z: (z.real, z.imag))
            assert len(moved) == len(got)
            for u, v in zip(moved, got):
                assert abs(u - v) < 1e-9 * (1 + abs(u))


class TestRecurrenceOrbit:
    def test_difference_squared_walk(self):
        q = exact_quad(-2, 0, -1)  # (x-y)^2 - 1
        orbit = recurrence_orbit(q, 0, 1, 5)
        assert orbit == [0, 1, 2, 3, 4, 5]

    def test_double_loop_fixed_point(self):
        q = exact_quad(0, 0, 0)  # x^2 + y^2 + 0; double loop at 0
        orbit = recurrence_orbit(q, 0, 0, 4)
        assert all(abs(v) < 1e-12 for v in orbit)

    def test_period_ten_for_fifth_cosine(self):
        # honest closed form: the characteristic roots of l^2 + a l + 1 for
        # a = 2cos(2pi/5) are -exp(+-2pi i/5), primitive 10th roots of unity,
        # so the orbit has antiperiod 5 (v_{n+5} = -v_n) and period 10.
        a = 2 * math.cos(2 * math.pi / 5)
        q = QuadSym(a, 0.0, 1.0)
        v0 = 0.3 + 0j
        v1 = out_neighbors(q.as_bipoly(), v0)[0][0]
        orbit = recurrence_orbit(q, v0, v1, 10)
        assert abs(orbit[5] + orbit[0]) < 1e-9
        assert abs(orbit[10] - orbit[0]) < 1e-9
        assert len({(round(v.real, 6), round(v.imag, 6)) for v in orbit[:10]}) == 10

    def test_orbit_pairs_satisfy_polynomial(self):
        q = QuadSym(2 * math.cos(2 * math.pi / 7), 0.0, 1.0)
        phi = q.as_bipoly()
        v0 = 0.5 + 0.1j
        v1 = out_neighbors(phi, v0)[0][0]
        orbit = recurrence_orbit(q, v0, v1, 20)
        for u, v in zip(orbit, orbit[1:]):
            assert abs(complex(phi.eval(u, v))) < 1e-7 * max(1.0, abs(u) ** 2)

    def test_bad_seed_rejected(self):
        with pytest.raises(DomainError):
            recurrence_orbit(exact_quad(0, 0, 1), 5.0, 5.0, 3)


class TestSingularInventory:
    def test_a_minus_two_with_linear_term(self):
        inv = singular_inventory_quad(exact_quad(-2, 1, 0))
        assert len(inv.loops) == 1 and abs(inv.loops[0]) < 1e-12
        assert len(inv.double_arc_origins) == 1
        assert abs(inv.double_arc_origins[0] - 0.125) < 1e-12
        assert not inv.singular_components_finite

    def test_a_minus_two_without_linear_term(self):
        inv = singular_inventory_quad(exact_quad(-2, 0, -1))
        assert not inv.loops and not inv.double_arc_origins
        assert inv.singular_components_finite

    def test_a_plus_two(self):
        inv = singular_inventory_quad(exact_quad(2, 0, -4))
        got = sorted(v.real for v in inv.loops)
        assert abs(got[0] + 1) < 1e-12 and abs(got[1] - 1) < 1e-12
        assert inv.case is QuadCase.A_PLUS_2

    def test_generic_zero_constant(self):
        inv = singular_inventory_quad(exact_quad(0, 0, 0))
        assert len(inv.loops) == 1 and abs(inv.loops[0]) < 1e-12
        assert inv.singular_components_finite

    def test_generic_loops_and_double_arcs(self):
        # loops at +-sqrt(-c/(a+2)), checked against L(x) = (a+2)x^2 + c
        inv = singular_inventory_quad(exact_quad(0, 0, 1))
        loops = sorted(inv.loops, key=lambda z: z.imag)
        r = 1 / math.sqrt(2)
        assert abs(loops[0] + r * 1j) < 1e-9 and abs(loops[1] - r * 1j) < 1e-9
        phi = exact_quad(0, 0, 1).as_bipoly()
        for v in loops:
            assert abs(complex(phi.to_float().eval(v, v))) < 1e-9
        doubles = sorted(inv.double_arc_origins, key=lambda z: z.imag)
        assert abs(doubles[0] + 1j) < 1e-9 and abs(doubles[1] - 1j) < 1e-9
        # a double-arc origin has a repeated out-neighbor
        rs = out_neighbors(phi, doubles[1])
        assert any(m == 2 for _, m in rs)


class TestCosineRecognize:
    def test_exact_table(self):
        assert cosine_recognize(GaussRat.of(0)) == (4, 1)
        assert cosine_recognize(GaussRat.of(1)) == (6, 1)
        assert cosine_recognize(GaussRat.of(-1)) == (3, 1)
        assert cosine_recognize(GaussRat.of(1, 2)) is None

    def test_n_max_bounds_exact_and_float_witnesses_alike(self):
        for a in (GaussRat.of(1), 1.0):
            assert cosine_recognize(a, n_max=5) is None
            assert cosine_recognize(a, n_max=6) == (6, 1)

    def test_float_recognition(self):
        assert cosine_recognize(2 * math.cos(4 * math.pi / 7)) == (7, 2)
        assert cosine_recognize(2 * math.cos(2 * math.pi / 5)) == (5, 1)
        assert cosine_recognize(2 * math.cos(4 * math.pi / 5)) == (5, 2)

    def test_rejections(self):
        assert cosine_recognize(2.5) is None
        assert cosine_recognize(3.0) is None
        assert cosine_recognize(1 + 1j) is None
        # irrational angle: must not be matched within tolerance
        assert cosine_recognize(0.5) is None

    def test_least_witness_when_a_later_convergent_is_closer(self):
        # theta lies 6.85e-8 below 1/2003.  The next convergent but one,
        # 4/8013, is closer to theta and also within tolerance; the least
        # witness is still (2003, 1).
        a = 2 * math.cos(2 * math.pi / 2003)
        a += 0.9 * quadratic.COS_TOL * (1 + abs(a))
        assert cosine_recognize(a, n_max=10000) == (2003, 1)
        r = classify_deg2(QuadSym(a, 0.0, 1.0), n_max=10000)
        assert r.cosine_witness == (2003, 1)
        assert r.component_cycle_length == component_cycle_length(2003, 1)

    def test_float_n_max_stops_where_candidates_are_no_longer_separated(self):
        # Above NMAX_SEPARATED, COS_TOL is wider than the gap between
        # candidate angles: at n_max = 10**5 the irrational angle of
        # 0.123456789 found the witness (33772, 8111).
        assert quadratic.NMAX_SEPARATED == 31622
        assert cosine_recognize(0.123456789, quadratic.NMAX_SEPARATED) is None
        for a in (0.123456789, 0.5):
            with pytest.raises(DomainError):
                cosine_recognize(a, 100000)
            with pytest.raises(DomainError):
                classify_deg2(QuadSym(a, 0.0, 1.0), n_max=quadratic.NMAX_SEPARATED + 1)
        # An exact a reads a table, with no tolerance to outgrow.
        assert cosine_recognize(GaussRat.of(1), 100000) == (6, 1)

    def test_n_max_below_three_admits_no_witness(self):
        for n_max in (-1, 0, 1, 2):
            assert quadratic._cosine_scan(1.0, n_max) == (None, False)
            assert quadratic._cosine_scan(1.0 + 2e-9, n_max) == (None, False)

    def test_every_angle_up_to_64_and_its_tolerance_band(self):
        # a = 2 cos(2 pi k / n) for every reduced k/n in (0, 1/2) with
        # 3 <= n <= 64.  Shifts inside COS_TOL keep the witness; past it the
        # verdict is DoubleRay, flagged ambiguous up to _AMBIG_BAND times the
        # tolerance and not beyond.
        band = quadratic._AMBIG_BAND
        for n in range(3, 65):
            for k in range(1, (n + 1) // 2):
                if math.gcd(k, n) != 1:
                    continue
                a = 2 * math.cos(2 * math.pi * k / n)
                tol = quadratic.COS_TOL * (1 + abs(a))
                assert cosine_recognize(a) == (n, k)
                assert cosine_recognize(a, n_max=n - 1) is None
                for sign in (1, -1):
                    assert cosine_recognize(a + sign * 0.99 * tol) == (n, k)
                    assert cosine_recognize(a + sign * 1.01 * tol) is None
                # Each angle checks one side and one edge of the band.
                sign = 1 if k % 2 else -1
                inside = 1.01 if n % 2 else 0.99 * band
                for factor, ambiguous in ((inside, True), (1.01 * band, False)):
                    r = classify_deg2(QuadSym(a + sign * factor * tol, 0.0, 1.0))
                    assert r.verdict is QuadShape.DOUBLE_RAY and r.cosine_witness is None
                    assert r.numerically_ambiguous is ambiguous, (n, k, factor)


class TestClassify:
    def test_verdict_labels(self):
        r = classify_deg2(exact_quad(-1, 0, 1))
        assert r.verdict is QuadShape.CYCLE and r.cosine_witness == (3, 1)
        r5 = classify_deg2(QuadSym(2 * math.cos(2 * math.pi / 5), 0.0, 1.0))
        assert r5.verdict is QuadShape.CYCLE and r5.cosine_witness == (5, 1)

    def test_double_ray_values(self):
        for a in (3.0, 2.5, 1 + 1j):
            r = classify_deg2(QuadSym(a, 0.0, 1.0))
            assert r.verdict is QuadShape.DOUBLE_RAY
            assert r.cosine_witness is None

    def test_verdict_and_inventory_analyze_nothing(self, monkeypatch):
        # QuadSym analyzes q once when it is built; an affine shift keeps
        # standardness, so the shifted polynomial is not analyzed again.
        qs = [exact_quad(1, 3, 2), QuadSym(0.5 + 0.25j, 1.0, 2.0), exact_quad(2, 1, 3), QuadSym(-2.0, 1.0, 2.0)]
        calls = []
        real = quadratic.analyze
        monkeypatch.setattr(quadratic, "analyze", lambda phi: calls.append(phi) or real(phi))
        for q in qs:
            assert classify_deg2(q).case is singular_inventory_quad(q).case
        assert calls == []

    def test_n_max_bounds_the_finiteness_verdict(self, monkeypatch):
        # The witness of a = 2 cos(2 pi / 7) is (7, 1), which n_max = 5 excludes.
        q = QuadSym(2 * math.cos(2 * math.pi / 7), 0.0, 1.0)
        scans = []
        real = quadratic._cosine_scan
        monkeypatch.setattr(
            quadratic, "_cosine_scan", lambda a, n_max: scans.append(n_max) or real(a, n_max)
        )
        r = classify_deg2(q, n_max=5)
        assert r.verdict is QuadShape.DOUBLE_RAY and r.cosine_witness is None
        assert r.singular_components_finite is False
        assert scans == [5]
        r = classify_deg2(q)
        assert r.verdict is QuadShape.CYCLE and r.singular_components_finite is True

    def test_a_two_cases_are_double_ray(self):
        r = classify_deg2(exact_quad(2, 0, -4))
        assert r.verdict is QuadShape.DOUBLE_RAY
        r2 = classify_deg2(exact_quad(-2, 1, 0))
        assert r2.verdict is QuadShape.DOUBLE_RAY

    def test_component_cycle_lengths(self):
        # order of -exp(2 pi i k/n): 2n / gcd(n + 2k, 2n)
        assert component_cycle_length(3, 1) == 6
        assert component_cycle_length(4, 1) == 4
        assert component_cycle_length(5, 1) == 10
        assert component_cycle_length(5, 2) == 10
        assert component_cycle_length(6, 1) == 3
        assert component_cycle_length(7, 3) == 14

    def test_verdict_agrees_with_exploration(self):
        rng = random.Random(99)
        for n, k in ((3, 1), (4, 1), (5, 1), (7, 3)):
            a = 2 * math.cos(2 * math.pi * k / n)
            q = QuadSym(a, 0.0, 1.0)
            r = classify_deg2(q)
            m = r.component_cycle_length
            for _ in range(3):
                seed = complex(rng.uniform(0.2, 1.5), rng.uniform(0.2, 1.5))
                g = explore_component(
                    q.as_bipoly(), seed, Budget(max_vertices=300, max_depth=80)
                )
                if g.truncated:
                    continue
                assert labels_equivalent(classify(g), ShapeLabel(Shape.CYCLE, m))

    def test_double_ray_explorations_truncate(self):
        q = QuadSym(2.5, 0.0, 1.0)
        g = explore_component(
            q.as_bipoly(), 0.4 + 0.3j, Budget(max_vertices=200, max_depth=15)
        )
        assert g.truncated
        assert classify(g) == ShapeLabel(Shape.DOUBLE_RAY_PREFIX)

    def test_orbit_and_explorer_visit_same_vertices(self):
        a = 2 * math.cos(2 * math.pi / 7)
        q = QuadSym(a, 0.0, 1.0)
        phi = q.as_bipoly()
        v0 = 0.45 + 0.2j
        v1 = out_neighbors(phi, v0)[0][0]
        m = classify_deg2(q).component_cycle_length
        orbit = recurrence_orbit(q, v0, v1, m)
        g = explore_component(phi, v0, Budget(max_vertices=100, max_depth=40))
        assert not g.truncated and g.order == m
        explored = [v for _, v in g.vertices]
        for u in orbit[:m]:
            assert any(abs(u - w) < 1e-6 * (1 + abs(u)) for w in explored), u

    def test_a_minus_two_b_zero_analyzer_agreement(self):
        # no singular vertices, and the full analyzer agrees: S is constant
        from polygraph import analyze

        q = exact_quad(-2, 0, -1)
        inv = singular_inventory_quad(q)
        assert not inv.loops and not inv.double_arc_origins
        report = analyze(q.as_bipoly())
        assert report.is_standard and report.S.degree <= 0

    def test_closed_forms_match_general_analyzer(self):
        # dual route: per-case formulas vs the resultant-based inventory
        from polygraph import analyze, singular_inventory

        for a, b, c in [(0, 0, 1), (1, 2, 3), (-1, 1, 2), (3, 0, -2), (-2, 1, 0)]:
            try:
                q = exact_quad(a, b, c)
            except NotStandardError:
                continue
            quad = singular_inventory_quad(q)
            phi = q.as_bipoly()
            general = singular_inventory(phi, analyze(phi))
            pairs = [
                (quad.loops, [v for v, _ in general.loops]),
                (quad.double_arc_origins, general.multi_arc_origins),
            ]
            for got, gen in pairs:
                assert len(got) == len(gen), (a, b, c)
                unused = list(gen)
                for u in got:
                    # Nearest unused general value: equal real parts differ
                    # only by noise, so no fixed sort order pairs them.
                    v = min(unused, key=lambda w: abs(w - u))
                    unused.remove(v)
                    assert abs(u - v) < 1e-6 * (1 + abs(u)), (a, b, c)


class TestCharacteristicRoots:
    def test_product_one_sum_minus_a(self):
        rng = random.Random(12)
        for _ in range(10):
            a = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
            if abs(a * a - 4) < 1e-6 or abs(a) < 1e-3:
                continue
            q = QuadSym(a, 0.0, 1.0)
            w1, w2 = characteristic_roots(q)
            assert abs(w1 * w2 - 1) < 1e-10
            assert abs(w1 + w2 + a) < 1e-10

    def test_rootfind_agreement(self):
        a = 2 * math.cos(2 * math.pi / 5)
        rs = out_neighbors(QuadSym(a, 0.0, 1.0).as_bipoly(), 0j)
        # lambda^2 + a lambda + 1 has the same root product/sum structure
        q = QuadSym(a, 0.0, 1.0)
        w1, w2 = characteristic_roots(q)
        assert abs(w1 * w2 - 1) < 1e-12 and abs(w1 + w2 + a) < 1e-12


def test_float_cosine_keeps_its_xy_coefficient():
    # 2cos(pi/2) rounds to 1.2e-16, not 0; Phi keeps it as its xy coefficient.
    a = 2 * math.cos(math.pi / 2)
    phi = QuadSym(a, 0.0, 1.0).as_bipoly()
    assert a != 0 and phi.coeff(1, 1) == a
    assert phi.coeff(2, 0) == phi.coeff(0, 2) == phi.coeff(0, 0) == 1


class TestReportJson:
    def test_double_ray_verdict(self):
        data = classify_deg2(exact_quad(2, 0, -4)).as_json()
        assert json.loads(json.dumps(data)) == data
        assert data["verdict"] == "DoubleRay" and data["case"] == QuadCase.A_PLUS_2.value
        assert data["cosine_witness"] is None and data["component_cycle_length"] is None
        assert sorted(re for re, _ in data["loops"]) == pytest.approx([-1.0, 1.0])

    def test_inventory_has_no_verdict(self):
        data = singular_inventory_quad(exact_quad(-2, 1, 0)).as_json()
        assert json.loads(json.dumps(data)) == data
        assert data["verdict"] is None and data["cosine_witness"] is None
        assert data["singular_components_finite"] is False
        (origin,) = data["double_arc_origins"]
        assert origin == pytest.approx([0.125, 0.0], abs=1e-12)


class TestStandardnessGuard:
    def test_perfect_squares_rejected(self):
        with pytest.raises(NotStandardError):
            QuadSym(GaussRat.of(-2), GaussRat.of(0), GaussRat.of(0))
        with pytest.raises(NotStandardError):
            QuadSym(GaussRat.of(2), GaussRat.of(2), GaussRat.of(1))
