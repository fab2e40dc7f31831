"""Root finding with multiplicities and the reconstruction oracle."""

import cmath
import itertools
import math
import random

import numpy as np
import pytest

from polygraph import GaussRat, analyze, parse, poly_from_roots, rootfind, roots, roots_batch
from polygraph.errors import (
    DomainError,
    EvaluationOverflow,
    RootFindingError,
    ZeroPolynomialError,
)
from polygraph.synthesis import FiniteDigraph, digraph_to_poly
from polygraph.unipoly import UniPoly, from_roots
from suites import root_residuals


def _values(pairs) -> list[complex]:
    return [v for v, _ in pairs]


def _mults(pairs) -> list[int]:
    return [m for _, m in pairs]


def _row(phi, u, axis="x") -> UniPoly:
    """The float row Phi(u, y) (axis "x") or Phi(x, u) (axis "y"), untrimmed."""
    return UniPoly.make(phi.eval_rows([u], axis)[0], "y" if axis == "x" else "x")


def test_quartic_roots_of_unity():
    rs = roots(_row(parse("(y-x)^4-1"), 0.0))
    got = sorted(_values(rs), key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    expected = [-1, -1j, 1j, 1]
    assert all(abs(g - e) < 1e-12 for g, e in zip(got, expected))
    assert _mults(rs) == [1, 1, 1, 1]


def test_double_root():
    rs = roots(_row(parse("(y-2)^2"), 0.0))
    assert rs == [(pytest.approx(2.0), 2)] or (
        len(rs) == 1 and rs[0][1] == 2 and abs(rs[0][0] - 2) < 1e-8
    )


def test_triangle_polynomial_row():
    # Phi(1, y) for the triangle synthesis polynomial has roots {2, 3}
    k3 = FiniteDigraph.on_integers(3, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)])
    phi = digraph_to_poly(k3)
    rs = roots(_row(phi, 1.0))
    vals = sorted(v.real for v in _values(rs))
    assert abs(vals[0] - 2) < 1e-9 and abs(vals[1] - 3) < 1e-9


def test_poly_from_roots_examples():
    p = poly_from_roots([(1, 1), (-1, 1), (1j, 1), (-1j, 1)], lead=1.0, var="y")
    assert p.degree == 4
    assert abs(complex(p.coeff(0)) + 1) < 1e-12
    assert abs(complex(p.coeff(4)) - 1) < 1e-12
    for k in (1, 2, 3):
        assert abs(complex(p.coeff(k))) < 1e-12

    q = poly_from_roots([(2.0, 2)], lead=1.0, var="y")
    assert [complex(q.coeff(k)) for k in range(3)] == [4 + 0j, -4 + 0j, 1 + 0j]


def test_poly_from_roots_random_pair_matches_expansion():
    rng = random.Random(2)
    for _ in range(20):
        s1 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        s2 = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        lead = complex(rng.uniform(0.5, 2), rng.uniform(-1, 1))
        got = poly_from_roots([(s1, 1), (s2, 1)], lead=lead, var="y")
        direct = from_roots([s1, s2], lead, "y")
        for k in range(3):
            assert abs(complex(got.coeff(k)) - complex(direct.coeff(k))) <= 1e-12 * max(
                1.0, abs(complex(direct.coeff(k)))
            )


def test_multiplicity_detection_up_to_4():
    rng = random.Random(31)
    for k in range(1, 5):
        for _ in range(8):
            a = complex(rng.uniform(-10, 10), rng.uniform(-10, 10))
            rs = roots(from_roots([a] * k, 1.0, "y"))
            assert len(rs) == 1 and rs[0][1] == k
            assert abs(rs[0][0] - a) < 1e-6 * (1 + abs(a))


def test_total_multiplicity_equals_degree():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(1, 10)
        coeffs = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(n)]
        coeffs.append(complex(rng.uniform(0.5, 2), 0))
        p = UniPoly.make(coeffs, "y")
        assert sum(_mults(roots(p))) == p.degree


def test_zero_and_constant_rejected():
    with pytest.raises(ZeroPolynomialError):
        roots(UniPoly.zero("y"))
    with pytest.raises(DomainError):
        roots(UniPoly.make([3.0], "y"))


def test_exact_input_converted():
    rs = roots(UniPoly.make([GaussRat.of(-2), GaussRat.of(0), GaussRat.of(1)], "y"))
    vals = sorted(v.real for v in _values(rs))
    assert abs(vals[0] + 2**0.5) < 1e-12 and abs(vals[1] - 2**0.5) < 1e-12


def test_batch_matches_each_row_alone():
    rng = random.Random(57)

    def draw() -> complex:
        return complex(rng.uniform(-3, 3), rng.uniform(-3, 3))

    rows = [
        UniPoly.make([draw() for _ in range(d)] + [complex(rng.uniform(0.5, 2), 0)], "y")
        for d in [rng.randint(1, 6) for _ in range(24)]
    ]
    a, b = draw(), draw()
    special = [
        UniPoly.make([0.0, 0.0, draw(), draw(), 1.0], "y"),  # two exact zeros at 0
        UniPoly.make([0.0, 0.0, 0.0, 3.0], "y"),  # only zeros at 0
        from_roots([a, a, b], 1.0, "y"),  # double root
        from_roots([b, b, b, a], 1.0, "y"),  # triple root
        UniPoly.make([2.0, 1e-15], "y"),  # trims to degree 0
    ]
    rows += special
    rng.shuffle(rows)
    batch = roots_batch(rows)
    assert len(batch) == len(rows)
    for p, rs in zip(rows, batch):
        if p.degree < 1:
            assert rs == []
            with pytest.raises(DomainError):
                roots(p)
            continue
        assert rs == roots(p)
        assert sum(_mults(rs)) == p.degree
        residuals, bound = root_residuals(p, rs)
        assert all(r <= bound for r in residuals)
    mults = {p: sorted(_mults(rs)) for p, rs in zip(rows, batch)}
    assert mults[special[0]] == [1, 1, 2]
    assert mults[special[1]] == [3]
    assert mults[special[2]] == [1, 2]
    assert mults[special[3]] == [1, 3]


def test_root_order_ignores_rounding_noise():
    # The roots u-1, u-i, u+i, u+1 of (y-x)^4-1 at x = u: the middle pair has
    # equal real parts, so a sort on the raw real part orders it by the last bits.
    rng = random.Random(73)
    us = [
        rng.uniform(0.5, 8.0) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))
        for _ in range(2000)
    ]
    phi = parse("(y-x)^4-1")
    batch = roots_batch([_row(phi, u) for u in us])
    for u, rs in zip(us, batch):
        want = [u - 1, u - 1j, u + 1j, u + 1]
        got = _values(rs)
        assert all(abs(g - w) < 1e-9 * (1 + abs(u)) for g, w in zip(got, want)), (u, got)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_synthesized_circulant_singular_polynomials(n):
    # E, S = L*D*E and S's squarefree part of the 2-regular circulant with
    # steps 1 and 2 (degrees 10 to 38, close and multiple roots).
    arcs = [(i, (i + s) % n) for i in range(n) for s in (1, 2)]
    report = analyze(digraph_to_poly(FiniteDigraph.on_integers(n, arcs)))
    S = report.S
    for p in (report.E, S, S.divexact(S.gcd(S.derivative()))):
        rs = roots(p)
        assert sum(_mults(rs)) == p.degree
        residuals, bound = root_residuals(p, rs)
        assert max(residuals) <= 64 * bound


def _four_quartics():
    rng = random.Random(5)
    return [
        from_roots([complex(rng.uniform(-3, 3), rng.uniform(-3, 3)) for _ in range(4)], 1.0, "y")
        for _ in range(4)
    ]


def test_first_row_failing_the_residual_check_is_reported(monkeypatch):
    def corrupt_row_2(m):
        z = np.linalg.eigvals(m)
        if len(m) == 4:
            z[2] += 0.1
        return z

    monkeypatch.setattr(rootfind, "eigvals", corrupt_row_2)
    with pytest.raises(RootFindingError) as info:
        roots_batch(_four_quartics())
    assert info.value.payload["row"] == 2
    assert info.value.best is not None and len(info.value.best) == 4


def test_linalg_error_maps_to_root_finding_error(monkeypatch):
    rows = _four_quartics()
    # Row 1 is monic, so the first row of its companion matrix is -c[n-1..0].
    rejected = -np.array(rows[1].coeffs[-2::-1], dtype=complex)

    def reject_row_1(m):
        if any(np.array_equal(a[0], rejected) for a in m):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return np.linalg.eigvals(m)

    monkeypatch.setattr(rootfind, "eigvals", reject_row_1)
    with pytest.raises(RootFindingError) as info:
        roots_batch(rows)
    # The stack is retried row by row, so row 0 passes and row 1 is reported.
    assert info.value.payload["row"] == 1
    assert info.value.best is not None


def _padded(rows: list[UniPoly], width: int) -> np.ndarray:
    c = np.zeros((len(rows), width), dtype=complex)
    for k, p in enumerate(rows):
        c[k, : len(p.coeffs)] = p.coeffs
    return c


def _bits(pairs) -> list[tuple[str, str, int]]:
    """Roots as exact bit patterns with multiplicities: -0.0 and +0.0 differ."""
    return [(v.real.hex(), v.imag.hex(), m) for v, m in pairs]


def test_kernel_matches_roots_batch_on_random_batches():
    rng = random.Random(91)

    def draw() -> complex:
        return complex(rng.uniform(-3, 3), rng.uniform(-3, 3))

    def on_an_axis() -> complex:
        x = rng.uniform(-3, 3)
        return rng.choice([complex(x, 0.0), complex(0.0, x), complex(x, -0.0), complex(-0.0, x)])

    for _ in range(60):
        rows = []
        for _ in range(rng.randint(1, 12)):
            kind = rng.randrange(7)
            if kind == 0:  # exact zeros at the origin
                p = UniPoly.make([0.0] * rng.randint(1, 3) + [draw() for _ in range(3)], "y")
            elif kind == 1:  # a multiple root
                a, b = draw(), draw()
                p = from_roots([a] * rng.randint(2, 3) + [b], 1.0, "y")
            elif kind == 2:  # constant
                p = UniPoly.make([draw()], "y")
            elif kind == 3:  # degree 1, the closed form
                p = UniPoly.make(rng.choice([[draw(), draw()], [on_an_axis(), on_an_axis()]]), "y")
            elif kind == 4:  # roots with a zero real or imaginary part
                p = from_roots([on_an_axis() for _ in range(rng.randint(1, 4))], 1.0, "y")
            elif kind == 5:  # real coefficients, so real roots with a signed zero part
                real = [rng.uniform(-3, 3) for _ in range(rng.randint(2, 4))]
                p = UniPoly.make(real + [1.0], "y")
            else:
                p = UniPoly.make([draw() for _ in range(rng.randint(2, 6))], "y")
            rows.append(p)
        batch = roots_batch(rows)
        # Zero padding to a common width is trimmed away.
        found = rootfind.roots_of_rows(_padded(rows, 9))
        assert [_bits(rs) for rs in batch] == [_bits(pairs) for pairs in found]
        # Each row alone gives the same bits as in the batch.
        for p, pairs in zip(rows, found):
            (alone,) = rootfind.roots_of_rows(_padded([p], len(p.coeffs)))
            assert _bits(alone) == _bits(pairs)
            assert sum(_mults(pairs)) == p.degree


def test_kernel_on_a_mixed_width_level():
    # deg_x = 1, deg_y = 3: the in-rows are padded with two exact zeros.
    phi = parse("y^3 - 2*x*y + x - 1")
    us = [0.5 + 0.25j, -1.5 + 0j, 2j]
    rows = np.zeros((2 * len(us), 4), dtype=complex)
    rows[0::2] = phi.eval_rows(us, "x")
    rows[1::2, :2] = phi.eval_rows(us, "y")
    want = roots_batch([_row(phi, u, axis) for u in us for axis in ("x", "y")])
    found = rootfind.roots_of_rows(rows)
    assert [len(pairs) for pairs in found] == [3, 1] * len(us)
    assert found == want


def test_kernel_errors():
    rows = np.array([[1, 2, 1], [0, 0, 0]], dtype=complex)
    with pytest.raises(ZeroPolynomialError):
        rootfind.roots_of_rows(rows)
    # A row that trims to a constant has no roots; one with zeros at 0 keeps them.
    assert rootfind.roots_of_rows(np.array([[3, 1e-15, 0], [0, 0, 2]], dtype=complex)) == [
        [],
        [(0j, 2)],
    ]


class TestKernelTrim:
    """Without lengths the kernel trims each row at the top by its own largest coefficient."""

    @pytest.mark.parametrize("row", [[1, np.nan, 0], [np.inf, 0, 0], [1, 2, np.nan]])
    def test_non_finite_row_is_rejected_not_trimmed(self, row):
        with pytest.raises(EvaluationOverflow):
            rootfind.roots_of_rows(np.array([row], dtype=complex))

    def test_zero_padding_is_dropped(self):
        rows = np.array([[1, 2, 0, 0], [0, 0, 0, 5]], dtype=complex)
        assert rootfind.roots_of_rows(rows) == [[(-0.5, 1)], [(0j, 3)]]

    def test_debris_is_measured_against_its_own_row(self):
        # 1e-15 beside a 3 is dropped; alone in its row it is the row.
        rows = np.array([[1, 3, 1e-15], [0, 0, 1e-15]], dtype=complex)
        (short,), zeros = rootfind.roots_of_rows(rows)
        assert short[1] == 1 and abs(short[0] + 1 / 3) < 1e-15
        assert zeros == [(0j, 2)]


_CAUSES = {
    "zero": ZeroPolynomialError,
    "nan": EvaluationOverflow,
    "residual": RootFindingError,
}


@pytest.mark.parametrize("order", list(itertools.permutations(_CAUSES)), ids="-".join)
def test_first_unsolvable_row_decides_whatever_its_cause(monkeypatch, order):
    good = _four_quartics()
    failing = good.pop()
    # Monic rows: the first row of the companion matrix is -c[n-1..0].
    corrupted = -np.array(failing.coeffs[-2::-1], dtype=complex)

    def corrupt(m):
        z = np.linalg.eigvals(m)
        for i, a in enumerate(m):
            if np.array_equal(a[0], corrupted):
                z[i, 0] += 0.1
        return z

    monkeypatch.setattr(rootfind, "eigvals", corrupt)
    bad = {
        "zero": [0, 0, 0, 0, 0],
        "nan": [1, complex("nan"), 0, 0, 1],
        "residual": failing.coeffs,
    }
    # Drop the winner each time, so every cause is reported at every place.
    for start in range(len(order)):
        rows = []
        for g, cause in zip(good, order[start:]):
            rows += [g.coeffs, bad[cause]]
        with pytest.raises(tuple(_CAUSES.values())) as info:
            rootfind.roots_of_rows(np.array(rows, dtype=complex))
        assert type(info.value) is _CAUSES[order[start]]
        assert info.value.payload["row"] == 1


def test_each_distinct_clustering_is_scored_once(monkeypatch):
    # Eigenvalues of a triple root at 2 spread 1.7e-5 apart, and simple roots
    # -1 and 3i: radii m = 1, 2 give five singletons and m = 3, 4, 5 join
    # the triple, so five radii give two distinct clusterings.
    spread = [1e-5 * cmath.exp(2j * math.pi * k / 3) for k in range(3)]
    z = np.array([2 + d for d in spread] + [-1, 3j])
    c = np.array(from_roots([2, 2, 2, -1, 3j], 1.0, "y").coeffs, dtype=complex)
    scored = []
    real = rootfind._reconstruction_error

    def counting(c, z):
        scored.append(z.shape[1])
        return real(c, z)

    monkeypatch.setattr(rootfind, "_reconstruction_error", counting)
    clusters = rootfind._best_clustering(z, c, 0.0)
    assert len(scored) == 2
    assert [m for _, m in clusters] == [3, 1, 1]
    assert all(abs(v - w) < 1e-12 for (v, _), w in zip(clusters, [2, -1, 3j]))


def _clustering_by_union_find(z, c, floor):
    """The loop `_best_clustering` replaced: union-find single linkage and
    one reconstruction per radius."""
    n, seen = len(z), []
    scale = floor + max(abs(v) for v in z)
    for m_try in range(1, n + 1):
        parent = list(range(n))

        def find(i):
            while parent[i] != i:
                i = parent[i]
            return i

        for i in range(n):
            for j in range(i + 1, n):
                if abs(z[i] - z[j]) <= rootfind.CLUSTER_BASE ** (1.0 / m_try) * scale:
                    ri, rj = find(i), find(j)
                    parent[max(ri, rj)] = min(ri, rj)
        groups = {}
        for i in range(n):
            groups.setdefault(find(i), []).append(i)
        clusters = [(complex(np.mean(z[groups[k]])), len(groups[k])) for k in sorted(groups)]
        flat = np.array([[v for v, m in clusters for _ in range(m)]])
        seen.append((float(rootfind._reconstruction_error(c[None, :], flat)[0]), clusters))
    floor = max(4.0 * min(e for e, _ in seen), 1e-11)
    return min((cl for e, cl in seen if e <= floor), key=len)


@pytest.mark.parametrize("floor", [0.0, 1.0])
def test_clustering_matches_the_union_find_loop(floor):
    rng = random.Random(23)

    def point():
        return complex(rng.uniform(-3, 3), rng.uniform(-3, 3))

    for _ in range(300):
        vals = [v for _ in range(rng.randint(1, 3)) for v in [point()] * rng.randint(1, 4)]
        p = from_roots(vals + [point() for _ in range(rng.randint(0, 3))], 1.0, "y")
        c = np.array(p.coeffs, dtype=complex)
        comp = np.zeros((p.degree, p.degree), dtype=complex)
        comp[np.arange(1, p.degree), np.arange(p.degree - 1)] = 1.0
        comp[0] = -c[-2::-1]
        z = np.linalg.eigvals(comp)
        assert rootfind._best_clustering(z, c, floor) == _clustering_by_union_find(z, c, floor)


@pytest.mark.parametrize("zeros", [1, 2])
def test_exact_zeros_join_a_cluster_the_search_forms_at_the_origin(zeros):
    # y**zeros * (y**2 - 1e-18) * (y - 1): the search merges +-1e-9 into one
    # cluster at 0 (radius 1e-6 * max|z|), and the row's exact zeros at the
    # origin, deflated before the search, join it.  Before, 0 came out twice,
    # [(0, 2), (0, 2), (1, 1)], or as a double root at -5e-19 beside a simple
    # root at 0.
    rs = roots(from_roots([0] * zeros + [1e-9, -1e-9, 1], 1.0, "y"))
    assert _mults(rs) == [zeros + 2, 1]
    assert _values(rs)[0] == 0 and abs(_values(rs)[1] - 1) < 1e-15


def test_exact_zeros_stay_apart_from_distinct_small_roots():
    # y * (y**2 - 1e-13): the roots +-3.16e-7 are far apart at the scale of
    # the row's roots, so the zero keeps its own entry.
    rs = roots(UniPoly.make([0.0, -1e-13, 0.0, 1.0], "y"))
    assert _mults(rs) == [1, 1, 1]
    assert _values(rs)[1] == 0 and abs(_values(rs)[2] - 1e-13**0.5) < 1e-21


def test_eigenvalue_zero_beside_a_tiny_constant_term():
    # The row's constant term is about -1.2e-30j and its smallest root is
    # u + 1 = 2.96e-31j, but the companion eigenvalue comes out as exactly 0.
    # |p(0)| = |c0| exceeds any noise bound proportional to |c0|, so the
    # check must also allow for the rounding of the eigenvalue itself.
    u = complex(-1, 2.9582283945787943e-31)
    (rs,) = roots_batch([_row(parse("(y-x)^4-1"), u)])
    assert _mults(rs) == [1, 1, 1, 1]
    want = sorted([u - 1, u - 1j, u + 1j, u + 1], key=lambda z: (round(z.real, 9), z.imag))
    assert all(abs(a - b) <= 1e-12 * abs(b) for a, b in zip(_values(rs), want))


def test_multiple_roots_are_refined_on_a_derivative():
    # The mean of a cluster of m eigenvalues is off by about eps**(1/m);
    # `_refine_cluster` polishes it on the (m-1)-th derivative, where the root
    # is simple.  Without that step the worst error here is ~6e-12.
    rng = random.Random(11)

    def point():
        return complex(rng.uniform(-3, 3), rng.uniform(-3, 3))

    cases = []
    for _ in range(400):
        r, m = point(), rng.choice((2, 3, 4))
        simple = [point() for _ in range(rng.randint(0, 3))]
        cases.append((r, m, from_roots([r] * m + simple, 1.0, "y")))
    errors, missed = [], 0
    for (r, m, _), rs in zip(cases, roots_batch([p for _, _, p in cases])):
        found = [v for v, k in rs if k == m]
        if not found:
            missed += 1  # the cluster search split the root: not a refinement error
            continue
        errors.append(min(abs(v - r) for v in found) / abs(r))
    assert missed <= 3
    assert max(errors) < 1e-13


def _assert_quadratic_solved(c: list[complex]) -> None:
    """The row c, low to high, is accepted with two roots counted by
    multiplicity; where two roots come back they match np.roots."""
    rs = roots(UniPoly.make(c, "y"))
    assert sum(_mults(rs)) == 2
    if len(rs) == 2:
        want = np.roots(c[::-1])
        for w in want:
            assert min(abs(v - w) for v in _values(rs)) <= 1e-12 * abs(w), (c, rs, want)


def _unit(rng: random.Random) -> complex:
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def _ldexp(z: complex, k: int) -> complex:
    return complex(math.ldexp(z.real, k), math.ldexp(z.imag, k))


def test_quadratics_scaled_by_powers_of_two():
    rng = random.Random(31)
    for k in range(-1000, 1001, 50):
        for _ in range(10):
            _assert_quadratic_solved([_ldexp(_unit(rng), k) for _ in range(3)])


def test_quadratics_with_coefficients_far_apart():
    rng = random.Random(32)
    for _ in range(300):
        _assert_quadratic_solved([_ldexp(_unit(rng), rng.randint(-300, 300)) for _ in range(3)])
    # b = 0: the roots are the two square roots of -c0/c2.
    for _ in range(100):
        c0, c2 = (_ldexp(_unit(rng), rng.randint(-300, 300)) for _ in range(2))
        _assert_quadratic_solved([c0, 0j, c2])


def test_quadratics_with_near_double_roots():
    # (y - r)(y - r - d) with every coefficient exact, so r and r + d are
    # the exact roots.  np.roots' own error grows like eps/|d| here, so the
    # two roots are checked against r and r + d instead; rows whose roots
    # are within the cluster radius come back as one double root.
    r = 1.5 + 0.5j
    for k in range(4, 40, 2):
        d = math.ldexp(1.0, -k) * (1 + 1j)
        rs = roots(UniPoly.make([r * r + r * d, -(2 * r + d), 1.0], "y"))
        assert sum(_mults(rs)) == 2
        if len(rs) == 2:
            assert all(abs(v - w) <= 1e-12 * abs(w) for v, w in zip(_values(rs), (r, r + d)))
        else:
            assert abs(rs[0][0] - (r + d / 2)) <= abs(d)


@pytest.mark.parametrize(
    "coeffs, want",
    [([1, 1, 1e-200], (-1e200, -1.0)), ([3, 1e200, 1], (-1e200, -3e-200))],
)
def test_quadratic_whose_discriminant_overflows_unscaled(coeffs, want):
    # b**2 = 1e400 is beyond the float range: the closed form must work at
    # a scale at which it is not.
    rs = roots(UniPoly.make(coeffs, "y"))
    assert _mults(rs) == [1, 1]
    assert all(abs(v - w) <= 1e-15 * abs(w) for v, w in zip(_values(rs), want))


def test_eigvals_solves_only_degree_three_and_up(monkeypatch):
    def degree_three_and_up(m):
        assert m.shape[1] >= 3
        return np.linalg.eigvals(m)

    monkeypatch.setattr(rootfind, "eigvals", degree_three_and_up)
    rows = [[2, -3, 1], [0, 1, 1], [1, 1], [1, 0, 0, 1], [0, 0, -1, 0, 1]]
    found = roots_batch([UniPoly.make(c, "y") for c in rows])
    assert [sum(_mults(rs)) for rs in found] == [2, 2, 1, 3, 4]


def test_simple_roots_far_below_1_stay_apart():
    # y^3 - 1e-13 y = y (y^2 - 1e-13): the roots +-3.2e-7 and 0 are far
    # apart on their own scale; radii relative to 1 would merge all three.
    rs = roots(UniPoly.make([0.0, -1e-13, 0.0, 1.0]))
    r = 1e-13**0.5
    assert _mults(rs) == [1, 1, 1]
    assert all(abs(v - w) <= 1e-12 * r for v, w in zip(_values(rs), (-r, 0, r)))


def test_roots_far_below_1_come_in_real_part_order():
    # y^3 - 1e-24 y: the deflated 0 is appended after +-1e-12, and a grid
    # of 1e-9 would round all three real parts to 0 and keep that order.
    rs = roots(UniPoly.make([0.0, -1e-24, 0.0, 1.0]))
    assert _values(rs) == [-1e-12, 0, 1e-12] and _mults(rs) == [1, 1, 1]
    pairs = [(1e-12, 1), (0j, 2), (-1e-12, 1), (2e-12j, 1), (-2e-12j, 3)]
    assert rootfind.sorted_pairs(pairs) == [
        pairs[2], pairs[4], pairs[1], pairs[3], pairs[0]
    ]
    assert rootfind.sorted_pairs([]) == []


def test_a_float_row_keeps_the_absolute_floor_on_its_radii():
    # y^2 + 4.4e-16, as Phi = y^2 + x^2 - 2 gives it at fl(sqrt(2)): a row
    # the kernel trims is noisy at the size of its coefficients, so its
    # first roots +-2.1e-8i are one double root 0.  The same coefficients
    # as a UniPoly are its own, and its roots stay two simple ones.
    c = np.array([[4.440892098500626e-16, 0, 1]], dtype=complex)
    assert rootfind.roots_of_rows(c) == [[(0, 2)]]
    (rs,) = roots_batch([UniPoly.make(c[0].tolist(), "y")])
    r = 4.440892098500626e-16**0.5
    assert _mults(rs) == [1, 1]
    assert all(abs(v - w) <= 1e-12 * r for v, w in zip(_values(rs), (-1j * r, 1j * r)))


def test_quadratics_at_every_scale_keep_two_simple_roots():
    # Monic quadratics whose coefficients b and a0 have random directions
    # and moduli from 2**-300 to 2**300: a pair of roots merges only if it
    # is close relative to the larger of the two.
    rng = random.Random(1)

    def draw() -> complex:
        return 2.0 ** rng.uniform(-300, 300) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))

    polys = [UniPoly.make([draw(), draw(), 1.0], "y") for _ in range(2000)]
    for p, rs in zip(polys, roots_batch(polys)):
        assert _mults(rs) == [1, 1], (p, rs)
        residuals, bound = root_residuals(p, rs)
        assert all(r <= bound for r in residuals), (p, rs)
