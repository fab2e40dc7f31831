"""Exact resultants, contents and squarefree parts against sympy over Q(i).

The inputs have Gaussian rational coefficients with denominators 2 to 7,
so they exercise the stored common denominator, which the integral inputs
of the benchmark do not.  Exact resultants take one of two reconstructions
(`unipoly.resultant_by_evaluation`): the small random Phi all take the
Kronecker point, and the Gaussian integer cases of `PATH_CASES` pin both
sides of the size rule.  sympy is an optional test dependency.
"""

import random
from fractions import Fraction

import pytest

from polygraph import BiPoly, GaussRat, UniPoly, bipoly, parse, unipoly

sp = pytest.importorskip("sympy")
X, Y = sp.symbols("x y")


def _scalar(rng: random.Random) -> GaussRat:
    im = Fraction(rng.randint(-4, 4), rng.randint(2, 7)) if rng.random() < 0.5 else 0
    return GaussRat.of(Fraction(rng.randint(-9, 9), rng.randint(2, 7)), im)


def _bipoly(rng: random.Random, dx: int, dy: int) -> BiPoly:
    """Degree exactly dx in x and dy in y."""
    entries = {(i, j): _scalar(rng) for i in range(dx + 1) for j in range(dy + 1)}
    entries[(dx, rng.randint(0, dy))] = GaussRat.of(Fraction(rng.randint(1, 9), rng.randint(2, 7)))
    entries[(rng.randint(0, dx), dy)] = GaussRat.of(Fraction(-rng.randint(1, 9), rng.randint(2, 7)), 1)
    return BiPoly.make(entries)


def _rational(f: Fraction):
    return sp.Rational(f.numerator, f.denominator)


def _fraction(r) -> Fraction:
    r = sp.Rational(r)
    return Fraction(int(r.p), int(r.q))


def _to_sympy(phi: BiPoly):
    return sum(
        (_rational(c.re) + sp.I * _rational(c.im)) * X**i * Y**j
        for (i, j), c in phi.coeffs.items()
    )


def _from_sympy(p) -> BiPoly:
    """A sympy Poly in (x, y) as a BiPoly."""
    return BiPoly.make({
        (i, j): GaussRat(_fraction(sp.re(c)), _fraction(sp.im(c)))
        for (i, j), c in p.terms()
    })


def _unipoly_from_sympy(p, var: str) -> UniPoly:
    """A sympy Poly in one generator as a UniPoly in var."""
    coeffs = reversed(p.all_coeffs()) if not p.is_zero else []
    return UniPoly.make([GaussRat(_fraction(sp.re(c)), _fraction(sp.im(c))) for c in coeffs], var)


def _cases(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        yield rng, _bipoly(rng, rng.randint(1, 3), rng.randint(1, 3))


def test_inputs_carry_denominators_two_to_seven():
    dens = {p.den for _, p in _cases(11, 20)}
    assert all(d > 1 for d in dens) and any(d % 7 == 0 for d in dens)


def _sympy_resultant(a: BiPoly, b: BiPoly, var: str, domain: str = "QQ_I") -> UniPoly:
    other = "x" if var == "y" else "y"
    gens = (Y, X) if var == "y" else (X, Y)
    want = sp.Poly(_to_sympy(a), *gens, domain=domain).resultant(
        sp.Poly(_to_sympy(b), *gens, domain=domain)
    )
    return _unipoly_from_sympy(sp.Poly(want.as_expr(), gens[1], domain="QQ_I"), other)


def test_resultant_matches_sympy():
    # D = Res_y(Phi, dPhi/dy) and E = Res_x(Phi, dPhi/dx), the one exact
    # resultant in both variables.
    checked = 0
    for _, p in _cases(11, 20):
        for var in "xy":
            got = p.resultant_with_derivative(var)
            assert got == _sympy_resultant(p, p.derivative(var), var), (p, var)
            checked += 1
    assert checked == 40


def _dense(seed: int, dx: int, dy: int, cmax: int, offset: int = 0) -> BiPoly:
    """Every coefficient of degree <= (dx, dy) set to offset + re + im*i,
    |re|, |im| <= cmax, with nonzero corners (dx, 0) and (0, dy)."""
    rng = random.Random(seed)
    entries = {
        (i, j): GaussRat.of(offset + rng.randint(-cmax, cmax), rng.randint(-cmax, cmax))
        for i in range(dx + 1)
        for j in range(dy + 1)
    }
    entries[(dx, 0)] = entries[(0, dy)] = GaussRat.of(offset + cmax, 1)
    return BiPoly.make(entries)


def _square_factor(seed: int, d: int, cmax: int) -> BiPoly:
    """f**2 * g with f of degree 1 and g of degree d - 2 in y."""
    f = _dense(seed, 1, 1, cmax)
    return f * f * _dense(seed + 1, 2, d - 2, cmax)


# Large coefficients put low degrees on the interpolation side, where
# sympy is fast.
_LEAD_012 = parse("x*(x-1)*(x-2)*y^3") + _dense(7, 3, 2, 10**120)

# (name, Phi, eliminated variable, reconstruction, whether the work figure
# lies within 2 % of the threshold) for Res(Phi, dPhi/dvar) by
# `BiPoly.resultant_with_derivative`, which builds no dPhi/dvar.
PATH_CASES = [
    ("eliminated degree 8", _dense(3, 2, 8, 9), "y", "interpolated", False),
    ("numerators near 1e30", _dense(4, 2, 2, 10**6, offset=10**30), "y", "kronecker", False),
    ("lead vanishing at t = 0, 1, 2", _LEAD_012, "y", "interpolated", False),
    ("common factor, Kronecker side", _square_factor(21, 3, 5), "y", "kronecker", False),
    ("common factor, interpolation side", _square_factor(31, 3, 10**60), "y", "interpolated", False),
    ("just under the threshold", _dense(0, 3, 3, 10**108), "y", "kronecker", True),
    ("just over the threshold", _dense(0, 3, 3, 2 * 10**108), "y", "interpolated", True),
]


@pytest.fixture
def paths(monkeypatch):
    """Records [reconstruction, work] for each exact resultant: work is
    deg**2 * (bound + 1) * s, deg = deg P, the figure the size rule compares
    with `unipoly.KRONECKER_WORK`."""
    seen = []
    real = bipoly.resultant_by_evaluation

    def spy(pc, bound, var):
        a, _ = unipoly._gz_common(pc)
        s = unipoly._sylvester_int(a).bit_length() + 1
        seen.append([None, (len(a) - 1) ** 2 * (bound + 1) * s])
        return real(pc, bound, var)

    monkeypatch.setattr(bipoly, "resultant_by_evaluation", spy)
    for name in ("kronecker", "interpolated"):
        def recorded(*args, name=name, f=getattr(unipoly, f"_res_{name}")):
            seen[-1][0] = name
            return f(*args)

        monkeypatch.setattr(unipoly, f"_res_{name}", recorded)
    return seen


@pytest.mark.parametrize("case", PATH_CASES, ids=[c[0] for c in PATH_CASES])
def test_resultant_paths_match_sympy(case, paths):
    # Gaussian integer inputs: sympy is several times faster over Z[i], and
    # the random Phi above already cover the denominators.
    name, p, var, path, near = case
    got = p.resultant_with_derivative(var)
    [(taken, work)] = paths
    assert taken == path and (work <= unipoly.KRONECKER_WORK) == (path == "kronecker"), paths
    assert not near or abs(work - unipoly.KRONECKER_WORK) <= unipoly.KRONECKER_WORK // 50, work
    assert got == _sympy_resultant(p, p.derivative(var), var, "ZZ_I")
    assert got.is_zero == name.startswith("common factor")


def test_interpolation_across_integer_roots_of_the_lead_matches_sympy(monkeypatch, paths):
    # Interpolation samples x = 0..bound, here bound >= 2d - 1 >= 3.  Where
    # the lead a_d(x) of Phi in y has a root, so has d*a_d, the lead of
    # dPhi/dy: the specialised Sylvester matrix has a zero first column,
    # and the sampled 0 is the resultant's value there, with no point
    # skipped.
    monkeypatch.setattr(unipoly, "KRONECKER_WORK", 0)
    rng = random.Random(16)
    hits = 0
    for _ in range(12):
        d = rng.randint(2, 3)
        roots = rng.sample(range(4), rng.randint(1, 3))
        lead = unipoly.from_roots([GaussRat.of(r) for r in roots], _scalar(rng) or GaussRat.of(1))
        entries = {(i, d): c for i, c in enumerate(lead.coeffs)}
        entries.update({(i, j): _scalar(rng) for i in range(rng.randint(1, 2)) for j in range(d)})
        phi = BiPoly.make(entries)
        got = phi.resultant_with_derivative("y")
        assert got == _sympy_resultant(phi, phi.derivative("y"), "y"), phi
        hits += len(roots)
    assert {taken for taken, _ in paths} == {"interpolated"}
    assert hits >= 20


def _symmetric(rng: random.Random, d: int) -> BiPoly:
    """Phi(x, y) = Phi(y, x) of degree d in each variable."""
    entries = {}
    for i in range(d + 1):
        for j in range(i, d + 1):
            entries[(i, j)] = entries[(j, i)] = _scalar(rng)
    entries[(d, 0)] = entries[(0, d)] = GaussRat.of(Fraction(rng.randint(1, 9), rng.randint(2, 7)), 1)
    return BiPoly.make(entries)


def test_resultant_with_derivative_matches_sympy(paths):
    # Res_var(Phi, dPhi/dvar) without dPhi equals sympy's, on Gaussian
    # rational Phi with denominators 2 to 7, of degree 0, 1 and 2 or more
    # in var, on a symmetric Phi, and on both reconstructions.
    rng = random.Random(14)
    phis = [p for _, p in _cases(14, 10)]
    phis += [_bipoly(rng, 0, 2), _bipoly(rng, 2, 0), _bipoly(rng, 1, 1), _symmetric(rng, 3)]
    phis += [_dense(5, 2, 4, 10**40), _LEAD_012]  # large enough to interpolate
    degrees = set()
    for phi in phis:
        for var in "xy":
            got = phi.resultant_with_derivative(var)
            dphi = phi.derivative(var)
            if not dphi.is_zero:
                assert got == _sympy_resultant(phi, dphi, var, "ZZ_I" if phi.den == 1 else "QQ_I"), (phi, var)
            else:
                assert got.is_zero and got.var == ("x" if var == "y" else "y")
            degrees.add(min(phi.degree(var), 2))
    assert degrees == {0, 1, 2}
    assert {taken for taken, _ in paths} == {"kronecker", "interpolated"}
    sym = phis[-3]
    assert sym.is_symmetric and sym.resultant_with_derivative("x") == sym.resultant_with_derivative("y").rename("y")


def _sympy_content(phi: BiPoly, var: str) -> UniPoly:
    other, gen, other_gen = ("x", Y, X) if var == "y" else ("y", X, Y)
    want = sp.Poly(0, other_gen, domain="QQ_I")
    for k in sp.Poly(_to_sympy(phi), gen).all_coeffs():
        want = want.gcd(sp.Poly(k, other_gen, domain="QQ_I"))
    return _unipoly_from_sympy(want.monic(), other)


# (text, var, PRS gcd folds taken) for `BiPoly.content`.  None are taken
# when the certificate in front of the fold decides that the coefficients
# are coprime; otherwise the fold stops at the first constant gcd.
CONTENT_CASES = [
    # a zero coefficient polynomial (of y) between nonzero ones
    ("(x^2 + 1/3)*(y^2 + x - 2/5)", "y", 3),
    ("(x+1)*y^2 + x", "y", 0),
    # coprime: the certificate decides
    ("x + (x+1)*y + x*(x+1)*y^2 + x*(x+1)*y^3", "y", 0),
    ("x + (x+1)*y + x*(x+1)*y^2 + x*(x+1)*y^3", "x", 0),
    # coprime, but every numerator is a multiple of 1 + i or of 5, so
    # every norm is even or a multiple of 25: gcd 1 after the first pair
    # of the fold; the later coefficients share x or x + 1 with the first
    # two, and y with the first
    ("(1+i)*(x + (x+1)*y + x*(x+1)*y^2 + x*(x+1)*y^3)", "y", 2),
    ("(1+i)*(x + (x+1)*y + x*(x+1)*y^2 + x*(x+1)*y^3)", "x", 2),
    ("5*(x + (x+1)*y + x*(x+1)*y^2 + x*(x+1)*y^3)", "y", 2),
    ("5/7*(x + (x+1)*y + x*(x+1)*y^2 + x*(x+1)*y^3)", "x", 2),
    # a single coefficient polynomial
    ("(3/4+1i)*(x^2 - 1/2)", "y", 1),
    ("(3/4+1i)*(y^2 + 1i*y)", "x", 1),
    # a planted Gaussian content x - c with c not in Z[i]
    ("(x - 2/3 - 1/5i)*(y^2 + x*y + 1)", "y", 3),
    ("(y - 2/3 - 1/5i)*(x^2 + x*y + 1)", "x", 3),
]


def test_content_matches_sympy(monkeypatch):
    nontrivial = 0
    for rng, g in _cases(12, 20):
        var = rng.choice("xy")
        other = "x" if var == "y" else "y"
        c = UniPoly.make([_scalar(rng) for _ in range(rng.randint(1, 3))], other)
        phi = g * BiPoly.from_unipoly(c)
        got = phi.content(var)
        assert got == _sympy_content(phi, var), (phi, var)
        nontrivial += got.degree > 0
    assert nontrivial >= 10

    folds = []
    gz_gcd = unipoly._gz_gcd

    def counted(a, b):
        folds.append((a, b))
        return gz_gcd(a, b)

    monkeypatch.setattr(unipoly, "_gz_gcd", counted)
    for text, var, count in CONTENT_CASES:
        phi = parse(text)
        folds.clear()
        assert phi.content(var) == _sympy_content(phi, var), (text, var)
        assert len(folds) == count, (text, var, len(folds))


def test_squarefree_part_matches_sympy():
    rng = random.Random(13)
    for _ in range(12):
        f = _bipoly(rng, rng.randint(1, 2), rng.randint(1, 2))
        g = _bipoly(rng, 1, rng.randint(0, 1))
        h = UniPoly.make([_scalar(rng), GaussRat.of(1)], "x")
        phi = f * f * g * BiPoly.from_unipoly(h * h)
        # Over Z[i] sympy is much faster; the radical is the same up to a scalar.
        want = sp.sqf_part(sp.Poly(_to_sympy(phi.scale(phi.den)), X, Y, domain="ZZ_I"))
        got = phi.squarefree_part()
        assert got.normalized() == _from_sympy(want).normalized(), phi


def test_lagrange_interpolate_matches_sympy():
    # Nodes and values with denominators 2 to 7; the other tests interpolate
    # at Gaussian integer nodes only.
    def gauss(c):
        return _rational(c.re) + sp.I * _rational(c.im)

    rng = random.Random(31)
    for n in range(1, 8):
        nodes: list = []
        while len(nodes) < n:
            u = _scalar(rng)
            if u not in nodes:
                nodes.append(u)
        points = [(u, _scalar(rng)) for u in nodes]
        got = unipoly.lagrange_interpolate(points)
        want = sp.interpolate([(gauss(u), gauss(v)) for u, v in points], X)
        assert got == _unipoly_from_sympy(sp.Poly(sp.expand(want), X, domain="QQ_I"), "x"), points
        assert all(got.eval(u) == v for u, v in points)
