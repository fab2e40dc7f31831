"""Exact resultants, contents and squarefree parts against sympy over Q(i).

The inputs have Gaussian rational coefficients with denominators 2 to 7,
so they exercise the stored common denominator, which the integral inputs
of the benchmark do not.  sympy is an optional test dependency.
"""

import random
from fractions import Fraction

import pytest

from polygraph import BiPoly, GaussRat, UniPoly

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


def test_resultant_matches_sympy():
    checked = 0
    for rng, p in _cases(11, 20):
        q = _bipoly(rng, rng.randint(1, 2), rng.randint(1, 2))
        pairs = [(p, q, "y"), (p, q, "x"), (p, p.derivative("y"), "y"), (p, p.derivative("x"), "x")]
        for a, b, var in pairs:
            other = "x" if var == "y" else "y"
            gens = (Y, X) if var == "y" else (X, Y)
            want = sp.Poly(_to_sympy(a), *gens, domain="QQ_I").resultant(
                sp.Poly(_to_sympy(b), *gens, domain="QQ_I")
            )
            want = sp.Poly(want.as_expr(), gens[1], domain="QQ_I")
            assert a.resultant(b, var) == _unipoly_from_sympy(want, other), (a, b, var)
            checked += 1
    assert checked == 80


def test_content_matches_sympy():
    nontrivial = 0
    for rng, g in _cases(12, 20):
        var = rng.choice("xy")
        other, gen, other_gen = ("x", Y, X) if var == "y" else ("y", X, Y)
        c = UniPoly.make([_scalar(rng) for _ in range(rng.randint(1, 3))], other)
        phi = g * BiPoly.from_unipoly(c)
        want = sp.Poly(0, other_gen, domain="QQ_I")
        for k in sp.Poly(_to_sympy(phi), gen).all_coeffs():
            want = want.gcd(sp.Poly(k, other_gen, domain="QQ_I"))
        got = phi.content(var)
        assert got == _unipoly_from_sympy(want.monic(), other), (phi, var)
        nontrivial += got.degree > 0
    assert nontrivial >= 10


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
