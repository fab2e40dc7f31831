"""Exact UniPoly arithmetic against a schoolbook Q(i) reference.

`UniPoly` multiplies, divides and takes gcds over Z[i] after clearing
denominators.  The reference below works coefficient by coefficient on
GaussRat (pairs of Fractions), the way the arithmetic was first written;
products, quotients, remainders and monic gcds are unique over Q(i), so the
two must agree exactly.
"""

import random
from fractions import Fraction

import pytest

from polygraph import GaussRat, UniPoly
from polygraph.errors import DomainError
from polygraph.scalars import GR_ONE, GR_ZERO
from polygraph.unipoly import _gz_clear, _gz_gcd, _gz_resultant, _gz_unipoly


def _trimmed(coeffs: list) -> tuple:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def ref_mul(p: UniPoly, q: UniPoly) -> UniPoly:
    if p.is_zero or q.is_zero:
        return UniPoly.zero(p.var)
    out = [GR_ZERO] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] = out[i + j] + a * b
    return UniPoly(_trimmed(out), p.var)


def ref_divmod(p: UniPoly, q: UniPoly) -> tuple:
    rem = list(p.coeffs)
    dq = q.degree
    quo = [GR_ZERO] * max(0, len(rem) - dq)
    while rem and len(rem) - 1 >= dq:
        k = len(rem) - 1 - dq
        t = rem[-1] / q.lead
        quo[k] = t
        for j, b in enumerate(q.coeffs):
            rem[k + j] = rem[k + j] - t * b
        _trimmed(rem)
    return UniPoly(_trimmed(quo), p.var), UniPoly(tuple(rem), p.var)


def ref_remainders(p: UniPoly, q: UniPoly) -> list:
    """The Euclidean remainder sequence p, q, p mod q, ... up to the last nonzero."""
    seq = [p, q]
    while not seq[-1].is_zero:
        seq.append(ref_divmod(seq[-2], seq[-1])[1])
    return [r for r in seq if not r.is_zero]


def ref_gcd(p: UniPoly, q: UniPoly) -> UniPoly:
    seq = ref_remainders(p, q)
    if not seq:
        return UniPoly.zero(p.var)
    g = seq[-1]
    inv = GR_ONE / g.lead
    return UniPoly(tuple(c * inv for c in g.coeffs), p.var)


def ref_det(rows: list) -> GaussRat:
    rows = [r[:] for r in rows]
    out = GR_ONE
    for k in range(len(rows)):
        piv = next((r for r in range(k, len(rows)) if rows[r][k]), None)
        if piv is None:
            return GR_ZERO
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            out = -out
        out = out * rows[k][k]
        for r in range(k + 1, len(rows)):
            f = rows[r][k] / rows[k][k]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[k])]
    return out


def ref_subresultant(a: UniPoly, b: UniPoly, j: int) -> UniPoly:
    """The j-th subresultant of a and b, from determinants of Sylvester minors."""
    m, n = a.degree, b.degree
    width = m + n - j

    def shifts(p: UniPoly, count: int) -> list:
        desc = [p.coeff(k) for k in range(p.degree, -1, -1)]
        return [[GR_ZERO] * r + desc + [GR_ZERO] * (width - len(desc) - r) for r in range(count)]

    mat = shifts(a, n - j) + shifts(b, m - j)
    lead = width - j - 1  # the columns of x**(width-1) .. x**(j+1)
    coeffs = [ref_det([row[:lead] + [row[width - 1 - i]] for row in mat]) for i in range(j + 1)]
    return UniPoly(_trimmed(coeffs), a.var)


def _scalar(rng: random.Random, kind: str) -> GaussRat:
    def part() -> Fraction:
        den = rng.choice((1, 1, 2, 3, 4, 6, 7, 12)) if kind != "integer" else 1
        return Fraction(rng.randint(-9, 9), den)

    re = part()
    im = part() if kind == "gaussian" else Fraction(0)
    return GaussRat(re, im)


def _poly(rng: random.Random, degree: int, kind: str) -> UniPoly:
    """A polynomial of exactly this degree (zero for degree -1)."""
    coeffs = [_scalar(rng, kind) for _ in range(degree + 1)]
    while degree >= 0 and not coeffs[-1]:
        coeffs[-1] = _scalar(rng, kind)
    return UniPoly(tuple(coeffs))


def _chain(rng: random.Random, degrees: list, kind: str) -> tuple:
    """(a, b) whose Euclidean remainder sequence has exactly these degrees.

    Built from the bottom: r[k-1] = q*r[k] + r[k+1] with deg r[k+1] < deg r[k],
    so gaps of 2 or more make the PRS abnormal.  The first two degrees may
    be equal.
    """
    rs = [_poly(rng, degrees[-1], kind), _poly(rng, degrees[-2], kind)]
    for d in reversed(degrees[:-2]):
        rs.append(_poly(rng, d - rs[-1].degree, kind) * rs[-1] + rs[-2])
    return rs[-1], rs[-2]


def _pairs(seed: int, count: int):
    """Random operand pairs: zero and constant operands, wide degree gaps,
    planted common factors and remainder sequences with gaps of 2 or more."""
    rng = random.Random(seed)
    kinds = ("integer", "rational", "gaussian")
    for n in range(count):
        kind = kinds[n % 3]
        shape = n % 4
        if shape == 0:
            yield _poly(rng, rng.randint(-1, 7), kind), _poly(rng, rng.randint(-1, 7), kind)
        elif shape == 1:
            yield _poly(rng, rng.randint(4, 9), kind), _poly(rng, rng.randint(-1, 1), kind)
        else:
            degrees = sorted(rng.sample(range(11), rng.randint(3, 6)), reverse=True)
            if rng.random() < 0.3:
                degrees.insert(0, degrees[0])  # deg a == deg b: a first step with gap 0
            a, b = _chain(rng, degrees, kind)
            if shape == 3:
                g = _poly(rng, rng.randint(1, 3), kind)
                a, b = a * g, b * g
            yield a, b


PAIRS = list(_pairs(seed=5, count=400))


def test_operands_cover_the_edge_cases():
    degrees = [(p.degree, q.degree) for p, q in PAIRS]
    assert (-1, -1) in degrees
    assert any(dp >= 0 and dq == -1 for dp, dq in degrees)
    assert any(dp == -1 and dq >= 0 for dp, dq in degrees)
    assert any(dq == 0 for _, dq in degrees)
    assert any(p.lead.im and p.lead.re.denominator > 1 for p, _ in PAIRS if not p.is_zero)
    # A degree gap of at least 2 followed by further division steps
    # exercises the subresultant update of h.
    gaps = [
        [a.degree - b.degree for a, b in zip(seq, seq[1:])]
        for seq in (ref_remainders(p, q) for p, q in PAIRS)
    ]
    assert sum(any(d >= 2 for d in g[:-2]) for g in gaps) >= 50


def test_mul_matches_reference():
    for p, q in PAIRS:
        assert p * q == ref_mul(p, q), (p, q)


def test_divmod_matches_reference():
    for p, q in PAIRS:
        if q.is_zero:
            with pytest.raises(ZeroDivisionError):
                p.divmod(q)
            continue
        quo, rem = p.divmod(q)
        assert (quo, rem) == ref_divmod(p, q), (p, q)
        assert rem.degree < q.degree
        assert quo * q + rem == p


def test_gcd_matches_reference():
    nontrivial = 0
    for p, q in PAIRS:
        g = p.gcd(q)
        assert g == ref_gcd(p, q), (p, q)
        assert g == q.gcd(p)
        nontrivial += g.degree > 0
        if not g.is_zero:
            assert g.lead == GR_ONE
            assert g.divides(p) and g.divides(q)
    assert nontrivial >= 100


def test_prs_ends_in_the_subresultant():
    # Over Z[i] the subresultant PRS keeps its elements equal, up to sign,
    # to subresultants: the last one, of degree deg gcd, is the subresultant
    # of index (degree of the element before it) - 1 (Brown and Traub 1971).
    # Wrong divisors in the PRS still give the right monic gcd but not this.
    checked = 0
    for p, q in PAIRS[3::4][:20]:
        if p.degree < q.degree:
            p, q = q, p
        seq = ref_remainders(p, q)
        if len(seq) < 3 or seq[-1].degree < 1:
            continue
        (a, b), _ = _gz_clear([p, q])
        last = _gz_unipoly(_gz_gcd(a, b), (1, 0), "x")
        a, b = _gz_unipoly(a, (1, 0), "x"), _gz_unipoly(b, (1, 0), "x")
        want = ref_subresultant(a, b, seq[-2].degree - 1)
        assert last in (want, -want), (p, q)
        checked += 1
    assert checked >= 10


def test_prs_resultant_is_the_0th_subresultant():
    # The 0-th subresultant is the resultant, in either argument order and
    # for constant operands too.  It vanishes iff the gcd is not constant,
    # which is the cheaper reference for the pairs with a common factor.
    nonzero = 0
    for p, q in PAIRS:
        if p.is_zero or q.is_zero:
            continue
        (a, b), _ = _gz_clear([p, q])
        got = _gz_resultant(a, b)
        if ref_gcd(p, q).degree > 0:
            assert got == (0, 0), (p, q)
            continue
        want = ref_subresultant(_gz_unipoly(a, (1, 0), "x"), _gz_unipoly(b, (1, 0), "x"), 0)
        assert _gz_unipoly([got], (1, 0), "x") == want, (p, q)
        nonzero += 1
    assert nonzero >= 150


def test_gcd_with_zero_operands():
    p = UniPoly((GaussRat.of(Fraction(1, 2), 3), GaussRat.of(2), GaussRat.of(0, 4)))
    zero = UniPoly.zero()
    assert zero.gcd(zero) == zero
    assert p.gcd(zero) == p.monic() == zero.gcd(p)
    assert UniPoly.constant(GaussRat.of(0, 5)).gcd(p) == UniPoly.one()


def test_divexact_and_divides():
    for p, q in PAIRS[:100]:
        if q.is_zero:
            continue
        assert (p * q).divexact(q) == p
        assert q.divides(p * q)
        if not ref_divmod(p, q)[1].is_zero:
            assert not q.divides(p)
            with pytest.raises(DomainError):
                p.divexact(q)


def test_scale_by_exact_zero_is_the_zero_polynomial():
    p = UniPoly((GR_ONE, GR_ONE)).scale(GR_ZERO)
    assert p.coeffs == () and p.degree == -1 and p.is_zero
