"""Exact UniPoly arithmetic against a schoolbook Q(i) reference.

`UniPoly` stores Gaussian integers over one denominator and multiplies,
divides and takes gcds over Z[i].  The reference below works coefficient by
coefficient on GaussRat (pairs of Fractions), the way the arithmetic was
first written; products, quotients, remainders and monic gcds are unique
over Q(i), so the two must agree exactly.  The subresultant reference takes
determinants of Sylvester minors by Bareiss fraction-free elimination over
Gaussian integers, (re, im) int pairs, and checks that every division in it
is exact.
"""

import random
from fractions import Fraction

import pytest

from polygraph import GaussRat, UniPoly
from polygraph.errors import DomainError
from polygraph.scalars import GR_ONE, GR_ZERO
from polygraph.unipoly import (
    _gz_common,
    _gz_gcd,
    _gz_poly,
    _gz_resultant,
    _res_interpolated,
    _res_kronecker,
    _sylvester_int,
)


def _trimmed(coeffs: list) -> tuple:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _z(p: list) -> UniPoly:
    """The exact UniPoly with Gaussian integer coefficients p, ascending."""
    return UniPoly.make([GaussRat.of(re, im) for re, im in p])


def ref_mul(p: UniPoly, q: UniPoly) -> UniPoly:
    if p.is_zero or q.is_zero:
        return UniPoly.zero(p.var)
    out = [GR_ZERO] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] = out[i + j] + a * b
    return UniPoly.make(_trimmed(out), p.var)


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
    return UniPoly.make(_trimmed(quo), p.var), UniPoly.make(rem, p.var)


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
    return UniPoly.make([c * inv for c in g.coeffs], p.var)


def _gi_cross(p: tuple, a: tuple, f: tuple, b: tuple) -> tuple:
    """p*a - f*b over Gaussian integers."""
    return (
        p[0] * a[0] - p[1] * a[1] - f[0] * b[0] + f[1] * b[1],
        p[0] * a[1] + p[1] * a[0] - f[0] * b[1] - f[1] * b[0],
    )


def _gi_exact_div(s: tuple, t: tuple) -> tuple:
    n = t[0] * t[0] + t[1] * t[1]
    re, im = s[0] * t[0] + s[1] * t[1], s[1] * t[0] - s[0] * t[1]  # s * conj(t)
    assert re % n == 0 and im % n == 0, "inexact Bareiss division"
    return re // n, im // n


def ref_det(rows: list) -> tuple:
    """The determinant of a square matrix of Gaussian integers, (re, im) int
    pairs, by Bareiss fraction-free elimination with row swaps: after step k
    entry (r, c) is (a_kk a_rc - a_rk a_kc) / (the pivot of step k - 1)."""
    rows = [r[:] for r in rows]
    n = len(rows)
    sign, prev = 1, (1, 0)
    for k in range(n):
        piv = next((r for r in range(k, n) if rows[r][k] != (0, 0)), None)
        if piv is None:
            return (0, 0)
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            sign = -sign
        p = rows[k][k]
        for r in range(k + 1, n):
            f = rows[r][k]
            rows[r][k + 1:] = [
                _gi_exact_div(_gi_cross(p, a, f, b), prev) for a, b in zip(rows[r][k + 1:], rows[k][k + 1:])
            ]
        prev = p
    return (sign * prev[0], sign * prev[1])


def ref_subresultant(a: UniPoly, b: UniPoly, j: int) -> UniPoly:
    """The j-th subresultant of Gaussian integer polynomials a and b, from
    determinants of Sylvester minors."""
    m, n = a.degree, b.degree
    width = m + n - j

    def shifts(p: UniPoly, count: int) -> list:
        desc = []
        for k in range(p.degree, -1, -1):
            c = p.coeff(k)
            assert c.re.denominator == c.im.denominator == 1
            desc.append((c.re.numerator, c.im.numerator))
        return [[(0, 0)] * r + desc + [(0, 0)] * (width - len(desc) - r) for r in range(count)]

    mat = shifts(a, n - j) + shifts(b, m - j)
    lead = width - j - 1  # the columns of x**(width-1) .. x**(j+1)
    coeffs = [ref_det([row[:lead] + [row[width - 1 - i]] for row in mat]) for i in range(j + 1)]
    return UniPoly.make(_trimmed([GaussRat.of(re, im) for re, im in coeffs]), a.var)


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
    return UniPoly.make(coeffs)


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
        (a, b), _ = _gz_common([p, q])
        last = _z(_gz_gcd(a, b))
        want = ref_subresultant(_z(a), _z(b), seq[-2].degree - 1)
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
        (a, b), _ = _gz_common([p, q])
        got = _gz_resultant(a, b)
        if ref_gcd(p, q).degree > 0:
            assert got == (0, 0), (p, q)
            continue
        want = ref_subresultant(_z(a), _z(b), 0)
        assert _z([got]) == want, (p, q)
        nonzero += 1
    assert nonzero >= 150


def _t_times(pc: list, fc: list) -> list:
    """The product of two polynomials in t given by their coefficient UniPolys."""
    out = [UniPoly.zero()] * (len(pc) + len(fc) - 1)
    for i, p in enumerate(pc):
        for j, f in enumerate(fc):
            out[i + j] = out[i + j] + p * f
    return out


def test_resultant_reconstructions_agree():
    # The Kronecker digits and the interpolation of resultant_by_evaluation,
    # each called directly whatever the size rule would pick, give the same
    # Res_t(a, da/dt); among the inputs are leads that vanish at t = 0, 1, 2
    # (the interpolation then samples from t = 3) and planted square factors.
    rng = random.Random(8)
    lead_012 = UniPoly.make([GR_ZERO, GaussRat.of(2), GaussRat.of(-3), GR_ONE])  # x(x-1)(x-2)
    zeros = 0
    for n in range(48):
        kind = ("integer", "rational", "gaussian")[n % 3]
        pc = [_poly(rng, rng.randint(0, 3), kind) for _ in range(rng.randint(3, 6))]
        if n % 4 == 1:
            pc[-1] = pc[-1] * lead_012
        if n % 4 == 2:
            fc = [_poly(rng, rng.randint(0, 2), kind) for _ in range(2)]
            pc = _t_times(_t_times(pc, fc), fc)
        a, _ = _gz_common(pc)
        bound = max(len(c) - 1 for c in a) * (2 * len(a) - 3)  # the Sylvester row bound, or above it
        got = _gz_poly(_res_kronecker(a, _sylvester_int(a).bit_length() + 1), 1, "x")
        assert got == _gz_poly(_res_interpolated(a, bound), 1, "x"), pc
        zeros += got.is_zero
    assert zeros >= 12


def test_gcd_with_zero_operands():
    p = UniPoly.make([GaussRat.of(Fraction(1, 2), 3), GaussRat.of(2), GaussRat.of(0, 4)])
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
    p = UniPoly.make([GR_ONE, GR_ONE]).scale(GR_ZERO)
    assert p.coeffs == () and p.degree == -1 and p.is_zero
