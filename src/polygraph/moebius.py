"""Linear fractional transformations and degree-one polynomial digraphs.

A standard Phi(x,y) = (cx+d)y - (ax+b) iterates z -> (az+b)/(cz+d), so its
non-singular components are directed n-cycles exactly when the matrix
[[a,b],[c,d]] has finite projective order n.  That order is read off
v = trace^2/det - 2, which is rho + 1/rho for the ratio rho of the
eigenvalues, by the same cosine witness as the quadratic verdict
(quadratic.cosine_recognize): rho is a primitive n-th root of unity exactly
when v = 2 cos(2 pi k / n) with gcd(k, n) = 1.  The symbolic cycle conditions
come from the two-term recurrence U_1 = 1, U_2 = t, U_k = t U_{k-1} - e U_{k-2}
(t = a+d, e = ad-bc), valid because A^2 = tA - eI: the entries of A^n are
a_n = U_n a - e U_{n-1}, b_n = U_n b, c_n = U_n c, d_n = U_n d - e U_{n-1},
and the n-cycle condition is U_n with the conditions of all proper divisors
divided out.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass
from functools import lru_cache

from .analyzer import analyze, require_standard, singular_vertex_values
from .bipoly import BiPoly
from .errors import AmbiguousOrderError, DomainError, NotStandardError
from .probe import _sample_seeds
from .quadratic import DEFAULT_NMAX, cosine_recognize
from .scalars import GR_ONE, GaussRat, is_exact
from .sympoly import SymPoly, parse_sympoly
from .textio import format_terms

ORDER_TOL = 1e-9
PARABOLIC_BAND = 1e-8

ABCD = ("a", "b", "c", "d")
TE = ("t", "e")


@dataclass(frozen=True)
class Mobius:
    """z -> (a z + b)/(c z + d) with ad - bc != 0."""

    a: object
    b: object
    c: object
    d: object

    def det(self):
        return self.a * self.d - self.b * self.c

    @property
    def mode(self) -> str:
        parts = (self.a, self.b, self.c, self.d)
        return "exact" if all(is_exact(p) for p in parts) else "float"

    def __post_init__(self):
        if not self.det():
            raise DomainError("Mobius transformation needs ad - bc != 0")

    def __call__(self, z: complex) -> complex:
        z = complex(z)
        den = complex(self.c) * z + complex(self.d)
        if den == 0:
            raise DomainError("pole of the transformation", z=str(z))
        return (complex(self.a) * z + complex(self.b)) / den


def to_poly(m: Mobius) -> BiPoly:
    """(c x + d) y - (a x + b)."""
    return BiPoly.make(
        {(1, 1): m.c, (0, 1): m.d, (1, 0): -m.a, (0, 0): -m.b}
    )


def from_poly(phi: BiPoly) -> Mobius:
    """Inverse of to_poly up to scalar multiple; enforces standardness."""
    if phi.deg_y != 1 or phi.deg_x > 1:
        raise DomainError(
            "expected partial degree one in y and at most one in x",
            deg_x=phi.deg_x, deg_y=phi.deg_y,
        )
    require_standard(analyze(phi))
    return Mobius(-phi.coeff(1, 0), -phi.coeff(0, 0), phi.coeff(1, 1), phi.coeff(0, 1))


# -- projective order -------------------------------------------------------------


def projective_order(m: Mobius, n_max: int = DEFAULT_NMAX) -> int | None:
    """Least n <= n_max with m^n the identity map, or None.

    The ratio rho of the matrix's eigenvalues has rho + 1/rho = v with
    v = trace^2/det - 2, taken in the map's own arithmetic.  A scalar
    matrix has order 1 and a zero trace (v = -2) order 2.  Otherwise
    v = 2 is parabolic, of infinite order, and the order is n >= 3 exactly
    when v = 2 cos(2 pi k / n) with gcd(k, n) = 1: the cosine witness of
    the quadratic verdict, whose scan raises DomainError for a float v
    when n_max is above quadratic.NMAX_SEPARATED.  Exact input is never
    ambiguous; a float v within PARABOLIC_BAND of 2 but not equal to it
    raises.
    """
    exact = m.mode == "exact"
    a, b, c, d = (m.a, m.b, m.c, m.d) if exact else map(complex, (m.a, m.b, m.c, m.d))
    t, det = a + d, a * d - b * c
    if exact:
        scalar, traceless = not b and not c and a == d, not t
    else:
        skew = max(abs(b), abs(c), abs(a - d))
        scalar = skew <= ORDER_TOL * max(abs(a), abs(d), skew)
        # m^2 = t m - det I, scalar within ORDER_TOL
        traceless = abs(t) * skew <= ORDER_TOL * abs(det)
    if scalar:
        return 1 if n_max >= 1 else None
    if traceless:
        return 2 if n_max >= 2 else None
    v = t**2 / det - 2
    if not v - 2:
        return None  # parabolic: infinite order
    if not exact and abs(v - 2) < PARABOLIC_BAND:
        raise AmbiguousOrderError(
            "near-parabolic matrix; order is numerically ambiguous",
            disc=abs(v - 2),
        )
    witness = cosine_recognize(v, n_max)
    return witness[0] if witness else None


# -- verdicts -----------------------------------------------------------------------


class Deg1Kind(enum.Enum):
    DIRECTED_CYCLES = "DirectedCycles"
    INFINITE_PATHS = "InfinitePaths"
    NOT_STANDARD = "NotStandard"


@dataclass(frozen=True)
class Deg1Verdict:
    kind: Deg1Kind
    n: int = 0
    reason: str = ""

    def __str__(self):
        if self.kind is Deg1Kind.DIRECTED_CYCLES:
            return f"DirectedCycles({self.n})"
        if self.kind is Deg1Kind.NOT_STANDARD:
            return f"NotStandard({self.reason})"
        return "InfinitePaths"


def classify_deg1(phi: BiPoly, n_max: int = DEFAULT_NMAX) -> Deg1Verdict:
    """All non-singular components of a degree-one polynomial at once."""
    try:
        m = from_poly(phi)
    except (NotStandardError, DomainError) as exc:
        reason = exc.payload.get("reasons", [str(exc)])
        return Deg1Verdict(Deg1Kind.NOT_STANDARD, reason=str(reason[0]))
    n = projective_order(m, n_max)
    if n is None or n == 1:
        return Deg1Verdict(Deg1Kind.INFINITE_PATHS)
    return Deg1Verdict(Deg1Kind.DIRECTED_CYCLES, n=n)


# -- symbolic cycle conditions ----------------------------------------------------


@lru_cache(maxsize=None)
def _u_te(n: int) -> SymPoly:
    """U_n in variables (t, e): U_1 = 1, U_2 = t, U_k = t U_{k-1} - e U_{k-2}."""
    t = SymPoly.var(TE, "t")
    e = SymPoly.var(TE, "e")
    if n == 1:
        return SymPoly.const(TE, 1)
    prev, cur = SymPoly.const(TE, 1), t
    for _ in range(n - 2):
        prev, cur = cur, t * cur - e * prev
    return cur


@lru_cache(maxsize=None)
def cycle_condition_te(n: int) -> SymPoly:
    """n-cycle condition in (t, e): U_n over the proper divisor conditions."""
    if n < 2:
        raise DomainError("cycle conditions start at n = 2", n=n)
    out = _u_te(n)
    for k in range(2, n):
        if n % k == 0:
            out = out.divexact(cycle_condition_te(k))
    return out


@lru_cache(maxsize=None)
def cycle_condition(n: int) -> SymPoly:
    """n-cycle condition expanded into (a, b, c, d)."""
    te = cycle_condition_te(n)
    a = SymPoly.var(ABCD, "a")
    b = SymPoly.var(ABCD, "b")
    c = SymPoly.var(ABCD, "c")
    d = SymPoly.var(ABCD, "d")
    return te.substitute({"t": a + d, "e": a * d - b * c}, ABCD)


def check_condition(m: Mobius, n: int) -> bool:
    """Does (a,b,c,d) satisfy the n-cycle condition (exactly, or within ORDER_TOL)?"""
    cond = cycle_condition(n)
    values = {"a": m.a, "b": m.b, "c": m.c, "d": m.d}
    if m.mode == "exact":
        return not cond.evaluate(values)
    cvals = {k: complex(v) for k, v in values.items()}
    val = complex(cond.evaluate(cvals))
    scale = cond.evaluate_abs({k: abs(v) for k, v in cvals.items()})
    return abs(val) <= ORDER_TOL * max(scale, 1.0)


# -- reference transcription of the published condition table ---------------------

# Independent transcription used for regression diffs.  Row 5 of the printed
# table is known to carry a misprint: the mixed term appears as "4 a b b d"
# where the recurrence gives 4*a*b*c*d.
PUBLISHED_TABLE = {
    2: "a + d",
    3: "a^2 + b*c + a*d + d^2",
    4: "a^2 + 2*b*c + d^2",
    5: "a^4 + 3*a^2*b*c + b^2*c^2 + a^3*d + 4*a*b*b*d + a^2*d^2 + 3*b*c*d^2"
       " + a*d^3 + d^4",
    6: "3*b*c + a^2 - a*d + d^2",
    7: "8*c*a^3*b*d + 9*c*a^2*b*d^2 + 6*c^2*a^2*b^2 + 9*c^2*a*b^2*d + a^6"
       " + 8*c*a*b*d^3 + 5*a^4*b*c + c^3*b^3 + 6*c^2*b^2*d^2 + 5*d^4*c*b"
       " + d*a^5 + d^2*a^4 + d^3*a^3 + d^4*a^2 + d^5*a + d^6",
    8: "2*c^2*b^2 + a^4 + d^4 + 4*a^2*b*c + 4*d*a*b*c + 4*c*b*d^2",
    9: "c^3*b^3 + 9*c^2*b^2*d^2 + 15*c^2*a*b^2*d + 9*c^2*a^2*b^2 + 6*c*a^3*b*d"
       " + 6*d^4*c*b + 3*c*a^2*b*d^2 + 6*a^4*b*c + 6*c*a*b*d^3 + d^6 + a^6"
       " + d^3*a^3",
    10: "5*c^2*b^2 - d*a^3 + d^2*a^2 + 5*c*b*d^2 + 5*a^2*b*c - d^3*a + d^4 + a^4",
}


def published_condition(n: int) -> SymPoly:
    if n not in PUBLISHED_TABLE:
        raise DomainError(f"no published row for n = {n}")
    return parse_sympoly(PUBLISHED_TABLE[n], ABCD)


def reference_table_diff(n: int) -> dict:
    """Monomial-level diff of cycle_condition(n) against the published row."""
    ours = cycle_condition(n).monomials()
    ref = published_condition(n).monomials()
    only_ours = {e: c for e, c in ours.items() if ref.get(e) != c}
    only_ref = {e: c for e, c in ref.items() if ours.get(e) != c}
    return {
        "n": n,
        "matches": not only_ours and not only_ref,
        "computed_only": {_mono_str(e): c for e, c in sorted(only_ours.items())},
        "published_only": {_mono_str(e): c for e, c in sorted(only_ref.items())},
    }


def _mono_str(e: tuple[int, ...]) -> str:
    return format_terms({e: GR_ONE}, ABCD)


# -- symbolic matrix powers (for the consistency identities) -----------------------


def symbolic_power_entries(n: int) -> tuple[SymPoly, SymPoly, SymPoly, SymPoly]:
    """Entries (a_n, b_n, c_n, d_n) of [[a,b],[c,d]]^n as SymPolys."""
    a = SymPoly.var(ABCD, "a")
    b = SymPoly.var(ABCD, "b")
    c = SymPoly.var(ABCD, "c")
    d = SymPoly.var(ABCD, "d")
    cur = (a, b, c, d)
    for _ in range(n - 1):
        pa, pb, pc, pd = cur
        cur = (
            pa * a + pb * c,
            pa * b + pb * d,
            pc * a + pd * c,
            pc * b + pd * d,
        )
    return cur


# -- Cayley digraphs from Mobius generators ----------------------------------------


def cayley_mobius(generators: list[Mobius]) -> tuple[BiPoly, complex]:
    """Product polynomial of the generators plus a non-singular sample seed.

    The seed is drawn from a fixed-seed generator on the annulus
    1 <= |u| <= 2 and rejected while it lies within ``probe.SEED_MARGIN``
    of a singular vertex of any factor.  Reading a factor's singular
    vertices analyzes it, so a generator whose polynomial is not standard
    raises NotStandardError there.
    """
    if not generators:
        raise DomainError("need at least one generator")
    phi = BiPoly.constant(GR_ONE)
    bad: list[complex] = []
    for g in generators:
        factor = to_poly(g)
        phi = phi * factor
        bad.extend(singular_vertex_values(factor))
    (seed,) = _sample_seeds(bad, 1, 1.0, 2.0, 20250808)
    return phi, seed


def mobius_rotation(n: int) -> Mobius:
    """z -> w z with w a primitive n-th root of unity (exact for n in 1,2,4)."""
    if n == 4:
        w: object = GaussRat.of(0, 1)
    elif n == 2:
        w = GaussRat.of(-1)
    elif n == 1:
        w = GaussRat.of(1)
    else:
        w = cmath.exp(2j * cmath.pi / n)
    one = GR_ONE if is_exact(w) else 1.0
    zero = GaussRat.of(0) if is_exact(w) else 0.0
    return Mobius(w, zero, zero, one)


def mobius_inversion(k=2) -> Mobius:
    """z -> k/z."""
    if isinstance(k, int):
        k = GaussRat.of(k)
    one = GR_ONE if is_exact(k) else 1.0
    zero = GaussRat.of(0) if is_exact(k) else 0.0
    return Mobius(zero, k, one, zero)
