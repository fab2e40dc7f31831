"""Symmetric total-degree-2 polynomials x^2 + y^2 + a xy + b(x+y) + c.

Walking a component is the linear recurrence v_{n+1} = -a v_n - v_{n-1} - b
(sum of the two roots of Phi(v_n, y)).  Its characteristic roots w, 1/w
multiply to 1, so components close into n-cycles exactly when w is a
primitive n-th root of unity, i.e. a = 2 cos(2 pi k / n) with gcd(k, n) = 1;
otherwise every non-singular component is a double ray.  The b shift is
removed by the affine move x -> x - b/(a+2) whenever a != -2.

The same cosine witness gives a Mobius map's projective order
(moebius.projective_order): the ratio rho of its matrix's eigenvalues has
rho + 1/rho = v = trace^2/det - 2, and rho is a primitive n-th root of unity
exactly when v = 2 cos(2 pi k / n) with gcd(k, n) = 1.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from .analyzer import analyze, require_standard
from .bipoly import BiPoly
from .errors import DomainError
from .scalars import GR_ONE, GaussRat, is_exact

COS_TOL = 1e-9
DEFAULT_NMAX = 512
# Two candidate angles k/n != k'/n' with n, n' <= n_max are at least
# 1/n_max**2 apart.  Above COS_TOL**-0.5 that gap is below the tolerance,
# which then no longer tells neighbouring candidates apart; and as every
# angle lies within 1/(n * n_max) of some k/n with n <= n_max (Dirichlet),
# ever more irrational angles find a witness as n_max grows.  A float scan
# takes n_max up to this bound only.
NMAX_SEPARATED = math.isqrt(round(1 / COS_TOL))
_CASE_TOL = 1e-12  # float a within this of -2 or 2 takes that case
_AMBIG_BAND = 10.0


class QuadCase(enum.Enum):
    A_MINUS_2 = "AMinus2"
    A_PLUS_2 = "APlus2"
    GENERIC = "Generic"


class QuadShape(enum.Enum):
    CYCLE = "Cycle"
    DOUBLE_RAY = "DoubleRay"


@dataclass(frozen=True)
class QuadReport:
    case: QuadCase
    loops: tuple[complex, ...]
    double_arc_origins: tuple[complex, ...]
    singular_components_finite: bool
    verdict: QuadShape | None = None
    cosine_witness: tuple[int, int] | None = None
    numerically_ambiguous: bool = False
    # The length of the cycles the explorer actually finds: the cosine
    # witness (n, k) names the angle with a = 2 cos(2 pi k / n), but the
    # characteristic roots are -exp(+-2 pi i k / n), whose multiplicative
    # order is 2n / gcd(n + 2k, 2n).  The two coincide only when 4 | n.
    component_cycle_length: int | None = None

    def as_json(self) -> dict:
        return {
            "case": self.case.value,
            "loops": [[z.real, z.imag] for z in self.loops],
            "double_arc_origins": [[z.real, z.imag] for z in self.double_arc_origins],
            "singular_components_finite": self.singular_components_finite,
            "verdict": None
            if self.verdict is None
            else (
                f"Cycle({self.cosine_witness[0]})"
                if self.verdict is QuadShape.CYCLE
                else "DoubleRay"
            ),
            "cosine_witness": list(self.cosine_witness) if self.cosine_witness else None,
            "component_cycle_length": self.component_cycle_length,
            "numerically_ambiguous": self.numerically_ambiguous,
        }


@dataclass(frozen=True)
class QuadSym:
    """Coefficients of x^2 + y^2 + a xy + b(x+y) + c; standard by construction."""

    a: object
    b: object
    c: object

    def __post_init__(self):
        require_standard(analyze(self.as_bipoly()))

    def as_bipoly(self) -> BiPoly:
        return BiPoly.make(
            {
                (2, 0): GR_ONE,
                (0, 2): GR_ONE,
                (1, 1): self.a,
                (1, 0): self.b,
                (0, 1): self.b,
                (0, 0): self.c,
            }
        )

    @property
    def mode(self) -> str:
        return "exact" if all(is_exact(v) for v in (self.a, self.b, self.c)) else "float"


def _case_of(a) -> QuadCase:
    if is_exact(a):
        if a == GaussRat.of(-2):
            return QuadCase.A_MINUS_2
        if a == GaussRat.of(2):
            return QuadCase.A_PLUS_2
        return QuadCase.GENERIC
    ca = complex(a)
    if abs(ca + 2) <= _CASE_TOL:
        return QuadCase.A_MINUS_2
    if abs(ca - 2) <= _CASE_TOL:
        return QuadCase.A_PLUS_2
    return QuadCase.GENERIC


def normalize(q: QuadSym) -> QuadSym:
    """Shift away the linear term: b -> 0, c -> c - b^2/(a+2); needs a != -2."""
    if _case_of(q.a) is QuadCase.A_MINUS_2:
        raise DomainError("a = -2 has no normalizing shift; handled directly")
    if q.mode == "exact":
        return QuadSym(q.a, GaussRat.of(0), _shifted_c(q))
    return QuadSym(complex(q.a), 0.0, _shifted_c(q))


def _shifted_c(q: QuadSym):
    """c - b^2/(a+2), the constant term after the normalizing shift, in q's
    own arithmetic (exact or complex doubles)."""
    if q.mode == "exact":
        return q.c - q.b * q.b / (q.a + GaussRat.of(2))
    a, b, c = complex(q.a), complex(q.b), complex(q.c)
    return c - b * b / (a + 2)


def shift_amount(q: QuadSym) -> complex:
    """Vertices of the normalized digraph map to u - b/(a+2) in the original."""
    return complex(q.b) / (complex(q.a) + 2.0)


def recurrence_orbit(q: QuadSym, v0: complex, v1: complex, steps: int) -> list[complex]:
    """[v_0 .. v_steps] with v_{n+1} = -a v_n - v_{n-1} - b; seed must be an arc."""
    val = q.as_bipoly().eval(complex(v0), complex(v1))
    scale = max(1.0, abs(complex(v0)), abs(complex(v1))) ** 2
    if abs(complex(val)) > 1e-6 * scale:
        raise DomainError(
            "seed pair is not an arc: Phi(v0, v1) != 0", residual=abs(complex(val))
        )
    a, b = complex(q.a), complex(q.b)
    orbit = [complex(v0), complex(v1)]
    for _ in range(steps - 1):
        orbit.append(-a * orbit[-1] - orbit[-2] - b)
    return orbit[: steps + 1]


def cosine_recognize(a, n_max: int = DEFAULT_NMAX):
    """Least (n, k) with a = 2 cos(2 pi k / n), gcd(k, n) = 1, or None.

    Exact rational a only matches for a in {0, 1, -1} (plus the excluded
    +-2).  For float a, the candidates are the convergents k/n of
    theta = arccos(a/2) / (2 pi) with n <= n_max, in rising n, and the first
    that re-checks within COS_TOL is the witness.  Each witness is a
    convergent (Legendre's theorem), but the best approximation of theta
    with denominator <= n_max can be a later convergent that is also within
    tolerance, so the scan starts from the least n rather than the best.
    A float a with n_max above NMAX_SEPARATED raises DomainError.
    """
    return _cosine_scan(a, n_max)[0]


def _cosine_scan(a, n_max: int) -> tuple[tuple[int, int] | None, bool]:
    """(cosine_recognize(a, n_max), near miss): the near miss is True when a
    float a is not recognized but some candidate misses only by the
    uncertainty band _AMBIG_BAND."""
    if is_exact(a):
        if not a.is_real():
            return None, False
        table = {
            Fraction(0): (4, 1),
            Fraction(1): (6, 1),
            Fraction(-1): (3, 1),
        }
        witness = table.get(a.re)
        return (witness if witness and witness[0] <= n_max else None), False
    if n_max > NMAX_SEPARATED:
        raise DomainError(
            "n_max is beyond the cosine tolerance's reach", n_max=n_max, limit=NMAX_SEPARATED
        )
    ca = complex(a)
    if abs(ca.imag) > COS_TOL * _AMBIG_BAND or not -1.0 < ca.real / 2.0 < 1.0:
        return None, False
    theta = math.acos(ca.real / 2.0) / (2 * math.pi)  # in (0, 1/2)
    # Euclid's algorithm on the double's exact ratio yields the partial
    # quotients q; the convergents k/n come out in lowest terms.
    num, den = theta.as_integer_ratio()
    k_prev, n_prev, k, n = 0, 1, 1, 0
    near = False
    while den:
        q, rem = divmod(num, den)
        k_prev, n_prev, k, n = k, n, q * k + k_prev, q * n + n_prev
        if n > n_max:
            break
        if n >= 3:
            err = abs(2 * math.cos(2 * math.pi * k / n) - ca.real)
            if err <= COS_TOL * (1 + abs(ca)):
                if abs(ca.imag) <= COS_TOL:
                    return (n, k), False
            elif err <= COS_TOL * _AMBIG_BAND * (1 + abs(ca)):
                near = True
        num, den = den, rem
    return None, near


def singular_inventory_quad(q: QuadSym) -> QuadReport:
    """Loops and double-arc origins by case, via the closed-form locations."""
    return _inventory(q, cosine_recognize(q.a))


def _inventory(q: QuadSym, witness: tuple[int, int] | None) -> QuadReport:
    """The singular inventory of q, where witness is the cosine witness of q.a
    (read in the generic case only)."""
    case = _case_of(q.a)
    finite = True
    if case is QuadCase.A_MINUS_2:
        b, c = complex(q.b), complex(q.c)
        if abs(b) == 0:
            loops: tuple[complex, ...] = ()
            doubles: tuple[complex, ...] = ()
        else:
            loops = (-c / (2 * b),)
            doubles = ((b * b - 4 * c) / (8 * b),)
            finite = False
        return QuadReport(case, loops, doubles, singular_components_finite=finite)

    shift = shift_amount(q)
    a, c = complex(q.a), complex(_shifted_c(q))
    if case is QuadCase.A_PLUS_2:
        root = cmath.sqrt(-c) / 2.0
        loops = (root - shift, -root - shift)
        return QuadReport(case, loops, (), singular_components_finite=False)

    if abs(c) == 0:
        return QuadReport(case, (-shift,), (), singular_components_finite=True)
    loop_root = cmath.sqrt(-c / (a + 2))
    double_root = 2 * cmath.sqrt(c / (a * a - 4))
    return QuadReport(
        case,
        (loop_root - shift, -loop_root - shift),
        (double_root - shift, -double_root - shift),
        singular_components_finite=witness is not None,
        cosine_witness=witness,
    )


def classify_deg2(q: QuadSym, n_max: int = DEFAULT_NMAX) -> QuadReport:
    """Full verdict: Cycle(n) on a cosine witness, DoubleRay otherwise."""
    witness, ambiguous = _cosine_scan(q.a, n_max)
    inventory = _inventory(q, witness)
    if inventory.case is not QuadCase.GENERIC:
        return replace(inventory, verdict=QuadShape.DOUBLE_RAY)
    return replace(
        inventory,
        verdict=QuadShape.CYCLE if witness else QuadShape.DOUBLE_RAY,
        cosine_witness=witness,
        numerically_ambiguous=ambiguous,
        component_cycle_length=component_cycle_length(*witness) if witness else None,
    )


def component_cycle_length(n: int, k: int) -> int:
    """Order of -exp(2 pi i k / n): the cycle length the explorer observes."""
    return 2 * n // math.gcd(n + 2 * k, 2 * n)


def characteristic_roots(q: QuadSym) -> tuple[complex, complex]:
    """Roots w1, w2 = 1/w1 of lambda^2 + a lambda + 1."""
    a = complex(q.a)
    r = cmath.sqrt(a * a - 4)
    return (-a + r) / 2, (-a - r) / 2
