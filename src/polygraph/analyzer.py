"""Standardness analysis of a bivariate polynomial and its singular vertices.

For Phi(x,y) = sum a_i(x) y^i = sum b_j(y) x^j the report carries:

* A = gcd(a_0..a_d): roots are universal source vertices,
* B = gcd(b_0..b_e): roots are universal sink vertices,
* D = Res_y(Phi, dPhi/dy) and E = Res_x(Phi, dPhi/dx): zero iff Phi has a
  repeated factor in that variable; their roots locate defective vertices
  and multiple-arc endpoints.  Both come from Phi's own coefficients
  (`BiPoly.resultant_with_derivative`), and so does the rounding bound of
  a float Phi (`unipoly.sylvester_norm`): an analysis builds no dPhi,
* L(x) = Phi(x,x), the rows summed in one pass: roots are the loop vertices,
* S = L*D*E: the singular vertices are its roots.  The verdict does not
  read it, so S is computed on first read.

A symmetric Phi(x, y) = Phi(y, x) (`BiPoly.is_symmetric`) has its columns
for rows, so its B and E are A and D renamed, computed once, and D is
solved once for both.

A float Phi is analyzed on its exact binary value (`BiPoly.to_exact`): the
verdict is the exact one, so scaling Phi by c changes it only through the
rounding of the scaled coefficients (not at all for c a power of two), and
its A, B, D, E and L are the float images of the exact polynomials.
Its report is flagged numerically_uncertain when D, E or L lies within
what moving each coefficient of Phi by one rounding unit can change it by,
so that a neighbouring float Phi could get a different verdict.  The
report keeps the exact L, D and E too, and the singular vertices are
solved on them, each scaled by the power of two that brings its largest
coefficient part into [1, 2): an image that underflows to 0 still has the
roots of its exact polynomial.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction

from .bipoly import BiPoly
from .errors import DomainError, ExactArithmeticRequired, NotStandardError
from .rootfind import roots_batch, sorted_pairs
from .scalars import GR_ONE
from .textio import format_unipoly
from .unipoly import UniPoly, cached, sylvester_norm

_ROUNDING_UNIT = Fraction(1, 2**53)  # of a double, relative


class Failure(enum.Enum):
    CONSTANT = "Constant"
    UNIVERSAL_SOURCE = "UniversalSource"
    UNIVERSAL_SINK = "UniversalSink"
    NON_RADICAL_Y = "NonRadicalY"
    NON_RADICAL_X = "NonRadicalX"
    LOOP_EVERYWHERE = "LoopEverywhere"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class StandardReport:
    """The polynomials A, B, D, E and L and the verdict they give.

    S is not a field: it is computed on first read, so equal reports stay
    equal whether or not S was read.  `exact` holds the exact L, D and E,
    which the float images of a float Phi's report may have lost to
    underflow; it takes no part in comparison.
    """

    A: UniPoly
    B: UniPoly
    D: UniPoly
    E: UniPoly
    L: UniPoly
    deg_y: int
    deg_x: int
    is_standard: bool
    failure_reasons: tuple[Failure, ...]
    exact: tuple[UniPoly, UniPoly, UniPoly] = field(compare=False, repr=False)
    numerically_uncertain: bool = False

    @cached
    def S(self) -> UniPoly:
        """L*D*E, whose roots are the singular vertices, when the report is
        standard; the zero polynomial otherwise.  A float product beyond the
        float range raises EvaluationOverflow."""
        if not self.is_standard:
            return UniPoly.zero("x")
        return self.L * self.D * self.E.rename("x")

    def as_json(self) -> dict:
        return {
            "is_standard": self.is_standard,
            "failure_reasons": [str(f) for f in self.failure_reasons],
            "degY": self.deg_y,
            "degX": self.deg_x,
            "A": format_unipoly(self.A),
            "B": format_unipoly(self.B),
            "D": format_unipoly(self.D),
            "E": format_unipoly(self.E),
            "L": format_unipoly(self.L),
            "S": format_unipoly(self.S),
            "numerically_uncertain": self.numerically_uncertain,
        }


@dataclass(frozen=True)
class SingularInventory:
    loops: tuple[tuple[complex, int], ...]
    multi_arc_origins: tuple[complex, ...]
    multi_arc_ends: tuple[complex, ...]
    out_defective: tuple[complex, ...]
    in_defective: tuple[complex, ...]
    numerically_uncertain: bool = False

    def all_vertices(self) -> list[complex]:
        out = [v for v, _ in self.loops]
        out += list(self.multi_arc_origins) + list(self.multi_arc_ends)
        out += list(self.out_defective) + list(self.in_defective)
        return out

    def is_empty(self) -> bool:
        return not self.all_vertices()


class StepKind(enum.Enum):
    TOOK_RADICAL = "TookRadical"
    REMOVED_LOOP_FACTOR = "RemovedLoopFactor"


@dataclass(frozen=True)
class AppliedStep:
    kind: StepKind
    count: int = 0


# -- rounding bounds ----------------------------------------------------------


def _norm1(phi: BiPoly) -> Fraction:
    """The sum of |re| + |im| over the coefficients of an exact phi."""
    return sum((r.norm1() for r in phi.rows), Fraction(0))


def _resultant_bound(phi: BiPoly, var: str) -> Fraction:
    """How far moving each coefficient of an exact phi by one rounding unit
    can move each coefficient of Res_var(phi, dphi/dvar), to first order,
    where phi has degree d >= 1 in var: (2d - 1) units times
    `unipoly.sylvester_norm`, read off phi's coefficients in var, so no
    dphi is built.  Like the resultant, it is homogeneous of degree 2d - 1
    in phi."""
    return (2 * phi.degree(var) - 1) * _ROUNDING_UNIT * sylvester_norm(phi.coeff_polys(var))


# -- analysis -----------------------------------------------------------------


def analyze(phi: BiPoly) -> StandardReport:
    """Full standardness diagnosis; never raises on bad polynomials.

    A float phi is decided on its exact binary value, and the report holds
    the float images of A, B, D, E and L: an image beyond the float range
    raises EvaluationOverflow.
    """
    exact = phi.to_exact()
    if exact.is_constant():
        zero, zero_y = UniPoly.zero("x"), UniPoly.zero("y")
        return StandardReport(
            A=zero, B=zero_y, D=zero, E=zero_y, L=zero,
            deg_y=max(phi.deg_y, 0), deg_x=max(phi.deg_x, 0),
            is_standard=False, failure_reasons=(Failure.CONSTANT,), exact=(zero, zero, zero_y),
        )

    A = exact.content("y")
    D = exact.resultant_with_derivative("y")
    if exact.is_symmetric:  # Phi's columns are its rows
        B, E = A.rename("y"), D.rename("y")
    else:
        B = exact.content("x")
        E = exact.resultant_with_derivative("x")
    L = exact.diagonal()
    exact_lde = L, D, E
    checks = (
        (A.degree > 0, Failure.UNIVERSAL_SOURCE),
        (B.degree > 0, Failure.UNIVERSAL_SINK),
        (D.is_zero, Failure.NON_RADICAL_Y),
        (E.is_zero, Failure.NON_RADICAL_X),
        (L.is_zero, Failure.LOOP_EVERYWHERE),
    )
    failures = tuple(f for failed, f in checks if failed)
    uncertain = False
    if phi.mode == "float":
        # Is D, E or L within what a rounding unit on each coefficient can
        # move it by?  Each coefficient's max(|re|, |im|), at most its
        # modulus, is read, so the flag errs towards set; a zero D, E or L
        # is within any bound.
        uncertain = (
            (exact.deg_y > 0 and D.max_part() <= _resultant_bound(exact, "y"))
            or (exact.deg_x > 0 and E.max_part() <= _resultant_bound(exact, "x"))
            or L.max_part() <= _ROUNDING_UNIT * _norm1(exact)
        )
        A, B, D, E, L = (p.to_float() for p in (A, B, D, E, L))

    return StandardReport(
        A=A, B=B, D=D, E=E, L=L,
        deg_y=phi.deg_y, deg_x=phi.deg_x,
        is_standard=not failures,
        failure_reasons=failures,
        exact=exact_lde,
        numerically_uncertain=uncertain,
    )


def require_standard(report: StandardReport) -> StandardReport:
    """The report itself when it is standard; the one not-standard gate."""
    if not report.is_standard:
        raise NotStandardError(
            "requires a standard polynomial", reasons=report.failure_reasons
        )
    return report


def _unit_image(p: UniPoly) -> UniPoly:
    """The float image of the exact p scaled by the power of two that
    brings its largest coefficient part into [1, 2).  The scale leaves the
    roots alone, and where p's own image neither underflows nor overflows
    it is that image scaled exactly."""
    if p.is_zero:
        return p
    top = p.max_part()
    e = top.numerator.bit_length() - top.denominator.bit_length()
    if Fraction(2) ** e > top:
        e -= 1
    return p.scale(Fraction(2) ** -e).to_float()


def _singular_roots(report: StandardReport, heads: list[UniPoly]) -> list[list[complex]]:
    """Distinct roots of each exact polynomial of heads, then of D and of E,
    from one `roots_batch` call on the unit images of their squarefree
    parts.  E equal to D (a symmetric Phi) is solved once."""
    _, D, E = report.exact
    same = E.rename("x") == D
    factors = [p.squarefree_part() for p in heads + ([D] if same else [D, E])]
    found = [[v for v, _ in pairs] for pairs in roots_batch([_unit_image(p) for p in factors])]
    return found + found[-1:] if same else found


def singular_inventory(phi: BiPoly, report: StandardReport) -> SingularInventory:
    """Classified singular vertices of a standard polynomial.

    Loops and defective vertices are decided on Phi's exact value: the loop
    at u has the multiplicity of y = u in Phi(u, y), and the out- (in-)
    defective vertices are the roots of Phi's leading coefficient a_d (b_e)
    in y (x).  A root of D (E) is a multi-arc origin (end) where its row
    Phi(u, y) (Phi(x, u)) has a multiple root: the rows decide, not D,
    because where a_d and a_(d-1) both vanish D is 0 though no finite root
    need be multiple.  Each factor's rows come from one `explorer.neighbors`
    call, and a symmetric Phi whose E has D's roots reads its in-rows off
    its out-rows.
    """
    from .explorer import neighbors

    require_standard(report)
    exact, pf = phi.to_exact(), phi.to_float()
    # With g_1 the squarefree part of L and g_(j+1) = gcd(g_j, the diagonal
    # of d^j Phi / dy^j), the loops of multiplicity j are the roots of
    # g_j / g_(j+1).  A standard Phi(u, y) is not 0, so g_j is constant by
    # j = deg_y + 1.
    g, dphi, parts = report.exact[0].squarefree_part(), exact, []
    while g.degree > 0:
        dphi = dphi.derivative("y")
        nxt = g.gcd(dphi.diagonal())
        parts.append(g.divexact(nxt))
        g = nxt
    a_d, b_e = exact.coeff_polys("y")[-1], exact.coeff_polys("x")[-1]
    *loop_roots, out_def, in_def, d_roots, e_roots = _singular_roots(report, parts + [a_d, b_e])
    loops = sorted_pairs([(u, j) for j, us in enumerate(loop_roots, 1) for u in us])

    out_rows = neighbors(pf, d_roots, "x")
    # A symmetric Phi's in-row Phi(x, u) is its out-row Phi(u, y) bit for bit.
    same = pf.is_symmetric and e_roots == d_roots
    in_rows = out_rows if same else neighbors(pf, e_roots, "y")
    multi_orig = [u for u, row in zip(d_roots, out_rows) if any(m >= 2 for _, m in row)]
    multi_end = [u for u, row in zip(e_roots, in_rows) if any(m >= 2 for _, m in row)]

    return SingularInventory(
        loops=tuple(loops),
        multi_arc_origins=tuple(multi_orig),
        multi_arc_ends=tuple(multi_end),
        out_defective=tuple(out_def),
        in_defective=tuple(in_def),
        numerically_uncertain=report.numerically_uncertain,
    )


def singular_vertex_values(phi: BiPoly, report: StandardReport | None = None) -> list[complex]:
    """Distinct roots of S = L*D*E, the singular vertices (float values).

    L, D and E are solved as separate rows of one batch: one root call on
    the product would face degree deg L + deg D + deg E and every multiple
    root at once.  A root within 1e-6 * |v| of a value v already listed is
    v, a bound relative to v alone, so distinct roots near 0 stay apart.
    """
    report = require_standard(report if report is not None else analyze(phi))
    vals: list[complex] = []
    for us in _singular_roots(report, [report.exact[0]]):
        for u in us:
            if all(abs(u - v) > 1e-6 * abs(v) for v in vals):
                vals.append(u)
    return sorted(vals, key=lambda z: (z.real, z.imag))


def standardize(phi: BiPoly) -> tuple[BiPoly, list[AppliedStep]]:
    """Strip repeated factors and y-x factors; exact mode only.

    Returns the standardized polynomial and a machine-readable step log.
    Raises when the input is constant, has universal vertices, or nothing
    remains after removing y-x factors.
    """
    if phi.mode != "exact":
        raise ExactArithmeticRequired("standardize requires exact scalars")
    if phi.is_constant():
        raise DomainError("cannot standardize a constant polynomial")
    report = analyze(phi)
    if Failure.UNIVERSAL_SOURCE in report.failure_reasons:
        raise NotStandardError(
            "universal source vertices present", reasons=(Failure.UNIVERSAL_SOURCE,)
        )
    if Failure.UNIVERSAL_SINK in report.failure_reasons:
        raise NotStandardError(
            "universal sink vertices present", reasons=(Failure.UNIVERSAL_SINK,)
        )

    steps: list[AppliedStep] = []
    work = phi
    rad = work.squarefree_part()
    if rad is not work:  # squarefree_part returns a radical input itself
        work = rad
        steps.append(AppliedStep(StepKind.TOOK_RADICAL))

    y_minus_x = BiPoly.make({(0, 1): GR_ONE, (1, 0): -GR_ONE})
    removed = 0
    while work.diagonal().is_zero:
        work = work.divexact_y(y_minus_x)
        removed += 1
        if work.is_constant():
            raise DomainError(
                "nothing remains after removing y-x factors", removed=removed
            )
    if removed:
        steps.append(AppliedStep(StepKind.REMOVED_LOOP_FACTOR, removed))

    if steps:
        work = work.normalized()
    require_standard(analyze(work))
    return work, steps
