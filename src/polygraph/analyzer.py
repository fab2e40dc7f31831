"""Standardness analysis of a bivariate polynomial and its singular vertices.

For Phi(x,y) = sum a_i(x) y^i = sum b_j(y) x^j the report carries:

* A = gcd(a_0..a_d): roots are universal source vertices,
* B = gcd(b_0..b_e): roots are universal sink vertices,
* D = Res_y(Phi, dPhi/dy) and E = Res_x(Phi, dPhi/dx): zero iff Phi has a
  repeated factor in that variable; their roots locate defective vertices
  and multiple-arc endpoints,
* L(x) = Phi(x,x): roots are the loop vertices,
* S = L*D*E: the singular vertices are its roots.  The verdict does not
  read it, so S is computed on first read.

Exact scalars give exact verdicts; float polynomials get the same report
with a numerically_uncertain flag whenever a zero test lands near its
tolerance.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .bipoly import BiPoly
from .errors import DomainError, ExactArithmeticRequired, NotStandardError
from .rootfind import roots as find_roots, roots_batch
from .scalars import GR_ONE
from .textio import format_unipoly
from .unipoly import UniPoly, cached, from_roots

VERTEX_TOL = 1e-7  # default classification tolerance for singular vertices
_ZERO_REL = 1e-9  # relative zero test for float-mode polynomials
_UNCERTAIN_BAND = 10.0
_LOG_BAND = math.log(_UNCERTAIN_BAND)


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
    equal whether or not S was read.
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


# -- zero tests --------------------------------------------------------------


def _relative_residual(p: UniPoly, u: complex) -> float:
    """|p(u)| / (scale * (1 + |u|)**deg p), scale the largest |coefficient|."""
    scale = max(p.coeff_scale(), 1e-300) * (1.0 + abs(u)) ** max(p.degree, 0)
    return abs(complex(p.eval(u))) / scale


class _Uncertainty:
    """Accumulates near-tolerance zero decisions for the float path."""

    def __init__(self):
        self.flagged = False

    def below(self, q: float, thr: float) -> bool:
        """Is q <= thr?  Flags q within a factor _UNCERTAIN_BAND of thr."""
        if thr / _UNCERTAIN_BAND < q <= thr * _UNCERTAIN_BAND:
            self.flagged = True
        return q <= thr

    def vanishes(self, p: UniPoly, u: complex, tol: float) -> bool:
        """Is |p(u)| at most tol relative to p's coefficients at radius |u|?"""
        return self.below(_relative_residual(p, u), tol)

    def is_zero(self, p: UniPoly, log_ref: float) -> bool:
        """Is p below _ZERO_REL * exp(log_ref)?  In logarithms, so the
        verdict does not change with the scale of Phi and cannot overflow."""
        if p.mode == "exact" or p.is_zero:
            return p.is_zero
        rel = math.log(p.coeff_scale()) - log_ref - math.log(_ZERO_REL)
        if -_LOG_BAND < rel <= _LOG_BAND:
            self.flagged = True
        return rel <= 0


def _sylvester_log_ref(log_s: float, d: int) -> float:
    """log(s^(2d-1) * 2d): D and E are (2d-1)-square Sylvester determinants
    of Phi and a derivative, so they scale as s^(2d-1)."""
    return (2 * d - 1) * log_s + math.log(max(2 * d, 1))


def _common_root_poly(polys: list[UniPoly], unc: _Uncertainty) -> UniPoly:
    """Monic polynomial of values common to all float polys (A/B substitute)."""
    nonzero = [p for p in polys if not p.is_zero]
    if not nonzero:
        return UniPoly.zero("x")
    probe = min(nonzero, key=lambda p: p.degree)
    if probe.degree == 0:
        return UniPoly.make([1.0], probe.var)
    common = []
    for v in find_roots(probe).values():
        if unc.below(max(_relative_residual(q, v) for q in polys), _ZERO_REL):
            common.append(v)
    if not common:
        return UniPoly.make([1.0], probe.var)
    return from_roots(common, 1.0, probe.var)


# -- analysis -----------------------------------------------------------------


def analyze(phi: BiPoly) -> StandardReport:
    """Full standardness diagnosis; never raises on bad polynomials."""
    unc = _Uncertainty()
    exact_mode = phi.mode == "exact"
    failures: list[Failure] = []

    if phi.is_constant():
        zero = UniPoly.zero("x")
        return StandardReport(
            A=zero, B=zero.rename("y"), D=zero, E=zero.rename("y"), L=zero,
            deg_y=max(phi.deg_y, 0), deg_x=max(phi.deg_x, 0),
            is_standard=False, failure_reasons=(Failure.CONSTANT,),
        )

    if exact_mode:
        A, B = phi.content("y"), phi.content("x")
    else:
        A = _common_root_poly(phi.coeff_polys("y"), unc)
        B = _common_root_poly(phi.coeff_polys("x"), unc).rename("y")

    if A.degree > 0:
        failures.append(Failure.UNIVERSAL_SOURCE)
    if B.degree > 0:
        failures.append(Failure.UNIVERSAL_SINK)

    dphi_y = phi.derivative("y")
    dphi_x = phi.derivative("x")
    D = phi.resultant(dphi_y, "y") if not dphi_y.is_zero else UniPoly.zero("x")
    E = phi.resultant(dphi_x, "x") if not dphi_x.is_zero else UniPoly.zero("y")
    # Exact zero tests need no scale; float(Phi's coefficients) may overflow.
    log_s = 0.0 if exact_mode else math.log(phi.coeff_scale())
    if unc.is_zero(D, _sylvester_log_ref(log_s, phi.deg_y)):
        failures.append(Failure.NON_RADICAL_Y)
        D = UniPoly.zero("x")
    if unc.is_zero(E, _sylvester_log_ref(log_s, phi.deg_x)):
        failures.append(Failure.NON_RADICAL_X)
        E = UniPoly.zero("y")

    L = phi.diagonal()
    if unc.is_zero(L, log_s):
        failures.append(Failure.LOOP_EVERYWHERE)
        L = UniPoly.zero("x")

    return StandardReport(
        A=A, B=B, D=D, E=E, L=L,
        deg_y=phi.deg_y, deg_x=phi.deg_x,
        is_standard=not failures,
        failure_reasons=tuple(failures),
        numerically_uncertain=unc.flagged,
    )


def require_standard(report: StandardReport) -> StandardReport:
    """The report itself when it is standard; the one not-standard gate."""
    if not report.is_standard:
        raise NotStandardError(
            "requires a standard polynomial", reasons=report.failure_reasons
        )
    return report


def _singular_roots(report: StandardReport) -> list[list[complex]]:
    """Distinct roots of L, D and E, one list per factor, from one
    `roots_batch` call.  An exact factor is made squarefree first, so its
    roots are simple; a constant factor has none."""
    polys = []
    for p in (report.L, report.D, report.E):
        if p.mode == "exact" and p.degree > 0:
            p = p.divexact(p.gcd(p.derivative()))
        polys.append(p)
    return [rs.values() for rs in roots_batch(polys)]


def singular_inventory(
    phi: BiPoly, report: StandardReport, tol: float = VERTEX_TOL
) -> SingularInventory:
    """Classified singular vertices of a standard polynomial.

    Each factor's rows come from one `explorer.neighbors` call: the out-rows
    Phi(u, y) at the roots of L and D, the in-rows Phi(x, u) at those of E.
    """
    from .explorer import neighbors

    require_standard(report)
    pf = phi.to_float()
    unc = _Uncertainty()
    l_roots, d_roots, e_roots = _singular_roots(report)

    loops: list[tuple[complex, int]] = []
    for u, row in zip(l_roots, neighbors(pf, l_roots, "x")):
        mult = sum(m for v, m in row if abs(v - u) <= tol * (1.0 + abs(u)))
        loops.append((u, max(mult, 1)))

    # A root of D (E) is defective where the leading coefficient in y (x)
    # vanishes, and a multi-arc origin (end) where its row has a multiple root.
    a_d = pf.coeff_polys("y")[pf.deg_y]
    b_e = pf.coeff_polys("x")[pf.deg_x]
    out_def = [u for u in d_roots if unc.vanishes(a_d, u, tol)]
    in_def = [u for u in e_roots if unc.vanishes(b_e, u, tol)]
    out_rows = neighbors(pf, d_roots, "x")
    in_rows = neighbors(pf, e_roots, "y")
    multi_orig = [u for u, row in zip(d_roots, out_rows) if any(m >= 2 for _, m in row)]
    multi_end = [u for u, row in zip(e_roots, in_rows) if any(m >= 2 for _, m in row)]

    return SingularInventory(
        loops=tuple(loops),
        multi_arc_origins=tuple(multi_orig),
        multi_arc_ends=tuple(multi_end),
        out_defective=tuple(out_def),
        in_defective=tuple(in_def),
        numerically_uncertain=report.numerically_uncertain or unc.flagged,
    )


def singular_vertex_values(phi: BiPoly, report: StandardReport | None = None) -> list[complex]:
    """Distinct roots of S = L*D*E, the singular vertices (float values).

    L, D and E are solved as separate rows of one batch: one root call on
    the product would face degree deg L + deg D + deg E and every multiple
    root at once.
    """
    report = require_standard(report if report is not None else analyze(phi))
    vals: list[complex] = []
    for us in _singular_roots(report):
        for u in us:
            if all(abs(u - v) > 1e-6 * (1 + abs(v)) for v in vals):
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
