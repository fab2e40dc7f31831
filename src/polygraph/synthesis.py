"""Polynomials out of digraphs and Cayley-digraph descriptions.

A finite strongly connected d-regular digraph embeds as the strong component
of G(Phi) for Phi(x,y) = (y - L_1(x))...(y - L_d(x)): split the arcs into d
spanning permutations (a 1-factorization, obtained by d rounds of bipartite
perfect matching) and interpolate each permutation on the vertex values.

Cayley digraphs on (C,+) come from Phi = f(y-x), on (C*,.) from homogeneous
products prod (y - s_i x); the named families (complete, complete bipartite,
circulant, prism, dihedral) are wrappers around the multiplicative form.
"""

from __future__ import annotations

import cmath
import enum
import json
from dataclasses import dataclass
from math import gcd

from .bipoly import BiPoly
from .errors import DomainError, RegularityError, SynthesisError
from .explorer import _reach
from .scalars import GR_ONE, GaussRat, is_exact
from .textio import format_scalar, parse_scalar
from .unipoly import UniPoly, lagrange_interpolate

_DUP_TOL = 1e-12
_FORM_TOL = 1e-9  # relative size of an x-term of the shear that counts as zero


@dataclass(frozen=True)
class FiniteDigraph:
    """Order-n digraph on exact complex vertex values; arcs may repeat."""

    values: tuple[GaussRat, ...]
    arcs: tuple[tuple[int, int], ...]

    @property
    def n(self) -> int:
        return len(self.values)

    @staticmethod
    def on_integers(n: int, arcs) -> "FiniteDigraph":
        """Default embedding 1..n when the caller has an abstract digraph."""
        return FiniteDigraph(
            tuple(GaussRat.of(k + 1) for k in range(n)),
            tuple((int(a), int(b)) for a, b in arcs),
        )

    @staticmethod
    def from_json(obj: dict) -> "FiniteDigraph":
        values = []
        for txt in obj["vertices"]:
            v = parse_scalar(str(txt))
            if not is_exact(v):
                raise SynthesisError("vertex values must be exact", value=str(txt))
            values.append(v)
        arcs = tuple((a, b) for a, b in obj["arcs"])
        for arc in arcs:
            if not all(type(e) is int for e in arc):  # not bool, float or str
                raise DomainError("arc endpoints must be ints", arc=list(arc))
        return FiniteDigraph(tuple(values), arcs)

    def as_json(self) -> dict:
        return {
            "vertices": [format_scalar(v) for v in self.values],
            "arcs": [[a, b] for a, b in self.arcs],
        }

    def dumps(self) -> str:
        return json.dumps(self.as_json(), sort_keys=True)

    def regular_degree(self) -> int:
        """The common in/out degree; raises naming the offending vertex."""
        outd = [0] * self.n
        ind = [0] * self.n
        for a, b in self.arcs:
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise SynthesisError("arc endpoint out of range", arc=[a, b])
            outd[a] += 1
            ind[b] += 1
        if self.n == 0:
            raise SynthesisError("empty digraph")
        d = outd[0]
        for v in range(self.n):
            if outd[v] != d or ind[v] != d:
                raise RegularityError(
                    f"vertex {v} has out-degree {outd[v]} and in-degree {ind[v]},"
                    f" expected {d}",
                    vertex=v,
                )
        return d

    def is_strongly_connected(self) -> bool:
        bwd = [(b, a) for a, b in self.arcs]
        return self.n > 0 and len(_reach(0, self.arcs)) == len(_reach(0, bwd)) == self.n


@dataclass(frozen=True)
class Factorization:
    factors: tuple[tuple[int, ...], ...]  # each a permutation of 0..n-1


def one_factorization(d_graph: FiniteDigraph) -> Factorization:
    """Split a d-regular arc multiset into d spanning permutations.

    Each round runs augmenting-path bipartite matching between out-copies
    and in-copies; a d-regular bipartite multigraph always has a perfect
    matching, so every round succeeds and the rounds partition the arcs.
    """
    d = d_graph.regular_degree()
    n = d_graph.n
    remaining: dict[tuple[int, int], int] = {}
    for arc in d_graph.arcs:
        remaining[arc] = remaining.get(arc, 0) + 1

    factors = []
    for _ in range(d):
        match_of_right: dict[int, int] = {}

        def try_augment(u: int, visited: set[int]) -> bool:
            for (a, b), mult in sorted(remaining.items()):
                if a != u or mult <= 0 or b in visited:
                    continue
                visited.add(b)
                if b not in match_of_right or try_augment(match_of_right[b], visited):
                    match_of_right[b] = u
                    return True
            return False

        for u in range(n):
            if not try_augment(u, set()):
                raise RegularityError(
                    "perfect matching round failed; digraph is not d-regular",
                    vertex=u,
                )
        perm = [0] * n
        for b, a in match_of_right.items():
            perm[a] = b
            remaining[(a, b)] -= 1
        factors.append(tuple(perm))
    if any(m != 0 for m in remaining.values()):
        raise RegularityError("factorization did not exhaust the arc multiset")
    return Factorization(tuple(factors))


def interpolate_factor(perm, values) -> UniPoly:
    """The unique degree < n polynomial sending values[u] to values[perm[u]]."""
    points = [(values[u], values[perm[u]]) for u in range(len(values))]
    return lagrange_interpolate(points, var="x")


def digraph_to_poly(d_graph: FiniteDigraph) -> BiPoly:
    """Phi with the digraph as the strong component of its vertex values."""
    if d_graph.n < 2:
        raise SynthesisError("need order >= 2", order=d_graph.n)
    for i in range(d_graph.n):
        for j in range(i + 1, d_graph.n):
            if d_graph.values[i] == d_graph.values[j]:
                raise SynthesisError(
                    "vertex values must be pairwise distinct", index=[i, j]
                )
    # One-factorization validates the arcs (regular_degree) before the
    # connectivity test walks them.
    factorization = one_factorization(d_graph)
    if not d_graph.is_strongly_connected():
        raise SynthesisError("digraph must be strongly connected")
    phi = BiPoly.constant(GR_ONE)
    y = BiPoly.variable("y")
    for perm in factorization.factors:
        L = interpolate_factor(perm, d_graph.values)
        phi = phi * (y - BiPoly.from_unipoly(L))
    return phi


# -- Cayley constructors ---------------------------------------------------------


def _check_generators(gens, forbidden: tuple, what: str) -> list:
    vals = list(gens)
    if not vals:
        raise SynthesisError(f"{what} needs at least one generator")
    for i, s in enumerate(vals):
        for bad in forbidden:
            if _close(s, bad):
                raise SynthesisError(
                    f"generator {i} equals {bad}, which breaks standardness",
                    index=i,
                )
        for j in range(i + 1, len(vals)):
            if _close(s, vals[j]):
                raise SynthesisError(
                    "generators must be pairwise distinct", index=[i, j]
                )
    return vals


def _close(a, b) -> bool:
    if is_exact(a) and is_exact(b):
        return a == b
    if is_exact(a) and isinstance(b, int):
        return a == GaussRat.of(b)
    return abs(complex(a) - complex(b)) <= _DUP_TOL


def cayley_additive(gens) -> BiPoly:
    """Phi(x,y) = prod (y - x - s) realizing Cay(C, {s_1..s_d})."""
    vals = _check_generators(gens, (0,), "additive Cayley")
    phi = BiPoly.constant(GR_ONE)
    for s in vals:
        phi = phi * BiPoly.make({(0, 1): GR_ONE, (1, 0): -GR_ONE, (0, 0): -s})
    return phi


def cayley_multiplicative(gens) -> BiPoly:
    """Homogeneous Phi(x,y) = prod (y - s x) realizing Cay(C*, {s_1..s_d})."""
    vals = _check_generators(gens, (0, 1), "multiplicative Cayley")
    phi = BiPoly.constant(GR_ONE)
    for s in vals:
        phi = phi * BiPoly.make({(0, 1): GR_ONE, (1, 0): -s})
    return phi


# 2*cos(2*pi/n) is rational exactly for these n.
_RATIONAL_COS = {1: 2, 2: -2, 3: -1, 4: 0, 6: 1}

# x y - 2, the factor of z -> 2/z in the prism and dihedral constructions
_SWAP = BiPoly.make({(1, 1): GR_ONE, (0, 0): GaussRat.of(-2)})


def complete_graph_poly(n: int) -> BiPoly:
    """prod_{i=1}^{n-1} (y - w^i x) = x^{n-1} + x^{n-2} y + ... + y^{n-1}, exact."""
    if n < 3:
        raise DomainError("complete graphs need n >= 3", n=n)
    return BiPoly.make({(n - 1 - j, j): GR_ONE for j in range(n)})


def bipartite_poly(d: int) -> BiPoly:
    """prod over odd powers of a primitive 2d-th root = x^d + y^d, exact."""
    if d < 1:
        raise DomainError("complete bipartite needs d >= 1", d=d)
    return BiPoly.make({(d, 0): GR_ONE, (0, d): GR_ONE})


def circulant_poly(n: int, gens: tuple[int, ...]) -> BiPoly:
    """Cay(U_n, {w^s : s in gens}); gens must generate Z_n."""
    if n < 2:
        raise DomainError("circulant digraphs need n >= 2", n=n)
    steps = sorted({s % n for s in gens})
    if not steps or 0 in steps:
        raise DomainError("generators must be nonzero mod n", gens=list(gens))
    if gcd(n, *steps) != 1:
        raise DomainError("generators do not generate Z_n", gens=list(gens))
    roots = [cmath.exp(2j * cmath.pi * s / n) for s in steps]
    return cayley_multiplicative(roots)


def prism_poly(n: int) -> BiPoly:
    """(y - w x)(y - w^{n-1} x)(x y - 2) with w a primitive n-th root of unity."""
    if n < 3:
        raise DomainError("prisms need n >= 3", n=n)
    if n in _RATIONAL_COS:
        tau: object = GaussRat.of(_RATIONAL_COS[n])
    else:
        tau = complex(2 * cmath.cos(2 * cmath.pi / n))
    ring = BiPoly.make({(0, 2): GR_ONE, (1, 1): -tau, (2, 0): GR_ONE})
    return ring * _SWAP


def dihedral_poly(n: int) -> BiPoly:
    """(y - w x)(x y - 2): Cay(D_2n, {rotation, z -> 2/z})."""
    if n < 3:
        raise DomainError("dihedral construction needs n >= 3", n=n)
    w: object = GaussRat.of(0, 1) if n == 4 else cmath.exp(2j * cmath.pi / n)
    rot = BiPoly.make({(0, 1): GR_ONE, (1, 0): -w})
    return rot * _SWAP


# -- form recognition -----------------------------------------------------------


class Form(enum.Enum):
    ADDITIVE_DIFFERENCE = "AdditiveDifference"
    HOMOGENEOUS = "Homogeneous"
    NEITHER = "Neither"


@dataclass(frozen=True)
class FormVerdict:
    form: Form
    profile: UniPoly | None = None  # the f with Phi(x,y) = f(y-x), if any


def recognize_form(phi: BiPoly) -> FormVerdict:
    """Detect Phi = f(y-x) (via the shear y -> y+x) or homogeneity."""
    if phi.is_zero:
        return FormVerdict(Form.NEITHER)
    sheared = phi.shear_y()
    if sheared.mode == "exact":
        x_free = sheared.deg_x <= 0
    else:
        scale = sheared.coeff_scale()
        x_free = all(
            abs(c) <= _FORM_TOL * scale for (i, _), c in sheared.coeffs.items() if i > 0
        )
    if x_free:
        profile = sheared.coeff_polys("x")[0].rename("s")
        return FormVerdict(Form.ADDITIVE_DIFFERENCE, profile)
    degrees = {i + j for i, j in phi.coeffs}
    if len(degrees) == 1:
        return FormVerdict(Form.HOMOGENEOUS)
    return FormVerdict(Form.NEITHER)
