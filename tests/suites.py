"""The randomized property suites, shared by the module tests and the
acceptance gate.  Each function runs its full advertised instance count
with a fixed seed and raises AssertionError on the first violation.
"""

from __future__ import annotations

import random

import numpy as np

from polygraph import (
    BiPoly,
    FiniteDigraph,
    GaussRat,
    analyze,
    one_factorization,
    poly_from_roots,
    rootfind,
    roots,
)
from polygraph.moebius import ABCD, _u_te, symbolic_power_entries
from polygraph.sympoly import SymPoly
from polygraph.unipoly import from_roots as expand_roots


def deg1_standardness_equivalence(count: int = 500, seed: int = 101) -> int:
    """analyze((cx+d)y-(ax+b)).is_standard matches the closed-form predicate."""
    rng = random.Random(seed)
    checked = 0
    for _ in range(count):
        a, b, c, d = (GaussRat.of(rng.randint(-4, 4)) for _ in range(4))
        phi = BiPoly.make({(1, 1): c, (0, 1): d, (1, 0): -a, (0, 0): -b})
        expected = bool(a * d - b * c) and not (not b and not c and a == d)
        if phi.is_zero or (phi.deg_x <= 0 and phi.deg_y <= 0):
            expected = False
        got = analyze(phi).is_standard
        assert got == expected, (str(phi), got, expected)
        checked += 1
    return checked


def leading_coeff_divides_discriminant(count: int = 200, seed: int = 11) -> int:
    """a_d(x) divides D(x) exactly for random standard exact polynomials."""
    rng = random.Random(seed)
    done = 0
    while done < count:
        entries = {}
        for i in range(4):
            for j in range(4):
                if rng.random() < 0.6:
                    entries[(i, j)] = GaussRat.of(rng.randint(-5, 5))
        phi = BiPoly.make(entries)
        if phi.deg_y < 1 or phi.deg_x < 1:
            continue
        report = analyze(phi)
        if not report.is_standard:
            continue
        a_d = phi.coeff_polys("y")[phi.deg_y]
        assert a_d.divides(report.D), (str(phi), str(a_d), str(report.D))
        done += 1
    return done


def power_entry_identities(n_max: int = 12) -> int:
    """c_n/c = b_n/b = (d_n - a_n)/(d - a) = U_n as exact polynomial identities."""
    a = SymPoly.var(ABCD, "a")
    b = SymPoly.var(ABCD, "b")
    c = SymPoly.var(ABCD, "c")
    d = SymPoly.var(ABCD, "d")
    for n in range(2, n_max + 1):
        an, bn, cn, dn = symbolic_power_entries(n)
        un = _u_te(n).substitute({"t": a + d, "e": a * d - b * c}, ABCD)
        assert cn.divexact(c).terms == un.terms, n
        assert bn.divexact(b).terms == un.terms, n
        assert (dn - an).divexact(d - a).terms == un.terms, n
    return n_max - 1


def root_residuals(p, pairs) -> tuple[list[float], float]:
    """|p(v)| at each root value v of the (value, multiplicity) pairs, by
    Horner in floats, and the Horner evaluation-noise bound for |p| at the
    largest |v|."""
    row = np.array([p.to_float().coeffs], dtype=complex)
    vals = np.array([[v for v, _ in pairs]], dtype=complex).reshape(1, -1)
    residuals = np.abs(rootfind._horner(row, vals))[0].tolist()
    bound = float(np.max(rootfind._noise(row, np.abs(vals)), initial=1e-300))
    return residuals, bound


def root_reconstruction(count: int = 200, seed: int = 7, tol: float = 1e-8) -> int:
    """poly_from_roots(roots(p)) matches p coefficientwise within tol."""
    rng = random.Random(seed)
    for trial in range(count):
        n = rng.randint(1, 12)
        values: list[complex] = []
        while len(values) < n:
            cand = complex(rng.uniform(-5, 5), rng.uniform(-5, 5))
            if all(abs(cand - r) > 0.25 for r in values):
                values.append(cand)
        lead = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        p = expand_roots(values, lead, "y")
        pairs = roots(p)
        q = poly_from_roots(pairs, p.coeffs[-1], "y")
        scale = max(abs(complex(p.coeff(k))) for k in range(n + 1))
        worst = max(
            abs(complex(q.coeff(k)) - complex(p.coeff(k))) for k in range(n + 1)
        )
        assert worst <= tol * scale, (trial, worst / scale)
        assert sum(m for _, m in pairs) == n
        residuals, bound = root_residuals(p, pairs)
        for r in residuals:
            assert r <= bound
    return count


def factorization_partition(count: int = 100, seed: int = 23) -> int:
    """d rounds of matching produce bijections that partition the arc multiset."""
    rng = random.Random(seed)
    done = 0
    while done < count:
        n = rng.randint(2, 8)
        d = rng.randint(1, min(4, n))
        perms = []
        for _ in range(d):
            perm = list(range(n))
            rng.shuffle(perm)
            perms.append(perm)
        arcs = [(u, perm[u]) for perm in perms for u in range(n)]
        graph = FiniteDigraph.on_integers(n, arcs)
        fac = one_factorization(graph)
        assert len(fac.factors) == d
        for perm in fac.factors:
            assert sorted(perm) == list(range(n)), perm
        recovered = sorted((u, perm[u]) for perm in fac.factors for u in range(n))
        assert recovered == sorted(arcs)
        done += 1
    return done
