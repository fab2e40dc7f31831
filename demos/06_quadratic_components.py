"""Symmetric degree-2 polynomials: cycles versus double rays.

Components of x^2 + y^2 + a*x*y + b(x+y) + c follow the linear recurrence
v_{n+1} = -a v_n - v_{n-1} - b.  Its characteristic roots w, 1/w close the
orbit exactly when w is a root of unity.  For a = 2cos(2*pi*k/n) the roots
are -exp(+-2*pi*i*k/n), of multiplicative order 2n/gcd(n+2k, 2n): that is
the cycle length the explorer actually sees (component_cycle_length), while
the verdict keeps the published (n, k) naming convention for the angle.
"""

import math

from polygraph import (
    Budget,
    QuadSym,
    classify,
    classify_deg2,
    explore_component,
    normalize,
    out_neighbors,
    recurrence_orbit,
)
from polygraph.scalars import GaussRat

print("classification across sample coefficients (b = 0, c = 1):")
cases = [
    ("a = -1            ", GaussRat.of(-1)),
    ("a = 0             ", GaussRat.of(0)),
    ("a = 1             ", GaussRat.of(1)),
    ("a = 2cos(2pi/5)   ", 2 * math.cos(2 * math.pi / 5)),
    ("a = 2cos(6pi/7)   ", 2 * math.cos(6 * math.pi / 7)),
    ("a = 3             ", 3.0),
    ("a = 1+i           ", 1 + 1j),
]
for name, a in cases:
    q = QuadSym(a, GaussRat.of(0) if isinstance(a, GaussRat) else 0.0,
                GaussRat.of(1) if isinstance(a, GaussRat) else 1.0)
    r = classify_deg2(q)
    verdict = (f"Cycle({r.cosine_witness[0]}) seen as C_{r.component_cycle_length}"
               if r.cosine_witness else "DoubleRay")
    print(f"  {name} -> {verdict}   loops at {[f'{v:.3g}' for v in r.loops]}")

print("\nwalking a component with the recurrence (a = 2cos(2pi/5), c = 1):")
a = 2 * math.cos(2 * math.pi / 5)
q = QuadSym(a, 0.0, 1.0)
v0 = 0.3 + 0j
v1 = out_neighbors(q.as_bipoly(), v0)[0][0]
orbit = recurrence_orbit(q, v0, v1, 10)
print("  " + "  ".join(f"{v:.3f}" for v in orbit))
print(f"  v5 = -v0: {abs(orbit[5] + orbit[0]) < 1e-9};"
      f" v10 = v0: {abs(orbit[10] - orbit[0]) < 1e-9}  (a 10-cycle)")

g = explore_component(q.as_bipoly(), v0, Budget(max_vertices=100, max_depth=30))
print(f"  explorer agrees: {g.order} vertices, shape {classify(g)}")

print("\nnormalization removes the linear term:")
qb = QuadSym(GaussRat.of(0), GaussRat.of(2), GaussRat.of(0))
nq = normalize(qb)
print(f"  (a,b,c) = (0, 2, 0)  ->  (a,b,c) = ({nq.a}, {nq.b}, {nq.c})")
