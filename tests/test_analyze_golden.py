"""Standardness reports pinned against a stored golden file.

`tests/data/analyze_golden.json` holds, for each case below, the input
polynomial's text and `analyze(phi).as_json()`.  The exact arithmetic behind
the report (gcds, resultants, the product S = L*D*E) may change its
implementation, but every exact report must stay byte-identical: the
quotient, remainder, monic gcd and determinant are unique over Q(i).

Float-mode inputs (the circulant families and the prisms and dihedral
digraphs with irrational roots of unity) come out of FFTs and LAPACK
determinants, whose last bits depend on the numpy build; their polynomials
are also stored as coefficient lists and compared within
GOLDEN_REL_TOL * (1 + coefficient scale), everything else exactly.

The cases are a seeded set of exact polynomials (rational and Gaussian
coefficients, degrees up to (4, 4), with planted f^2*g, (y-x)*f and (x-c)*f
factors) and the named families of `polygraph.synthesis`.

Regenerate with `PYTHONPATH=src python tests/test_analyze_golden.py`.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from polygraph import (
    BiPoly,
    GaussRat,
    analyze,
    bipartite_poly,
    cayley_additive,
    cayley_multiplicative,
    circulant_poly,
    complete_graph_poly,
    dihedral_poly,
    format_bipoly,
    prism_poly,
)

GOLDEN = Path(__file__).parent / "data" / "analyze_golden.json"
GOLDEN_REL_TOL = 1e-9
SEED = 20261018
RANDOM_CASES = 120
PLANTED_PER_KIND = 30


def _scalar(rng: random.Random, kind: str) -> GaussRat:
    def part() -> Fraction:
        num = rng.randint(-9, 9)
        return Fraction(num, rng.randint(1, 6)) if kind != "integer" else Fraction(num)

    re = part() or Fraction(1)
    im = part() if kind == "gaussian" and rng.random() < 0.6 else Fraction(0)
    return GaussRat(re, im)


def _random_poly(rng: random.Random, dx: int, dy: int, kind: str) -> BiPoly:
    """A polynomial of degree exactly (dx, dy) on a random support."""
    entries = {
        (i, j): _scalar(rng, kind)
        for i in range(dx + 1)
        for j in range(dy + 1)
        if rng.random() < 0.55
    }
    entries[(dx, rng.randint(0, dy))] = _scalar(rng, kind)
    entries[(rng.randint(0, dx), dy)] = _scalar(rng, kind)
    return BiPoly.make(entries)


def _seeded_cases() -> dict:
    rng = random.Random(SEED)
    kinds = ("integer", "rational", "gaussian")
    cases = {}
    for k in range(RANDOM_CASES):
        kind = kinds[k % 3]
        dx, dy = rng.randint(0, 4), rng.randint(1, 4)
        cases[f"random_{kind}_{dx}{dy}#{k}"] = _random_poly(rng, dx, dy, kind)
    y_minus_x = BiPoly.make({(0, 1): GaussRat.of(1), (1, 0): GaussRat.of(-1)})
    for k in range(PLANTED_PER_KIND):
        kind = kinds[k % 3]
        f = _random_poly(rng, rng.randint(0, 1), 1, kind)
        g = _random_poly(rng, rng.randint(0, 2), rng.randint(0, 2), kind)
        cases[f"f2g_{kind}#{k}"] = f * f * g
        f = _random_poly(rng, rng.randint(0, 3), rng.randint(0, 3), kind)
        cases[f"yx_f_{kind}#{k}"] = y_minus_x * f
        c = _scalar(rng, kind)
        x_minus_c = BiPoly.make({(1, 0): GaussRat.of(1), (0, 0): -c})
        f = _random_poly(rng, rng.randint(0, 3), rng.randint(1, 4), kind)
        cases[f"xc_f_{kind}#{k}"] = x_minus_c * f
    return cases


def _family_cases() -> dict:
    G = GaussRat.of
    return {
        "complete_3": complete_graph_poly(3),
        "complete_5": complete_graph_poly(5),
        "bipartite_2": bipartite_poly(2),
        "bipartite_3": bipartite_poly(3),
        "circulant_4_1": circulant_poly(4, (1,)),
        "circulant_5_1_2": circulant_poly(5, (1, 2)),
        "circulant_6_1_3": circulant_poly(6, (1, 3)),
        "prism_3": prism_poly(3),
        "prism_4": prism_poly(4),
        "prism_5": prism_poly(5),
        "dihedral_3": dihedral_poly(3),
        "dihedral_4": dihedral_poly(4),
        "cayley_additive_1_2i": cayley_additive([G(1), G(0, 2)]),
        "cayley_additive_2_3": cayley_additive([G(2), G(3)]),
        "cayley_additive_half_third": cayley_additive([G(Fraction(1, 2)), G(Fraction(-1, 3), 1)]),
        "cayley_multiplicative_2": cayley_multiplicative([G(2)]),
        "cayley_multiplicative_i_3": cayley_multiplicative([G(0, 1), G(3)]),
    }


def _cases() -> dict:
    return {**_seeded_cases(), **_family_cases()}


_POLYS = ("A", "B", "D", "E", "L", "S")


def _record(phi: BiPoly) -> dict:
    report = analyze(phi)
    rec = {"phi": format_bipoly(phi), "report": report.as_json()}
    if phi.mode == "float":
        rec["coeffs"] = {
            k: [[complex(c).real, complex(c).imag] for c in getattr(report, k).coeffs]
            for k in _POLYS
        }
    return rec


def _assert_matches(got: dict, want: dict) -> None:
    if "coeffs" not in want:
        assert got == want
        return
    assert got["phi"] == want["phi"]
    strip = lambda rep: {k: v for k, v in rep.items() if k not in _POLYS}
    assert strip(got["report"]) == strip(want["report"])
    for k in _POLYS:
        g = [complex(*c) for c in got["coeffs"][k]]
        w = [complex(*c) for c in want["coeffs"][k]]
        assert len(g) == len(w), k
        scale = max((abs(c) for c in w), default=0.0)
        assert all(abs(a - b) <= GOLDEN_REL_TOL * (1 + scale) for a, b in zip(g, w)), k


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def cases():
    return _cases()


def test_case_names_match_golden(golden, cases):
    assert sorted(cases) == sorted(golden)


@pytest.mark.parametrize("name", sorted(_family_cases()))
def test_family_report_matches_golden(golden, cases, name):
    _assert_matches(_record(cases[name]), golden[name])


def test_seeded_reports_match_golden(golden, cases):
    mismatched = [
        name for name in sorted(_seeded_cases())
        if _record(cases[name]) != golden[name]
    ]
    assert not mismatched, mismatched


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {name: _record(phi) for name, phi in sorted(_cases().items())}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    standard = sum(rec["report"]["is_standard"] for rec in data.values())
    print(f"{len(data)} cases, {standard} standard")
