"""The root kernel's output pinned bit for bit against a stored golden file.

`tests/data/roots_golden.json` holds recorded `roots_of_rows` batches: the
BFS levels of a quartic grid, two additive grids, the double ray, a
d = 2 round trip and a weak sweep of a Phi with deg_x != deg_y, the `roots_batch` call of a singular-vertex search, and
hand-built rows with exact zeros at the origin and multiple roots.  Each
batch stores its input rows, its `lengths` (None unless the caller passed
them) and the root values and multiplicities the kernel returned, every
float as `float.hex`.  A rewrite of the kernel must reproduce every bit,
the sign of a zero part included.  The stored input rows and lengths must
also be those the cases hand the kernel today, so a change to how rows are
evaluated fails here instead of at the next regeneration.

Regenerate with `PYTHONPATH=src python tests/test_roots_golden.py`, and
only in a change that means to alter the kernel's output.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from polygraph import (
    Budget,
    FiniteDigraph,
    GaussRat,
    cayley_additive,
    cayley_multiplicative,
    digraph_to_poly,
    explore_component,
    explore_strong_component,
    parse,
    rootfind,
    singular_vertex_values,
)
from polygraph.unipoly import UniPoly, from_roots

GOLDEN = Path(__file__).parent / "data" / "roots_golden.json"
# Levels kept per recorded exploration, so the file stays small.
MAX_LEVELS = 8


def _hex(z: complex) -> str:
    return f"{z.real.hex()} {z.imag.hex()}"


def _unhex(s: str) -> complex:
    re, im = s.split()
    return complex(float.fromhex(re), float.fromhex(im))


def _hand_built():
    """Rows the workloads rarely produce: exact zeros at 0, multiple roots,
    degree 1, constants and zero parts, in mixed widths."""
    a, b = 1.25 - 0.5j, -2.0 + 0.75j
    polys = [
        UniPoly.make([0.0, 0.0, a, b, 1.0], "y"),
        UniPoly.make([0.0, 0.0, 0.0, 3.0], "y"),
        from_roots([a, a, b], 1.0, "y"),
        from_roots([b, b, b, a], 1.0, "y"),
        from_roots([2.0, 2.0, -1.0, 3j], 1.0, "y"),
        from_roots([1j, -1j, 0.5], 2.0, "y"),
        UniPoly.make([2.0, 1e-15], "y"),
        UniPoly.make([-3.0, 1.5], "y"),
        UniPoly.make([0.0, 2.0], "y"),
        UniPoly.make([0.0, 1.0, 0.0, 1.0], "y"),
        UniPoly.make([4.0, 0.0, 1.0], "y"),
        UniPoly.make([5.0 + 1j], "y"),
    ]
    width = max(len(p.coeffs) for p in polys)
    c = np.zeros((len(polys), width), dtype=complex)
    for k, p in enumerate(polys):
        c[k, : len(p.coeffs)] = p.coeffs
    return [(c, None), (c[::-1].copy(), None), (c, [len(p.coeffs) for p in polys])]


def _round_trip_d2():
    arcs = [(i, (i + s) % 5) for i in range(5) for s in (1, 2)]
    return explore_strong_component(digraph_to_poly(FiniteDigraph.on_integers(5, arcs)), 2 + 0j)


def _cases():
    grid = Budget(max_vertices=80)
    return {
        "quartic_grid": lambda: explore_component(
            parse("(y-x)^4-1"), 3 * complex(math.cos(0.4), math.sin(0.4)), grid),
        "additive_2_3_grid": lambda: explore_component(
            cayley_additive([GaussRat.of(2), GaussRat.of(3)]), 0.7 - 1.9j, grid),
        "additive_1_2i_grid": lambda: explore_component(
            cayley_additive([GaussRat.of(1), GaussRat.of(0, 2)]), -1.5 + 0.25j, grid),
        "double_ray": lambda: explore_component(
            cayley_multiplicative([GaussRat.of(2)]), 1 + 0j, Budget(max_depth=MAX_LEVELS)),
        "round_trip_d2_n5": _round_trip_d2,
        # deg_x = 3 != deg_y = 2: a weak level's in-rows are wider than its out-rows.
        "weak_non_square_cubic": lambda: explore_component(
            parse("y^2 - x^3 - x - 1"), 1 + 0.5j, Budget(max_vertices=300, max_depth=6)),
        "singular_values_circulant": lambda: singular_vertex_values(
            digraph_to_poly(FiniteDigraph.on_integers(
                4, [(i, (i + s) % 4) for i in range(4) for s in (1, 2)]))),
    }


def _record_batches() -> dict:
    """Run each case with the kernel wrapped and keep its first batches."""
    import polygraph.explorer as explorer

    real = rootfind.roots_of_rows
    out = {}
    for name, run in _cases().items():
        calls = []

        def wrapped(c, lengths=None):
            if len(calls) < MAX_LEVELS:
                kept = None if lengths is None else list(lengths)
                calls.append((np.array(c, dtype=complex), kept))
            return real(c, lengths)

        explorer.roots_of_rows = rootfind.roots_of_rows = wrapped
        try:
            run()
        finally:
            explorer.roots_of_rows = rootfind.roots_of_rows = real
        out[name] = calls
    out["hand_built"] = _hand_built()
    return out


def _hex_rows(c) -> list:
    return [[_hex(complex(v)) for v in row] for row in c]


def _encode(c, lengths) -> dict:
    found = rootfind.roots_of_rows(c, lengths)
    return {
        "rows": _hex_rows(c),
        "lengths": lengths,
        "roots": [[[_hex(v) for v, _ in pairs], [m for _, m in pairs]] for pairs in found],
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_recorded_shapes(golden):
    batches = [b for bs in golden.values() for b in bs]
    assert 30 <= len(batches) <= 50
    widths = {len(b["rows"][0]) for b in batches}
    assert {2, 3, 5} <= widths
    assert any(m > 1 for b in batches for _, mults in b["roots"] for m in mults)
    assert any(b["lengths"] is not None for b in batches)


@pytest.fixture(scope="module")
def recorded():
    return _record_batches()


@pytest.mark.parametrize("name", sorted([*_cases(), "hand_built"]))
def test_golden_inputs_are_what_the_generator_records(golden, recorded, name):
    # A change to the rows the callers hand the kernel shows here, not at
    # the next regeneration.
    recorded = [(_hex_rows(c), lengths) for c, lengths in recorded[name]]
    assert recorded == [(b["rows"], b["lengths"]) for b in golden[name]]


@pytest.mark.parametrize("name", sorted([*_cases(), "hand_built"]))
def test_kernel_reproduces_the_golden_bits(golden, name):
    for k, batch in enumerate(golden[name]):
        c = np.array([[_unhex(s) for s in row] for row in batch["rows"]], dtype=complex)
        got = _encode(c, batch["lengths"])["roots"]
        assert got == batch["roots"], (name, k)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {
        name: [_encode(c, lengths) for c, lengths in calls]
        for name, calls in sorted(_record_batches().items())
    }
    GOLDEN.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")
    for name, batches in data.items():
        rows = sum(len(b["rows"]) for b in batches)
        print(f"{name}: {len(batches)} batches, {rows} rows")
