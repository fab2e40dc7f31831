"""Exploration results pinned against a stored golden file.

`tests/data/explore_golden.json` holds, for each case below, the vertex ids
and values, arcs, truncation flag and classify label of one exploration.
Changes to root finding or to the BFS schedule must leave ids, arcs,
`truncated` and labels identical and move values by at most
GOLDEN_REL_TOL * (1 + |z|).

The known wrong certificate of the double ray (a truncated=False graph for
an infinite component) is pinned on purpose: fixing it is a separate,
deliberate change that regenerates this file.

Regenerate with `PYTHONPATH=src python tests/test_explore_golden.py`.
"""

import json
import math
from pathlib import Path

import pytest

from polygraph import (
    Budget,
    FiniteDigraph,
    GaussRat,
    cayley_additive,
    cayley_multiplicative,
    classify,
    digraph_to_poly,
    dihedral_poly,
    explore_component,
    explore_strong_component,
    parse,
    prism_poly,
)

GOLDEN = Path(__file__).parent / "data" / "explore_golden.json"
GOLDEN_REL_TOL = 1e-12

_GRID_BUDGET = Budget(max_vertices=80)
_FAMILY_BUDGET = Budget(max_vertices=250, max_depth=25)


def _round_trip(n: int, arcs):
    return digraph_to_poly(FiniteDigraph.on_integers(n, arcs))


def _cases():
    quartic = parse("(y-x)^4-1")
    return {
        "quartic_grid_r2": lambda: explore_component(
            quartic, 2 * complex(math.cos(0.7), math.sin(0.7)), _GRID_BUDGET),
        "quartic_grid_r8": lambda: explore_component(
            quartic, 8 * complex(math.cos(2.9), math.sin(2.9)), _GRID_BUDGET),
        "additive_1_2i_grid_r4": lambda: explore_component(
            cayley_additive([GaussRat.of(1), GaussRat.of(0, 2)]),
            4 * complex(math.cos(-1.3), math.sin(-1.3)), _GRID_BUDGET),
        "round_trip_d1_5cycle": lambda: explore_strong_component(
            _round_trip(5, [(0, 2), (2, 4), (4, 1), (1, 3), (3, 0)]), 3 + 0j),
        "round_trip_d2_n4": lambda: explore_strong_component(
            _round_trip(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (2, 0), (3, 1)]),
            2 + 0j),
        "prism_4": lambda: explore_component(prism_poly(4), 0.6 + 0.9j, _FAMILY_BUDGET),
        "dihedral_3": lambda: explore_component(dihedral_poly(3), -0.8 + 0.5j, _FAMILY_BUDGET),
        "double_ray_depth_40": lambda: explore_component(
            cayley_multiplicative([GaussRat.of(2)]), 1 + 0j, Budget(max_depth=40)),
        # The strong cases below hit the budget on the forward sweep, so the
        # backward sweep and its provisional in-arcs decide the component.
        "strong_quartic_bwd": lambda: explore_strong_component(
            quartic, 0.3 + 0.2j, _GRID_BUDGET),
        "strong_two_lines_seed_only": lambda: explore_strong_component(
            parse("(y-x-1)*(y-x-i)"), 0.5 + 0.25j, Budget(max_depth=6)),
        "strong_scaling_pair": lambda: explore_strong_component(
            parse("(y-2*x)*(2*y-x)"), 1 + 0j, Budget(max_depth=8)),
        # deg_x = 3 != deg_y = 2: out- and in-rows of a weak level differ in width.
        "weak_non_square_cubic": lambda: explore_component(
            parse("y^2 - x^3 - x - 1"), 1 + 0.5j, Budget(max_vertices=300, max_depth=6)),
    }


def _record(g) -> dict:
    return {
        "seed_id": g.seed_id,
        "truncated": g.truncated,
        "label": str(classify(g)),
        "ids": [vid for vid, _ in g.vertices],
        "values": [[z.real, z.imag] for _, z in g.vertices],
        "arcs": [list(a) for a in g.arcs],
        "frontier_ids": list(g.frontier_ids),
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(_cases()))
def test_exploration_matches_golden(golden, name):
    want = golden[name]
    got = _record(_cases()[name]())
    for key in ("seed_id", "truncated", "label", "ids", "arcs", "frontier_ids"):
        assert got[key] == want[key], key
    for vid, (g, w) in enumerate(zip(got["values"], want["values"])):
        gz, wz = complex(*g), complex(*w)
        assert abs(gz - wz) <= GOLDEN_REL_TOL * (1 + abs(wz)), (vid, gz, wz)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {name: _record(run()) for name, run in sorted(_cases().items())}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    for name, rec in data.items():
        print(f"{name}: {len(rec['ids'])} vertices, {len(rec['arcs'])} arcs, "
              f"truncated={rec['truncated']}, {rec['label']}")
