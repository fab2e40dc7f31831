"""Conjecture probes pinned against a stored golden file.

`tests/data/probe_golden.json` holds, for each case below, the
`ProbeResult.as_json()` of one `probe_conjecture` call and the `as_json()`
of each of its graphs.  The cases are the closed families that
`test_acceptance.py` probes (criteria 3, 5, 6 and the closed members of the
criterion-8 battery) plus one grid probe that hits its vertex budget.
Changes to the BFS schedule or to root finding must leave every key, id,
arc, label and flag identical and move floats by at most
GOLDEN_REL_TOL * (1 + |x|).

Regenerate with `PYTHONPATH=src python tests/test_probe_golden.py`.
"""

import json
import math
from pathlib import Path

import pytest

from polygraph import (
    Budget,
    Mobius,
    QuadSym,
    bipartite_poly,
    complete_graph_poly,
    probe_conjecture,
    to_poly,
)
from test_acceptance import _battery

GOLDEN = Path(__file__).parent / "data" / "probe_golden.json"
GOLDEN_REL_TOL = 1e-12

# Members of the criterion-8 battery whose probes close; the others are
# infinite families or known wrong closures (index 18).
_CLOSED_BATTERY = (5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 19)


def _cases():
    s3 = math.sqrt(3.0)
    cases = {
        "c3_mobius_6cycle": lambda: probe_conjecture(
            to_poly(Mobius(1.0, -2.0 + s3, 1.0, -1.0 + s3)), n_seeds=10,
            budget=Budget(max_vertices=100, max_depth=25), rng_seed=5),
    }
    budget5 = Budget(max_vertices=80, max_depth=20)
    for n in (3, 4, 5):
        cases[f"c5_complete_{n}"] = lambda n=n: probe_conjecture(
            complete_graph_poly(n), n_seeds=6, budget=budget5, rng_seed=n)
    for d in (2, 3):
        cases[f"c5_bipartite_{d}"] = lambda d=d: probe_conjecture(
            bipartite_poly(d), n_seeds=6, budget=budget5, rng_seed=d)
    budget6 = Budget(max_vertices=200, max_depth=40)
    for n, k in ((3, 1), (4, 1), (5, 1), (5, 2), (7, 3)):
        q = QuadSym(2 * math.cos(2 * math.pi * k / n), 0.0, 1.0)
        cases[f"c6_quad_cycle_{n}_{k}"] = lambda q=q, n=n, k=k: probe_conjecture(
            q.as_bipoly(), n_seeds=5, budget=budget6, rng_seed=n * 10 + k)
    battery = _battery()
    budget8 = Budget(max_vertices=250, max_depth=25)
    for idx in _CLOSED_BATTERY:
        cases[f"c8_battery_{idx:02d}"] = lambda idx=idx: probe_conjecture(
            battery[idx], n_seeds=5, budget=budget8, rng_seed=idx)
    # The four-generator Gaussian grid; each sweep stops mid-level at 60 vertices.
    cases["grid_truncated"] = lambda: probe_conjecture(
        battery[0], n_seeds=5, budget=Budget(max_vertices=60, max_depth=25), rng_seed=0)
    return cases


def _record(result) -> dict:
    return {
        "probe": result.as_json(),
        "graphs": [g.as_json() for g in result.graphs],
    }


def _assert_close(got, want, path="$"):
    if isinstance(want, float) and isinstance(got, float):
        assert abs(got - want) <= GOLDEN_REL_TOL * (1 + abs(want)), (path, got, want)
    elif isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    else:
        assert type(got) is type(want) and got == want, (path, got, want)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(_cases()))
def test_probe_matches_golden(golden, name):
    got = json.loads(json.dumps(_record(_cases()[name]())))
    _assert_close(got, golden[name])


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    data = {name: _record(run()) for name, run in sorted(_cases().items())}
    GOLDEN.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    for name, rec in data.items():
        probe = rec["probe"]
        print(f"{name}: {len(rec['graphs'])} graphs, "
              f"{sum(len(g['vertices']) for g in rec['graphs'])} vertices, "
              f"truncated={probe['truncated_count']}, all_isomorphic={probe['all_isomorphic']}")
