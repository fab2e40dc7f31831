"""Conjecture probes: one analysis per probe, synthesized inputs."""

import pytest

from polygraph import Budget, FiniteDigraph, digraph_to_poly, parse, probe_conjecture
from polygraph import analyzer, explorer, singular_vertex_values
from polygraph import probe as probe_module


def test_probe_analyzes_once(monkeypatch):
    calls = []

    def counting_analyze(phi):
        calls.append(phi)
        return analyzer.analyze(phi)

    monkeypatch.setattr(probe_module, "analyze", counting_analyze)
    monkeypatch.setattr(explorer, "analyze", counting_analyze)
    result = probe_conjecture(parse("y^2+x*y+x^2"), n_seeds=5)
    assert len(result.graphs) == 5
    assert len(calls) == 1


@pytest.mark.parametrize("n", [4, 5, 6])
def test_probe_synthesized_circulant(n):
    # The 2-regular circulant with steps 1 and 2: S = L*D*E has degree 22 to
    # 38 and many multiple roots.
    arcs = [(i, (i + s) % n) for i in range(n) for s in (1, 2)]
    phi = digraph_to_poly(FiniteDigraph.on_integers(n, arcs))
    S = analyzer.analyze(phi).S
    squarefree = S.divexact(S.gcd(S.derivative()))
    assert len(singular_vertex_values(phi)) == squarefree.degree
    result = probe_conjecture(phi, n_seeds=2, budget=Budget(30, 5))
    assert len(result.graphs) == 2
