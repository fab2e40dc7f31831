"""Outside-in tracing of polygraph for the traced benchmark run.

Wrappers are installed at the names callers look up (``polygraph.explorer.
find_roots`` for the explorer's root finding, ``BiPoly.resultant`` on the
class), so the program's source is not touched.  Each call records a span:
name, start, end, parent span and op id.  Spans stay in memory and are
written out by ``write``.  Self time is a span's duration minus the time
of its child spans.

A hook whose target is missing (renamed or merged) is reported as absent
and installs nothing.  The derived ratios are computed from the values the
wrapped functions return, never from program internals.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

# Span name -> the "module:attribute" or "module:Class.method" names it wraps.
# A function imported under several names is wrapped at each of them; one
# call passes through only one of the names, so nothing is counted twice.
HOOKS = {
    "rootfind.roots": (
        "polygraph.explorer:find_roots", "polygraph.analyzer:find_roots",
        "polygraph.rootfind:roots", "polygraph:roots",
    ),
    "rootfind.newton_polish": (
        "polygraph.explorer:newton_polish", "polygraph.rootfind:newton_polish",
    ),
    "bipoly.resultant": ("polygraph.bipoly:BiPoly.resultant",),
    "bipoly.eval_partial": ("polygraph.bipoly:BiPoly.eval_partial",),
    "unipoly.gcd": ("polygraph.unipoly:UniPoly.gcd",),
    "analyzer.analyze": (
        "polygraph:analyze", "polygraph.analyzer:analyze", "polygraph.explorer:analyze",
        "polygraph.probe:analyze", "polygraph.quadratic:analyze",
    ),
    "analyzer.singular_vertex_values": (
        "polygraph:singular_vertex_values", "polygraph.probe:singular_vertex_values",
        "polygraph.moebius:singular_vertex_values",
    ),
    "explorer.explore": (
        "polygraph:explore_component", "polygraph:explore_strong_component",
        "polygraph.probe:explore_component",
    ),
    "explorer.neighbors": ("polygraph.explorer:out_neighbors", "polygraph.explorer:in_neighbors"),
    "explorer.classify": ("polygraph:classify", "polygraph.probe:classify"),
    "explorer.is_isomorphic": ("polygraph:is_isomorphic", "polygraph.probe:is_isomorphic"),
    "synthesis.digraph_to_poly": ("polygraph:digraph_to_poly",),
    "synthesis.one_factorization": ("polygraph.synthesis:one_factorization",),
    "synthesis.interpolate_factor": ("polygraph.synthesis:interpolate_factor",),
    "moebius.classify_deg1": ("polygraph:classify_deg1",),
    "quadratic.classify_deg2": ("polygraph:classify_deg2",),
    "probe.probe_conjecture": ("polygraph:probe_conjecture",),
}

OP_SPAN = "bench.op"


def _resolve(target: str):
    """(owner, attribute, current value) for 'module:attr' or 'module:Class.attr'."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start, end, parent span index or -1, op id)
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # [span index, child time]
        self.op_id = -1
        # Self and total times are accumulated in reference seconds: scaled
        # by the factor run.py measured for the current op.  Spans stay raw.
        self.scale = 1.0
        self.installed: list[tuple] = []
        self.absent: list[str] = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.failures = defaultdict(int)
        self.roots_degree_sum = 0
        self.roots_degree_max = 0
        self.worst_residual_ratio = 0.0
        self.neighbor_values = 0
        self.explored_vertices = 0
        self.explored_graphs = 0
        self.truncated_graphs = 0
        # Distinct polynomials analyzed, counted per op execution.  The
        # current op's polynomials are kept alive so their ids stay unique.
        self.analyzed_polynomials = 0
        self._analyzed_op = None
        self._analyzed: dict[int, object] = {}

    # -- spans --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name; failures are counted and re-raised."""
        parent = self._stack[-1][0] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failures[name] += 1
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.spans[index] = (self._name_id(name), start, end, parent, self.op_id)
            self.calls[name] += 1
            self.total_s[name] += duration * self.scale
            self.self_s[name] += (duration - frame[1]) * self.scale

    def run_op(self, op_id: int, fn, scale: float):
        self.op_id, self.scale = op_id, scale
        try:
            return self.span(OP_SPAN, fn)
        finally:
            self.op_id, self.scale = -1, 1.0

    # -- hooks --------------------------------------------------------------

    def install(self):
        for name, targets in HOOKS.items():
            for target in targets:
                try:
                    owner, attr, original = _resolve(target)
                except (ImportError, AttributeError, KeyError):
                    self.absent.append(target)
                    continue
                setattr(owner, attr, self._wrap(name, original))
                self.installed.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self.installed):
            setattr(owner, attr, original)
        self.installed.clear()

    def _wrap(self, name: str, fn):
        observe = {
            "rootfind.roots": self._observe_roots,
            "explorer.neighbors": self._observe_neighbors,
            "explorer.explore": self._observe_explore,
            "analyzer.analyze": self._observe_analyze,
        }.get(name)
        tracer = self

        if name == "bipoly.resultant":
            @functools.wraps(fn)
            def resultant(p, q, *args, **kwargs):
                exact = p.mode == "exact" and q.mode == "exact"
                span_name = "bipoly.resultant_exact" if exact else "bipoly.resultant_float"
                return tracer.span(span_name, fn, p, q, *args, **kwargs)

            return resultant

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.span(name, fn, *args, **kwargs)
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    # -- observations from returned values -----------------------------------

    def _observe_roots(self, args, root_set):
        self.roots_degree_sum += root_set.degree
        self.roots_degree_max = max(self.roots_degree_max, root_set.degree)
        bound = root_set.residual_bound
        if bound > 0:
            worst = max((r.residual for r in root_set.roots), default=0.0) / bound
            self.worst_residual_ratio = max(self.worst_residual_ratio, worst)

    def _observe_neighbors(self, args, values):
        self.neighbor_values += len(values)

    def _observe_explore(self, args, graph):
        self.explored_graphs += 1
        self.explored_vertices += graph.order
        self.truncated_graphs += graph.truncated

    def _observe_analyze(self, args, report):
        if self._analyzed_op != self.op_id:
            self._analyzed_op = self.op_id
            self._analyzed = {}
        if id(args[0]) not in self._analyzed:
            self._analyzed[id(args[0])] = args[0]
            self.analyzed_polynomials += 1

    # -- results ------------------------------------------------------------

    def layer_self_s(self) -> dict:
        """Self time per module (the part of a span name before the first dot)."""
        out = defaultdict(float)
        for name, s in self.self_s.items():
            if name != OP_SPAN:
                out[name.split(".")[0]] += s
        return dict(out)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names, "absent": self.absent,
                       "fields": ["name", "start", "end", "parent", "op"]}, fh)
            fh.write("\n")
            for s in self.spans:
                fh.write(json.dumps(s))
                fh.write("\n")
