"""Budgeted breadth-first exploration of G(Phi) and component classification.

Vertices are complex numbers deduplicated through a spatial hash with cell
side dedup_eps; the first value discovered in a cell neighborhood is the
canonical representative, and ids follow BFS discovery order, so identical
inputs give identical graphs.  Roots of one row that land on one vertex
add their multiplicities, so each arc (from, to) is listed once and a
vertex's out-multiplicities add up to deg_y Phi.

The BFS is level-synchronous and repeats two steps, each one function.
`_solve` solves a level's rows: one `BiPoly.eval_rows` call gives the
rows Phi(u, y) and/or Phi(x, u) of every vertex of the level in BFS order
(for a weak level both rows of each vertex, interleaved, the narrower
padded with zeros if deg_x != deg_y), and one `roots_of_rows` call solves
them all.  No per-row polynomial or root object is built on the way.
`_VertexTable.intern` then identifies each root with a vertex, or makes it
a new one while the vertex budget has room, in the order a
vertex-at-a-time BFS would meet the roots, so ids, dedup and budget
cut-offs are those of that BFS.  A probe's seeds are
explored in lockstep: each level stacks the rows of every seed's sweep
into that one array.  A row's coefficients and roots do not depend on the
other rows of the array, so each graph, and each error, is what
exploring its seed alone gives.  `neighbors`, `out_neighbors` and
`in_neighbors` take the same `_solve`.

`roots_of_rows` alone judges whether a row can be solved.  The first row
in BFS order that it rejects decides the error, whatever its cause, as in
a vertex-at-a-time BFS; the rows before it are solved and recorded first.

Weak components alternate out- and in-neighbors.  A symmetric Phi
(`BiPoly.is_symmetric`) has the in-row Phi(x, u) of each vertex equal to
its out-row Phi(u, y) bit for bit, so a weak sweep evaluates and solves
only the out-rows and hands each result to both.  `_Sweep.materialize`
interns the in-row's roots on the table as the out-row left it, as it
would the roots of a row solved on its own.

Strong components run a forward sweep and, only if that sweep hits the
budget, a backward one.  The strong component is the set of vertices both
reachable from and reaching the seed over the recorded arcs.  A forward
sweep that closes is a complete certificate: every directed cycle through
the seed lies inside it.
"""

from __future__ import annotations

import enum
import json
import math
from collections import Counter
from dataclasses import dataclass

from .analyzer import analyze, require_standard
from .bipoly import BiPoly
from .errors import (
    DomainError,
    EvaluationOverflow,
    ExplorationError,
    RootFindingError,
    SizeLimitError,
    UniversalVertexError,
    ZeroPolynomialError,
)
from .rootfind import roots_of_rows
from .unipoly import cached

DEFAULT_MAX_VERTICES = 5000
DEFAULT_MAX_DEPTH = 50
DEFAULT_DEDUP_EPS = 1e-6
ISO_LIMIT = 12
_GRID_EPS = 1e-6  # relative tolerance on the arc steps of a grid prefix


@dataclass(frozen=True)
class Budget:
    max_vertices: int = DEFAULT_MAX_VERTICES
    max_depth: int = DEFAULT_MAX_DEPTH
    dedup_eps: float = DEFAULT_DEDUP_EPS

    def __post_init__(self):
        if type(self.max_vertices) is not int or type(self.max_depth) is not int:
            raise DomainError("max_vertices and max_depth must be ints")
        if self.max_vertices <= 0 or self.max_depth <= 0 or not 0 < self.dedup_eps < math.inf:
            raise DomainError("budget fields must be positive and finite")


class Shape(enum.Enum):
    DIRECTED_CYCLE = "DirectedCycle"
    CYCLE = "Cycle"
    COMPLETE = "CompleteK"
    COMPLETE_BIPARTITE = "CompleteBipartite"
    DOUBLE_RAY_PREFIX = "DoubleRayPrefix"
    DIRECTED_PATH_PREFIX = "DirectedPathPrefix"
    GRID_PREFIX = "GridPrefix"
    UNKNOWN = "Unknown"


@dataclass(frozen=True)
class ShapeLabel:
    shape: Shape
    n: int = 0

    def __str__(self):
        return f"{self.shape.value}({self.n})" if self.n else self.shape.value


def labels_equivalent(a: ShapeLabel, b: ShapeLabel) -> bool:
    """Label equality modulo graph coincidences C3 = K3 and C4 = K_{2,2}."""
    if a == b:
        return True
    pair = {a, b}
    if pair == {ShapeLabel(Shape.CYCLE, 3), ShapeLabel(Shape.COMPLETE, 3)}:
        return True
    if pair == {ShapeLabel(Shape.CYCLE, 4), ShapeLabel(Shape.COMPLETE_BIPARTITE, 2)}:
        return True
    return False


@dataclass(frozen=True)
class ExploredDigraph:
    vertices: tuple[tuple[int, complex], ...]
    arcs: tuple[tuple[int, int, int], ...]
    truncated: bool
    seed_id: int
    frontier_ids: tuple[int, ...] = ()

    @property
    def order(self) -> int:
        return len(self.vertices)

    def value(self, vid: int) -> complex:
        return self.vertices[vid][1]

    @cached
    def multiplicity(self) -> dict[tuple[int, int], int]:
        """(from, to) -> arc multiplicity, with repeated entries added up."""
        mult: dict[tuple[int, int], int] = {}
        for f, t, m in self.arcs:
            mult[f, t] = mult.get((f, t), 0) + m
        return mult

    def as_json(self) -> dict:
        return {
            "seed": self.seed_id,
            "truncated": self.truncated,
            "vertices": [
                {"id": vid, "re": val.real, "im": val.imag}
                for vid, val in self.vertices
            ],
            "arcs": [
                {"from": f, "to": t, "mult": m} for f, t, m in self.arcs
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "ExploredDigraph":
        """The graph of an `as_json` object, with an empty frontier: the
        format does not store it.  Raises DomainError unless the ids are
        the ints 0..n-1 in order, as `as_json` writes them, the seed and
        every arc end are among them, every multiplicity is a positive int
        (an int is never a bool) and `truncated` is a bool."""
        vertices = tuple((v["id"], complex(v["re"], v["im"])) for v in obj["vertices"])
        arcs = tuple((a["from"], a["to"], a["mult"]) for a in obj["arcs"])
        ids = [vid for vid, _ in vertices]
        declared = range(len(ids))
        if not all(type(vid) is int for vid in ids) or ids != list(declared):
            raise DomainError("vertex ids must be the ints 0..n-1 in order")
        for end in [obj["seed"]] + [e for f, t, _ in arcs for e in (f, t)]:
            if type(end) is not int or end not in declared:
                raise DomainError("the seed and every arc end must be a vertex id", id=end)
        for f, t, m in arcs:
            if type(m) is not int or m < 1:
                raise DomainError("arc multiplicities must be positive ints", arc=[f, t])
        if type(obj["truncated"]) is not bool:
            raise DomainError("truncated must be a bool", truncated=obj["truncated"])
        return ExploredDigraph(
            vertices=vertices,
            arcs=arcs,
            truncated=obj["truncated"],
            seed_id=obj["seed"],
        )


# -- vertex dedup table ---------------------------------------------------------


class _VertexTable:
    """Vertex values hashed to square cells of side eps.

    A vertex is listed in the 3x3 block of cells around its own, tagged with
    its position in that block, so a lookup reads the one list of the
    query's cell.
    """

    # (dx, dy) of the vertex's cell relative to the listing cell, and its position.
    _BLOCK = [((dx, dy), 3 * dx + dy + 4) for dx in (-1, 0, 1) for dy in (-1, 0, 1)]

    def __init__(self, eps: float):
        self.eps = eps
        self.values: list[complex] = []
        self.near: dict[tuple[int, int], list[tuple[int, int]]] = {}

    def intern(self, z: complex, room: bool) -> int | None:
        """The vertex nearest z and closer than eps, the first in block
        position, then id, order among equally near ones.  On a miss, z
        becomes a new vertex if room is true; otherwise None.  A value whose
        cell index is beyond the float range raises EvaluationOverflow."""
        try:
            cx, cy = cell = (math.floor(z.real / self.eps), math.floor(z.imag / self.eps))
        except OverflowError:
            raise EvaluationOverflow(
                "vertex value over dedup_eps is beyond the float range", vertex=str(z), dedup_eps=self.eps
            ) from None
        best, best_key = None, (self.eps, -1)
        values = self.values
        for pos, vid in self.near.get(cell, ()):
            key = (abs(values[vid] - z), pos)
            if key < best_key:
                best, best_key = vid, key
        if best is None and room:
            best = len(values)
            values.append(z)
            for (dx, dy), pos in self._BLOCK:
                self.near.setdefault((cx - dx, cy - dy), []).append((pos, best))
        return best


# -- neighbor enumeration ---------------------------------------------------------


def _solve(phi: BiPoly, values: list[complex], axes: str):
    """(found, error): the roots of the rows `phi.eval_rows(values, axes)`
    up to the first row that `roots_of_rows` rejects, and that row's error,
    or None.  A non-finite row gives EvaluationOverflow, a zero row
    UniversalVertexError (its vertex is a universal source on axis "x", a
    sink on "y"), and a RootFindingError passes through.

    A weak sweep of a symmetric phi solves each vertex's row once: its
    in-row Phi(x, u) is its out-row Phi(u, y) bit for bit, so each result
    serves both, and a rejected out-row is the first rejected row."""
    if axes == "xy" and phi.is_symmetric:
        found, error = _solve(phi, values, "x")
        return [f for f in found for _axis in axes], error
    rows = phi.eval_rows(values, axes)
    try:
        return roots_of_rows(rows), None
    except (EvaluationOverflow, ZeroPolynomialError, RootFindingError) as exc:
        error = exc
    k = error.payload["row"]
    u, axis = values[k // len(axes)], axes[k % len(axes)]
    if isinstance(error, EvaluationOverflow):
        error = EvaluationOverflow("non-finite value during row evaluation", vertex=str(u))
    elif isinstance(error, ZeroPolynomialError):
        kind = "source" if axis == "x" else "sink"
        error = UniversalVertexError(f"universal {kind} vertex", vertex=str(u))
    # The rows before the rejected one are good: solve them alone.
    return roots_of_rows(rows[:k]), error


def neighbors(phi: BiPoly, values, axis: str) -> list[list[tuple[complex, int]]]:
    """Roots with multiplicity of each row Phi(u, y) (axis "x") or Phi(x, u)
    (axis "y") for u in values, sorted; [] where the degree drops to 0.

    The first row in order that cannot be solved raises EvaluationOverflow
    if it is not finite, UniversalVertexError if it vanishes identically,
    and RootFindingError if its roots fail the residual check.
    """
    if axis not in ("x", "y"):
        raise DomainError(f"axis must be x or y, got {axis!r}")
    found, error = _solve(phi, list(values), axis)
    if error is not None:
        raise error
    return found


def out_neighbors(phi: BiPoly, u: complex) -> list[tuple[complex, int]]:
    """Roots with multiplicity of Phi(u, y), sorted; [] if the degree drops to 0."""
    return neighbors(phi, [u], "x")[0]


def in_neighbors(phi: BiPoly, v: complex) -> list[tuple[complex, int]]:
    """Roots with multiplicity of Phi(x, v), sorted; [] if the degree drops to 0."""
    return neighbors(phi, [v], "y")[0]


# -- BFS engine ---------------------------------------------------------------------

_AXES = {"weak": "xy", "fwd": "x", "bwd": "y"}


class _Sweep:
    """One level-synchronous BFS from a seed over weak, forward or backward arcs.

    `_explore` advances it one level at a time: `_solve` finds the roots of
    the rows of `self.values()` along `self.axes`, and `materialize` records
    them as vertices and arcs.
    """

    def __init__(self, budget: Budget, table: _VertexTable, seed_id: int, direction: str):
        self.budget = budget
        self.table = table
        self.seed_id = seed_id
        self.axes = _AXES[direction]
        self.level = [seed_id]
        self.enqueued = {seed_id}
        self.out_arcs: dict[int, dict[int, int]] = {}
        self.in_arcs_seen: dict[tuple[int, int], int] = {}
        self.expanded: set[int] = set()
        self.truncated = False

    def arcs(self) -> list[tuple[int, int, int]]:
        """Recorded arcs (from, to, mult).  Out-arcs are authoritative; a
        provisional in-arc stands in only for a vertex with no recorded out side."""
        arcs = [(f, t, m) for f, outs in self.out_arcs.items() for t, m in outs.items()]
        arcs += [
            (f, t, m) for (f, t), m in self.in_arcs_seen.items() if f not in self.out_arcs
        ]
        return arcs

    def graph(self, truncated: bool) -> ExploredDigraph:
        """Every vertex of the table with the recorded arcs."""
        n = len(self.table.values)
        return _graph(
            self.table.values, self.arcs(), range(n), self.seed_id, truncated,
            frontier=set(range(n)) - self.expanded,
        )

    def values(self) -> list[complex]:
        return [self.table.values[vid] for vid in self.level]

    def owner(self, r: int) -> tuple[int, str]:
        """The (vid, axis) of row r of the current level."""
        vid, a = divmod(r, len(self.axes))
        return self.level[vid], self.axes[a]

    def materialize(self, found) -> list[int]:
        """Record the roots, (value, multiplicity) pairs, of the first
        len(found) rows of the level; returns their targets in BFS order.
        Roots of a row that intern to one vertex add their multiplicities."""
        targets: list[int] = []
        table, max_vertices = self.table, self.budget.max_vertices
        owners = [(vid, axis) for vid in self.level for axis in self.axes]
        for (vid, axis), pairs in zip(owners, found):
            ids: dict[int, int] = {}
            for val, mult in pairs:
                wid = table.intern(val, len(table.values) < max_vertices)
                if wid is None:
                    self.truncated = True
                    continue
                ids[wid] = ids.get(wid, 0) + mult
            targets += ids
            if axis == "x":
                self.out_arcs[vid] = ids
            else:
                for wid, mult in ids.items():
                    # Provisional: arc multiplicity is authoritative from the
                    # out side; replaced when/if wid itself is expanded.
                    self.in_arcs_seen[(wid, vid)] = mult
            if axis == self.axes[-1]:
                self.expanded.add(vid)
        return targets


def _explore(phi: BiPoly, sweeps: list[_Sweep], max_depth: int) -> None:
    """Run the sweeps, which share one direction, with one evaluation call
    and one `roots_of_rows` call per level for all of them.

    Each level stacks the rows of every live sweep in list order.  A row's
    coefficients and roots do not depend on the other rows of the call, so
    every sweep ends as it would alone.  Errors are those of running the
    sweeps one after another: within a sweep the first rejected row
    decides, and a root failure raises ExplorationError with the graph
    recorded so far.  Across sweeps the first one in list order that fails
    decides, the sweeps after it stop, and the ones before it run on,
    because one of them may still fail at a later level.
    """
    failure: tuple[int, Exception] | None = None
    live = list(range(len(sweeps)))
    axes = sweeps[0].axes
    for _depth in range(max_depth):
        found, rejected = _solve(phi, [u for i in live for u in sweeps[i].values()], axes)
        first = 0
        for i in live:
            sweep = sweeps[i]
            n_rows = len(sweep.level) * len(axes)
            done = found[first : first + n_rows]
            first += n_rows
            targets = sweep.materialize(done)
            if len(done) == n_rows:
                sweep.level = [w for w in dict.fromkeys(targets) if w not in sweep.enqueued]
                sweep.enqueued.update(sweep.level)
                continue
            error = rejected
            if isinstance(rejected, RootFindingError):
                vid, _axis = sweep.owner(len(done))
                error = ExplorationError(
                    "root finding failed during exploration",
                    partial=sweep.graph(truncated=True),
                    vertex=str(sweep.table.values[vid]),
                )
                error.__cause__ = rejected
            failure = (i, error)
            break
        live = [i for i in live if sweeps[i].level and (failure is None or i < failure[0])]
        if not live:
            break
    else:
        for i in live:
            sweeps[i].truncated = True
    if failure is not None:
        raise failure[1]


def _graph(values, arcs, keep, seed_id: int, truncated: bool, frontier=()) -> ExploredDigraph:
    """The subgraph induced on the ids in keep, renumbered from 0 in id order."""
    order = sorted(keep)
    remap = {old: new for new, old in enumerate(order)}
    return ExploredDigraph(
        vertices=tuple((remap[v], values[v]) for v in order),
        arcs=tuple(sorted(
            (remap[f], remap[t], m) for f, t, m in arcs if f in remap and t in remap
        )),
        truncated=truncated,
        seed_id=remap[seed_id],
        frontier_ids=tuple(sorted(remap[v] for v in frontier)),
    )


def _reach(seed_id: int, pairs) -> set[int]:
    """Ids reachable from seed_id along arcs (from, to)."""
    succ: dict[int, list[int]] = {}
    for f, t in pairs:
        succ.setdefault(f, []).append(t)
    seen = {seed_id}
    stack = [seed_id]
    while stack:
        for w in succ.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def explore_component(phi: BiPoly, seed: complex, budget: Budget = Budget()) -> ExploredDigraph:
    """Weak component of the seed: BFS over out- and in-neighbors."""
    require_standard(analyze(phi))
    return _weak_components(phi, [seed], budget)[0]


def _weak_components(phi: BiPoly, seeds, budget: Budget) -> list[ExploredDigraph]:
    """Weak components of the seeds, explored in lockstep; phi must be standard.

    Graphs and errors are those of exploring each seed alone, in order.
    """
    sweeps = []
    for u in seeds:
        table = _VertexTable(budget.dedup_eps)
        sweeps.append(_Sweep(budget, table, table.intern(complex(u), True), "weak"))
    _explore(phi, sweeps, budget.max_depth)
    return [s.graph(s.truncated) for s in sweeps]


def explore_strong_component(phi: BiPoly, seed: complex, budget: Budget = Budget()) -> ExploredDigraph:
    """Strong component of the seed, exact when a directed sweep closes."""
    require_standard(analyze(phi))
    table = _VertexTable(budget.dedup_eps)
    seed_id = table.intern(complex(seed), True)
    fwd = sweep = _Sweep(budget, table, seed_id, "fwd")
    _explore(phi, [fwd], budget.max_depth)
    if fwd.truncated:
        sweep = _Sweep(budget, table, seed_id, "bwd")
        sweep.out_arcs = fwd.out_arcs  # share definitively recorded out-arcs
        _explore(phi, [sweep], budget.max_depth)
    arcs = sweep.arcs()
    pairs = [(f, t) for f, t, _m in arcs]
    comp = _reach(seed_id, pairs) & _reach(seed_id, [(t, f) for f, t in pairs])
    return _graph(table.values, arcs, comp, seed_id, truncated=fwd.truncated)


# -- classification ------------------------------------------------------------------


def classify(g: ExploredDigraph) -> ShapeLabel:
    """Recognize the component shapes that actually occur, else Unknown.

    Every named shape is connected and has no loop and no multiple arc, so
    any other graph, a disconnected one included, is Unknown.  On the rest
    the shape follows from degree and arc counts.
    """
    unknown = ShapeLabel(Shape.UNKNOWN)
    n = g.order
    mult = g.multiplicity
    if n == 0 or any(f == t or m > 1 for (f, t), m in mult.items()):
        return unknown
    first = g.vertices[0][0]
    if len(_reach(first, [*mult, *((t, f) for f, t in mult)])) < n:
        return unknown
    symmetric = all((t, f) in mult for f, t in mult)
    outdeg = Counter(f for f, _ in mult)  # the undirected degree when symmetric
    indeg = Counter(t for _, t in mult)

    if not g.truncated:
        if all(outdeg[v] == indeg[v] == 1 for v, _ in g.vertices):
            return ShapeLabel(Shape.DIRECTED_CYCLE, n)
        if not symmetric:
            return unknown
        if n >= 2 and len(mult) == n * (n - 1):
            return ShapeLabel(Shape.COMPLETE, n)
        side = {t for f, t in mult if f == first}
        d = len(side)
        if n == 2 * d and len(mult) == 2 * d * d and all(
            (f in side) != (t in side) for f, t in mult
        ):
            return ShapeLabel(Shape.COMPLETE_BIPARTITE, d)
        if set(outdeg.values()) == {2}:
            return ShapeLabel(Shape.CYCLE, n)
        return unknown

    # Truncated graphs: prefix recognizers.
    if not symmetric and max([*outdeg.values(), *indeg.values()]) <= 1:
        return ShapeLabel(Shape.DIRECTED_PATH_PREFIX)
    # A tree of maximum degree 2 is a path.
    if symmetric and len(mult) == 2 * (n - 1) and max(outdeg.values(), default=0) <= 2:
        return ShapeLabel(Shape.DOUBLE_RAY_PREFIX)
    if _looks_like_grid(g):
        return ShapeLabel(Shape.GRID_PREFIX)
    return unknown


def _looks_like_grid(g: ExploredDigraph) -> bool:
    """The arc steps are +-s, +-t with s, t not collinear: exactly four
    distinct steps, each with its negation among them, where s is the first
    step and t the first after it that is not s's negation."""
    diffs: list[complex] = []
    for f, t in g.multiplicity:
        d = g.value(t) - g.value(f)
        if all(abs(d - e) > _GRID_EPS * (1 + abs(e)) for e in diffs):
            diffs.append(d)
        if len(diffs) > 4:
            return False
    if len(diffs) != 4:
        return False
    s = diffs[0]
    t = next((d for d in diffs[1:] if abs(d + s) > _GRID_EPS * (1 + abs(s))), s)
    return all(
        any(abs(d + e) <= _GRID_EPS * (1 + abs(d)) for e in diffs) for d in diffs
    ) and abs((s * t.conjugate()).imag) > _GRID_EPS * (abs(s) * abs(t) + 1)


# -- isomorphism -----------------------------------------------------------------


def _signatures(mult: dict[tuple[int, int], int], n: int) -> list[tuple]:
    """Per vertex 0..n-1, from one pass over the arcs: its sorted
    out-multiplicities, its sorted in-multiplicities and its loop's."""
    outs: list[list[int]] = [[] for _ in range(n)]
    ins: list[list[int]] = [[] for _ in range(n)]
    for (f, t), m in mult.items():
        outs[f].append(m)
        ins[t].append(m)
    return [(sorted(outs[v]), sorted(ins[v]), mult.get((v, v), 0)) for v in range(n)]


def is_isomorphic(g: ExploredDigraph, h: ExploredDigraph) -> bool:
    """Arc-multiplicity-preserving bijection search for closed small graphs.
    Graphs whose orders, arc counts or sorted vertex signatures differ are
    told apart at any size; a search above ISO_LIMIT vertices raises."""
    if g.truncated or h.truncated:
        raise SizeLimitError("isomorphism testing needs closed graphs")
    ag, ah = g.multiplicity, h.multiplicity
    n = g.order
    if n != h.order or len(ag) != len(ah):
        return False
    sg, sh = _signatures(ag, n), _signatures(ah, n)
    if sorted(sg) != sorted(sh):
        return False
    if n > ISO_LIMIT:
        raise SizeLimitError(
            "graphs too large for exact matching; compare classify labels",
            limit=ISO_LIMIT,
        )

    # w can be v's image when the signatures and the arcs to the mapped vertices agree.
    order = sorted(range(n), key=lambda v: (sg[v], v))
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def backtrack(k: int) -> bool:
        if k == n:
            return True
        v = order[k]
        for w in range(n):
            if w in used or sg[v] != sh[w] or any(
                ag.get((v, u), 0) != ah.get((w, x), 0) or ag.get((u, v), 0) != ah.get((x, w), 0)
                for u, x in mapping.items()
            ):
                continue
            mapping[v] = w
            used.add(w)
            if backtrack(k + 1):
                return True
            del mapping[v]
            used.discard(w)
        return False

    return backtrack(0)


# -- export ------------------------------------------------------------------------


def _label(z: complex) -> str:
    re = float(f"{z.real:.6g}")
    im = float(f"{z.imag:.6g}")
    if im == 0:
        return f"{re:.6g}"
    im_txt = f"{im:.6g}i"
    if re == 0:
        return im_txt
    return f"{re:.6g}{'+' if im > 0 else ''}{im_txt}"


def export(g: ExploredDigraph, fmt: str = "json") -> bytes:
    """Serialize the graph as DOT or canonical JSON bytes."""
    if fmt == "json":
        return (json.dumps(g.as_json(), sort_keys=True) + "\n").encode()
    if fmt == "dot":
        lines = ["digraph polygraph {"]
        for vid, val in g.vertices:
            lines.append(f'  {vid} [label="{_label(val)}"];')
        for f, t, m in g.arcs:
            attr = f' [label="{m}"]' if m > 1 else ""
            lines.append(f"  {f} -> {t}{attr};")
        lines.append("}")
        return ("\n".join(lines) + "\n").encode()
    raise ValueError(f"unknown export format {fmt!r}")
