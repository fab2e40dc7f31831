"""polygraph command line: JSON-first analysis of polynomial digraphs.

Subcommands: analyze, explore, strong, synth, classify-deg1, classify-deg2,
cycle-condition, probe, export.  Results go to stdout as JSON (or DOT with
--format dot); domain errors exit 2 with an error object on stderr; bad
flags exit 64.
"""

from __future__ import annotations

import argparse
import json
import sys

from .analyzer import analyze, singular_inventory
from .errors import DomainError, PolygraphError
from .explorer import (
    DEFAULT_DEDUP_EPS,
    DEFAULT_MAX_DEPTH,
    DEFAULT_MAX_VERTICES,
    Budget,
    ExploredDigraph,
    classify,
    explore_component,
    explore_strong_component,
    export,
)
from .moebius import classify_deg1, cycle_condition, reference_table_diff
from .probe import probe_conjecture
from .quadratic import DEFAULT_NMAX, QuadSym, classify_deg2
from .synthesis import (
    FiniteDigraph,
    bipartite_poly,
    circulant_poly,
    complete_graph_poly,
    digraph_to_poly,
    dihedral_poly,
    prism_poly,
)
from .textio import bipoly_to_json, format_bipoly, parse, parse_scalar

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")


def _read_json(path: str, reader):
    """reader(the JSON value in the file at path).  A value that reader
    finds of the wrong shape or types raises DomainError."""
    with open(path) as fh:
        obj = json.load(fh)
    try:
        return reader(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"malformed JSON in {path}: {type(exc).__name__}: {exc}") from exc


def _budget(args) -> Budget:
    return Budget(
        max_vertices=args.max_vertices,
        max_depth=args.depth,
        dedup_eps=args.dedup_eps,
    )


def _add_budget_flags(p: argparse.ArgumentParser):
    p.add_argument("--max-vertices", type=int, default=DEFAULT_MAX_VERTICES)
    p.add_argument("--depth", type=int, default=DEFAULT_MAX_DEPTH)
    p.add_argument("--dedup-eps", type=float, default=DEFAULT_DEDUP_EPS)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="polygraph", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="standardness report for a polynomial")
    p.add_argument("poly")
    p.add_argument("--singular", action="store_true", help="include the vertex inventory")
    p.set_defaults(run=_cmd_analyze)

    for name in ("explore", "strong"):
        p = sub.add_parser(name, help=f"{name} component exploration")
        p.add_argument("poly")
        p.add_argument("--seed", default="0", help="seed vertex (scalar expression)")
        _add_budget_flags(p)
        p.add_argument("--format", choices=("json", "dot"), default="json")
        p.add_argument("--classify", action="store_true")
        p.set_defaults(run=_cmd_explore)

    p = sub.add_parser("synth", help="polynomial from a digraph or named family")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--digraph", help="JSON file: {vertices: [...], arcs: [[i,j],...]}")
    g.add_argument("--complete", type=int, metavar="N")
    g.add_argument("--bipartite", type=int, metavar="D")
    g.add_argument("--circulant", type=int, metavar="N")
    g.add_argument("--prism", type=int, metavar="N")
    g.add_argument("--dihedral", type=int, metavar="N")
    p.add_argument("--gens", default="1", help="circulant steps, comma separated")
    p.set_defaults(run=_cmd_synth)

    p = sub.add_parser("classify-deg1", help="degree-one component verdict")
    p.add_argument("poly")
    p.add_argument("--nmax", type=int, default=DEFAULT_NMAX)
    p.set_defaults(run=_cmd_classify_deg1)

    p = sub.add_parser("classify-deg2", help="symmetric degree-two verdict")
    p.add_argument("--a", required=True)
    p.add_argument("--b", default="0")
    p.add_argument("--c", default="0")
    p.add_argument("--nmax", type=int, default=DEFAULT_NMAX)
    p.set_defaults(run=_cmd_classify_deg2)

    p = sub.add_parser("cycle-condition", help="symbolic n-cycle condition")
    p.add_argument("n", type=int)
    p.add_argument("--diff", action="store_true", help="diff against the published table")
    p.set_defaults(run=_cmd_cycle_condition)

    p = sub.add_parser("probe", help="probe the isomorphic-components conjecture")
    p.add_argument("poly")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--rng-seed", type=int, default=0)
    _add_budget_flags(p)
    p.set_defaults(run=_cmd_probe)

    p = sub.add_parser("export", help="re-encode an exploration JSON file")
    p.add_argument("graph", help="JSON file produced by explore/strong")
    p.add_argument("--format", choices=("json", "dot"), default="dot")
    p.set_defaults(run=_cmd_export)
    return top


def _cmd_analyze(args) -> None:
    phi = parse(args.poly)
    report = analyze(phi)
    out = report.as_json()
    if args.singular and report.is_standard:
        inv = singular_inventory(phi, report)
        out["singular"] = {
            "loops": [[v.real, v.imag, m] for v, m in inv.loops],
            "multi_arc_origins": [[v.real, v.imag] for v in inv.multi_arc_origins],
            "multi_arc_ends": [[v.real, v.imag] for v in inv.multi_arc_ends],
            "out_defective": [[v.real, v.imag] for v in inv.out_defective],
            "in_defective": [[v.real, v.imag] for v in inv.in_defective],
            "numerically_uncertain": inv.numerically_uncertain,
        }
    _emit(out)


def _cmd_explore(args) -> None:
    phi = parse(args.poly)
    seed = complex(parse_scalar(args.seed))
    fn = explore_strong_component if args.command == "strong" else explore_component
    g = fn(phi, seed, _budget(args))
    if args.format == "dot":
        sys.stdout.write(export(g, "dot").decode())
        return
    out = g.as_json()
    if args.classify:
        out["label"] = str(classify(g))
    _emit(out)


def _cmd_synth(args) -> None:
    if args.digraph:
        phi = digraph_to_poly(_read_json(args.digraph, FiniteDigraph.from_json))
    elif args.complete is not None:
        phi = complete_graph_poly(args.complete)
    elif args.bipartite is not None:
        phi = bipartite_poly(args.bipartite)
    elif args.circulant is not None:
        gens = tuple(int(s) for s in args.gens.split(","))
        phi = circulant_poly(args.circulant, gens)
    elif args.prism is not None:
        phi = prism_poly(args.prism)
    else:
        phi = dihedral_poly(args.dihedral)
    _emit({"polynomial": bipoly_to_json(phi), "text": format_bipoly(phi)})


def _cmd_classify_deg1(args) -> None:
    verdict = classify_deg1(parse(args.poly), n_max=args.nmax)
    _emit({"verdict": str(verdict)})


def _cmd_classify_deg2(args) -> None:
    q = QuadSym(parse_scalar(args.a), parse_scalar(args.b), parse_scalar(args.c))
    _emit(classify_deg2(q, n_max=args.nmax).as_json())


def _cmd_cycle_condition(args) -> None:
    if args.diff:
        _emit(reference_table_diff(args.n))
        return
    sys.stdout.write(str(cycle_condition(args.n)) + "\n")


def _cmd_probe(args) -> None:
    result = probe_conjecture(
        parse(args.poly),
        n_seeds=args.seeds,
        budget=_budget(args),
        rng_seed=args.rng_seed,
    )
    _emit(result.as_json())


def _cmd_export(args) -> None:
    g = _read_json(args.graph, ExploredDigraph.from_json)
    sys.stdout.write(export(g, args.format).decode())


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.run(args)
        return EXIT_OK
    except PolygraphError as exc:
        sys.stderr.write(json.dumps({"error": exc.as_json()}, sort_keys=True) + "\n")
        return EXIT_DOMAIN
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        payload = {"type": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps({"error": payload}, sort_keys=True) + "\n")
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
