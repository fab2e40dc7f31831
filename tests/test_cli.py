"""Command line behavior: JSON output, exit codes, determinism."""

import json
import warnings

import pytest

from polygraph.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, main
from polygraph.quadratic import NMAX_SEPARATED


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_json(capsys):
    code, out, _ = run_cli(capsys, "analyze", "(y-x)^4-1")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["is_standard"] is True
    assert data["degY"] == 4 and data["degX"] == 4
    assert data["failure_reasons"] == []


def test_analyze_with_inventory(capsys):
    code, out, _ = run_cli(capsys, "analyze", "x^2+x*y+y^2", "--singular")
    data = json.loads(out)
    assert code == EXIT_OK
    assert len(data["singular"]["loops"]) == 1
    assert data["singular"]["loops"][0][2] == 2  # multiplicity of the loop at 0


def test_cycle_condition_output(capsys):
    for n, text in [
        (2, "a + d"),
        (3, "a^2 + a*d + b*c + d^2"),
        (4, "a^2 + 2*b*c + d^2"),
        (6, "a^2 - a*d + 3*b*c + d^2"),
    ]:
        code, out, _ = run_cli(capsys, "cycle-condition", str(n))
        assert code == EXIT_OK and out.strip() == text


def test_cycle_condition_diff(capsys):
    code, out, _ = run_cli(capsys, "cycle-condition", "5", "--diff")
    data = json.loads(out)
    assert data["matches"] is False
    assert data["computed_only"] == {"a*b*c*d": 4}


def test_explore_dot(capsys):
    code, out, _ = run_cli(
        capsys, "explore", "(y-x)^4-1", "--seed", "0", "--depth", "2",
        "--format", "dot",
    )
    assert code == EXIT_OK
    assert out.startswith("digraph") and "->" in out


def test_explore_json_contract(capsys):
    code, out, _ = run_cli(
        capsys, "explore", "y^2+x*y+x^2", "--seed", "1", "--classify"
    )
    data = json.loads(out)
    assert set(data) == {"seed", "truncated", "vertices", "arcs", "label"}
    assert data["label"] == "CompleteK(3)"
    assert data["truncated"] is False


def test_strong_triangle(capsys, tmp_path):
    digraph = {
        "vertices": ["1", "2", "3"],
        "arcs": [[0, 1], [0, 2], [1, 0], [1, 2], [2, 0], [2, 1]],
    }
    path = tmp_path / "k3.json"
    path.write_text(json.dumps(digraph))
    code, out, _ = run_cli(capsys, "synth", "--digraph", str(path))
    assert code == EXIT_OK
    poly_text = json.loads(out)["text"]

    code, out, _ = run_cli(capsys, "strong", poly_text, "--seed", "1")
    data = json.loads(out)
    assert code == EXIT_OK
    assert len(data["vertices"]) == 3 and len(data["arcs"]) == 6
    assert data["truncated"] is False


def test_synth_arc_out_of_range_exit_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        {"vertices": ["1", "2", "3"], "arcs": [[0, 1], [1, 2], [2, 0], [0, 5]]}
    ))
    code, out, err = run_cli(capsys, "synth", "--digraph", str(path))
    assert code == EXIT_DOMAIN and not out
    assert json.loads(err)["error"]["message"] == "arc endpoint out of range"


@pytest.mark.parametrize("poly, verdict", [
    # exactly parabolic: trace^2 = 4 det in exact arithmetic
    ("(-7*x - 11/7)*y - (-x + 4/343)", "InfinitePaths"),
    # the worked six-cycle example, a = c = 1, b = -2+sqrt3, d = -1+sqrt3
    ("(x + 0.7320508075688772)*y - (x - 0.2679491924311228)", "DirectedCycles(6)"),
])
def test_classify_deg1(capsys, poly, verdict):
    code, out, _ = run_cli(capsys, "classify-deg1", poly)
    assert code == EXIT_OK and json.loads(out) == {"verdict": verdict}


def test_classify_deg1_float_multiple_of_y_minus_x(capsys):
    code, out, _ = run_cli(capsys, "classify-deg1", "1.0*y - 1.0*x")
    assert code == EXIT_OK
    assert json.loads(out) == {"verdict": "NotStandard(LoopEverywhere)"}


def test_classify_deg2(capsys):
    code, out, _ = run_cli(capsys, "classify-deg2", "--a", "-1", "--c", "1")
    data = json.loads(out)
    assert data["verdict"] == "Cycle(3)" and data["cosine_witness"] == [3, 1]


def test_classify_deg2_n_max_beyond_the_tolerance_exit_2(capsys):
    # At n_max = 10**5 the scan found (32929, 6908) for a = 0.5, whose
    # angle is irrational; n_max stops where COS_TOL separates candidates.
    code, out, err = run_cli(capsys, "classify-deg2", "--a", "0.5", "--nmax", "100000")
    assert code == EXIT_DOMAIN and out == ""
    assert json.loads(err)["error"]["type"] == "DomainError"
    code, out, _ = run_cli(capsys, "classify-deg2", "--a", "0.5", "--nmax", str(NMAX_SEPARATED))
    assert code == EXIT_OK and json.loads(out)["verdict"] == "DoubleRay"


def test_analyze_tiny_float_scale_is_standard(capsys):
    code, out, _ = run_cli(capsys, "analyze", "1e-80*((y-x)^4-1)")
    data = json.loads(out)
    assert code == EXIT_OK and data["is_standard"] is True
    assert data["failure_reasons"] == [] and data["numerically_uncertain"] is False


def test_analyze_tiny_float_scale_singular_exit_0(capsys):
    # D and E print as "0", their float images, but the inventory is taken
    # on their exact values.
    code, out, _ = run_cli(capsys, "analyze", "1e-80*((y-x)^4-1)", "--singular")
    data = json.loads(out)
    assert code == EXIT_OK and data["is_standard"] is True
    assert data["D"] == data["E"] == "0"
    assert len(data["singular"]["loops"]) == 4


def test_probe_deterministic(capsys):
    args = (
        "probe", "y^2+x*y+x^2", "--seeds", "4", "--rng-seed", "7",
        "--max-vertices", "60", "--depth", "20",
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == EXIT_OK
    assert out1 == out2
    data = json.loads(out1)
    assert data["all_isomorphic"] is True
    assert set(data["labels"]) == {"CompleteK(3)"}


def test_probe_workers_flag_is_usage_error(capsys):
    # Probes run serially: a thread pool only slowed them down under the GIL.
    with pytest.raises(SystemExit) as exc:
        main(["probe", "x^2+y^2", "--seeds", "2", "--workers", "3"])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == "" and "--workers" in captured.err


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_probe_without_seeds_exit_2(capsys, seeds):
    code, out, err = run_cli(capsys, "probe", "x^2+y^2", "--seeds", seeds)
    assert code == EXIT_DOMAIN and out == ""
    assert json.loads(err)["error"]["type"] == "DomainError"


@pytest.mark.parametrize("flag", ["--complete", "--bipartite", "--circulant", "--prism", "--dihedral"])
def test_synth_family_of_size_zero_exit_2(capsys, flag):
    code, out, err = run_cli(capsys, "synth", flag, "0")
    assert code == EXIT_DOMAIN and out == ""
    assert json.loads(err)["error"]["type"] == "DomainError"


def test_domain_error_exit_2(capsys):
    code, out, err = run_cli(capsys, "explore", "(y-x)^2", "--seed", "0")
    assert code == EXIT_DOMAIN and out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "NotStandardError"


@pytest.mark.parametrize("eps", ["inf", "nan"])
def test_non_finite_dedup_eps_exit_2(capsys, eps):
    # With eps = inf every root merges into the seed, so the ray "y-x-1"
    # would close as one vertex with a loop and "truncated": false.
    code, out, err = run_cli(capsys, "explore", "y-x-1", "--depth", "3", "--dedup-eps", eps)
    assert code == EXIT_DOMAIN and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"]["type"] == "DomainError"


@pytest.mark.parametrize("argv", [
    ("analyze", "x^2 + @"),
    ("analyze", "3/0"),
    ("analyze", "1.2.3"),
    ("analyze", "."),
    ("analyze", "..5*x + y"),
    ("explore", "y-x-1", "--seed", "1/0"),
    ("synth", "--digraph", "1/0"),
    ("analyze", "2²"),
], ids=[
    "bad_character", "zero_denominator", "two_points", "lone_point", "double_point",
    "seed_zero_denominator", "vertex_zero_denominator", "superscript_digit",
])
def test_parse_error_exit_2(capsys, tmp_path, argv):
    if argv[0] == "synth":
        # argv[2] is a vertex value of the digraph file.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vertices": ["1", argv[2]], "arcs": [[0, 1], [1, 0]]}))
        argv = (*argv[:2], str(path))
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_DOMAIN and out == ""
    assert json.loads(err)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("text,error", [
    ("1e400*x + y", "ParseError"),
    ("1e308*x*1e308 + y", "EvaluationOverflow"),
])
def test_overflowing_float_coefficient_exit_2(capsys, text, error):
    code, out, err = run_cli(capsys, "analyze", text)
    assert code == EXIT_DOMAIN and out == ""
    assert json.loads(err)["error"]["type"] == error


@pytest.mark.parametrize("text", [
    "1e100*(x^2 + x*y + y^2)",
    "1e60*(x^3 + x*y + y^3 - 1)",
])
def test_huge_float_scale_exit_2(capsys, text):
    code, out, err = run_cli(capsys, "analyze", text)
    assert code == EXIT_DOMAIN and out == ""
    assert json.loads(err)["error"]["type"] == "EvaluationOverflow"


def test_float_resultant_overflow_exit_2(capsys):
    # Determinants beyond the float range give the one JSON error on stderr
    # and no numpy warning.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "analyze", "1e50*((y-x)^4-1)")
    assert [str(w.message) for w in caught] == []
    assert code == EXIT_DOMAIN and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"]["type"] == "EvaluationOverflow"


def test_exact_huge_integers_analyze(capsys):
    code, out, _ = run_cli(capsys, "analyze", "10^400*x^2 + x*y + y^2")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["is_standard"] is True
    assert data["D"] == f"{4 * 10**400 - 1}*x^2"


@pytest.mark.parametrize("argv", [
    ("analyze", "--singular"),
    ("explore", "--seed", "1"),
    ("probe",),
], ids=["analyze", "explore", "probe"])
def test_exact_huge_integers_beyond_float_exit_2(capsys, argv):
    command, *flags = argv
    code, out, err = run_cli(capsys, command, "10^400*x^2 + x*y + y^2", *flags)
    assert code == EXIT_DOMAIN and out == ""
    assert json.loads(err)["error"]["type"] == "EvaluationOverflow"


def test_cancelled_exact_term_beside_float(capsys):
    code, out, _ = run_cli(capsys, "analyze", "(x - x) + 0.5*y")
    assert code == EXIT_OK
    assert out == run_cli(capsys, "analyze", "0.5*y")[1]


def test_flag_error_exit_64(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["explore"])  # missing polynomial argument
    assert exc.value.code == EXIT_USAGE


def test_export_roundtrip(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "explore", "y^2+x*y+x^2", "--seed", "1")
    graph_file = tmp_path / "g.json"
    graph_file.write_text(out)
    code, dot, _ = run_cli(capsys, "export", str(graph_file), "--format", "dot")
    assert code == EXIT_OK and dot.count("->") == 6


def test_export_json_round_trips_byte_for_byte(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "strong", "y^2+x*y+x^2", "--seed", "1")
    graph_file = tmp_path / "g.json"
    graph_file.write_text(out)
    code, again, _ = run_cli(capsys, "export", str(graph_file), "--format", "json")
    assert code == EXIT_OK and again == out


def test_export_of_a_missing_file_exit_2(capsys, tmp_path):
    code, out, err = run_cli(capsys, "export", str(tmp_path / "missing.json"))
    assert code == EXIT_DOMAIN and out == ""
    assert json.loads(err)["error"]["type"] == "FileNotFoundError"


@pytest.mark.parametrize("argv, content", [
    (("export",), {"seed": 0, "truncated": False, "arcs": [],
                   "vertices": [{"id": 0, "re": "1", "im": "2"}]}),
    (("export",), [1, 2]),
    (("synth", "--digraph"), {"vertices": ["1", "2"], "arcs": 5}),
], ids=["export_string_parts", "export_list", "synth_int_arcs"])
def test_json_of_the_wrong_types_exit_2(capsys, tmp_path, argv, content):
    # Well-formed JSON whose values have the wrong types is a domain error.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(content))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == EXIT_DOMAIN and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"]["type"] == "DomainError"


def _graph(ids, seed, arcs, truncated=False):
    return {"seed": seed, "truncated": truncated,
            "vertices": [{"id": i, "re": 1.0, "im": 0.0} for i in ids],
            "arcs": [{"from": f, "to": t, "mult": m} for f, t, m in arcs]}


@pytest.mark.parametrize("argv, content", [
    (("export",), _graph([0], 0, [(0, 3, 1)])),
    (("export",), _graph([0], 5, [])),
    (("export",), _graph([0, 0], 0, [])),
    (("export",), _graph([0, True], 0, [])),
    (("export",), _graph([0, 1.0], 0, [])),
    (("export",), _graph([0, 1], 0, [(0, 1.0, 1)])),
    (("export",), _graph([0, 1], 0, [(0, 1, 0)])),
    (("export",), _graph([0, 1], 0, [(0, 1, 1.5)])),
    (("export",), _graph([0, 1], 0, [(0, 1, True)])),
    (("export",), _graph([10, 11, 12, 13], 10, [(10, 11, 1), (11, 12, 1), (10, 12, 1),
                                                (12, 13, 1), (11, 13, 1)], truncated=True)),
    (("export",), _graph([1, 0], 0, [(0, 1, 1)])),
    (("export",), _graph([0], 0, [], truncated="false")),
    (("synth", "--digraph"), {"vertices": ["1", "2"], "arcs": [[0, 1.7], [1, 0]]}),
    (("synth", "--digraph"), {"vertices": ["1", "2"], "arcs": [[0, "1"], [1, 0]]}),
    (("synth", "--digraph"), {"vertices": ["1", "2"], "arcs": [[0, True], [True, 0]]}),
], ids=["export_undeclared_arc_end", "export_undeclared_seed", "export_repeated_id",
        "export_bool_id", "export_float_id", "export_float_arc_end", "export_zero_mult",
        "export_float_mult", "export_bool_mult", "export_ids_from_10", "export_ids_out_of_order",
        "export_truncated_string", "synth_float_end", "synth_str_end",
        "synth_bool_end"])
def test_graph_files_that_do_not_check_out_exit_2(capsys, tmp_path, argv, content):
    # Each file would read as a graph if ids, ends, multiplicities and
    # truncated went unchecked: export would write the DOT arc 0 -> 3,
    # classify would index past the ids 10..13, a truthy "false" would mark
    # a closed graph truncated, and synth would read 1.7, "1" and true as
    # the vertex 1.
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(content))
    code, out, err = run_cli(capsys, *argv, str(path))
    assert code == EXIT_DOMAIN and out == ""
    assert err.count("\n") == 1
    assert json.loads(err)["error"]["type"] == "DomainError"
