"""Command line behavior: JSON output, exit codes, determinism."""

import json

import pytest

from polygraph.cli import EXIT_DOMAIN, EXIT_OK, EXIT_USAGE, main


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
    code, out, _ = run_cli(capsys, "cycle-condition", "2")
    assert code == EXIT_OK and out.strip() == "a + d"


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


def test_classify_deg2(capsys):
    code, out, _ = run_cli(capsys, "classify-deg2", "--a", "-1", "--c", "1")
    data = json.loads(out)
    assert data["verdict"] == "Cycle(3)" and data["cosine_witness"] == [3, 1]


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


def test_domain_error_exit_2(capsys):
    code, out, err = run_cli(capsys, "explore", "(y-x)^2", "--seed", "0")
    assert code == EXIT_DOMAIN and out == ""
    payload = json.loads(err)["error"]
    assert payload["type"] == "NotStandardError"


def test_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "analyze", "x^2 + @")
    assert code == EXIT_DOMAIN
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


def test_exact_huge_integers_analyze(capsys):
    code, out, _ = run_cli(capsys, "analyze", "10^400*x^2 + x*y + y^2")
    assert code == EXIT_OK
    data = json.loads(out)
    assert data["is_standard"] is True
    assert data["D"] == f"{4 * 10**400 - 1}*x^2"


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
