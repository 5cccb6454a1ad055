"""Command-line interface: reports, exit codes, determinism, stdin input."""

import io
import json
import os

import pytest

from zilber.cli import main


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


def normalized(report):
    rep = dict(report)
    rep.pop("timing", None)
    return rep


def test_homology_of_builtin_torus(capsys):
    code, rep, _ = run(capsys, ["homology", "torus"])
    assert code == 0
    h = rep["results"]["homology"]
    assert [h[str(n)]["pretty"] for n in range(3)] == ["Z", "Z^2", "Z"]


def test_ez_aw_on_intervals_passes(capsys):
    code, rep, _ = run(capsys, ["ez", "delta1", "delta1", "--check", "aw"])
    assert code == 0 and rep["pass"] is True


def test_promonoidal_left_kan_failure_has_witness_and_exit_1(capsys):
    code, rep, _ = run(capsys, ["promonoidal", "--check", "left-kan",
                                "--ns", "1,1", "--b", "1", "--m", "2"])
    assert code == 1 and rep["pass"] is False
    failing = [c for c in rep["certificates"] if not c["ok"]]
    assert failing and failing[0].get("witness") is not None


@pytest.mark.parametrize("argv", [
    ["--check", "product-colimit", "--ns", "1,-1"],
    ["--check", "product-colimit", "--k-max", "-1"],
    ["--check", "unit", "--b", "-1"],
    ["--check", "mu-assoc", "--entries", "1,1,-1", "--b", "1"],
    ["--check", "mu-assoc", "--b", "-1"],
    ["--check", "coyoneda", "--b", "-1"],
    ["--check", "left-kan", "--ns", "1,1", "--b", "2", "--m", "-1"],
    ["--check", "left-kan", "--ns", "1,-1", "--b", "2"],
    ["--check", "left-kan", "--b", "-1"],
], ids=lambda argv: " ".join(argv[1:]))
def test_promonoidal_vacuous_input_is_an_input_error(capsys, argv):
    # each of these once checked nothing and passed, or failed as if a
    # certificate had found a counterexample
    code, rep, err = run(capsys, ["promonoidal"] + argv)
    assert code == 2 and rep is None
    assert "error" in json.loads(err)


def test_skeleta_filtered_ez_on_points_passes(capsys):
    code, rep, _ = run(capsys, ["skeleta", "delta0", "delta0",
                                "--filtered-ez"])
    assert code == 0 and rep["pass"] is True


def test_unknown_builtin_is_an_input_error(capsys):
    code, rep, err = run(capsys, ["homology", "definitely-not-a-space"])
    assert code == 2
    assert "error" in json.loads(err)


def test_malformed_payload_is_an_input_error(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"format": "ssimp", "version": 1}))
    code, rep, err = run(capsys, ["homology", str(p)])
    assert code == 2


def test_reports_are_deterministic_modulo_timing(capsys):
    _, rep1, _ = run(capsys, ["ss", "sk:s1", "--heart"])
    _, rep2, _ = run(capsys, ["ss", "sk:s1", "--heart"])
    assert normalized(rep1) == normalized(rep2)


def test_stdin_payload(capsys, monkeypatch):
    from zilber.simplicial import circle
    payload = json.dumps(circle(2).to_payload())
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, rep, _ = run(capsys, ["homology", "-"])
    assert code == 0
    h = rep["results"]["homology"]
    assert [h[str(n)]["pretty"] for n in range(2)] == ["Z", "Z"]


def test_dimension_cap_from_environment(capsys, monkeypatch):
    monkeypatch.setenv("ZILBER_MAX_DIM", "1")
    code, rep, err = run(capsys, ["homology", "delta2", "--dim-bound", "3"])
    assert code == 2


def test_doldkan_roundtrip_and_fuzz(capsys):
    code, rep, _ = run(capsys, ["doldkan", "--random-complexes", "3",
                                "--fuzz", "3", "--seed", "5"])
    assert code == 0 and rep["pass"] is True


def test_ss_random_filtrations(capsys):
    code, rep, _ = run(capsys, ["ss", "random", "--trials", "3",
                                "--p-max", "2", "--seed", "9"])
    assert code == 0 and rep["pass"] is True


def test_report_shape(capsys):
    code, rep, _ = run(capsys, ["promonoidal", "--check", "unit", "--b", "1"])
    assert code == 0
    for key in ("command", "inputs", "results", "certificates", "pass",
                "timing"):
        assert key in rep
    assert "digest" in rep["inputs"]
