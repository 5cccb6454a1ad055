"""Command-line interface: reports, exit codes, determinism, stdin input."""

import io
import json
import os
import subprocess
import sys

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


def test_ez_hands_the_third_space_to_assoc_only(capsys):
    code, rep, _ = run(capsys, ["ez", "delta1", "delta1", "--third", "delta1",
                                "--check", "aw", "--check", "assoc",
                                "--dim-bound", "2"])
    assert code == 0 and rep["pass"] is True
    assert [c["check"] for c in rep["certificates"]] == ["aw", "assoc"]


def test_failing_kunneth_names_the_cone_homology_as_its_witness(capsys):
    # S¹×Δ³ has nondegenerate 4-simplices, so at bound 3 its truncated top
    # homology differs from that of the tensor side; this once exited 1
    # with no witness and the detail of a pass
    code, rep, _ = run(capsys, ["ez", "s1", "delta3", "--check", "kunneth",
                                "--dim-bound", "3"])
    assert code == 1 and rep["pass"] is False
    assert rep["certificates"] == [{
        "ok": False, "check": "kunneth", "witness": "3",
        "detail": "H_3 of the cone of ∇ is Z^3"}]
    code, rep, _ = run(capsys, ["ez", "s1", "s1", "--check", "kunneth"])
    assert code == 0 and rep["certificates"] == [{
        "ok": True, "check": "kunneth", "witness": None,
        "detail": "shuffle map induces an isomorphism on homology"}]


EZ_CHECKS = ["ez", "delta2", "delta2", "--check", "chain", "--check", "aw",
             "--check", "unital", "--check", "symmetry", "--dim-bound", "4"]


def test_ez_checks_share_one_pair(capsys, monkeypatch, shuffle_constructions):
    # the command's checks on the oracle's matrix path, swapped in for ez
    import oracles
    from zilber import cli

    monkeypatch.setattr(cli, "ez", oracles)
    code, rep, _ = run(capsys, EZ_CHECKS)
    assert code == 0 and rep["pass"] is True
    # ∇ of (A, B), which chain, aw and symmetry share, and ∇ of (B, A)
    assert len(shuffle_constructions) == 2


def test_free_ez_checks_share_one_pair(capsys, shuffle_constructions,
                                       free_shuffle_constructions):
    code, rep, _ = run(capsys, EZ_CHECKS)
    assert code == 0 and rep["pass"] is True
    assert len(free_shuffle_constructions) == 2
    assert shuffle_constructions == []


def test_promonoidal_left_kan_failure_has_witness_and_exit_1(capsys):
    code, rep, _ = run(capsys, ["promonoidal", "--check", "left-kan",
                                "--ns", "1,1", "--b", "1", "--m", "2"])
    assert code == 1 and rep["pass"] is False
    failing = [c for c in rep["certificates"] if not c["ok"]]
    assert failing and failing[0].get("witness") is not None


@pytest.mark.parametrize("argv", [
    ["promonoidal", "--check", "product-colimit", "--ns", "1,-1"],
    ["promonoidal", "--check", "product-colimit", "--k-max", "-1"],
    ["promonoidal", "--check", "unit", "--b", "-1"],
    ["promonoidal", "--check", "mu-assoc", "--entries", "1,1,-1", "--b", "1"],
    ["promonoidal", "--check", "mu-assoc", "--b", "-1"],
    ["promonoidal", "--check", "coyoneda", "--b", "-1"],
    ["promonoidal", "--check", "left-kan", "--ns", "1,1", "--b", "2", "--m", "-1"],
    ["promonoidal", "--check", "left-kan", "--ns", "1,-1", "--b", "2"],
    ["promonoidal", "--check", "left-kan", "--b", "-1"],
    ["promonoidal", "--check", "left-kan", "--ns", ""],
    ["promonoidal", "--check", "operator-frag", "--trials", "0"],
    ["promonoidal", "--check", "operator-frag", "--length", "-1"],
    ["doldkan", "--hom-table", "-3"],
    ["doldkan", "--fuzz", "-2"],
    ["doldkan", "--random-complexes", "-1"],
    ["doldkan"],
    ["ss", "random", "--trials", "0"],
    ["ss", "random", "--p-max", "-1", "--trials", "2"],
    ["ss", "sk:s1", "--pages", "-2"],
    ["skeleta", "--day-unit", "--trials", "-1"],
    ["skeleta"],
    ["skeleta", "delta1", "delta1", "--p", "-1", "--q", "0", "--n", "1"],
    ["ez", "delta0", "delta0", "--check", "aw", "--dim-bound", "-1"],
    ["ez", "delta1", "delta1", "--check", "aw", "--third", "s1"],
    ["ez", "delta1", "delta1", "--check", "chain", "--check", "assoc"],
    ["skeleta", "no-such-space", "other", "--day-unit", "--trials", "1"],
    # options that no selected check reads
    ["ss", "random", "--heart", "--trials", "1"],
    ["ss", "sk:s1", "--pairing"],
    ["promonoidal", "--check", "unit", "--ns", "5,5"],
    ["promonoidal", "--check", "unit", "--entries", "1,2,3"],
    ["promonoidal", "--check", "coyoneda", "--m", "3"],
], ids=lambda argv: " ".join(argv[2:] if argv[0] == "promonoidal" else argv))
def test_promonoidal_vacuous_input_is_an_input_error(capsys, argv):
    # each of these once checked nothing and passed, or failed as if a
    # certificate had found a counterexample; promonoidal cases keep their
    # ids without the command name
    code, rep, err = run(capsys, argv)
    assert code == 2 and rep is None
    assert "error" in json.loads(err)


def test_promonoidal_operator_fragment_draws_at_length_four(capsys):
    # listing its hom-sets once ran out of memory at this size
    code, rep, _ = run(capsys, ["promonoidal", "--check", "operator-frag",
                                "--b", "3", "--length", "4"])
    assert code == 0 and rep["pass"] is True


def test_promonoidal_operator_fragment_checks_the_left_unit_law(
        capsys, monkeypatch):
    from zilber import promonoidal
    compose = promonoidal.OperatorCategoryFragment.compose

    def left_unit_broken(self, second, first):
        # id ∘ f gains a trailing multimorphism, which compose never reads,
        # so f ∘ id and composites with no identity on the left are intact
        out = compose(self, second, first)
        if second == self.identity(second.source) and first != second:
            return out._replace(mults=out.mults + ((),))
        return out

    monkeypatch.setattr(promonoidal.OperatorCategoryFragment, "compose",
                        left_unit_broken)
    code, rep, _ = run(capsys, ["promonoidal", "--check", "operator-frag"])
    assert code == 1 and rep["pass"] is False
    assert rep["certificates"][0]["witness"].startswith("('left-unit', ")


def test_skeleta_filtered_ez_on_points_passes(capsys):
    code, rep, _ = run(capsys, ["skeleta", "delta0", "delta0",
                                "--filtered-ez"])
    assert code == 0 and rep["pass"] is True


def test_unknown_builtin_is_an_input_error(capsys):
    code, rep, err = run(capsys, ["homology", "definitely-not-a-space"])
    assert code == 2
    assert "error" in json.loads(err)


def test_malformed_payload_is_an_input_error(tmp_path, capsys):
    from zilber.filtration import unit_filtration
    from zilber.simplicial import circle
    short = circle(2).to_payload()
    short["faces"]["1,0"].pop()
    unstaged = unit_filtration(1).to_payload()
    unstaged["p_max"] = 3
    listed = unit_filtration(0).to_payload()
    listed["stages"] = [[]]
    cases = [("homology", {"format": "ssimp", "version": 1}),
             ("homology", short), ("ss", unstaged), ("ss", listed)]
    # a differential or a stage outside the degrees of the complex was
    # once dropped, and the homology of another complex reported, exit 0
    for key in ("0", "5"):
        cases.append(("homology", {"format": "chain", "version": 1,
                                   "ranks": [1, 1],
                                   "differentials": {"1": [[0]], key: [[7]]}}))
    for degree in ("-1", "1"):
        off = unit_filtration(1).to_payload()
        off["stages"][0][degree] = [[1]]
        cases.append(("ss", off))
    # operator tables at indices no 2-truncated simplicial set has were
    # once kept (and written back out by to_payload), exit 0
    extra_face, extra_degen = ("faces", "1,7", [0, 0]), ("degens", "0,3", [0])
    for tables in ([extra_face], [extra_degen], [extra_face, extra_degen]):
        extra = circle(2).to_payload()
        for table, key, values in tables:
            extra[table][key] = values
        cases.append(("homology", extra))
    # a negative bound or level size, and a table entry that is not an
    # index of its target level, were once accepted, exit 0
    cases.append(("doldkan", {"format": "ssimp", "version": 1,
                              "dim_bound": -1, "levels": [], "faces": {},
                              "degens": {}}))
    floating = circle(2).to_payload()
    floating["faces"]["2,0"][1] = 1.0
    cases.append(("homology", floating))
    cases.append(("homology", {"format": "ssimp", "version": 1,
                               "dim_bound": 0, "levels": [-2], "faces": {},
                               "degens": {}}))
    # a rank of -1 was once reported as "free_rank": -1, and true was read
    # as 1 in a rank or p_max and reported as "dim_bound": true, exit 0;
    # the error names the field
    for rank in (-1, True):
        cases.append(("homology", {"format": "chain", "version": 1,
                                   "ranks": [rank], "differentials": {}},
                      "ranks"))
    flagged = circle(1).to_payload()
    flagged["dim_bound"] = True
    cases.append(("homology", flagged, "dim_bound"))
    flagged = unit_filtration(1).to_payload()
    flagged["p_max"] = True
    cases.append(("ss", flagged, "p_max"))

    def stamped(payload, version, inner=False):
        """payload with its version, or its ambient's, replaced by version
        (None: removed)."""
        target = payload["ambient"] if inner else payload
        del target["version"]
        if version is not None:
            target["version"] = version
        return payload

    # a payload of another version, or with none, was once read as
    # version 1, exit 0; a filt payload's ambient is a chain payload
    for version in (99, None, True):
        for command, payload, inner in (
                ("homology", circle(1).to_payload(), False),
                ("homology", {"format": "chain", "version": 1, "ranks": [1],
                              "differentials": {}}, False),
                ("ss", unit_filtration(1).to_payload(), False),
                ("ss", unit_filtration(1).to_payload(), True)):
            cases.append((command, stamped(payload, version, inner),
                          "version"))
    for command, payload, *field in cases:
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(payload))
        code, rep, err = run(capsys, [command, str(p)])
        assert code == 2
        assert all(f in json.loads(err)["error"] for f in field)


@pytest.mark.parametrize("argv", [
    ["ez", "P", "s1", "--check", "chain"],
    ["ez", "P", "s1", "--check", "aw"],
    ["ez", "P", "s1", "--check", "kunneth"],
    ["ez", "P", "s1", "--check", "unital"],
    ["ez", "s1", "s1", "--third", "P", "--check", "assoc"],
    ["skeleta", "P", "s1", "--filtered-ez"],
    ["ss", "ez:P,s1"],
], ids=" ".join)
def test_spaces_of_different_bounds_are_an_input_error(tmp_path, capsys,
                                                       argv):
    # P, a payload of bound 2, against s1 at the default bound 3 once
    # failed a certificate (exit 1) or passed the unital one (exit 0)
    from zilber.simplicial import circle
    p = tmp_path / "circle2.json"
    p.write_text(json.dumps(circle(2).to_payload()))
    code, rep, err = run(capsys, [a.replace("P", str(p)) for a in argv])
    assert code == 2 and rep is None
    message = json.loads(err)["error"]
    assert "has 2" in message and "has 3" in message


@pytest.mark.parametrize("argv", [
    ["ez", "P", "P", "--check", "unital"],
    ["ez", "P", "P", "--third", "P", "--check", "assoc"],
    ["skeleta", "P", "P", "--filtered-ez"],
    ["skeleta", "P", "P", "--p", "1", "--q", "1", "--n", "2"],
    ["ss", "ez:P,P"],
    ["ss", "sk:P"],
    ["homology", "P"],
    ["doldkan", "P"],
    ["doldkan", "P", "--roundtrip"],
    ["homology", "C", "--dim-bound", "1"],
], ids=" ".join)
def test_report_records_the_bound_of_the_loaded_spaces(tmp_path, capsys,
                                                       argv):
    # payloads of bound 2 were once reported at the default bound 3, and a
    # chain payload C (top degree 2) at the requested bound; it has none
    from zilber.chains import ChainComplex
    from zilber.simplicial import circle
    p = tmp_path / "circle2.json"
    p.write_text(json.dumps(circle(2).to_payload()))
    c = tmp_path / "chain.json"
    c.write_text(json.dumps(ChainComplex([1, 1, 1], {}).to_payload()))
    code, rep, _ = run(capsys, [str(c) if a == "C" else a.replace("P", str(p))
                                for a in argv])
    assert code == 0
    assert rep["inputs"]["dim_bound"] == (None if "C" in argv else 2)


@pytest.mark.parametrize("command, payload", [
    ("homology", "[1]"), ("doldkan", "[1]"), ("ss", "[1]"),
    ("homology", "null"), ("doldkan", '"ssimp"'), ("ss", "3"),
    ("homology", '{"format": "chain", "ranks": [1], "differentials": [], '
                 '"version": 1}'),
    ("homology", '{"format": "ssimp", "dim_bound": 0, "levels": [1], '
                 '"faces": [], "degens": {}, "version": 1}'),
    ("ss", '{"format": "filt", "ambient": [], "p_max": 0, "stages": [{}], '
           '"version": 1}'),
])
def test_payload_of_the_wrong_json_type_is_an_input_error(
        capsys, monkeypatch, command, payload):
    # these once exited 1 with an AttributeError traceback, as if a
    # certificate had failed
    monkeypatch.setattr("sys.stdin", io.StringIO(payload))
    code, rep, err = run(capsys, [command, "-"])
    assert code == 2 and rep is None
    assert json.loads(err)["exit"] == 2


def _chain_with_entry(x):
    return {"format": "chain", "version": 1, "ranks": [2, 1],
            "differentials": {"1": [[x], [1]]}}


def _filt_with_entry(x):
    from zilber.filtration import unit_filtration
    payload = unit_filtration(1).to_payload()
    payload["stages"][1]["0"] = [[x]]
    return payload


@pytest.mark.parametrize("command, payload, matrix", [
    ("homology", _chain_with_entry("a"), "differential d_1"),
    ("homology", _chain_with_entry(True), "differential d_1"),
    ("homology", _chain_with_entry(1.5), "differential d_1"),
    ("ss", _filt_with_entry(True), "stage (1,0)"),
    ("ss", _filt_with_entry(1.5), "stage (1,0)"),
])
def test_matrix_entry_that_is_not_an_integer_is_an_input_error(
        capsys, monkeypatch, command, payload, matrix):
    # a string entry once exited 3 as a library fault, true was read as 1
    # and exited 0, and 1.5 exited 2 with "B is not contained in Z"
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    code, rep, err = run(capsys, [command, "-"])
    assert code == 2 and rep is None
    error = json.loads(err)["error"]
    assert matrix in error and "not an integer" in error


def test_internal_error_exits_3(capsys, monkeypatch):
    from zilber import doldkan

    def broken(A):
        raise AssertionError("projection ∘ section is not the identity")

    monkeypatch.setattr(doldkan, "_normalize", broken)
    code, rep, err = run(capsys, ["homology", "torus"])
    assert code == 3 and rep is None
    assert json.loads(err) == {
        "error": "projection ∘ section is not the identity", "exit": 3}


def test_a_shape_fault_inside_the_library_exits_3(capsys, monkeypatch):
    # input shapes are checked at the payload boundary, so a mismatch
    # inside the library is a fault of the library, not an input error
    from zilber import doldkan
    from zilber import intlinalg as la

    def broken(A):
        return la.mat_mul(la.zeros(2, 3), la.zeros(2, 3))

    monkeypatch.setattr(doldkan, "_normalize", broken)
    code, rep, err = run(capsys, ["homology", "torus"])
    assert code == 3 and rep is None
    assert json.loads(err) == {
        "error": "dimension mismatch in mat_mul: 2x3 times 2x3", "exit": 3}


def test_a_page_fault_inside_the_library_exits_3(capsys, monkeypatch):
    # with Z_r built as {x in F_p : dx in F_(p-r+1)}, some differential
    # meets a lift whose boundary leaves the target's Z_r: a fault of the
    # library, not an input error
    from zilber import spectral

    z_key = spectral._Store.z_key
    monkeypatch.setattr(spectral._Store, "z_key", lambda self, r, p, n:
                        z_key(self, max(r - 1, 0), p, n))
    code, rep, err = run(capsys, ["ss", "random", "--trials", "50",
                                  "--p-max", "4"])
    assert code == 3 and rep is None
    assert json.loads(err) == {"error": "a column is not in the subgroup Z",
                               "exit": 3}


@pytest.mark.parametrize("exc", [KeyError("missing operator"),
                                 TypeError("unhashable type: 'list'")])
def test_library_key_and_type_errors_exit_3(capsys, monkeypatch, exc):
    # a KeyError or TypeError from inside the library is a fault of the
    # library, not of the input, so it must not read as exit 2
    from zilber import doldkan

    def broken(A):
        raise exc

    monkeypatch.setattr(doldkan, "_normalize", broken)
    code, rep, err = run(capsys, ["homology", "torus"])
    assert code == 3 and rep is None
    assert json.loads(err) == {"error": str(exc), "exit": 3}


def test_an_exception_without_a_message_is_named_by_its_type(capsys,
                                                             monkeypatch):
    # a MemoryError of a large run carries no message: the report names
    # the exception, where it once read "error": ""
    from zilber import cli

    def out_of_memory(args):
        raise MemoryError()

    monkeypatch.setattr(cli, "cmd_ez", out_of_memory)
    code, rep, err = run(capsys, ["ez", "delta1", "delta1", "--check", "aw"])
    assert code == 3 and rep is None
    assert json.loads(err) == {"error": "MemoryError", "exit": 3}


@pytest.mark.parametrize("target,argv,exc", [
    ("promonoidal._kan_failure", ["promonoidal", "--check", "left-kan"],
     IndexError("list index out of range")),
    ("doldkan._normalize", ["homology", "torus"],
     ZeroDivisionError("division by zero")),
], ids=["IndexError", "ZeroDivisionError"])
def test_any_other_library_exception_exits_3(capsys, monkeypatch, target,
                                             argv, exc):
    # these once escaped main with a traceback and exit 1, the code of a
    # failing certificate
    def broken(*args):
        raise exc

    monkeypatch.setattr("zilber." + target, broken)
    code, rep, err = run(capsys, argv)
    assert code == 3 and rep is None
    assert json.loads(err) == {"error": str(exc), "exit": 3}


class ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


FAILING_LEFT_KAN = ["promonoidal", "--check", "left-kan", "--ns", "1,1",
                    "--b", "1", "--m", "2"]


@pytest.mark.parametrize("argv, grade", [(["homology", "torus"], 0),
                                         (FAILING_LEFT_KAN, 1)],
                         ids=["pass", "fail"])
def test_a_closed_stdout_keeps_the_grade_and_prints_no_error(
        capsys, monkeypatch, argv, grade):
    # a reader that closed the pipe (zilber ... | head -c 0) once turned
    # every report into exit 3, with a JSON internal error on stderr
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(argv) == grade
    devnull = sys.stdout  # so the interpreter's last flush cannot raise
    assert devnull.name == os.devnull
    devnull.close()
    assert capsys.readouterr().err == ""


def test_a_closed_pipe_ends_the_process_quietly():
    # the read end is closed before the process starts, so its first
    # write fails; nothing may reach stderr, not even at interpreter exit
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "zilber.cli", *FAILING_LEFT_KAN],
            stdout=write, stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path)))
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (1, b"")


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


def test_negative_dimension_cap_is_an_input_error(capsys, monkeypatch):
    # a cap of -1 was once clamped to 0, and homology torus reported H_0 only
    monkeypatch.setenv("ZILBER_MAX_DIM", "-1")
    code, rep, err = run(capsys, ["homology", "torus"])
    assert code == 2 and rep is None
    assert json.loads(err)["error"] == "ZILBER_MAX_DIM must be nonnegative"


def test_doldkan_roundtrip_and_fuzz(capsys):
    code, rep, _ = run(capsys, ["doldkan", "--random-complexes", "3",
                                "--fuzz", "3", "--seed", "5"])
    assert code == 0 and rep["pass"] is True


def test_ss_random_filtrations(capsys):
    code, rep, _ = run(capsys, ["ss", "random", "--trials", "3",
                                "--p-max", "2", "--seed", "9"])
    assert code == 0 and rep["pass"] is True


@pytest.mark.parametrize("argv", [
    ["homology", "delta1"],
    ["doldkan", "--hom-table", "1"],
    ["ez", "delta1", "delta1", "--check", "aw"],
    ["skeleta", "--day-unit", "--trials", "1"],
    ["ss", "sk:delta1"],
    ["promonoidal", "--check", "unit", "--b", "1"],
], ids=lambda argv: argv[0])
def test_report_shape(capsys, argv):
    # main assembles every command's report, so all six share one shape
    code, rep, _ = run(capsys, argv)
    assert code == 0
    assert set(rep) == {"format", "version", "command", "inputs", "results",
                        "certificates", "pass", "timing"}
    assert rep["command"] == argv[0] and "digest" in rep["inputs"]
    assert set(rep["timing"]) == {"seconds", "import_s"}
    for seconds in rep["timing"].values():
        assert type(seconds) in (int, float) and seconds >= 0
