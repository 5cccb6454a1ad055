"""scripts/ladder.py: limited children and the BENCH file."""

import importlib.util
import json
import pathlib
import sys

import pytest

PATH = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "ladder.py"
spec = importlib.util.spec_from_file_location("ladder", PATH)
ladder = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ladder)


def test_rows_alternate_checkouts_and_a_failing_run_exits_1(monkeypatch,
                                                             tmp_path):
    calls, probes = [], []
    k = ladder.PROBES
    # around each child: k probes before and k after, each k reading 1.5,
    # 1.0, 1.5, 1.5, 9.0; their median is 1.5, the last probe before the
    # child is not
    readings = ([1.5, 1.0, 1.5, 1.5] + [9.0] * (k - 4)) * 2

    def fake_run(checkout, argv):
        # probed just before the child, and after the one before it
        assert len(probes) == k * (2 * len(calls) + 1)
        calls.append((checkout.name, argv))
        failed = (checkout.name, argv) == ("new", ladder.ROWS["ez-aw-11"])
        return {"wall_s": 1.5, "peak_rss_mb": 30.0,
                "exit": 3 if failed else 0, "timed_out": False}

    def fake_probe():
        probes.append(1)
        return readings[(len(probes) - 1) % len(readings)] * \
            ladder.hostspeed.REFERENCE_S

    monkeypatch.setattr(ladder, "run_row", fake_run)
    monkeypatch.setattr(ladder.hostspeed, "probe", fake_probe)
    for name in ("old", "new"):
        (tmp_path / name / "src" / "zilber").mkdir(parents=True)
        (tmp_path / name / "src" / "zilber" / "m.py").write_text(
            "# a comment\n\nx = 1\n" * (2 if name == "new" else 1))
        (tmp_path / name / "tests").mkdir()
        (tmp_path / name / "tests" / "t.py").write_text(
            "x = 1\n" * (3 if name == "new" else 5))
    out = tmp_path / "BENCH.json"
    argv = ["--checkout", f"parent={tmp_path / 'old'}",
            "--checkout", f"change={tmp_path / 'new'}", "--out", str(out)]
    assert ladder.main(argv) == 1
    assert ladder.REPEAT == 2 and k >= 5
    assert len(probes) == 2 * k * len(calls)  # probed after the last child
    assert calls == [(label, row) for row in ladder.ROWS.values()
                     for label in ("old", "new", "new", "old")]
    bench = json.loads(out.read_text())
    assert bench["nproc"] >= 1 and bench["python"].count(".") == 2
    assert bench["sloc"] == {"parent": {"m.py": 1, "total": 1},
                             "change": {"m.py": 2, "total": 2}}
    assert bench["sloc_tests"] == {"parent": 5, "change": 3}
    assert [row["name"] for row in bench["rows"]] == list(ladder.ROWS)
    assert [row["argv"] for row in bench["rows"]] == list(ladder.ROWS.values())
    # the rows whose normalized side grows with the bound
    assert ladder.ROWS["ez-aw-d4-8"] == ["ez", "delta4", "delta4", "--check",
                                         "aw", "--dim-bound", "8"]
    assert ladder.ROWS["ez-aw-d5-8"] == ["ez", "delta5", "delta5", "--check",
                                         "aw", "--dim-bound", "8"]
    # the free path at Δ⁶×Δ⁶, where per-object costs show in the peak RSS
    assert ladder.ROWS["ez-aw-d6-12"] == ["ez", "delta6", "delta6", "--check",
                                          "aw", "--dim-bound", "12"]
    # associativity whose normalized side grows with the bound
    assert ladder.ROWS["ez-assoc-d3-9"] == ["ez", "delta3", "delta3",
                                            "--third", "delta3", "--check",
                                            "assoc", "--dim-bound", "9"]
    # unitality reads the edge shuffles alone: the row times set-up
    assert ladder.ROWS["ez-unital-11"] == ["ez", "delta3", "delta3", "--check",
                                           "unital", "--dim-bound", "11"]
    # homology and the acyclic-cone test above the top nondegenerate degree
    assert ladder.ROWS["ez-kunneth-d3-9"] == ["ez", "delta3", "delta3",
                                              "--check", "kunneth",
                                              "--dim-bound", "9"]
    # the filtered pairing whose skeletal stages are 0 or an identity
    assert ladder.ROWS["ss-pairing-d3-6"] == ["ss", "ez:delta3,delta3",
                                              "--pairing", "--dim-bound", "6"]
    # the spectral pages' small Smith normal forms at certbench scale
    assert ladder.ROWS["ss-random-p4"] == ["ss", "random", "--trials", "300",
                                           "--p-max", "4"]
    # the same pages with page recursion past r_inf = 5
    assert ladder.ROWS["ss-random-p4-r7"] == ["ss", "random", "--trials",
                                              "300", "--p-max", "4",
                                              "--pages", "7"]
    # the Day-convolution laws and the filtered shuffle pairing
    assert ladder.ROWS["day-assoc-400"] == ["skeleta", "--day-assoc",
                                            "--trials", "400"]
    assert ladder.ROWS["filtered-ez-d5-10"] == ["skeleta", "delta5", "delta5",
                                                "--filtered-ez",
                                                "--dim-bound", "10"]
    assert "mostly time degenerate levels" in " ".join(
        ladder.__doc__.split())
    for row in bench["rows"]:
        failed = row["name"] == "ez-aw-11"
        assert [r["exit"] for r in row["runs"]["parent"]] == [0, 0]
        assert [r["exit"] for r in row["runs"]["change"]] == [3 * failed] * 2
        for runs in row["runs"].values():
            assert [r["host_factor"] for r in runs] == [1.5, 1.5]


def test_a_child_runs_under_its_own_limits():
    python = [sys.executable, "-c"]
    done = ladder.run_child(python + ["print(1)"], None, None, 30, 512)
    assert done["exit"] == 0 and not done["timed_out"]
    assert done["peak_rss_mb"] > 0
    # a 1 GB allocation under a 256 MB address-space limit fails in the
    # child, which is refused the memory, not given it
    done = ladder.run_child(python + ["bytearray(2 ** 30)"], None, None, 30,
                            256)
    assert done["exit"] == 1 and done["peak_rss_mb"] < 256
    done = ladder.run_child(python + ["import time; time.sleep(30)"], None,
                            None, 0.5, 512)
    assert done["timed_out"] and done["exit"] < 0 and done["wall_s"] < 10


def exit_as_expected(argv, failing=None):
    """The exit code of the row argv: its FAILING code, or 0."""
    failing = ladder.FAILING if failing is None else failing
    name = next(n for n, row in ladder.ROWS.items() if row == argv)
    return failing.get(name, 0)


def test_main_defaults_to_this_checkout(monkeypatch, tmp_path):
    seen = []
    monkeypatch.setattr(ladder, "run_row", lambda checkout, argv: (
        seen.append(checkout), {"wall_s": 0.1, "peak_rss_mb": 1.0,
                                "exit": exit_as_expected(argv),
                                "timed_out": False})[1])
    out = tmp_path / "b.json"
    assert ladder.main(["--out", str(out)]) == 0
    assert seen == [ladder.ROOT] * len(ladder.ROWS) * ladder.REPEAT
    assert list(json.loads(out.read_text())["sloc"]) == ["change"]


def test_the_negative_control_must_fail(monkeypatch, tmp_path):
    # left-kan-neg holds at m <= 5 and fails at m = 6, where [6] is not in
    # Δ≤5: the row must exit 1, and a 0 is a failure; its twin passes
    assert ladder.ROWS["left-kan-pos"] == ["promonoidal", "--check",
                                           "left-kan", "--ns", "2,3", "--b",
                                           "5", "--m", "6"]
    assert ladder.ROWS["left-kan-neg"] == ["promonoidal", "--check",
                                           "left-kan", "--ns", "3,3", "--b",
                                           "5", "--m", "6"]
    assert ladder.FAILING == {"left-kan-neg": 1}
    out = tmp_path / "b.json"
    for failing, code in (({"left-kan-neg": 1}, 0), ({}, 1)):
        monkeypatch.setattr(ladder, "run_row", lambda checkout, argv: {
            "wall_s": 0.1, "peak_rss_mb": 1.0, "timed_out": False,
            "exit": exit_as_expected(argv, failing)})
        assert ladder.main(["--out", str(out)]) == code
    row = json.loads(out.read_text())["rows"][-1]
    assert row["name"] == "left-kan-neg"
    assert [r["exit"] for r in row["runs"]["change"]] == [0, 0]


def test_the_bench_file_is_named_on_every_run(capsys):
    with pytest.raises(SystemExit):
        ladder.main([])
    assert "--out" in capsys.readouterr().err
