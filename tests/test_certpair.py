"""scripts/certpair.py: the summary of paired certbench results."""

import importlib.util
import pathlib

import pytest

PATH = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "certpair.py"
spec = importlib.util.spec_from_file_location("certpair", PATH)
certpair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(certpair)


def test_summary_counts_pairs_that_moved_the_better_way():
    parent = [{"certs_per_s": v, "cert_p90_ms": t}
              for v, t in [(100, 3.0), (110, 3.2), (90, 2.8), (105, 3.1)]]
    change = [{"certs_per_s": v, "cert_p90_ms": t}
              for v, t in [(120, 3.0), (100, 3.0), (99, 2.5), (130, 3.5)]]
    rows = {row["metric"]: row for row in certpair.summarize(
        list(zip(parent, change)), {"certs_per_s": "higher"})}
    speed, p90 = rows["certs_per_s"], rows["cert_p90_ms"]
    assert (speed["parent_median"], speed["change_median"]) == (102.5, 110.0)
    assert speed["better_pairs"] == 3 and speed["pairs"] == 4
    assert speed["change_pct"] == pytest.approx(100 * 7.5 / 102.5)
    # statistics.quantiles' default (exclusive) method
    assert (speed["parent_q1"], speed["parent_q3"]) == (92.5, 108.75)
    # lower is better when a metric is not listed; a tie is not better
    assert p90["better_pairs"] == 2
    assert p90["parent_median"] == pytest.approx(3.05)


def test_summary_of_one_pair_has_the_value_as_both_quartiles():
    (row,) = certpair.summarize([({"setup_s": 0.2}, {"setup_s": 0.1})], {})
    assert (row["parent_q1"], row["parent_q3"]) == (0.2, 0.2)
    assert row["better_pairs"] == 1 and row["change_pct"] == -50.0


@pytest.mark.parametrize("text, seeds", [("711-714", [711, 712, 713, 714]),
                                         ("3,1", [3, 1]), ("5", [5])])
def test_seed_lists(text, seeds):
    assert certpair.parse_seeds(text) == seeds


def test_runs_alternate_sides_and_an_incorrect_run_exits_1(monkeypatch,
                                                           capsys):
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((str(checkout), seed))
        return {"correct": (str(checkout), seed) != ("new", 2),
                "metrics": {"certs_per_s": {"value": 1.0, "unit": "1/s"}}}

    monkeypatch.setattr(certpair, "run_one", fake_run)
    argv = ["old", "new", "--workloads", "ez", "--seeds", "1-2"]
    assert certpair.main(argv) == 1
    assert calls == [("old", 1), ("new", 1), ("new", 2), ("old", 2)]
    out = capsys.readouterr()
    assert "ez seed 2: change run not correct" in out.err
    assert "better in 0/2" in out.out
