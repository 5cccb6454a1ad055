import sys

import pytest


def pytest_terminal_summary(terminalreporter):
    mod = (sys.modules.get("test_acceptance")
           or sys.modules.get("tests.test_acceptance"))
    lines = getattr(mod, "LINES", []) if mod else []
    if lines:
        terminalreporter.section("acceptance")
        for line in lines:
            terminalreporter.write_line(line)


@pytest.fixture
def shuffle_constructions(monkeypatch):
    """The (A, B) of every Eilenberg-Zilber pair of the oracle's matrix
    path actually constructed."""
    from oracles import ShuffleProduct
    built = []
    worker = ShuffleProduct.__init__

    def counting(self, A, B, *args):
        built.append((A, B))
        worker(self, A, B, *args)

    monkeypatch.setattr(ShuffleProduct, "__init__", counting)
    return built


@pytest.fixture
def free_shuffle_constructions(monkeypatch):
    """The (left, right) simplices of every free Eilenberg-Zilber pair
    actually constructed."""
    from zilber import ez
    built = []
    worker = ez._FreeShuffleProduct.__init__

    def counting(self, left, right, *args):
        built.append((left, right))
        worker(self, left, right, *args)

    monkeypatch.setattr(ez._FreeShuffleProduct, "__init__", counting)
    return built
