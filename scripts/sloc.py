#!/usr/bin/env python3
"""Count the source lines of the zilber library and of its tests.

    python scripts/sloc.py [SRC_DIR [TESTS_DIR]]

Prints, for each module of SRC_DIR (default: src/zilber next to this
script) and in total, the lines that are neither blank nor comments, and
then the total of TESTS_DIR (default: the tests directory of the checkout
that holds SRC_DIR), so that code moved between the two shows as a move.
Docstrings count as code.  A reader that closes the pipe early, as
``python scripts/sloc.py | head -1`` does, ends it quietly.
"""

import os
import pathlib
import sys


def sloc(path):
    """Lines of path that are neither blank nor a comment."""
    lines = (line.strip() for line in path.read_text().splitlines())
    return sum(1 for line in lines if line and not line.startswith("#"))


def main(src, tests):
    total = 0
    for path in sorted(src.glob("*.py")):
        n = sloc(path)
        total += n
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    print(f"{sum(map(sloc, sorted(tests.glob('*.py')))):6d}  tests/ total")


if __name__ == "__main__":
    if len(sys.argv) > 3:
        sys.exit(__doc__)
    default = pathlib.Path(__file__).resolve().parent.parent / "src" / "zilber"
    src = pathlib.Path(sys.argv[1]) if len(sys.argv) > 1 else default
    tests = (pathlib.Path(sys.argv[2]) if len(sys.argv) > 2
             else src.resolve().parent.parent / "tests")
    try:
        main(src, tests)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: let the interpreter's last flush go to devnull
        sys.stdout = open(os.devnull, "w")
