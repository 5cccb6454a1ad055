"""scripts/sloc.py: line counts and a reader that leaves early."""

import os
import pathlib
import subprocess
import sys

PATH = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "sloc.py"


def test_counts_each_module_then_the_totals():
    out = subprocess.run([sys.executable, str(PATH)], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    names = [line.split()[1] for line in out[:-2]]
    assert names == sorted(names) and "intlinalg.py" in names
    counts = [int(line.split()[0]) for line in out[:-2]]
    assert out[-2].split() == [str(sum(counts)), "total"]
    assert out[-1].split()[1:] == ["tests/", "total"]


def test_a_closed_pipe_ends_it_quietly():
    # the read end is closed before the process starts, as when `head -1`
    # has gone; nothing may reach stderr, not even at interpreter exit
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, str(PATH)], stdout=write,
                              stderr=subprocess.PIPE)
    finally:
        os.close(write)
    assert (proc.returncode, proc.stderr) == (0, b"")
