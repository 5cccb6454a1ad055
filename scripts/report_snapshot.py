#!/usr/bin/env python3
"""Write the report of every acceptance CLI invocation to a directory.

    PYTHONPATH=src python scripts/report_snapshot.py OUTDIR

Runs each invocation of scripts/run_acceptance.sh, plus ``ss random
--trials 10``, ``ss ez:delta2,s1 --pairing --pages 3 --dim-bound 3``
(the Leibniz rule on pages 1 to 3), ``skeleta --day-unit --day-symmetry --day-assoc``,
``promonoidal --check coyoneda --check operator-frag``, ``homology torus``,
``doldkan s1 --roundtrip`` / ``doldkan torus --roundtrip`` (a builtin
space through free_abelian), ``ez delta2 delta2 --check chain --check aw
--check symmetry --dim-bound 4``, ``ez s1 delta2 --check chain --check aw
--check unital --check symmetry --check kunneth --dim-bound 3`` (every
check of one kept pair) and ``ez delta2 delta1 --third s1 --check assoc
--dim-bound 3``, ``promonoidal --check coyoneda --check
operator-frag --b 3 --length 3``, ``promonoidal --check coyoneda --b 4``,
``promonoidal --check product-colimit --ns 1,1,1 --k-max 3``,
``promonoidal --check unit --check mu-assoc --b 3``, the failing
``promonoidal --check left-kan --ns 2,2 --b 3 --m 4``, ``ss sk:torus
--heart --dim-bound 6`` and ``ss ez:delta2,delta2 --pairing --dim-bound
6``, with
``python -m zilber.cli`` (so the zilber found on PYTHONPATH is the one
measured).  Then it writes three payloads, built by that zilber, to
OUTDIR as ``payload_NAME.json`` and feeds each on stdin (``-``): the ssimp
payload of ``circle(2)`` to ``homology`` and ``doldkan --roundtrip``, the
chain payload of a seeded ``rand_complex`` to ``homology``, and the filt
payload of a seeded ``rand_filtration`` to ``ss``.  Each report is written
to OUTDIR, one file per invocation, with its ``timing`` key removed; what
an invocation prints on stderr is written beside it, and
``exit_codes.json`` records every exit code.  Two snapshots of the same
behaviour are byte-identical, so comparing two versions of the library is
two runs and one ``diff -r``.
"""

import json
import os
import random
import subprocess
import sys


def invocations():
    """The argv lists, in the order of scripts/run_acceptance.sh."""
    out = [["doldkan", "--fuzz", "500", "--seed", "10001", "--dim-bound", "3"],
           ["doldkan", "--random-complexes", "100", "--random-objects", "50",
            "--hom-table", "5", "--seed", "10002", "--dim-bound", "3"]]
    spaces = ("delta0", "delta1", "delta2", "s1")
    for a in spaces:
        for b in spaces:
            out.append(["ez", a, b, "--check", "chain", "--check", "aw",
                        "--check", "unital", "--check", "symmetry",
                        "--dim-bound", "3"])
    for a, b, c in (("delta1", "delta1", "delta1"), ("delta1", "s1", "delta1"),
                    ("s1", "s1", "delta0"), ("delta2", "delta1", "s1"),
                    ("delta2", "delta2", "delta0")):
        out.append(["ez", a, b, "--third", c, "--check", "assoc",
                    "--dim-bound", "2"])
    out.append(["ez", "s1", "s1", "--check", "kunneth", "--dim-bound", "2"])
    for a in range(4):
        for b in range(4):
            for n in range(a + b, 7):
                out.append(["skeleta", f"delta{a}", f"delta{b}", "--p", str(a),
                            "--q", str(b), "--n", str(n),
                            "--dim-bound", str(max(n, 1))])
    out.append(["skeleta", "delta2", "delta2", "--p", "2", "--q", "2",
                "--n", "3", "--dim-bound", "4"])
    for a in spaces:
        for b in spaces:
            out.append(["skeleta", a, b, "--filtered-ez", "--dim-bound", "3"])
    for x in ("delta1", "delta2", "s1", "torus"):
        out.append(["ss", f"sk:{x}", "--heart"])
    out.append(["ss", "random", "--trials", "50", "--p-max", "4",
                "--seed", "10008"])
    out.append(["ss", "ez:delta1,s1", "--pairing", "--dim-bound", "2"])
    out.append(["promonoidal", "--check", "unit", "--check", "mu-assoc",
                "--b", "2"])
    for ns in ("1,1", "2,1", "2,2"):
        out.append(["promonoidal", "--check", "product-colimit", "--ns", ns,
                    "--k-max", "5"])
    for b in ("2", "3", "4"):
        out.append(["promonoidal", "--check", "left-kan", "--ns", "1,1",
                    "--b", b, "--m", "4"])
    out.append(["promonoidal", "--check", "left-kan", "--ns", "1,1",
                "--b", "1", "--m", "2"])
    out.append(["skeleta", "--day-unit", "--trials", "20", "--seed", "10010"])
    out.append(["skeleta", "--day-symmetry", "--day-assoc", "--trials", "3",
                "--seed", "10010"])
    # beyond the acceptance script (which already runs `ss sk:torus --heart`
    # and `ss ez:delta1,s1 --pairing --dim-bound 2`, pages 1 and 2 only)
    out.append(["ss", "random", "--trials", "10"])
    out.append(["ss", "ez:delta2,s1", "--pairing", "--pages", "3",
                "--dim-bound", "3"])
    out.append(["skeleta", "--day-unit", "--day-symmetry", "--day-assoc"])
    out.append(["promonoidal", "--check", "coyoneda", "--check",
                "operator-frag"])
    out.append(["homology", "torus"])
    for x in ("s1", "torus"):
        out.append(["doldkan", x, "--roundtrip"])
    # ∇, AW and the swap at larger bounds than the acceptance script's
    out.append(["ez", "delta2", "delta2", "--check", "chain", "--check", "aw",
                "--check", "symmetry", "--dim-bound", "4"])
    # every check of zilber ez on the one pair (S¹, Δ²) that they share
    out.append(["ez", "s1", "delta2", "--check", "chain", "--check", "aw",
                "--check", "unital", "--check", "symmetry", "--check",
                "kunneth", "--dim-bound", "3"])
    out.append(["ez", "delta2", "delta1", "--third", "s1", "--check", "assoc",
                "--dim-bound", "3"])
    # the coends and the product-colimit poset above the default bound
    out.append(["promonoidal", "--check", "coyoneda", "--check",
                "operator-frag", "--b", "3", "--length", "3"])
    out.append(["promonoidal", "--check", "coyoneda", "--b", "4"])
    out.append(["promonoidal", "--check", "product-colimit", "--ns", "1,1,1",
                "--k-max", "3"])
    out.append(["promonoidal", "--check", "unit", "--check", "mu-assoc",
                "--b", "3"])
    # a failing extension (2 + 2 > 3), which pins a decoded witness
    out.append(["promonoidal", "--check", "left-kan", "--ns", "2,2", "--b", "3",
                "--m", "4"])
    # the heart and the pairing on skeletal filtrations past the defaults
    out.append(["ss", "sk:torus", "--heart", "--dim-bound", "6"])
    out.append(["ss", "ez:delta2,delta2", "--pairing", "--dim-bound", "6"])
    return out


def payloads():
    """(name, payload, argvs): each payload with the argvs that read it
    from stdin."""
    from zilber import _random as zrandom
    from zilber.simplicial import circle
    return [
        ("ssimp", circle(2).to_payload(),
         [["homology", "-"], ["doldkan", "-", "--roundtrip"]]),
        ("chain", zrandom.rand_complex(random.Random(10011)).to_payload(),
         [["homology", "-"]]),
        ("filt", zrandom.rand_filtration(random.Random(10012)).to_payload(),
         [["ss", "-"]]),
    ]


def file_stem(argv):
    """A file name for argv: its words joined by '_'."""
    return "_".join(argv).replace(":", "-").replace(",", "-")


def main(outdir):
    os.makedirs(outdir, exist_ok=True)
    runs = [(file_stem(argv), argv, None) for argv in invocations()]
    for name, payload, argvs in payloads():
        text = json.dumps(payload)
        with open(os.path.join(outdir, f"payload_{name}.json"), "w") as fh:
            fh.write(text + "\n")
        runs += [(f"{file_stem(argv)}_{name}", argv, text) for argv in argvs]
    codes = {}
    for stem, argv, stdin in runs:
        proc = subprocess.run([sys.executable, "-m", "zilber.cli", *argv],
                              input=stdin, capture_output=True, text=True)
        codes[stem] = proc.returncode
        if proc.stdout.strip():
            report = json.loads(proc.stdout)
            report.pop("timing", None)
            with open(os.path.join(outdir, stem + ".json"), "w") as fh:
                json.dump(report, fh, indent=1, sort_keys=True)
                fh.write("\n")
        if proc.stderr:
            with open(os.path.join(outdir, stem + ".stderr"), "w") as fh:
                fh.write(proc.stderr)
        print(f"{proc.returncode} {' '.join(argv)}", flush=True)
    with open(os.path.join(outdir, "exit_codes.json"), "w") as fh:
        json.dump(codes, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    main(sys.argv[1])
