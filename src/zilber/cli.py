"""Command-line front end: every pipeline is reachable as a single
invocation producing a deterministic JSON report (identical inputs give
identical reports once the timing field is ignored).

Each command returns its findings, (inputs, results, certificates), and
builds every certificate with bool_cert; main times the command and
assembles, prints and grades the report once, in emit.  The report's
timing holds the command's seconds and import_s, the time this module
took to import the library, measured once when it loads.

Exit codes: 0 when every certificate in the report passes, 1 when any
certificate fails (the report carries the witness), 2 on input errors
(InputError, SimplicialIdentityError, any ValueError), 3 on an internal
error (any other exception raised inside the library, such as the
AssertionError of a failed self-check), with a JSON error on stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import random
import sys
import time

_import_started = time.perf_counter()
from . import _random as zrandom
from . import chains, doldkan, ez, filtration, promonoidal, spectral
from .simplicial import (SimplicialIdentityError, SimplicialSet, circle,
                         free_abelian, product, skeleton_product_check,
                         standard_simplex)

# the seconds this module spent importing the library, reported as
# timing.import_s; near 0 when the library was already imported
IMPORT_S = time.perf_counter() - _import_started

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class InputError(ValueError):
    pass


def max_dim():
    try:
        cap = int(os.environ.get("ZILBER_MAX_DIM", "6"))
    except ValueError:
        raise InputError("ZILBER_MAX_DIM must be an integer")
    if cap < 0:
        raise InputError("ZILBER_MAX_DIM must be nonnegative")
    return cap


def resolve_dim_bound(requested):
    cap = max_dim()
    if requested is None:
        return min(3, cap)
    if requested < 0:
        raise InputError("--dim-bound must be nonnegative")
    if requested > cap:
        raise InputError(f"--dim-bound {requested} exceeds ZILBER_MAX_DIM={cap}")
    return requested


def builtin_space(token, dim_bound):
    if token in ("point", "delta0"):
        return standard_simplex(0, dim_bound)
    if token.startswith("delta") and token[5:].isdigit():
        n = int(token[5:])
        if n > dim_bound:
            raise InputError(f"{token} needs dim_bound >= {n}")
        return standard_simplex(n, dim_bound)
    if token == "s1":
        return circle(dim_bound)
    if token == "torus":
        return product(circle(dim_bound), circle(dim_bound))
    return None


def load_payload(token):
    """JSON payload from a path or stdin (`-`)."""
    try:
        if token == "-":
            payload = json.load(sys.stdin)
        else:
            with open(token) as fh:
                payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {token}: {exc}")
    if not isinstance(payload, dict):
        raise InputError(f"{token} is not a JSON object")
    return payload


def parse_payload(parse, payload, what):
    """parse(payload), raising a malformed payload (a missing key or a
    value of the wrong JSON type) as an InputError."""
    try:
        return parse(payload)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise InputError(f"invalid {what} payload: {exc}")


def load_space(token, dim_bound):
    """A SimplicialSet from a builtin token, a ssimp.json path, or stdin."""
    X = builtin_space(token, dim_bound)
    if X is not None:
        return X
    return parse_payload(SimplicialSet.from_payload, load_payload(token),
                         "simplicial-set")


def load_spaces(tokens, dim_bound):
    """The spaces of tokens (None skipped), which must share one
    dim_bound: a payload carries its own."""
    tokens = [t for t in tokens if t is not None]
    spaces = [load_space(t, dim_bound) for t in tokens]
    for token, X in zip(tokens[1:], spaces[1:]):
        if X.dim_bound != spaces[0].dim_bound:
            raise InputError(f"dim_bound mismatch: {tokens[0]} has "
                             f"{spaces[0].dim_bound}, {token} has "
                             f"{X.dim_bound}")
    return spaces


def digest(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


def invariants_dict(inv_list):
    return {str(n): {"free_rank": inv.free_rank,
                     "torsion": list(inv.torsion),
                     "pretty": str(inv)}
            for n, inv in enumerate(inv_list)}


def emit(command, inputs, results, certs, seconds):
    """Assemble, print, and grade the report."""
    ok = all(c["ok"] for c in certs)
    report = {
        "format": "report",
        "version": 1,
        "command": command,
        "inputs": dict(inputs, digest=digest(inputs)),
        "results": results,
        "certificates": certs,
        "pass": ok,
        "timing": {"seconds": round(seconds, 3),
                   "import_s": round(IMPORT_S, 3)},
    }
    try:
        print(json.dumps(report, indent=2, sort_keys=True))
    except BrokenPipeError:
        # the reader is gone: let the interpreter's last flush go to devnull
        sys.stdout = open(os.devnull, "w")
    return EXIT_PASS if ok else EXIT_FAIL


def bool_cert(ok, name, detail="", witness=None):
    return {"ok": ok, "check": name, "detail": detail,
            "witness": repr(witness) if witness is not None else None}


def _inputs(args, **resolved):
    """A report's inputs: the parsed arguments, with resolved values."""
    inputs = {k: v for k, v in vars(args).items()
              if k not in ("command", "func")}
    inputs.update(resolved)
    return inputs


def _trials_cert(name, detail, trials, trial):
    """bool_cert of trial(0), ..., trial(trials - 1), each returning None
    when it passes and a witness when it fails; the first witness ends the
    run and fails the certificate."""
    bad = next((w for w in map(trial, range(trials)) if w is not None), None)
    return bool_cert(bad is None, name, detail, witness=bad)


# ---------------------------------------------------------------------------
# homology


def cmd_homology(args):
    dim_bound = resolve_dim_bound(args.dim_bound)
    X = builtin_space(args.input, dim_bound)
    kind = "builtin"
    if X is None:
        payload = load_payload(args.input)
        kind = payload.get("format")
        if kind == "chain":
            C = parse_payload(chains.ChainComplex.from_payload, payload,
                              "chain")
            dim_bound = None  # a chain complex has no truncation bound
        elif kind == "ssimp":
            X = parse_payload(SimplicialSet.from_payload, payload,
                              "simplicial-set")
        else:
            raise InputError(f"unrecognized payload format: {kind!r}")
    if X is not None:
        C = doldkan.normalize(free_abelian(X)).normalized
        dim_bound = X.dim_bound
    results = {"homology": invariants_dict(chains.homology(C)),
               "ranks": list(C.ranks)}
    return _inputs(args, kind=kind, dim_bound=dim_bound), results, []


# ---------------------------------------------------------------------------
# dold-kan


def cmd_doldkan(args):
    dim_bound = resolve_dim_bound(args.dim_bound)
    certs = []
    results = {}
    counts = ("random_complexes", "random_objects", "fuzz", "hom_table")
    for name in counts:
        if getattr(args, name) < 0:
            raise InputError(f"--{name.replace('_', '-')} must be nonnegative")
    if args.input is None:
        if args.roundtrip:
            raise InputError("--roundtrip needs an input space")
        if not any(getattr(args, name) for name in counts):
            raise InputError("nothing to check: give an input space or a "
                             "positive count")
    else:
        X = load_space(args.input, dim_bound)
        dim_bound = X.dim_bound  # a payload carries its own
        A = free_abelian(X)
        nres = doldkan.normalize(A)
        results["normalized_ranks"] = list(nres.normalized.ranks)
        results["homotopy_groups"] = invariants_dict(doldkan.homotopy_groups(A))
        if args.roundtrip:
            comp = doldkan.gamma_normalize_comparison(A)
            ok = doldkan.is_levelwise_unimodular(comp, A.ranks)
            certs.append(bool_cert(ok, "gamma-normalize-roundtrip",
                                   "Γ of the normalization maps levelwise "
                                   "isomorphically onto the input"))
    rng = random.Random(args.seed)

    def complex_trial(t):
        C = zrandom.rand_complex(rng, top_degree=dim_bound)
        f = doldkan.normalized_gamma_comparison(C, dim_bound)
        return None if doldkan.is_chain_iso(f) else t

    def object_trial(t):
        A = zrandom.rand_simplicial(rng, dim_bound=min(dim_bound, 3))
        comp = doldkan.gamma_normalize_comparison(A)
        return None if doldkan.is_levelwise_unimodular(comp, A.ranks) else t

    def fuzz_trial(t):
        A = zrandom.rand_simplicial(rng, dim_bound=min(dim_bound, 3))
        try:
            A._validate()
        except SimplicialIdentityError as exc:
            return (t, "valid object rejected", str(exc))
        B = zrandom.corrupt_simplicial(rng, A)
        if B is None:
            return None
        try:
            B._validate()
        except SimplicialIdentityError:
            return None
        return (t, "corruption accepted")

    if args.random_complexes:
        certs.append(_trials_cert(
            "normalize-gamma-roundtrip",
            f"{args.random_complexes} random complexes",
            args.random_complexes, complex_trial))
    if args.random_objects:
        certs.append(_trials_cert(
            "gamma-normalize-roundtrip",
            f"{args.random_objects} random objects",
            args.random_objects, object_trial))
    if args.fuzz:
        certs.append(_trials_cert(
            "simplicial-identity-fuzz",
            f"{args.fuzz} random objects validated and single-entry "
            f"corruptions rejected", args.fuzz, fuzz_trial))
    if args.hom_table:
        m_top = args.hom_table
        table = {}
        ok = True
        for m in range(m_top + 1):
            for n in range(m_top + 1):
                r = chains.hom_rank(doldkan.disk(m), doldkan.disk(n))
                table[f"{m},{n}"] = r
                if r != (1 if n in (m, m + 1) else 0):
                    ok = False
        results["hom_table"] = table
        certs.append(bool_cert(ok, "disk-hom-table",
                               "rank 1 exactly when n is m or m+1"))
    return _inputs(args, dim_bound=dim_bound), results, certs


# ---------------------------------------------------------------------------
# eilenberg-zilber


# the ez checks that are one library call, by name: looked up in ez at call
# time, so that the module can be swapped (the tests swap in their oracle);
# only assoc takes the third space
EZ_CALLS = {"aw": "aw_nabla_identity_check", "unital": "unitality_check",
            "symmetry": "symmetry_check", "assoc": "associativity_check"}


def cmd_ez(args):
    dim_bound = resolve_dim_bound(args.dim_bound)
    if "assoc" in args.check and args.third is None:
        raise InputError("--check assoc requires --third")
    if "assoc" not in args.check and args.third is not None:
        raise InputError("--third is read only by --check assoc")
    A, B, *third = map(free_abelian, load_spaces(
        (args.first, args.second, args.third), dim_bound))
    certs = []
    results = {}
    for check in args.check:
        if check == "chain":
            # construction validates the chain-map identity d∘∇ = ∇∘d
            # between the normalized complexes.  On ℤ[X] and ℤ[Y] the pair
            # is built from nondegenerate simplices and C(ℤ[X×Y]) is not
            # built, so its d∘d and the lift of ∇ into it are not checked:
            # they are facts about the degenerate subcomplex.
            try:
                sp = ez.shuffle_product(A, B)
                results["shuffle_target_ranks"] = list(sp.target.ranks)
                certs.append(bool_cert(True, "chain",
                                       "shuffle map commutes with d"))
            except ValueError as exc:
                certs.append(bool_cert(False, "chain", str(exc)))
        elif check in EZ_CALLS:
            c = getattr(ez, EZ_CALLS[check])(
                A, B, *(third if check == "assoc" else ()))
            certs.append(bool_cert(c.ok, check, c.detail, c.witness))
        elif check == "kunneth":
            # ∇ is a quasi-isomorphism iff its mapping cone is acyclic;
            # the witness is the first degree where it is not
            sp = ez.shuffle_product(A, B)
            cone = chains.homology(chains.mapping_cone(sp.map))
            results["tensor_homology"] = invariants_dict(
                chains.homology(sp.source))
            results["product_homology"] = invariants_dict(
                chains.homology(sp.target))
            n = next((n for n, h in enumerate(cone)
                      if h.free_rank or h.torsion), None)
            detail = ("shuffle map induces an isomorphism on homology"
                      if n is None else f"H_{n} of the cone of ∇ is {cone[n]}")
            certs.append(bool_cert(n is None, "kunneth", detail, n))
    return _inputs(args, dim_bound=A.dim_bound), results, certs


# ---------------------------------------------------------------------------
# skeleta


def cmd_skeleta(args):
    dim_bound = resolve_dim_bound(args.dim_bound)
    certs = []
    results = {}
    pqn = (args.p, args.q, args.n) != (None, None, None)
    day = args.day_unit or args.day_symmetry or args.day_assoc
    if not (pqn or args.filtered_ez or day):
        raise InputError("nothing to check: give --p/--q/--n, --filtered-ez "
                         "or a --day-* law")
    if (pqn or args.filtered_ez) and None in (args.first, args.second):
        raise InputError("--p/--q/--n and --filtered-ez need two spaces")
    if not (pqn or args.filtered_ez) and (args.first, args.second) != (
            None, None):
        raise InputError("the --day-* laws take no spaces")
    if day and args.trials < 1:
        raise InputError("--trials must be positive")
    if pqn or args.filtered_ez:
        X, Y = load_spaces((args.first, args.second), dim_bound)
        dim_bound = X.dim_bound
        if pqn:
            if None in (args.p, args.q, args.n):
                raise InputError("--p, --q, --n must be given together")
            c = skeleton_product_check(X, Y, args.p, args.q, args.n)
            certs.append(bool_cert(c.ok, "skeleton-product", c.detail,
                                   c.witness))
        if args.filtered_ez:
            A, B = free_abelian(X), free_abelian(Y)
            try:
                P = filtration.filtered_ez(A, B)
                c = P.containment_certificate()
                certs.append(bool_cert(c.ok, "filtered-ez-containment",
                                       c.detail, c.witness))
                c = P.filtration_zero_certificate()
                certs.append(bool_cert(c.ok, "filtration-zero-isomorphism",
                                       c.detail, c.witness))
            except ValueError as exc:
                certs.append(bool_cert(False, "filtered-ez-containment",
                                       str(exc)))
    rng = random.Random(args.seed)
    unit = filtration.unit_filtration()

    def unit_trial(t):
        F = zrandom.rand_filtration(rng)
        conv = filtration.day_convolution(F, unit)
        return None if filtration.filtrations_stagewise_equal(conv, F) else t

    def law_trial(check, arity, top_degree, max_total_rank):
        def trial(t):
            fs = [zrandom.rand_filtration(rng, p_max=2, top_degree=top_degree,
                                          max_total_rank=max_total_rank)
                  for _ in range(arity)]
            cert = check(*fs)
            return None if cert.ok else (t, cert.detail)
        return trial

    if args.day_unit:
        certs.append(_trials_cert(
            "day-unit", f"F ⊛ 1 = F stagewise for {args.trials} random "
            f"filtrations", args.trials, unit_trial))
    if args.day_symmetry:
        certs.append(_trials_cert(
            "day-symmetry", f"{args.trials} random pairs", args.trials,
            law_trial(filtration.convolution_symmetry_check, 2, 2, 4)))
    if args.day_assoc:
        certs.append(_trials_cert(
            "day-associativity", f"{args.trials} random triples", args.trials,
            law_trial(filtration.convolution_associativity_check, 3, 1, 3)))
    return _inputs(args, dim_bound=dim_bound), results, certs


# ---------------------------------------------------------------------------
# spectral sequences


def _ss_checks(S, certs, prefix=""):
    for name, c in spectral._invariant_checks(S):
        if not c.ok:
            certs.append(bool_cert(c.ok, prefix + name, c.detail, c.witness))
            return False
    return True


def cmd_ss(args):
    dim_bound = resolve_dim_bound(args.dim_bound)
    certs = []
    results = {}
    token = args.input
    if args.pages is not None and args.pages < 1:
        raise InputError("--pages must be positive")
    if args.heart and not token.startswith("sk:"):
        raise InputError("--heart is read only with an sk: input")
    if args.pairing and not token.startswith("ez:"):
        raise InputError("--pairing is read only with an ez: input")
    if token == "random":
        if args.trials < 1:
            raise InputError("--trials must be positive")
        if args.p_max < 0:
            raise InputError("--p-max must be nonnegative")
        rng = random.Random(args.seed)

        def trial(t):
            F = zrandom.rand_filtration(rng, p_max=args.p_max)
            S = spectral.SpectralSequence(F, r_max=args.pages)
            return None if _ss_checks(S, certs, prefix=f"trial{t}-") else t

        certs.append(_trials_cert(
            "random-filtration-suite", f"{args.trials} random filtrations: "
            f"d_r²=0, page recursion, and convergence to the associated "
            f"graded", args.trials, trial))
        return _inputs(args, dim_bound=dim_bound), results, certs
    if token.startswith("ez:"):
        names = token[3:].split(",")
        if len(names) != 2:
            raise InputError("ez: input takes two space tokens, e.g. "
                             "ez:delta1,delta1")
        X, Y = load_spaces(names, dim_bound)
        dim_bound = X.dim_bound
        P = filtration.filtered_ez(free_abelian(X), free_abelian(Y))
        S_F = spectral.SpectralSequence(P.F)
        S_G = spectral.SpectralSequence(P.G)
        S_H = spectral.SpectralSequence(P.H)
        results["spectral"] = S_H.to_report()
        if args.pairing:
            for r in range(1, min(args.pages or 2, S_H.r_inf) + 1):
                try:
                    pairing = spectral.induced_pairing(P, S_F, S_G, S_H, r)
                except spectral.PairingWitnessError as exc:
                    certs.append(bool_cert(False, f"pairing-defined-r{r}",
                                           str(exc), witness=exc.witness))
                    continue
                c = spectral.leibniz_check(pairing)
                certs.append(bool_cert(c.ok, f"leibniz-r{r}", c.detail,
                                       c.witness))
        return _inputs(args, dim_bound=dim_bound), results, certs
    if token.startswith("sk:"):
        X = load_space(token[3:], dim_bound)
        dim_bound = X.dim_bound
        A = free_abelian(X)
        if args.heart:
            c = spectral.heart_check(A)
            certs.append(bool_cert(c.ok, "heart", c.detail, c.witness))
        F = filtration.skeletal_filtration(A)
    else:
        F = parse_payload(filtration.FilteredChainComplex.from_payload,
                          load_payload(token), "filtration")
    S = spectral.SpectralSequence(F, r_max=args.pages)
    all_ok = _ss_checks(S, certs)
    if all_ok:
        certs.append(bool_cert(True, "spectral-invariants",
                               "d_r²=0, page recursion, convergence"))
    results["spectral"] = S.to_report()
    return _inputs(args, dim_bound=dim_bound), results, certs


# ---------------------------------------------------------------------------
# promonoidal


def _parse_int_list(text, name):
    try:
        out = [int(t) for t in text.split(",") if t != ""]
    except ValueError:
        out = []
    if not out:
        raise InputError(f"--{name} expects comma-separated integers")
    return out


def cmd_promonoidal(args):
    certs = []
    results = {}
    if args.b < 0:
        # every check but product-colimit reads --b; a negative bound
        # leaves Δ≤b empty and the sweep, coyoneda and operator checks
        # would pass without checking anything
        raise InputError("--b must be nonnegative")
    for option, readers in (("ns", ("left-kan", "product-colimit")),
                            ("entries", ("mu-assoc",)), ("m", ("left-kan",))):
        if getattr(args, option) is not None \
                and not set(readers) & set(args.check):
            raise InputError(f"--{option} is read only by --check "
                             f"{' or '.join(readers)}")
    for check in args.check:
        if check == "mu-assoc":
            if args.entries is None:
                # sweep every ordered triple with entries <= b
                triples = itertools.product(range(args.b + 1), repeat=3)
            else:
                triples = [_parse_int_list(args.entries, "entries")]
                if len(triples[0]) != 3:
                    raise InputError("--entries expects three integers")
            for entries in triples:
                c = promonoidal.delta_mu_associativity_check(*entries,
                                                             b=args.b)
                name = ("mu-assoc" if args.entries else
                        "mu-assoc-" + ",".join(map(str, entries)))
                certs.append(bool_cert(c.ok, name, c.detail, c.witness))
        elif check == "unit":
            c = promonoidal.delta_mu_unit_check(args.b)
            certs.append(bool_cert(c.ok, "mu-unit", c.detail, c.witness))
        elif check == "coyoneda":
            c = promonoidal.coyoneda_check(args.b)
            certs.append(bool_cert(c.ok, "coyoneda", c.detail, c.witness))
        elif check == "left-kan":
            ns = _parse_int_list("1,1" if args.ns is None else args.ns, "ns")
            ms = range(args.m + 1) if args.m is not None else range(5)
            c = promonoidal.left_kan_check(ns, args.b, ms)
            results["left_kan_expected_pass"] = sum(ns) <= args.b
            certs.append(bool_cert(c.ok, "left-kan", c.detail, c.witness))
        elif check == "product-colimit":
            ns = _parse_int_list("1,1" if args.ns is None else args.ns, "ns")
            c = promonoidal.product_simplices_colimit_check(
                ns, range(args.k_max + 1))
            certs.append(bool_cert(c.ok, "product-colimit", c.detail,
                                   c.witness))
        elif check == "operator-frag":
            if args.trials < 1 or args.length < 0:
                raise InputError("operator-frag needs --trials >= 1 and "
                                 "--length >= 0")
            rng = random.Random(args.seed)
            frag = promonoidal.OperatorCategoryFragment(
                promonoidal.delta_op_multicategory(args.b), args.length)

            def trial(t):
                # redraw objects and morphisms until all three morphisms exist
                f = g = h = None
                while f is None or g is None or h is None:
                    a, b_, c_, d_ = (frag.draw_object(rng) for _ in range(4))
                    f, g, h = (frag.draw(a, b_, rng), frag.draw(b_, c_, rng),
                               frag.draw(c_, d_, rng))
                if frag.compose(h, frag.compose(g, f)) != \
                        frag.compose(frag.compose(h, g), f):
                    return (a, b_, c_, d_)
                if frag.compose(f, frag.identity(a)) != f:
                    return ("right-unit", a, b_)
                if frag.compose(frag.identity(b_), f) != f:
                    return ("left-unit", a, b_)
                return None

            certs.append(_trials_cert(
                "operator-frag", f"associativity and unit laws on "
                f"{args.trials} random composable triples", args.trials,
                trial))
        else:
            raise InputError(f"unknown check {check!r}")
    return _inputs(args), results, certs


# ---------------------------------------------------------------------------
# argument parsing


def build_parser():
    parser = argparse.ArgumentParser(
        prog="zilber",
        description="Exact-arithmetic simplicial algebra pipelines with "
                    "JSON certificate reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dim(p):
        p.add_argument("--dim-bound", type=int, default=None,
                       help="truncation dimension (capped by ZILBER_MAX_DIM,"
                            " default min(3, cap))")

    p = sub.add_parser("homology", help="homology of a space or complex")
    p.add_argument("input", help="builtin space token, ssimp.json/chain.json "
                                 "path, or - for stdin")
    add_dim(p)
    p.set_defaults(func=cmd_homology)

    p = sub.add_parser("doldkan", help="normalization, round-trips, fuzzing")
    p.add_argument("input", nargs="?", default=None)
    p.add_argument("--roundtrip", action="store_true",
                   help="verify the inverse-functor round-trip on the input")
    p.add_argument("--random-complexes", type=int, default=0, metavar="N",
                   help="round-trip N random chain complexes")
    p.add_argument("--random-objects", type=int, default=0, metavar="N",
                   help="round-trip N random simplicial objects")
    p.add_argument("--fuzz", type=int, default=0, metavar="N",
                   help="validate N random objects and reject corruptions")
    p.add_argument("--hom-table", type=int, default=0, metavar="M",
                   help="two-term-complex hom-rank table up to M")
    p.add_argument("--seed", type=int, default=0)
    add_dim(p)
    p.set_defaults(func=cmd_doldkan)

    p = sub.add_parser("ez", help="shuffle-product certificates")
    p.add_argument("first")
    p.add_argument("second")
    p.add_argument("--third", default=None,
                   help="third space for --check assoc")
    p.add_argument("--check", action="append", required=True,
                   choices=["chain", "aw", "unital", "symmetry", "assoc",
                            "kunneth"])
    add_dim(p)
    p.set_defaults(func=cmd_ez)

    p = sub.add_parser("skeleta",
                       help="skeleton products, filtered pairings, and "
                            "convolution laws")
    p.add_argument("first", nargs="?", default=None)
    p.add_argument("second", nargs="?", default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--filtered-ez", action="store_true")
    p.add_argument("--day-unit", action="store_true")
    p.add_argument("--day-symmetry", action="store_true")
    p.add_argument("--day-assoc", action="store_true")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    add_dim(p)
    p.set_defaults(func=cmd_skeleta)

    p = sub.add_parser("ss", help="spectral-sequence pages and invariants")
    p.add_argument("input",
                   help="filt.json path, -, sk:SPACE, ez:A,B, or random")
    p.add_argument("--pages", type=int, default=None)
    p.add_argument("--pairing", action="store_true")
    p.add_argument("--heart", action="store_true",
                   help="compare the first page with the normalized chains")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--p-max", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    add_dim(p)
    p.set_defaults(func=cmd_ss)

    p = sub.add_parser("promonoidal",
                       help="coend, multimorphism, and Kan-extension checks")
    p.add_argument("--check", action="append", required=True,
                   choices=["mu-assoc", "unit", "coyoneda", "left-kan",
                            "product-colimit", "operator-frag"])
    p.add_argument("--ns", default=None, help="comma-separated entries")
    p.add_argument("--entries", default=None,
                   help="three entries for mu-assoc, e.g. 1,1,2")
    p.add_argument("--b", type=int, default=2)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--k-max", type=int, default=3)
    p.add_argument("--length", type=int, default=2)
    p.add_argument("--trials", type=int, default=25)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_promonoidal)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        return emit(args.command, *args.func(args), time.time() - started)
    except ValueError as exc:  # InputError, SimplicialIdentityError too
        return _error_exit(exc, EXIT_INPUT)
    except Exception as exc:
        # payload parsers raise a KeyError or TypeError as InputError
        # (parse_payload), so any other exception is a fault of the library
        return _error_exit(exc, EXIT_INTERNAL)


def _error_exit(exc, code):
    """Print the JSON error of exc on stderr and return code.  An exception
    with no message, such as a MemoryError, is named by its type."""
    error = str(exc) or type(exc).__name__
    print(json.dumps({"error": error, "exit": code}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
