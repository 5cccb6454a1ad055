"""Command-line front end: every pipeline is reachable as a single
invocation producing a deterministic JSON report (identical inputs give
identical reports once the timing field is ignored).

Exit codes: 0 when every certificate in the report passes, 1 when any
certificate fails (the report carries the witness), 2 on input errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import sys
import time

from . import _random as zrandom
from . import chains, doldkan, ez, filtration, promonoidal, spectral
from .simplicial import (SimplicialIdentityError, SimplicialSet, circle,
                         free_abelian, product, skeleton_product_check,
                         standard_simplex)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2

BUILTIN_SPACES = ("delta0", "delta1", "delta2", "delta3", "point", "s1",
                  "torus")


class InputError(ValueError):
    pass


def max_dim():
    try:
        return max(0, int(os.environ.get("ZILBER_MAX_DIM", "6")))
    except ValueError:
        raise InputError("ZILBER_MAX_DIM must be an integer")


def resolve_dim_bound(requested):
    cap = max_dim()
    if requested is None:
        return min(3, cap)
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
            return json.load(sys.stdin)
        with open(token) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {token}: {exc}")


def load_space(token, dim_bound):
    """A SimplicialSet from a builtin token, a ssimp.json path, or stdin."""
    X = builtin_space(token, dim_bound)
    if X is not None:
        return X
    payload = load_payload(token)
    try:
        return SimplicialSet.from_payload(payload)
    except (ValueError, KeyError, TypeError) as exc:
        raise InputError(f"invalid simplicial-set payload: {exc}")


def digest(obj):
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=str).encode()).hexdigest()


def invariants_dict(inv_list):
    return {str(n): {"free_rank": inv.free_rank,
                     "torsion": list(inv.torsion),
                     "pretty": str(inv)}
            for n, inv in enumerate(inv_list)}


def emit(command, inputs, results, certs, started):
    """Assemble, print, and grade the report."""
    ok = all(c.get("ok", True) for c in certs) if certs else True
    report = {
        "format": "report",
        "version": 1,
        "command": command,
        "inputs": dict(inputs, digest=digest(inputs)),
        "results": results,
        "certificates": certs,
        "pass": ok,
        "timing": {"seconds": round(time.time() - started, 3)},
    }
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_PASS if ok else EXIT_FAIL


def cert_dict(cert, name):
    d = cert.to_dict()
    d["ok"] = d.pop("pass")
    d["check"] = name
    return d


def bool_cert(ok, name, detail="", witness=None):
    return {"ok": ok, "check": name, "detail": detail,
            "witness": repr(witness) if witness is not None else None}


# ---------------------------------------------------------------------------
# homology


def cmd_homology(args):
    started = time.time()
    token = args.input
    dim_bound = resolve_dim_bound(args.dim_bound)
    X = builtin_space(token, dim_bound)
    if X is not None:
        C = doldkan.normalize(free_abelian(X)).normalized
        kind = "builtin"
    else:
        payload = load_payload(token)
        fmt = payload.get("format")
        if fmt == "ssimp":
            X = SimplicialSet.from_payload(payload)
            C = doldkan.normalize(free_abelian(X)).normalized
            kind = "ssimp"
        elif fmt == "chain":
            C = chains.ChainComplex.from_payload(payload)
            kind = "chain"
        else:
            raise InputError(f"unrecognized payload format: {fmt!r}")
    inv = chains.homology(C)
    inputs = {"input": token, "kind": kind, "dim_bound": dim_bound}
    results = {"homology": invariants_dict(inv),
               "ranks": list(C.ranks)}
    return emit("homology", inputs, results, [], started)


# ---------------------------------------------------------------------------
# dold-kan


def cmd_doldkan(args):
    started = time.time()
    dim_bound = resolve_dim_bound(args.dim_bound)
    certs = []
    results = {}
    inputs = {"input": args.input, "dim_bound": dim_bound,
              "roundtrip": args.roundtrip,
              "random_complexes": args.random_complexes,
              "random_objects": args.random_objects,
              "fuzz": args.fuzz, "hom_table": args.hom_table,
              "seed": args.seed}
    if args.input is not None:
        X = load_space(args.input, dim_bound)
        A = free_abelian(X)
        nres = doldkan.normalize(A)
        results["normalized_ranks"] = list(nres.normalized.ranks)
        results["homotopy_groups"] = invariants_dict(doldkan.homotopy_groups(A))
        if args.roundtrip:
            comp = doldkan.gamma_normalize_comparison(A, nres)
            ok = doldkan.is_levelwise_unimodular(comp, A.ranks)
            certs.append(bool_cert(ok, "gamma-normalize-roundtrip",
                                   "Γ of the normalization maps levelwise "
                                   "isomorphically onto the input"))
    rng = random.Random(args.seed)
    if args.random_complexes:
        bad = None
        for t in range(args.random_complexes):
            C = zrandom.rand_complex(rng, top_degree=dim_bound)
            f = doldkan.normalized_gamma_comparison(C, dim_bound)
            if not doldkan.is_chain_iso(f):
                bad = t
                break
        certs.append(bool_cert(bad is None, "normalize-gamma-roundtrip",
                               f"{args.random_complexes} random complexes",
                               witness=bad))
    if args.random_objects:
        bad = None
        for t in range(args.random_objects):
            A = zrandom.rand_simplicial(rng, dim_bound=min(dim_bound, 3))
            comp = doldkan.gamma_normalize_comparison(A)
            if not doldkan.is_levelwise_unimodular(comp, A.ranks):
                bad = t
                break
        certs.append(bool_cert(bad is None, "gamma-normalize-roundtrip",
                               f"{args.random_objects} random objects",
                               witness=bad))
    if args.fuzz:
        bad = None
        for t in range(args.fuzz):
            A = zrandom.rand_simplicial(rng, dim_bound=min(dim_bound, 3))
            try:
                A._validate()
            except SimplicialIdentityError as exc:
                bad = (t, "valid object rejected", str(exc))
                break
            B = zrandom.corrupt_simplicial(rng, A)
            if B is None:
                continue
            try:
                B._validate()
                bad = (t, "corruption accepted")
                break
            except SimplicialIdentityError:
                pass
        certs.append(bool_cert(bad is None, "simplicial-identity-fuzz",
                               f"{args.fuzz} random objects validated and "
                               f"single-entry corruptions rejected",
                               witness=bad))
    if args.hom_table:
        m_top = args.hom_table
        table = {}
        ok = True
        for m in range(m_top + 1):
            for n in range(m_top + 1):
                r = chains.hom_rank(doldkan.disk(m).to_chain_complex(),
                                    doldkan.disk(n).to_chain_complex())
                table[f"{m},{n}"] = r
                if r != (1 if n in (m, m + 1) else 0):
                    ok = False
        results["hom_table"] = table
        certs.append(bool_cert(ok, "disk-hom-table",
                               "rank 1 exactly when n is m or m+1"))
    return emit("doldkan", inputs, results, certs, started)


# ---------------------------------------------------------------------------
# eilenberg-zilber


def cmd_ez(args):
    started = time.time()
    dim_bound = resolve_dim_bound(args.dim_bound)
    A = free_abelian(load_space(args.first, dim_bound))
    B = free_abelian(load_space(args.second, dim_bound))
    inputs = {"first": args.first, "second": args.second,
              "third": args.third, "check": args.check,
              "dim_bound": dim_bound}
    certs = []
    results = {}
    for check in args.check:
        if check == "chain":
            # construction validates the chain-map identity d∘∇ = ∇∘d
            try:
                sp = ez.shuffle_product(A, B)
                results["shuffle_target_ranks"] = list(sp.target.ranks)
                certs.append(bool_cert(True, "chain",
                                       "shuffle map commutes with d"))
            except ValueError as exc:
                certs.append(bool_cert(False, "chain", str(exc)))
        elif check == "aw":
            certs.append(cert_dict(ez.aw_nabla_identity_check(A, B), "aw"))
        elif check == "unital":
            certs.append(cert_dict(ez.unitality_check(A, B), "unital"))
        elif check == "symmetry":
            certs.append(cert_dict(ez.symmetry_check(A, B), "symmetry"))
        elif check == "assoc":
            if args.third is None:
                raise InputError("--check assoc requires --third")
            C = free_abelian(load_space(args.third, dim_bound))
            certs.append(cert_dict(ez.associativity_check(A, B, C), "assoc"))
        elif check == "kunneth":
            sp = ez.shuffle_product(A, B)
            ok = chains.is_homology_isomorphism(sp.map)
            results["tensor_homology"] = invariants_dict(
                chains.homology(sp.source))
            results["product_homology"] = invariants_dict(
                chains.homology(sp.target))
            certs.append(bool_cert(ok, "kunneth",
                                   "shuffle map induces an isomorphism "
                                   "on homology"))
    return emit("ez", inputs, results, certs, started)


# ---------------------------------------------------------------------------
# skeleta


def cmd_skeleta(args):
    started = time.time()
    dim_bound = resolve_dim_bound(args.dim_bound)
    certs = []
    results = {}
    inputs = {"first": args.first, "second": args.second, "p": args.p,
              "q": args.q, "n": args.n, "filtered_ez": args.filtered_ez,
              "day_unit": args.day_unit, "day_symmetry": args.day_symmetry,
              "day_assoc": args.day_assoc, "trials": args.trials,
              "seed": args.seed, "dim_bound": dim_bound}
    if args.first is not None and args.second is not None:
        X = load_space(args.first, dim_bound)
        Y = load_space(args.second, dim_bound)
        if args.p is not None or args.q is not None or args.n is not None:
            if None in (args.p, args.q, args.n):
                raise InputError("--p, --q, --n must be given together")
            certs.append(cert_dict(
                skeleton_product_check(X, Y, args.p, args.q, args.n),
                "skeleton-product"))
        if args.filtered_ez:
            A, B = free_abelian(X), free_abelian(Y)
            try:
                P = filtration.filtered_ez(A, B)
                certs.append(cert_dict(P.containment_certificate(),
                                       "filtered-ez-containment"))
                certs.append(cert_dict(P.filtration_zero_certificate(),
                                       "filtration-zero-isomorphism"))
            except ValueError as exc:
                certs.append(bool_cert(False, "filtered-ez-containment",
                                       str(exc)))
    rng = random.Random(args.seed)
    if args.day_unit:
        bad = None
        unit = filtration.unit_filtration()
        for t in range(args.trials):
            F = zrandom.rand_filtration(rng)
            conv = filtration.day_convolution(F, unit)
            if not filtration.filtrations_stagewise_equal(conv, F):
                bad = t
                break
        certs.append(bool_cert(bad is None, "day-unit",
                               f"F ⊛ 1 = F stagewise for {args.trials} "
                               f"random filtrations", witness=bad))
    if args.day_symmetry:
        bad = None
        for t in range(args.trials):
            F = zrandom.rand_filtration(rng, p_max=2, top_degree=2,
                                        max_total_rank=4)
            G = zrandom.rand_filtration(rng, p_max=2, top_degree=2,
                                        max_total_rank=4)
            cert = filtration.convolution_symmetry_check(F, G)
            if not cert.ok:
                bad = (t, cert.detail)
                break
        certs.append(bool_cert(bad is None, "day-symmetry",
                               f"{args.trials} random pairs", witness=bad))
    if args.day_assoc:
        bad = None
        for t in range(args.trials):
            F = zrandom.rand_filtration(rng, p_max=2, top_degree=1,
                                        max_total_rank=3)
            G = zrandom.rand_filtration(rng, p_max=2, top_degree=1,
                                        max_total_rank=3)
            H = zrandom.rand_filtration(rng, p_max=2, top_degree=1,
                                        max_total_rank=3)
            cert = filtration.convolution_associativity_check(F, G, H)
            if not cert.ok:
                bad = (t, cert.detail)
                break
        certs.append(bool_cert(bad is None, "day-associativity",
                               f"{args.trials} random triples", witness=bad))
    return emit("skeleta", inputs, results, certs, started)


# ---------------------------------------------------------------------------
# spectral sequences


def _ss_checks(S, certs, prefix=""):
    for r in range(1, S.r_top + 1):
        c = S.d_squared_check(r)
        if not c.ok:
            certs.append(cert_dict(c, f"{prefix}d-squared-r{r}"))
            return False
        if r + 1 <= S.r_top:
            c = S.page_recursion_check(r)
            if not c.ok:
                certs.append(cert_dict(c, f"{prefix}page-recursion-r{r}"))
                return False
    c = S.convergence_check()
    if not c.ok:
        certs.append(cert_dict(c, f"{prefix}convergence"))
        return False
    return True


def cmd_ss(args):
    started = time.time()
    dim_bound = resolve_dim_bound(args.dim_bound)
    certs = []
    results = {}
    inputs = {"input": args.input, "pages": args.pages,
              "pairing": args.pairing, "heart": args.heart,
              "trials": args.trials, "p_max": args.p_max,
              "seed": args.seed, "dim_bound": dim_bound}
    token = args.input
    if token == "random":
        rng = random.Random(args.seed)
        bad = None
        for t in range(args.trials):
            F = zrandom.rand_filtration(rng, p_max=args.p_max)
            S = spectral.SpectralSequence(F, r_max=args.pages)
            if not _ss_checks(S, certs, prefix=f"trial{t}-"):
                bad = t
                break
        certs.append(bool_cert(bad is None, "random-filtration-suite",
                               f"{args.trials} random filtrations: d_r²=0, "
                               f"page recursion, and convergence to the "
                               f"associated graded", witness=bad))
        return emit("ss", inputs, results, certs, started)
    if token.startswith("ez:"):
        names = token[3:].split(",")
        if len(names) != 2:
            raise InputError("ez: input takes two space tokens, e.g. "
                             "ez:delta1,delta1")
        A = free_abelian(load_space(names[0], dim_bound))
        B = free_abelian(load_space(names[1], dim_bound))
        P = filtration.filtered_ez(A, B)
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
                certs.append(cert_dict(spectral.leibniz_check(pairing),
                                       f"leibniz-r{r}"))
        return emit("ss", inputs, results, certs, started)
    if token.startswith("sk:"):
        X = load_space(token[3:], dim_bound)
        A = free_abelian(X)
        if args.heart:
            certs.append(cert_dict(spectral.heart_check(A), "heart"))
        F = filtration.skeletal_filtration(A)
    else:
        payload = load_payload(token)
        try:
            F = filtration.FilteredChainComplex.from_payload(payload)
        except (ValueError, KeyError, TypeError) as exc:
            raise InputError(f"invalid filtration payload: {exc}")
    S = spectral.SpectralSequence(F, r_max=args.pages)
    all_ok = _ss_checks(S, certs)
    if all_ok:
        certs.append(bool_cert(True, "spectral-invariants",
                               "d_r²=0, page recursion, convergence"))
    results["spectral"] = S.to_report()
    return emit("ss", inputs, results, certs, started)


# ---------------------------------------------------------------------------
# promonoidal


def _parse_int_list(text, name):
    try:
        return [int(t) for t in text.split(",") if t != ""]
    except ValueError:
        raise InputError(f"--{name} expects comma-separated integers")


def cmd_promonoidal(args):
    started = time.time()
    certs = []
    results = {}
    inputs = {"check": args.check, "ns": args.ns, "b": args.b, "m": args.m,
              "entries": args.entries, "k_max": args.k_max,
              "length": args.length, "trials": args.trials,
              "seed": args.seed}
    if args.b < 0:
        # every check but product-colimit reads --b; a negative bound
        # leaves Δ≤b empty and the sweep, coyoneda and operator checks
        # would pass without checking anything
        raise InputError("--b must be nonnegative")
    for check in args.check:
        if check == "mu-assoc":
            if args.entries is None:
                # sweep every ordered triple with entries <= b
                import itertools as _it
                for entries in _it.product(range(args.b + 1), repeat=3):
                    certs.append(cert_dict(
                        promonoidal.delta_mu_associativity_check(
                            *entries, b=args.b),
                        "mu-assoc-" + ",".join(map(str, entries))))
            else:
                entries = _parse_int_list(args.entries, "entries")
                if len(entries) != 3:
                    raise InputError("--entries expects three integers")
                certs.append(cert_dict(
                    promonoidal.delta_mu_associativity_check(
                        *entries, b=args.b),
                    "mu-assoc"))
        elif check == "unit":
            certs.append(cert_dict(promonoidal.delta_mu_unit_check(args.b),
                                   "mu-unit"))
        elif check == "coyoneda":
            C = promonoidal.delta_leq(args.b, check=False)
            certs.append(cert_dict(
                promonoidal.coyoneda_check(promonoidal.hom_profunctor(C)),
                "coyoneda"))
        elif check == "left-kan":
            ns = _parse_int_list(args.ns or "1,1", "ns")
            ms = range(args.m + 1) if args.m is not None else range(5)
            cert = promonoidal.left_kan_check(ns, args.b, ms)
            results["left_kan_expected_pass"] = sum(ns) <= args.b
            certs.append(cert_dict(cert, "left-kan"))
        elif check == "product-colimit":
            ns = _parse_int_list(args.ns or "1,1", "ns")
            certs.append(cert_dict(
                promonoidal.product_simplices_colimit_check(
                    ns, range(args.k_max + 1)),
                "product-colimit"))
        elif check == "operator-frag":
            rng = random.Random(args.seed)
            frag = promonoidal.operator_category_fragment(
                promonoidal.delta_op_multicategory(args.b), args.length)
            bad = None
            done = 0
            while done < args.trials:
                objs = frag.objects
                a, b_, c_, d_ = (rng.choice(objs) for _ in range(4))
                ms1 = frag.morphisms_between(a, b_)
                ms2 = frag.morphisms_between(b_, c_)
                ms3 = frag.morphisms_between(c_, d_)
                if not (ms1 and ms2 and ms3):
                    continue
                f = rng.choice(ms1)
                g = rng.choice(ms2)
                h = rng.choice(ms3)
                lhs = frag.compose(h, frag.compose(g, f))
                rhs = frag.compose(frag.compose(h, g), f)
                if lhs != rhs:
                    bad = (a, b_, c_, d_)
                    break
                if frag.compose(f, frag.identity(a)) != f:
                    bad = ("unit", a, b_)
                    break
                done += 1
            certs.append(bool_cert(bad is None, "operator-frag",
                                   f"associativity and unit laws on "
                                   f"{args.trials} random composable "
                                   f"triples", witness=bad))
        else:
            raise InputError(f"unknown check {check!r}")
    return emit("promonoidal", inputs, results, certs, started)


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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(json.dumps({"error": str(exc), "exit": EXIT_INPUT}),
              file=sys.stderr)
        return EXIT_INPUT
    except (SimplicialIdentityError, ValueError, KeyError, TypeError) as exc:
        print(json.dumps({"error": str(exc), "exit": EXIT_INPUT}),
              file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
