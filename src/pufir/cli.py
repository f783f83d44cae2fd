"""Command-line front end.

Subcommands: check, degree, synth, sample, family, realize, optimize,
verify-examples.  Exit codes: 0 success, 1 negative verification,
2 usage or input error.  The PUFIR_TOL environment variable overrides
the default tolerance.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import families
from .blaschke import decode_angles, design_optimize, random_member, synth
from .hankel import (DEFAULT_TOL, defect_structure, hankel_pair,
                     is_paraunitary_hankel, mcmillan_degree)
from .io import (angles_to_dict, complex_pairs, dumps_json, dumps_poly,
                 load_angles, load_poly, poly_to_dict, save_poly)
from .realization import (check_unitary_realization, gramian_normalize,
                          gramians, minimal_realization)
from .verify import verify_examples


def _tol(args):
    """--tol, else PUFIR_TOL, else DEFAULT_TOL; finite and > 0."""
    source, value = "--tol", args.tol
    if value is None:
        source = "PUFIR_TOL"
        value = os.environ.get("PUFIR_TOL") or DEFAULT_TOL
    try:
        tol = float(value)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{source} must be a finite number > 0, "
                         f"got {value!r}")
    return tol


def _emit_poly(F, out):
    if out:
        save_poly(F, out)
    else:
        sys.stdout.write(dumps_poly(F))


def cmd_check(args):
    F = load_poly(args.file)
    tol = _tol(args)
    label, flags = F.causality()
    degree = mcmillan_degree(F)
    result = is_paraunitary_hankel(F, tol)
    sampled = F.unitary_defect()
    sigma = hankel_pair(F).H.singular_values()
    report = {
        "p": F.p, "m": F.m, "q": F.q, "n": F.n,
        "causality": label, "causality_flags": sorted(flags),
        "mcmillan_degree": degree,
        "member": result.member, "role": result.role,
        "residual": result.residual, "sampled_defect": sampled,
        "hankel_singular_values": sigma,
    }
    if result.member:
        d = defect_structure(F, tol, sigma)
        report["defect"] = {
            "zero_block_ok": d.zero_block_ok,
            "coupling_ok": d.coupling_ok,
            "delta_psd": d.delta_psd,
            "delta_contraction": d.delta_contraction,
            "delta_projection": d.delta_projection,
            "delta_eigenvalues": d.delta_eigenvalues,
        }
    if args.json:
        sys.stdout.write(dumps_json(report))
    else:
        print(f"dimensions: {F.p}x{F.m}, q={F.q}, n={F.n}")
        print(f"causality: {label} (flags: {', '.join(sorted(flags))})")
        print(f"McMillan degree: {degree}")
        print(f"membership: {'member' if result.member else 'non-member'} "
              f"({result.role}), residual {result.residual:.3e}, "
              f"sampled defect {sampled:.3e}")
        if result.member:
            d = report["defect"]
            print(f"defect structure: zero-block {d['zero_block_ok']}, "
                  f"coupling {d['coupling_ok']}, PSD {d['delta_psd']}, "
                  f"contraction {d['delta_contraction']}, "
                  f"projection {d['delta_projection']}")
    return 0 if result.member else 1


def cmd_degree(args):
    F = load_poly(args.file)
    degree = mcmillan_degree(F)
    if args.json:
        sys.stdout.write(dumps_json({"mcmillan_degree": degree}))
    else:
        print(degree)
    return 0


def cmd_synth(args):
    params = load_angles(args.file)
    _emit_poly(synth(decode_angles(params)), args.output)
    return 0


def cmd_sample(args):
    F = random_member(args.p, args.m, args.d, args.gamma, args.seed)
    _emit_poly(F, args.output)
    return 0


def cmd_family(args):
    F = load_poly(args.file)
    sub = args.construction
    if sub == "reverse":
        out = families.reverse_poly(F)
    elif sub == "reblock":
        out = families.reblock(F, args.j)
    elif sub == "dilate":
        out = families.dilate(F, args.a, args.gamma)
    elif sub == "stack":
        out = families.rect_stack(F, args.rho)
    elif sub == "widen":
        out = families.rect_widen(F, args.rho)
    else:
        if not args.second:
            raise ValueError(f"construction {sub!r} needs --second FILE")
        G = load_poly(args.second)
        if sub == "compose":
            out = families.compose_diag(F, G, args.variant)
        elif sub == "mix-rows":
            out = families.compose_mix_rows(F, G, args.alpha)
        elif sub == "mix-cols":
            out = families.compose_mix_cols(F, G, args.alpha)
        else:  # product
            out = families.product_via_hankel(F, G)
    _emit_poly(out, args.output)
    return 0


def cmd_realize(args):
    F = load_poly(args.file)
    tol = _tol(args)
    R = gramian_normalize(minimal_realization(F))
    label, res_iso, res_coiso = check_unitary_realization(R, tol)
    pair = gramians(R)
    report = {
        "nu": R.nu,
        "A": complex_pairs(R.A), "B": complex_pairs(R.B),
        "C": complex_pairs(R.C), "D": complex_pairs(R.D),
        "classification": label,
        "residual_isometry": res_iso, "residual_coisometry": res_coiso,
        "W_cont": complex_pairs(pair.W_cont),
        "W_obs": complex_pairs(pair.W_obs),
        "rank_ambiguous": R.rank_ambiguous,
    }
    if args.json:
        sys.stdout.write(dumps_json(report))
    else:
        print(f"state dimension: {R.nu}")
        print(f"classification: {label} (residuals iso {res_iso:.3e}, "
              f"coiso {res_coiso:.3e})")
        with np.printoptions(precision=6, suppress=True):
            print(f"W_cont:\n{pair.W_cont}")
            print(f"W_obs:\n{pair.W_obs}")
    return 0


def cmd_optimize(args):
    def residual(F):
        return F.eval(1.0) - np.eye(F.p, F.m)

    params, F, value = design_optimize(residual, args.p, args.m, args.d,
                                       args.gamma, args.budget,
                                       seed=args.seed)
    report = {"value": value, "angles": angles_to_dict(params),
              "poly": poly_to_dict(F)}
    sys.stdout.write(dumps_json(report))
    return 0


def cmd_verify_examples(args):
    checks = verify_examples(_tol(args))
    failed = 0
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        print(f"{status}: {name} ({detail})")
        failed += not ok
    return 1 if failed else 0


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="pufir",
        description="Analyze, verify, synthesize and transform para-unitary "
                    "FIR systems.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("check", help="membership and structure report")
    sp.add_argument("file")
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("degree", help="McMillan degree")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("synth", help="synthesize from an angle file")
    sp.add_argument("file")
    sp.add_argument("-o", "--output", default=None)

    sp = sub.add_parser("sample", help="random member")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--gamma", type=int, default=0)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("-o", "--output", default=None)

    sp = sub.add_parser("family", help="apply a family construction")
    sp.add_argument("construction",
                    choices=["reverse", "reblock", "dilate", "stack",
                             "widen", "compose", "mix-rows", "mix-cols",
                             "product"])
    sp.add_argument("file")
    sp.add_argument("--second", default=None, help="second polynomial file")
    sp.add_argument("--j", type=int, default=1)
    sp.add_argument("--a", type=int, default=0)
    sp.add_argument("--gamma", type=int, default=1)
    sp.add_argument("--rho", type=int, default=1)
    sp.add_argument("--alpha", type=float, default=0.5)
    sp.add_argument("--variant", choices=["diag", "antidiag"],
                    default="diag")
    sp.add_argument("-o", "--output", default=None)

    sp = sub.add_parser("realize", help="minimal normalized realization")
    sp.add_argument("file")
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("optimize",
                        help="design toward F(1) = I over the angle chart")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--gamma", type=int, default=0)
    sp.add_argument("--budget", type=int, default=5000)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("verify-examples",
                        help="reproduce the embedded reference examples")
    sp.add_argument("--tol", type=float, default=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # looked up when called, so a rebound cmd_* takes effect
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError,
            ZeroDivisionError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
