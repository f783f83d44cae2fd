"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line for its criterion; run with -s (or
check the captured output) to see the report.
"""
import time

import numpy as np

from pufir.blaschke import (BPProduct, decode_angles, design_optimize,
                            param_count, random_member, random_params, synth)
from pufir.examples import reblock_instance, square_example, wide_example
from pufir.families import (compose_diag, compose_mix_cols,
                            compose_mix_rows, dilate, product_via_hankel,
                            reblock, rect_stack, rect_widen, reverse_poly)
from pufir.hankel import (defect_structure, hankel_pair,
                          is_paraunitary_hankel, mcmillan_degree)
from pufir.laurent import LaurentPoly
from pufir.realization import gramians, minimal_realization
from pufir.verify import verify_examples

from conftest import (circle_points, factor_chain, max_coeff_diff,
                      product_forms, random_poly, random_unit,
                      toeplitz_gram_equiv)


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def examples_report(num, prefix, names):
    """Assert on the verify_examples() entries named prefix + ..."""
    t0 = time.perf_counter()
    checks = [c for c in verify_examples() if c[0].startswith(prefix)]
    elapsed = time.perf_counter() - t0
    ok = ([name for name, _, _ in checks] == names
          and all(passed for _, passed, _ in checks) and elapsed < 1.0)
    report(num, ok, "; ".join(f"{name}: {detail}"
                              for name, _, detail in checks)
           + f"; {elapsed:.3f}s")


def test_criterion_1_square_example():
    examples_report(1, "square ", [
        "square q=2 McMillan degree", "square q=1 McMillan degree",
        "square realization matrix 4x4", "square realization unitary"])


def test_criterion_2_wide_example():
    examples_report(2, "wide ", [
        "wide Hankel singular values (1, 0.8)", "wide membership",
        "wide RR* = diag(I2, 1)", "wide W_obs q=0 = diag(1, 16/25)",
        "wide W_obs q=1 = 16/25"])


def test_criterion_3_synthesis_soundness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    pts = circle_points(16)
    worst_defect = worst_forms = 0.0
    all_member = True
    for trial in range(500):
        p, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        d = int(rng.integers(0, 7))
        gamma = int(rng.integers(0, d + 1))
        prod = decode_angles(random_params(p, m, d, gamma, seed=trial))
        F = synth(prod)
        worst_defect = max(worst_defect, F.unitary_defect())
        res = is_paraunitary_hankel(F)
        all_member = all_member and res.member
        forms = product_forms(prod)
        for z in pts:
            E = F.eval(z)
            for f in forms:
                worst_forms = max(worst_forms,
                                  float(np.max(np.abs(f(z) - E))))
    elapsed = time.perf_counter() - t0
    ok = (worst_defect < 1e-10 and all_member and worst_forms < 1e-10
          and elapsed < 30.0)
    report(3, ok, f"500 products: defect {worst_defect:.2e}, members "
                  f"{all_member}, form spread {worst_forms:.2e}, "
                  f"{elapsed:.1f}s")


def test_criterion_4_degree_law():
    rng = np.random.default_rng(4)
    exact = True
    for trial in range(200):
        p, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        d = int(rng.integers(1, 6))
        gamma = 0 if trial % 2 == 0 else d
        F = random_member(p, m, d, gamma=gamma, seed=1000 + trial)
        exact = exact and mcmillan_degree(F) == d
    worst = 0.0
    for seed in range(5):
        g = int(rng.integers(1, 4))
        vs = tuple(random_unit(rng, 3) for _ in range(g))
        prod = BPProduct(g, vs + vs[::-1], np.eye(3))
        F = synth(prod)
        for z in circle_points(16):
            worst = max(worst, float(np.max(np.abs(F.eval(z) - np.eye(3)))))
    ok = exact and worst < 1e-12
    report(4, ok, f"200 draws degree exact: {exact}, cancellation "
                  f"residual {worst:.2e}")


def test_criterion_5_coefficient_expansion():
    rng = np.random.default_rng(5)
    worst = worst_u = 0.0
    for trial in range(100):
        p, m = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        d = int(rng.integers(0, 6))
        gamma = int(rng.integers(0, d + 1))
        prod = decode_angles(random_params(p, m, d, gamma, seed=trial))
        F = synth(prod)
        worst = max(worst, max_coeff_diff(F, factor_chain(prod)))
        worst_u = max(worst_u, float(np.max(np.abs(F.eval(1.0) - prod.U))))
    ok = worst < 1e-11 and worst_u < 1e-11
    report(5, ok, f"100 draws: coefficient err {worst:.2e}, "
                  f"F(1)-U err {worst_u:.2e}")


def test_criterion_6_family_preservation():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    ok = True
    worst_prod = 0.0

    def member(G):
        nonlocal ok
        res = is_paraunitary_hankel(G, 1e-9)
        ok = ok and res.member

    for trial in range(100):
        p, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        d = int(rng.integers(0, 4))
        F = random_member(p, m, d, seed=trial)
        member(reverse_poly(F))
        member(dilate(F, 0, 2))
        member(compose_diag(F, F))
        if p >= m:
            member(rect_stack(F, 2))
        if m >= p:
            member(rect_widen(F, 2))
        if p == m:
            member(compose_mix_rows(F, F, 0.5))
            member(compose_mix_cols(F, F, 0.5))
        shifted = F.shift(-F.q - 1)
        G = reblock(shifted, 2)
        member(G)
        ok = ok and mcmillan_degree(G) == mcmillan_degree(shifted)
        other = random_member(m, m, 2, seed=5000 + trial)
        P = product_via_hankel(F, other)
        member(P)
        worst_prod = max(worst_prod, float(max(
            np.max(np.abs(B - C)) for B, C in
            zip(P.coeffs, (F @ other).coeffs))))
    for q in (-1, -2):
        inst = reblock_instance(q)
        base = mcmillan_degree(inst)
        for j in range(1, 2 - q):
            G = reblock(inst, j)
            member(G)
            ok = ok and mcmillan_degree(G) == base
    elapsed = time.perf_counter() - t0
    ok = ok and worst_prod < 1e-12 and elapsed < 60.0
    report(6, ok, f"100 members x constructions: all members {ok}, "
                  f"product err {worst_prod:.2e}, {elapsed:.1f}s")


def test_criterion_7_param_count_grid():
    ok = True
    for d in range(6):
        for p in range(1, 6):
            for m in range(1, p + 1):
                expect = (2 * p - m - 1) * (m + d) + d * (m - 1) + m
                ok = ok and param_count(p, m, d) == expect
                ok = ok and param_count(m, p, d) == expect
        ok = ok and param_count(1, 1, d) == 1
    report(7, ok, "formula grid p,m <= 5, d <= 5 incl. p=m=1 -> 1")


def test_criterion_8_property_suite():
    rng = np.random.default_rng(8)
    ok = True
    for _ in range(10):
        F = random_poly(rng, 3, 2, 3, q=int(rng.integers(-2, 3)))
        ok = ok and (F.conjugate().conjugate() - F).is_zero(0.0)
    for seed in range(10):
        F = random_member(2, 2, 3, seed=seed)
        for k in (-2, 3):
            ok = ok and is_paraunitary_hankel(F.shift(k)).member
    rep_w = defect_structure(wide_example(0))
    ok = ok and rep_w.delta_psd and rep_w.delta_contraction
    ok = ok and not rep_w.delta_projection
    rep_s = defect_structure(square_example(1))
    ok = ok and rep_s.delta_projection and rep_s.zero_block_ok
    ok = ok and rep_s.coupling_ok
    tg = max(toeplitz_gram_equiv(square_example(1)),
             toeplitz_gram_equiv(random_poly(rng, 2, 3, 4, q=0)))
    ok = ok and tg < 1e-13
    pair = gramians(minimal_realization(wide_example(0)))
    ev = np.sort(np.linalg.eigvals(pair.W_cont @ pair.W_obs).real)[::-1]
    sv = hankel_pair(wide_example(0)).H.singular_values()
    link = float(np.max(np.abs(np.sqrt(np.maximum(ev, 0)) - sv)))
    ok = ok and link < 1e-9
    report(8, ok, f"involution/shift/defect/gram checks, toeplitz "
                  f"{tg:.2e}, gramian-hankel link {link:.2e}")


def test_criterion_9_optimization():
    defects = []
    target = np.eye(3)

    def residual(F):
        defects.append(F.unitary_defect())
        return F.eval(1.0) - target

    _, F, val = design_optimize(residual, 3, 3, 2, budget=5000)
    ok = (val < 1e-6 and len(defects) <= 5000
          and max(defects) < 1e-10)
    report(9, ok, f"value {val:.2e} in {len(defects)} evaluations, "
                  f"max iterate defect {max(defects):.2e}")
