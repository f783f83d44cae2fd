import numpy as np
import pytest

from pufir.blaschke import random_member
from pufir.examples import reblock_instance, square_example, wide_example
from pufir.families import (compose_diag, compose_mix_cols,
                            compose_mix_rows, dilate, exponent_map,
                            hankel_abr, interleave_coeffs,
                            product_via_hankel, reblock, rect_stack,
                            rect_widen, reverse_poly, u_coiso, u_iso)
from pufir.hankel import (hankel_causal, is_paraunitary_hankel,
                          mcmillan_degree, stack_B)
from pufir.laurent import LaurentPoly

from conftest import block_flip, circle_points, random_poly


def member(F, tol=1e-9):
    return is_paraunitary_hankel(F, tol)


def test_reverse_basic():
    F = wide_example(0)
    R = reverse_poly(F)
    assert np.allclose(R.coeffs[0], F.coeffs[1])
    assert member(R).member
    assert (reverse_poly(R) - F).is_zero()
    single = LaurentPoly(0, [np.eye(2)])
    assert (reverse_poly(single) - single).is_zero()


def test_reblock_paper_layouts():
    # symbolic check with distinguishable 1x1 blocks
    B = [np.array([[float(k)]]) for k in (1, 2, 3, 4)]
    F = LaurentPoly(-1, B)
    out = reblock(F, 2)
    assert out.q == 0 and out.n == 3 and out.p == out.m == 2
    assert np.allclose(out.coeffs[0], [[0, 1], [1, 2]])
    assert np.allclose(out.coeffs[1], [[2, 3], [3, 4]])
    assert np.allclose(out.coeffs[2], [[4, 0], [0, 0]])
    F2 = LaurentPoly(-2, B)
    out3 = reblock(F2, 3)
    assert out3.n == 2 and out3.p == 3
    assert np.allclose(out3.coeffs[0], [[0, 0, 1], [0, 1, 2], [1, 2, 3]])
    assert np.allclose(out3.coeffs[1], [[2, 3, 4], [3, 4, 0], [4, 0, 0]])
    out2 = reblock(F2, 2)
    assert np.allclose(out2.coeffs[0], [[0, 0], [0, 1]])
    assert np.allclose(out2.coeffs[1], [[1, 2], [2, 3]])
    assert np.allclose(out2.coeffs[2], [[3, 4], [4, 0]])


def test_reblock_identity_and_range():
    F = reblock_instance(-1)
    assert reblock(F, 1).allclose(F, 1e-14)
    with pytest.raises(ValueError):
        reblock(F, 3)
    with pytest.raises(ValueError):
        reblock(square_example(0), 1)


def test_reblock_instance_all_partitions():
    for q in (-1, -2):
        F = reblock_instance(q)
        base = mcmillan_degree(F)
        assert member(F).member
        for j in range(1, 2 - q):
            G = reblock(F, j)
            assert member(G).member
            assert mcmillan_degree(G) == base


def test_reblock_membership_identities():
    # the padded delayed Hankel satisfies the truncated Gram conditions
    F = reblock_instance(-1)
    H = hankel_causal(F).data
    G = np.eye(H.shape[1]) - H.conj().T @ H
    m = F.m
    assert np.max(np.abs(G[:, :2 * m])) < 1e-12
    F2 = reblock_instance(-2)
    H2 = hankel_causal(F2).data
    G2 = np.eye(H2.shape[0]) - H2 @ H2.conj().T
    assert np.max(np.abs(G2[:3 * F2.p, :])) < 1e-12


def test_dilate():
    F = wide_example(0)
    assert (dilate(F, 0, 1) - F).is_zero()
    D = dilate(F, 0, 2)
    assert member(D).member
    for z in circle_points(16):
        assert np.max(np.abs(D.eval(z) - F.eval(z ** 2))) < 1e-12
    with pytest.raises(ValueError):
        dilate(F, 0, 0)


def test_exponent_map_patterns():
    F = square_example(1).shift(-1)
    assert (exponent_map(F, [1, 2, 3]) - F).is_zero()
    E = exponent_map(F, [2, 4, 6])
    assert (E - dilate(F, 0, 2)).is_zero()
    assert member(E).member
    G = random_member(2, 2, 5, seed=11)
    G = G.shift(-G.q)
    assert G.n == 6
    sparse = exponent_map(G, [1, 2, 3, 9, 10, 11])
    assert sparse.n == 11
    assert np.allclose(sparse.coeffs[8], G.coeffs[3])
    with pytest.raises(ValueError):
        exponent_map(F, [1, 2, 5])  # unequal runs
    with pytest.raises(ValueError):
        exponent_map(F, [1, 2])  # wrong count


def test_exponent_map_run_interleaving_breaks_membership():
    # placing runs of length > 1 with gaps drops cross-run lag terms, so
    # membership is generally lost; this documents the behavior
    G = random_member(2, 2, 5, seed=3)
    sparse = exponent_map(G.shift(-G.q), [1, 2, 3, 9, 10, 11])
    assert not member(sparse).member


def test_u_iso_layouts():
    assert np.allclose(u_iso(0, 0, 3, 2), np.eye(6))
    assert np.allclose(u_coiso(0, 0, 2, 3), np.eye(6))
    U = u_iso(1, 1, 2, 1)
    assert U.shape == (6, 2)
    assert np.allclose(U[:, 0], [0, 1, 0, 0, 0, 0])
    assert np.allclose(U[:, 1], [0, 0, 0, 0, 1, 0])
    assert np.allclose(U.conj().T @ U, np.eye(2))
    V = u_coiso(2, 1, 3, 2)
    assert np.allclose(V @ V.conj().T, np.eye(6))


def test_rect_stack_widen():
    F = square_example(1)
    assert (rect_stack(F, 1) - F.shift(-1)).is_zero()
    S = rect_stack(F, 2)
    assert (S.p, S.m, S.n) == (4, 2, 2)
    assert np.allclose(S.coeffs[0], np.vstack([F.coeffs[0], F.coeffs[1]]))
    assert member(S).member
    S3 = rect_stack(F, 3)
    assert S3.n == 1 and S3.p == 6
    W = rect_widen(wide_example(0), 2)
    assert (W.p, W.m, W.n) == (1, 4, 1)
    assert member(W).member


def test_compose_diag():
    F = square_example(1)
    C = compose_diag(F, F)
    assert (C.p, C.m) == (4, 4)
    assert member(C).member
    # zero-degree unitary second component
    U = LaurentPoly(1, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    C2 = compose_diag(F, U)
    assert member(C2).member
    A = compose_diag(F, F, "antidiag")
    assert member(A).member
    for z in circle_points(8):
        E = A.eval(z)
        assert np.max(np.abs(E[:2, :2])) < 1e-14
        # inputs are aligned at q=0, so F appears delayed by one power
        assert np.max(np.abs(E[:2, 2:] - F.eval(z) / z)) < 1e-12


def test_compose_mix_rows():
    tall = wide_example(0).conjugate()  # 2x1 isometry
    for alpha in (0.0, 0.5, 1.0):
        M = compose_mix_rows(tall, tall, alpha)
        assert (M.p, M.m) == (4, 1)
        assert member(M).member
    with pytest.raises(ValueError):
        compose_mix_rows(square_example(1), tall, 0.5)
    with pytest.raises(ValueError):
        compose_mix_rows(tall, tall, 1.5)


def test_compose_mix_cols():
    wide = wide_example(0)
    for alpha in (0.0, 0.3, 1.0):
        M = compose_mix_cols(wide, wide, alpha)
        assert (M.p, M.m) == (1, 4)
        assert member(M).member
    with pytest.raises(ValueError):
        compose_mix_cols(wide, square_example(1), 0.5)


def test_product_via_hankel_matches_multiply(rng):
    for seed in range(5):
        Fb = random_poly(rng, 2, 3, 3, q=0)
        Fc = random_poly(rng, 3, 2, 2, q=0)
        P = product_via_hankel(Fb, Fc)
        Q = Fb @ Fc
        assert (P - Q).is_zero(1e-12)
    with pytest.raises(ValueError):
        product_via_hankel(square_example(0), wide_example(0).conjugate()
                           .conjugate())


def test_product_stacked_hankel_identities(rng):
    # with T the block flip and both inputs normalized to q = 0:
    # [0; D_1; ...] = H_B(eta=l) T [0_n; C_1; ...; C_l] and
    # H_D(eta=1) = H_B(eta=l) T H_C(eta=n)
    for p, rho, mc, n, l in ((2, 3, 2, 3, 2), (1, 2, 3, 1, 4),
                             (3, 1, 1, 4, 1), (2, 2, 2, 1, 1)):
        Fb = random_poly(rng, p, rho, n, q=int(rng.integers(-2, 3)))
        Fc = random_poly(rng, rho, mc, l, q=int(rng.integers(-2, 3)))
        P = product_via_hankel(Fb, Fc)
        assert (P.q, P.n) == (-1, n + l - 1)
        Fb0, Fc0 = Fb.shift(-Fb.q), Fc.shift(-Fc.q)
        HT = hankel_causal(Fb0.shift(-l)).data @ block_flip(n + l, rho)
        Dstack = HT @ stack_B(Fc0.shift(-n))
        # P has q = -1, so its stack is [0; D_1; ...]
        assert np.max(np.abs(Dstack - stack_B(P))) < 1e-12
        Hc = hankel_causal(Fc0.shift(-n)).data
        assert np.max(np.abs(hankel_causal(P).data - HT @ Hc)) < 1e-12


def test_product_via_hankel_members():
    A = random_member(2, 2, 3, seed=1)
    B = random_member(2, 2, 2, seed=2)
    P = product_via_hankel(A, B)
    assert member(P).member
    # pure delays compose to a double delay
    U = np.array([[0.0, 1.0], [1.0, 0.0]])
    D = product_via_hankel(LaurentPoly(0, [np.eye(2)]),
                           LaurentPoly(0, [U]))
    for z in circle_points(5):
        assert np.allclose(D.eval(z), U / z ** 2)


def test_interleave_and_hankel_abr():
    F = wide_example(0)
    # a=0, b=0, rho=1 reproduces the plain Hankel
    H = hankel_abr(F, 0, 0, 1)
    assert np.allclose(H.data, hankel_causal(F).data)
    seq = interleave_coeffs(F, 0, 1, 1)
    # leading zero block, then B_1, zero, B_2
    assert np.max(np.abs(seq[0])) == 0
    assert np.allclose(seq[1], F.coeffs[0])
    assert np.max(np.abs(seq[2])) == 0
    assert np.allclose(seq[3], F.coeffs[1])


def test_hankel_abr_index_oracle(rng):
    # brute-force index comparison against the interleaving layout
    F = random_poly(rng, 2, 2, 4, q=0)
    a, b, rho = 1, 2, 2
    H = hankel_abr(F, a, b, rho)
    seq = interleave_coeffs(F, a, b, rho)
    N = len(seq)
    assert H.data.shape == (N * 2, N * 2)
    for i in range(N):
        for j in range(N):
            k = i + j
            expect = seq[k] if k < N else np.zeros((2, 2))
            assert np.allclose(H.block(i, j), expect)


def test_membership_preservation_suite():
    # one member, every applicable construction
    F = random_member(2, 2, 3, seed=42)
    assert member(reverse_poly(F)).member
    assert member(reblock(F.shift(-F.q - 1), 2)).member
    assert member(dilate(F, 0, 3)).member
    assert member(rect_stack(F, 2)).member
    assert member(rect_widen(F, 2)).member
    assert member(compose_diag(F, square_example(1))).member
    G = random_member(2, 2, 2, seed=43)
    assert member(product_via_hankel(F, G)).member
