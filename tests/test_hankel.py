import tracemalloc

import numpy as np
import pytest

from pufir.blaschke import random_member
from pufir.examples import square_example, wide_example
from pufir.hankel import (defect_structure, hankel_anticausal,
                          hankel_causal, hankel_pair, is_paraunitary_hankel,
                          mcmillan_degree, numerical_rank, stack_B)
from pufir.laurent import LaurentPoly

from conftest import random_poly, toeplitz_gram_equiv


def test_hankel_wide_example():
    H = hankel_causal(wide_example(0))
    expected = np.array([[0, -3, 4, 0], [4, 0, 0, 0]]) / 5.0
    assert np.allclose(H.data, expected)


def test_hankel_identity_block():
    H = hankel_causal(LaurentPoly(0, [np.eye(2)]))
    assert np.allclose(H.data, np.eye(2))


def test_hankel_square_example_q1():
    F = square_example(1)
    pair = hankel_pair(F)
    assert pair.H_hat.data.shape == (0, 0)
    B2, B3 = F.coeffs[1], F.coeffs[2]
    expected = np.block([[B2, B3], [B3, np.zeros((2, 2))]])
    assert np.allclose(pair.H.data, expected)


def test_hankel_property_blockwise(rng):
    F = random_poly(rng, 2, 3, 4, q=-1)
    blocks = hankel_causal(F).data.reshape(5, 2, 5, 3)     # [i, :, j, :]
    for i in range(4):
        for j in range(1, 5):
            assert np.allclose(blocks[i, :, j], blocks[i + 1, :, j - 1])


def test_hankel_anticausal_reverse_property(rng):
    F = random_poly(rng, 2, 2, 4, q=5)  # strictly anti-causal
    A = hankel_anticausal(F)
    rev = LaurentPoly(0, F.coeffs[::-1])
    C = hankel_causal(rev)
    assert np.allclose(A.data, C.data)


def test_hankel_anticausal_single():
    U = np.array([[0, 1], [1, 0]], dtype=complex)
    H = hankel_anticausal(LaurentPoly(2, [U]))
    assert np.allclose(H.data, U)


def test_hankel_regime_errors():
    with pytest.raises(ValueError):
        hankel_causal(square_example(2))
    with pytest.raises(ValueError):
        hankel_anticausal(square_example(2))


def test_hankel_pair_square_example():
    F = square_example(2)
    pair = hankel_pair(F)
    assert np.allclose(pair.H.data, F.coeffs[2])
    assert np.allclose(pair.H_hat.data, F.coeffs[0])


def test_hankel_pair_degenerate():
    assert hankel_pair(square_example(0)).H_hat.data.shape == (0, 0)
    assert hankel_pair(square_example(4)).H.data.shape == (0, 0)


def test_mcmillan_degree_examples():
    assert mcmillan_degree(square_example(2)) == 2
    assert mcmillan_degree(square_example(1)) == 2
    U = np.fft.fft(np.eye(3)) / np.sqrt(3)
    assert mcmillan_degree(LaurentPoly(0, [U])) == 3


def test_mcmillan_degree_regime_table():
    # a single coefficient M at z^(q-1) puts M on the block anti-diagonal
    # of a |q - 1| block Hankel: the causal one padded by -q for q <= 0,
    # the anti-causal one padded by q - 2 for q >= 2
    M = np.outer([1.0, 2.0], [1.0, -1.0, 3.0])
    degrees = [mcmillan_degree(LaurentPoly(q, [M])) for q in range(-3, 6)]
    assert degrees == [4, 3, 2, 1, 0, 1, 2, 3, 4]


def test_rank_padding_invariance(rng):
    F = random_poly(rng, 2, 2, 3, q=0)
    base = numerical_rank(hankel_causal(F).singular_values())
    # padding adds zero rows/columns only when eta exceeds the delay,
    # which is exactly the eta=0 normalized case extended artificially
    for eta in (0, 1, 2):
        H = hankel_causal(F.shift(-eta))
        assert numerical_rank(H.singular_values()) >= base


def test_numerical_rank_thresholds():
    assert numerical_rank(np.array([1.0, 1e-5, 1e-12])) == 2
    assert numerical_rank(np.zeros(3)) == 0
    assert numerical_rank(np.zeros(0)) == 0


def test_singular_values_wide_example():
    sv = hankel_pair(wide_example(0)).H.singular_values()
    assert np.max(np.abs(sv - np.array([1.0, 0.8]))) < 1e-12


def test_singular_values_trivial():
    H = hankel_causal(LaurentPoly(0, [np.eye(2)]))
    assert np.allclose(H.singular_values(), [1.0, 1.0])
    Z = hankel_causal(LaurentPoly(0, [np.zeros((2, 2))]))
    assert np.allclose(Z.singular_values(), 0.0)


def test_membership_examples():
    assert is_paraunitary_hankel(wide_example(0)).member
    for q in (0, 1, 2, 3):
        assert is_paraunitary_hankel(square_example(q)).member


def test_membership_negative():
    F = LaurentPoly(0, [np.diag([1.0, 0.0])])
    res = is_paraunitary_hankel(F)
    assert not res.member
    assert abs(res.residual - 1.0) < 1e-14


def test_membership_agrees_with_sampling(rng):
    for seed in range(30):
        p, m = rng.integers(1, 4, size=2)
        d = int(rng.integers(0, 5))
        F = random_member(int(p), int(m), d, seed=seed)
        assert is_paraunitary_hankel(F).member
        assert F.unitary_defect() < 1e-9
        # perturbed non-member
        C = [np.array(B) for B in F.coeffs]
        C[0][0, 0] += 0.01
        G = LaurentPoly(F.q, C)
        assert not is_paraunitary_hankel(G).member
        assert G.unitary_defect() > 1e-9


def test_membership_condition_via_stack(rng):
    # H_0^* B-stack = [I_m; 0] is the same set of linear relations
    for seed in range(5):
        F = random_member(3, 2, 3, seed=seed)
        F0 = F.shift(-F.q)
        H0 = hankel_causal(F0).data
        G = H0.conj().T @ stack_B(F0)
        target = np.vstack([np.eye(2), np.zeros((G.shape[0] - 2, 2))])
        assert np.max(np.abs(G - target)) < 1e-12


def test_defect_structure_wide_example():
    rep = defect_structure(wide_example(0))
    assert rep.role == "co-isometry"
    assert rep.zero_block_ok and rep.coupling_ok
    assert rep.delta_eigenvalues.shape == (1,)
    assert abs(rep.delta_eigenvalues[0] - 0.36) < 1e-12
    assert rep.delta_psd and rep.delta_contraction
    assert not rep.delta_projection


def test_defect_structure_square_projection():
    rep = defect_structure(square_example(1))
    assert rep.role == "isometry"
    assert rep.delta_projection
    assert np.all(np.minimum(np.abs(rep.delta_eigenvalues),
                             np.abs(rep.delta_eigenvalues - 1)) < 1e-12)


def test_defect_structure_empty_delta():
    U = np.fft.fft(np.eye(2)) / np.sqrt(2)
    rep = defect_structure(LaurentPoly(0, [U]))
    assert rep.delta_eigenvalues.shape == (0,)


def test_defect_structure_requires_member():
    with pytest.raises(ValueError):
        defect_structure(LaurentPoly(0, [np.diag([1.0, 0.0])]))


def test_membership_and_defect_build_no_hankel(monkeypatch):
    import pufir.hankel as hankel

    def refused(*args, **kwargs):
        raise AssertionError("H_0 was built")

    monkeypatch.setattr(hankel, "block_hankel", refused)
    for F in (random_member(4, 2, 5, 2, seed=1),
              random_member(2, 4, 5, 0, seed=2).shift(-3)):
        assert is_paraunitary_hankel(F).member
        assert defect_structure(F).zero_block_ok


def test_gram_memory_below_dense_hankel():
    # at (24,12,96) H_0 is n*24 x n*12 with n = 97; the lag sums need a
    # few coefficient-sized arrays, the defect one (n*12)^2 Gram plus the
    # trailing block the eigen-solve reads
    F = random_member(24, 12, 96, 30, seed=1)
    ns = F.n * 12
    tracemalloc.start()
    try:
        is_paraunitary_hankel(F)
        membership = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        defect_structure(F)
        defect = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert membership < 16 * (F.n * 24) * ns / 10
    assert defect <= 2.5 * 16 * ns ** 2


def test_toeplitz_gram(rng):
    assert toeplitz_gram_equiv(square_example(1)) < 1e-13
    F = random_poly(rng, 2, 2, 3, q=0)
    assert toeplitz_gram_equiv(F) < 1e-13
    G = random_poly(rng, 2, 2, 1, q=0)
    assert toeplitz_gram_equiv(G) < 1e-14


def test_hankel_shift_factorization():
    # block column j of H_eta equals J^j times the padded stack, where the
    # block shift J has I_p on its block superdiagonal
    F = wide_example(0)
    for eta in (0, 1):
        F_sh = F.shift(-eta)
        H = hankel_causal(F_sh)
        size = F.n + eta
        J = np.eye(size * F.p, k=F.p)
        col = stack_B(F_sh)
        for j in range(size):
            block = H.data[:, j * F.m:(j + 1) * F.m]
            assert np.allclose(block, np.linalg.matrix_power(J, j) @ col)
