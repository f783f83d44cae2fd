import numpy as np
import pytest

from pufir.blaschke import random_member
from pufir.examples import square_example, wide_example
from pufir.hankel import hankel_pair, mcmillan_degree
from pufir.laurent import LaurentPoly
from pufir.realization import (Realization, check_unitary_realization,
                               gramian_normalize, gramians,
                               minimal_realization, naive_realization,
                               transfer)

from conftest import circle_points


def transfer_residual(R, F, count=8):
    return max(float(np.max(np.abs(transfer(R, z) - F.eval(z))))
               for z in circle_points(count))


def test_naive_square_example_layout():
    F = square_example(1)
    R = naive_realization(F)
    B2, B3 = F.coeffs[1], F.coeffs[2]
    assert R.nu == 4
    # block shift: I_2 on the block superdiagonal, nilpotent of order 2
    assert np.array_equal(R.A, np.kron(np.eye(2, k=1), np.eye(2)))
    assert np.max(np.abs(np.linalg.matrix_power(R.A, 2))) == 0
    assert np.allclose(R.D, F.coeffs[0])
    assert np.allclose(R.B, np.vstack([B2, B3]))
    assert np.allclose(R.C, np.hstack([np.eye(2), np.zeros((2, 2))]))
    assert transfer_residual(R, F) < 1e-12


def test_naive_single_coefficient():
    B1 = np.array([[1.0, 2.0], [0.0, 1j]])
    F = LaurentPoly(0, [B1])
    R = naive_realization(F)
    assert R.nu == 2
    assert np.max(np.abs(R.A)) == 0
    assert np.allclose(R.B, B1)
    assert np.allclose(R.C, np.eye(2))
    assert np.max(np.abs(R.D)) == 0


def test_naive_rejects_anticausal():
    with pytest.raises(ValueError):
        naive_realization(square_example(2))


def test_naive_transfer_random(rng):
    for _ in range(10):
        n = int(rng.integers(1, 5))
        coeffs = [rng.normal(size=(2, 3)) + 1j * rng.normal(size=(2, 3))
                  for _ in range(n)]
        F = LaurentPoly(int(rng.integers(-2, 2)), coeffs)
        assert transfer_residual(naive_realization(F), F) < 1e-12


def test_minimal_dimension_and_transfer():
    F = square_example(1)
    R = minimal_realization(F)
    assert R.nu == mcmillan_degree(F) == 2
    assert transfer_residual(R, F) < 1e-9
    # nilpotent state matrix
    assert np.max(np.abs(np.linalg.matrix_power(R.A, R.nu))) < 1e-9


def test_minimal_rank_one():
    v = np.array([1.0, 2.0]) / np.sqrt(5)
    w = np.array([3.0, 4.0]) / 5.0
    F = LaurentPoly(0, [np.outer(v, w)])
    assert minimal_realization(F).nu == 1


def test_minimal_vs_naive_agree(rng):
    for _ in range(5):
        coeffs = [rng.normal(size=(2, 2)) for _ in range(3)]
        F = LaurentPoly(1, coeffs)
        Rn, Rm = naive_realization(F), minimal_realization(F)
        for z in circle_points(8):
            assert np.max(np.abs(transfer(Rn, z) - transfer(Rm, z))) < 1e-9


def test_transfer_degenerate():
    D = np.array([[2.0, 0.0]])
    R = Realization(np.zeros((0, 0)), np.zeros((0, 2)),
                    np.zeros((1, 0)), D)
    assert np.allclose(transfer(R, 0.3), D)


def test_transfer_wide_example_q1():
    R = minimal_realization(wide_example(1))
    assert np.max(np.abs(transfer(R, 1.0)
                         - np.array([[0.8, -0.6]]))) < 1e-12


def test_gramians_wide_example():
    R = gramian_normalize(minimal_realization(wide_example(0)), "coiso")
    pair = gramians(R)
    assert np.max(np.abs(pair.W_cont - np.eye(2))) < 1e-12
    assert np.max(np.abs(pair.W_obs - np.diag([1.0, 0.64]))) < 1e-10
    R1 = gramian_normalize(minimal_realization(wide_example(1)), "coiso")
    assert abs(gramians(R1).W_obs[0, 0] - 0.64) < 1e-10


def test_gramians_nilpotent_direct():
    A = np.zeros((2, 2))
    B = np.array([[1.0, 0.0], [2.0, 1.0]])
    C = np.array([[0.0, 1.0]])
    R = Realization(A, B, C, np.zeros((1, 2)))
    pair = gramians(R)
    assert np.allclose(pair.W_cont, B @ B.conj().T)
    assert np.allclose(pair.W_obs, C.conj().T @ C)


def test_gramians_stein_residual(rng):
    A = 0.5 * rng.normal(size=(3, 3))
    B = rng.normal(size=(3, 2))
    C = rng.normal(size=(2, 3))
    R = Realization(A.astype(complex), B.astype(complex),
                    C.astype(complex), np.zeros((2, 2)))
    pair = gramians(R)
    assert np.max(np.abs(pair.W_cont - A @ pair.W_cont @ A.conj().T
                         - B @ B.conj().T)) < 1e-12
    assert np.max(np.abs(pair.W_obs - A.conj().T @ pair.W_obs @ A
                         - C.conj().T @ C)) < 1e-12


def test_gramians_unstable_rejected():
    R = Realization(np.eye(1) * 1.5, np.ones((1, 1)),
                    np.ones((1, 1)), np.zeros((1, 1)))
    with pytest.raises(ValueError):
        gramians(R)


def test_check_unitary_square_example():
    R = gramian_normalize(minimal_realization(square_example(1)))
    label, ri, rc = check_unitary_realization(R)
    assert label == "both"
    assert max(ri, rc) < 1e-9


def test_check_unitary_wide_example():
    R = gramian_normalize(minimal_realization(wide_example(0)), "coiso")
    label, _, rc = check_unitary_realization(R)
    assert label == "co-isometric" and rc < 1e-9
    M = R.R
    assert np.max(np.abs(M @ M.conj().T - np.eye(3))) < 1e-9


def test_check_unitary_scalar_delay():
    R = Realization(np.zeros((1, 1)), np.ones((1, 1)),
                    np.ones((1, 1)), np.zeros((1, 1)))
    assert check_unitary_realization(R)[0] == "both"


def test_gramian_normalize_members(rng):
    # construct-then-check and perturb-then-fail
    for seed in range(8):
        p, m = sorted(rng.integers(1, 5, size=2))[::-1]
        d = int(rng.integers(0, 7))
        F = random_member(int(p), int(m), d, seed=seed)
        R = gramian_normalize(minimal_realization(F))
        # random draws can have nearly deficient Hankel spectra, which
        # costs a few digits in the balanced normalization
        label, ri, rc = check_unitary_realization(R, 1e-6)
        if p == m:
            assert label == "both"
        else:
            assert label in ("isometric", "both") and ri < 1e-6
        bad = Realization(R.A, R.B * 1.001, R.C, R.D)
        assert check_unitary_realization(bad, 1e-6)[0] != label or \
            R.B.size == 0


def test_gramian_product_spectrum():
    # members: eigenvalues of W_cont W_obs in [0, 1]; square case in {0,1}
    for seed in range(5):
        F = random_member(2, 2, 3, seed=seed)
        R = minimal_realization(F)
        pair = gramians(R)
        ev = np.linalg.eigvals(pair.W_cont @ pair.W_obs).real
        assert np.all(ev <= 1 + 1e-9)
        nz = ev[ev > 1e-9]
        assert np.all(np.abs(nz - 1.0) < 1e-9)


def test_gramian_hankel_link_wide_example():
    R = minimal_realization(wide_example(0))
    pair = gramians(R)
    ev = np.sort(np.linalg.eigvals(pair.W_cont @ pair.W_obs).real)[::-1]
    sv = hankel_pair(wide_example(0)).H.singular_values()
    assert np.max(np.abs(np.sqrt(np.maximum(ev, 0)) - sv)) < 1e-9


def test_gramian_normalize_trivial():
    R = Realization(np.zeros((0, 0)), np.zeros((0, 2)),
                    np.zeros((2, 0)), np.eye(2))
    assert gramian_normalize(R) is R
