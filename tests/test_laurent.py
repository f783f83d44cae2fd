import numpy as np
import pytest

from pufir.examples import square_example, wide_example
from pufir.laurent import LaurentPoly, constant, delay, zero

from conftest import circle_points, random_poly


def test_eval_delay():
    F = LaurentPoly(0, [np.eye(2)])
    assert np.allclose(F.eval(1j), -1j * np.eye(2))


def test_eval_square_example_at_one():
    F = square_example(2)
    expected = np.array([[4, 3], [-3, 4]]) / 5.0
    assert np.max(np.abs(F.eval(1.0) - expected)) < 1e-15


def test_eval_wide_example_at_one():
    F = wide_example(0)
    assert np.max(np.abs(F.eval(1.0) - np.array([[0.8, -0.6]]))) < 1e-15


def test_eval_rejects_zero():
    with pytest.raises(ValueError):
        square_example(2).eval(0.0)


def test_conjugate_single_term():
    B = np.array([[1.0 + 2j, 0.5], [0.0, -1j]])
    F = LaurentPoly(0, [B])  # z^-1 B
    G = F.conjugate()
    # z * B^*
    assert G.q == 2 and G.n == 1
    assert np.allclose(G.coeffs[0], B.conj().T)


def test_conjugate_is_pointwise_adjoint_on_circle(rng):
    for _ in range(20):
        F = random_poly(rng, 3, 2, 4, q=rng.integers(-2, 4))
        G = F.conjugate()
        for z in circle_points(8):
            assert np.max(np.abs(G.eval(z) - F.eval(z).conj().T)) < 1e-12


def test_conjugate_involution(rng):
    F = random_poly(rng, 2, 4, 5, q=-1)
    assert (F.conjugate().conjugate() - F).is_zero(1e-13)


def test_conjugate_square_example_layout():
    F = square_example(2)
    G = F.conjugate()
    # z B_3^* + B_2^* + z^-1 B_1^*
    assert np.allclose(G.coefficient(1), F.coeffs[2].conj().T)
    assert np.allclose(G.coefficient(0), F.coeffs[1].conj().T)
    assert np.allclose(G.coefficient(-1), F.coeffs[0].conj().T)


def test_multiply_delays():
    U = np.array([[0, 1], [1, 0]], dtype=complex)
    F = LaurentPoly(0, [np.eye(2)])
    G = LaurentPoly(0, [U])
    P = F.multiply(G)
    for z in circle_points(5):
        assert np.allclose(P.eval(z), U / z ** 2)


def test_multiply_matches_pointwise(rng):
    F = random_poly(rng, 2, 3, 4, q=2)
    G = random_poly(rng, 3, 2, 3, q=-1)
    P = F @ G
    for z in circle_points(9):
        assert np.max(np.abs(P.eval(z) - F.eval(z) @ G.eval(z))) < 1e-12


def test_multiply_conjugate_of_wide_example_is_one():
    F = wide_example(0)
    P = F @ F.conjugate()
    for z in circle_points(16):
        assert abs(P.eval(z)[0, 0] - 1.0) < 1e-14


def test_multiply_associative_distributive(rng):
    A = random_poly(rng, 2, 3, 3, q=1)
    B = random_poly(rng, 3, 2, 2, q=0)
    C = random_poly(rng, 2, 2, 4, q=-2)
    assert ((A @ B) @ C - A @ (B @ C)).is_zero(1e-12)
    D = random_poly(rng, 3, 2, 2, q=0)
    assert (A @ (B + D) - (A @ B + A @ D)).is_zero(1e-12)


def test_split_square_example():
    F = square_example(2)
    Fl, D, Fr = F.split()
    assert np.allclose(D, F.coeffs[1])
    assert np.allclose(Fl.coefficient(1), F.coeffs[0])
    assert np.allclose(Fr.coefficient(-1), F.coeffs[2])
    assert (Fl + LaurentPoly(1, [D]) + Fr - F).is_zero(1e-15)


def test_split_strictly_causal():
    F = wide_example(0)
    Fl, D, Fr = F.split()
    assert Fl.is_zero() and np.max(np.abs(D)) == 0
    assert (Fr - F).is_zero(1e-15)


def test_split_strictly_anticausal():
    F = wide_example(3)  # q = n + 1
    Fl, D, Fr = F.split()
    assert Fr.is_zero() and np.max(np.abs(D)) == 0
    assert (Fl - F).is_zero(1e-15)


def test_unitary_defect_unitary_delay():
    U = np.array([[0, 1], [1, 0]], dtype=complex)
    F = LaurentPoly(-2, [U])  # z^-3 U
    assert F.unitary_defect() < 1e-14


def test_unitary_defect_wide_example():
    assert wide_example(0).unitary_defect() < 1e-12


def test_unitary_defect_rank_deficient():
    F = LaurentPoly(0, [np.diag([1.0, 0.0])])
    assert abs(F.unitary_defect() - 1.0) < 1e-14


def test_shift_scale_add_trim(rng):
    F = random_poly(rng, 2, 2, 3, q=2)
    assert F.shift(-F.q).q == 0
    assert (F + F.scale(-1.0)).is_zero()
    Z = zero(2, 2)
    assert Z.trim().n == 1 and Z.trim().q == 0
    padded = LaurentPoly(F.q + 1,
                         [np.zeros((2, 2))] + list(F.coeffs)
                         + [np.zeros((2, 2))])
    T = padded.trim()
    assert T.q == F.q and T.n == F.n and (T - F).is_zero()


def test_add_dimension_mismatch():
    with pytest.raises(ValueError):
        zero(2, 2) + zero(2, 3)


def test_causality_labels():
    assert square_example(0).causality()[0] == "strictly-causal"
    assert square_example(1).causality()[0] == "causal"
    assert square_example(2).causality()[0] == "mixed-Laurent"
    assert square_example(3).causality()[0] == "anti-causal"
    assert square_example(4).causality()[0] == "strictly-anti-causal"
    # boundary overlap: n=1 with q=1 is both causal and anti-causal
    _, flags = constant(np.eye(2)).causality()
    assert {"causal", "anti-causal"} <= flags


def test_delay_constant_helpers():
    M = np.eye(3)
    assert np.allclose(constant(M).eval(0.5), M)
    assert np.allclose(delay(M, 2).eval(2.0), M / 4.0)


def test_defect_shift_invariant(rng):
    F = wide_example(0)
    for k in (-3, 1, 4):
        assert abs(F.shift(k).unitary_defect() - F.unitary_defect()) < 1e-12


def test_coeffs_is_one_read_only_array(rng):
    F = random_poly(rng, 3, 2, 4, q=1)
    assert isinstance(F.coeffs, np.ndarray)
    assert F.coeffs.shape == (4, 3, 2) and F.coeffs.dtype == complex
    with pytest.raises(ValueError):
        F.coeffs[0, 0, 0] = 1.0
    with pytest.raises(ValueError):
        F.coeffs[1] = 0.0


def test_constructor_copies_the_callers_array(rng):
    C = rng.normal(size=(3, 2, 2)) + 0j
    F = LaurentPoly(0, C)
    C[0, 0, 0] = 99.0            # the caller's array stays writable
    assert F.coeffs[0, 0, 0] != 99.0
    assert not np.shares_memory(F.coeffs, C)
    G = LaurentPoly(0, F.coeffs)
    assert not np.shares_memory(G.coeffs, F.coeffs)


@pytest.mark.parametrize("coeffs, message", [
    ([], "at least one coefficient"),
    (np.zeros((0, 2, 2)), "at least one coefficient"),
    ([np.zeros(2), np.zeros(2)], "2-d matrices"),
    ([np.zeros(2), np.zeros((2, 2))], "2-d matrices"),
    ([np.zeros((2, 2, 2))], "2-d matrices"),
    ([np.zeros((2, 2)), np.zeros((3, 3))], "same p x m shape"),
    ([np.zeros((2, 2)), np.zeros(2)], "same p x m shape"),
    ([np.full((2, 2), np.nan)], "finite"),
    ([np.eye(2), np.full((2, 2), np.inf)], "finite"),
    (np.zeros((1, 2, 0)), "at least 1 x 1, got 2 x 0"),
    (np.zeros((1, 0, 2)), "at least 1 x 1, got 0 x 2"),
])
def test_constructor_errors(coeffs, message):
    with pytest.raises(ValueError, match=message):
        LaurentPoly(0, coeffs)
