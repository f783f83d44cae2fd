"""Property tests: the library's single path for each quantity against the
independent formulas kept in conftest as oracles."""
import numpy as np
from hypothesis import given, strategies as st

from pufir.blaschke import decode_angles, random_params, synth
from pufir.hankel import (hankel_anticausal, hankel_causal,
                          is_paraunitary_hankel)
from pufir.laurent import LaurentPoly

from conftest import (factor_chain, full_gram_residual, lag_sum_residual,
                      max_coeff_diff, random_poly)

seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def products(draw):
    """BP products with p, m in [1, 5], d in [0, 6], gamma in [0, d]."""
    side = draw(st.sampled_from(["iso", "coiso"]))
    a, b = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    p, m = (max(a, b), min(a, b)) if side == "iso" else (min(a, b), max(a, b))
    d = draw(st.integers(0, 6))
    gamma = draw(st.integers(0, d))
    return decode_angles(random_params(p, m, d, gamma, draw(seeds), side))


@given(products())
def test_synth_matches_factor_chain(prod):
    assert max_coeff_diff(synth(prod), factor_chain(prod)) <= 1e-14


@given(products(), st.sampled_from([0.0, 1e-6, 1e-2, 1.0]), seeds,
       st.data())
def test_membership_residual_matches_oracles(prod, eps, seed, data):
    tol = 1e-9
    F = synth(prod)
    # q from strictly causal through mixed Laurent to strictly anti-causal
    q = data.draw(st.integers(-2, F.n + 2), label="q")
    rng = np.random.default_rng(seed)
    coeffs = [np.array(B) for B in F.coeffs]
    k = int(rng.integers(F.n))
    i, j = int(rng.integers(F.p)), int(rng.integers(F.m))
    coeffs[k][i, j] += eps * np.exp(2j * np.pi * rng.random())
    G = LaurentPoly(q, coeffs)
    res = is_paraunitary_hankel(G, tol)
    assert res.role == ("isometry" if G.p >= G.m else "co-isometry")
    assert abs(res.residual - full_gram_residual(G)) <= 10 * tol
    assert abs(res.residual - lag_sum_residual(G)) <= 10 * tol
    if eps == 0.0:
        assert res.member
    elif eps >= 1e-2:
        assert not res.member


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5),
       st.integers(0, 3), seeds)
def test_hankel_blocks_match_definition(p, m, n, eta, seed):
    # causal block (i, j) is B_k, anti-causal block is B_{n+1-k}, with
    # k = i + j + 1 - eta, and zero outside 1 <= k <= n
    F = random_poly(np.random.default_rng(seed), p, m, n, q=0)
    H = hankel_causal(F, eta)
    A = hankel_anticausal(LaurentPoly(n + 1, F.coeffs), eta)
    size = n + eta
    assert H.data.shape == A.data.shape == (size * p, size * m)
    zero = np.zeros((p, m))
    for i in range(size):
        for j in range(size):
            k = i + j + 1 - eta
            inside = 1 <= k <= n
            assert np.array_equal(H.block(i, j),
                                  F.coeffs[k - 1] if inside else zero)
            assert np.array_equal(A.block(i, j),
                                  F.coeffs[n - k] if inside else zero)
