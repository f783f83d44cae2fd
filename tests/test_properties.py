"""Property tests: the library's single path for each quantity against the
independent formulas kept in conftest as oracles."""
import numpy as np
from hypothesis import given, strategies as st

from pufir import families
from pufir.blaschke import decode_angles, random_member, random_params, synth
from pufir.hankel import (hankel_anticausal, hankel_causal,
                          is_paraunitary_hankel)
from pufir.io import dumps_poly, loads_poly
from pufir.laurent import LaurentPoly
from pufir.realization import Realization, gramians, minimal_realization

from conftest import (add_blocks, assert_same_poly, compose_blocks,
                      factor_chain, full_gram_residual, grouped_blocks,
                      interleave_blocks, kron_stein, lag_sum_residual,
                      max_coeff_diff, placed_blocks, random_poly,
                      reblock_blocks, sampled_defect, split_terms)

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


# -- coefficient-array index maps against the block-loop oracles


@st.composite
def polys(draw, p=None, m=None, qs=None):
    """Random polynomials with p, m in [1, 4], n in [1, 6] and q drawn
    from qs(n), by default [-3, n+3]: every shift regime."""
    p = draw(st.integers(1, 4)) if p is None else p
    m = draw(st.integers(1, 4)) if m is None else m
    n = draw(st.integers(1, 6))
    q = draw(st.integers(-3, n + 3) if qs is None else qs(n))
    return random_poly(np.random.default_rng(draw(seeds)), p, m, n, q)


@given(polys(qs=lambda n: st.integers(-3, -1)), st.data())
def test_reblock_matches_block_loop(F, data):
    j = data.draw(st.integers(1, 1 - F.q), label="j")
    assert_same_poly(families.reblock(F, j), reblock_blocks(F, j))


@given(polys(), st.integers(-3, 3), st.integers(1, 3))
def test_dilate_matches_block_loop(F, a, gamma):
    exponents = [k * gamma for k in range(1, F.n + 1)]
    assert_same_poly(families.dilate(F, a, gamma),
                     placed_blocks(F, exponents, a))


@given(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3),
       st.integers(1, 3), st.data())
def test_exponent_map_matches_block_loop(rho, groups, first, extra, data):
    # runs of rho consecutive exponents with uniformly spaced starts
    gap = rho + extra
    exponents = [first + g * gap + r
                 for g in range(groups) for r in range(rho)]
    F = data.draw(polys(), label="F")
    F = LaurentPoly(F.q, np.resize(F.coeffs, (len(exponents), F.p, F.m)))
    assert_same_poly(families.exponent_map(F, exponents),
                     placed_blocks(F, exponents))


@given(polys(), st.integers(1, 4))
def test_stack_widen_match_block_loop(F, rho):
    groups = grouped_blocks(F, rho)
    assert_same_poly(families.rect_stack(F, rho),
                     LaurentPoly(0, [np.vstack(g) for g in groups]))
    assert_same_poly(families.rect_widen(F, rho),
                     LaurentPoly(0, [np.hstack(g) for g in groups]))


@given(polys(), st.integers(0, 2), st.integers(0, 2), st.integers(1, 3))
def test_interleave_matches_block_loop(F, a, b, rho):
    seq = families.interleave_coeffs(F, a, b, rho)
    assert isinstance(seq, np.ndarray)
    assert np.array_equal(seq, np.array(interleave_blocks(F, a, b, rho)))


@given(polys(), polys(), st.sampled_from([0.0, 0.3, 1.0]))
def test_compose_matches_block_loop(Fb, Fc, alpha):
    for variant in ("diag", "antidiag"):
        assert_same_poly(families.compose_diag(Fb, Fc, variant),
                         compose_blocks(Fb, Fc, variant))
    if Fc.m >= Fb.m:
        assert_same_poly(families.compose_mix_rows(Fb, Fc, alpha),
                         compose_blocks(Fb, Fc, "mix-rows", alpha))
    if Fb.p >= Fc.p:
        assert_same_poly(families.compose_mix_cols(Fb, Fc, alpha),
                         compose_blocks(Fb, Fc, "mix-cols", alpha))


@given(polys())
def test_split_matches_terms(F):
    left, D, right = F.split()
    oracle_left, oracle_D, oracle_right = split_terms(F)
    assert_same_poly(left, oracle_left)
    assert np.array_equal(D, oracle_D)
    assert_same_poly(right, oracle_right)


@given(polys(p=2, m=3), polys(p=2, m=3))
def test_add_matches_block_loop(F, G):
    assert_same_poly(F + G, add_blocks(F, G))


@given(polys(), st.sampled_from([0.0, 1e-6, 1.0]), seeds)
def test_unitary_defect_matches_horner_samples(F, eps, seed):
    # members (eps = 0) and perturbed members, plus a random polynomial
    # scaled to unit coefficient norm
    side = "iso" if F.p >= F.m else "coiso"
    M = synth(decode_angles(random_params(F.p, F.m, F.n - 1, 0, seed,
                                          side))).shift(F.q - 1)
    M = M + F.scale(eps)                 # same q and n as F
    R = F.scale(1.0 / np.linalg.norm(F.coeffs))
    for P in (M, R):
        assert abs(P.unitary_defect() - sampled_defect(P)) <= 1e-13


@given(polys(), seeds)
def test_io_roundtrip_bit_exact(F, seed):
    # signed zeros, subnormals and extreme exponents survive as bits
    rng = np.random.default_rng(seed)
    C = np.array(F.coeffs)
    specials = [-0.0, 5e-324, -1.7e308, 1e-300]
    idx = tuple(rng.integers(C.shape))
    C[idx] = complex(rng.choice(specials), rng.choice(specials))
    F = LaurentPoly(F.q, C)
    G = loads_poly(dumps_poly(F))
    assert G.q == F.q
    assert G.coeffs.tobytes() == F.coeffs.tobytes()


@given(polys())
def test_conjugate_involution_exact(F):
    G = F.conjugate().conjugate()
    assert G.q == F.q
    assert G.coeffs.tobytes() == F.coeffs.tobytes()


def assert_gramians_match_kron_stein(R):
    """Both Gramians within 1e-12 of the oracle, relative to max(1, |W|)."""
    pair = gramians(R)
    for W, A, RHS in ((pair.W_cont, R.A, R.B @ R.B.conj().T),
                      (pair.W_obs, R.A.conj().T, R.C.conj().T @ R.C)):
        err = np.max(np.abs(W - kron_stein(A, RHS)), initial=0.0)
        assert err <= 1e-12 * max(1.0, np.max(np.abs(W), initial=0.0))


@given(st.integers(1, 8), st.integers(1, 3), st.integers(1, 3),
       st.floats(0.0, 0.9), st.booleans(), seeds)
def test_gramians_match_kron_stein(nu, p, m, radius, complex_entries, seed):
    rng = np.random.default_rng(seed)

    def draw(rows, cols):
        X = rng.normal(size=(rows, cols))
        return X + 1j * rng.normal(size=(rows, cols)) if complex_entries else X

    A = draw(nu, nu)
    A *= radius / np.max(np.abs(np.linalg.eigvals(A)))
    assert_gramians_match_kron_stein(
        Realization(A, draw(nu, m), draw(p, nu), np.zeros((p, m))))


@given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 8), seeds)
def test_member_gramians_match_kron_stein(p, m, d, seed):
    R = minimal_realization(random_member(p, m, d, seed=seed))
    assert_gramians_match_kron_stein(R)
