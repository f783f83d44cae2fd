"""Property tests: the library's single path for each quantity against the
independent formulas kept in conftest as oracles."""
import re

import numpy as np
from hypothesis import given, strategies as st

from pufir import families, io as pio
from pufir.blaschke import decode_angles, random_member, random_params, synth
from pufir.hankel import (defect_structure, hankel_anticausal,
                          hankel_causal, hankel_pair, is_paraunitary_hankel,
                          mcmillan_degree)
from pufir.io import (PIECE_FLOATS, dumps_json, dumps_poly, loads_poly,
                      save_poly)
from pufir.laurent import LaurentPoly, constant
from pufir.realization import (Realization, gramians, minimal_realization,
                               naive_realization, transfer)

from conftest import (add_blocks, assert_same_defect, assert_same_poly,
                      circle_points, compose_blocks, dense_defect,
                      factor_chain, full_gram_residual, givens_chain,
                      grouped_blocks, hankel_blocks, interleave_blocks,
                      json_text, kron_stein, lag_sum_residual,
                      max_coeff_diff, placed_blocks, random_poly,
                      reblock_blocks, sampled_defect, sphere_point,
                      split_terms)

seeds = st.integers(0, 2 ** 32 - 1)


@st.composite
def members(draw):
    """random_member draws with p, m in [1, 5], d in [0, 6], gamma in [0, d];
    the side follows the shape."""
    p, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    d = draw(st.integers(0, 6))
    return random_member(p, m, d, draw(st.integers(0, d)), draw(seeds))


@st.composite
def products(draw):
    """BP products with p, m in [1, 5], d in [0, 6], gamma in [0, d]."""
    p, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    d = draw(st.integers(0, 6))
    gamma = draw(st.integers(0, d))
    return decode_angles(random_params(p, m, d, gamma, draw(seeds)))


@given(products())
def test_synth_matches_factor_chain(prod):
    assert max_coeff_diff(synth(prod), factor_chain(prod)) <= 1e-14


@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 3), seeds,
       st.data())
def test_decode_matches_givens_chain(p, m, d, seed, data):
    # k = 1 has no rotation and no magnitude angle
    params = random_params(p, m, d, data.draw(st.integers(0, d)), seed)
    prod = decode_angles(params)
    k = max(p, m)
    per = 2 * k - 1
    core = givens_chain(params.angles[d * per:], k)
    assert np.abs(prod.U - core[:p, :m]).max() <= 1e-14
    for j, v in enumerate(prod.vs):
        point = sphere_point(params.angles[j * per:(j + 1) * per], k)
        assert np.abs(v - point).max() <= 1e-14


@st.composite
def edge_products(draw):
    """BP products at an edge shape, p = 1, m = 1 or d = 0, with gamma in
    {0, d} and the other sizes as in products()."""
    edge = draw(st.sampled_from("pmd"))
    p = 1 if edge == "p" else draw(st.integers(1, 5))
    m = 1 if edge == "m" else draw(st.integers(1, 5))
    d = 0 if edge == "d" else draw(st.integers(0, 6))
    gamma = draw(st.sampled_from([0, d]))
    return decode_angles(random_params(p, m, d, gamma, draw(seeds)))


def shifted(coeffs, data):
    """The polynomial at a drawn q, from strictly causal through mixed
    Laurent to strictly anti-causal."""
    q = data.draw(st.integers(-2, len(coeffs) + 2), label="q")
    return LaurentPoly(q, coeffs)


@given(st.one_of(products(), edge_products()),
       st.sampled_from([0.0, 1e-6, 1e-2, 1.0]), seeds, st.data())
def test_membership_residual_matches_oracles(prod, eps, seed, data):
    tol = 1e-9
    F = synth(prod)
    rng = np.random.default_rng(seed)
    coeffs = np.array(F.coeffs)
    k = int(rng.integers(F.n))
    i, j = int(rng.integers(F.p)), int(rng.integers(F.m))
    coeffs[k, i, j] += eps * np.exp(2j * np.pi * rng.random())
    G = shifted(coeffs, data)
    res = is_paraunitary_hankel(G, tol)
    assert res.role == ("isometry" if G.p >= G.m else "co-isometry")
    for oracle in (full_gram_residual(G), lag_sum_residual(G)):
        assert abs(res.residual - oracle) <= 1e-14
        assert res.member == (oracle <= tol)
    if eps == 0.0:
        assert res.member
    elif eps >= 1e-2:
        assert not res.member


@given(st.one_of(products(), edge_products()), st.data())
def test_defect_structure_matches_dense_gram(prod, data):
    tol = 1e-9
    F = shifted(synth(prod).coeffs, data)
    assert_same_defect(defect_structure(F, tol), dense_defect(F, tol), 1e-13)


@given(st.one_of(products(), edge_products()))
def test_q1_defect_spectrum_from_sigma_matches_dense_gram(prod):
    # at q = 1, Delta = I - H*H (I - HH*) exactly: 1 - sigma^2 of H
    tol = 1e-9
    F = LaurentPoly(1, synth(prod).coeffs)
    sigma = hankel_pair(F).H.singular_values()
    assert_same_defect(defect_structure(F, tol, sigma), dense_defect(F, tol),
                       1e-14)


@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 5),
       st.integers(0, 3), seeds)
def test_hankel_blocks_match_definition(p, m, n, eta, seed):
    # causal block (i, j) is B_k, anti-causal block is B_{n+1-k}, with
    # k = i + j + 1 - eta, and zero outside 1 <= k <= n
    F = random_poly(np.random.default_rng(seed), p, m, n, q=0)
    H = hankel_causal(F.shift(-eta))
    A = hankel_anticausal(LaurentPoly(n + 1 + eta, F.coeffs))
    size = n + eta
    assert H.data.shape == A.data.shape == (size * p, size * m)
    zero = np.zeros((p, m))
    for i in range(size):
        for j in range(size):
            k = i + j + 1 - eta
            inside = 1 <= k <= n
            rows, cols = slice(i * p, (i + 1) * p), slice(j * m, (j + 1) * m)
            assert np.array_equal(H.data[rows, cols],
                                  F.coeffs[k - 1] if inside else zero)
            assert np.array_equal(A.data[rows, cols],
                                  F.coeffs[n - k] if inside else zero)


@given(products())
def test_degree_law(prod):
    # a scalar product is z^gamma z^-(d - gamma) times a unimodular constant
    F = synth(prod)
    scalar = prod.p == prod.m == 1
    assert mcmillan_degree(F) == (abs(prod.d - 2 * prod.gamma) if scalar
                                  else prod.d)


@given(st.integers(1, 4), st.integers(0, 6), st.booleans(), seeds)
def test_square_degree_is_weighted_coefficient_energy(p, d, anticausal, seed):
    # a square member with gamma in {0, d} has Hankel singular values 0 or
    # 1, so sum_j |q - j| ||B_j||_F^2 checks the rank decision without an SVD
    F = random_member(p, p, d, d if anticausal else 0, seed)
    weights = np.abs(F.q - np.arange(1, F.n + 1))
    energy = weights @ np.sum(np.abs(F.coeffs) ** 2, axis=(1, 2))
    assert abs(energy - mcmillan_degree(F)) < 1e-12


@st.composite
def normalized_members(draw):
    """q = 0 normalizations of random_member draws with p, m in [1, 4],
    d in [0, 4] and gamma in {0, 1, d}."""
    p, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    d = draw(st.integers(0, 4))
    gamma = draw(st.sampled_from(sorted({0, min(1, d), d})))
    F = random_member(p, m, d, gamma, draw(seeds))
    return F.shift(-F.q)


@given(normalized_members(), st.sampled_from([2, 3]))
def test_dilate_degree_law(F, a):
    assert mcmillan_degree(families.dilate(F, 0, a)) == a * mcmillan_degree(F)


@given(normalized_members(), normalized_members(),
       st.sampled_from(["diag", "antidiag"]))
def test_compose_diag_degree_law(F, G, variant):
    assert (mcmillan_degree(families.compose_diag(F, G, variant))
            == mcmillan_degree(F) + mcmillan_degree(G))


@given(members(), seeds)
def test_membership_under_constant_unitaries(F, seed):
    rng = np.random.default_rng(seed)

    def unitary(k):
        Q, R = np.linalg.qr(rng.normal(size=(k, k))
                            + 1j * rng.normal(size=(k, k)))
        return Q * (np.diag(R) / np.abs(np.diag(R)))

    C = np.array(F.coeffs)
    C[0, 0, 0] += 1e-2
    bad = LaurentPoly(F.q, C)
    V, W = constant(unitary(F.m)), constant(unitary(F.p))
    for G, member in ((F, True), (bad, False)):
        for H in (G @ V, W @ G):
            assert (H.q, H.n) == (G.q, G.n)
            assert is_paraunitary_hankel(H).member is member


@given(members(), st.integers(0, 6), seeds)
def test_families_preserve_membership(F, d, seed):
    # each construction on the side where acceptance criterion 6 applies it
    def member(G):
        assert is_paraunitary_hankel(G).member

    p, m = F.p, F.m
    member(families.reverse_poly(F))
    member(families.dilate(F, 0, 2))
    member(families.compose_diag(F, F))
    member(families.compose_diag(F, F, "antidiag"))
    if p >= m:
        member(families.rect_stack(F, 2))
    if m >= p:
        member(families.rect_widen(F, 2))
    if p == m:
        member(families.compose_mix_rows(F, F, 0.5))
        member(families.compose_mix_cols(F, F, 0.5))
    shifted = F.shift(-F.q - 1)
    G = families.reblock(shifted, 2)
    member(G)
    assert mcmillan_degree(G) == mcmillan_degree(shifted)
    member(families.product_via_hankel(F, random_member(m, m, d, seed=seed)))


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


@given(polys())
def test_hankel_pair_matches_index_definition(F):
    # H holds the n - q negative powers (F_r exists iff q < n), H_hat the
    # q - 1 positive ones (F_l exists iff q >= 2); an absent part is 0x0
    pair = hankel_pair(F)
    left, _, right = split_terms(F)
    for H, part, sign, size in ((pair.H, right, -1, F.n - F.q),
                                (pair.H_hat, left, 1, F.q - 1)):
        assert np.array_equal(H.data, hankel_blocks(part, sign, size))
        assert H.data.shape == (max(size, 0) * F.p, max(size, 0) * F.m)


@given(polys(qs=lambda n: st.integers(-3, 1)))
def test_realizations_match_eval(F):
    scale = np.max(np.abs(F.coeffs))
    for R in (naive_realization(F), minimal_realization(F)):
        for z in circle_points(8):
            err = np.max(np.abs(transfer(R, z) - F.eval(z)))
            assert err <= 1e-9 * scale


@given(polys(p=2, m=3), polys(p=2, m=3))
def test_add_matches_block_loop(F, G):
    assert_same_poly(F + G, add_blocks(F, G))


@given(polys(), st.sampled_from([0.0, 1e-6, 1.0]), seeds)
def test_unitary_defect_matches_horner_samples(F, eps, seed):
    # members (eps = 0) and perturbed members, plus a random polynomial
    # scaled to unit coefficient norm
    M = random_member(F.p, F.m, F.n - 1, 0, seed).shift(F.q - 1)
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


SPECIAL_FLOATS = [float("nan"), float("inf"), -float("inf"), -0.0, 5e-324,
                  1.7976931348623157e308]
json_floats = st.floats() | st.sampled_from(SPECIAL_FLOATS)
# shapes that span several written pieces, the last one partial
PIECE_SHAPES = [(2 * PIECE_FLOATS + 5,), (5, 1700, 2), (3, 2, 1500, 2)]


@st.composite
def float_arrays(draw):
    """Float arrays of 1-4 dimensions, zero-size axes included, with
    special values at drawn places."""
    small = st.lists(st.integers(0, 3), min_size=1, max_size=4).map(tuple)
    shape = draw(st.one_of(small, small, st.sampled_from(PIECE_SHAPES)))
    rng = np.random.default_rng(draw(seeds))
    a = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    flat = a.reshape(-1)
    for value in draw(st.lists(st.sampled_from(SPECIAL_FLOATS), max_size=6)):
        if flat.size:
            flat[rng.integers(flat.size)] = value
    return a


json_strings = st.text(st.characters() | st.sampled_from(',[]{}"\\'),
                       max_size=6)
json_scalars = (st.none() | st.booleans() | json_floats
                | st.integers(-2 ** 80, 2 ** 80) | json_strings)
json_values = st.recursive(
    json_scalars | float_arrays(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(json_strings, inner, max_size=4)),
    max_leaves=8)


def tolist(value):
    """`value` with every array replaced by its nested lists."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {key: tolist(item) for key, item in value.items()}
    if isinstance(value, list):
        return [tolist(item) for item in value]
    return value


@given(json_values)
def test_dumps_json_matches_indented_encoder(value):
    assert dumps_json(value) == json_text(tolist(value))


@given(float_arrays(), st.integers(0, 2))
def test_dumps_json_array_matches_indented_encoder(a, depth):
    value = a
    for _ in range(depth):
        value = {"x": [value, 1.5], "a": []}
    assert dumps_json(value) == json_text(tolist(value))


def test_save_poly_pieces_join_to_dumps_poly(monkeypatch):
    class Sink:
        def __init__(self, path, mode):
            self.pieces = []
            sinks.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def writelines(self, pieces):
            self.pieces.extend(pieces)

        def write(self, text):
            self.pieces.append(text)

    sinks = []
    monkeypatch.setattr(pio, "open", Sink, raising=False)
    for F in (random_member(3, 2, 4, 1, 5), random_member(16, 8, 64, 32, 0)):
        save_poly(F, "unused.json")
        pieces = sinks[-1].pieces
        assert "".join(pieces) == dumps_poly(F)
        counts = sorted(len(re.findall(r"-?\d[\d.e+-]*", piece))
                        for piece in pieces)
        assert counts[-1] <= PIECE_FLOATS
    # 16 * 8 * 65 * 2 = 16640 floats: two full pieces and a remainder
    assert counts[-3:] == [256, PIECE_FLOATS, PIECE_FLOATS]


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
