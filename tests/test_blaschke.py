import re

import numpy as np
import pytest

from pufir.blaschke import (AngleParams, BPProduct, chart_size,
                            decode_angles, design_optimize, param_count,
                            random_member, random_params, synth)
from pufir.hankel import is_paraunitary_hankel, mcmillan_degree

from conftest import (circle_points, factor_chain, max_coeff_diff,
                      product_forms, random_unit)

NAN, INF = float("nan"), float("inf")
E1 = np.array([1.0, 0.0])


@pytest.mark.parametrize("gamma, vs, U, message", [
    pytest.param(0, (), 2 * np.eye(2), "(co)isometry invariant",
                 id="U-not-isometric"),
    pytest.param(0, (), 2 * np.eye(3)[:2], "(co)isometry invariant",
                 id="U-wide-not-coisometric"),
    pytest.param(0, (), np.ones(2), "U must be a matrix", id="U-not-matrix"),
    pytest.param(0, (), np.diag([NAN, 1.0]), "finite", id="U-nan"),
    pytest.param(0, (), np.diag([INF, 1.0]), "finite", id="U-inf"),
    pytest.param(0, (np.ones(3) / np.sqrt(3),), np.eye(2), "C^2",
                 id="vector-length"),
    pytest.param(0, (np.ones(2),), np.eye(2), "unit vectors",
                 id="vector-not-unit"),
    pytest.param(0, (np.array([NAN, 0.0]),), np.eye(2), "unit vectors",
                 id="vector-nan"),
    pytest.param(1, (np.array([INF, 0.0]),), np.eye(2), "unit vectors",
                 id="vector-inf"),
    pytest.param(0, (np.array([INF + 1j, 0.0]),), np.eye(2), "unit vectors",
                 id="vector-inf-complex"),
    pytest.param(2, (E1,), np.eye(2), "gamma must lie in", id="gamma>d"),
    pytest.param(-1, (E1,), np.eye(2), "gamma must lie in", id="gamma<0"),
])
def test_product_refusals(gamma, vs, U, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        BPProduct(gamma, vs, U)


def test_synth_constant():
    U = np.vstack([np.eye(2), np.zeros((1, 2))])
    F = synth(BPProduct(0, (), U))
    assert F.n == 1 and np.allclose(F.eval(0.9), U)


def test_synth_single_factor():
    F = synth(BPProduct(0, (np.array([1.0, 0.0]),), np.eye(2)))
    assert F.q == 1
    assert np.allclose(F.coeffs[0], np.diag([0.0, 1.0]))
    assert np.allclose(F.coeffs[1], np.diag([1.0, 0.0]))


def test_synth_cancellation(rng):
    # square U on the right, wide U on the left of the same core
    for U in (np.eye(3), np.eye(3)[:2]):
        v1, v2 = random_unit(rng, 3), random_unit(rng, 3)
        prod = BPProduct(2, (v1, v2, v2, v1), U)
        F = synth(prod)
        for z in circle_points(16):
            assert np.max(np.abs(F.eval(z) - U)) < 1e-12


def test_synth_causality_endpoints(rng):
    vs = tuple(random_unit(rng, 2) for _ in range(3))
    causal = synth(BPProduct(0, vs, np.eye(2)))
    assert causal.causality()[0] in ("causal", "strictly-causal")
    anti = synth(BPProduct(3, vs, np.eye(2)))
    assert "anti-causal" in anti.causality()[1]


def test_three_forms_agree(rng):
    for seed in range(10):
        p, m = (3, 2) if seed % 2 == 0 else (2, 3)
        gamma = int(rng.integers(0, 5))
        prod = decode_angles(random_params(p, m, 4, gamma, seed))
        F = synth(prod)
        forms = product_forms(prod)
        for z in circle_points(16):
            E = F.eval(z)
            for f in forms:
                assert np.max(np.abs(f(z) - E)) < 1e-10


def test_expand_coefficients_single():
    # I + (1/z-1)P = Q + P/z causal, I + (z-1)P = zP + Q anti-causal
    v = np.array([0.6, 0.8j])
    P = np.outer(v, v.conj())
    for gamma, first, second in ((0, np.eye(2) - P, P),
                                 (1, P, np.eye(2) - P)):
        F = synth(BPProduct(gamma, (v,), np.eye(2)))
        assert F.q == 1 + gamma and F.n == 2
        assert np.allclose(F.coeffs[0], first)
        assert np.allclose(F.coeffs[1], second)


def test_expand_matches_synth(rng):
    for seed in range(10):
        p, m = (3, 2) if seed % 2 == 0 else (2, 3)
        d = int(rng.integers(1, 6))
        gamma = int(rng.integers(0, d + 1))
        prod = decode_angles(random_params(p, m, d, gamma, seed))
        F = synth(prod)
        assert max_coeff_diff(F, factor_chain(prod)) < 1e-11
        assert np.max(np.abs(F.eval(1.0) - prod.U)) < 1e-11


@pytest.mark.parametrize("p, m, d, gamma", [
    (6, 3, 40, 0), (6, 3, 40, 17), (6, 3, 40, 40),
    (3, 6, 40, 0), (3, 6, 40, 17), (3, 6, 40, 40),
    (6, 3, 0, 0), (3, 6, 0, 0),
])
def test_synth_long_windows(p, m, d, gamma):
    # beyond the property tests' d <= 6: a live coefficient window of up
    # to 41 blocks and anti-causal runs of up to 40 factors
    prod = decode_angles(random_params(p, m, d, gamma, seed=100 + gamma))
    assert max_coeff_diff(synth(prod), factor_chain(prod)) <= 1e-14


def test_param_count_values():
    assert param_count(1, 1, 0) == 1
    assert param_count(1, 1, 4) == 1
    assert param_count(2, 1, 0) == 3
    assert param_count(1, 2, 0) == 3
    assert param_count(3, 2, 2) == 16
    assert param_count(2, 3, 2) == 16
    with pytest.raises(ValueError):
        param_count(0, 2, 0)


def test_decode_basepoint():
    params = AngleParams(3, 2, 2, 0, np.zeros(chart_size(3, 2, 2)))
    prod = decode_angles(params)
    for v in prod.vs:
        assert np.allclose(v, np.array([1.0, 0.0, 0.0]))
    assert np.allclose(prod.U, np.vstack([np.eye(2), np.zeros((1, 2))]))


def test_decode_membership(rng):
    for seed in range(20):
        F = synth(decode_angles(random_params(2, 2, 3, 1, seed)))
        assert F.unitary_defect() < 1e-9


def test_decode_periodicity(rng):
    params = random_params(2, 2, 2, 0, 5)
    shifted = AngleParams(2, 2, 2, 0, params.angles + 2 * np.pi)
    F, G = synth(decode_angles(params)), synth(decode_angles(shifted))
    for z in circle_points(8):
        assert np.max(np.abs(F.eval(z) - G.eval(z))) < 1e-12


def test_chart_points_copy_their_arrays():
    angles = np.zeros(chart_size(2, 2, 1))
    v, U = E1.copy(), np.eye(2)
    params, prod = AngleParams(2, 2, 1, 0, angles), BPProduct(0, (v,), U)
    angles[:], v[:], U[:] = 1.0, 0.0, 0.0
    assert not params.angles.any()
    assert np.array_equal(prod.vs[0], E1) and np.array_equal(prod.U, np.eye(2))


def test_chart_points_read_only():
    params = random_params(2, 2, 1, 0, 1)
    prod = decode_angles(params)
    for array in (params.angles, prod.U, prod.vs[0]):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_decode_wrong_length():
    with pytest.raises(ValueError):
        AngleParams(2, 2, 2, 0, np.zeros(3))


def test_random_member_seeded():
    F = random_member(2, 2, 3, seed=7)
    G = random_member(2, 2, 3, seed=7)
    assert (F - G).is_zero()
    assert is_paraunitary_hankel(F).member
    assert mcmillan_degree(F) <= 3


def test_degree_generic(rng):
    for seed in range(20):
        F = random_member(2, 2, 4, gamma=0, seed=seed)
        assert mcmillan_degree(F) == 4


def test_optimize_feasibility():
    defects = []

    def residual(F):
        defects.append(F.unitary_defect())
        return F.eval(1.0) - np.eye(2)

    params, F, val = design_optimize(residual, 2, 2, 1, budget=300)
    assert val < 1e-6
    assert max(defects) < 1e-10
    assert len(defects) <= 300
    assert F.unitary_defect() < 1e-10


def test_optimize_zero_residual_costs_one_evaluation():
    # F(1) = U and the chart origin decodes to U = I, so the identity
    # target of `pufir optimize` is met by the first evaluation
    calls = []

    def residual(F):
        calls.append(F)
        return F.eval(1.0) - np.eye(3)

    params, F, val = design_optimize(residual, 3, 3, 2)
    assert len(calls) == 1 and val == 0.0
    assert not params.angles.any() and F is calls[0]


def test_optimize_reaches_sampled_members():
    # samples on the circle depend on every factor, unlike F(1) = U
    zs = np.exp(2j * np.pi * np.arange(4) / 4 + 0.3j)
    for p, m, d, seed in ((3, 3, 2, 200), (3, 3, 2, 201),
                          (2, 4, 3, 400), (2, 4, 3, 401)):
        G = random_member(p, m, d, seed=seed)
        target = np.array([G.eval(z) for z in zs])

        def residual(F):
            return np.array([F.eval(z) for z in zs]) - target

        _, F, val = design_optimize(residual, p, m, d, budget=5000)
        assert val <= 1e-10
        assert val == np.linalg.norm(residual(F))


@pytest.mark.parametrize("budget", [1, 2, 17, 40])
def test_optimize_stays_within_budget(budget):
    calls = []
    target = random_member(2, 2, 0, seed=100).coeffs[0]

    def residual(F):
        calls.append(F)
        return F.eval(1.0) - target

    design_optimize(residual, 2, 2, 1, budget=budget)
    assert 1 <= len(calls) <= budget


def test_optimize_constant_residual():
    # J = 0: the damping alone keeps the normal equations solvable, and
    # every run stalls and restarts within the budget
    calls = []

    def residual(F):
        calls.append(F)
        return np.ones(3)

    _, _, val = design_optimize(residual, 2, 2, 1, budget=100)
    assert val == np.sqrt(3.0) and len(calls) <= 100


def test_optimize_nonidentity_target():
    # a random unitary target makes the search itself do the work
    for i in range(4):
        target = random_member(2, 2, 0, seed=100 + i).coeffs[0]
        values = []

        def residual(F):
            values.append(float(np.linalg.norm(F.eval(1.0) - target)))
            return F.eval(1.0) - target

        _, _, val = design_optimize(residual, 2, 2, 1, budget=2000)
        assert values[0] >= 1.0
        assert val <= 1e-10


def test_optimize_params_decode_to_result():
    # the returned chart point is the one that gave F, bit for bit
    target = random_member(2, 2, 0, seed=100).coeffs[0]

    def residual(F):
        return F.eval(1.0) - target

    params, F, _ = design_optimize(residual, 2, 2, 1, budget=2000)
    G = synth(decode_angles(params))
    assert G.q == F.q and np.array_equal(G.coeffs, F.coeffs)
