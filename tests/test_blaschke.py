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


@pytest.mark.parametrize("side, gamma, vs, U, message", [
    pytest.param("both", 0, (), np.eye(2), "unknown side 'both'",
                 id="side"),
    pytest.param("iso", 0, (), np.eye(2)[:1], "iso side needs p >= m",
                 id="iso-wide"),
    pytest.param("coiso", 0, (), np.eye(2)[:, :1], "coiso side needs m >= p",
                 id="coiso-tall"),
    pytest.param("iso", 0, (), 2 * np.eye(2), "(co)isometry invariant",
                 id="U-not-isometric"),
    pytest.param("iso", 0, (), np.ones(2), "U must be a matrix",
                 id="U-not-matrix"),
    pytest.param("iso", 0, (), np.diag([NAN, 1.0]), "finite", id="U-nan"),
    pytest.param("coiso", 0, (), np.diag([INF, 1.0]), "finite", id="U-inf"),
    pytest.param("iso", 0, (np.ones(3) / np.sqrt(3),), np.eye(2), "C^2",
                 id="vector-length"),
    pytest.param("iso", 0, (np.ones(2),), np.eye(2), "unit vectors",
                 id="vector-not-unit"),
    pytest.param("iso", 0, (np.array([NAN, 0.0]),), np.eye(2),
                 "unit vectors", id="vector-nan"),
    pytest.param("coiso", 1, (np.array([INF, 0.0]),), np.eye(2),
                 "unit vectors", id="vector-inf"),
    pytest.param("iso", 0, (np.array([INF + 1j, 0.0]),), np.eye(2),
                 "unit vectors", id="vector-inf-complex"),
    pytest.param("iso", 2, (E1,), np.eye(2), "gamma must lie in", id="gamma>d"),
    pytest.param("iso", -1, (E1,), np.eye(2), "gamma must lie in",
                 id="gamma<0"),
])
def test_product_refusals(side, gamma, vs, U, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        BPProduct(side, gamma, vs, U)


def test_synth_constant():
    U = np.vstack([np.eye(2), np.zeros((1, 2))])
    F = synth(BPProduct("iso", 0, (), U))
    assert F.n == 1 and np.allclose(F.eval(0.9), U)


def test_synth_single_factor():
    F = synth(BPProduct("iso", 0, (np.array([1.0, 0.0]),), np.eye(2)))
    assert F.q == 1
    assert np.allclose(F.coeffs[0], np.diag([0.0, 1.0]))
    assert np.allclose(F.coeffs[1], np.diag([1.0, 0.0]))


def test_synth_cancellation(rng):
    for side in ("iso", "coiso"):
        v1, v2 = random_unit(rng, 3), random_unit(rng, 3)
        prod = BPProduct(side, 2, (v1, v2, v2, v1), np.eye(3))
        F = synth(prod)
        for z in circle_points(16):
            assert np.max(np.abs(F.eval(z) - np.eye(3))) < 1e-12


def test_synth_causality_endpoints(rng):
    vs = tuple(random_unit(rng, 2) for _ in range(3))
    causal = synth(BPProduct("iso", 0, vs, np.eye(2)))
    assert causal.causality()[0] in ("causal", "strictly-causal")
    anti = synth(BPProduct("iso", 3, vs, np.eye(2)))
    assert "anti-causal" in anti.causality()[1]


def test_three_forms_agree(rng):
    for seed in range(10):
        side = "iso" if seed % 2 == 0 else "coiso"
        p, m = (3, 2) if side == "iso" else (2, 3)
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
        F = synth(BPProduct("iso", gamma, (v,), np.eye(2)))
        assert F.q == 1 + gamma and F.n == 2
        assert np.allclose(F.coeffs[0], first)
        assert np.allclose(F.coeffs[1], second)


def test_expand_matches_synth(rng):
    for seed in range(10):
        side = "iso" if seed % 2 == 0 else "coiso"
        p, m = (3, 2) if side == "iso" else (2, 3)
        d = int(rng.integers(1, 6))
        gamma = int(rng.integers(0, d + 1))
        prod = decode_angles(random_params(p, m, d, gamma, seed))
        F = synth(prod)
        assert max_coeff_diff(F, factor_chain(prod)) < 1e-11
        assert np.max(np.abs(F.eval(1.0) - prod.U)) < 1e-11


def test_param_count_values():
    assert param_count("iso", 1, 1, 0) == 1
    assert param_count("iso", 1, 1, 4) == 1
    assert param_count("iso", 2, 1, 0) == 3
    assert param_count("iso", 3, 2, 2) == 16
    assert param_count("coiso", 2, 3, 2) == 16
    with pytest.raises(ValueError):
        param_count("iso", 1, 2, 0)


def test_decode_basepoint():
    params = AngleParams("iso", 3, 2, 2, 0,
                         np.zeros(chart_size("iso", 3, 2, 2)))
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
    shifted = AngleParams("iso", 2, 2, 2, 0, params.angles + 2 * np.pi)
    F, G = synth(decode_angles(params)), synth(decode_angles(shifted))
    for z in circle_points(8):
        assert np.max(np.abs(F.eval(z) - G.eval(z))) < 1e-12


def test_decode_wrong_length():
    with pytest.raises(ValueError):
        AngleParams("iso", 2, 2, 2, 0, np.zeros(3))


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

    def objective(F):
        defects.append(F.unitary_defect())
        return float(np.linalg.norm(F.eval(1.0) - np.eye(2), "fro"))

    params, F, val = design_optimize(objective, 2, 2, 1, budget=300)
    assert val < 1e-6
    assert max(defects) < 1e-10
    assert len(defects) <= 300
    assert F.unitary_defect() < 1e-10


def test_optimize_energy_objective():
    # maximizing the first-coefficient energy drives it toward a
    # one-dimensional projection column
    def objective(F):
        return -float(np.linalg.norm(np.asarray(F.coeffs[0])))

    _, F, val = design_optimize(objective, 2, 2, 1, budget=2000, seed=3)
    assert -val >= 1.0 - 1e-9
