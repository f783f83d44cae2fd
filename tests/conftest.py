import numpy as np
import pytest
from hypothesis import settings

from pufir.hankel import hankel_causal
from pufir.laurent import LaurentPoly

# Property tests draw the same examples on every run and are never timed
# out, so tier-1 stays deterministic and its run time bounded.
settings.register_profile("pufir", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("pufir")


def circle_points(count, offset=0.37):
    return [np.exp(2j * np.pi * (t + offset) / count) for t in range(count)]


def random_poly(rng, p, m, n, q=0):
    coeffs = [rng.normal(size=(p, m)) + 1j * rng.normal(size=(p, m))
              for _ in range(n)]
    return LaurentPoly(q, coeffs)


def random_unit(rng, k):
    v = rng.normal(size=k) + 1j * rng.normal(size=k)
    return v / np.linalg.norm(v)


def max_eval_diff(F, G, count=16):
    return max(float(np.max(np.abs(F.eval(z) - G.eval(z))))
               for z in circle_points(count))


def max_coeff_diff(F, G):
    assert (F.q, F.n) == (G.q, G.n)
    return max(float(np.max(np.abs(B - C)))
               for B, C in zip(F.coeffs, G.coeffs))


# -- oracles: independent formulas for quantities the library computes once

def factor_chain(prod):
    """The BP product as a convolution chain of degree-one polynomials.

    I + (z-1)P = zP + Q for the first gamma (anti-causal) factors and
    I + (1/z-1)P = Q + P/z for the rest, multiplied with `@` in the order
    of the product, with the constant (co)isometry U on its side.
    """
    def factor(v, anti):
        P = np.outer(v, v.conj())
        Q = np.eye(v.size) - P
        return LaurentPoly(2, [P, Q]) if anti else LaurentPoly(1, [Q, P])

    anti = [factor(v, True) for v in prod.vs[:prod.gamma]]
    causal = [factor(v, False) for v in prod.vs[prod.gamma:]]
    const = LaurentPoly(1, [prod.U])
    polys = (anti + causal + [const] if prod.side == "iso"
             else [const] + causal + anti)
    out = polys[0]
    for F in polys[1:]:
        out = out @ F
    return out


def lag_sum_residual(F):
    """max_k |sum_j B_{k+j}*B_j - delta_k I| (B_{k+j}B_j* for wide F)."""
    F0 = F.shift(-F.q)
    B = F0.coeffs
    iso = F.p >= F.m
    eye = np.eye(F.m if iso else F.p)
    res = 0.0
    for k in range(F.n):
        S = sum((B[k + j].conj().T @ B[j] if iso else B[k + j] @ B[j].conj().T)
                for j in range(F.n - k))
        res = max(res, float(np.max(np.abs(S - (eye if k == 0 else 0.0)))))
    return res


def full_gram_residual(F):
    """First block column of the full Gram I - H_0*H_0 (or I - H_0H_0*)."""
    A = hankel_causal(F.shift(-F.q), 0).data
    if F.p >= F.m:
        G = np.eye(F.n * F.m) - A.conj().T @ A
        return float(np.max(np.abs(G[:, :F.m])))
    G = np.eye(F.n * F.p) - A @ A.conj().T
    return float(np.max(np.abs(G[:F.p, :])))


def block_flip(k, rho):
    """Dense k*rho x k*rho block anti-identity."""
    return np.kron(np.eye(k)[::-1], np.eye(rho))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
