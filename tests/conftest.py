import numpy as np
import pytest
from hypothesis import settings

from pufir.hankel import hankel_causal
from pufir.laurent import LaurentPoly, zero

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


def product_forms(prod):
    """Evaluators of the three equivalent forms of the BP product.

    At a point z a factor is I + (b-1)vv*, with b = z for the first gamma
    (anti-causal) factors and b = 1/z for the rest.  Form 1 multiplies the
    factors as they are.  Form 2 writes the causal part as the inverse of
    the reversed chain of anti-causal factors on the same vectors, form 3
    the anti-causal part as the inverse of the reversed causal chain; both
    take an explicit matrix inverse.
    """
    g, k, U, vs = prod.gamma, prod.k, prod.U, prod.vs

    def chain(vectors, b):
        out = np.eye(k, dtype=complex)
        for v in vectors:
            out = out @ (np.eye(k) + (b - 1.0) * np.outer(v, v.conj()))
        return out

    def anti(z, form):
        if form == 3:
            return np.linalg.inv(chain(vs[:g][::-1], 1.0 / z))
        return chain(vs[:g], z)

    def causal(z, form):
        if form == 2:
            return np.linalg.inv(chain(vs[g:][::-1], z))
        return chain(vs[g:], 1.0 / z)

    def evaluator(form):
        if prod.side == "iso":
            return lambda z: anti(z, form) @ causal(z, form) @ U
        return lambda z: U @ causal(z, form) @ anti(z, form)

    return tuple(evaluator(form) for form in (1, 2, 3))


def toeplitz_gram_equiv(F):
    """Residual of the Hankel-vs-triangular-Toeplitz Gram identity.

    Flipping the block rows (columns) of H_0 produces a block-triangular
    Toeplitz matrix with the same Gram products, so the residual is pure
    rounding noise.
    """
    A = hankel_causal(F.shift(-F.q)).data
    n, p, m = F.n, F.p, F.m
    left = A.reshape(n, p, n * m)[::-1].reshape(n * p, n * m)
    right = A.reshape(n * p, n, m)[:, ::-1].reshape(n * p, n * m)
    r1 = float(np.max(np.abs(A.conj().T @ A - left.conj().T @ left)))
    r2 = float(np.max(np.abs(A @ A.conj().T - right @ right.conj().T)))
    return max(r1, r2)


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
    A = hankel_causal(F.shift(-F.q)).data
    if F.p >= F.m:
        G = np.eye(F.n * F.m) - A.conj().T @ A
        return float(np.max(np.abs(G[:, :F.m])))
    G = np.eye(F.n * F.p) - A @ A.conj().T
    return float(np.max(np.abs(G[:F.p, :])))


def kron_stein(A, RHS):
    """W - A W A* = RHS as the dense nu^2 system in column-major vec(W).

    vec(A W A*) = (conj(A) kron A) vec(W), so (I - conj(A) kron A)
    vec(W) = vec(RHS); the solution is symmetrized.
    """
    nu = A.shape[0]
    K = np.eye(nu * nu) - np.kron(A.conj(), A)
    w = np.linalg.solve(K, RHS.reshape(-1, order="F"))
    W = w.reshape((nu, nu), order="F")
    return (W + W.conj().T) / 2.0


def block_flip(k, rho):
    """Dense k*rho x k*rho block anti-identity."""
    return np.kron(np.eye(k)[::-1], np.eye(rho))


# -- block-loop oracles: the per-coefficient-block forms of the index maps
# that the library computes by slicing the (n, p, m) coefficient array

def _zero_block(p, m):
    return np.zeros((p, m), dtype=complex)


def add_blocks(F, G):
    """F + G accumulated block by block onto a list of zero blocks."""
    q = max(F.q, G.q)
    lo = min(F.q - F.n, G.q - G.n)
    out = [_zero_block(F.p, F.m) for _ in range(q - lo)]
    for poly in (F, G):
        for k, B in enumerate(poly.coeffs, start=1):
            out[q - (poly.q - k) - 1] += B
    return LaurentPoly(q, out)


def split_terms(F):
    """(F_l, D, F_r) by sorting (power, block) terms by the sign of power."""
    def from_terms(terms):
        if not terms:
            return zero(F.p, F.m)
        q = max(pw for pw, _ in terms) + 1
        lo = min(pw for pw, _ in terms)
        out = [_zero_block(F.p, F.m) for _ in range(q - lo)]
        for pw, B in terms:
            out[q - pw - 1] += B
        return LaurentPoly(q, out)

    terms = [(F.q - k, B) for k, B in enumerate(F.coeffs, start=1)]
    return (from_terms([t for t in terms if t[0] > 0]),
            F.coefficient(0),
            from_terms([t for t in terms if t[0] < 0]))


def hankel_blocks(F, sign, size):
    """Block (i, j) = coefficient of z^(sign (i+j+1)), size x size blocks.

    sign -1 gives the Hankel of the strictly causal part, +1 the reversed
    Hankel of the strictly anti-causal part; size 0 gives 0x0.
    """
    if size <= 0:
        return np.zeros((0, 0), dtype=complex)
    return np.block([[F.coefficient(sign * (i + j + 1)) for j in range(size)]
                     for i in range(size)])


def sampled_defect(F):
    """Max Frobenius (co-)isometry defect over 4(n+1) Horner evaluations."""
    count = 4 * (F.n + 1)
    eye = np.eye(min(F.p, F.m))
    worst = 0.0
    for j in range(count):
        G = F.eval(np.exp(2j * np.pi * j / count))
        gram = G.conj().T @ G if F.p >= F.m else G @ G.conj().T
        worst = max(worst, float(np.linalg.norm(gram - eye, "fro")))
    return worst


def reblock_blocks(F, j):
    """D_t block (i, l) = c(t*j + i + l) over eta = -q zeros, B_1..B_n."""
    eta, p, m, n = -F.q, F.p, F.m, F.n

    def c(k):
        return F.coeffs[k - eta] if eta <= k < eta + n else _zero_block(p, m)

    out = []
    for t in range(-(-(n + eta) // j)):
        D = np.zeros((j * p, j * m), dtype=complex)
        for i in range(j):
            for l in range(j):
                D[i * p:(i + 1) * p, l * m:(l + 1) * m] = c(t * j + i + l)
        out.append(D)
    return LaurentPoly(0, out)


def placed_blocks(F, exponents, q=0):
    """B_k at z^-e_k (times z^q), zero blocks at every other exponent."""
    out = [_zero_block(F.p, F.m) for _ in range(exponents[-1])]
    for B, e in zip(F.coeffs, exponents):
        out[e - 1] = np.array(B)
    return LaurentPoly(q, out)


def grouped_blocks(F, rho):
    """Lists of rho consecutive blocks, the last padded with zero blocks."""
    blocks = list(F.coeffs)
    while len(blocks) % rho:
        blocks.append(_zero_block(F.p, F.m))
    return [blocks[g:g + rho] for g in range(0, len(blocks), rho)]


def interleave_blocks(F, a, b, rho):
    """b*rho zero blocks, groups separated by (a+b)*rho, a*rho trailing."""
    z = _zero_block(F.p, F.m)
    seq = [z] * (b * rho)
    for g, grp in enumerate(grouped_blocks(F, rho)):
        if g:
            seq = seq + [z] * ((a + b) * rho)
        seq = seq + grp
    return seq + [z] * (a * rho)


def compose_blocks(Fb, Fc, how, alpha=0.5):
    """Block-by-block compositions of the zero-padded q = 0 inputs."""
    n = max(Fb.n, Fc.n)
    Bs = list(Fb.coeffs) + [_zero_block(Fb.p, Fb.m)] * (n - Fb.n)
    Cs = list(Fc.coeffs) + [_zero_block(Fc.p, Fc.m)] * (n - Fc.n)
    sa, sb = np.sqrt(alpha), np.sqrt(1.0 - alpha)
    out = []
    for B, C in zip(Bs, Cs):
        Zbc = np.zeros((Fb.p, Fc.m))
        Zcb = np.zeros((Fc.p, Fb.m))
        if how == "diag":
            D = np.block([[B, Zbc], [Zcb, C]])
        elif how == "antidiag":
            D = np.block([[Zbc, B], [C, Zcb]])
        elif how == "mix-rows":
            top = sa * np.hstack([B, np.zeros((Fb.p, Fc.m - Fb.m))])
            D = np.vstack([top, sb * C])
        else:
            right = sb * np.vstack([C, np.zeros((Fb.p - Fc.p, Fc.m))])
            D = np.hstack([sa * B, right])
        out.append(D)
    return LaurentPoly(0, out)


def assert_same_poly(F, G):
    """Equal shift, equal shape and equal coefficients, entry for entry."""
    assert F.q == G.q
    assert F.coeffs.shape == G.coeffs.shape
    assert np.array_equal(F.coeffs, G.coeffs)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
