"""FIR Blaschke-Potapov products and their synthesis.

Finite products of the degree-one factors I + (z-1)vv* (anti-causal) and
I + (1/z-1)vv* (causal) with a constant (co)isometry, expansion into
Laurent-polynomial coefficients, the real-angle chart over the product set
and a least-squares (Levenberg-Marquardt) design search on that chart.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .laurent import LaurentPoly

__all__ = [
    "BPProduct", "AngleParams", "synth",
    "param_count", "chart_size", "decode_angles",
    "random_params", "random_member", "design_optimize",
]

_UNIT_TOL = 1e-12


def _frozen(a, dtype):
    """Read-only copy: a chart point never shares memory with its caller."""
    a = np.array(a, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class BPProduct:
    """FIR Blaschke-Potapov product.

    The first gamma factors are anti-causal, I + (z - 1)vv*, the rest
    causal, I + (1/z - 1)vv*.  The constant (co)isometry U multiplies on
    the right when p >= m (iso) and on the left when p < m (coiso).
    """

    gamma: int
    vs: tuple
    U: np.ndarray

    def __post_init__(self):
        U = _frozen(self.U, complex)
        object.__setattr__(self, "U", U)
        if U.ndim != 2:
            raise ValueError(f"U must be a matrix, got shape {U.shape}")
        d = len(self.vs)
        k = _chart_k(*U.shape, d)
        try:        # one read-only (d, k) copy; ragged vectors do not stack
            V = np.array(self.vs, dtype=complex).reshape(d, k)
        except ValueError:
            raise ValueError(f"factor vectors must live in C^{k}") from None
        V.setflags(write=False)
        object.__setattr__(self, "vs", tuple(V))
        if not np.isfinite(U).all():
            raise ValueError("U must be finite (no NaN or Inf)")
        gram = U.conj().T @ U if U.shape[0] >= U.shape[1] else U @ U.conj().T
        if not np.abs(gram - np.eye(len(gram))).max() <= _UNIT_TOL:
            raise ValueError("U fails the (co)isometry invariant")
        norm2 = np.einsum("ij,ij->i", V.conj(), V)   # no ufunc: no warning
        if not (np.isfinite(V).all() and (abs(norm2 - 1) <= _UNIT_TOL).all()):
            raise ValueError("factor vectors must be unit vectors")
        if not 0 <= self.gamma <= d:
            raise ValueError("gamma must lie in [0, d]")

    @property
    def d(self):
        return len(self.vs)

    @property
    def p(self):
        return self.U.shape[0]

    @property
    def m(self):
        return self.U.shape[1]

    @property
    def k(self):
        return max(self.p, self.m)


def synth(prod):
    """Expand the product into a matrix Laurent polynomial.

    A co-iso product (p < m) is U C_1 ... C_{d-g} A_1 ... A_g, an iso one
    A_1 ... A_g C_1 ... C_{d-g} U is built as its transpose: the co-iso
    form in U^T and the reversed, conjugated vectors.  On p x m blocks,
    the core z^gamma sum_c z^-c G_c starts from G_0 = U.  A causal factor
    Q + P/z (P = vv*, Q = I - P) maps G_c to G_c Q + G_{c-1} P; an
    anti-causal one z(P + Q/z) swaps P and Q, its z carried by
    q = 1 + gamma.  Both are rank-one updates through w_c = G_c v on the
    live window: after t factors only G_0 .. G_t are nonzero.  The result
    is para-unitary on the circle.
    """
    g, d, iso = prod.gamma, prod.d, prod.p >= prod.m
    if iso:
        U, vs = prod.U.T, [v.conj() for v in prod.vs[::-1]]
    else:
        U, vs = prod.U, prod.vs[g:] + prod.vs[:g]
    G = np.zeros((d + 1,) + U.shape, dtype=complex)
    G[0] = U
    for t, v in enumerate(vs):
        win = G[:t + 2]
        w = (win.reshape(-1, v.size) @ v).reshape(t + 2, -1)
        w[1:] -= w[:-1]                             # G_c v - G_{c-1} v
        step = w[:, :, None] * v.conj()
        if t >= d - g:                      # anti-causal: shift, then add
            win[1:] = win[:-1]
            win[0] = 0
            step = -step
        win -= step
    return LaurentPoly(g + 1, G.transpose(0, 2, 1) if iso else G)


def _chart_k(p, m, d):
    """Validate the chart shape; k = max(p, m)."""
    for name, value, low in (("p", p, 1), ("m", m, 1), ("d", d, 0)):
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    return max(p, m)


def param_count(p, m, d):
    """Real dimension of the degree-d para-unitary polytope.

    The full parametrization consists of d+1 discrete copies (the split
    index) of a polytope of this dimension.
    """
    a, b = _chart_k(p, m, d), min(p, m)
    return (2 * a - b - 1) * (b + d) + d * (b - 1) + b


@dataclass(frozen=True)
class AngleParams:
    """Flat real-angle coordinates decoding to a BPProduct.

    The chart is an over-parametrized smooth cover of the product set:
    each factor vector uses 2k-1 spherical angles and the constant core
    uses k^2 angles of a phase-times-Givens factorization of a k x k
    unitary, k = max(p, m).
    """

    p: int
    m: int
    d: int
    gamma: int
    angles: np.ndarray

    def __post_init__(self):
        ang = _frozen(self.angles, float).reshape(-1)
        object.__setattr__(self, "angles", ang)
        want = chart_size(self.p, self.m, self.d)
        if ang.size != want:
            raise ValueError(f"expected {want} angles, got {ang.size}")
        if not np.isfinite(ang).all():
            raise ValueError("angles must be finite (no NaN or Inf)")
        if not 0 <= self.gamma <= self.d:
            raise ValueError("gamma must lie in [0, d]")

    @property
    def side(self):
        return "iso" if self.p >= self.m else "coiso"


def chart_size(p, m, d):
    """Number of chart angles; refuses a shape with no chart."""
    k = _chart_k(p, m, d)
    return d * (2 * k - 1) + k * k


def _sphere_vector(angles, k):
    """Unit vector in C^k from k-1 magnitude angles and k phases."""
    v, s = [], 1.0
    for a, phase in zip(angles[:k - 1], angles[k - 1:]):
        v.append(s * math.cos(a) * cmath.exp(1j * phase))
        s *= math.sin(a)
    v.append(s * cmath.exp(1j * angles[-1]))
    return np.array(v)


def _unitary_from_angles(angles, k):
    """k x k unitary: diagonal phases times a product of Givens rotations,
    each applied to the two columns it mixes (lists of complex numbers)."""
    cols = [[cmath.exp(1j * angles[i]) if r == i else 0j for r in range(k)]
            for i in range(k)]
    rotations = zip(angles[k::2], angles[k + 1::2])
    for i in range(k):
        for j in range(i + 1, k):
            theta, psi = next(rotations)
            c, s = math.cos(theta), math.sin(theta)
            e, f = s * cmath.exp(1j * psi), -s * cmath.exp(-1j * psi)
            a, b = cols[i], cols[j]
            cols[i] = [c * x + e * y for x, y in zip(a, b)]
            cols[j] = [f * x + c * y for x, y in zip(a, b)]
    return np.array(cols).T


def decode_angles(params):
    """Map a chart point to a valid BPProduct (always succeeds)."""
    k = max(params.p, params.m)
    per = 2 * k - 1
    angles = params.angles.tolist()
    vs = [_sphere_vector(angles[j * per:(j + 1) * per], k)
          for j in range(params.d)]
    W = _unitary_from_angles(angles[params.d * per:], k)
    return BPProduct(params.gamma, tuple(vs), W[:params.p, :params.m])


def _rng(seed):
    """NumPy generator for a seed; refuses a negative seed by name."""
    if seed is not None and seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    return np.random.default_rng(seed)


def random_params(p, m, d, gamma=0, seed=None):
    """Seeded uniform chart point."""
    ang = _rng(seed).uniform(0.0, 2.0 * np.pi, chart_size(p, m, d))
    return AngleParams(p, m, d, gamma, ang)


def random_member(p, m, d, gamma=0, seed=None):
    """Seeded random member of the para-unitary class."""
    return synth(decode_angles(random_params(p, m, d, gamma, seed)))


# central-difference step (about the cube root of the float epsilon), the
# residual norm taken as rounding, the first damping and the damping at
# which a run has stalled, both relative to the largest diagonal of J^T J
_STEP, _ROUNDING, _DAMP, _STALL = 6e-6, 1e-13, 1e-3, 1e8


def design_optimize(residual, p, m, d, gamma=0, budget=5000, seed=0):
    """Least-squares design over the angle chart (Levenberg-Marquardt).

    Minimizes the norm of residual(F), an array for each member F, by
    damped Gauss-Newton steps on its real and imaginary parts with a
    central-difference Jacobian.  The chart has flat directions, so the
    damping is a multiple of the identity.  The first run starts at the
    chart origin; a run whose damping passes _STALL has stalled, and the
    next starts at a seeded uniform chart point.  `budget` counts every
    evaluation, Jacobian probes included, and the search stops once the
    residual norm is at rounding level.  Every candidate decodes to a
    member of the class by construction.

    Returns (best AngleParams, best LaurentPoly, best value), the value
    being float(np.linalg.norm(residual(F))).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    size = chart_size(p, m, d)
    rng = _rng(seed)
    best, spent = None, 0

    def evaluate(angles):
        nonlocal best, spent
        spent += 1
        params = AngleParams(p, m, d, gamma, angles)
        F = synth(decode_angles(params))
        r = np.asarray(residual(F))
        value = float(np.linalg.norm(r))
        if best is None or value < best[2]:
            best = (params, F, value)
        return np.concatenate([r.real.ravel(), r.imag.ravel()]), value

    x = np.zeros(size)
    r, value = evaluate(x)
    damp, J = _DAMP, None
    while best[2] > _ROUNDING and spent < budget:
        if damp > _STALL:
            x = rng.uniform(0.0, 2.0 * np.pi, size)
            (r, value), damp, J = evaluate(x), _DAMP, None
        elif J is None:
            if spent + 2 * size >= budget:
                break
            J = np.stack([evaluate(x + h)[0] - evaluate(x - h)[0]
                          for h in _STEP * np.eye(size)], axis=1)
            J /= 2.0 * _STEP
            A, g = J.T @ J, J.T @ r
            scale = float(A.diagonal().max()) or 1.0
        else:
            trial = x + np.linalg.solve(A + damp * scale * np.eye(size), -g)
            r_new, v_new = evaluate(trial)
            if v_new < value:
                x, r, value, J = trial, r_new, v_new, None
                damp /= 3.0
            else:
                damp *= 4.0
    return best
