"""FIR Blaschke-Potapov products and their synthesis.

Finite products of the degree-one factors I + (z-1)vv* (anti-causal) and
I + (1/z-1)vv* (causal) with a constant (co)isometry, expansion into
Laurent-polynomial coefficients, the real-angle chart over the product set
and a derivative-free design optimizer on that chart.
"""
from __future__ import annotations

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


def _check_core_unitary(U, side):
    gram = U.conj().T @ U if side == "iso" else U @ U.conj().T
    return float(np.abs(gram - np.eye(len(gram))).max())


@dataclass(frozen=True)
class BPProduct:
    """FIR Blaschke-Potapov product.

    The first gamma factors are anti-causal, I + (z - 1)vv*, the rest
    causal, I + (1/z - 1)vv*.  The constant (co)isometry U multiplies on
    the right (iso) or on the left (coiso).
    """

    side: str
    gamma: int
    vs: tuple
    U: np.ndarray

    def __post_init__(self):
        U = np.asarray(self.U, dtype=complex)
        vs = tuple(np.asarray(v, dtype=complex).reshape(-1) for v in self.vs)
        object.__setattr__(self, "U", U)
        object.__setattr__(self, "vs", vs)
        if U.ndim != 2:
            raise ValueError(f"U must be a matrix, got shape {U.shape}")
        k = _chart_k(self.side, *U.shape, len(vs))
        if any(v.size != k for v in vs):
            raise ValueError(f"factor vectors must live in C^{k}")
        if not np.isfinite(U).all():
            raise ValueError("U must be finite (no NaN or Inf)")
        if not _check_core_unitary(U, self.side) <= _UNIT_TOL:
            raise ValueError("U fails the (co)isometry invariant")
        # vdot is no ufunc: a NaN or Inf entry gives a non-finite norm and
        # no floating-point warning
        if not all(abs(np.vdot(v, v) - 1.0) <= _UNIT_TOL for v in vs):
            raise ValueError("factor vectors must be unit vectors")
        if not 0 <= self.gamma <= len(vs):
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
        return self.p if self.side == "iso" else self.m


def synth(prod):
    """Expand the product into a matrix Laurent polynomial.

    One coefficient recursion for every gamma.  The square core
    z^gamma sum_c z^-c G_c starts from G_0 = I.  A causal factor
    I + (1/z - 1)P = Q + P/z, with P = vv* and Q = I - P, maps G_c to
    G_c Q + G_{c-1} P; an anti-causal factor I + (z - 1)P = z(P + Q/z) is
    the same update with P and Q swapped, its z carried by the shift
    q = 1 + gamma.  Both are rank-one updates through w_c = G_c v.  Iso
    products apply the anti-causal factors first and U on the right,
    co-iso products apply them last and U on the left.

    Result is causal for gamma=0, anti-causal for gamma=d, and always
    para-unitary on the circle.
    """
    g, k = prod.gamma, prod.k
    anti = [(v, True) for v in prod.vs[:g]]
    causal = [(v, False) for v in prod.vs[g:]]
    G = np.zeros((prod.d + 1, k, k), dtype=complex)
    G[0] = np.eye(k)
    for v, is_anti in (anti + causal if prod.side == "iso"
                       else causal + anti):
        w = np.diff(G @ v, axis=0, prepend=0)      # G_c v - G_{c-1} v
        step = w[:, :, None] * v.conj()
        if is_anti:
            G[1:] = G[:-1]
            G[0] = 0
            G += step
        else:
            G -= step
    coeffs = G @ prod.U if prod.side == "iso" else prod.U @ G
    return LaurentPoly(g + 1, coeffs)


def _chart_k(side, p, m, d):
    """Validate the chart shape; k = p (iso) or m (coiso)."""
    if side not in ("iso", "coiso"):
        raise ValueError(f"unknown side {side!r}")
    for name, value, low in (("p", p, 1), ("m", m, 1), ("d", d, 0)):
        if value < low:
            raise ValueError(f"{name} must be >= {low}, got {value}")
    if side == "iso" and p < m:
        raise ValueError("iso side needs p >= m")
    if side == "coiso" and m < p:
        raise ValueError("coiso side needs m >= p")
    return p if side == "iso" else m


def param_count(side, p, m, d):
    """Real dimension of the degree-d para-unitary polytope.

    The full parametrization consists of d+1 discrete copies (the split
    index) of a polytope of this dimension.
    """
    _chart_k(side, p, m, d)
    a, b = (p, m) if side == "iso" else (m, p)
    return (2 * a - b - 1) * (b + d) + d * (b - 1) + b


@dataclass(frozen=True)
class AngleParams:
    """Flat real-angle coordinates decoding to a BPProduct.

    The chart is an over-parametrized smooth cover of the product set:
    each factor vector uses 2k-1 spherical angles and the constant core
    uses k^2 angles of a phase-times-Givens factorization of a k x k
    unitary, k = p (iso) or m (coiso).
    """

    side: str
    p: int
    m: int
    d: int
    gamma: int
    angles: np.ndarray

    def __post_init__(self):
        ang = np.asarray(self.angles, dtype=float).reshape(-1)
        object.__setattr__(self, "angles", ang)
        want = chart_size(self.side, self.p, self.m, self.d)
        if ang.size != want:
            raise ValueError(f"expected {want} angles, got {ang.size}")
        if not np.isfinite(ang).all():
            raise ValueError("angles must be finite (no NaN or Inf)")
        if not 0 <= self.gamma <= self.d:
            raise ValueError("gamma must lie in [0, d]")


def chart_size(side, p, m, d):
    """Number of chart angles; refuses a side or shape with no chart."""
    k = _chart_k(side, p, m, d)
    return d * (2 * k - 1) + k * k


def _sphere_vector(angles, k):
    """Unit vector in C^k from k-1 magnitude angles and k phases."""
    mags = angles[:k - 1]
    phases = angles[k - 1:]
    x = np.empty(k)
    s = 1.0
    for i in range(k - 1):
        x[i] = s * math.cos(mags[i])
        s *= math.sin(mags[i])
    x[k - 1] = s
    return x * np.exp(1j * phases)


def _unitary_from_angles(angles, k):
    """k x k unitary: diagonal phases times a product of Givens rotations."""
    W = np.diag(np.exp(1j * angles[:k])).astype(complex)
    pos = k
    for i in range(k):
        for j in range(i + 1, k):
            theta, psi = angles[pos], angles[pos + 1]
            pos += 2
            G = np.eye(k, dtype=complex)
            c, s = math.cos(theta), math.sin(theta)
            G[i, i] = c
            G[j, j] = c
            G[i, j] = -np.exp(-1j * psi) * s
            G[j, i] = np.exp(1j * psi) * s
            W = W @ G
    return W


def decode_angles(params):
    """Map a chart point to a valid BPProduct (always succeeds)."""
    k = params.p if params.side == "iso" else params.m
    per = 2 * k - 1
    vs = [_sphere_vector(params.angles[j * per:(j + 1) * per], k)
          for j in range(params.d)]
    W = _unitary_from_angles(params.angles[params.d * per:], k)
    U = W[:, :params.m] if params.side == "iso" else W[:params.p, :]
    return BPProduct(params.side, params.gamma, tuple(vs), U)


def random_params(p, m, d, gamma=0, seed=None):
    """Seeded uniform chart point; the side is iso when p >= m, else coiso."""
    side = "iso" if p >= m else "coiso"
    rng = np.random.default_rng(seed)
    ang = rng.uniform(0.0, 2.0 * np.pi, chart_size(side, p, m, d))
    return AngleParams(side, p, m, d, gamma, ang)


def random_member(p, m, d, gamma=0, seed=None):
    """Seeded random member of the para-unitary class."""
    return synth(decode_angles(random_params(p, m, d, gamma, seed)))


_GOLD = (math.sqrt(5.0) - 1.0) / 2.0
# random restarts after the start at the chart origin, samples of the
# coarse scan over one period, golden-section steps per coordinate
_RESTARTS, _COARSE, _REFINE = 3, 8, 16


def design_optimize(objective, p, m, d, gamma=0, budget=5000, seed=0):
    """Derivative-free design over the angle chart.

    Coordinate descent with a coarse periodic scan followed by a
    golden-section refinement on each coordinate, restarted from seeded
    random chart points.  The side is iso when p >= m, else coiso.
    `budget` counts objective evaluations; every candidate decodes to a
    member of the class by construction.

    Returns (best AngleParams, best LaurentPoly, best value).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    side = "iso" if p >= m else "coiso"
    size = chart_size(side, p, m, d)
    rng = np.random.default_rng(seed)
    state = {"evals": 0, "best": None}

    def f(angles):
        if state["evals"] >= budget:
            raise _BudgetExhausted
        state["evals"] += 1
        params = AngleParams(side, p, m, d, gamma, angles)
        F = synth(decode_angles(params))
        val = float(objective(F))
        if state["best"] is None or val < state["best"][0]:
            state["best"] = (val, params, F)
        return val

    def line_min(angles, i, fcur):
        # coarse scan of the full period, then golden-section around the
        # best sample
        base = angles[i]
        step = 2.0 * np.pi / _COARSE
        vals = [(fcur, base)]
        for t in range(1, _COARSE):
            cand = angles.copy()
            cand[i] = base + t * step
            vals.append((f(cand), cand[i]))
        fbest, xbest = min(vals)
        a, b = xbest - step, xbest + step
        x1 = b - _GOLD * (b - a)
        x2 = a + _GOLD * (b - a)
        c1 = angles.copy()
        c1[i] = x1
        f1 = f(c1)
        c2 = angles.copy()
        c2[i] = x2
        f2 = f(c2)
        for _ in range(_REFINE):
            if f1 <= f2:
                b, x2, f2 = x2, x1, f1
                x1 = b - _GOLD * (b - a)
                c1[i] = x1
                f1 = f(c1)
            else:
                a, x1, f1 = x1, x2, f2
                x2 = a + _GOLD * (b - a)
                c2[i] = x2
                f2 = f(c2)
        best = min([(fbest, xbest), (f1, x1), (f2, x2)])
        return best

    class _BudgetExhausted(Exception):
        pass

    try:
        for r in range(_RESTARTS + 1):
            angles = (np.zeros(size) if r == 0
                      else rng.uniform(0.0, 2.0 * np.pi, size))
            fcur = f(angles)
            improved = True
            while improved:
                improved = False
                for i in range(size):
                    fbest, xbest = line_min(angles, i, fcur)
                    if fbest < fcur - 1e-15:
                        angles = angles.copy()
                        angles[i] = xbest % (2.0 * np.pi)
                        fcur = fbest
                        improved = True
    except _BudgetExhausted:
        pass
    val, params, F = state["best"]
    return params, F, val
