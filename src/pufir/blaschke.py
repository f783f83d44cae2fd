"""Blaschke-Potapov factors, products and FIR synthesis.

Degree-one unitary-on-circle factors I + (b(z)-1)vv*, their finite products
with a constant (co)isometry, expansion into Laurent-polynomial
coefficients, the real-angle chart over the product set and a
derivative-free design optimizer on that chart.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .laurent import LaurentPoly

__all__ = [
    "BPFactor", "BPProduct", "AngleParams",
    "factor_eval", "factor_inverse",
    "synth", "synth_all_forms",
    "param_count", "chart_size", "decode_angles",
    "random_params", "random_member", "design_optimize",
]

_UNIT_TOL = 1e-12
_CIRCLE_MARGIN = 1e-8


def _is_inf(alpha):
    return alpha is None or (isinstance(alpha, (int, float)) and
                             math.isinf(alpha)) or \
        (isinstance(alpha, complex) and (math.isinf(alpha.real) or
                                         math.isinf(alpha.imag)))


@dataclass(frozen=True)
class BPFactor:
    """Elementary factor I + (b(z) - 1) vv* with unit v.

    b(z) = (1 - alpha* z)/(z - alpha); alpha = inf means b(z) = z.  With
    `inverted` set, b is replaced by its reciprocal (z - alpha)/(1 - alpha* z),
    which is the pointwise inverse factor.
    """

    alpha: object
    v: np.ndarray
    inverted: bool = False

    def __post_init__(self):
        v = np.asarray(self.v, dtype=complex).reshape(-1)
        object.__setattr__(self, "v", v)
        if abs(v.conj() @ v - 1.0) > _UNIT_TOL:
            raise ValueError("v must be a unit vector")
        if not _is_inf(self.alpha):
            a = complex(self.alpha)
            if abs(abs(a) - 1.0) < _CIRCLE_MARGIN:
                raise ValueError("alpha must stay away from the unit circle")
            object.__setattr__(self, "alpha", a)

    @property
    def k(self):
        return self.v.size


def _mobius(f, z):
    z = complex(z)
    if _is_inf(f.alpha):
        if f.inverted:
            if z == 0:
                raise ZeroDivisionError("pole of the factor at z=0")
            return 1.0 / z
        return z
    a = f.alpha
    if f.inverted:
        den = 1.0 - np.conj(a) * z
        if den == 0:
            raise ZeroDivisionError("evaluation at the factor pole 1/alpha*")
        return (z - a) / den
    if z == a:
        raise ZeroDivisionError("evaluation at the factor pole alpha")
    return (1.0 - np.conj(a) * z) / (z - a)


def factor_eval(f, z):
    """Evaluate the factor; unitary for |z| = 1."""
    b = _mobius(f, z)
    P = np.outer(f.v, f.v.conj())
    return np.eye(f.k) + (b - 1.0) * P


def factor_inverse(f):
    """Pointwise inverse factor: same v, reciprocal Moebius term."""
    return BPFactor(f.alpha, f.v, not f.inverted)


def _check_core_unitary(U, side):
    if side == "iso":
        return float(np.max(np.abs(U.conj().T @ U - np.eye(U.shape[1]))))
    return float(np.max(np.abs(U @ U.conj().T - np.eye(U.shape[0]))))


@dataclass(frozen=True)
class BPProduct:
    """FIR Blaschke-Potapov product.

    The first gamma factors carry alpha = inf (anti-causal, z - 1 terms),
    the rest alpha = 0 (causal, 1/z - 1 terms).  The constant (co)isometry
    U multiplies on the right (iso) or on the left (coiso).
    """

    side: str
    gamma: int
    vs: tuple
    U: np.ndarray

    def __post_init__(self):
        if self.side not in ("iso", "coiso"):
            raise ValueError(f"unknown side {self.side!r}")
        U = np.asarray(self.U, dtype=complex)
        object.__setattr__(self, "U", U)
        p, m = U.shape
        if self.side == "iso" and p < m:
            raise ValueError("iso side needs p >= m")
        if self.side == "coiso" and m < p:
            raise ValueError("coiso side needs m >= p")
        if _check_core_unitary(U, self.side) > _UNIT_TOL:
            raise ValueError("U fails the (co)isometry invariant")
        k = p if self.side == "iso" else m
        vs = tuple(np.asarray(v, dtype=complex).reshape(-1) for v in self.vs)
        for v in vs:
            if v.size != k:
                raise ValueError(f"factor vectors must live in C^{k}")
            if abs(v.conj() @ v - 1.0) > _UNIT_TOL:
                raise ValueError("factor vectors must be unit vectors")
        object.__setattr__(self, "vs", vs)
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

    def factors(self):
        """The d elementary factors with their FIR alphas."""
        return [BPFactor(math.inf if j < self.gamma else 0.0, v)
                for j, v in enumerate(self.vs)]


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


def synth_all_forms(prod):
    """Evaluation closures for the three equivalent product forms.

    The second and third forms re-express one sub-product through factor
    inverses (evaluated via an explicit matrix inverse); all three agree
    pointwise off the poles.
    """
    g, d, k = prod.gamma, prod.d, prod.k
    anti = [BPFactor(math.inf, v) for v in prod.vs]
    causal = [BPFactor(0.0, v) for v in prod.vs]
    U = prod.U

    def chain(factors, z):
        out = np.eye(k)
        for f in factors:
            out = out @ factor_eval(f, z)
        return out

    if prod.side == "iso":
        # anti factors, then causal factors, then U on the right
        def core1(z):
            return chain(anti[:g], z) @ chain(causal[g:], z)

        def core2(z):
            inv = np.linalg.inv(chain(anti[g:][::-1], z))
            return chain(anti[:g], z) @ inv

        def core3(z):
            inv = np.linalg.inv(chain(causal[:g][::-1], z))
            return inv @ chain(causal[g:], z)

        def wrap(core):
            return lambda z: core(z) @ U
    else:
        # U on the left, then causal factors, then anti factors
        def core1(z):
            return chain(causal[g:], z) @ chain(anti[:g], z)

        def core2(z):
            inv = np.linalg.inv(chain(anti[g:][::-1], z))
            return inv @ chain(anti[:g], z)

        def core3(z):
            inv = np.linalg.inv(chain(causal[:g][::-1], z))
            return chain(causal[g:], z) @ inv

        def wrap(core):
            return lambda z: U @ core(z)

    return wrap(core1), wrap(core2), wrap(core3)


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


def random_params(p, m, d, gamma=0, seed=None, side=None):
    if side is None:
        side = "iso" if p >= m else "coiso"
    rng = np.random.default_rng(seed)
    ang = rng.uniform(0.0, 2.0 * np.pi, chart_size(side, p, m, d))
    return AngleParams(side, p, m, d, gamma, ang)


def random_member(p, m, d, gamma=0, seed=None, side=None):
    """Seeded random member of the para-unitary class."""
    return synth(decode_angles(random_params(p, m, d, gamma, seed, side)))


_GOLD = (math.sqrt(5.0) - 1.0) / 2.0


def design_optimize(objective, p, m, d, gamma=0, budget=5000, side=None,
                    seed=0, restarts=3, coarse=8, refine=16):
    """Derivative-free design over the angle chart.

    Coordinate descent with a coarse periodic scan followed by a
    golden-section refinement on each coordinate, restarted from seeded
    random chart points.  `budget` counts objective evaluations; every
    candidate decodes to a member of the class by construction.

    Returns (best AngleParams, best LaurentPoly, best value).
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if side is None:
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
        step = 2.0 * np.pi / coarse
        vals = [(fcur, base)]
        for t in range(1, coarse):
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
        for _ in range(refine):
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
        for r in range(restarts + 1):
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
