"""Seeded benchmark inputs, generated with NumPy only.

Members are built as products of degree-one factors with random unit
vectors, times a (co)isometry from a QR factorization, so membership and
McMillan degree are known by construction and do not come from pufir.
Files use pufir's JSON formats.
"""
from __future__ import annotations

import json
import math

import numpy as np

PERTURBATION = 1e-6


class Poly:
    """F(z) = z^q sum_{i=1..n} z^-i C[i-1], with C of shape (n, p, m)."""

    def __init__(self, q, C):
        self.q = int(q)
        self.C = np.asarray(C, dtype=complex)

    @property
    def p(self):
        return self.C.shape[1]

    @property
    def m(self):
        return self.C.shape[2]

    @property
    def n(self):
        return self.C.shape[0]

    def to_dict(self):
        coeffs = np.stack([self.C.real, self.C.imag], axis=-1).tolist()
        return {"p": self.p, "m": self.m, "q": self.q, "n": self.n,
                "coeffs": coeffs}

    @classmethod
    def from_dict(cls, data):
        arr = np.asarray(data["coeffs"], dtype=float)
        return cls(data["q"], arr[..., 0] + 1j * arr[..., 1])


def unit_vector(rng, k):
    v = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    return v / np.linalg.norm(v)


def isometry(rng, rows, cols):
    """rows x cols matrix with orthonormal columns (rows >= cols)."""
    X = (rng.standard_normal((rows, cols))
         + 1j * rng.standard_normal((rows, cols)))
    Q, _ = np.linalg.qr(X)
    return Q


def member(rng, p, m, d, gamma=0, delay=0):
    """Para-unitary p x m polynomial of known McMillan degree.

    The square k x k core (k = max(p, m)) is a product of `gamma`
    anti-causal factors zP + (I-P) and d-gamma causal factors
    (I-P) + P/z, P = vv* for a random unit v; it is then multiplied by a
    constant isometry (p >= m) or co-isometry (p < m).  The degree is d;
    a delay z^-s multiplies by s*min(p, m) more degree-one factors
    (z^-s times the identity on the smaller side), so the degree becomes
    d + s*min(p, m).
    """
    if not 0 <= gamma <= d:
        raise ValueError("gamma must lie in [0, d]")
    k = max(p, m)
    C = np.eye(k, dtype=complex)[None]
    q = 1
    for j in range(d):
        v = unit_vector(rng, k)
        CP = (C @ v)[:, :, None] * v.conj()[None, None, :]
        CQ = C - CP
        nxt = np.zeros((C.shape[0] + 1, k, k), dtype=complex)
        if j < gamma:
            nxt[:-1] += CP
            nxt[1:] += CQ
            q += 1
        else:
            nxt[:-1] += CQ
            nxt[1:] += CP
        C = nxt
    U = isometry(rng, k, min(p, m))
    C = C @ U if p >= m else U.conj().T @ C
    return Poly(q - delay, C)


def expected_degree(p, m, d, delay=0):
    return d + delay * min(p, m)


def perturb(rng, F):
    """Copy of F with one coefficient entry moved by 1e-6 (a non-member)."""
    C = F.C.copy()
    i = int(rng.integers(F.n))
    r, c = int(rng.integers(F.p)), int(rng.integers(F.m))
    C[i, r, c] += PERTURBATION
    return Poly(F.q, C)


def chart_size(p, m, d):
    k = p if p >= m else m
    return d * (2 * k - 1) + k * k


def angles(rng, p, m, d, gamma):
    """Angle-file contents: a uniform draw over the chart."""
    draw = rng.uniform(0.0, 2.0 * math.pi, chart_size(p, m, d))
    return {"side": "iso" if p >= m else "coiso", "p": p, "m": m, "d": d,
            "gamma": gamma, "angles": draw.tolist()}


def write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)
