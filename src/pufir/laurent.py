"""Matrix-valued Laurent polynomials z^q (z^-1 B_1 + ... + z^-n B_n).

These are the transfer functions of rectangular, not necessarily causal
FIR systems.  The integer shift q controls causality; the coefficients
B_1 ... B_n are dense complex p x m matrices.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LaurentPoly", "constant", "delay", "zero"]


def _as_blocks(coeffs):
    blocks = tuple(np.array(B, dtype=complex) for B in coeffs)
    if not blocks:
        raise ValueError("a Laurent polynomial needs at least one coefficient")
    shape = blocks[0].shape
    if len(shape) != 2:
        raise ValueError("coefficients must be 2-d matrices")
    for B in blocks:
        if B.shape != shape:
            raise ValueError("all coefficients must share the same p x m shape")
        if not np.isfinite(B).all():
            raise ValueError("coefficients must be finite (no NaN or Inf)")
        B.setflags(write=False)
    return blocks


@dataclass(frozen=True)
class LaurentPoly:
    """p x m matrix Laurent polynomial F(z) = z^q sum_{k=1..n} z^-k B_k.

    Value semantics: instances are immutable, all operations return new
    polynomials.  The coefficient B_k sits at the power q - k, so the
    represented powers run from q - n up to q - 1.
    """

    q: int
    coeffs: tuple

    def __init__(self, q, coeffs):
        object.__setattr__(self, "q", int(q))
        object.__setattr__(self, "coeffs", _as_blocks(coeffs))

    # -- basic shape info -------------------------------------------------

    @property
    def p(self):
        return self.coeffs[0].shape[0]

    @property
    def m(self):
        return self.coeffs[0].shape[1]

    @property
    def n(self):
        return len(self.coeffs)

    def coefficient(self, power):
        """Coefficient matrix of z**power (zero matrix if absent)."""
        k = self.q - power
        if 1 <= k <= self.n:
            return self.coeffs[k - 1]
        return np.zeros((self.p, self.m), dtype=complex)

    def is_zero(self, tol=0.0):
        return all(np.max(np.abs(B)) <= tol for B in self.coeffs)

    # -- evaluation -------------------------------------------------------

    def eval(self, z):
        """Evaluate at a nonzero complex scalar (Horner in 1/z)."""
        z = complex(z)
        if z == 0:
            raise ValueError("Laurent polynomial cannot be evaluated at z=0")
        w = 1.0 / z
        acc = self.coeffs[-1].copy()
        for B in self.coeffs[-2::-1]:
            acc = acc * w + B
        return (z ** self.q) * w * acc

    __call__ = eval

    # -- structural operations ---------------------------------------------

    def shift(self, k):
        """Multiply by z^k, i.e. add k to the power shift q."""
        return LaurentPoly(self.q + int(k), self.coeffs)

    def scale(self, c):
        return LaurentPoly(self.q, tuple(c * B for B in self.coeffs))

    def trim(self, tol=0.0):
        """Strip zero leading/trailing coefficient blocks, adjusting q and n.

        The zero polynomial trims to the canonical form q=0, n=1, B_1=0.
        """
        nz = [i for i, B in enumerate(self.coeffs) if np.max(np.abs(B)) > tol]
        if not nz:
            return zero(self.p, self.m)
        i, j = nz[0], nz[-1]
        return LaurentPoly(self.q - i, self.coeffs[i:j + 1])

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if (self.p, self.m) != (other.p, other.m):
            raise ValueError("dimension mismatch in add: "
                             f"{self.p}x{self.m} vs {other.p}x{other.m}")
        hi = max(self.q - 1, other.q - 1)
        lo = min(self.q - self.n, other.q - other.n)
        q = hi + 1
        out = [np.zeros((self.p, self.m), dtype=complex)
               for _ in range(hi - lo + 1)]
        for poly in (self, other):
            for k, B in enumerate(poly.coeffs, start=1):
                out[q - (poly.q - k) - 1] += B
        return LaurentPoly(q, out)

    def __neg__(self):
        return self.scale(-1.0)

    def __sub__(self, other):
        return self + (-other)

    def multiply(self, other):
        """Polynomial product by coefficient convolution."""
        if not isinstance(other, LaurentPoly):
            raise TypeError("can only multiply by another LaurentPoly")
        if self.m != other.p:
            raise ValueError("inner dimension mismatch in multiply: "
                             f"{self.p}x{self.m} times {other.p}x{other.m}")
        n, l = self.n, other.n
        out = [np.zeros((self.p, other.m), dtype=complex)
               for _ in range(n + l - 1)]
        for k, B in enumerate(self.coeffs, start=1):
            for j, C in enumerate(other.coeffs, start=1):
                out[k + j - 2] += B @ C
        return LaurentPoly(self.q + other.q - 1, out)

    def __matmul__(self, other):
        return self.multiply(other)

    def conjugate(self):
        """The m x p conjugate F#(z) = (F(1/z*))*.

        On the unit circle this is the pointwise adjoint of F.
        """
        rev = tuple(B.conj().T for B in self.coeffs[::-1])
        return LaurentPoly(self.n + 1 - self.q, rev)

    def split(self):
        """Decompose F = F_l + D + F_r.

        F_r is strictly causal (negative powers only), F_l strictly
        anti-causal (positive powers only) and D is the z^0 coefficient.
        """
        left, right = [], []
        for k, B in enumerate(self.coeffs, start=1):
            power = self.q - k
            if power > 0:
                left.append((power, B))
            elif power < 0:
                right.append((power, B))
        D = self.coefficient(0).copy()
        return (_from_terms(left, self.p, self.m),
                D,
                _from_terms(right, self.p, self.m))

    # -- analysis -----------------------------------------------------------

    def causality(self):
        """Return (strongest label, set of all applicable causality flags)."""
        q, n = self.q, self.n
        flags = set()
        if q <= 0:
            flags |= {"strictly-causal", "causal"}
        elif q == 1:
            flags.add("causal")
        if q >= n + 1:
            flags |= {"strictly-anti-causal", "anti-causal"}
        elif q == n:
            flags.add("anti-causal")
        if 2 <= q <= n - 1:
            flags.add("mixed-Laurent")
        for label in ("strictly-causal", "strictly-anti-causal",
                      "causal", "anti-causal", "mixed-Laurent"):
            if label in flags:
                return label, flags
        raise AssertionError("causality flags cannot be empty")

    def unitary_defect(self, sample_count=None):
        """Worst deviation from (co-)isometry over unit-circle samples.

        Samples F at equispaced points z_j on |z|=1 and returns the maximum
        Frobenius norm of F*F - I (p >= m) or FF* - I (m > p).  The default
        sample count 4(n+1) oversamples the degree-2n trigonometric identity
        by a factor of two.
        """
        count = int(sample_count) if sample_count else 4 * (self.n + 1)
        if count < 1:
            raise ValueError("sample_count must be >= 1")
        worst = 0.0
        eye = np.eye(min(self.p, self.m))
        for j in range(count):
            z = np.exp(2j * np.pi * j / count)
            G = self.eval(z)
            gram = G.conj().T @ G if self.p >= self.m else G @ G.conj().T
            worst = max(worst, float(np.linalg.norm(gram - eye, "fro")))
        return worst

    def allclose(self, other, tol=1e-12):
        """Coefficient-wise equality as functions (ignoring representation)."""
        return (self - other).is_zero(tol)


def _from_terms(terms, p, m):
    if not terms:
        return zero(p, m)
    hi = max(pw for pw, _ in terms)
    lo = min(pw for pw, _ in terms)
    q = hi + 1
    out = [np.zeros((p, m), dtype=complex) for _ in range(hi - lo + 1)]
    for pw, B in terms:
        out[q - pw - 1] += B
    return LaurentPoly(q, out)


def zero(p, m):
    """Canonical zero polynomial: q=0, single zero coefficient."""
    return LaurentPoly(0, [np.zeros((p, m), dtype=complex)])


def constant(M):
    """Constant polynomial F(z) = M (the coefficient sits at z^0)."""
    return LaurentPoly(1, [M])


def delay(M, k=1):
    """F(z) = z^-k M."""
    return LaurentPoly(1 - int(k), [M])
