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
    try:
        blocks = np.array(coeffs, dtype=complex)
    except ValueError as exc:       # ragged: blocks of unequal shapes
        if np.ndim(coeffs[0]) != 2:
            raise ValueError("coefficients must be 2-d matrices") from exc
        raise ValueError("all coefficients must share the same p x m "
                         "shape") from exc
    if blocks.ndim >= 1 and len(blocks) == 0:
        raise ValueError("a Laurent polynomial needs at least one coefficient")
    if blocks.ndim != 3:
        raise ValueError("coefficients must be 2-d matrices")
    if 0 in blocks.shape[1:]:
        raise ValueError("coefficient matrices must be at least 1 x 1, got "
                         f"{blocks.shape[1]} x {blocks.shape[2]}")
    if not np.isfinite(blocks).all():
        raise ValueError("coefficients must be finite (no NaN or Inf)")
    blocks.setflags(write=False)
    return blocks


@dataclass(frozen=True)
class LaurentPoly:
    """p x m matrix Laurent polynomial F(z) = z^q sum_{k=1..n} z^-k B_k.

    Value semantics: instances are immutable, all operations return new
    polynomials.  The coefficients form one read-only (n, p, m) array with
    B_k = coeffs[k-1] at the power q - k, so the represented powers run
    from q - n up to q - 1.
    """

    q: int
    coeffs: np.ndarray

    def __init__(self, q, coeffs):
        object.__setattr__(self, "q", int(q))
        object.__setattr__(self, "coeffs", _as_blocks(coeffs))

    # -- basic shape info -------------------------------------------------

    @property
    def p(self):
        return self.coeffs.shape[1]

    @property
    def m(self):
        return self.coeffs.shape[2]

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
        return bool(np.max(np.abs(self.coeffs)) <= tol)

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
        return LaurentPoly(self.q, c * self.coeffs)

    def trim(self):
        """Strip zero leading/trailing coefficient blocks, adjusting q and n.

        The zero polynomial trims to the canonical form q=0, n=1, B_1=0.
        """
        nz = np.flatnonzero(self.coeffs.any(axis=(1, 2)))
        if not nz.size:
            return zero(self.p, self.m)
        i, j = nz[0], nz[-1]
        return LaurentPoly(self.q - i, self.coeffs[i:j + 1])

    def __add__(self, other):
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if (self.p, self.m) != (other.p, other.m):
            raise ValueError("dimension mismatch in add: "
                             f"{self.p}x{self.m} vs {other.p}x{other.m}")
        q = max(self.q, other.q)
        lo = min(self.q - self.n, other.q - other.n)
        out = np.zeros((q - lo, self.p, self.m), dtype=complex)
        out[q - self.q:q - self.q + self.n] += self.coeffs
        out[q - other.q:q - other.q + other.n] += other.coeffs
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
        l = other.n
        out = np.zeros((self.n + l - 1, self.p, other.m), dtype=complex)
        for k, B in enumerate(self.coeffs):
            out[k:k + l] += B @ other.coeffs
        return LaurentPoly(self.q + other.q - 1, out)

    def __matmul__(self, other):
        return self.multiply(other)

    def conjugate(self):
        """The m x p conjugate F#(z) = (F(1/z*))*.

        On the unit circle this is the pointwise adjoint of F.
        """
        rev = self.coeffs[::-1].conj().transpose(0, 2, 1)
        return LaurentPoly(self.n + 1 - self.q, rev)

    def split(self):
        """Decompose F = F_l + D + F_r.

        F_r is strictly causal (negative powers only), F_l strictly
        anti-causal (positive powers only) and D is the z^0 coefficient.
        """
        q = self.q
        left = self.coeffs[:max(q - 1, 0)]        # B_k with k < q
        right = self.coeffs[max(q, 0):]           # B_k with k > q
        zero_part = zero(self.p, self.m)
        return (LaurentPoly(q, left) if len(left) else zero_part,
                self.coefficient(0).copy(),
                LaurentPoly(min(q, 0), right) if len(right) else zero_part)

    # -- analysis -----------------------------------------------------------

    def causality(self):
        """Return (strongest label, set of all applicable causality flags)."""
        q, n = self.q, self.n
        # in label priority; for n >= 1 one of q <= 1, q >= n and
        # 2 <= q <= n - 1 always holds
        holds = (("strictly-causal", q <= 0),
                 ("strictly-anti-causal", q >= n + 1),
                 ("causal", q <= 1),
                 ("anti-causal", q >= n),
                 ("mixed-Laurent", 2 <= q <= n - 1))
        flags = {label for label, ok in holds if ok}
        return next(label for label, ok in holds if ok), flags

    def unitary_defect(self):
        """Worst deviation from (co-)isometry over unit-circle samples.

        Samples F at the 4(n+1) equispaced points z_j on |z|=1, which
        oversample the degree-2n trigonometric identity by a factor of two,
        and returns the maximum Frobenius norm of F*F - I (p >= m) or
        FF* - I (m > p).  Up to the unimodular factor z^(q-1), which cancels
        in the Gram, the samples are one zero-padded FFT of the coefficients.
        """
        G = np.fft.fft(self.coeffs, 4 * (self.n + 1), axis=0)
        Gh = G.conj().transpose(0, 2, 1)
        gram = Gh @ G if self.p >= self.m else G @ Gh
        gram -= np.eye(min(self.p, self.m))
        return float(np.max(np.linalg.norm(gram, axis=(1, 2))))

    def allclose(self, other, tol=1e-12):
        """Coefficient-wise equality as functions (ignoring representation)."""
        return (self - other).is_zero(tol)


def zero(p, m):
    """Canonical zero polynomial: q=0, single zero coefficient."""
    return LaurentPoly(0, np.zeros((1, p, m), dtype=complex))


def constant(M):
    """Constant polynomial F(z) = M (the coefficient sits at z^0)."""
    return LaurentPoly(1, [M])


def delay(M, k=1):
    """F(z) = z^-k M."""
    return LaurentPoly(1 - int(k), [M])
