"""Block-Hankel matrices of FIR systems.

Builds the Hankel matrices attached to the strictly causal / strictly
anti-causal parts of a matrix Laurent polynomial, extracts the McMillan
degree from their ranks, and runs the Hankel-based para-unitarity test
together with the structure of its defect.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .laurent import LaurentPoly

__all__ = [
    "BlockHankel", "HankelPair", "DefectReport", "ParaunitaryResult",
    "stack_B", "hankel_causal", "hankel_anticausal", "hankel_pair",
    "numerical_rank", "mcmillan_degree",
    "is_paraunitary_hankel", "defect_structure",
]

RANK_TOL = 1e-10
DEFAULT_TOL = 1e-9
_ABS_FLOOR = 1e-14


@dataclass(frozen=True)
class BlockHankel:
    """Block matrix constant along block anti-diagonals."""

    p: int
    m: int
    block_rows: int
    block_cols: int
    data: np.ndarray

    def block(self, i, j):
        return self.data[i * self.p:(i + 1) * self.p,
                         j * self.m:(j + 1) * self.m]

    @property
    def is_empty(self):
        return self.data.size == 0

    def singular_values(self):
        if self.is_empty:
            return np.zeros(0)
        return np.linalg.svd(self.data, compute_uv=False)


@dataclass(frozen=True)
class HankelPair:
    """Hankel matrices of the strictly causal / strictly anti-causal parts."""

    H: BlockHankel
    H_hat: BlockHankel


def _empty_hankel(p, m):
    return BlockHankel(p, m, 0, 0, np.zeros((0, 0), dtype=complex))


def stack_B(F):
    """Block column of max(-q, 0) zero blocks over B_1 ... B_n."""
    zeros = np.zeros((max(-F.q, 0), F.p, F.m), dtype=complex)
    return np.concatenate((zeros, F.coeffs)).reshape(-1, F.m)


def hankel_causal(F):
    """Hankel matrix of a strictly causal polynomial, padded by its delay.

    Block (i, j) equals B_{i+j+1-eta} with eta = -q; the first block row
    is the impulse response.  More padding is a further delay,
    hankel_causal(F.shift(-k)).
    """
    if F.q > 0:
        raise ValueError("hankel_causal needs a strictly causal polynomial "
                         f"(q <= 0), got q={F.q}")
    p, m, n, eta = F.p, F.m, F.n, -F.q
    size = n + eta
    # block (i, j) is seq[i + j]: eta zero blocks, B_1 ... B_n, zeros
    seq = np.zeros((2 * size - 1, p, m), dtype=complex)
    seq[eta:eta + n] = F.coeffs
    rows = sliding_window_view(seq, size, axis=0)      # [i, :, :, j]
    data = np.array(rows.transpose(0, 1, 3, 2), order="C")
    return BlockHankel(p, m, size, size, data.reshape(size * p, size * m))


def hankel_anticausal(F):
    """Hankel matrix of a strictly anti-causal polynomial, reversed order.

    This is the causal Hankel of the reversed coefficients B_n ... B_1,
    padded by q - n - 1.
    """
    if F.q < F.n + 1:
        raise ValueError("hankel_anticausal needs a strictly anti-causal "
                         f"polynomial (q >= n+1), got q={F.q}, n={F.n}")
    return hankel_causal(LaurentPoly(F.n + 1 - F.q, F.coeffs[::-1]))


def hankel_pair(F):
    """Hankel matrices of F_r and F_l of F = F_l + D + F_r.

    F_r exists iff q < n and F_l iff q >= 2; an absent part gives an
    empty 0x0 member.
    """
    left, _, right = F.split()
    empty = _empty_hankel(F.p, F.m)
    return HankelPair(hankel_causal(right) if F.q < F.n else empty,
                      hankel_anticausal(left) if F.q >= 2 else empty)


def numerical_rank(sigma):
    """Rank by relative singular-value thresholding.

    Counts sigma_k > RANK_TOL * sigma_1, with an absolute floor when the
    leading singular value itself vanishes.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.size == 0 or sigma[0] <= _ABS_FLOOR:
        return 0
    return int(np.sum(sigma > RANK_TOL * sigma[0]))


def mcmillan_degree(F):
    """McMillan degree rank(H) + rank(H_hat) of the Hankel pair."""
    pair = hankel_pair(F)
    return (numerical_rank(pair.H.singular_values())
            + numerical_rank(pair.H_hat.singular_values()))


@dataclass(frozen=True)
class ParaunitaryResult:
    member: bool
    residual: float
    role: str                 # "isometry" or "co-isometry"


def _normalized_h0(F):
    """H_0: the Hankel of the q = 0 normalization, without padding."""
    return hankel_causal(F.shift(-F.q)).data


def is_paraunitary_hankel(F, tol=DEFAULT_TOL):
    """Membership test for the para-unitary class via the Hankel matrix.

    Only the first block column of I - H_0*H_0 (first block row of
    I - H_0H_0* for co-isometries) is formed; its blocks are the
    coefficient lag sums sum_j B_{j+k}*B_j - delta_k I.
    """
    A = _normalized_h0(F)
    if F.p >= F.m:
        role, s = "isometry", F.m
        gram = A[:, :s].conj().T @ A
    else:
        role, s = "co-isometry", F.p
        gram = A[:s, :] @ A.conj().T
    gram[:, :s] -= np.eye(s)
    res = float(np.max(np.abs(gram)))
    return ParaunitaryResult(res <= tol, res, role)


@dataclass(frozen=True)
class DefectReport:
    role: str
    zero_block_ok: bool
    coupling_ok: bool
    delta_eigenvalues: np.ndarray
    delta_psd: bool
    delta_contraction: bool
    delta_projection: bool


def defect_structure(F, tol=DEFAULT_TOL):
    """Structure of I - H*H (or I - HH*) for a para-unitary polynomial.

    The leading block must vanish together with its couplings; the trailing
    block Delta is reported with its PSD / weak-contraction classification
    and, in the square case, whether it is an orthogonal projection.
    """
    A = _normalized_h0(F)
    p, m = F.p, F.m
    if p >= m:
        role, s = "isometry", m
        X = np.eye(F.n * m) - A.conj().T @ A
    else:
        role, s = "co-isometry", p
        X = np.eye(F.n * p) - A @ A.conj().T
    del A       # H_0 is the largest array; free it before the eigen-solve
    # the membership residual of is_paraunitary_hankel, read off X
    residual = float(np.max(np.abs(X[:s])))
    if residual > tol:
        raise ValueError("defect_structure requires a para-unitary input "
                         f"(residual {residual:.3e})")
    zero_ok = float(np.max(np.abs(X[:s, :s]))) <= tol
    coupling = max(float(np.max(np.abs(X[:s, s:]), initial=0.0)),
                   float(np.max(np.abs(X[s:, :s]), initial=0.0)))
    delta = X[s:, s:]
    herm = (delta + delta.conj().T) / 2.0
    eigs = np.linalg.eigvalsh(herm) if herm.size else np.zeros(0)
    psd = bool(eigs.size == 0 or eigs.min() >= -tol)
    contraction = bool(eigs.size == 0 or eigs.max() <= 1.0 + tol)
    projection = bool(p == m and
                      np.all(np.minimum(np.abs(eigs), np.abs(eigs - 1)) <= tol))
    return DefectReport(role, zero_ok, coupling <= tol, eigs,
                        psd, contraction, projection)
