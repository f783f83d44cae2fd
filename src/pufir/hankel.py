"""Block-Hankel matrices of FIR systems.

`block_hankel` builds every Hankel matrix from a coefficient slice; the
ranks of the Hankels of the strictly causal / anti-causal parts give the
McMillan degree.  Membership and the defect structure read the Gram of
H_0 off the coefficient blocks, as lag sums and block products.  Every
sigma is one SVD of the tall side (512x1024 on 2 CPUs: 151 -> 106 ms);
for q = 1, Delta = I - H*H exactly, so its spectrum is 1 - sigma^2.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

__all__ = [
    "BlockHankel", "HankelPair", "DefectReport", "ParaunitaryResult",
    "block_hankel", "stack_B", "hankel_causal", "hankel_anticausal",
    "hankel_pair", "numerical_rank", "mcmillan_degree",
    "is_paraunitary_hankel", "defect_structure",
]

RANK_TOL = 1e-10
DEFAULT_TOL = 1e-9
_ABS_FLOOR = 1e-14


@dataclass(frozen=True)
class BlockHankel:
    """Block matrix constant along block anti-diagonals."""

    data: np.ndarray

    def singular_values(self):
        """Descending sigma by one SVD of the tall side: LAPACK's QR path on
        data.T beats LQ on a wide data (R-SVD; 512x1024: 151 -> 106 ms)."""
        rows, cols = self.data.shape
        if not rows * cols:
            return np.zeros(0)
        return np.linalg.svd(self.data.T if rows < cols else self.data,
                             compute_uv=False)


@dataclass(frozen=True)
class HankelPair:
    """Hankel matrices of the strictly causal / strictly anti-causal parts."""

    H: BlockHankel
    H_hat: BlockHankel


def block_hankel(blocks, pad, rows=None, cols=None):
    """Dense rows*p x cols*m block Hankel of an (n, p, m) block array.

    Block (i, j) is seq[i + j] of seq = pad zero blocks, then blocks[0],
    blocks[1], ..., then zeros; square with n + pad block rows by default.
    """
    n, p, m = blocks.shape
    rows = n + pad if rows is None else rows
    cols = n + pad if cols is None else cols
    seq = np.zeros((rows + cols - 1, p, m), dtype=complex)
    tail = seq[pad:]
    tail[:n] = blocks[:len(tail)]
    window = sliding_window_view(seq, cols, axis=0)     # [i, :, :, j]
    data = np.array(window.transpose(0, 1, 3, 2), order="C")
    return data.reshape(rows * p, cols * m)


def stack_B(F):
    """Block column of max(-q, 0) zero blocks over B_1 ... B_n."""
    return block_hankel(F.coeffs, max(-F.q, 0), cols=1)


def hankel_causal(F):
    """Hankel matrix of a strictly causal polynomial, padded by its delay.

    Block (i, j) equals B_{i+j+1-eta} with eta = -q; the first block row
    is the impulse response.  More padding is a further delay,
    hankel_causal(F.shift(-k)).
    """
    if F.q > 0:
        raise ValueError("hankel_causal needs a strictly causal polynomial "
                         f"(q <= 0), got q={F.q}")
    return hankel_pair(F).H


def hankel_anticausal(F):
    """Hankel matrix of a strictly anti-causal polynomial, reversed order.

    This is the causal Hankel of the reversed coefficients B_n ... B_1,
    padded by q - n - 1.
    """
    if F.q < F.n + 1:
        raise ValueError("hankel_anticausal needs a strictly anti-causal "
                         f"polynomial (q >= n+1), got q={F.q}, n={F.n}")
    return hankel_pair(F).H_hat


def hankel_pair(F):
    """Hankel matrices of F_r and F_l of F = F_l + D + F_r.

    F_r = B_k, k > q, behind max(-q, 0) zero blocks, exists iff q < n;
    F_l = B_k, k < q, reversed behind max(q - 1 - n, 0) zero blocks,
    exists iff q >= 2.  An absent part gives an empty 0x0 member.
    """
    C, q, n = F.coeffs, F.q, F.n
    H = H_hat = BlockHankel(np.zeros((0, 0), dtype=complex))
    if q < n:
        H = BlockHankel(block_hankel(C[max(q, 0):], max(-q, 0)))
    if q >= 2:
        H_hat = BlockHankel(block_hankel(C[:q - 1][::-1], max(q - 1 - n, 0)))
    return HankelPair(H, H_hat)


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


def _blocks(F):
    """Role and blocks C_j = B_j (B_j* if co-iso), shape (n, k, s): H_0*H_0
    (H_0H_0*) has block (u, v) = sum_i C_{u+i}* C_{v+i}, s = min(p, m)."""
    if F.p >= F.m:
        return "isometry", F.coeffs
    return "co-isometry", F.coeffs.conj().transpose(0, 2, 1)


def is_paraunitary_hankel(F, tol=DEFAULT_TOL):
    """Membership test for the para-unitary class via the Hankel matrix.

    H_0 is the Hankel of the q = 0 normalization.  F is a member iff the
    first block column of I - H_0*H_0 (first block row of I - H_0H_0* for
    co-isometries), the lag sums sum_j C_{j+k}* C_j - delta_k I, vanishes.
    """
    role, C = _blocks(F)
    n, k, s = C.shape
    S = C.reshape(n * k, s)             # C_1 ... C_n stacked
    S_h = S.conj().T
    lags = [S_h[:, lag * k:] @ S[:(n - lag) * k] for lag in range(n)]
    lags[0] -= np.eye(s)
    res = max(float(np.max(np.abs(L))) for L in lags)
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


def defect_structure(F, tol=DEFAULT_TOL, sigma=None):
    """Structure of I - H_0*H_0 (or I - H_0H_0*) for a para-unitary F.

    The Gram comes from coefficient block products.  Its leading block
    must vanish together with its couplings; the trailing block Delta is
    reported with its PSD / weak-contraction classification and, in the
    square case, whether it is an orthogonal projection.  For q = 1,
    Delta = I - H*H (I - HH*) exactly, H = hankel_pair(F).H: given sigma =
    H.singular_values(), the eigenvalues are sort(1 - sigma^2), no eigvalsh.
    """
    role, C = _blocks(F)
    n, k, s = C.shape
    rows = C.transpose(1, 0, 2).reshape(k, n * s)
    X = rows.conj().T @ rows            # every K(u, v) = C_u* C_v
    blocks = X.reshape(n, s, n, s)
    for u in range(n - 2, -1, -1):      # G(u, v) = K(u, v) + G(u+1, v+1)
        blocks[u, :, :-1] += blocks[u + 1, :, 1:]
    np.negative(X, out=X)
    X.flat[::n * s + 1] += 1.0          # X = I - G
    # the membership residual of is_paraunitary_hankel, read off X
    residual = float(np.max(np.abs(X[:s])))
    if residual > tol:
        raise ValueError("defect_structure requires a para-unitary input "
                         f"(residual {residual:.3e})")
    zero_ok = float(np.max(np.abs(X[:s, :s]))) <= tol
    coupling = max(float(np.max(np.abs(X[:s, s:]), initial=0.0)),
                   float(np.max(np.abs(X[s:, :s]), initial=0.0)))
    delta = X[s:, s:]       # Hermitian: eigvalsh reads its lower triangle
    eigs = (np.sort(1.0 - np.square(sigma)) if F.q == 1 and sigma is not None
            else np.linalg.eigvalsh(delta) if delta.size else np.zeros(0))
    psd = bool(eigs.size == 0 or eigs.min() >= -tol)
    contraction = bool(eigs.size == 0 or eigs.max() <= 1.0 + tol)
    projection = bool(F.p == F.m and
                      np.all(np.minimum(np.abs(eigs), np.abs(eigs - 1)) <= tol))
    return DefectReport(role, zero_ok, coupling <= tol, eigs,
                        psd, contraction, projection)
