"""State-space realizations of causal FIR polynomials.

Naive shift realizations, minimal realizations by balanced square-root
Hankel factorization, Stein-equation Gramians and Gramian-based
normalization of the realization matrix.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hankel import (DEFAULT_TOL, RANK_TOL, hankel_causal, numerical_rank,
                     stack_B)

__all__ = [
    "Realization", "GramianPair",
    "naive_realization", "minimal_realization", "transfer",
    "gramians", "check_unitary_realization", "gramian_normalize",
]


@dataclass(frozen=True)
class Realization:
    """Quadruple (A, B, C, D) with transfer C(zI-A)^{-1}B + D."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    rank_ambiguous: bool = field(default=False)

    @property
    def nu(self):
        return self.A.shape[0]

    @property
    def p(self):
        return self.D.shape[0]

    @property
    def m(self):
        return self.D.shape[1]

    @property
    def R(self):
        """The (nu+p) x (nu+m) realization matrix [[A, B], [C, D]]."""
        return np.block([[self.A, self.B], [self.C, self.D]])


def _split_causal(F):
    """(D, F_r) of a causal polynomial; F_r is None when F is constant."""
    if F.q > 1:
        raise ValueError(f"polynomial is not causal (q={F.q} > 1)")
    _, D, right = F.split()
    return D, (right if F.q < F.n else None)


def _static(D):
    """The nu = 0 realization of the constant transfer function D."""
    p, m = D.shape
    return Realization(np.zeros((0, 0), dtype=complex),
                       np.zeros((0, m), dtype=complex),
                       np.zeros((p, 0), dtype=complex), D)


def naive_realization(F):
    """Shift realization A=J_n, B=coefficient stack, C=[I_p, 0], D=0.

    Accepts any causal polynomial; a z^0 coefficient (q=1) goes into D and
    the strictly causal tail is realized with the block shift.
    """
    D, tail = _split_causal(F)
    if tail is None:
        return _static(D)
    B = stack_B(tail)
    A = np.eye(len(B), k=F.p, dtype=complex)
    C = np.eye(F.p, len(B), dtype=complex)
    return Realization(A, B, C, D)


def minimal_realization(F):
    """Minimal realization via balanced square-root Hankel factorization.

    SVD the block Hankel of the Markov parameters, split H = O * Ctr with
    O = U sqrt(S), Ctr = sqrt(S) V*, and recover A from the row-shifted
    Hankel.  The resulting A is nilpotent and the realization is balanced
    (equal diagonal Gramians).  A rank decision within a factor 10 of the
    threshold sets `rank_ambiguous` on the result.
    """
    D, tail = _split_causal(F)
    if tail is None or not tail.coeffs.any():
        return _static(D)
    p, m = F.p, F.m
    H = hankel_causal(tail).data
    U, sigma, Vh = np.linalg.svd(H)
    r = numerical_rank(sigma)
    ambiguous = bool(any(
        RANK_TOL / 10 <= s / sigma[0] <= RANK_TOL * 10 for s in sigma))
    sr = np.sqrt(sigma[:r])
    # the row-shifted Hankel is H[p:] above a zero block row, so only the
    # first len(H) - p rows of U meet it
    A = (U[:-p, :r].conj().T @ H[p:] @ Vh[:r].conj().T) / np.outer(sr, sr)
    B = sr[:, None] * Vh[:r, :m]
    C = U[:p, :r] * sr
    return Realization(A, B, C, D, ambiguous)


def transfer(R, z):
    """Evaluate C(zI - A)^{-1}B + D by linear solve."""
    z = complex(z)
    if R.nu == 0:
        return R.D.copy()
    M = z * np.eye(R.nu) - R.A
    return R.C @ np.linalg.solve(M, R.B) + R.D


@dataclass(frozen=True)
class GramianPair:
    W_cont: np.ndarray
    W_obs: np.ndarray


def _stein_solve(A, RHS, tol):
    """Solve W - A W A* = RHS by doubling, W = sum_k A^k RHS A*^k.

    Each pass adds the next 2^j terms and squares A, so a nilpotent A is
    summed exactly once its power vanishes; 64 passes cover every
    spectral radius that rounds below 1.  The residual is checked
    relative to the size of RHS (a NaN fails the check).
    """
    W, Ak = RHS, A
    for _ in range(64):
        if not Ak.any():
            break
        W = W + Ak @ W @ Ak.conj().T
        Ak = Ak @ Ak
    W = (W + W.conj().T) / 2.0
    residual = np.max(np.abs(W - A @ W @ A.conj().T - RHS), initial=0.0)
    if not residual <= tol * max(1.0, np.max(np.abs(RHS), initial=0.0)):
        raise RuntimeError("Stein solve residual exceeds tolerance")
    return W


def gramians(R, tol=DEFAULT_TOL):
    """Controllability and observability Gramians of a Schur-stable A."""
    if R.nu and np.max(np.abs(np.linalg.eigvals(R.A))) >= 1.0:
        raise ValueError("A must be Schur stable (spectral radius < 1)")
    return GramianPair(_stein_solve(R.A, R.B @ R.B.conj().T, tol),
                       _stein_solve(R.A.conj().T, R.C.conj().T @ R.C, tol))


def check_unitary_realization(R, tol=DEFAULT_TOL):
    """Classify R as isometric / co-isometric / both / neither.

    Returns (label, residual_isometry, residual_coisometry) where the
    residuals are max-abs entries of R*R - I and RR* - I.
    """
    M = R.R
    res_iso = float(np.max(np.abs(M.conj().T @ M - np.eye(M.shape[1]))))
    res_coiso = float(np.max(np.abs(M @ M.conj().T - np.eye(M.shape[0]))))
    iso = res_iso <= tol
    coiso = res_coiso <= tol
    if iso and coiso:
        label = "both"
    elif iso:
        label = "isometric"
    elif coiso:
        label = "co-isometric"
    else:
        label = "neither"
    return label, res_iso, res_coiso


def _psd_sqrt(W):
    """(W^{1/2}, W^{-1/2}) of a Hermitian positive definite W by one eigh."""
    evals, evecs = np.linalg.eigh(W)
    if not np.all(evals > 0):
        raise ValueError("Gramian is singular, cannot invert its root")
    root = np.sqrt(evals)
    return (evecs * root) @ evecs.conj().T, (evecs / root) @ evecs.conj().T


def gramian_normalize(R, tol=DEFAULT_TOL):
    """State transformation bringing one Gramian to the identity.

    For p >= m, T = W_obs^{1/2} makes the new observability Gramian I;
    otherwise T = W_cont^{-1/2} makes the new controllability Gramian I.
    The transfer function is unchanged.
    """
    if R.nu == 0:
        return R
    pair = gramians(R, tol)
    if R.p >= R.m:
        T, Tinv = _psd_sqrt(pair.W_obs)
    else:
        Tinv, T = _psd_sqrt(pair.W_cont)
    return Realization(T @ R.A @ Tinv, T @ R.B, R.C @ Tinv, R.D,
                       R.rank_ambiguous)
