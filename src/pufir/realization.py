"""State-space realizations of causal FIR polynomials.

Naive shift realizations, minimal realizations by balanced square-root
Hankel factorization, Stein-equation Gramians and Gramian-based
normalization of the realization matrix.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .laurent import LaurentPoly
from .hankel import (DEFAULT_RANK_TOL, DEFAULT_TOL, hankel_causal,
                     numerical_rank, stack_B)

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
        top = np.hstack([self.A, self.B])
        bot = np.hstack([self.C, self.D])
        return np.vstack([top, bot])


def _split_causal(F):
    """Normalize a causal polynomial: return (D, strictly causal tail q=0)."""
    if F.q > 1:
        raise ValueError(f"polynomial is not causal (q={F.q} > 1)")
    D = F.coefficient(0).copy()
    # q = 1 drops the z^0 term; q <= 0 pads -q leading zeros to reach q = 0
    pad = np.zeros((max(-F.q, 0), F.p, F.m), dtype=complex)
    tail = np.concatenate((pad, F.coeffs[max(F.q, 0):]))
    return D, (LaurentPoly(0, tail) if len(tail) else None)


def naive_realization(F):
    """Shift realization A=J_n, B=coefficient stack, C=[I_p, 0], D=0.

    Accepts any causal polynomial; a z^0 coefficient (q=1) goes into D and
    the strictly causal tail is realized with the block shift.
    """
    D, tail = _split_causal(F)
    p, m = F.p, F.m
    if tail is None:
        return Realization(np.zeros((0, 0), dtype=complex),
                           np.zeros((0, m), dtype=complex),
                           np.zeros((p, 0), dtype=complex), D)
    n = tail.n
    A = np.eye(n * p, k=p, dtype=complex)
    B = stack_B(tail, 0)
    C = np.hstack([np.eye(p, dtype=complex),
                   np.zeros((p, (n - 1) * p), dtype=complex)])
    return Realization(A, B, C, D)


def minimal_realization(F, rank_tol=DEFAULT_RANK_TOL):
    """Minimal realization via balanced square-root Hankel factorization.

    SVD the block Hankel of the Markov parameters, split H = O * Ctr with
    O = U sqrt(S), Ctr = sqrt(S) V*, and recover A from the row-shifted
    Hankel.  The resulting A is nilpotent and the realization is balanced
    (equal diagonal Gramians).  A rank decision within a factor 10 of the
    threshold sets `rank_ambiguous` on the result.
    """
    D, tail = _split_causal(F)
    p, m = F.p, F.m
    if tail is None or not tail.coeffs.any():
        return Realization(np.zeros((0, 0), dtype=complex),
                           np.zeros((0, m), dtype=complex),
                           np.zeros((p, 0), dtype=complex), D)
    H = hankel_causal(tail, 0).data
    U, sigma, Vh = np.linalg.svd(H)
    r = numerical_rank(sigma, rank_tol)
    ambiguous = bool(any(
        rank_tol / 10 <= s / sigma[0] <= rank_tol * 10 for s in sigma))
    if r == 0:
        return Realization(np.zeros((0, 0), dtype=complex),
                           np.zeros((0, m), dtype=complex),
                           np.zeros((p, 0), dtype=complex), D, ambiguous)
    sr = np.sqrt(sigma[:r])
    O = U[:, :r] * sr
    Ctr = (sr[:, None]) * Vh[:r, :]
    # row-shifted Hankel: drop the first block row, append a zero block row
    H_up = np.vstack([H[p:, :], np.zeros((p, H.shape[1]), dtype=complex)])
    A = (U[:, :r].conj().T @ H_up @ Vh[:r, :].conj().T) / np.outer(sr, sr)
    B = Ctr[:, :m]
    C = O[:p, :]
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


def _stein_solve(A, RHS):
    """Solve W - A W A* = RHS as a dense linear system in vec(W)."""
    nu = A.shape[0]
    if nu == 0:
        return np.zeros((0, 0), dtype=complex)
    # column-major vec: vec(A W A*) = (conj(A) kron A) vec(W)
    K = np.eye(nu * nu) - np.kron(A.conj(), A)
    w = np.linalg.solve(K, RHS.reshape(-1, order="F"))
    W = w.reshape((nu, nu), order="F")
    return (W + W.conj().T) / 2.0


def gramians(R, tol=DEFAULT_TOL):
    """Controllability and observability Gramians of a Schur-stable A."""
    if R.nu and np.max(np.abs(np.linalg.eigvals(R.A))) >= 1.0:
        raise ValueError("A must be Schur stable (spectral radius < 1)")
    W_cont = _stein_solve(R.A, R.B @ R.B.conj().T)
    W_obs = _stein_solve(R.A.conj().T, R.C.conj().T @ R.C)
    for W, RHS in ((W_cont, R.B @ R.B.conj().T),
                   (W_obs, R.C.conj().T @ R.C)):
        lhs = W - (R.A @ W @ R.A.conj().T if W is W_cont
                   else R.A.conj().T @ W @ R.A)
        if W.size and np.max(np.abs(lhs - RHS)) > tol:
            raise RuntimeError("Stein solve residual exceeds tolerance")
    return GramianPair(W_cont, W_obs)


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


def _psd_sqrt(W, inverse=False):
    """Hermitian PSD square root (or inverse square root) by eigh."""
    evals, evecs = np.linalg.eigh((W + W.conj().T) / 2.0)
    evals = np.clip(evals, 0.0, None)
    if inverse:
        if np.any(evals <= 0):
            raise ValueError("Gramian is singular, cannot invert its root")
        root = 1.0 / np.sqrt(evals)
    else:
        root = np.sqrt(evals)
    return (evecs * root) @ evecs.conj().T


def gramian_normalize(R, mode=None, tol=DEFAULT_TOL):
    """State transformation bringing one Gramian to the identity.

    mode="iso" uses T = W_obs^{1/2} so the new observability Gramian is I;
    mode="coiso" uses T = W_cont^{-1/2} so the new controllability Gramian
    is I.  Defaults to iso for p >= m and coiso otherwise.  The transfer
    function is unchanged.
    """
    if mode is None:
        mode = "iso" if R.p >= R.m else "coiso"
    if mode not in ("iso", "coiso"):
        raise ValueError(f"unknown mode {mode!r}")
    if R.nu == 0:
        return R
    pair = gramians(R, tol)
    if mode == "iso":
        T = _psd_sqrt(pair.W_obs)
        Tinv = _psd_sqrt(pair.W_obs, inverse=True)
    else:
        T = _psd_sqrt(pair.W_cont, inverse=True)
        Tinv = _psd_sqrt(pair.W_cont)
    return Realization(T @ R.A @ Tinv, T @ R.B, R.C @ Tinv, R.D,
                       R.rank_ambiguous)
