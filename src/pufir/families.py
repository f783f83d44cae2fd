"""Structured families of FIR polynomials built from a given one.

Coefficient reversal, Hankel reblocking, power dilation, sparse exponent
placement, rectangular stacking/widening, block compositions and the
product of q = 0 normalizations.  Each construction is a pure transformation
of LaurentPoly values; para-unitarity preservation is checked in tests,
not assumed here.
"""
from __future__ import annotations

import numpy as np

from .laurent import LaurentPoly
from .hankel import hankel_causal

__all__ = [
    "reverse_poly", "reblock", "dilate", "exponent_map",
    "u_iso", "u_coiso", "rect_stack", "rect_widen",
    "compose_diag", "compose_mix_rows", "compose_mix_cols",
    "product_via_hankel", "interleave_coeffs", "hankel_abr",
]


def reverse_poly(F):
    """Reverse the coefficient order B_k -> B_{n+1-k}, keeping the shift."""
    return LaurentPoly(F.q, F.coeffs[::-1])


def reblock(F, j):
    """jp x jm polynomial read off the j-superblocked delayed Hankel.

    Requires a delayed strictly causal input (q <= -1) and j in [1, 1-q].
    The extended Hankel (delay eta = -q) is padded with zero block
    rows/columns up to a block count divisible by j, partitioned into
    j x j superblocks, and the first superblock row gives the new
    coefficients.  The result has q = 0, equals the input as a function
    for j = 1, and shares its McMillan degree for every valid j.
    """
    if F.q > -1:
        raise ValueError(f"reblock needs a delayed polynomial (q <= -1), "
                         f"got q={F.q}")
    j = int(j)
    eta = -F.q
    if not 1 <= j <= 1 + eta:
        raise ValueError(f"j must lie in [1, {1 + eta}]")
    p, m, n = F.p, F.m, F.n
    count = -(-(n + eta) // j)     # superblock columns after zero padding
    # 0-based coefficient sequence: eta zeros, B_1, ..., B_n, zeros
    seq = np.zeros(((count + 1) * j - 1, p, m), dtype=complex)
    seq[eta:eta + n] = F.coeffs
    t, i, l = np.ogrid[:count, :j, :j]
    blocks = seq[t * j + i + l]                 # block (i, l) of D_t
    return LaurentPoly(0, blocks.transpose(0, 1, 3, 2, 4)
                       .reshape(count, j * p, j * m))


def dilate(F, a, gamma):
    """z^a (z^-gamma B_1 + z^-2gamma B_2 + ...): spread powers by gamma."""
    gamma = int(gamma)
    if gamma < 1:
        raise ValueError("gamma must be a positive integer")
    out = np.zeros((F.n * gamma, F.p, F.m), dtype=complex)
    out[gamma - 1::gamma] = F.coeffs
    return LaurentPoly(int(a), out)


def _runs(exponents):
    runs = [[exponents[0]]]
    for e in exponents[1:]:
        if e == runs[-1][-1] + 1:
            runs[-1].append(e)
        else:
            runs.append([e])
    return runs


def exponent_map(F, exponents):
    """Place the coefficients at the given z^-e exponents, zeros between.

    Only patterns made of equal-length runs of consecutive exponents with
    uniformly spaced run starts are accepted (the interleavings the Hankel
    machinery covers); anything else is rejected.
    """
    exponents = [int(e) for e in exponents]
    if len(exponents) != F.n:
        raise ValueError(f"need exactly n={F.n} exponents")
    if exponents[0] < 1 or any(b <= a for a, b in zip(exponents,
                                                      exponents[1:])):
        raise ValueError("exponents must be strictly increasing positive "
                         "integers")
    runs = _runs(exponents)
    rho = len(runs[0])
    if any(len(r) != rho for r in runs):
        raise ValueError("exponent pattern rejected: runs of unequal length")
    starts = [r[0] for r in runs]
    gaps = {b - a for a, b in zip(starts, starts[1:])}
    if len(gaps) > 1:
        raise ValueError("exponent pattern rejected: non-uniform run spacing")
    out = np.zeros((exponents[-1], F.p, F.m), dtype=complex)
    out[np.array(exponents) - 1] = F.coeffs
    return LaurentPoly(0, out)


def u_iso(alpha, beta, eta, delta):
    """Kronecker isometry I_eta x [0_{beta x delta}; I_delta; 0_{alpha x d}]."""
    if eta <= 0 or delta <= 0 or alpha < 0 or beta < 0:
        raise ValueError("need eta, delta > 0 and alpha, beta >= 0")
    cell = np.vstack([np.zeros((beta, delta)),
                      np.eye(delta),
                      np.zeros((alpha, delta))])
    return np.kron(np.eye(eta), cell).astype(complex)


def u_coiso(alpha, beta, eta, delta):
    """Kronecker co-isometry I_eta x [0, I_delta, 0] (row layout)."""
    if eta <= 0 or delta <= 0 or alpha < 0 or beta < 0:
        raise ValueError("need eta, delta > 0 and alpha, beta >= 0")
    cell = np.hstack([np.zeros((delta, beta)),
                      np.eye(delta),
                      np.zeros((delta, alpha))])
    return np.kron(np.eye(eta), cell).astype(complex)


def _grouped(F, rho):
    """(groups, rho, p, m) coefficient groups, zero-padded at the tail."""
    rho = int(rho)
    if rho < 1:
        raise ValueError("rho must be >= 1")
    groups = -(-F.n // rho)
    out = np.zeros((groups * rho, F.p, F.m), dtype=complex)
    out[:F.n] = F.coeffs
    return out.reshape(groups, rho, F.p, F.m)


def rect_stack(F, rho):
    """rho*p x m polynomial with vertically stacked coefficient groups.

    Preserves the isometry side of para-unitarity.
    """
    g = _grouped(F, rho)
    return LaurentPoly(0, g.reshape(len(g), -1, F.m))


def rect_widen(F, rho):
    """p x rho*m polynomial with horizontally stacked coefficient groups.

    Preserves the co-isometry side of para-unitarity.
    """
    g = _grouped(F, rho)
    return LaurentPoly(0, g.transpose(0, 2, 1, 3).reshape(len(g), F.p, -1))


def _canvas(Fb, Fc, p, m):
    """Zero (max n, p, m) coefficients for a composition of two inputs.

    Both inputs start at the first block, so the shorter one ends up
    zero-padded.
    """
    return np.zeros((max(Fb.n, Fc.n), p, m), dtype=complex)


def compose_diag(Fb, Fc, variant="diag"):
    """Block-diagonal (or anti-diagonal) composition of two polynomials.

    Preserves isometry when both inputs are isometric, co-isometry when
    both are co-isometric.  The shorter input is zero-padded.
    """
    if variant not in ("diag", "antidiag"):
        raise ValueError(f"unknown variant {variant!r}")
    out = _canvas(Fb, Fc, Fb.p + Fc.p, Fb.m + Fc.m)
    # diag: [[B, 0], [0, C]]; antidiag: [[0, B], [C, 0]]
    b0 = 0 if variant == "diag" else Fc.m
    c0 = Fb.m if variant == "diag" else 0
    out[:Fb.n, :Fb.p, b0:b0 + Fb.m] = Fb.coeffs
    out[:Fc.n, Fb.p:, c0:c0 + Fc.m] = Fc.coeffs
    return LaurentPoly(0, out)


def compose_mix_rows(Fb, Fc, alpha):
    """Row-stacked sqrt(alpha)/sqrt(1-alpha) mixture, m_c >= m_b.

    D_k stacks sqrt(alpha) [B_k, 0] over sqrt(1-alpha) C_k.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if Fc.m < Fb.m:
        raise ValueError("compose_mix_rows needs m_c >= m_b")
    out = _canvas(Fb, Fc, Fb.p + Fc.p, Fc.m)
    out[:Fb.n, :Fb.p, :Fb.m] = np.sqrt(alpha) * Fb.coeffs
    out[:Fc.n, Fb.p:] = np.sqrt(1.0 - alpha) * Fc.coeffs
    return LaurentPoly(0, out)


def compose_mix_cols(Fb, Fc, alpha):
    """Column-stacked sqrt(alpha)/sqrt(1-alpha) mixture, p_b >= p_c."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if Fb.p < Fc.p:
        raise ValueError("compose_mix_cols needs p_b >= p_c")
    out = _canvas(Fb, Fc, Fb.p, Fb.m + Fc.m)
    out[:Fb.n, :, :Fb.m] = np.sqrt(alpha) * Fb.coeffs
    out[:Fc.n, :Fc.p, Fb.m:] = np.sqrt(1.0 - alpha) * Fc.coeffs
    return LaurentPoly(0, out)


def product_via_hankel(Fb, Fc):
    """Polynomial product of the q = 0 normalizations of both inputs.

    The paper's stacked Hankel identity, coefficient stack of the product
    = extended Hankel of the left factor times the block flip times the
    coefficient stack of the right factor, gives the same coefficients;
    it is checked in the tests, not recomputed here.  The result carries
    q = -1 as in the product of two q = 0 polynomials.
    """
    if Fb.m != Fc.p:
        raise ValueError("inner dimension mismatch: "
                         f"{Fb.p}x{Fb.m} times {Fc.p}x{Fc.m}")
    return Fb.shift(-Fb.q).multiply(Fc.shift(-Fc.q))


def interleave_coeffs(F, a, b, rho):
    """(N, p, m) coefficient array of the (a, b, rho)-interleaved polynomial.

    Groups of rho consecutive coefficients separated by (a+b)*rho zero
    blocks, with b*rho leading and a*rho trailing zero blocks.  The input
    is zero-padded so rho divides n.
    """
    if a < 0 or b < 0:
        raise ValueError("a and b must be nonnegative")
    g = _grouped(F, rho)
    groups, rho = g.shape[:2]
    # each group: b*rho zero blocks, the group, a*rho zero blocks
    out = np.zeros((groups, (a + b + 1) * rho, F.p, F.m), dtype=complex)
    out[:, b * rho:(b + 1) * rho] = g
    return out.reshape(-1, F.p, F.m)


def hankel_abr(F, a, b, rho):
    """The (a+b+1)n p x (a+b+1)n m interleaved Hankel H(a, b, rho)."""
    return hankel_causal(LaurentPoly(0, interleave_coeffs(F, a, b, rho)))
