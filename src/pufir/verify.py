"""Reproduction of the embedded reference-example claims.

Each check returns (name, ok, detail); the CLI prints one line per check
and fails the run on any mismatch.
"""
from __future__ import annotations

import numpy as np

from .examples import square_example, wide_example
from .hankel import hankel_pair, is_paraunitary_hankel, mcmillan_degree
from .realization import (check_unitary_realization, gramian_normalize,
                          gramians, minimal_realization)

__all__ = ["verify_examples"]


def _close(actual, expected, tol):
    return float(np.max(np.abs(np.asarray(actual)
                               - np.asarray(expected)))) <= tol


def verify_examples(tol=1e-9):
    checks = []

    def add(name, ok, detail):
        checks.append((name, bool(ok), detail))

    # square 2x2 example: degree 2 for both shifts
    for q in (2, 1):
        d = mcmillan_degree(square_example(q))
        add(f"square q={q} McMillan degree", d == 2, f"degree={d}")

    # square example: normalized minimal realization matrix is unitary
    R = gramian_normalize(minimal_realization(square_example(1)))
    _, res_iso, res_coiso = check_unitary_realization(R, tol)
    shape = R.R.shape
    add("square realization matrix 4x4", shape == (4, 4), f"shape={shape}")
    add("square realization unitary", max(res_iso, res_coiso) <= tol,
        f"residuals iso={res_iso:.2e} coiso={res_coiso:.2e}")

    # wide 1x2 example: singular values, membership, Gramians, realization
    Fw = wide_example(0)
    sv = hankel_pair(Fw).H.singular_values()
    add("wide Hankel singular values (1, 0.8)",
        sv.size == 2 and _close(sv, [1.0, 0.8], 1e-10),
        f"sv={sv}")
    check = is_paraunitary_hankel(Fw)
    add("wide membership", check.member,
        f"residual={check.residual:.2e} role={check.role}")
    Rw = gramian_normalize(minimal_realization(Fw))
    label, _, res = check_unitary_realization(Rw)
    Mw = Rw.R
    target = np.eye(3)
    add("wide RR* = diag(I2, 1)",
        _close(Mw @ Mw.conj().T, target, tol),
        f"label={label} residual={res:.2e}")
    wobs = gramians(Rw).W_obs
    add("wide W_obs q=0 = diag(1, 16/25)",
        _close(wobs, np.diag([1.0, 16.0 / 25.0]), 1e-10),
        f"W_obs={np.real_if_close(np.diag(wobs))}")
    Rw1 = gramian_normalize(minimal_realization(wide_example(1)))
    wobs1 = gramians(Rw1).W_obs
    add("wide W_obs q=1 = 16/25",
        wobs1.shape == (1, 1) and _close(wobs1, [[16.0 / 25.0]], 1e-10),
        f"W_obs={wobs1.ravel()}")
    return checks
