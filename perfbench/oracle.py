"""Output checks for the benchmarked commands.

Every check compares numbers, not bytes, so a later change may move the
last bit of an output without failing it.  Each returns None when the
output is right and a one-line reason when it is not.
"""
from __future__ import annotations

import json
import os

import numpy as np

from . import gen

TOL = 1e-9


def unit_circle_defect(F):
    """Max-abs entry of F*F - I (p >= m) or FF* - I over the circle.

    F*F - I is a trigonometric polynomial with lags -(n-1)..n-1, so it
    vanishes identically iff it vanishes at 2n equispaced points; those
    values come from one FFT of the coefficient sequence.
    """
    V = np.fft.fft(F.C, n=2 * F.n, axis=0)
    Vh = V.conj().transpose(0, 2, 1)
    gram = Vh @ V if F.p >= F.m else V @ Vh
    return float(np.max(np.abs(gram - np.eye(gram.shape[1]))))


def check_member_file(path, p, m, n, q):
    """A written polynomial has the expected shape and is a member."""
    if not os.path.exists(path):
        return f"{path} was not written"
    F = gen.Poly.from_dict(gen.read_json(path))
    if (F.p, F.m, F.n, F.q) != (p, m, n, q):
        return (f"written shape (p,m,n,q)={(F.p, F.m, F.n, F.q)}, "
                f"expected {(p, m, n, q)}")
    defect = unit_circle_defect(F)
    if defect > TOL:
        return f"written polynomial is not a member (defect {defect:.2e})"
    return None


def _exit(rc, want):
    return None if rc == want else f"exit code {rc}, expected {want}"


def check_report(rc, out, case):
    """`check FILE`: text report with dimensions, degree and membership."""
    err = _exit(rc, 0 if case.member else 1)
    if err:
        return err
    lines = {line.split(":", 1)[0]: line.split(":", 1)[1].strip()
             for line in out.splitlines() if ":" in line}
    dims = f"{case.p}x{case.m}, q={case.q}, n={case.n}"
    if lines.get("dimensions") != dims:
        return f"dimensions line {lines.get('dimensions')!r} != {dims!r}"
    membership = lines.get("membership", "")
    if membership.startswith("member") != case.member:
        return f"membership line {membership!r}"
    if case.member and lines.get("McMillan degree") != str(case.degree):
        return f"degree {lines.get('McMillan degree')!r} != {case.degree}"
    if case.member != ("defect structure" in lines):
        return "defect structure line present iff member: violated"
    return None


def check_json_report(rc, out, case):
    """`check FILE --json`."""
    err = _exit(rc, 0 if case.member else 1)
    if err:
        return err
    data = json.loads(out)
    got = tuple(data[k] for k in ("p", "m", "q", "n"))
    if got != (case.p, case.m, case.q, case.n):
        return f"(p,m,q,n)={got}"
    if data["member"] != case.member:
        return f"member={data['member']}"
    if case.member:
        if data["mcmillan_degree"] != case.degree:
            return f"degree {data['mcmillan_degree']} != {case.degree}"
        if not data["residual"] <= TOL:
            return f"member residual {data['residual']:.2e} > {TOL}"
        if "defect" not in data:
            return "member report lacks the defect structure"
    elif "defect" in data or not data["residual"] > TOL:
        return "non-member report has a defect structure or small residual"
    return None


def check_degree(rc, out, case):
    """`degree FILE`: an integer, equal to the known degree for members."""
    err = _exit(rc, 0)
    if err:
        return err
    value = int(out.strip())
    if case.member and value != case.degree:
        return f"degree {value} != {case.degree}"
    return None


def check_realize(rc, out, case):
    """`realize FILE --json`: nu = degree, classification, residuals."""
    err = _exit(rc, 0)
    if err:
        return err
    data = json.loads(out)
    if data["nu"] != case.degree:
        return f"nu {data['nu']} != {case.degree}"
    if np.asarray(data["A"]).shape[:2] != (case.degree, case.degree):
        return "A has the wrong shape"
    want = ("both" if case.p == case.m else
            "isometric" if case.p > case.m else "co-isometric")
    if data["classification"] != want:
        return f"classification {data['classification']} != {want}"
    for key, needed in (("residual_isometry", case.p >= case.m),
                        ("residual_coisometry", case.p <= case.m)):
        if needed and not data[key] <= TOL:
            return f"{key} {data[key]:.2e} > {TOL}"
    return None


def check_written(rc, out, case):
    """`sample`, `synth` and `family` with -o: a member file was written."""
    err = _exit(rc, 0)
    if err:
        return err
    if out:
        return "unexpected output on stdout"
    return check_member_file(case.path, case.p, case.m, case.n, case.q)


def check_optimize(rc, out, case):
    """`optimize`: value = ||F(1) - I||_F for the reported member F."""
    err = _exit(rc, 0)
    if err:
        return err
    data = json.loads(out)
    F = gen.Poly.from_dict(data["poly"])
    if (F.p, F.m, F.n) != (case.p, case.m, case.d + 1):
        return f"optimized polynomial has (p,m,n)={(F.p, F.m, F.n)}"
    if len(data["angles"]["angles"]) != gen.chart_size(case.p, case.m,
                                                       case.d):
        return "angle count differs from the chart size"
    defect = unit_circle_defect(F)
    if defect > TOL:
        return f"optimized polynomial is not a member (defect {defect:.2e})"
    value = float(np.linalg.norm(F.C.sum(axis=0) - np.eye(case.p, case.m)))
    if abs(value - data["value"]) > TOL:
        return f"reported value {data['value']!r} != ||F(1)-I|| {value!r}"
    return None


def check_verify_examples(rc, out):
    err = _exit(rc, 0)
    if err:
        return err
    lines = out.splitlines()
    if not lines or not all(line.startswith("PASS") for line in lines):
        return "verify-examples reported a failing check"
    return None
