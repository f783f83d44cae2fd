"""The three workloads: fixed command mixes over seeded inputs.

A pass runs every op of a workload once, in a fixed order; the inputs
vary with the seed, the shapes and commands do not.  Each workload
function writes its inputs into `work` and returns (ops, warm-up ops);
the warm-up runs one op of each command before timing starts.

Shapes are chosen so a pass takes a few seconds and a run holds at least
100 commands.  Left out for that reason: `check` at (32,16,128), 16 s per
command, and `realize` at nu=64, 12 s and 0.7 GB per command; the same
SVD and Kronecker costs already dominate at (24,12,96) and nu=48.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

from . import gen, oracle


@dataclass(frozen=True)
class Case:
    """What the output of one op must show."""

    p: int
    m: int
    q: int = 0
    n: int = 0
    d: int = 0
    degree: int = 0
    member: bool = True
    path: str = ""


@dataclass(frozen=True)
class Op:
    kind: str                      # command name, for per-command totals
    argv: tuple
    check: Callable                # (exit code, stdout, case) -> reason
    case: Case


# Shift regimes: (label, gamma as a function of d, delay s).
REGIMES = (("delayed", lambda d: 0, 1),
           ("causal", lambda d: 0, 0),
           ("anti", lambda d: d, 0),
           ("mixed", lambda d: d // 2, 0))


def _forms(p, m):
    return ((p, m), (m, p))


def _poly_file(rng, work, name, p, m, d, gamma=0, delay=0, member=True):
    F = gen.member(rng, p, m, d, gamma, delay)
    if not member:
        F = gen.perturb(rng, F)
    path = gen.write_json(os.path.join(work, name + ".json"), F.to_dict())
    return Case(p, m, F.q, F.n, d, gen.expected_degree(p, m, d, delay),
                member, path)


def _analyze_ops(case):
    return [Op("check", ("check", case.path), oracle.check_report, case),
            Op("check", ("check", case.path, "--json"),
               oracle.check_json_report, case),
            Op("degree", ("degree", case.path), oracle.check_degree, case)]


def analyze(rng, work):
    """check, check --json and degree on members and non-members.

    (4,2,8) and (8,4,32) run every shift regime in both forms; (16,8,64)
    runs every regime once, forms alternating; (24,12,96) runs one
    `check` in the mixed regime.  A quarter of the files are non-members.
    """
    ops = []
    plan = []
    for s, shape in enumerate(((4, 2, 8), (8, 4, 32))):
        p, m, d = shape
        for f, (pp, mm) in enumerate(_forms(p, m)):
            for r, regime in enumerate(REGIMES):
                plan.append((shape, pp, mm, regime, (2 * f + r + s) % 4 != 0))
    p, m, d = 16, 8, 64
    for r, regime in enumerate(REGIMES):
        pp, mm = _forms(p, m)[r % 2]
        plan.append(((p, m, d), pp, mm, regime, r != 2))
    for i, ((_, _, d), p, m, (label, gamma, delay), member) in \
            enumerate(plan):
        ops += _analyze_ops(_poly_file(rng, work, f"a{i}-{p}x{m}x{d}-{label}",
                                       p, m, d, gamma(d), delay, member))
    big = _poly_file(rng, work, "a-24x12x96-mixed", 24, 12, 96, 48)
    ops.append(Op("check", ("check", big.path), oracle.check_report, big))
    return ops, _analyze_ops(_poly_file(rng, work, "warm", 8, 4, 32))


def _realize_op(rng, work, name, p, m, nu, delay):
    d = nu - delay * min(p, m)
    case = _poly_file(rng, work, name, p, m, d, 0, delay)
    return Op("realize", ("realize", case.path, "--json"),
              oracle.check_realize, case)


def realize(rng, work):
    """realize --json on causal members (q=1) and delayed ones (q=0).

    State dimensions 8..24 in tall, wide and square shapes and both
    regimes; nu=32 twice and nu=48 once, where the Kronecker Stein solve
    dominates.  nu=40 is left out: with it the commands above 0.3 s would
    make up a tenth of the mix and p90 would sit on the edge between two
    groups.  The rectangular shapes are (8,6) and (6,8): for random
    (3,2) members the Hankel singular values fall to sigma_nu/sigma_1 of
    about 1e-7 at nu=32 and 1e-10 at nu=48, and realize then reports
    residuals above its 1e-9 tolerance or a smaller nu.  At (8,6) the
    ratio stays above 1e-3 up to nu=48.
    """
    ops = []
    for nu in (8, 16, 24):
        for p, m in ((8, 6), (6, 8), (4, 4)):
            for delay in (0, 1):
                ops.append(_realize_op(rng, work, f"r-{p}x{m}-nu{nu}-s{delay}",
                                       p, m, nu, delay))
    ops.append(_realize_op(rng, work, "r-8x6-nu32-s0", 8, 6, 32, 0))
    ops.append(_realize_op(rng, work, "r-6x8-nu32-s1", 6, 8, 32, 1))
    ops.append(_realize_op(rng, work, "r-4x4-nu48-s1", 4, 4, 48, 1))
    warm = [_realize_op(rng, work, "warm", 8, 6, 16, 0)]
    return ops, warm


def realize_probe(rng, work):
    """An ill-conditioned realize, reported but not counted: (argv, case).

    A random (3,2) member of degree 32 has sigma_nu/sigma_1 near 1e-7, and
    realize then reports residuals above its tolerance or a smaller nu.
    Its outcome goes into the report line so a change to these numerics
    shows, without making the gated mix depend on a known defect.
    """
    case = _poly_file(rng, work, "probe-3x2-nu32", 3, 2, 32)
    return ("realize", case.path, "--json"), case


def _sample_op(rng, work, name, p, m, d, gamma):
    out = os.path.join(work, name + ".json")
    seed = int(rng.integers(2**31))
    argv = ("sample", "--p", str(p), "--m", str(m), "--d", str(d),
            "--gamma", str(gamma), "--seed", str(seed), "-o", out)
    return Op("sample", argv, oracle.check_written,
              Case(p, m, 1 + gamma, d + 1, path=out))


def _synth_op(rng, work, name, p, m, d, gamma):
    src = gen.write_json(os.path.join(work, name + "-angles.json"),
                         gen.angles(rng, p, m, d, gamma))
    out = os.path.join(work, name + ".json")
    return Op("synth", ("synth", src, "-o", out), oracle.check_written,
              Case(p, m, 1 + gamma, d + 1, path=out))


def _family_ops(rng, work, a, d):
    """Every construction once, on members built around an a-column tall."""
    def poly(name, p, m, d, delay=0):
        return _poly_file(rng, work, f"{name}-{a}-{d}", p, m, d, 0,
                          delay).path

    tall, tall2 = poly("tall", 2 * a, a, d), poly("tall2", a + 2, a, d // 2)
    wide, wide2 = poly("wide", a, 2 * a, d), poly("wide2", a, a + 2, d // 2)
    delayed = poly("delayed", 2 * a, a, d, delay=2)
    square = poly("square", a, a, d // 3)
    n, half = d + 1, -(-(d + 1) // 2)
    # (construction, input, extra arguments, expected (p, m, n, q))
    plan = (("reverse", tall, (), (2 * a, a, n, 1)),
            ("reblock", delayed, ("--j", "2"), (4 * a, 2 * a, d // 2 + 1, 0)),
            ("dilate", tall, ("--a", "0", "--gamma", "2"),
             (2 * a, a, 2 * n, 0)),
            ("stack", tall, ("--rho", "2"), (4 * a, a, half, 0)),
            ("widen", wide, ("--rho", "2"), (a, 4 * a, half, 0)),
            ("compose", tall, ("--second", tall2), (3 * a + 2, 2 * a, n, 0)),
            ("mix-rows", tall, ("--second", tall2, "--alpha", "0.3"),
             (3 * a + 2, a, n, 0)),
            ("mix-cols", wide, ("--second", wide2, "--alpha", "0.3"),
             (a, 3 * a + 2, n, 0)),
            ("product", tall, ("--second", square),
             (2 * a, a, n + d // 3, -1)))
    ops = []
    for construction, src, extra, (p, m, n, q) in plan:
        out = os.path.join(work, f"family-{construction}-{a}-{d}.json")
        ops.append(Op("family", ("family", construction, src, *extra,
                                 "-o", out),
                      oracle.check_written, Case(p, m, q, n, path=out)))
    return ops


def _optimize_op(rng, p, m, d):
    argv = ("optimize", "--p", str(p), "--m", str(m), "--d", str(d),
            "--budget", "2000", "--seed", str(int(rng.integers(2**31))))
    return Op("optimize", argv, oracle.check_optimize, Case(p, m, d=d))


def synthesize(rng, work):
    """sample and synth written with -o, families and optimize.

    sample and synth run (4,2,8), (8,4,24), (8,4,32) and (16,8,64) in both
    forms with gamma in {0, d/2, d}, plus one (32,16,128) each; the
    families run at two sizes.  The five commands above 0.3 s stay under
    a tenth of the mix, so p90 falls inside the (16,8,64) group rather
    than on the edge between two groups.  The median falls where the
    (8,4,24) and (8,4,32) commands and the larger families run at 13 to
    20 ms with no gap; with (6,3,24) in place of (8,4,24) it sat on a
    gap from 13 to 17 ms and jumped between the two sides from run to run.
    """
    ops = []
    for p, m, d in ((4, 2, 8), (8, 4, 24), (8, 4, 32), (16, 8, 64)):
        for pp, mm in _forms(p, m):
            for gamma in (0, d // 2, d):
                name = f"{pp}x{mm}x{d}-g{gamma}"
                ops.append(_sample_op(rng, work, "sample-" + name,
                                      pp, mm, d, gamma))
                ops.append(_synth_op(rng, work, "synth-" + name,
                                     pp, mm, d, gamma))
    ops.append(_sample_op(rng, work, "sample-32x16x128", 32, 16, 128, 64))
    ops.append(_synth_op(rng, work, "synth-16x32x128", 16, 32, 128, 128))
    ops += _family_ops(rng, work, 2, 8) + _family_ops(rng, work, 4, 24)
    ops += [_optimize_op(rng, *shape) for shape in ((2, 2, 3), (3, 3, 2),
                                                    (4, 2, 4))]
    warm = [_sample_op(rng, work, "warm-sample", 8, 4, 32, 16),
            _synth_op(rng, work, "warm-synth", 4, 8, 32, 16),
            ops[-4],                       # family product
            _optimize_op(rng, 3, 3, 2)]
    return ops, warm


WORKLOADS = {"analyze": analyze, "realize": realize,
             "synthesize": synthesize}
PROBES = {"realize": realize_probe}
