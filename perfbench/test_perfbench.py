"""Tests of the benchmark's generator, oracles, tracer and workloads."""
import sys

import numpy as np
import pytest

import pufir
import pufir.cli
from pufir import LaurentPoly, is_paraunitary_hankel, mcmillan_degree

from perfbench import gen, oracle, tracer, workloads
from perfbench.run import Client, cold_start, probe


def as_laurent(F):
    return LaurentPoly(F.q, list(F.C))


@pytest.mark.parametrize("p,m,d,gamma,delay", [
    (3, 2, 4, 0, 0), (2, 3, 4, 2, 0), (3, 3, 5, 5, 0), (4, 2, 6, 0, 1),
    (2, 4, 6, 0, 2), (1, 3, 3, 1, 0), (3, 1, 0, 0, 0), (1, 1, 3, 3, 0)])
def test_generator_members_have_known_degree(p, m, d, gamma, delay):
    F = gen.member(np.random.default_rng(7), p, m, d, gamma, delay)
    L = as_laurent(F)
    assert (L.p, L.m, L.n, L.q) == (p, m, d + 1, 1 + gamma - delay)
    assert is_paraunitary_hankel(L).member
    assert mcmillan_degree(L) == gen.expected_degree(p, m, d, delay)
    assert oracle.unit_circle_defect(F) <= oracle.TOL


def test_oracle_rejects_perturbed_input(tmp_path):
    rng = np.random.default_rng(3)
    F = gen.perturb(rng, gen.member(rng, 4, 2, 5))
    assert oracle.unit_circle_defect(F) > oracle.TOL
    assert not is_paraunitary_hankel(as_laurent(F)).member
    path = gen.write_json(tmp_path / "bad.json", F.to_dict())
    assert oracle.check_member_file(path, 4, 2, F.n, F.q) is not None


def test_oracle_checks_the_claimed_membership(tmp_path, capsys):
    rng = np.random.default_rng(4)
    F = gen.perturb(rng, gen.member(rng, 3, 2, 4))
    path = gen.write_json(tmp_path / "bad.json", F.to_dict())
    rc = pufir.cli.main(["check", path, "--json"])
    out = capsys.readouterr().out
    case = workloads.Case(3, 2, F.q, F.n, 4, 4, False, path)
    assert oracle.check_json_report(rc, out, case) is None
    claimed = workloads.Case(3, 2, F.q, F.n, 4, 4, True, path)
    assert oracle.check_json_report(rc, out, claimed) is not None


def test_self_times_on_nested_spans():
    spans = [["root", 0.0, 10.0, None, 0],
             ["a", 1.0, 4.0, 0, 0],
             ["b", 3.0, 6.0, 0, 0],       # overlaps a: covered 1..6
             ["a.child", 2.0, 3.0, 1, 0],
             ["late", 9.0, 12.0, 0, 0],   # clipped to the parent's end
             ["other", 20.0, 21.0, None, 1]]
    assert tracer.self_times(spans) == pytest.approx(
        [10.0 - 5.0 - 1.0, 2.0, 3.0, 1.0, 3.0, 1.0])
    summary = tracer.summarize(spans)
    assert summary["root"] == (1, pytest.approx(4.0))


def bindings():
    """Every (namespace, name) -> object binding the tracer may touch."""
    out = {}
    for _, owner, attr in tracer.targets():
        original = vars(owner)[attr]
        for ns in tracer._namespaces(owner):
            for ref, value in vars(ns).items():
                if value is original:
                    out[(id(ns), ref)] = value
    return out


def smoke_ops(name, work):
    """The first op of each command: the workload's smallest shapes."""
    ops, _ = workloads.WORKLOADS[name](np.random.default_rng(1), str(work))
    first = {}
    for op in ops:
        first.setdefault((op.kind, op.argv[1] if op.kind == "family"
                          else None), op)
    return list(first.values())


def traced_counts(ops):
    client = Client(pufir.cli)
    tr = client.tracer = tracer.Tracer()
    before = bindings()
    with tr.patched(tracer.targets()):
        assert pufir.cli.mcmillan_degree is not before[
            (id(pufir.cli), "mcmillan_degree")]
        for op in ops:
            client.run(op)
    assert bindings() == before
    assert pufir.cli.mcmillan_degree is pufir.hankel.mcmillan_degree
    assert client.failed == 0
    return {name: calls for name, (calls, _) in
            tracer.summarize(tr.spans).items()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_pass_of_each_workload(name, tmp_path):
    ops = smoke_ops(name, tmp_path)
    counts = traced_counts(ops)
    assert counts["cli.main"] == len(ops)
    realization = sum(v for k, v in counts.items()
                      if k.startswith("realization."))
    if name == "realize":
        assert counts["realization.gramians"] == 2 * len(ops)
        assert counts["numpy.linalg.svd"] == len(ops)
    else:
        assert realization == 0
    if name == "synthesize":
        assert "numpy.linalg.svd" not in counts


def test_member_check_makes_two_svd_calls(tmp_path):
    case = workloads._poly_file(np.random.default_rng(2), str(tmp_path),
                                "causal", 4, 2, 6)
    op = workloads.Op("check", ("check", case.path), oracle.check_report,
                      case)
    counts = traced_counts([op])
    assert counts["numpy.linalg.svd"] == 2
    assert counts["hankel.defect_structure"] == 1


def test_wrappers_are_restored_after_an_error():
    before = bindings()
    with pytest.raises(KeyError):
        with tracer.Tracer().patched(tracer.targets()):
            raise KeyError
    assert bindings() == before
    assert "pufir" in sys.modules and pufir.synth is pufir.blaschke.synth


def test_cold_start_runs_and_checks_the_warm_up_ops(tmp_path):
    _, warm = workloads.WORKLOADS["realize"](np.random.default_rng(1),
                                             str(tmp_path))
    client = Client(pufir.cli)
    seconds = cold_start(client, warm)
    assert seconds > 0
    assert (client.attempted, client.failed) == (len(warm), 0)


def test_realize_probe_is_reported(tmp_path):
    argv, case = workloads.realize_probe(np.random.default_rng(1),
                                         str(tmp_path))
    report = probe(pufir.cli, argv, case)
    assert report["rc"] == 0 and report["expected_nu"] == 32
    assert {"nu", "classification", "residual_isometry"} <= set(report)
