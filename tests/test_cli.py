import json
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from pufir.blaschke import random_member, random_params
from pufir.cli import main
from pufir.examples import square_example, wide_example
from pufir.hankel import DEFAULT_TOL
from pufir.io import (dumps_poly, load_poly, loads_poly, poly_to_dict,
                      save_angles, save_poly)
from pufir.laurent import LaurentPoly, constant
from pufir.realization import (check_unitary_realization, gramian_normalize,
                               gramians, minimal_realization)

from conftest import json_text, random_poly


@pytest.fixture
def wide_file(tmp_path):
    path = tmp_path / "wide.json"
    save_poly(wide_example(0), path)
    return str(path)


def test_io_roundtrip_exact(rng):
    F = random_poly(rng, 3, 2, 4, q=-2)
    G = loads_poly(dumps_poly(F))
    assert G.q == F.q and G.n == F.n
    for B, C in zip(F.coeffs, G.coeffs):
        assert np.array_equal(B, C)
    # serialization is deterministic
    assert dumps_poly(F) == dumps_poly(G)


def test_save_poly_peak_memory_below_file_size(tmp_path):
    # the text is written in bounded pieces, never held whole
    F = random_member(32, 16, 128, 64, 0)
    path = tmp_path / "big.json"
    tracemalloc.start()
    try:
        save_poly(F, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size


def test_io_rejects_malformed():
    with pytest.raises(ValueError):
        loads_poly('{"q": 0}')
    with pytest.raises(ValueError):
        loads_poly('{"q": 0, "p": 3, "coeffs": [[[[0.0, 0.0]]]]}')


def test_check_member(wide_file, capsys):
    assert main(["check", wide_file]) == 0
    out = capsys.readouterr().out
    assert "member" in out and "McMillan degree: 2" in out


def test_check_json(wide_file, capsys):
    assert main(["check", wide_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["member"] is True
    assert data["mcmillan_degree"] == 2
    assert abs(data["hankel_singular_values"][1] - 0.8) < 1e-12


def test_check_nonmember_exit(tmp_path, capsys):
    F = wide_example(0)
    C = [np.array(B) for B in F.coeffs]
    C[0][0, 0] += 1e-3
    path = tmp_path / "bad.json"
    save_poly(LaurentPoly(0, C), path)
    assert main(["check", str(path)]) == 1
    out = capsys.readouterr().out
    assert "non-member" in out


def test_check_malformed_exit(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    assert main(["check", str(path)]) == 2
    assert main(["check", str(tmp_path / "absent.json")]) == 2


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("command", ["degree", "check", "realize"])
def test_non_finite_coefficient_exit(tmp_path, capsys, command, bad):
    data = poly_to_dict(square_example(1))
    data["coeffs"][1][0][1][0] = bad
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


def test_non_finite_angle_exit(tmp_path, capsys):
    path = tmp_path / "angles.json"
    save_angles(random_params(2, 2, 3, 1, 9), path)
    data = json.loads(path.read_text())
    data["angles"][2] = float("nan")
    path.write_text(json.dumps(data))
    assert main(["synth", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "finite" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["sample", "--p", "-1", "--m", "2", "--d", "2"], "p must be >= 1"),
    (["sample", "--p", "0", "--m", "2", "--d", "2"], "p must be >= 1"),
    (["sample", "--p", "2", "--m", "0", "--d", "2"], "m must be >= 1"),
    (["sample", "--p", "2", "--m", "2", "--d", "-1"], "d must be >= 0"),
    (["optimize", "--p", "2", "--m", "-3", "--d", "1", "--budget", "9"],
     "m must be >= 1"),
    (["sample", "--p", "2", "--m", "2", "--d", "1", "--seed", "-1"],
     "seed must be >= 0, got -1"),
    (["optimize", "--p", "2", "--m", "2", "--d", "1", "--seed", "-1"],
     "seed must be >= 0, got -1"),
    (["optimize", "--p", "2", "--m", "2", "--d", "1", "--budget", "0"],
     "budget must be >= 1"),
    (["optimize", "--p", "2", "--m", "2", "--d", "1", "--budget", "-5"],
     "budget must be >= 1"),
])
def test_shape_argument_exit(capsys, argv, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("field, value, message", [
    ("side", "both",
     "field 'side' must be 'iso' for a 2 x 2 chart, got 'both'"),
    ("side", "coiso",
     "field 'side' must be 'iso' for a 2 x 2 chart, got 'coiso'"),
    ("p", 0, "p must be >= 1"),
    ("d", -2, "d must be >= 0"),
    ("m", 3, "expected 24 angles, got 13"),
    ("gamma", 1.5, "field 'gamma' must be an integer"),
    ("p", 2.9, "field 'p' must be an integer"),
    ("d", True, "field 'd' must be an integer"),
    ("m", "2", "field 'm' must be an integer"),
    pytest.param("angles", [str(a) for a in range(17)],
                 "field 'angles' must be a list of numbers", id="angles-str"),
    pytest.param("angles", [[0.0]] * 17,
                 "field 'angles' must be a list of numbers",
                 id="angles-nested"),
])
def test_bad_angle_file_exit(tmp_path, capsys, field, value, message):
    path = tmp_path / "angles.json"
    save_angles(random_params(2, 2, 3, 1, 9), path)       # iso, 2 x 2
    data = json.loads(path.read_text())
    data[field] = value
    path.write_text(json.dumps(data))
    assert main(["synth", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err


@pytest.mark.parametrize("field, value", [
    ("q", 0.99), ("q", "3"), ("q", True), ("p", 2.0), ("n", "3"),
])
def test_poly_integer_field_exit(tmp_path, capsys, field, value):
    data = poly_to_dict(square_example(1))
    data[field] = value
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(data))
    assert main(["degree", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"field {field!r}" in captured.err


@pytest.mark.parametrize("argv", [
    pytest.param(["check"], id="check"),
    pytest.param(["check", "--json"], id="check-json"),
    pytest.param(["degree"], id="degree"),
    pytest.param(["realize", "--json"], id="realize-json"),
    pytest.param(["family", "reverse"], id="family-reverse"),
])
def test_zero_dimension_exit(tmp_path, capsys, argv):
    # one 1 x 0 coefficient matrix
    path = tmp_path / "poly.json"
    path.write_text(json.dumps({"q": 0, "coeffs": [[[]]]}))
    assert main(argv + [str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "got 1 x 0" in captured.err


@pytest.mark.parametrize("entry", [
    pytest.param([True, False], id="true"),
    pytest.param([False, 1.0], id="false"),
    pytest.param([1.0, "0"], id="str"),
    pytest.param([[1.0], 0.0], id="nested"),
])
def test_non_number_coefficient_exit(tmp_path, capsys, entry):
    # a JSON boolean is no number, even where Python would read it as 0/1
    data = poly_to_dict(square_example(1))
    data["coeffs"][0][0][0] = entry
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(data))
    assert main(["check", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "field 'coeffs'" in captured.err


NUMBERS = "field 'coeffs' must be a list of numbers"
MATRICES = "field 'coeffs' must be a list of matrices of [re, im] pairs"


@pytest.mark.parametrize("path, entry, message", [
    pytest.param((0, 1, 1), [None, 0.0], NUMBERS, id="null"),
    pytest.param((2, 1, 0), 1.0, NUMBERS, id="no-pair"),
    pytest.param((1, 0, 1), [1.0],
                 "not enough values to unpack (expected 2, got 1)",
                 id="short-pair"),
    pytest.param((0, 1, 0), [1.0, 2.0, 3.0],
                 "too many values to unpack (expected 2)", id="long-pair"),
    pytest.param((1, 0, 0), [10 ** 400, 0.0],
                 "int too large to convert to float", id="huge"),
    pytest.param((1, 1), [[0.0, 0.0]], MATRICES, id="ragged-row"),
    pytest.param((2,), 1, MATRICES, id="no-matrix"),
])
def test_coefficient_refusal_messages(path, entry, message):
    # the first entry that is no [re, im] pair of numbers is named
    data = poly_to_dict(square_example(1))
    *outer, last = ("coeffs",) + path
    target = data
    for key in outer:
        target = target[key]
    target[last] = entry
    with pytest.raises(ValueError) as info:
        loads_poly(json.dumps(data))
    assert str(info.value) == "malformed polynomial data: " + message


def test_load_poly_bit_exact():
    # signed zeros, integers and shortest reprs come back bit for bit
    C = np.array(random_member(3, 2, 4, 1, seed=5).coeffs)
    C[0, 0, 0], C[1, 1, 1] = -0.0 - 0.0j, 3 + 0j
    data = poly_to_dict(LaurentPoly(2, C))
    data["coeffs"][2][0][1] = [1, -2]
    C[2, 0, 1] = 1 - 2j
    F = loads_poly(json.dumps(data))
    assert F.coeffs.tobytes() == C.tobytes()


def test_memory_error_exit(tmp_path, monkeypatch, capsys):
    # a huge delay (q < 0) or anti-causal gap (q > 0) asks for a Hankel
    # matrix of about 10^6 x 10^6 blocks; the build is replaced by one
    # that fails, so nothing is allocated
    import pufir.hankel as hankel
    import pufir.realization as realization

    def no_memory(blocks, pad, rows=None, cols=None):
        raise MemoryError("no memory for a Hankel of "
                          f"{len(blocks) + pad} blocks")

    for module in (hankel, realization):
        monkeypatch.setattr(module, "block_hankel", no_memory)
    path = tmp_path / "deep.json"
    for q, commands, size in ((-1000000, ("check", "degree", "realize"),
                               1000001),
                              (1000000, ("check", "degree"), 999999)):
        save_poly(LaurentPoly(q, [np.eye(1)]), path)
        for command in commands:
            assert main([command, str(path)]) == 2
            captured = capsys.readouterr()
            assert (captured.out, captured.err) == (
                "", f"error: no memory for a Hankel of {size} blocks\n")


@pytest.mark.parametrize("command", ["synth", "degree"])
def test_number_beyond_float_exit(tmp_path, capsys, command):
    path = tmp_path / "in.json"
    if command == "synth":
        save_angles(random_params(2, 2, 3, 1, 9), path)
        data = json.loads(path.read_text())
        data["angles"][0] = 10 ** 400
    else:
        data = poly_to_dict(square_example(1))
        data["coeffs"][0][0][0][0] = 10 ** 400
    path.write_text(json.dumps(data))
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "too large" in captured.err


def test_check_member_runs_membership_once(tmp_path, monkeypatch, capsys):
    import pufir.cli as cli
    import pufir.hankel as hankel
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(hankel, "block_hankel",
                        counted("block_hankel", hankel.block_hankel))
    member = counted("is_paraunitary_hankel", hankel.is_paraunitary_hankel)
    monkeypatch.setattr(hankel, "is_paraunitary_hankel", member)
    monkeypatch.setattr(cli, "is_paraunitary_hankel", member)
    path = tmp_path / "member.json"
    save_poly(random_member(4, 2, 6, 0, seed=3), path)
    assert main(["check", str(path)]) == 0
    # one build each for the degree and the singular values; membership
    # and the defect Gram read the coefficients, and defect_structure runs
    # no second membership test
    assert calls == {"block_hankel": 2, "is_paraunitary_hankel": 1}
    assert "defect structure" in capsys.readouterr().out


@pytest.mark.parametrize("q, eigvalsh_calls", [(1, 0), (0, 1), (2, 1)])
def test_check_eigvalsh_only_off_q1(q, eigvalsh_calls, tmp_path,
                                    monkeypatch, capsys):
    # a q = 1 member's Delta spectrum is 1 - sigma^2 of the Hankel sigma
    # check already reports; q = 0 and a mixed member keep eigvalsh
    eigvalsh, calls = np.linalg.eigvalsh, []

    def counted(*args, **kwargs):
        calls.append(1)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    path = tmp_path / "wide.json"
    save_poly(random_member(2, 4, 5, 0, seed=4).shift(q - 1), path)
    outputs = []
    for _ in range(2):
        assert main(["check", str(path), "--json"]) == 0
        outputs.append(capsys.readouterr().out)
    assert len(calls) == 2 * eigvalsh_calls
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["q"] == q


def test_repeated_main_gives_same_bytes(wide_file, capsys):
    # the parser is built once per process; a usage error in between
    # leaves the next call's output unchanged
    outputs = []
    for _ in range(2):
        assert main(["check", wide_file, "--json"]) == 0
        outputs.append(capsys.readouterr().out)
        with pytest.raises(SystemExit) as exc:
            main(["check", wide_file, "--no-such-flag"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    assert main(["check", wide_file, "--json"]) == 0
    outputs.append(capsys.readouterr().out)
    assert outputs[0] and outputs.count(outputs[0]) == 3


def test_degree(wide_file, capsys):
    assert main(["degree", wide_file]) == 0
    assert capsys.readouterr().out.strip() == "2"


def test_synth_then_check(tmp_path, capsys):
    ang = tmp_path / "angles.json"
    out = tmp_path / "poly.json"
    save_angles(random_params(2, 2, 3, 0, 9), ang)
    assert main(["synth", str(ang), "-o", str(out)]) == 0
    assert main(["check", str(out)]) == 0


def test_sample_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for path in (a, b):
        assert main(["sample", "--p", "2", "--m", "2", "--d", "3",
                     "--seed", "7", "-o", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert main(["check", str(a)]) == 0


def test_sample_output_bytes(tmp_path, capsys):
    argv = ["sample", "--p", "16", "--m", "8", "--d", "64", "--gamma", "32"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out == json_text(poly_to_dict(random_member(16, 8, 64, 32, 0)))
    path = tmp_path / "sample.json"
    assert main(argv + ["-o", str(path)]) == 0
    assert path.read_bytes() == out.encode()


def test_family_reverse_roundtrip(tmp_path, wide_file):
    once = tmp_path / "r1.json"
    twice = tmp_path / "r2.json"
    assert main(["family", "reverse", wide_file, "-o", str(once)]) == 0
    assert main(["family", "reverse", str(once), "-o", str(twice)]) == 0
    assert Path(wide_file).read_bytes() == twice.read_bytes()


def test_family_needs_second_file(wide_file, capsys):
    assert main(["family", "product", wide_file]) == 2


def test_family_reblock(tmp_path):
    src = tmp_path / "inst.json"
    out = tmp_path / "re.json"
    from pufir.examples import reblock_instance
    save_poly(reblock_instance(-1), src)
    assert main(["family", "reblock", str(src), "--j", "2",
                 "-o", str(out)]) == 0
    G = load_poly(out)
    assert (G.p, G.m) == (4, 4)


def test_realize_wide(wide_file, capsys):
    assert main(["realize", wide_file, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["classification"] == "co-isometric"
    wobs = np.array([[complex(re, im) for re, im in row]
                     for row in data["W_obs"]])
    assert np.max(np.abs(wobs - np.diag([1.0, 0.64]))) < 1e-10


def complex_pair_lists(M):
    return [[[z.real, z.imag] for z in row] for row in M.tolist()]


@pytest.mark.parametrize("F", [constant(np.array([[0.6, 0.8], [-0.8, 0.6]])),
                               random_member(3, 2, 4, 0, 5)],
                         ids=["nu0", "member"])
def test_realize_json_bytes(tmp_path, capsys, F):
    path = tmp_path / "poly.json"
    save_poly(F, path)
    assert main(["realize", str(path), "--json"]) == 0
    R = gramian_normalize(minimal_realization(load_poly(path)))
    label, res_iso, res_coiso = check_unitary_realization(R, DEFAULT_TOL)
    pair = gramians(R)
    report = {"nu": R.nu, "classification": label,
              "residual_isometry": res_iso, "residual_coisometry": res_coiso,
              "rank_ambiguous": R.rank_ambiguous,
              **{key: complex_pair_lists(M) for key, M in (
                  ("A", R.A), ("B", R.B), ("C", R.C), ("D", R.D),
                  ("W_cont", pair.W_cont), ("W_obs", pair.W_obs))}}
    assert (R.nu == 0) == (F.n == 1)
    assert capsys.readouterr().out == json_text(report)


def test_verify_examples_cli(capsys):
    assert main(["verify-examples"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out and out.count("PASS") >= 8


def test_tol_env_override(tmp_path, monkeypatch, capsys):
    F = wide_example(0)
    C = [np.array(B) for B in F.coeffs]
    C[0][0, 0] += 1e-6
    path = tmp_path / "near.json"
    save_poly(LaurentPoly(0, C), path)
    assert main(["check", str(path)]) == 1
    monkeypatch.setenv("PUFIR_TOL", "1e-3")
    assert main(["check", str(path)]) == 0


def test_optimize_cli(capsys):
    assert main(["optimize", "--p", "2", "--m", "2", "--d", "1",
                 "--budget", "200"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["value"] < 1e-6


@pytest.mark.parametrize("scale", [1e4, 1e8])
def test_realize_large_norm_nonmember(tmp_path, capsys, scale):
    # the Stein residual grows with |B|^2; its bound scales with |BB*|
    rng = np.random.default_rng(0)
    C = scale * (rng.normal(size=(4, 3, 2)) + 1j * rng.normal(size=(4, 3, 2)))
    path = tmp_path / "big.json"
    save_poly(LaurentPoly(1, C), path)
    assert main(["realize", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["classification"] == "neither"


def test_realize_member_nu_128(tmp_path, capsys):
    path = tmp_path / "deep.json"
    save_poly(random_member(2, 2, 128, seed=1), path)
    assert main(["realize", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["nu"] == 128 and data["classification"] == "both"


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf"])
def test_tol_option_refused(wide_file, capsys, value):
    for command in ("check", "realize"):
        assert main([command, wide_file, "--tol", value]) == 2
        assert "--tol must be a finite number > 0" in capsys.readouterr().err
    assert main(["verify-examples", "--tol", value]) == 2


@pytest.mark.parametrize("value", ["nan", "-1", "0", "inf", "abc"])
def test_tol_env_refused(wide_file, monkeypatch, capsys, value):
    monkeypatch.setenv("PUFIR_TOL", value)
    for argv in (["check", wide_file], ["realize", wide_file],
                 ["verify-examples"]):
        assert main(argv) == 2
        assert "PUFIR_TOL must be a finite number > 0" in \
            capsys.readouterr().err
