import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from eiscong import congruence, eisenstein
from eiscong.characters import MODULUS_MAX, DirichletChar
from eiscong.cli import build_parser, run
from eiscong.cyclotomic import CycNum
from eiscong.lvalues import K_MAX, ORDER_MAX, PREC_MAX, l_value_at_negative

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "eiscong" / "fixtures"


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def run_cli(*argv, timeout=20):
    """The CLI in a fresh interpreter under a time limit, so that a hang
    fails the test instead of the suite."""
    src = Path(__file__).resolve().parent.parent / "src"
    return subprocess.run([sys.executable, "-m", "eiscong.cli", *argv],
                          capture_output=True, text=True, timeout=timeout,
                          env={**os.environ, "PYTHONPATH": str(src)})


def test_search_ramanujan(capsys):
    code, payload = run_json(capsys, [
        "--json", "search", "--M", "1", "--k", "12",
        "--psi", "1.1", "--phi", "1.1"])
    assert code == 0
    assert [rep["ell"] for rep in payload] == [691]
    assert all(rep["satisfied"] for rep in payload)


def test_search_human_output(capsys):
    argv = ["search", "--M", "2", "--k", "8", "--psi", "1.1", "--phi", "5.4"]
    code = run(argv)
    out = capsys.readouterr().out
    assert code == 0 and "ell=257" in out and "searched" not in out
    # a search limited by --ell-max says so in its header; --json stays a bare list
    assert run(argv + ["--ell-max", "300"]) == 0
    out = capsys.readouterr().out
    assert "only ell <= 300 searched" in out.splitlines()[0] and "ell=257" in out
    code, payload = run_json(capsys, ["--json"] + argv + ["--ell-max", "300"])
    assert code == 0 and [rep["ell"] for rep in payload] == [257]


def test_check_unsatisfied_exits_zero(capsys):
    code, payload = run_json(capsys, [
        "--json", "check", "--M", "2", "--k", "8",
        "--psi", "1.1", "--phi", "5.4", "--ell", "13"])
    assert code == 0
    assert payload and not any(rep["satisfied"] for rep in payload)


def test_check_satisfied(capsys):
    code, payload = run_json(capsys, [
        "--json", "check", "--M", "2", "--k", "8",
        "--psi", "1.1", "--phi", "5.4", "--ell", "257"])
    assert code == 0 and payload[0]["satisfied"]


def test_check_evaluates_condition_one_once(capsys, monkeypatch):
    # 337 splits into two primes of Z[zeta_6]; both reports share one L-value
    calls = []
    real = eisenstein.l_value_at_negative
    monkeypatch.setattr(eisenstein, "l_value_at_negative",
                        lambda *a: calls.append(a) or real(*a))
    code, payload = run_json(capsys, [
        "--json", "check", "--M", "2", "--k", "7",
        "--psi", "1.1", "--phi", "7.3", "--ell", "337"])
    assert code == 0
    assert len(payload) == 2 and len(calls) == 1


@pytest.mark.parametrize("exc", [ArithmeticError("no inverse"), KeyError("x"),
                                 RecursionError("maximum recursion depth exceeded")])
def test_internal_error_exit_3(capsys, monkeypatch, exc):
    def kernel(*args):
        raise exc

    monkeypatch.setattr(congruence, "primes_above", kernel)
    code = run(["check", "--M", "2", "--k", "8", "--psi", "1.1", "--phi", "5.4",
                "--ell", "257"])
    out, err = capsys.readouterr()
    assert code == 3 and out == ""
    assert err.count("\n") == 1
    assert err.startswith(f"error: internal: {type(exc).__name__}: ")
    assert "Traceback" not in err


def test_usage_error_exit_2(capsys):
    code = run(["check", "--M", "2", "--k", "2", "--psi", "1.1", "--phi", "5.4",
                "--ell", "13"])
    assert code == 2
    assert "k must exceed 2" in capsys.readouterr().err


def test_contradictory_level_exit_2(capsys):
    # N = 5 from the characters shares a prime with M
    code = run(["search", "--M", "5", "--k", "8",
                "--psi", "1.1", "--phi", "5.4"])
    assert code == 2 and "coprime" in capsys.readouterr().err


def test_lvalue(capsys):
    limit = sys.get_int_max_str_digits()
    code, payload = run_json(capsys, ["--json", "lvalue", "--k", "12", "--chi", "1.1"])
    assert code == 0
    assert payload == {"conductor": 1, "coeffs": [["691", "32760"]]}
    assert sys.get_int_max_str_digits() == limit  # run() restores the interpreter's limit


def test_eis_qexp(capsys):
    code, payload = run_json(capsys, [
        "--json", "eis", "qexp", "--M", "1", "--k", "12",
        "--psi", "1.1", "--phi", "1.1", "--prec", "3"])
    assert code == 0
    assert payload["weight"] == 12 and payload["precision"] == 3
    assert payload["coeffs"][2]["coeffs"][0][0] == "2049"


def test_eis_qexp_prec_above_ceiling_exit_2(capsys, monkeypatch):
    # refused before any coefficient is computed: a divisor sum would fail
    def no_work(*args):
        raise AssertionError("a coefficient was computed")
    monkeypatch.setattr(eisenstein, "sigma_power_div", no_work)
    monkeypatch.setattr(eisenstein, "_series_rows", no_work)
    prec = PREC_MAX + 1
    assert run(["eis", "qexp", "--M", "6", "--k", "8", "--psi", "1.1", "--phi", "5.4",
                "--prec", str(prec)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: precision {prec} is above the ceiling "
                            f"PREC_MAX = {PREC_MAX} for q-expansions\n")
    assert captured.out == ""


def test_eis_cusp(capsys):
    code, payload = run_json(capsys, [
        "--json", "eis", "cusp", "--M", "1", "--k", "12",
        "--psi", "1.1", "--phi", "1.1",
        "--a", "1", "--beta", "0", "--b", "0", "--d", "1"])
    assert code == 0
    assert payload["c_gamma"]["coeffs"][0] == ["-691", "65520"]


def test_eis_cusp_gauss_conductor_above_ceiling_exit_2():
    # phi = 4919.13 has order 4918, so g(phi) lies in Q(zeta_24191642):
    # refused before any vector is built, well inside the time limit
    proc = run_cli("eis", "cusp", "--M", "2", "--k", "7", "--psi", "1.1", "--phi", "4919.13",
                   "--a", "1", "--beta", "0", "--b", "4919", "--d", "1")
    assert proc.returncode == 2
    assert "Gauss-sum conductor 24191642 is above the ceiling" in proc.stderr
    assert proc.stdout == ""


def test_verify_pass_and_fail_exit_codes(capsys, tmp_path):
    code = run(["--offline", "verify", "--label", "10.8.b.a", "--ell", "257",
                "--psi", "1.1", "--phi", "5.4", "--M", "2", "--k", "8",
                "--bound", "60"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    # a non-congruence prime yields a verified failure: exit 1
    code = run(["--offline", "verify", "--label", "10.8.b.a", "--ell", "13",
                "--psi", "1.1", "--phi", "5.4", "--M", "2", "--k", "8",
                "--bound", "30"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["--label", "1.12.a.a", "--ell", "13", "--psi", "1.1", "--phi", "1.1", "--M", "1",
      "--k", "12"], "leaves no prime q to check"),
    (["--label", "10.8.b.a", "--ell", "257", "--psi", "1.1", "--phi", "5.4", "--M", "2",
      "--k", "8", "--bound", "0"], "leaves no prime q to check"),
    (["--label", "10.8.b.a", "--ell", "257", "--psi", "1.1", "--phi", "5.4", "--M", "2",
      "--k", "8", "--bound", "1000"], "need coefficients up to 1000, fixture has 110"),
], ids=["sturm-bound-1", "bound-0", "bound-past-fixture"])
def test_verify_with_no_prime_to_check_exit_2(capsys, argv, message):
    # the default bound at level 1 (Sturm(12, 1) = 1) and --bound 0 leave no
    # prime q to compare; that is refused, not reported as a pass, and so is
    # a bound past the coefficients the fixture stores
    assert run(["--offline", "verify", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_verify_unknown_label_exit_2(capsys, tmp_path):
    # the error names the label and each directory the file may go in
    code = run(["--offline", "verify", "--label", "3.4.a.a", "--ell", "5",
                "--psi", "1.1", "--phi", "1.1", "--M", "3", "--k", "4",
                "--fixtures", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'3.4.a.a'" in captured.err and str(tmp_path) in captured.err


def test_fixture_missing_field_exit_2(capsys, tmp_path):
    fixture = json.loads(FIXTURES.joinpath("1.12.a.a.json").read_text())
    del fixture["basis"]
    path = tmp_path / "1.12.a.a.json"
    path.write_text(json.dumps(fixture))
    code = run(["--offline", "verify", "--label", "1.12.a.a", "--ell", "691",
                "--psi", "1.1", "--phi", "1.1", "--M", "1", "--k", "12",
                "--fixtures", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(path) in err and "'basis'" in err


@pytest.mark.parametrize("n, change", [(3, -1), (3, 1), (1, 1)])
def test_fixture_an_of_wrong_length_exit_2(capsys, tmp_path, n, change):
    # a vector one entry short or long is a bad fixture, not a failed or
    # passed verification
    fixture = json.loads(FIXTURES.joinpath("10.8.b.a.json").read_text())
    vec = fixture["an"][n - 1]
    fixture["an"][n - 1] = vec[:-1] if change < 0 else vec + ["0"]
    path = tmp_path / "10.8.b.a.json"
    path.write_text(json.dumps(fixture))
    code = run(["--offline", "verify", "--label", "10.8.b.a", "--ell", "257",
                "--psi", "1.1", "--phi", "5.4", "--M", "2", "--k", "8",
                "--bound", "100", "--fixtures", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(path) in err
    assert f"a_{n} has {4 + change} entries, the field degree is 4" in err


def test_fixture_of_another_label_exit_2(capsys, tmp_path):
    # a file stored under one label that holds another newform is refused,
    # not verified and certified under the newform it holds
    path = tmp_path / "42.6.e.a.json"
    path.write_text(FIXTURES.joinpath("42.6.e.c.json").read_text())
    code = run(["--offline", "verify", "--label", "42.6.e.a", "--ell", "73",
                "--psi", "1.1", "--phi", "7.4", "--M", "6", "--k", "6",
                "--fixtures", str(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(path) in captured.err
    assert "'42.6.e.c'" in captured.err and "'42.6.e.a'" in captured.err


def test_label_that_is_no_lmfdb_label_exit_2(capsys, tmp_path):
    # "../planted/x" would name a file outside the fixture directory; a
    # planted fixture there, which verifies, is not read
    nf = json.loads(FIXTURES.joinpath("10.8.b.a.json").read_text())
    (tmp_path / "planted").mkdir()
    (tmp_path / "planted" / "x.json").write_text(json.dumps({**nf, "label": "../planted/x"}))
    (tmp_path / "store").mkdir()
    code = run(["--offline", "verify", "--label", "../planted/x", "--ell", "257",
                "--psi", "1.1", "--phi", "5.4", "--M", "2", "--k", "8",
                "--fixtures", str(tmp_path / "store")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'../planted/x' is not an LMFDB newform label" in captured.err


@pytest.mark.parametrize("d", [2, 7])
def test_bk_m1_with_divisor_other_than_1_exit_2(capsys, d):
    # at M = 1 the only divisor is 1, as at M = 2 a d that is no proper
    # divisor is refused
    code = run(["bk", "--M", "1", "--k", "12", "--psi", "1.1", "--phi", "1.1",
                "--ell", "691", "--d", str(d)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: d = {d} must be 1 when M = 1\n"


def test_bk_subcommand(capsys):
    code, payload = run_json(capsys, [
        "--json", "bk", "--M", "2", "--k", "8", "--psi", "1.1", "--phi", "5.4",
        "--ell", "257", "--d", "1"])
    assert code == 0
    assert payload[0]["order_k"] == 1 and payload[0]["p_new_primes"] == [2]


def test_reproduce_ramanujan(capsys):
    code, payload = run_json(capsys, ["--json", "--offline", "reproduce", "ramanujan"])
    assert code == 0
    assert payload["certificates"][0]["passed"] is True
    assert payload["search"][0]["ell"] == 691


@pytest.mark.parametrize("example,ell", [("5.1", 257), ("5.2", 337), ("5.3", 73)])
def test_reproduce_paper_examples(capsys, example, ell):
    # flags are accepted after the subcommand as in the documented usage
    code, payload = run_json(capsys, ["--json", "reproduce", example, "--offline"])
    assert code == 0
    assert payload["search"][0]["ell"] == ell
    assert payload["certificates"][0]["passed"] is True


@pytest.mark.parametrize("example", ["ramanujan", "5.1", "5.2", "5.3"])
def test_reproduce_json_golden(capsys, example):
    # the whole stdout, byte for byte, as recorded from the sources before
    # the norm moved onto the conjugate product; --offline, which the
    # benchmark passes, is accepted and changes nothing
    golden = (Path(__file__).resolve().parent / "data" / f"reproduce_{example}.json").read_text()
    for argv in (["reproduce", example, "--offline", "--json"], ["reproduce", example, "--json"]):
        assert run(argv) == 0, argv
        assert capsys.readouterr().out == golden, argv


def test_json_roundtrips_schema(capsys):
    code, payload = run_json(capsys, [
        "--json", "search", "--M", "2", "--k", "8", "--psi", "1.1", "--phi", "5.4"])
    assert code == 0
    rep = payload[0]
    assert set(rep) >= {"params", "ell", "lambda_prime", "cond1", "cond2",
                        "admissible", "satisfied"}
    assert rep["lambda_prime"] == {"ell": 257, "m": 2, "factor": [1, 1]}


@pytest.mark.parametrize("ell", ["0", "15"])
def test_check_non_prime_ell_exit_2(capsys, ell):
    code = run(["check", "--M", "2", "--k", "8", "--psi", "1.1", "--phi", "5.4",
                "--ell", ell])
    assert code == 2
    assert f"got {ell}" in capsys.readouterr().err


def test_check_ell_one_exit_2_in_bounded_time():
    proc = run_cli("check", "--M", "2", "--k", "8", "--psi", "1.1", "--phi", "5.4",
                   "--ell", "1", timeout=60)
    assert proc.returncode == 2
    assert "got 1" in proc.stderr


def test_search_ell_max_bounded_time():
    # its Euler-factor norms have 102-235 digits; with --ell-max the search
    # trial-divides them and factors nothing
    proc = run_cli("--json", "search", "--psi", "1.1", "--phi", "61.2", "--M", "30",
                   "--k", "21", "--ell-max", "1000")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_search_gcd_first_bounded_time():
    # without --ell-max: the gcd of the Condition-(1) norm numerator and of
    # N(E_p) N(E'_p) at p = 2, 3, 5 is 61, which divides N, so no ell is
    # admissible and no norm is factored
    proc = run_cli("--json", "search", "--psi", "1.1", "--phi", "61.2", "--M", "30",
                   "--k", "21")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.mark.parametrize("ell_max", ["-5", "0", "1"])
def test_search_ell_max_below_two_exit_2(capsys, ell_max):
    code = run(["search", "--M", "2", "--k", "8", "--psi", "1.1", "--phi", "5.4",
                "--ell-max", ell_max])
    assert code == 2
    captured = capsys.readouterr()
    assert "--ell-max" in captured.err and f"got {ell_max}" in captured.err
    assert captured.out == ""


def test_eis_cusp_frozen_payloads(capsys):
    # constant_term and c_gamma recorded with the Gauss-sum ratio taken
    # through an inverse by the extended Euclidean algorithm: psi trivial
    # with phi = 13.2 (values in Q(zeta_156)), psi nontrivial, and M = 6
    # with a mixed delta-choice
    cases = json.loads((Path(__file__).resolve().parent / "data" /
                        "eis_cusp_payloads.json").read_text())
    for case in cases:
        code, payload = run_json(capsys, case["argv"])
        assert code == 0
        assert payload == case["payload"], case["argv"]


@pytest.mark.parametrize("spec, complaint", [
    ("2", "'2' is not of the form"), ("2:psi:phi", "'2:psi:phi' is not of the form"),
    ("x:psi", "'x:psi' is not of the form"), ("2:psi,2:phi", "'2:phi' repeats the prime 2")])
def test_eis_bad_delta_exit_2(capsys, spec, complaint):
    code = run(["eis", "qexp", "--M", "2", "--k", "8", "--psi", "1.1", "--phi", "5.4",
                "--delta", spec])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: --delta item {complaint}")
    assert captured.out == ""


def test_eis_qexp_json_golden(capsys):
    # stdout of `eis qexp --json --prec 41` for every delta-choice of the
    # acceptance grid and of (3.2, 5.2, M = 154, k = 6), recorded from the
    # sources that summed alpha_m E over the divisors m of M
    cases = json.loads((Path(__file__).resolve().parent / "data" /
                        "eis_qexp.json").read_text())
    assert len(cases) == 24
    for case in cases:
        assert run(case["argv"]) == 0
        assert capsys.readouterr().out == case["stdout"], case["argv"]


def test_eis_qexp_human_golden(capsys):
    # stdout of `eis qexp` without --json, recorded from the sources that
    # built both output forms: rational, Q(zeta_3) and Q(zeta_12) coefficients
    cases = json.loads((Path(__file__).resolve().parent / "data" /
                        "eis_qexp_human.json").read_text())
    assert len(cases) == 4
    for case in cases:
        assert run(case["argv"]) == 0
        assert capsys.readouterr().out == case["stdout"], case["argv"]


def test_eis_qexp_builds_only_the_printed_form(capsys, monkeypatch):
    argv = ["eis", "qexp", "--psi", "1.1", "--phi", "7.4", "--M", "6", "--k", "6", "--prec", "20"]

    def unused(*args):
        raise AssertionError("an output that is not printed was built")
    with monkeypatch.context() as m:
        m.setattr(eisenstein.QExpansion, "to_json", unused)
        assert run(argv) == 0
    with monkeypatch.context() as m:
        m.setattr(CycNum, "__repr__", unused)
        assert run(["--json", *argv]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["search", "--M", "2", "--k", "100000", "--psi", "1.1", "--phi", "5.4"],
    ["check", "--M", "2", "--k", "100000", "--psi", "1.1", "--phi", "5.4", "--ell", "13"],
    ["lvalue", "--k", "100000", "--chi", "5.2"],
    ["lvalue", "--k", str(K_MAX + 1), "--chi", "1.1"]])
def test_k_above_ceiling_exit_2_in_bounded_time(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    k = argv[argv.index("--k") + 1]
    assert proc.stderr.startswith(f"error: k = {k} is above the ceiling K_MAX = {K_MAX}")
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["lvalue", "--k", "12", "--chi", "100003.2"],
    ["search", "--M", "2", "--k", "7", "--psi", "1.1", "--phi", "100003.2"]])
def test_order_above_ceiling_exit_2_in_bounded_time(argv):
    # 100003.2 has order 100002: building its Phi by long division runs for
    # minutes
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: order 100002 of ")
    assert f"above the ceiling ORDER_MAX = {ORDER_MAX}" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, out", [
    (["check", "--M", "1", "--k", "9"],
     "ell=13 lambda'=<13>: not satisfied (cond1=False, cond2=True, admissible=True)"),
    (["check", "--M", "2", "--k", "7"],
     "ell=13 lambda'=<13>: not satisfied (cond1=False, cond2=False, admissible=True)"),
    (["bk", "--M", "2", "--k", "7"], "lambda'=<13>: ord_k=0 ord_k2=0 S=[]")])
def test_inert_ell_at_large_value_conductor_in_bounded_time(argv, out):
    # 4919.13 has order 4918 and 13 is inert in Q(zeta_4918), so the one
    # prime above 13 is Phi_4918 mod 13, of degree 2458: factoring it to
    # find that ran for minutes
    proc = run_cli(*argv, "--psi", "1.1", "--phi", "4919.13", "--ell", "13")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == out + "\n"


@pytest.mark.parametrize("argv", [
    ["lvalue", "--k", "12", "--chi", "10000019.2"],
    ["search", "--M", "2", "--k", "7", "--psi", "1.1", "--phi", "10000019.2"]])
def test_modulus_above_ceiling_exit_2_in_bounded_time(argv):
    # the unit tables of a character mod 10000019 would take about 2 GiB
    proc = run_cli(*argv, timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: modulus 10000019 is above the ceiling "
                                  f"MODULUS_MAX = {MODULUS_MAX}")
    assert proc.stdout == ""


@pytest.mark.parametrize("argv", [
    ["search", "--M", "46189", "--k", "8", "--psi", "1.1", "--phi", "5.4"],
    ["check", "--M", "46189", "--k", "8", "--psi", "1.1", "--phi", "5.4", "--ell", "257"]])
def test_level_above_modulus_ceiling_exit_2(argv):
    # N*M = 5 * 46189 = 230945: every prime power is small, but chi_tilde
    # would be a character mod N*M above the ceiling, so search refuses it
    # as check does, and neither prints a result
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: level N*M = 230945 is above the ceiling "
                                  f"MODULUS_MAX = {MODULUS_MAX}")
    assert proc.stdout == ""


def test_lvalue_at_order_ceiling_in_bounded_time():
    # order 4946 = 2 * 2473: an order 2p near the ceiling, the dearest shape
    # for building and applying Phi
    proc = run_cli("--json", "lvalue", "--k", "12", "--chi", "39569.6561")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["conductor"] == 4946


def test_lvalue_near_ceiling_in_bounded_time():
    proc = run_cli("--json", "lvalue", "--k", "999", "--chi", "29.2")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["conductor"] == 28


def test_lvalue_prints_past_the_int_str_digit_limit():
    # its numerators run past the interpreter's default 4300 digits
    proc = run_cli("--json", "lvalue", "--k", "999", "--chi", "401.3")
    assert proc.returncode == 0, proc.stderr
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        got = CycNum.from_json(json.loads(proc.stdout))
    finally:
        sys.set_int_max_str_digits(limit)
    assert max(len(p) for p, _ in json.loads(proc.stdout)["coeffs"]) > limit
    assert got == l_value_at_negative(999, DirichletChar.from_label("401.3"))


# the options of every command, each of which also takes -h/--help and,
# but for "eis", which only groups "qexp" and "cusp", the global flags; a
# positional is listed by its name.  A flag added or dropped must be
# added or dropped here.
GLOBAL_FLAGS = ["--fixtures", "--json", "--offline"]
CLI_OPTIONS = {
    "": [],
    "search": ["--M", "--ell-max", "--k", "--phi", "--psi"],
    "check": ["--M", "--ell", "--k", "--phi", "--psi"],
    "verify": ["--M", "--bound", "--ell", "--exclude-ell", "--k", "--label",
               "--phi", "--psi"],
    "eis": [],
    "eis qexp": ["--M", "--delta", "--k", "--phi", "--prec", "--psi"],
    "eis cusp": ["--M", "--a", "--b", "--beta", "--d", "--delta", "--k",
                 "--phi", "--psi"],
    "lvalue": ["--chi", "--k"],
    "bk": ["--M", "--d", "--ell", "--k", "--phi", "--psi"],
    "reproduce": ["example"],
}


def _option_surface(parser, path=""):
    out = {path: []}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                out.update(_option_surface(sub, f"{path} {name}".strip()))
        else:
            out[path] += action.option_strings or [action.dest]
    return {k: sorted(v) for k, v in out.items()}


def test_cli_option_surface():
    expected = {path: sorted(opts + ["--help", "-h"] + (GLOBAL_FLAGS if path != "eis" else []))
                for path, opts in CLI_OPTIONS.items()}
    assert _option_surface(build_parser()) == expected
