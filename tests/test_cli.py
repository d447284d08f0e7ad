import argparse
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from germain_lab import (arith, constants, counting, primroot, progressions, sieve,
                         sums)
from germain_lab.cli import (COMMANDS, _OneOf, main, parse_exact_int,
                             parse_int_list)
from germain_lab.counting import pair_sums
from germain_lab.reports import render_csv, render_json

README = Path(__file__).resolve().parents[1] / "README.md"


def test_parse_exact_int_scientific_notation():
    assert parse_exact_int("1e6") == 1000000
    assert parse_exact_int("2500") == 2500
    assert parse_exact_int("1.5e1") == 15
    with pytest.raises(argparse.ArgumentTypeError, match="not an integer: '2.5'"):
        parse_exact_int("2.5")
    with pytest.raises(argparse.ArgumentTypeError, match="not a number: 'abc'"):
        parse_exact_int("abc")


@pytest.mark.parametrize("token", ["inf", "-Infinity", "nan", "sNaN", "1e4300",
                                   "-1e4300", "1e1000000"])
def test_parse_exact_int_refuses_what_int_cannot_take_quickly(token):
    with pytest.raises(argparse.ArgumentTypeError):
        parse_exact_int(token)


def test_parse_exact_int_takes_the_widest_integer_and_any_zero():
    assert parse_exact_int("1e4299") == 10 ** 4299
    assert parse_exact_int("-9.9e4299") == -99 * 10 ** 4298
    assert parse_exact_int("0e99999999") == 0


# why each unbounded token is refused, as the usage error says it
_WHY = {"inf": "not a finite number: 'inf'",
        "1e2,sNaN": "not a finite number: 'sNaN'",
        "-Infinity": "not a finite number: '-Infinity'",
        "1e1000000": "'1e1000000' has more than the 4300 digits an integer may take"}


@pytest.mark.parametrize("argv, flag, token", [
    (["census", "--x", "inf"], "--x", "inf"),
    (["census", "--x", "1e2,sNaN"], "--x", "1e2,sNaN"),
    (["constants", "--cutoff=-Infinity"], "--cutoff", "-Infinity"),
    (["constants", "--cutoff", "1e1000000"], "--cutoff", "1e1000000"),
    (["ap-census", "--x", "10", "--q", "inf"], "--q", "inf"),
])
def test_unbounded_number_is_a_usage_error(argv, flag, token, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "usage",
                                        "message": f"argument {flag}: {_WHY[token]}"}


@pytest.mark.parametrize("argv, message", [
    (["census", "--x", "5,3"],
     "argument --x: checkpoints must be strictly ascending: [5, 3]"),
    (["census", "--x", "100,1e2"],
     "argument --x: checkpoints must be strictly ascending: [100, 100]"),
    (["census", "--x", ","], "argument --x: empty checkpoint list"),
    (["constants", "--cutoff", "2.5"], "argument --cutoff: not an integer: '2.5'"),
    (["primroot", "--short-test", "--limit", "1e3x"],
     "argument --limit: not a number: '1e3x'"),
])
def test_malformed_number_is_a_usage_error_that_says_why(argv, message, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "usage", "message": message}


def test_parse_int_list_requires_ascending():
    assert parse_int_list("1e2,1e4,1e6") == [100, 10000, 1000000]
    with pytest.raises(argparse.ArgumentTypeError, match="strictly ascending"):
        parse_int_list("100,100")
    with pytest.raises(argparse.ArgumentTypeError, match="empty checkpoint list"):
        parse_int_list("")


def test_census_csv_deterministic_across_thread_counts(tmp_path, small_windows):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = ["census", "--x", "100,1000", "--c2-cutoff", "1e4"]
    assert main([*base, "--threads", "1", "--output", str(out1)]) == 0
    assert main([*base, "--threads", "4", "--output", str(out2)]) == 0
    # the C2 product spans several windows
    assert max(small_windows) > 1
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "x,pi_g,psi_g,psi0,hl_prediction,ratio"


def test_json_report_shape(tmp_path):
    out = tmp_path / "r.json"
    assert main(["table-errata", "--format", "json", "--output", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["command"] == "table-errata"
    assert "threads" not in doc["config"]
    mism = [r for r in doc["rows"] if not r["match"]]
    assert sorted(r["p"] for r in mism) == [673, 739]


def test_cli_main_census(capsys):
    assert main(["census", "--x", "1e2", "--c2-cutoff", "1e4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,pi_g,psi_g,psi0,hl_prediction,ratio"
    assert lines[1].startswith("100,10,")


def test_hl_compare_report_bytes_pinned(capsys):
    # recorded before hl-compare took its pair counts from the census pass
    assert main(["hl-compare", "--x", "1e2,1e4,1e6", "--c2-cutoff", "1e4"]) == 0
    assert capsys.readouterr().out == (
        "x,pi_g,hl_prediction,prediction_over_actual\n"
        "100,10,10.1987867043475,1.01987867043475\n"
        "10000,190,194.578504115912,1.02409739008375\n"
        "1000000,7746,7810.71514127369,1.00835465288842\n")


def test_hl_compare_leaves_the_ratio_empty_where_no_pair_exists(capsys):
    # 7p + 1 is even for every odd p, and 15 is not prime: pi_g is 0 at every
    # x, so prediction/actual is undefined; at x = 2 the prediction is 0 too
    argv = ["hl-compare", "--x", "2,3,100", "--a", "7", "--b", "1", "--c2-cutoff", "1e4"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[1::2] for line in lines[1:]] == [["0", ""]] * 3
    assert main([*argv, "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(r["pi_g"], r["prediction_over_actual"]) for r in rows] == [(0, "")] * 3


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_json_reports_refuse_a_nan_or_an_infinity(value):
    with pytest.raises(ValueError, match="JSON"):
        render_json("census", {}, ["x", "value"], [[1, value]])


def test_cli_reals_use_15_significant_digits(capsys):
    assert main(["reciprocal-sum", "--x", "23", "--c2-cutoff", "1e4"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[1] == "1.16772068511199"


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_threads_flag_below_one_is_rejected(threads, capsys):
    assert main(["census", "--x", "100", "--threads", threads]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "CliError",
                                        "message": "--threads must be >= 1"}


def _domain_message(b: int) -> str:
    return (f"2a+b must be >= 2 for the prediction from t = 2, got a=1, "
            f"b={b}, 2a+b={2 + b}")


@pytest.mark.parametrize("argv, message", [
    ("census --x 100 --a 1 --b -1", _domain_message(-1)),
    ("hl-compare --x 100 --a 1 --b -1", _domain_message(-1)),
    ("census --x 100 --a 1 --b -5", _domain_message(-5)),
    ("census --x 100 --a 1 --b -1 --c2-cutoff 1e8", _domain_message(-1)),
    ("reciprocal-sum --x 1,1000 --c2-cutoff 1e8", "x must be >= 2, got 1"),
    ("hl-compare --x 1 --c2-cutoff 1e8", "x must be >= 2, got 1"),
    ("twisted-sums --m 0 --x 100 --c2-cutoff 1e8", "m must be >= 1, got 0"),
    ("twisted-sums --x 0 --c2-cutoff 1e8", "x must be >= 1, got 0"),
])
def test_prediction_domain_is_refused_before_the_pass(argv, message, monkeypatch,
                                                      capsys):
    # 2a + b < 2: log(a t + b) <= 0 at t = 2, where the prediction starts;
    # x < 2 ends before it starts
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    # counting holds its own reference to the sieve's window stream
    monkeypatch.setattr(sieve, "pair_primes", no_work)
    monkeypatch.setattr(sieve, "pair_windows", no_work)
    monkeypatch.setattr(counting, "pair_windows", no_work)
    monkeypatch.setattr(constants, "twin_prime_constant", no_work)
    monkeypatch.setattr(sums, "mobius_sieve", no_work)
    assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "ValueError", "message": message}


_PAST_2_50 = ("is at or above 2^50: the base primes up to its square root would "
              "pass 2^25")


@pytest.mark.parametrize("argv, message", [
    ("census --x 2 --a 562949953421312 --sieve-limit 2e16 --c2-cutoff 1e9",
     f"a*x+b = 1125899906842625 {_PAST_2_50}"),
    ("hl-compare --x 2 --a 562949953421312 --sieve-limit 2e16 --c2-cutoff 1e9",
     f"a*x+b = 1125899906842625 {_PAST_2_50}"),
    ("reciprocal-sum --x 6e14 --sieve-limit 2e15",
     f"a*x+b = 1200000000000001 {_PAST_2_50}"),
    ("census --x 2 --a 4611686018427387904 --sieve-limit 2e19",
     "a*x+b = 9223372036854775809 overflows the supported 64-bit range"),
])
def test_pair_range_is_refused_before_c2(argv, message, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(constants, "twin_prime_constant", no_work)
    monkeypatch.setattr(sieve, "_primes", no_work)
    assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "ValueError", "message": message}


@pytest.mark.parametrize("command", ["census", "hl-compare", "reciprocal-sum",
                                     "twisted-sums"])
def test_c2_cutoff_is_refused_before_the_pass(command, monkeypatch, capsys):
    def no_pass(*args, **kwargs):
        raise AssertionError("the pair sieve or the sums' tables ran")

    monkeypatch.setattr(sieve, "pair_primes", no_pass)
    monkeypatch.setattr(sieve, "pair_windows", no_pass)
    monkeypatch.setattr(counting, "pair_windows", no_pass)
    monkeypatch.setattr(sums, "mobius_sieve", no_pass)
    monkeypatch.setattr(sums, "totient_sieve", no_pass)
    assert main([command, "--x", "1e3,1e8", "--c2-cutoff", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "ValueError",
                                        "message": "cutoff must be >= 3, got 2"}


@pytest.mark.parametrize("argv, cutoff", [
    ("constants --cutoff 10000000001", 10 ** 10 + 1),
    ("constants --cutoff 1e12 --d 6", 10 ** 12),
    ("census --x 100 --c2-cutoff 1e11", 10 ** 11),
    ("twisted-sums --x 10 --c2-cutoff 1e11", 10 ** 11),
])
def test_c2_cutoff_above_the_cap_is_refused_before_the_sieve(argv, cutoff,
                                                            monkeypatch, capsys):
    def no_sieve(*args, **kwargs):
        raise AssertionError("the prime sieve ran")

    monkeypatch.setattr(sieve, "prime_windows", no_sieve)
    assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ValueError",
        "message": f"cutoff {cutoff} is above the cap {constants.C2_CUTOFF_CAP}"}


_M89 = 2 ** 89 - 1  # a Mersenne prime: trial division would never end


@pytest.mark.parametrize("argv, flag, offset", [
    (f"constants --d 2,{2 * _M89}", "offset", 2 * _M89),
    ("constants --d 1e30", "offset", 10 ** 30),
    ("constants --d 100000000000001", "offset", 10 ** 14 + 1),
    (f"twisted-sums --x 10 --m {_M89}", "m", _M89),
    (f"twisted-sums --x 10 --m {_M89} --no-log", "m", _M89),
])
def test_offsets_above_the_cap_are_refused_before_any_work(argv, flag, offset,
                                                           monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(constants, "twin_prime_constant", no_work)
    monkeypatch.setattr(constants, "factorize", no_work)
    monkeypatch.setattr(sums, "factorize", no_work)
    monkeypatch.setattr(sums, "mobius_sieve", no_work)
    assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ValueError",
        "message": f"{flag} {offset} is above the factoring cap {constants.OFFSET_CAP}"}


def test_offset_at_the_cap_is_served(capsys):
    assert main(["constants", "--cutoff", "1e3", "--d", "1e14"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith(
        "singular-series,100000000000000,1000,")


@pytest.mark.parametrize("argv", [
    "reciprocal-sum --a 4",
    "psi0-partition --x 100 --a 4 --b 3",
    "sums --x 100 --formula log-lcm --a 5",
    "table-errata --c2-cutoff 7",
    "constants --c2-cutoff 1e4",
    "census --seed 3",
])
def test_flag_the_command_does_not_read_is_a_usage_error(argv, capsys):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err)
    assert record["error"] == "usage"
    assert record["message"].startswith("unrecognized arguments: --")


@pytest.mark.parametrize("argv", [
    "primroot --short-test --trials 0",
    "primroot --fermat --trials -3",
    "large-sieve --trials 0",
    "verify-identities --max 0",
    "ap-census --x 100 --q 0",
    "ap-census --x 100 --q -2",
    "large-sieve --sequence ones --x -5",
    "large-sieve --sequence primes --x -5",
    "large-sieve --sequence random --x 0",
    "large-sieve --Q 0",
])
def test_count_below_one_is_a_usage_error(argv, capsys):
    *_, flag, value = argv.split()
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "usage",
        "message": f"argument {flag}: must be an integer >= 1, got {value}"}


@pytest.mark.parametrize("cutoff", ["0", "1"])
def test_constants_cutoff_below_three_is_refused(cutoff, capsys):
    assert main(["constants", "--cutoff", cutoff]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "ValueError", "message": f"cutoff must be >= 3, got {cutoff}"}


@pytest.mark.parametrize("argv, minimum", [
    ("primroot --theorem-4p1 --limit", 3),  # first pair (3, 13)
    ("primroot --short-test --trials 2 --limit", 7),  # first modulus 7 = 2*3 + 1
    ("table-errata --limit", 3),  # first published row p = 3
])
def test_limit_that_checks_nothing_is_refused(argv, minimum, capsys):
    for limit in (minimum - 1, 0, -4):
        assert main(f"{argv} {limit}".split()) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "CliError",
            "message": f"--limit must be >= {minimum}, the first value it "
                       f"checks; got {limit}"}
    assert main(f"{argv} {minimum}".split()) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2  # header and one row


def test_unknown_command_is_a_usage_error(capsys):
    assert main(["no-such-command"]) == 2
    err = capsys.readouterr().err
    assert json.loads(err.strip())["error"] == "usage"


def test_checkpoint_beyond_sieve_capability(capsys):
    code = main(["census", "--x", "1e6", "--sieve-limit", "1e4"])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert "sieve capability" in record["message"]


def test_unwritable_output_path(tmp_path, capsys):
    code = main(["table-errata", "--output", str(tmp_path / "no" / "dir.csv")])
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip())["error"]


def test_verify_identities_reports_all_zero(capsys):
    assert main(["verify-identities", "--max", "60"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 3
    for row in rows:
        cells = row.split(",")
        assert cells[4] == "0" and cells[5] == "0"


def _identity_rows(capsys):
    return {r["identity"]: (r["nonzero_residuals"], r["max_abs_residual"])
            for r in json.loads(capsys.readouterr().out)["rows"]}


def test_verify_identities_counts_a_planted_fault_once_per_pair(monkeypatch, capsys):
    totient_sieve = sums.totient_sieve

    def planted(at):
        def table(limit):
            phi = totient_sieve(limit)
            phi[at] += 1
            return phi
        return table

    # phi(7) + 1 puts 1 into sum_{d|g} phi(d) for the 4 * 4 pairs with 7 | g,
    # (m, n) = (7a, 7b), a, b <= 4, and into no other pair
    monkeypatch.setattr(sums, "totient_sieve", planted(7))
    assert main(["verify-identities", "--max", "30", "--format", "json"]) == 1
    got = _identity_rows(capsys)
    assert {name: count for name, (count, _) in got.items()} == dict.fromkeys(
        sums.IDENTITIES, 16)
    assert got["gcd-phi-divisor"][1] == 1
    assert got["lcm-reciprocal"][1] == 84  # [m,n] * 1 at (28, 21)
    # phi(36) + 1 enters phi(mn) when mn = 36 and phi([m,n]) when [m,n] = 36;
    # the two cancel where m, n are coprime, since then mn = [m,n]
    monkeypatch.setattr(sums, "totient_sieve", planted(36))
    assert main(["verify-identities", "--max", "12", "--format", "json"]) == 1
    affected = [(m, n) for m in range(1, 13) for n in range(1, 13)
                if math.gcd(m, n) > 1 and 36 in (m * n, math.lcm(m, n))]
    assert affected == [(3, 12), (6, 6), (9, 12), (12, 3), (12, 9)]
    assert _identity_rows(capsys) == {"gcd-phi-divisor": (0, 0),
                                      "lcm-reciprocal": (0, 0),
                                      "phi-lcm-reciprocal": (5, 3)}


def _planted(monkeypatch, module, name, fault):
    """Patch module.name so that fault(args, value) gives each call's value."""
    real = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: fault(args, real(*args)))


def test_large_sieve_counts_a_planted_negative_slack(monkeypatch, capsys):
    # the second trial's slack is negated; the others keep theirs
    calls = []
    _planted(monkeypatch, progressions, "large_sieve_check", lambda args, rep:
             calls.append(1) or (rep._replace(slack=-rep.slack)
                                 if len(calls) == 2 else rep))
    assert main(["large-sieve", "--sequence", "random", "--x", "100", "--Q", "3",
                 "--trials", "3", "--format", "json"]) == 1
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(r["seed"], r["slack"] < 0) for r in rows] == [
        (0, False), (1, True), (2, False)]


def test_primroot_fermat_counts_a_planted_false_biconditional(monkeypatch, capsys):
    _planted(monkeypatch, primroot, "fermat_nonresidue_check",
             lambda args, ok: ok and args[0] != 17)
    assert main(["primroot", "--fermat", "--format", "json"]) == 1
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(r["modulus"], r["biconditional_holds"]) for r in rows] == [
        (f, f != 17) for f in primroot.FERMAT_PRIMES]


def test_primroot_short_test_counts_a_planted_disagreement(monkeypatch, capsys):
    # the short test's verdict is flipped at q = 23 only
    _planted(monkeypatch, primroot, "germain_short_test",
             lambda args, verdict: verdict != (args[0].q == 23))
    assert main(["primroot", "--short-test", "--limit", "100", "--trials", "3",
                 "--format", "json"]) == 1
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert 23 in [r["q"] for r in rows]
    assert [(r["q"], r["agreements"]) for r in rows] == [
        (r["q"], 0 if r["q"] == 23 else 3) for r in rows]


def test_render_csv_quotes_a_cell_as_rfc_4180_does():
    # a cell with a comma, a quote or a newline is quoted, its quotes doubled
    rows = [["a,b", 'say "hi"', "two\nlines"], ["plain", 1.5, True]]
    assert render_csv(["x", "y", "z"], rows) == (
        'x,y,z\n"a,b","say ""hi""","two\nlines"\nplain,1.5,true\n')


def test_verify_identities_max_above_cap_is_refused_before_the_table(monkeypatch,
                                                                     capsys):
    def no_table(limit):
        raise AssertionError("the phi table was built")

    monkeypatch.setattr(sums, "totient_sieve", no_table)
    for top in (sums.IDENTITY_CAP + 1, 10 ** 4):
        assert main(["verify-identities", "--max", str(top)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "CliError",
            "message": f"--max {top} is above the cap 3000: the phi table up to "
                       f"max^2 would take {4 * (top * top + 1)} bytes"}


def test_psi0_partition_above_cap_is_refused_before_any_table(monkeypatch,
                                                              capsys):
    def no_work(*args):
        raise AssertionError("work started")

    for name in ("psi0_partition", "pair_sums", "_flags", "mobius_sieve",
                 "pair_windows"):
        monkeypatch.setattr(counting, name, no_work)
    cap = counting.PARTITION_CAP
    for checkpoints, largest in ((f"{cap + 1}", cap + 1),
                                 (f"1e3,{cap + 1}", cap + 1), ("1e9", 10 ** 9)):
        assert main(["psi0-partition", "--x", checkpoints]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "CliError",
            "message": f"--x {largest} is above the cap {cap}: the partition "
                       "walks every odd squarefree d <= 2x+1 in Python"}
    # the cap itself is admitted
    monkeypatch.setattr(counting, "psi0_partition", lambda x, x1: (1.0, 2.0))
    monkeypatch.setattr(counting, "pair_sums",
                        lambda xs: [(0, 0.0, 3.0)] * len(xs))
    assert main(["psi0-partition", "--x", str(cap)]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith(f"{cap},")


@pytest.mark.parametrize("mode", ["theorem-4p1", "short-test"])
def test_primroot_limit_above_cap_is_refused_before_any_sieve(mode, monkeypatch,
                                                              capsys):
    def no_sieve(*args):
        raise AssertionError("a sieve ran")

    for module, name in ((sieve, "pair_primes"), (sieve, "primes_upto"),
                         (primroot, "primes_upto")):
        monkeypatch.setattr(module, name, no_sieve)
    cap = primroot.SWEEP_CAP
    for limit in (cap + 1, 10 ** 13):
        assert main(["primroot", f"--{mode}", "--limit", str(limit)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "CliError",
            "message": f"--limit {limit} is above the cap {cap}: the {mode} "
                       "sweep tests every prime up to it in Python"}
    # the cap itself is admitted
    swept = []

    def empty_sweep(limit, *args):
        swept.append(limit)
        return np.zeros(0, dtype=np.int64)

    monkeypatch.setattr(sieve, "pair_primes", empty_sweep)
    monkeypatch.setattr(primroot, "primes_upto", empty_sweep)
    # one trial keeps the short test's --limit times --trials within its budget
    trials = ["--trials", "1"] if mode == "short-test" else []
    assert main(["primroot", f"--{mode}", "--limit", str(cap), *trials]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1  # the header alone
    assert swept == [cap]


@pytest.mark.parametrize("mode", ["fermat", "short-test"])
def test_primroot_trials_above_cap_are_refused_before_any_base(mode, monkeypatch,
                                                               capsys):
    import random

    def no_work(*args, **kwargs):
        raise AssertionError("a sieve ran or a base was drawn")

    for module, name in ((sieve, "primes_upto"), (primroot, "primes_upto"),
                         (primroot, "germain_moduli_upto"),
                         (primroot, "primitive_root_test"),
                         (primroot, "fermat_nonresidue_check"), (random, "Random")):
        monkeypatch.setattr(module, name, no_work)
    cap = primroot.TRIALS_CAP
    for trials in (cap + 1, 10 ** 9):
        assert main(["primroot", f"--{mode}", "--trials", str(trials)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "CliError",
            "message": f"--trials {trials} is above the cap {cap}: the {mode} "
                       "sweep holds every base of a modulus in Python"}
    # the cap itself is admitted
    monkeypatch.undo()
    monkeypatch.setattr(primroot, "germain_moduli_upto", lambda limit: [])
    monkeypatch.setattr(primroot, "fermat_nonresidue_check", lambda f, bases: True)
    # --limit 100 keeps the short test's --limit times --trials within its budget
    limit = ["--limit", "100"] if mode == "short-test" else []
    assert main(["primroot", f"--{mode}", "--trials", str(cap), *limit]) == 0
    rows = capsys.readouterr().out.splitlines()
    if mode == "fermat":
        assert rows[-1] == f"65537,{cap},true"
    else:
        assert len(rows) == 1  # the header alone


def test_short_test_above_its_budget_is_refused_before_any_base(monkeypatch, capsys):
    import random

    def no_work(*args, **kwargs):
        raise AssertionError("a sieve ran or a base was drawn")

    for module, name in ((sieve, "primes_upto"), (primroot, "primes_upto"),
                         (primroot, "germain_moduli_upto"),
                         (primroot, "primitive_root_test"), (random, "Random")):
        monkeypatch.setattr(module, name, no_work)
    budget = primroot.SHORT_TEST_BUDGET
    # both under their own caps, their product above the budget
    for limit, trials in ((10 ** 7, 10 ** 5), (10 ** 5, 101), (10 ** 7, 2)):
        argv = ["primroot", "--short-test", "--limit", str(limit),
                "--trials", str(trials)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "CliError",
            "message": f"--limit {limit} times --trials {trials} is "
                       f"{limit * trials}, above the budget {budget}: the "
                       "short-test sweep tests every base of every modulus in Python"}
    # the budget itself is admitted, and so is the benchmark's argv
    monkeypatch.undo()
    moduli = []
    monkeypatch.setattr(primroot, "germain_moduli_upto",
                        lambda limit: moduli.append(limit) or [])
    for limit, trials in ((10 ** 5, 100), (10 ** 5, 20)):
        argv = ["primroot", "--short-test", "--limit", str(limit),
                "--trials", str(trials)]
        assert main(argv) == 0
        assert len(capsys.readouterr().out.splitlines()) == 1  # the header alone
    assert moduli == [10 ** 5, 10 ** 5]


def test_large_sieve_above_its_caps_is_refused_before_any_sequence(monkeypatch,
                                                                  capsys):
    def no_work(*args):
        raise AssertionError("a sequence was built")

    for name in ("ones_sequence", "prime_indicator_sequence",
                 "random_sign_sequence", "large_sieve_check"):
        monkeypatch.setattr(progressions, name, no_work)
    x_cap, ops_cap = progressions.LARGE_SIEVE_X_CAP, progressions.LARGE_SIEVE_OPS_CAP
    for argv, x, Q, trials in ((f"--x {x_cap + 1}", x_cap + 1, 30, 1),
                               ("--x 1e100 --sequence primes", 10 ** 100, 30, 1),
                               (f"--x {x_cap} --Q 501", x_cap, 501, 1),
                               ("--x 1e5 --Q 100 --sequence random --trials 101",
                                10 ** 5, 100, 101)):
        assert main(["large-sieve", *argv.split()]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        if x > x_cap:
            message = (f"--x {x} is above the cap {x_cap}: the check holds about "
                       "16 bytes per integer")
        else:
            message = (f"--x {x} --Q {Q} --trials {trials} make {x * Q * trials} "
                       f"class updates, above the cap {ops_cap}: each trial "
                       "updates x classes for every modulus up to Q")
        assert json.loads(captured.err) == {"error": "CliError", "message": message}
    # the caps themselves are admitted
    monkeypatch.setattr(progressions, "ones_sequence", lambda x: x)
    monkeypatch.setattr(progressions, "large_sieve_check", lambda x, Q, seq:
                        progressions.SieveInequalityReport(x, Q, 1.0, 2.0, 1.0))
    assert main(["large-sieve", "--x", str(x_cap), "--Q", "500"]) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith(f"{x_cap},500,")


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_sweeps_factor_once_per_modulus_and_never_per_pair(monkeypatch, capsys):
    in_arith = _count_calls(monkeypatch, arith, "factorize")
    in_primroot = _count_calls(monkeypatch, primroot, "factorize")
    assert main(["verify-identities", "--max", "300"]) == 0
    assert (len(in_arith), len(in_primroot)) == (0, 0)
    capsys.readouterr()
    argv = "primroot --short-test --limit 1e5 --trials 20 --seed 0"
    assert main(argv.split()) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    # one factorization of q - 1 per modulus, not one per base (29,300)
    assert len(rows) == len(in_primroot) == 1465
    assert in_arith == []
    # the theorem-4p1 sweep takes the primes of q - 1 = 4p from the pair
    del in_primroot[:]
    assert main("primroot --theorem-4p1 --limit 1e6".split()) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 7422
    assert (len(in_arith), len(in_primroot)) == (0, 0)


def test_theorem_4p1_proves_each_prime_once_outside_the_sieve(monkeypatch, capsys):
    in_primroot = _count_calls(monkeypatch, primroot, "is_prime")
    in_sieve = _count_calls(monkeypatch, sieve, "is_prime")
    assert main("primroot --theorem-4p1 --limit 1e6".split()) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    # p once in theorem_4p1_check, q = 4p + 1 once in primitive_root_test
    assert len(rows) == 7422
    assert len(in_primroot) == 2 * 7422
    # the pair sieve proves only the companions of the wheel primes 2, 3, 5
    # and, on the wheel 210 of the forms n and 4n + 1, 7
    assert sorted(in_sieve) == [(9,), (13,), (21,), (29,)]


@pytest.mark.parametrize("argv", [
    "census --x 1e2,1e3,1e4 --c2-cutoff 1e4",
    "hl-compare --x 1e2,1e3,1e4 --c2-cutoff 1e4",
    "reciprocal-sum --x 1e2,1e3,1e4 --c2-cutoff 1e4",
    "psi0-partition --x 50,100,120",
    "primroot --theorem-4p1 --limit 1e4",
])
def test_pair_commands_make_one_sieve_pass(argv, monkeypatch, capsys):
    calls = []
    pass_ = sieve.pair_windows

    def counted(*args, **kwargs):
        calls.append(args)
        return pass_(*args, **kwargs)

    # every pass is a pair_windows stream (pair_primes joins one), and
    # counting holds its own reference to it
    monkeypatch.setattr(sieve, "pair_windows", counted)
    monkeypatch.setattr(counting, "pair_windows", counted)
    assert main(argv.split()) == 0
    capsys.readouterr()
    assert len(calls) == 1, calls


def test_memory_error_becomes_a_json_error_record(monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError("no room for the pair table")

    monkeypatch.setattr(counting, "census", exhausted)
    assert main(["census", "--x", "100", "--c2-cutoff", "1e4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "MemoryError",
                                        "message": "no room for the pair table"}


def test_sums_both_methods_agree(capsys):
    assert main(["sums", "--formula", "mobius-phi-lcm", "--method", "both",
                 "--x", "50,100"]) == 0
    lines = capsys.readouterr().out.splitlines()[1:]
    values = {}
    for line in lines:
        formula, x, value, method = line.split(",")
        values.setdefault(int(x), {})[method] = float(value)
    for x, by_method in values.items():
        brute = by_method["brute"]
        diag = by_method["diagonalized"]
        assert abs(diag - brute) <= 1e-9 * abs(brute)


@pytest.mark.parametrize("formula, method, takes", [
    ("squarefree-harmonic", "brute", "direct"),
    ("mobius-log", "both", "direct"),
    ("log-lcm", "diagonalized", "rearranged, brute, relaxed"),
    ("mobius-phi-lcm", "rearranged", "diagonalized, brute, relaxed"),
])
def test_sums_method_the_formula_lacks_is_refused(formula, method, takes,
                                                   monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("a sum was computed")
    for name in ("log_lcm_double_sum", "mobius_phi_lcm_sum",
                 "squarefree_harmonic_sums", "mobius_log_sums"):
        monkeypatch.setattr(sums, name, no_work)
    assert main(["sums", "--formula", formula, "--method", method,
                 "--x", "100"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "CliError",
        "message": f"--method {method} does not apply to --formula {formula}; "
                   f"it takes {takes}"}


@pytest.mark.parametrize("formula, method, named, cap", [
    ("log-lcm", "brute", "brute", 2000),
    ("log-lcm", "rearranged", "rearranged", 10 ** 6),
    ("log-lcm", "relaxed", "relaxed", 10 ** 6),
    ("log-lcm", "both", "brute", 2000),
    ("mobius-phi-lcm", "brute", "brute", 2000),
    ("mobius-phi-lcm", "diagonalized", "diagonalized", 3 * 10 ** 5),
    ("mobius-phi-lcm", "relaxed", "relaxed", 3 * 10 ** 5),
    ("mobius-phi-lcm", "auto", "diagonalized", 3 * 10 ** 5),
])
def test_double_sums_above_their_caps_are_refused_before_any_table(
        formula, method, named, cap, monkeypatch, capsys):
    def no_table(*args):
        raise AssertionError("a table was built")

    for name in ("mobius_sieve", "totient_sieve", "_gcd_row"):
        monkeypatch.setattr(sums, name, no_table)
    # the smaller checkpoint first: it must not be summed either
    for xs, largest in ((f"{cap + 1}", cap + 1), (f"100,{cap + 1}", cap + 1),
                        ("3e7", 3 * 10 ** 7), ("1e20", 10 ** 20)):
        assert main(["sums", "--formula", formula, "--method", method,
                     "--x", xs]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "error": "CliError",
            "message": f"--x {largest} is above the cap {cap} of --formula "
                       f"{formula} --method {named}"}
    # the library refuses the same x before its tables
    total = {"log-lcm": sums.log_lcm_double_sum,
             "mobius-phi-lcm": sums.mobius_phi_lcm_sum}[formula]
    with pytest.raises(ValueError, match=f"^{named} method capped at x={cap}$"):
        total(cap + 1, named)
    # the cap itself is admitted: the stubs show that work starts
    with pytest.raises(AssertionError, match="a table was built"):
        main(["sums", "--formula", formula, "--method", method, "--x", str(cap)])


def test_sums_unknown_formula_is_a_usage_error(capsys):
    assert main(["sums", "--formula", "no-such-formula", "--x", "10"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "usage",
        "message": "argument --formula: invalid choice: 'no-such-formula' "
                   "(choose from 'log-lcm', 'mobius-phi-lcm', "
                   "'squarefree-harmonic', 'mobius-log')"}


def test_sums_relaxed_rows_are_the_library_values(capsys):
    assert main(["sums", "--formula", "log-lcm", "--method", "relaxed",
                 "--x", "50,60", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [(r["x"], r["value"], r["method"]) for r in rows] == [
        (x, sums.log_lcm_double_sum(x, "relaxed"), "relaxed") for x in (50, 60)]


def test_twisted_sums_rows(capsys):
    assert main(["twisted-sums", "--m", "2", "--x", "100,1000",
                 "--c2-cutoff", "1e4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "m,x,with_log,value,target_abs,abs_gap,sign"
    assert len(lines) == 3


def test_large_sieve_random_trials_deterministic(tmp_path):
    argv = ["large-sieve", "--x", "200", "--Q", "12", "--sequence", "random",
            "--trials", "5"]
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert main([*argv, "--seed", "11", "--output", str(out1)]) == 0
    assert main([*argv, "--seed", "11", "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    shifted = tmp_path / "s3.csv"
    assert main([*argv, "--seed", "12", "--output", str(shifted)]) == 0
    assert out1.read_bytes() != shifted.read_bytes()


@pytest.mark.parametrize("argv, message", [
    ("primroot --fermat --limit 0", "--limit does not apply to primroot --fermat"),
    ("primroot --fermat --limit 10000", "--limit does not apply to primroot --fermat"),
    ("primroot --theorem-4p1 --trials 20",
     "--trials does not apply to primroot --theorem-4p1"),
    ("primroot --theorem-4p1 --limit 1e6 --seed 3",
     "--seed does not apply to primroot --theorem-4p1"),
    ("large-sieve --sequence ones --trials 3 --x 100 --Q 5",
     "--trials 3 does not apply to large-sieve --sequence ones, which is "
     "deterministic; it takes --trials 1"),
    ("large-sieve --sequence primes --trials 2",
     "--trials 2 does not apply to large-sieve --sequence primes, which is "
     "deterministic; it takes --trials 1"),
    ("large-sieve --seed 0", "--seed does not apply to large-sieve --sequence ones"),
    # random.Random(-3) would draw the bases of Random(3), under a report
    # that records seed -3
    ("primroot --fermat --seed -3",
     "--seed must be >= 0, got -3: random.Random would seed it as 3"),
    ("primroot --short-test --seed -3",
     "--seed must be >= 0, got -3: random.Random would seed it as 3"),
])
def test_flag_the_mode_does_not_read_is_refused(argv, message, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for name in ("primroot.germain_moduli_upto", "primroot.theorem_4p1_check",
                 "primroot.fermat_nonresidue_check", "sieve.pair_primes",
                 "progressions.ones_sequence", "progressions.prime_indicator_sequence",
                 "progressions.large_sieve_check"):
        monkeypatch.setattr(f"germain_lab.{name}", no_work)
    assert main(argv.split()) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "CliError", "message": message}


def test_deterministic_large_sieve_takes_one_trial(capsys):
    assert main("large-sieve --sequence primes --x 500 --Q 10".split()) == 0
    default = capsys.readouterr().out
    assert main("large-sieve --sequence primes --x 500 --Q 10 --trials 1".split()) == 0
    assert capsys.readouterr().out == default
    assert len(default.splitlines()) == 2


def test_primroot_subcommands(capsys):
    assert main(["primroot", "--theorem-4p1", "--limit", "1000"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "p,q,two_generates"
    assert all(line.endswith(",true") for line in out[1:])
    assert main(["primroot", "--short-test", "--limit", "2000",
                 "--trials", "5"]) == 0
    assert main(["primroot", "--fermat", "--trials", "50"]) == 0


def test_psi0_partition_command(capsys):
    assert main(["psi0-partition", "--x", "50,120"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,x1,main,error,psi0,partition_residual"
    for line in lines[1:]:
        assert abs(float(line.split(",")[5])) < 1e-6


def test_psi0_partition_default_cutoff_at_x_one_and_two(capsys):
    # (log x)^2 < 1 at x = 1 and 2; the default cutoff is then 1
    assert main(["psi0-partition", "--x", "1,2", "--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [r["x1"] for r in rows] == [1.0, 1.0]
    psi0_1, psi0_2 = pair_sums([1])[0][2], pair_sums([2])[0][2]
    assert [r["main"] + r["error"] for r in rows] == [psi0_1, psi0_2]
    assert psi0_2 > 0.0


def test_ap_census_command(capsys):
    assert main(["ap-census", "--x", "10,100", "--q", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,q,a,count,residual"
    assert lines[1:4] == ["10,3,0,3,-0.333333333333333",
                          "10,3,1,4,0.666666666666667",
                          "10,3,2,3,-0.333333333333333"]
    assert main(["ap-census", "--x", "100", "--q", "4", "--weighted"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,q,a,value,expected,residual"
    assert lines[1].split(",")[4] == ""  # gcd(0,4) != 1: no x/phi(q) target


def test_ap_census_above_its_row_cap_is_refused_before_any_row(monkeypatch,
                                                               capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("a sieve ran or a row was built")

    for module, name in ((sieve, "primes_upto"), (sieve, "prime_windows"),
                         (progressions, "primes_upto"),
                         (progressions, "prime_powers"),
                         (progressions, "count_ap"), (progressions, "chebyshev_ap")):
        monkeypatch.setattr(module, name, no_work)
    cap = progressions.AP_CENSUS_ROWS_CAP
    for xs, q in (("10", cap + 1), ("10", 10 ** 9), ("10,100", cap // 2 + 1),
                  ("1e3,1e4,1e5", cap)):
        count = len(xs.split(","))
        for weighted in ([], ["--weighted"]):
            assert main(["ap-census", "--x", xs, "--q", str(q), *weighted]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert json.loads(captured.err) == {
                "error": "CliError",
                "message": f"--q {q} and --x make {q * count} rows, q per "
                           f"checkpoint, above the cap {cap}: each row is held in "
                           "Python until the report is written"}
    # the cap itself is admitted
    monkeypatch.setattr(progressions, "chebyshev_ap", lambda xs, q: [])
    assert main(["ap-census", "--x", "10,100", "--q", str(cap // 2),
                 "--weighted"]) == 0
    assert capsys.readouterr().out == "x,q,a,value,expected,residual\n"


@pytest.mark.parametrize("argv, message", [
    ("ap-census --q 3 --weighted --x", "is above the prime table's cap 100000000"),
    ("sums --formula squarefree-harmonic --x", "is above the mu table's cap 100000000"),
    ("sums --formula mobius-log --x", "is above the mu table's cap 100000000"),
    ("twisted-sums --m 6 --x", "is above the mu table's cap 100000000"),
])
def test_whole_range_tables_above_their_cap_are_refused_before_any_sieve(
        argv, message, monkeypatch, capsys):
    def no_work(*args, **kwargs):
        raise AssertionError("a sieve or the C2 product ran")

    for module, name in ((sieve, "primes_upto"), (sieve, "prime_windows"),
                         (progressions, "primes_upto"), (progressions, "prime_powers"),
                         (sums, "mobius_sieve"), (sums, "totient_sieve"),
                         (constants, "twin_prime_constant")):
        monkeypatch.setattr(module, name, no_work)
    assert progressions.CHEBYSHEV_X_CAP == sums.MOBIUS_X_CAP == 10 ** 8
    for xs, largest in (("100000001", 10 ** 8 + 1), ("10,100000001", 10 ** 8 + 1),
                        ("1e20", 10 ** 20)):
        assert main([*argv.split(), xs]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {"error": "ValueError",
                                            "message": f"x {largest} {message}"}
    # the cap itself is admitted: the stubs show that work starts
    with pytest.raises(AssertionError, match="a sieve or the C2 product ran"):
        main([*argv.split(), "1e8"])


def test_constants_command(capsys):
    assert main(["constants", "--cutoff", "1e4", "--d", "2,6,30"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "kind,d,prime_cutoff,value,tail_bound"
    assert len(lines) == 5


def test_readme_command_table_lists_each_command_flags():
    common = {"--format", "--output", "--threads"}
    rows = re.findall(r"^\| `([a-z0-9-]+)` \|.*\| ([^|]*) \|$",
                      README.read_text(), flags=re.M)
    assert sorted(name for name, _ in rows) == sorted(COMMANDS)
    for name, flags in rows:
        declared = set()
        for spec in COMMANDS[name].flags:
            for names, _ in (spec.flags if isinstance(spec, _OneOf) else [spec]):
                declared.update(names)
        assert set(re.findall(r"--[A-Za-z0-9][A-Za-z0-9-]*", flags)) == declared - common, name


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_each_commands_help_lists_its_flags(name, capsys):
    # a command's parser gets its flags when it first parses, -h included
    assert main([name, "--help"]) == 0
    text = capsys.readouterr().out
    for spec in COMMANDS[name].flags:
        for names, _ in (spec.flags if isinstance(spec, _OneOf) else [spec]):
            assert all(flag in text for flag in names), (name, names)
    assert all(flag in text for flag in ("--format", "--output", "--threads"))
    assert main(["--help"]) == 0
    assert name in capsys.readouterr().out
