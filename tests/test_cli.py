import json
import re
from pathlib import Path

import pytest

from germain_lab import sums
from germain_lab.cli import (COMMANDS, RunConfig, _OneOf, main,
                             parse_exact_int, parse_int_list, run)
from germain_lab.counting import psi0

README = Path(__file__).resolve().parents[1] / "README.md"


def test_parse_exact_int_scientific_notation():
    assert parse_exact_int("1e6") == 1000000
    assert parse_exact_int("2500") == 2500
    assert parse_exact_int("1.5e1") == 15
    with pytest.raises(ValueError):
        parse_exact_int("2.5")
    with pytest.raises(ValueError):
        parse_exact_int("abc")


def test_parse_int_list_requires_ascending():
    assert parse_int_list("1e2,1e4,1e6") == [100, 10000, 1000000]
    with pytest.raises(ValueError):
        parse_int_list("100,100")
    with pytest.raises(ValueError):
        parse_int_list("")


def test_census_csv_deterministic_across_thread_counts(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = dict(command="census", x_checkpoints=[100, 1000], c2_cutoff=10 ** 4)
    assert run(RunConfig(**base, output_path=str(out1), threads=1)) == 0
    assert run(RunConfig(**base, output_path=str(out2), threads=4)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header = out1.read_text().splitlines()[0]
    assert header == "x,pi_g,psi_g,psi0,hl_prediction,ratio"


def test_json_report_shape(tmp_path):
    out = tmp_path / "r.json"
    cfg = RunConfig(command="table-errata", output_format="json",
                    output_path=str(out))
    assert run(cfg) == 0
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


def test_cli_reals_use_15_significant_digits(capsys):
    assert main(["reciprocal-sum", "--x", "23", "--c2-cutoff", "1e4"]) == 0
    row = capsys.readouterr().out.splitlines()[1].split(",")
    assert row[1] == "1.16772068511199"


def test_threads_env_override(monkeypatch):
    from germain_lab.cli import build_parser, config_from_args
    monkeypatch.setenv("GERMAIN_LAB_THREADS", "3")
    args = build_parser().parse_args(["table-errata"])
    assert config_from_args(args).threads == 3
    args = build_parser().parse_args(["table-errata", "--threads", "2"])
    assert config_from_args(args).threads == 2  # flag wins over env


@pytest.mark.parametrize("threads", ["0", "-5"])
def test_threads_flag_below_one_is_rejected(threads, capsys):
    assert main(["census", "--x", "100", "--threads", threads]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "CliError",
                                        "message": "--threads must be >= 1"}


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
                 "squarefree_harmonic_sum", "mobius_log_sum"):
        monkeypatch.setattr(sums, name, no_work)
    assert main(["sums", "--formula", formula, "--method", method,
                 "--x", "100"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {
        "error": "CliError",
        "message": f"--method {method} does not apply to --formula {formula}; "
                   f"it takes {takes}"}


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
    args = dict(command="large-sieve", seed=11,
                options={"x": 200, "Q": 12, "sequence": "random", "trials": 5})
    out1, out2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
    assert run(RunConfig(**args, output_path=str(out1))) == 0
    assert run(RunConfig(**args, output_path=str(out2))) == 0
    assert out1.read_bytes() == out2.read_bytes()
    shifted = tmp_path / "s3.csv"
    args["seed"] = 12
    assert run(RunConfig(**args, output_path=str(shifted))) == 0
    assert out1.read_bytes() != shifted.read_bytes()


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
    assert [r["main"] + r["error"] for r in rows] == [psi0(1), psi0(2)]
    assert psi0(2) > 0.0


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
