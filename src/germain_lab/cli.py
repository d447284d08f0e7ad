"""Command-line surface tying the verification modules together.

One subcommand per verification cluster; every run emits one deterministic
CSV or JSON report (stdout by default). Same config and seed give
byte-identical reports regardless of thread count: parallel sections all
reduce in fixed order, and volatile fields (threads, output path) are kept
out of the report body.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields
from decimal import Decimal, InvalidOperation
from math import gcd
from typing import Callable

from . import constants, counting, primroot, progressions, sums
from .reports import render_csv, render_json

DEFAULT_C2_CUTOFF = 10 ** 6
# Largest a*x+b the pair commands sieve to unless --sieve-limit says otherwise
DEFAULT_SIEVE_LIMIT = 1 << 31
# trend reports default to a log-spaced grid; heavy but desk scale
DEFAULT_TREND_GRID = [10 ** k for k in range(2, 9)]


@dataclass
class RunConfig:
    command: str
    x_checkpoints: list[int] = field(default_factory=list)
    a: int = 2
    b: int = 1
    sieve_limit: int | None = None  # None: DEFAULT_SIEVE_LIMIT
    c2_cutoff: int = DEFAULT_C2_CUTOFF
    output_format: str = "csv"
    output_path: str | None = None
    threads: int = 1
    seed: int = 0
    options: dict = field(default_factory=dict)

    def report_config(self) -> dict:
        # threads and output path must not influence report bytes
        cfg = {
            "x_checkpoints": self.x_checkpoints, "a": self.a, "b": self.b,
            "sieve_limit": self.sieve_limit, "c2_cutoff": self.c2_cutoff,
            "seed": self.seed,
        }
        cfg.update(self.options)
        return cfg


class CliError(ValueError):
    pass


def parse_exact_int(token: str) -> int:
    """Checkpoint numbers, scientific notation allowed, parsed exactly."""
    try:
        d = Decimal(token.strip())
    except InvalidOperation:
        raise CliError(f"not a number: {token!r}") from None
    if d != d.to_integral_value():
        raise CliError(f"checkpoint {token!r} is not an integer")
    return int(d)


def parse_positive_int(token: str) -> int:
    """A count or modulus: an exact integer >= 1."""
    n = parse_exact_int(token)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {token}")
    return n


def parse_int_list(text: str) -> list[int]:
    values = [parse_exact_int(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise CliError("empty checkpoint list")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise CliError(f"checkpoints must be strictly ascending: {values}")
    return values


def _resolve_threads(flag_value: int | None) -> int:
    if flag_value is not None:
        if flag_value < 1:
            raise CliError("--threads must be >= 1")
        return flag_value
    env = os.environ.get("GERMAIN_LAB_THREADS")
    if env:
        try:
            n = int(env)
        except ValueError:
            raise CliError(f"GERMAIN_LAB_THREADS={env!r} is not an integer") from None
        if n < 1:
            raise CliError("GERMAIN_LAB_THREADS must be >= 1")
        return n
    return 1


def _require_limit(limit: int | None, minimum: int) -> None:
    """Refuse a --limit below the first value the check would look at."""
    if limit is not None and limit < minimum:
        raise CliError(f"--limit must be >= {minimum}, the first value it "
                       f"checks; got {limit}")


def _require_capacity(config: RunConfig) -> None:
    if not config.x_checkpoints:
        return
    need = config.a * max(config.x_checkpoints) + config.b
    cap = config.sieve_limit if config.sieve_limit is not None else DEFAULT_SIEVE_LIMIT
    if need > cap:
        raise CliError(
            f"checkpoint needs primality up to {need}, beyond the sieve "
            f"capability {cap}; raise --sieve-limit or lower the checkpoint")


# -- command handlers: each returns (header, rows, exit_status) --------------

def _cmd_census(config: RunConfig):
    _require_capacity(config)
    c2 = constants.twin_prime_constant(config.c2_cutoff, threads=config.threads)
    header = ["x", "pi_g", "psi_g", "psi0", "hl_prediction", "ratio"]
    rows = [[r.x, r.pi_g, r.psi_g, r.psi0, r.hl_prediction, r.ratio]
            for r in counting.census(config.x_checkpoints, config.a, config.b, c2,
                                     threads=config.threads)]
    return header, rows, 0


def _cmd_psi0_partition(config: RunConfig):
    _require_capacity(config)
    x1_opt = config.options.get("x1")
    header = ["x", "x1", "main", "error", "psi0", "partition_residual"]
    rows = []
    for x in config.x_checkpoints:
        x1 = x1_opt if x1_opt is not None else max(1.0, math.log(x) ** 2)
        m, e = counting.psi0_partition(x, x1)
        p0 = counting.psi0(x)
        rows.append([x, x1, m, e, p0, m + e - p0])
    return header, rows, 0


def _cmd_hl_compare(config: RunConfig):
    _require_capacity(config)
    c2 = constants.twin_prime_constant(config.c2_cutoff, threads=config.threads)
    header = ["x", "pi_g", "hl_prediction", "prediction_over_actual"]
    rows = [[r.x, r.pi_g, r.hl_prediction,
             r.hl_prediction / r.pi_g if r.pi_g else float("inf")]
            for r in counting.census(config.x_checkpoints, config.a, config.b, c2,
                                     threads=config.threads)]
    return header, rows, 0


def _cmd_ap_census(config: RunConfig):
    q = config.options.get("q", 3)
    weighted = config.options.get("weighted", False)
    rows = []
    if weighted:
        header = ["x", "q", "a", "value", "expected", "residual"]
        for x in config.x_checkpoints:
            for a in range(q):
                r = progressions.chebyshev_ap(x, q, a)
                rows.append([r.x, r.q, r.a, r.value,
                             "" if r.expected is None else r.expected,
                             "" if r.residual is None else r.residual])
    else:
        header = ["x", "q", "a", "count", "residual"]
        for x in config.x_checkpoints:
            for a in range(q):
                r = progressions.count_ap(x, q, a)
                rows.append([r.x, r.q, r.a, r.count, r.residual])
    return header, rows, 0


def _cmd_verify_identities(config: RunConfig):
    top = config.options.get("max", 300)
    checks = [
        ("gcd-phi-divisor", lambda m, n: sums.gcd_via_phi(m, n) - gcd(m, n)),
        ("lcm-reciprocal", sums.lcm_reciprocal_identity_residual),
        ("phi-lcm-reciprocal", sums.phi_lcm_reciprocal_identity_residual),
    ]
    header = ["identity", "max_m", "max_n", "cases", "nonzero_residuals",
              "max_abs_residual"]
    rows = []
    failures = 0
    for name, residual in checks:
        nonzero = 0
        worst = 0
        for m in range(1, top + 1):
            for n in range(1, top + 1):
                r = residual(m, n)
                if r != 0:
                    nonzero += 1
                    worst = max(worst, abs(r))
        failures += nonzero
        rows.append([name, top, top, top * top, nonzero, worst])
    return header, rows, 0 if failures == 0 else 1


def _cmd_sums(config: RunConfig):
    formula = config.options["formula"]
    method = config.options.get("method", "auto")
    table = sums.FORMULAS[formula]
    default = next(iter(table))
    methods = {"auto": [default], "both": ["brute", default]}.get(method, [method])
    if any(m not in table for m in methods):
        raise CliError(f"--method {method} does not apply to --formula {formula}; "
                       f"it takes {', '.join(table)}")
    header = ["formula_id", "x", "value", "method"]
    rows = [[formula, x, table[m](x), m]
            for m in methods for x in config.x_checkpoints]
    return header, rows, 0


def _cmd_twisted_sums(config: RunConfig):
    c2 = constants.twin_prime_constant(config.c2_cutoff, threads=config.threads)
    m = config.options.get("m", 2)
    with_log = config.options.get("with_log", True)
    target = constants.singular_series(m, c2).value if with_log else 0.0
    header = ["m", "x", "with_log", "value", "target_abs", "abs_gap", "sign"]
    rows = []
    for x in config.x_checkpoints:
        v = sums.twisted_mobius_sum(m, x, with_log)
        sign = "+" if v > 0 else "-" if v < 0 else "0"
        rows.append([m, x, with_log, v, target, abs(abs(v) - target), sign])
    return header, rows, 0


def _cmd_large_sieve(config: RunConfig):
    x = config.options.get("x", 1000)
    q_bound = config.options.get("Q", 30)
    kind = config.options.get("sequence", "ones")
    trials = config.options.get("trials", 1)
    header = ["x", "Q", "sequence", "seed", "lhs", "rhs", "slack"]
    rows = []
    bad = 0
    for t in range(trials):
        seed = config.seed + t
        if kind == "ones":
            seq = progressions.ones_sequence(x)
        elif kind == "primes":
            seq = progressions.prime_indicator_sequence(x)
        elif kind == "random":
            seq = progressions.random_sign_sequence(x, seed)
        else:
            raise CliError(f"unknown sequence kind {kind!r}")
        rep = progressions.large_sieve_check(x, q_bound, seq)
        if rep.slack < 0:
            bad += 1
        rows.append([rep.x, rep.Q, kind, seed if kind == "random" else "",
                     rep.lhs, rep.rhs, rep.slack])
    return header, rows, 0 if bad == 0 else 1


def _cmd_primroot(config: RunConfig):
    mode = config.options["mode"]
    limit = config.options.get("limit", 10 ** 4)
    trials = config.options.get("trials", 20)
    if mode == "theorem-4p1":
        _require_limit(limit, 3)  # the first pair is (3, 13)
        header = ["p", "q", "two_generates"]
        rows = []
        bad = 0
        for g in counting.germain_pairs(limit, 4, 1):
            ok = primroot.theorem_4p1_check(g.p)
            if not ok:
                bad += 1
            rows.append([g.p, g.q, ok])
        return header, rows, 0 if bad == 0 else 1
    if mode == "fermat":
        import random
        rng = random.Random(config.seed)
        header = ["modulus", "bases_checked", "biconditional_holds"]
        rows = []
        bad = 0
        for f in primroot.FERMAT_PRIMES:
            if f <= 257:
                bases = range(2, f)
            else:
                bases = [rng.randrange(2, f) for _ in range(trials)]
            ok = all(primroot.fermat_nonresidue_check(f, u) for u in bases)
            if not ok:
                bad += 1
            rows.append([f, len(list(bases)), ok])
        return header, rows, 0 if bad == 0 else 1
    if mode == "short-test":
        _require_limit(limit, 7)  # the first modulus is 7 = 2*3 + 1
        import random
        rng = random.Random(config.seed)
        header = ["q", "s", "r", "trials", "agreements"]
        rows = []
        bad = 0
        for g in primroot.germain_moduli_upto(limit):
            agree = 0
            for _ in range(trials):
                u = rng.randrange(2, g.q)
                if (primroot.germain_short_test(g, u)
                        == primroot.primitive_root_test(u, g.q).verdict):
                    agree += 1
            if agree != trials:
                bad += 1
            rows.append([g.q, g.s, g.r, trials, agree])
        return header, rows, 0 if bad == 0 else 1
    raise CliError(f"unknown primroot mode {mode!r}")


def _cmd_table_errata(config: RunConfig):
    limit = config.options.get("limit")
    _require_limit(limit, primroot.CLAIMED_PAIR_TABLE[0][0])
    header = ["p", "claimed_q", "computed_q", "claimed_is_prime", "match"]
    rows = [[r.p, r.claimed_q, r.computed_q, r.claimed_is_prime, r.match]
            for r in primroot.reproduce_pair_table(limit)]
    return header, rows, 0


def _cmd_reciprocal_sum(config: RunConfig):
    _require_capacity(config)
    c2 = constants.twin_prime_constant(config.c2_cutoff, threads=config.threads)
    header = ["x", "reciprocal_sum", "logp_sum", "logp_fit_residual"]
    rows = []
    for x in config.x_checkpoints:
        rec = counting.germain_reciprocal_sum(x)
        lp = counting.germain_logp_sum(x, c2)
        rows.append([x, rec, lp.value, lp.fit_residual])
    return header, rows, 0


def _cmd_constants(config: RunConfig):
    cutoff = config.options.get("cutoff", config.c2_cutoff)
    offsets = config.options.get("d", [2])
    c2 = constants.twin_prime_constant(cutoff, threads=config.threads)
    header = ["kind", "d", "prime_cutoff", "value", "tail_bound"]
    rows = [["twin-prime-constant", 2, c2.prime_cutoff, c2.value, c2.tail_bound]]
    for d in offsets:
        g = constants.singular_series(d, c2)
        rows.append(["singular-series", d, g.prime_cutoff, g.value, g.tail_bound])
    return header, rows, 0


def _flag(*names: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    """One argparse flag: its option strings and add_argument keywords."""
    return names, kwargs


@dataclass(frozen=True)
class _OneOf:
    """Mutually exclusive flags."""

    flags: tuple
    required: bool = False


@dataclass(frozen=True)
class Command:
    """A subcommand: its handler, its help text and every flag the handler reads.

    A flag whose dest is a RunConfig field sets that field; every other
    flag lands in RunConfig.options, in declaration order, which is also
    the key order of the JSON report config.
    """

    handler: Callable[[RunConfig], tuple[list, list, int]]
    help: str
    flags: tuple


_CHECKPOINT_HELP = "ascending checkpoints, e.g. 1e2,1e4,1e6"
_X = _flag("--x", dest="x_checkpoints", metavar="X", type=parse_int_list,
           required=True, help=_CHECKPOINT_HELP)
_X_GRID = _flag("--x", dest="x_checkpoints", metavar="X", type=parse_int_list,
                default=DEFAULT_TREND_GRID,
                help=_CHECKPOINT_HELP + " (default powers of 10 up to 1e8)")
_SIEVE_LIMIT = _flag("--sieve-limit", type=parse_exact_int, default=None,
                     help="largest companion a*x+b the pair commands may "
                          "sieve to (default 2^31)")
_C2_CUTOFF = _flag("--c2-cutoff", type=parse_exact_int, default=DEFAULT_C2_CUTOFF,
                   help="prime cutoff for the twin-prime Euler product")
_PAIR = (_flag("--a", type=int, default=2, help="pair slope (q = a p + b)"),
         _flag("--b", type=int, default=1, help="pair offset"),
         _SIEVE_LIMIT, _C2_CUTOFF)
_SEED = _flag("--seed", type=int, default=0, help="seed for randomized sweeps")

# every command takes these
_COMMON = (
    _flag("--format", dest="output_format", choices=("csv", "json"), default="csv",
          help="report format (default csv)"),
    _flag("--output", dest="output_path", metavar="OUTPUT", default=None,
          help="report file (default stdout)"),
    _flag("--threads", type=int, default=None,
          help="worker threads; overrides GERMAIN_LAB_THREADS"),
)

COMMANDS: dict[str, Command] = {
    "census": Command(
        _cmd_census,
        "Pair counts and weighted sums at checkpoints: pi_g(x), the "
        "Lambda(n)Lambda(an+b) sum, its square-weighted variant, the "
        "2*C2 * integral dt/(log t log(at+b)) prediction, and the "
        "ratio psi_g/(2 C2 x) the pair conjecture says tends to 1.",
        (_X_GRID, *_PAIR)),
    "psi0-partition": Command(
        _cmd_psi0_partition,
        "Split the divisor-expanded square-weighted sum at a cutoff x1: "
        "main box (d1,d2 <= x1) plus complement must reproduce psi0(x) "
        "exactly up to rounding.",
        (_X,
         _flag("--x1", type=float, default=None,
               help="partition cutoff (default max(1, (log x)^2) per checkpoint)"),
         _SIEVE_LIMIT)),
    "hl-compare": Command(
        _cmd_hl_compare,
        "Compare the integral prediction against the actual pair count "
        "pi_g(x) at each checkpoint.",
        (_X_GRID, *_PAIR)),
    "ap-census": Command(
        _cmd_ap_census,
        "Exact closed-form counts of n <= x in every residue class mod q "
        "(residual against x/q is always below 1), or the "
        "prime-power-weighted class sums with their x/phi(q) target.",
        (_X,
         _flag("--q", type=parse_positive_int, default=3, help="modulus"),
         _flag("--weighted", action="store_true",
               help="prime-power-weighted class sums instead of raw counts"))),
    "verify-identities": Command(
        _cmd_verify_identities,
        "Exact integer checks of gcd(m,n) = sum_{d|gcd} phi(d), "
        "mn = [m,n]*sum phi(d), and phi(mn) = phi([m,n])*sum phi(d) over "
        "all pairs up to --max.",
        (_flag("--max", type=parse_positive_int, default=300,
               help="check all pairs 1 <= m,n <= max (default 300)"),)),
    "sums": Command(
        _cmd_sums,
        "Checkpointed series of the double sums log m log n/[m,n] and "
        "mu mu log log/phi([m,n]), by brute-force or rearranged method.",
        (_X,
         _flag("--formula", required=True, choices=tuple(sums.FORMULAS)),
         _flag("--method", default="auto",
               choices=("auto", "both", "brute", "rearranged", "diagonalized",
                        "relaxed")))),
    "twisted-sums": Command(
        _cmd_twisted_sums,
        "Restricted sums of mu(n)/phi(n) (optionally log-weighted) over n "
        "coprime to m; the log-weighted form approaches the singular "
        "series of m in absolute value.",
        (_X,
         _flag("--m", type=int, default=2, help="coprimality parameter"),
         _OneOf((_flag("--with-log", dest="with_log", action="store_true",
                       default=True),
                 _flag("--no-log", dest="with_log", action="store_false"))),
         _C2_CUTOFF)),
    "large-sieve": Command(
        _cmd_large_sieve,
        "Evaluate both sides of the mean-square large-sieve inequality with "
        "bound Q(10Q + 2 pi x); slack must be >= 0.",
        (_flag("--Q", type=parse_positive_int, default=30),
         _flag("--sequence", choices=("ones", "primes", "random"), default="ones"),
         _flag("--trials", type=parse_positive_int, default=1,
               help="number of seeded trials (random sequence)"),
         _flag("--x", type=parse_positive_int, default=1000),
         _SEED)),
    "primroot": Command(
        _cmd_primroot,
        "Generator sweeps: 2 mod 4p+1 across all eligible p, the "
        "Fermat-prime nonresidue shortcut, or the two-exponentiation test "
        "on moduli 2^s*r+1 against the full witness test.",
        (_flag("--trials", type=parse_positive_int, default=20,
               help="random bases per modulus"),
         _OneOf((_flag("--theorem-4p1", dest="mode", action="store_const",
                       const="theorem-4p1"),
                 _flag("--fermat", dest="mode", action="store_const",
                       const="fermat"),
                 _flag("--short-test", dest="mode", action="store_const",
                       const="short-test")),
                required=True),
         _flag("--limit", type=parse_exact_int, default=10 ** 4),
         _SEED)),
    "table-errata": Command(
        _cmd_table_errata,
        "Audit the published (p, 4p+1) pair table: recompute 4p+1, check "
        "primality of the claimed entry, flag mismatches.",
        (_flag("--limit", type=parse_exact_int, default=None),)),
    "reciprocal-sum": Command(
        _cmd_reciprocal_sum,
        "Sums of 1/p and log p/p over Germain primes p <= x, with the "
        "log-log fit residual for the latter.",
        (_X_GRID, _SIEVE_LIMIT, _C2_CUTOFF)),
    "constants": Command(
        _cmd_constants,
        "The twin-prime Euler product at a cutoff with its rigorous tail "
        "bound, and singular-series values for chosen offsets.",
        (_flag("--cutoff", type=parse_exact_int, default=None,
               help="Euler product cutoff (default 1e6)"),
         _flag("--d", type=parse_int_list, default=None,
               help="singular-series offsets, e.g. 2,6,30"))),
}


def run(config: RunConfig) -> int:
    """Execute one command and emit its report; nonzero on any failure."""
    if config.command not in COMMANDS:
        raise CliError(f"unknown command {config.command!r}")
    if config.output_format not in ("csv", "json"):
        raise CliError(f"unknown output format {config.output_format!r}")
    header, rows, status = COMMANDS[config.command].handler(config)
    if config.output_format == "csv":
        text = render_csv(header, rows)
    else:
        text = render_json(config.command, config.report_config(), header, rows)
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # machine-readable usage errors
        sys.stderr.write(json.dumps({"error": "usage", "message": message}) + "\n")
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="germain-lab",
                     description="Numerical verification reports for Germain "
                                 "prime pairs, singular-series constants, and "
                                 "primitive-root theorems.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, description=command.help)
        for spec in (*_COMMON, *command.flags):
            if isinstance(spec, _OneOf):
                group = p.add_mutually_exclusive_group(required=spec.required)
                for names, kwargs in spec.flags:
                    group.add_argument(*names, **kwargs)
            else:
                names, kwargs = spec
                p.add_argument(*names, **kwargs)
    return parser


_CONFIG_FIELDS = {f.name for f in fields(RunConfig)}


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """RunConfig from parsed flags; unset options (None) are left out."""
    values = vars(args)  # in flag declaration order
    known = {k: v for k, v in values.items() if k in _CONFIG_FIELDS}
    known["threads"] = _resolve_threads(known["threads"])
    options = {k: v for k, v in values.items()
               if k not in _CONFIG_FIELDS and v is not None}
    return RunConfig(**known, options=options)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        config = config_from_args(args)
        return run(config)
    except (CliError, ValueError, OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(record) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
