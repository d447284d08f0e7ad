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
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from math import gcd

from . import constants, counting, primroot, progressions, sums
from .reports import render_csv, render_json

DEFAULT_C2_CUTOFF = 10 ** 6
# Largest a*x+b the pair commands sieve to unless --sieve-limit says otherwise
DEFAULT_SIEVE_LIMIT = 1 << 31
# trend reports default to a log-spaced grid; heavy but desk scale
DEFAULT_TREND_GRID = [10 ** k for k in range(2, 9)]

_COMMAND_HELP = {
    "census": "Pair counts and weighted sums at checkpoints: pi_g(x), the "
              "Lambda(n)Lambda(an+b) sum, its square-weighted variant, the "
              "2*C2 * integral dt/(log t log(at+b)) prediction, and the "
              "ratio psi_g/(2 C2 x) the pair conjecture says tends to 1.",
    "psi0-partition": "Split the divisor-expanded square-weighted sum at a "
                      "cutoff x1: main box (d1,d2 <= x1) plus complement must "
                      "reproduce psi0(x) exactly up to rounding.",
    "hl-compare": "Compare the integral prediction against the actual pair "
                  "count pi_g(x) at each checkpoint.",
    "ap-census": "Exact closed-form counts of n <= x in every residue class "
                 "mod q (residual against x/q is always below 1), or the "
                 "prime-power-weighted class sums with their x/phi(q) target.",
    "verify-identities": "Exact integer checks of gcd(m,n) = sum_{d|gcd} phi(d), "
                         "mn = [m,n]*sum phi(d), and phi(mn) = phi([m,n])*sum "
                         "phi(d) over all pairs up to --max.",
    "sums": "Checkpointed series of the double sums log m log n/[m,n] and "
            "mu mu log log/phi([m,n]), by brute-force or rearranged method.",
    "twisted-sums": "Restricted sums of mu(n)/phi(n) (optionally log-weighted) "
                    "over n coprime to m; the log-weighted form approaches the "
                    "singular series of m in absolute value.",
    "large-sieve": "Evaluate both sides of the mean-square large-sieve "
                   "inequality with bound Q(10Q + 2 pi x); slack must be >= 0.",
    "primroot": "Generator sweeps: 2 mod 4p+1 across all eligible p, the "
                "Fermat-prime nonresidue shortcut, or the two-exponentiation "
                "test on moduli 2^s*r+1 against the full witness test.",
    "table-errata": "Audit the published (p, 4p+1) pair table: recompute 4p+1, "
                    "check primality of the claimed entry, flag mismatches.",
    "reciprocal-sum": "Sums of 1/p and log p/p over Germain primes p <= x, "
                      "with the log-log fit residual for the latter.",
    "constants": "The twin-prime Euler product at a cutoff with its rigorous "
                 "tail bound, and singular-series values for chosen offsets.",
}


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


def parse_int_list(text: str) -> list[int]:
    values = [parse_exact_int(tok) for tok in text.split(",") if tok.strip()]
    if not values:
        raise CliError("empty checkpoint list")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise CliError(f"checkpoints must be strictly ascending: {values}")
    return values


def _resolve_threads(flag_value: int | None) -> int:
    if flag_value is not None:
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
        x1 = x1_opt if x1_opt is not None else math.log(x) ** 2
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
    header = ["formula_id", "x", "value", "method"]
    rows = []
    if formula in sums.SERIES_FORMULAS:
        methods = ([sums.DEFAULT_METHOD[formula]] if method == "auto"
                   else ["brute", sums.DEFAULT_METHOD[formula]] if method == "both"
                   else [method])
        for m in methods:
            series = sums.sum_series(formula, config.x_checkpoints, m)
            rows.extend([series.formula_id, x, v, series.method]
                        for x, v in series.checkpoints)
    elif formula == "squarefree-harmonic":
        rows = [[formula, x, sums.squarefree_harmonic_sum(x).value, "direct"]
                for x in config.x_checkpoints]
    elif formula == "mobius-log":
        from .arith import mobius_log_sum
        rows = [[formula, x, mobius_log_sum(x).value, "direct"]
                for x in config.x_checkpoints]
    else:
        raise CliError(f"unknown formula {formula!r}")
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
    header = ["p", "claimed_q", "computed_q", "claimed_is_prime", "match"]
    rows = [[r.p, r.claimed_q, r.computed_q, r.claimed_is_prime, r.match]
            for r in primroot.reproduce_pair_table(config.options.get("limit"))]
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
    cutoff = config.options.get("cutoff") or config.c2_cutoff
    offsets = config.options.get("d") or [2]
    c2 = constants.twin_prime_constant(cutoff, threads=config.threads)
    header = ["kind", "d", "prime_cutoff", "value", "tail_bound"]
    rows = [["twin-prime-constant", 2, c2.prime_cutoff, c2.value, c2.tail_bound]]
    for d in offsets:
        g = constants.singular_series(d, c2)
        rows.append(["singular-series", d, g.prime_cutoff, g.value, g.tail_bound])
    return header, rows, 0


_HANDLERS = {
    "census": _cmd_census,
    "psi0-partition": _cmd_psi0_partition,
    "hl-compare": _cmd_hl_compare,
    "ap-census": _cmd_ap_census,
    "verify-identities": _cmd_verify_identities,
    "sums": _cmd_sums,
    "twisted-sums": _cmd_twisted_sums,
    "large-sieve": _cmd_large_sieve,
    "primroot": _cmd_primroot,
    "table-errata": _cmd_table_errata,
    "reciprocal-sum": _cmd_reciprocal_sum,
    "constants": _cmd_constants,
}


def run(config: RunConfig) -> int:
    """Execute one command and emit its report; nonzero on any failure."""
    if config.command not in _HANDLERS:
        raise CliError(f"unknown command {config.command!r}")
    if config.output_format not in ("csv", "json"):
        raise CliError(f"unknown output format {config.output_format!r}")
    header, rows, status = _HANDLERS[config.command](config)
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

    def common(p, checkpoints=False, trend_grid=False):
        p.add_argument("--format", choices=("csv", "json"), default="csv",
                       help="report format (default csv)")
        p.add_argument("--output", default=None, help="report file (default stdout)")
        p.add_argument("--threads", type=int, default=None,
                       help="worker threads; overrides GERMAIN_LAB_THREADS")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for randomized sweeps")
        p.add_argument("--sieve-limit", type=parse_exact_int, default=None,
                       help="largest companion a*x+b the pair commands may "
                            "sieve to (default 2^31)")
        p.add_argument("--c2-cutoff", type=parse_exact_int,
                       default=DEFAULT_C2_CUTOFF,
                       help="prime cutoff for the twin-prime Euler product")
        if checkpoints:
            if trend_grid:
                p.add_argument("--x", type=parse_int_list,
                               default=DEFAULT_TREND_GRID,
                               help="ascending checkpoints, e.g. 1e2,1e4,1e6 "
                                    "(default powers of 10 up to 1e8)")
            else:
                p.add_argument("--x", type=parse_int_list, required=True,
                               help="ascending checkpoints, e.g. 1e2,1e4,1e6")
            p.add_argument("--a", type=int, default=2, help="pair slope (q = a p + b)")
            p.add_argument("--b", type=int, default=1, help="pair offset")

    p = sub.add_parser("census", help=_COMMAND_HELP["census"],
                       description=_COMMAND_HELP["census"])
    common(p, checkpoints=True, trend_grid=True)

    p = sub.add_parser("psi0-partition", help=_COMMAND_HELP["psi0-partition"],
                       description=_COMMAND_HELP["psi0-partition"])
    common(p, checkpoints=True)
    p.add_argument("--x1", type=float, default=None,
                   help="partition cutoff (default (log x)^2 per checkpoint)")

    p = sub.add_parser("hl-compare", help=_COMMAND_HELP["hl-compare"],
                       description=_COMMAND_HELP["hl-compare"])
    common(p, checkpoints=True, trend_grid=True)

    p = sub.add_parser("ap-census", help=_COMMAND_HELP["ap-census"],
                       description=_COMMAND_HELP["ap-census"])
    common(p, checkpoints=True)
    p.add_argument("--q", type=parse_exact_int, default=3, help="modulus")
    p.add_argument("--weighted", action="store_true",
                   help="prime-power-weighted class sums instead of raw counts")

    p = sub.add_parser("verify-identities", help=_COMMAND_HELP["verify-identities"],
                       description=_COMMAND_HELP["verify-identities"])
    common(p)
    p.add_argument("--max", type=parse_exact_int, default=300,
                   help="check all pairs 1 <= m,n <= max (default 300)")

    p = sub.add_parser("sums", help=_COMMAND_HELP["sums"],
                       description=_COMMAND_HELP["sums"])
    common(p, checkpoints=True)
    p.add_argument("--formula", required=True,
                   choices=("log-lcm", "mobius-phi-lcm", "squarefree-harmonic",
                            "mobius-log"))
    p.add_argument("--method", default="auto",
                   choices=("auto", "both", "brute", "rearranged",
                            "diagonalized", "relaxed"))

    p = sub.add_parser("twisted-sums", help=_COMMAND_HELP["twisted-sums"],
                       description=_COMMAND_HELP["twisted-sums"])
    common(p, checkpoints=True)
    p.add_argument("--m", type=int, default=2, help="coprimality parameter")
    log_group = p.add_mutually_exclusive_group()
    log_group.add_argument("--with-log", dest="with_log", action="store_true",
                           default=True)
    log_group.add_argument("--no-log", dest="with_log", action="store_false")

    p = sub.add_parser("large-sieve", help=_COMMAND_HELP["large-sieve"],
                       description=_COMMAND_HELP["large-sieve"])
    common(p)
    p.add_argument("--x", type=parse_exact_int, default=1000)
    p.add_argument("--Q", type=parse_exact_int, default=30)
    p.add_argument("--sequence", choices=("ones", "primes", "random"),
                   default="ones")
    p.add_argument("--trials", type=int, default=1,
                   help="number of seeded trials (random sequence)")

    p = sub.add_parser("primroot", help=_COMMAND_HELP["primroot"],
                       description=_COMMAND_HELP["primroot"])
    common(p)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--theorem-4p1", dest="mode", action="store_const",
                      const="theorem-4p1")
    mode.add_argument("--fermat", dest="mode", action="store_const", const="fermat")
    mode.add_argument("--short-test", dest="mode", action="store_const",
                      const="short-test")
    p.add_argument("--limit", type=parse_exact_int, default=10 ** 4)
    p.add_argument("--trials", type=int, default=20,
                   help="random bases per modulus")

    p = sub.add_parser("table-errata", help=_COMMAND_HELP["table-errata"],
                       description=_COMMAND_HELP["table-errata"])
    common(p)
    p.add_argument("--limit", type=parse_exact_int, default=None)

    p = sub.add_parser("reciprocal-sum", help=_COMMAND_HELP["reciprocal-sum"],
                       description=_COMMAND_HELP["reciprocal-sum"])
    common(p, checkpoints=True, trend_grid=True)

    p = sub.add_parser("constants", help=_COMMAND_HELP["constants"],
                       description=_COMMAND_HELP["constants"])
    common(p)
    p.add_argument("--cutoff", type=parse_exact_int, default=None,
                   help="Euler product cutoff (default --c2-cutoff)")
    p.add_argument("--d", type=parse_int_list, default=None,
                   help="singular-series offsets, e.g. 2,6,30")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    options = {}
    for key in ("x1", "max", "formula", "method", "m", "with_log", "Q", "q",
                "weighted", "sequence", "trials", "mode", "limit", "cutoff", "d"):
        if hasattr(args, key) and getattr(args, key) is not None:
            options[key] = getattr(args, key)
    if hasattr(args, "x") and isinstance(getattr(args, "x"), int):
        options["x"] = args.x  # large-sieve single x, not a checkpoint list
    return RunConfig(
        command=args.command,
        x_checkpoints=args.x if isinstance(getattr(args, "x", None), list) else [],
        a=getattr(args, "a", 2),
        b=getattr(args, "b", 1),
        sieve_limit=getattr(args, "sieve_limit", None),
        c2_cutoff=getattr(args, "c2_cutoff", DEFAULT_C2_CUTOFF),
        output_format=args.format,
        output_path=args.output,
        threads=_resolve_threads(getattr(args, "threads", None)),
        seed=getattr(args, "seed", 0),
        options=options,
    )


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
