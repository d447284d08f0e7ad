"""Command-line surface tying the verification modules together.

One subcommand per verification cluster; every run emits one deterministic
CSV or JSON report (stdout by default). The parsed argparse namespace is the
run config: each handler reads its flags from it, and each flag's default
is stated once, in COMMANDS or, for the report-base keys, in _REPORT_BASE.
The pair and primroot commands refuse their input before any sieve or
C2 product. Same config and seed give byte-identical reports: every
command runs on one thread, --threads is checked but read by no command,
and volatile fields (threads, output path) stay out of the report body.
That one thread is the whole process: no layer calls a BLAS routine, so
main sets OPENBLAS_NUM_THREADS=1 before any handler imports numpy, and
numpy's OpenBLAS starts no worker thread. Importing this module or the
package leaves the environment alone, as a library caller may use BLAS.

Importing this module and building the parser load argparse, and typing
for the NamedTuples, and nothing that only some command needs. The parser
holds each command's name and help; a command's flags are added to its
parser when that parser first parses, so a run adds only its own. Each
handler imports the layers it reads when it runs, and numpy loads on the
first sieve or array call. So these never load it: a usage error, the
--threads refusal, the sieve-capacity refusal of census, hl-compare and
reciprocal-sum, every primroot refusal, the sums --method that does not
apply to its --formula, the large-sieve --trials and --seed of a
deterministic sequence, table-errata and primroot --fermat. The other
refusals do, as their caps live in layers that import numpy when they
load (counting, sums, progressions, constants). The rest
loads where it is used: json when a JSON report or error record is
written, decimal when parse_exact_int parses a flag. Command and _OneOf are
NamedTuples, as is every record of the library: dataclasses would import
inspect. This module, reports and the package's __init__ do without
`from __future__ import annotations`, which imports the __future__ module.
FORMULAS, the table of the `sums` report's formulas and methods, lives
here beside the `sums` command, so that its --formula choices need no
layer.
"""

import argparse
import math
import os
import sys
from typing import Callable, NamedTuple

from .reports import render_csv, render_json

# Largest a*x+b the pair commands sieve to unless --sieve-limit says otherwise
DEFAULT_SIEVE_LIMIT = 1 << 31
# trend reports default to a log-spaced grid; heavy but desk scale
DEFAULT_TREND_GRID = [10 ** k for k in range(2, 9)]
# The keys every JSON report config starts with, in this order. A flag that
# sets one and states no default of its own, and a command without that
# flag, take the value here.
_REPORT_BASE = {"x_checkpoints": [], "a": 2, "b": 1, "sieve_limit": None,
                "c2_cutoff": 10 ** 6, "seed": 0}
# parsed values that must not influence report bytes
_VOLATILE = {"command", "output_format", "output_path", "threads", "given"}


class CliError(ValueError):
    pass


def parse_exact_int(token: str) -> int:
    """Checkpoint numbers, scientific notation allowed, parsed exactly.

    Infinities, NaNs and any magnitude of sys.get_int_max_str_digits()
    digits or more are refused before int() is called: int() of a huge
    Decimal takes time quadratic in its digits. The parse functions raise
    argparse.ArgumentTypeError, whose message argparse puts in the usage
    error; it drops the message of any other exception.
    """
    from decimal import Decimal, InvalidOperation
    try:
        d = Decimal(token.strip())
    except InvalidOperation:
        raise argparse.ArgumentTypeError(f"not a number: {token!r}") from None
    if not d.is_finite():
        raise argparse.ArgumentTypeError(f"not a finite number: {token!r}")
    digits = sys.get_int_max_str_digits()  # 0: no limit
    if d and digits and d.adjusted() >= digits:
        raise argparse.ArgumentTypeError(f"{token!r} has more than the {digits} "
                                         "digits an integer may take")
    if d != d.to_integral_value():
        raise argparse.ArgumentTypeError(f"not an integer: {token!r}")
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
        raise argparse.ArgumentTypeError("empty checkpoint list")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError(
            f"checkpoints must be strictly ascending: {values}")
    return values


def _require_limit(limit: int | None, minimum: int) -> None:
    """Refuse a --limit below the first value the check would look at."""
    if limit is not None and limit < minimum:
        raise CliError(f"--limit must be >= {minimum}, the first value it "
                       f"checks; got {limit}")


def _refuse_unread(args: argparse.Namespace, unread: set[str], mode: str) -> None:
    """Refuse a flag the user gave that the chosen mode does not read."""
    given = sorted(args.given & unread)
    if given:
        raise CliError(f"--{given[0]} does not apply to {mode}")


def _require_capacity(args: argparse.Namespace) -> None:
    need = args.a * max(args.x_checkpoints) + args.b
    cap = args.sieve_limit if args.sieve_limit is not None else DEFAULT_SIEVE_LIMIT
    if need > cap:
        raise CliError(
            f"checkpoint needs primality up to {need}, beyond the sieve "
            f"capability {cap}; raise --sieve-limit or lower the checkpoint")


def _c2(args: argparse.Namespace) -> "constants.SingularValue":
    """The twin-prime-constant product at --c2-cutoff."""
    from . import constants
    return constants.twin_prime_constant(args.c2_cutoff)


# -- command handlers: each returns (header, rows, exit_status) --------------

def _cmd_census(args: argparse.Namespace):
    _require_capacity(args)
    from . import counting
    header = ["x", "pi_g", "psi_g", "psi0", "hl_prediction", "ratio"]
    rows = [[r.x, r.pi_g, r.psi_g, r.psi0, r.hl_prediction, r.ratio]
            for r in counting.census(args.x_checkpoints, args.a, args.b,
                                     lambda: _c2(args))]
    return header, rows, 0


def _cmd_psi0_partition(args: argparse.Namespace):
    _require_capacity(args)
    from . import counting
    largest = max(args.x_checkpoints, default=0)
    if largest > counting.PARTITION_CAP:
        raise CliError(f"--x {largest} is above the cap {counting.PARTITION_CAP}: the "
                       "partition walks every odd squarefree d <= 2x+1 in Python")
    header = ["x", "x1", "main", "error", "psi0", "partition_residual"]
    rows = []
    for x, (_, _, p0) in zip(args.x_checkpoints, counting.pair_sums(args.x_checkpoints)):
        x1 = args.x1 if args.x1 is not None else max(1.0, math.log(x) ** 2)
        m, e = counting.psi0_partition(x, x1)
        rows.append([x, x1, m, e, p0, m + e - p0])
    return header, rows, 0


def _cmd_hl_compare(args: argparse.Namespace):
    # the census rows; prediction/actual is undefined, an empty cell, at pi_g = 0
    header = ["x", "pi_g", "hl_prediction", "prediction_over_actual"]
    rows = [[x, pi_g, hl, hl / pi_g if pi_g else ""]
            for x, pi_g, _, _, hl, _ in _cmd_census(args)[1]]
    return header, rows, 0


def _cmd_ap_census(args: argparse.Namespace):
    from . import progressions
    q, xs = args.q, args.x_checkpoints
    if q * len(xs) > progressions.AP_CENSUS_ROWS_CAP:
        raise CliError(f"--q {q} and --x make {q * len(xs)} rows, q per checkpoint, "
                       f"above the cap {progressions.AP_CENSUS_ROWS_CAP}: each "
                       "row is held in Python until the report is written")
    if args.weighted:
        header = ["x", "q", "a", "value", "expected", "residual"]
        rows = [[r.x, r.q, r.a, r.value, "" if r.expected is None else r.expected,
                 "" if r.residual is None else r.residual]
                for r in progressions.chebyshev_ap(xs, q)]
    else:
        header = ["x", "q", "a", "count", "residual"]
        rows = [[r.x, r.q, r.a, r.count, r.residual]
                for r in (progressions.count_ap(x, q, a) for x in xs for a in range(q))]
    return header, rows, 0


def _cmd_verify_identities(args: argparse.Namespace):
    import numpy as np
    from . import arith, sums
    top = args.max
    if top > sums.IDENTITY_CAP:
        width = np.dtype(arith.PHI_DTYPE).itemsize
        raise CliError(f"--max {top} is above the cap {sums.IDENTITY_CAP}: the "
                       f"phi table up to max^2 would take {width * (top * top + 1)} bytes")
    count = len(sums.IDENTITIES)
    nonzero = [0] * count
    worst = [0] * count
    for _, residuals in sums.identity_residual_rows(top):
        for i, r in enumerate(residuals):
            nonzero[i] += int((r != 0).sum())
            worst[i] = max(worst[i], int(abs(r).max()))
    header = ["identity", "max_m", "max_n", "cases", "nonzero_residuals",
              "max_abs_residual"]
    rows = [[name, top, top, top * top, nonzero[i], worst[i]]
            for i, name in enumerate(sums.IDENTITIES)]
    return header, rows, 0 if sum(nonzero) == 0 else 1


def _cmd_sums(args: argparse.Namespace):
    formula, method = args.formula, args.method
    table = FORMULAS[formula]
    default = next(iter(table))
    methods = {"auto": [default], "both": ["brute", default]}.get(method, [method])
    if any(m not in table for m in methods):
        raise CliError(f"--method {method} does not apply to --formula {formula}; "
                       f"it takes {', '.join(table)}")
    from . import sums
    # a double sum is taken anew at each x: refuse the largest x before
    # any x is summed
    caps = {"log-lcm": sums.LOG_LCM_CAPS,
            "mobius-phi-lcm": sums.MOBIUS_PHI_LCM_CAPS}.get(formula, {})
    largest = max(args.x_checkpoints)
    for m in methods:
        if largest > caps.get(m, largest):
            raise CliError(f"--x {largest} is above the cap {caps[m]} of --formula "
                           f"{formula} --method {m}")
    header = ["formula_id", "x", "value", "method"]
    rows = [[formula, x, value, m] for m in methods
            for x, value in zip(args.x_checkpoints, table[m](sums, args.x_checkpoints))]
    return header, rows, 0


def _cmd_twisted_sums(args: argparse.Namespace):
    from . import sums
    m, with_log = args.m, args.with_log
    target, values = sums.twisted_mobius_sums(m, args.x_checkpoints, with_log,
                                              lambda: _c2(args))
    header = ["m", "x", "with_log", "value", "target_abs", "abs_gap", "sign"]
    rows = []
    for x, v in zip(args.x_checkpoints, values):
        sign = "+" if v > 0 else "-" if v < 0 else "0"
        rows.append([m, x, with_log, v, target, abs(abs(v) - target), sign])
    return header, rows, 0


def _cmd_large_sieve(args: argparse.Namespace):
    x, kind, trials = args.x, args.sequence, args.trials
    if kind != "random":
        # ones and primes give the same row on every trial
        if trials > 1:
            raise CliError(f"--trials {trials} does not apply to large-sieve "
                           f"--sequence {kind}, which is deterministic; it "
                           f"takes --trials 1")
        _refuse_unread(args, {"seed"}, f"large-sieve --sequence {kind}")
    from . import progressions
    if x > progressions.LARGE_SIEVE_X_CAP:
        raise CliError(f"--x {x} is above the cap {progressions.LARGE_SIEVE_X_CAP}: "
                       "the check holds about 16 bytes per integer")
    updates = x * args.Q * trials
    if updates > progressions.LARGE_SIEVE_OPS_CAP:
        raise CliError(f"--x {x} --Q {args.Q} --trials {trials} make {updates} class "
                       f"updates, above the cap {progressions.LARGE_SIEVE_OPS_CAP}: "
                       "each trial updates x classes for every modulus up to Q")
    header = ["x", "Q", "sequence", "seed", "lhs", "rhs", "slack"]
    rows = []
    bad = 0
    for t in range(trials):
        seed = args.seed + t
        if kind == "ones":
            seq = progressions.ones_sequence(x)
        elif kind == "primes":
            seq = progressions.prime_indicator_sequence(x)
        else:
            seq = progressions.random_sign_sequence(x, seed)
        rep = progressions.large_sieve_check(x, args.Q, seq)
        if rep.slack < 0:
            bad += 1
        rows.append([rep.x, rep.Q, kind, seed if kind == "random" else "",
                     rep.lhs, rep.rhs, rep.slack])
    return header, rows, 0 if bad == 0 else 1


# the flags each primroot mode reads; short-test reads all three
_PRIMROOT_READS = {"theorem-4p1": {"limit"}, "fermat": {"trials", "seed"},
                   "short-test": {"limit", "trials", "seed"}}


def _cmd_primroot(args: argparse.Namespace):
    from . import primroot, sieve
    mode, limit, trials = args.mode, args.limit, args.trials
    _refuse_unread(args, _PRIMROOT_READS["short-test"] - _PRIMROOT_READS[mode],
                   f"primroot --{mode}")
    if "seed" in _PRIMROOT_READS[mode] and args.seed < 0:
        raise CliError(f"--seed must be >= 0, got {args.seed}: random.Random "
                       f"would seed it as {-args.seed}")
    if "limit" in _PRIMROOT_READS[mode] and limit > primroot.SWEEP_CAP:
        raise CliError(f"--limit {limit} is above the cap {primroot.SWEEP_CAP}: "
                       f"the {mode} sweep tests every prime up to it in Python")
    if "trials" in _PRIMROOT_READS[mode] and trials > primroot.TRIALS_CAP:
        raise CliError(f"--trials {trials} is above the cap {primroot.TRIALS_CAP}: "
                       f"the {mode} sweep holds every base of a modulus in Python")
    if mode == "short-test" and limit * trials > primroot.SHORT_TEST_BUDGET:
        raise CliError(f"--limit {limit} times --trials {trials} is {limit * trials}, "
                       f"above the budget {primroot.SHORT_TEST_BUDGET}: the short-test "
                       f"sweep tests every base of every modulus in Python")
    if mode == "theorem-4p1":
        _require_limit(limit, 3)  # the first pair is (3, 13)
        header = ["p", "q", "two_generates"]
        rows = [[p, 4 * p + 1, primroot.theorem_4p1_check(p)]
                for p in sieve.pair_primes(limit, 4, 1).tolist()]
        return header, rows, 0 if all(ok for _, _, ok in rows) else 1
    import random
    rng = random.Random(args.seed)
    bad = 0
    rows = []
    if mode == "fermat":
        header = ["modulus", "bases_checked", "biconditional_holds"]
        for f in primroot.FERMAT_PRIMES:
            if f <= 257:
                bases = range(2, f)
            else:
                bases = [rng.randrange(2, f) for _ in range(trials)]
            ok = primroot.fermat_nonresidue_check(f, bases)
            if not ok:
                bad += 1
            rows.append([f, len(bases), ok])
        return header, rows, 0 if bad == 0 else 1
    _require_limit(limit, 7)  # the first modulus is 7 = 2*3 + 1
    header = ["q", "s", "r", "trials", "agreements"]
    for g in primroot.germain_moduli_upto(limit):
        bases = [rng.randrange(2, g.q) for _ in range(trials)]
        certs = primroot.primitive_root_test(g.q, bases)
        agree = sum(primroot.germain_short_test(g, u) == c.verdict
                    for u, c in zip(bases, certs))
        if agree != trials:
            bad += 1
        rows.append([g.q, g.s, g.r, trials, agree])
    return header, rows, 0 if bad == 0 else 1


def _cmd_table_errata(args: argparse.Namespace):
    from . import primroot
    _require_limit(args.limit, primroot.CLAIMED_PAIR_TABLE[0][0])
    header = ["p", "claimed_q", "computed_q", "claimed_is_prime", "match"]
    rows = [[r.p, r.claimed_q, r.computed_q, r.claimed_is_prime, r.match]
            for r in primroot.reproduce_pair_table(args.limit)]
    return header, rows, 0


def _cmd_reciprocal_sum(args: argparse.Namespace):
    _require_capacity(args)
    from . import counting
    header = ["x", "reciprocal_sum", "logp_sum", "logp_fit_residual"]
    rows = [[x, *sums_at_x] for x, sums_at_x in zip(
        args.x_checkpoints,
        counting.reciprocal_sums(args.x_checkpoints, lambda: _c2(args)))]
    return header, rows, 0


def _cmd_constants(args: argparse.Namespace):
    from . import constants
    cutoff = args.cutoff if args.cutoff is not None else args.c2_cutoff
    offsets = args.d if args.d is not None else [2]
    for d in offsets:
        constants.check_offset(d)
    c2 = constants.twin_prime_constant(cutoff)
    header = ["kind", "d", "prime_cutoff", "value", "tail_bound"]
    rows = [["twin-prime-constant", 2, c2.prime_cutoff, c2.value, c2.tail_bound]]
    for d in offsets:
        g = constants.singular_series(d, c2)
        rows.append(["singular-series", d, g.prime_cutoff, g.value, g.tail_bound])
    return header, rows, 0


def _flag(*names: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    """One argparse flag: its option strings and add_argument keywords."""
    return names, kwargs


class _OneOf(NamedTuple):
    """Mutually exclusive flags."""

    flags: tuple
    required: bool = False


class Command(NamedTuple):
    """A subcommand: its handler, its help text and every flag the handler reads.

    The handler reads the parsed flags by dest. The JSON report config holds
    the _REPORT_BASE keys, then every other flag that is set, in declaration
    order.
    """

    handler: Callable[[argparse.Namespace], tuple[list, list, int]]
    help: str
    flags: tuple


_CHECKPOINT_HELP = "ascending checkpoints, e.g. 1e2,1e4,1e6"
_X = _flag("--x", dest="x_checkpoints", metavar="X", type=parse_int_list,
           required=True, help=_CHECKPOINT_HELP)
_X_GRID = _flag("--x", dest="x_checkpoints", metavar="X", type=parse_int_list,
                default=DEFAULT_TREND_GRID,
                help=_CHECKPOINT_HELP + " (default powers of 10 up to 1e8)")
# --sieve-limit, --c2-cutoff, --a, --b and --seed default to _REPORT_BASE
_SIEVE_LIMIT = _flag("--sieve-limit", type=parse_exact_int,
                     help="largest companion a*x+b the pair commands may "
                          "sieve to (default 2^31)")
_C2_CUTOFF = _flag("--c2-cutoff", type=parse_exact_int,
                   help="prime cutoff for the twin-prime Euler product")
_PAIR = (_flag("--a", type=int, help="pair slope (q = a p + b)"),
         _flag("--b", type=int, help="pair offset"),
         _SIEVE_LIMIT, _C2_CUTOFF)
_SEED = _flag("--seed", type=int, help="seed for randomized sweeps")

# every command takes these
_COMMON = (
    _flag("--format", dest="output_format", choices=("csv", "json"), default="csv",
          help="report format (default csv)"),
    _flag("--output", dest="output_path", metavar="OUTPUT",
          help="report file (default stdout)"),
    _flag("--threads", type=int, default=1,
          help="checked (>= 1) but unused: every command runs on one thread"),
)

# The `sums` report: formula id -> {method: (sums module, checkpoints) ->
# one value per checkpoint}, the default method first; the one place that
# says which method a formula takes. A double sum is taken anew at each
# checkpoint, as its terms change with x; a single sum is one table cut at
# every checkpoint. The lambdas look each sum up on the module at call
# time, so sums is imported only when the command runs, and a wrapper that
# perfbench's tracer installs on the module function is the one that runs.
FORMULAS = {
    "log-lcm": {
        m: lambda sums, xs, m=m: [sums.log_lcm_double_sum(x, m) for x in xs]
        for m in ("rearranged", "brute", "relaxed")},
    "mobius-phi-lcm": {
        m: lambda sums, xs, m=m: [sums.mobius_phi_lcm_sum(x, m) for x in xs]
        for m in ("diagonalized", "brute", "relaxed")},
    "squarefree-harmonic": {"direct": lambda sums, xs: sums.squarefree_harmonic_sums(xs)},
    "mobius-log": {"direct": lambda sums, xs: sums.mobius_log_sums(xs)},
}

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
         _flag("--x1", type=float,
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
         _flag("--formula", required=True, choices=tuple(FORMULAS)),
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
        (_flag("--limit", type=parse_exact_int),)),
    "reciprocal-sum": Command(
        _cmd_reciprocal_sum,
        "Sums of 1/p and log p/p over Germain primes p <= x, with the "
        "log-log fit residual for the latter.",
        (_X_GRID, _SIEVE_LIMIT, _C2_CUTOFF)),
    "constants": Command(
        _cmd_constants,
        "The twin-prime Euler product at a cutoff with its rigorous tail "
        "bound, and singular-series values for chosen offsets.",
        (_flag("--cutoff", type=parse_exact_int,
               help="Euler product cutoff (default 1e6)"),
         _flag("--d", type=parse_int_list,
               help="singular-series offsets, e.g. 2,6,30"))),
}


def _report_config(args: argparse.Namespace) -> dict:
    """The report-base keys, then every other set, non-volatile flag in order."""
    values = vars(args)  # in flag declaration order
    config = {key: values[key] for key in _REPORT_BASE}
    config.update((key, value) for key, value in values.items()
                  if key not in config and key not in _VOLATILE
                  and value is not None)
    return config


def run(args: argparse.Namespace) -> int:
    """Execute one parsed command and emit its report; nonzero on any failure."""
    header, rows, status = COMMANDS[args.command].handler(args)
    if args.output_format == "csv":
        text = render_csv(header, rows)
    else:
        text = render_json(args.command, _report_config(args), header, rows)
    if args.output_path:
        with open(args.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return status


class _Given(argparse.Action):
    """Store a flag's value and add its dest to the namespace's given set."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = namespace.given | {self.dest}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # machine-readable usage errors
        import json
        sys.stderr.write(json.dumps({"error": "usage", "message": message}) + "\n")
        raise SystemExit(2)


class _CommandParser(_Parser):
    """One command's parser. Its flags are added when it first parses, so
    building the CLI's parser adds none for the commands a run does not name."""

    def __init__(self, *, flags: tuple, **kwargs):
        super().__init__(**kwargs)
        self._pending = flags

    def parse_known_args(self, args=None, namespace=None):
        if self._pending is not None:
            for spec in (*_COMMON, *self._pending):
                if isinstance(spec, _OneOf):
                    group = self.add_mutually_exclusive_group(required=spec.required)
                    for names, kwargs in spec.flags:
                        group.add_argument(*names, **kwargs)
                else:
                    names, kwargs = spec
                    self.add_argument(*names, **{"action": _Given, **kwargs})
            self.set_defaults(given=frozenset(), **{
                key: value for key, value in _REPORT_BASE.items()
                if self.get_default(key) is None})
            self._pending = None
        return super().parse_known_args(args, namespace)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="germain-lab",
                     description="Numerical verification reports for Germain "
                                 "prime pairs, singular-series constants, and "
                                 "primitive-root theorems.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_CommandParser)
    for name, command in COMMANDS.items():
        sub.add_parser(name, help=command.help, description=command.help,
                       flags=command.flags)
    return parser


def main(argv=None) -> int:
    # no layer calls BLAS: before numpy loads, stop OpenBLAS starting a
    # thread per extra core
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.threads < 1:
            raise CliError("--threads must be >= 1")
        return run(args)
    except (CliError, ValueError, OSError, MemoryError) as exc:
        import json
        record = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(record) + "\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
