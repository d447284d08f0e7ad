"""germain-lab benchmark: one client drives the CLI in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` as it stands. One iteration runs every command of the workload,
each in a fresh interpreter (``python -m germain_lab.cli``), because users
pay interpreter start-up and the module-level tables on every run. The
next command starts only when the previous one has exited. Iterations
repeat while the next one, if it takes as long as the last, ends within S
seconds; the timings reported are medians over iterations.

With ``--trace 0`` the end-to-end metrics come from untraced runs: wall
time measured here, CPU and peak RSS from ``os.wait4`` on each child.
``setup_s`` is the median over several fresh interpreters that import
``germain_lab.cli`` and build its parser. With ``--trace 1`` untraced and
traced iterations alternate; traced commands run under tracer.py, which
spans every public function of each module, and the per-layer metrics come
from those spans. ``trace.overhead_s`` is the traced minus the untraced
median wall time.

Every report is checked (golden digest or the workload's own check); a
nonzero exit, a failed check or a timeout counts as a failed command. The
last line of stdout is one JSON object with the result; the lines before it
name every metric with its unit. Only our own processes are measured: the
page cache is not dropped and nothing is traced system-wide, so cold-cache
numbers are out of scope.

    python3 perfbench/run.py --record-golden   # rewrite golden.json
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS

# A child's ru_maxrss starts from its parent's resident set (the kernel
# carries the forking process's high-water mark across exec), so this
# process imports no numpy and keeps no spans: span files are reduced by
# layers.py in a child of its own.

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN = BENCH_DIR / "golden.json"
SETUP_CODE = "from germain_lab import cli; cli.build_parser()"
# set-up samples per run, taken two at a time between iterations so that
# they spread over the run like the iterations do
SETUP_SAMPLES = 12
# A run must end within 180 s: no command starts, and none may run on,
# past this many seconds after the run began.
DEADLINE_S = 160.0


@dataclass
class Outcome:
    """One finished child process and the verdict on its report."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    problem: str | None


def run_child(argv: list[str], *, env: dict, out_path: Path, timeout: float,
              digest: str | None = None, check=None) -> Outcome:
    """Run argv to completion; time it, take its rusage and judge its stdout.

    The report is judged against the sha256 ``digest`` when given, then by
    ``check(report) -> problem or None``. Any nonzero exit, timeout, digest
    mismatch or failed check is returned as the outcome's problem.
    """
    expired = threading.Event()
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        t0 = time.perf_counter()
        child = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)

        def expire():
            expired.set()
            child.kill()

        timer = threading.Timer(max(timeout, 0.0), expire)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        except BaseException:
            child.kill()
            child.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
        # reaped here, so Popen must not wait for it again
        child.returncode = os.waitstatus_to_exitcode(status)
    outcome = Outcome(wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                      rss_mb=usage.ru_maxrss / 1024.0, problem=None)
    report = out_path.read_bytes()
    if expired.is_set():
        outcome.problem = f"timed out after {timeout:.0f} s"
    elif child.returncode != 0:
        stderr = out_path.with_suffix(".err").read_bytes()[-300:]
        outcome.problem = f"exit {child.returncode}: {stderr.decode(errors='replace')}"
    elif digest is not None and hashlib.sha256(report).hexdigest() != digest:
        outcome.problem = "report differs from its golden digest"
    elif check is not None:
        try:
            outcome.problem = check(report.decode())
        except (ValueError, KeyError, IndexError, UnicodeDecodeError) as exc:
            outcome.problem = f"unreadable report: {exc!r}"
    return outcome


def child_env() -> dict:
    """Our environment, with the checkout's src/ first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


class Bench:
    def __init__(self, workload: str, seed: int, tmp: Path):
        self.workload = workload
        self.seed = seed
        self.tmp = tmp
        self.started = time.perf_counter()
        self.env = child_env()
        self.golden = json.loads(GOLDEN.read_text())
        self.attempted = 0
        self.failed = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def setup_s(self, repeats: int) -> list[float]:
        """Wall times of fresh interpreters importing the CLI."""
        times = []
        for _ in range(repeats):
            o = run_child([sys.executable, "-c", SETUP_CODE], env=self.env,
                          out_path=self.tmp / "setup.out", timeout=self.remaining())
            if o.problem:
                raise RuntimeError(f"set-up failed: {o.problem}")
            times.append(o.wall_s)
        return times

    def iteration(self, index: int, traced: bool) -> tuple[list[Outcome], list[Path]]:
        outcomes, span_files = [], []
        for k, command in enumerate(WORKLOADS[self.workload]):
            if self.remaining() <= 0:
                break
            argv = command.argv(self.seed)
            if traced:
                spans = self.tmp / f"spans-{index}-{k}.npz"
                run_id = f"{self.seed}.{index}"
                argv = [str(BENCH_DIR / "tracer.py"), str(spans), self.workload,
                        run_id, "--", *argv]
                span_files.append(spans)
            else:
                argv = ["-m", "germain_lab.cli", *argv]
            o = run_child([sys.executable, *argv], env=self.env,
                          out_path=self.tmp / f"cmd-{k}.out",
                          timeout=self.remaining(),
                          digest=None if command.seeded else self.golden.get(command.key),
                          check=command.check)
            self.attempted += 1
            if o.problem:
                self.failed += 1
                sys.stderr.write(f"FAIL {command.key}: {o.problem}\n")
            outcomes.append(o)
        return outcomes, span_files


def reduce_spans(bench: Bench, spans: list[Path]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, from its span files."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "layers.py"), *map(str, spans)],
        env=bench.env, capture_output=True, text=True,
        timeout=max(bench.remaining(), 1.0), check=True)
    for path in spans:
        path.unlink(missing_ok=True)
    return json.loads(done.stdout)


def percentile_line(name: str, values: list[float], unit: str) -> str:
    """Median, and the highest percentile with at least ten samples beyond it."""
    n = len(values)
    line = f"{name}: median {statistics.median(values):.6g} {unit} over n={n}"
    if n >= 20:
        q = 100 * (n - 10) // n
        line += f", p{q} {statistics.quantiles(values, n=100)[q - 1]:.6g} {unit}"
    return line


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy")}


E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def measure(bench: Bench, seconds: float, trace: bool) -> dict:
    """Closed loop until `seconds` pass; returns the result's metrics."""
    samples: dict[str, list[float]] = {"wall_s": [], "cpu_s": [], "peak_rss_mb": []}
    setup: list[float] = []
    traced_wall, tallies = [], []
    loop_start = time.perf_counter()
    index = 0
    while bench.remaining() > 0:
        traced = trace and index % 2 == 1
        started = time.perf_counter()
        if not trace:
            setup += bench.setup_s(min(2, SETUP_SAMPLES - len(setup)))
        outcomes, spans = bench.iteration(index, traced)
        if len(outcomes) < len(WORKLOADS[bench.workload]):
            break  # cut short by the deadline: not a sample
        wall = sum(o.wall_s for o in outcomes)
        if traced:
            traced_wall.append(wall)
            tallies.append(reduce_spans(bench, spans))
        else:
            samples["wall_s"].append(wall)
            samples["cpu_s"].append(sum(o.cpu_s for o in outcomes))
            samples["peak_rss_mb"].append(max((o.rss_mb for o in outcomes), default=0.0))
        index += 1
        # stop before an iteration as long as the last one would overrun
        now = time.perf_counter()
        if now - loop_start + (now - started) > seconds and (not trace or tallies):
            break
    if not samples["wall_s"] or (trace and not tallies):
        raise RuntimeError(f"no complete iteration within {DEADLINE_S:.0f} s")
    if not trace:
        samples["setup_s"] = setup + bench.setup_s(SETUP_SAMPLES - len(setup))

    print(f"workload {bench.workload}, seed {bench.seed}, machine {json.dumps(machine())}")
    print(f"fail_ratio: {bench.failed}/{bench.attempted} commands failed")
    for name, values in samples.items():
        print(percentile_line(name, values, E2E_UNITS[name]))
    if not trace:
        return {name: {"value": statistics.median(values), "unit": E2E_UNITS[name]}
                for name, values in samples.items()}

    out = {}
    for name, metric in tallies[0].items():
        values = [t[name]["value"] for t in tallies]
        # a count stays a whole number
        middle = (statistics.median_low if all(isinstance(v, int) for v in values)
                  else statistics.median)
        out[name] = {"value": middle(values), "unit": metric["unit"]}
    out["trace.overhead_s"] = {
        "value": statistics.median(traced_wall) - statistics.median(samples["wall_s"]),
        "unit": "s"}
    for name, metric in out.items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    print(f"counting.dense_reuse_ratio base: "
          f"{out['counting.dense_requests']['value']} dense-table requests; "
          f"per-layer medians over {len(tallies)} traced iterations")
    return out


def record_golden(tmp: Path) -> None:
    digests = {}
    for commands in WORKLOADS.values():
        for command in commands:
            if command.seeded:
                continue
            out = tmp / "golden.out"
            o = run_child([sys.executable, "-m", "germain_lab.cli",
                           *command.argv(0)], env=child_env(), out_path=out,
                          timeout=120.0, check=command.check)
            if o.problem:
                raise RuntimeError(f"{command.key}: {o.problem}")
            digests[command.key] = hashlib.sha256(out.read_bytes()).hexdigest()
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "germain_lab" / "cli.py").is_file():
        sys.stderr.write(f"no germain-lab source under {ROOT / 'src'}; run from a checkout\n")
        return 2
    if not args.record_golden and args.workload is None:
        parser.error("--workload is required")
    tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        if args.record_golden:
            record_golden(tmp)
            return 0
        bench = Bench(args.workload, args.seed, tmp)
        # compile bytecode and warm the page cache before anything is timed
        run_child([sys.executable, "-c", SETUP_CODE], env=bench.env,
                  out_path=tmp / "warm.out", timeout=60.0)
        metrics = measure(bench, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
