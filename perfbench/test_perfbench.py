"""Tests of the benchmark itself: failure accounting, span arithmetic, tracing."""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import numpy as np
import pytest

import layers
import run
from workloads import WORKLOADS, Command, check_census, check_errata


@pytest.fixture
def bench(tmp_path):
    return run.Bench("constants-sweeps-sums", seed=0, tmp=tmp_path)


def test_nonzero_exit_is_a_failure(tmp_path):
    argv = [sys.executable, "-c", "import sys; print('x'); sys.exit(3)"]
    o = run.run_child(argv, env=run.child_env(), out_path=tmp_path / "o", timeout=30)
    assert o.problem.startswith("exit 3")


def test_digest_mismatch_is_a_failure(tmp_path):
    argv = [sys.executable, "-c", "print('report')"]
    good = hashlib.sha256(b"report\n").hexdigest()
    kw = dict(env=run.child_env(), out_path=tmp_path / "o", timeout=30)
    assert run.run_child(argv, digest=good, **kw).problem is None
    bad = run.run_child(argv, digest=hashlib.sha256(b"other").hexdigest(), **kw)
    assert bad.problem == "report differs from its golden digest"


def test_timeout_is_a_failure(tmp_path):
    argv = [sys.executable, "-c", "import time; time.sleep(30)"]
    o = run.run_child(argv, env=run.child_env(), out_path=tmp_path / "o", timeout=0.5)
    assert o.problem.startswith("timed out") and o.wall_s < 10


def test_iteration_counts_each_failed_command(bench, monkeypatch):
    commands = [Command(("table-errata",), check_errata),
                Command(("census", "--x", "bogus")),
                Command(("table-errata",))]
    monkeypatch.setitem(WORKLOADS, "constants-sweeps-sums", commands)
    bench.golden["table-errata"] = hashlib.sha256(b"not the report").hexdigest()
    outcomes, _ = bench.iteration(0, traced=False)
    # the usage error exits 2; both table-errata reports miss the digest
    assert [o.problem is not None for o in outcomes] == [True, True, True]
    assert (bench.attempted, bench.failed) == (3, 3)


def test_checks_reject_wrong_reports():
    census = "x,pi_g\n" + "".join(f"{10 ** (k + 2)},{n}\n" for k, n in
                                   enumerate([10, 37, 190, 1171, 7746, 56032, 423140]))
    assert check_census(census) is None
    assert check_census(census.replace("423140", "423141")) is not None
    errata = "p,match\n3,true\n673,false\n739,false\n"
    assert check_errata(errata) is None
    assert check_errata(errata.replace("3,true", "3,false")) is not None


def _spans(rows, extra=()):
    """Span arrays as tracer.py writes them, from (name, parent, start, end, rss0, rss1)."""
    names = sorted({r[0] for r in rows})
    return {
        "names": np.array(names),
        "name_id": np.array([names.index(r[0]) for r in rows], dtype=np.uint16),
        "parent": np.array([r[1] for r in rows], dtype=np.int64),
        "start": np.array([r[2] for r in rows], dtype=np.float64),
        "end": np.array([r[3] for r in rows], dtype=np.float64),
        "rss0_kb": np.array([r[4] for r in rows], dtype=np.int64),
        "rss1_kb": np.array([r[5] for r in rows], dtype=np.int64),
        "extra_id": np.array([i for i, _ in extra], dtype=np.int64),
        "extra": np.array([v for _, v in extra], dtype=np.float64),
    }


def test_self_time_on_nested_spans():
    # root [0,10] > a [1,4] > b [2,3];  root > c [5,9]
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    assert layers.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_layer_self_time_and_rss_across_boundaries():
    kb = 1024
    spans = _spans([
        ("cli.main", -1, 0.0, 10.0, 10 * kb, 90 * kb),
        ("counting.census", 0, 1.0, 9.0, 10 * kb, 90 * kb),
        # same layer as its parent: no rss reading
        ("counting.germain_pairs", 1, 2.0, 6.0, -1, -1),
        ("sieve.prime_flags", 2, 3.0, 5.0, 20 * kb, 70 * kb),
        ("counting._flags", 1, 6.0, 7.0, -1, -1),
        ("sieve.prime_flags", 4, 6.0, 6.5, 70 * kb, 75 * kb),
    ], extra=[(3, 1000.0), (5, 500.0)])
    tally = layers.Tally()
    tally.add(spans)
    m = {k: v["value"] for k, v in tally.metrics().items()}
    assert m["cli.self_s"] == 2.0
    assert m["counting.self_s"] == 8.0 - 2.0 - 0.5
    assert m["sieve.self_s"] == 2.5
    assert m["sieve.prime_flags.self_s"] == 2.5
    assert m["counting.germain_pairs.self_s"] == 2.0
    assert m["sieve.rss_step_mb"] == 55.0
    assert m["counting.rss_step_mb"] == 80.0 - 55.0
    assert m["cli.rss_step_mb"] == 0.0
    assert m["sieve.prime_flags.bytes"] == 1500
    assert (m["counting.dense_rebuilds"], m["counting.dense_requests"]) == (2, 1)


def test_tracer_patches_module_aliases(tmp_path):
    spans = tmp_path / "s.npz"
    done = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "tracer.py"), str(spans), "w", "7.0",
         "--", "table-errata"], env=run.child_env(), capture_output=True, timeout=60)
    assert done.returncode == 0
    with np.load(spans) as data:
        names = data["names"][data["name_id"]].tolist()
        parents = data["parent"]
        assert str(data["workload"]) == "w" and str(data["run_id"]) == "7.0"
    assert names[0] == "cli.main" and parents[0] == -1
    # primroot calls is_prime through its own module-level alias
    assert names.count("sieve.is_prime") == 28
    callers = {names[p] for n, p in zip(names, parents) if n == "sieve.is_prime"}
    assert callers == {"primroot.reproduce_pair_table"}


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.E2E_UNITS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in layers.METRICS.items()]


def test_every_unseeded_command_has_a_golden_digest(bench):
    keys = {c.key for commands in WORKLOADS.values() for c in commands if not c.seeded}
    assert keys == set(bench.golden)
