"""Per-layer metrics from the spans that tracer.py writes.

A span's self time is its duration minus the durations of its direct
children. Children are recorded on their parent's thread, one after the
other, so they never overlap and the subtraction is exact. A layer's self
time or self rss rise sums over the spans that enter the layer from
another one (its boundary spans), minus what boundary spans of other
layers called from inside it account for.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict

import numpy as np

LAYERS = ("sieve", "arith", "constants", "counting", "sums", "progressions",
          "primroot", "reports", "cli")

# (function span, its counters) reported as <span>.<counter>
FUNCTION_METRICS = (
    ("sieve.prime_flags", ("calls", "self_s")),
    ("sieve.primes_upto", ("self_s",)),
    ("sieve.primes_in", ("self_s",)),
    ("sieve.is_prime", ("calls", "self_s")),
    ("counting.germain_pairs", ("calls", "self_s")),
    ("counting.psi_g", ("self_s",)),
    ("counting.psi0", ("self_s",)),
    ("counting.hl_prediction", ("self_s",)),
    ("counting.psi0_partition", ("self_s",)),
    ("constants.twin_prime_constant", ("self_s",)),
    ("arith.factorize", ("calls", "self_s")),
    ("arith.divisors", ("calls",)),
    ("arith.totient", ("calls",)),
    ("arith.mobius_sieve", ("self_s",)),
    ("arith.totient_sieve", ("self_s",)),
    ("sums.gcd_via_phi", ("calls",)),
    ("sums.log_lcm_double_sum", ("self_s",)),
    ("sums.mobius_phi_lcm_sum", ("self_s",)),
    ("progressions.large_sieve_check", ("self_s",)),
    ("progressions.chebyshev_ap", ("self_s",)),
    ("primroot.theorem_4p1_check", ("calls", "self_s")),
    ("primroot.germain_short_test", ("calls", "self_s")),
    ("primroot.primitive_root_test", ("calls", "self_s")),
    ("primroot.germain_moduli_upto", ("calls", "self_s")),
    ("cli.run", ("self_s",)),
)

UNITS = {"calls": ("count", "lower"), "self_s": ("s", "lower")}

# name -> (unit, better) for every per-layer metric, in report order
METRICS: dict[str, tuple[str, str]] = {}
for _span, _counters in FUNCTION_METRICS:
    for _c in _counters:
        METRICS[f"{_span}.{_c}"] = UNITS[_c]
METRICS.update({
    "sieve.prime_flags.bytes": ("bytes_computed", "lower"),
    "sieve.primes_in.integers": ("count", "lower"),
    "counting.germain_pairs.pairs": ("count", "lower"),
    "counting.dense_rebuilds": ("count", "lower"),
    "counting.dense_requests": ("count", "lower"),
    "counting.dense_reuse_ratio": ("ratio", "higher"),
    "constants.integers_per_s": ("1/s", "higher"),
    "reports.render.self_s": ("s", "lower"),
    "reports.bytes": ("bytes", "lower"),
})
for _layer in LAYERS:
    METRICS[f"{_layer}.self_s"] = ("s", "lower")
for _layer in LAYERS:
    METRICS[f"{_layer}.rss_step_mb"] = ("MB", "lower")
METRICS["trace.overhead_s"] = ("s", "lower")


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered


def layer_self(values: np.ndarray, layer: np.ndarray, parent: np.ndarray,
               boundary: np.ndarray) -> np.ndarray:
    """Per-layer self share of an inclusive quantity measured on boundary spans.

    A boundary span's nearest boundary ancestor lies in its parent's layer
    (spans between the two share that layer), so its value is subtracted
    there. Returns one entry per layer id.
    """
    n_layers = len(LAYERS)
    own = np.bincount(layer[boundary], weights=values[boundary], minlength=n_layers)
    inner = boundary & (parent >= 0)
    parent_layer = layer[parent[inner]]
    return own - np.bincount(parent_layer, weights=values[inner], minlength=n_layers)


class Tally:
    """Per-layer metrics of one iteration's traced commands.

    Counts and times add up over the commands; an rss step is the largest
    any one command shows, as peak RSS is the largest over the commands.
    """

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.extra: dict[str, float] = defaultdict(float)
        self.layer_self_s = np.zeros(len(LAYERS))
        self.layer_rss_mb = np.zeros(len(LAYERS))
        self.dense_rebuilds = 0

    def add(self, spans) -> None:
        """Fold in the spans of one command (a mapping of tracer arrays)."""
        names = [str(n) for n in spans["names"]]
        name_id = spans["name_id"].astype(np.int64)
        parent = spans["parent"]
        start, end = spans["start"], spans["end"]
        if name_id.size == 0:
            return
        own = self_times(start, end, parent)
        calls = np.bincount(name_id, minlength=len(names))
        self_by_name = np.bincount(name_id, weights=own, minlength=len(names))
        incl_by_name = np.bincount(name_id, weights=end - start, minlength=len(names))
        extra_by_name = np.zeros(len(names))
        np.add.at(extra_by_name, name_id[spans["extra_id"]], spans["extra"])
        for k, name in enumerate(names):
            self.calls[name] += int(calls[k])
            self.self_s[name] += float(self_by_name[k])
            self.incl_s[name] += float(incl_by_name[k])
            self.extra[name] += float(extra_by_name[k])

        layer_of_name = np.array([LAYERS.index(n.split(".", 1)[0]) for n in names])
        layer = layer_of_name[name_id]
        root = parent < 0
        parent_layer = np.where(root, -1, layer[np.where(root, 0, parent)])
        boundary = layer != parent_layer
        self.layer_self_s += layer_self(end - start, layer, parent, boundary)
        rise_mb = (spans["rss1_kb"] - spans["rss0_kb"]) / 1024.0
        rss = layer_self(np.where(boundary, rise_mb, 0.0), layer, parent, boundary)
        self.layer_rss_mb = np.maximum(self.layer_rss_mb, rss)

        if "sieve.prime_flags" in names:
            flags = name_id == names.index("sieve.prime_flags")
            via = flags & ~root
            self.dense_rebuilds += int(
                (layer[parent[via]] == LAYERS.index("counting")).sum())

    def metrics(self) -> dict[str, dict]:
        """Every per-layer metric but trace.overhead_s, as {value, unit}."""
        out: dict[str, float] = {}
        for span, counters in FUNCTION_METRICS:
            for c in counters:
                out[f"{span}.{c}"] = self.calls[span] if c == "calls" else self.self_s[span]
        requests = self.calls["counting._flags"]
        tpc_s = self.incl_s["constants.twin_prime_constant"]
        out.update({
            "sieve.prime_flags.bytes": int(self.extra["sieve.prime_flags"]),
            "sieve.primes_in.integers": int(self.extra["sieve.primes_in"]),
            "counting.germain_pairs.pairs": int(self.extra["counting.germain_pairs"]),
            "counting.dense_rebuilds": self.dense_rebuilds,
            "counting.dense_requests": requests,
            # 0 when counting asked for no dense table at all
            "counting.dense_reuse_ratio":
                1.0 - self.dense_rebuilds / requests if requests else 0.0,
            "constants.integers_per_s":
                self.extra["constants.twin_prime_constant"] / tpc_s if tpc_s else 0.0,
            "reports.render.self_s":
                self.self_s["reports.render_csv"] + self.self_s["reports.render_json"],
            "reports.bytes":
                int(self.extra["reports.render_csv"] + self.extra["reports.render_json"]),
        })
        for k, layer in enumerate(LAYERS):
            out[f"{layer}.self_s"] = float(self.layer_self_s[k])
            out[f"{layer}.rss_step_mb"] = float(self.layer_rss_mb[k])
        return {name: {"value": out[name], "unit": unit}
                for name, (unit, _) in METRICS.items() if name in out}


def main(paths: list[str]) -> None:
    tally = Tally()
    for path in paths:
        with np.load(path) as spans:
            tally.add(spans)
    print(json.dumps(tally.metrics()))


if __name__ == "__main__":
    main(sys.argv[1:])
