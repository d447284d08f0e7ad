"""Run one germain-lab CLI command with a span around every public function.

    python3 perfbench/tracer.py SPANS.npz WORKLOAD RUN_ID -- <cli args>

The package is imported unchanged (from PYTHONPATH); this script replaces
each public function of the layer modules with a recording wrapper, in
every module namespace and module-level dict that holds it, so calls made
through aliases such as ``counting.prime_flags`` or ``sums.divisors`` are
traced too. Spans stay in memory and are written once, when the command
has finished. The report still goes to stdout and the exit status is the
CLI's own.
"""

from __future__ import annotations

import inspect
import resource
import sys
import threading
import time
from array import array

import numpy as np

from germain_lab import (arith, cli, constants, counting, primroot,
                         progressions, reports, sieve, sums)
import germain_lab

LAYERS = {
    "sieve": sieve, "arith": arith, "constants": constants,
    "counting": counting, "sums": sums, "progressions": progressions,
    "primroot": primroot, "reports": reports, "cli": cli,
}

# Private functions traced as well: every dense primality-table request in
# counting goes through _flags, which gives the base of the reuse ratio.
PRIVATE = {"counting._flags": counting._flags}


# Sizes recorded per span, from the call's result: table bytes computed from
# the array, integers sieved, pairs returned, report bytes and the
# Euler-product cutoff.
EXTRAS = {
    "sieve.prime_flags": lambda r: r.nbytes,
    "sieve.primes_in": lambda r: r.hi - r.lo + 1,
    "counting.germain_pairs": lambda r: len(r),
    "reports.render_csv": lambda r: len(r),
    "reports.render_json": lambda r: len(r),
    "constants.twin_prime_constant": lambda r: r.prime_cutoff,
}


# Spans per preallocated chunk. A chunk is written with zeros when it is
# made, so its pages are resident at once and the ru_maxrss rise this causes
# is measured and kept out of every layer's rss step.
CHUNK = 1 << 16
FIELDS = (("name_id", "H"), ("parent", "q"), ("start", "d"), ("end", "d"),
          ("rss0_kb", "q"), ("rss1_kb", "q"))


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Recorder:
    """Spans in flat arrays, one entry per wrapped call, in call order.

    The rss fields hold ru_maxrss minus what the span buffer itself raised
    it by, and are read only where a span's layer differs from its
    parent's (-1 elsewhere): a layer's self rise is the same either way,
    and the ~1 us getrusage is skipped on the many calls inside one layer.
    """

    def __init__(self):
        self.names: list[str] = []
        self.extra: dict[int, float] = {}
        self.chunks: list[tuple[array, ...]] = []
        self.charged_kb = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._new_chunk()

    def _new_chunk(self) -> None:
        before = _maxrss_kb()
        self.cur = tuple(array(code, bytes(array(code).itemsize * CHUNK))
                         for _, code in FIELDS)
        self.chunks.append(self.cur)
        self.pos = 0
        self.charged_kb += _maxrss_kb() - before

    def _reserve(self) -> tuple[tuple[array, ...], int, int]:
        with self._lock:
            if self.pos == CHUNK:
                self._new_chunk()
            j = self.pos
            self.pos = j + 1
            return self.cur, j, (len(self.chunks) - 1) * CHUNK + j

    def _rss_kb(self) -> int:
        return _maxrss_kb() - self.charged_kb

    def wrap(self, name: str, fn, extra=None):
        nid = len(self.names)
        self.names.append(name)
        layer_id = list(LAYERS).index(name.split(".", 1)[0])
        rec = self
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack = getattr(rec._local, "stack", None)
            if stack is None:
                stack = rec._local.stack = []
            parent, parent_layer = stack[-1] if stack else (-1, -1)
            chunk, j, i = rec._reserve()
            name_a, parent_a, start_a, end_a, rss0_a, rss1_a = chunk
            name_a[j] = nid
            parent_a[j] = parent
            boundary = layer_id != parent_layer
            rss0_a[j] = rss1_a[j] = -1
            if boundary:
                rss0_a[j] = rec._rss_kb()
            stack.append((i, layer_id))
            start_a[j] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end_a[j] = clock()
                stack.pop()
                if boundary:
                    rss1_a[j] = rec._rss_kb()
            if extra is not None:
                rec.extra[i] = extra(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def save(self, path: str, workload: str, run_id: str, argv: list[str]) -> None:
        n = (len(self.chunks) - 1) * CHUNK + self.pos
        fields = {}
        for k, (field, code) in enumerate(FIELDS):
            parts = [np.frombuffer(c[k], dtype=code) for c in self.chunks]
            fields[field] = np.concatenate(parts)[:n]
        ids = np.fromiter(self.extra.keys(), dtype=np.int64, count=len(self.extra))
        vals = np.fromiter(self.extra.values(), dtype=np.float64, count=len(self.extra))
        with open(path, "wb") as fh:
            np.savez(fh, workload=np.array(workload), run_id=np.array(run_id),
                     argv=np.array(argv), names=np.array(self.names),
                     extra_id=ids, extra=vals, **fields)


def public_functions():
    """(span name, function) for every public function a layer defines."""
    out = []
    for layer, mod in LAYERS.items():
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                out.append((f"{layer}.{attr}", obj))
    out.extend(PRIVATE.items())
    return out


def install(rec: Recorder) -> None:
    wrapped = {fn: rec.wrap(name, fn, EXTRAS.get(name))
               for name, fn in public_functions()}

    def swap(obj):
        return wrapped.get(obj, obj) if inspect.isfunction(obj) else obj

    for mod in (*LAYERS.values(), germain_lab):
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("__"):
                continue
            if inspect.isfunction(obj):
                setattr(mod, attr, swap(obj))
            elif isinstance(obj, dict):
                for key, value in obj.items():
                    obj[key] = swap(value)


def main(argv: list[str]) -> int:
    if len(argv) < 4 or argv[3] != "--":
        sys.stderr.write("usage: tracer.py SPANS WORKLOAD RUN_ID -- <cli args>\n")
        return 2
    path, workload, run_id, cli_args = argv[0], argv[1], argv[2], argv[4:]
    rec = Recorder()
    install(rec)
    try:
        return cli.main(cli_args)
    finally:
        rec.save(path, workload, run_id, cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
