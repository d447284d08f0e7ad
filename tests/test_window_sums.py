"""The pair sums stream the sieve's arrays through an exact slice reduction.

summation.PrefixSums is fed a stream of arrays of terms, of either sign,
each cut once per checkpoint, and gives each checkpoint the sum of every
term before its cuts; it must be the fsum of the whole prefix bit for bit,
whatever the arrays, wherever each is cut, and whatever its own chunks.
exact_sum must be fsum(t.tolist()) on both sides of the size below which
it sums the list itself. No reported bit may depend on the order of the
sieve's arrays, and every function that takes checkpoints refuses a bad
list before any work. derandomize=True makes Hypothesis draw the same
cases on every run.
"""

import math
import tracemalloc
from math import fsum
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from germain_lab import cli, constants, counting, progressions, sieve, summation, sums
from germain_lab.constants import twin_prime_constant
from germain_lab.counting import pair_sums, reciprocal_sums
from germain_lab.progressions import chebyshev_ap
from germain_lab.summation import PrefixSums, _slices, exact_sum

# zeros, doubles across 2^-40 .. 2^40, and ties: 1 + j 2^-52 is a half-ulp
# away from the rounding boundary of many of their sums
positive = st.one_of(
    st.just(0.0),
    st.builds(math.ldexp, st.floats(1.0, 2.0, exclude_max=True),
              st.integers(-40, 40)),
    st.builds(lambda j, e: math.ldexp(1.0 + j * 2.0 ** -52, e),
              st.integers(0, 7), st.integers(-40, 40)),
)
# either sign: cancellation leaves sums far below the terms
signed = st.builds(lambda t, negative: -t if negative else t,
                   positive, st.booleans())

# terms of one binade: their slices are all about as large as the window's
# top, so their sums come closest to the 53 bits a slice may carry
one_binade = st.builds(lambda ms, e: [math.ldexp(m, e) for m in ms],
                       st.lists(st.floats(1.0, 2.0, exclude_max=True), max_size=300),
                       st.integers(-40, 40))
signed_binade = st.builds(lambda t, signs: [-v if s else v for v, s in zip(t, signs)],
                          one_binade, st.lists(st.booleans(), min_size=300,
                                               max_size=300))


def _check_windows(t, edges, marks):
    """PrefixSums of the arrays t[lo:hi] gives fsum(t[:k]) at each mark k.

    Each array is cut where the mark falls in it: at 0 for a mark before
    the array, at its size for one after it.
    """
    stream = PrefixSums(len(marks))
    for lo, hi in zip(edges, edges[1:]):
        stream.add([np.array(t[lo:hi], dtype=np.float64)],
                   [min(max(k - lo, 0), hi - lo) for k in marks])
    assert stream.sums() == [fsum(t[:k]) for k in marks], marks
    assert exact_sum(np.array(t, dtype=np.float64)) == fsum(t)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(t=st.one_of(st.lists(positive, max_size=200), one_binade,
                   st.lists(signed, max_size=200), signed_binade),
       data=st.data())
def test_window_slices_give_the_prefix_fsum_at_every_cut(t, data):
    inner = data.draw(st.sets(st.integers(0, len(t)), max_size=4))
    edges = sorted(inner | {0, len(t)})
    # cuts at every array edge, and anywhere between
    _check_windows(t, edges, sorted(
        data.draw(st.sets(st.integers(0, len(t)), max_size=8)) | set(edges)))


@pytest.mark.parametrize("t", [
    [0.75 + 2.0 ** -51] * 7,  # the low bit of each term survives every slice
    # 255 terms allow 44-bit slices; 46-bit ones keep the 2^-45 and round
    [1.5 + 2.0 ** -45 + 2.0 ** -52] * 255,
    [2.0 ** 40 - 2.0 ** -12, 2.0 ** -40, 1.0 + 2.0 ** -52] * 50,
    [1.0 + j * 2.0 ** -52 for j in range(64)] + [0.0, 2.0 ** -40],
    [0.0] * 5,
    [],
    # signed: the sums cancel to a few low bits, or to exactly 0
    [1.0, -1.0 + 2.0 ** -52, 2.0 ** 40, -(2.0 ** 40), 2.0 ** -40] * 9,
    [2.0 ** 30 + 1.0, -(2.0 ** 30), -1.0, 2.0 ** -30] * 40,
    [-0.75 - 2.0 ** -51] * 7 + [0.75 + 2.0 ** -51] * 6,
    [-1.5 - 2.0 ** -45 - 2.0 ** -52] * 255,
    # the ends of the admitted range
    [2.0 ** 900, 2.0 ** -1000, -(2.0 ** 900), 3.0 * 2.0 ** -1000],
])
def test_window_slices_hold_every_bit(t):
    _check_windows(t, [0, len(t)], list(range(len(t) + 1)))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(t=st.one_of(st.lists(signed, max_size=200), signed_binade,
                   st.lists(st.sampled_from([0.0, -0.0]), max_size=20)),
       data=st.data())
def test_prefix_sums_give_the_prefix_fsum_at_every_cut(t, data):
    # the stream's arrays, empty ones among them, and PrefixSums' own chunks
    # of 1 to 8 terms; cuts at 0, on every chunk edge, anywhere, repeated
    chunk = data.draw(st.integers(1, 8))
    edges = sorted(data.draw(st.lists(st.integers(0, len(t)), max_size=5))
                   + [0, 0, len(t)])
    chunk_edges = [k for lo, hi in zip(edges, edges[1:])
                   for k in range(lo, hi + 1, chunk)]
    with mock.patch.object(summation, "_CHUNK", chunk):
        _check_windows(t, edges, sorted(
            data.draw(st.lists(st.integers(0, len(t)), max_size=8))
            + chunk_edges + [len(t)]))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(windows=st.lists(st.lists(st.lists(signed, max_size=40), max_size=4),
                        max_size=4),
       checkpoints=st.integers(0, 3), data=st.data())
def test_windows_of_several_arrays_give_each_checkpoint_its_prefix_fsum(
        windows, checkpoints, data):
    # a window is several arrays, as a sieve window is one array per class,
    # and the stream is every window's arrays in turn; each checkpoint cuts
    # each array at its own place, so its sum is that of every array up to
    # its cut, whatever the window
    chunk = data.draw(st.integers(1, 8))
    arrays = [t for window in windows for t in window]
    cuts_of = [sorted(data.draw(st.lists(st.integers(0, len(t)),
                                         min_size=checkpoints,
                                         max_size=checkpoints)))
               for t in arrays]
    stream = PrefixSums(checkpoints)
    with mock.patch.object(summation, "_CHUNK", chunk):
        for t, cuts in zip(arrays, cuts_of):
            stream.add([np.array(t, dtype=np.float64)], cuts)
        sums = stream.sums()
    assert sums == [fsum([v for t, cuts in zip(arrays, cuts_of)
                          for v in t[:cuts[j]]])
                    for j in range(checkpoints)]


def test_prefix_sums_cut_at_every_index(monkeypatch):
    # a checkpoint at every index 0..300 of one array: each interval after
    # the first holds one term, and the 7-term chunks split none of them
    rng = np.random.default_rng(7)
    t = np.ldexp(rng.random(300) + 1.0, rng.integers(-40, 40, 300))
    t *= rng.choice([-1.0, 1.0], 300)
    monkeypatch.setattr(summation, "_CHUNK", 7)
    stream = PrefixSums(t.size + 1)
    stream.add([t], list(range(t.size + 1)))
    assert stream.sums() == [fsum(t[:k].tolist()) for k in range(t.size + 1)]


def test_prefix_sums_of_groups_run_over_their_own_group_only(monkeypatch):
    # 40 groups of 3 checkpoints over two arrays, each group a run of the
    # arrays that ends at its last cut: a sum restarts with its group, and
    # 7-term chunks put chunk edges inside groups and intervals
    rng = np.random.default_rng(11)
    arrays = [np.ldexp(rng.random(size) + 1.0, rng.integers(-40, 40, size))
              * rng.choice([-1.0, 1.0], size) for size in (300, 41)]
    monkeypatch.setattr(summation, "_CHUNK", 7)
    stream, expected = PrefixSums(3, 40), [[] for _ in range(40 * 3)]
    for t in arrays:
        cuts = np.sort(rng.integers(0, t.size + 1, 40 * 3)).tolist()
        stream.add([t], cuts)
        for i, k in enumerate(cuts):
            start = cuts[i - i % 3 - 1] if i >= 3 else 0
            expected[i] += t[start:k].tolist()
    assert stream.sums() == [fsum(terms) for terms in expected]


def test_prefix_sums_take_one_array_per_group_at_one_set_of_cuts(monkeypatch):
    # three arrays as the groups of one stream, added slice by slice at one
    # set of cuts, give each group the sums of its array alone; 7-term chunks
    # put chunk edges inside intervals
    rng = np.random.default_rng(13)
    monkeypatch.setattr(summation, "_CHUNK", 7)
    stream, alone = PrefixSums(4, 3), [PrefixSums(4) for _ in range(3)]
    for size in (300, 0, 41):
        ts = [np.ldexp(rng.random(size) + 1.0, rng.integers(-40, 40, size))
              * rng.choice([-1.0, 1.0], size) for _ in range(3)]
        cuts = np.sort(rng.integers(0, size + 1, 4))
        stream.add(ts, cuts)
        for group, t in zip(alone, ts):
            group.add([t], cuts)
    assert stream.sums() == [v for group in alone for v in group.sums()]
    keys = np.arange(10, dtype=np.int64)
    assert summation.sums_upto(keys, [np.ones(10), np.full(10, 0.5)], [3, 9]) == [
        4.0, 10.0, 2.0, 5.0]


def test_prefix_sums_refuse_arrays_of_unequal_size():
    with pytest.raises(ValueError,
                       match=r"arrays of sizes \[5, 4\] share one set of cuts"):
        PrefixSums(2, 2).add([np.ones(5), np.ones(4)], [1, 2])


@pytest.mark.parametrize("cuts", [[3, 2], [-1, 2], [2, 6]])
def test_prefix_sums_refuse_cuts_out_of_order_or_range(cuts):
    with pytest.raises(ValueError, match=r"cuts must ascend within \[0, 5\]"):
        PrefixSums(2).add([np.ones(5)], cuts)


def test_prefix_sums_refuse_a_cut_count_other_than_their_checkpoints():
    stream = PrefixSums(2)
    stream.add([np.ones(5)], [1, 2])
    for cuts in ([3], [1, 2, 3]):
        with pytest.raises(ValueError,
                           match=f"{len(cuts)} cuts for 2 checkpoints"):
            stream.add([np.ones(5)], cuts)
    stream.add([np.ones(5)], [3, 4])
    assert stream.sums() == [4.0, 6.0]


@pytest.mark.parametrize("size", [0, 1, summation._SMALL, summation._SMALL + 1,
                                  3 * summation._SMALL])
def test_exact_sum_is_the_list_fsum_on_both_sides_of_the_small_size(size):
    rng = np.random.default_rng(size)
    t = np.ldexp(rng.random(size) + 1.0, rng.integers(-40, 40, size))
    t *= rng.choice([-1.0, 1.0], size)
    sliced = []
    with mock.patch.object(summation, "_slices",
                           lambda *args: sliced.append(1) or _slices(*args)):
        assert exact_sum(t) == fsum(t.tolist())
    assert bool(sliced) == (size > summation._SMALL)


def test_exact_sum_in_chunks(monkeypatch):
    cases = [[1.0, -1.0 + 2.0 ** -52, 2.0 ** 40, -(2.0 ** 40), 2.0 ** -40] * 9,
             [1.5 + 2.0 ** -45 + 2.0 ** -52] * 255,
             [math.ldexp(1.0 + j * 2.0 ** -52, j % 80 - 40) * (-1) ** j
              for j in range(1000)]]
    monkeypatch.setattr(summation, "_SMALL", 0)  # every case is sliced
    for chunk in (1, 2, 7, 1 << 16):
        monkeypatch.setattr(summation, "_CHUNK", chunk)
        for t in cases:
            assert exact_sum(np.array(t)) == fsum(t)
    assert exact_sum(np.zeros(0)) == 0.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, 2.0 ** 901,
                                 -(2.0 ** 901), 2.0 ** -1001, -5e-324])
def test_terms_outside_the_slice_range_are_refused(bad):
    # on both sides of the small size, and by the stream
    for t in ([1.0, bad, 0.0], [bad], [1.0] * summation._SMALL + [bad]):
        with pytest.raises(ValueError, match="terms must be finite"):
            exact_sum(np.array(t))
        with pytest.raises(ValueError, match="terms must be finite"):
            PrefixSums(1).add([np.array(t)], [len(t)])


XS = [2, 3, 29, 30, 31, 209, 210, 211, 1109, 1110, 1111, 3000, 7679, 7680, 7681,
      7769, 7770, 7771, 10 ** 4]


@pytest.mark.parametrize("window", [1, 37, 256])
@pytest.mark.parametrize("a,b", [(2, 1), (4, 3), (2, -1), (1, -29)])
def test_pair_sums_equal_the_prefix_fsums(window, a, b, monkeypatch):
    # the checkpoints sit on and beside window edges: W * window * k, on the
    # pair sieve's wheel W = 210 for each of these forms, and on 30
    monkeypatch.setattr(sieve, "PAIR_WINDOW", window)
    assert pair_sums(XS, a, b) == oracles.pair_sums_prefix(XS, a, b)


def test_pair_sums_add_once_per_slice_of_the_pass_and_per_prime_power_group(
        monkeypatch):
    # psi_g's and psi0's terms of a slice are the two groups of one stream,
    # added together: 31 slices of the pass over the default grid (the
    # first array, then two slices for each of the 15 classes mod 210, each
    # of about 28k pairs), and one add per group of prime powers and
    # companions, where a stream per sum took 72 adds
    calls, add = [], PrefixSums.add
    monkeypatch.setattr(PrefixSums, "add", lambda self, ts, cuts:
                        calls.append(len(ts)) or add(self, ts, cuts))
    pair_sums(cli.DEFAULT_TREND_GRID)
    assert len(calls) == 33
    assert set(calls) == {2}


@pytest.mark.parametrize("window", [1, 37, 256])
def test_reciprocal_sums_equal_the_prefix_fsums(window, monkeypatch, c2_1e6):
    monkeypatch.setattr(sieve, "PAIR_WINDOW", window)
    assert reciprocal_sums(XS, lambda: c2_1e6) == \
        oracles.reciprocal_sums_prefix(XS, c2_1e6.value)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(window=st.sampled_from([1, 2, 5, 37]), a=st.integers(1, 6),
       b=st.integers(-7, 7), data=st.data())
def test_class_windows_reduce_to_the_merged_prefix_fsums(window, a, b, data, c2_1e6):
    # checkpoints inside, at and across the window edges W * window * k, on
    # the pair sieve's wheel W, and anywhere between, where they cut each
    # class array at its own place
    wheel = sieve._wheel([(1, 0), (a, b)])[0]
    edges = st.builds(lambda k, d: max(1, wheel * window * k + d),
                      st.integers(0, 4), st.integers(-wheel - 1, wheel + 1))
    xs = sorted(data.draw(st.sets(st.one_of(edges, st.integers(1, 150 * window)),
                                  min_size=1, max_size=6)))
    ys = [x for x in xs if x >= 2]  # the reciprocal sums start at 2
    with mock.patch.object(sieve, "PAIR_WINDOW", window):
        assert pair_sums(xs, a, b) == oracles.pair_sums_prefix(xs, a, b)
        if ys:
            assert reciprocal_sums(ys, lambda: c2_1e6) == \
                oracles.reciprocal_sums_prefix(ys, c2_1e6.value)


@pytest.mark.parametrize("a,b", [(2, 1), (4, 3)])
def test_a_few_hundred_checkpoints_equal_the_prefix_fsums(a, b, monkeypatch,
                                                          c2_1e6):
    # below 10^5 the pass is one window, one array per class, so most of the
    # checkpoints cut inside each array: at a pair, just below one and
    # anywhere; 7-term chunks put chunk edges inside many of the intervals
    pairs = sieve.pair_primes(10 ** 5, a, b)
    rng = np.random.default_rng(a)
    xs = sorted({*rng.choice(pairs, 100).tolist(),
                 *(rng.choice(pairs, 100) - 1).tolist(),
                 *rng.integers(2, 10 ** 5, 150).tolist(), 10 ** 5} - {1})
    assert len(xs) > 300 and pairs.size > 3 * len(xs)
    monkeypatch.setattr(summation, "_CHUNK", 7)
    assert pair_sums(xs, a, b) == oracles.pair_sums_prefix(xs, a, b)
    if (a, b) == (2, 1):
        assert reciprocal_sums(xs, lambda: c2_1e6) == \
            oracles.reciprocal_sums_prefix(xs, c2_1e6.value)


@pytest.mark.parametrize("a,b", [(2, 1), (4, 3), (2, -1)])
def test_every_prime_power_edge_below_1e5_equals_the_prefix_fsums(a, b):
    # the two prime-power groups are each one array cut at every checkpoint:
    # cut at, just below and just above each n = p^k, and each n with
    # a*n + b = q^k, k >= 2, their sums must be the oracle's fsums of n <= x
    top = 10 ** 5
    powers = [n for n, _ in sieve.prime_powers(a * top + b)]
    ns = [n for n in powers if n <= top]
    ns += [(m - b) // a for m in powers if (m - b) % a == 0]
    xs = sorted({x for n in ns for x in (n - 1, n, n + 1) if 2 <= x <= top})
    assert len(xs) > 300
    assert pair_sums(xs, a, b) == oracles.pair_sums_prefix(xs, a, b)


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_pair_sums_hold_one_window_whatever_the_pair_count(monkeypatch, c2_1e6):
    # a window of the 3 classes the (2, 1) pass sieves, as int64 entries;
    # the whole-array sums peaked at 7x this at 10^7
    monkeypatch.setattr(sieve, "PAIR_WINDOW", 1 << 12)
    window_bytes = 3 * sieve.PAIR_WINDOW * 8
    for x in (10 ** 6, 10 ** 7):  # 7,746 and 56,032 pairs
        assert _peak_bytes(lambda: pair_sums([x])) < 4 * window_bytes
        assert _peak_bytes(lambda: reciprocal_sums([x], lambda: c2_1e6)) \
            < 4 * window_bytes


def test_pair_sums_hold_one_class_window_at_1e8():
    # the flags of one class window take PAIR_WINDOW bytes, and the 423,140
    # pairs below 10^8 take 3.4 MB as one float64 array: the pass holds the
    # one, a class window's pairs and one chunk's terms, never an array over
    # a merged window or over every pair (merging each window's classes
    # peaked at 6.9 MB, and the terms of a whole class window at 2.4 MB)
    pair_sums([100])  # numpy's lazy set-up is not the pass's
    peak = _peak_bytes(lambda: pair_sums([10 ** 8]))
    assert peak < 2 * sieve.PAIR_WINDOW < 8 * 423_140


def _window_bytes(limit, chunks):
    """The largest prime window to limit, as one class window's flags and
    the int64 primes of the largest array, and chunks float64 slices of
    summation.chunks, in bytes."""
    entries = min(max(1, sieve.PAIR_WINDOW // 2), limit // 30 + 1)
    primes = max(w.size for w in sieve.prime_windows(limit))
    return entries + 8 * primes + chunks * 8 * summation._CHUNK


@pytest.mark.parametrize("cutoff", [10 ** 6, 10 ** 8])
def test_c2_holds_one_window_and_a_few_chunks(cutoff):
    # a window's flags and primes, and its terms one chunk at a time; a
    # float64 array of a whole window's terms peaked at 2.3 MB at 10^6 and
    # 3.6 MB at 10^8
    twin_prime_constant(100)  # numpy's lazy set-up is not the product's
    peak = _peak_bytes(lambda: twin_prime_constant(cutoff))
    assert peak < _window_bytes(cutoff, 2)


@pytest.mark.parametrize("x", [10 ** 6, 4 * 10 ** 6])
def test_chebyshev_holds_one_window_not_every_prime(x):
    # pi(4e6) = 283,146 primes; the table of every prime, sorted by class
    # with its keys and logs, peaked at 6.9 MB at 4e6. A slice's class keys,
    # its order and its sorted terms are alive while PrefixSums slices the
    # terms: five chunks in all
    chebyshev_ap([100], 12)
    peak = _peak_bytes(lambda: chebyshev_ap([x // 2, x], 12))
    assert peak < _window_bytes(x, 5)


def _edges(arrays, every, least):
    """The checkpoints at, below and above the entry before every so many
    entries of each array, and its last, from least on."""
    return sorted({int(t[i - 1]) + d for t in arrays
                   for i in [*range(every, t.size, every), t.size] if i
                   for d in (-1, 0, 1)} - set(range(least)))


def _slice_sizes(monkeypatch, module):
    """The size of each slice whose terms module computes by add_terms."""
    sizes, add_terms = [], summation.add_terms
    monkeypatch.setattr(module, "add_terms", lambda stream, keys, terms, cuts: add_terms(
        stream, keys, lambda piece: sizes.append(piece.size) or terms(piece), cuts))
    return sizes


@pytest.mark.parametrize("chunk,every", [(1, 64), (7, 35), (64, 64)])
def test_c2_in_small_chunks_is_the_product_of_the_window_fsums(chunk, every,
                                                              monkeypatch):
    # cutoffs at the edge of every so many chunks of each class's array up to
    # the end of the first two intervals of a grid of step 2^11: each
    # interval's partial is still its terms' fsum
    monkeypatch.setattr(constants, "_C2_STEP", 1 << 11)
    monkeypatch.setattr(summation, "_CHUNK", chunk)
    sizes = _slice_sizes(monkeypatch, constants)
    for cutoff in _edges(sieve.prime_windows(2 * constants._C2_STEP), every, 3):
        want = oracles.twin_prime_window_partials(cutoff, constants._C2_STEP)
        assert twin_prime_constant(cutoff).value == math.exp(fsum(want)), cutoff
    assert sizes and max(sizes) <= chunk


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("a,b", [(2, 1), (4, 3), (2, -1)])
def test_pair_sums_in_small_chunks_equal_the_prefix_fsums(chunk, a, b,
                                                          monkeypatch):
    monkeypatch.setattr(sieve, "PAIR_WINDOW", 37)
    monkeypatch.setattr(summation, "_CHUNK", chunk)
    xs = _edges(sieve.pair_windows(10 ** 4, a, b), chunk, 2)
    sizes = _slice_sizes(monkeypatch, counting)
    assert pair_sums(xs, a, b) == oracles.pair_sums_prefix(xs, a, b)
    assert sizes and max(sizes) <= chunk


@pytest.mark.parametrize("chunk,top", [(1, 600), (7, 3000)])
@pytest.mark.parametrize("q", [1, 5])
def test_chebyshev_in_small_chunks_equals_the_class_fsums(chunk, top, q,
                                                          monkeypatch):
    # the class windows of 2^7 entries are cut into chunks, and so are the
    # prime powers; each class's value is the fsum of its np.log prime
    # terms and prime-power weights up to x
    monkeypatch.setattr(sieve, "PAIR_WINDOW", 1 << 8)
    monkeypatch.setattr(summation, "_CHUNK", chunk)
    primes = sieve.primes_upto(top)
    powers = sieve.prime_powers(top)
    xs = [x for x in _edges([primes[:1], *sieve.prime_windows(top),
                             np.array([n for n, _ in powers])], chunk, 1) if x <= top]
    terms = [*zip(primes.tolist(), np.log(primes.astype(np.float64)).tolist()), *powers]
    sizes, add = [], PrefixSums.add
    monkeypatch.setattr(PrefixSums, "add",
                        lambda self, ts, cuts: sizes.extend(t.size for t in ts)
                        or add(self, ts, cuts))
    assert [r.value for r in chebyshev_ap(xs, q)] == [
        fsum(w for n, w in terms if n <= x and n % q == a) for x in xs for a in range(q)]
    assert max(sizes) <= chunk


def _order_free_results(c2):
    """The results whose bits must not depend on the order of the sieve's arrays."""
    grid = [10 ** k for k in range(2, 8)]
    return [pair_sums(grid, 2, 1), pair_sums(grid, 4, 3),
            reciprocal_sums(grid, lambda: c2), twin_prime_constant(10 ** 7),
            chebyshev_ap([10 ** 5, 10 ** 6], 12), sieve.prime_powers(10 ** 6, 2, 1),
            sieve.primes_upto(10 ** 6).tolist(), sieve.pair_primes(10 ** 6).tolist()]


def test_no_reported_bit_depends_on_the_order_of_the_arrays(monkeypatch, c2_1e6):
    # the sieve yields its arrays class by class; each sum is correctly
    # rounded and each list is sorted, so the same arrays in reverse give
    # the same bits, as windows shared out to workers would in any order
    want = repr(_order_free_results(c2_1e6))

    def reversed_stream(stream):
        return lambda *args: iter(list(stream(*args))[::-1])

    for module, name in ((sieve, "prime_windows"), (sieve, "pair_windows"),
                         (counting, "pair_windows"), (progressions, "prime_windows")):
        monkeypatch.setattr(module, name, reversed_stream(getattr(module, name)))
    assert repr(_order_free_results(c2_1e6)) == want


def _refuse_every_table(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    for module, name in ((sieve, "prime_windows"), (sieve, "pair_windows"),
                         (counting, "pair_windows"), (progressions, "prime_windows"),
                         (progressions, "prime_powers"), (sums, "mobius_sieve"),
                         (sums, "totient_sieve")):
        monkeypatch.setattr(module, name, no_work)
    return no_work


# each function that takes checkpoints: the least x it admits, and a call
# on the checkpoints xs with make_c2 where it takes one
_CHECKPOINT_CALLS = {
    "pair_sums": (1, lambda xs, make_c2: pair_sums(xs)),
    "census": (2, lambda xs, make_c2: counting.census(xs, 2, 1, make_c2)),
    "reciprocal_sums": (2, reciprocal_sums),
    "chebyshev_ap": (1, lambda xs, make_c2: chebyshev_ap(xs, 3)),
    "squarefree_harmonic_sums": (1, lambda xs, make_c2:
                                 sums.squarefree_harmonic_sums(xs)),
    "mobius_log_sums": (1, lambda xs, make_c2: sums.mobius_log_sums(xs)),
    "twisted_mobius_sums": (1, lambda xs, make_c2:
                            sums.twisted_mobius_sums(6, xs, True, make_c2)),
    "sums_upto": (1, lambda xs, make_c2:
                  summation.sums_upto(np.arange(5, dtype=np.int64), [np.ones(5)], xs)),
}


@pytest.mark.parametrize("name", _CHECKPOINT_CALLS)
@pytest.mark.parametrize("xs", [[10, 10], [100, 10]])
def test_checkpoints_not_strictly_ascending_are_refused_before_any_work(
        name, xs, monkeypatch):
    call = _CHECKPOINT_CALLS[name][1]
    no_work = _refuse_every_table(monkeypatch)
    with pytest.raises(ValueError, match=rf"^checkpoints must be strictly ascending: "
                                         rf"\[{xs[0]}, {xs[1]}\]$"):
        call(xs, no_work)


@pytest.mark.parametrize("name", _CHECKPOINT_CALLS)
def test_checkpoints_below_the_least_are_refused_before_any_work(name, monkeypatch):
    least, call = _CHECKPOINT_CALLS[name]
    no_work = _refuse_every_table(monkeypatch)
    # the least x is checked first, before the order
    with pytest.raises(ValueError, match=rf"^x must be >= {least}, got {least - 1}$"):
        call([100, least - 1], no_work)
