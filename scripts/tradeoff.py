#!/usr/bin/env python3
"""Both compressed indexes' time/space trade-off across n and epsilon.

LCP and LCE queries need Omega(log n / log log n) time in O(delta polylog n)
space, and widening a pairing grammar of height h by k = ceil(epsilon *
log2 log2 n) levels is where csq meets that bound: the widened height is
at most ceil(h/k) + 1, and each rule has at most l = 2 * 2^k symbols.  The
inverse-LF index keeps two integers per BWT run.  At each ladder step
N = 10^3, 10^4, ... up to --max-n, each family gives one text: random
(sigma = 4), period 8 with N // 1024 seeded edits, a Fibonacci or
Thue-Morse prefix, all of n = N, or a gadget kind's text from one seeded
input of the largest size whose longest text fits in N.  For each text
and epsilon in 0.25, 0.5, 0.75 and 0.99, a row prints n, k, l, the
pairing and widened heights, the ceil(h/k) + 1 bound, both grammar
sizes, the integers the grammar index keeps, its build ms and the median
time of one lcp_rmq and one lce_query over --queries seeded calls; the
text's r, the integers its inverse-LF index keeps, that index's build ms
and the median time of one ilf_query over --queries seeded positions;
log2 n / log2 log2 n; and the paper's space yardstick: the substring
complexity delta, dlog = delta * log2(n / delta), and each index's
integers per dlog.  Each text is sorted once: delta and both indexes read
its held bundle, which for a gadget kind is the one build_gadget sorted.
The index objects keep no counters, so no per-query level count is
printed; the widened height bounds the levels a descent visits.
"""

import argparse
import bisect
import math
import os
import random
import statistics
import sys
import time

from csq.gadgets import KINDS, TEXT_LENGTH_BUDGET, build_gadget, longest_text, random_input
from csq.grammar_lcp_rmq import build_lcp_rmq_index, lce_query, lcp_rmq
from csq.measures import substring_complexity
from csq.rlbwt_ilf import build_ilf_index, ilf_query
from csq.text_core import SuffixArrayBundle, Text, build_bundle

EPSILONS = (0.25, 0.5, 0.75, 0.99)
FAMILIES = ("random", "repetitive", "fibonacci", "thue-morse", *KINDS)
SMALLEST_N = 1000
# The most seeded calls one cell draws and keeps per query kind.
QUERIES_MAX = 10**6


def gadget_size(kind: str, n: int) -> int:
    """The largest size whose longest gadget text of the kind fits in n
    symbols, found by doubling and then bisecting."""
    top = 1
    while longest_text(kind, top) <= n:
        top *= 2
    return bisect.bisect_right(range(1, top), n, key=lambda size: longest_text(kind, size))


def make_bundle(family: str, n: int, rng: random.Random) -> SuffixArrayBundle:
    """The sorted bundle of a random (sigma = 4) or repetitive (period 8 with
    seeded edits) text, a Fibonacci or Thue-Morse prefix, or the one that
    build_gadget sorts for a gadget kind's seeded input of gadget_size(kind, n)."""
    if family in KINDS:
        return build_gadget(family, random_input(family, gadget_size(family, n), rng)).bundle
    if family == "random":
        return build_bundle(Text.from_symbols([rng.randrange(4) for _ in range(n)], 4))
    if family == "repetitive":  # runs stay near-constant in n
        symbols = [0] * n
        for i in range(7, n, 8):
            symbols[i] = 1
        for _ in range(max(1, n // 1024)):
            symbols[rng.randrange(n)] = rng.randrange(4)
        return build_bundle(Text.from_symbols(symbols, 4))
    if family == "fibonacci":  # f1 = 0, f2 = 01, fk = f(k-1) f(k-2)
        shorter, word = [0], [0, 1]
        while len(word) < n:
            shorter, word = word, word + shorter
        return build_bundle(Text.from_symbols(word[:n], 2))
    return build_bundle(Text.from_symbols([bin(i).count("1") & 1 for i in range(n)], 2))  # Thue-Morse


def median_us(call, args: list[tuple[int, ...]]) -> float:
    """Median wall time of one call, in microseconds."""
    times = []
    for a in args:
        t0 = time.perf_counter()
        call(*a)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=10**5,
                        help=f"largest text length ({SMALLEST_N} to {TEXT_LENGTH_BUDGET})")
    parser.add_argument("--queries", type=int, default=1000,
                        help=f"timed calls per query kind and cell (1 to {QUERIES_MAX})")
    args = parser.parse_args()
    for flag, value, least, most in (("--max-n", args.max_n, SMALLEST_N, TEXT_LENGTH_BUDGET),
                                     ("--queries", args.queries, 1, QUERIES_MAX)):
        if value < least:
            parser.error(f"{flag} must be at least {least}")
        if value > most:
            parser.error(f"{flag} must be at most {most}")

    print(
        f"{'family':>11} {'n':>7} {'eps':>4} {'k':>2} {'l':>3} {'slp_h':>5} {'height':>6} "
        f"{'bound':>5} {'slp_size':>8} {'size':>7} {'stored':>8} {'build_ms':>8} {'rmq_us':>7} "
        f"{'lce_us':>7} {'r':>6} {'ilf_ints':>8} {'ilf_ms':>7} {'ilf_us':>6} {'lg/lglg':>7} "
        f"{'delta':>9} {'dlog':>9} {'ilf/dl':>7} {'lcp/dl':>8}"
    )
    for family in FAMILIES:
        step = SMALLEST_N
        while step <= args.max_n:
            rng = random.Random(f"{family}:{step}")
            bundle = make_bundle(family, step, rng)  # held, so delta and every index read one sort
            text = bundle.text
            n = text.n
            ranges = [(b, rng.randint(b + 1, n)) for b in (rng.randrange(n) for _ in range(args.queries))]
            pairs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(args.queries)]
            positions = [(rng.randint(1, n),) for _ in range(args.queries)]
            scale = math.log2(n) / math.log2(math.log2(n))
            delta = substring_complexity(text).value  # derives LCP, so no build ms times Kasai's pass
            dlog = delta * math.log2(n / delta)
            t0 = time.perf_counter()
            ilf = build_ilf_index(text)
            ilf_ms = (time.perf_counter() - t0) * 1e3
            ilf_us = median_us(lambda i: ilf_query(ilf, i), positions)
            for epsilon in EPSILONS:
                t0 = time.perf_counter()
                index = build_lcp_rmq_index(text, epsilon)
                build_ms = (time.perf_counter() - t0) * 1e3
                k, h = index.k_widen, index.slp_height
                rmq_us = median_us(lambda b, e: lcp_rmq(index, b, e), ranges)
                lce_us = median_us(lambda i, j: lce_query(index, i, j), pairs)
                print(
                    f"{family:>11} {n:>7} {epsilon:>4} {k:>2} {index.ell:>3} {h:>5} "
                    f"{index.height:>6} {-(-h // k) + 1:>5} {index.slp_size:>8} {index.size:>7} "
                    f"{index.stored_integers:>8} {build_ms:>8.2f} {rmq_us:>7.2f} {lce_us:>7.2f} "
                    f"{ilf.r_original:>6} {ilf.stored_integers:>8} {ilf_ms:>7.2f} {ilf_us:>6.2f} "
                    f"{scale:>7.2f} {float(delta):>9.2f} {dlog:>9.1f} "
                    f"{ilf.stored_integers / dlog:>7.1f} {index.stored_integers / dlog:>8.1f}"
                )
            del bundle
            step *= 10
    return 0


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early (say, `| head -1`): stop quietly, and point
        # stdout at the null device so that the flush at exit does not fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = 0
    raise SystemExit(code)
