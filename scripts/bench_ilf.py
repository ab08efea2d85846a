#!/usr/bin/env python3
"""Growth experiment for the run-boundary inverse-LF index.

For texts of growing length -- uniform random and highly repetitive --
this reports run counts, the integers the index retains, and median
build/query times over warmed repetitions.  The point of the table:
retained integers track the run count r, not the text length n, so the
repetitive family stays flat while the random family grows.
"""

import argparse
import os
import random
import statistics
import sys
import time

from csq.gadgets import TEXT_LENGTH_BUDGET
from csq.rlbwt_ilf import build_ilf_index, ilf_query
from csq.text_core import Text


# The most query positions one repetition draws and keeps.
BATCH_MAX = 10**6


def make_text(family: str, n: int, rng: random.Random) -> Text:
    if family == "random":
        return Text.from_symbols([rng.randrange(4) for _ in range(n)], 4)
    # Periodic base with a few seeded edits: runs stay near-constant in n.
    symbols = [0] * n
    for i in range(7, n, 8):
        symbols[i] = 1
    for _ in range(max(1, n // 1024)):
        symbols[rng.randrange(n)] = rng.randrange(4)
    return Text.from_symbols(symbols, 4)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-n", type=int, default=16384,
                        help=f"largest text length (1024 to {TEXT_LENGTH_BUDGET})")
    parser.add_argument("--repeat", type=int, default=3, help="timed repetitions (at least 1)")
    parser.add_argument("--batch", type=int, default=2000,
                        help=f"queries per repetition (1 to {BATCH_MAX})")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    for flag, value, least in (("--max-n", args.max_n, 1024), ("--repeat", args.repeat, 1),
                               ("--batch", args.batch, 1)):
        if value < least:
            parser.error(f"{flag} must be at least {least}")
    for flag, value, most in (("--max-n", args.max_n, TEXT_LENGTH_BUDGET),
                              ("--batch", args.batch, BATCH_MAX)):
        if value > most:
            parser.error(f"{flag} must be at most {most}")

    print(
        f"{'family':>10} {'n':>8} {'r':>6} {'r_shift':>8} "
        f"{'stored':>8} {'build_ms':>9} {'query_us':>9}"
    )
    for family in ("random", "repetitive"):
        n = 1024
        while n <= args.max_n:
            rng = random.Random(f"{args.seed}:{family}:{n}")
            text = make_text(family, n, rng)
            index = build_ilf_index(text)  # warm-up
            build_times = []
            for _ in range(args.repeat):
                t0 = time.perf_counter()
                index = build_ilf_index(text)
                build_times.append((time.perf_counter() - t0) * 1e3)
            queries = [rng.randint(1, n) for _ in range(args.batch)]
            for i in queries:  # warm-up
                ilf_query(index, i)
            query_times = []
            for _ in range(args.repeat):
                t0 = time.perf_counter()
                for i in queries:
                    ilf_query(index, i)
                query_times.append((time.perf_counter() - t0) * 1e6 / len(queries))
            print(
                f"{family:>10} {n:>8} {index.r_original:>6} {index.r_shifted:>8} "
                f"{index.stored_integers:>8} "
                f"{statistics.median(build_times):>9.2f} "
                f"{statistics.median(query_times):>9.3f}"
            )
            n *= 4
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
