#!/usr/bin/env python3
"""Verification-and-size report across every gadget family.

For each gadget kind this verifies seeded random instances (or the
exhaustive family with --exhaustive; keep --size small there) and
prints one row: instance and query totals, mismatches, the largest
text length and run count seen, the greedy phrase count z, and the
certificate phrase count against its closed-form bound.  Exits 1 if
any kind reports a mismatch, and 2, before any row, if a kind refuses
the size or trial count.

Four more columns give the index sizes of one instance per kind, drawn
by random_input(kind, size, random.Random(seed)): its BWT run count r,
the integers the inverse-LF index keeps, the integers the LCP-RMQ index
keeps less the n ISA entries, and its certificate's phrase count.
"""

import argparse
import os
import random
import sys

from csq.gadgets import (
    KINDS,
    build_gadget,
    instance_inputs,
    proof_certificate,
    random_input,
    verify_many,
)
from csq.grammar_lcp_rmq import build_lcp_rmq_index
from csq.rlbwt_ilf import build_ilf_index


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--size", type=int, default=5, help="permutation length n or set size m")
    parser.add_argument("--trials", type=int, default=25, help="seeded random instances per kind")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--exhaustive",
        action="store_true",
        help="enumerate every instance of the given size instead of sampling",
    )
    args = parser.parse_args()
    for kind in KINDS:
        try:
            instance_inputs(kind, args.size, exhaustive=args.exhaustive, trials=args.trials)
        except ValueError as err:
            parser.error(str(err))

    print(
        f"{'kind':>12} {'instances':>9} {'queries':>8} {'mismatch':>8} "
        f"{'|T|':>7} {'runs':>5} {'z':>5} {'cert':>5} {'bound':>6} {'ok':>5} "
        f"{'r':>5} {'ilf_ints':>8} {'lcp_ints':>8} {'cert1':>5}"
    )
    failures = 0
    for kind in KINDS:
        report = verify_many(
            kind,
            args.size,
            exhaustive=args.exhaustive,
            trials=args.trials,
            seed=args.seed,
        )
        failures += not report.ok
        gadget = build_gadget(kind, random_input(kind, args.size, random.Random(args.seed)))
        ilf = build_ilf_index(gadget.text)
        lcp_ints = build_lcp_rmq_index(gadget.text).stored_integers - gadget.text.n
        cert_phrases = proof_certificate(gadget)[0].phrase_count
        print(
            f"{kind:>12} {report.instances:>9} {report.query_count:>8} "
            f"{report.mismatch_count:>8} {report.text_length:>7} {report.rl_runs:>5} "
            f"{report.lz_phrases:>5} {report.cert_phrases:>5} {report.cert_bound:>6} "
            f"{str(report.ok):>5} {ilf.r_original:>5} {ilf.stored_integers:>8} "
            f"{lcp_ints:>8} {cert_phrases:>5}"
        )
        if report.first_mismatch is not None:
            print(f"{'':>12} first mismatch: {report.first_mismatch!r}")
    return 1 if failures else 0


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
