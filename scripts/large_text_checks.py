#!/usr/bin/env python3
"""csq at the text budget against independent oracles.  Run it from the
repository root, with no options, as ``PYTHONPATH=src python
scripts/large_text_checks.py``.  Each csq run prints its wall time and max
RSS, each check one line, and the script exits 1 if a check fails."""

import json
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

from csq.text_core import PatternRange, Text, build_bundle, occurrences, pattern_range

N = 200_000
# Every run takes a few seconds, so the limit only trips on a quadratic
# blow-up.  In-process checks get the same limit.
LIMIT_S = 120
# csq measures at n = 10^6 read 98.5 MiB max RSS on period-8 text and 115.6
# MiB on random sigma = 4 text (Python 3.11, Linux).  Each bound leaves 17 %
# for other hosts; the period-8 one is below the 130.5 MiB it took when
# delta's LCP histogram was a Counter.
MEASURES_MAX_MIB = {"period8_1m": 115, "random4_1m": 135}
# csq arrays on random300 read 55.2 MiB max RSS when each row renders from
# its own array, and 96.9 MiB when each was first copied into a list.
ARRAYS_MAX_MIB = 70
# csq lce with 10^6 queries on random4 read 252.0 MiB max RSS when every
# answer was held until the report printed, and 113.1 MiB when each batch
# of answers is written as it is made.
LCE_MAX_MIB = 150
# Linux counts a process's RSS at fork in its child's max RSS, so csq runs
# forked from this small program, not from the script, which holds every
# text.  It prints csq's output, then csq's max RSS and exit status.
LAUNCHER = """
import os, signal, sys
pid = os.fork()
if pid == 0:
    signal.alarm(int(sys.argv[1]))  # an alarm survives exec
    os.execv(sys.executable, [sys.executable, "-m", "csq.cli", *sys.argv[2:]])
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss, os.waitstatus_to_exitcode(status))
"""


def write(path, rows):
    """Write each row as one line of space-separated integers; return path."""
    with open(path, "w") as f:
        for row in rows:
            print(*row, file=f)
    return path


def uniform_pairs(rng, n, count):
    return [(rng.randint(1, n), rng.randint(1, n)) for _ in range(count)]


def ranges(rng, size, count, widths=None):
    """Slices (b..e] of 0..size, each, given widths, at most a width drawn from them."""
    pairs = []
    for _ in range(count):
        b = rng.randrange(size)
        pairs.append((b, rng.randint(b + 1, size if widths is None else min(size, b + rng.choice(widths)))))
    return pairs


def draw():
    """The texts (name -> symbols) and query files (name -> pairs), from
    fixed seeds in a fixed order, so every file is the same on every run."""
    rng, n = random.Random(8), N
    texts = {"unary": [0] * n, "period8": [int(i % 8 == 7) for i in range(n)]}
    texts["zigzag"] = [s for v in range(n // 2, 0, -1) for s in (0, v)]
    queries = {"lce_q": uniform_pairs(rng, n, 20000), "rmq_q": ranges(rng, n, 20000)}
    # A random sigma = 4 text, the period-8 text and a period-50 text with
    # edits at epsilon 0.99: rules reach 64 children, and every argmin (of
    # the middle children, of a prefix or of a suffix) is derived from the
    # mmin row, the winning child's offset and its own argmin.  About a
    # quarter of the random text's slices hold their minimum more than
    # once; the period-8 text's LCP rises within each residue class, so
    # its minima are unique but its grammar is small and reused; the
    # period-50 text's grammar is reused too, and about 30 % of its slices
    # tie.  The Fibonacci word (f1 = 0, f2 = 01, fk = f(k-1) f(k-2)) and
    # the Thue-Morse word (t_i = popcount(i) mod 2), drawn last so every
    # earlier file stays the same, are binary texts with long, heavily
    # repeated LCP plateaus.
    rng, widths = random.Random(4), (64, 4096, 65536)
    texts["random4"] = [rng.randrange(4) for _ in range(n)]
    queries["rmq_r4"] = ranges(rng, n, 2000, widths)
    queries["lce_r4"] = uniform_pairs(rng, n, 2000)
    queries["rmq_p8"] = ranges(rng, n, 2000, widths)
    block = [rng.randrange(4) for _ in range(50)]
    period50e = texts["period50e"] = [block[i % 50] for i in range(n)]
    for _ in range(n // 1024):
        period50e[rng.randrange(n)] = rng.randrange(4)
    queries["rmq_p50e"] = ranges(rng, n, 2000, widths)
    queries["lce_p50e"] = uniform_pairs(rng, n, 2000)
    queries["lce_p50m"] = []
    for _ in range(2000):
        a = rng.randint(1, n - 50)
        b = a + 50 * rng.randint(1, (n - a) // 50)
        queries["lce_p50m"].append((a, b) if rng.random() < 0.5 else (b, a))
    shorter, fibonacci = "0", "01"
    while len(fibonacci) < 832040:
        shorter, fibonacci = fibonacci, fibonacci + shorter
    texts["fibonacci"] = list(map(int, fibonacci[:832040]))
    queries["rmq_fib"] = ranges(rng, 832040, 2000, widths)
    texts["thuemorse"] = [bin(i).count("1") & 1 for i in range(1 << 19)]
    queries["rmq_tm"] = ranges(rng, 1 << 19, 2000, widths)
    rng = random.Random(300)
    texts["random300"] = [rng.randrange(300) for _ in range(n)]
    texts["period8_1m"] = [int(i % 8 == 7) for i in range(10**6)]
    rng = random.Random(1000)
    texts["random4_1m"] = [rng.randrange(4) for _ in range(10**6)]
    rng = random.Random(1001)
    queries["lce_r4_1m"] = uniform_pairs(rng, n, 10**6)
    return texts, queries


def csq(command, text, *options, max_mib=None):
    """Run csq on an integer text and return its structured report; exit
    unless it exits 0 within LIMIT_S seconds and peaks within max_mib MiB."""
    argv = [command, "--input", text, "--format", "ints", *options, "--output", "structured"]
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", LAUNCHER, str(LIMIT_S), *argv], stdout=subprocess.PIPE).stdout
    out, _, tail = out.rstrip().rpartition(b"\n")
    max_rss, status = map(int, tail.split())
    mib = max_rss / (1 << 20 if sys.platform == "darwin" else 1 << 10)
    run = " ".join([command, *map(os.path.basename, (text, *options))])
    print(f"csq {run}: {time.perf_counter() - start:.1f} s, {mib:.1f} MiB max RSS", flush=True)
    if status == -signal.SIGALRM:
        sys.exit(f"csq {run}: over the {LIMIT_S} s limit")
    if status != 0:
        sys.exit(f"csq {run}: exit status {status}")
    if max_mib is not None and mib > max_mib:
        sys.exit(f"csq {run}: {mib:.1f} MiB max RSS, over the bound of {max_mib} MiB")
    return json.loads(out)["report"]


def check_answers(name, report, oracle, count, least_long=None):
    """Count a report's lce(i,j) and argmin(i..j] answers other than oracle(i, j), plus
    one unless there are count answers and, given least_long, that many of 50 or more."""
    answers = [(*map(int, re.findall(r"\d+", key)), value)
               for key, value in report if key.startswith(("lce(", "argmin("))]
    wrong = sum(v != oracle(i, j) for i, j, v in answers)
    line, bad = f"{name}: {len(answers)} answers, {wrong} wrong", wrong + (len(answers) != count)
    if least_long is not None:
        long = sum(v >= 50 for *_, v in answers)
        line, bad = f"{line}, {long} of 50 or more", bad + (long < least_long)
    print(line)
    return bad


def leftmost_minimum(lcp):
    """argmin(b..e] of a 1-indexed LCP row: its leftmost minimum."""
    return lambda b, e: lcp.index(min(lcp[b + 1 : e + 1]), b + 1, e + 1)


def suffix_lce(s):
    """lce(i, j) by a direct comparison of the suffixes of s at i and j."""
    def lce(i, j):
        ell = 0
        while i + ell <= len(s) and j + ell <= len(s) and s[i + ell - 1] == s[j + ell - 1]:
            ell += 1
        return ell
    return lce


def thue_morse_factors(l):
    if l <= 2:
        return 2 * l
    a = (l - 1).bit_length() - 1
    q, half = l - 1 - (1 << a), 1 << (a - 1)
    return 6 * half + 4 * q if q <= half else 8 * half + 2 * q


def check_delta(name, report, n, want, want_arg):
    """One unless a report gives n and delta want, in lowest terms, at want_arg."""
    report = dict(report)
    got = (report["n"], Fraction(report["delta"]), report["delta_arg_len"])
    print(f"{name}: n {got[0]}, delta {got[1]} at length {got[2]}, want {want} at {want_arg}; "
          f"z {report['z']}, r {report['bwt_runs']}")
    return got != (n, want, want_arg) or report["delta"] != f"{want.numerator}/{want.denominator}"


def check_suffix_array(name, s, sa):
    """Count the adjacent sa entries out of suffix order, or n + 1 if sa is no permutation
    of 1..n.  Suffixes are compared 64 symbols at a time, without copying either whole."""
    def smaller(i, j):
        for off in range(0, len(s), 64):
            a, b = s[i + off : i + off + 64], s[j + off : j + off + 64]
            if a != b or len(a) < 64:
                return a < b
    n = len(s)
    permutation = len(sa) == n and sorted(sa) == list(range(1, n + 1))
    unordered = sum(not smaller(i - 1, j - 1) for i, j in zip(sa, sa[1:])) if permutation else n
    print(f"{name}: n {n}, permutation {permutation}, {unordered} adjacent pairs out of order")
    return unordered + (not permutation)


def check_pattern_ranges(n):
    """Pattern ranges with the most occurrences, where the first probe
    already matches and the two end bisects cover almost all of SA: on the
    unary text 0^k occupies ranks (k-1..n], and the period-8 text holds
    0^7 1 at every eighth position."""
    unary = Text.from_symbols([0] * n)
    sa = build_bundle(unary).sa
    bad = sum(pattern_range(unary, sa, [0] * k) != PatternRange(k - 1, n) for k in (1, 2, 7, 1000, n - 1, n))
    bad += pattern_range(unary, sa, [0] * (n + 1)) != PatternRange(n, n)
    period8 = Text.from_symbols([int(i % 8 == 7) for i in range(n)])
    sa = build_bundle(period8).sa
    pat = (0,) * 7 + (1,)
    bad += pattern_range(period8, sa, pat).occ_count != n // 8
    bad += occurrences(period8, sa, pat) != list(range(1, n, 8))
    print(f"pattern_range: {bad} wrong")
    return bad


def main():
    (texts, queries), bad = draw(), 0
    signal.signal(signal.SIGALRM, lambda *_: sys.exit(f"a check ran past the {LIMIT_S} s limit"))
    with tempfile.TemporaryDirectory() as tmp:
        files = {**{name: [symbols] for name, symbols in texts.items()}, **queries}
        path = {name: write(os.path.join(tmp, f"{name}.txt"), rows) for name, rows in files.items()}
        # Unary and period-8 texts are the classic worst cases for the
        # suffix sort's recursion and LMS naming.  On 0 m 0 m-1 ... 0 1 the
        # per-phrase LZ77 scans grow quadratically until their linear budget
        # hands the text to the LPF stack pass.  arrays reads all nine
        # bundle rows, six of them derived one by one.  ilf checks every
        # position's inverse-LF answer against the bundle and exits 1 on a
        # mismatch: a few BWT runs here, r ~ 0.75n on random4 below.
        for text in ("unary", "period8"):
            for command in ("measures", "lce", "ilf", "arrays"):
                csq(command, path[text])
        csq("measures", path["zigzag"])
        # On the unary text lce(i,j) = n - max(i,j) + 1 and LCP is
        # increasing, so argmin(b..e] = b + 1.  At epsilon 0.99 the widening
        # depth is 5, so rules reach 64 children and each middle scan covers
        # up to 64 minima.
        for name, command, options, oracle in (
            ("lce_q", "lce", ("--queries", path["lce_q"]), lambda i, j: N - max(i, j) + 1),
            ("rmq_q", "lcp-rmq", ("--queries", path["rmq_q"]), lambda b, e: b + 1),
            ("rmq_q99", "lcp-rmq", ("--epsilon", "0.99", "--queries", path["rmq_q"]), lambda b, e: b + 1),
        ):
            bad += check_answers(name, csq(command, path["unary"], *options), oracle, 20000)
        # Each answer must be the leftmost minimum of its LCP slice.
        pairs = (("random4", "rmq_r4"), ("period8", "rmq_p8"), ("period50e", "rmq_p50e"),
                 ("fibonacci", "rmq_fib"), ("thuemorse", "rmq_tm"))
        reports = [csq("lcp-rmq", path[text], "--epsilon", "0.99", "--queries", path[name]) for text, name in pairs]
        signal.alarm(LIMIT_S)
        for (text, name), report in zip(pairs, reports):
            lcp = build_bundle(Text.from_symbols(texts[text], 4)).lcp
            bad += check_answers(name, report, leftmost_minimum(lcp), 2000)
        signal.alarm(0)
        # Closed forms at the text budget.  A Sturmian word has l + 1
        # factors of each length l (Morse & Hedlund 1940), so the Fibonacci
        # prefix has delta 2/1 at length 1.  The Thue-Morse word has p(l)
        # factors of length l >= 3, with l = 2^a + q + 1, 0 <= q < 2^a:
        # 6*2^(a-1) + 4q when q <= 2^(a-1), else 8*2^(a-1) + 2q (Brlek 1989;
        # de Luca & Varricchio 1989).  Its prefix of length 2^19 has p(l)
        # factors for every l <= 2^17 + 1, and its delta is the maximum of
        # p(l)/l over those l, at the least l that reaches it.
        best, arg = max((Fraction(thue_morse_factors(l), l), -l) for l in range(1, (1 << 17) + 2))
        for text, n, want, want_arg in (("fibonacci", 832040, Fraction(2), 1), ("thuemorse", 1 << 19, best, -arg)):
            bad += check_delta(text, csq("measures", path[text]), n, want, want_arg)
        # LCE at epsilon 0.99 reads the ISA row.  On the period-50 text the
        # rank ranges cross its large reused grammar.  Of the uniform pairs
        # (lce_p50e) only about 2 % share a residue and extend past 50
        # symbols.  The pairs of lce_p50m lie a nonzero multiple of 50
        # apart, so most of them extend to the next edit and reach the long
        # descents: at least 1,000 of their answers must be 50 or more
        # (1,861 when written).  Each answer must equal a direct comparison
        # of the two suffixes.
        for text, name in (("random4", "lce_r4"), ("period50e", "lce_p50e"), ("period50e", "lce_p50m")):
            report = csq("lce", path[text], "--epsilon", "0.99", "--queries", path[name])
            bad += check_answers(name, report, suffix_lce(texts[text]), 2000, 1000 * (name == "lce_p50m"))
        # A full query budget of uniform pairs: answers are written as they
        # are made, so csq's peak stays under LCE_MAX_MIB.
        report = csq("lce", path["random4"], "--queries", path["lce_r4_1m"], max_mib=LCE_MAX_MIB)
        signal.alarm(LIMIT_S)
        bad += check_answers("lce_r4_1m", report, suffix_lce(texts["random4"]), 10**6)
        signal.alarm(0)
        del report
        csq("ilf", path["random4"])
        # The sa row of csq arrays on a random sigma = 300 text, whose LMS
        # spans take four bytes per symbol, and on the period-50 text, whose
        # spans repeat and recurse.
        rows = {text: dict(csq("arrays", path[text], max_mib=max_mib))["sa"]
                for text, max_mib in (("random300", ARRAYS_MAX_MIB), ("period50e", None))}
        signal.alarm(LIMIT_S)
        for text, sa in rows.items():
            bad += check_suffix_array(text, texts[text], sa)
        signal.alarm(LIMIT_S)
        bad += check_pattern_ranges(N)
        signal.alarm(0)
        for text, max_mib in MEASURES_MAX_MIB.items():
            csq("measures", path[text], max_mib=max_mib)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
