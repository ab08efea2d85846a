"""The benchmark's workloads, each run untraced or traced.

Every workload is a closed loop: one client in one process, each call made
only after the previous one returned.  Inputs come from the seed alone.

* ``serve-random``: one uniform random text, sigma = 4.  r is about 0.75 n,
  so the inverse-LF index holds about 75k predecessor keys and the grammar
  barely compresses; grammar building dominates set-up and the sort needs
  only a few doubling rounds.
* ``serve-repetitive``: a period-8 text with seeded edits.  r is about 200
  and the longest LCP is in the thousands, so prefix doubling runs many
  rounds and dominates set-up and ``csq measures``, while the inverse-LF
  index searches only about 200 keys.
* ``gadget-sweep``: seeded instances of every gadget kind, with sizes spread
  evenly up to the size caps of the randomized acceptance sweep.  Many
  small, highly repetitive texts, so per-call overhead matters; the work is
  gadget builds and query replay, with no inverse-LF or grammar queries.

The untraced run reports the end-to-end metrics, the same names on every
workload:

* ``setup_s``: building what the loop serves from -- the suffix-array
  bundle, the inverse-LF index and the LCP-RMQ index of the text, or every
  ``build_gadget`` call of the instance list;
* ``measures_s``: in-process ``csq measures --output structured`` on the
  text, or on one gadget text per kind;
* ``ops_per_s``, ``op_us_p50``, ``op_us_p90``: calls of the closed loop --
  the query mix, or ``verify_reduction`` of one instance;
* ``index_integers``: integers kept by the two indexes, or by the gadget
  instances, counted from public fields;
* ``peak_rss_mib``: peak resident memory of the process.

Metrics of one workload only (per-query-type latencies, ``error_rate``)
are report lines.  The traced run records a span around each call into
csq and reports per-layer metrics.  Calls made
only to break a layer down (the standalone sort, the measure functions, the
predecessor head-to-head, the two LCE steps, the gadget certificate and
anchor checks) run in the traced run only.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import resource
import statistics
import time
from array import array
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path

import oracles
from tracing import Tracer, percentile

from csq.cli import main as csq_main
from csq.gadgets import (
    KINDS,
    build_gadget,
    proof_certificate,
    random_input,
    recompute_anchors,
    verify_reduction,
)
from csq.grammar_lcp_rmq import (
    build_lcp_rmq_index,
    interval_argmin_prefix_sum,
    lce_query,
    lcp_rmq,
    prefix_stats_query,
)
from csq.measures import (
    bwt_run_count,
    lz77_factorize,
    run_length_encode,
    substring_complexity,
    validate_lz_like,
)
from csq.predecessor import pred, smallset_pred, yfast_pred
from csq.rlbwt_ilf import build_ilf_index, ilf_query
from csq.text_core import (
    PatternRange,
    Text,
    build_bundle,
    lce_naive,
    pattern_range,
    suffix_array_prefix_doubling,
)


# Metric name -> unit.  Every workload reports each of these; the lines
# printed before the JSON result add the workload-specific ones.
END_TO_END = {
    "setup_s": "s",
    "measures_s": "s",
    "ops_per_s": "1/s",
    "op_us_p50": "us",
    "op_us_p90": "us",
    "index_integers": "count",
    "peak_rss_mib": "MiB",
}
PER_LAYER = {
    "text_core.suffix_sort_s": "s",
    "text_core.max_lcp": "count",
    "text_core.build_bundle_s": "s",
    "measures.run_length_encode_s": "s",
    "measures.lz77_factorize_s": "s",
    "measures.bwt_run_count_s": "s",
    "measures.substring_complexity_s": "s",
    "measures.validate_lz_like_s": "s",
    "measures.z": "count",
    "measures.r": "count",
    "measures.delta": "ratio",
    "trace.overhead_ratio": "ratio",
}


@dataclass(frozen=True)
class Scale:
    n: int  # serve text length
    queries: int  # distinct calls in the served mix, cycled by the loop
    gadget_cap: int  # size cap of every gadget kind but ilf-pred
    strata: int  # gadget sizes per kind, spread evenly up to the cap
    repeats: int = 4  # rounds of set-up, measures and loop per untraced run


FULL = Scale(n=100_000, queries=16_384, gadget_cap=32, strata=8)
SMALL = Scale(n=2_000, queries=512, gadget_cap=6, strata=2, repeats=2)


@dataclass
class Result:
    """Metrics, report lines and answer checks of one run."""

    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    lines: list[tuple[str, object, str]] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed: int = 0

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)
        self.lines.append((name, value, unit))

    def note(self, name: str, value: object, unit: str = "") -> None:
        self.lines.append((name, value, unit))

    def check(self, label: str, got: object, want: object) -> None:
        self.attempted += 1
        if got != want:
            self.fail(f"{label}: got {got!r}, want {want!r}")

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)


def run_workload(name: str, seed: int, seconds: float, traced: bool, scale: Scale, out_dir: Path) -> Result:
    result = Result()
    tracer = Tracer() if traced else None
    work_dir = out_dir / f"work-{name}-{seed}-{time.time_ns()}"
    work_dir.mkdir(parents=True)
    try:
        if name == "gadget-sweep":
            _gadget_sweep(seed, seconds, scale, work_dir, tracer, result)
        else:
            family = name.split("-", 1)[1]
            _serve(family, seed, seconds, scale, work_dir, tracer, result)
    finally:
        for path in work_dir.iterdir():
            path.unlink()
        work_dir.rmdir()
    if tracer is not None:
        for layer, seconds_self in sorted(tracer.self_time_by_layer().items()):
            result.note(f"{layer}.self_s", seconds_self, "s")
        spans = out_dir / f"spans-{name}-seed{seed}.csv"
        tracer.write(spans)
        result.note("spans_file", spans.name)
    result.note("error_rate", result.failed / max(1, result.attempted), "ratio")
    return result


# ---------------------------------------------------------------------------
# Shared pieces


def make_text(family: str, n: int, rng: random.Random) -> Text:
    """The random and periodic-with-edits families of scripts/bench_ilf.py."""
    if family == "random":
        return Text.from_symbols([rng.randrange(4) for _ in range(n)], 4)
    symbols = [0] * n
    for i in range(7, n, 8):
        symbols[i] = 1
    for _ in range(max(1, n // 1024)):
        symbols[rng.randrange(n)] = rng.randrange(4)
    return Text.from_symbols(symbols, 4)


def _write_ints(path: Path, text: Text) -> Path:
    path.write_text(" ".join(map(str, text.symbols)) + "\n", encoding="ascii")
    return path


def _csq_measures(path: Path) -> tuple[float, dict]:
    """Seconds and parsed report of one in-process ``csq measures`` run."""
    buffer = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buffer):
        code = csq_main(["measures", "--input", str(path), "--format", "ints", "--output", "structured"])
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"csq measures exited {code} on {path.name}")
    return elapsed, dict(json.loads(buffer.getvalue())["report"])


# The speed of a shared host drifts by a third within minutes, so
# end-to-end times are scaled to a nominal speed: multiplied by
# PROBE_NOMINAL_S over the median time of a fixed kernel that uses no csq
# code (a keyed sort and a rank scatter, like one prefix-doubling round),
# timed between every two phases of a run.  The report prints the factor as
# ``speed_scale`` and the unscaled values as ``raw.*``.
_PROBE_KEYS = tuple(random.Random(0).randrange(1 << 30) for _ in range(200_000))
PROBE_NOMINAL_S = 0.05


def _probe() -> float:
    start = time.perf_counter()
    keys = [x * 3 + 1 for x in _PROBE_KEYS]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    rank = [0] * len(order)
    for r, j in enumerate(order):
        rank[j] = r
    return time.perf_counter() - start


def _untraced_rounds(scale: Scale, seconds: float, result: Result, setup, measures, bind) -> tuple["ClosedLoop", float]:
    """Rounds of set-up, csq measures and slices of the closed loop, with
    the speed probe between every two phases, so that each median covers
    the whole run.  ``setup`` returns its seconds, ``measures`` a list of
    seconds, ``bind`` the ops over the latest set-up.  Reports the metrics
    every workload shares, the unscaled times as ``raw.*``, and returns the
    loop and the speed scale."""
    probes = [_probe()]
    setup_times: list[float] = []
    measure_times: list[float] = []
    loop = ClosedLoop()
    for _ in range(scale.repeats):
        ops = None  # free the previous set-up before the next is built
        setup_times.append(setup())
        probes.append(_probe())
        measure_times.extend(measures())
        probes.append(_probe())
        ops = bind()
        loop.run(ops, seconds / scale.repeats)
        probes.append(_probe())
    speed = PROBE_NOMINAL_S / statistics.median(probes)
    result.note("speed_scale", speed, "ratio")
    result.note("speed_probes", len(probes))
    raw = {
        "setup_s": statistics.median(setup_times),
        "measures_s": statistics.median(measure_times),
        "ops_per_s": len(loop.answers) / (loop.wall_ns / 1e9),
        "op_us_p50": statistics.median(loop.durations) / 1e3,
        "op_us_p90": percentile(loop.durations, 90) / 1e3,
    }
    for name, value in raw.items():
        result.note(f"raw.{name}", value, END_TO_END[name])
    for name, value in raw.items():
        result.metric(name, value / speed if name == "ops_per_s" else value * speed, END_TO_END[name])
    result.note("op_samples", len(loop.answers))
    result.metric("peak_rss_mib", _peak_rss_mib(), "MiB")
    return loop, speed


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _check_measure_reports(result: Result, texts: list[Text], bwts: list, reports: list[dict]) -> None:
    for text, bwt, report in zip(texts, bwts, reports):
        checks, failures = oracles.check_measures(bytes(text.symbols), bwt, report)
        result.attempted += checks
        for message in failures:
            result.fail(f"measures: {message}")


def _measure_breakdown(tracer: Tracer, result: Result, texts: list[Text], reports: list[dict]) -> list:
    """Time each measure function on its own and compare with the CLI;
    returns the LZ77 factorizations."""
    factorizations = []
    z_total = r_total = 0
    delta_total = 0.0
    for text, report in zip(texts, reports):
        with tracer.span("measures.run_length_encode"):
            runs = run_length_encode(text).run_count
        with tracer.span("measures.lz77_factorize"):
            factorization = lz77_factorize(text)
        with tracer.span("measures.bwt_run_count"):
            r = bwt_run_count(text)
        with tracer.span("measures.substring_complexity"):
            delta = substring_complexity(text)
        result.check("run_length_encode", runs, report["rl_runs"])
        result.check("lz77_factorize", factorization.phrase_count, report["z"])
        result.check("bwt_run_count", r, report["bwt_runs"])
        result.check("substring_complexity", f"{delta.numerator}/{delta.denominator}", report["delta"])
        factorizations.append(factorization)
        z_total += factorization.phrase_count
        r_total += r
        delta_total += delta.numerator / delta.denominator
    result.metric("measures.run_length_encode_s", tracer.total_s("measures.run_length_encode"), "s")
    result.metric("measures.lz77_factorize_s", tracer.total_s("measures.lz77_factorize"), "s")
    result.metric("measures.bwt_run_count_s", tracer.total_s("measures.bwt_run_count"), "s")
    result.metric("measures.substring_complexity_s", tracer.total_s("measures.substring_complexity"), "s")
    result.metric("measures.z", z_total, "count")
    result.metric("measures.r", r_total, "count")
    result.metric("measures.delta", delta_total, "ratio")
    return factorizations


# ---------------------------------------------------------------------------
# Serving one text

ILF, RMQ, LCE, LOCATE = range(4)
QUERY_TYPES = ("ilf", "rmq", "lce", "locate")
_SPAN_NAMES = (
    "rlbwt_ilf.ilf_query",
    "grammar_lcp_rmq.lcp_rmq",
    "grammar_lcp_rmq.lce_query",
    "text_core.pattern_range",
)


def make_queries(text: Text, count: int, rng: random.Random) -> list[tuple[int, tuple]]:
    """A seeded interleaved mix; one pattern in eight is random, so it may
    not occur, and the rest are substrings of the text."""
    n = text.n
    queries = []
    for _ in range(count):
        kind = rng.randrange(4)
        if kind == ILF:
            args: tuple = (rng.randint(1, n),)
        elif kind == RMQ:
            b = rng.randrange(n)
            args = (b, rng.randint(b + 1, n))
        elif kind == LCE:
            args = (rng.randint(1, n), rng.randint(1, n))
        else:
            length = rng.randint(2, 12)
            if rng.random() < 0.125:
                pattern = tuple(rng.randrange(text.sigma) for _ in range(length))
            else:
                p = rng.randint(0, n - length)
                pattern = text.symbols[p : p + length]
            args = (pattern,)
        queries.append((kind, args))
    return queries


def _bind(queries, text: Text, bundle, ilf, grammar) -> list[tuple]:
    ops = []
    for kind, args in queries:
        if kind == ILF:
            ops.append((ilf_query, (ilf, *args)))
        elif kind == RMQ:
            ops.append((lcp_rmq, (grammar, *args)))
        elif kind == LCE:
            ops.append((lce_query, (grammar, *args)))
        else:
            ops.append((pattern_range, (text, bundle.sa, *args)))
    return ops


def _expected(queries, text: Text, bundle) -> list:
    argmin = oracles.SparseArgmin(bundle.lcp)
    data = bytes(text.symbols)
    ranges = oracles.pattern_ranges(data, (bytes(args[0]) for kind, args in queries if kind == LOCATE))
    out = []
    for kind, args in queries:
        if kind == ILF:
            out.append(bundle.ilf[args[0]])
        elif kind == RMQ:
            out.append(argmin.query(*args))
        elif kind == LCE:
            out.append(lce_naive(text, *args))
        else:
            out.append(ranges[bytes(args[0])])
    return out


def _canon(answer):
    if isinstance(answer, PatternRange):
        return (answer.range_beg, answer.range_end)
    return answer


def _check_answers(result: Result, queries, expected, answers) -> None:
    q = len(queries)
    for k, answer in enumerate(answers):
        got = _canon(answer)
        if got != expected[k % q]:
            kind, args = queries[k % q]
            result.fail(f"{QUERY_TYPES[kind]}{args}: got {got!r}, want {expected[k % q]!r}")
    result.attempted += len(answers)


class ClosedLoop:
    """One client calling ops in order, each call after the previous one
    returned; every call is timed and its answer kept.  The loop always
    stops at the end of a cycle through the ops, so every op has been
    called equally often, and call ``k`` of the run used
    ``ops[k % len(ops)]``, whichever ``run`` made it."""

    def __init__(self) -> None:
        self.answers: list = []
        self.durations = array("q")
        self.wall_ns = 0

    def run(self, ops, seconds: float = 0.0) -> None:
        """Cycle through ``ops`` until ``seconds`` have passed, at least once."""
        ns = time.perf_counter_ns
        answers, durations = self.answers, self.durations
        q = len(ops)
        k = len(answers)
        start = ns()
        deadline = start + int(seconds * 1e9)
        while True:
            fn, args = ops[k % q]
            t0 = ns()
            answer = fn(*args)
            t1 = ns()
            answers.append(answer)
            durations.append(t1 - t0)
            k += 1
            if k % q == 0 and t1 >= deadline:
                break
        self.wall_ns += ns() - start


def _traced_pass(ops, kinds: list[int], tracer: Tracer, answers: list) -> None:
    ns = time.perf_counter_ns
    record = tracer.record
    new_request = tracer.new_request
    for k, (fn, args) in enumerate(ops):
        t0 = ns()
        answer = fn(*args)
        t1 = ns()
        answers.append(answer)
        record(_SPAN_NAMES[kinds[k]], t0, t1, new_request())


def _serve(family: str, seed: int, seconds: float, scale: Scale, work_dir: Path, tracer, result: Result) -> None:
    rng = random.Random(f"{seed}:{family}")
    text = make_text(family, scale.n, rng)
    queries = make_queries(text, scale.queries, rng)
    kinds = [kind for kind, _ in queries]
    path = _write_ints(work_dir / "text.txt", text)

    if tracer is None:
        built: dict = {}
        reports = []

        def setup() -> float:
            built.clear()
            start = time.perf_counter()
            built["bundle"] = build_bundle(text)
            built["ilf"] = build_ilf_index(text)
            built["grammar"] = build_lcp_rmq_index(text)
            return time.perf_counter() - start

        def measures() -> list[float]:
            elapsed, report = _csq_measures(path)
            reports.append(report)
            return [elapsed]

        def bind() -> list:
            return _bind(queries, text, built["bundle"], built["ilf"], built["grammar"])

        loop, speed = _untraced_rounds(scale, seconds, result, setup, measures, bind)
        bundle, ilf, grammar = built["bundle"], built["ilf"], built["grammar"]
        report = reports[0]
        for other in reports[1:]:
            result.check("csq measures report of every round", other, report)
        answers = loop.answers
        by_type: list[list[int]] = [[], [], [], []]
        for k, d in enumerate(loop.durations):
            by_type[kinds[k % len(kinds)]].append(d)
        for kind, name in enumerate(QUERY_TYPES):
            result.note(f"{name}_us_p50", statistics.median(by_type[kind]) / 1e3 * speed, "us")
        result.note("queries_per_s", result.metrics["ops_per_s"][0], "1/s")
        if len(answers) >= 1000:
            result.note("query_us_p99", percentile(loop.durations, 99) / 1e3 * speed, "us")
    else:
        with tracer.span("bench.setup"):
            with tracer.span("text_core.build_bundle"):
                bundle = build_bundle(text)
            with tracer.span("rlbwt_ilf.build_ilf_index"):
                ilf = build_ilf_index(text)
            with tracer.span("grammar_lcp_rmq.build_lcp_rmq_index"):
                grammar = build_lcp_rmq_index(text)
        with tracer.span("cli.measures"):
            _, report = _csq_measures(path)
        ops = _bind(queries, text, bundle, ilf, grammar)
        answers = _traced_loop(ops, kinds, seconds, tracer, result)
        _serve_breakdown(text, queries, bundle, ilf, grammar, report, tracer, result)

    ilf_count = oracles.ilf_integers(ilf)
    grammar_count = oracles.grammar_integers(grammar)
    if tracer is None:
        result.metric("index_integers", ilf_count + grammar_count, "count")
    else:
        _serve_layers(text, bundle, ilf, grammar, ilf_count, grammar_count, tracer, result)

    expected = _expected(queries, text, bundle)
    _check_answers(result, queries, expected, answers)
    _check_measure_reports(result, [text], [bundle.bwt], [report])
    result.note(
        "answers_digest",
        oracles.digest(
            {
                "workload": f"serve-{family}",
                "n": text.n,
                "answers": [_canon(a) for a in answers[: len(queries)]],
                "measures": report,
                "ilf": [ilf.boundary_count, ilf.r_original, ilf.r_shifted, ilf_count],
                "grammar": [grammar.slp_size, grammar.size, grammar.height, grammar_count],
            }
        ),
    )


def _traced_loop(ops, kinds, seconds: float, tracer: Tracer, result: Result) -> list:
    """Alternate untraced and traced passes over the mix until the time is
    up; the ratio of their times is the tracing overhead."""
    loop = ClosedLoop()
    traced_ns = 0
    pairs = 0
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    while pairs == 0 or time.perf_counter_ns() < deadline:
        loop.run(ops)
        start = time.perf_counter_ns()
        _traced_pass(ops, kinds, tracer, loop.answers)
        traced_ns += time.perf_counter_ns() - start
        pairs += 1
    result.metric("trace.overhead_ratio", traced_ns / loop.wall_ns, "ratio")
    result.note("trace.pass_pairs", pairs)
    return loop.answers


def _serve_breakdown(text, queries, bundle, ilf, grammar, report, tracer: Tracer, result: Result) -> None:
    with tracer.span("text_core.suffix_array_prefix_doubling"):
        sa0 = suffix_array_prefix_doubling(text.symbols)
    result.check("standalone sort", [p + 1 for p in sa0], list(bundle.sa[1:]))
    (factorization,) = _measure_breakdown(tracer, result, [text], [report])
    with tracer.span("measures.validate_lz_like"):
        size = validate_lz_like(text, factorization)
    result.check("validate_lz_like", size, factorization.phrase_count)
    result.metric("measures.validate_lz_like_s", tracer.total_s("measures.validate_lz_like"), "s")

    # Predecessor head-to-head on the index's own boundary keys, probed
    # where the mix's inverse-LF queries probe them.
    probes = [args[0] + 1 for kind, args in queries if kind == ILF and args[0] != ilf.i_last]
    batch = _batch_size(len(probes))
    keys = ilf.boundary_keys
    for t in range(0, len(probes) - batch + 1, batch):
        chunk = probes[t : t + batch]
        with tracer.span("predecessor.yfast_pred"):
            got_yfast = [yfast_pred(ilf.trie, x) for x in chunk]
        with tracer.span("predecessor.pred"):
            got_bisect = [pred(ilf.pred_keys, x) for x in chunk]
        want = [bisect_left(keys, x) for x in chunk]
        result.check("yfast_pred batch", got_yfast, want)
        result.check("pred batch", got_bisect, want)
    # Small-set search on the grammar's per-rule key sets.
    stats = grammar.stats
    rng = random.Random(len(probes))
    rule_probes = []
    for _ in range(len(probes)):
        x = rng.randrange(len(stats.pred))
        rule_probes.append((x, rng.randint(1, stats.exp_len[x])))
    for t in range(0, len(rule_probes) - batch + 1, batch):
        chunk = rule_probes[t : t + batch]
        with tracer.span("predecessor.smallset_pred"):
            got = [smallset_pred(stats.pred[x], p) for x, p in chunk]
        result.check("smallset_pred batch", got, [bisect_left(stats.plen[x][1:], p) for x, p in chunk])
    result.note("predecessor.batch", batch, "calls")
    for flavor, name in (("yfast", "yfast_pred"), ("bisect", "pred"), ("smallset", "smallset_pred")):
        per_call = [d / batch / 1e3 for d in tracer.durations_ns(f"predecessor.{name}")]
        result.note(f"predecessor.{flavor}_pred_us_p50", statistics.median(per_call), "us")

    # The two steps of an LCE query, timed one by one.
    for i, j in (args for kind, args in queries if kind == LCE):
        if i == j:
            continue
        p, q = sorted((grammar.isa[i], grammar.isa[j]))
        request = tracer.new_request()
        t0 = time.perf_counter_ns()
        pos = interval_argmin_prefix_sum(stats, p, q)
        t1 = time.perf_counter_ns()
        total, _, _ = prefix_stats_query(stats, grammar.slg.start, pos)
        t2 = time.perf_counter_ns()
        tracer.record("grammar_lcp_rmq.interval_argmin_prefix_sum", t0, t1, request)
        tracer.record("grammar_lcp_rmq.prefix_stats_query", t1, t2, request)
        result.check(f"lce steps ({i},{j})", total, lce_naive(text, i, j))


def _batch_size(probes: int) -> int:
    return max(1, min(256, probes // 16))


def _serve_layers(text, bundle, ilf, grammar, ilf_count, grammar_count, tracer: Tracer, result: Result) -> None:
    result.metric("text_core.suffix_sort_s", tracer.total_s("text_core.suffix_array_prefix_doubling"), "s")
    result.metric("text_core.max_lcp", max(bundle.lcp), "count")
    result.metric("text_core.build_bundle_s", tracer.total_s("text_core.build_bundle"), "s")
    result.note("text_core.pattern_range_us_p50", tracer.median_us("text_core.pattern_range"), "us")
    result.note("text_core.pattern_range_us_p99", tracer.percentile_us("text_core.pattern_range", 99), "us")
    result.note("rlbwt_ilf.build_s", tracer.total_s("rlbwt_ilf.build_ilf_index"), "s")
    result.note("rlbwt_ilf.ilf_query_us_p50", tracer.median_us("rlbwt_ilf.ilf_query"), "us")
    result.note("rlbwt_ilf.ilf_query_us_p99", tracer.percentile_us("rlbwt_ilf.ilf_query", 99), "us")
    result.note("rlbwt_ilf.boundary_count", ilf.boundary_count, "count")
    result.note("rlbwt_ilf.r_original", ilf.r_original, "count")
    result.note("rlbwt_ilf.stored_integers", ilf_count, "count")
    result.note("grammar_lcp_rmq.build_s", tracer.total_s("grammar_lcp_rmq.build_lcp_rmq_index"), "s")
    result.note("grammar_lcp_rmq.slp_size", grammar.slp_size, "count")
    result.note("grammar_lcp_rmq.size", grammar.size, "count")
    result.note("grammar_lcp_rmq.height", grammar.height, "count")
    result.note("grammar_lcp_rmq.k_widen", grammar.k_widen, "count")
    log_n = math.log2(text.n)
    result.note("grammar_lcp_rmq.size_per_r_log2n", grammar.size / (ilf.r_original * log_n * log_n), "ratio")
    result.note("grammar_lcp_rmq.retained_integers", grammar_count, "count")
    for name in ("lcp_rmq", "lce_query", "interval_argmin_prefix_sum", "prefix_stats_query"):
        label = {"interval_argmin_prefix_sum": "interval_argmin", "prefix_stats_query": "prefix_stats"}.get(name, name)
        result.note(f"grammar_lcp_rmq.{label}_us_p50", tracer.median_us(f"grammar_lcp_rmq.{name}"), "us")


# ---------------------------------------------------------------------------
# Gadget sweep


def gadget_inputs(seed: int, scale: Scale) -> list[tuple[str, tuple[int, ...]]]:
    """One instance per kind and size stratum, kinds interleaved."""
    rng = random.Random(f"{seed}:gadget-sweep")
    inputs = []
    for stratum in range(1, scale.strata + 1):
        for kind in KINDS:
            cap = max(2, scale.gadget_cap // 4) if kind == "ilf-pred" else scale.gadget_cap
            size = -(-cap * stratum // scale.strata)
            inputs.append((kind, random_input(kind, size, rng)))
    return inputs


def _report_record(report) -> list:
    return [
        report.kind,
        report.query_count,
        report.mismatch_count,
        report.text_length,
        report.rl_runs,
        report.lz_phrases,
        report.cert_phrases,
        report.cert_bound,
        report.anchors_consistent,
    ]


def _check_report(result: Result, index: int, report) -> None:
    result.attempted += 1
    if not report.ok:
        result.fail(
            f"gadget {index} ({report.kind}): {report.mismatch_count} mismatches, "
            f"anchors consistent: {report.anchors_consistent}, first: {report.first_mismatch!r}"
        )


def _gadget_sweep(seed: int, seconds: float, scale: Scale, work_dir: Path, tracer, result: Result) -> None:
    inputs = gadget_inputs(seed, scale)
    # csq measures runs on one text per kind, from the middle size stratum.
    middle = (scale.strata // 2) * len(KINDS)
    measured = [build_gadget(kind, data) for kind, data in inputs[middle - len(KINDS) : middle]]
    paths = [_write_ints(work_dir / f"gadget-{t}.txt", g.text) for t, g in enumerate(measured)]

    if tracer is None:
        built: dict = {}
        reports = []

        def setup() -> float:
            built.clear()
            instances = built["instances"] = []
            total = 0.0
            for kind, data in inputs:
                start = time.perf_counter()
                instances.append(build_gadget(kind, data))
                total += time.perf_counter() - start
            return total

        def measures() -> list[float]:
            times = []
            for _ in range(2):
                runs = [_csq_measures(path) for path in paths]
                times.append(sum(t for t, _ in runs))
                reports.append([r for _, r in runs])
            return times

        def bind() -> list:
            return [(verify_reduction, (g.kind, g)) for g in built["instances"]]

        loop, _ = _untraced_rounds(scale, seconds, result, setup, measures, bind)
        instances = built["instances"]
        report_list = reports[0]
        for other in reports[1:]:
            result.check("csq measures reports of every round", other, report_list)
        verified = loop.answers
        result.metric("index_integers", sum(oracles.gadget_integers(g) for g in instances), "count")
        result.note("verify_instances_per_s", result.metrics["ops_per_s"][0], "1/s")
    else:
        with tracer.span("bench.setup"):
            instances = []
            for kind, data in inputs:
                with tracer.span("gadgets.build_gadget"):
                    instances.append(build_gadget(kind, data))
        report_list = []
        for path in paths:
            with tracer.span("cli.measures"):
                report_list.append(_csq_measures(path)[1])
        verified = _gadget_traced_loop(inputs, seconds, tracer, result)
        _gadget_breakdown(instances, measured, report_list, tracer, result)

    for k, report in enumerate(verified):
        _check_report(result, k % len(instances), report)
    _check_measure_reports(result, [g.text for g in measured], [g.bundle.bwt for g in measured], report_list)
    result.note(
        "answers_digest",
        oracles.digest(
            {
                "workload": "gadget-sweep",
                "reports": [_report_record(r) for r in verified[: len(instances)]],
                "measures": report_list,
            }
        ),
    )


def _gadget_traced_loop(inputs, seconds: float, tracer: Tracer, result: Result) -> list:
    """Alternate untraced and traced passes (build, then verify, per
    instance) until the time is up."""
    verified = []
    untraced_ns = traced_ns = 0
    pairs = 0
    kind_of: dict[int, str] = {}
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    while pairs == 0 or time.perf_counter_ns() < deadline:
        start = time.perf_counter_ns()
        for kind, data in inputs:
            instance = build_gadget(kind, data)
            verified.append(verify_reduction(kind, instance))
        middle = time.perf_counter_ns()
        for kind, data in inputs:
            request = tracer.new_request()
            kind_of[request] = kind
            with tracer.span("bench.gadget_instance", request):
                with tracer.span("gadgets.build_gadget", request):
                    instance = build_gadget(kind, data)
                with tracer.span("gadgets.verify_reduction", request):
                    verified.append(verify_reduction(kind, instance))
        untraced_ns += middle - start
        traced_ns += time.perf_counter_ns() - middle
        pairs += 1
    result.metric("trace.overhead_ratio", traced_ns / untraced_ns, "ratio")
    result.note("trace.pass_pairs", pairs)
    result.note("gadgets.instances_per_pass", len(inputs), "count")
    # Per-pass totals of the traced passes.
    per_kind = dict.fromkeys(KINDS, 0)
    build_ns = verify_ns = 0
    for name, start, end, _, req in tracer.spans:
        if name == "gadgets.verify_reduction":
            per_kind[kind_of[req]] += end - start
            verify_ns += end - start
        elif name == "gadgets.build_gadget" and req in kind_of:
            build_ns += end - start
    result.note("gadgets.build_gadget_s", build_ns / pairs / 1e9, "s")
    result.note("gadgets.verify_reduction_s", verify_ns / pairs / 1e9, "s")
    for kind in KINDS:
        result.note(f"gadgets.{kind}.verify_s", per_kind[kind] / pairs / 1e9, "s")
    result.note("gadgets.queries_replayed", sum(r.query_count for r in verified[: len(inputs)]), "count")
    return verified


def _gadget_breakdown(instances, measured, reports, tracer: Tracer, result: Result) -> None:
    """One pass of the verifier's parts, called one by one, per instance."""
    for k, instance in enumerate(instances):
        request = tracer.new_request()
        with tracer.span("bench.gadget_parts", request):
            with tracer.span("gadgets.proof_certificate", request):
                certificate, bound = proof_certificate(instance)
            with tracer.span("measures.validate_lz_like", request):
                size = validate_lz_like(instance.text, certificate)
            with tracer.span("gadgets.recompute_anchors", request):
                anchors = recompute_anchors(instance)
            with tracer.span("text_core.suffix_array_prefix_doubling", request):
                sa0 = suffix_array_prefix_doubling(instance.text.symbols)
            with tracer.span("text_core.build_bundle", request):
                bundle = build_bundle(instance.text)
        result.check(f"gadget {k} certificate within bound", size <= bound, True)
        result.check(f"gadget {k} anchors", anchors, dict(instance.anchors))
        result.check(f"gadget {k} standalone sort", [p + 1 for p in sa0], list(instance.bundle.sa[1:]))
        result.check(f"gadget {k} bundle", bundle, instance.bundle)
    result.note("gadgets.proof_certificate_s", tracer.total_s("gadgets.proof_certificate"), "s")
    result.note("gadgets.recompute_anchors_s", tracer.total_s("gadgets.recompute_anchors"), "s")
    result.note("gadgets.text_symbols", sum(g.text.n for g in instances), "count")
    result.metric("measures.validate_lz_like_s", tracer.total_s("measures.validate_lz_like"), "s")
    result.metric("text_core.suffix_sort_s", tracer.total_s("text_core.suffix_array_prefix_doubling"), "s")
    result.metric("text_core.build_bundle_s", tracer.total_s("text_core.build_bundle"), "s")
    result.metric("text_core.max_lcp", max(max(g.bundle.lcp) for g in instances), "count")
    _measure_breakdown(tracer, result, [g.text for g in measured], reports)
