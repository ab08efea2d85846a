"""Command-line entry point for the compressed string-query toolkit.

One executable exposes array dumps, repetitiveness measures, the
run-boundary inverse-LF index, the grammar LCP-RMQ/LCE structures,
gadget verification, and micro-benchmarks.  Reports are line-oriented
``key: value`` text or, with ``--output structured``, a single
schema-versioned JSON document; identical configurations (including
seeds and worker counts) render byte-identical structured reports,
except for the wall-clock fields of the benchmark commands.

Exit codes: 0 success, 1 verification mismatch, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import statistics
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Sequence

from . import gadgets
from .grammar_lcp_rmq import build_lcp_rmq_index, lce_query, lcp_rmq
from .measures import bwt_run_count_from_isa, run_length_encode, text_measures
from .rlbwt_ilf import build_ilf_index, ilf_query
from .text_core import Text, build_bundle

_SCHEMA_VERSION = 1


class CliError(Exception):
    """Unusable input or configuration; rendered as an error and exit 2."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one invocation needs, normalized from the parsed flags."""

    subcommand: str
    input_path: str | None = None
    input_format: str = "ascii"
    seed: int = 0
    trials: int | None = None
    exhaustive: bool = False
    epsilon: float = 0.5
    flavor: str = "yfast"
    output: str = "human"
    kind: str | None = None
    size: int | None = None
    queries_path: str | None = None
    bench: bool = False
    repeat: int = 5
    batch: int = 2000
    workers: int = 1


@dataclass
class Report:
    """Ordered key/value pairs with two deterministic renderings."""

    subcommand: str
    items: list[tuple[str, object]] = field(default_factory=list)

    def add(self, key: str, value: object) -> None:
        self.items.append((key, value))

    def render(self, output: str) -> str:
        if output == "structured":
            document = {
                "schema": _SCHEMA_VERSION,
                "subcommand": self.subcommand,
                "report": self.items,
            }
            return json.dumps(document, separators=(",", ":"))
        return "\n".join(f"{key}: {_human(value)}" for key, value in self.items)


def _human(value: object) -> str:
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    return str(value)


# ---------------------------------------------------------------------------
# Input loading


def _read_file(path: str) -> str:
    try:
        with open(path, "rb") as handle:
            return handle.read().decode("latin-1")
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load_text(config: RunConfig) -> Text:
    if config.input_path is None:
        raise CliError("an --input file is required")
    raw = _read_file(config.input_path)
    if config.input_format == "ascii":
        if raw.endswith("\n"):
            raw = raw[:-1]
        if not raw:
            raise CliError(f"{config.input_path} holds no text")
        return Text.from_ascii(raw)
    tokens = raw.split()
    if not tokens:
        raise CliError(f"{config.input_path} holds no integers")
    try:
        symbols = [int(token) for token in tokens]
    except ValueError:
        bad = next(t for t in tokens if not _is_int(t))
        raise CliError(f"malformed integer {bad!r} in {config.input_path}") from None
    try:
        return Text.from_symbols(symbols)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _is_int(token: str) -> bool:
    try:
        int(token)
    except ValueError:
        return False
    return True


def _load_queries(path: str, pairs: bool, label: str) -> list[tuple[int, ...]]:
    tokens = _read_file(path).split()
    try:
        values = [int(token) for token in tokens]
    except ValueError:
        bad = next(t for t in tokens if not _is_int(t))
        raise CliError(f"malformed integer {bad!r} in {path}") from None
    if not pairs:
        return [(v,) for v in values]
    if len(values) % 2:
        raise CliError(f"{label} queries come in pairs; {path} holds {len(values)} integers")
    return list(zip(values[0::2], values[1::2]))


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_arrays(config: RunConfig, report: Report) -> int:
    text = _load_text(config)
    bundle = build_bundle(text)
    report.add("n", text.n)
    report.add("sa", list(bundle.sa[1:]))
    report.add("isa", list(bundle.isa[1:]))
    report.add("lcp", list(bundle.lcp[1:]))
    report.add("plcp", list(bundle.plcp[1:]))
    if config.input_format == "ascii":
        report.add("bwt", "".join(chr(c) for c in bundle.bwt[1:]))
    else:
        report.add("bwt", list(bundle.bwt[1:]))
    report.add("lf", list(bundle.lf[1:]))
    report.add("ilf", list(bundle.ilf[1:]))
    report.add("phi", list(bundle.phi[1:]))
    report.add("inv_phi", list(bundle.inv_phi[1:]))
    return 0


def _cmd_measures(config: RunConfig, report: Report) -> int:
    text = _load_text(config)
    n = text.n
    runs = run_length_encode(text).run_count
    factorization, r, delta = text_measures(text)
    z = factorization.phrase_count
    value = delta.numerator / delta.denominator
    report.add("n", n)
    report.add("sigma", len(set(text.symbols)))
    report.add("rl_runs", runs)
    report.add("z", z)
    report.add("bwt_runs", r)
    report.add("delta", f"{delta.numerator}/{delta.denominator}")
    report.add("delta_decimal", f"{value:.6f}")
    report.add("delta_arg_len", delta.arg_len)
    if n >= 2:
        log = math.log2(n)
        report.add("z/(delta log n)", f"{z / (value * log):.6f}")
        report.add("r/(delta log^2 n)", f"{r / (value * log * log):.6f}")
    report.add("delta/z", f"{value / z:.6f}")
    report.add("delta/r", f"{value / r:.6f}")
    return 0


def _cmd_ilf(config: RunConfig, report: Report) -> int:
    text = _load_text(config)
    index = build_ilf_index(text, use_yfast=config.flavor == "yfast")
    oracle = build_bundle(text).ilf
    mismatches = sum(
        1 for i in range(1, text.n + 1) if ilf_query(index, i) != oracle[i]
    )
    report.add("n", text.n)
    report.add("flavor", config.flavor)
    report.add("boundary_count", index.boundary_count)
    report.add("r_original", index.r_original)
    report.add("r_shifted", index.r_shifted)
    report.add("stored_integers", index.stored_integers)
    report.add("oracle_mismatches", mismatches)
    if config.queries_path is not None:
        for (i,) in _load_queries(config.queries_path, pairs=False, label="ilf"):
            if not 1 <= i <= text.n:
                raise CliError(f"query position {i} outside [1..{text.n}]")
            report.add(f"ilf[{i}]", ilf_query(index, i))
    return 1 if mismatches else 0


def _cmd_ilf_bench(config: RunConfig, report: Report) -> int:
    text = _load_text(config)
    use_yfast = config.flavor == "yfast"
    repeat = max(1, config.repeat)
    batch = max(1, config.batch)
    build_ilf_index(text, use_yfast=use_yfast)  # warm-up
    build_times = []
    index = None
    for _ in range(repeat):
        start = time.perf_counter()
        index = build_ilf_index(text, use_yfast=use_yfast)
        build_times.append((time.perf_counter() - start) * 1e3)
    assert index is not None
    rng = random.Random(config.seed)
    positions = [rng.randint(1, text.n) for _ in range(batch)]
    for i in positions:  # warm-up
        ilf_query(index, i)
    query_times = []
    for _ in range(repeat):
        start = time.perf_counter()
        for i in positions:
            ilf_query(index, i)
        query_times.append((time.perf_counter() - start) * 1e6 / batch)
    report.add("n", text.n)
    report.add("flavor", config.flavor)
    report.add("boundary_count", index.boundary_count)
    report.add("repeat", repeat)
    report.add("batch", batch)
    report.add("build_median_ms", f"{statistics.median(build_times):.3f}")
    report.add("query_median_us", f"{statistics.median(query_times):.3f}")
    return 0


def _grammar_report(config: RunConfig, report: Report, text: Text, index) -> None:
    report.add("n", text.n)
    report.add("epsilon", f"{config.epsilon:g}")
    report.add("k_widen", index.k_widen)
    report.add("ell", index.ell)
    report.add("slp_size", index.slp_size)
    report.add("slp_height", index.slp_height)
    report.add("size", index.size)
    report.add("height", index.height)
    r = bwt_run_count_from_isa(text, index.isa)
    report.add("bwt_runs", r)
    if text.n >= 2:
        log = math.log2(text.n)
        report.add("size/(r log^2 n)", f"{index.size / (r * log * log):.6f}")


def _build_grammar_index(config: RunConfig, text: Text):
    try:
        return build_lcp_rmq_index(text, epsilon=config.epsilon)
    except ValueError as exc:
        raise CliError(str(exc)) from exc


def _cmd_lcp_rmq(config: RunConfig, report: Report) -> int:
    text = _load_text(config)
    index = _build_grammar_index(config, text)
    _grammar_report(config, report, text, index)
    if config.queries_path is not None:
        for b, e in _load_queries(config.queries_path, pairs=True, label="lcp-rmq"):
            if not 0 <= b < e <= text.n:
                raise CliError(f"range ({b}..{e}] is not a valid rank range of [1..{text.n}]")
            report.add(f"argmin({b}..{e}]", lcp_rmq(index, b, e))
    if config.bench:
        repeat = max(1, config.repeat)
        rng = random.Random(config.seed)
        batch = max(1, min(config.batch, 4 * text.n))
        ranges = []
        for _ in range(batch):
            b = rng.randrange(text.n)
            ranges.append((b, rng.randint(b + 1, text.n)))
        for b, e in ranges:  # warm-up
            lcp_rmq(index, b, e)
        times = []
        for _ in range(repeat):
            start = time.perf_counter()
            for b, e in ranges:
                lcp_rmq(index, b, e)
            times.append((time.perf_counter() - start) * 1e6 / batch)
        report.add("bench_repeat", repeat)
        report.add("bench_batch", batch)
        report.add("bench_median_us", f"{statistics.median(times):.3f}")
    return 0


def _cmd_lce(config: RunConfig, report: Report) -> int:
    text = _load_text(config)
    index = _build_grammar_index(config, text)
    _grammar_report(config, report, text, index)
    if config.queries_path is not None:
        for i, j in _load_queries(config.queries_path, pairs=True, label="lce"):
            if not (1 <= i <= text.n and 1 <= j <= text.n):
                raise CliError(f"positions ({i},{j}) outside [1..{text.n}]")
            report.add(f"lce({i},{j})", lce_query(index, i, j))
    return 0


def _verify_one(kind: str, data: tuple[int, ...]) -> gadgets.ReductionReport:
    return gadgets.verify_reduction(kind, gadgets.build_gadget(kind, data))


def _cmd_gadget_verify(config: RunConfig, report: Report) -> int:
    kind = config.kind
    size = config.size
    assert kind is not None and size is not None
    try:
        if config.exhaustive:
            inputs = list(gadgets.all_inputs(kind, size))
        else:
            trials = config.trials if config.trials is not None else 20
            if trials < 1:
                raise CliError("--trials must be at least 1")
            rng = random.Random(config.seed)
            inputs = [gadgets.random_input(kind, size, rng) for _ in range(trials)]
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    if config.workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = max(1, len(inputs) // (config.workers * 4))
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(partial(_verify_one, kind), inputs, chunksize=chunk))
    else:
        results = [_verify_one(kind, data) for data in inputs]
    merged = results[0]
    for one in results[1:]:
        merged = gadgets.merge_reports(merged, one)
    report.add("kind", kind)
    report.add("size", size)
    report.add("mode", "exhaustive" if config.exhaustive else "trials")
    if not config.exhaustive:
        report.add("seed", config.seed)
    report.add("instances", merged.instances)
    report.add("queries", merged.query_count)
    report.add("mismatches", merged.mismatch_count)
    report.add("text_length", merged.text_length)
    report.add("rl_runs", merged.rl_runs)
    report.add("lz_phrases", merged.lz_phrases)
    report.add("cert_phrases", merged.cert_phrases)
    report.add("cert_bound", merged.cert_bound)
    report.add("anchors_consistent", merged.anchors_consistent)
    if merged.first_mismatch is not None:
        report.add("first_mismatch", repr(merged.first_mismatch))
    ok = merged.mismatch_count == 0 and merged.anchors_consistent
    report.add("ok", ok)
    return 0 if ok else 1


_HANDLERS: dict[str, Callable[[RunConfig, Report], int]] = {
    "arrays": _cmd_arrays,
    "measures": _cmd_measures,
    "ilf": _cmd_ilf,
    "ilf-bench": _cmd_ilf_bench,
    "lcp-rmq": _cmd_lcp_rmq,
    "lce": _cmd_lce,
    "gadget-verify": _cmd_gadget_verify,
}


# ---------------------------------------------------------------------------
# Argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csq",
        description=(
            "Compressed string-query toolkit: suffix-array bundles, "
            "repetitiveness measures, run-boundary inverse-LF queries, "
            "grammar LCP-RMQ/LCE, and gadget verification."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True, metavar="subcommand")

    output = argparse.ArgumentParser(add_help=False)
    output.add_argument(
        "--output",
        choices=("human", "structured"),
        default="human",
        help="line-oriented key/value text (default) or one JSON document",
    )

    infile = argparse.ArgumentParser(add_help=False)
    infile.add_argument("--input", required=True, metavar="PATH", help="input text file")
    infile.add_argument(
        "--format",
        choices=("ascii", "ints"),
        default="ascii",
        help="read the file as raw bytes or as whitespace-separated integers",
    )

    sub.add_parser(
        "arrays",
        parents=[infile, output],
        help="dump the nine suffix-array bundle rows of a text",
    )
    sub.add_parser(
        "measures",
        parents=[infile, output],
        help="report repetitiveness measures and their bound ratios",
    )

    p = sub.add_parser(
        "ilf",
        parents=[infile, output],
        help="build the run-boundary inverse-LF index, check it against the bundle, answer queries",
    )
    p.add_argument("--queries", metavar="PATH", help="file of positions, one per inverse-LF query")
    p.add_argument(
        "--flavor",
        choices=("yfast", "bisect"),
        default="yfast",
        help="predecessor structure answering the boundary searches",
    )

    p = sub.add_parser(
        "ilf-bench",
        parents=[infile, output],
        help="time inverse-LF index builds and queries (never gates verification)",
    )
    p.add_argument("--flavor", choices=("yfast", "bisect"), default="yfast")
    p.add_argument("--repeat", type=int, default=5, help="timed repetitions")
    p.add_argument("--batch", type=int, default=2000, help="queries per repetition")
    p.add_argument("--seed", type=int, default=0, help="seed for query positions")

    p = sub.add_parser(
        "lcp-rmq",
        parents=[infile, output],
        help="build the grammar LCP index, answer range-argmin queries over (b..e]",
    )
    p.add_argument("--epsilon", type=float, default=0.5, help="widening depth parameter in (0,1)")
    p.add_argument("--queries", metavar="PATH", help="file of b e pairs")
    p.add_argument("--bench", action="store_true", help="also time random queries (never gates)")
    p.add_argument("--repeat", type=int, default=5, help="timed repetitions with --bench")
    p.add_argument("--batch", type=int, default=2000, help="query cap per repetition with --bench")
    p.add_argument("--seed", type=int, default=0, help="seed for --bench query ranges")

    p = sub.add_parser(
        "lce",
        parents=[infile, output],
        help="build the grammar LCE index, answer longest-common-extension queries",
    )
    p.add_argument("--epsilon", type=float, default=0.5, help="widening depth parameter in (0,1)")
    p.add_argument("--queries", metavar="PATH", help="file of i j pairs")

    p = sub.add_parser(
        "gadget-verify",
        parents=[output],
        help="construct gadget texts and replay their query domains against definitions",
    )
    p.add_argument("--kind", required=True, choices=gadgets.KINDS)
    p.add_argument("--size", required=True, type=int, help="permutation length n or set size m")
    group = p.add_mutually_exclusive_group()
    group.add_argument(
        "--exhaustive", action="store_true", help="enumerate every input of the given size"
    )
    group.add_argument("--trials", type=int, help="number of seeded random inputs (default 20)")
    p.add_argument("--seed", type=int, default=0, help="seed for random inputs")
    p.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard instances across this many processes (default single-threaded)",
    )
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        subcommand=args.subcommand,
        input_path=getattr(args, "input", None),
        input_format=getattr(args, "format", "ascii"),
        seed=getattr(args, "seed", 0),
        trials=getattr(args, "trials", None),
        exhaustive=bool(getattr(args, "exhaustive", False)),
        epsilon=getattr(args, "epsilon", 0.5),
        flavor=getattr(args, "flavor", "yfast"),
        output=getattr(args, "output", "human"),
        kind=getattr(args, "kind", None),
        size=getattr(args, "size", None),
        queries_path=getattr(args, "queries", None),
        bench=bool(getattr(args, "bench", False)),
        repeat=getattr(args, "repeat", 5),
        batch=getattr(args, "batch", 2000),
        workers=getattr(args, "workers", 1),
    )


def run(config: RunConfig) -> int:
    """Dispatch one configuration; print its report; return the exit code."""
    report = Report(config.subcommand)
    try:
        handler = _HANDLERS[config.subcommand]
    except KeyError:
        print(f"error: unknown subcommand {config.subcommand!r}", file=sys.stderr)
        return 2
    try:
        code = handler(config, report)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report.render(config.output))
    return code


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    return run(config_from_args(args))


if __name__ == "__main__":
    sys.exit(main())
