"""Command line interface.

Subcommands: det (determinant of one graph, closed forms per block and the
block oracle for the rest), classify (block table), verify (fuzz campaign plus
proof identities), gen (emit a random block graph as an edge list), bench (CSV
timings).

Exit codes: 0 answer, 1 verify failure, 2 bad input, 3 refusal (a block too
large for the block oracle), 4 internal inconsistency.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time

from .blocks import Unsupported, block_row, classify_graph
from .formulas import MAX_ORACLE_BLOCK, BlockTooLargeError, FormulaResult, block_detcof, det_cof_closed
from .graphs import BlockRequest, Graph, GraphError, check_theta_triple, format_edge_list, parse_edge_list, random_block_graph, triangle_chain
from .verify import (
    congruence_check_theta,
    congruence_check_theta_prime,
    cycle_inverse_identity,
    det_cof_oracle,
    fuzz_campaign,
    scalar_identity_checks,
)

INVERSE_K_MAX = 12
CONGRUENCE_RANGE = range(2, 7)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _block_lines(rows: list[dict]) -> list[str]:
    return [
        f"  {row['kind']}: no closed form" if row["det"] is None else f"  {row['kind']}: det={row['det']} cof={row['cof']}"
        for row in rows
    ]


def _unlimited_int_digits(fn):
    """fn() with the int/str digit limit lifted, so that results of any size
    can be printed. The limit is restored at once; it stays in force while
    input is parsed. Interpreters before 3.11 have no limit."""
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        return fn()
    previous = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        return fn()
    finally:
        set_limit(previous)


def _det_output(g: Graph, result: FormulaResult, fmt: str) -> str:
    rows = [block_row(kind, value) for kind, value in result.blocks]
    if fmt == "json":
        return json.dumps({"n": g.n, "det": result.det, "cof": result.cof, "blocks": rows, "provenance": result.provenance})
    lines = [f"det={result.det} cof={result.cof}", f"provenance: {result.provenance}"]
    if rows:
        lines += ["blocks:"] + _block_lines(rows)
    return "\n".join(lines)


def cmd_det(args) -> int:
    g = parse_edge_list(_read_text(args.input))
    result = det_cof_closed(g)
    print(_unlimited_int_digits(lambda: _det_output(g, result, args.format)))
    return 0


def cmd_classify(args) -> int:
    g = parse_edge_list(_read_text(args.input))
    # no oracle runs here: blocks without a closed form are listed as such
    rows = [block_row(kind, None if isinstance(kind, Unsupported) else block_detcof(kind)) for _, kind in classify_graph(g)]
    if args.format == "json":
        print(json.dumps({"n": g.n, "edges": g.edge_count, "blocks": rows}))
    else:
        print("\n".join([f"n={g.n} edges={g.edge_count} blocks={len(rows)}"] + _block_lines(rows)))
    return 0


def cmd_verify(args) -> int:
    summary = fuzz_campaign(args.count, args.max_n, args.seed)
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            for report in summary.reports:
                handle.write(json.dumps(report.to_json_dict()) + "\n")
    inverse_ok = sum(cycle_inverse_identity(k) for k in range(1, INVERSE_K_MAX + 1))
    scalar_ok = sum(scalar_identity_checks(k) for k in range(1, INVERSE_K_MAX + 1))
    pairs = [(k, s) for k in CONGRUENCE_RANGE for s in CONGRUENCE_RANGE]
    congruence_ok = sum(congruence_check_theta(k, s) for k, s in pairs)
    pendant_ok = sum(congruence_check_theta_prime(k, s) for k, s in pairs)

    print(f"graphs: {summary.passed}/{summary.count} passed")
    print(f"cycle inverse identity (k<=12): {inverse_ok}/{INVERSE_K_MAX}")
    print(f"scalar identities (k<=12): {scalar_ok}/{INVERSE_K_MAX}")
    print(f"theta congruence (k,s in 2..6): {congruence_ok}/{len(pairs)}")
    print(f"theta pendant congruence (k,s in 2..6): {pendant_ok}/{len(pairs)}")
    ok = (
        summary.all_passed
        and inverse_ok == INVERSE_K_MAX
        and scalar_ok == INVERSE_K_MAX
        and congruence_ok == len(pairs)
        and pendant_ok == len(pairs)
    )
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _parse_block_spec(text: str) -> BlockRequest:
    """Parse "edges=3,cycles=3;5,thetas=1-2-2;2-2-3" into a block request."""
    edges = 0
    cycles: list[int] = []
    thetas: list[tuple[int, int, int]] = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, value = chunk.partition("=")
        if not sep:
            raise ValueError(f"expected key=value, got {chunk!r}")
        if key == "edges":
            edges = int(value)
        elif key == "cycles":
            cycles += [int(item) for item in value.split(";") if item]
        elif key == "thetas":
            for item in value.split(";"):
                if not item:
                    continue
                parts = tuple(int(x) for x in item.split("-"))
                if len(parts) != 3:
                    raise ValueError(f"theta spec needs three lengths, got {item!r}")
                thetas.append(check_theta_triple(*parts))
        else:
            raise ValueError(f"unknown block kind {key!r}")
    return BlockRequest(edges, tuple(cycles), tuple(thetas))


def cmd_gen(args) -> int:
    request = _parse_block_spec(args.blocks)
    g = random_block_graph(request, args.seed)
    text = format_edge_list(g, comment=f"blocks: {args.blocks} seed: {args.seed}")
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


def _median_micros(fn, reps: int):
    """(median micros over reps runs of fn, the last run's result)."""
    samples = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        result = fn()
        samples.append((time.perf_counter_ns() - start) / 1000)
    return int(statistics.median(samples)), result


def bench_rows(max_n: int, reps: int) -> list[tuple[int, int, int, bool]]:
    """Timed closed-form vs oracle runs on the benchmark family, median micros."""
    sizes = []
    n = 10
    while n < max_n:
        sizes.append(n)
        n *= 2
    sizes.append(max_n)
    rows = []
    for size in sizes:
        g = triangle_chain(size)
        closed, closed_result = _median_micros(lambda: det_cof_closed(g), reps)
        oracle, oracle_result = _median_micros(lambda: det_cof_oracle(g), reps)
        match = closed_result.detcof == oracle_result
        rows.append((size, closed, oracle, match))
    return rows


def cmd_bench(args) -> int:
    if not 10 <= args.max_n <= MAX_ORACLE_BLOCK:
        # the oracle runs on the whole graph, so its size is held to the block oracle limit
        raise ValueError(f"need 10 <= --max-n <= {MAX_ORACLE_BLOCK}")
    if args.reps < 1:
        raise ValueError("need --reps >= 1")
    lines = ["n,closed_micros,oracle_micros,match"]
    for size, closed, oracle, match in bench_rows(args.max_n, args.reps):
        lines.append(f"{size},{closed},{oracle},{str(match).lower()}")
    text = "\n".join(lines) + "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="distdet",
        description="Exact distance-matrix determinants for graphs whose blocks are edges, cycles, or theta graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    det = sub.add_parser("det", help="closed-form det/cof of one graph (edge-list file or '-')")
    det.add_argument("input", help="edge list file, or '-' for stdin")
    det.add_argument("--format", choices=("text", "json"), default="text")
    det.set_defaults(func=cmd_det)

    classify = sub.add_parser("classify", help="block decomposition table")
    classify.add_argument("input", help="edge list file, or '-' for stdin")
    classify.add_argument("--format", choices=("text", "json"), default="text")
    classify.set_defaults(func=cmd_classify)

    verify = sub.add_parser("verify", help="fuzz campaign plus proof-identity checks")
    verify.add_argument("--count", type=int, default=200)
    verify.add_argument("--max-n", type=int, default=40)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--report", help="write one JSON object per graph to this file")
    verify.set_defaults(func=cmd_verify)

    gen = sub.add_parser("gen", help="generate a random block graph as an edge list")
    gen.add_argument("blocks", help='block spec, e.g. "edges=3,cycles=3;5,thetas=1-2-2"')
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", default="-")
    gen.set_defaults(func=cmd_gen)

    bench = sub.add_parser("bench", help="closed form vs oracle timings, CSV")
    bench.add_argument("--max-n", type=int, default=200)
    bench.add_argument("--reps", type=int, default=5)
    bench.add_argument("-o", "--output", default="-")
    bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (GraphError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BlockTooLargeError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"error: internal inconsistency, please report: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
