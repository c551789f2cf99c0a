"""distdet benchmark: seeded streams of CLI commands, checked and timed.

Run from the root of a checkout:

    python3 perfbench/run.py --workload many_blocks --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --all --seed 0 --seconds 25   # every workload, one table
    python3 perfbench/run.py --smoke                       # the benchmark's own test

Each run writes its inputs under .perfbench_work/, measures set-up by starting
the worker process several times, then lets one worker run the command stream
in a closed loop (see worker.py) and checks every answer against the expected
values that gen.py derived from the blocks it built. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}, with
the end-to-end metrics for --trace 0 and the per-layer metrics for --trace 1.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("many_blocks", "big_blocks", "oracle_fallback", "verify_campaign")
SETUP_SAMPLES = 11
# op_s_tail is read at the highest percentile with at least this many ops beyond it.
TAIL_BEYOND = 10
# Every per-run subprocess must end well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 150

# Metric names and units come from the benchmark's definition at the root.
DEFINITION = ROOT / "BENCHMARK.json"

OK, FAILED, WRONG = "ok", "failed", "wrong"


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift the int/str digit limit for the checker only, never around a command."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def check(expect: dict, code, out: str) -> str:
    """OK, FAILED (non-zero exit or traceback) or WRONG (exit 0, wrong answer)."""
    if code != 0:
        return FAILED
    if expect["kind"] == "det":
        try:
            with unlimited_int_digits():
                payload = json.loads(out)
        except ValueError:
            return WRONG
        right = isinstance(payload, dict) and (payload.get("det"), payload.get("cof")) == (expect["det"], expect["cof"])
        return OK if right else WRONG
    # verify: every fuzzed graph must agree and every identity is a theorem, so
    # each "name: passed/total" line is full and the verdict is PASS.
    lines = out.splitlines()
    count = expect["count"]
    if len(lines) < 3 or lines[0] != f"graphs: {count}/{count} passed" or lines[-1] != "PASS":
        return WRONG
    counts = [re.fullmatch(r".*: (\d+)/(\d+)", line) for line in lines[1:-1]]
    return OK if all(m and m[1] == m[2] for m in counts) else WRONG


def start_worker(plan: Path) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait until it can take a command; returns it with the set-up seconds."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), str(SRC), str(plan)],
        cwd=ROOT,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("worker did not start; is the distdet source under src/?")
    return proc, setup


def finish(proc: subprocess.Popen, command: str, timeout: float) -> str:
    """Send the worker its command and wait for it to end; kill it if it overruns."""
    try:
        out, _ = proc.communicate(command + "\n", timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def measure_setup(plan: Path, samples: int) -> list[float]:
    times = []
    for _ in range(samples):
        proc, setup = start_worker(plan)
        finish(proc, "quit", WORKER_TIMEOUT_S)
        times.append(setup)
    return times


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND ops above it."""
    ordered = sorted(times)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """One benchmark run; returns the result object plus a few notes for people."""
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ops = gen.make_ops(workload, seed, work, size)
    plan = work / "plan.json"
    plan.write_text(
        json.dumps(
            {
                "argv": [op.argv for op in ops],
                "seconds": seconds,
                "trace": trace,
                "results": str(work / "results.jsonl"),
                "spans": str(work / "spans.jsonl"),
            }
        ),
        encoding="utf-8",
    )
    setups = [] if trace else measure_setup(plan, SETUP_SAMPLES - 1)
    proc, setup = start_worker(plan)
    setups.append(setup)
    out = finish(proc, "go", WORKER_TIMEOUT_S)
    peak_kib = json.loads(out.strip().splitlines()[-1])["peak_rss_kib"]

    verdicts = {OK: 0, FAILED: 0, WRONG: 0}
    slots: list[int] = []
    wall: dict[bool, list[float]] = {False: [], True: []}
    good: dict[bool, list[bool]] = {False: [], True: []}
    errors: dict[str, int] = {}
    with open(work / "results.jsonl", encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            verdict = check(ops[record["slot"]].expect, record["code"], record["out"])
            verdicts[verdict] += 1
            wall[record["traced"]].append(record["wall_ns"] / 1e9)
            if not record["traced"]:
                slots.append(record["slot"])
            good[record["traced"]].append(verdict == OK)
            if verdict != OK:
                message = (record["err"].strip().splitlines() or ["wrong answer"])[-1][:80]
                errors[message] = errors.get(message, 0) + 1

    notes = [f"{workload} seed {seed}: {sum(verdicts.values())} ops, {verdicts[FAILED]} failed, {verdicts[WRONG]} wrong"]
    notes += [f"  {count} x {message}" for message, count in errors.items()]
    if trace:
        with open(work / "spans.jsonl", encoding="utf-8") as handle:
            metrics = spans.summarize([json.loads(line) for line in handle])
        metrics["trace.ops_per_s"] = sum(good[True]) / sum(wall[True])
        metrics["trace.untraced_ops_per_s"] = sum(good[False]) / sum(wall[False])
        metrics["trace.slowdown"] = sum(wall[True]) / sum(wall[False])
    else:
        # Each op counts at the fastest time its command took in the run
        # (every command recurs once per pass); see README.md.
        best: dict[int, float] = {}
        for slot, seconds_taken in zip(slots, wall[False]):
            best[slot] = min(seconds_taken, best.get(slot, seconds_taken))
        times = [best[slot] for slot in slots]
        percentile, tail_s = tail(times)
        notes.append(
            f"  {len(times) // len(best)} passes over {len(best)} commands; op_s_tail is p{percentile:.1f}"
            f" of {len(times)} ops; setup_s is the median of {len(setups)} starts"
        )
        metrics = {
            "ops_per_s": sum(good[False]) / sum(times),
            "op_s_p50": statistics.median(times),
            "op_s_tail": tail_s,
            "ok_frac": sum(good[False]) / len(times),
            "setup_s": statistics.median(setups),
            "peak_rss_mib": peak_kib / 1024,
        }
    definition = json.loads(DEFINITION.read_text(encoding="utf-8"))
    listed = definition["per_layer" if trace else "end_to_end"]
    attempted = sum(verdicts.values())
    return {
        "correct": verdicts[WRONG] == 0,
        "attempted": attempted,
        "failed": verdicts[FAILED] + verdicts[WRONG],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
        "notes": notes,
    }


def smoke() -> bool:
    """Tiny sizes: every workload, untraced and traced, must answer correctly,
    and the checker must reject an answer once its expected value is corrupted."""
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run_workload(workload, seed=1, seconds=0.01, trace=trace, size="smoke")
            passed = result["correct"] and result["failed"] == 0
            print(f"smoke {workload} trace={int(trace)}: {'ok' if passed else 'FAILED'}")
            ok = ok and passed
        ops = gen.make_ops(workload, 1, WORK / workload, "smoke")
        record = json.loads((WORK / workload / "results.jsonl").read_text(encoding="utf-8").splitlines()[0])
        expect = dict(ops[record["slot"]].expect)
        expect["det" if expect["kind"] == "det" else "count"] += 1
        rejected = check(expect, record["code"], record["out"]) == WRONG
        print(f"smoke {workload}: checker {'rejects' if rejected else 'ACCEPTS'} a corrupted expected value")
        ok = ok and rejected
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description="distdet benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload and print one table")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, checks the benchmark itself")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "distdet" / "cli.py").is_file() or not DEFINITION.is_file():
        print(f"error: no distdet source or BENCHMARK.json under {ROOT}; run from a distdet checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return 0 if smoke() else 1
    if args.all:
        rows = [(w, run_workload(w, args.seed, args.seconds, bool(args.trace))) for w in WORKLOADS]
        for _, result in rows:
            print("\n".join(result["notes"]))
        names = list(rows[0][1]["metrics"])
        print(f"{'metric':28} {'unit':6} " + " ".join(f"{w:>16}" for w, _ in rows))
        for name in names:
            values = " ".join(f"{r['metrics'][name]['value']:16.6g}" for _, r in rows)
            print(f"{name:28} {rows[0][1]['metrics'][name]['unit']:6} {values}")
        print("answers checked: " + ", ".join(f"{w} {'correct' if r['correct'] else 'WRONG'}" for w, r in rows))
        return 0 if all(r["correct"] for _, r in rows) else 1
    if args.workload is None:
        parser.error("give --workload, --all or --smoke")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(result.pop("notes")))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
